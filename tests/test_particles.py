"""Particle system: initialization, forces, Verlet mechanics, deposition."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holderflow.fields import FieldInterpolant, Grid, SigmaField
from holderflow.kernels import KernelFamily, phi_N
from holderflow.particles import (
    ForceMesh,
    ParticleEnsemble,
    _dense_cdf_1d,
    deposit_cic,
    empirical_density,
    empirical_momentum,
    init_from_fields,
    interaction_force,
    sorted_sum,
    step,
)


def _family(beta=0.6, bandwidth=0.05):
    return KernelFamily(beta=beta, dim=1, bandwidth=bandwidth)


def _uniform_fields(m=256, box=1.0):
    g = Grid(box=box, m=m, dim=1)
    return np.ones(m) / box, np.zeros((1, m)), g


def _sine_fields(m=256, box=1.0, a=0.2, b=0.1):
    g = Grid(box=box, m=m, dim=1)
    x = g.nodes()
    rho = (1.0 + a * np.sin(2 * np.pi * x / box)) / box
    v = (b * np.cos(2 * np.pi * x / box))[None, :]
    return rho, v, g


class TestEnsemble:
    def test_wraps_positions_into_box(self):
        ens = ParticleEnsemble(box=1.0, positions=[[1.25]], velocities=[[0.0]])
        assert ens.positions[0, 0] == pytest.approx(0.25)

    def test_tiny_negative_coordinate_stays_below_the_box(self):
        # np.mod(-1e-18, 1.0) rounds up to 1.0, which is outside [0, L).
        ens = ParticleEnsemble(box=1.0, positions=[[-1e-18], [0.5]], velocities=[[0.0], [0.0]])
        assert np.all(ens.positions >= 0.0) and np.all(ens.positions < 1.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ParticleEnsemble(box=1.0, positions=np.zeros((3, 1)), velocities=np.zeros((2, 1)))

    def test_rejects_non_finite(self):
        with pytest.raises(FloatingPointError):
            ParticleEnsemble(box=1.0, positions=[[np.nan]], velocities=[[0.0]])


class TestSortedSum:
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_bitwise_permutation_invariance(self, seed):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(301)
        perm = np.random.default_rng(seed).permutation(301)
        assert sorted_sum(vals) == sorted_sum(vals[perm])


class TestInitialization:
    def test_quantile_uniform_density_exact_midpoints(self):
        rho, v, g = _uniform_fields()
        ens = init_from_fields(rho, v, 4, g)
        assert np.allclose(np.sort(ens.positions[:, 0]), [0.125, 0.375, 0.625, 0.875],
                           atol=1e-12)

    def test_cdf_matches_closed_form(self):
        # rho ~ 1 + a sin(2 pi x): F has an elementary antiderivative.
        a = 0.2
        rho, _, g = _sine_fields(a=a)
        x, cdf = _dense_cdf_1d(rho, g)
        exact = x - a / (2 * np.pi) * (np.cos(2 * np.pi * x) - 1.0)
        exact /= exact[-1]
        assert np.max(np.abs(cdf - exact)) < 1e-12

    def test_velocities_sampled_from_field(self):
        rho, v, g = _sine_fields()
        ens = init_from_fields(rho, v, 64, g)
        want = FieldInterpolant(v[0], g)(ens.positions)
        assert np.max(np.abs(ens.velocities[:, 0] - want)) < 1e-12

    def test_random_strategy_needs_valid_density(self):
        _, v, g = _uniform_fields()
        with pytest.raises(ValueError, match="positive"):
            init_from_fields(np.zeros(256), v, 8, g, strategy="random", seed=0)

    def test_unknown_strategy_rejected(self):
        rho, v, g = _uniform_fields()
        with pytest.raises(ValueError, match="strategy"):
            init_from_fields(rho, v, 8, g, strategy="sobol")

    def test_quantile_positions_invert_cdf_to_rounding(self):
        rho, v, g = _sine_fields()
        x, cdf = _dense_cdf_1d(rho, g)
        for n in (64, 512):
            ens = init_from_fields(rho, v, n, g)
            pos = np.sort(ens.positions[:, 0])
            emp = (np.arange(n) + 0.5) / n
            assert np.max(np.abs(np.interp(pos, x, cdf) - emp)) < 1e-10


class TestForces:
    def test_newton_third_law_direct(self):
        rng = np.random.default_rng(1)
        fam = _family()
        n = 128
        ens = ParticleEnsemble(box=1.0, positions=rng.random((n, 1)),
                               velocities=np.zeros((n, 1)))
        force = interaction_force(ens, fam, "direct")
        scale = np.max(np.abs(force)) + 1e-300
        assert abs(sorted_sum(force[:, 0])) <= 1e-12 * n * scale

    def test_self_interaction_zero(self):
        fam = _family()
        ens = ParticleEnsemble(box=1.0, positions=[[0.5]], velocities=[[0.0]])
        assert np.all(interaction_force(ens, fam, "direct") == 0.0)

    def test_grid_matches_direct(self):
        rng = np.random.default_rng(2)
        fam = KernelFamily(beta=0.3, dim=1, bandwidth=0.1)
        n = 128
        ens = ParticleEnsemble(box=1.0, positions=rng.random((n, 1)),
                               velocities=np.zeros((n, 1)))
        fd = interaction_force(ens, fam, "direct")
        fg = interaction_force(ens, fam, "grid", grid_m=2048)
        rel = np.max(np.abs(fd - fg)) / np.max(np.abs(fd))
        assert rel < 1e-3

    def test_grid_matches_direct_2d(self):
        # The 2^d-corner deposit/gather and the rfftn window deconvolution in
        # d=2: the grid force converges to the exact pairwise sum at second
        # order in h.  The auto mesh is capped at MAX_GRID points (M=256,
        # about 8 cells per kernel width); 2M restores 16 cells per width.
        from holderflow.convergence import _auto_grid

        rng = np.random.default_rng(0)
        fam = KernelFamily(beta=0.6, dim=2, bandwidth=0.12)
        n = 256
        ens = ParticleEnsemble(box=1.0, positions=rng.random((n, 2)),
                               velocities=np.zeros((n, 2)))
        fd = interaction_force(ens, fam, "direct")
        m = _auto_grid(fam, n, 1.0, 64, "phi")
        rel = [np.max(np.abs(interaction_force(ens, fam, "grid", grid_m=mm) - fd))
               / np.max(np.abs(fd)) for mm in (m, 2 * m)]
        assert rel[0] < 4e-3
        assert rel[1] < 2e-3
        assert rel[1] < rel[0] / 3

    def test_grid_requires_resolution(self):
        fam = _family()
        ens = ParticleEnsemble(box=1.0, positions=[[0.2], [0.7]],
                               velocities=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="grid_m"):
            interaction_force(ens, fam, "grid")
        with pytest.raises(ValueError, match="under-resolves"):
            interaction_force(ens, fam, "grid", grid_m=16)

    def test_unknown_backend_rejected(self):
        fam = _family()
        ens = ParticleEnsemble(box=1.0, positions=[[0.2]], velocities=[[0.0]])
        with pytest.raises(ValueError, match="backend"):
            interaction_force(ens, fam, "tree")


class TestForceMesh:
    @pytest.mark.parametrize("dim, m", [(1, 2048), (2, 128)])
    def test_prebuilt_plan_matches_on_the_fly_bitwise(self, dim, m):
        rng = np.random.default_rng(3)
        fam = KernelFamily(beta=0.3, dim=dim, bandwidth=0.1)
        n = 128
        ens = ParticleEnsemble(box=1.0, positions=rng.random((n, dim)),
                               velocities=np.zeros((n, dim)))
        mesh = ForceMesh(fam, n, Grid(box=1.0, m=m, dim=dim))
        planned = interaction_force(ens, fam, "grid", grid_m=m, mesh=mesh)
        assert np.array_equal(planned, interaction_force(ens, fam, "grid", grid_m=m))
        assert np.array_equal(planned, interaction_force(ens, fam, "grid", grid_m=m, mesh=mesh))

    def test_plan_for_other_n_or_mesh_refused(self):
        fam = KernelFamily(beta=0.3, dim=1, bandwidth=0.1)
        rng = np.random.default_rng(4)
        ens = ParticleEnsemble(box=1.0, positions=rng.random((128, 1)),
                               velocities=np.zeros((128, 1)))
        for n, m in ((256, 2048), (128, 1024)):
            mesh = ForceMesh(fam, n, Grid(box=1.0, m=m, dim=1))
            with pytest.raises(ValueError, match="force mesh built for"):
                interaction_force(ens, fam, "grid", grid_m=2048, mesh=mesh)
        other = KernelFamily(beta=0.3, dim=1, bandwidth=0.08)
        mesh = ForceMesh(other, 128, Grid(box=1.0, m=2048, dim=1))
        with pytest.raises(ValueError, match="force mesh built for"):
            interaction_force(ens, fam, "grid", grid_m=2048, mesh=mesh)

    def test_plan_construction_refuses(self):
        with pytest.raises(ValueError, match="half the box"):
            ForceMesh(_family(bandwidth=0.2), 2, Grid(box=1.0, m=1024, dim=1))
        with pytest.raises(ValueError, match="under-resolves"):
            ForceMesh(_family(), 2, Grid(box=1.0, m=16, dim=1))

    def test_plan_arrays_read_only(self):
        mesh = ForceMesh(_family(), 64, Grid(box=1.0, m=1024, dim=1))
        with pytest.raises(ValueError):
            mesh.win2[0] = 1.0
        with pytest.raises(ValueError):
            mesh.spectra[0][0] = 1.0


class TestStep:
    def _hamiltonian(self, ens, fam):
        # (1/2N) sum |V|^2 + (1/2N^2) sum_kl phi_N(X_k - X_l)
        n = ens.count
        kin = 0.5 * sorted_sum(np.sum(ens.velocities**2, axis=1)) / n
        diff = ens.positions[:, None, :] - ens.positions[None, :, :]
        diff -= ens.box * np.round(diff / ens.box)
        pot = 0.5 * sorted_sum(phi_N(fam, n, diff.reshape(-1, 1))) / n**2
        return kin + pot

    def test_verlet_energy_drift_second_order(self):
        rng = np.random.default_rng(3)
        fam = _family(bandwidth=0.05)
        n = 64
        pos = rng.random((n, 1))
        vel = 0.1 * rng.standard_normal((n, 1))
        drifts = []
        for dt in (2e-3, 1e-3):
            ens = ParticleEnsemble(box=1.0, positions=pos, velocities=vel)
            e0 = self._hamiltonian(ens, fam)
            accel = None
            for _ in range(int(round(0.2 / dt))):
                ens, accel = step(ens, dt, fam, accel=accel)
            drifts.append(abs(self._hamiltonian(ens, fam) - e0))
        ratio = drifts[0] / drifts[1]
        assert 4.0 * 0.7 <= ratio <= 4.0 * 1.3

    def test_momentum_conserved_without_noise(self):
        rng = np.random.default_rng(4)
        fam = _family()
        n = 64
        ens = ParticleEnsemble(box=1.0, positions=rng.random((n, 1)),
                               velocities=0.1 * rng.standard_normal((n, 1)))
        p0 = sorted_sum(ens.velocities[:, 0])
        accel = None
        for _ in range(50):
            ens, accel = step(ens, 1e-3, fam, accel=accel)
        assert abs(sorted_sum(ens.velocities[:, 0]) - p0) < 1e-12

    def test_noise_kick_applied_at_new_positions(self):
        # Zero-force configuration: velocity change equals sigma(t, X_new) dY.
        fam = _family()
        sigma = SigmaField(amplitude=0.2, modulation=0.5)
        n = 8
        pos = ((np.arange(n) + 0.5) / n)[:, None]  # uniform: net force ~ 0
        ens = ParticleEnsemble(box=1.0, positions=pos, velocities=np.zeros((n, 1)))
        dy = np.array([0.3])
        new, _ = step(ens, 1e-3, fam, dy=dy, sigma=sigma)
        want = sigma.at(0.0, new.positions, 1.0)[:, 0] * dy[0]
        assert np.max(np.abs(new.velocities[:, 0] - want)) < 1e-9

    def test_non_finite_step_is_numerical_failure(self):
        rng = np.random.default_rng(5)
        n = 64
        ens = ParticleEnsemble(box=1.0, positions=rng.random((n, 1)),
                               velocities=np.zeros((n, 1)))
        with pytest.raises(FloatingPointError, match="non-finite particle state"):
            step(ens, 1e-3, _family(), dy=np.array([np.inf]), sigma=SigmaField())

    def test_rejects_nonpositive_dt(self):
        fam = _family()
        ens = ParticleEnsemble(box=1.0, positions=[[0.5]], velocities=[[0.0]])
        with pytest.raises(ValueError):
            step(ens, 0.0, fam)

    def test_time_advances(self):
        fam = _family()
        ens = ParticleEnsemble(box=1.0, positions=[[0.5]], velocities=[[0.0]])
        new, _ = step(ens, 0.25, fam)
        assert new.time == pytest.approx(0.25)


class TestDeposition:
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_cic_label_permutation_bitwise_invariant(self, seed):
        g = Grid(box=1.0, m=128, dim=1)
        rng = np.random.default_rng(5)
        pts = rng.random((101, 1))
        w = rng.standard_normal(101)
        perm = np.random.default_rng(seed).permutation(101)
        a = deposit_cic(pts, g, weights=w)
        b = deposit_cic(pts[perm], g, weights=w[perm])
        assert np.array_equal(a, b)

    def test_cic_mass_conservation(self):
        g = Grid(box=1.0, m=128, dim=1)
        rng = np.random.default_rng(6)
        dep = deposit_cic(rng.random((500, 1)), g)
        assert np.sum(dep) * g.cell_volume() == pytest.approx(1.0, abs=1e-13)

    def test_empirical_density_integrates_to_one(self):
        rho, v, g = _sine_fields()
        fam = _family()
        ens = init_from_fields(rho, v, 256, g)
        dens = empirical_density(ens, fam, Grid(box=1.0, m=4096, dim=1))
        assert np.sum(dens) / 4096 == pytest.approx(1.0, abs=1e-10)

    def test_empirical_density_tracks_smooth_density(self):
        rho, v, g = _sine_fields()
        fam = _family()
        fine = Grid(box=1.0, m=8192, dim=1)
        errs = []
        from holderflow.fields import upsample

        rho_fine = upsample(rho, g, 8192)
        for n in (256, 2048):
            ens = init_from_fields(rho, v, n, g)
            dens = empirical_density(ens, fam, fine)
            errs.append(np.sqrt(np.mean((dens - rho_fine) ** 2)))
        assert errs[1] < errs[0]

    def test_empirical_momentum_shape_and_mean(self):
        rho, v, g = _sine_fields()
        fam = _family()
        ens = init_from_fields(rho, v, 256, g)
        mom = empirical_momentum(ens, fam, Grid(box=1.0, m=4096, dim=1))
        assert mom.shape == (1, 4096)
        want = np.mean(ens.velocities[:, 0])
        assert np.mean(mom[0]) == pytest.approx(want, rel=1e-10)
