"""Particle system: initialization, forces, Verlet mechanics, deposition."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holderflow.besov import deposit_nearest
from holderflow.convergence import ExperimentConfig, _auto_grid, run_coupled
from holderflow.fields import FieldInterpolant, Grid, SigmaField, padded_spectrum
from holderflow.kernels import KernelFamily, RegimeError, _kernel_spectrum
from holderflow import particles
from holderflow.particles import (
    ParticleEnsemble,
    _cic_corners,
    _cic_transfer,
    _dense_cdf_1d,
    _force_operators,
    deposit_cic,
    empirical_density,
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

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("m", [32, 256])
    def test_d2_quantile_positions_invert_closed_form_cdf(self, m, axis):
        # rho = 1 + 0.2 sin(2 pi x_axis): each point's coordinates are its
        # stratum midpoints of the 64 x 64 strata, inverted through the CDF
        # F(x) = x + 0.2 (1 - cos 2 pi x) / (2 pi) along ``axis`` and through
        # the uniform law along the other.  A rectangle-rule CDF on the mesh
        # misses the closed form by 3.2e-3 at m = 32.
        g = Grid(box=1.0, m=m, dim=2)
        rho = 1.0 + 0.2 * np.sin(2 * np.pi * g.coordinate(axis))
        ens = init_from_fields(rho, np.zeros((2,) + g.shape), 4096, g)
        mids = (np.arange(64) + 0.5) / 64
        u = np.stack(np.meshgrid(mids, mids, indexing="ij"), axis=-1).reshape(-1, 2)
        for q, cdf in ((axis, lambda x: x + 0.2 * (1 - np.cos(2 * np.pi * x)) / (2 * np.pi)),
                       (1 - axis, lambda x: x)):
            assert np.max(np.abs(cdf(ens.positions[:, q]) - u[:, q])) < 1e-9

    def test_quantile_sides_near_square(self):
        assert particles.quantile_sides(4096, 1) == [4096]
        assert particles.quantile_sides(4096, 2) == [64, 64]
        assert particles.quantile_sides(512, 2) == [16, 32]
        assert particles.quantile_sides(257, 2) == [1, 257]

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
        from holderflow.convergence import ExperimentConfig, _auto_grid, run_coupled

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
    def test_cache_hit_force_equals_first_call_bitwise(self, dim, m):
        rng = np.random.default_rng(3)
        fam = KernelFamily(beta=0.3, dim=dim, bandwidth=0.1)
        ens = ParticleEnsemble(box=1.0, positions=rng.random((128, dim)),
                               velocities=np.zeros((128, dim)))
        _force_operators.cache_clear()
        first = interaction_force(ens, fam, "grid", grid_m=m)
        assert np.array_equal(interaction_force(ens, fam, "grid", grid_m=m), first)
        info = _force_operators.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_plan_construction_refuses(self):
        # Refusals are not cached: the second call refuses again.
        _force_operators.cache_clear()
        ens = ParticleEnsemble(box=1.0, positions=[[0.2], [0.7]],
                               velocities=np.zeros((2, 1)))
        for _ in range(2):
            with pytest.raises(RegimeError, match="half the box"):
                interaction_force(ens, _family(bandwidth=0.2), "grid", grid_m=1024)
            with pytest.raises(RegimeError, match="under-resolves"):
                _force_operators(_family(), 2, Grid(box=1.0, m=16, dim=1))
        assert _force_operators.cache_info().currsize == 0

    @pytest.mark.parametrize("dim, m", [
        (1, 2048), (2, 96),
        pytest.param(1, None, id="1-direct"), pytest.param(2, None, id="2-direct"),
    ])
    def test_grid_force_label_equivariant_bitwise(self, dim, m):
        # On the grid, over a hundred nodes receive three or more entries.
        # In d=2 their sums depend on the order, so a deposit not in a
        # canonical order shows in the force; in d=1 the CIC weights of one
        # node share an exponent range and usually add exactly.  The direct
        # sum (m None) is equivariant only if each target sums its sources in
        # a canonical order.
        rng = np.random.default_rng(13)
        fam = KernelFamily(beta=0.3, dim=dim, bandwidth=0.1)
        pos = rng.random((1024, dim))
        pos[996:] = pos[:28]  # coincident particles
        perm = rng.permutation(1024)

        def force(p):
            ens = ParticleEnsemble(box=1.0, positions=p, velocities=np.zeros_like(p))
            return interaction_force(ens, fam, "direct" if m is None else "grid", grid_m=m)

        f = force(pos)
        assert np.array_equal(force(pos[perm]), f[perm])
        assert np.array_equal(f[996:], f[:28])

    def test_reciprocal_window_product_bitwise_equal_to_quotient(self):
        # The desk force mesh at N = 4096 (beta 0.6, bandwidth 0.05).
        fam, n = _family(), 4096
        m = _auto_grid(fam, n, 1.0, 8192, "phi")
        assert m == 65536
        g = Grid(box=1.0, m=m, dim=1)
        spectra, inv_win2 = _force_operators(fam, n, g)
        rho, v, pde = _sine_fields()
        dk = g.rfft(deposit_cic(init_from_fields(rho, v, n, pde).positions, g))
        win2 = _cic_transfer(g) ** 2
        for gq in spectra:
            assert np.array_equal(dk * gq * inv_win2, dk * gq / win2)

    @pytest.mark.parametrize("dim, m", [(1, 4096), (2, 64)])
    def test_cic_window_cached_read_only_and_bitwise(self, dim, m):
        g = Grid(box=1.0, m=m, dim=dim)
        win = _cic_transfer(g)
        assert win is _cic_transfer(Grid(box=1.0, m=m, dim=dim))
        with pytest.raises(ValueError):
            win.flat[0] = 1.0
        formula = np.sinc(g.frequencies(0))
        for q in range(1, dim):
            formula = formula * np.sinc(g.frequencies(q))
        assert np.array_equal(win, formula**2)

    def test_cic_window_built_once_per_mesh_in_a_sweep(self):
        cfg = ExperimentConfig(
            horizon=0.05, master_steps=32, seeds=(0, 1), n_sweep=(64, 256),
            checkpoints=4, pde_resolution=128, force_grid=1024, fine_grid=1024,
            besov_grid=1024,
        )
        fam = cfg.kernel()
        meshes = {
            _auto_grid(fam, n, cfg.box, minimum, which)
            for n in cfg.n_sweep
            for minimum, which in ((cfg.force_grid, "phi"), (cfg.fine_grid, "phi_r"))
        }
        assert len(meshes) >= 2
        # Force operators cached by an earlier test skip their window lookup.
        _cic_transfer.cache_clear()
        _force_operators.cache_clear()
        run_coupled(cfg)
        info = _cic_transfer.cache_info()
        assert (info.misses, info.currsize) == (len(meshes), len(meshes))
        assert info.hits > 0

    def test_plan_arrays_read_only(self):
        ops = _force_operators(_family(), 64, Grid(box=1.0, m=1024, dim=1))
        assert ops is _force_operators(_family(), 64, Grid(box=1.0, m=1024, dim=1))
        spectra, inv_win2 = ops
        with pytest.raises(ValueError, match="read-only"):
            inv_win2[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            spectra[0][0] = 1.0

    @pytest.mark.parametrize(
        "cache", ["cic_transfer", "force_operators", "kernel_spectrum", "sigma_spectrum"]
    )
    def test_concurrent_lookups_build_once(self, cache):
        # The sweep's threads share these caches: eight threads asking for
        # one key at once get one build and the same read-only object.
        g = Grid(box=1.0, m=65536, dim=1)
        fn, key = {
            "cic_transfer": (_cic_transfer, (g,)),
            "force_operators": (_force_operators, (_family(), 4096, g)),
            "kernel_spectrum": (_kernel_spectrum, (_family(), 4096, g, "phi_r")),
            "sigma_spectrum": (SigmaField.spectrum, (SigmaField(0.2, 0.5), g)),
        }[cache]
        fn.cache_clear()
        start = threading.Barrier(8, timeout=30)

        def lookup():
            start.wait()
            return fn(*key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(lookup) for _ in range(8)]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert fn.cache_info().misses == 1
        assert all(obj is got[0] for obj in got)
        arrays = [*got[0][0], got[0][1]] if cache == "force_operators" else [got[0]]
        assert not any(a.flags.writeable for a in arrays)


class TestStep:
    def _hamiltonian(self, ens, fam):
        # (1/2N) sum |V|^2 + (1/2N^2) sum_kl phi_N(X_k - X_l)
        n = ens.count
        kin = 0.5 * sorted_sum(np.sum(ens.velocities**2, axis=1)) / n
        diff = ens.positions[:, None, :] - ens.positions[None, :, :]
        diff -= ens.box * np.round(diff / ens.box)
        pot = 0.5 * sorted_sum(fam.kernel(n, diff.reshape(-1, 1))) / n**2
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
        want = sigma.at(new.positions, 1.0) * dy[0]
        assert np.max(np.abs(new.velocities[:, 0] - want)) < 1e-9

    @pytest.mark.parametrize("dim", [1, 2])
    def test_noise_by_halves_refused(self, dim):
        rng = np.random.default_rng(8)
        fam = KernelFamily(beta=0.3, dim=dim, bandwidth=0.1)
        ens = ParticleEnsemble(box=1.0, positions=rng.random((32, dim)),
                               velocities=np.zeros((32, dim)))
        with pytest.raises(ValueError, match="dy and sigma must be given together"):
            step(ens, 1e-3, fam, dy=np.full(dim, 0.1))
        with pytest.raises(ValueError, match="dy and sigma must be given together"):
            step(ens, 1e-3, fam, sigma=SigmaField(0.2, 0.5))

    def test_non_finite_step_is_numerical_failure(self):
        rng = np.random.default_rng(5)
        n = 64
        ens = ParticleEnsemble(box=1.0, positions=rng.random((n, 1)),
                               velocities=np.zeros((n, 1)))
        with pytest.raises(FloatingPointError, match="non-finite driver increment"):
            step(ens, 1e-3, _family(), dy=np.array([np.inf]), sigma=SigmaField())

    def test_non_finite_increment_refused_before_the_force(self, monkeypatch):
        def force(*args, **kwargs):
            raise AssertionError("the force ran before the increment was checked")

        monkeypatch.setattr(particles, "interaction_force", force)
        ens = ParticleEnsemble(box=1.0, positions=np.full((4, 1), 0.5),
                               velocities=np.zeros((4, 1)))
        with pytest.raises(FloatingPointError, match="non-finite driver increment"):
            step(ens, 1e-3, _family(), dy=np.array([np.nan]), sigma=SigmaField())

    def test_kick_making_one_component_non_finite_is_refused(self):
        # Positions stay finite; only the velocities of the second component
        # become infinite, in the ensemble built from the moved one.
        rng = np.random.default_rng(6)
        fam = KernelFamily(beta=0.3, dim=2, bandwidth=0.1)
        ens = ParticleEnsemble(box=1.0, positions=rng.random((32, 2)),
                               velocities=np.zeros((32, 2)))
        with pytest.raises(FloatingPointError, match="non-finite driver increment"):
            step(ens, 1e-3, fam, dy=np.array([0.1, np.inf]), sigma=SigmaField())

    def test_stepped_ensemble_equals_constructed_one(self):
        rng = np.random.default_rng(7)
        fam = _family()
        ens = ParticleEnsemble(box=1.0, positions=rng.random((64, 1)),
                               velocities=rng.standard_normal((64, 1)))
        new, _ = step(ens, 1e-2, fam, dy=np.array([0.3]), sigma=SigmaField(0.2, 0.5))
        built = ParticleEnsemble(new.box, new.positions, new.velocities, new.time)
        assert np.all((new.positions >= 0) & (new.positions < 1.0))
        for name in ("box", "positions", "velocities", "time"):
            assert np.array_equal(getattr(new, name), getattr(built, name))

    def test_rejects_nonpositive_dt(self):
        fam = _family()
        ens = ParticleEnsemble(box=1.0, positions=[[0.5]], velocities=[[0.0]])
        with pytest.raises(ValueError):
            step(ens, 0.0, fam)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
    def test_bad_dt_is_usage_error(self, dt):
        # NaN passes a plain dt <= 0 test.
        ens = ParticleEnsemble(box=1.0, positions=[[0.5]], velocities=[[0.0]])
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            step(ens, dt, _family())

    def test_relabelled_direct_run_is_relabelled_bitwise(self):
        # 32 noisy steps on the exact force: the relabelled run is the run
        # relabelled, bit for bit, coincident particles included.
        rng = np.random.default_rng(21)
        pos, vel = rng.random((64, 1)), 0.1 * rng.standard_normal((64, 1))
        pos[56:], vel[56:] = pos[:8], vel[:8]
        perm = rng.permutation(64)
        fam, sigma = _family(), SigmaField(amplitude=0.2, modulation=0.5)
        dys = 0.03 * rng.standard_normal((32, 1))
        runs = []
        for p, v in ((pos, vel), (pos[perm], vel[perm])):
            ens = ParticleEnsemble(box=1.0, positions=p, velocities=v)
            accel = None
            for dy in dys:
                ens, accel = step(ens, 1e-3, fam, dy, sigma, accel=accel)
            runs.append(ens)
        assert np.array_equal(runs[1].positions, runs[0].positions[perm])
        assert np.array_equal(runs[1].velocities, runs[0].velocities[perm])

    def test_time_advances(self):
        fam = _family()
        ens = ParticleEnsemble(box=1.0, positions=[[0.5]], velocities=[[0.0]])
        new, _ = step(ens, 0.25, fam)
        assert new.time == pytest.approx(0.25)


def _lexsort_deposit(flat, values, n, grid):
    """The reference order: the density of ``values`` deposited by ``n``
    particles at the nodes of row-major flat index ``flat``, summed in
    (node, value) order, which no relabelling changes; and the number of
    entries each node receives."""
    order = np.lexsort((values, flat))
    dep = np.bincount(flat[order], weights=values[order], minlength=grid.m**grid.dim)
    entries = np.bincount(flat, minlength=grid.m**grid.dim)
    return dep.reshape(grid.shape) / (n * grid.cell_volume()), entries


def _accumulate_deposit(pts, grid):
    """CIC deposit summed in the reference order, and the entries per node."""
    corners = list(_cic_corners(pts, grid))
    idx = np.concatenate([node for node, _ in corners])
    val = np.concatenate([wgt for _, wgt in corners])
    return _lexsort_deposit(idx, val, len(pts), grid)


def _nearest_reference(pts, grid, weights):
    """Nearest-node deposit summed in the reference order, and the entries
    per node."""
    idx = np.round(pts / grid.h).astype(int) % grid.m
    flat = np.ravel_multi_index(tuple(idx.T), grid.shape)
    return _lexsort_deposit(flat, weights, len(pts), grid)


def _paired_sites(dim, sites, m, rng):
    """Two particles within 1.5 cells of each site of a lattice of
    ``sites``^d points, shuffled: many nodes receive two entries, none three."""
    axes = [np.arange(sites) / sites] * dim
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    pts = np.concatenate([lattice, lattice]) + rng.random((2 * sites**dim, dim)) * 1.5 / m
    return pts[rng.permutation(len(pts))]


class TestDeposition:
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_cic_label_permutation_bitwise_invariant(self, seed):
        rng = np.random.default_rng(5)
        perm = np.random.default_rng(seed).permutation(101)
        for dim, m in ((1, 128), (2, 16)):
            g = Grid(box=1.0, m=m, dim=dim)
            pts = rng.random((101, dim))
            # Coincident particles tie in the position order; in d=2 some
            # also share only their first coordinate.
            pts[70:] = pts[rng.integers(0, 70, 31)]
            pts[60:70, 0] = pts[0, 0]
            assert np.array_equal(deposit_cic(pts, g), deposit_cic(pts[perm], g))

    @pytest.mark.parametrize("dim, sites, m", [(1, 128, 4096), (2, 8, 128)])
    def test_position_order_matches_accumulate_order_bitwise(self, dim, sites, m):
        # At most two entries per node: 0 + a + b == 0 + b + a.
        g = Grid(box=1.0, m=m, dim=dim)
        pts = _paired_sites(dim, sites, m, np.random.default_rng(11))
        want, entries = _accumulate_deposit(pts, g)
        assert entries.max() == 2
        assert np.array_equal(deposit_cic(pts, g), want)

    @pytest.mark.parametrize("dim, m", [(1, 60), (2, 16)])
    def test_position_order_near_accumulate_order_when_crowded(self, dim, m):
        # 16 to 33 entries per node on average.  (In d=1 a power-of-two mesh
        # on the unit box would make every weight and partial sum exact.)
        g = Grid(box=1.0, m=m, dim=dim)
        pts = np.random.default_rng(12).random((1000, dim))
        want, entries = _accumulate_deposit(pts, g)
        assert entries.max() >= 3
        got = deposit_cic(pts, g)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @given(seed=st.integers(min_value=0, max_value=500))
    def test_nearest_coincident_weights_lexsort_order_bitwise(self, seed):
        # Particles stacked on six sites in distinct nodes, so each node sums
        # coincident particles only: position order, the weight breaking
        # ties, is then the (node, value) order.  Repeated weights, signed
        # zeros and a dynamic range at which the order of the sums shows.
        rng = np.random.default_rng(seed)
        pool = np.array([0.0, -0.0, 1e-17, 0.1, -0.3, 1.0, 1e16, -1e16])
        for dim, m in ((1, 16), (2, 4)):
            g = Grid(box=1.0, m=m, dim=dim)
            nodes = np.unravel_index(rng.choice(m**dim, 6, replace=False), g.shape)
            sites = np.stack(nodes, axis=-1) * g.h + rng.uniform(-0.4, 0.4, (6, dim)) * g.h
            pts = sites[rng.integers(0, 6, 400)]
            w = rng.choice(pool, 400)
            got = deposit_nearest(pts, g, weights=w)
            want, entries = _nearest_reference(pts, g, w)
            assert entries.max() >= 3
            assert np.array_equal(got, want)
            assert not np.any(np.signbit(got[got == 0.0]))
            perm = rng.permutation(400)
            assert np.array_equal(deposit_nearest(pts[perm], g, weights=w[perm]), got)

    @pytest.mark.parametrize("dim, sites, m", [(1, 128, 4096), (2, 8, 128)])
    def test_nearest_position_order_matches_lexsort_order_bitwise(self, dim, sites, m):
        # At most two entries per node, as on the Besov mesh of the desk run.
        g = Grid(box=1.0, m=m, dim=dim)
        rng = np.random.default_rng(14)
        pts = _paired_sites(dim, sites, m, rng)
        w = rng.standard_normal(len(pts))
        want, entries = _nearest_reference(pts, g, w)
        assert entries.max() == 2
        assert np.array_equal(deposit_nearest(pts, g, weights=w), want)

    def test_cic_mass_conservation(self):
        g = Grid(box=1.0, m=128, dim=1)
        rng = np.random.default_rng(6)
        dep = deposit_cic(rng.random((500, 1)), g)
        assert np.sum(dep) * g.cell_volume() == pytest.approx(1.0, abs=1e-13)

    def test_empirical_density_integrates_to_one(self):
        rho, v, g = _sine_fields()
        fam = _family()
        ens = init_from_fields(rho, v, 256, g)
        dk = empirical_density(ens, fam, Grid(box=1.0, m=4096, dim=1))
        assert dk[0].real / 4096 == pytest.approx(1.0, abs=1e-10)  # the mean mode

    def test_empirical_density_tracks_smooth_density(self):
        rho, v, g = _sine_fields()
        fam = _family()
        fine = Grid(box=1.0, m=8192, dim=1)
        errs = []
        rho_fine = padded_spectrum(g.rfft(rho), g, 8192)
        for n in (256, 2048):
            ens = init_from_fields(rho, v, n, g)
            diff = empirical_density(ens, fam, fine) - rho_fine
            # The RMS over the nodes, by Parseval.
            errs.append(np.sqrt(np.sum(fine.half_weights * np.abs(diff) ** 2)) / 8192)
        assert errs[1] < errs[0]
