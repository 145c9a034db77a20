"""Pseudo-spectral compressible solver: conservation, consistency, order."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holderflow.fields import (
    FieldInterpolant,
    FluidState,
    Grid,
    SigmaField,
    _ik,
    _phases,
    dealias,
    diagnostics,
    max_signal_speed,
    noise_kick,
    pressure_forms_gap,
    rhs_deterministic,
    step_field,
    upsample,
)


def _smooth_state(m=128, a=0.2, b=0.1, box=1.0):
    g = Grid(box=box, m=m, dim=1)
    x = g.nodes()
    rho = 1.0 + a * np.sin(2 * np.pi * x / box)
    v = (b * np.cos(2 * np.pi * x / box))[None, :]
    return FluidState(grid=g, rho=rho, v=v)


class TestGrid:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Grid(box=0.0, m=64)
        with pytest.raises(ValueError):
            Grid(box=1.0, m=2)
        with pytest.raises(ValueError):
            Grid(box=1.0, m=64, dim=3)

    def test_nodes_and_cell_volume(self):
        g = Grid(box=2.0, m=8, dim=1)
        assert g.h == pytest.approx(0.25)
        assert g.cell_volume() == pytest.approx(0.25)
        assert np.allclose(g.nodes(), np.arange(8) * 0.25)

    @given(seed=st.integers(min_value=0, max_value=500))
    def test_accumulate_matches_lexsort_order_bitwise(self, seed):
        # Repeated (node, value) pairs, signed zeros and a dynamic range at
        # which the order of the sums shows in the result.
        rng = np.random.default_rng(seed)
        g = Grid(box=1.0, m=4, dim=2)
        pool = np.array([0.0, -0.0, 1e-17, 0.1, -0.3, 1.0, 1e16, -1e16])
        flat = rng.integers(0, g.m**g.dim, 400)
        values = rng.choice(pool, 400)
        order = np.lexsort((values, flat))
        want = np.bincount(flat[order], weights=values[order], minlength=g.m**g.dim)
        got = g.accumulate(flat, values)
        assert got.shape == g.shape
        assert np.array_equal(got.ravel(), want)
        assert not np.any(np.signbit(got[got == 0.0]))
        perm = rng.permutation(400)
        assert np.array_equal(g.accumulate(flat[perm], values[perm]), got)


def _deriv(f, g, axis):
    return g.irfft(_ik(g, axis) * g.rfft(f))


def _full_spectrum_interp(values, g, pts, derivative=None):
    """Reference: Re sum_k c_k exp(i k.x) over the full complex spectrum."""
    c = np.fft.fftn(values) / values.size
    k = 2.0 * np.pi * np.fft.fftfreq(g.m, d=g.h)
    if derivative is not None:
        c = 1j * g.along(k, derivative) * c
    out = np.exp(1j * np.outer(pts[:, 0], k)) @ c.reshape(g.m, -1)
    for q in range(1, g.dim):
        phase = np.exp(1j * np.outer(pts[:, q], k))
        out = np.einsum("pk,pkr->pr", phase, out.reshape(len(pts), g.m, -1))
    return out[:, 0].real


class TestSpectralLayout:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_layout_is_rfftn(self, dim):
        # Transforms over the trailing mesh axes; frequency arrays computed as
        # fftfreq(m) and 2 pi fftfreq(m, d=h), halved (rfftfreq) on the last axis.
        g = Grid(box=2.0, m=12, dim=dim)
        f = np.random.default_rng(dim).standard_normal((3,) + g.shape)
        fk = g.rfft(f)
        assert np.array_equal(fk, np.fft.rfftn(f, axes=tuple(range(1, dim + 1))))
        assert np.max(np.abs(g.irfft(fk) - f)) < 1e-14
        full, half = np.fft.fftfreq(12), np.fft.rfftfreq(12)
        for q in range(dim):
            last = q == dim - 1
            assert np.array_equal(g.frequencies(q), g.along(half if last else full, q))
            k = 2.0 * np.pi * (np.fft.rfftfreq if last else np.fft.fftfreq)(12, d=g.h)
            assert np.array_equal(g.wavenumbers(q), g.along(k, q))
            assert g.wavenumbers(q).shape[q] == fk.shape[1 + q]

    def test_derivative_exact_on_modes(self):
        a, b = 2 * np.pi * 3, 2 * np.pi * 5
        g = Grid(box=1.0, m=32, dim=1)
        x = g.coordinate(0)
        assert np.max(np.abs(_deriv(np.sin(a * x), g, 0) - a * np.cos(a * x))) < 1e-12
        g = Grid(box=1.0, m=32, dim=2)
        x, y = g.coordinate(0), g.coordinate(1)
        f = np.sin(a * x) * np.cos(b * y)
        assert np.max(np.abs(_deriv(f, g, 0) - a * np.cos(a * x) * np.cos(b * y))) < 1e-12
        assert np.max(np.abs(_deriv(f, g, 1) + b * np.sin(a * x) * np.sin(b * y))) < 1e-12

    @pytest.mark.parametrize("dim", [1, 2])
    def test_nyquist_mode_has_zero_derivative_at_nodes(self, dim):
        g = Grid(box=1.0, m=16, dim=dim)
        f = sum(np.cos(np.pi * g.coordinate(q) / g.h) for q in range(dim))
        for q in range(dim):
            assert np.max(np.abs(_deriv(f, g, q))) < 1e-12

    @pytest.mark.parametrize("dim, m", [(1, 64), (2, 16)])
    def test_interpolant_matches_full_spectrum_formula(self, dim, m):
        g = Grid(box=1.3, m=m, dim=dim)
        rng = np.random.default_rng(10 + dim)
        f = dealias(rng.standard_normal(g.shape), g)
        pts = rng.random((50, dim)) * g.box
        itp = FieldInterpolant(f, g)
        assert np.max(np.abs(itp(pts) - _full_spectrum_interp(f, g, pts))) < 1e-12
        for q in range(dim):
            got = itp(pts, derivative=q)
            want = _full_spectrum_interp(f, g, pts, derivative=q)
            assert np.max(np.abs(got - want)) < 1e-12


class TestRhs:
    def test_constant_state_stationary(self):
        g = Grid(box=1.0, m=64, dim=1)
        st_ = FluidState(grid=g, rho=np.full(64, 1.3), v=np.zeros((1, 64)))
        drho, dv = rhs_deterministic(st_)
        assert np.max(np.abs(drho)) < 1e-13
        assert np.max(np.abs(dv)) < 1e-13

    def test_matches_analytic_drift_on_single_modes(self):
        # rho = 1 + a sin(kx), v = b cos(kx):
        #   d rho = -(rho v)' ;  d v = -v v' - rho'  computed in closed form.
        box, m, a, b = 1.0, 256, 0.2, 0.1
        k = 2 * np.pi / box
        st_ = _smooth_state(m=m, a=a, b=b, box=box)
        x = st_.grid.nodes()
        drho, dv = rhs_deterministic(st_)
        want_drho = -(
            a * k * np.cos(k * x) * b * np.cos(k * x)
            + (1 + a * np.sin(k * x)) * (-b * k * np.sin(k * x))
        )
        want_dv = -(
            b * np.cos(k * x) * (-b * k * np.sin(k * x)) + a * k * np.cos(k * x)
        )
        assert np.max(np.abs(drho - want_drho)) < 1e-11
        assert np.max(np.abs(dv[0] - want_dv)) < 1e-11

    def test_aborts_at_vacuum(self):
        g = Grid(box=1.0, m=64, dim=1)
        st_ = FluidState(grid=g, rho=np.full(64, 1e-4), v=np.zeros((1, 64)))
        with pytest.raises(FloatingPointError, match="vacuum"):
            rhs_deterministic(st_)

    def test_pressure_forms_agree(self):
        assert pressure_forms_gap(_smooth_state()) < 1e-11


class TestStepping:
    def test_mass_conserved_without_noise(self):
        st_ = _smooth_state(m=128)
        m0 = st_.mass()
        dt = 1e-3
        for _ in range(200):
            st_ = step_field(st_, dt)
        assert abs(st_.mass() - m0) / m0 < 1e-10 * (200 * dt)

    def test_momentum_conserved_without_noise(self):
        st_ = _smooth_state(m=128)
        p0 = diagnostics(st_)["momentum"][0]
        for _ in range(100):
            st_ = step_field(st_, 1e-3)
        assert abs(diagnostics(st_)["momentum"][0] - p0) < 1e-10

    def test_cfl_refusal(self):
        st_ = _smooth_state(m=256)
        limit = 0.5 * st_.grid.h / max_signal_speed(st_)
        with pytest.raises(FloatingPointError, match="CFL"):
            step_field(st_, 2.0 * limit)

    def test_non_finite_step_is_numerical_failure(self):
        with pytest.raises(FloatingPointError, match="non-finite fluid state"):
            step_field(_smooth_state(), 1e-3, dy=np.array([np.inf]), sigma=SigmaField())

    def test_dt_self_convergence_order_at_least_two(self):
        horizon = 0.02
        errs = []
        ref = _smooth_state(m=128)
        nref = 512
        for _ in range(nref):
            ref = step_field(ref, horizon / nref)
        for steps in (32, 64, 128):
            st_ = _smooth_state(m=128)
            for _ in range(steps):
                st_ = step_field(st_, horizon / steps)
            errs.append(np.max(np.abs(st_.rho - ref.rho)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.min(orders) >= 2.0

    def test_noise_kick_is_exact_additive_shift(self):
        st_ = _smooth_state(m=64)
        sigma = SigmaField(amplitude=0.2, modulation=0.5)
        dy = np.array([0.37])
        kicked = noise_kick(st_, dy, sigma)
        sig = sigma(st_.time, st_.grid)
        assert np.array_equal(kicked.rho, st_.rho)
        assert np.max(np.abs(kicked.v - (st_.v + sig * dy[0]))) < 1e-15


class TestSigmaField:
    def test_grid_and_pointwise_agree(self):
        sigma = SigmaField(amplitude=0.2, modulation=0.5)
        for dim in (1, 2):
            g = Grid(box=1.0, m=64, dim=dim)
            on_grid = sigma(0.0, g)
            assert on_grid.shape == (dim,) + g.shape
            # Closed form at the nodes, written out independently of ``at``.
            base = 0.2 * (1.0 + 0.5 * np.cos(2.0 * np.pi * g.coordinate(0) / g.box))
            assert np.array_equal(on_grid, np.stack([base] * dim))
            at_pts = sigma.at(0.0, g.nodes().reshape(-1, dim), g.box)
            assert np.array_equal(on_grid, at_pts.T.reshape(on_grid.shape))


class TestInterpolation:
    def test_exact_at_nodes(self):
        g = Grid(box=1.0, m=64, dim=1)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(64)
        itp = FieldInterpolant(f, g)
        got = itp(g.nodes()[:, None])
        assert np.max(np.abs(got - f)) < 1e-12

    def test_exact_for_band_limited_mode(self):
        g = Grid(box=1.0, m=64, dim=1)
        k = 2 * np.pi * 3
        f = np.sin(k * g.nodes())
        itp = FieldInterpolant(f, g)
        pts = np.array([[0.123], [0.777]])
        assert np.max(np.abs(itp(pts) - np.sin(k * pts[:, 0]))) < 1e-12
        assert np.max(np.abs(itp(pts, derivative=0) - k * np.cos(k * pts[:, 0]))) < 1e-10

    def test_phases_bitwise_equal_to_exp_of_outer(self):
        x = np.array([-0.75, -0.0, 0.0, 0.3, 0.999])
        k = 2.0 * np.pi * np.fft.fftfreq(16, d=1.0 / 16)
        assert np.array_equal(_phases(x, k), np.exp(1j * np.outer(x, k)))


class TestSpectralUtilities:
    def test_upsample_preserves_original_nodes(self):
        g = Grid(box=1.0, m=32, dim=1)
        f = np.sin(2 * np.pi * 3 * g.nodes())
        fine = upsample(f, g, 128)
        assert np.max(np.abs(fine[::4] - f)) < 1e-12

    def test_upsample_2d_matches_interpolant_at_fine_nodes(self):
        g = Grid(box=1.0, m=16, dim=2)
        f = dealias(np.random.default_rng(0).standard_normal(g.shape), g)
        fine = Grid(box=1.0, m=32, dim=2)
        want = FieldInterpolant(f, g)(fine.nodes().reshape(-1, 2)).reshape(fine.shape)
        assert np.max(np.abs(upsample(f, g, 32) - want)) < 1e-12

    def test_upsample_keeps_nyquist_cosine(self):
        g = Grid(box=1.0, m=8, dim=1)
        f = np.cos(np.pi * g.nodes() / g.h)
        assert np.max(np.abs(upsample(f, g, 16)[::2] - f)) < 1e-12

    def test_upsample_2d_nyquist_matches_interpolant(self):
        # Nyquist modes along each axis: kept at the original nodes and equal
        # to the trigonometric interpolant at the fine nodes.
        g = Grid(box=1.0, m=8, dim=2)
        x, y = g.coordinate(0), g.coordinate(1)
        f = np.cos(np.pi * x / g.h) * (1.0 + 0.5 * np.cos(2 * np.pi * y)) + np.cos(np.pi * y / g.h)
        up = upsample(f, g, 16)
        assert np.max(np.abs(up[::2, ::2] - f)) < 1e-12
        fine = Grid(box=1.0, m=16, dim=2)
        want = FieldInterpolant(f, g)(fine.nodes().reshape(-1, 2)).reshape(fine.shape)
        assert np.max(np.abs(up - want)) < 1e-12

    def test_upsample_refuses_downsampling(self):
        g = Grid(box=1.0, m=32, dim=1)
        with pytest.raises(ValueError):
            upsample(np.ones(32), g, 16)

    @given(mode=st.integers(min_value=0, max_value=30))
    def test_dealias_keeps_low_kills_high(self, mode):
        g = Grid(box=1.0, m=64, dim=1)
        f = np.cos(2 * np.pi * mode * g.nodes())
        out = dealias(f, g)
        if mode <= g.m // 3:
            assert np.max(np.abs(out - f)) < 1e-12
        else:
            assert np.max(np.abs(out)) < 1e-12
