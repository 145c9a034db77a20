"""Pseudo-spectral compressible solver: conservation, consistency, order."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holderflow.fields import (
    _ES_WIDTH,
    _GATHER_BLOCK,
    FieldInterpolant,
    FluidState,
    Grid,
    SigmaField,
    _gauss_legendre,
    _phases,
    diagnostics,
    max_signal_speed,
    nufft_type2,
    padded_spectrum,
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


def _wavy_state(dim, m):
    """A smooth state with a density and velocity mode along every axis."""
    g = Grid(box=1.0, m=m, dim=dim)
    waves = [2 * np.pi * g.coordinate(q) for q in range(dim)]
    rho = 1.0 + 0.2 * np.sin(waves[0]) + 0.1 * np.cos(waves[-1] + 0.3)
    v = np.stack([0.1 * np.cos(w) + 0.05 * np.sin(waves[0] + w) for w in waves])
    return FluidState(grid=g, rho=rho, v=v)


def _near_cut_state(m):
    """The d=1 wavy state plus a density mode at m // 3 and a velocity mode
    one below it (at m = 48, mode 16 just past the kept band 3|k| < m and
    mode 15, its top): their products reach past the cut at once, so a step
    that skips a 2/3 mask differs at the first step."""
    st_ = _wavy_state(1, m)
    x, k = 2 * np.pi * st_.grid.coordinate(0), m // 3
    return replace(st_, rho=st_.rho + 0.02 * np.cos(k * x), v=st_.v + 0.01 * np.sin((k - 1) * x))


# The step as it was before the operators were cached per grid: per-call
# i k and 2/3 builders, one transform per field, a FluidState per RK stage
# and the kick re-evaluated on the nodes.  The solver advances the half
# spectrum instead, so it matches this reference up to rounding, not bit
# for bit.


def _reference_ik(g, axis):
    k = g.wavenumbers(axis).copy()
    if g.m % 2 == 0:
        k.flat[g.m // 2] = 0.0
    return 1j * k


def _reference_two_thirds(g):
    mask = True
    for q in range(g.dim):
        mask = mask & (3 * np.abs(np.rint(g.frequencies(q) * g.m)) < g.m)
    return mask


def _reference_padded_spectrum(fk, m, m_fine, d):
    """Zero-padding of the half spectra ``fk`` (stacked on leading axes) of an
    m-node mesh onto m_fine nodes, unscaled, by index arithmetic: the first
    m // 2 + 1 entries of an axis keep their index, the last (m - 1) // 2 of
    a full axis move to its end, and an even mesh's Nyquist entry is halved
    and, on a full axis, written at both ends."""
    fk = fk.copy()
    if m % 2 == 0:
        for q in range(d):
            fk[(..., m // 2) + (slice(None),) * (d - 1 - q)] *= 0.5
    j = np.arange(m)
    lo, hi = j[: m // 2 + 1], j[(m + 1) // 2 :]
    src = [np.concatenate([lo, hi])] * (d - 1) + [lo]
    dst = [np.concatenate([lo, hi + m_fine - m])] * (d - 1) + [lo]
    out = np.zeros(fk.shape[: fk.ndim - d] + (m_fine,) * (d - 1) + (m_fine // 2 + 1,),
                   dtype=complex)
    out[(...,) + np.ix_(*dst)] = fk[(...,) + np.ix_(*src)]
    return out


def _reference_rhs(state):
    g, rho, v = state.grid, state.rho, state.v
    if float(np.min(rho)) <= state.vacuum_floor:
        raise FloatingPointError("vacuum")
    ik = [_reference_ik(g, q) for q in range(g.dim)]
    mask = _reference_two_thirds(g)
    flux = mask * g.rfft(rho * v)
    drho = g.irfft(-sum(ik[q] * flux[q] for q in range(g.dim)))
    vk, rho_k = g.rfft(v), g.rfft(rho)
    adv = sum(v[r] * g.irfft(ik[r] * vk) for r in range(g.dim))
    dv = g.irfft(-(mask * g.rfft(adv)) - np.stack([ik[q] * rho_k for q in range(g.dim)]))
    return drho, dv


def _reference_step(state, dt, dy, sigma):
    def euler(rho, v):
        drho, dv = _reference_rhs(replace(state, rho=rho, v=v))
        return rho + dt * drho, v + dt * dv

    r1, v1 = euler(state.rho, state.v)
    r2, v2 = euler(r1, v1)
    r2 = 0.75 * state.rho + 0.25 * r2
    v2 = 0.75 * state.v + 0.25 * v2
    r3, v3 = euler(r2, v2)
    rho_new = state.rho / 3.0 + 2.0 / 3.0 * r3
    v_new = state.v / 3.0 + 2.0 / 3.0 * v3
    g = state.grid
    sig = sigma.at(g.nodes().reshape(-1, g.dim), g.box).reshape(g.shape)
    for q in range(g.dim):
        v_new[q] = v_new[q] + sig * dy[q]
    return replace(state, rho=rho_new, v=v_new, time=state.time + dt)


class TestGrid:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Grid(box=0.0, m=64)
        with pytest.raises(ValueError):
            Grid(box=1.0, m=2)
        with pytest.raises(ValueError):
            Grid(box=1.0, m=64, dim=3)

    @pytest.mark.parametrize("box", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_box(self, box):
        with pytest.raises(ValueError, match=f"finite box > 0.*got box={box!r}"):
            Grid(box=box, m=64)

    def test_nodes_and_cell_volume(self):
        g = Grid(box=2.0, m=8, dim=1)
        assert g.h == pytest.approx(0.25)
        assert g.cell_volume() == pytest.approx(0.25)
        assert np.allclose(g.nodes(), np.arange(8) * 0.25)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cached_operators_are_read_only(self, dim):
        g = Grid(box=1.0, m=16, dim=dim)
        sigma = SigmaField(amplitude=0.2, modulation=0.5)
        assert g.ik is g.ik and g.two_thirds is g.two_thirds
        assert sigma.spectrum(g) is sigma.spectrum(g)
        for cached in (*g.ik, g.two_thirds, g.half_weights, sigma.spectrum(g)):
            with pytest.raises(ValueError, match="read-only"):
                cached[...] = 0
        assert np.array_equal(g.ik[0], _reference_ik(g, 0))
        assert np.array_equal(g.two_thirds, _reference_two_thirds(g))

    @pytest.mark.parametrize("dim, m", [(1, 16), (1, 17), (2, 16), (2, 15)])
    def test_half_weights_give_parseval(self, dim, m):
        # White noise: every mode carries weight, the Nyquist modes included.
        g = Grid(box=1.0, m=m, dim=dim)
        f = np.random.default_rng(m).standard_normal(g.shape)
        power = np.abs(g.rfft(f)) ** 2
        assert np.sum(g.half_weights * power) / m**dim == pytest.approx(np.sum(f**2), rel=1e-13)


class TestFieldLayout:
    @pytest.mark.parametrize(
        "dim, rho_shape, v_shape, bad",
        [
            (1, (1, 64), (1, 64), "rho"),
            (1, (32,), (1, 64), "rho"),
            (1, (64,), (1,), "v"),
            (1, (64,), (64,), "v"),
            (2, (256,), (2, 16, 16), "rho"),
            (2, (16, 16), (16, 16), "v"),
            (2, (16, 16), (1, 16, 16), "v"),
        ],
    )
    def test_wrong_field_layout_refused(self, dim, rho_shape, v_shape, bad):
        g = Grid(box=1.0, m=64 if dim == 1 else 16, dim=dim)
        want = g.shape if bad == "rho" else (dim,) + g.shape
        with pytest.raises(ValueError, match=re.escape(f"{bad} must be an array of shape {want}")):
            FluidState(grid=g, rho=np.ones(rho_shape), v=np.zeros(v_shape))


def _deriv(f, g, axis):
    return g.irfft(g.ik[axis] * g.rfft(f))


def _long_double_interp(values, g, pts, derivative=None):
    """Reference in long double: Re sum_k c_k exp(i k.x) over the full
    spectrum, with the Nyquist mode of an even mesh as the cosine and no
    derivative; pi and every phase carry the extra precision."""
    ld = np.longdouble
    c = np.fft.fftn(values.astype(ld)) / values.size
    k = 2 * np.arccos(ld(-1)) / ld(g.box) * np.fft.fftfreq(g.m, 1.0 / g.m).astype(ld)
    nyquist = np.arange(g.m) == (g.m // 2 if g.m % 2 == 0 else -1)
    out = c
    for q in reversed(range(g.dim)):  # contract the last mesh axis left
        phase = np.exp(1j * np.outer(pts[:, q].astype(ld), k))
        phase[:, nyquist] = phase[:, nyquist].real
        if derivative == q:
            phase = phase * (1j * np.where(nyquist, 0, k))
        out = np.einsum("j...k,jk->j...", out if q < g.dim - 1 else out[None], phase)
    return out.real.astype(float)


class TestSpectralLayout:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_layout_is_rfftn(self, dim):
        # Transforms over the trailing mesh axes, with the frequency arrays
        # laid out to match.
        g = Grid(box=2.0, m=12, dim=dim)
        f = np.random.default_rng(dim).standard_normal((3,) + g.shape)
        fk = g.rfft(f)
        assert np.array_equal(fk, np.fft.rfftn(f, axes=tuple(range(1, dim + 1))))
        assert fk.shape[1:] == g.spectrum_shape
        assert np.max(np.abs(g.irfft(fk) - f)) < 1e-14
        for q in range(dim):
            assert g.wavenumbers(q).shape[q] == fk.shape[1 + q]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_frequency_arrays_are_numpy_fftfreq(self, dim):
        # Bitwise np.fft.fftfreq(m) and 2 pi fftfreq(m, d=h), rfftfreq on the
        # last axis, reshaped, on every mesh from 4 to 300 nodes.
        for m in range(4, 301):
            g = Grid(box=1.3, m=m, dim=dim)
            for q in range(dim):
                freq = np.fft.rfftfreq if q == dim - 1 else np.fft.fftfreq
                assert np.array_equal(g.frequencies(q), g.along(freq(m), q))
                assert np.array_equal(g.wavenumbers(q), g.along(2.0 * np.pi * freq(m, d=g.h), q))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_modes_are_integer_layout(self, dim):
        for m in range(4, 301):
            g = Grid(box=1.3, m=m, dim=dim)
            for q in range(dim):
                freq = np.fft.rfftfreq if q == dim - 1 else np.fft.fftfreq
                modes = g.modes(q)
                assert modes.dtype.kind == "i"
                assert np.array_equal(modes, g.along(np.rint(freq(m) * m).astype(int), q))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_two_thirds_keeps_every_mode_below_the_cut(self, dim):
        # Every k with 3|k| < m on all axes is kept (m = 10, 20, 160, ...
        # once lost the mode m // 3 to a float rounding of k / m * m).
        for m in range(4, 301):
            g = Grid(box=1.0, m=m, dim=dim)
            below = True
            for q in range(dim):
                below = below & (3 * np.abs(np.rint(g.frequencies(q) * m)) < m)
            assert np.all(g.two_thirds[np.broadcast_to(below, g.two_thirds.shape)]), m

    @pytest.mark.parametrize(
        "dim, m", [(1, 20), (1, 24), (1, 48), (1, 96), (1, 128), (1, 255), (1, 256),
                   (2, 15), (2, 24), (2, 32)]
    )
    def test_two_thirds_product_is_alias_free(self, dim, m):
        # Two fields whose spectra fill the kept band: the masked spectrum of
        # their product on the mesh equals the kept modes of the exact
        # product, taken on a mesh of 2m nodes, where it cannot alias.
        g, fine = Grid(box=1.0, m=m, dim=dim), Grid(box=1.0, m=2 * m, dim=dim)
        rng = np.random.default_rng(m + dim)
        u, v = g.irfft(g.rfft(rng.standard_normal((2,) + g.shape)) * g.two_thirds)
        got = g.two_thirds * g.rfft(u * v)
        exact = fine.rfft(np.prod(fine.irfft(padded_spectrum(g.rfft([u, v]), g, fine.m)), axis=0))
        index = np.ix_(*[np.rint(g.frequencies(q) * m).astype(int).ravel() % fine.m
                         for q in range(dim)])
        want = g.two_thirds * exact[index] / 2**dim
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

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

    @pytest.mark.parametrize("dim, m", [(1, 64), (2, 16), (2, 15)])
    def test_interpolant_matches_full_spectrum_formula(self, dim, m):
        g = Grid(box=1.3, m=m, dim=dim)
        rng = np.random.default_rng(10 + dim)
        f = g.irfft(g.rfft(rng.standard_normal(g.shape)) * g.two_thirds)
        pts = rng.random((50, dim)) * g.box
        itp = FieldInterpolant(f, g)
        assert np.max(np.abs(itp(pts) - _long_double_interp(f, g, pts))) < 1e-12
        for q in range(dim):
            got = nufft_type2(g.ik[q] * g.rfft(f), g, pts)
            want = _long_double_interp(f, g, pts, derivative=q)
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

    @pytest.mark.parametrize(
        "dim, m, near_cut",
        [(1, 128, False), (2, 32, False), (1, 48, True)],
        ids=["1-128", "2-32", "1-48-near-cut"],
    )
    def test_matches_reference_step(self, dim, m, near_cut):
        # 50 noisy steps of step_field against the reference step, and the
        # drift of every state against the reference drift, to 1e-12 of the
        # reference's largest magnitude.  Only a state with energy near the
        # 2/3 cut lets the d=1 case see the dealiasing masks.
        def close(got, want):
            return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        rng = np.random.default_rng(40 + dim)
        sigma = SigmaField(amplitude=0.2, modulation=0.5)
        st_ = ref = _near_cut_state(m) if near_cut else _wavy_state(dim, m)
        for _ in range(50):
            dy = 0.03 * rng.standard_normal(dim)
            st_, ref = step_field(st_, 1e-3, dy, sigma), _reference_step(ref, 1e-3, dy, sigma)
            assert close(st_.rho, ref.rho) and close(st_.v, ref.v)
            assert st_.time == ref.time
            for got, want in zip(rhs_deterministic(st_), _reference_rhs(ref)):
                assert close(got, want)


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

    def test_vacuum_inside_a_step_is_refused(self):
        # The density starts above the floor, so the first RK stage passes,
        # and sinks below it by the second stage's input.
        st_ = _smooth_state(m=64)
        st_ = replace(st_, vacuum_floor=float(np.min(st_.rho)) - 1e-6)
        rhs_deterministic(st_)
        dt = 0.5 * st_.grid.h / max_signal_speed(st_)
        with pytest.raises(FloatingPointError, match="vacuum"):
            step_field(st_, dt)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
    def test_bad_dt_is_usage_error(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            step_field(_smooth_state(), dt)

    def test_non_finite_step_is_numerical_failure(self):
        with pytest.raises(FloatingPointError, match="non-finite driver increment"):
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

    def test_noise_kick_is_additive_shift(self):
        # The kick of step_field leaves rho bitwise alone and moves v by
        # sigma dY, up to the rounding of the spectral round trip.
        st_ = _smooth_state(m=64)
        sigma = SigmaField(amplitude=0.2, modulation=0.5)
        dy = np.array([0.37])
        kicked, plain = step_field(st_, 1e-3, dy, sigma), step_field(st_, 1e-3)
        shift = sigma.at(st_.grid.nodes()[:, None], st_.grid.box) * dy[0]
        assert np.array_equal(kicked.rho, plain.rho)
        assert np.max(np.abs(kicked.v - plain.v - shift)) <= 1e-14 * np.max(np.abs(shift))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_noise_by_halves_refused(self, dim):
        st_ = _wavy_state(dim, 16)
        with pytest.raises(ValueError, match="dy and sigma must be given together"):
            step_field(st_, 1e-3, dy=np.full(dim, 0.1))
        with pytest.raises(ValueError, match="dy and sigma must be given together"):
            step_field(st_, 1e-3, sigma=SigmaField(0.2, 0.5))


def _rows_of(state):
    """Inverse transform of [rho_k, v_k, i k_r v_k] of the state's spectrum."""
    g, uk = state.grid, state.spectrum
    return g.irfft(np.concatenate([uk] + [g.ik[r] * uk[1:] for r in range(g.dim)]))


class TestCarriedSpectrum:
    @pytest.mark.parametrize("dim, m", [(1, 64), (2, 16)])
    def test_step_output_is_nodes_of_its_spectrum(self, dim, m):
        sigma = SigmaField(amplitude=0.2, modulation=0.5)
        st_ = _wavy_state(dim, m)
        for _ in range(3):
            st_ = step_field(st_, 1e-3, np.full(dim, 0.02), sigma)
        nodes = st_.grid.irfft(st_.spectrum)
        assert np.array_equal(nodes[0], st_.rho) and np.array_equal(nodes[1:], st_.v)
        assert not (st_.spectrum.flags.writeable or st_.rho.flags.writeable)
        # The carried rows are rho, v and grad v of that spectrum, the
        # transform the next step's first stage would otherwise make.
        assert np.array_equal(st_.node_rows, _rows_of(st_))
        assert not st_.node_rows.flags.writeable

    @pytest.mark.parametrize("dim, m", [(1, 64), (2, 16)])
    def test_new_state_transforms_its_own_fields(self, dim, m):
        # A built or replaced state never inherits a carried spectrum.
        sigma = SigmaField(amplitude=0.2, modulation=0.5)
        stepped = step_field(_wavy_state(dim, m), 1e-3, np.full(dim, 0.02), sigma)
        for st_ in (_wavy_state(dim, m), replace(stepped, v=0.5 * stepped.v)):
            want = st_.grid.rfft(np.concatenate([st_.rho[None], st_.v]))
            assert np.array_equal(st_.spectrum, want)
            assert np.array_equal(st_.node_rows, _rows_of(st_))

    def test_six_transforms_per_step(self, monkeypatch):
        calls = []

        def counted(transform):
            def wrapped(self, f):
                calls.append(np.shape(f))
                return transform(self, f)

            return wrapped

        monkeypatch.setattr(Grid, "rfft", counted(Grid.rfft))
        monkeypatch.setattr(Grid, "irfft", counted(Grid.irfft))
        st_, sigma = _smooth_state(m=128), SigmaField(amplitude=0.2, modulation=0.5)
        for _ in range(64):
            st_ = step_field(st_, 1e-3, np.array([0.01]), sigma)
        # The first state's spectrum and node rows, and sigma's spectrum,
        # are built once.
        assert len(calls) <= 6 * 64 + 3


class TestSigmaField:
    def test_scalar_at_points(self):
        pts = np.array([[0.0, 0.3], [0.5, 0.9]])
        assert np.array_equal(SigmaField(0.2, 0.5).at(pts, 1.0), [0.2 * 1.5, 0.2 * 0.5])

    def test_spectrum_cached_per_value_not_per_instance(self):
        # No cache lives inside the frozen field: equal fields share one
        # spectrum, built once.
        g = Grid(box=1.0, m=32)
        sigma = SigmaField(0.2, 0.5)
        assert sigma.spectrum(g) is SigmaField(0.2, 0.5).spectrum(g)
        assert vars(sigma) == {"amplitude": 0.2, "modulation": 0.5}

    def test_grid_and_pointwise_agree(self):
        sigma = SigmaField(amplitude=0.2, modulation=0.5)
        for dim in (1, 2):
            g = Grid(box=1.0, m=64, dim=dim)
            sig_k = sigma.spectrum(g)
            # Closed form at the nodes, written out independently of ``at``.
            base = 0.2 * (1.0 + 0.5 * np.cos(2.0 * np.pi * g.coordinate(0) / g.box))
            assert np.array_equal(sig_k, g.rfft(base))
            at_pts = sigma.at(g.nodes().reshape(-1, dim), g.box)
            assert np.array_equal(sig_k, g.rfft(at_pts.reshape(g.shape)))


class TestInterpolation:
    @pytest.mark.parametrize("dim, m", [(1, 256), (2, 32)])
    def test_point_alone_equals_point_in_batch(self, dim, m):
        # Points past one gather block, and coincident points.
        rng = np.random.default_rng(11)
        g = Grid(box=1.0, m=m, dim=dim)
        f = rng.standard_normal(g.shape)
        n = _GATHER_BLOCK // _ES_WIDTH**dim + 40
        pts = rng.uniform(0.0, 1.0, (n, dim))
        pts[n // 2 :: 7] = pts[3]
        slope_k = g.ik[0] * g.rfft(f)
        for evaluate in (FieldInterpolant(f, g), lambda p: nufft_type2(slope_k, g, p)):
            alone = [evaluate(p[None])[0] for p in pts]
            assert np.array_equal(evaluate(pts), alone)
            batch = evaluate(pts)
            assert np.array_equal(batch[n // 2 :: 7], np.full(len(batch[n // 2 :: 7]), batch[3]))

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
        slope = nufft_type2(g.ik[0] * g.rfft(f), g, pts)
        assert np.max(np.abs(slope - k * np.cos(k * pts[:, 0]))) < 1e-10

    @pytest.mark.parametrize("m", [16, 17, 4095, 4096])
    def test_phases_match_exp_of_outer(self, m):
        box = 1.3
        rng = np.random.default_rng(m)
        x = np.concatenate([[-0.75, -0.0, 0.0, 0.3, 0.999 * box], rng.random(40) * box])
        want = np.exp(1j * np.outer(x, 2.0 * np.pi * np.fft.rfftfreq(m, d=box / m)))
        got = _phases(x, Grid(box=box, m=m))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-11

    @pytest.mark.parametrize("dim, m, n", [(1, 64, 2500), (2, 16, 9000)])
    def test_point_blocks_match_full_spectrum_formula(self, dim, m, n):
        # More points than one block of 2^16 phase entries holds.
        g = Grid(box=1.3, m=m, dim=dim)
        rng = np.random.default_rng(m)
        f = g.irfft(g.rfft(rng.standard_normal(g.shape)) * g.two_thirds)
        pts = rng.random((n, dim)) * g.box
        itp = FieldInterpolant(f, g)
        assert np.max(np.abs(itp(pts) - _long_double_interp(f, g, pts))) < 1e-12
        for q in range(dim):
            got = nufft_type2(g.ik[q] * g.rfft(f), g, pts)
            want = _long_double_interp(f, g, pts, derivative=q)
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_type2_memory_bounded(self):
        # 4096 points on a 256-node mesh: the gather goes in blocks of
        # _GATHER_BLOCK point-nodes, whatever the number of points; the
        # kernel weights of all points at once would take 0.5 MB per array.
        g = Grid(box=1.0, m=256, dim=1)
        itp = FieldInterpolant(np.random.default_rng(0).standard_normal(g.m), g)
        pts = np.random.default_rng(1).random((4096, 1))
        tracemalloc.start()
        try:
            itp(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_matches_long_double_sum_at_young_mesh(self):
        # White noise on the 4096-node mesh of the Young study: every one of
        # the 2049 modes carries weight, so the running-product phases are
        # tested at their largest index.
        g = Grid(box=1.0, m=4096, dim=1)
        rng = np.random.default_rng(4096)
        f = rng.standard_normal(g.m)
        pts = rng.random((20, 1)) * g.box
        c = np.fft.rfft(f.astype(np.longdouble)) / g.m
        c[1 : (g.m + 1) // 2] *= 2
        k = np.arange(c.size, dtype=np.longdouble) * (2 * np.pi / g.box)
        cos, sin = np.cos(np.outer(pts[:, 0], k)), np.sin(np.outer(pts[:, 0], k))
        value = cos @ c.real - sin @ c.imag
        k[g.m // 2] = 0  # the derivative drops the Nyquist cosine
        slope = -(sin @ (k * c.real) + cos @ (k * c.imag))
        got_slope = nufft_type2(g.ik[0] * g.rfft(f), g, pts)
        for got, want in ((FieldInterpolant(f, g)(pts), value), (got_slope, slope)):
            want = want.astype(float)
            assert np.max(np.abs(got - want)) < 1e-11 * np.max(np.abs(want))


class TestNufftType2:
    @pytest.mark.parametrize("dim, m", [(1, 256), (1, 255), (2, 32), (2, 15)])
    def test_matches_long_double_sum(self, dim, m):
        # White noise: every mode carries weight, the Nyquist modes included;
        # more points than one gather block holds.
        g = Grid(box=1.3, m=m, dim=dim)
        rng = np.random.default_rng(m + dim)
        f = rng.standard_normal(g.shape)
        pts = rng.random((_GATHER_BLOCK // _ES_WIDTH**dim + 50, dim)) * g.box
        fk = g.rfft(f)
        for derivative in (None, *range(dim)):
            got = nufft_type2(fk if derivative is None else g.ik[derivative] * fk, g, pts)
            want = _long_double_interp(f, g, pts, derivative)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim, m", [(1, 64), (1, 63), (2, 16), (2, 15)])
    def test_stacked_fields_match_full_spectrum_formula(self, dim, m):
        # Fields stacked on leading axes (2, 3): a call returns (n, 2, 3).
        g = Grid(box=1.3, m=m, dim=dim)
        rng = np.random.default_rng(20 + m)
        f = g.irfft(g.rfft(rng.standard_normal((2, 3) + g.shape)) * g.two_thirds)
        pts = rng.random((300, dim)) * g.box - 0.5 * g.box  # some left of the box
        got = nufft_type2(g.rfft(f), g, pts)
        assert got.shape == (300, 2, 3)
        for i in range(2):
            for j in range(3):
                want = _long_double_interp(f[i, j], g, pts)
                assert np.max(np.abs(got[:, i, j] - want)) < 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("q", [1, 2, 7, 3 * _ES_WIDTH + 4])
    def test_gauss_legendre_matches_leggauss(self, q):
        x, w = _gauss_legendre(q)
        want_x, want_w = np.polynomial.legendre.leggauss(q)
        order = np.argsort(x)
        assert np.max(np.abs(x[order] - want_x)) < 1e-15
        assert np.max(np.abs(w[order] - want_w)) < 1e-14


class TestSpectralUtilities:
    def test_upsample_preserves_original_nodes(self):
        g = Grid(box=1.0, m=32, dim=1)
        f = np.sin(2 * np.pi * 3 * g.nodes())
        fine = upsample(f, g, 128)
        assert np.max(np.abs(fine[::4] - f)) < 1e-12

    def test_upsample_2d_matches_interpolant_at_fine_nodes(self):
        g = Grid(box=1.0, m=16, dim=2)
        f = g.irfft(g.rfft(np.random.default_rng(0).standard_normal(g.shape)) * g.two_thirds)
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

    @pytest.mark.parametrize("dim, m, m_fine", [(1, 64, 256), (1, 63, 256), (1, 15, 40),
                                                (2, 16, 64), (2, 15, 32), (2, 12, 30)])
    def test_padded_spectrum_is_spectrum_of_upsample(self, dim, m, m_fine):
        # Three stacked fields with every mode, the Nyquist modes included.
        g, fine = Grid(box=1.3, m=m, dim=dim), Grid(box=1.3, m=m_fine, dim=dim)
        rows = np.random.default_rng(m).standard_normal((3,) + g.shape)
        got = padded_spectrum(g.rfft(rows), g, m_fine)
        want = np.stack([fine.rfft(upsample(row, g, m_fine)) for row in rows])
        assert got.shape == want.shape == (3,) + fine.shape[:-1] + (m_fine // 2 + 1,)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim, m, m_fine", [(1, 8, 16), (1, 256, 16384), (1, 64, 1024),
                                                (2, 8, 16), (2, 16, 64), (2, 32, 128)])
    def test_upsample_bitwise_at_power_of_two_ratios(self, dim, m, m_fine):
        # The factor (m_fine / m)^d applied before the inverse transform, not
        # after it as in the reference: a power of two scales every rounding
        # exactly, so the bits agree.
        g, fine = Grid(box=1.0, m=m, dim=dim), Grid(box=1.0, m=m_fine, dim=dim)
        for scale in (1.0, 1e-7, 3e5):
            f = scale * np.random.default_rng(m).standard_normal(g.shape)
            want = fine.irfft(_reference_padded_spectrum(g.rfft(f), m, m_fine, dim))
            assert np.array_equal(upsample(f, g, m_fine), want * (m_fine / m) ** dim)

    @pytest.mark.parametrize("dim, top", [(1, 300), (2, 40)])
    def test_padded_spectrum_bitwise_equal_to_index_scatter(self, dim, top):
        # Every mesh from 4 to top, odd and even, onto finer meshes of every
        # parity; three stacked rows holding signed zeros.
        for m in range(4, top + 1):
            g = Grid(box=1.3, m=m, dim=dim)
            fk = g.rfft(np.random.default_rng(m).standard_normal((3,) + g.shape))
            fk.real[..., ::7] = -0.0
            fk.imag[..., ::5] = -0.0
            for m_fine in (m + 1, m + 2, 2 * m, 2 * m + 1, 3 * m):
                got = padded_spectrum(fk, g, m_fine)
                want = _reference_padded_spectrum(fk * (m_fine / m) ** dim, m, m_fine, dim)
                assert got.shape == want.shape
                assert np.array_equal(got, want), (m, m_fine)
                for part in ("real", "imag"):
                    assert np.array_equal(np.signbit(getattr(got, part)),
                                          np.signbit(getattr(want, part))), (m, m_fine)

    def test_padded_spectrum_keeps_an_equal_mesh(self):
        g = Grid(box=1.0, m=8, dim=2)
        fk = g.rfft(np.random.default_rng(0).standard_normal((2,) + g.shape))
        assert np.array_equal(padded_spectrum(fk, g, 8), fk)

    def test_upsample_refuses_downsampling(self):
        g = Grid(box=1.0, m=32, dim=1)
        with pytest.raises(ValueError):
            upsample(np.ones(32), g, 16)

    @given(mode=st.integers(min_value=0, max_value=30))
    def test_dealias_keeps_low_kills_high(self, mode):
        g = Grid(box=1.0, m=64, dim=1)
        f = np.cos(2 * np.pi * mode * g.nodes())
        out = g.irfft(g.rfft(f) * g.two_thirds)
        if mode <= g.m // 3:
            assert np.max(np.abs(out - f)) < 1e-12
        else:
            assert np.max(np.abs(out)) < 1e-12
