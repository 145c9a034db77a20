"""Young integration and calculus-identity residual oracles."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holderflow.fields import FieldInterpolant, Grid, nufft_type2
from holderflow.noise import NoiseSpec, SampledPath, holder_seminorm, restrict, sample_fbm
from holderflow import young
from holderflow.young import (
    IntegrandPath,
    check_chain_rule,
    check_integration_by_parts,
    check_ito_wentzell,
    young_integral,
    young_loeve_defect,
)


def _smooth_path(m=512, horizon=1.0):
    t = np.linspace(0.0, horizon, m + 1)
    return SampledPath(t, np.sin(2.0 * np.pi * t)[:, None], alpha=1.0)


class TestYoungIntegral:
    def test_refuses_subcritical_exponents(self):
        t = np.linspace(0.0, 1.0, 17)
        x = IntegrandPath(np.zeros((17, 1)), beta=0.4)
        y = SampledPath(t, t[:, None], alpha=0.5)
        with pytest.raises(ValueError, match="Young condition"):
            young_integral(x, y)

    def test_refuses_mismatched_grids(self):
        t1 = np.linspace(0.0, 1.0, 17)
        t2 = np.linspace(0.0, 1.0, 33)
        x = IntegrandPath(np.ones((17, 1)), beta=1.0)
        y = SampledPath(t2, t2[:, None], alpha=1.0)
        with pytest.raises(ValueError, match="grid"):
            young_integral(x, y)

    def test_refuses_window_time_just_off_the_grid(self):
        # 1e-10 off a grid time: inside a 1e-9 * T rule, far outside a few
        # ulps of the horizon.
        path = _smooth_path(16)
        x = IntegrandPath(np.ones((17, 1)), beta=1.0)
        with pytest.raises(ValueError, match=r"^s=.* is not a time of the path's grid"):
            young_integral(x, path, path.times[4] + 1e-10)

    def test_accepts_decimal_window_times_of_linspace_grid(self):
        # linspace(0, 1, 11)[3] is 0.30000000000000004, not 0.3.
        t = np.linspace(0.0, 1.0, 11)
        y = SampledPath(t, t[:, None], alpha=1.0)
        x = IntegrandPath(np.arange(11.0)[:, None], beta=1.0)
        assert young_integral(x, y, 0.3, 0.7) == pytest.approx(0.1 * (3 + 4 + 5 + 6))

    def test_constant_integrand_exact(self):
        # ∫ c dY = c (Y_T - Y_0) with zero quadrature error.
        path = sample_fbm(NoiseSpec(hurst=0.75, resolution=128, seed=1))
        x = IntegrandPath(np.full((129, 1), 2.5), beta=1.0)
        got = young_integral(x, path)
        assert got == pytest.approx(2.5 * path.values[-1, 0], abs=1e-14)

    def test_subinterval_additivity(self):
        path = sample_fbm(NoiseSpec(hurst=0.75, resolution=64, seed=4))
        x = IntegrandPath(np.cos(path.times)[:, None], beta=1.0)
        mid = path.times[32]
        whole = young_integral(x, path)
        split = young_integral(x, path, 0.0, mid) + young_integral(x, path, mid, path.horizon)
        assert whole == pytest.approx(split, rel=1e-12)

    def test_matrix_integrand_contracts_increments(self):
        path = sample_fbm(NoiseSpec(hurst=0.75, dim=2, resolution=32, seed=7))
        mats = np.tile(np.eye(2), (33, 1, 1))
        x = IntegrandPath(mats, beta=1.0)
        got = young_integral(x, path)
        assert np.allclose(got, path.values[-1], atol=1e-14)

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity_in_integrand(self, a, b):
        path = sample_fbm(NoiseSpec(hurst=0.75, resolution=64, seed=2))
        f = np.sin(path.times)[:, None]
        g = (path.times**2)[:, None]
        xa = IntegrandPath(f, beta=1.0)
        xb = IntegrandPath(g, beta=1.0)
        xc = IntegrandPath(a * f + b * g, beta=1.0)
        lhs = young_integral(xc, path)
        rhs = a * young_integral(xa, path) + b * young_integral(xb, path)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_left_and_mid_rules_agree_under_refinement(self):
        # Both rules target the same limit; their gap must shrink with mesh.
        path = sample_fbm(NoiseSpec(hurst=0.75, resolution=4096, seed=3))
        gaps = []
        for stride in (16, 4, 1):
            p = restrict(path, stride)
            x = IntegrandPath(p.values, beta=p.alpha)
            gaps.append(abs(young_integral(x, p, rule="left") - young_integral(x, p, rule="mid")))
        assert gaps[2] < gaps[1] < gaps[0]


class TestIntegrationByParts:
    def test_constant_paths_exact_zero(self):
        t = np.linspace(0.0, 1.0, 33)
        flat = SampledPath(t, np.zeros((33, 1)), alpha=1.0)
        assert check_integration_by_parts(flat, flat) == 0.0

    def test_residual_equals_quadratic_covariation_sum(self):
        # For left-point sums the identity defect is exactly Σ dX dY.
        x = sample_fbm(NoiseSpec(hurst=0.75, resolution=256, seed=5))
        y = sample_fbm(NoiseSpec(hurst=0.75, resolution=256, seed=6))
        residual = check_integration_by_parts(x, y)
        cross = abs(np.sum(np.diff(x.values[:, 0]) * np.diff(y.values[:, 0])))
        assert residual == pytest.approx(cross, rel=1e-10)

    def test_refuses_subcritical(self):
        t = np.linspace(0.0, 1.0, 9)
        p = SampledPath(t, t[:, None], alpha=0.45)
        with pytest.raises(ValueError):
            check_integration_by_parts(p, p)

    def test_refuses_vector_paths(self):
        # A 2-d pair must not be read through its first component.
        x = sample_fbm(NoiseSpec(hurst=0.75, dim=2, resolution=32, seed=5))
        y = sample_fbm(NoiseSpec(hurst=0.75, dim=2, resolution=32, seed=6))
        with pytest.raises(ValueError, match="scalar"):
            check_integration_by_parts(x, y)

    def test_refuses_paths_on_different_horizons(self):
        # Equal step counts, horizons 9e-6 apart: np.allclose at its defaults
        # took the two grids for one.
        x, y = (sample_fbm(NoiseSpec(hurst=0.75, horizon=h, resolution=8, seed=s))
                for h, s in ((1.0, 5), (1.000009, 6)))
        with pytest.raises(ValueError, match="paths must share the time grid"):
            check_integration_by_parts(x, y)

    def test_decreases_under_refinement(self):
        x = sample_fbm(NoiseSpec(hurst=0.75, resolution=4096, seed=5))
        y = sample_fbm(NoiseSpec(hurst=0.75, resolution=4096, seed=6))
        res = [
            check_integration_by_parts(restrict(x, s), restrict(y, s))
            for s in (16, 4, 1)
        ]
        assert res[2] < res[1] < res[0]


class TestChainRule:
    def test_linear_function_exact_zero(self):
        path = sample_fbm(NoiseSpec(hurst=0.75, resolution=128, seed=0))
        res = check_chain_rule(lambda v: 4.0 * float(v[0]), lambda v: np.full_like(v, 4.0), path)
        assert res < 1e-12

    @pytest.mark.parametrize(
        "df, got",
        [(lambda v: 4.0 * v[:, 0], "(129,)"), (lambda v: np.array([4.0]), "(1,)")],
        ids=["column", "one-sample"],
    )
    def test_refuses_gradient_of_wrong_shape(self, df, got):
        # df is called once on all samples; a shape that would broadcast is refused.
        path = sample_fbm(NoiseSpec(hurst=0.75, resolution=128, seed=0))
        want = f"shape (129, 1) on the path samples, got shape {got}"
        with pytest.raises(ValueError, match=re.escape(want)):
            check_chain_rule(lambda v: 4.0 * float(v[0]), df, path)

    def test_refuses_subcritical(self):
        t = np.linspace(0.0, 1.0, 9)
        p = SampledPath(t, t[:, None], alpha=0.4)
        with pytest.raises(ValueError):
            check_chain_rule(lambda v: float(v[0]) ** 2, lambda v: 2.0 * v, p, gamma=1.0)

    def test_square_residual_small_on_smooth_path(self):
        res = check_chain_rule(
            lambda v: float(v[0]) ** 2, lambda v: 2.0 * v, _smooth_path(2048)
        )
        assert res < 1e-6

    def test_decreases_under_refinement_on_fbm(self):
        path = sample_fbm(NoiseSpec(hurst=0.75, resolution=4096, seed=8))
        res = [
            check_chain_rule(
                lambda v: float(v[0]) ** 3, lambda v: 3.0 * v**2, restrict(path, s)
            )
            for s in (16, 4, 1)
        ]
        assert res[2] < res[1] < res[0]


class TestItoWentzell:
    def test_flat_field_exact_zero(self):
        # g0 constant and h x-independent: every term is computed exactly.
        y = sample_fbm(NoiseSpec(hurst=0.75, resolution=64, seed=1))
        x = sample_fbm(NoiseSpec(hurst=0.75, resolution=64, seed=2))
        res = check_ito_wentzell(
            lambda grid: np.full_like(grid, 1.5),
            lambda t, grid: np.full_like(grid, 0.7),
            y,
            x,
        )
        assert res < 1e-12

    def test_refuses_vector_paths(self):
        y = sample_fbm(NoiseSpec(hurst=0.75, dim=2, resolution=32))
        x = sample_fbm(NoiseSpec(hurst=0.75, resolution=32))
        with pytest.raises(ValueError, match="scalar"):
            check_ito_wentzell(np.sin, lambda t, g: np.cos(g), y, x)

    def test_refuses_paths_on_different_horizons(self):
        y, x = (sample_fbm(NoiseSpec(hurst=0.75, horizon=h, resolution=8, seed=s))
                for h, s in ((1.0, 1), (1.000009, 2)))
        with pytest.raises(ValueError, match="paths must share the time grid"):
            check_ito_wentzell(np.sin, lambda t, g: np.cos(g), y, x)

    def test_residual_small_on_fbm(self):
        y = sample_fbm(NoiseSpec(hurst=0.75, resolution=1024, seed=3))
        x = sample_fbm(NoiseSpec(hurst=0.75, resolution=1024, seed=4))
        res = check_ito_wentzell(
            np.sin, lambda t, grid: 0.5 * np.cos(grid + t), y, x
        )
        assert res < 1e-3

    @pytest.mark.parametrize(
        "n, m, flat",
        [
            (32, 256, False),
            (1000, 256, False),
            (1024, 256, False),
            (1000, 255, False),
            (1024, 255, False),
            (100, 64, False),
            (200, 256, True),
        ],
    )
    def test_spectral_check_matches_per_step_oracle(self, n, m, flat):
        # 33 rows fit in one block; 101, 201, 1001 and 1025 leave a partial
        # last block.  The flat field's residual must stay a rounding error.
        y = sample_fbm(NoiseSpec(hurst=0.75, resolution=n, seed=3))
        x = sample_fbm(NoiseSpec(hurst=0.75, resolution=n, seed=4))
        if flat:
            fields = (lambda g: np.full_like(g, 1.5), lambda t, g: np.full_like(g, 0.7))
        else:
            fields = (np.sin, lambda t, g: 0.5 * np.cos(g + t))
        got = check_ito_wentzell(*fields, y, x, space_points=m)
        assert abs(got - _ito_wentzell_per_step(*fields, y, x, space_points=m)) < 1e-12
        if flat:
            assert got < 1e-12

    def test_one_transform_per_block(self, monkeypatch):
        calls = []
        rfft = Grid.rfft

        def counted(self, f):
            calls.append(np.shape(f))
            return rfft(self, f)

        monkeypatch.setattr(Grid, "rfft", counted)
        y = sample_fbm(NoiseSpec(hurst=0.75, resolution=1024, seed=3))
        x = sample_fbm(NoiseSpec(hurst=0.75, resolution=1024, seed=4))
        check_ito_wentzell(np.sin, lambda t, grid: 0.5 * np.cos(grid + t), y, x)
        assert len(calls) <= -(-1025 // young._IW_BLOCK) + 1

    @pytest.mark.parametrize("n, m", [(1000, 256), (1024, 255)])
    def test_block_of_times_equals_per_time_evaluation(self, n, m):
        # h is called once per block on a (B, 1) column of times; the rows
        # equal the fields evaluated one time at a time.
        y = sample_fbm(NoiseSpec(hurst=0.75, resolution=n, seed=3))
        x = sample_fbm(NoiseSpec(hurst=0.75, resolution=n, seed=4))
        shapes = []

        def h(t, g):
            shapes.append(np.shape(t))
            return 0.5 * np.cos(g + t)

        def per_time(t, g):
            return np.stack([0.5 * np.cos(g + float(s)) for s in t[:, 0]])

        got = check_ito_wentzell(np.sin, h, y, x, space_points=m)
        assert got == check_ito_wentzell(np.sin, per_time, y, x, space_points=m)
        b = young._IW_BLOCK
        assert shapes == [(min(b, n + 1 - s), 1) for s in range(0, n + 1, b)]

    def test_time_independent_field_accepted(self):
        y = sample_fbm(NoiseSpec(hurst=0.75, resolution=200, seed=3))
        x = sample_fbm(NoiseSpec(hurst=0.75, resolution=200, seed=4))
        flat = check_ito_wentzell(np.sin, lambda t, g: 0.5 * np.cos(g), y, x)
        rows = check_ito_wentzell(np.sin, lambda t, g: 0.5 * np.cos(g) + 0.0 * t, y, x)
        assert flat == rows

    @pytest.mark.parametrize(
        "g0, h, name, shape",
        [
            (np.sin, lambda t, g: 0.5, "h", "()"),
            (lambda g: np.sin(g)[:, None], lambda t, g: np.cos(g), "g0", "(256, 1)"),
            (np.sin, lambda t, g: np.cos(g[:-1]), "h", "(255,)"),
            (np.sin, lambda t, g: np.cos(g[:-1] + t), "h", "(33, 255)"),
        ],
    )
    def test_refuses_malformed_field_callables(self, g0, h, name, shape):
        y = sample_fbm(NoiseSpec(hurst=0.75, resolution=32, seed=1))
        x = sample_fbm(NoiseSpec(hurst=0.75, resolution=32, seed=2))
        with pytest.raises(ValueError) as err:
            check_ito_wentzell(g0, h, y, x)
        msg = str(err.value)
        assert msg.startswith(f"{name} must return an array of shape (256,)")
        assert msg.endswith(f"got shape {shape}")


def _ito_wentzell_per_step(g0, h, y, x, box=2.0 * np.pi, space_points=256):
    """Reference: the Itô-Wentzell residual with the field advanced in space
    and two ``FieldInterpolant``s built at every time step."""
    grid = Grid(box=box, m=space_points)
    nodes = grid.nodes()
    g = np.asarray(g0(nodes), dtype=float)
    xs = np.mod(x.values, box)
    yv = y.values[:, 0]
    n = y.steps
    h_x = np.empty((n + 1, 1))
    dg_x = np.empty((n + 1, 1))
    g_start = FieldInterpolant(g, grid)(xs[:1])[0]
    for i in range(n + 1):
        h_i = np.asarray(h(float(y.times[i]), nodes), dtype=float)
        h_x[i] = FieldInterpolant(h_i, grid)(xs[i : i + 1])
        g_itp = FieldInterpolant(g, grid)
        dg_x[i] = np.mean(nufft_type2(grid.ik[0] * g_itp.coeff, grid, xs[i : i + 2]))
        if i < n:
            g = g + h_i * (yv[i + 1] - yv[i])
    g_end = g_itp(xs[n:])[0]
    beta = min(x.alpha, y.alpha)
    total_h = young_integral(IntegrandPath(h_x, beta), y)
    total_dg = young_integral(IntegrandPath(dg_x, beta), x)
    return float(abs(g_end - g_start - total_h - total_dg))


def _trig_interp(values, box, pts):
    """Reference: 1-d trigonometric interpolation on the real half spectrum."""
    m = values.shape[-1]
    coeff = np.fft.rfft(values) / m
    k = 2.0 * np.pi * np.fft.rfftfreq(m, d=box / m)
    phases = np.exp(1j * np.outer(np.atleast_1d(pts), k))
    weights = np.where(np.arange(k.shape[0]) == 0, 1.0, 2.0)
    if m % 2 == 0:
        weights[-1] = 1.0
    return (phases * weights * coeff).real.sum(axis=-1)


def _spectral_derivative(values, box):
    k = 2.0 * np.pi * np.fft.rfftfreq(values.shape[-1], d=box / values.shape[-1])
    return np.fft.irfft(1j * k * np.fft.rfft(values), n=values.shape[-1])


@pytest.mark.parametrize("m", [64, 65])
def test_field_interpolant_matches_trig_interp(m):
    box = 2.0 * np.pi
    rng = np.random.default_rng(m)
    values = rng.standard_normal(m)
    pts = rng.random(40) * box
    grid = Grid(box=box, m=m)
    itp = FieldInterpolant(values, grid)
    assert np.max(np.abs(itp(pts[:, None]) - _trig_interp(values, box, pts))) < 1e-12
    want = _trig_interp(_spectral_derivative(values, box), box, pts)
    got = nufft_type2(grid.ik[0] * grid.rfft(values), grid, pts[:, None])
    assert np.max(np.abs(got - want)) < 1e-12


class TestYoungLoeve:
    def test_constant_integrand_zero_defect(self):
        path = sample_fbm(NoiseSpec(hurst=0.75, resolution=64, seed=9))
        x = IntegrandPath(np.ones((65, 1)), beta=1.0)
        defect, factor = young_loeve_defect(x, path, 0.0, path.horizon)
        assert defect < 1e-15
        assert factor < 1e-12

    def test_defect_within_envelope_on_fbm_pairs(self):
        # The empirical factor is the constant of the one-step estimate;
        # it must stay O(1) across windows.
        x_path = sample_fbm(NoiseSpec(hurst=0.75, resolution=512, seed=10))
        y_path = sample_fbm(NoiseSpec(hurst=0.75, resolution=512, seed=11))
        x = IntegrandPath(x_path.values, beta=x_path.alpha)
        nx = holder_seminorm(x_path, x_path.alpha)
        ny = holder_seminorm(y_path, y_path.alpha)
        factors = []
        for i in range(0, 512 - 32, 32):
            s, t = y_path.times[i], y_path.times[i + 32]
            _, f = young_loeve_defect(x, y_path, s, t, norm_x=nx, norm_y=ny)
            factors.append(f)
        assert max(factors) < 10.0
