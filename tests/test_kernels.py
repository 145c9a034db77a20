"""Mollifier family: scaling, self-convolution, mollification, regime refusals."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holderflow.convergence import ExperimentConfig
from holderflow.fields import Grid
from holderflow.kernels import (
    KernelFamily,
    RegimeError,
    kernel_radius,
    mollify,
    periodic_kernel_samples,
    require_resolved,
    require_support,
)


class TestFamilyValidation:
    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.3, 1.5])
    def test_rejects_beta_outside_moderate_regime(self, beta):
        with pytest.raises(ValueError, match="beta"):
            KernelFamily(beta=beta)

    def test_rejects_unknown_base(self):
        # The Gaussian is the only base; the config key refuses any other.
        with pytest.raises(ValueError, match="unknown base density 'tophat'"):
            ExperimentConfig(kernel_base="tophat")

    def test_scale_is_power_law(self):
        fam = KernelFamily(beta=0.6, dim=2)
        assert fam.scale(256) == pytest.approx(256.0 ** 0.3)


class TestUnitMass:
    def test_base_density_unit_mass(self):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        x = np.linspace(-0.5, 0.5, 20001)[:, None]
        mass = np.trapezoid(fam.kernel(1, x, "phi_r"), x[:, 0])
        assert mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("which", ["phi", "phi_r"])
    def test_scaled_kernels_unit_mass(self, which):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        x = np.linspace(-0.5, 0.5, 40001)[:, None]
        for n in (16, 256):
            mass = np.trapezoid(fam.kernel(n, x, which), x[:, 0])
            assert mass == pytest.approx(1.0, abs=1e-6)


class TestKernelOracle:
    """``KernelFamily.kernel`` against the Gaussians written out by hand."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("which, c", [("phi_r", 1.0), ("phi", 2.0)])
    def test_bitwise_equal_to_closed_form(self, dim, which, c):
        fam = KernelFamily(beta=0.6, dim=dim, bandwidth=0.137)
        n, h = 256, 0.137
        s = float(n) ** (0.6 / dim)
        x = np.random.default_rng(dim).uniform(-0.2, 0.2, (500, dim))
        y = x * s
        val = (2.0 * c * np.pi * h * h) ** (-dim / 2) * np.exp(
            -np.sum(y * y, axis=-1) / (2.0 * c * h * h)
        )
        grad = -y / (c * h * h) * val[..., None]
        assert np.array_equal(fam.kernel(n, x, which), float(n) ** 0.6 * 1.0 * val)
        assert np.array_equal(
            fam.kernel(n, x, which, derivative=True), float(n) ** 0.6 * s * grad
        )

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("which", ["phi", "phi_r"])
    def test_second_moment_is_dim_times_width_squared(self, dim, which):
        fam = KernelFamily(beta=0.6, dim=dim, bandwidth=0.05)
        n = 64
        xs = np.linspace(-0.5, 0.5, 2001 if dim == 1 else 401)
        pts = np.stack(np.meshgrid(*([xs] * dim), indexing="ij"), axis=-1)
        dens = np.sum(pts * pts, axis=-1) * fam.kernel(n, pts, which)
        for _ in range(dim):
            dens = np.trapezoid(dens, xs, axis=0)
        assert abs(dens - dim * fam.width(n, which) ** 2) < 1e-10

    @pytest.mark.parametrize(
        "call",
        [
            lambda fam: fam.width(64, "phy"),
            lambda fam: fam.kernel(64, np.zeros((1, 1)), "phy"),
            lambda fam: kernel_radius(fam, 64, "phy"),
            lambda fam: require_support(fam, 64, 1.0, "phy"),
            lambda fam: require_resolved(fam, 64, 1.0, 256, "phy"),
        ],
        ids=["width", "kernel", "kernel_radius", "require_support", "require_resolved"],
    )
    def test_unknown_which_refused(self, call):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        with pytest.raises(ValueError, match="'phi' or 'phi_r'"):
            call(fam)


class TestSelfConvolution:
    def test_phi_is_convolution_square_of_phi_r(self):
        # FFT oracle on a periodic grid: phi_N^r * phi_N^r = phi_N.
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        n, m, box = 64, 4096, 1.0
        pr = periodic_kernel_samples(fam, n, box, m, "phi_r")
        p = periodic_kernel_samples(fam, n, box, m, "phi")
        cell = box / m
        conv = np.fft.irfft(np.fft.rfft(pr) ** 2, n=m) * cell
        assert np.max(np.abs(conv - p)) < 1e-10 * np.max(p)


class TestGradients:
    @pytest.mark.parametrize("which", ["phi", "phi_r"])
    def test_gradient_matches_finite_difference(self, which):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        n, eps = 32, 1e-6
        xs = np.linspace(-0.1, 0.1, 11)[:, None]
        fd = (fam.kernel(n, xs + eps, which) - fam.kernel(n, xs - eps, which)) / (2 * eps)
        grad = fam.kernel(n, xs, which, derivative=True)[:, 0]
        assert np.max(np.abs(fd - grad)) < 1e-3 * np.max(np.abs(grad))

    def test_gradient_vanishes_at_origin(self):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        assert fam.kernel(100, np.array([[0.0]]), derivative=True)[0, 0] == 0.0

    def test_gradient_odd_symmetry(self):
        fam = KernelFamily(beta=0.6, dim=2, bandwidth=0.05)
        pts = np.array([[0.01, -0.02], [0.03, 0.005]])
        a = fam.kernel(64, pts, derivative=True)
        b = fam.kernel(64, -pts, derivative=True)
        assert np.allclose(a, -b, atol=1e-14)


def _reference_kernel_samples(family, n, box, m, which, derivative):
    """The kernel samples from integer node indices and a one-sided wrap of
    every coordinate past box / 2, with no ``Grid``."""
    x = np.moveaxis(np.indices((m,) * family.dim), 0, -1) * (box / m)
    vals = family.kernel(n, np.where(x > box / 2, x - box, x), which, derivative)
    if not derivative:
        vals = vals / (np.sum(vals) * (box / m) ** family.dim)
    return vals


class TestPeriodicSamples:
    @pytest.mark.parametrize("dim, ms", [(1, [4, 5, 63, 64, 255, 1000, 4096]),
                                         (2, [4, 5, 15, 16, 63, 64])])
    @pytest.mark.parametrize("which, derivative",
                             [("phi", False), ("phi_r", False), ("phi", True)])
    def test_bitwise_equal_to_index_formula(self, dim, ms, which, derivative):
        # The nodes of Grid.coordinate and the round-based minimum image of
        # the direct force give the same bits, sign bits included.
        fam = KernelFamily(beta=0.6, dim=dim, bandwidth=0.05)
        for m in ms:
            for box in (1.0, 2 * np.pi, 0.7, 3.0):
                got = periodic_kernel_samples(fam, 64, box, m, which, derivative)
                want = _reference_kernel_samples(fam, 64, box, m, which, derivative)
                assert got.shape == want.shape
                assert np.array_equal(got, want), (m, box)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (m, box)


def _mollified(f, box, fam, n, which="phi_r"):
    """The nodes of ``mollify`` applied to the spectrum of the mesh field ``f``."""
    g = Grid(box=box, m=f.shape[0], dim=fam.dim)
    return g.irfft(mollify(g.rfft(f), g, fam, n, which))


class TestMollify:
    def test_preserves_constants_to_rounding(self):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        out = _mollified(np.full(512, 2.0), 1.0, fam, 128)
        assert np.max(np.abs(out - 2.0)) < 1e-12

    def test_preserves_mean(self):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(512)
        out = _mollified(f, 1.0, fam, 128)
        assert np.mean(out) == pytest.approx(np.mean(f), abs=1e-12)

    @pytest.mark.parametrize(
        "dim, m, which", [(1, 512, "phi_r"), (1, 256, "phi"), (2, 64, "phi_r")]
    )
    def test_cached_spectrum_bitwise_equal_to_uncached_formula(self, dim, m, which):
        fam = KernelFamily(beta=0.6, dim=dim, bandwidth=0.1)
        g = Grid(box=1.0, m=m, dim=dim)
        fk = g.rfft(np.random.default_rng(m).standard_normal(g.shape))
        kern = periodic_kernel_samples(fam, 64, g.box, m, which=which)
        want = fk * g.rfft(kern) * g.cell_volume()
        for _ in range(2):  # the first call fills the cache, the second reads it
            assert np.array_equal(mollify(fk, g, fam, 64, which=which), want)

    def test_refuses_wide_kernel(self):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.3)
        with pytest.raises(ValueError, match="half the box"):
            _mollified(np.ones(64), 1.0, fam, 2)

    def test_regime_refusals_are_regime_errors(self):
        with pytest.raises(RegimeError, match="half the box"):
            _mollified(np.ones(64), 1.0, KernelFamily(beta=0.6, dim=1, bandwidth=0.3), 2)
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        with pytest.raises(RegimeError, match="need at least M=86"):
            require_resolved(fam, 2, 1.0, 16, "phi")
        require_resolved(fam, 2, 1.0, 128, "phi")

    def test_damps_high_frequencies(self):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        x = np.arange(512) / 512
        low = np.sin(2 * np.pi * x)
        high = np.sin(2 * np.pi * 64 * x)
        rl = np.max(np.abs(_mollified(low, 1.0, fam, 64))) / np.max(np.abs(low))
        rh = np.max(np.abs(_mollified(high, 1.0, fam, 64))) / np.max(np.abs(high))
        assert rh < rl <= 1.0 + 1e-12

    @given(shift=st.integers(min_value=0, max_value=511))
    def test_translation_equivariance(self, shift):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        rng = np.random.default_rng(1)
        f = rng.standard_normal(512)
        a = np.roll(_mollified(f, 1.0, fam, 128), shift)
        b = _mollified(np.roll(f, shift), 1.0, fam, 128)
        assert np.max(np.abs(a - b)) < 1e-12


class TestSmoothingLemma:
    def test_mollification_error_within_gradient_envelope(self):
        # ||f - f*phi_N^r||_inf <= C N^{-beta/d} ||grad f||_inf with one C.
        box = 1.0
        m = 2048
        x = np.arange(m) / m * box
        f = np.sin(2 * np.pi * x / box)
        grad_sup = 2 * np.pi / box
        for beta in (0.4, 0.6, 0.8):
            fam = KernelFamily(beta=beta, dim=1, bandwidth=0.05)
            for n in (64, 1024, 16384):
                err = np.max(np.abs(f - _mollified(f, box, fam, n)))
                ratio = err / (n ** (-beta) * grad_sup)
                assert ratio < 1.0


class TestKernelRadius:
    def test_radius_shrinks_with_n(self):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        assert kernel_radius(fam, 1024) < kernel_radius(fam, 64)

    def test_phi_wider_than_phi_r(self):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        assert kernel_radius(fam, 64, "phi") > kernel_radius(fam, 64, "phi_r")

