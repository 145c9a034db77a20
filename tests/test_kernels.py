"""Mollifier family: scaling, self-convolution, mollification, hypotheses."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holderflow.kernels import (
    KernelFamily,
    check_hypotheses,
    grad_phi_N,
    grad_phi_r_N,
    RegimeError,
    kernel_radius,
    mollify,
    periodic_kernel_samples,
    phi_N,
    phi_r_N,
    require_resolved,
)


class TestFamilyValidation:
    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.3, 1.5])
    def test_rejects_beta_outside_moderate_regime(self, beta):
        with pytest.raises(ValueError, match="beta"):
            KernelFamily(beta=beta)

    def test_rejects_unknown_base(self):
        with pytest.raises(ValueError):
            KernelFamily(beta=0.5, base="tophat")

    def test_scale_is_power_law(self):
        fam = KernelFamily(beta=0.6, dim=2)
        assert fam.scale(256) == pytest.approx(256.0 ** 0.3)


class TestUnitMass:
    @pytest.mark.parametrize("base", ["gaussian", "bump"])
    def test_base_density_unit_mass(self, base):
        fam = KernelFamily(beta=0.6, dim=1, base=base, bandwidth=0.05)
        x = np.linspace(-0.5, 0.5, 20001)[:, None]
        mass = np.trapezoid(fam.base_density(x), x[:, 0])
        assert mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("which", ["phi", "phi_r"])
    def test_scaled_kernels_unit_mass(self, which):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        fn = phi_N if which == "phi" else phi_r_N
        x = np.linspace(-0.5, 0.5, 40001)[:, None]
        for n in (16, 256):
            mass = np.trapezoid(fn(fam, n, x), x[:, 0])
            assert mass == pytest.approx(1.0, abs=1e-6)


class TestSelfConvolution:
    def test_phi_is_convolution_square_of_phi_r(self):
        # FFT oracle on a periodic grid: phi_N^r * phi_N^r = phi_N.
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        n, m, box = 64, 4096, 1.0
        pr = periodic_kernel_samples(fam, n, box, m, "phi_r", normalize=False)
        p = periodic_kernel_samples(fam, n, box, m, "phi", normalize=False)
        cell = box / m
        conv = np.fft.irfft(np.fft.rfft(pr) ** 2, n=m) * cell
        assert np.max(np.abs(conv - p)) < 1e-10 * np.max(p)

    def test_bump_self_convolution_support_doubles(self):
        fam = KernelFamily(beta=0.6, dim=1, base="bump", bandwidth=0.05)
        x = np.array([[0.11], [0.09]])  # just outside / inside 2*bandwidth
        vals = fam.potential_base(x)
        assert vals[0] < 1e-12  # tabulated convolution: rounding-level leakage
        assert vals[1] > 1e-6


class TestGradients:
    @pytest.mark.parametrize("which", ["phi", "phi_r"])
    def test_gradient_matches_finite_difference(self, which):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        fn = phi_N if which == "phi" else phi_r_N
        gfn = grad_phi_N if which == "phi" else grad_phi_r_N
        n, eps = 32, 1e-6
        xs = np.linspace(-0.1, 0.1, 11)[:, None]
        fd = (fn(fam, n, xs + eps) - fn(fam, n, xs - eps)) / (2 * eps)
        grad = gfn(fam, n, xs)[:, 0]
        assert np.max(np.abs(fd - grad)) < 1e-3 * np.max(np.abs(grad))

    def test_gradient_vanishes_at_origin(self):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        assert grad_phi_N(fam, 100, np.array([[0.0]]))[0, 0] == 0.0

    def test_gradient_odd_symmetry(self):
        fam = KernelFamily(beta=0.6, dim=2, bandwidth=0.05)
        pts = np.array([[0.01, -0.02], [0.03, 0.005]])
        a = grad_phi_N(fam, 64, pts)
        b = grad_phi_N(fam, 64, -pts)
        assert np.allclose(a, -b, atol=1e-14)


class TestMollify:
    def test_preserves_constants_to_rounding(self):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        out = mollify(np.full(512, 2.0), 1.0, fam, 128)
        assert np.max(np.abs(out - 2.0)) < 1e-12

    def test_preserves_mean(self):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(512)
        out = mollify(f, 1.0, fam, 128)
        assert np.mean(out) == pytest.approx(np.mean(f), abs=1e-12)

    def test_refuses_wide_kernel(self):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.3)
        with pytest.raises(ValueError, match="half the box"):
            mollify(np.ones(64), 1.0, fam, 2)

    def test_regime_refusals_are_regime_errors(self):
        with pytest.raises(RegimeError, match="half the box"):
            mollify(np.ones(64), 1.0, KernelFamily(beta=0.6, dim=1, bandwidth=0.3), 2)
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        with pytest.raises(RegimeError, match="need at least M=86"):
            require_resolved(fam, 2, 1.0, 16, "phi")
        require_resolved(fam, 2, 1.0, 128, "phi")

    def test_damps_high_frequencies(self):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        x = np.arange(512) / 512
        low = np.sin(2 * np.pi * x)
        high = np.sin(2 * np.pi * 64 * x)
        rl = np.max(np.abs(mollify(low, 1.0, fam, 64))) / np.max(np.abs(low))
        rh = np.max(np.abs(mollify(high, 1.0, fam, 64))) / np.max(np.abs(high))
        assert rh < rl <= 1.0 + 1e-12

    @given(shift=st.integers(min_value=0, max_value=511))
    def test_translation_equivariance(self, shift):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        rng = np.random.default_rng(1)
        f = rng.standard_normal(512)
        a = np.roll(mollify(f, 1.0, fam, 128), shift)
        b = mollify(np.roll(f, shift), 1.0, fam, 128)
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
                err = np.max(np.abs(f - mollify(f, box, fam, n)))
                ratio = err / (n ** (-beta) * grad_sup)
                assert ratio < 1.0


class TestKernelRadius:
    def test_radius_shrinks_with_n(self):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        assert kernel_radius(fam, 1024) < kernel_radius(fam, 64)

    def test_phi_wider_than_phi_r(self):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        assert kernel_radius(fam, 64, "phi") > kernel_radius(fam, 64, "phi_r")


class TestHypothesisReport:
    def test_gaussian_base_d1(self):
        rep = check_hypotheses(KernelFamily(beta=0.6, dim=1, bandwidth=0.05))
        assert np.isfinite(rep.c1_margin) and rep.c1_margin > 0
        assert np.isfinite(rep.cotauj_margin)
        assert rep.moment_order == 1
        assert rep.cotawildeu_status in ("pass", "fail", "inapplicable")

    def test_report_only_never_raises(self):
        for base in ("gaussian", "bump"):
            check_hypotheses(KernelFamily(beta=0.4, dim=1, base=base, bandwidth=0.05))
