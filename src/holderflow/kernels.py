"""Moderate-interaction mollifier family and its numerical hypothesis checks.

The base density phi_1^r is a probability density whose self-convolution
gives the interaction potential base phi_1; both are rescaled with the
particle number as N^beta * base(N^{beta/d} x), so the kernel narrows at
rate N^{beta/d} while keeping unit mass.  The default base is a Gaussian
(closed-form convolution and Fourier transform, used by the oracles); a
compactly supported bump is selectable for sensitivity studies.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import Grid, as_points

__all__ = [
    "KernelFamily",
    "HypothesisReport",
    "phi_N",
    "grad_phi_N",
    "phi_r_N",
    "grad_phi_r_N",
    "kernel_radius",
    "RegimeError",
    "require_support",
    "require_resolved",
    "mollify",
    "periodic_kernel_samples",
    "check_hypotheses",
]


def _bump_profile(r: np.ndarray) -> np.ndarray:
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


@dataclass(frozen=True)
class KernelFamily:
    """Base density, moderate-interaction exponent beta and dimension.

    ``bandwidth`` is the length scale of the base density (std deviation of
    the Gaussian base, support radius of the bump base).  The evaluators take
    displacements as a (..., dim) array and drop its last axis.
    """

    beta: float
    dim: int = 1
    base: str = "gaussian"
    bandwidth: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"hypothesis violated: beta must lie in (0, 1), got {self.beta}")
        if self.base not in ("gaussian", "bump"):
            raise ValueError(f"unknown base density {self.base!r}")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.base == "bump":
            if self.dim != 1:
                raise ValueError(f"bump base tabulated for d=1 only, got d={self.dim}")
            object.__setattr__(self, "_bump_tables", _build_bump_tables(self))

    # --- base density phi_1^r and its gradient ---

    def base_density(self, x: np.ndarray) -> np.ndarray:
        x = as_points(x, self.dim, "displacements", batch=True)
        r2 = np.sum(x * x, axis=-1)
        h = self.bandwidth
        if self.base == "gaussian":
            norm = (2.0 * np.pi * h * h) ** (-self.dim / 2.0)
            return norm * np.exp(-r2 / (2.0 * h * h))
        r = np.sqrt(r2) / h
        c = self._bump_tables["norm"]
        return c * _bump_profile(r)

    def base_density_grad(self, x: np.ndarray) -> np.ndarray:
        x = as_points(x, self.dim, "displacements", batch=True)
        h = self.bandwidth
        if self.base == "gaussian":
            return -x / (h * h) * self.base_density(x)[..., None]
        r2 = np.sum(x * x, axis=-1)
        r = np.sqrt(r2) / h
        c = self._bump_tables["norm"]
        fac = np.zeros_like(r)
        inside = r < 1.0
        # d/dr exp(-1/(1-r^2)) = -2r/(1-r^2)^2 * exp(...)
        fac[inside] = (
            c
            * _bump_profile(r[inside])
            * (-2.0 * r[inside] / (1.0 - r[inside] ** 2) ** 2)
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(r[..., None] > 0, x / (r[..., None] * h), 0.0)
        return fac[..., None] / h * unit

    # --- self-convolution phi_1 = phi_1^r * phi_1^r ---

    def potential_base(self, x: np.ndarray) -> np.ndarray:
        x = as_points(x, self.dim, "displacements", batch=True)
        h = self.bandwidth
        if self.base == "gaussian":
            norm = (4.0 * np.pi * h * h) ** (-self.dim / 2.0)
            r2 = np.sum(x * x, axis=-1)
            return norm * np.exp(-r2 / (4.0 * h * h))
        return _bump_conv_eval(self, x, grad=False)

    def potential_base_grad(self, x: np.ndarray) -> np.ndarray:
        x = as_points(x, self.dim, "displacements", batch=True)
        h = self.bandwidth
        if self.base == "gaussian":
            return -x / (2.0 * h * h) * self.potential_base(x)[..., None]
        return _bump_conv_eval(self, x, grad=True)

    def scale(self, n: int) -> float:
        """The concentration factor N^{beta/d}."""
        return float(n) ** (self.beta / self.dim)

    def width(self, n: int, which: str = "phi") -> float:
        """Length scale of phi_N^r (``which="phi_r"``) or of phi_N at N particles.

        The bandwidth shrinks by N^{beta/d}; the self-convolution phi_N is
        sqrt(2) wider for the Gaussian base and twice as wide for the bump.
        """
        width = self.bandwidth / self.scale(n)
        if which == "phi":
            width *= np.sqrt(2.0) if self.base == "gaussian" else 2.0
        return width


def _build_bump_tables(family: KernelFamily) -> dict:
    # Normalization and a tabulated self-convolution for the compact bump (d=1).
    h = family.bandwidth
    r = np.linspace(-1.0, 1.0, 4001)
    prof = _bump_profile(r)
    mass = np.trapezoid(prof, r) * h
    norm = 1.0 / mass
    m = 8192
    span = 4.0 * h
    xs = (np.arange(m) - m // 2) * (2.0 * span / m)
    f = norm * _bump_profile(xs / h)
    conv = np.fft.ifft(np.fft.fft(f) * np.fft.fft(f)).real * (2.0 * span / m)
    conv = np.roll(conv, m // 2)
    return {"norm": norm, "conv_x": xs, "conv_f": conv}


def _bump_conv_eval(family: KernelFamily, x: np.ndarray, grad: bool):
    tab = family._bump_tables
    xi = x[..., 0]
    f = np.interp(xi, tab["conv_x"], tab["conv_f"], left=0.0, right=0.0)
    if not grad:
        return f
    dx = tab["conv_x"][1] - tab["conv_x"][0]
    df = np.gradient(tab["conv_f"], dx)
    return np.interp(xi, tab["conv_x"], df, left=0.0, right=0.0)[..., None]


# --- N-scaled kernels ---


def phi_N(family: KernelFamily, n: int, x: np.ndarray) -> np.ndarray:
    """Interaction kernel N^beta * phi_1(N^{beta/d} x)."""
    s = family.scale(n)
    return float(n) ** family.beta * family.potential_base(np.asarray(x) * s)


def grad_phi_N(family: KernelFamily, n: int, x: np.ndarray) -> np.ndarray:
    s = family.scale(n)
    return float(n) ** family.beta * s * family.potential_base_grad(np.asarray(x) * s)


def phi_r_N(family: KernelFamily, n: int, x: np.ndarray) -> np.ndarray:
    """Convolution square root of phi_N: same N^beta scaling applied to phi_1^r."""
    s = family.scale(n)
    return float(n) ** family.beta * family.base_density(np.asarray(x) * s)


def grad_phi_r_N(family: KernelFamily, n: int, x: np.ndarray) -> np.ndarray:
    s = family.scale(n)
    return float(n) ** family.beta * s * family.base_density_grad(np.asarray(x) * s)


def kernel_radius(family: KernelFamily, n: int, which: str = "phi") -> float:
    """Radius containing 99.99% of the kernel mass (conservative for Gaussian)."""
    return (5.0 if family.base == "gaussian" else 1.0) * family.width(n, which)


class RegimeError(ValueError):
    """Per-N refusal: the kernel at this N does not fit the box or the mesh."""


def require_support(family: KernelFamily, n: int, box: float, which: str = "phi") -> None:
    """Refuse a kernel wider than half the box (wrap-around would corrupt it)."""
    radius = kernel_radius(family, n, which)
    if radius > box / 2:
        raise RegimeError(
            f"kernel support radius {radius:.4g} exceeds half the box {box / 2:.4g}; "
            f"increase N or the box"
        )


def require_resolved(family: KernelFamily, n: int, box: float, m: int, which: str) -> None:
    """Refuse a mesh of ``m`` cells per side with fewer than 4 per kernel width."""
    width = family.width(n, which)
    cells = width / (box / m)
    if cells < 4.0:
        raise RegimeError(
            f"grid under-resolves the kernel ({cells:.2f} cells per bandwidth); "
            f"need at least M={int(np.ceil(4.0 * box / width))}"
        )


def periodic_kernel_samples(
    family: KernelFamily,
    n: int,
    box: float,
    m: int,
    which: str = "phi_r",
    derivative: bool = False,
    normalize: bool = True,
) -> np.ndarray:
    """Kernel sampled on the periodic grid with minimum-image coordinates.

    The shape is (m,) * d, with a trailing component axis (d,) for gradients.
    With ``normalize`` the scalar kernels are rescaled to exact unit discrete
    mass so FFT mollification preserves constants to rounding.
    """
    d = family.dim
    x = np.moveaxis(np.indices((m,) * d), 0, -1) * (box / m)
    pts = np.where(x > box / 2, x - box, x)
    fns = {
        ("phi", False): phi_N,
        ("phi", True): grad_phi_N,
        ("phi_r", False): phi_r_N,
        ("phi_r", True): grad_phi_r_N,
    }
    vals = fns[(which, derivative)](family, n, pts)
    if normalize and not derivative:
        cell = (box / m) ** d
        vals = vals / (np.sum(vals) * cell)
    return vals


def mollify(
    values: np.ndarray, box: float, family: KernelFamily, n: int, which: str = "phi_r"
) -> np.ndarray:
    """Periodic FFT convolution of a gridded field with phi_N^r (or phi_N).

    Refused (``require_support``) when the kernel is wider than half the box.
    """
    require_support(family, n, box, which)
    grid = Grid(box=box, m=values.shape[0], dim=family.dim)
    kern = periodic_kernel_samples(family, n, box, grid.m, which=which)
    return grid.irfft(grid.rfft(values) * grid.rfft(kern)) * grid.cell_volume()


# --- technical hypothesis checks (report-only) ---


@dataclass(frozen=True)
class HypothesisReport:
    """Worst-case ratios of the decay/domination hypotheses on a test lattice.

    ``cotawildeu_status`` is 'pass', 'fail' or 'inapplicable'; failures are
    reported, never enforced (the simulator does not consume these bounds).
    """

    c1_margin: float
    cotauj_margin: float
    cotawildeu_status: str
    cotawildeu_worst: float
    moment_order: int


def _multi_indices(dim: int, order: int):
    for alpha in itertools.product(range(order + 1), repeat=dim):
        if sum(alpha) == order:
            yield alpha


def _u_function(family: KernelFamily, alpha: tuple, q: int, pts: np.ndarray):
    """(-1)^{1+|a|} x^a / a! * d_q phi_1^r(x)."""
    order = sum(alpha)
    fact = math.prod(math.factorial(a) for a in alpha)
    mono = np.prod(pts ** np.asarray(alpha, dtype=float), axis=-1)
    grad = family.base_density_grad(pts)[..., q]
    return (-1.0) ** (1 + order) * mono / fact * grad


def check_hypotheses(family: KernelFamily, r_max: float = 20.0) -> HypothesisReport:
    """Evaluate the base-density decay and moment-function bounds numerically.

    c1: (1 + |x|^{d+2}) phi_1^r(x) bounded for |x| >= 1 (in bandwidth units).
    cotauj: |U_{1;a}^q(x)| (1 + |x|^{d+1})^{1/2} bounded for |a| = L + 1.
    cotawildeu: |FT U_{1;a}^q| <= C |FT phi_1^r| for 1 <= |a| <= L, checked
    on a Fourier lattice; a Gaussian base fails this at high frequency, so
    the result is reported, not enforced.
    """
    d = family.dim
    ell = (d + 2) // 2
    h = family.bandwidth
    r = np.geomspace(1.0, r_max, 400) * h
    if d == 1:
        pts = np.concatenate([-r[::-1], r])[:, None]
    else:
        theta = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        pts = np.stack(
            [np.outer(r, np.cos(theta)).ravel(), np.outer(r, np.sin(theta)).ravel()],
            axis=-1,
        )
    xr = np.linalg.norm(pts, axis=-1) / h
    c1_margin = float(np.max((1.0 + xr ** (d + 2)) * family.base_density(pts)))

    cotauj = 0.0
    for q in range(d):
        for alpha in _multi_indices(d, ell + 1):
            u = _u_function(family, alpha, q, pts)
            cotauj = max(cotauj, float(np.max(np.abs(u) * np.sqrt(1.0 + xr ** (d + 1)))))

    # Fourier-lattice comparison on a 1-d slice (radial profiles suffice).
    m = 2048
    span = 12.0 * h
    xs = (np.arange(m) - m // 2) * (2.0 * span / m)
    if d == 1:
        grid = xs[:, None]
    else:
        grid = np.stack([xs, np.zeros_like(xs)], axis=-1)
    phi_hat = np.abs(np.fft.fft(np.fft.ifftshift(family.base_density(grid))))
    worst = 0.0
    applicable = ell >= 1
    for q in range(d):
        for order in range(1, ell + 1):
            for alpha in _multi_indices(d, order):
                u_hat = np.abs(
                    np.fft.fft(np.fft.ifftshift(_u_function(family, alpha, q, grid)))
                )
                mask = phi_hat > 1e-300
                worst = max(worst, float(np.max(u_hat[mask] / phi_hat[mask])))
    if not applicable:
        status = "inapplicable"
    else:
        status = "pass" if worst < 1e6 else "fail"
    return HypothesisReport(
        c1_margin=c1_margin,
        cotauj_margin=cotauj,
        cotawildeu_status=status,
        cotawildeu_worst=worst,
        moment_order=ell,
    )
