"""Moderate-interaction mollifier family, its regime refusals and spectral mollification.

The base density phi_1^r is a Gaussian probability density whose
self-convolution, the Gaussian of twice the variance, gives the interaction
potential base phi_1; both are rescaled with the particle number as
N^beta * base(N^{beta/d} x), so the kernel narrows at rate N^{beta/d} while
keeping unit mass.  Every formula (convolution, gradient, Fourier transform)
is closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Grid, _read_only, _single_flight, as_points

__all__ = [
    "KernelFamily",
    "kernel_radius",
    "RegimeError",
    "require_support",
    "require_resolved",
    "mollify",
    "periodic_kernel_samples",
]

# Variance of each kernel in units of bandwidth^2: phi_1 = phi_1^r * phi_1^r
# is the Gaussian of twice the variance of phi_1^r.
_VARIANCE = {"phi_r": 1.0, "phi": 2.0}


def _variance(which: str) -> float:
    if which not in _VARIANCE:
        raise ValueError(f"unknown kernel {which!r}: expected 'phi' or 'phi_r'")
    return _VARIANCE[which]


@dataclass(frozen=True)
class KernelFamily:
    """Gaussian base density, moderate-interaction exponent beta and dimension.

    ``bandwidth`` is the standard deviation of the base density phi_1^r;
    ``_VARIANCE`` gives each kernel's variance in units of bandwidth^2.
    """

    beta: float
    dim: int = 1
    bandwidth: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"hypothesis violated: beta must lie in (0, 1), got {self.beta}")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    def kernel(
        self, n: int, x: np.ndarray, which: str = "phi", derivative: bool = False
    ) -> np.ndarray:
        """phi_N (``which="phi"``) or phi_N^r at N particles, or its gradient:
        N^beta s^[derivative] G(s x) with s = N^{beta/d}, G the Gaussian of
        variance c * bandwidth^2 (c from ``_VARIANCE``) or its gradient.

        ``x`` is a (..., dim) displacement array; the value drops its last
        axis and the gradient keeps it.  At N = 1 this is the base itself.
        """
        c = _variance(which)
        s = self.scale(n)
        x = as_points(np.asarray(x) * s, self.dim, "displacements", batch=True)
        h = self.bandwidth
        r2 = np.sum(x * x, axis=-1)
        val = (2.0 * c * np.pi * h * h) ** (-self.dim / 2) * np.exp(-r2 / (2.0 * c * h * h))
        if derivative:
            val = -x / (c * h * h) * val[..., None]
        return float(n) ** self.beta * (s if derivative else 1.0) * val

    def scale(self, n: int) -> float:
        """The concentration factor N^{beta/d}."""
        return float(n) ** (self.beta / self.dim)

    def width(self, n: int, which: str = "phi") -> float:
        """Standard deviation of phi_N^r (``which="phi_r"``) or of phi_N at N
        particles: the bandwidth shrinks by N^{beta/d}."""
        return self.bandwidth / self.scale(n) * np.sqrt(_variance(which))


def kernel_radius(family: KernelFamily, n: int, which: str = "phi") -> float:
    """Five standard deviations: a ball holding more than 99.999% of the
    kernel mass in d <= 2."""
    return 5.0 * family.width(n, which)


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
) -> np.ndarray:
    """Kernel sampled on the periodic grid with minimum-image coordinates.

    The shape is (m,) * d, with a trailing component axis (d,) for gradients.
    The scalar kernels are rescaled to exact unit discrete mass so FFT
    mollification preserves constants to rounding.
    """
    g = Grid(box=box, m=m, dim=family.dim)
    # Each axis wrapped before the stack: wrapping the stacked nodes, the same
    # bits, was seen to tip sweep threads into glibc heap trimming.
    x = np.stack([_min_image(g.coordinate(q), box) for q in range(g.dim)], axis=-1)
    vals = family.kernel(n, x, which, derivative)
    if not derivative:
        vals = vals / (np.sum(vals) * g.cell_volume())
    return vals


def _min_image(diff: np.ndarray, box: float) -> np.ndarray:
    """Displacements ``diff`` wrapped to their nearest periodic image in the box."""
    return diff - box * np.round(diff / box)


def mollify(
    fk: np.ndarray, grid: Grid, family: KernelFamily, n: int, which: str = "phi_r"
) -> np.ndarray:
    """Half spectrum of the periodic convolution of a mesh field with phi_N^r
    (or phi_N), from ``fk``, the field's half spectrum laid out like
    ``grid.rfft``: ``fk`` times the kernel's spectrum and the cell volume.

    Refused (``require_support``) when the kernel is wider than half the box.
    """
    require_support(family, n, grid.box, which)
    return fk * _kernel_spectrum(family, n, grid, which) * grid.cell_volume()


@_single_flight(8)
def _kernel_spectrum(family: KernelFamily, n: int, grid: Grid, which: str) -> np.ndarray:
    """``Grid.rfft`` of the kernel samples, read-only, for the few (N, mesh)
    pairs of a sweep: a run mollifies at every checkpoint with the same ones."""
    kern = periodic_kernel_samples(family, n, grid.box, grid.m, which=which)
    return _read_only(grid.rfft(kern))

