"""Littlewood-Paley dyadic decomposition and Besov / Triebel-Lizorkin norms
on the periodic grid, including the negative-order distances between
deposited empirical measures and smooth target fields, from the spectrum of
their difference.

The low-pass profile chi is a quintic smoothstep between radii r0/lambda and
r0*lambda; the annulus profile is the telescoping difference
phi(xi) = chi(xi/2) - chi(xi), so the blocks sum to one exactly by
construction on the resolved lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Grid, _read_only, as_points, position_order

__all__ = [
    "DyadicPartition",
    "build_partition",
    "require_lambda",
    "dyadic_blocks",
    "besov_norm",
    "triebel_norm",
    "negative_distance",
    "deposit_nearest",
]


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """Quintic smoothstep: 1 for u <= 0, 0 for u >= 1, C^2 transition."""
    u = np.clip(u, 0.0, 1.0)
    return 1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u * u)


@dataclass(frozen=True)
class DyadicPartition:
    """Tabulated multiplier profiles phi_j on the Fourier lattice of a grid.

    ``profiles`` has shape (J + 2,) + the shape of ``Grid.rfft``; index 0 is
    j = -1 (the low-pass chi).  The profiles sum to one at every resolved
    frequency.  ``energy`` is w * phi_j^2, with w the Parseval weights
    ``Grid.half_weights``.  Then ||Delta_j f||_{L^2}^2 is L^d m^{-2d} times the sum
    of energy[j] |f_k|^2 over the half spectrum of f (Parseval).  Both
    arrays are read-only, so they cannot drift apart.
    """

    grid: Grid
    lam: float
    r0: float
    profiles: np.ndarray
    energy: np.ndarray

    @property
    def levels(self) -> int:
        return self.profiles.shape[0]

    def j_range(self):
        return range(-1, self.levels - 1)


def require_lambda(lam: float) -> None:
    """Refuse a partition parameter outside (1, sqrt 2)."""
    if not 1.0 < lam < np.sqrt(2.0):
        raise ValueError(f"lambda must lie in (1, sqrt 2), got {lam}")


def build_partition(grid: Grid, lam: float = 1.35) -> DyadicPartition:
    """Dyadic partition of unity on the discrete frequency lattice.

    lambda must lie in (1, sqrt 2), which makes blocks two apart exactly
    disjoint.  r0 is the smallest nonzero lattice frequency, so the j = -1
    block carries exactly the mean mode.
    """
    require_lambda(lam)
    r0 = 2.0 * np.pi / grid.box
    radii = np.sqrt(sum(grid.wavenumbers(q) ** 2 for q in range(grid.dim)))
    r_lo, r_hi = r0 / lam, r0 * lam

    def chi(r):
        return _smoothstep((r - r_lo) / (r_hi - r_lo))

    r_max = float(np.max(radii))
    j_max = max(0, int(np.ceil(np.log2(r_max * lam / r0))))
    profiles = np.empty((j_max + 2,) + radii.shape)
    profiles[0] = chi(radii)
    for j in range(0, j_max + 1):
        scale = 0.5**j
        profiles[j + 1] = chi(radii * scale / 2.0) - chi(radii * scale)
    energy = _read_only(profiles**2 * grid.half_weights)
    return DyadicPartition(grid, lam, r0, profiles=_read_only(profiles), energy=energy)


def dyadic_blocks(values: np.ndarray, part: DyadicPartition) -> np.ndarray:
    """Blocks Delta_j f, j = -1 .. J, stacked: shape (J + 2,) + the grid shape."""
    return part.grid.irfft(part.profiles * part.grid.rfft(values))


def _lp_norm(values: np.ndarray, grid: Grid, p: float) -> float:
    vol = grid.box**grid.dim
    return float((np.mean(np.abs(values) ** p) * vol) ** (1.0 / p))


def _require_indices(s: float, p: float, q: float) -> None:
    """A ``ValueError`` naming the first of s, p and q outside its range."""
    if not np.isfinite(s):
        raise ValueError(f"s must be finite, got {s!r}")
    if not 1.0 < p < np.inf:
        raise ValueError(f"p must lie in (1, inf), got {p!r}")
    if not 0.0 < q <= np.inf:
        raise ValueError(f"q must lie in (0, inf], got {q!r}")


def besov_norm(
    values: np.ndarray, s: float, p: float, q: float, part: DyadicPartition
) -> float:
    """l^q over j of 2^{js} ||Delta_j f||_{L^p}."""
    _require_indices(s, p, q)
    blocks = dyadic_blocks(values, part)
    terms = np.array(
        [
            2.0 ** (j * s) * _lp_norm(blocks[i], part.grid, p)
            for i, j in enumerate(part.j_range())
        ]
    )
    return _lq(terms, q)


def _lq(terms: np.ndarray, q: float) -> float:
    if np.isinf(q):
        return float(np.max(terms))
    return float(np.sum(terms**q) ** (1.0 / q))


def triebel_norm(
    values: np.ndarray, s: float, p: float, q: float, part: DyadicPartition
) -> float:
    """L^p of the pointwise l^q over j of 2^{js} Delta_j f."""
    _require_indices(s, p, q)
    blocks = dyadic_blocks(values, part)
    weights = np.array([2.0 ** (j * s) for j in part.j_range()])
    shaped = weights.reshape((-1,) + (1,) * part.grid.dim)
    if np.isinf(q):
        inner = np.max(np.abs(shaped * blocks), axis=0)
    else:
        inner = np.sum(np.abs(shaped * blocks) ** q, axis=0) ** (1.0 / q)
    return _lp_norm(inner, part.grid, p)


def deposit_nearest(
    positions: np.ndarray, grid: Grid, weights: np.ndarray | None = None
) -> np.ndarray:
    """Nearest-node deposition of point masses as a density (unit total mass
    for unit total weight); exact mass conservation by construction.  Summed
    in position order like ``particles.deposit_cic``, the weight breaking
    ties (coincident particles can carry different velocities), so bitwise
    independent of particle labelling."""
    pts = as_points(positions, grid.dim, "positions")
    n = pts.shape[0]
    weights = np.ones(n) if weights is None else weights
    order = position_order(pts, weights)
    idx = np.round(pts[order] / grid.h).astype(int) % grid.m
    flat = np.ravel_multi_index(tuple(idx.T), grid.shape)
    dep = np.bincount(flat, weights=weights[order], minlength=grid.m**grid.dim)
    return dep.reshape(grid.shape) / (n * grid.cell_volume())


def negative_distance(
    spectrum: np.ndarray, eta: float, q_hat: float, part: DyadicPartition
) -> float:
    """Norm of (measure - target) at smoothness -eta, p = 2, index q_hat, from
    ``spectrum``, the half spectrum of measure - target laid out like
    ``part.grid.rfft``.

    Equal to ``besov_norm(measure - target, -eta, 2, q_hat, part)``: each
    block's L^2 norm is a weighted sum over the spectrum (Parseval), with the
    weights ``part.energy``.  The sums run in ``einsum``, not BLAS, so the
    result does not depend on the BLAS thread count.  A spectrum of another
    shape is refused with a ``ValueError`` naming the expected one.  Warns
    (without refusing) when eta <= d/2 + 1: point masses are then outside the
    space and the distance has no continuum meaning.
    """
    g = part.grid
    if np.shape(spectrum) != part.energy.shape[1:]:
        raise ValueError(f"spectrum must be an array of shape {part.energy.shape[1:]} (the "
                         f"Grid.rfft layout of part.grid), got shape {np.shape(spectrum)}")
    d = g.dim
    if eta <= d / 2 + 1:
        import warnings

        warnings.warn(
            f"eta={eta} at or below d/2 + 1 = {d / 2 + 1}: Dirac masses are "
            "not in the space at this smoothness",
            stacklevel=2,
        )
    power = (spectrum.real**2 + spectrum.imag**2).ravel()
    block_sq = np.einsum("jk,k->j", part.energy.reshape(part.levels, -1), power)
    j = np.arange(-1, part.levels - 1)
    terms = 2.0 ** (-eta * j) * np.sqrt(block_sq * (g.box**d / g.m ** (2 * d)))
    return _lq(terms, q_hat)

