"""Littlewood-Paley dyadic decomposition and Besov / Triebel-Lizorkin norms
on the periodic grid, including the negative-order distances between
deposited empirical measures and smooth target fields.

The low-pass profile chi is a quintic smoothstep between radii r0/lambda and
r0*lambda; the annulus profile is the telescoping difference
phi(xi) = chi(xi/2) - chi(xi), so the blocks sum to one exactly by
construction on the resolved lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Grid, as_points

__all__ = [
    "DyadicPartition",
    "DyadicDecomposition",
    "build_partition",
    "dyadic_blocks",
    "besov_norm",
    "triebel_norm",
    "negative_distance",
    "deposit_nearest",
    "sobolev_embedding_check",
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
    frequency.
    """

    grid: Grid
    lam: float
    r0: float
    profiles: np.ndarray

    @property
    def levels(self) -> int:
        return self.profiles.shape[0]

    def j_range(self):
        return range(-1, self.levels - 1)


def build_partition(grid: Grid, lam: float = 1.35) -> DyadicPartition:
    """Dyadic partition of unity on the discrete frequency lattice.

    lambda must lie in (1, sqrt 2), which makes blocks two apart exactly
    disjoint.  r0 is the smallest nonzero lattice frequency, so the j = -1
    block carries exactly the mean mode.
    """
    if not 1.0 < lam < np.sqrt(2.0):
        raise ValueError(f"lambda must lie in (1, sqrt 2), got {lam}")
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
    return DyadicPartition(grid=grid, lam=lam, r0=r0, profiles=profiles)


@dataclass(frozen=True)
class DyadicDecomposition:
    """Blocks Delta_j f for j = -1 .. J as gridded fields (leading axis)."""

    partition: DyadicPartition
    blocks: np.ndarray

    def low_frequency_cutoff(self, j: int) -> np.ndarray:
        """S_j = sum of blocks with index below j."""
        return np.sum(self.blocks[: j + 1], axis=0)

    def reconstruct(self) -> np.ndarray:
        return np.sum(self.blocks, axis=0)


def dyadic_blocks(values: np.ndarray, part: DyadicPartition) -> DyadicDecomposition:
    blocks = part.grid.irfft(part.profiles * part.grid.rfft(values))
    return DyadicDecomposition(partition=part, blocks=blocks)


def _lp_norm(values: np.ndarray, grid: Grid, p: float) -> float:
    vol = grid.box**grid.dim
    return float((np.mean(np.abs(values) ** p) * vol) ** (1.0 / p))


def besov_norm(
    values: np.ndarray, s: float, p: float, q: float, part: DyadicPartition
) -> float:
    """l^q over j of 2^{js} ||Delta_j f||_{L^p}."""
    if not 1.0 < p < np.inf:
        raise ValueError("p must lie in (1, inf)")
    dec = dyadic_blocks(values, part)
    terms = np.array(
        [
            2.0 ** (j * s) * _lp_norm(dec.blocks[i], part.grid, p)
            for i, j in enumerate(part.j_range())
        ]
    )
    if np.isinf(q):
        return float(np.max(terms))
    return float(np.sum(terms**q) ** (1.0 / q))


def triebel_norm(
    values: np.ndarray, s: float, p: float, q: float, part: DyadicPartition
) -> float:
    """L^p of the pointwise l^q over j of 2^{js} Delta_j f."""
    if not 1.0 < p < np.inf:
        raise ValueError("p must lie in (1, inf)")
    dec = dyadic_blocks(values, part)
    weights = np.array([2.0 ** (j * s) for j in part.j_range()])
    shaped = weights.reshape((-1,) + (1,) * part.grid.dim)
    if np.isinf(q):
        inner = np.max(np.abs(shaped * dec.blocks), axis=0)
    else:
        inner = np.sum(np.abs(shaped * dec.blocks) ** q, axis=0) ** (1.0 / q)
    return _lp_norm(inner, part.grid, p)


def deposit_nearest(
    positions: np.ndarray, grid: Grid, weights: np.ndarray | None = None
) -> np.ndarray:
    """Nearest-node deposition of point masses as a density (unit total mass
    for unit total weight); exact mass conservation by construction, and
    bitwise independent of particle labelling."""
    pts = as_points(positions, grid.dim, "positions")
    n = pts.shape[0]
    if weights is None:
        weights = np.ones(n)
    idx = np.round(pts / grid.h).astype(int) % grid.m
    flat = np.ravel_multi_index(tuple(idx.T), grid.shape)
    return grid.accumulate(flat, weights) / (n * grid.cell_volume())


def negative_distance(
    measure_field: np.ndarray,
    target: np.ndarray,
    eta: float,
    q_hat: float,
    part: DyadicPartition,
) -> float:
    """Norm of (measure - target) at smoothness -eta, p = 2, index q_hat.

    Warns (without refusing) when eta <= d/2 + 1: point masses are then
    outside the space and the distance has no continuum meaning.
    """
    d = part.grid.dim
    if eta <= d / 2 + 1:
        import warnings

        warnings.warn(
            f"eta={eta} at or below d/2 + 1 = {d / 2 + 1}: Dirac masses are "
            "not in the space at this smoothness",
            stacklevel=2,
        )
    return besov_norm(measure_field - target, -eta, 2.0, q_hat, part)


def sobolev_embedding_check(
    values: np.ndarray, s: float, p: float, part: DyadicPartition, q: float = 2.0
) -> float:
    """Ratio of the sup-norm plus a grid Hölder quotient (at exponent
    s - d/p mod 1) to the Besov norm; bounded ratios across a field corpus
    are the numerical shadow of the embedding into C_b^{s - d/p}."""
    g = part.grid
    excess = s - g.dim / p
    if excess <= 0:
        raise ValueError(f"embedding requires s > d/p, got s={s}, d/p={g.dim / p}")
    exponent = excess - np.floor(excess)
    sup = float(np.max(np.abs(values)))
    quot = 0.0
    if exponent > 0:
        for axis in range(g.dim):
            diff = np.abs(np.roll(values, -1, axis=axis) - values)
            quot = max(quot, float(np.max(diff)) / g.h**exponent)
    denom = besov_norm(values, s, p, q, part)
    if denom == 0.0:
        return 0.0
    return (sup + quot) / denom
