"""Second-order moderately interacting particle system on the periodic box.

Positions and velocities evolve by dX = V dt,
dV = -grad(S^N * phi_N)(X) dt + sigma(X) dY with the empirical measure
S^N of the ensemble itself.  The deterministic part is advanced by velocity
Verlet; the noise enters as a post-step velocity kick tied to the master
path's increments.  Forces come from an exact O(N^2) pairwise backend or a
deposit/FFT-convolve/interpolate grid backend.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .fields import (
    FieldInterpolant,
    Grid,
    SigmaField,
    _read_only,
    _single_flight,
    as_kick,
    as_points,
    as_time_step,
    position_order,
    upsample,
)
from .kernels import (
    KernelFamily,
    _min_image,
    mollify,
    periodic_kernel_samples,
    require_resolved,
    require_support,
)

__all__ = [
    "ParticleEnsemble",
    "init_from_fields",
    "quantile_sides",
    "interaction_force",
    "step",
    "empirical_density",
    "sorted_sum",
]

_CDF_NODES = 1 << 14  # least mesh of each CDF of init_from_fields


def sorted_sum(values: np.ndarray) -> float:
    """Reduction in canonical (sorted) order: bitwise label-invariant."""
    return float(np.sum(np.sort(np.asarray(values, dtype=float).ravel())))


@dataclass(frozen=True)
class ParticleEnsemble:
    """N positions in [0, L)^d, wrapped here and only here, and velocities in
    R^d at one time; both (N, d)."""

    box: float
    positions: np.ndarray
    velocities: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        pos = as_points(self.positions, name="positions")
        vel = as_points(self.velocities, pos.shape[1], name="velocities")
        if pos.shape != vel.shape:
            raise ValueError("positions and velocities shape mismatch")
        if pos.shape[0] < 1:
            raise ValueError("need at least one particle")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))):
            raise FloatingPointError("non-finite particle state")
        if np.any(pos < 0) or np.any(pos >= self.box):
            pos = np.mod(pos, self.box)
            # A tiny negative coordinate rounds up to the box itself.
            pos[pos == self.box] = 0.0
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)

    def _advanced(self, velocities: np.ndarray, time: float) -> "ParticleEnsemble":
        """These positions with new (N, d) velocities at ``time``, without
        ``__post_init__``: only the velocities are checked, since the
        positions already were."""
        if not np.all(np.isfinite(velocities)):
            raise FloatingPointError("non-finite particle state")
        out = object.__new__(ParticleEnsemble)
        out.__dict__.update(vars(self), velocities=velocities, time=time)
        return out

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


def _dense_cdf_1d(rho: np.ndarray, grid: Grid):
    dense = upsample(rho, grid, max(_CDF_NODES, grid.m))
    fine = Grid(box=grid.box, m=dense.shape[0])
    x = np.arange(fine.m + 1) * fine.h
    # Spectral antiderivative of the mean-free part: exact for band-limited
    # densities, unlike a rectangle-rule cumsum whose O(h) bias would leak
    # into every quantile position.
    mean = float(np.mean(dense))
    fk = fine.rfft(dense - mean)
    k = fine.wavenumbers()
    anti = np.zeros_like(fk)
    anti[1:] = fk[1:] / (1j * k[1:])
    osc = fine.irfft(anti)
    cdf = mean * x + np.concatenate([osc, osc[:1]]) - osc[0]
    cdf /= cdf[-1]
    return x, cdf


def quantile_sides(n: int, d: int) -> list[int]:
    """Sides of the near-cubic tensor grid of n strata in [0, 1)^d that the
    ``quantile`` initialization places its points on, one per axis."""
    sides, rest = [], n
    for q in range(d - 1):
        side = int(round(rest ** (1.0 / (d - q))))
        while rest % side:
            side -= 1
        sides.append(side)
        rest //= side
    return sides + [rest]


def init_from_fields(
    rho0: np.ndarray,
    v0: np.ndarray,
    n: int,
    grid: Grid,
    strategy: str = "quantile",
    seed: int | list | None = None,
) -> ParticleEnsemble:
    """Particles sampled from rho0 with velocities v0(X) by interpolation.

    Each point inverts, axis by axis, the CDF of rho0 summed over the later
    axes, on the row of its cell in the earlier axes (the conditional
    inverse CDF of Rosenblatt, *Ann. Math. Stat.* 23, 1952), each CDF that of
    ``_dense_cdf_1d``.  ``quantile`` inverts the midpoints of the strata of
    ``quantile_sides``, which makes the initial energy floor decay with the
    mollification error rather than the Monte-Carlo rate; ``random`` inverts
    i.i.d. uniforms (requires a seed).
    """
    rho0 = np.asarray(rho0, dtype=float)
    if np.min(rho0) <= 0:
        raise ValueError("rho0 must be strictly positive")
    d = grid.dim
    if strategy == "random":
        u = np.random.default_rng(seed).random((n, d))
    elif strategy == "quantile":
        mids = [(np.arange(side) + 0.5) / side for side in quantile_sides(n, d)]
        u = np.stack(np.meshgrid(*mids, indexing="ij"), axis=-1).reshape(n, d)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    line = Grid(box=grid.box, m=grid.m)
    pos = np.empty((n, d))
    cell = np.zeros(n, dtype=int)  # flat index of the point's cell in the axes before q
    for q in range(d):
        rows = np.sum(rho0, axis=tuple(range(q + 1, d))).reshape(-1, grid.m)
        for c in np.flatnonzero(np.bincount(cell)):  # np.unique imports numpy.ma: +1.4 MB
            sel = cell == c
            x_cdf, cdf = _dense_cdf_1d(rows[c], line)
            pos[sel, q] = np.interp(u[sel, q], cdf, x_cdf)
        cell = cell * grid.m + np.minimum((pos[:, q] / grid.h).astype(int), grid.m - 1)
    ens = ParticleEnsemble(box=grid.box, positions=pos, velocities=np.zeros_like(pos))

    vel = FieldInterpolant(np.asarray(v0, dtype=float), grid)(ens.positions)
    return replace(ens, velocities=vel)


def _force_direct(ens: ParticleEnsemble, family: KernelFamily) -> np.ndarray:
    """Each target's sum over all sources, the sources in ``position_order``:
    bitwise equivariant under relabelling, coincident particles included."""
    n, pos = ens.count, ens.positions
    sources = pos[position_order(pos)]
    out = np.empty_like(pos)
    block = max(1, (1 << 22) // n)
    for start in range(0, n, block):
        diff = _min_image(pos[start:start + block, None, :] - sources[None, :, :], ens.box)
        out[start:start + block] = -np.mean(family.kernel(n, diff, derivative=True), axis=1)
    return out


def _cic_corners(positions: np.ndarray, grid: Grid):
    """Flat node index and linear weight of each particle at each of the
    2^d cloud-in-cell corners, in a fixed corner order."""
    f = as_points(positions, grid.dim, "positions") / grid.h
    i0 = np.floor(f).astype(int)
    frac = f - i0
    for corner in itertools.product((0, 1), repeat=grid.dim):
        nodes = [(i0[:, q] + s) % grid.m for q, s in enumerate(corner)]
        weights = [frac[:, q] if s else 1.0 - frac[:, q] for q, s in enumerate(corner)]
        # Row-major flat index; the node index itself in 1-d.
        flat = functools.reduce(lambda a, b: a * grid.m + b, nodes)
        yield flat, functools.reduce(np.multiply, weights)


def deposit_cic(positions: np.ndarray, grid: Grid) -> np.ndarray:
    """Cloud-in-cell deposition as a density with exact mass conservation.

    The entries are summed in position order: the particles sorted by their
    coordinates, then corner by corner.  Equal positions give equal entries,
    so the result is bitwise independent of particle labelling.  A node that
    receives at most two entries gets the bits of any other order, since
    0 + a + b == 0 + b + a.  Its entries come from particles in the 2^d
    cells around it, and the adaptive meshes have at least 16 cells per
    mean particle spacing, so a third entry is rare.
    """
    pts = as_points(positions, grid.dim, "positions")
    nodes, weights = zip(*_cic_corners(pts[position_order(pts)], grid))
    dep = np.bincount(
        np.concatenate(nodes), np.concatenate(weights), minlength=grid.m**grid.dim
    )
    return dep.reshape(grid.shape) / (len(pts) * grid.cell_volume())


@_single_flight(16)
def _cic_transfer(grid: Grid) -> np.ndarray:
    """Fourier transfer function of the CIC assignment window (one factor),
    laid out like ``rfftn`` of a mesh field; read-only, built once per mesh
    for the force and the checkpoint density meshes of a sweep.

    Dividing deposited/gathered spectra by this removes the leading
    smoothing error of the linear window; safe here because all kernels are
    well resolved so the Nyquist region carries no signal.
    """
    sincs = [np.sinc(grid.frequencies(q)) for q in range(grid.dim)]
    return _read_only(functools.reduce(np.multiply, sincs) ** 2)


def _gather_cic(field: np.ndarray, grid: Grid, positions: np.ndarray) -> np.ndarray:
    flat = field.ravel()
    return functools.reduce(
        np.add, (flat[node] * wgt for node, wgt in _cic_corners(positions, grid))
    )


@_single_flight(16)
def _force_operators(family: KernelFamily, n: int, grid: Grid) -> tuple:
    """Particle-mesh force operators for N particles on one mesh, read-only:
    the spectrum of each component of grad phi_N (the precomputed influence
    function of Hockney & Eastwood, *Computer Simulation Using Particles*,
    1988) and the reciprocal of the squared CIC window, one factor for the
    deposit and one for the gather.  A build refuses a kernel wider than
    half the box or under-resolved by the mesh (``RegimeError``); refusals
    are not cached, so they repeat on every call.
    """
    require_support(family, n, grid.box)
    require_resolved(family, n, grid.box, grid.m, "phi")
    gk = periodic_kernel_samples(family, n, grid.box, grid.m, "phi", derivative=True)
    spectra = tuple(_read_only(grid.rfft(gk[..., q])) for q in range(grid.dim))
    # numpy divides a complex array by a real one by multiplying with the
    # reciprocal, so the product in the force has the quotient's bits.
    return spectra, _read_only(1.0 / _cic_transfer(grid) ** 2)


def interaction_force(
    ens: ParticleEnsemble,
    family: KernelFamily,
    backend: str = "direct",
    grid_m: int | None = None,
) -> np.ndarray:
    """Accelerations -grad(S^N * phi_N)(X_k).

    ``direct``: exact O(N^2) pairwise sum with minimum-image displacements
    (the self term contributes exactly zero).  ``grid``: deposit S^N,
    FFT-convolve with grad phi_N, gather back; O(M log M), with the
    operators of ``_force_operators``.
    """
    if backend == "direct":
        require_support(family, ens.count, ens.box)
        return _force_direct(ens, family)
    if backend != "grid":
        raise ValueError(f"unknown force backend {backend!r}")
    if grid_m is None:
        raise ValueError("grid backend needs grid_m")
    grid = Grid(box=ens.box, m=grid_m, dim=ens.dim)
    spectra, inv_win2 = _force_operators(family, ens.count, grid)
    dens = deposit_cic(ens.positions, grid)
    cell = grid.cell_volume()
    out = np.empty((ens.count, ens.dim))
    dk = grid.rfft(dens)
    for q, gq in enumerate(spectra):
        conv = grid.irfft(dk * gq * inv_win2) * cell
        out[:, q] = -_gather_cic(conv, grid, ens.positions)
    return out


def step(
    ens: ParticleEnsemble,
    dt: float,
    family: KernelFamily,
    dy: np.ndarray | None = None,
    sigma: SigmaField | None = None,
    backend: str = "direct",
    grid_m: int | None = None,
    accel: np.ndarray | None = None,
) -> tuple[ParticleEnsemble, np.ndarray]:
    """One velocity-Verlet step plus the Young-Euler noise kick.

    Returns (new ensemble, accelerations at the new positions) so callers
    can avoid recomputing forces.  ``dy``, the master path increment over
    [t, t + dt], and ``sigma`` are checked by ``as_kick``.
    """
    dt = as_time_step(dt)
    dy = as_kick(dy, sigma, ens.dim)
    if accel is None:
        accel = interaction_force(ens, family, backend, grid_m)
    v_half = ens.velocities + 0.5 * dt * accel
    moved = replace(ens, positions=ens.positions + dt * v_half)
    accel_new = interaction_force(moved, family, backend, grid_m)
    v_new = v_half + 0.5 * dt * accel_new
    if dy is not None:
        v_new = v_new + sigma.at(moved.positions, ens.box)[:, None] * dy
    return moved._advanced(v_new, ens.time + dt), accel_new


def empirical_density(
    ens: ParticleEnsemble, family: KernelFamily, grid: Grid
) -> np.ndarray:
    """Half spectrum of S^N * phi_N^r on the grid, laid out like ``grid.rfft``:
    the CIC deposit's spectrum, its window divided out, mollified."""
    require_resolved(family, ens.count, grid.box, grid.m, "phi_r")
    dk = grid.rfft(deposit_cic(ens.positions, grid)) / _cic_transfer(grid)
    return mollify(dk, grid, family, ens.count, which="phi_r")
