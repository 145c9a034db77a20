"""Second-order moderately interacting particle system on the periodic box.

Positions and velocities evolve by dX = V dt,
dV = -grad(S^N * phi_N)(X) dt + sigma(t, X) dY with the empirical measure
S^N of the ensemble itself.  The deterministic part is advanced by velocity
Verlet; the noise enters as a post-step velocity kick tied to the master
path's increments.  Forces come from an exact O(N^2) pairwise backend or a
deposit/FFT-convolve/interpolate grid backend.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .fields import FieldInterpolant, Grid, SigmaField, as_points, upsample
from .kernels import (
    KernelFamily,
    grad_phi_N,
    mollify,
    periodic_kernel_samples,
    require_resolved,
    require_support,
)

__all__ = [
    "ParticleEnsemble",
    "ForceMesh",
    "init_from_fields",
    "interaction_force",
    "step",
    "empirical_density",
    "empirical_momentum",
    "sorted_sum",
]


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

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


def _dense_cdf_1d(rho: np.ndarray, grid: Grid, m_fine: int = 1 << 14):
    dense = upsample(rho, grid, m_fine) if m_fine > grid.m else rho.copy()
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


def init_from_fields(
    rho0: np.ndarray,
    v0: np.ndarray,
    n: int,
    grid: Grid,
    strategy: str = "quantile",
    seed: int | list | None = None,
) -> ParticleEnsemble:
    """Particles sampled from rho0 with velocities v0(X) by interpolation.

    d=1 ``quantile``: deterministic midpoint-quantile placement, which makes
    the initial energy floor decay with the mollification error rather than
    the Monte-Carlo rate.  d=2 ``quantile``: stratified inverse-CDF on a
    tensor grid.  ``random`` draws i.i.d. samples (requires a seed).
    """
    rho0 = np.asarray(rho0, dtype=float)
    if np.min(rho0) <= 0:
        raise ValueError("rho0 must be strictly positive")
    d = grid.dim
    if strategy == "random":
        u = np.random.default_rng(seed).random((n, d))
    elif strategy == "quantile":
        # Midpoints of a near-cubic tensor grid of n strata in [0, 1)^d.
        sides, rest = [], n
        for q in range(d - 1):
            side = int(round(rest ** (1.0 / (d - q))))
            while rest % side:
                side -= 1
            sides.append(side)
            rest //= side
        mids = [(np.arange(side) + 0.5) / side for side in sides + [rest]]
        u = np.stack(np.meshgrid(*mids, indexing="ij"), axis=-1).reshape(n, d)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    if d == 1:
        x_cdf, cdf = _dense_cdf_1d(rho0, grid)
        pos = np.interp(u[:, 0], cdf, x_cdf)[:, None]
    else:
        # Marginal in x, then conditional in y per sampled x-column.
        edges = np.arange(grid.m + 1) * grid.h
        marg_x = np.sum(rho0, axis=1) * grid.h
        cdf_x = np.concatenate([[0.0], np.cumsum(marg_x) * grid.h])
        cdf_x /= cdf_x[-1]
        px = np.interp(u[:, 0], cdf_x, edges)
        cols = np.minimum((px / grid.h).astype(int), grid.m - 1)
        pos = np.empty((n, 2))
        pos[:, 0] = px
        for c in np.unique(cols):
            sel = cols == c
            cdf_y = np.concatenate([[0.0], np.cumsum(rho0[c]) * grid.h])
            cdf_y /= cdf_y[-1]
            pos[sel, 1] = np.interp(u[sel, 1], cdf_y, edges)
    ens = ParticleEnsemble(box=grid.box, positions=pos, velocities=np.zeros_like(pos))

    v0 = np.asarray(v0, dtype=float)
    vel = np.empty((n, d))
    for q in range(d):
        vel[:, q] = FieldInterpolant(v0[q], grid)(ens.positions)
    return replace(ens, velocities=vel)


def _min_image(diff: np.ndarray, box: float) -> np.ndarray:
    return diff - box * np.round(diff / box)


def _force_direct(ens: ParticleEnsemble, family: KernelFamily, n_scale: int) -> np.ndarray:
    n, d = ens.count, ens.dim
    pos = ens.positions
    out = np.zeros((n, d))
    block = max(1, (1 << 22) // max(n, 1))
    for start in range(0, n, block):
        stop = min(start + block, n)
        diff = _min_image(pos[start:stop, None, :] - pos[None, :, :], ens.box)
        out[start:stop] = -np.mean(grad_phi_N(family, n_scale, diff), axis=1)
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


def deposit_cic(
    positions: np.ndarray, grid: Grid, weights: np.ndarray | None = None
) -> np.ndarray:
    """Cloud-in-cell deposition as a density with exact mass conservation.

    Accumulation runs in a canonical sorted order so the result is bitwise
    independent of particle labelling.
    """
    corners = list(_cic_corners(positions, grid))  # refuses a layout other than (n, d)
    n = len(positions)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    idx = np.concatenate([node for node, _ in corners])
    val = np.concatenate([w * wgt for _, wgt in corners])
    return grid.accumulate(idx, val) / (n * grid.cell_volume())


def _cic_transfer(grid: Grid) -> np.ndarray:
    """Fourier transfer function of the CIC assignment window (one factor),
    laid out like ``rfftn`` of a mesh field.

    Dividing deposited/gathered spectra by this removes the leading
    smoothing error of the linear window; safe here because all kernels are
    well resolved so the Nyquist region carries no signal.
    """
    sincs = [np.sinc(grid.frequencies(q)) for q in range(grid.dim)]
    return functools.reduce(np.multiply, sincs) ** 2


def _gather_cic(field: np.ndarray, grid: Grid, positions: np.ndarray) -> np.ndarray:
    flat = field.ravel()
    return functools.reduce(
        np.add, (flat[node] * wgt for node, wgt in _cic_corners(positions, grid))
    )


@dataclass(frozen=True)
class ForceMesh:
    """Particle-mesh force operators for N particles on one mesh.

    Holds what the grid force reuses at every step while N and the mesh stay
    fixed: the squared CIC window (one factor for the deposit, one for the
    gather) and the spectrum of each component of grad phi_N, i.e. the
    precomputed influence function of Hockney & Eastwood, *Computer
    Simulation Using Particles* (1988).  Construction refuses a kernel wider
    than half the box or under-resolved by the mesh (``RegimeError``).
    """

    family: KernelFamily
    n: int
    grid: Grid
    win2: np.ndarray = field(init=False, repr=False, compare=False)
    spectra: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g = self.grid
        require_support(self.family, self.n, g.box)
        require_resolved(self.family, self.n, g.box, g.m, "phi")
        gk = periodic_kernel_samples(self.family, self.n, g.box, g.m, "phi", derivative=True)
        spectra = tuple(g.rfft(gk[..., q]) for q in range(g.dim))
        win2 = _cic_transfer(g) ** 2
        for a in (win2,) + spectra:
            a.flags.writeable = False
        object.__setattr__(self, "win2", win2)
        object.__setattr__(self, "spectra", spectra)


def interaction_force(
    ens: ParticleEnsemble,
    family: KernelFamily,
    backend: str = "direct",
    grid_m: int | None = None,
    mesh: ForceMesh | None = None,
) -> np.ndarray:
    """Accelerations -grad(S^N * phi_N)(X_k).

    ``direct``: exact O(N^2) pairwise sum with minimum-image displacements
    (the self term contributes exactly zero).  ``grid``: deposit S^N,
    FFT-convolve with grad phi_N, gather back; O(M log M).  ``mesh`` is the
    grid backend's plan for this family, N and ``grid_m``; without one it is
    built for this call.
    """
    if backend == "direct":
        require_support(family, ens.count, ens.box)
        return _force_direct(ens, family, ens.count)
    if backend != "grid":
        raise ValueError(f"unknown force backend {backend!r}")
    if grid_m is None:
        raise ValueError("grid backend needs grid_m")
    grid = Grid(box=ens.box, m=grid_m, dim=ens.dim)
    if mesh is None:
        mesh = ForceMesh(family, ens.count, grid)
    elif (mesh.family, mesh.n, mesh.grid) != (family, ens.count, grid):
        raise ValueError(
            f"force mesh built for N={mesh.n} on {mesh.grid}, "
            f"called with N={ens.count} on {grid}"
        )
    dens = deposit_cic(ens.positions, grid)
    cell = grid.cell_volume()
    out = np.empty((ens.count, ens.dim))
    dk = grid.rfft(dens)
    for q, gq in enumerate(mesh.spectra):
        conv = grid.irfft(dk * gq / mesh.win2) * cell
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
    mesh: ForceMesh | None = None,
) -> tuple[ParticleEnsemble, np.ndarray]:
    """One velocity-Verlet step plus the Young-Euler noise kick.

    Returns (new ensemble, accelerations at the new positions) so callers
    can avoid recomputing forces.  ``dy`` must be the master path increment
    over [t, t + dt].  ``mesh`` is passed on to ``interaction_force``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if accel is None:
        accel = interaction_force(ens, family, backend, grid_m, mesh=mesh)
    v_half = ens.velocities + 0.5 * dt * accel
    moved = replace(ens, positions=ens.positions + dt * v_half)
    accel_new = interaction_force(moved, family, backend, grid_m, mesh=mesh)
    v_new = v_half + 0.5 * dt * accel_new
    if dy is not None and sigma is not None:
        kick = sigma.at(ens.time, moved.positions, ens.box)
        v_new = v_new + kick * np.atleast_1d(np.asarray(dy, dtype=float))[None, :]
    return replace(moved, velocities=v_new, time=ens.time + dt), accel_new


def _deconvolved_deposit(
    positions: np.ndarray, grid: Grid, weights: np.ndarray | None = None
) -> np.ndarray:
    dep = deposit_cic(positions, grid, weights=weights)
    return grid.irfft(grid.rfft(dep) / _cic_transfer(grid))


def empirical_density(
    ens: ParticleEnsemble, family: KernelFamily, grid: Grid
) -> np.ndarray:
    """S^N * phi_N^r on the grid: CIC deposit then FFT mollification."""
    require_resolved(family, ens.count, grid.box, grid.m, "phi_r")
    dens = _deconvolved_deposit(ens.positions, grid)
    return mollify(dens, grid.box, family, ens.count, which="phi_r")


def empirical_momentum(
    ens: ParticleEnsemble, family: KernelFamily, grid: Grid
) -> np.ndarray:
    """V^N * phi_N^r: velocity-weighted deposit, mollified per component."""
    require_resolved(family, ens.count, grid.box, grid.m, "phi_r")
    out = np.empty((ens.dim,) + grid.shape)
    for q in range(ens.dim):
        dep = _deconvolved_deposit(ens.positions, grid, weights=ens.velocities[:, q])
        out[q] = mollify(dep, grid.box, family, ens.count, which="phi_r")
    return out
