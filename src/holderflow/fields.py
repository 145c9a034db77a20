"""Pseudo-spectral solver for the limiting compressible system on a periodic box.

State: density rho > 0 and velocity v.  Drift: d rho = -div(rho v) dt,
d v_q = -(v . grad v_q + (1/rho) d_q p) dt with pressure p = rho^2 / 2, so
the velocity drift reduces to -(v . grad) v_q - d_q rho; both pressure forms
are evaluated and their gap is tracked as a consistency diagnostic.  The
noise enters as an additive velocity kick v_q += sigma_q(t, x) dY^q after
each deterministic stage.  Pre-shock smooth regime only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "FluidState",
    "SigmaField",
    "rhs_deterministic",
    "pressure_forms_gap",
    "step_field",
    "noise_kick",
    "interpolate_state",
    "diagnostics",
    "dealias",
    "upsample",
]

VACUUM_FLOOR_DEFAULT = 1e-3


@dataclass(frozen=True)
class Grid:
    """Periodic box [0, L)^d discretized with M nodes per side."""

    box: float
    m: int
    dim: int = 1

    def __post_init__(self) -> None:
        if self.box <= 0 or self.m < 4 or self.dim not in (1, 2):
            raise ValueError("invalid grid parameters")

    @property
    def h(self) -> float:
        return self.box / self.m

    @property
    def shape(self) -> tuple:
        return (self.m,) * self.dim

    def along(self, values: np.ndarray, axis: int) -> np.ndarray:
        """A 1-d array reshaped to broadcast along ``axis`` of the mesh."""
        shape = [1] * self.dim
        shape[axis] = -1
        return np.asarray(values).reshape(shape)

    def coordinate(self, axis: int = 0) -> np.ndarray:
        """The ``axis`` coordinate of every node, shape (m,) * d."""
        return np.broadcast_to(self.along(np.arange(self.m) * self.h, axis), self.shape)

    def nodes(self) -> np.ndarray:
        """Node coordinates, shape (m,) * d + (d,); squeezed to (m,) in 1-d."""
        return np.stack([self.coordinate(q) for q in range(self.dim)], axis=-1).squeeze()

    def wavenumbers(self, axis: int = 0) -> np.ndarray:
        return self.along(2.0 * np.pi * np.fft.fftfreq(self.m, d=self.h), axis)

    def cell_volume(self) -> float:
        return self.h**self.dim

    def accumulate(self, flat: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Sum ``values`` into the nodes of row-major flat index ``flat``.

        The sums run in (node, value) order, so the mesh is bitwise
        independent of the order of the inputs.  Two argsorts (unstable by
        value, then stable by node) give that order faster than ``lexsort``;
        entries equal in both keys, signed zeros included, add the same in
        either order.
        """
        order = np.argsort(values)
        order = order[np.argsort(flat[order], kind="stable")]
        out = np.bincount(flat[order], weights=values[order], minlength=self.m**self.dim)
        return out.reshape(self.shape)


@dataclass(frozen=True)
class FluidState:
    """Gridded (rho, v) at one time.  v has a leading component axis."""

    grid: Grid
    rho: np.ndarray
    v: np.ndarray
    time: float = 0.0
    vacuum_floor: float = VACUUM_FLOOR_DEFAULT

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if v.shape[0] != self.grid.dim:
            raise ValueError("velocity must have a leading component axis")
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(v))):
            raise FloatingPointError("non-finite fluid state")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "v", v)

    def mass(self) -> float:
        return float(np.sum(self.rho) * self.grid.cell_volume())


@dataclass(frozen=True)
class SigmaField:
    """Noise coefficient sigma(t, x): component q multiplies dY^q.

    ``fn(t, x_nodes)`` returns an array shaped like one velocity component
    set (dim, M, ...); the default is the constant field of ``amplitude``.
    """

    amplitude: float = 1.0
    modulation: float = 0.0
    fn: Callable | None = None

    def __call__(self, t: float, grid: Grid) -> np.ndarray:
        if self.fn is not None:
            return np.asarray(self.fn(t, grid.nodes()), dtype=float)
        r = grid.coordinate(0)
        base = self.amplitude * (1.0 + self.modulation * np.cos(2.0 * np.pi * r / grid.box))
        return np.stack([base] * grid.dim, axis=0)

    def at(self, t: float, points: np.ndarray, box: float, dim: int) -> np.ndarray:
        """Pointwise evaluation at particle positions, shape (n, dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.fn is not None:
            # Pointwise closures must accept raw coordinates.
            return np.asarray(self.fn(t, pts), dtype=float)
        base = self.amplitude * (1.0 + self.modulation * np.cos(2.0 * np.pi * pts[:, 0] / box))
        return np.repeat(base[:, None], dim, axis=1)


def _deriv(f: np.ndarray, grid: Grid, axis: int = 0) -> np.ndarray:
    fk = np.fft.fftn(f)
    return np.fft.ifftn(1j * grid.wavenumbers(axis) * fk).real


def dealias(f: np.ndarray, grid: Grid) -> np.ndarray:
    """2/3-rule spectral truncation (idempotent)."""
    fk = np.fft.fftn(f)
    keep = np.abs(np.fft.fftfreq(grid.m) * grid.m) <= grid.m // 3
    mask = True
    for q in range(grid.dim):
        mask = mask & grid.along(keep, q)
    return np.fft.ifftn(fk * mask).real


def rhs_deterministic(state: FluidState) -> tuple[np.ndarray, np.ndarray]:
    """Drift (d rho, d v); aborts if the density reaches the vacuum floor."""
    g = state.grid
    rho, v = state.rho, state.v
    if float(np.min(rho)) <= state.vacuum_floor:
        raise FloatingPointError(
            f"density {np.min(rho):.3e} at or below vacuum floor "
            f"{state.vacuum_floor:.1e} (1/rho singular)"
        )
    drho = np.zeros_like(rho)
    for q in range(g.dim):
        drho -= _deriv(dealias(rho * v[q], g), g, axis=q)
    dv = np.zeros_like(v)
    for q in range(g.dim):
        adv = np.zeros_like(rho)
        for r in range(g.dim):
            adv += v[r] * _deriv(v[q], g, axis=r)
        dv[q] = -dealias(adv, g) - _deriv(rho, g, axis=q)
    return drho, dv


def pressure_forms_gap(state: FluidState) -> float:
    """Sup gap between (1/rho) grad(rho^2/2) and grad rho (analytically equal)."""
    g = state.grid
    gap = 0.0
    for q in range(g.dim):
        a = _deriv(0.5 * state.rho**2, g, axis=q) / state.rho
        b = _deriv(state.rho, g, axis=q)
        gap = max(gap, float(np.max(np.abs(a - b))))
    return gap


def max_signal_speed(state: FluidState) -> float:
    speed = np.sqrt(np.sum(state.v**2, axis=0))
    return float(np.max(speed + np.sqrt(np.maximum(state.rho, 0.0))))


def step_field(
    state: FluidState,
    dt: float,
    dy: np.ndarray | None = None,
    sigma: SigmaField | None = None,
    cfl: float = 0.5,
) -> FluidState:
    """One step: SSP-RK3 on the deterministic drift, then the noise kick.

    Refuses dt above the advective stability bound cfl * h / max(|v| + c)
    with ``FloatingPointError``: a CFL violation is a numerical failure, like
    the vacuum guard, not a usage error.
    """
    g = state.grid
    limit = cfl * g.h / max(max_signal_speed(state), 1e-30)
    if dt > limit * (1.0 + 1e-12):
        raise FloatingPointError(f"dt={dt:.3e} violates CFL bound {limit:.3e}")

    def euler(rho, v):
        s = replace(state, rho=rho, v=v)
        drho, dv = rhs_deterministic(s)
        return rho + dt * drho, v + dt * dv

    r1, v1 = euler(state.rho, state.v)
    r2, v2 = euler(r1, v1)
    r2 = 0.75 * state.rho + 0.25 * r2
    v2 = 0.75 * state.v + 0.25 * v2
    r3, v3 = euler(r2, v2)
    rho_new = state.rho / 3.0 + 2.0 / 3.0 * r3
    v_new = state.v / 3.0 + 2.0 / 3.0 * v3
    t_new = state.time + dt
    out = replace(state, rho=rho_new, v=v_new, time=t_new)
    if dy is not None and sigma is not None:
        out = noise_kick(out, dy, sigma, at_time=state.time)
    return out


def noise_kick(
    state: FluidState, dy: np.ndarray, sigma: SigmaField, at_time: float | None = None
) -> FluidState:
    """v_q += sigma_q(t, x) dY^q; density untouched (additive Young-Euler kick)."""
    t = state.time if at_time is None else at_time
    sig = sigma(t, state.grid)
    dy = np.atleast_1d(np.asarray(dy, dtype=float))
    v_new = state.v.copy()
    for q in range(state.grid.dim):
        v_new[q] = v_new[q] + sig[q] * dy[q]
    return replace(state, v=v_new)


class FieldInterpolant:
    """Trigonometric interpolation of a periodic gridded field and its gradient.

    Exact for band-limited fields; built once per field, then evaluated at
    arbitrary point sets.
    """

    def __init__(self, values: np.ndarray, grid: Grid):
        self.grid = grid
        self.coeff = np.fft.fftn(values) / values.size
        self.k = 2.0 * np.pi * np.fft.fftfreq(grid.m, d=grid.h)

    def __call__(self, pts: np.ndarray, derivative: int | None = None) -> np.ndarray:
        g = self.grid
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        c = self.coeff
        if derivative is not None:
            c = 1j * g.wavenumbers(derivative) * c
        # Contract one mesh axis at a time: a single matrix product over the
        # first, then a per-point product-sum over each further axis.
        out = _phases(pts[:, 0], self.k) @ c.reshape(g.m, -1)
        for q in range(1, g.dim):
            phase = _phases(pts[:, q], self.k)
            out = np.einsum("pk,pkr->pr", phase, out.reshape(len(pts), g.m, -1))
        return out[:, 0].real


def _phases(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """exp(i x k) for every pair, in one complex array: the same values as
    ``np.exp(1j * np.outer(x, k))`` without its two full-size temporaries."""
    z = np.zeros((x.size, k.size), dtype=complex)
    np.multiply(x[:, None], k, out=z.imag)
    return np.exp(z, out=z)


def interpolate_state(state: FluidState, points: np.ndarray):
    """(rho, v, grad_rho, grad_v) at arbitrary points by spectral interpolation.

    grad_v[p, q, r] = d_r v_q at point p.
    """
    g = state.grid
    pts = np.atleast_2d(np.asarray(points, dtype=float)) % g.box
    n = pts.shape[0]
    rho_i = FieldInterpolant(state.rho, g)
    rho = rho_i(pts)
    grad_rho = np.stack([rho_i(pts, derivative=r) for r in range(g.dim)], axis=-1)
    v = np.empty((n, g.dim))
    grad_v = np.empty((n, g.dim, g.dim))
    for q in range(g.dim):
        vi = FieldInterpolant(state.v[q], g)
        v[:, q] = vi(pts)
        for r in range(g.dim):
            grad_v[:, q, r] = vi(pts, derivative=r)
    return rho, v, grad_rho, grad_v


def upsample(values: np.ndarray, grid: Grid, m_fine: int) -> np.ndarray:
    """Zero-padded spectral upsampling onto a finer grid of the same box.

    Agrees with ``FieldInterpolant``: on an even grid the Nyquist mode of a
    real field is the cosine cos(pi x / h), so its coefficient is split
    evenly between frequencies +m/2 and -m/2 of the finer grid.
    """
    if m_fine == grid.m:
        return values.copy()
    if m_fine < grid.m:
        raise ValueError("upsample: need m_fine >= m")
    m, axes = grid.m, tuple(range(grid.dim))
    fk = np.fft.rfftn(values, axes=axes)
    if m % 2 == 0:
        for q in axes:
            fk[(slice(None),) * q + (m // 2,)] *= 0.5
    # Non-negative frequencies keep their index on every axis; on the full
    # (all but last) axes the negative ones move to the end of the finer
    # axis, and the halved Nyquist row goes to both ends.
    j = np.arange(m)
    lo, hi = j[: m // 2 + 1], j[(m + 1) // 2 :]
    src = [np.concatenate([lo, hi])] * (grid.dim - 1) + [j[: m // 2 + 1]]
    dst = [np.concatenate([lo, hi + m_fine - m])] * (grid.dim - 1) + [j[: m // 2 + 1]]
    out = np.zeros((m_fine,) * (grid.dim - 1) + (m_fine // 2 + 1,), dtype=complex)
    out[np.ix_(*dst)] = fk[np.ix_(*src)]
    return np.fft.irfftn(out, s=(m_fine,) * grid.dim, axes=axes) * (m_fine / m) ** grid.dim


def diagnostics(state: FluidState) -> dict:
    g = state.grid
    momentum = [float(np.sum(state.rho * state.v[q]) * g.cell_volume()) for q in range(g.dim)]
    return {
        "mass": state.mass(),
        "momentum": momentum,
        "min_density": float(np.min(state.rho)),
        "max_speed": float(np.max(np.sqrt(np.sum(state.v**2, axis=0)))),
    }
