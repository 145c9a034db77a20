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

import numpy as np

__all__ = [
    "as_points",
    "Grid",
    "FluidState",
    "SigmaField",
    "rhs_deterministic",
    "pressure_forms_gap",
    "step_field",
    "noise_kick",
    "diagnostics",
    "dealias",
    "upsample",
]

VACUUM_FLOOR_DEFAULT = 1e-3


def as_points(
    x, dim: int | None = None, name: str = "points", batch: bool = False
) -> np.ndarray:
    """``x`` as a float array of points in R^dim, the one check of the point layout.

    A point set is an (n, dim) array; with ``batch``, a kernel's displacement
    argument is any (..., dim) array.  ``dim=None`` takes dim from ``x``.  Any
    other layout is refused with a ``ValueError`` naming the expected shape,
    so an (n,) array in d=1 is never read as one point in n dimensions.
    """
    a = np.asarray(x, dtype=float)
    d = a.shape[-1] if dim is None and a.ndim else dim
    if (a.ndim >= 1 if batch else a.ndim == 2) and a.shape[-1] == d:
        return a
    layout = f"({'...' if batch else 'n'}, {'d' if dim is None else dim})"
    raise ValueError(f"{name} must be an array of shape {layout}, got shape {a.shape}")


@dataclass(frozen=True)
class Grid:
    """Periodic box [0, L)^d discretized with M nodes per side; the owner of
    the spectral layout of every mesh field (``rfftn``: full on the leading
    mesh axes, non-negative frequencies on the last)."""

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

    def rfft(self, f: np.ndarray) -> np.ndarray:
        """Half spectrum over the mesh axes, the trailing d axes of ``f``: the
        steps of ``rfftn``, without its per-call cost of argument handling."""
        fk = np.fft.rfft(f)
        for axis in range(-2, -self.dim - 1, -1):
            fk = np.fft.fft(fk, axis=axis)
        return fk

    def irfft(self, fk: np.ndarray) -> np.ndarray:
        """Mesh field of a half spectrum laid out like ``rfft``."""
        for axis in range(-self.dim, -1):
            fk = np.fft.ifft(fk, axis=axis)
        return np.fft.irfft(fk, n=self.m)

    def frequencies(self, axis: int = 0) -> np.ndarray:
        """Frequencies along ``axis`` in cycles per cell, laid out like ``rfft``."""
        return self.along(self._fftfreq(axis)(self.m), axis)

    def wavenumbers(self, axis: int = 0) -> np.ndarray:
        """Wavenumbers along ``axis`` in rad per length, laid out like ``rfft``."""
        return self.along(2.0 * np.pi * self._fftfreq(axis)(self.m, d=self.h), axis)

    def _fftfreq(self, axis: int):
        return np.fft.rfftfreq if axis == self.dim - 1 else np.fft.fftfreq

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
    """Noise coefficient sigma(t, x): component q multiplies dY^q, with
    sigma_q(x) = amplitude * (1 + modulation * cos(2 pi x_1 / L)) for every q."""

    amplitude: float = 1.0
    modulation: float = 0.0

    def __call__(self, t: float, grid: Grid) -> np.ndarray:
        """``at`` on the grid nodes, laid out like a velocity: (d,) + grid.shape."""
        sig = self.at(t, grid.nodes().reshape(-1, grid.dim), grid.box)
        return sig.T.reshape((grid.dim,) + grid.shape)

    def at(self, t: float, points: np.ndarray, box: float) -> np.ndarray:
        """Pointwise evaluation at an (n, d) point set, shape (n, d)."""
        pts = as_points(points)
        base = self.amplitude * (1.0 + self.modulation * np.cos(2.0 * np.pi * pts[:, 0] / box))
        return np.repeat(base[:, None], pts.shape[1], axis=1)


def _ik(grid: Grid, axis: int) -> np.ndarray:
    """Multiplier i k of d/dx_axis, without the Nyquist mode of an even mesh,
    whose derivative vanishes at every node (Trefethen, *Spectral Methods in
    MATLAB*, 2000, ch. 3)."""
    k = grid.wavenumbers(axis).copy()
    if grid.m % 2 == 0:
        k.flat[grid.m // 2] = 0.0
    return 1j * k


def _two_thirds(grid: Grid) -> np.ndarray:
    """Spectral mask of the 2/3 rule: |frequency| <= m // 3 on every axis."""
    mask = True
    for q in range(grid.dim):
        mask = mask & (np.abs(grid.frequencies(q) * grid.m) <= grid.m // 3)
    return mask


def dealias(f: np.ndarray, grid: Grid) -> np.ndarray:
    """2/3-rule spectral truncation (idempotent)."""
    return grid.irfft(grid.rfft(f) * _two_thirds(grid))


def rhs_deterministic(state: FluidState) -> tuple[np.ndarray, np.ndarray]:
    """Drift (d rho, d v) = (-sum_q ik_q D(rho v_q), -D(v . grad v_q) - ik_q rho)
    with the 2/3 mask D; aborts if the density reaches the vacuum floor."""
    g = state.grid
    rho, v = state.rho, state.v
    if float(np.min(rho)) <= state.vacuum_floor:
        raise FloatingPointError(
            f"density {np.min(rho):.3e} at or below vacuum floor "
            f"{state.vacuum_floor:.1e} (1/rho singular)"
        )
    ik = [_ik(g, q) for q in range(g.dim)]
    mask = _two_thirds(g)
    flux = mask * g.rfft(rho * v)
    drho = g.irfft(-sum(ik[q] * flux[q] for q in range(g.dim)))
    vk, rho_k = g.rfft(v), g.rfft(rho)
    adv = sum(v[r] * g.irfft(ik[r] * vk) for r in range(g.dim))  # adv[q] = v . grad v_q
    dv = g.irfft(-(mask * g.rfft(adv)) - np.stack([ik[q] * rho_k for q in range(g.dim)]))
    return drho, dv


def pressure_forms_gap(state: FluidState) -> float:
    """Sup gap between (1/rho) grad(rho^2/2) and grad rho (analytically equal)."""
    g = state.grid
    gap = 0.0
    for q in range(g.dim):
        a = g.irfft(_ik(g, q) * g.rfft(0.5 * state.rho**2)) / state.rho
        b = g.irfft(_ik(g, q) * g.rfft(state.rho))
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
    arbitrary (n, d) point sets.  ``coeff`` is the half spectrum, weighted 2 on
    the interior modes of the last axis; a Nyquist mode is the cosine
    cos(pi x / h), as in ``upsample``, and the derivative drops it.
    """

    def __init__(self, values: np.ndarray, grid: Grid):
        self.grid = grid
        self.coeff = grid.rfft(values) / values.size
        self.coeff[..., 1 : (grid.m + 1) // 2] *= 2.0

    def __call__(self, pts: np.ndarray, derivative: int | None = None) -> np.ndarray:
        g = self.grid
        pts = as_points(pts, g.dim)
        c = self.coeff
        if derivative is not None:
            c = _ik(g, derivative) * c
        # Contract one mesh axis at a time: a single matrix product over the
        # first, then a per-point product-sum over each further axis.
        out = c.reshape(c.shape[0], -1)
        for q in range(g.dim):
            phase = _phases(pts[:, q], g.wavenumbers(q).ravel())
            if q < g.dim - 1 and g.m % 2 == 0:
                phase[:, g.m // 2].imag = 0.0  # a Nyquist row of a full axis is the cosine
            if q == 0:
                out = phase @ out
            else:
                out = np.einsum("pk,pkr->pr", phase, out.reshape(len(pts), c.shape[q], -1))
        return out[:, 0].real


def _phases(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """exp(i x k) for every pair, in one complex array: the same values as
    ``np.exp(1j * np.outer(x, k))`` without its two full-size temporaries."""
    z = np.zeros((x.size, k.size), dtype=complex)
    np.multiply(x[:, None], k, out=z.imag)
    return np.exp(z, out=z)


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
    m = grid.m
    fk = grid.rfft(values)
    if m % 2 == 0:
        for q in range(grid.dim):
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
    fine = Grid(box=grid.box, m=m_fine, dim=grid.dim)
    return fine.irfft(out) * (m_fine / m) ** grid.dim


def diagnostics(state: FluidState) -> dict:
    g = state.grid
    momentum = [float(np.sum(state.rho * state.v[q]) * g.cell_volume()) for q in range(g.dim)]
    return {
        "mass": state.mass(),
        "momentum": momentum,
        "min_density": float(np.min(state.rho)),
        "max_speed": float(np.max(np.sqrt(np.sum(state.v**2, axis=0)))),
    }
