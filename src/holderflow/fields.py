"""Pseudo-spectral solver for the limiting compressible system on a periodic box.

State: density rho > 0 and velocity v.  Drift: d rho = -div(rho v) dt,
d v_q = -(v . grad v_q + (1/rho) d_q p) dt with pressure p = rho^2 / 2, so
the velocity drift reduces to -(v . grad) v_q - d_q rho; the gap between the
two pressure forms is a diagnostic function, ``pressure_forms_gap``, that no
run evaluates.  The noise enters as an additive velocity kick
v_q += sigma(x) dY^q after each SSP-RK3 step.  The step advances the
half spectrum of (rho, v) and visits the nodes only for the products, which
the 2/3 rule 3|k| < m dealiases.  Pre-shock smooth regime only.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "as_points",
    "position_order",
    "as_kick",
    "as_time_step",
    "Grid",
    "FluidState",
    "SigmaField",
    "rhs_deterministic",
    "pressure_forms_gap",
    "step_field",
    "diagnostics",
    "nufft_type2",
    "evaluate_rows",
    "padded_spectrum",
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


def position_order(points, ties: np.ndarray | None = None) -> np.ndarray:
    """Indices that put an (n, d) point set in canonical order, the order of
    every label-free particle sum: the last coordinate is the primary key and
    the (n,) ``ties`` break exact coincidences.  Points with equal keys are
    interchangeable, so a sum in this order does not depend on the labels."""
    keys = as_points(points).T
    return np.lexsort(keys if ties is None else (ties, *keys))


def as_kick(dy, sigma, dim: int) -> np.ndarray | None:
    """``dy`` as the (dim,) float array of one step's kick sigma dY, the one
    check of a step's noise for the fluid and the particles; None without
    noise.  ``dy`` without ``sigma`` or the reverse, or another shape, is a
    ``ValueError``; a non-finite ``dy`` is a ``FloatingPointError``."""
    if (dy is None) != (sigma is None):
        raise ValueError("dy and sigma must be given together: the kick is sigma dY")
    if dy is None:
        return None
    a = np.asarray(dy, dtype=float)
    if a.shape != (dim,):
        raise ValueError(f"dy must be an array of shape ({dim},), got shape {a.shape}")
    if not np.isfinite(a).all():
        raise FloatingPointError(f"non-finite driver increment dy={a}")
    return a


def as_time_step(dt) -> float:
    """``dt`` as a float time step, the one check of a step size: a
    non-finite or non-positive ``dt`` is a ``ValueError``."""
    dt = float(dt)
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    return dt


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _single_flight(maxsize: int):
    """``functools.lru_cache`` of at most ``maxsize`` keys whose lookups and
    builds hold one lock, so concurrent sweep tasks that want the same key
    get one build and the same object; a refused build caches nothing."""

    def decorate(build):
        cached = lru_cache(maxsize)(build)
        lock = threading.Lock()

        @wraps(build)
        def get(*args, **kwargs):
            with lock:
                return cached(*args, **kwargs)

        get.cache_info, get.cache_clear = cached.cache_info, cached.cache_clear
        return get

    return decorate


@dataclass(frozen=True)
class Grid:
    """Periodic box [0, L)^d discretized with M nodes per side; the owner of
    the spectral layout of every mesh field (``rfftn``: full on the leading
    mesh axes, non-negative frequencies on the last) and of the solver's
    spectral operators, built once per grid and read-only."""

    box: float
    m: int
    dim: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.box) and self.box > 0 and self.m >= 4 and self.dim in (1, 2)):
            raise ValueError(f"invalid grid parameters: need a finite box > 0, m >= 4 and d "
                             f"in {{1, 2}}, got box={self.box!r}, m={self.m}, d={self.dim}")

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

    @property
    def spectrum_shape(self) -> tuple:
        """Shape of a half spectrum laid out like ``rfft``: ``modes`` per axis."""
        return self.shape[:-1] + (self.m // 2 + 1,)

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

    def modes(self, axis: int = 0) -> np.ndarray:
        """Integer frequency k of each entry along ``axis``, laid out like ``rfft``:
        0 .. m // 2 on the last axis; 0 .. (m - 1) // 2, then -(m // 2) .. -1 on
        the others.  The one source of the mode layout."""
        m, half = self.m, self.m // 2
        k = np.arange(half + 1) if axis == self.dim - 1 else (np.arange(m) + half) % m - half
        return self.along(k, axis)

    def frequencies(self, axis: int = 0) -> np.ndarray:
        """Frequencies along ``axis`` in cycles per cell, laid out like ``rfft``."""
        return self.modes(axis) * (1.0 / self.m)

    def wavenumbers(self, axis: int = 0) -> np.ndarray:
        """Wavenumbers along ``axis`` in rad per length, laid out like ``rfft``."""
        return 2.0 * np.pi * (self.modes(axis) * (1.0 / (self.m * self.h)))

    @cached_property
    def ik(self) -> tuple[np.ndarray, ...]:
        """Multipliers i k_q of d/dx_q, one per axis, laid out like
        ``wavenumbers``, zero at an even mesh's Nyquist mode 2|k| = m, whose
        derivative vanishes at every node (Trefethen, *Spectral Methods in
        MATLAB*, 2000, ch. 3)."""
        ik = [np.where(2 * np.abs(self.modes(q)) == self.m, 0.0, self.wavenumbers(q))
              for q in range(self.dim)]
        return tuple(_read_only(1j * k) for k in ik)

    @cached_property
    def two_thirds(self) -> np.ndarray:
        """Spectral mask of the 2/3 rule (Orszag, J. Atmos. Sci. 28, 1971): keep
        3|k| < m on every axis.  Two kept modes sum to |k| < 2m/3, and a sum
        that wraps lands at |k - m| > m/3: a product aliases onto no kept mode."""
        mask = True
        for q in range(self.dim):
            mask = mask & (3 * np.abs(self.modes(q)) < self.m)
        return _read_only(mask)

    @property
    def half_weights(self) -> np.ndarray:
        """Parseval weights w of the half spectrum, along the last axis, read-only:
        1 at k = 0 and at an even mesh's Nyquist mode 2k = m, 2 elsewhere, so
        the sum of f^2 over the nodes is m^-d times the sum of w |f_k|^2 over
        ``rfft(f)``.  Built per access: cached on a Grid kept as a cache key, the
        block lived all run and was seen to make glibc trim sweep-thread heaps."""
        k = self.modes(self.dim - 1)
        return _read_only(np.where((k == 0) | (2 * k == self.m), 1.0, 2.0))

    def cell_volume(self) -> float:
        return self.h**self.dim


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise FloatingPointError("non-finite fluid state")


@dataclass(frozen=True)
class FluidState:
    """Gridded (rho, v) at one time: rho of shape grid.shape, v of shape
    (d,) + grid.shape (a leading component axis); any other layout is a
    ``ValueError`` naming the expected shape."""

    grid: Grid
    rho: np.ndarray
    v: np.ndarray
    time: float = 0.0
    vacuum_floor: float = VACUUM_FLOOR_DEFAULT

    def __post_init__(self) -> None:
        g = self.grid
        rho = np.asarray(self.rho, dtype=float)
        v = np.asarray(self.v, dtype=float)
        for name, a, shape in (("rho", rho, g.shape), ("v", v, (g.dim,) + g.shape)):
            if a.shape != shape:
                raise ValueError(f"{name} must be an array of shape {shape}, got shape {a.shape}")
        _check_finite(rho)
        _check_finite(v)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "v", v)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Half spectrum of the stacked (rho, v): 1 + d rows laid out like
        ``Grid.rfft``, read-only.  Computed on first use; ``step_field`` sets
        it to the spectrum it advanced, of which rho and v are the nodes.
        Not a field, so ``dataclasses.replace`` never carries it over."""
        return _read_only(self.grid.rfft(np.concatenate([self.rho[None], self.v])))

    @cached_property
    def node_rows(self) -> np.ndarray:
        """rho, v and grad v at the nodes, the inverse transform of
        [rho_k, v_k, i k_r v_k] (``_node_rows`` of ``spectrum``), read-only.
        Computed on first use; ``step_field`` sets it to the rows whose first
        1 + d are the output state's rho and v, so the next step's first
        stage transforms nothing.  Not a field, like ``spectrum``."""
        return _read_only(_node_rows(self.grid, self.spectrum))

    def _advanced(self, spectrum: np.ndarray, node_rows: np.ndarray, time: float) -> "FluidState":
        """The state at ``time`` of a half spectrum and its ``_node_rows``, on
        this grid and floor, without ``__post_init__``: the rows have the
        grid's layout by construction, so only their rho and v are checked."""
        d, rows = self.grid.dim, _read_only(node_rows)  # before the views of rho and v
        _check_finite(rows[: 1 + d])
        out = object.__new__(FluidState)
        out.__dict__.update(vars(self), rho=rows[0], v=rows[1 : 1 + d], time=time,
                            spectrum=_read_only(spectrum), node_rows=rows)
        return out

    def mass(self) -> float:
        return float(np.sum(self.rho) * self.grid.cell_volume())


@dataclass(frozen=True)
class SigmaField:
    """Noise coefficient sigma(x) = amplitude * (1 + modulation * cos(2 pi x_1 / L)),
    a scalar: the kick of velocity component q is sigma(x) dY^q.  The
    model's sigma(t, x) does not depend on t here."""

    amplitude: float = 1.0
    modulation: float = 0.0

    @_single_flight(16)
    def spectrum(self, grid: Grid) -> np.ndarray:
        """Half spectrum of ``at`` on the grid nodes, laid out like
        ``Grid.rfft``; built once per (sigma, grid), read-only."""
        sig = self.at(grid.nodes().reshape(-1, grid.dim), grid.box)
        return _read_only(grid.rfft(sig.reshape(grid.shape)))

    def at(self, points: np.ndarray, box: float) -> np.ndarray:
        """sigma at an (n, d) point set, shape (n,)."""
        x = as_points(points)[:, 0]
        return self.amplitude * (1.0 + self.modulation * np.cos(2.0 * np.pi * x / box))


def _node_rows(g: Grid, uk: np.ndarray) -> np.ndarray:
    """Inverse transform of [u_k, i k_r v_k]: rho, v and grad v at the nodes
    of the state spectrum ``uk`` = [rho_k, v_k], in one batched call."""
    d = g.dim
    rows = np.empty((1 + d + d * d,) + uk.shape[1:], dtype=complex)
    rows[: 1 + d] = uk
    for r in range(d):
        np.multiply(g.ik[r], uk[1:], out=rows[1 + d * (r + 1) : 1 + d * (r + 2)])
    return g.irfft(rows)


def _drift(g: Grid, uk: np.ndarray, nodes: np.ndarray, floor: float) -> np.ndarray:
    """Drift spectrum of the state spectrum ``uk`` = [rho_k, v_k] from its
    ``_node_rows`` in one forward transform of [rho v, v . grad v].  Refuses
    a non-finite state and a density at the vacuum floor."""
    d, ik = g.dim, g.ik
    _check_finite(nodes[: 1 + d])
    low = nodes[0].min()
    if low <= floor:
        raise FloatingPointError(
            f"density {low:.3e} at or below vacuum floor {floor:.1e} (1/rho singular)"
        )
    v = nodes[1 : d + 1]
    grad_v = nodes[d + 1 :].reshape((d, d) + g.shape)  # grad_v[r, q] = d_r v_q
    products = np.empty((2 * d,) + g.shape)  # [rho v, v . grad v]
    np.multiply(nodes[0], v, out=products[:d])
    adv = products[d:]  # adv[q] = v . grad v_q
    np.multiply(v[0], grad_v[0], out=adv)
    for r in range(1, d):
        adv += v[r] * grad_v[r]
    adv += 0.0  # a sum from 0, so that a -0.0 product reads +0.0
    fk = g.rfft(products)
    fk *= g.two_thirds
    # Each complex product keeps the operand order i k * f: with fused
    # multiply-adds, a complex product is not commutative bit for bit.
    out = np.empty_like(uk)
    div = out[0]  # sum_q ik_q D(rho v_q), from 0 and then negated
    np.multiply(ik[0], fk[0], out=div)
    for q in range(1, d):
        div += ik[q] * fk[q]
    div += 0.0
    np.negative(div, out=div)
    np.negative(fk[d:], out=out[1:])
    for q in range(d):
        out[1 + q] -= ik[q] * uk[0]
    return out


def rhs_deterministic(state: FluidState) -> tuple[np.ndarray, np.ndarray]:
    """Drift (d rho, d v) = (-sum_q ik_q D(rho v_q), -D(v . grad v_q) - ik_q rho)
    with the 2/3 mask D; aborts if the density reaches the vacuum floor."""
    g = state.grid
    drift = g.irfft(_drift(g, state.spectrum, state.node_rows, state.vacuum_floor))
    return drift[0], drift[1:]


def pressure_forms_gap(state: FluidState) -> float:
    """Sup gap between (1/rho) grad(rho^2/2) and grad rho (analytically equal)."""
    g = state.grid
    gap = 0.0
    for q in range(g.dim):
        a = g.irfft(g.ik[q] * g.rfft(0.5 * state.rho**2)) / state.rho
        b = g.irfft(g.ik[q] * state.spectrum[0])
        gap = max(gap, float(np.max(np.abs(a - b))))
    return gap


def max_signal_speed(state: FluidState) -> float:
    speed = np.sqrt((state.v**2).sum(axis=0))
    return float((speed + np.sqrt(np.maximum(state.rho, 0.0))).max())


def step_field(
    state: FluidState,
    dt: float,
    dy: np.ndarray | None = None,
    sigma: SigmaField | None = None,
    cfl: float = 0.5,
) -> FluidState:
    """One step: SSP-RK3 on the deterministic drift, then the noise kick.

    A non-finite or non-positive dt is a ``ValueError``; ``as_kick`` checks
    ``dy`` and ``sigma``.  Refuses dt above the advective stability bound
    cfl * h / max(|v| + c) with ``FloatingPointError``: a CFL violation is a
    numerical failure, like the vacuum guard, not a usage error.  The stages
    and the kick advance ``state.spectrum``, in place; each stage refuses a
    non-finite input and a density at the vacuum floor, and the output
    state, built from the nodes of the advanced spectrum, refuses a
    non-finite rho or v.  One inverse transform per step gives that state's
    rho and v and the ``node_rows`` it carries for the next step's first
    stage: 6 transforms per step.
    """
    g, floor = state.grid, state.vacuum_floor
    dt = as_time_step(dt)
    dy = as_kick(dy, sigma, g.dim)
    limit = cfl * g.h / max(max_signal_speed(state), 1e-30)
    if dt > limit * (1.0 + 1e-12):
        raise FloatingPointError(f"dt={dt:.3e} violates CFL bound {limit:.3e}")

    # In place, and bitwise the expressions uk + dt * drift, 0.75 u0 + 0.25 e
    # and u0 / 3 + 2/3 e: an IEEE sum is the same in either order.
    def euler(uk, nodes):
        out = _drift(g, uk, nodes, floor)
        out *= dt
        out += uk
        return out

    u0 = state.spectrum
    u1 = euler(u0, state.node_rows)
    u2 = euler(u1, _node_rows(g, u1))
    u2 *= 0.25
    u2 += 0.75 * u0
    uk = euler(u2, _node_rows(g, u2))
    uk *= 2.0 / 3.0
    uk += u0 / 3.0
    if dy is not None:
        uk[1:] += sigma.spectrum(g) * dy.reshape((g.dim,) + (1,) * g.dim)
    return state._advanced(uk, _node_rows(g, uk), state.time + dt)


class FieldInterpolant:
    """Trigonometric interpolation of a periodic gridded field: ``nufft_type2``
    of its half spectrum ``coeff`` (laid out like ``Grid.rfft``) at an (n, d)
    point set.  ``values`` may stack fields on leading axes ``lead`` (a
    velocity: lead = (d,)), and a call returns shape (n,) + lead.
    """

    def __init__(self, values: np.ndarray, grid: Grid):
        self.grid = grid
        self.coeff = grid.rfft(values)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return nufft_type2(self.coeff, self.grid, pts)


NUFFT_TOL = 1e-15  # truncation error of nufft_type2, relative to the sum of |fk| / m^d
_ES_WIDTH = math.ceil(-math.log10(NUFFT_TOL)) + 1  # kernel nodes per axis
_ES_BETA = 2.30 * _ES_WIDTH  # the ES shape at 2x oversampling
_OVERSAMPLE = 2  # nodes per side of the type-2 mesh, per node of the field's mesh
_GATHER_BLOCK = 1 << 14  # point-node entries (128 KiB per float array) per gather block


def nufft_type2(fk: np.ndarray, grid: Grid, pts: np.ndarray) -> np.ndarray:
    """Fields of the half spectrum ``fk`` at an (n, d) point set, shape (n,) + lead.

    ``fk`` stacks half spectra of fields on ``grid`` on its leading axes
    ``lead``, laid out like ``Grid.rfft``.  The value at x is that of the
    fields' trigonometric interpolant, the one ``upsample`` evaluates at
    finer nodes, with a Nyquist mode as the cosine.

    A type-2 NUFFT with the "exponential of semicircle" kernel psi(z) =
    exp(beta (sqrt(1 - z^2) - 1)) (Barnett, Magland & af Klinteberg, SIAM
    J. Sci. Comput. 41, 2019): ``fk`` divided by psi's transform on each
    axis, one inverse transform onto the ``Grid`` of 2 m nodes per side,
    then at each point the sum over its w^d nearest nodes weighted by the
    separable kernel.  w = ceil(log10(1 / NUFFT_TOL)) + 1 nodes per axis
    give a relative error near ``NUFFT_TOL``, 16 nodes at 1e-15.  Points go
    in blocks of about ``_GATHER_BLOCK`` point-nodes.  A point's value is
    elementwise arithmetic on its own nodes, summed node by node in a fixed
    order, so it does not depend on the other points of the call.
    """
    g, d, w = grid, grid.dim, _ES_WIDTH
    pts = as_points(pts, d)
    lead = fk.shape[: fk.ndim - d]
    table = _es_deconvolution(g, w)
    for q in range(d):  # the table is indexed by |frequency|
        fk = fk * table[np.abs(g.modes(q))]
    fine = Grid(box=g.box, m=_OVERSAMPLE * g.m, dim=d)
    b = fine.irfft(padded_spectrum(fk, g, fine.m)).reshape((-1,) + fine.shape)
    # The mesh extended by w - 1 nodes past its end on every axis, with a
    # node's fields in one row: windows[i] are the fields on the w^d nodes
    # from node i on, a view.
    wrap = np.arange(fine.m + w - 1) % fine.m
    b = np.moveaxis(b, 0, -1)[np.ix_(*[wrap] * d)]
    windows = sliding_window_view(b, (w,) * d, axis=tuple(range(d)))
    out = np.empty((len(pts), b.shape[-1]))
    offsets = np.arange(w)
    rows = _GATHER_BLOCK // w**d
    for start in range(0, len(pts), rows):
        u = pts[start : start + rows] * fine.m / g.box  # in fine cells
        first = np.ceil(u - 0.5 * w)  # the point's first node on each axis
        frac = u - first
        acc = windows[tuple(np.mod(first, fine.m).astype(np.intp).T)]  # (block, fields) + (w,) * d
        for q in reversed(range(d)):  # sum over the last node axis, in node order
            weight = _es_kernel((frac[:, q, None] - offsets) * (2.0 / w))
            weight = weight.reshape((-1,) + (1,) * (acc.ndim - 2) + (w,))
            s = acc[..., 0] * weight[..., 0]
            for k in range(1, w):
                s += acc[..., k] * weight[..., k]
            acc = s
        out[start : start + rows] = acc
    return out.reshape((len(pts),) + lead)


def _es_kernel(z: np.ndarray) -> np.ndarray:
    """psi(z) = exp(beta (sqrt(1 - z^2) - 1)) on |z| <= 1, with the exponent
    written -beta z^2 / (1 + sqrt(1 - z^2)): no cancellation where psi is
    near 1, and so a rounding error of a few units in the last place."""
    zz = z * z
    s = np.subtract(1.0, zz)
    np.maximum(s, 0.0, out=s)  # |z| may pass 1 by a rounding
    np.sqrt(s, out=s)
    s += 1.0
    zz /= s
    zz *= -_ES_BETA
    return np.exp(zz, out=zz)


@_single_flight(16)
def _es_deconvolution(grid: Grid, w: int) -> np.ndarray:
    """The factor that ``nufft_type2`` applies to frequency +-k of ``grid``, for
    each k of its half axis: h / phi_hat(k) = 2 / (w psi_hat(pi k w / M)),
    with phi(theta) = psi(2 theta / (w h)) the kernel on the M = 2 m mesh of
    angular step h = 2 pi / M, and psi_hat(a) the integral of psi(z) cos(a z)
    over [-1, 1] by Gauss-Legendre quadrature.  Read-only."""
    z, weight = _gauss_legendre(3 * w + 4)
    a = (np.pi * w / (_OVERSAMPLE * grid.m)) * grid.modes(grid.dim - 1).ravel()
    psi_hat = (np.cos(a[:, None] * z) * (weight * _es_kernel(z))).sum(axis=1)
    return _read_only(2.0 / (w * psi_hat))


def _gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the q-point Gauss-Legendre rule on [-1, 1]: Newton's
    method on the three-term recurrence of the Legendre polynomial P_q, which
    converges from the guess cos(pi (i - 1/4) / (q + 1/2)) in a few steps."""
    x = np.cos(np.pi * (np.arange(q) + 0.75) / (q + 0.5))
    for _ in range(100):
        p0, p1 = np.ones(q), x
        for k in range(2, q + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = q * (x * p1 - p0) / (x * x - 1.0)  # P_q'(x)
        step = p1 / slope
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


def evaluate_rows(
    coeff: np.ndarray, grid: Grid, x: np.ndarray, derivative: bool = False
) -> np.ndarray:
    """Row r of stacked 1-d half spectra ``coeff``, (rows,) + ``grid.spectrum_shape``,
    laid out like ``Grid.rfft``, at the point x[r], or its derivative, shape (rows,).

    The interpolant's real part weights each mode by ``half_weights / m``.
    A row-wise ``einsum``: no BLAS, so a row does not depend on the others.
    """
    coeff = coeff * (grid.half_weights / grid.m)
    if derivative:
        coeff = grid.ik[0] * coeff
    return np.einsum("rk,rk->r", _phases(x, grid), coeff).real


def _phases(x: np.ndarray, grid: Grid) -> np.ndarray:
    """exp(i k x) for every point x and each wavenumber k of the half (last)
    axis of ``grid``, laid out like ``Grid.rfft``.

    The powers of exp(2 pi i x / L), one exponential per point and a running
    product over the modes; the error grows like the mode index times the
    rounding unit, about 4e-13 at m = 4096.
    """
    z = np.empty((x.size, grid.spectrum_shape[-1]), dtype=complex)
    z[:, 0] = 1.0
    z[:, 1:] = np.exp((2j * np.pi / grid.box) * x)[:, None]
    np.multiply.accumulate(z, axis=1, out=z)  # np.cumprod, without its dispatch
    return z


def padded_spectrum(fk: np.ndarray, grid: Grid, m_fine: int) -> np.ndarray:
    """Half spectrum ``fk`` of fields on ``grid`` (stacked on leading axes,
    laid out like ``Grid.rfft``) zero-padded to a grid of m_fine nodes per side
    and scaled by (m_fine / m)^d, so that its ``irfft`` there interpolates the
    fields.  Each entry moves to its mode k modulo m_fine on every axis.  As
    in ``nufft_type2``, a Nyquist mode 2|k| = m is the cosine cos(pi x / h):
    its coefficient is halved, and on a full (not last) axis the -m/2 entry
    is written at +m/2 too.
    """
    m, d = grid.m, grid.dim
    if m_fine < m:
        raise ValueError(f"padded_spectrum: need m_fine >= m = {m}, got {m_fine}")
    if m_fine == m:
        return fk.copy()
    fine = Grid(box=grid.box, m=m_fine, dim=d)
    modes = [grid.modes(q).ravel() for q in range(d)]
    out = np.zeros(fk.shape[: fk.ndim - d] + fine.spectrum_shape, dtype=complex)
    out[(...,) + np.ix_(*[k % m_fine for k in modes])] = fk * (m_fine / m) ** d
    for q, k in enumerate(modes):
        rest = (slice(None),) * (d - 1 - q)
        nyquist = k[2 * np.abs(k) == m]  # none on an odd grid
        out[(..., nyquist % m_fine) + rest] *= 0.5
        negative = nyquist[nyquist < 0]
        out[(..., -negative) + rest] = out[(..., negative % m_fine) + rest]
    return out


def upsample(values: np.ndarray, grid: Grid, m_fine: int) -> np.ndarray:
    """Values interpolated onto m_fine nodes per side: ``padded_spectrum``, inverted."""
    if m_fine == grid.m:
        return values.copy()
    fk = padded_spectrum(grid.rfft(values), grid, m_fine)
    return Grid(box=grid.box, m=m_fine, dim=grid.dim).irfft(fk)


def diagnostics(state: FluidState) -> dict:
    g = state.grid
    momentum = [float(np.sum(state.rho * state.v[q]) * g.cell_volume()) for q in range(g.dim)]
    return {
        "mass": state.mass(),
        "momentum": momentum,
        "min_density": float(np.min(state.rho)),
        "max_speed": float(np.max(np.sqrt(np.sum(state.v**2, axis=0)))),
    }
