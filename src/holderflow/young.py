"""Young integration on sampled paths and calculus-identity residual oracles.

Integrals are Riemann-Young sums on the stored grid, written once in
``young_integral``; convergence claims are always dyadic-refinement
comparisons, never assertions about the true limit.  The residual functions
(integration by parts, chain rule, Itô-Wentzell) sum through
``young_integral``, return exact zeros on their degenerate cases and are used
as oracles throughout the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import Grid, evaluate_rows
from .noise import SampledPath, holder_seminorm

__all__ = [
    "IntegrandPath",
    "young_integral",
    "young_loeve_defect",
    "check_integration_by_parts",
    "check_chain_rule",
    "check_ito_wentzell",
]


@dataclass(frozen=True)
class IntegrandPath:
    """Samples of an integrand X_t with nominal exponent beta, one per time
    of the grid of the driver it is integrated against.

    ``values`` has shape (M+1, ..., d): the last axis of each sample is
    contracted with the driver's (d,) increment, so a scalar integrand
    against a scalar driver is (M+1, 1) and a matrix integrand is (M+1, k, d).
    Fewer than two axes is refused where the path is built.
    """

    values: np.ndarray
    beta: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim < 2:
            raise ValueError("integrand values must be an array of shape (M+1, ..., d), "
                             f"got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("integrand values must be finite")
        object.__setattr__(self, "values", values)


def young_integral(
    x: IntegrandPath,
    y: SampledPath,
    s: float = 0.0,
    t: float | None = None,
    rule: str = "left",
):
    """Riemann-Young sum of X against Y over [s, t] on Y's grid.

    X has one sample per time of Y's grid, and s and t are times of it.
    Requires the nominal exponent condition alpha + beta > 1; outside that
    regime the integral has no meaning here and the call is refused.
    ``rule`` selects left-point (X_i) or mid-point ((X_i + X_{i+1}) / 2)
    evaluation of X; both converge to the same limit under refinement
    (tested, not assumed).  A scalar-valued integral is returned as a float,
    any other as an array of shape ``x.values.shape[1:-1]``.
    """
    if x.beta + y.alpha <= 1.0:
        raise ValueError(
            f"Young condition violated: alpha + beta = {y.alpha} + {x.beta} <= 1"
        )
    if x.values.shape[0] != y.steps + 1:
        raise ValueError(f"the integrand has {x.values.shape[0]} samples, but its driver's "
                         f"grid has {y.steps + 1} times")
    if x.values.shape[-1] != y.dim:
        raise ValueError(
            f"integrand last axis {x.values.shape[-1]} does not match the "
            f"driver dimension {y.dim}"
        )
    if rule not in ("left", "mid"):
        raise ValueError(f"unknown rule {rule!r}")
    if t is None:
        t = y.horizon
    i0, i1 = y.index(s, "s"), y.index(t, "t")
    if i1 < i0:
        raise ValueError("need s <= t")
    xs = x.values[i0:i1]
    if rule == "mid":
        xs = 0.5 * (xs + x.values[i0 + 1 : i1 + 1])
    dy = np.diff(y.values[i0 : i1 + 1], axis=0)
    # Align each (d,) increment with its sample's last axis; np.sum then
    # reduces over the steps pairwise, which keeps the rounding error small.
    dy = dy.reshape(dy.shape[:1] + (1,) * (xs.ndim - 2) + dy.shape[1:])
    total = np.sum(xs * dy, axis=(0, -1))
    return float(total) if total.ndim == 0 else total


def young_loeve_defect(
    x: IntegrandPath,
    y: SampledPath,
    s: float,
    t: float,
    norm_x: float | None = None,
    norm_y: float | None = None,
) -> tuple[float, float]:
    """One-step quadrature defect |int_s^t X dY - X_s Y_st| and its ratio to
    the Hölder-scaling envelope ||Y||_a ||X||_b |t-s|^{a+b}.

    ``norm_x`` defaults to the beta-Hölder seminorm of X on Y's grid.  A
    sweep over windows reports the max ratio as the empirical constant;
    nothing is asserted against a theoretical value of that constant.
    """
    integral = young_integral(x, y, s, t)
    i0, i1 = y.index(s, "s"), y.index(t, "t")
    y_st = y.values[i1] - y.values[i0]
    defect = float(np.linalg.norm(integral - x.values[i0] @ y_st))
    if norm_y is None:
        norm_y = holder_seminorm(y, y.alpha)
    if norm_x is None:
        flat = x.values.reshape(x.values.shape[0], -1)
        norm_x = holder_seminorm(SampledPath(y.times, flat - flat[0], x.beta), x.beta)
    envelope = norm_y * norm_x * abs(t - s) ** (y.alpha + x.beta)
    if envelope == 0.0:
        return defect, 0.0
    return defect, defect / envelope


def check_integration_by_parts(x: SampledPath, y: SampledPath) -> float:
    """|X_T Y_T - X_0 Y_0 - int X dY - int Y dX| at the working mesh (scalar paths)."""
    if x.dim != 1 or y.dim != 1:
        raise ValueError("scalar paths expected")
    x.require_same_grid(y)
    int_x_dy = young_integral(IntegrandPath(x.values, beta=x.alpha), y)
    int_y_dx = young_integral(IntegrandPath(y.values, beta=y.alpha), x)
    xv, yv = x.values[:, 0], y.values[:, 0]
    return float(abs(xv[-1] * yv[-1] - xv[0] * yv[0] - int_x_dy - int_y_dx))


def check_chain_rule(
    f: Callable[[np.ndarray], float],
    df: Callable[[np.ndarray], np.ndarray],
    x: SampledPath,
    gamma: float = 1.0,
) -> float:
    """|f(X_T) - f(X_0) - int Df(X) dX| for caller-declared Df Hölder index gamma.

    ``f`` maps a (d,) sample to a scalar; ``df`` maps the (M + 1, d) samples
    to their gradients, an array of the same shape.  Df(X) has exponent
    alpha * gamma, so the Young condition is alpha (1 + gamma) > 1.
    """
    grads = np.asarray(df(x.values), dtype=float)
    if grads.shape != x.values.shape:
        raise ValueError(
            f"df must return an array of shape {x.values.shape} on the path samples, "
            f"got shape {grads.shape}"
        )
    # Midpoint evaluation: the Young integral admits any evaluation point in
    # each partition interval, and the symmetric choice converges faster.
    integral = young_integral(IntegrandPath(grads, beta=x.alpha * gamma), x, rule="mid")
    return float(abs(f(x.values[-1]) - f(x.values[0]) - integral))


_IW_BLOCK = 64  # time steps per batched transform in check_ito_wentzell
_IW_BOX = 2.0 * np.pi  # the period of check_ito_wentzell's spatial box


def _field_samples(f: Callable, name: str, args: tuple, m: int, rows: int = 0) -> np.ndarray:
    """``f(*args)`` as a float array of shape (m,), or with ``rows`` of shape
    (rows, m), an (m,) result standing for every row; else a ``ValueError``."""
    a = np.asarray(f(*args), dtype=float)
    if a.shape == (m,):
        return np.broadcast_to(a, (rows, m)) if rows else a
    if rows and a.shape == (rows, m):
        return a
    block = f" or ({rows}, {m})" if rows else ""
    raise ValueError(
        f"{name} must return an array of shape ({m},){block} on the {m} space points, "
        f"got shape {a.shape}"
    )


def check_ito_wentzell(
    g0: Callable[[np.ndarray], np.ndarray],
    h: Callable[[float, np.ndarray], np.ndarray],
    y: SampledPath,
    x: SampledPath,
    space_points: int = 256,
) -> float:
    """Residual of g_t(X_t) = g_0(X_0) + int h_s(X_s) dY_s + int D_x g_s(X_s) dX_s
    where g_t(x) := g_0(x) + int_0^t h_s(x) dY_s on a periodic spatial grid.

    Spatial derivatives are spectral and X is wrapped periodically into
    [0, 2 pi); scalar driver and scalar state path.  ``g0(nodes)`` must return an
    array of shape (space_points,).  ``h`` is called once per block of times,
    with ``t`` a (B, 1) column of the block's times: it returns shape
    (B, space_points), or (space_points,) for a field that does not depend
    on t.

    g is linear in h, so its spectrum at step i is that of g_0 plus the
    running sum of the spectra of h_j dY_j, j < i.  The time steps go in
    blocks of ``_IW_BLOCK``: one transform of the block's h samples, one
    running sum carried from block to block, and row-wise evaluations at the
    points X_i.
    """
    if y.dim != 1 or x.dim != 1:
        raise ValueError("scalar driver and state path expected")
    y.require_same_grid(x)
    grid = Grid(box=_IW_BOX, m=space_points)
    nodes = grid.nodes()
    g = grid.rfft(_field_samples(g0, "g0", (nodes,), space_points))
    n = y.steps
    # X_{n+1} := X_n, so the spatial midpoint of the last row is X_n itself.
    xs = np.mod(np.append(x.values[:, 0], x.values[-1, 0]), _IW_BOX)
    # dY_n := 0: g is not advanced past the last step.
    dy = np.append(np.diff(y.values[:, 0]), 0.0)

    # Samples of h_s(X_s) and D_x g_s(X_s), one row per grid time.
    h_x = np.empty((n + 1, 1))
    dg_x = np.empty((n + 1, 1))
    g_start = evaluate_rows(g[None], grid, xs[:1])[0]
    for s in range(0, n + 1, _IW_BLOCK):
        e = min(s + _IW_BLOCK, n + 1)
        samples = _field_samples(h, "h", (y.times[s:e, None], nodes), space_points, e - s)
        ch = grid.rfft(samples)
        h_x[s:e, 0] = evaluate_rows(ch, grid, xs[s:e])
        # Rows g_s .. g_{e-1}: g_s plus the running sum of h_j dY_j; g_e carries on.
        terms = ch * dy[s:e, None]
        gs = np.add.accumulate(np.concatenate([g[None], terms[:-1]]), axis=0)
        g = gs[-1] + terms[-1]
        # Midpoint evaluation in space for the dX integral (valid choice of
        # partition point; kills the second-order drift of the left sum).
        left = evaluate_rows(gs, grid, xs[s:e], derivative=True)
        right = evaluate_rows(gs, grid, xs[s + 1 : e + 1], derivative=True)
        dg_x[s:e, 0] = (left + right) / 2
    g_end = evaluate_rows(gs[-1:], grid, xs[n : n + 1])[0]
    # Both integrands inherit the rougher of the two paths' exponents.
    beta = min(x.alpha, y.alpha)
    total_h = young_integral(IntegrandPath(h_x, beta), y)
    total_dg = young_integral(IntegrandPath(dg_x, beta), x)
    return float(abs(g_end - g_start - total_h - total_dg))
