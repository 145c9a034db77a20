"""Young integration on sampled paths and calculus-identity residual oracles.

Integrals are left-point Riemann sums on the stored grid; convergence claims
are always dyadic-refinement comparisons, never assertions about the true
limit.  The residual functions (integration by parts, chain rule,
Itô-Wentzell) return exact zeros on their degenerate cases and are used as
oracles throughout the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import FieldInterpolant, Grid
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
    """Samples of an integrand X_t on a uniform grid with nominal exponent beta.

    ``values[i]`` may be a scalar, a vector matching the driver's dimension
    (contracted by dot product) or a matrix acting on increments by
    matrix-vector product.
    """

    times: np.ndarray
    values: np.ndarray
    beta: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.shape[0] != times.shape[0]:
            raise ValueError("times and values length mismatch")
        if not np.all(np.isfinite(values)):
            raise ValueError("integrand values must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def seminorm(self) -> float:
        flat = self.values.reshape(self.values.shape[0], -1)
        path = SampledPath(self.times, flat - flat[0], alpha=self.beta)
        return holder_seminorm(path, self.beta)


def _apply(x, dy: np.ndarray):
    """Action of one integrand sample on one driver increment."""
    x = np.asarray(x)
    if x.ndim == 0:
        return x * dy
    if x.ndim == 1:
        if x.shape != dy.shape:
            raise ValueError(f"integrand shape {x.shape} vs increment {dy.shape}")
        return float(x @ dy)
    return x @ dy


def _grid_index(times: np.ndarray, t: float, what: str) -> int:
    i = int(round((t - times[0]) / (times[1] - times[0])))
    if not 0 <= i < times.shape[0] or abs(times[i] - t) > 1e-9 * (times[-1] or 1.0):
        raise ValueError(f"{what}={t} is not a grid point of the common grid")
    return i


def young_integral(
    x: IntegrandPath,
    y: SampledPath,
    s: float = 0.0,
    t: float | None = None,
    rule: str = "left",
):
    """Riemann-Young sum of X against Y over [s, t] on the common grid.

    Requires the nominal exponent condition alpha + beta > 1; outside that
    regime the integral has no meaning here and the call is refused.
    ``rule`` selects left-point or mid-point evaluation of X (both converge
    to the same limit under refinement; tested, not assumed).
    """
    if x.beta + y.alpha <= 1.0:
        raise ValueError(
            f"Young condition violated: alpha + beta = {y.alpha} + {x.beta} <= 1"
        )
    if x.times.shape != y.times.shape or not np.allclose(x.times, y.times):
        raise ValueError("integrand and driver must share the time grid")
    if t is None:
        t = y.horizon
    i0 = _grid_index(y.times, s, "s")
    i1 = _grid_index(y.times, t, "t")
    if i1 < i0:
        raise ValueError("need s <= t")
    total = None
    for i in range(i0, i1):
        dy = y.values[i + 1] - y.values[i]
        if rule == "left":
            xi = x.values[i]
        elif rule == "mid":
            xi = 0.5 * (np.asarray(x.values[i]) + np.asarray(x.values[i + 1]))
        else:
            raise ValueError(f"unknown rule {rule!r}")
        term = _apply(xi, dy)
        total = term if total is None else total + term
    if total is None:
        z = _apply(x.values[i0], np.zeros(y.dim))
        return z
    return total


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

    A sweep over windows reports the max ratio as the empirical constant;
    nothing is asserted against a theoretical value of that constant.
    """
    integral = young_integral(x, y, s, t)
    i0 = _grid_index(y.times, s, "s")
    i1 = _grid_index(y.times, t, "t")
    y_st = y.values[i1] - y.values[i0]
    defect = float(np.linalg.norm(np.atleast_1d(integral - _apply(x.values[i0], y_st))))
    if norm_y is None:
        norm_y = holder_seminorm(y, y.alpha)
    if norm_x is None:
        norm_x = x.seminorm
    envelope = norm_y * norm_x * abs(t - s) ** (y.alpha + x.beta)
    if envelope == 0.0:
        return defect, 0.0
    return defect, defect / envelope


def check_integration_by_parts(x: SampledPath, y: SampledPath) -> float:
    """|X_T Y_T - X_0 Y_0 - int X dY - int Y dX| at the working mesh (scalar paths)."""
    if x.alpha + y.alpha <= 1.0:
        raise ValueError("Young condition alpha_X + alpha_Y > 1 violated")
    xv, yv = x.values[:, 0], y.values[:, 0]
    dx, dy = np.diff(xv), np.diff(yv)
    int_x_dy = np.sum(xv[:-1] * dy)
    int_y_dx = np.sum(yv[:-1] * dx)
    return float(abs(xv[-1] * yv[-1] - xv[0] * yv[0] - int_x_dy - int_y_dx))


def check_chain_rule(
    f: Callable[[np.ndarray], float],
    df: Callable[[np.ndarray], np.ndarray],
    x: SampledPath,
    gamma: float = 1.0,
) -> float:
    """|f(X_T) - f(X_0) - int Df(X) dX| for caller-declared Df Hölder index gamma."""
    if x.alpha * (1.0 + gamma) <= 1.0:
        raise ValueError("chain-rule condition alpha(1+gamma) > 1 violated")
    vals = x.values
    # Midpoint evaluation: the Young integral admits any evaluation point in
    # each partition interval, and the symmetric choice converges faster.
    grads = np.array([np.atleast_1d(df(v)) for v in vals], dtype=float)
    mid = 0.5 * (grads[:-1] + grads[1:])
    incs = np.diff(vals, axis=0)
    integral = float(np.sum(mid * incs))
    return float(abs(f(vals[-1]) - f(vals[0]) - integral))


def check_ito_wentzell(
    g0: Callable[[np.ndarray], np.ndarray],
    h: Callable[[float, np.ndarray], np.ndarray],
    y: SampledPath,
    x: SampledPath,
    box: float = 2.0 * np.pi,
    space_points: int = 256,
) -> float:
    """Residual of g_t(X_t) = g_0(X_0) + int h_s(X_s) dY_s + int D_x g_s(X_s) dX_s
    where g_t(x) := g_0(x) + int_0^t h_s(x) dY_s on a periodic spatial grid.

    Spatial derivatives are spectral and X is wrapped periodically into the
    box; scalar driver and scalar state path.
    """
    if y.dim != 1 or x.dim != 1:
        raise ValueError("scalar driver and state path expected")
    if x.times.shape != y.times.shape or not np.allclose(x.times, y.times):
        raise ValueError("paths must share the time grid")
    grid = Grid(box=box, m=space_points)
    nodes = grid.nodes()
    g = np.asarray(g0(nodes), dtype=float)
    xs = np.mod(x.values, box)
    yv = y.values[:, 0]
    n = y.steps

    total_h = 0.0
    total_dg = 0.0
    g_start = FieldInterpolant(g, grid)(xs[:1])[0]
    for i in range(n):
        dy = yv[i + 1] - yv[i]
        dx = x.values[i + 1, 0] - x.values[i, 0]
        h_i = np.asarray(h(float(y.times[i]), nodes), dtype=float)
        total_h += FieldInterpolant(h_i, grid)(xs[i : i + 1])[0] * dy
        # Midpoint evaluation in space for the dX integral (valid choice of
        # partition point; kills the second-order drift of the left sum).
        dg_pair = FieldInterpolant(g, grid)(xs[i : i + 2], derivative=0)
        total_dg += 0.5 * (dg_pair[0] + dg_pair[1]) * dx
        g = g + h_i * dy
    g_end = FieldInterpolant(g, grid)(xs[n:])[0]
    return float(abs(g_end - g_start - total_h - total_dg))
