"""Exact fractional Brownian motion sampling and Hölder-path utilities.

Paths are sampled on a uniform grid and are exact in distribution at the
grid points.  The resolution alone picks one of two samplers.  Up to
``CHOLESKY_MAX_STEPS`` steps, the Cholesky sampler returns L z with L the
Cholesky factor of the fBm covariance, applied without forming it: the
Durbin-Levinson (Hosking) recursion on the fractional Gaussian noise
autocovariance, in O(M^2) time.  Above it, Davies-Harte is circulant
embedding of the increment process, in O(M log M).  Both are exact; the
test suite checks each against the fGn autocovariance.  Paths that share
(H, M) share one sampler pass over their stacked rows (``sample_fbm_paths``).
"""

from __future__ import annotations

import io
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseSpec",
    "SampledPath",
    "sample_fbm",
    "sample_fbm_paths",
    "holder_seminorm",
    "estimate_holder_exponent",
    "restrict",
    "save_path",
    "load_path",
]

# The recursion is O(M^2); switch to the FFT sampler above this.  The two
# samplers give different realizations of one seed, so moving this bound
# changes which path a seed gives.
CHOLESKY_MAX_STEPS = 4096

# fBm paths are a-Hölder for every a < H but not a = H; a fixed offset
# keeps downstream Young-condition checks (a + b > 1) concrete.
ALPHA_OFFSET = 0.01


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of one fBm realization: Hurst index, dimension, horizon,
    number of uniform steps and RNG seed."""

    hurst: float
    dim: int = 1
    horizon: float = 1.0
    resolution: int = 1024
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.5 < self.hurst < 1.0:
            raise ValueError(
                f"hypothesis violated: alpha > 1/2 requires hurst in (1/2, 1), got {self.hurst}"
            )
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed}: an fBm seed must be a non-negative integer")


@dataclass(frozen=True)
class SampledPath:
    """A d-vector path on a uniform time grid with a nominal Hölder exponent.

    ``values`` has shape (M+1, d) with M >= 1 and starts at the origin; any
    other shape is refused where the path is built.  The owner of the grid
    rule: two times are equal within ``64 * eps * max(|t_0|, |t_M|)``, every
    step of ``times`` equals the first, which is positive, and ``index`` and
    ``require_same_grid`` compare times by the same tolerance.
    """

    times: np.ndarray
    values: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 2 or times.shape != values.shape[:1]:
            raise ValueError(
                "path values must be an array of shape (M+1, d) with M >= 1 on "
                f"M+1 times, got values {values.shape} on times {times.shape}"
            )
        object.__setattr__(self, "times", times)
        step = np.diff(times)
        if not (step[0] > 0 and np.all(np.abs(step - step[0]) <= self._tolerance)):
            raise ValueError(f"times must be uniform and strictly increasing, got steps "
                             f"from {np.min(step):.17g} to {np.max(step):.17g}")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")
        if not np.all(values[0] == 0.0):
            raise ValueError("paths must start at the origin")
        object.__setattr__(self, "values", values)

    @property
    def _tolerance(self) -> float:
        return 64 * np.finfo(float).eps * max(abs(self.times[0]), abs(self.times[-1]))

    def index(self, t: float, name: str = "t") -> int:
        """The index of the grid time ``t``; a time off the grid is a
        ``ValueError`` naming ``name``."""
        # In Python floats a NaN, an inf or an overflow fails the range test silently.
        i = np.rint((float(t) - float(self.times[0])) / self.dt)
        if not (0 <= i <= self.steps and abs(self.times[int(i)] - t) <= self._tolerance):
            raise ValueError(f"{name}={t!r} is not a time of the path's grid")
        return int(i)

    def require_same_grid(self, other: SampledPath) -> None:
        """Refuse ``other`` with a ``ValueError`` unless it has as many steps
        and its times equal these within the tolerance."""
        if other.steps != self.steps or np.any(np.abs(other.times - self.times) > self._tolerance):
            raise ValueError("paths must share the time grid")

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def steps(self) -> int:
        return self.times.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def fbm_covariance(t: np.ndarray, s: np.ndarray, hurst: float) -> np.ndarray:
    """E B_t B_s = (t^{2H} + s^{2H} - |t-s|^{2H}) / 2."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * (t**h2 + s**h2 - np.abs(t - s) ** h2)


def _fgn_autocovariance(n: int, hurst: float) -> np.ndarray:
    """gamma(k) = E X_0 X_k of unit-step fractional Gaussian noise, k = 0..n."""
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(k + 1) ** h2 + np.abs(k - 1) ** h2 - 2.0 * k**h2)


def _durbin_levinson(fgn: np.ndarray, hurst: float) -> np.ndarray:
    """Replace the innovations z in each row of ``fgn`` by fractional Gaussian
    noise x = chol(G) z, in place and returned, by the Durbin-Levinson recursion.

    The fBm covariance is C G C^T with C the cumulative-sum matrix and G the
    Toeplitz covariance of the increments, so its Cholesky factor is C
    chol(G).  The recursion applies chol(G) row by row: increment x_j is its
    best linear prediction from x_{j-1}, ..., x_0 with coefficients
    phi_{j,1}, ..., phi_{j,j}, plus sqrt(v_j) z_j, where v_j is the
    prediction-error variance.  The coefficients depend only on (H, M), so
    one pass serves every row.  The sums run in ``einsum``, not BLAS, so a
    row's bytes depend neither on the other rows nor on the BLAS thread
    count.
    """
    n = fgn.shape[1]
    gamma = _fgn_autocovariance(n, hurst)
    # fgn[:, j] holds z_j until it is replaced by x_j.  weights[n-j:] holds
    # phi_{j,j}, ..., phi_{j,1}, sqrt(v_j), the weights of x_0, ..., x_{j-1}, z_j,
    # so both sums below read contiguous arrays.
    weights = np.empty(n + 1)
    var = gamma[0]
    fgn[:, 0] *= math.sqrt(var)
    for j in range(1, n):
        prev = weights[n - j + 1:n]
        kappa = (gamma[j] - np.einsum("i,i", prev, gamma[1:j])) / var
        prev -= kappa * prev[::-1]
        weights[n - j] = kappa
        var *= 1.0 - kappa * kappa
        if not (var > 0.0 and math.isfinite(var)):  # numerical degeneracy, not expected
            raise RuntimeError(
                f"fBm covariance factorization failed for H={hurst}, "
                f"M={n}: innovation variance {var:.3e} at step {j}"
            )
        weights[n] = math.sqrt(var)
        fgn[:, j] = np.einsum("qi,i->q", fgn[:, :j + 1], weights[n - j:])
    return fgn


def _fgn_circulant_eigs(n: int, hurst: float) -> np.ndarray:
    gamma = _fgn_autocovariance(n, hurst)
    row = np.concatenate([gamma[: n], gamma[n:n + 1], gamma[n - 1:0:-1]])
    eigs = np.fft.fft(row).real
    if np.min(eigs) < 0:
        raise RuntimeError(
            f"circulant embedding produced negative eigenvalues for "
            f"H={hurst}, M={n} (min {np.min(eigs):.3e})"
        )
    return eigs


def _davies_harte(z: np.ndarray, hurst: float) -> np.ndarray:
    """Fractional Gaussian noise rows of M steps from innovation rows z of 2M
    standard normals, by one ``ifft`` over the rows of sqrt(eigs) w, with
    w the Hermitian white noise whose w_0, w_M are z_0, z_1 and whose w_1,
    ..., w_{M-1} take their real and imaginary parts from the rest of z."""
    n = z.shape[1] // 2
    eigs = _fgn_circulant_eigs(n, hurst)
    w = np.empty((z.shape[0], 2 * n), dtype=complex)
    w[:, 0] = z[:, 0]
    w[:, n] = z[:, 1]
    w[:, 1:n] = (z[:, 2::2] + 1j * z[:, 3::2]) / np.sqrt(2.0)
    w[:, n + 1:] = np.conj(w[:, n - 1:0:-1])
    w *= np.sqrt(eigs)
    return np.fft.ifft(w).real[:, :n] * np.sqrt(2 * n)


def sample_fbm_paths(specs: Iterable[NoiseSpec]) -> list[SampledPath]:
    """``sample_fbm`` of every spec, in spec order, with one sampler pass per
    (hurst, resolution).

    Each spec draws d rows of innovations from its own ``default_rng(seed)``;
    the sampler runs once over the stacked rows of a group, so each path is
    bitwise the path ``sample_fbm`` gives alone.  A group's memory is its
    stacked rows: M floats per row for Cholesky, 2M complex for Davies-Harte.
    """
    specs = list(specs)
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((spec.hurst, spec.resolution), []).append(i)
    paths = [None] * len(specs)
    for (hurst, n), members in groups.items():
        sampler, width = (_davies_harte, 2 * n) if n > CHOLESKY_MAX_STEPS else (_durbin_levinson, n)
        dims = [specs[i].dim for i in members]
        fgn = sampler(np.concatenate([
            np.random.default_rng(specs[i].seed).standard_normal((d, width))
            for i, d in zip(members, dims)
        ]), hurst)
        for i, rows in zip(members, np.split(fgn, np.cumsum(dims)[:-1])):
            values = np.zeros((n + 1, specs[i].dim))
            values[1:] = np.cumsum(rows, axis=1).T * (specs[i].horizon / n) ** hurst
            times = np.linspace(0.0, specs[i].horizon, n + 1)
            paths[i] = SampledPath(times=times, values=values, alpha=hurst - ALPHA_OFFSET)
    return paths


def sample_fbm(spec: NoiseSpec) -> SampledPath:
    """One realization of d independent fBm components on the uniform grid.

    Exact in distribution at grid points; deterministic given the seed.  The
    Cholesky sampler is used up to ``CHOLESKY_MAX_STEPS`` steps, Davies-Harte
    above.  Paths that share (H, M) are cheaper together, through
    ``sample_fbm_paths``.
    """
    return sample_fbm_paths([spec])[0]


def _sup_increment(values: np.ndarray, lag: int) -> float:
    """max over i of |values[i + lag] - values[i]|, the Euclidean norm of a row."""
    diff = values[lag:] - values[:-lag]
    return np.sqrt(np.max(np.sum(diff * diff, axis=1)))


def holder_seminorm(path: SampledPath, alpha: float) -> float:
    """sup over grid pairs s < t of |phi_t - phi_s| / (t - s)^alpha.

    Exact O(M^2) scan, vectorized over lags.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    dt = path.dt
    best = 0.0
    for lag in range(1, path.steps + 1):
        best = max(best, _sup_increment(path.values, lag) / (lag * dt) ** alpha)
    return best


def estimate_holder_exponent(path: SampledPath, max_lag_fraction: int = 64) -> float:
    """Slope of log sup-increment versus log lag over dyadic lags.

    The sup of ~M/lag effective Gaussian increments carries a
    sqrt(2 log(M/lag)) extreme-value factor that would bias the raw slope
    low; each sup is divided by it before the regression.  Lags are capped
    at M / max_lag_fraction where the sup is still well sampled.  The
    estimate is noisy on a single path (scatter ~0.05); average over
    several independent paths for a tight check.
    """
    m = path.steps
    lags, sups = [], []
    lag = 1
    while lag <= m // max_lag_fraction:
        sups.append(_sup_increment(path.values, lag) / np.sqrt(2.0 * np.log(2.0 * m / lag)))
        lags.append(lag * path.dt)
        lag *= 2
    if len(lags) < 2:
        raise ValueError(
            f"need at least 2 dyadic lags, i.e. M >= 2 * max_lag_fraction = "
            f"{2 * max_lag_fraction} steps, got M = {m}"
        )
    slope, _ = np.polyfit(np.log(lags), np.log(sups), 1)
    return float(slope)


def restrict(path: SampledPath, stride: int) -> SampledPath:
    """Subsample every ``stride``-th grid point (same realization, coarser grid)."""
    if stride < 1 or path.steps % stride != 0:
        raise ValueError(f"stride {stride} does not divide {path.steps} steps")
    return SampledPath(
        times=path.times[::stride].copy(),
        values=path.values[::stride].copy(),
        alpha=path.alpha,
    )


def save_path(path: SampledPath, file, spec: NoiseSpec | None = None) -> None:
    """CSV export with a replayability header (H/alpha, T, M, seed, d)."""
    hdr = (
        f"# holderflow-path,alpha={path.alpha!r},T={path.horizon!r},"
        f"M={path.steps},d={path.dim}"
    )
    if spec is not None:
        hdr += f",hurst={spec.hurst!r},seed={spec.seed}"
    cols = ",".join(f"y{q}" for q in range(path.dim))
    data = np.column_stack([path.times, path.values])
    buf = io.StringIO()
    np.savetxt(buf, data, delimiter=",", fmt="%.17g", header=f"t,{cols}", comments="")
    text = hdr + "\n" + buf.getvalue()
    if hasattr(file, "write"):
        file.write(text)
    else:
        with open(file, "w") as fh:
            fh.write(text)


def _header_items(source, items) -> dict:
    """The ``key=value`` items of a file header as a dict; any other item is
    a ``ValueError`` naming ``source``."""
    bad = [item for item in items if "=" not in item]
    if bad:
        raise ValueError(f"{source}: malformed header item {bad[0]!r}, expected key=value")
    return dict(item.split("=", 1) for item in items)


def load_path(file) -> SampledPath:
    """Read back a ``save_path`` file; a malformed header, or a table whose M,
    d or T is not the header's, is a ``ValueError`` naming the file."""
    if hasattr(file, "read"):
        source = getattr(file, "name", "path stream")
        text = file.read()
    else:
        source = file
        with open(file) as fh:
            text = fh.read()
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# holderflow-path"):
        raise ValueError(f"{source} is not a holderflow path file")
    meta = _header_items(source, lines[0].split(",")[1:])
    header = {}
    try:
        for key in ("alpha", "M", "d", "T"):
            header[key] = float(meta[key])
    except (KeyError, ValueError):
        raise ValueError(f"{source}: a path header needs a numeric {key}, got {meta}") from None
    data = np.loadtxt(io.StringIO("\n".join(lines[2:])), delimiter=",", ndmin=2)
    path = SampledPath(times=data[:, 0], values=data[:, 1:], alpha=header["alpha"])
    for key, found in (("M", path.steps), ("d", path.dim), ("T", path.horizon)):
        if header[key] != found:
            raise ValueError(f"{source}: the header has {key}={meta[key]}, "
                             f"but the table has {key}={found!r}")
    return path
