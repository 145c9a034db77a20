"""Coupled particle/PDE convergence experiment.

One master noise path per seed drives both the fluid solver and every
particle run in the N sweep.  At uniform checkpoints the modulated energy
    Q_t^N = (1/N) sum_k |V^k - v(X^k, t)|^2 + ||S^N * phi_N^r - rho||_{L^2}^2
and the negative-order Besov distances ||S^N - rho|| and ||V^N - rho v||
are recorded; the decay of sup_t Q_t^N across N is then fitted against the
N^{-beta/d} envelope.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .besov import build_partition, deposit_nearest, negative_distance, require_lambda
from .fields import FluidState, Grid, SigmaField, nufft_type2, padded_spectrum, step_field
from .kernels import KernelFamily, RegimeError
from .noise import NoiseSpec, SampledPath, sample_fbm
from .particles import (
    ParticleEnsemble,
    empirical_density,
    init_from_fields,
    interaction_force,
    quantile_sides,
    sorted_sum,
    step,
)

__all__ = [
    "EnergyRecord",
    "ExperimentConfig",
    "RateReport",
    "energy_Q",
    "run_coupled",
    "simulate",
    "fit_rate",
    "emit_report",
    "CSV_COLUMNS",
]

CSV_COLUMNS = "seed,N,t,kinetic_term,density_term,Q,besov_S,besov_V,flags"

FLOOR_FRACTION = 0.5  # Q_0 above this share of sup Q flags floor contamination

KERNEL_CELLS = 16  # grid cells per kernel width for particle-mesh operations
MAX_GRID = 1 << 17  # most points m**d of any mesh


def _auto_grid(family: KernelFamily, n: int, box: float, minimum: int, which: str) -> int:
    """Power-of-two mesh size keeping KERNEL_CELLS cells per kernel width.

    The particle-mesh aliasing error scales like (h / width)^2, so the mesh
    must track the N^{beta/d} kernel concentration to keep the force and
    deposition errors below the physics being measured.  The side is capped
    so the mesh has at most MAX_GRID points.
    """
    m = max(minimum, int(np.ceil(KERNEL_CELLS * box / family.width(n, which))))
    cap = 1 << (MAX_GRID.bit_length() - 1) // family.dim
    return min(cap, 1 << (m - 1).bit_length())


@dataclass(frozen=True)
class EnergyRecord:
    """One evaluation of the modulated energy at a checkpoint."""

    t: float
    kinetic_term: float
    density_term: float

    @property
    def q(self) -> float:
        return self.kinetic_term + self.density_term


def _key(key: str, default):
    """A field set by the INI key ``key``, ``"section.key"``; its annotation
    (float, int, str or tuple, a list of ints) picks the converter."""
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one rate experiment (validated against the
    regime hypotheses at construction).  Each field declares its INI key;
    ``config`` parses and emits every field through that declaration."""

    hurst: float = _key("noise.hurst", 0.75)
    dim: int = _key("noise.dim", 1)
    horizon: float = _key("noise.horizon", 0.5)
    master_steps: int = _key("noise.steps", 1024)
    seeds: tuple = _key("noise.seeds", (0, 1, 2))
    box: float = _key("domain.box", 1.0)
    beta: float = _key("kernel.beta", 0.6)
    kernel_base: str = _key("kernel.base", "gaussian")  # the only base, kept in configs and hash
    kernel_bandwidth: float = _key("kernel.bandwidth", 0.05)
    n_sweep: tuple = _key("particles.n_list", (256, 512, 1024, 2048, 4096))
    force_backend: str = _key("particles.force_backend", "grid")
    force_grid: int = _key("particles.force_grid", 8192)  # minimum; the mesh adapts upward per N
    fine_grid: int = _key("analysis.fine_grid", 8192)  # minimum for the L^2 quadrature grid
    pde_resolution: int = _key("pde.resolution", 256)
    cfl: float = _key("pde.cfl", 0.5)
    vacuum_floor: float = _key("pde.vacuum_floor", 1e-3)
    sigma_amplitude: float = _key("sigma.amplitude", 0.2)
    sigma_modulation: float = _key("sigma.modulation", 0.5)
    eta: float = _key("analysis.eta", 2.0)
    q_hat: float = _key("analysis.q_hat", 2.0)
    besov_grid: int = _key("analysis.besov_grid", 16384)
    besov_lambda: float = _key("analysis.lambda", 1.35)
    checkpoints: int = _key("analysis.checkpoints", 16)
    rho0_amplitude: float = _key("domain.rho0_amplitude", 0.2)
    v0_amplitude: float = _key("domain.v0_amplitude", 0.1)
    init_strategy: str = _key("particles.init", "quantile")

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim={self.dim}: only d in {{1, 2}} is implemented")
        if self.kernel_base != "gaussian":
            raise ValueError(
                f"unknown base density {self.kernel_base!r}: the only base is gaussian "
                f"(the compact bump base was removed)"
            )
        if not self.seeds:
            raise ValueError("seeds must list at least one fBm seed")
        for name in ("seeds", "n_sweep"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} = {values} repeats a value; each must be listed once")
        # NoiseSpec, KernelFamily and the Besov lambda check their own bounds.
        for seed in self.seeds:
            self.noise_spec(seed)
        self.kernel()
        require_lambda(self.besov_lambda)
        if self.eta <= self.dim / 2 + 1:
            raise ValueError(
                f"hypothesis violated: eta > d/2 + 1 = {self.dim / 2 + 1} required"
            )
        if len(self.n_sweep) < 1 or any(n < 1 for n in self.n_sweep):
            raise ValueError("n_sweep must contain positive particle counts")
        if self.force_backend not in ("grid", "direct"):
            raise ValueError(f"force_backend must be grid or direct, got {self.force_backend!r}")
        if self.init_strategy not in ("quantile", "random"):
            raise ValueError(f"init must be quantile or random, got {self.init_strategy!r}")
        if self.init_strategy == "quantile":
            for n in self.n_sweep:
                sides = quantile_sides(n, self.dim)
                if max(sides) > 4 * min(sides):
                    raise ValueError(f"n={n}: quantile strata {' x '.join(map(str, sides))}, "
                                     "one side over 4 times another; pick an N near a square")
        if not 1 <= self.checkpoints <= self.master_steps:
            raise ValueError(f"checkpoints={self.checkpoints}: need 1 to [noise] "
                             f"steps={self.master_steps}, at most one per step")
        if self.cfl <= 0:
            raise ValueError(f"cfl={self.cfl}: the CFL number must be positive")
        if self.q_hat < 1:
            raise ValueError(f"q_hat={self.q_hat}: the Besov index must be at least 1")
        for name in ("pde_resolution", "besov_grid", "force_grid", "fine_grid"):
            m = getattr(self, name)
            if name in ("force_grid", "fine_grid"):  # minima that _auto_grid rounds up
                if m < 4:
                    raise ValueError(f"{name}={m}: a mesh needs at least 4 nodes per side")
                m = 1 << (m - 1).bit_length()
            if m**self.dim > MAX_GRID:
                raise ValueError(
                    f"{name}={getattr(self, name)}: a d={self.dim} mesh of {m}^{self.dim} "
                    f"points exceeds MAX_GRID={MAX_GRID}; set a smaller {name}"
                )
        for name in ("pde_resolution", "besov_grid"):
            try:
                Grid(box=self.box, m=getattr(self, name), dim=self.dim)
            except ValueError as exc:
                raise ValueError(f"{name}={getattr(self, name)}, box={self.box}: {exc}") from None
        if self.besov_grid < self.pde_resolution:
            raise ValueError(
                f"besov_grid={self.besov_grid} is below [pde] resolution={self.pde_resolution}: "
                f"the Besov targets are the PDE spectrum zero-padded onto the Besov mesh"
            )
        family = self.kernel()
        for n in self.n_sweep:
            fine_m = _auto_grid(family, n, self.box, self.fine_grid, "phi_r")
            if fine_m < self.pde_resolution:
                raise ValueError(
                    f"n={n}: the fine mesh of {fine_m} nodes per side (fine_grid="
                    f"{self.fine_grid}, adapted to the kernel) is below [pde] resolution="
                    f"{self.pde_resolution}: the energy's density is the PDE spectrum "
                    f"zero-padded onto the fine mesh"
                )
        if self.vacuum_floor < 0:
            raise ValueError(f"vacuum_floor={self.vacuum_floor}: the vacuum floor must be >= 0")
        rho_min = (1.0 - abs(self.rho0_amplitude)) / self.box**self.dim
        if rho_min <= self.vacuum_floor:
            raise ValueError(
                f"rho0_amplitude={self.rho0_amplitude}: the initial density falls to "
                f"{rho_min:.3g}, at or below vacuum_floor={self.vacuum_floor}"
            )

    def noise_spec(self, seed: int) -> NoiseSpec:
        return NoiseSpec(
            hurst=self.hurst,
            dim=self.dim,
            horizon=self.horizon,
            resolution=self.master_steps,
            seed=seed,
        )

    def kernel(self) -> KernelFamily:
        return KernelFamily(
            beta=self.beta,
            dim=self.dim,
            bandwidth=self.kernel_bandwidth,
        )

    def sigma(self) -> SigmaField:
        return SigmaField(amplitude=self.sigma_amplitude, modulation=self.sigma_modulation)

    def pde_grid(self) -> Grid:
        return Grid(box=self.box, m=self.pde_resolution, dim=self.dim)

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def initial_fields(self) -> tuple[np.ndarray, np.ndarray]:
        g = self.pde_grid()
        r = g.coordinate(0)
        rho0 = 1.0 + self.rho0_amplitude * np.sin(2.0 * np.pi * r / self.box)
        v0 = np.stack([self.v0_amplitude * np.cos(2.0 * np.pi * r / self.box)] * self.dim)
        rho0 = rho0 / (np.mean(rho0) * self.box**self.dim)
        return rho0, v0


@dataclass(frozen=True)
class RateReport:
    """Fitted rates and floor diagnostics for one experiment."""

    slope_q: float
    slope_q_stderr: float
    slope_besov_s_sq: float
    slope_besov_v_sq: float
    sup_q: dict
    q0: dict
    floor_flags: dict
    floor_limited: bool
    manifest: dict


def energy_Q(
    ens: ParticleEnsemble, fluid: FluidState, family: KernelFamily, fine_m: int
) -> EnergyRecord:
    """Modulated energy of the ensemble against the fluid state.

    Both terms read the fluid's carried half spectrum ``fluid.spectrum``:
    v at the particles is ``nufft_type2`` of its v rows.  The density term
    is the L^2 norm of S^N * phi_N^r - rho on fine_m nodes per side, by
    Parseval from the half spectra (``empirical_density`` less rho's row,
    padded), in a fixed order, so both terms are bitwise label-invariant.
    Any time mismatch is refused.
    """
    if ens.time != fluid.time:
        raise ValueError(f"time mismatch: particles at {ens.time!r}, fluid at {fluid.time!r}")
    g = fluid.grid
    v_at = nufft_type2(fluid.spectrum[1:], g, ens.positions)
    mism = np.sum((ens.velocities - v_at) ** 2, axis=1)
    kinetic = sorted_sum(mism) / ens.count

    fine = Grid(box=g.box, m=fine_m, dim=g.dim)
    # rho's spectrum first: in the other order about one run in five had glibc
    # trim a sweep thread's heap, and so re-fault it, at every force step.
    rho_k = padded_spectrum(fluid.spectrum[0], g, fine_m)
    diff = empirical_density(ens, family, fine) - rho_k
    power = float(np.sum(fine.half_weights * (diff.real**2 + diff.imag**2)))
    return EnergyRecord(ens.time, kinetic, power * g.box**g.dim / fine_m ** (2 * g.dim))


def _format_row(seed, n, rec: EnergyRecord, bs, bv, flags) -> str:
    return (
        f"{seed},{n},{rec.t:.17g},{rec.kinetic_term:.17g},{rec.density_term:.17g},"
        f"{rec.q:.17g},{bs:.17g},{bv:.17g},{flags}"
    )


def _master_dt(config: ExperimentConfig, path: SampledPath) -> float:
    """The step of the run's clock, the config's grid of ``master_steps`` steps
    on [0, horizon]; a path off that grid, by its own rule, is refused."""
    try:  # index refuses a time that is not on the path's grid
        if path.index(0.0) == 0 and path.steps == config.master_steps == path.index(config.horizon):
            return config.horizon / config.master_steps
    except ValueError:
        pass
    raise ValueError(
        f"the path runs {path.steps} steps on [{float(path.times[0])!r}, {path.horizon!r}], "
        f"but the config's grid is {config.master_steps} steps on [0, {config.horizon!r}]"
    )


def _fluid_trajectory(
    config: ExperimentConfig, path: SampledPath, checkpoint_idx: set
) -> dict[int, FluidState]:
    dt = _master_dt(config, path)
    g = config.pde_grid()
    rho0, v0 = config.initial_fields()
    state = FluidState(grid=g, rho=rho0, v=v0, time=0.0, vacuum_floor=config.vacuum_floor)
    sigma = config.sigma()
    snaps = {0: state}
    for i in range(config.master_steps):
        dy = path.values[i + 1] - path.values[i]
        try:
            state = step_field(state, dt, dy, sigma, cfl=config.cfl)
        except FloatingPointError as exc:
            msg = f"fluid at master step {i + 1} of {config.master_steps}: {exc}"
            raise FloatingPointError(msg) from exc
        if i + 1 in checkpoint_idx:
            snaps[i + 1] = state
    return snaps


def simulate(config: ExperimentConfig, n: int, path: SampledPath, seed: int, at: set):
    """Evolve N particles on the master path of fBm seed ``seed``.

    Yields ``(i, ensemble)`` after each step index i in ``at`` (0 is the
    initial ensemble).  ``init = random`` draws its positions from a
    generator seeded by (seed, N), so every run is reproducible.  A path off
    the config's grid is a ``ValueError`` at the first ``next``.
    """
    dt = _master_dt(config, path)
    family = config.kernel()
    sigma = config.sigma()
    rho0, v0 = config.initial_fields()
    ens = init_from_fields(
        rho0, v0, n, config.pde_grid(), strategy=config.init_strategy, seed=[seed, n]
    )
    backend = config.force_backend
    grid_m = None
    if backend == "grid":
        grid_m = _auto_grid(family, n, config.box, config.force_grid, "phi")
    accel = interaction_force(ens, family, backend, grid_m)
    if 0 in at:
        yield 0, ens
    for i in range(config.master_steps):
        dy = path.values[i + 1] - path.values[i]
        ens, accel = step(ens, dt, family, dy, sigma, backend=backend, grid_m=grid_m, accel=accel)
        if i + 1 in at:
            yield i + 1, ens


def _cores() -> int:
    """CPUs this process may run on: the size of the sweep's thread pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def run_coupled(config: ExperimentConfig, csv_sink=None):
    """Run the full sweep; returns per-(seed, N) row dicts and streams CSV rows.

    A particle run that fails numerically (``FloatingPointError``) or is out
    of regime at its N (``RegimeError``) is recorded as ``aborted:<class>``,
    on each row it wrote too, and the sweep goes on; a failure of the seed's
    fBm factorization or of its fluid (vacuum, CFL, non-finite state)
    invalidates the seed and propagates with the seed in its message, and a
    fluid failure with its master step too; any other error propagates too,
    and the particle runs that have not started then never start.

    Each seed's particle runs are independent given its noise path and
    fluid trajectory, so they run on a pool of threads, largest N first
    (numpy's FFTs release the interpreter lock, so the largest N, whose
    force meshes are largest, gains most); rows are written in sweep order,
    so the output does not depend on the pool size.
    """
    # Imported here, not paid by `import holderflow`.
    from concurrent.futures import ThreadPoolExecutor, as_completed

    family = config.kernel()
    steps, count = config.master_steps, config.checkpoints
    checkpoint_idx = {j * steps // count for j in range(count + 1)}

    bg = Grid(box=config.box, m=config.besov_grid, dim=config.dim)
    part = build_partition(bg, lam=config.besov_lambda)
    results = []

    if csv_sink is not None:
        csv_sink.write(f"# holderflow-run,config_hash={config.config_hash()}\n")
        csv_sink.write(CSV_COLUMNS + "\n")

    failed = threading.Event()

    def particle_run(seed, n, path, snaps):
        if failed.is_set():  # dequeued after another run raised
            return None
        rows = []
        try:
            fine_m = _auto_grid(family, n, config.box, config.fine_grid, "phi_r")
            for i, ens in simulate(config, n, path, seed, checkpoint_idx):
                rows.append(_checkpoint_row(config, ens, family, snaps[i], part, fine_m))
        except (FloatingPointError, RegimeError) as exc:
            return rows, f"aborted:{type(exc).__name__}"
        except BaseException:
            failed.set()
            raise
        return rows, "ok"

    pool = ThreadPoolExecutor(max_workers=min(_cores(), len(config.n_sweep)))
    try:
        for seed in config.seeds:
            try:
                path = sample_fbm(config.noise_spec(seed))
                snaps = _fluid_trajectory(config, path, checkpoint_idx)
            except FloatingPointError as exc:
                raise FloatingPointError(f"seed {seed}, {exc}") from exc
            runs = {
                n: pool.submit(particle_run, seed, n, path, snaps)
                for n in sorted(config.n_sweep, reverse=True)
            }
            for run in as_completed(runs.values()):
                run.result()  # a programming error propagates at once
            for n in config.n_sweep:
                rows, flag = runs[n].result()
                if csv_sink is not None:
                    for row in rows:
                        csv_sink.write(_format_row(seed, n, *row, flag) + "\n")
                results.append(
                    {
                        "seed": seed,
                        "n": n,
                        "records": [r[0] for r in rows],
                        "besov_s": [r[1] for r in rows],
                        "besov_v": [r[2] for r in rows],
                        "flag": flag,
                    }
                )
    finally:
        pool.shutdown(cancel_futures=True)
    return results


def _checkpoint_row(config, ens, family, fluid, part, fine_m):
    rec = energy_Q(ens, fluid, family, fine_m)
    g, bg = fluid.grid, part.grid
    # The targets rho and rho v: their half spectra padded to the Besov mesh,
    # rho's carried by the fluid state.
    spectra = np.concatenate([fluid.spectrum[:1], g.rfft(fluid.rho * fluid.v)])
    dist = []
    for w, target in zip([None, *ens.velocities.T], padded_spectrum(spectra, g, bg.m)):
        spectrum = bg.rfft(deposit_nearest(ens.positions, bg, w)) - target
        dist.append(negative_distance(spectrum, config.eta, config.q_hat, part))
    return rec, dist[0], float(np.sqrt(sum(b**2 for b in dist[1:])))


def _slope(values: dict, subset) -> tuple[float, float]:
    """Least-squares slope of log values[n] against log n over ``subset`` and
    its standard error, NaN below 3 points."""
    x = np.log(np.array(subset, dtype=float))
    y = np.log(np.array([max(values[n], 1e-300) for n in subset]))
    if len(subset) < 3:
        return float(np.polyfit(x, y, 1)[0]), float("nan")
    coef, cov = np.polyfit(x, y, 1, cov=True)
    return float(coef[0]), float(np.sqrt(cov[0, 0]))


def fit_rate(results: list, config: ExperimentConfig) -> RateReport:
    """Least-squares log-log slope of sup_t Q versus N, floor-aware.

    N values where the initial energy exceeds half of sup_t Q are flagged
    and excluded from the fit; slopes for the squared Besov distances at
    t = T are fitted on the same N subset.
    """
    ok = sorted((row for row in results if row["flag"] == "ok" and row["records"]),
                key=lambda row: (row["n"], row["seed"]))
    ns = sorted({row["n"] for row in ok})

    def seed_mean(value) -> dict:
        """Mean over the seeds of ``value(row)`` per N, summed in seed order."""
        return {n: np.mean([value(row) for row in ok if row["n"] == n]) for n in ns}

    sup_q = {(row["seed"], row["n"]): max(r.q for r in row["records"]) for row in ok}
    mean_sup = seed_mean(lambda row: sup_q[row["seed"], row["n"]])
    mean_q0 = seed_mean(lambda row: row["records"][0].q)
    floor_flags = {n: mean_q0[n] > FLOOR_FRACTION * mean_sup[n] for n in ns}
    clean = [n for n in ns if not floor_flags[n]]
    floor_limited = len(clean) < 2

    if floor_limited:
        slope = err = sbs = sbv = float("nan")
    else:
        slope, err = _slope(mean_sup, clean)
        sbs, _ = _slope(seed_mean(lambda row: row["besov_s"][-1] ** 2), clean)
        sbv, _ = _slope(seed_mean(lambda row: row["besov_v"][-1] ** 2), clean)

    manifest = {
        "config_hash": config.config_hash(),
        "seeds": list(config.seeds),
        "n_sweep": list(config.n_sweep),
        "beta": config.beta,
        "hurst": config.hurst,
        "dim": config.dim,
        "rate_envelope": -config.beta / config.dim,
        "version": 1,
    }
    return RateReport(
        slope_q=slope,
        slope_q_stderr=err,
        slope_besov_s_sq=sbs,
        slope_besov_v_sq=sbv,
        sup_q={str(k): v for k, v in sup_q.items()},
        q0={str((row["seed"], row["n"])): row["records"][0].q for row in ok},
        floor_flags={str(n): bool(f) for n, f in floor_flags.items()},
        floor_limited=floor_limited,
        manifest=manifest,
    )


def _null_if_not_finite(x):
    """``x`` with every non-finite float in its dicts and lists made None."""
    if isinstance(x, dict):
        return {k: _null_if_not_finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_null_if_not_finite(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def emit_report(report: RateReport, json_path) -> None:
    """Strict JSON summary with the run manifest, byte-deterministic given
    inputs; an undefined (NaN) slope or standard error is written ``null``."""
    text = json.dumps(_null_if_not_finite(asdict(report)), sort_keys=True, indent=2,
                      allow_nan=False)
    if hasattr(json_path, "write"):
        json_path.write(text)
    else:
        with open(json_path, "w") as fh:
            fh.write(text)
