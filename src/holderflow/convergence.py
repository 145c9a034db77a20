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
from dataclasses import asdict, dataclass, fields

import numpy as np

from .besov import build_partition, deposit_nearest, negative_distance
from .fields import (
    FieldInterpolant,
    FluidState,
    Grid,
    SigmaField,
    step_field,
    upsample,
)
from .kernels import KernelFamily, RegimeError
from .noise import NoiseSpec, SampledPath, sample_fbm
from .particles import (
    ForceMesh,
    ParticleEnsemble,
    empirical_density,
    init_from_fields,
    interaction_force,
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
    return min(cap, 1 << int(np.ceil(np.log2(m))))


@dataclass(frozen=True)
class EnergyRecord:
    """One evaluation of the modulated energy at a checkpoint."""

    t: float
    kinetic_term: float
    density_term: float

    @property
    def q(self) -> float:
        return self.kinetic_term + self.density_term


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one rate experiment (validated against the
    regime hypotheses at construction)."""

    hurst: float = 0.75
    dim: int = 1
    horizon: float = 0.5
    master_steps: int = 1024
    seeds: tuple = (0, 1, 2)
    box: float = 1.0
    beta: float = 0.6
    kernel_base: str = "gaussian"
    kernel_bandwidth: float = 0.05
    n_sweep: tuple = (256, 512, 1024, 2048, 4096)
    force_backend: str = "grid"
    force_grid: int = 8192  # minimum; the mesh adapts upward per N
    fine_grid: int = 8192  # minimum for the L^2 quadrature grid
    pde_resolution: int = 256
    cfl: float = 0.5
    vacuum_floor: float = 1e-3
    sigma_amplitude: float = 0.2
    sigma_modulation: float = 0.5
    eta: float = 2.0
    q_hat: float = 2.0
    besov_grid: int = 16384
    besov_lambda: float = 1.35
    checkpoints: int = 16
    rho0_amplitude: float = 0.2
    v0_amplitude: float = 0.1
    init_strategy: str = "quantile"

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim={self.dim}: only d in {{1, 2}} is implemented")
        if not self.seeds:
            raise ValueError("seeds must list at least one fBm seed")
        # NoiseSpec and KernelFamily check their own bounds.
        self.noise_spec(self.seeds[0])
        self.kernel()
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
        if self.checkpoints < 1:
            raise ValueError(f"checkpoints={self.checkpoints}: need at least 1")
        if self.cfl <= 0:
            raise ValueError(f"cfl={self.cfl}: the CFL number must be positive")
        if self.q_hat < 1:
            raise ValueError(f"q_hat={self.q_hat}: the Besov index must be at least 1")
        for name in ("pde_resolution", "besov_grid", "force_grid", "fine_grid"):
            m = getattr(self, name)
            if m**self.dim > MAX_GRID:
                raise ValueError(
                    f"{name}={m}: a d={self.dim} mesh of {m}^{self.dim} points exceeds "
                    f"MAX_GRID={MAX_GRID}; set a smaller {name}"
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
            base=self.kernel_base,
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
    ens: ParticleEnsemble,
    fluid: FluidState,
    family: KernelFamily,
    fine_m: int,
    rho_fine: np.ndarray | None = None,
    v_interp: list | None = None,
) -> EnergyRecord:
    """Modulated energy of the ensemble against the fluid state.

    The density term is an L^2 quadrature on a fine grid that resolves
    phi_N^r; rho is spectrally upsampled onto it.  Reductions run in sorted
    order for label invariance.
    """
    if abs(ens.time - fluid.time) > 1e-9:
        raise ValueError(f"time mismatch: particles at {ens.time}, fluid at {fluid.time}")
    g = fluid.grid
    if v_interp is None:
        v_interp = [FieldInterpolant(fluid.v[q], g) for q in range(g.dim)]
    v_at = np.stack([itp(ens.positions) for itp in v_interp], axis=-1)
    mism = np.sum((ens.velocities - v_at) ** 2, axis=1)
    kinetic = sorted_sum(mism) / ens.count

    fine = Grid(box=g.box, m=fine_m, dim=g.dim)
    emp = empirical_density(ens, family, fine)
    if rho_fine is None:
        rho_fine = upsample(fluid.rho, g, fine_m)
    diff2 = (emp - rho_fine) ** 2
    density = sorted_sum(diff2) / diff2.size * g.box**g.dim
    return EnergyRecord(t=ens.time, kinetic_term=kinetic, density_term=density)


def _format_row(seed, n, rec: EnergyRecord, bs, bv, flags) -> str:
    return (
        f"{seed},{n},{rec.t:.17g},{rec.kinetic_term:.17g},{rec.density_term:.17g},"
        f"{rec.q:.17g},{bs:.17g},{bv:.17g},{flags}"
    )


def _fluid_trajectory(
    config: ExperimentConfig, path: SampledPath, checkpoint_idx: np.ndarray
) -> dict[int, FluidState]:
    g = config.pde_grid()
    rho0, v0 = config.initial_fields()
    state = FluidState(
        grid=g, rho=rho0, v=v0, time=0.0, vacuum_floor=config.vacuum_floor
    )
    sigma = config.sigma()
    dt = config.horizon / config.master_steps
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
    generator seeded by (seed, N), so every run is reproducible.
    """
    family = config.kernel()
    sigma = config.sigma()
    dt = config.horizon / config.master_steps
    rho0, v0 = config.initial_fields()
    ens = init_from_fields(
        rho0, v0, n, config.pde_grid(), strategy=config.init_strategy, seed=[seed, n]
    )
    backend = config.force_backend
    grid_m = mesh = None
    if backend == "grid":
        grid_m = _auto_grid(family, n, config.box, config.force_grid, "phi")
        mesh = ForceMesh(family, n, Grid(box=config.box, m=grid_m, dim=config.dim))
    accel = interaction_force(ens, family, backend, grid_m, mesh=mesh)
    if 0 in at:
        yield 0, ens
    for i in range(config.master_steps):
        dy = path.values[i + 1] - path.values[i]
        ens, accel = step(
            ens, dt, family, dy, sigma, backend=backend, grid_m=grid_m, accel=accel, mesh=mesh
        )
        if i + 1 in at:
            yield i + 1, ens


def run_coupled(config: ExperimentConfig, csv_sink=None):
    """Run the full sweep; returns per-(seed, N) row dicts and streams CSV rows.

    A particle run that fails numerically (``FloatingPointError``) or is out
    of regime at its N (``RegimeError``) is recorded as ``aborted:<class>``
    and the sweep goes on; a fluid failure (vacuum, CFL, non-finite state)
    invalidates the seed and propagates with the seed and master step in its
    message; any other error propagates too.
    """
    family = config.kernel()
    stride = max(1, config.master_steps // config.checkpoints)
    checkpoint_idx = set(range(0, config.master_steps + 1, stride))
    checkpoint_idx.add(config.master_steps)

    bg = Grid(box=config.box, m=config.besov_grid, dim=config.dim)
    part = build_partition(bg, lam=config.besov_lambda)
    results = []

    if csv_sink is not None:
        csv_sink.write(f"# holderflow-run,config_hash={config.config_hash()}\n")
        csv_sink.write(CSV_COLUMNS + "\n")

    for seed in config.seeds:
        path = sample_fbm(config.noise_spec(seed))
        try:
            snaps = _fluid_trajectory(config, path, checkpoint_idx)
        except FloatingPointError as exc:
            raise FloatingPointError(f"seed {seed}, {exc}") from exc
        # Cache fluid fields on the comparison grids per checkpoint.
        cache = {}
        for idx, st in snaps.items():
            g = st.grid
            v_interp = [FieldInterpolant(st.v[q], g) for q in range(g.dim)]
            rho_besov = upsample(st.rho, g, config.besov_grid)
            mom_besov = np.stack(
                [upsample(st.rho * st.v[q], g, config.besov_grid) for q in range(g.dim)]
            )
            cache[idx] = (st, v_interp, rho_besov, mom_besov)

        for n in config.n_sweep:
            fine_m = _auto_grid(family, n, config.box, config.fine_grid, "phi_r")
            rows = []
            flag = "ok"
            try:
                for i, ens in simulate(config, n, path, seed, checkpoint_idx):
                    rows.append(_checkpoint_row(config, ens, family, cache[i], part, fine_m))
            except (FloatingPointError, RegimeError) as exc:
                flag = f"aborted:{type(exc).__name__}"
            for seed_row in rows:
                line = _format_row(seed, n, *seed_row)
                if csv_sink is not None:
                    csv_sink.write(line + "\n")
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
    return results


def _checkpoint_row(config, ens, family, cached, part, fine_m):
    fluid, v_interp, rho_besov, mom_besov = cached
    rho_fine = upsample(fluid.rho, fluid.grid, fine_m)
    rec = energy_Q(ens, fluid, family, fine_m, rho_fine, v_interp)
    bg = part.grid
    dep_s = deposit_nearest(ens.positions, bg)
    bs = negative_distance(dep_s, rho_besov, config.eta, config.q_hat, part)
    bv = 0.0
    for q in range(config.dim):
        dep_v = deposit_nearest(ens.positions, bg, weights=ens.velocities[:, q])
        bv += negative_distance(dep_v, mom_besov[q], config.eta, config.q_hat, part) ** 2
    return rec, bs, float(np.sqrt(bv)), "ok"


def fit_rate(results: list, config: ExperimentConfig) -> RateReport:
    """Least-squares log-log slope of sup_t Q versus N, floor-aware.

    N values where the initial energy exceeds half of sup_t Q are flagged
    and excluded from the fit; slopes for the squared Besov distances at
    t = T are fitted on the same N subset.
    """
    sup_q: dict = {}
    q0: dict = {}
    bs_T: dict = {}
    bv_T: dict = {}
    for row in results:
        if row["flag"] != "ok" or not row["records"]:
            continue
        key = (row["seed"], row["n"])
        sup_q[key] = max(r.q for r in row["records"])
        q0[key] = row["records"][0].q
        bs_T[key] = row["besov_s"][-1]
        bv_T[key] = row["besov_v"][-1]

    ns = sorted({n for (_, n) in sup_q})
    seeds = sorted({s for (s, _) in sup_q})
    mean_sup = {n: np.mean([sup_q[(s, n)] for s in seeds if (s, n) in sup_q]) for n in ns}
    mean_q0 = {n: np.mean([q0[(s, n)] for s in seeds if (s, n) in q0]) for n in ns}
    floor_flags = {n: mean_q0[n] > FLOOR_FRACTION * mean_sup[n] for n in ns}
    clean = [n for n in ns if not floor_flags[n]]
    floor_limited = len(clean) < 2

    def _slope(values: dict, subset):
        x = np.log(np.array(subset, dtype=float))
        y = np.log(np.array([max(values[n], 1e-300) for n in subset]))
        coef, cov = np.polyfit(x, y, 1, cov=True) if len(subset) > 2 else (
            np.polyfit(x, y, 1),
            np.full((2, 2), np.nan),
        )
        return float(coef[0]), float(np.sqrt(cov[0, 0]))

    if floor_limited:
        slope, err = float("nan"), float("nan")
        sbs = sbv = float("nan")
    else:
        slope, err = _slope(mean_sup, clean)
        mean_bs2 = {
            n: np.mean([bs_T[(s, n)] ** 2 for s in seeds if (s, n) in bs_T]) for n in ns
        }
        mean_bv2 = {
            n: np.mean([bv_T[(s, n)] ** 2 for s in seeds if (s, n) in bv_T]) for n in ns
        }
        sbs, _ = _slope(mean_bs2, clean)
        sbv, _ = _slope(mean_bv2, clean)

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
        q0={str(k): v for k, v in q0.items()},
        floor_flags={str(n): bool(f) for n, f in floor_flags.items()},
        floor_limited=floor_limited,
        manifest=manifest,
    )


def emit_report(report: RateReport, json_path) -> None:
    """JSON summary with the run manifest; byte-deterministic given inputs."""
    payload = {
        "slope_q": report.slope_q,
        "slope_q_stderr": report.slope_q_stderr,
        "slope_besov_s_sq": report.slope_besov_s_sq,
        "slope_besov_v_sq": report.slope_besov_v_sq,
        "sup_q": report.sup_q,
        "q0": report.q0,
        "floor_flags": report.floor_flags,
        "floor_limited": report.floor_limited,
        "manifest": report.manifest,
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if hasattr(json_path, "write"):
        json_path.write(text)
    else:
        with open(json_path, "w") as fh:
            fh.write(text)
