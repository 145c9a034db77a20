"""Spans and work counts around the public entry points of each module.

Wrappers are installed from the benchmark's side, in the worker process,
at every name under which the package looks a function up (modules import
each other's functions by name, so ``holderflow.convergence.step`` and
``holderflow.particles.step`` must both be replaced).  Spans are kept in
memory as ``[name, start, end, parent, run_id]`` and written out when the
operation ends.  Counts are computed from call arguments at the boundary,
so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

COUPLED = frozenset({"desk", "checkpoint_dense"})
FLUID = COUPLED | {"pde_fine"}
NOISE = FLUID | {"young_study"}

# (module, qualified name, workloads predicted to reach it).  Every span must
# fire on each of its workloads; a renamed or moved function then fails the
# traced run instead of reading as 0 s.
SPANS = (
    ("particles", "step", COUPLED),
    ("particles", "interaction_force", COUPLED),
    ("particles", "deposit_cic", COUPLED),
    ("particles", "empirical_density", COUPLED),
    ("particles", "init_from_fields", COUPLED),
    ("kernels", "periodic_kernel_samples", COUPLED),
    ("kernels", "mollify", COUPLED),
    ("fields", "step_field", FLUID),
    ("fields", "FieldInterpolant.__call__", COUPLED),
    ("fields", "upsample", COUPLED),
    ("besov", "build_partition", COUPLED),
    ("besov", "negative_distance", COUPLED),
    ("besov", "deposit_nearest", COUPLED),
    ("noise", "sample_fbm", NOISE),
    ("young", "check_integration_by_parts", {"young_study"}),
    ("young", "check_chain_rule", {"young_study"}),
    ("young", "check_ito_wentzell", {"young_study"}),
    ("convergence", "run_coupled", COUPLED),
    ("convergence", "energy_Q", COUPLED),
    ("convergence", "fit_rate", COUPLED),
    ("config", "parse_config", FLUID),
    ("cli", "main", {"pde_fine"}),
)

MODULES = tuple(dict.fromkeys(module for module, _, _ in SPANS))
COUNTS = (
    "particles.force_mesh_cells",
    "particles.deposited_points",
    "fields.grid_point_steps",
    "fields.interp_point_modes",
    "besov.inverse_fft_points",
    "noise.samples",
    "convergence.tasks",
    "convergence.checkpoint_rows",
)
DESK_N = (256, 512, 1024, 2048, 4096)


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


class Tracer:
    """Span recorder for one operation (one worker process)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.kernel_keys: set = set()
        self.per_n: dict[int, dict] = defaultdict(
            lambda: {"steps": 0, "step_s": 0.0, "force_m": 0, "fine_m": 0}
        )

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result, span[2] - span[1])
            return result

        return wrapper

    def install(self) -> None:
        """Replace each declared function at every name the package uses."""
        for sub in MODULES:
            importlib.import_module(f"holderflow.{sub}")
        loaded = [m for n, m in list(sys.modules.items()) if n.startswith("holderflow")]
        for module, qualname, _ in SPANS:
            name = span_name(module, qualname)
            mod = sys.modules[f"holderflow.{module}"]
            owner, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner, None) if owner else mod
            orig = vars(owner).get(attr) if owner is not None else None
            if orig is None:
                raise LookupError(f"traced span {name}: holderflow.{module}.{qualname} not found")
            wrapped = self.wrap(name, orig, _COUNTERS.get(name))
            for target in loaded if owner is mod else [owner]:
                for key, value in list(vars(target).items()):
                    if value is orig:
                        setattr(target, key, wrapped)

    def summary(self, t_entry: float, t_exit: float) -> dict:
        """Calls, self and total seconds per span; counts; root coverage."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_span: dict[str, dict] = {}
        root_s = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            entry = per_span.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[i]
            entry["total_s"] += end - start
            if parent < 0 and start >= t_entry and end <= t_exit:
                root_s += end - start
        return {
            "spans": per_span,
            "counts": dict(self.counts),
            "kernel_distinct": len(self.kernel_keys),
            "per_n": {str(n): v for n, v in self.per_n.items()},
            "root_s": root_s,
        }


def _count_step(tr, a, result, dur):
    row = tr.per_n[a["ens"].count]
    row["steps"] += 1
    row["step_s"] += dur
    row["force_m"] = a["grid_m"] or 0


def _count_force(tr, a, result, dur):
    if a["backend"] == "grid":
        tr.counts["particles.force_mesh_cells"] += a["grid_m"] ** a["ens"].dim


def _count_deposit(tr, a, result, dur):
    tr.counts["particles.deposited_points"] += len(a["positions"])


def _count_density(tr, a, result, dur):
    tr.per_n[a["ens"].count]["fine_m"] = a["grid"].m


def _count_kernel(tr, a, result, dur):
    tr.kernel_keys.add((a["n"], a["m"], a["which"], a["derivative"]))


def _count_field_step(tr, a, result, dur):
    g = a["state"].grid
    tr.counts["fields.grid_point_steps"] += g.m**g.dim


def _count_interp(tr, a, result, dur):
    tr.counts["fields.interp_point_modes"] += len(a["pts"]) * a["self"].coeff.size


def _count_besov(tr, a, result, dur):
    part = a["part"]
    tr.counts["besov.inverse_fft_points"] += part.levels * part.grid.m**part.grid.dim


def _count_fbm(tr, a, result, dur):
    tr.counts["noise.samples"] += a["spec"].resolution * a["spec"].dim


def _count_coupled(tr, a, result, dur):
    cfg = a["config"]
    tr.counts["convergence.tasks"] += len(cfg.seeds) * len(cfg.n_sweep)
    tr.counts["convergence.checkpoint_rows"] += sum(len(r["records"]) for r in result)


_COUNTERS = {
    "particles.step": _count_step,
    "particles.interaction_force": _count_force,
    "particles.deposit_cic": _count_deposit,
    "particles.empirical_density": _count_density,
    "kernels.periodic_kernel_samples": _count_kernel,
    "fields.step_field": _count_field_step,
    "fields.FieldInterpolant.__call__": _count_interp,
    "besov.negative_distance": _count_besov,
    "noise.sample_fbm": _count_fbm,
    "convergence.run_coupled": _count_coupled,
}

