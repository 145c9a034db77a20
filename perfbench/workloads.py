"""The four benchmark workloads: generated inputs, set-up and entry calls.

An operation is one fresh worker process that sets a workload up and calls
its entry point once.  Its inputs are drawn from a pool of ``POOL`` fBm
seed offsets, so that every operation of every run has a stored reference
(see ``make_references.py``); operation ``k`` of a run with benchmark seed
``s`` uses pool index ``(s + k) % POOL``.

This module is imported by the parent (no numpy) and by the worker.
"""

from __future__ import annotations

import json
import os
import sys

POOL = 8
WORKLOADS = ("desk", "checkpoint_dense", "pde_fine", "young_study")

# Every key of the configuration schema, at the values of
# scripts/desk_scale.cfg; workloads override a few of them.
_BASE = {
    "noise": {"hurst": "0.75", "dim": "1", "horizon": "0.5", "steps": "1024", "seeds": "0"},
    "kernel": {"beta": "0.6", "base": "gaussian", "bandwidth": "0.05"},
    "particles": {
        "n_list": "256 512 1024 2048 4096",
        "force_backend": "grid",
        "force_grid": "8192",
        "init": "quantile",
    },
    "pde": {"resolution": "256", "cfl": "0.5", "vacuum_floor": "0.001"},
    "sigma": {"amplitude": "0.2", "modulation": "0.5"},
    "analysis": {
        "eta": "2.0",
        "q_hat": "2.0",
        "besov_grid": "16384",
        "lambda": "1.35",
        "fine_grid": "8192",
        "checkpoints": "16",
    },
    "domain": {"box": "1.0", "rho0_amplitude": "0.2", "v0_amplitude": "0.1"},
}

# The desk run (1024 steps to t = 0.5, 3 seeds) takes about a minute, longer
# than one measured run.  Its operation is one seed over a quarter of the
# horizon at the same step size, N sweep, meshes and checkpoint spacing
# (one per 64 steps), so the per-step and per-checkpoint work is unchanged.
_OVERRIDES = {
    "desk": {
        "noise": {"horizon": "0.125", "steps": "256"},
        "analysis": {"checkpoints": "4"},
    },
    # One checkpoint every 4 steps: the analysis path dominates.
    "checkpoint_dense": {
        "noise": {"horizon": "0.09375", "steps": "96"},
        "particles": {"n_list": "256 1024 4096"},
        "analysis": {"checkpoints": "24"},
    },
    # Fluid solver alone; the 4096-step path uses the dense Cholesky sampler.
    "pde_fine": {
        "noise": {"steps": "4096"},
        "pde": {"resolution": "1024"},
    },
}

YOUNG_SCRIPT = os.path.join("scripts", "young_refinement_study.py")
YOUNG_BASE_SEED = 5  # the script's default; it also uses seed - 2 and seed - 1


def pool_index(seed: int, k: int) -> int:
    return (seed + k) % POOL


def tasks_per_op(workload: str) -> int:
    """(seed, N) tasks in one coupled operation; one run otherwise."""
    if workload not in ("desk", "checkpoint_dense"):
        return 1
    n_list = _OVERRIDES[workload].get("particles", _BASE["particles"])["n_list"]
    return len(n_list.split())


def config_text(workload: str, p: int) -> str:
    """INI text the program parses for pool index ``p`` (fBm seed ``p``)."""
    sections = {name: dict(keys) for name, keys in _BASE.items()}
    for name, keys in _OVERRIDES.get(workload, {}).items():
        sections[name].update(keys)
    sections["noise"]["seeds"] = str(p)
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        lines.append("")
    return "\n".join(lines)


def write_inputs(workload: str, p: int, op_dir: str) -> None:
    if workload != "young_study":
        with open(os.path.join(op_dir, "config.cfg"), "w") as fh:
            fh.write(config_text(workload, p))


class Operation:
    """Set-up and entry call of one workload inside the worker process.

    ``setup`` covers imports and config parsing; ``run`` is the timed entry
    call; ``finish`` returns what the gate needs, after the clock stops.
    """

    def __init__(self, workload: str, p: int, op_dir: str):
        self.workload = workload
        self.p = p
        self.op_dir = op_dir
        self.exit_code = 0
        self.results = None

    def _path(self, name: str) -> str:
        return os.path.join(self.op_dir, name)

    def setup(self) -> None:
        import holderflow  # noqa: F401  (the package import is part of set-up)

        if self.workload in ("desk", "checkpoint_dense"):
            from holderflow.config import parse_config

            self.config = parse_config(self._path("config.cfg"))
        elif self.workload == "pde_fine":
            import holderflow.cli  # noqa: F401
        else:
            import holderflow.noise  # noqa: F401
            import holderflow.young  # noqa: F401

    def run(self) -> None:
        if self.workload in ("desk", "checkpoint_dense"):
            from holderflow.convergence import emit_report, fit_rate, run_coupled

            with open(self._path("records.csv"), "w") as sink:
                self.results = run_coupled(self.config, csv_sink=sink)
            report = fit_rate(self.results, self.config)
            emit_report(report, self._path("summary.json"))
        elif self.workload == "pde_fine":
            from holderflow.cli import main

            self.exit_code = main(
                ["pde", "--config", self._path("config.cfg"), "--out", self._path("rho.txt")]
            )
        else:
            import runpy

            saved = sys.argv
            sys.argv = [YOUNG_SCRIPT, "--seed", str(YOUNG_BASE_SEED + self.p)]
            try:
                runpy.run_path(YOUNG_SCRIPT, run_name="__main__")
            except SystemExit as exc:
                self.exit_code = exc.code if isinstance(exc.code, int) else 1
            finally:
                sys.argv = saved

    def finish(self) -> dict:
        out = {"exit_code": self.exit_code}
        if self.results is not None:
            out["tasks"] = [[r["seed"], r["n"], r["flag"]] for r in self.results]
        return out


def read_outputs(workload: str, op_dir: str) -> dict:
    """The program's outputs of one operation, as text, for the gate."""
    names = {
        "desk": ("records.csv", "summary.json"),
        "checkpoint_dense": ("records.csv", "summary.json"),
        "pde_fine": ("stdout.txt", "rho.txt"),
        "young_study": ("stdout.txt",),
    }[workload]
    out = {}
    for name in names:
        path = os.path.join(op_dir, name)
        if os.path.exists(path):
            with open(path) as fh:
                out[name] = fh.read()
    return out


def dump(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)
