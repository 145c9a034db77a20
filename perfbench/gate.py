"""Correctness gate: each operation's outputs against the stored references.

An output passes if it is byte-identical to the reference of its pool index.
Otherwise it passes only if the largest relative difference is reported and
the science agrees: for the coupled workloads the fitted slope agrees to 3
decimals (the ROADMAP rule for records.csv); for the fluid the final field
agrees to ``FIELD_RTOL``; for the Young study the printed residuals agree to
``TABLE_RTOL``.  Invariants (no aborts, a finite slope, finite energies,
unit mass above the vacuum floor, positive residuals) are checked always.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import re

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json.gz")
SLOPE_ATOL = 5e-4  # "agrees to 3 decimals"
FIELD_RTOL = 1e-8  # max |rho - rho_ref| / max |rho_ref| after the 4096 steps
TABLE_RTOL = 1e-3  # the table prints 5 significant digits
MASS_ATOL = 1e-9
VACUUM_FLOOR = 1e-3


def load_references() -> dict:
    with gzip.open(REFERENCES, "rt") as fh:
        return json.load(fh)


class Verdict:
    """Outcome of one operation: attempted and failed sub-operations."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed = 0
        self.how = "identical"
        self.max_rel_diff = 0.0
        self.errors: list[str] = []

    def fail_all(self, why: str) -> "Verdict":
        self.failed = self.attempted
        self.errors.append(why)
        return self

    def line(self) -> str:
        if self.failed:
            return f"gate=FAILED {self.failed}/{self.attempted}: " + "; ".join(self.errors)
        return f"gate={self.how} max_rel_diff={self.max_rel_diff:.3g} ok"


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(b), 1e-300)


def _parse_records(text: str) -> dict:
    rows: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("seed,"):
            continue
        cells = line.split(",")
        key = (int(cells[0]), int(cells[1]))
        rows.setdefault(key, []).append([float(c) for c in cells[2:8]])
    return rows


def gate_coupled(outputs: dict, ref: dict, result: dict, n_tasks: int) -> Verdict:
    v = Verdict(n_tasks)
    if "records.csv" not in outputs or "summary.json" not in outputs or "tasks" not in result:
        return v.fail_all("no outputs")
    aborted = [f"seed={s} N={n} {flag}" for s, n, flag in result["tasks"] if flag != "ok"]
    v.failed = len(aborted)
    v.errors += aborted
    slope = json.loads(outputs["summary.json"])["slope_q"]
    rows = _parse_records(outputs["records.csv"])
    bad = [key for key, vals in rows.items()
           if not all(math.isfinite(x) for row in vals for x in row) or min(r[3] for r in vals) < 0]
    if bad or slope is None or not math.isfinite(slope):
        return v.fail_all(f"invariant: non-finite or negative energy {bad} or slope {slope}")
    if outputs["records.csv"] == ref["records.csv"]:
        return v
    ref_rows = _parse_records(ref["records.csv"])
    if set(rows) != set(ref_rows) or any(len(rows[k]) != len(ref_rows[k]) for k in rows):
        return v.fail_all("rows differ from the reference")
    v.how = "tolerance"
    v.max_rel_diff = max(
        _rel(a, b)
        for k in rows
        for row, ref_row in zip(rows[k], ref_rows[k])
        for a, b in zip(row, ref_row)
    )
    ref_slope = json.loads(ref["summary.json"])["slope_q"]
    if abs(slope - ref_slope) >= SLOPE_ATOL:
        return v.fail_all(f"slope {slope:.6f} vs reference {ref_slope:.6f}")
    return v


def _parse_field(text: str) -> list[float]:
    return [float(x) for x in text.splitlines() if x and not x.startswith("#")]


def gate_pde(outputs: dict, ref: dict, result: dict) -> Verdict:
    v = Verdict(1)
    if result.get("exit_code") != 0 or "rho.txt" not in outputs:
        return v.fail_all(f"exit code {result.get('exit_code')}")
    found = dict(re.findall(r"(\w+)=(\S+)", outputs.get("stdout.txt", "")))
    field = _parse_field(outputs["rho.txt"])
    try:
        mass, min_rho = float(found["mass"]), float(found["min_rho"])
    except KeyError:
        return v.fail_all("no diagnostics line")
    if abs(mass - 1.0) > MASS_ATOL or min_rho <= VACUUM_FLOOR or not all(map(math.isfinite, field)):
        return v.fail_all(f"invariant: mass={mass} min_rho={min_rho}")
    if outputs["rho.txt"] == ref["rho.txt"]:
        return v
    ref_field = _parse_field(ref["rho.txt"])
    if len(field) != len(ref_field):
        return v.fail_all("field size differs from the reference")
    v.how = "tolerance"
    scale = max(abs(b) for b in ref_field)
    v.max_rel_diff = max(abs(a - b) for a, b in zip(field, ref_field)) / scale
    if v.max_rel_diff > FIELD_RTOL:
        return v.fail_all(f"final field differs by {v.max_rel_diff:.3g}")
    return v


def _parse_table(text: str) -> list[list[float]]:
    rows = []
    for line in text.splitlines():
        cells = line.split()
        if len(cells) == 4 and cells[0].isdigit():
            rows.append([float(c) for c in cells])
    return rows


def gate_young(outputs: dict, ref: dict, result: dict) -> Verdict:
    v = Verdict(1)
    if result.get("exit_code") != 0 or "stdout.txt" not in outputs:
        return v.fail_all(f"exit code {result.get('exit_code')}")
    table = _parse_table(outputs["stdout.txt"])
    if not table or not all(x > 0 and math.isfinite(x) for row in table for x in row):
        return v.fail_all("invariant: residual table missing or not positive")
    if outputs["stdout.txt"] == ref["stdout.txt"]:
        return v
    ref_table = _parse_table(ref["stdout.txt"])
    if len(table) != len(ref_table):
        return v.fail_all("residual table size differs from the reference")
    v.how = "tolerance"
    v.max_rel_diff = max(_rel(a, b) for r, s in zip(table, ref_table) for a, b in zip(r, s))
    if v.max_rel_diff > TABLE_RTOL:
        return v.fail_all(f"residuals differ by {v.max_rel_diff:.3g}")
    return v


def gate(workload: str, outputs: dict, ref: dict, result: dict, n_tasks: int) -> Verdict:
    if workload in ("desk", "checkpoint_dense"):
        return gate_coupled(outputs, ref, result, n_tasks)
    if workload == "pde_fine":
        return gate_pde(outputs, ref, result)
    return gate_young(outputs, ref, result)
