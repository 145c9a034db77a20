"""holderflow benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src``; nothing is installed).  Each operation is a fresh worker process
(``worker.py``) that imports the package, builds the workload's config,
calls its entry point once and exits; its outputs are then gated against
``references.json.gz`` (``gate.py``).  Operations run one after another
(closed loop, one client) for about ``--seconds``: another one starts while
at least half of it is expected to fit.  BLAS runs on one thread in every
worker.

With ``--trace 0`` the last line reports the end-to-end metrics: median
entry-call wall time, median set-up time (interpreter start to the entry
call, over extra set-up-only spawns and every operation) and median peak
resident memory.  With ``--trace 1`` operations alternate between traced
and untraced, and the last line reports per-layer calls, self time and
work counts from the traced ones (``tracing.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import gate
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_PER_OP = 3  # set-up-only workers before each operation (untraced runs)
RUN_LIMIT_S = 170.0  # a run must end within 180 s whatever the machine does
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _source_tree(root: str) -> None:
    need = [os.path.join(root, "src", "holderflow", "__init__.py"),
            os.path.join(root, workloads.YOUNG_SCRIPT)]
    missing = [p for p in need if not os.path.isfile(p)]
    if missing:
        raise SystemExit(f"perfbench: not a holderflow source checkout (missing {missing})")


def _environment(root: str) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "holderflow")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            commit = fh.read().strip()
        if commit.startswith("ref: "):
            ref = os.path.join(root, ".git", commit[5:])
            if os.path.isfile(ref):
                with open(ref) as fh:
                    commit = fh.read().strip()
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "blas_threads": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def _spawn(root: str, argv: list, op_dir: str, env: dict, deadline: float):
    """Run one worker; return (start clock, exit code, peak RSS in MB)."""
    with open(os.path.join(op_dir, "stdout.txt"), "w") as out, \
            open(os.path.join(op_dir, "stderr.txt"), "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=root)
        timer = threading.Timer(max(0.0, deadline - t_spawn), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return t_spawn, proc.returncode, usage.ru_maxrss / 1024.0


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _quartiles(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"p25": q[0], "median": statistics.median(values), "p75": q[2], "n": len(values)}


def _per_layer(traced: list, untraced: list) -> dict:
    """Per-layer metrics: medians over traced operations of per-operation values."""
    def med(fn):
        return float(statistics.median([fn(r) for r in traced]))

    def span(r, name):
        return r["trace"]["spans"].get(name, {"calls": 0, "self_s": 0.0})

    out = {}
    for module, qualname, _ in tracing.SPANS:
        name = tracing.span_name(module, qualname)
        out[f"{name}.calls"] = (med(lambda r: span(r, name)["calls"]), "count")
        out[f"{name}.self_s"] = (med(lambda r: span(r, name)["self_s"]), "s")
    for module in tracing.MODULES:
        out[f"{module}.self_s"] = (med(lambda r: sum(
            s["self_s"] for n, s in r["trace"]["spans"].items()
            if n.startswith(module + "."))), "s")
    for count in tracing.COUNTS:
        out[count] = (med(lambda r: r["trace"]["counts"].get(count, 0.0)), "count")
    key = "kernels.periodic_kernel_samples"
    out[f"{key}.distinct_ratio"] = (med(lambda r: r["trace"]["kernel_distinct"]
                                        / max(1, span(r, key)["calls"])), "ratio")
    for n in tracing.DESK_N:
        def row(r, field, n=n):
            return r["trace"]["per_n"].get(str(n), {}).get(field, 0)
        out[f"particles.step.N{n}.s_per_step"] = (
            med(lambda r: row(r, "step_s") / max(1, row(r, "steps"))), "s")
        out[f"particles.step.N{n}.force_m"] = (med(lambda r: row(r, "force_m")), "count")
        out[f"particles.step.N{n}.fine_m"] = (med(lambda r: row(r, "fine_m")), "count")
    traced_wall = statistics.median([r["wall_s"] for r in traced])
    untraced_wall = statistics.median([r["wall_s"] for r in untraced]) if untraced else traced_wall
    out["trace.traced_wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.unattributed_s"] = (med(lambda r: r["wall_s"] - r["trace"]["root_s"]), "s")
    return out


def _coverage(workload: str, traced: list) -> list[str]:
    """Declared spans that did not fire on a workload predicted to reach them."""
    missing = []
    for module, qualname, expected in tracing.SPANS:
        name = tracing.span_name(module, qualname)
        fired = [r["trace"]["spans"].get(name, {}).get("calls", 0) > 0 for r in traced]
        if workload in expected and not all(fired):
            missing.append(name)
        elif workload not in expected and any(fired):
            print(f"note: span {name} fired on {workload}, not predicted", file=sys.stderr)
    return missing


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    t_start = time.monotonic()
    root = os.getcwd()
    _source_tree(root)
    references = gate.load_references()["workloads"][args.workload]
    print(json.dumps({"env": _environment(root)}), flush=True)

    work = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({name: "1" for name in BLAS_ENV})
    deadline = t_start + RUN_LIMIT_S
    worker = [sys.executable, os.path.join(HERE, "worker.py"), args.workload]

    setups = []
    ops = []
    attempted = failed = 0
    t_window = time.monotonic()
    while True:
        k = len(ops)
        # Start another round while at least half of it is expected to fit.
        busy = time.monotonic() - t_window
        if k and busy + statistics.median(o["round_s"] for o in ops) / 2 > args.seconds:
            break
        t_round = time.monotonic()
        p = workloads.pool_index(args.seed, k)
        op_dir, setup_dir = (os.path.join(work, f"{name}{k}") for name in ("op", "setup"))
        for d in (op_dir, setup_dir):
            os.makedirs(d)
            workloads.write_inputs(args.workload, p, d)
        # Set-up is sampled between operations so its samples span the run.
        for _ in range(0 if args.trace else SETUP_PER_OP):
            t_spawn, code, _ = _spawn(root, worker + [str(p), setup_dir, "--setup-only"],
                                      setup_dir, env, deadline)
            result = _read_json(os.path.join(setup_dir, "result.json"))
            if code != 0 or "t_entry" not in result:
                raise SystemExit(f"perfbench: set-up failed (exit {code}), see {setup_dir}")
            setups.append(result["t_entry"] - t_spawn)
        traced = bool(args.trace) and k % 2 == 0
        argv = worker + [str(p), op_dir] + (["--trace"] if traced else [])
        t_spawn, code, rss_mb = _spawn(root, argv, op_dir, env, deadline)
        result = _read_json(os.path.join(op_dir, "result.json"))
        verdict = gate.gate(args.workload, workloads.read_outputs(args.workload, op_dir),
                            references[p], result, workloads.tasks_per_op(args.workload))
        if code != 0 or "wall_s" not in result:
            verdict.fail_all(f"worker exit {code}, see {op_dir}/stderr.txt")
        attempted += verdict.attempted
        failed += verdict.failed
        op = {"traced": traced, "round_s": time.monotonic() - t_round, "rss_mb": rss_mb,
              "setup_s": result.get("t_entry", t_spawn) - t_spawn, **result}
        ops.append(op)
        print(f"op {k} pool={p} traced={int(traced)} setup_s={op['setup_s']:.4f} "
              f"wall_s={result.get('wall_s', float('nan')):.4f} peak_rss_mb={rss_mb:.1f} "
              f"{verdict.line()}", flush=True)
        if time.monotonic() > deadline:
            break

    good = [o for o in ops if "wall_s" in o]
    correct = failed == 0 and bool(good)
    metrics = {}
    if args.trace:
        traced_ops = [o for o in good if o["traced"]]
        missing = _coverage(args.workload, traced_ops)
        if missing or not traced_ops:
            why = f"spans did not fire: {missing}" if traced_ops else "no traced operation ended"
            print(f"coverage on {args.workload}: {why}", file=sys.stderr)
            correct = False
        if traced_ops:
            metrics = _per_layer(traced_ops, [o for o in good if not o["traced"]])
    elif good:
        all_setups = setups + [o["setup_s"] for o in good]
        detail = {
            "wall_s": _quartiles([o["wall_s"] for o in good]),
            "setup_s": _quartiles(all_setups),
            "peak_rss_mb": _quartiles([o["rss_mb"] for o in good]),
            "failed_frac": failed / max(1, attempted),
        }
        print(json.dumps({"detail": detail}), flush=True)
        metrics = {name: (detail[name]["median"], unit) for name, unit in
                   (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
