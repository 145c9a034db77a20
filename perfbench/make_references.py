"""Regenerate references.json.gz: the outputs of every workload at every
pool index, from the current source tree.

    python3 perfbench/make_references.py [WORKLOAD ...]

Run from the root of the checkout.  Only do this when the science is meant
to change; the gate then compares later trees against the new outputs.
Each output must pass the gate's invariants before it is stored.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys
import time

import gate
import run
import workloads


def main(names: list[str]) -> int:
    root = os.getcwd()
    run._source_tree(root)
    try:
        data = gate.load_references()
    except FileNotFoundError:
        data = {"pool": workloads.POOL, "workloads": {}}
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.update({name: "1" for name in run.BLAS_ENV})
    work = os.path.join(run.HERE, "_work", "references")
    for name in names or workloads.WORKLOADS:
        refs = []
        for p in range(workloads.POOL):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            workloads.write_inputs(name, p, work)
            argv = [sys.executable, os.path.join(run.HERE, "worker.py"), name, str(p), work]
            _, code, _ = run._spawn(root, argv, work, env, time.monotonic() + 600.0)
            outputs = workloads.read_outputs(name, work)
            result = run._read_json(os.path.join(work, "result.json"))
            verdict = gate.gate(name, outputs, outputs, result, workloads.tasks_per_op(name))
            if code != 0 or verdict.failed:
                raise SystemExit(f"{name} pool={p}: exit {code}, {verdict.line()}")
            refs.append(outputs)
            print(f"{name} pool={p} wall_s={result['wall_s']:.2f}", flush=True)
        data["workloads"][name] = refs
    shutil.rmtree(work, ignore_errors=True)
    with gzip.GzipFile(gate.REFERENCES, "wb", mtime=0) as fh:
        fh.write(json.dumps(data, sort_keys=True).encode())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
