"""One benchmark operation in a fresh process.

    python3 perfbench/worker.py WORKLOAD POOL_INDEX OP_DIR [--setup-only] [--trace]

Run from the root of the checkout with ``src`` on ``PYTHONPATH``.  Writes
``result.json`` into OP_DIR: the monotonic clock at the entry call (the
parent started its clock before spawning, so the difference is set-up time),
the entry call's wall time, what the gate needs and, when traced, the span
summary; the raw spans go to ``spans.json``.
"""

from __future__ import annotations

import os
import sys
import time

from workloads import Operation, dump


def main(argv: list[str]) -> int:
    workload, p, op_dir = argv[0], int(argv[1]), argv[2]
    setup_only = "--setup-only" in argv
    op = Operation(workload, p, op_dir)
    tracer = None
    if "--trace" in argv:
        from tracing import Tracer

        tracer = Tracer(run_id=os.path.basename(op_dir))
        tracer.install()
    op.setup()
    result = {"t_entry": time.monotonic()}
    if not setup_only:
        t0 = time.perf_counter()
        op.run()
        t1 = time.perf_counter()
        result["wall_s"] = t1 - t0
        result.update(op.finish())
        if tracer is not None:
            result["trace"] = tracer.summary(t0, t1)
            dump(tracer.spans, os.path.join(op_dir, "spans.json"))
    dump(result, os.path.join(op_dir, "result.json"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
