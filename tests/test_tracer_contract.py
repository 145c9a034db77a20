"""Guard for the benchmark's tracer (``perfbench/tracing.py``).

The tracer wraps package functions by name and its work counters read their
arguments by parameter name.  A tiny run of every traced entry point, in a
fresh process with the tracer installed, must fire every declared span and
fill every counter; a renamed function or parameter fails here instead of
in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CONFIG = """\
[noise]
hurst = 0.75
horizon = 0.0125
steps = 16
seeds = 0
[particles]
n_list = 64 128
force_backend = grid
force_grid = 1024
[pde]
resolution = 128
[analysis]
besov_grid = 1024
fine_grid = 1024
checkpoints = 2
"""

SCRIPT = """\
import json, sys
sys.path[:0] = sys.argv[1:3]
import numpy as np
from tracing import COUNTS, SPANS, Tracer, span_name

tracer = Tracer(run_id="contract")
tracer.install()
from holderflow import cli, config, convergence, noise, young

cfg = config.parse_config(sys.argv[3])
results = convergence.run_coupled(cfg)
convergence.fit_rate(results, cfg)
exit_code = cli.main(["pde", "--config", sys.argv[3]])


def path(seed):
    return noise.sample_fbm(noise.NoiseSpec(hurst=0.75, resolution=64, seed=seed))


young.check_integration_by_parts(path(0), path(1))
young.check_chain_rule(lambda v: float(v[0]) ** 3, lambda v: 3.0 * v**2, path(2))
young.check_ito_wentzell(
    np.sin, lambda t, g: 0.5 * np.cos(g + t), path(3), path(4), space_points=32
)
summary = tracer.summary(0.0, float("inf"))
print(json.dumps({
    "exit_code": exit_code,
    "flags": [r["flag"] for r in results],
    "declared": [span_name(module, qualname) for module, qualname, _ in SPANS],
    "fired": sorted(summary["spans"]),
    "empty_counts": [name for name in COUNTS if not summary["counts"].get(name)],
    "kernel_distinct": summary["kernel_distinct"],
}))
"""


def test_every_span_fires_and_every_counter_fills(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(CONFIG)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"), str(cfg)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["exit_code"] == 0
    assert out["flags"] == ["ok", "ok"]
    assert sorted(set(out["declared"]) - set(out["fired"])) == []
    assert out["empty_counts"] == []
    assert out["kernel_distinct"] > 0
