"""Golden bytes: a small coupled run whose ``records.csv`` is pinned by digest.

The run is the desk experiment cut down: grid force backend, the desk
kernel and meshes, N in {256, 1024}, one seed, 64 master steps of the desk
step size and 4 checkpoints.  It takes well under a second, so a change
meant to keep every number (a speed-up, a refactor) shows here, bit for
bit, without a full desk run.  A change to the science updates
``GOLDEN_SHA256`` and says so in its description.

The digest was computed with numpy 2.4.6 on x86-64; another numpy build or
processor may round the transforms differently.
"""

import hashlib

from holderflow.cli import EXIT_OK, main

SMALL_RUN = """
[noise]
hurst = 0.75
dim = 1
horizon = 0.03125
steps = 64
seeds = 0

[kernel]
beta = 0.6
bandwidth = 0.05

[particles]
n_list = 256 1024
force_backend = grid
force_grid = 8192

[analysis]
besov_grid = 16384
fine_grid = 8192
checkpoints = 4
"""

GOLDEN_SHA256 = "cbf6322f6d1800fcfa3fca35b0e79affc6a96b6b0dc9557205111e6a9be6b81e"


def test_small_coupled_run_records_are_golden(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_RUN)
    out = tmp_path / "run"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    records = (out / "records.csv").read_bytes()
    assert len(records.splitlines()) == 2 + 2 * 5  # header, columns, 5 rows per N
    assert hashlib.sha256(records).hexdigest() == GOLDEN_SHA256
