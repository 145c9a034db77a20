#!/usr/bin/env python3
"""Dyadic-refinement study of the Young calculus identities on fBm paths.

Tabulates the integration-by-parts, chain-rule and Itô-Wentzell residuals
at successively halved mesh sizes and prints the per-doubling shrink
factors.  Residuals should shrink steadily; the theoretical envelope for
the left-point integration-by-parts defect is 2^{2H-1} per doubling.

The Itô-Wentzell column stops refining at 2^12 steps: rows finer than that
repeat the 2^12 residual (computed once), and their per-doubling factors
are 1.00 by construction.  The cap is not a cost (a 2^14-step check takes
a fraction of a second): the table below and the benchmark's stored
outputs (perfbench/references.json.gz) were made with it, and lifting it
changes both.

The two Itô-Wentzell paths share (H, M), so they are sampled together: one
Durbin-Levinson pass serves both (``sample_fbm_paths``).  The field h of
the Itô-Wentzell check is evaluated on a column of times, one block of
time steps per call.

Usage:
    python3 scripts/young_refinement_study.py --hurst 0.75 --max-level 14
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from holderflow.noise import NoiseSpec, restrict, sample_fbm, sample_fbm_paths
from holderflow.young import (
    check_chain_rule,
    check_integration_by_parts,
    check_ito_wentzell,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--hurst", type=float, default=0.75)
    ap.add_argument("--max-level", type=int, default=14, help="finest mesh 2^level")
    ap.add_argument("--levels", type=int, default=4, help="number of refinements shown")
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()

    m = 1 << args.max_level
    x = sample_fbm(NoiseSpec(hurst=args.hurst, resolution=m, seed=args.seed))
    y = sample_fbm(NoiseSpec(hurst=args.hurst, resolution=m, seed=args.seed + 1))
    z = sample_fbm(NoiseSpec(hurst=args.hurst, resolution=m, seed=args.seed + 3))
    m_iw = min(m, 1 << 12)  # the cap of the table and the stored outputs
    yi, xi = sample_fbm_paths(
        NoiseSpec(hurst=args.hurst, resolution=m_iw, seed=args.seed + k) for k in (-2, -1)
    )

    strides = [1 << k for k in range(args.levels, -1, -1)]
    iw_by_stride = {}
    rows = []
    for s in strides:
        ibp = check_integration_by_parts(restrict(x, s), restrict(y, s))
        chain = check_chain_rule(
            lambda v: float(v[0]) ** 3, lambda v: 3.0 * v**2, restrict(z, s)
        )
        s_iw = max(1, s * m_iw // m)
        if s_iw not in iw_by_stride:
            iw_by_stride[s_iw] = check_ito_wentzell(
                np.sin, lambda t, g: 0.5 * np.cos(g + t),
                restrict(yi, s_iw), restrict(xi, s_iw),
            )
        rows.append((m // s, ibp, chain, iw_by_stride[s_iw]))

    print(f"H = {args.hurst}; per-doubling envelope for left sums: "
          f"{2.0 ** (2 * args.hurst - 1):.3f}")
    print(f"{'M':>8} {'ibp':>12} {'chain':>12} {'ito-wentzell':>14}")
    for mm, a, b, c in rows:
        print(f"{mm:>8} {a:>12.4e} {b:>12.4e} {c:>14.4e}")
    print("\nper-doubling factors:")
    for (m0, a0, b0, c0), (m1, a1, b1, c1) in zip(rows, rows[1:]):
        print(f"{m0:>6} -> {m1:<6}  ibp x{a0 / a1:5.2f}  chain x{b0 / b1:5.2f}  "
              f"iw x{c0 / c1:5.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
