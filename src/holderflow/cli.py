"""Command-line entry point.

Subcommands: ``noise`` (sample and export an fBm path), ``pde`` (run the
field solver alone), ``simulate`` (run one particle system), ``besov``
(norm of a stored field), ``converge`` (the full coupled rate experiment)
and ``check`` (fast identity/oracle suite).  Exit codes: 0 success,
2 usage/config error, 3 numerical failure, 4 oracle failure.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, parse_config

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_ORACLE = 4


def _cmd_noise(args) -> int:
    from .noise import NoiseSpec, sample_fbm, save_path

    spec = NoiseSpec(
        hurst=args.hurst,
        dim=args.dim,
        horizon=args.horizon,
        resolution=args.steps,
        seed=args.seed,
    )
    path = sample_fbm(spec)
    save_path(path, args.out, spec=spec)
    print(f"wrote {args.steps}-step fBm path (H={args.hurst}, seed={args.seed}) to {args.out}")
    return EXIT_OK


def _cmd_pde(args) -> int:
    from .convergence import _fluid_trajectory
    from .fields import diagnostics
    from .noise import sample_fbm

    config = parse_config(args.config)
    # Open the output first: an unwritable path is refused before the run.
    with open(args.out, "w") if args.out else contextlib.nullcontext() as out:
        path = sample_fbm(config.noise_spec(config.seeds[0]))
        snaps = _fluid_trajectory(config, path, {0, config.master_steps})
        final = snaps[config.master_steps]
        d = diagnostics(final)
        print(f"t={final.time:.6g} mass={d['mass']:.12g} min_rho={d['min_density']:.6g} "
              f"max_speed={d['max_speed']:.6g}")
        if out:
            _save_field(out, final.rho, final.grid, final.time)
    return EXIT_OK


def _save_field(out, values, grid, t) -> None:
    header = f"holderflow-field,L={grid.box!r},M={grid.m},d={grid.dim},t={t!r}"
    np.savetxt(out, values.reshape(-1, 1), fmt="%.17g", header=header)


def _load_field(path):
    from .fields import Grid
    from .noise import _header_items

    try:
        with open(path) as fh:
            first = fh.readline()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    if "holderflow-field" not in first:
        raise ValueError(f"{path} is not a holderflow field file")
    meta = _header_items(path, first.lstrip("# ").strip().split(",")[1:])
    if not {"L", "M", "d"} <= meta.keys():
        raise ValueError(f"{path}: a field header needs L, M and d, got {sorted(meta)}")
    try:
        grid = Grid(box=float(meta["L"]), m=int(meta["M"]), dim=int(meta["d"]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    values = np.loadtxt(path)
    if values.size != grid.m**grid.dim:
        raise ValueError(f"{path}: {values.size} values, but the header needs "
                         f"M^d = {grid.m**grid.dim}")
    return values.reshape(grid.shape), grid


def _cmd_simulate(args) -> int:
    from .convergence import simulate
    from .noise import sample_fbm

    if args.n is not None and args.n < 1:
        raise ValueError(f"--n must be a positive particle count, got {args.n}")
    config = parse_config(args.config)
    if args.n is not None:  # --n passes the checks of a config N
        config = replace(config, n_sweep=(args.n,))
    seed, n = config.seeds[0], config.n_sweep[0]
    with open(args.out, "w") if args.out else contextlib.nullcontext() as out:
        path = sample_fbm(config.noise_spec(seed))
        _, ens = next(simulate(config, n, path, seed, {config.master_steps}))
        if out:
            data = np.column_stack([np.arange(n), ens.positions, ens.velocities])
            np.savetxt(out, data, fmt="%.17g", delimiter=",",
                       header="k,X...,V...", comments="# ")
    vbar = np.mean(ens.velocities, axis=0)
    print(f"simulated N={n} to t={ens.time:.6g}; mean velocity {vbar}")
    return EXIT_OK


def _cmd_besov(args) -> int:
    from .besov import besov_norm, build_partition, triebel_norm

    values, grid = _load_field(args.input)
    part = build_partition(grid)
    fn = triebel_norm if args.flavor == "triebel" else besov_norm
    norm = fn(values, args.s, args.p, args.q, part)
    print(f"{args.flavor} norm (s={args.s}, p={args.p}, q={args.q}): {norm:.12g}")
    return EXIT_OK


def _cmd_converge(args) -> int:
    from .convergence import emit_report, fit_rate, run_coupled

    config = parse_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "records.csv"
    with open(csv_path, "w") as sink:
        results = run_coupled(config, csv_sink=sink)
    report = fit_rate(results, config)
    emit_report(report, out / "summary.json")
    print(f"slope(sup_t Q vs N) = {report.slope_q:.4f} "
          f"(envelope {report.manifest['rate_envelope']:.2f}); "
          f"outputs in {out}")
    aborted = [r for r in results if r["flag"] != "ok"]
    for r in aborted:
        print(f"  aborted: seed={r['seed']} N={r['n']} ({r['flag']})")
    return EXIT_OK if not aborted else EXIT_NUMERICAL


def _cmd_check(args) -> int:
    """Fast oracle suite: core identities of every module."""
    from .besov import build_partition
    from .fields import FluidState, Grid, rhs_deterministic
    from .kernels import KernelFamily, mollify
    from .noise import NoiseSpec, fbm_covariance, sample_fbm
    from .young import check_chain_rule, check_integration_by_parts

    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    check("fBm covariance H=1/2 at t=s=1 equals 1",
          abs(fbm_covariance(1.0, 1.0, 0.5) - 1.0) < 1e-14)
    path = sample_fbm(NoiseSpec(hurst=0.75, resolution=512, seed=0))
    check("fBm path starts at origin", path.values[0, 0] == 0.0)

    t = np.linspace(0.0, 1.0, 1025)
    from .noise import SampledPath
    smooth = SampledPath(t, np.sin(t)[:, None], alpha=1.0)
    check("integration by parts on smooth path",
          check_integration_by_parts(smooth, smooth) < 1e-2)
    check("chain rule f(x)=x is exact",
          check_chain_rule(lambda x: float(x[0]), np.ones_like, smooth) < 1e-12)

    family = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
    xs = np.linspace(-0.5, 0.5, 2001)[:, None]
    mass = np.trapezoid(family.kernel(64, xs), xs[:, 0])
    check("phi_N unit mass", abs(mass - 1.0) < 1e-6)
    g = Grid(box=1.0, m=256, dim=1)
    mol = g.irfft(mollify(g.rfft(np.full(256, 3.0)), g, family, 64))
    check("mollify preserves constants", np.max(np.abs(mol - 3.0)) < 1e-10)

    g = Grid(box=1.0, m=128, dim=1)
    st = FluidState(grid=g, rho=np.full(128, 1.0), v=np.zeros((1, 128)))
    drho, dv = rhs_deterministic(st)
    check("constant fluid state is stationary",
          max(np.max(np.abs(drho)), np.max(np.abs(dv))) < 1e-12)

    part = build_partition(Grid(box=1.0, m=256, dim=1))
    total = np.sum(part.profiles, axis=0)
    check("dyadic partition sums to one", np.max(np.abs(total - 1.0)) < 1e-12)

    if failures:
        print(f"{len(failures)} oracle(s) failed")
        return EXIT_ORACLE
    print("all oracles passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holderflow",
        description="Particle systems with Hölder noise and their compressible "
        "Euler limit: simulation and convergence-rate laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("noise", help="sample an fBm path and export it")
    p.add_argument("--hurst", type=float, required=True)
    p.add_argument("--steps", type=int, default=1024)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_noise)

    p = sub.add_parser("pde", help="run the field solver alone")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_pde)

    p = sub.add_parser("simulate", help="run one particle system")
    p.add_argument("--config", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("besov", help="Besov/Triebel norm of a stored field")
    p.add_argument("--input", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--flavor", choices=("besov", "triebel"), default="besov")
    p.set_defaults(fn=_cmd_besov)

    p = sub.add_parser("converge", help="coupled convergence-rate experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_converge)

    p = sub.add_parser("check", help="fast identity/oracle suite")
    p.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass through.
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:  # an OSError names its path and reason
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
