"""Acceptance gate: the ten headline criteria, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as the
criteria complete.  Each criterion is self-contained except the desk-scale
rate experiment, which is shared between the rate and reproducibility
checks through a module fixture.
"""

import io
import time
from dataclasses import replace

import numpy as np
import pytest

from holderflow.besov import (
    besov_norm,
    build_partition,
    dyadic_blocks,
    triebel_norm,
)
from holderflow.convergence import ExperimentConfig, fit_rate, run_coupled
from holderflow.fields import FluidState, Grid, rhs_deterministic, pressure_forms_gap, step_field
from holderflow.kernels import KernelFamily, mollify
from holderflow.noise import (
    NoiseSpec,
    SampledPath,
    estimate_holder_exponent,
    fbm_covariance,
    holder_seminorm,
    restrict,
    sample_fbm,
    sample_fbm_paths,
)
from holderflow.particles import (
    ParticleEnsemble,
    init_from_fields,
    interaction_force,
    sorted_sum,
    step,
)
from holderflow.young import (
    IntegrandPath,
    check_chain_rule,
    check_integration_by_parts,
    check_ito_wentzell,
    young_loeve_defect,
)


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _refinement_factors(values):
    """Per-doubling shrink factors of a residual sequence (coarse first)."""
    v = np.asarray(values, dtype=float)
    return v[:-1] / v[1:]


# --------------------------------------------------------------------------
# 1. Young-calculus residuals: exact zeros and refinement decay.
# --------------------------------------------------------------------------


def test_criterion_01_young_calculus():
    # Exact zeros on degenerate cases.
    t = np.linspace(0.0, 1.0, 65)
    flat = SampledPath(t, np.zeros((65, 1)), alpha=1.0)
    exact = [
        check_integration_by_parts(flat, flat),
        check_chain_rule(lambda v: 2.0 * float(v[0]), lambda v: np.full_like(v, 2.0),
                         sample_fbm(NoiseSpec(hurst=0.75, resolution=128, seed=0))),
        check_ito_wentzell(
            lambda g: np.full_like(g, 1.0),
            lambda tt, g: np.full_like(g, 0.5),
            sample_fbm(NoiseSpec(hurst=0.75, resolution=64, seed=1)),
            sample_fbm(NoiseSpec(hurst=0.75, resolution=64, seed=2)),
        ),
    ]
    zeros_ok = max(exact) < 1e-12

    # Refinement decay on H = 0.75 fBm, averaged over 3 doublings each.
    strides4 = (8, 4, 2, 1)
    x14 = sample_fbm(NoiseSpec(hurst=0.75, resolution=1 << 14, seed=5))
    y14 = sample_fbm(NoiseSpec(hurst=0.75, resolution=1 << 14, seed=6))
    ibp = [check_integration_by_parts(restrict(x14, s), restrict(y14, s)) for s in strides4]
    z14 = sample_fbm(NoiseSpec(hurst=0.75, resolution=1 << 14, seed=8))
    chain = [
        check_chain_rule(lambda v: float(v[0]) ** 3, lambda v: 3.0 * v**2,
                         restrict(z14, s))
        for s in strides4
    ]
    yiw, xiw = sample_fbm_paths(NoiseSpec(hurst=0.75, resolution=1 << 12, seed=s) for s in (3, 4))
    iw = [
        check_ito_wentzell(np.sin, lambda tt, g: 0.5 * np.cos(g + tt),
                           restrict(yiw, s), restrict(xiw, s))
        for s in strides4
    ]
    means = [np.exp(np.mean(np.log(_refinement_factors(r)))) for r in (ibp, chain, iw)]
    _report(
        1,
        "Young residuals: exact zeros; refinement factor >= 1.5/doubling",
        zeros_ok and min(means) >= 1.5,
        f"geo-mean factors ibp={means[0]:.2f} chain={means[1]:.2f} iw={means[2]:.2f}",
    )


# --------------------------------------------------------------------------
# 2. fBm distribution: covariance within 5 SE, Hölder exponent within 0.05.
# --------------------------------------------------------------------------


def test_criterion_02_fbm_correctness():
    n_samples, m = 10_000, 8
    worst = 0.0
    for hurst in (0.6, 0.75, 0.9):
        paths = sample_fbm_paths(
            NoiseSpec(hurst=hurst, resolution=m, seed=s) for s in range(n_samples)
        )
        vals = np.stack([p.values[1:, 0] for p in paths])
        t = np.linspace(0.0, 1.0, m + 1)[1:]
        want = fbm_covariance(t[:, None], t[None, :], hurst)
        prods = vals[:, :, None] * vals[:, None, :]
        emp = np.mean(prods, axis=0)
        se = np.std(prods, axis=0, ddof=1) / np.sqrt(n_samples)
        worst = max(worst, float(np.max(np.abs(emp - want) / se)))
    cov_ok = worst < 5.0

    est_err = 0.0
    for hurst in (0.6, 0.75, 0.9):
        est = np.mean([
            estimate_holder_exponent(
                sample_fbm(NoiseSpec(hurst=hurst, resolution=1 << 13, seed=s))
            )
            for s in range(6)
        ])
        est_err = max(est_err, abs(est - hurst))
    _report(
        2,
        "fBm covariance within 5 SE; Hölder exponent within ±0.05",
        cov_ok and est_err < 0.05,
        f"max |z|={worst:.2f}, max exponent error={est_err:.3f}",
    )


# --------------------------------------------------------------------------
# 3. Young–Loève scaling of the one-step defect.
# --------------------------------------------------------------------------


def test_criterion_03_young_loeve_scaling():
    x_path = sample_fbm(NoiseSpec(hurst=0.75, resolution=1 << 12, seed=20))
    y_path = sample_fbm(NoiseSpec(hurst=0.75, resolution=1 << 12, seed=21))
    x = IntegrandPath(x_path.values, beta=x_path.alpha)
    nx = holder_seminorm(x_path, x_path.alpha)
    ny = holder_seminorm(y_path, y_path.alpha)
    m = y_path.steps
    window_steps = [32, 64, 128, 256, 512]
    mean_defect, factors = [], []
    for w in window_steps:
        defects = []
        starts = np.linspace(0, m - w, 100).astype(int)
        for i in starts:
            s, t = y_path.times[i], y_path.times[i + w]
            d, f = young_loeve_defect(x, y_path, s, t, norm_x=nx, norm_y=ny)
            defects.append(d)
            factors.append(f)
        mean_defect.append(np.mean(defects))
    sizes = np.array(window_steps) * y_path.dt
    slope = np.polyfit(np.log(sizes), np.log(mean_defect), 1)[0]
    threshold = x.beta + y_path.alpha - 0.1
    _report(
        3,
        "Young–Loève defect exponent >= alpha+beta-0.1; constant bounded",
        slope >= threshold and max(factors) < 10.0,
        f"slope={slope:.3f} (need >= {threshold:.2f}), max factor={max(factors):.3f}",
    )


# --------------------------------------------------------------------------
# 4. Mollifier smoothing bound across beta and N.
# --------------------------------------------------------------------------


def test_criterion_04_mollifier_lemma():
    box, m = 1.0, 1 << 15
    g = Grid(box=box, m=m)
    x = np.arange(m) / m * box
    f = np.sin(2.0 * np.pi * x / box)
    fk = g.rfft(f)
    grad_sup = 2.0 * np.pi / box
    worst = 0.0
    for beta in (0.4, 0.6, 0.8):
        fam = KernelFamily(beta=beta, dim=1, bandwidth=0.05)
        for n in [1 << p for p in range(6, 15)]:
            err = float(np.max(np.abs(f - g.irfft(mollify(fk, g, fam, n)))))
            worst = max(worst, err / (n ** (-beta) * grad_sup))
    _report(
        4,
        "smoothing error within C * N^{-beta/d} * ||grad f||_inf, single C",
        worst < 1.0,
        f"max ratio={worst:.4f}",
    )


# --------------------------------------------------------------------------
# 5. Mechanics invariants: force balance, Verlet order, backend agreement.
# --------------------------------------------------------------------------


def test_criterion_05_mechanics_invariants():
    rng = np.random.default_rng(0)

    # Total interaction force vanishes on random configurations.
    force_ok = True
    for n in (64, 512):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        ens = ParticleEnsemble(box=1.0, positions=rng.random((n, 1)),
                               velocities=np.zeros((n, 1)))
        force = interaction_force(ens, fam, "direct")
        scale = np.max(np.abs(force)) + 1e-300
        force_ok &= abs(sorted_sum(force[:, 0])) <= 1e-12 * n * scale

    # Hamiltonian drift shrinks x4 (±30%) under dt halving with sigma = 0.
    # The sup of |H(t) - H(0)| over the run is used: the endpoint value
    # alone is phase-sensitive for an oscillatory symplectic error.
    fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
    n = 64
    rng_mech = np.random.default_rng(0)
    pos = rng_mech.random((n, 1))
    vel = 0.1 * rng_mech.standard_normal((n, 1))

    def hamiltonian(e):
        kin = 0.5 * sorted_sum(np.sum(e.velocities**2, axis=1)) / n
        diff = e.positions[:, None, :] - e.positions[None, :, :]
        diff -= e.box * np.round(diff / e.box)
        pot = 0.5 * sorted_sum(fam.kernel(n, diff.reshape(-1, 1))) / n**2
        return kin + pot

    drifts = []
    for dt in (2e-3, 1e-3):
        ens = ParticleEnsemble(box=1.0, positions=pos, velocities=vel)
        e0 = hamiltonian(ens)
        accel = None
        sup = 0.0
        for _ in range(int(round(0.2 / dt))):
            ens, accel = step(ens, dt, fam, accel=accel)
            sup = max(sup, abs(hamiltonian(ens) - e0))
        drifts.append(sup)
    ratio = drifts[0] / drifts[1]
    verlet_ok = 2.8 <= ratio <= 5.2

    # Grid and direct backends agree at N = 512.
    fam512 = KernelFamily(beta=0.3, dim=1, bandwidth=0.1)
    ens512 = ParticleEnsemble(box=1.0, positions=rng.random((512, 1)),
                              velocities=np.zeros((512, 1)))
    fd = interaction_force(ens512, fam512, "direct")
    fg = interaction_force(ens512, fam512, "grid", grid_m=2048)
    rel = float(np.max(np.abs(fd - fg)) / np.max(np.abs(fd)))
    _report(
        5,
        "force balance; Verlet drift x4 under dt halving; grid=direct 1e-3",
        force_ok and verlet_ok and rel < 1e-3,
        f"drift ratio={ratio:.2f}, backend gap={rel:.2e}",
    )


# --------------------------------------------------------------------------
# 6. Field solver conservation and order.
# --------------------------------------------------------------------------


def test_criterion_06_field_solver():
    g = Grid(box=1.0, m=128, dim=1)
    x = g.nodes()

    # Constant states are fixed points to rounding.
    const = FluidState(grid=g, rho=np.full(128, 1.3), v=np.zeros((1, 128)))
    stepped = const
    for _ in range(50):
        stepped = step_field(stepped, 1e-3)
    const_ok = (np.max(np.abs(stepped.rho - 1.3)) < 1e-12
                and np.max(np.abs(stepped.v)) < 1e-12)

    # Mass conserved to 1e-10 relative per unit time without noise.
    st0 = FluidState(grid=g, rho=1.0 + 0.2 * np.sin(2 * np.pi * x),
                     v=(0.1 * np.cos(2 * np.pi * x))[None, :])
    st_ = st0
    horizon, dt = 0.2, 1e-3
    for _ in range(int(horizon / dt)):
        st_ = step_field(st_, dt)
    mass_drift = abs(st_.mass() - st0.mass()) / st0.mass() / horizon
    mass_ok = mass_drift < 1e-10

    # Pressure-gradient forms agree.
    gap_ok = pressure_forms_gap(st0) < 1e-8

    # dt self-convergence order >= 2.
    ref, nref, t_end = st0, 512, 0.02
    for _ in range(nref):
        ref = step_field(ref, t_end / nref)
    errs = []
    for steps in (32, 64, 128):
        s = st0
        for _ in range(steps):
            s = step_field(s, t_end / steps)
        errs.append(np.max(np.abs(s.rho - ref.rho)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    order_ok = float(np.min(orders)) >= 2.0
    _report(
        6,
        "constants fixed; mass 1e-10/unit time; pressure forms 1e-8; order >= 2",
        const_ok and mass_ok and gap_ok and order_ok,
        f"mass drift={mass_drift:.1e}, min order={np.min(orders):.2f}",
    )


# --------------------------------------------------------------------------
# 7. Littlewood–Paley structure.
# --------------------------------------------------------------------------


def test_criterion_07_littlewood_paley():
    g = Grid(box=1.0, m=1024, dim=1)
    part = build_partition(g)

    sum_ok = np.max(np.abs(np.sum(part.profiles, axis=0) - 1.0)) < 1e-12

    disjoint_ok = True
    for i in range(part.levels):
        for j in range(i + 2, part.levels):
            disjoint_ok &= np.max(np.abs(part.profiles[i] * part.profiles[j])) == 0.0

    rng = np.random.default_rng(1)
    f = rng.standard_normal(g.m)
    b = besov_norm(f, 0.7, 2.0, 2.0, part)
    t = triebel_norm(f, 0.7, 2.0, 2.0, part)
    bf_ok = abs(b - t) < 1e-10 * max(b, 1.0)

    # Pure-mode localization: blocks without the mode's frequency are 0.
    k_index = 32
    mode = np.cos(2 * np.pi * k_index * g.nodes())
    blocks = dyadic_blocks(mode, part)
    k_lattice = np.abs(2 * np.pi * np.fft.fftfreq(g.m, d=g.h))
    sel = np.argmin(np.abs(k_lattice - 2 * np.pi * k_index))
    local_ok = True
    for i in range(part.levels):
        if part.profiles[i][sel] == 0.0:
            local_ok &= np.max(np.abs(blocks[i])) < 1e-13
    _report(
        7,
        "partition sums to 1; disjointness exact; B=F at p=q=2; localization",
        sum_ok and disjoint_ok and bf_ok and local_ok,
        f"|B-F|={abs(b - t):.2e}",
    )


# --------------------------------------------------------------------------
# 8-10. Desk-scale rate experiment (shared run), cancellation, reproducibility.
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_run():
    config = ExperimentConfig()  # the desk-scale regime of the main theorem
    sink = io.StringIO()
    start = time.time()
    results = run_coupled(config, csv_sink=sink)
    elapsed = time.time() - start
    return config, results, sink.getvalue(), elapsed


def test_criterion_08_main_theorem_desk_scale(desk_run):
    config, results, _, elapsed = desk_run
    by_seed = {}
    for r in results:
        by_seed.setdefault(r["seed"], []).append(r)
    monotone = True
    besov_down = True
    for seed, rows in by_seed.items():
        rows.sort(key=lambda r: r["n"])
        sup = [max(rec.q for rec in r["records"]) for r in rows]
        monotone &= all(a > b for a, b in zip(sup, sup[1:]))
        bs = [r["besov_s"][-1] for r in rows]
        bv = [r["besov_v"][-1] for r in rows]
        besov_down &= all(a > b for a, b in zip(bs, bs[1:]))
        besov_down &= all(a > b for a, b in zip(bv, bv[1:]))
    report = fit_rate(results, config)
    slope_ok = report.slope_q <= -0.3
    time_ok = elapsed <= 15 * 60
    _report(
        8,
        "sup_t Q strictly decreasing per seed; slope <= -0.3; Besov decreasing",
        monotone and slope_ok and besov_down and time_ok,
        f"slope={report.slope_q:.3f}, runtime={elapsed:.0f}s",
    )


def test_criterion_09_noise_cancellation():
    base = ExperimentConfig(n_sweep=(1024,))
    doubled = replace(base, sigma_amplitude=2.0 * base.sigma_amplitude)
    sup1 = {
        r["seed"]: max(rec.q for rec in r["records"]) for r in run_coupled(base)
    }
    sup2 = {
        r["seed"]: max(rec.q for rec in r["records"]) for r in run_coupled(doubled)
    }
    std = float(np.std(list(sup1.values()), ddof=1))
    worst = max(abs(sup2[s] - sup1[s]) / std for s in sup1)
    _report(
        9,
        "sigma -> 2 sigma changes sup_t Q by <= 3 cross-seed std",
        worst <= 3.0,
        f"max change/std={worst:.2f}",
    )


def test_criterion_10_reproducibility(desk_run):
    config, _, first_csv, _ = desk_run
    sink = io.StringIO()
    run_coupled(config, csv_sink=sink)
    identical = sink.getvalue() == first_csv
    _report(
        10,
        "two identical desk-scale runs produce byte-identical CSVs",
        identical,
        f"{len(first_csv)} bytes compared",
    )
