"""Coupled rate experiment: energy, adaptive meshes, fitting, reports."""

import io
import json
import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from holderflow.besov import build_partition
from holderflow.convergence import (
    CSV_COLUMNS,
    EnergyRecord,
    ExperimentConfig,
    _auto_grid,
    _checkpoint_row,
    _fluid_trajectory,
    emit_report,
    energy_Q,
    fit_rate,
    run_coupled,
    simulate,
)
from holderflow.fields import FluidState, Grid, upsample
from holderflow.kernels import KernelFamily, periodic_kernel_samples
from holderflow.noise import NoiseSpec, SampledPath, sample_fbm
from holderflow.particles import (
    ParticleEnsemble,
    _cic_transfer,
    deposit_cic,
    init_from_fields,
    sorted_sum,
)


def _tiny_config(**overrides):
    base = dict(
        horizon=0.05,
        master_steps=64,
        seeds=(0,),
        n_sweep=(64, 128),
        checkpoints=4,
        pde_resolution=128,
        force_grid=1024,
        fine_grid=1024,
        besov_grid=1024,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_rejects_hypothesis_violations(self):
        with pytest.raises(ValueError, match="hurst"):
            ExperimentConfig(hurst=0.4)
        with pytest.raises(ValueError, match="beta"):
            ExperimentConfig(beta=1.0)
        with pytest.raises(ValueError, match="eta"):
            ExperimentConfig(eta=1.0)
        with pytest.raises(ValueError, match="n_sweep"):
            ExperimentConfig(n_sweep=())

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = ExperimentConfig()
        c = ExperimentConfig(beta=0.61)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_initial_density_has_unit_mass(self):
        cfg = ExperimentConfig()
        rho0, _ = cfg.initial_fields()
        assert np.mean(rho0) * cfg.box == pytest.approx(1.0, abs=1e-14)


class TestAutoGrid:
    def test_power_of_two_and_minimum(self):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        m = _auto_grid(fam, 256, 1.0, 2048, "phi")
        assert m >= 2048
        assert m & (m - 1) == 0

    def test_monotone_in_n(self):
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        ms = [_auto_grid(fam, n, 1.0, 256, "phi_r") for n in (64, 1024, 16384)]
        assert ms[0] <= ms[1] <= ms[2]

    def test_capped(self):
        fam = KernelFamily(beta=0.95, dim=1, bandwidth=0.01)
        assert _auto_grid(fam, 10**7, 1.0, 256, "phi_r") <= 1 << 17


class TestEnergy:
    def test_time_mismatch_rejected(self):
        g = Grid(box=1.0, m=64, dim=1)
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        fluid = FluidState(grid=g, rho=np.ones(64), v=np.zeros((1, 64)), time=1.0)
        ens = ParticleEnsemble(box=1.0, positions=[[0.5]], velocities=[[0.0]], time=0.0)
        with pytest.raises(ValueError, match="time mismatch"):
            energy_Q(ens, fluid, fam, 64)

    def test_kinetic_term_zero_for_matched_velocities(self):
        g = Grid(box=1.0, m=128, dim=1)
        fam = KernelFamily(beta=0.6, dim=1, bandwidth=0.05)
        x = g.nodes()
        rho = np.ones(128)
        v = (0.1 * np.cos(2 * np.pi * x))[None, :]
        fluid = FluidState(grid=g, rho=rho, v=v)
        ens = init_from_fields(rho, v, 128, g)
        rec = energy_Q(ens, fluid, fam, 4096)
        assert rec.kinetic_term < 1e-20
        assert rec.density_term >= 0.0

    def test_any_time_mismatch_rejected(self):
        # Both clocks add the same dt the same number of times, so the two
        # times of one checkpoint are bitwise equal; a 1e-12 offset is refused.
        fluid, ens, fam = _energy_case(1, 64, 77)
        fluid = replace(fluid, time=0.5)
        with pytest.raises(ValueError, match="time mismatch"):
            energy_Q(replace(ens, time=0.5 + 1e-12), fluid, fam, 1024)
        energy_Q(replace(ens, time=0.5), fluid, fam, 1024)

    @pytest.mark.parametrize(
        "dim, m, fine_m, n", [(1, 64, 4096, 1024), (1, 63, 4095, 1000), (2, 32, 256, 256),
                              (2, 15, 129, 40)]
    )
    def test_density_term_matches_node_quadrature(self, dim, m, fine_m, n):
        fluid, ens, fam = _energy_case(dim, m, n)
        want = _node_density_term(ens, fluid, fam, fine_m)
        got = energy_Q(ens, fluid, fam, fine_m).density_term
        assert abs(got - want) <= 1e-12 * want

    def test_one_fine_transform_per_call(self, monkeypatch):
        fluid, ens, fam = _energy_case(1, 64, 100)
        fine_m = 1024  # not the 2 m mesh of the velocity interpolant
        energy_Q(ens, fluid, fam, fine_m)  # fills the kernel and window caches
        calls = []
        for name in ("rfft", "irfft"):
            orig = getattr(Grid, name)

            def counting(self, f, orig=orig, name=name):
                if self.m == fine_m:
                    calls.append(name)
                return orig(self, f)

            monkeypatch.setattr(Grid, name, counting)
        energy_Q(ens, fluid, fam, fine_m)
        assert calls == ["rfft"]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_bitwise_label_invariant_with_coincident_particles(self, dim):
        fluid, ens, fam = _energy_case(dim, 32, 200)
        pos = np.concatenate([ens.positions, ens.positions[:50]])
        vel = np.concatenate([ens.velocities, ens.velocities[:50]])
        perm = np.random.default_rng(dim).permutation(len(pos))
        fine_m = 2048 if dim == 1 else 256
        a = energy_Q(replace(ens, positions=pos, velocities=vel), fluid, fam, fine_m)
        b = energy_Q(replace(ens, positions=pos[perm], velocities=vel[perm]), fluid, fam, fine_m)
        assert a == b

    def test_record_q_is_sum(self):
        rec = EnergyRecord(t=0.5, kinetic_term=0.25, density_term=0.5)
        assert rec.q == pytest.approx(0.75)

    def test_kinetic_term_galilean_invariant_on_direct(self):
        """With a constant sigma (modulation 0) the noise is a Galilean boost:
        on one path, the run at sigma = 0.2 is the sigma = 0 run with every
        velocity raised by sigma Y_t and every position moved by the shift
        dt sigma sum_{j<i} Y_{t_j} that the Verlet scheme applies.  The fluid
        moves with it, so the kinetic term of Q does not change.  Desk dt, 256
        steps, N = 128, the exact force; measured spreads: positions 1.2e-15,
        velocities 2.8e-13, kinetic term 1.8e-12 of its value (1.39e-3 at T).

        The grid force fails the same test: positions by 1.0e-6, velocities
        by 1.4e-4 and the kinetic term by 7.6e-5 of its value.  That is the
        particle-mesh force's own error, which is not Galilean invariant
        because the particles move against the fixed mesh, not a case this
        test leaves out.
        """
        n, steps, amplitude = 128, 256, 0.2
        at = set(range(0, steps + 1, steps // 4))
        runs = []
        for sigma in (0.0, amplitude):
            cfg = ExperimentConfig(
                horizon=steps * 0.5 / 1024, master_steps=steps, seeds=(0,), n_sweep=(n,),
                checkpoints=4, force_backend="direct", dim=1,
                sigma_amplitude=sigma, sigma_modulation=0.0,
            )
            path = sample_fbm(cfg.noise_spec(0))
            snaps = _fluid_trajectory(cfg, path, at)
            family = cfg.kernel()
            fine_m = _auto_grid(family, n, cfg.box, cfg.fine_grid, "phi_r")
            runs.append([(i, ens, energy_Q(ens, snaps[i], family, fine_m).kinetic_term)
                         for i, ens in simulate(cfg, n, path, 0, at)])
        y = path.values[:, 0]
        shift = cfg.horizon / steps * amplitude * np.concatenate([[0.0], np.cumsum(y)[:-1]])
        assert [row[0] for row in runs[1]] == sorted(at)
        for (i, still, k_still), (_, kicked, k_kicked) in zip(*runs):
            dx = kicked.positions - shift[i] - still.positions
            dx = (dx + 0.5 * cfg.box) % cfg.box - 0.5 * cfg.box
            assert np.max(np.abs(dx)) < 1e-13
            dv = kicked.velocities - amplitude * y[i] - still.velocities
            assert np.max(np.abs(dv)) < 1e-11
            assert abs(k_kicked - k_still) <= 1e-10 * k_still
        assert k_still > 1e-3  # the velocities have left the fluid's by T

    @pytest.mark.parametrize("m", [128, 256])
    def test_fluid_galilean_shift(self, m):
        """The fluid half of the boost: on one path, the sigma = 0.2 fluid is
        the sigma = 0 fluid moved by the spectral shift dt sigma sum_{j<i}
        Y_{t_j}, the left Riemann sum of the particle side, with sigma Y_t
        added to v.  Desk dt, 256 steps, at 5 checkpoints; measured misses
        9.5e-12 in rho and 1.1e-11 in v on both meshes, against a change of
        1.7e-3 in rho from the kick.  The miss is the RK3 error: on one path
        restricted to 256, 512 and 1024 steps of [0, 0.125] it falls 8x per
        halving of dt (1.1e-11, 1.4e-12, 1.8e-13 in rho); at 1024 desk-dt
        steps it is 1.3e-9.
        """
        steps, amplitude = 256, 0.2
        at = set(range(0, steps + 1, steps // 4))
        fluids = []
        for sigma in (0.0, amplitude):
            cfg = ExperimentConfig(
                horizon=steps * 0.5 / 1024, master_steps=steps, seeds=(0,), n_sweep=(64,),
                checkpoints=4, pde_resolution=m, dim=1,
                sigma_amplitude=sigma, sigma_modulation=0.0,
            )
            path = sample_fbm(cfg.noise_spec(0))
            fluids.append(_fluid_trajectory(cfg, path, at))
        y = path.values[:, 0]
        shift = cfg.horizon / steps * amplitude * np.concatenate([[0.0], np.cumsum(y)[:-1]])
        g = cfg.pde_grid()
        kick = 0.0
        for i in sorted(at):
            still, kicked = fluids[0][i], fluids[1][i]
            moved = g.irfft(still.spectrum * np.exp(-1j * g.wavenumbers() * shift[i]))
            assert np.max(np.abs(kicked.rho - moved[0])) < 3e-11
            assert np.max(np.abs(kicked.v - amplitude * y[i] - moved[1:])) < 3e-11
            kick = max(kick, np.max(np.abs(kicked.rho - still.rho)))
        assert kick > 1e-3


class TestCheckpointRow:
    def test_one_pde_mesh_transform_per_row(self, monkeypatch):
        # A step_field output carries its half spectrum: the row reads rho's
        # and v's from it and transforms only rho v on the PDE mesh.
        cfg = _tiny_config()
        end, n = cfg.master_steps, cfg.n_sweep[0]
        path = sample_fbm(cfg.noise_spec(0))
        fluid = _fluid_trajectory(cfg, path, {end})[end]
        ((_, ens),) = simulate(cfg, n, path, 0, {end})
        family = cfg.kernel()
        part = build_partition(Grid(box=cfg.box, m=cfg.besov_grid), lam=cfg.besov_lambda)
        fine_m = _auto_grid(family, n, cfg.box, cfg.fine_grid, "phi_r")
        calls = []
        rfft = Grid.rfft

        def counted(self, f):
            if self == fluid.grid:
                calls.append(np.shape(f))
            return rfft(self, f)

        monkeypatch.setattr(Grid, "rfft", counted)
        row = _checkpoint_row(cfg, ens, family, fluid, part, fine_m)
        assert calls == [(1, cfg.pde_resolution)]
        # The carried spectrum is that of the state's nodes up to rounding.
        fresh = _checkpoint_row(cfg, ens, family, replace(fluid), part, fine_m)
        rec, fresh_rec = row[0], fresh[0]
        assert rec.kinetic_term == pytest.approx(fresh_rec.kinetic_term, rel=1e-11)
        assert rec.density_term == pytest.approx(fresh_rec.density_term, rel=1e-11)
        assert row[1:] == pytest.approx(fresh[1:], rel=1e-11)


def _energy_case(dim, m, n):
    """A fluid density that fills every mode of its mesh, the Nyquist modes
    included, about a smooth profile, and n particles at its quantiles with
    velocities off the fluid's: the density term is then a small difference
    of two large spectra, as in a run."""
    g = Grid(box=1.0, m=m, dim=dim)
    rng = np.random.default_rng(m + n)
    rho = 1.0 + 0.2 * np.sin(2 * np.pi * g.coordinate(0)) + 1e-3 * rng.standard_normal(g.shape)
    fluid = FluidState(grid=g, rho=rho / np.mean(rho), v=np.zeros((dim,) + g.shape))
    ens = init_from_fields(fluid.rho, fluid.v, n, g)
    ens = replace(ens, velocities=0.1 * rng.standard_normal((n, dim)))
    return fluid, ens, KernelFamily(beta=0.6, dim=dim, bandwidth=0.1)


def _node_density_term(ens, fluid, family, fine_m):
    """Reference: the density term as a quadrature on the fine nodes, S^N *
    phi_N^r (CIC deposit, window divided out, mollified) less rho upsampled,
    squared and summed in sorted order."""
    g = fluid.grid
    fine = Grid(box=g.box, m=fine_m, dim=g.dim)
    dens = fine.irfft(fine.rfft(deposit_cic(ens.positions, fine)) / _cic_transfer(fine))
    kern = periodic_kernel_samples(family, ens.count, fine.box, fine_m, which="phi_r")
    emp = fine.irfft(fine.rfft(dens) * fine.rfft(kern)) * fine.cell_volume()
    diff2 = (emp - upsample(fluid.rho, g, fine_m)) ** 2
    return sorted_sum(diff2) / diff2.size * g.box**g.dim


@pytest.fixture(scope="module")
def tiny_run():
    cfg = _tiny_config()
    buf = io.StringIO()
    results = run_coupled(cfg, csv_sink=buf)
    return cfg, results, buf.getvalue()


class TestRunCoupled:
    def test_all_runs_clean(self, tiny_run):
        _, results, _ = tiny_run
        assert all(r["flag"] == "ok" for r in results)
        assert {r["n"] for r in results} == {64, 128}

    def test_checkpoint_count(self, tiny_run):
        cfg, results, _ = tiny_run
        for r in results:
            assert len(r["records"]) == cfg.checkpoints + 1
            assert r["records"][0].t == 0.0
            assert r["records"][-1].t == pytest.approx(cfg.horizon)

    def test_checkpoint_count_when_steps_not_divisible(self):
        # 100 steps in 16 intervals: 17 rows, t = 0 and the horizon included,
        # each interval 6 or 7 steps long.
        cfg = _tiny_config(master_steps=100, horizon=0.078125, checkpoints=16, n_sweep=(64,),
                           pde_resolution=32, force_grid=256, fine_grid=256, besov_grid=256)
        dt = cfg.horizon / cfg.master_steps
        for r in run_coupled(cfg):
            steps = np.rint(np.array([rec.t for rec in r["records"]]) / dt)
            assert len(steps) == cfg.checkpoints + 1
            assert steps[0] == 0 and steps[-1] == cfg.master_steps
            assert set(np.diff(steps)) == {6, 7}

    def test_csv_format(self, tiny_run):
        cfg, results, text = tiny_run
        lines = text.splitlines()
        assert lines[0].startswith("# holderflow-run,config_hash=")
        assert cfg.config_hash() in lines[0]
        assert lines[1] == CSV_COLUMNS
        n_rows = sum(len(r["records"]) for r in results)
        assert len(lines) == 2 + n_rows
        first = lines[2].split(",")
        assert len(first) == len(CSV_COLUMNS.split(","))

    def test_deterministic_rerun(self, tiny_run):
        cfg, _, text = tiny_run
        buf = io.StringIO()
        run_coupled(cfg, csv_sink=buf)
        assert buf.getvalue() == text

    def test_force_kernel_built_once_per_n(self, monkeypatch):
        # The grid force operators are built once per N, not at every step
        # nor for every seed.
        import holderflow.kernels
        import holderflow.particles

        built = []
        orig = holderflow.kernels.periodic_kernel_samples

        def counting(family, n, box, m, which="phi_r", derivative=False, **kw):
            if derivative:
                built.append(n)
            return orig(family, n, box, m, which, derivative, **kw)

        for mod in (holderflow.kernels, holderflow.particles):
            monkeypatch.setattr(mod, "periodic_kernel_samples", counting)
        holderflow.particles._force_operators.cache_clear()
        cfg = _tiny_config(master_steps=16, horizon=0.0125, seeds=(0, 1))
        for seed in cfg.seeds:
            path = sample_fbm(cfg.noise_spec(seed))
            for n in cfg.n_sweep:
                states = list(simulate(cfg, n, path, seed, {cfg.master_steps}))
                assert states[-1][1].time == pytest.approx(cfg.horizon)
        assert built == list(cfg.n_sweep)

    def test_mollifier_spectrum_built_once_per_n_and_mesh(self, monkeypatch):
        # The checkpoint density mollifies with the same kernel at every
        # checkpoint of an N; its samples are built once per (N, fine mesh).
        import holderflow.kernels

        built = []
        orig = holderflow.kernels.periodic_kernel_samples

        def counting(family, n, box, m, which="phi_r", derivative=False, **kw):
            if not derivative:
                built.append((n, m, which))
            return orig(family, n, box, m, which, derivative, **kw)

        monkeypatch.setattr(holderflow.kernels, "periodic_kernel_samples", counting)
        holderflow.kernels._kernel_spectrum.cache_clear()
        cfg = _tiny_config(master_steps=16, horizon=0.0125, seeds=(0, 1))
        results = run_coupled(cfg)
        assert all(len(r["records"]) == cfg.checkpoints + 1 for r in results)
        family = cfg.kernel()
        want = [(n, _auto_grid(family, n, cfg.box, cfg.fine_grid, "phi_r"), "phi_r")
                for n in cfg.n_sweep]
        # The N run on a thread pool, so the builds come in no fixed order.
        assert sorted(built) == sorted(want)

    def test_checkpoint_memory_does_not_grow_with_checkpoints(self):
        # The Besov targets are padded in each checkpoint row, not held for
        # every checkpoint of a seed: 60 more checkpoints cost less than one
        # field on the 16384-node Besov mesh (at the parent, 60 pairs of them).
        import tracemalloc

        def peak(checkpoints):
            cfg = _tiny_config(horizon=0.03125, n_sweep=(256,), checkpoints=checkpoints,
                               pde_resolution=16, besov_grid=16384)
            run_coupled(cfg)  # the operator caches fill outside the trace
            tracemalloc.start()
            try:
                results = run_coupled(cfg)
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert [len(r["records"]) for r in results] == [checkpoints + 1]
            assert all(r["flag"] == "ok" for r in results)
            return top

        besov_field = 16384 * np.dtype(float).itemsize
        assert peak(64) - peak(4) < besov_field

    def test_particle_abort_recorded_not_raised(self):
        # A kernel too wide for the box at small N fails that run only;
        # the sweep records the reason and continues with larger N.
        cfg = _tiny_config(kernel_bandwidth=0.2, n_sweep=(2, 64))
        results = run_coupled(cfg)
        flags = {r["n"]: r["flag"] for r in results}
        assert flags[2] == "aborted:RegimeError"
        assert flags[64] == "ok"

    def test_aborted_run_flags_every_row(self, monkeypatch):
        # N=64 fails after its second checkpoint: the two rows it wrote carry
        # the abort flag, and N=128 runs on clean.
        import holderflow.convergence

        cfg = _tiny_config()
        stride = cfg.master_steps // cfg.checkpoints
        orig = holderflow.convergence.step
        steps = []

        def failing(ens, *args, **kwargs):
            if ens.count == 64:
                steps.append(ens.time)
                if len(steps) > stride:
                    raise FloatingPointError("injected")
            return orig(ens, *args, **kwargs)

        monkeypatch.setattr(holderflow.convergence, "step", failing)
        buf = io.StringIO()
        results = run_coupled(cfg, csv_sink=buf)
        flags = {}
        for line in buf.getvalue().splitlines()[2:]:
            row = line.split(",")
            flags.setdefault(int(row[1]), []).append(row[-1])
        assert flags == {
            64: ["aborted:FloatingPointError"] * 2,
            128: ["ok"] * (cfg.checkpoints + 1),
        }
        assert [(r["flag"], len(r["records"])) for r in results] == [
            ("aborted:FloatingPointError", 2),
            ("ok", cfg.checkpoints + 1),
        ]

    def test_random_init_byte_deterministic(self):
        cfg = _tiny_config(init_strategy="random")
        a, b = io.StringIO(), io.StringIO()
        run_coupled(cfg, csv_sink=a)
        run_coupled(cfg, csv_sink=b)
        assert a.getvalue() == b.getvalue()

    def test_two_dimensional_sweep_runs(self):
        cfg = ExperimentConfig(
            dim=2, eta=2.5, n_sweep=(16, 64, 256), seeds=(0,), master_steps=32,
            horizon=1 / 32, pde_resolution=32, besov_grid=64, force_grid=64,
            fine_grid=64, checkpoints=4, kernel_bandwidth=0.12,
        )
        results = run_coupled(cfg)
        assert [r["flag"] for r in results] == ["ok"] * 3
        assert all(np.isfinite(rec.q) for r in results for rec in r["records"])
        path = sample_fbm(cfg.noise_spec(0))
        snaps = _fluid_trajectory(cfg, path, {0, cfg.master_steps})
        mass = [st.mass() for st in snaps.values()]
        assert abs(mass[1] - mass[0]) <= 1e-12 * mass[0]

    def test_programming_error_propagates(self, monkeypatch):
        # Only numerical failures and regime refusals become aborted rows.
        # The runs go largest N first; a pool of 1 runs only the largest
        # before the error, and a pool of 2 never starts the smallest: a
        # run not started when the error is raised never starts.  No pool
        # thread outlives the call.
        import holderflow.convergence

        def broken(*args):
            raise ValueError("broken checkpoint")

        started = []
        orig = holderflow.convergence.simulate

        def recording(config, n, *args):
            started.append(n)
            return orig(config, n, *args)

        monkeypatch.setattr(holderflow.convergence, "_checkpoint_row", broken)
        monkeypatch.setattr(holderflow.convergence, "simulate", recording)
        threads = threading.active_count()
        for cores in (1, 2):
            monkeypatch.setattr(holderflow.convergence, "_cores", lambda: cores)
            started.clear()
            with pytest.raises(ValueError, match="broken checkpoint"):
                run_coupled(_tiny_config(n_sweep=(64, 96, 128)))
            assert threading.active_count() == threads
            assert 64 not in started
            if cores == 1:
                assert started == [128]

    def test_pool_size_changes_no_byte(self, monkeypatch):
        # Two seeds, three N, the smallest out of regime: the CSV bytes and
        # the flags are the same for pools of 1, 2 and 3 threads.
        import holderflow.convergence

        cfg = _tiny_config(kernel_bandwidth=0.2, seeds=(0, 1), n_sweep=(2, 64, 128))
        out = []
        for size in (1, 2, 3):
            monkeypatch.setattr(holderflow.convergence, "_cores", lambda: size)
            buf = io.StringIO()
            results = run_coupled(cfg, csv_sink=buf)
            out.append((buf.getvalue(), [(r["seed"], r["n"], r["flag"]) for r in results]))
        assert out[1] == out[0] and out[2] == out[0]
        assert out[0][1] == [
            (seed, n, "aborted:RegimeError" if n == 2 else "ok")
            for seed in cfg.seeds
            for n in cfg.n_sweep
        ]

    def test_fluid_failure_propagates(self):
        # The co-evolved field dying invalidates the whole seed.
        cfg = _tiny_config(vacuum_floor=0.7999)  # just below the initial minimum, 0.8
        with pytest.raises(FloatingPointError, match="vacuum"):
            run_coupled(cfg)


class TestMasterPath:
    # The master path is the clock of a run: its grid must be the config's,
    # 64 steps on [0, 0.05] for _tiny_config.
    @pytest.mark.parametrize(
        "steps, horizon, start",
        [(64, 1.0, 0.0), (8, 0.05, 0.0), (128, 0.05, 0.0), (64, 0.05 * (1 + 1e-9), 0.0),
         (64, 0.05, 0.5)],
        ids=["other_horizon", "fewer_steps", "more_steps", "horizon_just_off", "late_start"],
    )
    @pytest.mark.parametrize("run", ["fluid", "particles"])
    def test_path_off_the_config_grid_refused(self, steps, horizon, start, run):
        cfg = _tiny_config()
        path = sample_fbm(NoiseSpec(hurst=cfg.hurst, horizon=horizon, resolution=steps))
        path = SampledPath(path.times + start, path.values, path.alpha)
        grids = rf"the path runs {steps} steps on .*config's grid is 64 steps on \[0, 0.05\]"
        with pytest.raises(ValueError, match=grids):
            if run == "fluid":
                _fluid_trajectory(cfg, path, {64})
            else:
                next(simulate(cfg, 64, path, 0, {64}))


class TestFitRate:
    def _synthetic(self, slope, ns=(256, 512, 1024), seeds=(0, 1)):
        rows = []
        for s in seeds:
            for n in ns:
                q = float(n) ** slope
                rec = [EnergyRecord(t=0.0, kinetic_term=q * 1e-6, density_term=0.0),
                       EnergyRecord(t=0.5, kinetic_term=q, density_term=0.0)]
                rows.append({
                    "seed": s, "n": n, "records": rec,
                    "besov_s": [q, 0.5 * q], "besov_v": [q, 0.25 * q],
                    "flag": "ok",
                })
        return rows

    def test_recovers_planted_slope(self):
        cfg = _tiny_config(n_sweep=(256, 512, 1024), seeds=(0, 1))
        rep = fit_rate(self._synthetic(-0.6), cfg)
        assert rep.slope_q == pytest.approx(-0.6, abs=1e-10)
        assert not rep.floor_limited
        assert all(not f for f in rep.floor_flags.values())

    def test_floor_detection(self):
        cfg = _tiny_config(n_sweep=(256, 512, 1024), seeds=(0,))
        rows = self._synthetic(-0.6, seeds=(0,))
        # Make the initial energy dominate at the largest N.
        big = rows[-1]["records"][-1].q
        rows[-1]["records"][0] = EnergyRecord(t=0.0, kinetic_term=big, density_term=0.0)
        rep = fit_rate(rows, cfg)
        assert rep.floor_flags["1024"] is True
        assert rep.floor_flags["256"] is False

    def test_aborted_rows_excluded(self):
        cfg = _tiny_config(n_sweep=(256, 512, 1024), seeds=(0, 1))
        rows = self._synthetic(-0.6)
        rows[0]["flag"] = "aborted:ValueError"
        rep = fit_rate(rows, cfg)
        assert "(0, 256)" not in rep.sup_q

    def test_manifest_contents(self):
        cfg = _tiny_config()
        rep = fit_rate(self._synthetic(-0.5, ns=(64, 128), seeds=(0,)), cfg)
        assert rep.manifest["config_hash"] == cfg.config_hash()
        assert rep.manifest["rate_envelope"] == pytest.approx(-cfg.beta / cfg.dim)


class TestEmitReport:
    def test_json_deterministic_and_complete(self):
        cfg = _tiny_config()
        rows = TestFitRate()._synthetic(-0.6, ns=(64, 128), seeds=(0,))
        rep = fit_rate(rows, cfg)
        a, b = io.StringIO(), io.StringIO()
        emit_report(rep, a)
        emit_report(rep, b)
        assert a.getvalue() == b.getvalue()
        payload = json.loads(a.getvalue())
        assert "slope_q" in payload and "manifest" in payload
        assert "timestamp" not in json.dumps(payload).lower()

    def test_undefined_slope_is_null(self):
        # A floor-limited fit has no slope: strict JSON has no NaN token.
        cfg = _tiny_config(n_sweep=(256, 512, 1024), seeds=(0,))
        rows = TestFitRate()._synthetic(-0.6, seeds=(0,))
        for row in rows[1:]:
            big = row["records"][-1].q
            row["records"][0] = EnergyRecord(t=0.0, kinetic_term=big, density_term=0.0)
        rep = fit_rate(rows, cfg)
        assert rep.floor_limited and math.isnan(rep.slope_q)
        out = io.StringIO()
        emit_report(rep, out)

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads(out.getvalue(), parse_constant=refuse)
        assert payload["slope_q"] is None and payload["slope_q_stderr"] is None
        assert payload["sup_q"] == rep.sup_q
