"""Coupled rate experiment: energy, adaptive meshes, fitting, reports."""

import io
import json
from dataclasses import replace

import numpy as np
import pytest

from holderflow.convergence import (
    CSV_COLUMNS,
    EnergyRecord,
    ExperimentConfig,
    _auto_grid,
    _fluid_trajectory,
    emit_report,
    energy_Q,
    fit_rate,
    run_coupled,
    simulate,
)
from holderflow.fields import FieldInterpolant, FluidState, Grid
from holderflow.kernels import KernelFamily
from holderflow.noise import sample_fbm
from holderflow.particles import ParticleEnsemble, init_from_fields


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

    def test_record_q_is_sum(self):
        rec = EnergyRecord(t=0.5, kinetic_term=0.25, density_term=0.5)
        assert rec.q == pytest.approx(0.75)


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
        # The grid force plan is built once per N, not at every step.
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
        cfg = _tiny_config(master_steps=16, horizon=0.0125)
        path = sample_fbm(cfg.noise_spec(0))
        for n in cfg.n_sweep:
            states = list(simulate(cfg, n, path, 0, {cfg.master_steps}))
            assert states[-1][1].time == pytest.approx(cfg.horizon)
        assert built == list(cfg.n_sweep)

    def test_particle_abort_recorded_not_raised(self):
        # A kernel too wide for the box at small N fails that run only;
        # the sweep records the reason and continues with larger N.
        cfg = _tiny_config(kernel_bandwidth=0.2, n_sweep=(2, 64))
        results = run_coupled(cfg)
        flags = {r["n"]: r["flag"] for r in results}
        assert flags[2] == "aborted:RegimeError"
        assert flags[64] == "ok"

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
        import holderflow.convergence

        def broken(*args):
            raise ValueError("broken checkpoint")

        monkeypatch.setattr(holderflow.convergence, "_checkpoint_row", broken)
        with pytest.raises(ValueError, match="broken checkpoint"):
            run_coupled(_tiny_config(n_sweep=(64,)))

    def test_fluid_failure_propagates(self):
        # The co-evolved field dying invalidates the whole seed.
        cfg = _tiny_config(vacuum_floor=2.0)
        with pytest.raises(FloatingPointError, match="vacuum"):
            run_coupled(cfg)


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
