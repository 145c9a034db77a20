"""Config grammar, strict parsing, round-trips and the CLI surface."""

import io
import json

import numpy as np
import pytest

from holderflow.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_ORACLE, EXIT_USAGE, main
from holderflow.config import ConfigError, emit_config, parse_config_text
from holderflow.convergence import ExperimentConfig
from holderflow.noise import load_path

MINIMAL = """
[noise]
hurst = 0.75
"""

TINY_RUN = """
[noise]
hurst = 0.75
horizon = 0.05
steps = 64
seeds = 0

[particles]
n_list = 64

[pde]
resolution = 128

[analysis]
besov_grid = 1024
fine_grid = 1024
"""


class TestParsing:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg == ExperimentConfig(hurst=0.75)

    def test_empty_config_is_all_defaults(self):
        assert parse_config_text("") == ExperimentConfig()

    def test_unknown_section_fatal(self):
        with pytest.raises(ConfigError, match=r"unknown section"):
            parse_config_text("[physics]\ngravity = 9.8\n")

    def test_unknown_key_fatal(self):
        with pytest.raises(ConfigError, match=r"unknown key"):
            parse_config_text("[noise]\nhorst = 0.75\n")

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("[noise]\nhurst = smooth\n")

    def test_hypothesis_violations_named(self):
        with pytest.raises(ConfigError, match="alpha > 1/2"):
            parse_config_text("[noise]\nhurst = 0.4\n")
        with pytest.raises(ConfigError, match=r"beta must lie in \(0, 1\)"):
            parse_config_text("[kernel]\nbeta = 1.0\n")
        with pytest.raises(ConfigError, match="eta > d/2"):
            parse_config_text("[analysis]\neta = 1.2\n")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[noise]\ndim = 3\n", "dim=3"),
            ("[particles]\nforce_backend = gird\n", "force_backend"),
            ("[particles]\ninit = sobol\n", "init"),
            # The d=1 default meshes would be 16384^2 points in 2-d.
            ("[noise]\ndim = 2\n[analysis]\neta = 2.5\n", "besov_grid=16384"),
            ("[noise]\ndim = 2\n[analysis]\neta = 2.5\nbesov_grid = 64\n"
             "fine_grid = 64\n[particles]\nforce_grid = 64\n[pde]\nresolution = 512\n",
             "pde_resolution=512"),
            ("[analysis]\nfine_grid = 262144\n", "fine_grid=262144"),
            ("[analysis]\ncheckpoints = 0\n", "checkpoints=0"),
            ("[analysis]\ncheckpoints = -2\n", "checkpoints=-2"),
            ("[noise]\nseeds =\n", "seeds"),
            ("[pde]\ncfl = 0\n", "cfl=0"),
            ("[pde]\ncfl = -0.5\n", "cfl=-0.5"),
            ("[analysis]\nq_hat = 0\n", "q_hat=0"),
            ("[kernel]\nbase = cauchy\n", "unknown base density"),
            ("[noise]\ndim = 2\n[kernel]\nbase = bump\n[analysis]\neta = 2.5\n", "d=1 only"),
        ],
        ids=["dim", "force_backend", "init", "d2_default_meshes", "d2_pde", "d1_fine",
             "checkpoints_zero", "checkpoints_negative", "seeds_empty", "cfl_zero",
             "cfl_negative", "q_hat_zero", "unknown_base", "bump_d2"],
    )
    def test_unrunnable_settings_refused_at_parse(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "text", ["[pde]\ncfl = nan\n", "[pde]\nvacuum_floor = nan\n", "[domain]\nbox = inf\n"]
    )
    def test_non_finite_floats_refused_at_parse(self, text):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config_text(text)

    def test_seed_and_sweep_lists(self):
        cfg = parse_config_text("[noise]\nseeds = 3 5 7\n\n[particles]\nn_list = 16 32\n")
        assert cfg.seeds == (3, 5, 7)
        assert cfg.n_sweep == (16, 32)


class TestRoundTrip:
    def test_parse_emit_parse_fixpoint(self):
        cfg = parse_config_text(MINIMAL)
        text = emit_config(cfg)
        again = parse_config_text(text)
        assert again == cfg
        assert emit_config(again) == text

    def test_emit_covers_every_field(self):
        # Changing any schema-exposed field must survive the round trip.
        cfg = ExperimentConfig(
            hurst=0.8, beta=0.4, sigma_amplitude=0.3, besov_lambda=1.2,
            n_sweep=(32, 64), seeds=(9,), checkpoints=8, init_strategy="quantile",
        )
        assert parse_config_text(emit_config(cfg)) == cfg


class TestCli:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "noise" in capsys.readouterr().out

    def test_unknown_subcommand_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_noise_round_trip(self, tmp_path, capsys):
        out = tmp_path / "path.csv"
        code = main([
            "noise", "--hurst", "0.75", "--steps", "64", "--seed", "3",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        path = load_path(str(out))
        assert path.steps == 64
        assert path.alpha == pytest.approx(0.74)

    def test_bad_config_usage_exit(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[noise]\nhurst = 0.4\n")
        with pytest.raises(SystemExit) as exc:
            main(["pde", "--config", str(cfg)])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_backend_usage_exit(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(TINY_RUN.replace("n_list = 64", "n_list = 64\nforce_backend = gird"))
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert exc.value.code == EXIT_USAGE

    def test_bump_in_d2_refused_before_any_output(self, tmp_path, capsys):
        cfg = tmp_path / "bump.cfg"
        cfg.write_text(
            "[noise]\ndim = 2\nhorizon = 0.05\nsteps = 8\nseeds = 0\n"
            "[kernel]\nbase = bump\nbandwidth = 0.2\n[particles]\nn_list = 64\nforce_grid = 32\n"
            "[pde]\nresolution = 32\n[analysis]\neta = 2.5\nbesov_grid = 32\nfine_grid = 32\n"
        )
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert "d=1 only" in capsys.readouterr().err
        assert not (out / "records.csv").exists()

    def test_cfl_violation_numerical_exit(self, tmp_path, capsys):
        cfg = tmp_path / "cfl.cfg"
        cfg.write_text(TINY_RUN.replace("horizon = 0.05\nsteps = 64", "horizon = 0.125\nsteps = 4"))
        assert main(["pde", "--config", str(cfg)]) == EXIT_NUMERICAL
        assert "violates CFL" in capsys.readouterr().err

    def test_non_finite_cfl_usage_exit(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(TINY_RUN.replace("resolution = 128", "resolution = 128\ncfl = nan"))
        with pytest.raises(SystemExit) as exc:
            main(["pde", "--config", str(cfg)])
        assert exc.value.code == EXIT_USAGE
        assert "cfl must be finite" in capsys.readouterr().err

    def test_fluid_failure_names_seed_and_step(self, tmp_path, capsys):
        cfg = tmp_path / "vacuum.cfg"
        cfg.write_text(TINY_RUN.replace("resolution = 128", "resolution = 128\nvacuum_floor = 2.0"))
        out = tmp_path / "out"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: seed 0, fluid at master step 1 of 64: density" in err
        assert main(["pde", "--config", str(cfg)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: fluid at master step 1 of 64: density" in err

    def test_simulate_refuses_non_positive_n(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_RUN)
        assert main(["simulate", "--config", str(cfg), "--n", "0"]) == EXIT_USAGE
        assert "--n must be a positive particle count" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_particle_state_numerical_exit(self, tmp_path, capsys):
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(TINY_RUN + "\n[sigma]\namplitude = 1.5e308\n")
        assert main(["simulate", "--config", str(cfg), "--n", "32"]) == EXIT_NUMERICAL
        assert "numerical failure: non-finite particle state" in capsys.readouterr().err

    def test_pde_runs_and_writes_field(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_RUN)
        out = tmp_path / "rho.txt"
        assert main(["pde", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "mass=" in printed
        header = out.read_text().splitlines()[0]
        assert "holderflow-field" in header

    def test_besov_on_saved_field(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_RUN)
        out = tmp_path / "rho.txt"
        main(["pde", "--config", str(cfg), "--out", str(out)])
        assert main(["besov", "--input", str(out), "--s", "-2.0"]) == EXIT_OK
        assert "norm" in capsys.readouterr().out

    def test_simulate_writes_particles(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_RUN)
        out = tmp_path / "particles.csv"
        assert main([
            "simulate", "--config", str(cfg), "--n", "32", "--out", str(out),
        ]) == EXIT_OK
        data = np.loadtxt(out, delimiter=",")
        assert data.shape == (32, 3)

    def test_converge_writes_csv_and_summary(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_RUN.replace("n_list = 64", "n_list = 32 64"))
        outdir = tmp_path / "out"
        assert main(["converge", "--config", str(cfg), "--out", str(outdir)]) == EXIT_OK
        csv_text = (outdir / "records.csv").read_text()
        assert csv_text.startswith("# holderflow-run,config_hash=")
        summary = json.loads((outdir / "summary.json").read_text())
        assert "slope_q" in summary
        assert "config_hash" in summary["manifest"]

    def test_check_passes_on_fresh_build(self, capsys):
        assert main(["check"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all oracles passed" in out
        assert "FAIL" not in out

    def test_exit_codes_distinct(self):
        assert len({EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL, EXIT_ORACLE}) == 4
