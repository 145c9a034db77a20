"""Config grammar, strict parsing, round-trips and the CLI surface."""

import configparser
import io
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from holderflow.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_ORACLE, EXIT_USAGE, main
from holderflow.config import ConfigError, emit_config, parse_config, parse_config_text
from holderflow.convergence import ExperimentConfig
from holderflow.noise import load_path

MINIMAL = """
[noise]
hurst = 0.75
"""

D2_MESHES = """
[noise]
dim = 2
[analysis]
eta = 2.5
besov_grid = 64
fine_grid = 64
[pde]
resolution = 64
[particles]
force_grid = 64
"""  # a d=2 run on 64^2 meshes; a test appends its other [particles] keys

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


# A valid value other than the default for every field that has one.
NON_DEFAULT = {
    "hurst": 0.8, "dim": 2, "horizon": 0.25, "master_steps": 512, "seeds": (9,), "box": 2.0,
    "beta": 0.4, "kernel_bandwidth": 0.08, "n_sweep": (32, 64), "force_backend": "direct",
    "force_grid": 128, "fine_grid": 128, "pde_resolution": 64, "cfl": 0.4,
    "vacuum_floor": 1e-4, "sigma_amplitude": 0.3, "sigma_modulation": 0.25, "eta": 2.5,
    "q_hat": 1.5, "besov_grid": 128, "besov_lambda": 1.2, "checkpoints": 8,
    "rho0_amplitude": 0.1, "v0_amplitude": 0.05, "init_strategy": "random",
}


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

    @pytest.mark.parametrize(
        "text",
        ["[DEFAULT]\nhurst = 0.4\n",
         "[DEFAULT]\nhurst = 0.8\n[noise]\nsteps = 64\n[kernel]\nbeta = 0.5\n"],
        ids=["alone", "with_sections"],
    )
    def test_default_section_refused(self, text):
        # configparser reads [DEFAULT] as keys of every section: alone it was
        # ignored, and beside other sections its key was blamed on one of them.
        with pytest.raises(ConfigError, match=r"section \[DEFAULT\] is not allowed"):
            parse_config_text(text)

    def test_text_that_is_not_ini_is_config_error(self):
        with pytest.raises(ConfigError, match="^<string> is not strict INI: .*no section headers"):
            parse_config_text("hurst = 1\n")

    def test_not_ini_error_names_its_file(self, tmp_path):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("[noise]\nhurst = 0.75\nhurst = 0.8\n")
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        msg = str(err.value)
        assert f"While reading from {str(cfg)!r}" in msg and "<string>" not in msg

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
            # _auto_grid rounds a minimum of 300 up to 512, and 512^2 > MAX_GRID.
            ("[noise]\ndim = 2\n[analysis]\neta = 2.5\nbesov_grid = 64\n"
             "fine_grid = 300\n[particles]\nforce_grid = 300\n[pde]\nresolution = 64\n",
             "force_grid=300: a d=2 mesh of 512"),
            ("[analysis]\nfine_grid = 262144\n", "fine_grid=262144"),
            # Minima below the least mesh, which _auto_grid used to round up.
            ("[particles]\nforce_grid = -8\n", "force_grid=-8: a mesh needs at least 4"),
            ("[analysis]\nfine_grid = 0\n", "fine_grid=0: a mesh needs at least 4"),
            ("[analysis]\nfine_grid = 3\n", "fine_grid=3: a mesh needs at least 4"),
            # 257 is prime: 1 x 257 strata put every particle on one line x.
            (D2_MESHES + "n_list = 256 257\n",
             "n=257: quantile strata 1 x 257"),
            (D2_MESHES + "n_list = 74\n", "n=74: quantile strata 2 x 37"),
            ("[analysis]\ncheckpoints = 0\n", "checkpoints=0"),
            ("[analysis]\ncheckpoints = -2\n", "checkpoints=-2"),
            # More checkpoints than steps used to collapse onto fewer rows.
            ("[noise]\nsteps = 8\n[analysis]\ncheckpoints = 32\n",
             r"checkpoints=32: need 1 to \[noise\] steps=8"),
            # At N=16 _auto_grid adapts fine_grid = 64 to 512 < 1024; the run used
            # to integrate the whole fluid before padded_spectrum refused it.
            ("[kernel]\nbandwidth = 0.2\n[particles]\nn_list = 16\n[pde]\nresolution = 1024\n"
             "[analysis]\nfine_grid = 64\n[noise]\nsteps = 64\nhorizon = 0.0125\n",
             r"n=16: the fine mesh of 512 nodes per side \(fine_grid=64, .*\) is below "
             r"\[pde\] resolution=1024"),
            ("[noise]\nseeds =\n", "seeds"),
            ("[pde]\ncfl = 0\n", "cfl=0"),
            ("[pde]\ncfl = -0.5\n", "cfl=-0.5"),
            ("[analysis]\nq_hat = 0\n", "q_hat=0"),
            ("[kernel]\nbase = cauchy\n", "unknown base density"),
            ("[domain]\nbox = 0\n", "box=0.0: invalid grid parameters"),
            ("[domain]\nbox = -1\n", "box=-1.0: invalid grid parameters"),
            ("[pde]\nresolution = 2\n", "pde_resolution=2, box=1.0: invalid grid"),
            ("[analysis]\nbesov_grid = 3\n", "besov_grid=3, box=1.0: invalid grid"),
            # Every seed is checked, not only the first.
            ("[noise]\nseeds = 0 -1\n", "seed=-1: an fBm seed must be a non-negative"),
            ("[noise]\nseeds = 0 1 0\n", r"seeds = \(0, 1, 0\) repeats a value"),
            ("[particles]\nn_list = 64 128 64\n", r"n_sweep = \(64, 128, 64\) repeats"),
            ("[analysis]\nlambda = 1.0\n", r"lambda must lie in \(1, sqrt 2\)"),
            ("[analysis]\nlambda = 1.5\n", r"lambda must lie in \(1, sqrt 2\)"),
            ("[domain]\nrho0_amplitude = 1.5\n", "at or below vacuum_floor"),
            # (1 - 0.2) / 2 equals the floor exactly.
            ("[domain]\nbox = 2\n[pde]\nvacuum_floor = 0.4\n", "falls to 0.4, at or below"),
            # A negative floor let a run write rows from a negative density.
            ("[pde]\nvacuum_floor = -1\n", "vacuum_floor=-1.0: the vacuum floor"),
        ],
        ids=["dim", "force_backend", "init", "d2_default_meshes", "d2_pde",
             "d2_minimum_rounds_past_cap", "d1_fine", "force_grid_negative",
             "fine_grid_zero", "fine_grid_three", "d2_quantile_one_line",
             "d2_quantile_thin_strata",
             "checkpoints_zero", "checkpoints_negative", "checkpoints_above_steps",
             "fine_mesh_below_pde", "seeds_empty", "cfl_zero",
             "cfl_negative", "q_hat_zero", "unknown_base", "box_zero", "box_negative",
             "resolution_small", "besov_grid_small", "seed_negative", "seeds_repeated",
             "n_repeated", "lambda_one", "lambda_above_sqrt2", "rho0_below_zero",
             "rho0_at_floor", "vacuum_floor_negative"],
    )
    def test_unrunnable_settings_refused_at_parse(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config_text(text)

    def test_d2_strata_rule_bounds_the_side_ratio(self):
        # 2 x 7 and 3 x 11 are within the bound; random draws need no strata.
        for n in (14, 16, 33, 64, 256, 512, 1024, 2048, 4096):
            assert parse_config_text(D2_MESHES + f"n_list = {n}\n")
        assert parse_config_text(D2_MESHES + "n_list = 257\ninit = random\n")
        assert parse_config_text("[particles]\nn_list = 257\n")  # one stratum side in d=1

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

    def test_every_field_declares_one_key(self):
        keys = [f.metadata.get("key", "") for f in fields(ExperimentConfig)]
        assert all(re.fullmatch(r"[a-z]+\.[a-z0-9_]+", key) for key in keys), keys
        assert len(set(keys)) == len(keys)

    def test_emit_covers_every_field(self):
        # Every field but kernel_base, whose only valid value is its default,
        # is moved off its default; the round trip must keep each one.
        cfg = ExperimentConfig(**{
            f.name: NON_DEFAULT.get(f.name, f.default) for f in fields(ExperimentConfig)
        })
        assert {f.name for f in fields(cfg) if getattr(cfg, f.name) == f.default} == {
            "kernel_base"
        }
        text = emit_config(cfg)
        assert parse_config_text(text) == cfg
        assert len(re.findall(r"^\w+ = ", text, re.M)) == len(fields(cfg))

    def test_desk_scale_example_spells_out_every_default(self):
        path = Path(__file__).resolve().parents[1] / "scripts" / "desk_scale.cfg"
        cp = configparser.ConfigParser()  # strict: a repeated key is an error
        cp.read(path)
        listed = sorted(f"{section}.{key}" for section in cp.sections() for key in cp[section])
        assert listed == sorted(f.metadata["key"] for f in fields(ExperimentConfig))
        assert parse_config(path) == ExperimentConfig()


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

    @pytest.mark.parametrize("horizon", ["nan", "inf"])
    def test_non_finite_horizon_usage_exit(self, tmp_path, capsys, horizon):
        out = tmp_path / "p.csv"
        code = main(["noise", "--hurst", "0.75", "--horizon", horizon, "--steps", "8",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert "horizon must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_usage_exit(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[noise]\nhurst = 0.4\n")
        assert main(["pde", "--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error: hypothesis violated")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("hurst = 0.75\n", "no section headers"),
            ("[noise]\nhurst = 0.75\nhurst = 0.8\n", "option 'hurst' in section 'noise' already"),
            (None, "No such file or directory"),
        ],
        ids=["no_section_header", "repeated_key", "missing_file"],
    )
    def test_unreadable_config_usage_exit(self, tmp_path, capsys, text, match):
        cfg = tmp_path / "in.cfg"
        if text is not None:
            cfg.write_text(text)
        assert main(["pde", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error:" in err and str(cfg) in err and match in err

    @pytest.mark.parametrize(
        "header, match",
        [
            (None, "No such file or directory"),
            ("# holderflow-field,L=1.0,d=1,t=0.0", "needs L, M and d"),
            ("# holderflow-field,L=1.0,M=4,d=1,t0", "malformed header item 't0'"),
            ("# holderflow-field,L=1.0,M=8,d=1,t=0.0", "4 values, but the header needs M^d = 8"),
            ("# holderflow-field,L=nan,M=4,d=1,t=0.0", "finite box > 0"),
            ("# holderflow-field,L=inf,M=4,d=1,t=0.0", "got box=inf"),
        ],
        ids=["missing_file", "header_without_M", "item_without_equals", "row_count",
             "box_nan", "box_inf"],
    )
    def test_unreadable_field_usage_exit(self, tmp_path, capsys, header, match):
        field = tmp_path / "field.txt"
        if header is not None:
            field.write_text(header + "\n1\n2\n3\n4\n")
        assert main(["besov", "--input", str(field), "--s", "-2.0"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(field) in err and match in err

    @pytest.mark.parametrize("command", ["noise", "pde", "simulate"])
    def test_unwritable_output_usage_exit(self, tmp_path, capsys, monkeypatch, command):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started before its output path was checked")

        monkeypatch.setattr("holderflow.convergence._fluid_trajectory", no_run)
        monkeypatch.setattr("holderflow.convergence.simulate", no_run)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_RUN)
        out = tmp_path / "missing" / "out.txt"
        args = {
            "noise": ["noise", "--hurst", "0.75", "--steps", "8"],
            "pde": ["pde", "--config", str(cfg)],
            "simulate": ["simulate", "--config", str(cfg), "--n", "32"],
        }[command]
        assert main(args + ["--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(out) in err and "No such file or directory" in err

    def test_converge_into_existing_file_usage_exit(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_RUN)
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(out) in err and "File exists" in err

    @pytest.mark.parametrize(
        "option, value",
        [("--q", "0"), ("--q", "-1"), ("--q", "nan"), ("--s", "nan")],
        ids=["q_zero", "q_negative", "q_nan", "s_nan"],
    )
    def test_besov_index_out_of_range_usage_exit(self, tmp_path, capsys, option, value):
        field = tmp_path / "field.txt"
        rows = "\n".join(str(np.sin(2 * np.pi * k / 16)) for k in range(16))
        field.write_text("# holderflow-field,L=1.0,M=16,d=1,t=0.0\n" + rows + "\n")
        args = {"--s": "-2.0", "--q": "2.0", option: value}
        argv = ["besov", "--input", str(field), "--s", args["--s"], "--q", args["--q"]]
        assert main(argv) == EXIT_USAGE
        assert f"error: {option[2:]} must" in capsys.readouterr().err

    def test_unknown_backend_usage_exit(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(TINY_RUN.replace("n_list = 64", "n_list = 64\nforce_backend = gird"))
        out = str(tmp_path / "out")
        assert main(["converge", "--config", str(cfg), "--out", out]) == EXIT_USAGE

    def test_bump_base_refused_before_any_output(self, tmp_path, capsys):
        cfg = tmp_path / "bump.cfg"
        cfg.write_text(TINY_RUN + "\n[kernel]\nbase = bump\n")
        out = tmp_path / "out"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "the compact bump base was removed" in capsys.readouterr().err
        assert not out.exists()

    def test_besov_grid_below_resolution_refused_before_any_output(self, tmp_path, capsys):
        # The targets are the PDE spectrum padded onto the Besov mesh, which
        # cannot be coarser; the refusal comes at parse, not after the fluid run.
        cfg = tmp_path / "coarse_besov.cfg"
        cfg.write_text(TINY_RUN.replace("besov_grid = 1024", "besov_grid = 64"))
        out = tmp_path / "out"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "besov_grid=64 is below [pde] resolution=128" in err
        assert not out.exists()
        assert parse_config_text("[pde]\nresolution = 128\n[analysis]\nbesov_grid = 128\n")

    def test_degenerate_d2_quantile_n_refused_before_any_output(self, tmp_path, capsys):
        cfg = tmp_path / "one_line.cfg"
        cfg.write_text(D2_MESHES + "n_list = 257\n")
        out = tmp_path / "out"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n=257: quantile strata 1 x 257" in captured.err
        assert not out.exists()
        cfg.write_text(D2_MESHES)
        assert main(["simulate", "--config", str(cfg), "--n", "257", "--out", str(out)]) == EXIT_USAGE
        assert "n=257: quantile strata 1 x 257" in capsys.readouterr().err
        assert not out.exists()

    def test_cfl_violation_numerical_exit(self, tmp_path, capsys):
        cfg = tmp_path / "cfl.cfg"
        cfg.write_text(TINY_RUN.replace("horizon = 0.05\nsteps = 64", "horizon = 0.125\nsteps = 4")
                       + "checkpoints = 4\n")
        assert main(["pde", "--config", str(cfg)]) == EXIT_NUMERICAL
        assert "violates CFL" in capsys.readouterr().err

    def test_non_finite_cfl_usage_exit(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(TINY_RUN.replace("resolution = 128", "resolution = 128\ncfl = nan"))
        assert main(["pde", "--config", str(cfg)]) == EXIT_USAGE
        assert "cfl must be finite" in capsys.readouterr().err

    def test_fluid_failure_names_seed_and_step(self, tmp_path, capsys):
        # The initial density is 0.8 at its minimum and falls within the first step.
        cfg = tmp_path / "vacuum.cfg"
        cfg.write_text(TINY_RUN.replace("resolution = 128", "resolution = 128\nvacuum_floor = 0.7999"))
        out = tmp_path / "out"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: seed 0, fluid at master step 1 of 64: density" in err
        assert main(["pde", "--config", str(cfg)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: fluid at master step 1 of 64: density" in err

    def test_fbm_factorization_failure_numerical_exit(self, tmp_path, capsys):
        # The circulant embedding at H = 0.9999, M = 65536 has a least
        # eigenvalue of -9.3e-5 against a largest of 1.3e5.
        out = tmp_path / "p.csv"
        argv = ["noise", "--hurst", "0.9999", "--steps", "65536", "--out", str(out)]
        assert main(argv) == EXIT_NUMERICAL
        assert "negative eigenvalues for H=0.9999, M=65536" in capsys.readouterr().err
        assert not out.exists()

    def test_sampler_failure_names_seed(self, tmp_path, capsys, monkeypatch):
        # A constant autocovariance is singular: the Cholesky recursion fails.
        from holderflow import noise

        monkeypatch.setattr(noise, "_fgn_autocovariance", lambda n, hurst: np.ones(n + 1))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_RUN)
        out = tmp_path / "out"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: seed 0, fBm covariance factorization failed for H=0.75" in err

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
