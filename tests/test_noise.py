"""Fractional Brownian motion sampling and Hölder-path utilities."""

import hashlib
import io
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import holderflow.noise as noise
from holderflow.noise import (
    NoiseSpec,
    SampledPath,
    estimate_holder_exponent,
    fbm_covariance,
    holder_seminorm,
    load_path,
    restrict,
    sample_fbm,
    sample_fbm_paths,
    save_path,
)


class TestNoiseSpec:
    @pytest.mark.parametrize("hurst", [0.3, 0.5, 1.0, 1.2])
    def test_rejects_hurst_outside_young_regime(self, hurst):
        with pytest.raises(ValueError, match="hurst"):
            NoiseSpec(hurst=hurst)

    def test_rejects_bad_dimension_horizon_resolution(self):
        with pytest.raises(ValueError):
            NoiseSpec(hurst=0.75, dim=0)
        with pytest.raises(ValueError):
            NoiseSpec(hurst=0.75, horizon=0.0)
        with pytest.raises(ValueError):
            NoiseSpec(hurst=0.75, resolution=1)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
    def test_rejects_non_finite_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            NoiseSpec(hurst=0.75, horizon=horizon)


class TestSampledPath:
    def test_rejects_nonzero_start(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(ValueError, match="origin"):
            SampledPath(t, np.ones((5, 1)), alpha=0.7)

    def test_rejects_nonuniform_times(self):
        t = np.array([0.0, 0.1, 0.3, 0.4])
        v = np.zeros((4, 1))
        with pytest.raises(ValueError, match="uniform"):
            SampledPath(t, v, alpha=0.7)

    def test_rejects_jittered_times(self):
        # One step 5e-5 off in relative terms: inside np.allclose's default
        # atol of 1e-8, far outside a few ulps of the horizon.
        t = np.array([0.0, 1e-4, 2e-4 + 5e-9, 3e-4])
        with pytest.raises(ValueError, match="uniform"):
            SampledPath(t, np.zeros((4, 1)), alpha=0.7)

    @pytest.mark.parametrize("t", [[0.0, 0.1, 0.1, 0.2], [0.0, 0.2, 0.1, 0.3]],
                             ids=["repeated", "decreasing"])
    def test_rejects_times_not_increasing(self, t):
        with pytest.raises(ValueError, match="strictly increasing"):
            SampledPath(np.array(t), np.zeros((4, 1)), alpha=0.7)

    def test_accepts_fine_linspace_grid_of_non_dyadic_horizon(self):
        t = np.linspace(0.0, 0.7, 2**20 + 1)
        assert SampledPath(t, np.zeros((t.size, 1)), alpha=0.7).steps == 2**20

    def test_index_of_grid_times(self):
        path = SampledPath(np.linspace(0.0, 1.0, 11), np.zeros((11, 1)), alpha=0.7)
        assert [path.index(t) for t in (0.0, 0.3, 0.7, 1.0)] == [0, 3, 7, 10]
        assert path.index(path.times[7]) == 7

    @pytest.mark.parametrize("t", [0.3 + 1e-10, -0.1, 1.1, np.nan, np.inf, -np.inf, 1e308])
    def test_index_refuses_time_off_the_grid(self, t):
        path = SampledPath(np.linspace(0.0, 1.0, 11), np.zeros((11, 1)), alpha=0.7)
        with pytest.raises(ValueError, match=r"^s=.* is not a time of the path's grid"):
            path.index(t, "s")

    def test_same_grid_within_the_tolerance(self):
        path = sample_fbm(NoiseSpec(hurst=0.75, horizon=0.7, resolution=64))
        # A running sum of the step, a few ulps off linspace's times.
        twin = SampledPath(np.cumsum([0.0] + [0.7 / 64] * 64), path.values, path.alpha)
        assert not np.array_equal(twin.times, path.times)
        path.require_same_grid(twin)
        twin.require_same_grid(path)

    @pytest.mark.parametrize("horizon, steps", [(1.000009, 64), (1.0, 32)],
                             ids=["horizon", "steps"])
    def test_same_grid_refuses_other_grid(self, horizon, steps):
        path = sample_fbm(NoiseSpec(hurst=0.75, resolution=64))
        other = sample_fbm(NoiseSpec(hurst=0.75, horizon=horizon, resolution=steps))
        with pytest.raises(ValueError, match="paths must share the time grid"):
            path.require_same_grid(other)

    def test_properties(self):
        path = sample_fbm(NoiseSpec(hurst=0.75, dim=2, horizon=0.5, resolution=64))
        assert path.steps == 64
        assert path.dim == 2
        assert path.horizon == 0.5
        assert path.dt == pytest.approx(0.5 / 64)


class TestCovarianceFormula:
    def test_brownian_motion_special_case(self):
        # H = 1/2 reduces to min(t, s); oracle independent of the formula.
        t = np.linspace(0.1, 2.0, 7)
        got = fbm_covariance(t[:, None], t[None, :], 0.5)
        want = np.minimum(t[:, None], t[None, :])
        assert np.max(np.abs(got - want)) < 1e-14

    def test_variance_diagonal(self):
        # E B_t^2 = t^{2H}.
        for hurst in (0.6, 0.75, 0.9):
            t = np.array([0.25, 1.0, 1.7])
            assert np.allclose(fbm_covariance(t, t, hurst), t ** (2 * hurst))


class TestSampling:
    def test_deterministic_given_seed(self):
        spec = NoiseSpec(hurst=0.75, resolution=256, seed=11)
        a = sample_fbm(spec)
        b = sample_fbm(spec)
        assert np.array_equal(a.values, b.values)

    def test_seeds_differ(self):
        a = sample_fbm(NoiseSpec(hurst=0.75, resolution=256, seed=0))
        b = sample_fbm(NoiseSpec(hurst=0.75, resolution=256, seed=1))
        assert not np.array_equal(a.values, b.values)

    def test_starts_at_origin_and_alpha_offset(self):
        path = sample_fbm(NoiseSpec(hurst=0.8, resolution=128))
        assert np.all(path.values[0] == 0.0)
        assert path.alpha == pytest.approx(0.79)

    @pytest.mark.parametrize("method", ["cholesky", "davies-harte"])
    def test_marginal_variance_both_samplers(self, method):
        # Pooled variance of B_T over many seeds must match T^{2H}.  32 steps
        # pick the Cholesky sampler; Davies-Harte is called directly.
        hurst, horizon = 0.75, 1.0
        specs = [NoiseSpec(hurst=hurst, horizon=horizon, resolution=32, seed=s)
                 for s in range(400)]
        if method == "cholesky":
            vals = [sample_fbm(spec).values[-1, 0] for spec in specs]
        else:
            z = np.concatenate([np.random.default_rng(spec.seed).standard_normal((1, 64))
                                for spec in specs])
            vals = np.sum(noise._davies_harte(z, hurst), axis=1) * (horizon / 32) ** hurst
        var = np.mean(np.square(vals))
        se = np.sqrt(2.0 / 400) * horizon ** (2 * hurst)
        assert abs(var - horizon ** (2 * hurst)) < 5 * se

    @pytest.mark.parametrize("hurst", [0.6, 0.9])
    @pytest.mark.parametrize("sampler, width", [("_durbin_levinson", 1), ("_davies_harte", 2)],
                             ids=["cholesky", "davies-harte"])
    def test_fgn_autocovariance(self, sampler, width, hurst):
        # E x_j x_{j+k} of unit-step fGn is gamma(k) at every position j of a
        # row, lags 0-3; rows are independent, so each product's mean over
        # 20000 rows is within 5 standard errors of gamma(k).
        m, rows = 12, 20000
        z = np.random.default_rng(1).standard_normal((rows, width * m))
        fgn = getattr(noise, sampler)(z, hurst)
        assert fgn.shape == (rows, m)
        gamma = noise._fgn_autocovariance(m, hurst)
        for k in range(4):
            prods = fgn[:, :m - k] * fgn[:, k:]
            se = np.std(prods, axis=0) / np.sqrt(rows)
            assert np.all(np.abs(np.mean(prods, axis=0) - gamma[k]) < 5 * se), k

    def test_components_independent(self):
        # Cross-covariance of a d=2 path at T should be near zero.
        prods = [
            np.prod(sample_fbm(NoiseSpec(hurst=0.75, dim=2, resolution=16, seed=s)).values[-1])
            for s in range(400)
        ]
        assert abs(np.mean(prods)) < 5 * np.std(prods) / np.sqrt(400)


def _dense_cholesky_fbm(spec: NoiseSpec) -> np.ndarray:
    """Reference sampler: L z with L the dense Cholesky factor of the fBm
    covariance, from the same standard normal draws as ``sample_fbm``."""
    rng = np.random.default_rng(spec.seed)
    t = np.linspace(0.0, spec.horizon, spec.resolution + 1)[1:]
    chol = np.linalg.cholesky(fbm_covariance(t[:, None], t[None, :], spec.hurst))
    z = rng.standard_normal((spec.dim, spec.resolution))
    out = np.zeros((spec.resolution + 1, spec.dim))
    out[1:] = (z @ chol.T).T
    return out


class TestCholeskyRecursion:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("hurst", [0.55, 0.75, 0.95])
    @pytest.mark.parametrize("steps", [16, 256, 1024])
    def test_matches_dense_cholesky(self, steps, hurst, dim):
        # Same draws, same factor: equal up to rounding (worst seen 3e-10).
        spec = NoiseSpec(hurst=hurst, dim=dim, horizon=0.5, resolution=steps, seed=7)
        got = sample_fbm(spec).values
        want = _dense_cholesky_fbm(spec)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-8

    def test_memory_is_linear_in_steps(self):
        # A dense 4096 x 4096 covariance alone is 128 MB.
        spec = NoiseSpec(hurst=0.75, resolution=4096, seed=0)
        tracemalloc.start()
        try:
            sample_fbm(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_bytes_independent_of_blas_threads(self):
        code = (
            "import hashlib\n"
            "from holderflow.noise import NoiseSpec, sample_fbm\n"
            "p = sample_fbm(NoiseSpec(hurst=0.75, dim=2, resolution=4096, seed=3))\n"
            "print(hashlib.sha256(p.values.tobytes()).hexdigest())\n"
        )
        path = [str(Path(noise.__file__).resolve().parents[1])]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(path))
            run = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, timeout=120, check=True)
            digests.append(run.stdout.strip())
        assert digests[0] == digests[1]

    def test_degenerate_covariance_refused(self, monkeypatch):
        # A constant autocovariance makes every increment equal: the
        # covariance is singular and the first innovation variance is 0.
        monkeypatch.setattr(noise, "_fgn_autocovariance",
                            lambda n, hurst: np.ones(n + 1))
        with pytest.raises(RuntimeError, match=r"H=0\.75, M=16"):
            sample_fbm(NoiseSpec(hurst=0.75, resolution=16))


class TestBatchedPaths:
    def test_each_path_is_its_own_sample(self, monkeypatch):
        # Dims 1-3 and two horizons in every (H, M) group, the groups
        # interleaved, Cholesky and Davies-Harte groups alike, and one
        # Davies-Harte group of a single spec.
        specs = [
            NoiseSpec(hurst=hurst, dim=dim, horizon=horizon, resolution=m, seed=seed)
            for hurst in (0.6, 0.9)
            for m in (2, 7, 8, 4096, 8192)
            for seed, (dim, horizon) in enumerate([(1, 1.0), (3, 0.5), (2, 1.0), (1, 0.5)])
        ]
        specs.append(NoiseSpec(hurst=0.75, dim=2, resolution=8192, seed=1))
        specs = [specs[i] for i in np.random.default_rng(0).permutation(len(specs))]
        passes, embeddings = [], []
        recursion, eigs = noise._durbin_levinson, noise._fgn_circulant_eigs
        monkeypatch.setattr(noise, "_durbin_levinson",
                            lambda fgn, hurst: passes.append(fgn.shape) or recursion(fgn, hurst))
        monkeypatch.setattr(noise, "_fgn_circulant_eigs",
                            lambda n, hurst: embeddings.append((hurst, n)) or eigs(n, hurst))
        got = sample_fbm_paths(specs)
        assert sorted(passes) == sorted([(7, m) for m in (2, 7, 8, 4096)] * 2)
        assert sorted(embeddings) == [(0.6, 8192), (0.75, 8192), (0.9, 8192)]
        assert len(got) == len(specs)
        for path, spec in zip(got, specs):
            want = sample_fbm(spec)
            assert np.array_equal(path.times, want.times)
            assert np.array_equal(path.values, want.values) and path.alpha == want.alpha

    @pytest.mark.parametrize("spec, digest", [
        (NoiseSpec(hurst=0.75, dim=2, horizon=0.5, resolution=8192, seed=1),
         "22f8d1a7d42678a2418bb95d7170d592c0d54fd865cea049b7dd5bd19be97f95"),
        (NoiseSpec(hurst=0.75, dim=1, horizon=0.5, resolution=4096, seed=0),
         "c129b194c511f99f916c98133bc44db6d54a1f0409823157ff3f8dac04551a50"),
    ], ids=["davies-harte", "cholesky"])
    def test_pinned_realization(self, spec, digest):
        # A change of sampler or of its innovation stream moves these bytes;
        # such a change updates the digests on purpose.
        assert hashlib.sha256(sample_fbm(spec).values.tobytes()).hexdigest() == digest

    def test_many_rows_are_their_own_samples(self):
        specs = [NoiseSpec(hurst=0.75, resolution=8, seed=s) for s in range(1000)]
        for path, spec in zip(sample_fbm_paths(specs), specs):
            assert np.array_equal(path.values, sample_fbm(spec).values)


class TestHolderSeminorm:
    def test_linear_path_alpha_one(self):
        t = np.linspace(0.0, 1.0, 65)
        path = SampledPath(t, (3.0 * t)[:, None], alpha=1.0)
        assert holder_seminorm(path, 1.0) == pytest.approx(3.0)

    def test_rejects_alpha_out_of_range(self):
        t = np.linspace(0.0, 1.0, 9)
        path = SampledPath(t, t[:, None], alpha=1.0)
        with pytest.raises(ValueError):
            holder_seminorm(path, 0.0)

    @given(scale=st.floats(min_value=0.1, max_value=10.0))
    def test_scale_equivariance(self, scale):
        path = sample_fbm(NoiseSpec(hurst=0.75, resolution=64, seed=3))
        scaled = SampledPath(path.times, scale * path.values, alpha=path.alpha)
        a = holder_seminorm(path, 0.7)
        b = holder_seminorm(scaled, 0.7)
        assert b == pytest.approx(scale * a, rel=1e-12)


class TestExponentEstimate:
    def test_recovers_hurst_on_average(self):
        # Averaged over independent paths the regression lands within 0.05.
        for hurst in (0.6, 0.9):
            paths = sample_fbm_paths(
                NoiseSpec(hurst=hurst, resolution=4096, seed=s) for s in range(6)
            )
            est = np.mean([estimate_holder_exponent(p) for p in paths])
            assert abs(est - hurst) < 0.05


class TestIncrementRestrict:
    def test_restrict_is_subsampling(self):
        path = sample_fbm(NoiseSpec(hurst=0.75, resolution=64, seed=2))
        coarse = restrict(path, 4)
        assert coarse.steps == 16
        assert np.array_equal(coarse.values, path.values[::4])

    def test_restrict_rejects_non_divisor(self):
        path = sample_fbm(NoiseSpec(hurst=0.75, resolution=64))
        with pytest.raises(ValueError):
            restrict(path, 3)


class TestSerialization:
    def test_round_trip_exact(self):
        spec = NoiseSpec(hurst=0.75, dim=2, horizon=0.5, resolution=32, seed=9)
        path = sample_fbm(spec)
        buf = io.StringIO()
        save_path(path, buf, spec=spec)
        loaded = load_path(io.StringIO(buf.getvalue()))
        assert np.array_equal(loaded.values, path.values)
        assert loaded.alpha == path.alpha

    def test_load_rejects_foreign_file(self):
        with pytest.raises(ValueError):
            load_path(io.StringIO("t,y\n0,0\n"))

    @pytest.mark.parametrize(
        "header, match",
        [
            ("# holderflow-path,alpha=0.74,T=1.0,M1,d=1", "malformed header item 'M1'"),
            ("# holderflow-path,T=1.0,M=1,d=1", "a path header needs a numeric alpha"),
            ("# holderflow-path,alpha=x,T=1.0,M=1,d=1", "needs a numeric alpha, got {'alpha': 'x'"),
        ],
        ids=["item_without_equals", "no_alpha", "alpha_not_a_number"],
    )
    def test_load_names_file_and_header_problem(self, tmp_path, header, match):
        f = tmp_path / "p.csv"
        f.write_text(header + "\nt,y0\n0,0\n1,0.5\n")
        with pytest.raises(ValueError, match=re.escape(match)) as info:
            load_path(str(f))
        assert str(f) in str(info.value)

    @pytest.mark.parametrize(
        "header, table, match",
        [
            ("alpha=0.74,T=1.0,M=8,d=1", "t,y0\n0,0\n0.5,0.1\n1,0.5\n",
             "the header has M=8, but the table has M=2"),
            ("alpha=0.74,T=1.0,M=2,d=1", "t\n0\n0.5\n1\n",
             "the header has d=1, but the table has d=0"),
            ("alpha=0.74,T=1.0,M=2,d=1", "t,y0,y1\n0,0,0\n0.5,0.1,0\n1,0.5,0\n",
             "the header has d=1, but the table has d=2"),
            ("alpha=0.74,T=0.5,M=2,d=1", "t,y0\n0,0\n0.5,0.1\n1,0.5\n",
             "the header has T=0.5, but the table has T=1.0"),
            ("alpha=0.74,M=2,d=1", "t,y0\n0,0\n0.5,0.1\n1,0.5\n",
             "a path header needs a numeric T"),
        ],
        ids=["steps", "no_component", "components", "horizon", "no_horizon"],
    )
    def test_load_refuses_table_unlike_header(self, tmp_path, header, table, match):
        f = tmp_path / "p.csv"
        f.write_text(f"# holderflow-path,{header}\n{table}")
        with pytest.raises(ValueError, match=re.escape(match)) as info:
            load_path(str(f))
        assert str(f) in str(info.value)


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv, rows", [
    (["holder_exponent_study.py", "--hurst", "0.75", "--paths", "1", "--resolution", "8192"],
     ["0.75"]),
    (["young_refinement_study.py", "--max-level", "13", "--levels", "1"], ["4096", "8192"]),
], ids=["holder_exponent_study", "young_refinement_study"])
def test_study_scripts_run_through_davies_harte(argv, rows):
    # 8192 steps are above CHOLESKY_MAX_STEPS: both scripts sample
    # Davies-Harte paths, as the benchmark's young study does.
    run = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and not run.stderr, run.stderr
    firsts = [line.split()[0] for line in run.stdout.splitlines() if line.split()]
    assert all(row in firsts for row in rows), run.stdout
