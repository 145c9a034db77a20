"""Littlewood-Paley decomposition, Besov/Triebel norms, negative distances."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import holderflow
from holderflow.besov import (
    besov_norm,
    build_partition,
    deposit_nearest,
    dyadic_blocks,
    negative_distance,
    triebel_norm,
)
from holderflow.fields import Grid


@pytest.fixture(scope="module")
def grid():
    return Grid(box=1.0, m=512, dim=1)


@pytest.fixture(scope="module")
def part(grid):
    return build_partition(grid)


class TestPartition:
    def test_rejects_lambda_outside_range(self, grid):
        with pytest.raises(ValueError, match="lambda"):
            build_partition(grid, lam=1.5)
        with pytest.raises(ValueError, match="lambda"):
            build_partition(grid, lam=1.0)

    def test_sums_to_one_on_lattice(self, part):
        total = np.sum(part.profiles, axis=0)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_blocks_two_apart_disjoint(self, part):
        profiles = part.profiles
        for i in range(profiles.shape[0]):
            for j in range(i + 2, profiles.shape[0]):
                assert np.max(np.abs(profiles[i] * profiles[j])) == 0.0

    def test_profiles_in_unit_interval(self, part):
        assert np.min(part.profiles) >= -1e-15
        assert np.max(part.profiles) <= 1.0 + 1e-15

    def test_two_dimensional_partition_sums_to_one(self):
        g2 = Grid(box=1.0, m=64, dim=2)
        p2 = build_partition(g2)
        assert np.max(np.abs(np.sum(p2.profiles, axis=0) - 1.0)) < 1e-12


class TestDecomposition:
    def test_reconstruction_exact(self, grid, part):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(grid.m)
        blocks = dyadic_blocks(f, part)
        assert np.max(np.abs(np.sum(blocks, axis=0) - f)) < 1e-12

    def test_pure_mode_localized(self, grid, part):
        # A single Fourier mode lands only in blocks whose annulus covers it.
        k_index = 32
        f = np.cos(2 * np.pi * k_index * grid.nodes())
        blocks = dyadic_blocks(f, part)
        radius = 2 * np.pi * k_index / part.r0
        active = [
            i
            for i, j in enumerate(part.j_range())
            if np.max(np.abs(blocks[i])) > 1e-12
        ]
        for i in active:
            # Profile value at this frequency must be nonzero for the block.
            k_lattice = np.abs(2 * np.pi * np.fft.fftfreq(grid.m, d=grid.h))
            sel = np.argmin(np.abs(k_lattice - 2 * np.pi * k_index))
            assert part.profiles[i][sel] > 0.0
        assert 1 <= len(active) <= 2

    def test_low_frequency_cutoff_telescopes(self, grid, part):
        f = np.sin(2 * np.pi * 5 * grid.nodes())
        # S_j: the sum of the blocks up to index j, here the last one.
        full = np.sum(dyadic_blocks(f, part)[: part.levels], axis=0)
        assert np.max(np.abs(full - f)) < 1e-12


class TestNorms:
    def test_refuses_p_out_of_range(self, part):
        with pytest.raises(ValueError):
            besov_norm(np.ones(512), 0.5, 1.0, 2.0, part)
        with pytest.raises(ValueError):
            triebel_norm(np.ones(512), 0.5, np.inf, 2.0, part)

    @pytest.mark.parametrize("norm", [besov_norm, triebel_norm])
    @pytest.mark.parametrize(
        "s, q, name",
        [(-2.0, 0.0, "q"), (-2.0, -1.0, "q"), (-2.0, np.nan, "q"), (np.nan, 2.0, "s"),
         (np.inf, 2.0, "s")],
        ids=["q_zero", "q_negative", "q_nan", "s_nan", "s_inf"],
    )
    def test_refuses_index_out_of_range(self, part, norm, s, q, name):
        # q outside (0, inf] divided by zero, or summed to a meaningless
        # number with a RuntimeWarning; a non-finite s gave NaN.
        with pytest.raises(ValueError, match=f"^{name} must"):
            norm(np.ones(512), s, 2.0, q, part)

    def test_besov_equals_triebel_at_p_q_two(self, grid, part):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(grid.m)
        b = besov_norm(f, 0.7, 2.0, 2.0, part)
        t = triebel_norm(f, 0.7, 2.0, 2.0, part)
        assert abs(b - t) < 1e-10 * max(b, 1.0)

    def test_zero_field_zero_norm(self, part):
        assert besov_norm(np.zeros(512), -2.0, 2.0, 2.0, part) == 0.0

    @given(c=st.floats(min_value=0.1, max_value=100.0))
    def test_homogeneity(self, c, part):
        rng = np.random.default_rng(2)
        f = rng.standard_normal(512)
        a = besov_norm(f, -1.5, 2.0, 2.0, part)
        b = besov_norm(c * f, -1.5, 2.0, 2.0, part)
        assert b == pytest.approx(c * a, rel=1e-10)

    def test_smoothness_ordering(self, grid, part):
        # Higher smoothness weights high frequencies more.
        f = np.cos(2 * np.pi * 64 * grid.nodes())
        assert besov_norm(f, 1.0, 2.0, 2.0, part) > besov_norm(f, -1.0, 2.0, 2.0, part)


class TestDeposit:
    def test_mass_conservation_exact(self, grid):
        rng = np.random.default_rng(3)
        pts = rng.random((1000, 1))
        dep = deposit_nearest(pts, grid)
        assert np.sum(dep) * grid.cell_volume() == pytest.approx(1.0, abs=1e-14)

    def test_single_particle_single_node(self, grid):
        dep = deposit_nearest(np.array([[0.25]]), grid)
        assert np.count_nonzero(dep) == 1
        assert dep[128] == pytest.approx(1.0 / grid.cell_volume())

    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_label_permutation_bitwise_invariant(self, seed, grid):
        rng = np.random.default_rng(4)
        pts = rng.random((257, 1))
        w = rng.standard_normal(257)
        perm = np.random.default_rng(seed).permutation(257)
        a = deposit_nearest(pts, grid, weights=w)
        b = deposit_nearest(pts[perm], grid, weights=w[perm])
        assert np.array_equal(a, b)

    def test_weighted_deposit_total(self, grid):
        pts = np.array([[0.1], [0.6]])
        w = np.array([2.0, -1.0])
        dep = deposit_nearest(pts, grid, weights=w)
        assert np.sum(dep) * grid.cell_volume() == pytest.approx(0.5)


class TestNegativeDistance:
    def test_identical_fields_zero(self, grid, part):
        f = np.sin(2 * np.pi * grid.nodes()) + 1.0
        assert negative_distance(grid.rfft(f) - grid.rfft(f), 2.0, 2.0, part) == 0.0

    def test_warns_below_measure_threshold(self, grid, part):
        with pytest.warns(UserWarning, match="eta"):
            negative_distance(grid.rfft(np.ones(512) - np.zeros(512)), 1.0, 2.0, part)

    def test_quantile_particles_vs_uniform_density_decreasing(self):
        g = Grid(box=1.0, m=4096, dim=1)
        p = build_partition(g)
        uniform = np.ones(g.m)
        dists = []
        for n in (64, 256, 1024):
            pts = ((np.arange(n) + 0.5) / n)[:, None]
            dep = deposit_nearest(pts, g)
            dists.append(negative_distance(g.rfft(dep) - g.rfft(uniform), 2.0, 2.0, p))
        assert dists[2] < dists[1] < dists[0]


class TestParsevalDistance:
    """``negative_distance`` sums the spectrum of measure - target;
    ``besov_norm`` at p = 2 sums the inverse-transformed blocks of
    measure - target on the mesh and is its oracle."""

    @pytest.mark.parametrize("q_hat", [1.0, 2.0, np.inf])
    @pytest.mark.parametrize("dim, m", [(1, 64), (1, 63), (2, 16), (2, 15)])
    def test_matches_block_norm(self, dim, m, q_hat):
        g = Grid(box=1.3, m=m, dim=dim)
        p = build_partition(g)
        measure, target = np.random.default_rng(m).standard_normal((2,) + g.shape)
        eta = dim / 2 + 1.5
        want = besov_norm(measure - target, -eta, 2.0, q_hat, p)
        got = negative_distance(g.rfft(measure) - g.rfft(target), eta, q_hat, p)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("dim, m", [(1, 63), (2, 16), (2, 15)])
    def test_equal_fields_exactly_zero_and_warning_kept(self, dim, m):
        g = Grid(box=1.0, m=m, dim=dim)
        p = build_partition(g)
        f = np.random.default_rng(m).random(g.shape)
        assert negative_distance(g.rfft(f) - g.rfft(f.copy()), dim / 2 + 1.5, 2.0, p) == 0.0
        with pytest.warns(UserWarning, match="eta"):
            assert negative_distance(g.rfft(f) - g.rfft(f), dim / 2 + 1, 2.0, p) == 0.0

    @pytest.mark.parametrize(
        "dim, measure_shape, target_shape, bad",
        [
            (1, (64,), (64, 1), "target"),
            (1, (64, 1), (64,), "measure_field"),
            (1, (64,), (32,), "target"),
            (2, (64,), (64, 64), "measure_field"),
            (2, (64, 64), (64,), "target"),
            (2, (64, 64), (64, 64, 1), "target"),
        ],
    )
    def test_wrong_layout_refused(self, dim, measure_shape, target_shape, bad):
        # A field off the mesh layout has a spectrum off the spectral layout
        # (here its rfftn over every axis), which is refused.
        g = Grid(box=1.0, m=64, dim=dim)
        p = build_partition(g)
        field = np.ones(measure_shape) if bad == "measure_field" else np.zeros(target_shape)
        want = re.escape(f"spectrum must be an array of shape {g.shape[:-1] + (33,)}")
        with pytest.raises(ValueError, match=want):
            negative_distance(np.fft.rfftn(field), 2.5, 2.0, p)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_mesh_field_refused(self, dim):
        # A field on the mesh is not its spectrum.
        g = Grid(box=1.0, m=64, dim=dim)
        with pytest.raises(ValueError, match=re.escape(f"got shape {g.shape}")):
            negative_distance(np.ones(g.shape), 2.5, 2.0, build_partition(g))

    def test_bytes_independent_of_blas_threads(self):
        code = (
            "import numpy as np\n"
            "from holderflow.besov import build_partition, deposit_nearest, negative_distance\n"
            "from holderflow.fields import Grid\n"
            "g = Grid(box=1.0, m=16384, dim=1)\n"
            "dep = deposit_nearest(np.random.default_rng(3).random((4096, 1)), g)\n"
            "target = 1.0 + 0.2 * np.sin(2 * np.pi * g.nodes())\n"
            "spectrum = g.rfft(dep) - g.rfft(target)\n"
            "print(negative_distance(spectrum, 2.0, 2.0, build_partition(g)).hex())\n"
        )
        path = [str(Path(holderflow.__file__).resolve().parents[1])]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(path))
            run = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, timeout=120, check=True)
            out.append(run.stdout.strip())
        assert out[0] == out[1] and out[0].startswith("0x")

