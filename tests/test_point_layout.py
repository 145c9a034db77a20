"""Point layout: a point set is an (n, d) array and a kernel argument a
(..., d) displacement array; every entry point refuses anything else."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import holderflow
from holderflow.besov import deposit_nearest
from holderflow.fields import FieldInterpolant, Grid, SigmaField, position_order
from holderflow.kernels import KernelFamily
from holderflow.particles import ParticleEnsemble, _cic_corners, deposit_cic

# d=1: five points given as an (n,) array.  d=2: a trailing axis of 3.
BAD = {1: np.linspace(0.1, 0.9, 5), 2: np.full((5, 3), 0.25)}


def _grid(d):
    return Grid(box=1.0, m=16, dim=d)


def _ensemble(d, bad):
    if d == 1:
        return ParticleEnsemble(box=1.0, positions=bad, velocities=np.zeros_like(bad))
    return ParticleEnsemble(box=1.0, positions=np.full((5, 2), 0.25), velocities=bad)


POINTS = {1: "(n, 1)", 2: "(n, 2)"}

# Entry point -> (call on a bad array in d dimensions, expected layout per d).
ENTRY_POINTS = {
    "ParticleEnsemble": (_ensemble, {1: "(n, d)", 2: "(n, 2)"}),
    "FieldInterpolant": (lambda d, x: FieldInterpolant(np.ones((16,) * d), _grid(d))(x), POINTS),
    "deposit_cic": (lambda d, x: deposit_cic(x, _grid(d)), POINTS),
    "_cic_corners": (lambda d, x: list(_cic_corners(x, _grid(d))), POINTS),
    "deposit_nearest": (lambda d, x: deposit_nearest(x, _grid(d)), POINTS),
    # ``at`` reads d from its points, so only the (n,) case is malformed.
    "SigmaField.at": (lambda d, x: SigmaField(0.2, 0.5).at(x, 1.0), {1: "(n, d)"}),
    "position_order": (lambda d, x: position_order(x), {1: "(n, d)"}),  # as ``at``
}
# KernelFamily.kernel over which x derivative, named as the kernel it evaluates.
for _which in ("phi", "phi_r"):
    for _deriv in (False, True):
        ENTRY_POINTS[f"{'grad_' if _deriv else ''}{_which}_N"] = (
            lambda d, x, which=_which, deriv=_deriv: KernelFamily(beta=0.6, dim=d).kernel(
                64, x, which, deriv
            ),
            {1: "(..., 1)", 2: "(..., 2)"},
        )

CASES = [
    pytest.param(call, d, layout, id=f"{name}-d{d}")
    for name, (call, layouts) in ENTRY_POINTS.items()
    for d, layout in layouts.items()
]


@pytest.mark.parametrize("call, d, layout", CASES)
def test_wrong_point_layout_refused(call, d, layout):
    with pytest.raises(ValueError, match=re.escape(f"shape {layout}")):
        call(d, BAD[d])


def test_position_order_last_coordinate_first_then_ties():
    pts = np.array([[0.5, 0.2], [0.1, 0.7], [0.5, 0.2], [0.9, 0.2], [0.5, 0.2]])
    assert position_order(pts).tolist() == [0, 2, 4, 3, 1]
    assert position_order(pts, ties=np.array([0.0, 0, 2, 0, -1])).tolist() == [4, 0, 2, 3, 1]


SORTS = r"\b(lexsort|argsort)$"  # a sort returning indices, as a function or a method
DRAWS = r"\b(np|numpy)\.random\b|\bdefault_rng\b"  # a random draw or generator


def _stray_calls(tree, owner, pattern):
    """Lines of ``tree`` outside the function ``owner`` that call a function
    whose source text matches ``pattern``."""
    inside = range(0)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == owner:
            inside = range(node.lineno, node.end_lineno + 1)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.lineno not in inside:
            if re.search(pattern, ast.unparse(node.func)):
                yield node.lineno


def _strays(owner, pattern):
    """``file:line`` of each stray call in the package's modules."""
    return [
        f"{path.name}:{lineno}"
        for path in sorted(Path(holderflow.__file__).parent.glob("*.py"))
        for lineno in sorted(set(_stray_calls(ast.parse(path.read_text()), owner, pattern)))
    ]


def test_particle_order_only_in_position_order():
    # A label-free particle sum runs in fields.position_order; a second
    # spelling of the order is a second rule that can drift.
    stray = _strays("position_order", SORTS)
    assert not stray, "particle order outside fields.position_order:\n" + "\n".join(stray)
    probe = (  # deposit_cic and deposit_nearest before they read position_order
        "nodes, weights = zip(*_cic_corners(pts[np.lexsort(pts.T)], grid))\n"
        "order = np.lexsort((weights,) + tuple(pts.T))\n"
        "idx = pts[:, 0].argsort(kind='stable')\n"
        "def position_order(points, ties=None):\n"
        "    return np.lexsort(tuple(points.T))\n"
        "total = np.sum(np.sort(values))\n"  # sorted_sum: values, not an order
    )
    assert sorted(set(_stray_calls(ast.parse(probe), "position_order", SORTS))) == [1, 2, 3]


def test_randomness_only_in_sample_fbm_paths():
    # Every random number of a run comes from an fBm seed: a second
    # generator is a second source that no seed in the config names.
    stray = _strays("sample_fbm_paths", DRAWS)
    assert not stray, "random draws outside noise.sample_fbm_paths:\n" + "\n".join(stray)
    probe = (  # init_from_fields's i.i.d. branch, removed
        "u = np.random.default_rng(seed).random((n, d))\n"
        "from numpy.random import default_rng\n"
        "z = default_rng(0).standard_normal(4) + numpy.random.rand(4)\n"
        "def sample_fbm_paths(specs):\n"
        "    return np.random.default_rng(specs[0].seed).standard_normal((1, 8))\n"
        "x = rng.random(4)\n"  # a generator handed in: its maker is the draw
    )
    assert sorted(set(_stray_calls(ast.parse(probe), "sample_fbm_paths", DRAWS))) == [1, 3]
