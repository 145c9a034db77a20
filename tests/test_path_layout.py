"""Path layout: a sampled path is an (M+1, d) array with M >= 1, an integrand
an (M+1, ..., d) array and a driver increment a (d,) array; every entry point
refuses anything else, and no module reshapes a path to guess its layout."""

import ast
import io
import re
from pathlib import Path

import numpy as np
import pytest

import holderflow
from holderflow.fields import FluidState, Grid, SigmaField, step_field
from holderflow.kernels import KernelFamily
from holderflow.noise import (
    NoiseSpec,
    SampledPath,
    estimate_holder_exponent,
    load_path,
    sample_fbm,
)
from holderflow.particles import ParticleEnsemble, step
from holderflow.young import IntegrandPath, young_integral


def test_no_layout_guessing_in_package():
    src = Path(holderflow.__file__).parent
    stray = []
    for path in sorted(src.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if "np.atleast_" in line:
                stray.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not stray, "layout guessed with np.atleast_*:\n" + "\n".join(stray)


def test_no_default_tolerance_comparisons_in_package():
    # np.allclose and np.isclose default to atol=1e-8, which took grids of
    # horizons 1.0 and 1.000009 for one; tolerances are stated where used.
    src = Path(holderflow.__file__).parent
    stray = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if "np.allclose" in line or "np.isclose" in line
    ]
    assert not stray, "comparison with a default tolerance:\n" + "\n".join(stray)


def _polynomial_uses(tree):
    """Lines of ``tree`` that import or read numpy.polynomial."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(re.match(r"(numpy|np)\.polynomial\b", name) for name in names):
            yield node.lineno


def test_no_numpy_polynomial_in_package():
    # numpy.polynomial and one leggauss call add about 1.5 MiB to the peak
    # resident memory of every run, and time to its set-up; the
    # Gauss-Legendre rule of the NUFFT kernel is fields._gauss_legendre.
    src = Path(holderflow.__file__).parent
    stray = [
        f"{path.name}:{lineno}"
        for path in sorted(src.glob("*.py"))
        for lineno in _polynomial_uses(ast.parse(path.read_text()))
    ]
    assert not stray, "numpy.polynomial used in src/:\n" + "\n".join(stray)
    probe = "import numpy as np\nfrom numpy import polynomial\nnp.polynomial.legendre\n"
    assert list(_polynomial_uses(ast.parse(probe))) == [2, 3]


def _reads_of(name, tree):
    """Lines of ``tree`` that read ``name``, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(getattr(node, "ctx", None), ast.Load) and name in (
            getattr(node, "id", None), getattr(node, "attr", None)
        ):
            yield node.lineno


def test_sampler_threshold_read_in_one_place():
    # Which fBm sampler draws a path, and so which realization a seed gives,
    # is decided by one comparison with CHOLESKY_MAX_STEPS in
    # noise.sample_fbm_paths; a second reader could pick another sampler for
    # the same resolution.
    src = Path(holderflow.__file__).parent
    reads = [
        f"{path.name}:{lineno}"
        for path in sorted(src.glob("*.py"))
        for lineno in _reads_of("CHOLESKY_MAX_STEPS", ast.parse(path.read_text()))
    ]
    assert len(reads) == 1, "CHOLESKY_MAX_STEPS read in src/ at:\n" + "\n".join(reads)
    probe = "CHOLESKY_MAX_STEPS = 4\nn > CHOLESKY_MAX_STEPS\nm = noise.CHOLESKY_MAX_STEPS\n"
    assert sorted(_reads_of("CHOLESKY_MAX_STEPS", ast.parse(probe))) == [2, 3]


def _is_dimension(node):
    return (isinstance(node, ast.Name) and node.id in ("d", "dim")) or (
        isinstance(node, ast.Attribute) and node.attr == "dim"
    )


def _is_int_literal(node):
    return isinstance(node, ast.Constant) and type(node.value) is int


def _dimension_forks(tree):
    """Lines of ``tree`` with an ``if`` or a conditional expression whose test
    compares a dimension (a name ``d`` or ``dim``, an attribute ``.dim``) by
    == or != with an integer literal.  An ``if`` whose body only raises is a
    refusal, not a fork, and ``dim in (1, 2)`` is a membership check."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.If, ast.IfExp)):
            continue
        if isinstance(node, ast.If) and not node.orelse and all(
            isinstance(stmt, ast.Raise) for stmt in node.body
        ):
            continue
        for cmp in ast.walk(node.test):
            if not isinstance(cmp, ast.Compare):
                continue
            sides = [cmp.left] + cmp.comparators
            for op, *pair in zip(cmp.ops, sides, sides[1:]):
                if (isinstance(op, (ast.Eq, ast.NotEq)) and any(map(_is_dimension, pair))
                        and any(map(_is_int_literal, pair))):
                    yield node.lineno


def test_no_dimension_fork_in_package():
    # Every helper works in any d, the quantile sampler of init_from_fields
    # included; a branch per dimension would let the two drift apart.
    src = Path(holderflow.__file__).parent
    stray = [
        f"{path.name}:{lineno}"
        for path in sorted(src.glob("*.py"))
        for lineno in _dimension_forks(ast.parse(path.read_text()))
    ]
    assert not stray, "branch on the dimension in src/:\n" + "\n".join(stray)
    probe = (
        "if d == 1:\n    a = 1\nelse:\n    a = 2\n"  # the sampler's old fork
        "b = 0 if grid.dim != 2 else 1\n"
        "if 1 == dim:\n    pass\n"
        "if dim in (1, 2):\n    pass\n"
        "if x.dim != 1:\n    raise ValueError\n"
        "if m == 1 or d == 1.0:\n    pass\n"
    )
    assert sorted(_dimension_forks(ast.parse(probe))) == [1, 5, 6]


def _public_names(tree):
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _unused_imports(tree):
    """Names a module imports but never reads; names listed in ``__all__``
    count as read (they are re-exported)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(_public_names(tree))
    return [(line, name) for name, line in imported.items() if name not in used]


def test_no_unused_imports_in_package():
    src = Path(holderflow.__file__).parent
    stray = [
        f"{path.name}:{line}: {name}"
        for path in sorted(src.glob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text()))
    ]
    assert not stray, "imported but never used:\n" + "\n".join(stray)


def _read_names(trees):
    """Every name the modules ``trees`` read: loaded names, attributes and
    names imported from another module."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return read


def _unreferenced_privates(trees):
    """Module-level ``_name`` definitions of the package that no module of
    it reads: helpers a refactor left behind."""
    defined = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(name, node.lineno, t) for t in targets
                        if t.startswith("_") and not t.startswith("__")]
    read = _read_names(trees.values())
    return [(name, line, t) for name, line, t in defined if t not in read]


def test_no_unreferenced_private_helpers_in_package():
    src = Path(holderflow.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    stray = [f"{name}:{line}: {t}" for name, line, t in _unreferenced_privates(trees)]
    assert not stray, "private name defined but never referenced in src/:\n" + "\n".join(stray)


# Public names kept without a reader, each for the reason given.
UNREAD_PUBLIC_NAMES = {
    "emit_config": "the documented inverse of config.parse_config",
    "load_path": "the documented inverse of the `holderflow noise` output file",
}


def test_every_public_name_has_a_reader():
    # A name in ``__all__`` that no module of the package, no script and no
    # acceptance criterion reads is analysis nothing runs: unit tests alone
    # do not count as a reader.
    src = Path(holderflow.__file__).parent
    root = Path(__file__).resolve().parents[1]
    sources = [*sorted(src.glob("*.py")), *sorted((root / "scripts").glob("*.py")),
               root / "tests" / "test_acceptance.py"]
    read = _read_names(ast.parse(path.read_text()) for path in sources)
    stray = [
        f"{path.name}: {name}"
        for path in sorted(src.glob("*.py"))
        for name in _public_names(ast.parse(path.read_text()))
        if name not in read and name not in UNREAD_PUBLIC_NAMES and not name.startswith("__")
    ]
    assert not stray, "public name that nothing reads:\n" + "\n".join(stray)


def _times(n):
    return np.linspace(0.0, 1.0, n)


def _one_row_file():
    text = "# holderflow-path,alpha=0.74,T=1.0,M=0,d=1\nt,y0\n0,0\n"
    return load_path(io.StringIO(text))


def _no_component_file():
    text = "# holderflow-path,alpha=0.74,T=1.0,M=2,d=0\nt\n0\n0.5\n1\n"
    return load_path(io.StringIO(text))


def _step(d, dy):
    rng = np.random.default_rng(0)
    ens = ParticleEnsemble(box=1.0, positions=rng.random((256, d)),
                           velocities=np.zeros((256, d)))
    fam = KernelFamily(beta=0.6, dim=d, bandwidth=0.05 if d == 1 else 0.12)
    return step(ens, 1e-3, fam, dy=dy, sigma=SigmaField(0.2, 0.5))


def _rest(d):
    g = Grid(box=1.0, m=8, dim=d)
    return FluidState(grid=g, rho=np.ones(g.shape), v=np.zeros((d,) + g.shape))


def _step_field(d, dy):
    return step_field(_rest(d), 1e-3, dy, SigmaField(0.2, 0.5))


# Case -> (call, text the ValueError must contain).
REFUSALS = {
    "SampledPath-1d-values": (lambda: SampledPath(_times(5), np.zeros(5), 0.7), "(M+1, d)"),
    "SampledPath-single-time": (lambda: SampledPath(_times(1), np.zeros((1, 1)), 0.7),
                                "M >= 1"),
    # No component: NoiseSpec refuses dim < 1; a hand-built path or file is refused here.
    "SampledPath-no-component": (lambda: SampledPath(_times(3), np.zeros((3, 0)), 0.7),
                                 "(M+1, d) with M >= 1 and d >= 1"),
    "load_path-one-row": (_one_row_file, "M >= 1"),
    "load_path-no-component": (_no_component_file, "d >= 1"),
    "estimate_holder_exponent-short": (
        lambda: estimate_holder_exponent(sample_fbm(NoiseSpec(hurst=0.75, resolution=32))),
        "M >= 2 * max_lag_fraction = 128",
    ),
    "IntegrandPath-1d-values": (lambda: IntegrandPath(np.zeros(5), 1.0),
                                "(M+1, ..., d)"),
    "young_integral-last-axis": (
        lambda: young_integral(
            IntegrandPath(np.zeros((5, 2)), 1.0),
            SampledPath(_times(5), np.zeros((5, 1)), 1.0),
        ),
        "driver dimension 1",
    ),
}
for _name, _call in (("step", _step), ("step_field", _step_field)):
    for _d in (1, 2):
        REFUSALS[f"{_name}-scalar-dy-d{_d}"] = (
            lambda call=_call, d=_d: call(d, 0.3), f"dy must be an array of shape ({_d},)"
        )


@pytest.mark.parametrize("call, text", REFUSALS.values(), ids=REFUSALS.keys())
def test_wrong_path_layout_refused(call, text):
    with pytest.raises(ValueError, match=re.escape(text)):
        call()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("call", [_step, _step_field], ids=["step", "step_field"])
def test_non_finite_increment_one_refusal(call, d):
    # The particle and the fluid kick share one check of a step's noise.
    with pytest.raises(FloatingPointError, match=re.escape("non-finite driver increment dy=")):
        call(d, np.array([0.1, np.nan][-d:]))


@pytest.mark.parametrize("d", [1, 2])
def test_increment_kicks_each_component(d):
    # Against the unkicked step: rho bitwise, v moved by sigma_q dY^q up to
    # the rounding of the spectral kick.
    dy = np.array([0.3, -0.2][:d])
    kicked, plain = _step_field(d, dy), step_field(_rest(d), 1e-3)
    g = plain.grid
    sig = SigmaField(0.2, 0.5).at(g.nodes().reshape(-1, d), g.box).reshape(g.shape)
    shift = sig * dy.reshape((d,) + (1,) * d)
    assert np.array_equal(kicked.rho, plain.rho)
    assert np.max(np.abs(kicked.v - plain.v - shift)) <= 1e-14 * np.max(np.abs(shift))


@pytest.mark.parametrize("d", [1, 2])
def test_scalar_integral_is_a_float(d):
    path = sample_fbm(NoiseSpec(hurst=0.75, dim=d, resolution=16, seed=1))
    got = young_integral(IntegrandPath(np.ones((17, d)), 1.0), path)
    assert isinstance(got, float)
    assert got == pytest.approx(np.sum(path.values[-1]), abs=1e-14)
