"""Layout guard: every periodic mesh transform goes through ``fields.Grid``."""

import ast
import re
from pathlib import Path

import holderflow

# Mesh transforms and frequency arrays.  The 1-d complex ``np.fft.fft`` of
# the fBm circulant embedding, an array that is not a mesh field, is out of
# scope.
PATTERN = re.compile(r"np\.fft\.(i?r?fftn|i?rfft)\b|fftfreq")


def _grid_lines(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Grid":
            return range(node.lineno, node.end_lineno + 1)
    return range(0)


def test_mesh_transforms_only_inside_grid():
    src = Path(holderflow.__file__).parent
    stray = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        inside = _grid_lines(ast.parse(text))
        for lineno, line in enumerate(text.splitlines(), start=1):
            if PATTERN.search(line) and lineno not in inside:
                stray.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not stray, "mesh transforms outside fields.Grid:\n" + "\n".join(stray)


def _is_mesh_size(node):
    """A name ``m`` or ``m_fine``, an attribute ``.m``, or one of them +- 1."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        return _is_mesh_size(node.left) and (
            isinstance(node.right, ast.Constant) and node.right.value == 1
        )
    return (isinstance(node, ast.Name) and node.id in ("m", "m_fine")) or (
        isinstance(node, ast.Attribute) and node.attr == "m"
    )


def _layout_arithmetic(tree):
    """Lines of ``tree`` outside ``class Grid`` that halve a mesh size or
    take its parity: ``// 2`` or ``% 2`` applied to ``_is_mesh_size``."""
    inside = _grid_lines(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.FloorDiv, ast.Mod))
                and isinstance(node.right, ast.Constant) and node.right.value == 2
                and _is_mesh_size(node.left) and node.lineno not in inside):
            yield node.lineno


def test_mode_layout_only_inside_grid():
    # Where the Nyquist mode sits and how a half axis ends are Grid.modes;
    # a second spelling of either is a second layout rule that can drift.
    src = Path(holderflow.__file__).parent
    stray = [
        f"{path.name}:{lineno}"
        for path in sorted(src.glob("*.py"))
        for lineno in sorted(set(_layout_arithmetic(ast.parse(path.read_text()))))
    ]
    assert not stray, "mode-layout arithmetic outside fields.Grid:\n" + "\n".join(stray)
    probe = (  # padded_spectrum, _es_deconvolution and _phases before they read Grid
        "if m % 2 == 0:\n"
        "    fk[(..., m // 2) + (slice(None),) * (d - 1 - q)] *= 0.5\n"
        "lo, hi = j[: m // 2 + 1], j[(m + 1) // 2 :]\n"
        "out = np.zeros(lead + (m_fine,) * (d - 1) + (m_fine // 2 + 1,), dtype=complex)\n"
        "a = (np.pi * w / (_OVERSAMPLE * m)) * np.arange(m // 2 + 1)\n"
        "z = np.empty((x.size, m // 2 + 1), dtype=complex)\n"
        "half = grid.m // 2\n"
        "n = z.shape[1] // 2\n"  # noise._davies_harte's circulant, not a mesh
        "class Grid:\n"
        "    def modes(self):\n"
        "        return self.m // 2\n"
        "k = 2 * np.abs(k) == m\n"
    )
    assert sorted(set(_layout_arithmetic(ast.parse(probe)))) == [1, 2, 3, 4, 5, 6, 7]
