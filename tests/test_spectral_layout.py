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
