"""Point layout: a point set is an (n, d) array and a kernel argument a
(..., d) displacement array; every entry point refuses anything else."""

import re

import numpy as np
import pytest

from holderflow.besov import deposit_nearest
from holderflow.fields import FieldInterpolant, Grid, SigmaField
from holderflow.kernels import KernelFamily, grad_phi_N, grad_phi_r_N, phi_N, phi_r_N
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
    "SigmaField.at": (lambda d, x: SigmaField(0.2, 0.5).at(0.0, x, 1.0), {1: "(n, d)"}),
}
for _fn in (phi_N, grad_phi_N, phi_r_N, grad_phi_r_N):
    ENTRY_POINTS[_fn.__name__] = (
        lambda d, x, fn=_fn: fn(KernelFamily(beta=0.6, dim=d), 64, x),
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
