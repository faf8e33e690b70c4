"""Transformation laws of the invariant under motions of the placement.

With F triangles, N cells and the rank r of the selection, the invariant
I = prod S / (det B prod V) follows each motion of the points:

- scaling by lambda: areas go as lambda^2, volumes as lambda^4 and the
  entries of dOmega/dL as lambda^-2, so log|I| shifts by
  (2F - 4N + 2r) log lambda;
- a rigid motion x -> Qx + t with det Q = +1 leaves I as it is;
- the reflection x_0 -> -x_0 leaves every squared length, and so every
  magnitude, bit for bit, while every volume and the whole of dOmega/dL
  change sign: the sign of I changes by (-1)^(N + r).

Only full_invariant's report is read.  The scaled and moved values are
held to the north star's 1e-10; up to 166 cells they stay below about
1e-11.  On the ladder's 406-cell rung the rigid motion moves log|I| by
8.8e-11 and the scaling by 1.01e-10, above the bound: the thin cells lose
that much to the rounding of their squared lengths, which the scaling
rounds afresh.  That scaling test is an expected failure until the lengths
are formed in extended precision.
"""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from pachner33 import complexes as cx
from pachner33 import flatmetric as fm
from pachner33 import invariants as iv
from pachner33 import io as pio

from conftest import join72

FIXTURES = ("boundary_delta5.json", "join_tetra_triangle.json", "bipyramid_10cell.json")
RUNGS = (26, 86, 166)
LAW_TOL = 1e-10
SCALE = 1.7


@pytest.fixture(scope="module")
def placed(stellar_ladder):
    """name -> (complex, coords) of the three fixtures, the rungs and the 72-join."""
    out = {}
    for name in FIXTURES:
        doc = pio.load_fixture(name)
        out[name] = doc.to_complex(), doc.realization()
    for n in RUNGS:
        out[f"rung{n}"] = stellar_ladder[n]
    cells, coords = join72()
    out["join72"] = cx.build_complex(cells), coords
    return out


def invariant(c, coords, motion):
    return iv.full_invariant(c, fm.realize(c, {v: motion(p) for v, p in coords.items()}))


def motions(c, coords):
    """full_invariant's reports of the placement and of it scaled by SCALE, moved
    rigidly and reflected, with the scaling law's shift."""
    base = invariant(c, coords, lambda p: p)
    F, N, r = len(c.triangle_vertices), len(c.simplex_vertices), base.selection.rank
    shift = (2 * F - 4 * N + 2 * r) * math.log(SCALE)
    rng = np.random.default_rng(len(coords))
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    t = rng.standard_normal(4)
    return SimpleNamespace(
        base=base, shift=shift, N=N,
        scaled=invariant(c, coords, lambda p: SCALE * p),
        moved=invariant(c, coords, lambda p: Q @ p + t),
        reflected=invariant(c, coords, lambda p: p * np.array([-1.0, 1.0, 1.0, 1.0])),
    )


def check_scaling(laws):
    base, scaled = laws.base, laws.scaled
    assert (scaled.sign, scaled.selection.rank) == (base.sign, base.selection.rank)
    assert abs(scaled.log_abs_value - (base.log_abs_value + laws.shift)) <= LAW_TOL


def check_rigid_motion_and_reflection(laws):
    base, moved, reflected = laws.base, laws.moved, laws.reflected
    r = base.selection.rank
    assert (moved.sign, moved.selection.rank) == (base.sign, r)
    assert abs(moved.log_abs_value - base.log_abs_value) <= LAW_TOL
    assert reflected.selection.rank == r
    assert reflected.sign == base.sign * (-1) ** (laws.N + r)
    assert reflected.log_abs_value == base.log_abs_value


@pytest.mark.parametrize("name", [*FIXTURES, *(f"rung{n}" for n in RUNGS), "join72"])
def test_full_invariant_follows_scaling_rigid_motion_and_reflection(name, placed):
    laws = motions(*placed[name])
    check_scaling(laws)
    check_rigid_motion_and_reflection(laws)


@pytest.fixture(scope="module")
def rung406(ladder406):
    """motions of the ladder's 406-cell rung."""
    return motions(*ladder406)


def test_rigid_motion_and_reflection_at_406_cells(rung406):
    check_rigid_motion_and_reflection(rung406)


@pytest.mark.xfail(strict=True, reason="scaling moves log|I| by 1.01e-10 at 406 cells")
def test_scaling_at_406_cells(rung406):
    check_scaling(rung406)
