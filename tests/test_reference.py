"""The angle kernel's blocks against a 50-digit reference, by cell quality.

The reference takes a cell's exact float64 coordinates to 50 digits (mpmath),
forms the edge-vector Gram matrix at vertex 0 from them and inverts it, so
neither the rounding of the squared lengths nor the kernel's elimination
enters it.  The closed-form dtheta/dL is then evaluated from that P at 50
digits.  A block's error is max |D - D_ref| / max |D_ref|.

The cells are the thinnest of each quality band (|V| / mean_edge^4) in each
source: the fixtures, the 166-cell rung, the replacement cells of every
admissible move of a 72-cell join, and the thin simplices of thin_tables.
"""
import mpmath
import numpy as np
import pytest

from pachner33 import complexes as cx
from pachner33 import flatmetric as fm
from pachner33 import geometry as g
from pachner33 import invariants as iv
from pachner33 import jacobians as jb
from pachner33.io import load_fixture

from conftest import admissible_triangles, join72, thin_simplices

FIXTURES = ("boundary_delta5.json", "bipyramid_10cell.json", "join_tetra_triangle.json")
# (low, high, bound), the bound pinned from the worst error measured on these
# cells: 3.2e-10 below 1e-4 (a thin_tables simplex of quality 2.5e-6, whose
# error is the rounding of its squared lengths), 1.9e-12 from 1e-4 to the
# kernel's line at 2e-4 (geometry.THIN_QUALITY; both taken in extended
# precision), 1.0e-12 from 2e-4 to 1e-3 and 8.3e-14 above (float64).
BANDS = ((0.0, 1e-4, 5e-10), (1e-4, 2e-4, 4e-12), (2e-4, 1e-3, 2e-12), (1e-3, np.inf, 2e-13))
PER_BAND = 6  # the thinnest cells of each band taken from each source


def reference_block(points, eps):
    """(10, 10) signed dtheta/dL of one cell's (5, 4) points at 50 digits."""
    with mpmath.workdps(50):
        x = [[mpmath.mpf(float(v)) for v in p] for p in points]
        e = [[x[p][k] - x[0][k] for k in range(4)] for p in range(1, 5)]
        G = mpmath.matrix([[mpmath.fsum(e[p][k] * e[q][k] for k in range(4)) for q in range(4)]
                           for p in range(4)])
        inv = G**-1
        col = [-mpmath.fsum(inv[p, q] for p in range(4)) for q in range(4)]
        P = [[-mpmath.fsum(col)] + col] + [[col[p]] + [inv[p, q] for q in range(4)]
                                           for p in range(4)]
        out = np.zeros((10, 10))
        for f, (a, b) in enumerate(g.OPPOSITE5):
            norm = mpmath.sqrt(P[a][a] * P[b][b])
            cos = -P[a][b] / norm
            sin = mpmath.sqrt(1 - cos * cos)
            for k, (i, j) in enumerate(g.EDGES5):
                dcos = -(P[a][i] * P[j][b] + P[a][j] * P[i][b]) / (2 * norm) - cos / 2 * (
                    P[a][i] * P[a][j] / P[a][a] + P[b][i] * P[b][j] / P[b][b]
                )
                out[f, k] = float(-eps * dcos / sin)
    return out


def complex_cells(c, coords):
    """(points, signs, kernel blocks) of every cell of a placed complex, sorted vertex order."""
    m = fm.realize(c, coords)
    X = np.array([coords[v] for v in c.vertices])
    blocks = jb.dtheta_dL_blocks(jb.length_tables(m.L, c.simplex_edges), m.eps)
    return X[np.sort(c.simplex_vertices, axis=1)], m.eps, blocks


def move_cells(cells, coords):
    """(points, signs, kernel blocks) of the replacement cells of every admissible
    move, as compare_under_move takes them (move_blocks, negated signs)."""
    c = cx.build_complex(cells)
    m = fm.realize(c, coords)
    points, signs, blocks = [], [], []
    for tri in admissible_triangles(c):
        _, _, star, new_cells = cx.move_cluster(c, tri)
        shares, _, _, volumes = iv.move_blocks(c, m, coords, star, new_cells)
        points += [[coords[v] for v in cell] for cell in np.sort(new_cells, axis=1).tolist()]
        signs += (-np.where(volumes > 0, 1.0, -1.0)).tolist()
        blocks.append(shares[-3:])
    return np.array(points), np.array(signs), np.concatenate(blocks)


@pytest.fixture(scope="module")
def sources(stellar_ladder):
    out = {}
    for name in FIXTURES:
        doc = load_fixture(name)
        out[name] = complex_cells(doc.to_complex(), doc.realization())
    out["rung166"] = complex_cells(*stellar_ladder[166])
    out["join72 moves"] = move_cells(*join72())
    points, signs = thin_simplices()
    out["thin_tables"] = points, signs, jb.dtheta_dL_blocks(g.squared_length_table(points), signs)
    return out


def quality(points):
    V, _ = g.cell_volumes(points, 0.0)
    d = points[:, g.EDGE_I] - points[:, g.EDGE_J]
    return np.abs(V) / np.sqrt(np.einsum("mek,mek->me", d, d)).mean(axis=1) ** 4


@pytest.mark.parametrize("low, high, bound", BANDS,
                         ids=["below 1e-4", "1e-4 to 2e-4", "2e-4 to 1e-3", "above 1e-3"])
def test_kernel_blocks_against_the_50_digit_reference(sources, low, high, bound):
    checked = set()
    for name, (points, signs, blocks) in sources.items():
        q = quality(points)
        cells = np.flatnonzero((q >= low) & (q < high))
        for k in cells[np.argsort(q[cells])][:PER_BAND]:
            ref = reference_block(points[k], signs[k])
            err = np.abs(blocks[k] - ref).max() / np.abs(ref).max()
            assert err <= bound, (name, int(k), float(q[k]), err)
            checked.add(name)
    # each band is checked on a complex; the thin one on thin_tables as well
    assert checked & {"rung166", "join72 moves"}
    assert low > 0 or "thin_tables" in checked
