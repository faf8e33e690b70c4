"""The library's numbers against 50-digit references (mpmath).

The angle kernel's blocks, by cell quality.  The reference takes a cell's
exact float64 coordinates to 50 digits, forms the edge-vector Gram matrix at
vertex 0 from them and inverts it, so neither the rounding of the squared
lengths nor the kernel's elimination enters it.  The closed-form dtheta/dL
is then evaluated from that P at 50 digits.  A block's error is
max |D - D_ref| / max |D_ref|.  The cells are the thinnest of each quality
band (|V| / mean_edge^4) in each source: the fixtures, the 166-cell rung,
the replacement cells of every admissible move of a 72-cell join, and the
thin simplices of thin_tables.

The triangle areas, against the 50-digit area of the same float64 squared
lengths, from its bordered Cayley-Menger determinant.

The whole number: full_invariant's log|I| against log|I| at 50 digits of
the same selection's rows and columns, B summed from the 50-digit blocks of
the cells that reach them, the volumes from 4x4 determinants and the areas
from the 2x2 Gram matrix of two edge vectors, all of the exact coordinates.
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

from conftest import AREA_REL_TOL, admissible_triangles, join72, thin_simplices

FIXTURES = ("boundary_delta5.json", "bipyramid_10cell.json", "join_tetra_triangle.json")
# (low, high, bound), the bound pinned from the worst error measured on these
# cells: 3.2e-10 below 1e-4 (a thin_tables simplex of quality 2.5e-6, whose
# error is the rounding of its squared lengths), 1.9e-12 from 1e-4 to the
# kernel's line at 2e-4 (geometry.THIN_QUALITY; both taken in extended
# precision), 1.0e-12 from 2e-4 to 1e-3 and 8.3e-14 above (float64).
BANDS = ((0.0, 1e-4, 5e-10), (1e-4, 2e-4, 4e-12), (2e-4, 1e-3, 2e-12), (1e-3, np.inf, 2e-13))
PER_BAND = 6  # the thinnest cells of each band taken from each source


def reference_block_mp(points, eps):
    """(10, 10) nested lists of the signed dtheta/dL of one cell's (5, 4) points,
    at the working precision."""
    x = [[mpmath.mpf(float(v)) for v in p] for p in points]
    e = [[x[p][k] - x[0][k] for k in range(4)] for p in range(1, 5)]
    G = mpmath.matrix([[mpmath.fsum(e[p][k] * e[q][k] for k in range(4)) for q in range(4)]
                       for p in range(4)])
    inv = G**-1
    col = [-mpmath.fsum(inv[p, q] for p in range(4)) for q in range(4)]
    P = [[-mpmath.fsum(col)] + col] + [[col[p]] + [inv[p, q] for q in range(4)]
                                       for p in range(4)]
    out = []
    for a, b in g.OPPOSITE5:
        norm = mpmath.sqrt(P[a][a] * P[b][b])
        cos = -P[a][b] / norm
        sin = mpmath.sqrt(1 - cos * cos)
        row = []
        for i, j in g.EDGES5:
            dcos = -(P[a][i] * P[j][b] + P[a][j] * P[i][b]) / (2 * norm) - cos / 2 * (
                P[a][i] * P[a][j] / P[a][a] + P[b][i] * P[b][j] / P[b][b]
            )
            row.append(-int(eps) * dcos / sin)
        out.append(row)
    return out


def reference_block(points, eps):
    """(10, 10) signed dtheta/dL of one cell's (5, 4) points at 50 digits."""
    with mpmath.workdps(50):
        return np.array([[float(v) for v in row] for row in reference_block_mp(points, eps)])


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


# ------------------------------------------------------------- areas

PLACED = (*FIXTURES, "rung26", "rung86", "rung166", "join72")


@pytest.fixture(scope="module")
def placed(stellar_ladder):
    """name -> (complex, coords) of the fixtures, the ladder's rungs and the 72-join."""
    out = {}
    for name in FIXTURES:
        doc = load_fixture(name)
        out[name] = doc.to_complex(), doc.realization()
    for n in (26, 86, 166):
        out[f"rung{n}"] = stellar_ladder[n]
    cells, coords = join72()
    out["join72"] = cx.build_complex(cells), coords
    return out


def reference_areas(lengths):
    """(F,) areas at 50 digits of an (F, 3) array of float64 squared lengths (ab, ac, bc),
    each from the bordered Cayley-Menger determinant, -det / 16 = S^2."""
    out = []
    with mpmath.workdps(50):
        for ab, ac, bc in lengths.tolist():
            M = mpmath.matrix([[0, 1, 1, 1], [1, 0, ab, ac], [1, ab, 0, bc], [1, ac, bc, 0]])
            out.append(float(mpmath.sqrt(-mpmath.det(M) / 16)))
    return np.array(out)


@pytest.mark.parametrize("name", PLACED)
def test_triangle_areas_against_the_50_digit_areas(name, placed):
    c, coords = placed[name]
    m = fm.realize(c, coords)
    ref = reference_areas(m.L[c.triangle_edges])
    assert (np.abs(m.S - ref) / ref).max() <= AREA_REL_TOL


# ------------------------------------------------------------ log|I|

# name -> the true error log|I| - log|I|_ref measured when triangle areas came
# from Cayley-Menger determinants, rounded up.  The closed-form areas read the
# same on boundary_delta5, rung26 and join72, and -4.4e-15 and +2.4e-14 on
# the bipyramid and the tetrahedron-triangle join: two and one ulps of log|I|
# further, the rounding of the sum of the logs of the areas.  rung86 is
# measured with the closed-form areas (-2.1485e-12).  Each bound is the
# measured error and three ulps of log|I|.
LOG_I_ERRORS = {
    "boundary_delta5.json": -4.6e-15,
    "bipyramid_10cell.json": -8.5e-16,
    "join_tetra_triangle.json": 2.1e-14,
    "rung26": 3.4e-14,
    "rung86": -2.15e-12,
    "join72": -6.7e-13,
}


def reference_log_invariant(c, coords, m, sel):
    """(log|I| of the selection's rows and columns, the B of those) at 50 digits."""
    rows, cols = list(sel.rows), list(sel.cols)
    row_at, col_at = dict(zip(rows, range(len(rows)))), dict(zip(cols, range(len(cols))))
    X = {v: [mpmath.mpf(float(x)) for x in p] for v, p in coords.items()}
    with mpmath.workdps(50):
        B = mpmath.zeros(len(rows), len(cols))
        for n in np.flatnonzero(np.isin(c.simplex_faces, rows).any(axis=1)):
            verts = c.vertex_ids[np.sort(c.simplex_vertices[n])]
            block = reference_block_mp([coords[v] for v in verts], m.eps[n])
            for f, t in enumerate(c.simplex_faces[n].tolist()):
                for k, e in enumerate(c.simplex_edges[n].tolist()):
                    if t in row_at and e in col_at:
                        B[row_at[t], col_at[e]] -= block[f][k]
        log_V = 0
        for cell in c.vertex_ids[c.simplex_vertices]:
            p0, *rest = (X[v] for v in cell)
            log_V += mpmath.log(abs(mpmath.det(mpmath.matrix(
                [[p[k] - p0[k] for k in range(4)] for p in rest])) / 24))
        log_S = 0
        for a, b, t in c.vertex_ids[c.triangle_vertices]:
            u = [X[b][k] - X[a][k] for k in range(4)]
            w = [X[t][k] - X[a][k] for k in range(4)]
            uu, ww, uw = (mpmath.fsum(x * y for x, y in zip(p, q)) for p, q in
                          ((u, u), (w, w), (u, w)))
            log_S += mpmath.log(mpmath.sqrt(uu * ww - uw * uw) / 2)
        return log_S - mpmath.log(abs(mpmath.det(B))) - log_V, B


@pytest.mark.parametrize("name", LOG_I_ERRORS)
def test_log_invariant_against_the_50_digit_reference(name, placed):
    c, coords = placed[name]
    m = fm.realize(c, coords)
    report = iv.full_invariant(c, m)
    sel = report.selection
    ref, B = reference_log_invariant(c, coords, m, sel)
    # the 50-digit B is the float route's, which fixes the sign conventions
    B = np.array(B.tolist(), dtype=float)
    got = jb.assemble_domega_dL(c, m)[np.ix_(sel.rows, sel.cols)]
    assert np.abs(got - B).max() <= 1e-11 * np.abs(B).max()
    with mpmath.workdps(50):
        error = float(mpmath.mpf(report.log_abs_value) - ref)
    assert abs(error) <= abs(LOG_I_ERRORS[name]) + 3 * np.spacing(report.log_abs_value)
