"""Cluster identities, the restricted invariant and move comparisons."""
import itertools
import math

import numpy as np
import pytest

from pachner33 import complexes as cx
from pachner33 import flatmetric as fm
from pachner33 import geometry as g
from pachner33 import identities as idn
from pachner33 import invariants as iv
from pachner33 import jacobians as jb
from pachner33.errors import DegenerateSimplexError, SelectionError

from conftest import (
    DELTA5,
    cm_squared_volume,
    dense,
    materialized_value_after,
    reduce_angle_scalar,
    scatter_indices,
    symmetric_cluster,
)


# --------------------------------------------------------------- clusters

EDGE_OF = DELTA5.face_index[1]

def test_cluster_requires_nondegenerate_hats():
    pts = np.vstack([np.zeros(4), np.eye(4), np.ones(4)[None, :]])
    # make the simplex omitting C affinely dependent: F into span(A,B,D,E)
    pts[5] = pts[0] + pts[1] + pts[3] - pts[4]
    with pytest.raises(DegenerateSimplexError):
        idn.ClusterSix(pts[None])


def test_cluster_deficits_close_up():
    cluster = idn.random_clusters([4])
    assert cluster.omegas.shape == (1, 2)
    assert np.abs(cluster.omegas).max() < 1e-10


def test_random_cluster_deterministic():
    a = idn.random_clusters([123]).points
    b = idn.random_clusters([123]).points
    assert np.array_equal(a, b)


# the three cells around ABC and the three around DEF, as listed before the
# cluster became the boundary of the 5-simplex
BEFORE_CELLS = ((0, 1, 2, 4, 5), (0, 1, 2, 5, 3), (0, 1, 2, 3, 4))
AFTER_CELLS = ((1, 2, 3, 4, 5), (2, 0, 3, 4, 5), (0, 1, 3, 4, 5))


def cluster_reference(points):
    """The per-cell cluster route that ClusterSix replaced, kept as a reference.

    Returns the six hat volumes, taken from one 12-row stack of the hats and
    the listed cluster cells, and per side the deficit, the (15,) gradient
    and the area at the central triangle.  Each cell's sign is that of its
    listed vertex order, and its length table is in ascending vertex order
    with the squared lengths rounded as ClusterSix rounds them (a 1x4 by
    4x1 product per pair): the float64 kernel puts two vertex orders, or
    two roundings of the lengths, up to about 2e-12 of a block's largest
    entry apart on cells of quality 1e-4 to 1e-3, and the symmetric
    cluster has such cells.  The gradient is scattered cell by cell and
    the area is its own Cayley-Menger determinant.
    """
    hats = [[v for v in range(6) if v != x] for x in range(6)]
    stack = np.array(hats + list(BEFORE_CELLS + AFTER_CELLS))
    volumes, _ = g.cell_volumes(points[stack], g.DEGENERACY_REL)
    d = points[:, None] - points[None]
    L6 = np.matmul(d[..., None, :], d[..., :, None])[..., 0, 0]
    sides = {}
    for side, cells, face, cell_volumes in (
        ("abc", BEFORE_CELLS, (0, 1, 2), volumes[6:9]),
        ("def", AFTER_CELLS, (3, 4, 5), volumes[9:]),
    ):
        signs = [1 if vol > 0 else -1 for vol in cell_volumes.tolist()]
        cells = [sorted(cell) for cell in cells]
        tables = np.stack([L6[np.ix_(cell, cell)] for cell in cells])
        rows = [g.FACE_INDEX5[tuple(sorted(cell.index(v) for v in face))] for cell in cells]
        theta = jb.dihedral_angles_batch(tables)
        total = sum(sign * theta[n, row] for n, (sign, row) in enumerate(zip(signs, rows)))
        grad = np.zeros(len(idn.CLUSTER_EDGES))
        for cell, block, row in zip(cells, jb.dtheta_dL_blocks(tables, signs), rows):
            cols = [EDGE_OF[tuple(sorted((cell[p], cell[q])))] for p, q in g.EDGES5]
            grad[cols] -= block[row]
        area = math.sqrt(cm_squared_volume(2, g.squared_length_table(points[list(face)])))
        sides[side] = (reduce_angle_scalar(-total), grad, area)
    return volumes[:6], sides


def test_cluster_sides_are_rows_of_the_delta5_boundary():
    c = cx.boundary_delta5()
    assert idn.CLUSTER_EDGES.tolist() == [list(e) for e in itertools.combinations(range(6), 2)]
    assert c.faces[1] == tuple(itertools.combinations(range(6), 2))
    # cell n omits point n
    assert [verts for verts, _ in c.simplices] == [
        tuple(v for v in range(6) if v != x) for x in range(6)
    ]
    for side, face, cells, sign in (
        ("abc", (0, 1, 2), BEFORE_CELLS, -1),
        ("def", (3, 4, 5), AFTER_CELLS, 1),
    ):
        row, side_sign = idn.SIDES[side]
        assert c.faces[2][row] == face and side_sign == sign
        through = {cell for cell in c.simplices if set(face) <= set(cell[0])}
        listed = cx.build_complex(cells, allow_boundary=True).simplices
        # the boundary's cells through the side's triangle are that side's cells, times sign
        assert through == {(verts, sign * s) for verts, s in listed}


def test_cluster_global_route_matches_the_hand_rolled_route():
    for clusters in (idn.random_clusters(range(100)), symmetric_cluster()):
        for t, points in enumerate(clusters.points):
            hat_volumes, sides = cluster_reference(points)
            assert np.array_equal(clusters.hat_volumes[t], hat_volumes)
            for k, (omega, grad, area) in enumerate(sides.values()):
                got = clusters.gradients[t, k]
                assert got.shape == (15,)
                assert np.abs(got - grad).max() <= 1e-12 * np.abs(grad).max()
                assert clusters.omegas[t, k] == pytest.approx(omega, rel=0, abs=1e-12)
                assert clusters.areas[t, k] == pytest.approx(area, rel=1e-12)


# ---------------------------------------------------------- two-edge ratio

def test_two_edge_ratio_random_clusters():
    chk = idn.check_basic2(idn.random_clusters([0, 1, 2]))
    assert chk.residual.shape == (3,)
    assert (chk.residual <= 1e-6).all()


def test_two_edge_ratio_swap_symmetry():
    chk = idn.check_basic2(symmetric_cluster())
    assert chk.residual[0] <= 1e-6
    # the swap symmetry forces the two volume products to equal magnitudes
    assert abs(chk.ratio[0]) == pytest.approx(1.0, rel=1e-9)


def central_difference_two_edge_ratio(pts):
    """dL_DE / dL_AB of one cluster as check_basic2 took it before its derivatives were exact.

    The same flat direction of A and E, with both squared lengths
    differenced at +-FD_REL_STEP * max|x| along it.
    """
    A, B, C, D, E, F = range(6)
    J = np.zeros((7, 8))
    for r, (u, w) in enumerate([(A, C), (A, D), (A, E), (A, F), (B, E), (C, E), (E, F)]):
        d = pts[u] - pts[w]
        for vertex, cols in ((A, slice(0, 4)), (E, slice(4, 8))):
            J[r, cols] += 2 * d * ((u == vertex) - (w == vertex))
    v = np.linalg.svd(J)[2][-1]
    s = idn.FD_REL_STEP * float(np.abs(pts).max())

    def lengths_at(t):
        q = pts.copy()
        q[A] += t * v[0:4]
        q[E] += t * v[4:8]
        return g.squared_length_table(q)

    Lp, Lm = lengths_at(s), lengths_at(-s)
    return (Lp[D, E] - Lm[D, E]) / (Lp[A, B] - Lm[A, B])


def test_two_edge_ratio_matches_the_central_difference():
    for clusters in (idn.random_clusters(range(100)), symmetric_cluster()):
        want = [central_difference_two_edge_ratio(pts) for pts in clusters.points]
        assert idn.check_basic2(clusters).ratio == pytest.approx(want, rel=1e-9)


def test_degenerate_cluster_rejected_before_checks():
    pts = idn.random_clusters([3]).points.copy()
    pts[0, 2] = 0.5 * (pts[0, 0] + pts[0, 1])  # collapse a hat simplex
    with pytest.raises(DegenerateSimplexError):
        idn.ClusterSix(pts)


# ------------------------------------------------------------- six-term

def test_six_term_identity_random_clusters():
    chk = idn.check_6term(idn.random_clusters([0, 5, 9]))
    assert chk.residual.shape == (3,)
    assert (chk.residual <= 1e-6).all()
    assert (chk.cosine >= 1.0 - 1e-10).all()
    assert (chk.ratio_residual <= 1e-6).all()


# ------------------------------------------------------ restricted invariant

def test_restricted_invariant_isometry_invariance(delta5, delta5_coords):
    m = fm.realize(delta5, delta5_coords)
    M = jb.assemble_domega_dL(delta5, m)
    row = delta5.face_index[2][(0, 1, 2)]
    sel = jb.rank_and_submatrix(M, must_include_row=row)
    sign, log_abs = iv.restricted_invariant(delta5, m, sel)
    assert sign != 0 and math.isfinite(log_abs)

    rng = np.random.default_rng(8)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    shift = rng.standard_normal(4)
    moved = {v: Q @ p + shift for v, p in delta5_coords.items()}
    m2 = fm.realize(delta5, moved)
    M2 = jb.assemble_domega_dL(delta5, m2)
    sel2_det = M2[sel.rows[0], sel.cols[0]]
    sel2 = jb.SubmatrixSelection(
        rows=sel.rows, cols=sel.cols, rows_comp=sel.rows_comp,
        cols_comp=sel.cols_comp, pivots=(float(sel2_det),),
    )
    sign2, log_abs2 = iv.restricted_invariant(delta5, m2, sel2)
    # rel 1e-9 on the value is the sign plus abs 1e-9 on its log
    assert sign2 == sign
    assert log_abs2 == pytest.approx(log_abs, abs=1e-9)


def test_restricted_invariant_orientation_reversal(delta5, delta5_coords):
    # all eps flip, the matrix flips sign: value changes by (-1)^(cells + rank)
    m = fm.realize(delta5, delta5_coords)
    M = jb.assemble_domega_dL(delta5, m)
    sel = jb.rank_and_submatrix(M)
    assert sel.rank == 1  # so the one pivot of sel2 below is its determinant
    sign, log_abs = iv.restricted_invariant(delta5, m, sel)

    reflected = {v: p * np.array([-1.0, 1, 1, 1]) for v, p in delta5_coords.items()}
    m2 = fm.realize(delta5, reflected)
    M2 = jb.assemble_domega_dL(delta5, m2)
    det2 = float(np.linalg.det(M2[np.ix_(sel.rows, sel.cols)]))
    sel2 = jb.SubmatrixSelection(
        rows=sel.rows, cols=sel.cols, rows_comp=sel.rows_comp,
        cols_comp=sel.cols_comp, pivots=(det2,),
    )
    sign2, log_abs2 = iv.restricted_invariant(delta5, m2, sel2)
    assert log_abs2 == pytest.approx(log_abs, abs=1e-9)
    expected_sign = (-1) ** (len(delta5.simplices) + sel.rank)
    assert sign2 * sign == expected_sign


def test_restricted_invariant_rejects_degenerate_selection(delta5, delta5_metric):
    sel = jb.SubmatrixSelection(rows=(0,), cols=(0,), rows_comp=(), cols_comp=(), pivots=(0.0,))
    with pytest.raises(SelectionError):
        iv.restricted_invariant(delta5, delta5_metric, sel)


def test_full_invariant_is_the_restricted_invariant(delta5, delta5_metric):
    rep = iv.full_invariant(delta5, delta5_metric)
    restricted = iv.restricted_invariant(delta5, delta5_metric, rep.selection)
    assert restricted == (rep.sign, rep.log_abs_value)
    det_sign, log_det = rep.selection.slogdet()
    assert rep.sign == det_sign * rep.sign_prod_V
    assert rep.log_abs_value == pytest.approx(
        rep.log_abs_prod_S - (log_det + rep.log_abs_prod_V), rel=1e-12
    )


def test_full_invariant_takes_each_product_once(monkeypatch, stellar_ladder):
    # one log_product of the volumes and one of the areas serve both the value
    # and the report's products, which equal those of the restricted invariant
    c, coords = stellar_ladder[166]
    m = fm.realize(c, coords)
    want = iv.full_invariant(c, m)
    taken = []

    def counting(values):
        taken.append(values)
        return jb.log_product(values)

    monkeypatch.setattr(iv, "log_product", counting)
    rep = iv.full_invariant(c, m)
    assert [id(values) for values in taken] == [id(m.V), id(m.S)]
    assert repr(rep) == repr(want)
    assert (rep.sign_prod_V, rep.log_abs_prod_V) == jb.log_product(m.V)
    assert rep.log_abs_prod_S == jb.log_product(m.S)[1]
    assert iv.restricted_invariant(c, m, rep.selection) == (rep.sign, rep.log_abs_value)


def test_full_invariant_euclidean_motion_invariance(delta5, delta5_coords, delta5_metric):
    rep = iv.full_invariant(delta5, delta5_metric)
    rng = np.random.default_rng(17)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    shift = rng.standard_normal(4)
    m2 = fm.realize(delta5, {v: Q @ p + shift for v, p in delta5_coords.items()})
    rep2 = iv.full_invariant(delta5, m2)
    assert rep2.sign == rep.sign
    assert rep2.log_abs_value == pytest.approx(rep.log_abs_value, abs=1e-9)


def test_full_invariant_depends_on_realization(delta5):
    # realization-dependent data: different generic placements give different
    # numbers (recorded, never asserted equal)
    values = set()
    for seed in (1, 2):
        m = fm.realize(delta5, fm.random_realization(delta5, seed=seed))
        values.add(iv.full_invariant(delta5, m).log_abs_value)
    assert len(values) == 2


# ------------------------------------------------------------ move compare

def test_compare_under_move_delta5_all_triangles_sample(delta5, delta5_coords):
    for tri in ((0, 1, 2), (0, 3, 5), (1, 2, 4)):
        mc = iv.compare_under_move(delta5, delta5_coords, tri)
        assert mc.deviation <= 1e-6
        assert mc.new_face == tuple(sorted(set(range(6)) - set(tri)))


def test_compare_under_move_join_materializes(join_complex, join_coords):
    assert iv.compare_under_move(join_complex, join_coords, (0, 1, 2)).deviation <= 1e-6


def test_compare_paths_agree_when_both_available(join_complex, join_coords):
    # the local rebuild against the materialized move at every sphere triangle,
    # bit for bit
    for tri in itertools.combinations(range(4), 3):
        mc = iv.compare_under_move(join_complex, join_coords, tri)
        sign, log_abs = materialized_value_after(join_complex, join_coords, tri, mc.selection)
        assert (mc.sign_after, mc.log_abs_after.hex()) == (sign, log_abs.hex())


def test_compare_double_move_returns_to_start(join_complex, join_coords):
    mc = iv.compare_under_move(join_complex, join_coords, (1, 2, 3))
    moved, rec = cx.pachner_33(join_complex, (1, 2, 3))
    back = iv.compare_under_move(moved, join_coords, rec.new_face)
    assert back.deviation <= 1e-6
    # the round trip reproduces the original invariant value
    assert back.sign_after == mc.sign_before
    assert back.log_abs_after == pytest.approx(mc.log_abs_before, abs=1e-9)
    back, _ = cx.pachner_33(moved, rec.new_face)
    assert frozenset(back.simplices) == frozenset(join_complex.simplices)


def test_compare_on_moved_join_fixture(join_complex, join_coords):
    # a one-move descendant is a closed fixture in its own right
    moved, rec = cx.pachner_33(join_complex, (0, 2, 3))
    assert iv.compare_under_move(moved, join_coords, rec.new_face).deviation <= 1e-6


def after_cells_reference(c, m, coords, star, def_, new_cells):
    """The (F + 1) x E after-matrix, as np.add.at of the after-cells' shares into zeros.

    The after-cells are the cells without the star, in cell order, then the
    replacement cells, whose shares come from a call of their own and whose
    rows and columns come from dict lookups, the appearing triangle at row
    F.  Returns the first F rows, row F and the replacement volumes.
    """
    pts = [[coords[v] for v in cell] for cell in new_cells.tolist()]
    volumes, below = g.cell_volumes(pts, g.DEGENERACY_REL)
    if below.any():
        raise DegenerateSimplexError("replacement simplex is degenerate")
    F, E = len(c.faces[2]), len(c.faces[1])
    rows, cols = scatter_indices(
        np.sort(new_cells, axis=1).tolist(), {**c.face_index[2], def_: F}, c.face_index[1]
    )
    kept = np.delete(np.arange(len(c.simplices)), star)
    shares = np.concatenate([
        jb.dtheta_dL_blocks(jb.length_tables(m.L, c.simplex_edges[kept]), -m.eps[kept]),
        jb.dtheta_dL_blocks(jb.length_tables(m.L, cols), -np.where(volumes > 0, 1.0, -1.0)),
    ])
    rows = np.vstack([c.simplex_faces[kept], rows])
    cols = np.vstack([c.simplex_edges[kept], cols])
    M_after = np.zeros((F + 1, E))
    np.add.at(M_after, (rows[:, :, None], cols[:, None, :]), shares)
    return M_after[:F], M_after[F], volumes


def moved_reference(c, coords, t, sel):
    """The moved complex's own entries at a selection of c: pachner_33, realize, assemble.

    Returns its entries at sel.rows x sel.cols, the row of the disappearing
    triangle taken by the appearing one, and the appearing triangle's row
    at sel.cols.
    """
    moved, record = cx.pachner_33(c, t)
    M = jb.assemble_domega_dL(moved, fm.realize(moved, coords))
    rows = [
        moved.face_index[2][record.new_face if key == record.old_face else key]
        for key in (c.faces[2][i] for i in sel.rows)
    ]
    cols = [moved.face_index[1][c.faces[1][j]] for j in sel.cols]
    return M[np.ix_(rows, cols)], M[moved.face_index[2][record.new_face], cols]


def compare_reference(c, coords, t):
    """(selection, sign and log|I| before, after, ratio) on after_cells_reference."""
    abc, def_, star, new_cells = cx.move_cluster(c, t)
    m = fm.realize(c, coords)
    M = jb.assemble_domega_dL(c, m)
    row_abc = c.face_index[2][abc]
    sel = jb.rank_and_submatrix(M.copy(), must_include_row=row_abc)
    sign_before, log_before = iv.restricted_invariant(c, m, sel)
    M_after, def_row, new_volumes = after_cells_reference(c, m, coords, star, def_, new_cells)
    B_after = M_after[np.ix_(sel.rows, sel.cols)]
    B_after[sel.rows.index(row_abc)] = def_row[list(sel.cols)]
    volumes = np.append(np.delete(m.V, star), new_volumes)
    d, e, f = def_
    def_edges = [[c.face_index[1][pair] for pair in ((d, e), (d, f), (e, f))]]
    # the moved complex's triangles in key order, DEF before an equal key
    keyed = [(def_, fm.triangle_areas(m.L, def_edges, [def_])[0])]
    keyed += [(key, area) for key, area in zip(c.faces[2], m.S) if key != abc]
    areas = np.array([area for _, area in sorted(keyed, key=lambda pair: pair[0])])
    det_sign, log_det = np.linalg.slogdet(B_after)
    sign_after, log_after = iv._log_value(
        det_sign, float(log_det), jb.log_product(volumes), jb.log_product(areas)
    )
    ratio = sign_before * sign_after * math.exp(log_after - log_before)
    return sel, sign_before, log_before, sign_after, log_after, ratio


def whole_selection(M):
    """A selection of every row and column of M, for reading whole after-matrices."""
    F, E = M.shape
    return jb.SubmatrixSelection(
        rows=tuple(range(F)), cols=tuple(range(E)), rows_comp=(), cols_comp=(), pivots=()
    )


def move_cases(delta5, delta5_coords, join_complex, join_coords, bipyramid, stellar_ladder):
    """The three fixtures, the bipyramid on the unit-ball sampler, and the rungs."""
    bipyramid_coords = fm.random_realization(bipyramid, seed=2)
    cases = [(delta5, delta5_coords), (join_complex, join_coords), (bipyramid, bipyramid_coords)]
    return cases + list(stellar_ladder.values())


def test_move_blocks_reads_the_replacement_indices_off_the_star(
    delta5, delta5_coords, join_complex, join_coords, bipyramid, stellar_ladder, admissible
):
    # the replacement rows and columns are the dict lookups of their faces,
    # with the appearing triangle at row F, also where it is already a face
    compared = already = 0
    for c, coords in move_cases(
        delta5, delta5_coords, join_complex, join_coords, bipyramid, stellar_ladder
    ):
        m = fm.realize(c, coords)
        F = len(c.faces[2])
        for tri in admissible(c):
            _, def_, star, new_cells = cx.move_cluster(c, tri)
            _, rows, cols, _ = iv.move_blocks(c, m, coords, star, new_cells)
            want = scatter_indices(
                np.sort(new_cells, axis=1).tolist(), {**c.face_index[2], def_: F}, c.face_index[1]
            )
            assert [rows.tolist(), cols.tolist()] == [a.tolist() for a in want], tri
            already += def_ in c.face_index[2]
            compared += 1
    assert compared >= 100 and already >= 20


def test_virtual_rebuild_matches_the_stacked_copy_bitwise(
    delta5, delta5_coords, join_complex, join_coords, bipyramid, stellar_ladder, admissible
):
    # B_after and the appearing row, at the whole matrix and at the selection,
    # are the entries of the (F + 1) x E stacked copy of the after-cells, bit
    # for bit, at every admissible move, DEF already a face or not
    compared = 0
    for c, coords in move_cases(
        delta5, delta5_coords, join_complex, join_coords, bipyramid, stellar_ladder
    ):
        m = fm.realize(c, coords)
        for tri in admissible(c):
            _, def_, star, new_cells = cx.move_cluster(c, tri)
            shares, rows, cols, _ = iv.move_blocks(c, m, coords, star, new_cells)
            M = jb.assemble_domega_dL(c, m, shares[: len(c.simplices)])
            M_after, def_row, _ = after_cells_reference(c, m, coords, star, def_, new_cells)
            whole = whole_selection(M)
            whole_after, whole_def = iv.virtual_rebuild(c, whole, star, shares, rows, cols)
            assert whole_after.tobytes() == M_after.tobytes()
            assert whole_def.tobytes() == def_row.tobytes()
            sel = jb.rank_and_submatrix(M, must_include_row=c.face_index[2][tuple(tri)])
            B_after, def_at_sel = iv.virtual_rebuild(c, sel, star, shares, rows, cols)
            assert B_after.shape == (sel.rank, sel.rank)
            assert B_after.tobytes() == M_after[np.ix_(sel.rows, sel.cols)].tobytes()
            assert def_at_sel.tobytes() == def_row[list(sel.cols)].tobytes()
            compared += 1
    assert compared >= 100


def test_virtual_rebuild_is_the_moved_complex_bitwise(
    join_complex, join_coords, stellar_ladder, admissible
):
    # at every move pachner_33 can make, B_after and the appearing row are the
    # moved complex's own assembled entries at the matched rows and columns
    # (the join, its one-move descendant and the rungs, which have none)
    descendant, _ = cx.pachner_33(join_complex, (0, 2, 3))
    cases = [(join_complex, join_coords), (descendant, join_coords), *stellar_ladder.values()]
    compared = 0
    for c, coords in cases:
        m = fm.realize(c, coords)
        for tri in admissible(c):
            abc, def_, star, new_cells = cx.move_cluster(c, tri)
            if def_ in c.face_index[2]:
                continue
            shares, rows, cols, _ = iv.move_blocks(c, m, coords, star, new_cells)
            M = jb.assemble_domega_dL(c, m, shares[: len(c.simplices)])
            row_abc = c.face_index[2][abc]
            for sel in (whole_selection(M), jb.rank_and_submatrix(M, must_include_row=row_abc)):
                B_after, def_row = iv.virtual_rebuild(c, sel, star, shares, rows, cols)
                B_after[sel.rows.index(row_abc)] = def_row
                want, want_def = moved_reference(c, coords, tri, sel)
                assert B_after.tobytes() == want.tobytes(), tri
                assert def_row.tobytes() == want_def.tobytes(), tri
            compared += 1
    assert compared == 8


def test_compare_matches_the_two_call_rebuild_bitwise(
    delta5, delta5_coords, join_complex, join_coords, stellar_ladder, admissible
):
    cases = [(delta5, delta5_coords), (join_complex, join_coords)]
    cases += [(c, coords) for n, (c, coords) in stellar_ladder.items() if n <= 86]
    compared = 0
    for c, coords in cases:
        for tri in admissible(c, 8):
            mc = iv.compare_under_move(c, coords, tri)
            sel, sign_before, log_before, sign_after, log_after, ratio = compare_reference(
                c, coords, tri
            )
            assert mc.selection == sel
            assert (mc.sign_before, mc.sign_after) == (sign_before, sign_after)
            assert mc.log_abs_before.hex() == log_before.hex()
            assert mc.log_abs_after.hex() == log_after.hex()
            assert mc.ratio.hex() == ratio.hex()
            compared += 1
    assert compared >= 20


def test_compare_computes_the_angle_blocks_once(monkeypatch, join_complex, join_coords):
    # one batch over the N cells and the three replacement cells
    calls = []
    blocks = jb.dtheta_dL_blocks

    def counted(L, eps):
        calls.append(len(L))
        return blocks(L, eps)

    monkeypatch.setattr(jb, "dtheta_dL_blocks", counted)
    monkeypatch.setattr(iv, "dtheta_dL_blocks", counted)
    iv.compare_under_move(join_complex, join_coords, (0, 1, 2))
    assert calls == [len(join_complex.simplices) + 3]


def test_row_swap_ratio_matches_gradient_ratio(delta5, delta5_coords):
    # the det ratio across the move equals the ratio of the two deficit
    # gradients (which are parallel forms on the shared kernel complement)
    m = fm.realize(delta5, delta5_coords)
    abc = (0, 1, 2)
    _, def_, star, new_cells = cx.move_cluster(delta5, abc)
    shares, rows, cols, _ = iv.move_blocks(delta5, m, delta5_coords, star, new_cells)
    M = jb.assemble_domega_dL(delta5, m, shares[: len(delta5.simplices)])
    row_abc = delta5.face_index[2][abc]
    sel = jb.rank_and_submatrix(M.copy(), must_include_row=row_abc)
    _, def_row = iv.virtual_rebuild(delta5, whole_selection(M), star, shares, rows, cols)
    _, def_at_sel = iv.virtual_rebuild(delta5, sel, star, shares, rows, cols)
    assert def_at_sel.tobytes() == def_row[list(sel.cols)].tobytes()
    r_before = M[row_abc]
    cos = abs(r_before @ def_row) / (
        np.linalg.norm(r_before) * np.linalg.norm(def_row)
    )
    assert cos >= 1.0 - 1e-9
    det_ratio = abs(def_row[sel.cols[0]] / M[row_abc, sel.cols[0]])
    norm_ratio = np.linalg.norm(def_row) / np.linalg.norm(r_before)
    assert det_ratio == pytest.approx(norm_ratio, rel=1e-6)


def test_compare_rejects_degenerate_replacement(join_complex, join_coords):
    coords = {v: np.asarray(p, float).copy() for v, p in join_coords.items()}
    # put vertex 1 into the affine span of {2, 4, 5, 6}: the replacement cell
    # {1, 2, 4, 5, 6} for a move at (0, 1, 2) degenerates, while every stored
    # cell stays solid (none contains all three circle vertices 4, 5, 6)
    coords[1] = 0.3 * coords[2] + 0.3 * coords[4] + 0.2 * coords[5] + 0.2 * coords[6]
    fm.realize(join_complex, coords)  # the base complex itself is fine
    with pytest.raises(DegenerateSimplexError):
        iv.compare_under_move(join_complex, coords, (0, 1, 2))


# ------------------------------------------------------------ basis change

def test_edge_swap_factor_contract(join_complex, join_metric):
    M = jb.assemble_domega_dL(join_complex, join_metric)
    sel = jb.rank_and_submatrix(M.copy())
    b = sel.cols_comp[0]
    c_col = sel.cols[-1]
    factors = iv.basis_change_factor(M, sel, ("edge", b, c_col))
    assert factors.factor_det == pytest.approx(-factors.factor_form, rel=1e-6)
    # Cramer's rule: the expansion weight of the outgoing column is the det ratio
    assert factors.coefficient == pytest.approx(factors.factor_det, rel=1e-6)


def test_face_swap_factor_contract(join_complex, join_metric):
    jac = jb.build_jacobians(join_complex, join_metric)
    M = dense(jac.dOmega_dL)
    sel = jb.rank_and_submatrix(M.copy())
    new_row = next(
        r for r in sel.rows_comp if np.abs(M[r]).max() > 0.1 * np.abs(M).max()
    )
    coeffs, *_ = np.linalg.lstsq(M[list(sel.rows)].T, M[new_row], rcond=None)
    old_row = sel.rows[int(np.argmax(np.abs(coeffs)))]
    factors = iv.basis_change_factor(
        M, sel, ("face", new_row, old_row), conjugate=dense(jac.dBigOmega_dS)
    )
    assert factors.factor_det == pytest.approx(factors.coefficient, rel=1e-6)
    assert factors.factor_det == pytest.approx(-factors.factor_form, rel=1e-6)


def test_face_swap_on_rank_one_delta5(delta5, delta5_metric):
    jac = jb.build_jacobians(delta5, delta5_metric)
    M = dense(jac.dOmega_dL)
    sel = jb.rank_and_submatrix(M.copy())
    assert sel.rank == 1
    new_row = next(
        r for r in sel.rows_comp if np.abs(M[r]).max() > 0.1 * np.abs(M).max()
    )
    factors = iv.basis_change_factor(
        M, sel, ("face", new_row, sel.rows[0]), conjugate=dense(jac.dBigOmega_dS)
    )
    # det(B)^-1 times the accumulated form factor is preserved up to sign:
    # |1 / (det(B) * factor_det) * factor_form| = |1 / det(B)|
    assert abs(factors.factor_form / factors.factor_det) == pytest.approx(1.0, rel=1e-6)


def test_swap_chain_preserves_composite_quantity(join_complex, join_metric):
    jac = jb.build_jacobians(join_complex, join_metric)
    M = dense(jac.dOmega_dL)
    sel = jb.rank_and_submatrix(M.copy())
    # the quantity 1 / det(B) changes by factor_form / factor_det per swap

    edge_factors = iv.basis_change_factor(
        M, sel, ("edge", sel.cols_comp[1], sel.cols[0])
    )
    q_edge = edge_factors.factor_form / edge_factors.factor_det
    assert abs(q_edge) == pytest.approx(1.0, rel=1e-6)

    strong_row = next(
        r for r in sel.rows_comp if np.abs(M[r]).max() > 0.1 * np.abs(M).max()
    )
    # swap out the selected row that genuinely participates in the expansion
    coeffs, *_ = np.linalg.lstsq(M[list(sel.rows)].T, M[strong_row], rcond=None)
    old_row = sel.rows[int(np.argmax(np.abs(coeffs)))]
    face_factors = iv.basis_change_factor(
        M,
        sel,
        ("face", strong_row, old_row),
        conjugate=dense(jac.dBigOmega_dS),
    )
    q_face = face_factors.factor_form / face_factors.factor_det
    assert abs(q_face) == pytest.approx(1.0, rel=1e-6)


def test_basis_change_factors_do_not_depend_on_the_scale_of_M(join_complex, join_metric):
    jac = jb.build_jacobians(join_complex, join_metric)
    M = dense(jac.dOmega_dL)
    sel = jb.rank_and_submatrix(M.copy())
    big = jb.rank_and_submatrix(M * 1e120)
    assert (big.rows, big.cols) == (sel.rows, sel.cols)
    assert math.prod(big.pivots) == math.inf  # det(B) as a plain double overflows
    coeffs, *_ = np.linalg.lstsq(M[list(sel.rows)].T, M[sel.rows_comp[0]], rcond=None)
    old_row = sel.rows[int(np.argmax(np.abs(coeffs)))]
    swaps = (
        (("edge", sel.cols_comp[0], sel.cols[-1]), None),
        (("face", sel.rows_comp[0], old_row), dense(jac.dBigOmega_dS)),
    )
    for swap, conjugate in swaps:
        want = iv.basis_change_factor(M, sel, swap, conjugate=conjugate)
        got = iv.basis_change_factor(M * 1e120, big, swap, conjugate=conjugate)
        for name in ("factor_det", "factor_form", "coefficient"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12), name


def test_basis_change_rejects_bad_swaps(join_complex, join_metric):
    M = jb.assemble_domega_dL(join_complex, join_metric)
    sel = jb.rank_and_submatrix(M.copy())
    with pytest.raises(SelectionError):
        iv.basis_change_factor(M, sel, ("edge", sel.cols[0], sel.cols[1]))
    with pytest.raises(SelectionError):
        iv.basis_change_factor(M, sel, ("face", sel.rows_comp[0], sel.rows[0]))


# ---------------------------------------------------------- stellar ladder

def test_stellar_ladder_rank_and_move_invariance(stellar_ladder):
    for cells, (c, coords) in sorted(stellar_ladder.items()):
        assert c.is_closed and c.orientation_consistent
        assert c.euler_characteristic() == 2
        M = jb.assemble_domega_dL(c, fm.realize(c, coords))
        expected = len(c.faces[1]) - 4 * len(c.vertices) + 10
        assert jb.rank_and_submatrix(M).rank == expected, cells

    c, coords = stellar_ladder[166]
    # triangles in exactly three simplices
    counts = np.bincount(c.simplex_faces.ravel(), minlength=len(c.faces[2]))
    triangles = [t for t, n in zip(c.faces[2], counts) if n == 3][:3]
    assert len(triangles) == 3
    for tri in triangles:
        assert iv.compare_under_move(c, coords, tri).deviation <= 1e-8


def test_invariant_survives_volume_product_underflow(stellar_ladder):
    c, coords = stellar_ladder[166]
    rep = iv.full_invariant(c, fm.realize(c, coords))
    # the plain product of 166 volumes underflows to 0; its log does not
    assert math.isfinite(rep.log_abs_prod_V) and rep.log_abs_prod_V < math.log(5e-324)
    assert math.isfinite(rep.log_abs_value) and rep.sign in (-1, 1)
    det_sign, log_det = rep.selection.slogdet()
    assert rep.sign == det_sign * rep.sign_prod_V
    assert rep.log_abs_value == pytest.approx(
        rep.log_abs_prod_S - log_det - rep.log_abs_prod_V, rel=1e-12
    )
