"""Derivative matrices, their symmetry properties and the submatrix selection."""
import decimal
import math
from fractions import Fraction

import numpy as np
import pytest

from pachner33 import complexes as cx
from pachner33 import flatmetric as fm
from pachner33 import geometry as g
from pachner33 import identities as idn
from pachner33 import jacobians as jb
from pachner33.errors import SelectionError

UNIT_L = np.ones((5, 5)) - np.eye(5)


def dS_dL_simplex(L):
    """(10, 10) face-area derivatives of one squared-length table."""
    return g.dS_dL_blocks(g.validate_length_table(L, size=5)[None])[0]


def domega_dS_reference(c, m):
    """dOmega_dS as assembled before build_jacobians took one block batch.

    Its own angle and area blocks, solved per simplex and scattered; kept
    as a bitwise reference.
    """
    tables = jb.length_tables(m.L, c.simplex_edges)
    D, A = jb.dtheta_dL_blocks(tables, m.eps), g.dS_dL_blocks(tables)
    blocks = np.swapaxes(np.linalg.solve(np.swapaxes(A, 1, 2), np.swapaxes(D, 1, 2)), 1, 2)
    rows = c.simplex_faces
    M = np.zeros((len(c.faces[2]), len(c.faces[2])))
    np.add.at(M, (rows[:, :, None], rows[:, None, :]), -blocks)
    return M


def dBigOmega_dS_reference(c, m):
    """dBigOmega_dS as assembled before: fresh dS/dL weights times domega_dS_reference."""
    rows, cols = c.simplex_faces, c.simplex_edges
    P = np.zeros((len(c.faces[1]), len(c.faces[2])))
    P[cols[:, None, :], rows[:, :, None]] = g.dS_dL_blocks(jb.length_tables(m.L, cols))
    return P @ domega_dS_reference(c, m)


def random_simplex(seed, quality=1e-3):
    rng = np.random.default_rng(seed)
    while True:
        pts = rng.standard_normal((5, 4))
        L = g.squared_length_table(pts)
        if abs(g.signed_volume4(pts)) >= quality * g.mean_edge_length(L) ** 4:
            return pts


# ------------------------------------------------------------- dS/dL

def test_dS_dL_regular_entries():
    M = dS_dL_simplex(UNIT_L)
    expected = 1.0 / (4.0 * math.sqrt(3.0))
    for fi, face in enumerate(g.FACES5):
        for ei, edge in enumerate(g.EDGES5):
            if edge[0] in face and edge[1] in face:
                assert M[fi, ei] == pytest.approx(expected, rel=1e-12)
            else:
                assert M[fi, ei] == 0.0


def test_dS_dL_row_sums_give_areas():
    pts = random_simplex(2)
    L = g.squared_length_table(pts)
    M = dS_dL_simplex(L)
    Lvec = np.array([L[e] for e in g.EDGES5])
    for fi, face in enumerate(g.FACES5):
        assert M[fi] @ Lvec == pytest.approx(g.face_area(L, face), rel=1e-10)


# ------------------------------------------------------------- dtheta/dL

def test_dtheta_dL_opposite_pairs_match_closed_form():
    pts = random_simplex(5)
    V = g.signed_volume4(pts)
    eps = 1 if V > 0 else -1
    L = g.squared_length_table(pts)
    D = jb.dtheta_dL_simplex(L, eps)
    for fi, face in enumerate(g.FACES5):
        x, y = [v for v in range(5) if v not in face]
        ei = g.EDGE_INDEX5[(x, y)]
        S = g.face_area(L, face)
        assert D[fi, ei] == pytest.approx(S / (24.0 * V), rel=1e-6)


def test_dtheta_dL_columns_satisfy_area_weighted_identity():
    pts = random_simplex(6)
    L = g.squared_length_table(pts)
    D = jb.dtheta_dL_simplex(L, +1)
    areas = np.array([g.face_area(L, f) for f in g.FACES5])
    col_residual = np.abs(areas @ D)
    scale = np.abs(D).max() * areas.max()
    assert col_residual.max() <= 1e-6 * scale


def test_dtheta_dL_sign_flip():
    pts = random_simplex(7)
    L = g.squared_length_table(pts)
    assert np.allclose(
        jb.dtheta_dL_simplex(L, -1), -jb.dtheta_dL_simplex(L, +1), rtol=0, atol=1e-12
    )


def test_dtheta_dL_degenerate_stencil_raises():
    # nearly flat simplex: |V| is below the degeneracy threshold, so the
    # closed form refuses it instead of returning huge or NaN entries
    pts = np.vstack([np.zeros(4), np.eye(4)])
    pts[4] = 0.25 * (pts[0] + pts[1] + pts[2] + pts[3])
    pts[4][3] += 1e-12
    L = g.squared_length_table(pts)
    with pytest.raises(Exception) as exc_info:
        jb.dtheta_dL_simplex(L, +1)
    from pachner33.errors import DegenerateSimplexError, NonRealizableLengthsError

    assert isinstance(
        exc_info.value, (DegenerateSimplexError, NonRealizableLengthsError)
    )


def test_dtheta_dL_closed_form_matches_fd_oracle():
    for seed in range(50):
        pts = random_simplex(100 + seed)
        eps = 1 if g.signed_volume4(pts) > 0 else -1
        L = g.squared_length_table(pts)
        D = jb.dtheta_dL_simplex(L, eps)
        oracle = idn.fd_dtheta_dL(L, eps)
        assert np.abs(D - oracle).max() <= 1e-8 * np.abs(oracle).max()


def exact_precision_dtheta_dL(L, eps):
    """The closed form from an exact rational inverse and 40-digit decimals."""
    G = [
        [(Fraction(L[0, p]) + Fraction(L[0, q]) - Fraction(L[p, q])) / 2 for q in range(1, 5)]
        for p in range(1, 5)
    ]
    A = [row + [Fraction(int(i == j)) for j in range(4)] for i, row in enumerate(G)]
    for k in range(4):
        A[k] = [a / A[k][k] for a in A[k]]
        for r in range(4):
            if r != k:
                A[r] = [a - A[r][k] * b for a, b in zip(A[r], A[k])]
    inv = [row[4:] for row in A]
    col = [-sum(inv[p][q] for p in range(4)) for q in range(4)]
    P = [[-sum(col)] + col] + [[col[p]] + inv[p] for p in range(4)]
    out = np.zeros((10, 10))
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        P = [[decimal.Decimal(x.numerator) / x.denominator for x in row] for row in P]
        for f, (x, y) in enumerate(g.OPPOSITE5):
            norm = (P[x][x] * P[y][y]).sqrt()
            cos = -P[x][y] / norm
            for e, (i, j) in enumerate(g.EDGES5):
                dcos = -(P[x][i] * P[j][y] + P[x][j] * P[i][y]) / (2 * norm) - cos / 2 * (
                    P[x][i] * P[x][j] / P[x][x] + P[y][i] * P[y][j] / P[y][y]
                )
                out[f, e] = float(-eps * dcos / (1 - cos * cos).sqrt())
    return out


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="no extended precision on this platform",
)
def test_dtheta_dL_thin_simplices_lose_no_more_than_rounding():
    # one vertex close to the opposite facet: |V| / mean_edge^4 ~ 1e-6..1e-5,
    # where a float64 inverse of the Cayley-Menger matrix loses ~1e-10
    rng = np.random.default_rng(5)
    for _ in range(6):
        pts = rng.standard_normal((5, 4))
        normal = np.linalg.svd(pts[1:4] - pts[0])[2][-1]
        pts[4] = rng.dirichlet(np.full(4, 3.0)) @ pts[:4] + 1e-3 * normal
        L = g.squared_length_table(pts)
        eps = 1 if g.signed_volume4(pts) > 0 else -1
        ref = exact_precision_dtheta_dL(L, eps)
        assert np.abs(jb.dtheta_dL_simplex(L, eps) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_dtheta_dL_blocks_stack_single_simplex_blocks():
    tables, signs = [], []
    for seed in range(4):
        pts = random_simplex(200 + seed)
        tables.append(g.squared_length_table(pts))
        signs.append(1 if g.signed_volume4(pts) > 0 else -1)
    batch = jb.dtheta_dL_blocks(np.stack(tables), signs)
    for D, L, eps in zip(batch, tables, signs):
        assert np.array_equal(D, jb.dtheta_dL_simplex(L, eps))


# ------------------------------------------------------ global assemblies

def test_domega_dL_rank_one_on_delta5(delta5, delta5_metric):
    M = jb.assemble_domega_dL(delta5, delta5_metric)
    assert M.shape == (20, 15)
    sel = jb.rank_and_submatrix(M)
    assert sel.rank == 1


def test_domega_dL_kernel_contains_vertex_motions(
    delta5, delta5_coords, delta5_metric, motion_dL
):
    M = jb.assemble_domega_dL(delta5, delta5_metric)
    rng = np.random.default_rng(9)
    for _ in range(5):
        delta = {v: rng.standard_normal(4) for v in delta5.vertices}
        dL = motion_dL(delta5, delta5_coords, delta)
        residual = np.abs(M @ dL).max()
        assert residual <= 1e-6 * np.linalg.norm(dL) * np.abs(M).max()


def test_domega_dL_rank_stability(delta5, delta5_coords, delta5_metric):
    M = jb.assemble_domega_dL(delta5, delta5_metric)
    rng = np.random.default_rng(3)
    perm_r = rng.permutation(M.shape[0])
    perm_c = rng.permutation(M.shape[1])
    assert jb.rank_and_submatrix(M[np.ix_(perm_r, perm_c)]).rank == 1
    scaled = fm.realize(delta5, {v: 2.0 * p for v, p in delta5_coords.items()})
    M2 = jb.assemble_domega_dL(delta5, scaled)
    assert jb.rank_and_submatrix(M2).rank == 1


def test_domega_dS_symmetric_on_fixtures(delta5, delta5_metric, join_complex, join_metric):
    for c, m in ((delta5, delta5_metric), (join_complex, join_metric)):
        M = jb.build_jacobians(c, m).dOmega_dS
        assert np.abs(M - M.T).max() <= 1e-6 * np.abs(M).max()


def test_build_jacobians_computes_the_angle_blocks_once(monkeypatch, join_complex, join_metric):
    # one dtheta/dL and one dS/dL batch over the N cells, and nothing else
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append((name, len(args[0])))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(jb, "dtheta_dL_blocks", counted("dtheta", jb.dtheta_dL_blocks))
    monkeypatch.setattr(g, "dS_dL_blocks", counted("dS", g.dS_dL_blocks))
    jb.build_jacobians(join_complex, join_metric)
    N = len(join_complex.simplices)
    assert calls == [("dtheta", N), ("dS", N)]


def test_build_jacobians_matches_the_separate_assemblies(
    delta5, delta5_metric, join_complex, join_metric, stellar_ladder
):
    cases = [(delta5, delta5_metric), (join_complex, join_metric)]
    cases += [(c, fm.realize(c, coords)) for n, (c, coords) in stellar_ladder.items() if n <= 86]
    for c, m in cases:
        jac = jb.build_jacobians(c, m)
        # sharing the block batch changes no bit of any matrix
        assert jac.dOmega_dL.tobytes() == jb.assemble_domega_dL(c, m).tobytes()
        assert jac.dOmega_dS.tobytes() == domega_dS_reference(c, m).tobytes()
        assert jac.dBigOmega_dS.tobytes() == dBigOmega_dS_reference(c, m).tobytes()


def test_domega_dS_zero_without_common_simplex(join_complex, join_metric):
    M = jb.build_jacobians(join_complex, join_metric).dOmega_dS
    # triangle pairs that share a simplex, from the per-simplex face rows
    shared = {(a, b) for row in join_complex.simplex_faces.tolist() for a in row for b in row}
    pairs_checked = 0
    for a in range(len(join_complex.faces[2])):
        for b in range(len(join_complex.faces[2])):
            if (a, b) in shared:
                continue
            assert M[a, b] == 0.0
            pairs_checked += 1
            if pairs_checked > 50:
                return
    assert pairs_checked > 0


def test_single_simplex_angle_area_matrix_symmetric():
    pts = random_simplex(11)
    L = g.squared_length_table(pts)
    eps = 1 if g.signed_volume4(pts) > 0 else -1
    tables = g.validate_length_table(L, size=5)[None]
    X = jb.domega_dS_blocks(jb.dtheta_dL_blocks(tables, [eps]), g.dS_dL_blocks(tables))[0]
    assert np.abs(X - X.T).max() <= 1e-6 * np.abs(X).max()


def test_conjugacy_on_fixtures(delta5, delta5_metric, join_complex, join_metric):
    for c, m in ((delta5, delta5_metric), (join_complex, join_metric)):
        jac = jb.build_jacobians(c, m)
        assert jac.conjugacy_residual() <= 1e-6


def test_dBigOmega_structural_zeros(join_complex, join_metric):
    T = jb.build_jacobians(join_complex, join_metric).dBigOmega_dS
    # (edge, triangle) pairs that share a simplex, from the per-simplex index rows
    shared = {
        (e, f)
        for edges, faces in zip(join_complex.simplex_edges.tolist(),
                                join_complex.simplex_faces.tolist())
        for e in edges
        for f in faces
    }
    checked = 0
    for edge in range(len(join_complex.faces[1])):
        for face in range(len(join_complex.faces[2])):
            if (edge, face) in shared:
                continue
            assert T[edge, face] == 0.0
            checked += 1
            if checked > 50:
                return
    assert checked > 0


def test_conjugacy_on_moved_join(join_complex, join_coords):
    moved, _ = cx.pachner_33(join_complex, (0, 1, 2))
    m2 = fm.realize(moved, join_coords)
    jac = jb.build_jacobians(moved, m2)
    assert jac.symmetry_residual() <= 1e-6
    assert jac.conjugacy_residual() <= 1e-6


# --------------------------------------------------------- rank/selection

def test_selection_on_delta5_forcing_each_triangle(delta5, delta5_metric):
    M = jb.assemble_domega_dL(delta5, delta5_metric)
    for tri in ((0, 1, 2), (1, 3, 5), (2, 4, 5)):
        row = delta5.face_index[2][tri]
        sel = jb.rank_and_submatrix(M, must_include_row=row)
        assert sel.rank == 1
        assert sel.rows == (row,)
        assert sel.pivots == pytest.approx((M[row, sel.cols[0]],))


def test_selection_zero_matrix():
    sel = jb.rank_and_submatrix(np.zeros((4, 6)))
    assert sel.rank == 0
    assert sel.rows == () and sel.cols == ()
    assert sel.pivots == ()
    assert sel.slogdet() == (1, 0.0)  # the empty product


def test_selection_threshold_semantics():
    sel = jb.rank_and_submatrix(np.diag([5.0, 1e-20]), tol=1e-9)
    assert sel.rank == 1
    assert sel.pivots == pytest.approx((5.0,))


def test_selection_zero_forced_row_raises():
    M = np.zeros((3, 3))
    M[1, 1] = 2.0
    with pytest.raises(SelectionError, match="zero"):
        jb.rank_and_submatrix(M, must_include_row=0)


@pytest.mark.parametrize("row", [-1, 2.7, 3])
def test_selection_rejects_a_forced_row_outside_the_matrix(row):
    # -1 would wrap to the last row, 2.7 truncate to 2 and 3 index past the end
    M = np.arange(1.0, 7.0).reshape(3, 2)
    with pytest.raises(SelectionError, match="not a row index"):
        jb.rank_and_submatrix(M, must_include_row=row)


def test_selection_det_matches_numpy_det(join_complex, join_metric):
    M = jb.assemble_domega_dL(join_complex, join_metric)
    sel = jb.rank_and_submatrix(M)
    block = M[np.ix_(sel.rows, sel.cols)]
    det_sign, log_abs_det = np.linalg.slogdet(block)
    # rel 1e-9 on det(B) is abs 1e-9 on log|det(B)|
    assert sel.slogdet() == (det_sign, pytest.approx(log_abs_det, abs=1e-9))


def test_selection_complements_partition(join_complex, join_metric):
    M = jb.assemble_domega_dL(join_complex, join_metric)
    sel = jb.rank_and_submatrix(M)
    assert sorted(sel.rows + sel.rows_comp) == list(range(M.shape[0]))
    assert sorted(sel.cols + sel.cols_comp) == list(range(M.shape[1]))
    assert len(sel.rows) == sel.rank
    assert len(sel.cols_comp) == M.shape[1] - sel.rank


def test_join_and_bipyramid_ranks(join_complex, join_metric, bipyramid):
    # edges minus motion-quotient placement freedoms: 21 - 18 and 20 - 18
    Mj = jb.assemble_domega_dL(join_complex, join_metric)
    assert jb.rank_and_submatrix(Mj).rank == 3
    mb = fm.realize(bipyramid, fm.random_realization(bipyramid, seed=3))
    Mb = jb.assemble_domega_dL(bipyramid, mb)
    assert jb.rank_and_submatrix(Mb).rank == 2


# ------------------------------------------- selection against the dense loop

def rank_and_submatrix_dense(matrix, must_include_row=None, tol=jb.PIVOT_TOL):
    """The whole-array elimination: every step updates and searches all of |work|."""
    work = np.array(matrix, dtype=float)
    n_rows, n_cols = work.shape
    global_max = float(np.abs(work).max()) if work.size else 0.0
    forced = None
    if must_include_row is not None:
        forced = int(must_include_row)
        row_max = float(np.abs(work[forced]).max()) if n_cols else 0.0
        if row_max == 0.0 or (global_max and row_max <= tol * global_max):
            raise SelectionError(f"forced row {forced} is numerically zero; it cannot pivot")
    pivots, pivot_rows, pivot_cols = [], [], []
    for _ in range(min(n_rows, n_cols)):
        if forced is not None and not pivots:
            r = forced
            c = int(np.argmax(np.abs(work[r])))
        else:
            r, c = divmod(int(np.argmax(np.abs(work))), n_cols)
        piv = work[r, c]
        if pivots and abs(piv) <= tol * global_max:
            break
        if not pivots and piv == 0.0:
            break
        pivots.append(float(piv))
        pivot_rows.append(r)
        pivot_cols.append(c)
        work -= np.outer(work[:, c] / piv, work[r])
        work[r] = 0.0
        work[:, c] = 0.0
    return {
        "rows": tuple(pivot_rows),
        "cols": tuple(pivot_cols),
        "rows_comp": tuple(i for i in range(n_rows) if i not in pivot_rows),
        "cols_comp": tuple(j for j in range(n_cols) if j not in pivot_cols),
        "pivots": np.array(pivots, dtype=float).tobytes(),
    }


def _selection_bits(sel):
    return {
        "rows": sel.rows,
        "cols": sel.cols,
        "rows_comp": sel.rows_comp,
        "cols_comp": sel.cols_comp,
        "pivots": np.array(sel.pivots, dtype=float).tobytes(),
    }


def _assert_same_selection(M, must_include_row=None):
    try:
        expected = rank_and_submatrix_dense(M, must_include_row)
    except SelectionError:
        with pytest.raises(SelectionError, match="numerically zero"):
            jb.rank_and_submatrix(M, must_include_row)
        return
    assert _selection_bits(jb.rank_and_submatrix(M, must_include_row)) == expected


def test_selection_matches_dense_loop_on_the_stellar_ladder(stellar_ladder):
    for cells, (c, coords) in sorted(stellar_ladder.items()):
        M = jb.assemble_domega_dL(c, fm.realize(c, coords))
        _assert_same_selection(M)
        for row in (0, len(M) // 2, len(M) - 1):
            assert np.any(M[row]), cells
            _assert_same_selection(M, must_include_row=row)


def test_selection_matches_dense_loop_on_fixtures(delta5, delta5_metric, join_complex, join_metric):
    for c, m in ((delta5, delta5_metric), (join_complex, join_metric)):
        M = jb.assemble_domega_dL(c, m)
        _assert_same_selection(M)
        for row in (0, len(M) // 2, len(M) - 1):
            _assert_same_selection(M, must_include_row=row)


@pytest.mark.parametrize("shape", [(4, 6), (5, 0), (0, 7)])
def test_selection_matches_dense_loop_on_empty_and_zero(shape):
    _assert_same_selection(np.zeros(shape))


def test_selection_matches_dense_loop_on_small_integer_matrices():
    # Entries in -2..2 give exact ties among |entries| and exact cancellations;
    # masked and low-rank products give sparse and rank-deficient matrices.
    rng = np.random.default_rng(73)
    for trial in range(400):
        n_rows, n_cols = (int(k) for k in rng.integers(1, 8, size=2))
        M = rng.integers(-2, 3, size=(n_rows, n_cols)).astype(float)
        if trial % 4 == 1:
            M *= rng.random((n_rows, n_cols)) < 0.3
        elif trial % 4 == 2:
            k = int(rng.integers(1, min(n_rows, n_cols) + 1))
            M = rng.integers(-2, 3, size=(n_rows, k)) @ rng.integers(-2, 3, size=(k, n_cols))
            M = M.astype(float)
        elif trial % 4 == 3:
            M[rng.integers(n_rows)] = M[rng.integers(n_rows)]
        _assert_same_selection(M)
        for row in range(n_rows):
            _assert_same_selection(M, must_include_row=row)
