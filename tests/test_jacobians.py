"""Derivative matrices, their symmetry properties and the submatrix selection."""
import decimal
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pachner33 import complexes as cx
from pachner33 import flatmetric as fm
from pachner33 import geometry as g
from pachner33 import identities as idn
from pachner33 import jacobians as jb
from pachner33.errors import DegenerateSimplexError, SelectionError
from pachner33.io import load_fixture

from conftest import (
    LADDER_RUNGS,
    area_length_weights,
    assert_same_selection,
    conjugacy_residual_dense,
    count_empty_like,
    dense,
    face_area,
    rank_and_submatrix_dense,
    selection_bits,
    symmetry_residual_dense,
)

UNIT_L = np.ones((5, 5)) - np.eye(5)


def dS_dL_simplex(L):
    """(10, 10) face-area derivatives of one squared-length table."""
    return g.dS_dL_blocks(g.validate_length_table(L, size=5)[None])[0]


def dtheta_dL_simplex(L, eps):
    """(10, 10) signed dihedral-angle derivatives of one squared-length table."""
    return jb.dtheta_dL_blocks(g.validate_length_table(L, size=5)[None], [eps])[0]


def normal_gram_rowwise(L):
    """The facet-normal Gram with the row-by-row Gauss-Jordan update, kept as a reference."""
    L = np.asarray(L, dtype=np.longdouble)
    A = 0.5 * (L[:, 0, 1:, None] + L[:, 0, None, 1:] - L[:, 1:, 1:])
    inv = np.broadcast_to(np.eye(4, dtype=np.longdouble), A.shape).copy()
    det = np.ones(len(L), dtype=np.longdouble)
    for k in range(4):
        piv = A[:, k, k].copy()
        if not np.all(piv > 0.0):
            bad = int(np.flatnonzero(~(piv > 0.0))[0])
            raise DegenerateSimplexError(
                f"simplex {bad} of the batch has no nondegenerate Euclidean realization"
            )
        det *= piv
        A[:, k] /= piv[:, None]
        inv[:, k] /= piv[:, None]
        for r in range(4):
            if r != k:
                f = A[:, r, k, None].copy()
                A[:, r] -= f * A[:, k]
                inv[:, r] -= f * inv[:, k]
    mean_edge = np.sqrt(np.maximum(L[:, g.EDGE_I, g.EDGE_J], 0.0)).mean(axis=1)
    floor = g.DEGENERACY_REL * mean_edge**4
    bad = np.flatnonzero(~(det / 576.0 > floor * floor))
    if bad.size:
        raise DegenerateSimplexError(
            f"simplex {int(bad[0])} of the batch is degenerate "
            f"(|V| below {g.DEGENERACY_REL:g} mean_edge^4)"
        )
    P = np.empty((len(L), 5, 5), dtype=np.longdouble)
    P[:, 1:, 1:] = inv
    P[:, 0, 1:] = P[:, 1:, 0] = -inv.sum(axis=1)
    P[:, 0, 0] = inv.sum(axis=(1, 2))
    return P


def normal_gram_full_width(L):
    """The facet-normal Gram with every Gauss-Jordan step over all eight columns of
    [G | I], kept as the bitwise reference of the steps over a column window."""
    L = np.asarray(L, dtype=np.longdouble)
    A = np.empty((len(L), 4, 8), dtype=np.longdouble)
    A[:, :, :4] = 0.5 * (L[:, 0, 1:, None] + L[:, 0, None, 1:] - L[:, 1:, 1:])
    A[:, :, 4:] = np.eye(4)
    det = np.ones(len(L), dtype=np.longdouble)
    for k in range(4):
        piv = A[:, k, k].copy()
        if not np.all(piv > 0.0):
            bad = int(np.flatnonzero(~(piv > 0.0))[0])
            raise DegenerateSimplexError(
                f"simplex {bad} of the batch has no nondegenerate Euclidean realization"
            )
        det *= piv
        A[:, k] /= piv[:, None]
        others = np.array([r for r in range(4) if r != k])
        A[:, others] -= A[:, others, k, None] * A[:, k, None]
    mean_edge = np.sqrt(np.maximum(L[:, g.EDGE_I, g.EDGE_J], 0.0)).mean(axis=1)
    floor = g.DEGENERACY_REL * mean_edge**4
    bad = np.flatnonzero(~(det / 576.0 > floor * floor))
    if bad.size:
        raise DegenerateSimplexError(
            f"simplex {int(bad[0])} of the batch is degenerate "
            f"(|V| below {g.DEGENERACY_REL:g} mean_edge^4)"
        )
    inv = np.ascontiguousarray(A[:, :, 4:])
    P = np.empty((len(L), 5, 5), dtype=np.longdouble)
    P[:, 1:, 1:] = inv
    P[:, 0, 1:] = P[:, 1:, 0] = -inv.sum(axis=1)
    P[:, 0, 0] = inv.sum(axis=(1, 2))
    return P


def value_bytes(a):
    """The bytes of an array's values, C order.  Of an x87 extended longdouble
    these are the first 10 of each item's bytes; the rest is padding, which
    arithmetic leaves undefined."""
    a = np.ascontiguousarray(a)
    if a.dtype == np.longdouble and np.finfo(np.longdouble).nmant == 63 and a.itemsize > 10:
        return a.view(np.uint8).reshape(-1, a.itemsize)[:, :10].tobytes()
    return a.tobytes()


def face_gather(P, faces):
    """take(a, b) of the Gram matrices P, and the vertices x, y opposite the faces.

    faces None evaluates all ten faces of every table: x and y are (10, 1)
    and take gathers by the slice P[:, a, b], giving (N, 10, k) arrays.  A
    list of FACES5 rows evaluates them one (table, face) pair at a time, in
    table-major order: x and y are (N * len(faces), 1) and take gathers
    P[n, a, b] at the table n of each pair, giving (N * len(faces), k) arrays.
    """
    if faces is None:
        return (lambda a, b: P[:, a, b]), g.OPP_X[:, None], g.OPP_Y[:, None]
    n = np.repeat(np.arange(len(P)), len(faces))[:, None]
    faces = np.tile(np.asarray(faces, dtype=int), len(P))
    return (lambda a, b: P[n, a, b]), g.OPP_X[faces, None], g.OPP_Y[faces, None]


def gram_angles_reference(P, faces=None):
    """The angles in the layout of the gathers, kept as the value reference of
    jb._gram_angles, which gathers by slices only and returns them C-ordered."""
    take, x, y = face_gather(P, faces)
    Pxy = take(x, y)
    wedge = np.sqrt(np.maximum(take(x, x) * take(y, y) - Pxy * Pxy, 0.0))
    theta = np.arctan2(wedge, -Pxy)[..., 0].astype(float)
    return theta if faces is None else theta.reshape(len(P), len(faces))


def gram_dtheta_dL_reference(P, eps, faces=None):
    """The derivative formula term by term, kept as the bitwise reference of
    jb._gram_dtheta_dL, which folds its halvings and sign flips, runs in place
    and gathers by slices only."""
    take, x, y = face_gather(P, faces)
    i, j = g.EDGE_I, g.EDGE_J
    Pxx, Pyy = take(x, x), take(y, y)
    norm = np.sqrt(Pxx * Pyy)
    cos = -take(x, y) / norm
    dPxy = 0.5 * (take(x, i) * take(j, y) + take(x, j) * take(i, y))
    dcos = -dPxy / norm - 0.5 * cos * (
        take(x, i) * take(x, j) / Pxx + take(y, i) * take(y, j) / Pyy
    )
    eps = np.asarray(eps, dtype=float).reshape(-1)
    if faces is not None:
        eps = np.repeat(eps, len(faces))
    eps = eps.reshape((-1,) + (1,) * (dcos.ndim - 1))
    D = -eps * dcos / np.sqrt(1.0 - cos * cos)
    if not np.all(np.isfinite(D)):
        raise DegenerateSimplexError("dihedral-angle derivatives are not finite")
    D = D.astype(float)
    return D if faces is None else D.reshape(len(P), len(faces), 10)


def scatter_blocks_add_at(shape, rows, cols, blocks):
    """np.add.at of the block stack into zeros, kept as the reference of the bincount scatter."""
    M = np.zeros(shape)
    np.add.at(M, (rows[:, :, None], cols[:, None, :]), blocks)
    return M


def use_reference_routes(patched, normal_gram=normal_gram_rowwise):
    """Swap in a reference Gram (row by row unless given), the angles in the
    gathers' layout, the term-by-term kernel and the add.at scatter."""
    patched.setattr(jb, "_normal_gram", normal_gram)
    patched.setattr(jb, "_gram_angles", gram_angles_reference)
    patched.setattr(jb, "_gram_dtheta_dL", gram_dtheta_dL_reference)
    patched.setattr(jb, "scatter_blocks", scatter_blocks_add_at)


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
    """dBigOmega_dS as a dense product: the (edges x triangles) dS/dL weights
    times domega_dS_reference, and the same product of the magnitudes, which
    bounds its rounding."""
    W, X = area_length_weights(c, m), domega_dS_reference(c, m)
    return W @ X, np.abs(W) @ np.abs(X)


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
        assert M[fi] @ Lvec == pytest.approx(face_area(L, face), rel=1e-10)


# ------------------------------------------------------------- dtheta/dL

def test_dtheta_dL_opposite_pairs_match_closed_form():
    pts = random_simplex(5)
    V = g.signed_volume4(pts)
    eps = 1 if V > 0 else -1
    L = g.squared_length_table(pts)
    D = dtheta_dL_simplex(L, eps)
    for fi, face in enumerate(g.FACES5):
        x, y = [v for v in range(5) if v not in face]
        ei = g.EDGE_INDEX5[(x, y)]
        S = face_area(L, face)
        assert D[fi, ei] == pytest.approx(S / (24.0 * V), rel=1e-6)


def test_dtheta_dL_columns_satisfy_area_weighted_identity():
    pts = random_simplex(6)
    L = g.squared_length_table(pts)
    D = dtheta_dL_simplex(L, +1)
    areas = np.array([face_area(L, f) for f in g.FACES5])
    col_residual = np.abs(areas @ D)
    scale = np.abs(D).max() * areas.max()
    assert col_residual.max() <= 1e-6 * scale


def test_dtheta_dL_sign_flip():
    pts = random_simplex(7)
    L = g.squared_length_table(pts)
    assert np.allclose(
        dtheta_dL_simplex(L, -1), -dtheta_dL_simplex(L, +1), rtol=0, atol=1e-12
    )


def test_dtheta_dL_degenerate_stencil_raises():
    # nearly flat simplex: |V| is below the degeneracy threshold, so the
    # closed form refuses it instead of returning huge or NaN entries
    pts = np.vstack([np.zeros(4), np.eye(4)])
    pts[4] = 0.25 * (pts[0] + pts[1] + pts[2] + pts[3])
    pts[4][3] += 1e-12
    L = g.squared_length_table(pts)
    with pytest.raises(Exception) as exc_info:
        dtheta_dL_simplex(L, +1)
    from pachner33.errors import NonRealizableLengthsError

    assert isinstance(
        exc_info.value, (DegenerateSimplexError, NonRealizableLengthsError)
    )


def test_dtheta_dL_closed_form_matches_fd_oracle():
    for seed in range(50):
        pts = random_simplex(100 + seed)
        eps = 1 if g.signed_volume4(pts) > 0 else -1
        L = g.squared_length_table(pts)
        D = dtheta_dL_simplex(L, eps)
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


def thin_tables():
    """Six thin simplices and their signs: one vertex close to the opposite
    facet, |V| / mean_edge^4 ~ 1e-6..1e-5."""
    rng = np.random.default_rng(5)
    tables, signs = [], []
    for _ in range(6):
        pts = rng.standard_normal((5, 4))
        normal = np.linalg.svd(pts[1:4] - pts[0])[2][-1]
        pts[4] = rng.dirichlet(np.full(4, 3.0)) @ pts[:4] + 1e-3 * normal
        tables.append(g.squared_length_table(pts))
        signs.append(1 if g.signed_volume4(pts) > 0 else -1)
    return np.stack(tables), signs


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="no extended precision on this platform",
)
def test_dtheta_dL_thin_simplices_lose_no_more_than_rounding():
    # thin simplices, where a float64 inverse of the Cayley-Menger matrix loses ~1e-10
    for L, eps in zip(*thin_tables()):
        ref = exact_precision_dtheta_dL(L, eps)
        assert np.abs(dtheta_dL_simplex(L, eps) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_dtheta_dL_blocks_stack_single_simplex_blocks():
    tables, signs = [], []
    for seed in range(4):
        pts = random_simplex(200 + seed)
        tables.append(g.squared_length_table(pts))
        signs.append(1 if g.signed_volume4(pts) > 0 else -1)
    batch = jb.dtheta_dL_blocks(np.stack(tables), signs)
    for D, L, eps in zip(batch, tables, signs):
        assert np.array_equal(D, dtheta_dL_simplex(L, eps))


def test_face_angle_rows_are_rows_of_the_blocks(stellar_ladder):
    c, coords = stellar_ladder[86]
    m = fm.realize(c, coords)
    tables = jb.length_tables(m.L, c.simplex_edges)
    angles, blocks = jb.dihedral_angles_batch(tables), jb.dtheta_dL_blocks(tables, m.eps)
    # all ten faces, the cluster's two central ones, one, a repeated one, none
    for faces in (range(10), [0, 9], [6], [3, 8, 3], []):
        theta, rows = jb.face_angle_rows(tables, m.eps, faces)
        assert theta.shape == (len(tables), len(faces)) and rows.shape == theta.shape + (10,)
        assert theta.tobytes() == angles[:, list(faces)].tobytes()
        assert rows.tobytes() == blocks[:, list(faces)].tobytes()
    theta, rows = jb.face_angle_rows(tables[:0], m.eps[:0], [0, 9])
    assert theta.shape == (0, 2) and rows.shape == (0, 2, 10)


def test_normal_gram_broadcast_step_is_the_rowwise_elimination(
    monkeypatch, delta5, delta5_metric, join_complex, join_metric, stellar_ladder
):
    cases = [(delta5, delta5_metric), (join_complex, join_metric)]
    cases += [(c, fm.realize(c, coords)) for c, coords in stellar_ladder.values()]
    for c, m in cases:
        tables = jb.length_tables(m.L, c.simplex_edges)
        # longdouble padding bytes are not part of the value: compare values, not bytes
        assert np.array_equal(jb._normal_gram(tables), normal_gram_rowwise(tables))
        blocks = jb.dtheta_dL_blocks(tables, m.eps)
        with monkeypatch.context() as patched:
            patched.setattr(jb, "_normal_gram", normal_gram_rowwise)
            assert np.array_equal(blocks, jb.dtheta_dL_blocks(tables, m.eps))


def kernel_outputs(tables, eps):
    """Every output of the angle kernel on one stack, as bytes."""
    faces = np.random.default_rng(len(tables)).integers(0, 10, 4)
    out = [jb.dtheta_dL_blocks(tables, eps), jb.dihedral_angles_batch(tables)]
    for rows in ([0, 9], faces, []):
        out += jb.face_angle_rows(tables, eps, rows)
    return [(a.shape, a.tobytes()) for a in out]


def assembled_outputs(c, m):
    """Every matrix assembled from one metric's blocks, as bytes."""
    dtheta = jb.dtheta_dL_blocks(jb.length_tables(m.L, c.simplex_edges), m.eps)
    jac = jb.build_jacobians(c, m)
    out = [jb.assemble_domega_dL(c, m), jb.assemble_domega_dL(c, m, dtheta)]
    out += [dense(jac.dOmega_dL), dense(jac.dOmega_dS), dense(jac.dBigOmega_dS)]
    return [(a.shape, a.tobytes()) for a in out]


def test_kernel_and_assemblies_are_the_reference_routes_bitwise(
    monkeypatch, delta5, delta5_metric, join_complex, join_metric, stellar_ladder
):
    placed = [(delta5, delta5_metric), (join_complex, join_metric)]
    placed += [(c, fm.realize(c, coords)) for c, coords in stellar_ladder.values()]
    stacks = [(jb.length_tables(m.L, c.simplex_edges), m.eps) for c, m in placed]
    thin, signs = thin_tables()
    stacks.append((thin, signs))
    # signs that are not the tables' own orientation, and the empty stack
    tables, eps = stacks[2]
    stacks.append((tables, np.where(np.arange(len(eps)) % 3 == 0, eps, -eps)))
    stacks.append((thin[:0], signs[:0]))

    def outputs():
        return ([value_bytes(jb._normal_gram(tables)) for tables, _ in stacks],
                [kernel_outputs(tables, eps) for tables, eps in stacks],
                [assembled_outputs(c, m) for c, m in placed])

    got = outputs()
    for normal_gram in (normal_gram_rowwise, normal_gram_full_width):
        with monkeypatch.context() as patched:
            use_reference_routes(patched, normal_gram)
            want = outputs()
        assert got == want, normal_gram.__name__
    assert jb.dtheta_dL_blocks(thin[:0], signs[:0]).shape == (0, 10, 10)


def test_angles_are_c_ordered_and_bitwise_the_gathered_ones(stellar_ladder):
    c, coords = stellar_ladder[max(LADDER_RUNGS)]
    m = fm.realize(c, coords)
    tables = jb.length_tables(m.L, c.simplex_edges)
    P = jb._normal_gram(tables)
    theta, gathered = jb.dihedral_angles_batch(tables), gram_angles_reference(P)
    assert not gathered.flags.c_contiguous  # the gathers lay the batch axis innermost
    assert theta.flags.c_contiguous and theta.tobytes() == gathered.tobytes()
    # so the signed angles of deficit_omega ravel without a copy
    signed = -m.eps[:, None] * theta
    assert np.shares_memory(signed.ravel(), signed)
    rows = jb.face_angle_rows(tables, m.eps, [0, 9])[0]
    assert rows.flags.c_contiguous and rows.tobytes() == gram_angles_reference(P, [0, 9]).tobytes()


def traced_peak(call):
    call()  # numpy's first-call allocations are not the route's
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_and_assembly_peak_no_higher_than_the_reference_routes(
    monkeypatch, stellar_ladder
):
    # the in-place kernel frees each block-sized longdouble array early and
    # the bincount scatter forms one (N, 10, 10) key array in its place
    c, coords = stellar_ladder[max(LADDER_RUNGS)]
    m = fm.realize(c, coords)
    tables = jb.length_tables(m.L, c.simplex_edges)
    calls = {
        "dtheta_dL_blocks": lambda: jb.dtheta_dL_blocks(tables, m.eps),
        "assemble_domega_dL": lambda: jb.assemble_domega_dL(c, m),
    }
    got = {name: traced_peak(call) for name, call in calls.items()}
    with monkeypatch.context() as patched:
        use_reference_routes(patched)
        want = {name: traced_peak(call) for name, call in calls.items()}
    for name in calls:
        assert got[name] <= want[name], (name, got[name], want[name])


def test_dtheta_dL_overflowing_float64_raises_a_typed_error():
    # entries up to 4.5 / L, finite in extended precision and beyond float64
    # after the cast at L ~ 1e-308: a typed error, not +-inf blocks (or an
    # overflow warning)
    pts = np.vstack([np.zeros(4), np.eye(4)])
    pts[4] = [0.2, 0.2, 0.2, 0.2]
    tables = g.squared_length_table(pts)[None] * 1e-308
    with pytest.raises(DegenerateSimplexError, match="not finite"):
        jb.dtheta_dL_blocks(tables, [1])
    with pytest.raises(DegenerateSimplexError, match="not finite"):
        jb.face_angle_rows(tables, [1], [0])
    assert np.isfinite(jb.dihedral_angles_batch(tables)).all()


@pytest.mark.parametrize("eps", [0, 2, -0.5, math.nan])
def test_dtheta_dL_rejects_a_sign_other_than_plus_or_minus_one(eps):
    tables = np.stack([UNIT_L, UNIT_L])
    with pytest.raises(ValueError, match="signs"):
        jb.dtheta_dL_blocks(tables, [1, eps])
    with pytest.raises(ValueError, match="signs"):
        jb.face_angle_rows(tables, [eps, -1], [0, 3])


def test_normal_gram_rejects_what_the_rowwise_elimination_rejects():
    flat = np.vstack([np.zeros(4), np.eye(4)])
    flat[4] = 0.25 * (flat[0] + flat[1] + flat[2] + flat[3])
    tables = np.stack([UNIT_L, g.squared_length_table(flat), UNIT_L])
    not_euclidean = UNIT_L.copy()
    not_euclidean[0, 1] = not_euclidean[1, 0] = 10.0
    for bad in (tables, np.stack([UNIT_L, not_euclidean])):
        with pytest.raises(DegenerateSimplexError) as got:
            jb._normal_gram(bad)
        for reference in (normal_gram_rowwise, normal_gram_full_width):
            with pytest.raises(DegenerateSimplexError) as want:
                reference(bad)
            assert str(got.value) == str(want.value)


# ------------------------------------------------------ global assemblies

def test_scatter_blocks_sums_as_add_at_bitwise():
    # repeated keys within and across blocks, -0.0 terms, sums that cancel to
    # exactly 0 and empty batches: each entry starts from 0.0 and adds its
    # terms in block order under both
    rng = np.random.default_rng(17)
    cases = []
    for trial in range(60):
        shape = (int(rng.integers(0, 7)), int(rng.integers(1, 7)))
        N = int(rng.integers(0, 5)) if shape[0] else 0
        rows = rng.integers(0, max(shape[0], 1), size=(N, 10))
        cols = rng.integers(0, shape[1], size=(N, 10))
        blocks = rng.standard_normal((N, 10, 10)) * 10.0 ** rng.integers(-8, 9, (N, 10, 10))
        blocks[rng.random((N, 10, 10)) < 0.2] = -0.0
        cases.append((shape, rows, cols, blocks))
    # a block and its negative at the same distinct keys: every sum is exactly 0
    rows, cols = np.arange(10)[None], np.arange(10)[None]
    block = rng.standard_normal((1, 10, 10))
    cancel = (np.repeat(rows, 2, axis=0), np.repeat(cols, 2, axis=0), np.vstack([block, -block]))
    cases.append(((12, 11),) + cancel)
    cases.append(((10, 10), rows, cols, np.full((1, 10, 10), -0.0)))
    for shape, rows, cols, blocks in cases:
        got = jb.scatter_blocks(shape, rows, cols, blocks)
        assert got.shape == shape
        assert got.tobytes() == scatter_blocks_add_at(shape, rows, cols, blocks).tobytes()
    # exact cancellation and -0.0 terms both leave +0.0, as add.at does
    for shape, rows, cols, blocks in cases[-2:]:
        got = jb.scatter_blocks(shape, rows, cols, blocks)
        assert not np.any(got) and not np.signbit(got).any()


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
        M = dense(jb.build_jacobians(c, m).dOmega_dS)
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
        # sharing the block batch changes no bit of the two scatters, and the
        # triplets rebuild them
        dOmega_dL = jb.assemble_domega_dL(c, m)
        assert dense(jac.dOmega_dL).tobytes() == dOmega_dL.tobytes()
        assert dense(jac.dOmega_dS).tobytes() == domega_dS_reference(c, m).tobytes()
        # the selection is that of the assembled matrix
        assert selection_bits(jac.selection) == selection_bits(jb.rank_and_submatrix(dOmega_dL))
        # the per-simplex (dS/dL)^T X blocks sum the dense product's terms in
        # another order: equal up to rounding of the sum of their magnitudes
        ref, magnitude = dBigOmega_dS_reference(c, m)
        assert np.all(np.abs(dense(jac.dBigOmega_dS) - ref) <= 1e-13 * magnitude)


def test_domega_dS_zero_without_common_simplex(join_complex, join_metric):
    M = dense(jb.build_jacobians(join_complex, join_metric).dOmega_dS)
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
    T = dense(jb.build_jacobians(join_complex, join_metric).dBigOmega_dS)
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


def residuals_from_triplets(dOmega_dL, dOmega_dS, dBigOmega_dS):
    """(symmetry, conjugacy) residuals of three dense matrices, their gaps
    taken by transpose_gap as build_jacobians takes them."""
    dL, dS, dBig = map(jb.Triplets.of, (dOmega_dL, dOmega_dS, dBigOmega_dS))
    jac = jb.JacobianSet(
        dL, dS, dBig, None,
        jb.transpose_gap(dOmega_dS.copy(), dS, dS),
        jb.transpose_gap(dBigOmega_dS.copy(), dBig, dL),
    )
    return jac.symmetry_residual(), jac.conjugacy_residual()


def sparse_matrix(rng, shape, density):
    M = rng.standard_normal(shape)
    M[rng.uniform(size=shape) > density] = 0.0
    return M


def test_triplet_residuals_are_the_dense_residuals_bitwise():
    # asymmetric patterns, exact cancellations, NaN and infinities on one
    # side and on both, zero matrices and a one-entry matrix: each residual
    # is the dense one bit for bit (repr tells -0.0 from 0.0; NaN is "nan")
    rng = np.random.default_rng(31)
    F, E = 9, 5
    cases = []
    for density in (0.0, 0.05, 0.3, 1.0):
        S = sparse_matrix(rng, (F, F), density)
        L = sparse_matrix(rng, (F, E), density)
        cases.append((L, S, sparse_matrix(rng, (E, F), density)))
        # symmetric S, and A equal to L^T but at a few entries
        A = L.T.copy()
        A[rng.integers(E, size=3), rng.integers(F, size=3)] = rng.standard_normal(3)
        cases += [(L, S + S.T, A), (L, S + S.T, L.T.copy()),
                  (-np.abs(L), -np.abs(S + S.T), -np.abs(L.T))]
        if density == 0.3:
            base = (L, S + S.T, A)
    for value in (np.nan, np.inf, -np.inf):
        for sides in ((0,), (1,), (0, 1)):
            L, S, A = (M.copy() for M in base)
            for side in sides:
                L[(1, 2) if side else (2, 1)] = value  # L[1, 2] is A[2, 1]'s partner
                A[(2, 1) if side else (4, 7)] = value
                S[(3, 4) if side else (4, 3)] = value
            cases.append((L, S, A))
    one = np.zeros((F, F))
    one[2, 5] = 1e-300
    cases.append((np.zeros((F, E)), one, np.zeros((E, F))))
    for L, S, A in cases:
        with np.errstate(invalid="ignore"):  # inf - inf and inf / inf give NaN
            want = (symmetry_residual_dense(S), conjugacy_residual_dense(A, L))
            got = residuals_from_triplets(L, S, A)
        assert tuple(map(repr, got)) == tuple(map(repr, want))
    # an exactly symmetric and conjugate pair reports 0.0, not -0.0
    pair = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert tuple(map(repr, residuals_from_triplets(pair, pair, pair))) == ("0.0", "0.0")


# --------------------------------------------------------- rank/selection

def test_selection_on_delta5_forcing_each_triangle(delta5, delta5_metric):
    M = jb.assemble_domega_dL(delta5, delta5_metric)
    for tri in ((0, 1, 2), (1, 3, 5), (2, 4, 5)):
        row = delta5.face_index[2][tri]
        sel = jb.rank_and_submatrix(M.copy(), must_include_row=row)
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
    # a later pivot counts only above PIVOT_TOL times the largest entry
    for small, rank in ((1e-20, 1), (2.5 * jb.PIVOT_TOL, 1), (10.0 * jb.PIVOT_TOL, 2)):
        sel = jb.rank_and_submatrix(np.diag([5.0, small]))
        assert sel.rank == rank
        assert sel.pivots == pytest.approx((5.0, small)[:rank])


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


@pytest.mark.parametrize("row", [True, False, np.True_], ids=["True", "False", "np.True_"])
def test_selection_rejects_a_bool_forced_row(row):
    # True and False would force rows 1 and 0, as np.True_ never did
    M = np.arange(1.0, 7.0).reshape(3, 2)
    with pytest.raises(SelectionError, match=f"forced row {row!r} is not a row index of a 3-row"):
        jb.rank_and_submatrix(M, must_include_row=row)


def test_selection_det_matches_numpy_det(join_complex, join_metric):
    M = jb.assemble_domega_dL(join_complex, join_metric)
    sel = jb.rank_and_submatrix(M.copy())
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


def test_selection_eliminates_a_float64_array_in_place():
    M = np.array([[1.0, 2.0, 3.0, 1.0], [2.0, 4.0, 7.0, 0.0], [1.0, 0.0, 1.0, 5.0]])
    original = M.copy()
    sel = jb.rank_and_submatrix(M)
    assert sel == jb.rank_and_submatrix(original.copy())
    assert sel.rank == 3
    # the matrix itself was eliminated: pivot rows and columns are zero
    assert not np.array_equal(M, original)
    assert not M[list(sel.rows)].any() and not M[:, list(sel.cols)].any()


def test_selection_leaves_other_inputs_unchanged():
    rows = [[1.0, 2.0, 3.0, 1.0], [2.0, 4.0, 7.0, 0.0], [1.0, 0.0, 1.0, 5.0]]
    want = jb.rank_and_submatrix(np.array(rows))
    as_list = [list(r) for r in rows]
    as_int = np.array(rows, dtype=int)
    read_only = np.array(rows)
    read_only.flags.writeable = False
    assert jb.rank_and_submatrix(as_list) == want
    assert as_list == rows
    assert jb.rank_and_submatrix(as_int) == want
    assert np.array_equal(as_int, np.array(rows, dtype=int))
    assert jb.rank_and_submatrix(read_only) == want
    assert np.array_equal(read_only, np.array(rows))


# ------------------------------------------- selection against the dense loop

def test_selection_matches_dense_loop_on_the_stellar_ladder(stellar_ladder):
    for cells, (c, coords) in sorted(stellar_ladder.items()):
        M = jb.assemble_domega_dL(c, fm.realize(c, coords))
        assert_same_selection(M)
        for row in (0, len(M) // 2, len(M) - 1):
            assert np.any(M[row]), cells
            assert_same_selection(M, must_include_row=row)


def test_selection_matches_dense_loop_on_fixtures(delta5, delta5_metric, join_complex, join_metric):
    for c, m in ((delta5, delta5_metric), (join_complex, join_metric)):
        M = jb.assemble_domega_dL(c, m)
        assert_same_selection(M)
        for row in (0, len(M) // 2, len(M) - 1):
            assert_same_selection(M, must_include_row=row)


def test_pivot_threshold_sits_in_a_wide_gap(stellar_ladder):
    # PIVOT_TOL is fixed because the rank never depends on it: eliminating
    # with a vanishing threshold, the pivots of rank E - 4V + 10 stay far
    # above it and the next one falls far below it
    placed = [(c, coords) for _, (c, coords) in sorted(stellar_ladder.items())]
    for name in ("boundary_delta5.json", "bipyramid_10cell.json", "join_tetra_triangle.json"):
        doc = load_fixture(name)
        placed.append((doc.to_complex(), doc.realization()))
    for c, coords in placed:
        M = jb.assemble_domega_dL(c, fm.realize(c, coords))
        sel = rank_and_submatrix_dense(M, tol=1e-300)
        pivots = np.abs(np.frombuffer(sel["pivots"])) / np.abs(M).max()
        rank = len(c.faces[1]) - 4 * len(c.vertices) + 10
        assert len(pivots) > rank and pivots[0] == 1.0
        assert pivots[:rank].min() >= 1e-6 and pivots[rank] <= 1e-10, len(c.simplices)
        assert jb.rank_and_submatrix(M).rank == rank


@pytest.mark.parametrize("shape", [(4, 6), (5, 0), (0, 7)])
def test_selection_matches_dense_loop_on_empty_and_zero(shape):
    assert_same_selection(np.zeros(shape))


def small_integer_matrices():
    """400 seeded matrices of at most 7 x 7 entries in -2..2.

    The entries give exact ties among |entries| and exact cancellations;
    masked and low-rank products give sparse and rank-deficient matrices.
    """
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
        yield M


def test_selection_matches_dense_loop_on_small_integer_matrices():
    for M in small_integer_matrices():
        assert_same_selection(M)
        for row in range(len(M)):
            assert_same_selection(M, must_include_row=row)


def selection_cases(stellar_ladder, join_complex, join_metric):
    """(matrix, forced rows) pairs: the small integer matrices with every row,
    the join fixture and the stellar rungs with none and their first, middle
    and last rows."""
    cases = [(M, (None, *range(len(M)))) for M in small_integer_matrices()]
    placed = [(join_complex, join_metric)]
    placed += [(c, fm.realize(c, coords)) for _, (c, coords) in sorted(stellar_ladder.items())]
    for c, m in placed:
        M = jb.assemble_domega_dL(c, m)
        cases.append((M, (None, 0, len(M) // 2, len(M) - 1)))
    return cases


def test_selection_in_one_row_passes_matches_dense_loop(
    monkeypatch, stellar_ladder, join_complex, join_metric
):
    # a step updates its touched rows in passes of bounded size; passes of a
    # single row must still take the pivots of the whole-array loop.  No
    # array fits in one pass, so no step takes the whole array.
    cases = selection_cases(stellar_ladder, join_complex, join_metric)
    monkeypatch.setattr(jb, "_UPDATE_BYTES", 1)
    buffers = count_empty_like(monkeypatch)
    for M, rows in cases:
        for row in rows:
            assert_same_selection(M, must_include_row=row)
    assert buffers == []


def test_selection_with_every_array_in_one_pass_matches_dense_loop(
    monkeypatch, stellar_ladder, join_complex, join_metric
):
    # every array fits in one pass, so the steps take the whole array once a
    # step has touched more than half of the rows, with the same pivots
    cases = selection_cases(stellar_ladder, join_complex, join_metric)
    monkeypatch.setattr(jb, "_UPDATE_BYTES", 1 << 40)
    buffers = count_empty_like(monkeypatch)
    switched = 0
    for M, rows in cases:
        for row in rows:
            buffers.clear()
            assert_same_selection(M, must_include_row=row)
            assert buffers in ([], [M.shape])
            switched += bool(buffers)
    assert switched >= len(cases)
