import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from pachner33 import complexes as cx
from pachner33 import flatmetric as fm
from pachner33 import geometry as g
from pachner33 import identities as idn
from pachner33 import invariants as iv
from pachner33 import io as pio
from pachner33 import jacobians as jb
from pachner33.errors import DegenerateSimplexError, MovePreconditionError, SelectionError

LADDER_RUNGS = (26, 86, 166)


# One-table references: the library computes these only in batches
# (cm_squared_volumes, the stacked batteries, deficit_omega).

def cm_squared_volume(k, L):
    """Squared k-volume of one (k+1)-point squared-length table (Cayley-Menger)."""
    L = g.validate_length_table(L, size=k + 1)
    if L.ndim != 2:
        raise ValueError("cm_squared_volume takes one table; stacks go to cm_squared_volumes")
    return float(g.cm_squared_volumes(k, L[np.triu_indices(k + 1, 1)][None])[0])


def face_area(L, face):
    """Area of one face of a squared-length table."""
    sq = cm_squared_volume(2, L[np.ix_(face, face)])
    if sq <= 0.0:
        raise DegenerateSimplexError(f"face {face} has nonpositive squared area")
    return math.sqrt(sq)


def reduce_angle_scalar(x):
    """Representative of the float x mod 2*pi in (-pi, pi]."""
    r = math.remainder(x, g.TWO_PI)
    if r <= -math.pi:
        r += g.TWO_PI
    return r


def area_length_weights(c, m):
    """Dense (edges x triangles) matrix of dS_t/dL_e from one batch of dS/dL blocks.

    The simplices sharing a triangle write equal entries.  The library once
    took dBigOmega_dS and Omega as products with this matrix; it is kept as
    their reference.
    """
    W = np.zeros((len(c.faces[1]), len(c.faces[2])))
    dS_dL = g.dS_dL_blocks(jb.length_tables(m.L, c.simplex_edges))
    W[c.simplex_edges[:, None, :], c.simplex_faces[:, :, None]] = dS_dL
    return W


def dense(t):
    """The matrix of jacobians.Triplets t, rebuilt from its nonzero entries."""
    M = np.zeros(t.shape)
    M[t.rows, t.cols] = t.values
    return M


# The residuals as JacobianSet took them from its dense matrices, before it
# kept their triplets; kept as the bitwise reference of the triplet residuals.

def _abs_max(a):
    # + 0.0 reports a zero maximum as 0.0, not the -0.0 of -a.min(), as the library does
    return np.maximum(a.max(), -a.min()) + 0.0


def symmetry_residual_dense(M):
    """max |M - M^T| / max |M| of a square dense matrix; 0.0 when M is zero."""
    scale = _abs_max(M)
    return float(_abs_max(M - M.T) / scale) if scale else 0.0


def conjugacy_residual_dense(A, B):
    """max |A - B^T| / max(max |A|, max |B|) of dense A and B; 0.0 when both are zero."""
    scale = max(_abs_max(A), _abs_max(B.T))
    return float(_abs_max(A - B.T) / scale) if scale else 0.0


# The per-seed sampler and the per-trial six-point cluster: the library draws
# every placement of a list of seeds in rounds that draw ahead and realizes the clusters of
# all trials as one stack; these are the per-seed and per-trial routes those
# replaced, kept as their bitwise references.

def below_quality_loop(points, quality):
    """The per-cell floor test that cell_volumes batched."""
    L = g.squared_length_table(points)
    return abs(g.signed_volume4(points)) < quality * g.mean_edge_length(L) ** 4


def unit_ball_points(rng, n):
    """One draw of n points uniform in the unit 4-ball: Gaussian directions, radii U^(1/4)."""
    raw = rng.standard_normal((n, 4))
    radii = rng.uniform(size=(n, 1)) ** 0.25
    return raw / np.linalg.norm(raw, axis=1, keepdims=True) * radii


def unit_ball_placement_loop(seed, n, cells, quality=g.DEFAULT_QUALITY):
    """One seed's placement, drawn one placement at a time with the per-cell floor test."""
    rng = np.random.default_rng(seed)
    for _ in range(g.MAX_DRAWS):
        pts = unit_ball_points(rng, n)
        if not any(below_quality_loop(pts[list(cell)], quality) for cell in cells):
            return pts
    raise DegenerateSimplexError(f"no quality-{quality} placement in {g.MAX_DRAWS} draws")


DELTA5 = cx.boundary_delta5()
DELTA5_CELLS = [verts for verts, _ in DELTA5.simplices]


class ClusterReference:
    """One cluster on the per-trial route: realize, deficit_omega and
    assemble_domega_dL on the boundary of the 5-simplex, each side read at
    the row of its central triangle (idn.SIDES) times its sign.

    Holds the fields of one trial of idn.ClusterSix, unstacked.
    """

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)
        m = fm.realize(DELTA5, dict(enumerate(self.points)))
        omega = fm.deficit_omega(DELTA5, m)
        sides = idn.SIDES.values()
        self.omegas = np.array([float(sign * omega[row]) for row, sign in sides])
        if (np.abs(self.omegas) > fm.FLATNESS_TOL).any():
            raise DegenerateSimplexError(
                "cluster angle sum does not close up; placement is not flat"
            )
        M = jb.assemble_domega_dL(DELTA5, m)
        self.hat_volumes = m.V * np.array([sign for _, sign in DELTA5.simplices])
        self.areas = np.array([float(m.S[row]) for row, _ in sides])
        self.gradients = np.stack([sign * M[row] for row, sign in sides])


CLUSTER_FIELDS = {"points": (6, 4), "hat_volumes": (6,), "omegas": (2,), "areas": (2,),
                  "gradients": (2, 15)}


def reference_clusters(seeds):
    """The stack of the per-trial route: per seed, its sampler loop and a ClusterReference."""
    per_trial = [ClusterReference(unit_ball_placement_loop(s, 6, DELTA5_CELLS)) for s in seeds]
    return SimpleNamespace(**{
        name: np.array([getattr(c, name) for c in per_trial]).reshape((-1,) + shape)
        for name, shape in CLUSTER_FIELDS.items()
    })


def check_basic2_one(pts, V):
    """(ratio, predicted, residual) of check_basic2 on one cluster."""
    A, B, C, D, E, F = range(6)
    fixed_pairs = [(A, C), (A, D), (A, E), (A, F), (B, E), (C, E), (E, F)]
    J = np.zeros((len(fixed_pairs), 8))
    for r, (u, w) in enumerate(fixed_pairs):
        d = pts[u] - pts[w]
        if u == A:
            J[r, 0:4] += 2 * d
        if w == A:
            J[r, 0:4] -= 2 * d
        if u == E:
            J[r, 4:8] += 2 * d
        if w == E:
            J[r, 4:8] -= 2 * d
    _, svals, Vh = np.linalg.svd(J)
    if svals[-1] < 1e-10 * svals[0]:
        raise DegenerateSimplexError("constraint Jacobian is rank deficient")
    v = Vh[-1]
    dAB = 2 * (pts[A] - pts[B]) @ v[0:4]
    dDE = -2 * (pts[D] - pts[E]) @ v[4:8]
    if abs(dAB) < 1e-14 * max(abs(dDE), 1.0):
        raise DegenerateSimplexError("flat family does not move the AB length")
    ratio = dDE / dAB
    predicted = -V[A] * V[B] / (V[D] * V[E])
    return ratio, predicted, abs(ratio - predicted) / abs(predicted)


def check_6term_one(gA, gD, V, area_abc, area_def):
    """(residual, cosine, ratio_residual) of check_6term on one cluster."""
    A, B, C, D, E, F = range(6)
    lhs = V[D] * (-V[E]) * V[F] / area_abc * gA
    rhs = V[A] * (-V[B]) * V[C] / area_def * gD
    scale = max(np.abs(lhs).max(), np.abs(rhs).max())
    residual = float(np.abs(lhs - rhs).max() / scale)
    cosine = abs(float(gA @ gD / (np.linalg.norm(gA) * np.linalg.norm(gD))))
    ratio = gA[idn.CLUSTER_EDGE_INDEX[(A, B)]] / gA[idn.CLUSTER_EDGE_INDEX[(D, E)]]
    predicted = V[A] * V[B] / (V[D] * V[E])
    return residual, cosine, float(abs(ratio - predicted) / abs(predicted))


def check_basic2_reference(clusters):
    """check_basic2 of a stack, one trial at a time."""
    rows = [check_basic2_one(p, V) for p, V in zip(clusters.points, clusters.hat_volumes)]
    return idn.TwoEdgeCheck(*np.array(rows, dtype=float).reshape(-1, 3).T)


def check_6term_reference(clusters):
    """check_6term of a stack, one trial at a time."""
    rows = [check_6term_one(grads[0], grads[1], V, S[0], S[1])
            for grads, V, S in zip(clusters.gradients, clusters.hat_volumes, clusters.areas)]
    return idn.SixTermCheck(*np.array(rows, dtype=float).reshape(-1, 3).T)


def symmetric_cluster(seed=21, max_tries=200):
    """Stack of one cluster invariant under a half-turn swapping A<->D and B<->E.

    The symmetry must preserve orientation (a reflection would force the
    setwise-fixed simplices ABDEF and ABCDE to be degenerate), so C and F
    sit on the axis plane of a 180-degree rotation.
    """
    rng = np.random.default_rng(seed)
    half_turn = np.array([-1.0, -1.0, 1.0, 1.0])
    for _ in range(max_tries):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        cpt = rng.standard_normal(4)
        fpt = rng.standard_normal(4)
        cpt[0] = cpt[1] = fpt[0] = fpt[1] = 0.0  # fixed by the half turn
        pts = np.stack([a, b, cpt, a * half_turn, b * half_turn, fpt])
        try:
            return idn.ClusterSix(pts[None])
        except DegenerateSimplexError:
            continue
    raise AssertionError("no symmetric cluster found")


def vertex_motion_dL(c, coords, delta):
    """(E,) squared-length change of a vertex displacement field, c.faces[1] order.

    dL_uw = 2 (x_u - x_w) . (delta_u - delta_w) for each edge (u, w).
    """
    X = np.array([coords[v] for v in c.vertices], dtype=float)
    dX = np.array([delta[v] for v in c.vertices], dtype=float)
    u, w = c.edge_ends.T
    return 2.0 * np.einsum("ek,ek->e", X[u] - X[w], dX[u] - dX[w])


def index_array(rows, width):
    return np.array(rows, dtype=np.intp).reshape(len(rows), width)


def scatter_indices(cells, face_index, edge_index):
    """(N, 10) global face rows and edge columns of sorted 5-tuples, by dict lookup.

    Entry [n, k] is the position of the k-th local face (geometry.FACES5)
    or edge (geometry.EDGES5) of cells[n] in face_index or edge_index.  The
    per-cell route that build_complex's simplex_faces/simplex_edges and
    move_blocks' replacement rows and columns replaced, kept as their
    reference.
    """
    rows = [[face_index[(v[p], v[q], v[r])] for p, q, r in g.FACES5] for v in cells]
    cols = [[edge_index[(v[p], v[q])] for p, q in g.EDGES5] for v in cells]
    return index_array(rows, 10), index_array(cols, 10)


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


def selection_bits(sel):
    return {
        "rows": sel.rows,
        "cols": sel.cols,
        "rows_comp": sel.rows_comp,
        "cols_comp": sel.cols_comp,
        "pivots": np.array(sel.pivots, dtype=float).tobytes(),
    }


def assert_same_selection(M, must_include_row=None):
    try:
        expected = rank_and_submatrix_dense(M, must_include_row)
    except SelectionError:
        with pytest.raises(SelectionError, match="numerically zero"):
            jb.rank_and_submatrix(M.copy(), must_include_row)
        return
    assert selection_bits(jb.rank_and_submatrix(M.copy(), must_include_row)) == expected


def count_empty_like(monkeypatch):
    """The shapes np.empty_like is called with from now on, in a list that grows.

    rank_and_submatrix calls it only when its steps switch to the whole
    array, for their buffer.
    """
    shapes = []
    empty_like = np.empty_like

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return empty_like(a, *args, **kwargs)

    monkeypatch.setattr(np, "empty_like", counted)
    return shapes


def materialized_value_after(c, coords, t, sel):
    """(sign, log|prod(S) / (det(B) * prod(V))|) of the matched selection on the moved complex.

    The reference route: build the moved complex with pachner_33, realize
    and assemble it, select the same rows and columns with the row of t
    replaced by the row of the opposite triangle, and take the value from
    its slogdet and its own products.
    """
    moved, record = cx.pachner_33(c, t)
    m = fm.realize(moved, coords)
    M = jb.assemble_domega_dL(moved, m)
    rows = [
        moved.face_index[2][record.new_face if key == record.old_face else key]
        for key in (c.faces[2][i] for i in sel.rows)
    ]
    cols = [moved.face_index[1][c.faces[1][j]] for j in sel.cols]
    det_sign, log_det = np.linalg.slogdet(M[np.ix_(rows, cols)])
    return iv._log_value(det_sign, float(log_det), jb.log_product(m.V), jb.log_product(m.S))


def admissible_triangles(c, limit=None):
    """Up to limit (default all) triangles of c whose star is a 3->3 cluster, in face order."""
    found = []
    for tri in c.faces[2]:
        try:
            cx.move_cluster(c, tri)
        except MovePreconditionError:
            continue
        found.append(tri)
        if len(found) == limit:
            break
    return found


# The report writer as it wrote a 1-d float64 array before io.dumps formed the
# text with array steps: one "%.17g" format string over the array's .tolist(),
# which CPython formats item by item with its correctly rounded dtoa.

def float64_text_reference(values):
    """A 1-d float64 array as "[x0, x1, ...]", each item by "%.17g"."""
    return ("[" + ", ".join(["%.17g"] * len(values)) + "]") % tuple(values.tolist())


def dumps_reference(obj):
    """io.dumps text with every 1-d float64 array in a dict written by
    float64_text_reference and every 1-d or 2-d integer array by
    json.dumps(a.tolist()); other values go through io.dumps, whose other
    branches are unchanged since those writers."""
    if isinstance(obj, dict):
        return "{" + ", ".join(
            f"{json.dumps(str(key))}: {dumps_reference(val)}" for key, val in obj.items()
        ) + "}"
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64:
        return float64_text_reference(obj)
    if isinstance(obj, np.ndarray) and obj.ndim in (1, 2) and obj.dtype.kind in "iu":
        return json.dumps(obj.tolist())
    return pio.dumps(obj)


@pytest.fixture(scope="session")
def motion_dL():
    return vertex_motion_dL


@pytest.fixture(scope="session")
def admissible():
    return admissible_triangles


@pytest.fixture(scope="session")
def delta5():
    return cx.boundary_delta5()


@pytest.fixture(scope="session")
def delta5_coords(delta5):
    return fm.random_realization(delta5, seed=1)


@pytest.fixture(scope="session")
def delta5_metric(delta5, delta5_coords):
    return fm.realize(delta5, delta5_coords)


@pytest.fixture(scope="session")
def join_complex():
    return cx.tetra_circle_join()


@pytest.fixture(scope="session")
def join_coords(join_complex):
    return fm.random_realization(join_complex, seed=5)


@pytest.fixture(scope="session")
def join_metric(join_complex, join_coords):
    return fm.realize(join_complex, join_coords)


@pytest.fixture(scope="session")
def bipyramid():
    return cx.bipyramid_sphere()


@pytest.fixture(scope="session")
def stellar_ladder():
    """Nested stellar subdivisions of the 5-simplex boundary, with placements.

    Each step splits a cell chosen with probability proportional to its
    volume at a point with Dirichlet(20) barycentric weights, so new cells
    stay well inside the old.  Returns {cell count: (complex, coords)}.
    """
    rng = np.random.default_rng(2026)
    c = cx.boundary_delta5()
    coords = fm.random_realization(c, seed=int(rng.integers(2**31)))
    rungs = {}
    while len(c.simplices) < max(LADDER_RUNGS):
        cells = [np.stack([coords[v] for v in verts]) for verts, _ in c.simplices]
        volumes = np.array([abs(g.signed_volume4(pts)) for pts in cells])
        sid = int(rng.choice(len(cells), p=volumes / volumes.sum()))
        coords[c.vertices[-1] + 1] = rng.dirichlet(np.full(5, 20.0)) @ cells[sid]
        c = cx.stellar_subdivide(c, sid)
        if len(c.simplices) in LADDER_RUNGS:
            rungs[len(c.simplices)] = (c, dict(coords))
    return rungs
