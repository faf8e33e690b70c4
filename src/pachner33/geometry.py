"""Metric geometry of a single Euclidean 4-simplex, and the unit-ball sampler.

A simplex is described either by coordinates (5 points in R^4) or by a
squared-length table: a symmetric (5, 5) ndarray with zero diagonal whose
(p, q) entry is the squared distance between local vertices p and q.
Faces and edges are sorted tuples of local vertex labels 0..4.

The library's dihedral angles and their derivatives come from one batched
route, the facet-normal Gram matrix of jacobians.  The coordinate route
here is independent of it: dihedral_angles_from_points takes the facet
normals of an embedded simplex from the inverse of its bordered coordinate
matrix, and dihedral_angles_from_lengths embeds a length table first
(Cholesky of the Gram matrix anchored at vertex 0).  Every function of
that route (validate_length_table, gram_matrix, gram_embed, the two angle
functions and edge_angle_thetas) takes a (..., 5, 5) stack of tables, or
a (..., 5, 4) stack of points, and one table is the stack of none; the
angles come back as (..., 10) arrays in FACES5 order, the edge angles in
EDGES5 order.  A stack holding one bad table raises the error that
table raises alone.  The route serves the identity batteries and the
tests as their oracle.  Magnitudes lie in (0, pi); a signed angle is the
magnitude times the simplex sign eps.

cell_volumes is the package's one volume floor: for a stack of cells given
by their points it returns the signed volumes and whether each falls below
a fraction of its mean edge length to the fourth.  realize, the stack of
six-point clusters, the replacement cells of a move and the sampler call
it.  unit_ball_placement draws every seeded placement of the package, for
a sequence of seeds at once: each seed's points are uniform in the unit
ball, redrawn together until no listed cell is below the floor.  The
redraws go in rounds that draw ahead, 1, 2, 4, ... placements per
unplaced seed, each round normalized in one step and tested in one
cell_volumes call; every seed keeps its first passing draw, so its
placement is the one a draw-at-a-time loop gives.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DegenerateSimplexError, NonRealizableLengthsError

TWO_PI = 2.0 * math.pi

# |V| below DEGENERACY_REL * (mean edge length)^4 counts as degenerate.
DEGENERACY_REL = 1e-10
# A cell whose |V| / (mean edge length)^4 is below THIN_QUALITY is thin: the
# angle kernel takes it in extended precision, every other cell in float64
# (jacobians._normal_grams).  At 1e-4, float64 star cells of quality
# 1.0e-4 to 2e-4 took a 408-join's worst honest move from 1.1e-10 to 3.2e-10.
THIN_QUALITY = 2e-4

EDGES5 = tuple((i, j) for i in range(5) for j in range(i + 1, 5))
FACES5 = tuple(
    (i, j, k) for i in range(5) for j in range(i + 1, 5) for k in range(j + 1, 5)
)
EDGE_INDEX5 = {e: n for n, e in enumerate(EDGES5)}
FACE_INDEX5 = {f: n for n, f in enumerate(FACES5)}
# the two vertices opposite each face, aligned with FACES5
OPPOSITE5 = tuple(tuple(v for v in range(5) if v not in face) for face in FACES5)
OPP_X, OPP_Y = (np.array(ends) for ends in zip(*OPPOSITE5))
EDGE_I, EDGE_J = (np.array(ends) for ends in zip(*EDGES5))
# local edges ab, ac, bc of each local face abc, aligned with FACES5
FACE_EDGES5 = np.array([[EDGE_INDEX5[(a, b)], EDGE_INDEX5[(a, c)], EDGE_INDEX5[(b, c)]]
                        for a, b, c in FACES5])
FACE_EDGES5.flags.writeable = False
# each (face, edge) pair of dS_dL_blocks: the face's row, its edge ab and the
# face's other two edges, ac and bc
_AREA_ROW = np.repeat(np.arange(10), 3)
_AREA_AB = FACE_EDGES5.ravel()
_AREA_AC = FACE_EDGES5[:, [1, 0, 0]].ravel()
_AREA_BC = FACE_EDGES5[:, [2, 2, 1]].ravel()


def squared_length_table(points):
    """Squared pairwise distances of an (n, d) coordinate array, or of a (..., n, d) stack."""
    pts = np.asarray(points, dtype=float)
    diff = pts[..., :, None, :] - pts[..., None, :, :]
    return np.einsum("...ijk,...ijk->...ij", diff, diff)


@functools.cache
def _upper_pairs(n):
    """np.triu_indices(n, 1), the (i < j) pairs in lexicographic order.

    Built once per size and shared by every caller, hence read-only.
    """
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


# np.allclose's default tolerances, which the length-table checks keep
TABLE_RTOL, TABLE_ATOL = 1e-5, 1e-8


def validate_length_table(L, size=None):
    """L as a float array after the shape, symmetry and zero-diagonal checks.

    L is one (n, n) table or a (..., n, n) stack of them.  Each table is
    accepted exactly when np.allclose(L, L.T) and np.allclose(diag(L), 0)
    accept it: an entry pair passes when it is equal, or when
    |L - L^T| <= atol + rtol |L^T| at a finite L^T entry.  The tolerance is
    only evaluated for a stack that is not exactly symmetric.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim < 2 or L.shape[-1] != L.shape[-2]:
        raise ValueError("length table must be square")
    if size is not None and L.shape[-1] != size:
        raise ValueError(f"length table must be {size}x{size}")
    T = L.swapaxes(-1, -2)
    equal = L == T
    if not equal.all():
        with np.errstate(invalid="ignore"):  # inf - inf at equal infinite entries
            near = np.abs(L - T) <= TABLE_ATOL + TABLE_RTOL * np.abs(T)
        if not (equal | (near & np.isfinite(T))).all():
            raise ValueError("length table must be symmetric")
    if not (np.abs(np.diagonal(L, axis1=-2, axis2=-1)) <= TABLE_ATOL).all():
        raise ValueError("length table must have zero diagonal")
    return L


def cm_squared_volumes(k, Lv):
    """Squared k-volumes of a stack of (k+1)-point length lists, one det call.

    Lv is (M, (k+1)k/2): the squared lengths of each point set in
    lexicographic pair order ((0, 1), (0, 2), ...).  Unvalidated; values may
    be <= 0 for lengths with no Euclidean realization, and inf or nan where
    a determinant overflows (without a numpy warning).
    """
    Lv = np.asarray(Lv, dtype=float)
    n = k + 1
    i, j = _upper_pairs(n)
    bordered = np.ones((len(Lv), n + 1, n + 1))
    bordered[:, range(n + 1), range(n + 1)] = 0.0
    bordered[:, i + 1, j + 1] = bordered[:, j + 1, i + 1] = Lv
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(bordered)
    return (-1) ** (k + 1) * det / (2**k * math.factorial(k) ** 2)


def signed_volume4(points):
    """Oriented hypervolume det[v1-v0, ..., v4-v0] / 4! of 5 points in R^4."""
    pts = np.asarray(points, dtype=float)
    if pts.shape != (5, 4):
        raise ValueError("expected 5 points in R^4")
    return float(np.linalg.det(pts[1:] - pts[0]) / 24.0)


def mean_edge_length(L):
    """Mean Euclidean edge length of a squared-length table."""
    L = np.asarray(L, dtype=float)
    return float(np.mean(np.sqrt(np.maximum(L[_upper_pairs(L.shape[0])], 0.0))))


def cell_volumes(points, rel):
    """Signed volumes of an (M, 5, 4) stack of cells and the floor test.

    Returns (V, below): V[m] = det[p1-p0, ..., p4-p0] / 4! of cell m, and
    below[m] whether |V[m]| < rel * (mean edge length of cell m)^4.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 5, 4)
    V = np.linalg.det(pts[:, 1:] - pts[:, :1]) / 24.0
    d = pts[:, EDGE_I] - pts[:, EDGE_J]
    # a C-ordered (M, 10) table sums each row as np.mean sums one cell's edges
    mean_edge = np.sqrt(np.einsum("mek,mek->me", d, d, order="C")).mean(axis=1)
    return V, np.abs(V) < rel * mean_edge**4


# Samplers redraw a placement until no cell is below the cell_volumes floor
# at DEFAULT_QUALITY, which sits well above DEGENERACY_REL so that angle
# sums and angle derivatives keep comfortable accuracy margins.
DEFAULT_QUALITY = 2e-3
MAX_DRAWS = 500
# Cells one sampler round floors at most.  A round's temporaries take about
# 1.3 kB per cell, so this keeps a give-up on a complex of hundreds of cells
# near 10 MB; clusters and single simplices stay far below it.
_ROUND_CELLS = 1 << 13


def unit_ball_placement(seeds, n, cells):
    """(S, n, 4) unit-ball placements, one per seed, with no cell below DEFAULT_QUALITY.

    cells lists 5-tuples of point indices.  Each seed has its own generator
    and draws whole placements of n points until one has no cell below the
    floor of cell_volumes; a draw is n * 4 standard normals, the Gaussian
    directions, then n uniforms U, the radii U^(1/4).  The draws go in
    rounds that draw ahead: round r draws the next 2^r placements of every
    seed still unplaced (1, 2, 4, ...), each from its seed's stream in
    order, normalizes them all in one step and floors them in one
    cell_volumes call.  Each seed keeps its first passing draw, so its
    placement is bitwise the one drawing one placement at a time gives,
    and a seed that needs k draws is placed in ceil(log2(k + 1)) rounds.
    A round draws fewer when 2^r placements would floor more than
    _ROUND_CELLS cells, and no seed draws more than MAX_DRAWS placements;
    DegenerateSimplexError when a seed is still unplaced after that many.
    """
    cells = np.asarray(cells, dtype=np.intp).reshape(-1, 5)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    out = np.empty((len(rngs), n, 4))
    todo = np.arange(len(rngs))
    drawn = 0
    while todo.size and drawn < MAX_DRAWS:
        ahead = min(drawn + 1, MAX_DRAWS - drawn,
                    max(1, _ROUND_CELLS // max(1, todo.size * len(cells))))
        raw = np.empty((todo.size, ahead, n, 4))
        radii = np.empty((todo.size, ahead, n, 1))
        for k, seed_raw, seed_radii in zip(todo, raw, radii):
            rng = rngs[k]
            for draw_raw, draw_radii in zip(seed_raw, seed_radii):
                rng.standard_normal(out=draw_raw)
                rng.random(out=draw_radii)
        pts = raw / np.linalg.norm(raw, axis=-1, keepdims=True) * radii**0.25
        below = cell_volumes(pts[:, :, cells], DEFAULT_QUALITY)[1]
        passing = ~below.reshape(todo.size, ahead, len(cells)).any(axis=2)
        placed = passing.any(axis=1)
        out[todo[placed]] = pts[placed, passing[placed].argmax(axis=1)]
        todo = todo[~placed]
        drawn += ahead
    if todo.size:
        raise DegenerateSimplexError(
            f"could not find a quality-{DEFAULT_QUALITY} placement in {MAX_DRAWS} draws"
        )
    return out


def gram_matrix(L):
    """(..., 4, 4) Gram matrices G_pq = (L_0p + L_0q - L_pq) / 2 anchored at vertex 0."""
    L = validate_length_table(L, size=5)
    return 0.5 * (L[..., 0, 1:, None] + L[..., 0, None, 1:] - L[..., 1:, 1:])


def gram_embed(L):
    """(..., 5, 4) coordinates reproducing a stack of squared-length tables.

    Vertex 0 sits at the origin and each simplex has positive oriented
    volume (Cholesky factors have positive diagonal).  Raises
    NonRealizableLengthsError when a Gram matrix is not positive definite.
    """
    G = gram_matrix(L)
    try:
        C = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise NonRealizableLengthsError(
            "length table has no nondegenerate Euclidean realization"
        ) from exc
    pts = np.zeros(G.shape[:-2] + (5, 4))
    pts[..., 1:, :] = C
    return pts


def dS_dL_blocks(L):
    """(..., 10, 10) face-area derivatives by squared edge length.

    L is a (..., 5, 5) stack of squared-length tables; rows follow FACES5 and
    columns EDGES5.  From 16 S^2 = 2 L1 L2 + 2 L2 L3 + 2 L3 L1 - L1^2 - L2^2
    - L3^2.  Raises DegenerateSimplexError when a face has nonpositive
    squared area.
    """
    Lv = np.asarray(L, dtype=float)[..., EDGE_I, EDGE_J]
    ab, ac, bc = Lv[..., _AREA_AB], Lv[..., _AREA_AC], Lv[..., _AREA_BC]
    sq16 = 2.0 * (ab * ac + ac * bc + bc * ab) - ab * ab - ac * ac - bc * bc
    if not np.all(sq16 > 0.0):
        raise DegenerateSimplexError("a face has nonpositive squared area")
    out = np.zeros(Lv.shape[:-1] + (10, 10))
    out[..., _AREA_ROW, _AREA_AB] = (ac + bc - ab) / (4.0 * np.sqrt(sq16))
    return out


def dihedral_angles_from_points(points):
    """(..., 10) dihedral angle magnitudes of embedded simplices, FACES5 order.

    points is a (..., 5, 4) stack.  Facet normals are the
    barycentric-coordinate gradients (rows of the inverse of the bordered
    coordinate matrix); the inner angle at the face opposite vertices
    {x, y} has cosine -n_x.n_y / (|n_x| |n_y|).
    """
    pts = np.asarray(points, dtype=float)
    X = np.empty(pts.shape[:-1] + (5,))
    X[..., 0] = 1.0
    X[..., 1:] = pts
    try:
        Ainv = np.linalg.inv(X)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSimplexError("simplex is degenerate") from exc
    N = Ainv[..., 1:, :]  # column i is the gradient of barycentric coordinate i
    G = N.swapaxes(-1, -2) @ N
    d = np.sqrt(np.diagonal(G, axis1=-2, axis2=-1))
    cosines = -G[..., OPP_X, OPP_Y] / (d[..., OPP_X] * d[..., OPP_Y])
    return np.arccos(np.clip(cosines, -1.0, 1.0))


def dihedral_angles_from_lengths(L):
    """(..., 10) dihedral angle magnitudes of length tables (one embedding each), FACES5 order."""
    return dihedral_angles_from_points(gram_embed(L))


def edge_angle_thetas(L, eps):
    """(..., 10) angles at the edges, EDGES5 order: area-derivative-weighted signed dihedrals.

    Theta_e = sum over faces f of dS_f/dL_e * eps * theta_f; only the three
    faces containing e contribute.  One embedding serves all ten edges of a
    table.  eps is a sign, or one sign per table of the stack.  The
    tables are validated once, by the embedding.
    """
    signed = np.asarray(eps)[..., None] * dihedral_angles_from_lengths(L)
    return np.einsum("...fe,...f->...e", dS_dL_blocks(L), signed)


def reduce_angle(x):
    """Representatives of x mod 2*pi in (-pi, pi], entrywise.

    fmod is exact, and so is each shift by 2*pi of its (-2*pi, 2*pi) result
    (Sterbenz), so every entry is bitwise math.remainder(x, 2*pi) moved into
    (-pi, pi], signed zeros included.
    """
    r = np.fmod(x, TWO_PI)
    r = np.where(r > math.pi, r - TWO_PI, r)
    return np.where(r <= -math.pi, r + TWO_PI, r)
