"""The six-point cluster and randomized batteries for the differential identities.

The cluster is six labelled points A..F in R^4 (indices 0..5).  The three
4-simplices around ABC and the three around DEF are the two sides of a
3->3 move; glued along their common boundary they make the boundary of
the 5-simplex on A..F.  ClusterSix realizes that complex for a (T, 6, 4)
stack of clusters at once and reads each side at the row of its central
triangle (SIDES); one cluster is the stack of one.  check_basic2 and
check_6term test the paper's volume-product relations on every cluster of
a stack.

Each battery draws seed-deterministic configurations, evaluates one identity
and reports the worst relative residual.  The library computes every angle
derivative in closed form (jacobians.dtheta_dL_blocks, and its rows at the
cluster's central faces, jacobians.face_angle_rows); the batteries
check those against closed-form identities and against one independent
oracle, central_difference, which differentiates the dihedral angles of
the coordinate route (geometry.dihedral_angles_from_lengths, (..., 10)
arrays in FACES5 order).  It runs with one Richardson extrapolation level
so that truncation stays far below the tolerances even for moderately thin
simplices.  It steps each table of a stack by its own largest entry and
embeds every stencil table in one call.

Every battery takes the TrialDraws that holds its trial configurations and
evaluates all trials at once, each trial's residual bitwise the one it gets
alone; all report through one result helper.  The simplex batteries
(opposite_edge_derivative, schlafli, modified_schlafli) read the (T, 5, 5)
length tables and (T, 10) face areas of the trial simplices, the cluster
batteries (two_edge_ratio, six_term, cluster_closed_forms) the one
ClusterSix of the trial clusters, whose deficits, gradients and areas are
the rows of the global assembly the invariant runs.  run_all_batteries
makes one TrialDraws, so each of these is computed once per call.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .complexes import boundary_delta5
from .errors import DegenerateSimplexError
from .flatmetric import FLATNESS_TOL, triangle_areas
from .jacobians import dtheta_dL_blocks, face_angle_rows, length_tables, scatter_blocks

DEFAULT_TOL = 1e-6
PARALLEL_COS_TOL = 1e-10

# The step of central_difference is FD_REL_STEP * max(L).
FD_REL_STEP = 1e-5


@dataclass(frozen=True)
class BatteryResult:
    name: str
    trials: int
    max_residual: float
    failures: int
    extras: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.failures == 0


A, B, C, D, E, F = range(6)

_DELTA5 = boundary_delta5()
# (15, 2) vertex ids of the cluster's edges, lexicographic: the columns of its gradients
CLUSTER_EDGES = _DELTA5.face_ids(1)
_AB, _DE = _DELTA5.find_faces([(A, B), (D, E)])[0].tolist()
_ABC, _DEF = _DELTA5.find_faces([(A, B, C), (D, E, F)])[0].tolist()
# side -> (row of its central triangle, sign of the side's orientation in the boundary)
SIDES = {"abc": (_ABC, -1), "def": (_DEF, 1)}
_SIDE_ROWS, _SIDE_SIGNS = (np.array(col) for col in zip(*SIDES.values()))
# Cell n omits point n, so its central triangle is ABC, its FACES5 row 0,
# for n >= 3 (side 0) and DEF, its row 9, for n < 3 (side 1).
_CENTRAL_FACES = [0, 9]
_CELL_SIDES = np.array([1, 1, 1, 0, 0, 0])
# cell n omits point n; its sign turns its volume into the ascending hat's
# (the vertex ids are 0..5, so vertex positions are vertex ids)
_HAT_SIGNS = _DELTA5.simplex_signs
_CELL_VERTICES = np.sort(_DELTA5.simplex_vertices, axis=1)


def _raise_for_first(failed, text):
    """DegenerateSimplexError with text, prefixed by the first trial that failed."""
    bad = np.flatnonzero(failed)
    if bad.size:
        raise DegenerateSimplexError(f"trial {int(bad[0])}: {text}")


def _offset_rows(index, width, trials):
    """(trials * len(index), k) rows of index into the trials' stacked width-long rows."""
    return (index + width * np.arange(trials)[:, None, None]).reshape(-1, index.shape[-1])


@dataclass(frozen=True, eq=False)
class ClusterSix:
    """A stack of T clusters of six points, each nondegenerate and flat at ABC and DEF.

    points is (T, 6, 4); one cluster is the stack of one.  Each cluster is
    the boundary of the 5-simplex on its points, realized through
    _DELTA5's index arrays for all T at once: one squared-length matmul,
    one cell_volumes call over the 6T cells, one triangle_areas call for
    the two central triangles and one face_angle_rows call over the 6T
    length tables at FACES5 rows 0 (ABC in cells 3-5) and 9 (DEF in cells
    0-2).  Each cell keeps the angle and (10,) dtheta/dL row of the one it
    holds, not its whole angle block.  One np.bincount sums the deficits
    and one scatter_blocks the gradients, both in cell order from 0.0, so
    every entry is bitwise the one the per-trial realize, deficit_omega
    and assemble_domega_dL give it.

    hat_volumes[t, x] is the signed volume of the five points other than x
    in ascending order.  Side k is the k-th of SIDES ("abc", "def"):
    omegas[t, k] is the deficit at its central triangle, in (-pi, pi],
    areas[t, k] that triangle's area and gradients[t, k] the (15,) gradient
    of the deficit over the squared lengths, CLUSTER_EDGES order; deficits
    and gradients are times the side's sign.  All are read-only.  A trial
    with a degenerate cell or a deficit above FLATNESS_TOL raises
    DegenerateSimplexError naming the first such trial.
    """

    points: np.ndarray  # (T, 6, 4)
    hat_volumes: np.ndarray = field(init=False, repr=False)  # (T, 6)
    omegas: np.ndarray = field(init=False, repr=False)  # (T, 2)
    areas: np.ndarray = field(init=False, repr=False)  # (T, 2)
    gradients: np.ndarray = field(init=False, repr=False)  # (T, 2, 15)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 3 or pts.shape[1:] != (6, 4):
            raise ValueError("clusters need a (T, 6, 4) stack of points")
        T = len(pts)
        ends = _DELTA5.edge_ends
        d = pts[:, ends[:, 0]] - pts[:, ends[:, 1]]
        # a stack of 1x4 by 4x1 products rounds exactly like d @ d per edge
        L = np.matmul(d[..., None, :], d[..., :, None])[..., 0, 0]

        V, below = geometry.cell_volumes(pts[:, _DELTA5.simplex_vertices], geometry.DEGENERACY_REL)
        bad = np.flatnonzero(below)
        if bad.size:
            t, sid = divmod(int(bad[0]), 6)
            cell = tuple(_CELL_VERTICES[sid].tolist())
            raise DegenerateSimplexError(f"trial {t}: simplex {cell} (id {sid}) is degenerate")
        eps = np.where(V > 0, 1, -1)
        S = triangle_areas(L, _DELTA5.triangle_edges[_SIDE_ROWS], _DELTA5.face_ids(2)[_SIDE_ROWS])

        tables = length_tables(L.ravel(), _offset_rows(_DELTA5.simplex_edges, 15, T))
        theta, dtheta = face_angle_rows(tables, eps, _CENTRAL_FACES)
        cells, sides = np.arange(6 * T), np.tile(_CELL_SIDES, T)
        theta, dtheta = theta[cells, sides], dtheta[cells, sides]
        # each cell adds its share to the (trial, side) row of its central triangle
        at = 2 * (cells // 6) + sides
        omega = np.bincount(at, -eps * theta, minlength=2 * T).reshape(T, 2)
        edges = np.tile(_DELTA5.simplex_edges, (T, 1))
        grad = scatter_blocks((2 * T, 15), at[:, None], edges, -dtheta[:, None])
        omega = _SIDE_SIGNS * geometry.reduce_angle(omega)
        _raise_for_first(
            (np.abs(omega) > FLATNESS_TOL).any(axis=1),
            "cluster angle sum does not close up; placement is not flat",
        )
        object.__setattr__(self, "points", pts)
        for name, value in (
            ("hat_volumes", V.reshape(T, 6) * _HAT_SIGNS),
            ("omegas", omega),
            ("areas", S),
            ("gradients", _SIDE_SIGNS[:, None] * grad.reshape(T, 2, 15)),
        ):
            value.flags.writeable = False
            object.__setattr__(self, name, value)


def random_clusters(seeds):
    """The ClusterSix of one seed-deterministic unit-ball cluster per seed."""
    return ClusterSix(geometry.unit_ball_placement(seeds, 6, _CELL_VERTICES))


@dataclass(frozen=True)
class TwoEdgeCheck:
    """Constrained derivative of one squared length against another, (T,) per field."""

    ratio: np.ndarray  # dL_DE / dL_AB along the flat one-parameter family
    predicted: np.ndarray  # -V_hatA V_hatB / (V_hatD V_hatE)
    residual: np.ndarray


def _dot(a, b):
    """Row-by-row dot products of two (T, k) stacks as (1 x k)(k x 1) matmuls.

    Each rounds exactly as a @ b of the two rows alone.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


_FIXED_PAIRS = ((A, C), (A, D), (A, E), (A, F), (B, E), (C, E), (E, F))
_FIXED_U, _FIXED_W = (np.array(ends) for ends in zip(*_FIXED_PAIRS))


def check_basic2(clusters):
    """Move A and E only, keeping every squared length but AB and DE fixed.

    The placements stay flat by construction, so the measured dL_DE/dL_AB
    must equal minus the volume-product ratio.  Squared lengths are
    quadratic along the family, so both derivatives are exact:
    dL_AB = 2 (x_A - x_B) . v_A and dL_DE = -2 (x_D - x_E) . v_E.
    Every cluster of the stack is checked at once, with one stacked SVD of
    the (T, 7, 8) constraint Jacobians.
    """
    pts = clusters.points
    d = 2 * (pts[:, _FIXED_U] - pts[:, _FIXED_W])
    J = np.zeros((len(pts), len(_FIXED_PAIRS), 8))
    for vertex, cols in ((A, slice(0, 4)), (E, slice(4, 8))):
        J[:, _FIXED_U == vertex, cols] += d[:, _FIXED_U == vertex]
        J[:, _FIXED_W == vertex, cols] -= d[:, _FIXED_W == vertex]
    _, svals, Vh = np.linalg.svd(J)
    # 7 constraints on 8 coordinates: a unique flat direction needs full rank
    _raise_for_first(svals[:, -1] < 1e-10 * svals[:, 0], "constraint Jacobian is rank deficient")
    v = Vh[:, -1]
    dAB = _dot(2 * (pts[:, A] - pts[:, B]), v[:, 0:4])
    dDE = _dot(-2 * (pts[:, D] - pts[:, E]), v[:, 4:8])
    _raise_for_first(
        np.abs(dAB) < 1e-14 * np.maximum(np.abs(dDE), 1.0),
        "flat family does not move the AB length",
    )
    ratio = dDE / dAB
    V = clusters.hat_volumes
    predicted = -V[:, A] * V[:, B] / (V[:, D] * V[:, E])
    return TwoEdgeCheck(
        ratio=ratio,
        predicted=predicted,
        residual=np.abs(ratio - predicted) / np.abs(predicted),
    )


@dataclass(frozen=True)
class SixTermCheck:
    """Volume-weighted gradient identity between the two cluster deficits, (T,) per field."""

    residual: np.ndarray  # max component mismatch, relative
    cosine: np.ndarray  # |cos| of the two 15-component gradients
    ratio_residual: np.ndarray  # gradient-component ratio vs volume products


def check_6term(clusters):
    """The volume-weighted gradient identity on every cluster of the stack."""
    gA, gD = clusters.gradients[:, 0], clusters.gradients[:, 1]
    V, S = clusters.hat_volumes, clusters.areas
    lhs = (V[:, D] * (-V[:, E]) * V[:, F] / S[:, 0])[:, None] * gA
    rhs = (V[:, A] * (-V[:, B]) * V[:, C] / S[:, 1])[:, None] * gD
    scale = np.maximum(np.abs(lhs).max(axis=1), np.abs(rhs).max(axis=1))
    residual = np.abs(lhs - rhs).max(axis=1) / scale

    # |gA| is sqrt(gA . gA), as np.linalg.norm takes it
    cosine = np.abs(_dot(gA, gD) / (np.sqrt(_dot(gA, gA)) * np.sqrt(_dot(gD, gD))))

    ratio = gA[:, _AB] / gA[:, _DE]
    predicted = V[:, A] * V[:, B] / (V[:, D] * V[:, E])
    ratio_residual = np.abs(ratio - predicted) / np.abs(predicted)
    return SixTermCheck(residual=residual, cosine=cosine, ratio_residual=ratio_residual)


def random_simplices(seeds):
    """(T, 5, 4) unit-ball 4-simplices above the sampler's quality floor, one per seed."""
    return geometry.unit_ball_placement(seeds, 5, [range(5)])


class TrialDraws:
    """The trial seeds of one (trials, seed) pair and what they draw.

    simplices is the (T, 5, 4) stack of random_simplices of the T trial
    seeds, tables their squared-length tables, face_areas their (T, 10)
    face areas and directions their (T, 5, 5) Schlafli deformation
    directions (_trial_direction); clusters is the one ClusterSix of
    random_clusters over the same seeds.  Each is computed on first use
    and kept only as long as this object.  Every battery reads the
    TrialDraws it is given; run_all_batteries makes one per call and hands
    it to every battery, so each is computed once per call.
    """

    def __init__(self, trials, seed):
        self.seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=trials)

    @functools.cached_property
    def simplices(self):
        return random_simplices(self.seeds)

    @functools.cached_property
    def tables(self):
        return geometry.squared_length_table(self.simplices)

    @functools.cached_property
    def face_areas(self):
        return _face_areas(self.tables)

    @functools.cached_property
    def directions(self):
        return np.array([_trial_direction(s) for s in self.seeds]).reshape(-1, 5, 5)

    @functools.cached_property
    def clusters(self):
        return random_clusters(self.seeds)


def central_difference(fn, L, direction):
    """Derivative of fn at the (..., 5, 5) stack of tables L along direction.

    direction broadcasts against L.  Each table takes its own step,
    FD_REL_STEP * max(L) of that table, and one at half of it, combined by
    one Richardson extrapolation level.  fn maps a stack of tables to one
    (..., k) row each and is called once, on the (4, ...) stencil, so each
    table's derivative is bitwise the one it gets alone.  This is the one
    finite-difference oracle of the package; the library itself never
    differentiates numerically.
    """
    L = np.broadcast_to(L, np.broadcast_shapes(L.shape, np.shape(direction)))
    h = FD_REL_STEP * L.max(axis=(-2, -1))[..., None]
    steps = np.array([h / 2, -h / 2, h, -h])[..., None]
    values = np.asarray(fn(L + steps * direction))
    half = (values[0] - values[1]) / (2 * (h / 2))
    full = (values[2] - values[3]) / (2 * h)
    return (4 * half - full) / 3


def signed_angles(L, eps):
    """The ten signed dihedral angles of a length table (or stack), FACES5 order."""
    return eps * geometry.dihedral_angles_from_lengths(L)


# (10, 5, 5) unit perturbations of each squared length, EDGES5 order
_EDGE_DIRECTIONS = np.zeros((10, 5, 5))
_EDGE_DIRECTIONS[range(10), geometry.EDGE_I, geometry.EDGE_J] = 1.0
_EDGE_DIRECTIONS[range(10), geometry.EDGE_J, geometry.EDGE_I] = 1.0
_EDGE_DIRECTIONS.flags.writeable = False


def fd_dtheta_dL(L, eps):
    """(..., 10, 10) oracle of the signed dihedral-angle derivatives by length.

    L is a table or a (T, 5, 5) stack, eps its sign or (T,) signs.  All 40
    stencil tables (ten edges, four steps) of each table are embedded in one call.
    """
    eps = np.asarray(eps)[..., None, None]
    dtheta = central_difference(
        lambda T: signed_angles(T, eps), L[..., None, :, :], _EDGE_DIRECTIONS
    )
    return dtheta.swapaxes(-1, -2)


def _result(name, draws, tol, residuals, failed=None, extras=None):
    """The BatteryResult of one residual per trial of draws.

    max_residual is the largest residual (0.0 when there is none); a trial
    fails where its residual is above tol, or where failed, when given, says.
    """
    residuals = np.asarray(residuals, dtype=float)
    if failed is None:
        failed = residuals > tol
    return BatteryResult(
        name, len(draws.seeds), float(residuals.max(initial=0.0)),
        int(np.count_nonzero(failed)), extras or {},
    )


def _face_areas(L):
    """(T, 10) face areas of a (T, 5, 5) stack, FACES5 order: one triangle_areas call."""
    return triangle_areas(L[:, geometry.EDGE_I, geometry.EDGE_J], geometry.FACE_EDGES5,
                          geometry.FACES5)


def battery_opposite_edge_derivative(draws, tol=DEFAULT_TOL):
    """Angle-by-opposite-length derivative against area over 24 volumes.

    For points A..E with only the squared length AE varying, the signed
    dihedral angle at BCD satisfies 24 dtheta/dL = S_BCD / V_ABCDE.  The
    oracle gives that entry; the whole closed-form block is checked against
    the oracle as well, relative to its largest entry.
    """
    L = draws.tables
    V, _ = geometry.cell_volumes(draws.simplices, geometry.DEGENERACY_REL)
    eps = np.where(V > 0, 1, -1)
    face = geometry.FACE_INDEX5[(1, 2, 3)]
    oracle = fd_dtheta_dL(L, eps)
    target = draws.face_areas[:, face] / V
    d = oracle[:, face, geometry.EDGE_INDEX5[(0, 4)]]
    closed_form = np.abs(24.0 * d - target) / np.abs(target)
    block = (np.abs(dtheta_dL_blocks(L, eps) - oracle).max(axis=(1, 2))
             / np.abs(oracle).max(axis=(1, 2)))
    return _result("opposite_edge_derivative", draws, tol, np.maximum(closed_form, block))


def _trial_direction(seed):
    """The Schlafli batteries' deformation direction for one trial seed.

    Ten standard normals in EDGES5 order, scaled to a largest |entry| of 1,
    drawn from the child stream [seed, 1], not from seed itself, which
    random_simplices reads for the placement.
    """
    d = np.zeros((5, 5))
    i, j = geometry.EDGE_I, geometry.EDGE_J
    d[i, j] = d[j, i] = np.random.default_rng([seed, 1]).standard_normal(10)
    return d / np.abs(d).max()


def _schlafli_residuals(fn, weights, draws):
    """|sum weights * dfn| / sum |weights * dfn| of each trial, along its direction.

    weights is the (T, 10) stack of each trial's weights.
    """
    terms = weights * central_difference(fn, draws.tables, draws.directions)
    return np.abs(terms.sum(axis=1)) / np.abs(terms).sum(axis=1)


def battery_schlafli(draws, tol=DEFAULT_TOL):
    """Area-weighted angle differentials sum to zero for any deformation."""
    residuals = _schlafli_residuals(lambda T: signed_angles(T, +1), draws.face_areas, draws)
    return _result("schlafli", draws, tol, residuals)


def battery_modified_schlafli(draws, tol=DEFAULT_TOL):
    """Length-weighted edge-angle differentials sum to zero as well.

    Follows from the face areas being homogeneous of degree one in the
    squared lengths together with the plain area-weighted identity.
    """
    residuals = _schlafli_residuals(
        lambda T: geometry.edge_angle_thetas(T, +1),
        draws.tables[:, geometry.EDGE_I, geometry.EDGE_J], draws,
    )
    return _result("modified_schlafli", draws, tol, residuals)


def battery_two_edge_ratio(draws, tol=DEFAULT_TOL):
    """Constrained two-length derivative against the volume-product ratio."""
    return _result("two_edge_ratio", draws, tol, check_basic2(draws.clusters).residual)


def battery_six_term(draws, tol=DEFAULT_TOL):
    """Full gradient form of the six-volume relation plus parallelism."""
    chk = check_6term(draws.clusters)
    failed = (
        (chk.residual > tol) | (chk.cosine < 1 - PARALLEL_COS_TOL) | (chk.ratio_residual > tol)
    )
    extras = {
        "min_cosine": float(chk.cosine.min(initial=1.0)),
        "max_ratio_residual": float(chk.ratio_residual.max(initial=0.0)),
    }
    return _result("six_term", draws, tol, chk.residual, failed, extras)


def battery_cluster_closed_forms(draws, tol=DEFAULT_TOL):
    """Assembled deficit/length entries against the closed volume-ratio forms.

    On the cluster around ABC the (ABC, AB) entry must equal
    -(S_ABC/24) V_hatA V_hatB / (V_hatD V_hatE V_hatF); the mirrored statement
    holds for (DEF, DE) on the replacement cluster.  The entries are those
    of ClusterSix.gradients.
    """
    clusters = draws.clusters
    V, S, grads = clusters.hat_volumes, clusters.areas, clusters.gradients

    got1 = grads[:, 0, _AB]
    want1 = -(S[:, 0] / 24.0) * V[:, A] * V[:, B] / (V[:, D] * V[:, E] * V[:, F])
    r1 = np.abs(got1 - want1) / np.abs(want1)

    got2 = grads[:, 1, _DE]
    want2 = -(S[:, 1] / 24.0) * V[:, D] * V[:, E] / (V[:, A] * V[:, B] * V[:, C])
    r2 = np.abs(got2 - want2) / np.abs(want2)
    return _result("cluster_closed_forms", draws, tol, np.maximum(r1, r2))


ALL_BATTERIES = (
    battery_opposite_edge_derivative,
    battery_two_edge_ratio,
    battery_six_term,
    battery_schlafli,
    battery_modified_schlafli,
    battery_cluster_closed_forms,
)


def run_all_batteries(trials=100, seed=0, tol=DEFAULT_TOL):
    """Every battery over one TrialDraws: each trial's simplex and cluster are drawn once."""
    draws = TrialDraws(trials, seed)
    return [battery(draws, tol) for battery in ALL_BATTERIES]
