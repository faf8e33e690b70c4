"""The six-point cluster and randomized batteries for the differential identities.

The cluster is six labelled points A..F in R^4 (indices 0..5).  The three
4-simplices around ABC and the three around DEF are the two sides of a
3->3 move; glued along their common boundary they make the boundary of
the 5-simplex on A..F.  ClusterSix realizes that one complex and reads
each side at the row of its central triangle (SIDES).  check_basic2 and
check_6term test the paper's volume-product relations on a cluster.

Each battery draws seed-deterministic configurations, evaluates one identity
and reports the worst relative residual.  The library computes every angle
derivative in closed form (jacobians.dtheta_dL_blocks); the batteries check
those blocks against closed-form identities and against one independent
oracle, central_difference, which differentiates the dihedral angles of
the coordinate route (geometry.dihedral_angles_from_lengths, (..., 10)
arrays in FACES5 order).  It runs with one Richardson extrapolation level
so that truncation stays far below the tolerances even for moderately thin
simplices.  It steps each table of a stack by its own largest entry and
embeds every stencil table in one call.  The simplex batteries
(opposite_edge_derivative, schlafli, modified_schlafli) evaluate the
stack of all trials at once, each trial's residual bitwise the one it
gets alone.  The cluster batteries (two_edge_ratio, six_term,
cluster_closed_forms) read a ClusterSix per trial, whose deficits,
gradients and areas are rows of the same global assembly the invariant
runs.  Every battery takes the TrialDraws that holds its trial
configurations and reports through one result helper; run_all_batteries
draws each trial's simplex and cluster once and every battery reads that
draw.
"""
from __future__ import annotations

import functools
from dataclasses import astuple, dataclass, field

import numpy as np

from . import geometry
from .complexes import boundary_delta5
from .errors import DegenerateSimplexError
from .flatmetric import FLATNESS_TOL, FlatMetric, deficit_omega, realize, triangle_areas
from .jacobians import assemble_domega_dL, dtheta_dL_blocks

DEFAULT_TOL = 1e-6
PARALLEL_COS_TOL = 1e-10

# The step of central_difference is FD_REL_STEP * max(L).
FD_REL_STEP = 1e-5


@dataclass(frozen=True)
class BatteryResult:
    name: str
    trials: int
    tol: float
    max_residual: float
    failures: int
    extras: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.failures == 0


A, B, C, D, E, F = range(6)

_DELTA5 = boundary_delta5()
CLUSTER_EDGES = _DELTA5.faces[1]
CLUSTER_EDGE_INDEX = _DELTA5.face_index[1]
# side -> (row of its central triangle, sign of the side's orientation in the boundary)
SIDES = {
    "abc": (_DELTA5.face_index[2][(A, B, C)], -1),
    "def": (_DELTA5.face_index[2][(D, E, F)], 1),
}
# cell n omits point n; its stored sign turns its volume into the ascending hat's
_HAT_SIGNS = np.array([sign for _, sign in _DELTA5.simplices])


@dataclass(frozen=True)
class ClusterSix:
    """Six points whose 5-simplex boundary is nondegenerate and flat at ABC and DEF.

    hat_volumes[x] is the signed volume of the five points other than x in
    ascending order.  metric is the FlatMetric of the boundary of the
    5-simplex; the deficit, its gradient and the area at each side's
    central triangle are read at that triangle's row, times the side's
    sign (SIDES).  The deficits and the gradients of both sides are
    computed once, over the six cells, and the gradients handed out
    read-only.
    """

    points: np.ndarray  # (6, 4)
    hat_volumes: np.ndarray = field(init=False, repr=False, compare=False)  # (6,)
    metric: FlatMetric = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (6, 4):
            raise ValueError("cluster needs 6 points in R^4")
        object.__setattr__(self, "points", pts)
        m = realize(_DELTA5, dict(enumerate(pts)))
        object.__setattr__(self, "metric", m)
        object.__setattr__(self, "hat_volumes", m.V * _HAT_SIGNS)
        for side in SIDES:
            if abs(self.omega_value(side)) > FLATNESS_TOL:
                raise DegenerateSimplexError(
                    "cluster angle sum does not close up; placement is not flat"
                )

    @functools.cached_property
    def _omegas(self):
        return deficit_omega(_DELTA5, self.metric)

    def omega_value(self, side):
        """Deficit at the central triangle of side "abc" or "def", in (-pi, pi]."""
        row, sign = SIDES[side]
        return float(sign * self._omegas[row])

    @functools.cached_property
    def _gradients(self):
        M = assemble_domega_dL(_DELTA5, self.metric)
        out = {}
        for side, (row, sign) in SIDES.items():
            out[side] = sign * M[row]
            out[side].flags.writeable = False
        return out

    def omega_gradient(self, side):
        """(15,) gradient of that deficit over the squared lengths, CLUSTER_EDGES order."""
        return self._gradients[side]

    def area(self, side):
        """Area of the central triangle of side "abc" or "def"."""
        row, _ = SIDES[side]
        return float(self.metric.S[row])


def random_cluster(seed):
    """Seed-deterministic six unit-ball points, every 5-subset nondegenerate."""
    cells = [verts for verts, _ in _DELTA5.simplices]
    return ClusterSix(geometry.unit_ball_placement(seed, 6, cells))


@dataclass(frozen=True)
class TwoEdgeCheck:
    """Constrained derivative of one squared length against another."""

    ratio: float  # dL_DE / dL_AB along the flat one-parameter family
    predicted: float  # -V_hatA V_hatB / (V_hatD V_hatE)
    residual: float


def check_basic2(cluster):
    """Move A and E only, keeping every squared length but AB and DE fixed.

    The placements stay flat by construction, so the measured dL_DE/dL_AB
    must equal minus the volume-product ratio.  Squared lengths are
    quadratic along the family, so both derivatives are exact:
    dL_AB = 2 (x_A - x_B) . v_A and dL_DE = -2 (x_D - x_E) . v_E.
    """
    pts = cluster.points
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
    # 7 constraints on 8 coordinates: a unique flat direction needs full rank
    if svals[-1] < 1e-10 * svals[0]:
        raise DegenerateSimplexError("constraint Jacobian is rank deficient")
    v = Vh[-1]
    dAB = 2 * (pts[A] - pts[B]) @ v[0:4]
    dDE = -2 * (pts[D] - pts[E]) @ v[4:8]
    if abs(dAB) < 1e-14 * max(abs(dDE), 1.0):
        raise DegenerateSimplexError("flat family does not move the AB length")
    ratio = dDE / dAB
    V = cluster.hat_volumes
    predicted = -V[A] * V[B] / (V[D] * V[E])
    return TwoEdgeCheck(
        ratio=ratio,
        predicted=predicted,
        residual=abs(ratio - predicted) / abs(predicted),
    )


@dataclass(frozen=True)
class SixTermCheck:
    """Volume-weighted gradient identity between the two cluster deficits."""

    residual: float  # max component mismatch, relative
    cosine: float  # |cos| of the two 15-component gradients
    ratio_residual: float  # gradient-component ratio vs volume products


def check_6term(cluster):
    gA = cluster.omega_gradient("abc")
    gD = cluster.omega_gradient("def")

    V = cluster.hat_volumes
    lhs = V[D] * (-V[E]) * V[F] / cluster.area("abc") * gA
    rhs = V[A] * (-V[B]) * V[C] / cluster.area("def") * gD
    scale = max(np.abs(lhs).max(), np.abs(rhs).max())
    residual = float(np.abs(lhs - rhs).max() / scale)

    cosine = abs(float(gA @ gD / (np.linalg.norm(gA) * np.linalg.norm(gD))))

    ratio = gA[CLUSTER_EDGE_INDEX[(A, B)]] / gA[CLUSTER_EDGE_INDEX[(D, E)]]
    predicted = V[A] * V[B] / (V[D] * V[E])
    ratio_residual = float(abs(ratio - predicted) / abs(predicted))
    return SixTermCheck(residual=residual, cosine=cosine, ratio_residual=ratio_residual)


def random_simplex_points(seed):
    """Five unit-ball points forming a 4-simplex above the sampler's quality floor."""
    return geometry.unit_ball_placement(seed, 5, [range(5)])


class TrialDraws:
    """The trial seeds of one (trials, seed) pair and what they draw.

    simplices is the (T, 5, 4) stack of random_simplex_points and clusters
    the list of random_cluster of the T trial seeds.  Each is drawn on
    first use and kept only as long as this object.  Every battery reads the TrialDraws it is given;
    run_all_batteries makes one per call and hands it to every battery, so
    each simplex and each cluster is drawn once per call.
    """

    def __init__(self, trials, seed):
        self.seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=trials)

    @functools.cached_property
    def simplices(self):
        return np.array([random_simplex_points(s) for s in self.seeds]).reshape(-1, 5, 4)

    @functools.cached_property
    def clusters(self):
        return [random_cluster(s) for s in self.seeds]


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
        name, len(draws.seeds), tol, float(residuals.max(initial=0.0)),
        int(np.count_nonzero(failed)), extras or {},
    )


def _face_areas(L):
    """(T, 10) face areas of a (T, 5, 5) stack, FACES5 order: one triangle_areas batch."""
    edges = geometry.FACE_EDGES5 + 10 * np.arange(len(L))[:, None, None]
    Lv = L[:, geometry.EDGE_I, geometry.EDGE_J].ravel()
    return triangle_areas(Lv, edges.reshape(-1, 3), geometry.FACES5 * len(L)).reshape(-1, 10)


def battery_opposite_edge_derivative(draws, tol=DEFAULT_TOL):
    """Angle-by-opposite-length derivative against area over 24 volumes.

    For points A..E with only the squared length AE varying, the signed
    dihedral angle at BCD satisfies 24 dtheta/dL = S_BCD / V_ABCDE.  The
    oracle gives that entry; the whole closed-form block is checked against
    the oracle as well, relative to its largest entry.
    """
    L = geometry.squared_length_table(draws.simplices)
    V, _ = geometry.cell_volumes(draws.simplices, geometry.DEGENERACY_REL)
    eps = np.where(V > 0, 1, -1)
    face = geometry.FACE_INDEX5[(1, 2, 3)]
    oracle = fd_dtheta_dL(L, eps)
    target = _face_areas(L)[:, face] / V
    d = oracle[:, face, geometry.EDGE_INDEX5[(0, 4)]]
    closed_form = np.abs(24.0 * d - target) / np.abs(target)
    block = (np.abs(dtheta_dL_blocks(L, eps) - oracle).max(axis=(1, 2))
             / np.abs(oracle).max(axis=(1, 2)))
    return _result("opposite_edge_derivative", draws, tol, np.maximum(closed_form, block))


def _random_direction(rng):
    d = np.zeros((5, 5))
    i, j = geometry.EDGE_I, geometry.EDGE_J
    d[i, j] = d[j, i] = rng.standard_normal(10)
    return d / np.abs(d).max()


def _trial_direction(seed):
    """The Schlafli batteries' deformation direction for one trial seed.

    Drawn from the child stream [seed, 1], not from seed itself, which
    random_simplex_points reads for the placement.
    """
    return _random_direction(np.random.default_rng([seed, 1]))


def _schlafli_residuals(fn, weights, draws):
    """|sum weights(L) * dfn| / sum |weights(L) * dfn| of each trial, along its direction."""
    L = geometry.squared_length_table(draws.simplices)
    directions = np.array([_trial_direction(s) for s in draws.seeds]).reshape(-1, 5, 5)
    terms = weights(L) * central_difference(fn, L, directions)
    return np.abs(terms.sum(axis=1)) / np.abs(terms).sum(axis=1)


def battery_schlafli(draws, tol=DEFAULT_TOL):
    """Area-weighted angle differentials sum to zero for any deformation."""
    residuals = _schlafli_residuals(lambda T: signed_angles(T, +1), _face_areas, draws)
    return _result("schlafli", draws, tol, residuals)


def battery_modified_schlafli(draws, tol=DEFAULT_TOL):
    """Length-weighted edge-angle differentials sum to zero as well.

    Follows from the face areas being homogeneous of degree one in the
    squared lengths together with the plain area-weighted identity.
    """
    residuals = _schlafli_residuals(
        lambda T: geometry.edge_angle_thetas(T, +1),
        lambda L: L[:, geometry.EDGE_I, geometry.EDGE_J], draws,
    )
    return _result("modified_schlafli", draws, tol, residuals)


def battery_two_edge_ratio(draws, tol=DEFAULT_TOL):
    """Constrained two-length derivative against the volume-product ratio."""
    residuals = [check_basic2(cluster).residual for cluster in draws.clusters]
    return _result("two_edge_ratio", draws, tol, residuals)


def battery_six_term(draws, tol=DEFAULT_TOL):
    """Full gradient form of the six-volume relation plus parallelism."""
    checks = [astuple(check_6term(cluster)) for cluster in draws.clusters]
    residual, cosine, ratio = np.array(checks).reshape(-1, 3).T
    failed = (residual > tol) | (cosine < 1 - PARALLEL_COS_TOL) | (ratio > tol)
    extras = {
        "min_cosine": float(cosine.min(initial=1.0)),
        "max_ratio_residual": float(ratio.max(initial=0.0)),
    }
    return _result("six_term", draws, tol, residual, failed, extras)


def battery_cluster_closed_forms(draws, tol=DEFAULT_TOL):
    """Assembled deficit/length entries against the closed volume-ratio forms.

    On the cluster around ABC the (ABC, AB) entry must equal
    -(S_ABC/24) V_hatA V_hatB / (V_hatD V_hatE V_hatF); the mirrored statement
    holds for (DEF, DE) on the replacement cluster.  The entries are the
    assembled rows that ClusterSix.omega_gradient reads.
    """
    residuals = []
    for cluster in draws.clusters:
        V = cluster.hat_volumes

        got1 = cluster.omega_gradient("abc")[CLUSTER_EDGE_INDEX[(0, 1)]]
        want1 = -(cluster.area("abc") / 24.0) * V[0] * V[1] / (V[3] * V[4] * V[5])
        r1 = abs(got1 - want1) / abs(want1)

        got2 = cluster.omega_gradient("def")[CLUSTER_EDGE_INDEX[(3, 4)]]
        want2 = -(cluster.area("def") / 24.0) * V[3] * V[4] / (V[0] * V[1] * V[2])
        r2 = abs(got2 - want2) / abs(want2)

        residuals.append(max(r1, r2))
    return _result("cluster_closed_forms", draws, tol, residuals)


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
