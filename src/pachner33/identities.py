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
simplices, and evaluates its four stencil tables per direction as one
stack: fd_dtheta_dL embeds all 40 tables of its ten edge directions in one
call.  The cluster batteries (two_edge_ratio, six_term,
cluster_closed_forms) read a ClusterSix per trial, whose deficits,
gradients and areas are rows of the same global assembly the invariant
runs.  The trial configurations live in a TrialDraws: run_all_batteries
draws each trial's simplex and cluster once and every battery reads that
draw; a battery called alone draws its own.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .complexes import boundary_delta5
from .errors import DegenerateSimplexError
from .flatmetric import FLATNESS_TOL, FlatMetric, deficit_omega, realize, triangle_areas
from .jacobians import assemble_domega_dL, dtheta_dL_simplex

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


def _trial_seeds(seed, trials):
    return np.random.default_rng(seed).integers(0, 2**63 - 1, size=trials)


class TrialDraws:
    """The trial seeds of one (trials, seed) pair and what they draw.

    simplices holds random_simplex_points and clusters random_cluster of
    each trial seed.  Each list is drawn on first use and kept only as long
    as this object: run_all_batteries makes one per call and hands it to
    every battery as draws=, so each simplex and each cluster is drawn once
    per call.  A battery called without draws makes its own.
    """

    def __init__(self, trials, seed):
        self.seeds = _trial_seeds(seed, trials)

    @functools.cached_property
    def simplices(self):
        return [random_simplex_points(s) for s in self.seeds]

    @functools.cached_property
    def clusters(self):
        return [random_cluster(s) for s in self.seeds]


def central_difference(fn, L, direction):
    """Derivative of fn at the squared-length table L along direction.

    Central differences at the step FD_REL_STEP * max(L) and at half of it,
    combined by one Richardson extrapolation level.  direction is one (5, 5)
    table or a (..., 5, 5) stack of them; fn takes a stack of tables and is
    called once, on the (4, ..., 5, 5) stencil of every direction.  This is
    the one finite-difference oracle of the package; the library itself
    never differentiates numerically.
    """
    h = FD_REL_STEP * float(L.max())
    steps = np.array([h / 2, -h / 2, h, -h]).reshape((4,) + (1,) * np.ndim(direction))
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
    """(10, 10) oracle of the signed dihedral-angle derivatives by length.

    All 40 stencil tables (ten edges, four steps) are embedded in one call.
    """
    return central_difference(lambda T: signed_angles(T, eps), L, _EDGE_DIRECTIONS).T


def battery_opposite_edge_derivative(trials=100, seed=0, tol=DEFAULT_TOL, draws=None):
    """Angle-by-opposite-length derivative against area over 24 volumes.

    For points A..E with only the squared length AE varying, the signed
    dihedral angle at BCD satisfies 24 dtheta/dL = S_BCD / V_ABCDE.  The
    oracle gives that entry; the whole closed-form block is checked against
    the oracle as well, relative to its largest entry.
    """
    worst, failures = 0.0, 0
    for pts in (draws or TrialDraws(trials, seed)).simplices:
        V = geometry.signed_volume4(pts)
        eps = 1 if V > 0 else -1
        L = geometry.squared_length_table(pts)
        face, edge = (1, 2, 3), (0, 4)
        S = geometry.face_area(L, face)
        oracle = fd_dtheta_dL(L, eps)
        d = oracle[geometry.FACE_INDEX5[face], geometry.EDGE_INDEX5[edge]]
        target = S / V
        closed_form = abs(24.0 * d - target) / abs(target)
        block = np.abs(dtheta_dL_simplex(L, eps) - oracle).max() / np.abs(oracle).max()
        residual = max(closed_form, block)
        worst = max(worst, float(residual))
        failures += int(residual > tol)
    return BatteryResult("opposite_edge_derivative", trials, tol, worst, failures)


def _random_direction(rng):
    d = np.zeros((5, 5))
    for i, j in geometry.EDGES5:
        d[i, j] = d[j, i] = rng.standard_normal()
    return d / np.abs(d).max()


def _trial_direction(seed):
    """The Schlafli batteries' deformation direction for one trial seed.

    Drawn from the child stream [seed, 1], not from seed itself, which
    random_simplex_points reads for the placement.
    """
    return _random_direction(np.random.default_rng([seed, 1]))


def battery_schlafli(trials=100, seed=0, tol=DEFAULT_TOL, draws=None):
    """Area-weighted angle differentials sum to zero for any deformation."""
    worst, failures = 0.0, 0
    draws = draws or TrialDraws(trials, seed)
    for s, pts in zip(draws.seeds, draws.simplices):
        L = geometry.squared_length_table(pts)
        direction = _trial_direction(s)
        dtheta = central_difference(lambda T: signed_angles(T, +1), L, direction)
        areas = triangle_areas(
            L[geometry.EDGE_I, geometry.EDGE_J], geometry.FACE_EDGES5, geometry.FACES5
        )
        terms = areas * dtheta
        residual = abs(terms.sum()) / np.abs(terms).sum()
        worst = max(worst, float(residual))
        failures += int(residual > tol)
    return BatteryResult("schlafli", trials, tol, worst, failures)


def battery_modified_schlafli(trials=100, seed=0, tol=DEFAULT_TOL, draws=None):
    """Length-weighted edge-angle differentials sum to zero as well.

    Follows from the face areas being homogeneous of degree one in the
    squared lengths together with the plain area-weighted identity.
    """
    worst, failures = 0.0, 0
    draws = draws or TrialDraws(trials, seed)
    for s, pts in zip(draws.seeds, draws.simplices):
        L = geometry.squared_length_table(pts)
        direction = _trial_direction(s)
        dTheta = central_difference(lambda T: geometry.edge_angle_thetas(T, +1), L, direction)
        terms = L[geometry.EDGE_I, geometry.EDGE_J] * dTheta
        residual = abs(terms.sum()) / np.abs(terms).sum()
        worst = max(worst, float(residual))
        failures += int(residual > tol)
    return BatteryResult("modified_schlafli", trials, tol, worst, failures)


def battery_two_edge_ratio(trials=100, seed=0, tol=DEFAULT_TOL, draws=None):
    """Constrained two-length derivative against the volume-product ratio."""
    worst, failures = 0.0, 0
    for cluster in (draws or TrialDraws(trials, seed)).clusters:
        res = check_basic2(cluster).residual
        worst = max(worst, float(res))
        failures += int(res > tol)
    return BatteryResult("two_edge_ratio", trials, tol, worst, failures)


def battery_six_term(trials=100, seed=0, tol=DEFAULT_TOL, draws=None):
    """Full gradient form of the six-volume relation plus parallelism."""
    worst, worst_cos, worst_ratio, failures = 0.0, 1.0, 0.0, 0
    for cluster in (draws or TrialDraws(trials, seed)).clusters:
        chk = check_6term(cluster)
        worst = max(worst, float(chk.residual))
        worst_cos = min(worst_cos, float(chk.cosine))
        worst_ratio = max(worst_ratio, float(chk.ratio_residual))
        failures += int(
            (chk.residual > tol)
            or (chk.cosine < 1 - PARALLEL_COS_TOL)
            or (chk.ratio_residual > tol)
        )
    return BatteryResult(
        "six_term",
        trials,
        tol,
        worst,
        failures,
        extras={"min_cosine": worst_cos, "max_ratio_residual": worst_ratio},
    )


def battery_cluster_closed_forms(trials=100, seed=0, tol=DEFAULT_TOL, draws=None):
    """Assembled deficit/length entries against the closed volume-ratio forms.

    On the cluster around ABC the (ABC, AB) entry must equal
    -(S_ABC/24) V_hatA V_hatB / (V_hatD V_hatE V_hatF); the mirrored statement
    holds for (DEF, DE) on the replacement cluster.  The entries are the
    assembled rows that ClusterSix.omega_gradient reads.
    """
    worst, failures = 0.0, 0
    for cluster in (draws or TrialDraws(trials, seed)).clusters:
        V = cluster.hat_volumes

        got1 = cluster.omega_gradient("abc")[CLUSTER_EDGE_INDEX[(0, 1)]]
        want1 = -(cluster.area("abc") / 24.0) * V[0] * V[1] / (V[3] * V[4] * V[5])
        r1 = abs(got1 - want1) / abs(want1)

        got2 = cluster.omega_gradient("def")[CLUSTER_EDGE_INDEX[(3, 4)]]
        want2 = -(cluster.area("def") / 24.0) * V[3] * V[4] / (V[0] * V[1] * V[2])
        r2 = abs(got2 - want2) / abs(want2)

        residual = max(r1, r2)
        worst = max(worst, float(residual))
        failures += int(residual > tol)
    return BatteryResult("cluster_closed_forms", trials, tol, worst, failures)


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
    return [battery(trials=trials, seed=seed, tol=tol, draws=draws) for battery in ALL_BATTERIES]
