"""Randomized batteries for the differential identities.

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
cluster_closed_forms) read an invariants.ClusterSix per trial, whose
deficits, gradients and areas are rows of the same global assembly the
invariant runs.  The trial configurations live in a TrialDraws:
run_all_batteries draws each trial's simplex and cluster once and every
battery reads that draw; a battery called alone draws its own.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .flatmetric import triangle_areas
from .invariants import CLUSTER_EDGE_INDEX, check_6term, check_basic2, random_cluster
from .jacobians import dtheta_dL_simplex

DEFAULT_TOL = 1e-6
PARALLEL_COS_TOL = 1e-10


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


def random_simplex_points(seed, quality=geometry.DEFAULT_QUALITY):
    """Five unit-ball points forming a quality-nondegenerate 4-simplex."""
    return geometry.unit_ball_placement(seed, 5, [range(5)], quality)


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
    h = geometry.FD_REL_STEP * float(L.max())
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


def battery_six_term(
    trials=100, seed=0, tol=DEFAULT_TOL, cos_tol=PARALLEL_COS_TOL, draws=None
):
    """Full gradient form of the six-volume relation plus parallelism."""
    worst, worst_cos, worst_ratio, failures = 0.0, 1.0, 0.0, 0
    for cluster in (draws or TrialDraws(trials, seed)).clusters:
        chk = check_6term(cluster)
        worst = max(worst, float(chk.residual))
        worst_cos = min(worst_cos, float(chk.cosine))
        worst_ratio = max(worst_ratio, float(chk.ratio_residual))
        failures += int(
            (chk.residual > tol)
            or (chk.cosine < 1 - cos_tol)
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
