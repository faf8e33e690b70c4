"""Flat realizations of a complex in R^4 and the derived metric data.

A realization maps vertex ids to points; it induces squared edge lengths L,
triangle areas S, per-simplex signs eps (whether the stored orientation
agrees with the ambient one) and signed volumes V.  Deficit angles come in
two flavours: omega around 2-faces (minus the algebraic sum of dihedral
angles, reduced to (-pi, pi]) and Omega around edges (area-derivative
weighted sums of the per-face deficits).

Around a face of a generic flat placement the raw algebraic angle sum is an
exact multiple of 2*pi but not always zero (folded placements wind), so
omega is reported on the branch vanishing at flat points, and Omega is
assembled from those reduced values; this is the unique branch for which
both vanish identically on flat realizations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .complexes import require_closed_oriented
from .errors import DegenerateSimplexError, Pachner33Error

FLATNESS_TOL = 1e-8

# random_realization resamples until every simplex clears this relative
# volume floor; well above the hard degeneracy threshold so that angle sums
# and angle derivatives keep comfortable accuracy margins.
DEFAULT_QUALITY = 2e-3

_MAX_RESAMPLE = 500


@dataclass(frozen=True)
class FlatMetric:
    """Per-edge, per-face and per-simplex metric data of a realization."""

    L: dict  # edge tuple -> squared length
    S: dict  # triangle tuple -> area
    eps: dict  # simplex id -> +-1
    V: dict  # simplex id -> signed 4-volume

    def simplex_lengths(self, verts):
        """Local (5, 5) squared-length table of one simplex."""
        table = np.zeros((5, 5))
        for i in range(5):
            for j in range(i + 1, 5):
                key = (verts[i], verts[j]) if verts[i] < verts[j] else (verts[j], verts[i])
                table[i, j] = table[j, i] = self.L[key]
        return table

    def with_lengths(self, new_L, c):
        """Same assigned signs, metric recomputed from a new length table."""
        return metric_from_lengths(c, new_L, self.eps)


def _simplex_points(coords, verts):
    return np.stack([coords[v] for v in verts])


def realize(c, coords, allow_boundary=False):
    """FlatMetric induced by a vertex placement.

    Requires a consistently oriented complex, closed unless allow_boundary.
    Raises DegenerateSimplexError naming the first degenerate simplex.
    """
    if allow_boundary:
        if not c.orientation_consistent:
            raise Pachner33Error("realize requires a consistently oriented complex")
    else:
        require_closed_oriented(c)
    missing = [v for v in c.vertices if v not in coords]
    if missing:
        raise Pachner33Error(f"realization lacks coordinates for vertices {missing}")

    L = {}
    for edge in c.faces[1]:
        d = np.asarray(coords[edge[0]], dtype=float) - np.asarray(coords[edge[1]], dtype=float)
        L[edge] = float(d @ d)

    eps = {}
    V = {}
    for sid in range(len(c.simplices)):
        verts, sign = c.simplices[sid]
        pts = _simplex_points(coords, c.oriented_simplex(sid))
        vol = geometry.signed_volume4(pts)
        Ltab = geometry.squared_length_table(pts)
        if abs(vol) < geometry.degeneracy_threshold(Ltab):
            raise DegenerateSimplexError(f"simplex {verts} (id {sid}) is degenerate")
        V[sid] = vol
        eps[sid] = 1 if vol > 0 else -1

    S = {}
    for tri in c.faces[2]:
        sq = geometry.cm_squared_volume(
            2, _pair_table(L, tri)
        )
        if sq <= 0.0:
            raise DegenerateSimplexError(f"triangle {tri} has nonpositive squared area")
        S[tri] = math.sqrt(sq)
    return FlatMetric(L=L, S=S, eps=eps, V=V)


def _pair_table(L, verts):
    n = len(verts)
    T = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            key = (verts[i], verts[j]) if verts[i] < verts[j] else (verts[j], verts[i])
            T[i, j] = T[j, i] = L[key]
    return T


def metric_from_lengths(c, L, eps):
    """Metric data from an edge-length assignment with fixed simplex signs."""
    S = {}
    for tri in c.faces[2]:
        sq = geometry.cm_squared_volume(2, _pair_table(L, tri))
        if sq <= 0.0:
            raise DegenerateSimplexError(f"triangle {tri} has nonpositive squared area")
        S[tri] = math.sqrt(sq)
    V = {}
    for sid in range(len(c.simplices)):
        verts, _ = c.simplices[sid]
        sq = geometry.cm_squared_volume(4, _pair_table(L, verts))
        if sq <= 0.0:
            raise DegenerateSimplexError(f"simplex {verts} is not realizable")
        V[sid] = eps[sid] * math.sqrt(sq)
    return FlatMetric(L=dict(L), S=S, eps=dict(eps), V=V)


def random_realization(c, seed, quality=DEFAULT_QUALITY):
    """Seed-deterministic unit-ball placement with all simplices nondegenerate."""
    rng = np.random.default_rng(seed)
    vids = c.vertices
    for _ in range(_MAX_RESAMPLE):
        raw = rng.standard_normal((len(vids), 4))
        radii = rng.uniform(size=(len(vids), 1)) ** 0.25
        pts = raw / np.linalg.norm(raw, axis=1, keepdims=True) * radii
        coords = {v: pts[n] for n, v in enumerate(vids)}
        ok = True
        for sid in range(len(c.simplices)):
            p = _simplex_points(coords, c.oriented_simplex(sid))
            Ltab = geometry.squared_length_table(p)
            if abs(geometry.signed_volume4(p)) < quality * geometry.mean_edge_length(Ltab) ** 4:
                ok = False
                break
        if ok:
            return coords
    raise DegenerateSimplexError(
        f"could not find a quality-{quality} realization in {_MAX_RESAMPLE} attempts"
    )


def simplex_angle_tables(c, m):
    """Signed dihedral-angle tables of every simplex, keyed by global faces."""
    tables = {}
    for sid in range(len(c.simplices)):
        verts, _ = c.simplices[sid]
        at = geometry.angle_table(m.simplex_lengths(verts), m.eps[sid])
        tables[sid] = {
            tuple(verts[i] for i in local): signed
            for local, signed in at.signed_all().items()
        }
    return tables


def deficit_omega(c, m):
    """Per-face deficit: minus the algebraic dihedral-angle sum, in (-pi, pi]."""
    tables = simplex_angle_tables(c, m)
    omega = {tri: 0.0 for tri in c.faces[2]}
    for sid, table in sorted(tables.items()):
        for tri, signed in table.items():
            omega[tri] -= signed
    return {tri: geometry.reduce_angle(val) for tri, val in omega.items()}


def deficit_Omega(c, m, omega=None):
    """Per-edge deficit: area-derivative weighted sum of the face deficits.

    Equals minus the sum of per-simplex edge angles up to the 2*pi-multiple
    shifts that vanish on the branch chosen for omega; the weights depend
    only on each face's own edge lengths, so they are well defined globally.
    """
    if omega is None:
        omega = deficit_omega(c, m)
    Omega = {edge: 0.0 for edge in c.faces[1]}
    for tri in c.faces[2]:
        for a, b in ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])):
            (cv,) = [v for v in tri if v != a and v != b]
            key_ab = (a, b)
            w = (m.L[_ordered(a, cv)] + m.L[_ordered(b, cv)] - m.L[key_ab]) / (
                16.0 * m.S[tri]
            )
            Omega[key_ab] += w * omega[tri]
    return Omega


def _ordered(u, v):
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class FlatnessReport:
    passed: bool
    max_omega: float
    max_Omega: float
    tol: float
    bad_faces: tuple
    bad_edges: tuple


def check_flat(c, m, tol=FLATNESS_TOL):
    """Max deficit magnitudes against a tolerance, listing offending cells."""
    omega = deficit_omega(c, m)
    Omega = deficit_Omega(c, m, omega)
    max_o = max((abs(v) for v in omega.values()), default=0.0)
    max_O = max((abs(v) for v in Omega.values()), default=0.0)
    bad_faces = tuple(t for t in c.faces[2] if abs(omega[t]) > tol)
    bad_edges = tuple(e for e in c.faces[1] if abs(Omega[e]) > tol)
    return FlatnessReport(
        passed=max_o <= tol and max_O <= tol,
        max_omega=max_o,
        max_Omega=max_O,
        tol=tol,
        bad_faces=bad_faces,
        bad_edges=bad_edges,
    )
