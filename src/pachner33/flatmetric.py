"""Flat realizations of a complex in R^4 and the derived metric data.

A realization maps vertex ids to points; it induces squared edge lengths L,
triangle areas S, per-simplex signs eps (whether the stored orientation
agrees with the ambient one) and signed volumes V.  FlatMetric holds them as
arrays aligned with the complex's face tables, and realize and
metric_from_lengths compute each of them in one batch through the complex's
index arrays (edge ends, triangle edges, simplex vertices and edges).

Deficit angles come in two flavours, each an array aligned with its face
table: omega around 2-faces (minus the algebraic sum of dihedral angles,
reduced to (-pi, pi]) and Omega around edges (area-derivative weighted sums
of the per-face deficits).

Around a face of a generic flat placement the raw algebraic angle sum is an
exact multiple of 2*pi but not always zero (folded placements wind), so
omega is reported on the branch vanishing at flat points, and Omega is
assembled from those reduced values; this is the unique branch for which
both vanish identically on flat realizations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, jacobians
from .complexes import require_closed_oriented
from .errors import DegenerateSimplexError, Pachner33Error

FLATNESS_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FlatMetric:
    """Metric data of a realization, as arrays aligned with the face tables.

    L[e] is the squared length of edge c.faces[1][e], S[t] the area of
    triangle c.faces[2][t], V[n] the signed 4-volume of simplex n of
    c.simplices and eps[n] = +-1 its sign.  Metrics compare by identity.
    """

    L: np.ndarray  # (E,)
    S: np.ndarray  # (F,)
    eps: np.ndarray  # (N,) of int
    V: np.ndarray  # (N,)

    def with_lengths(self, new_L, c):
        """Same assigned signs, metric recomputed from a new (E,) length array."""
        return metric_from_lengths(c, new_L, self.eps)


def triangle_areas(L, triangle_edges, triangles):
    """Areas of triangles from squared lengths L and their (F, 3) edge columns.

    One stacked Cayley-Menger determinant; raises DegenerateSimplexError
    naming the first triangle of `triangles` with nonpositive squared area.
    """
    sq = geometry.cm_squared_volumes(2, L[triangle_edges])
    bad = np.flatnonzero(sq <= 0.0)
    if bad.size:
        raise DegenerateSimplexError(
            f"triangle {triangles[bad[0]]} has nonpositive squared area"
        )
    return np.sqrt(sq)


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

    X = np.array([coords[v] for v in c.vertices], dtype=float).reshape(len(c.vertices), 4)
    d = X[c.edge_ends[:, 0]] - X[c.edge_ends[:, 1]]
    # a stack of 1x4 by 4x1 products rounds exactly like d @ d per edge
    L = np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]

    V, below = geometry.cell_volumes(X[c.simplex_vertices], geometry.DEGENERACY_REL)
    bad = np.flatnonzero(below)
    if bad.size:
        sid = int(bad[0])
        raise DegenerateSimplexError(
            f"simplex {c.simplices[sid][0]} (id {sid}) is degenerate"
        )
    eps = np.where(V > 0, 1, -1)

    S = triangle_areas(L, c.triangle_edges, c.faces[2])
    return FlatMetric(L=L, S=S, eps=eps, V=V)


def metric_from_lengths(c, L, eps):
    """Metric data from an (E,) length array with fixed (N,) simplex signs."""
    L = np.array(L, dtype=float)
    eps = np.array(eps, dtype=int)
    S = triangle_areas(L, c.triangle_edges, c.faces[2])
    sq = geometry.cm_squared_volumes(4, L[c.simplex_edges])
    bad = np.flatnonzero(sq <= 0.0)
    if bad.size:
        raise DegenerateSimplexError(
            f"simplex {c.simplices[int(bad[0])][0]} is not realizable"
        )
    return FlatMetric(L=L, S=S, eps=eps, V=eps * np.sqrt(sq))


def random_realization(c, seed):
    """Seed-deterministic unit-ball placement with no simplex below DEFAULT_QUALITY."""
    pts = geometry.unit_ball_placement(seed, len(c.vertices), c.simplex_vertices)
    return {v: pts[n] for n, v in enumerate(c.vertices)}


def deficit_omega(c, m):
    """(F,) per-face deficits, aligned with c.faces[2]: minus the algebraic
    dihedral-angle sum, in (-pi, pi].

    The dihedral angles of all simplices come from one batch
    (jacobians.dihedral_angles_batch) and are summed into the faces through
    the complex's (N, 10) face rows.
    """
    theta = jacobians.dihedral_angles_batch(jacobians.length_tables(m.L, c.simplex_edges))
    omega = np.zeros(len(c.faces[2]))
    np.add.at(omega, c.simplex_faces, -m.eps[:, None] * theta)
    # reduce_angle is the identity on (-pi, pi)
    wound = np.flatnonzero(np.abs(omega) >= np.pi)
    omega[wound] = [geometry.reduce_angle(x) for x in omega[wound].tolist()]
    return omega


def deficit_Omega(c, m, omega=None):
    """(E,) per-edge deficits, aligned with c.faces[1]: the area-derivative
    weighted sum of the face deficits.

    Omega = (dS/dL) omega with the weights of jacobians.area_length_weights,
    from this metric's own geometry.dS_dL_blocks.
    Equals minus the sum of per-simplex edge angles up to the 2*pi-multiple
    shifts that vanish on the branch chosen for omega; the weights depend
    only on each face's own edge lengths, so they are well defined globally.
    """
    if omega is None:
        omega = deficit_omega(c, m)
    dS_dL = geometry.dS_dL_blocks(jacobians.length_tables(m.L, c.simplex_edges))
    return jacobians.area_length_weights(c, dS_dL) @ omega


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
    abs_o, abs_O = np.abs(omega), np.abs(deficit_Omega(c, m, omega))
    max_o, max_O = float(abs_o.max(initial=0.0)), float(abs_O.max(initial=0.0))
    bad_faces = tuple(c.faces[2][i] for i in np.flatnonzero(abs_o > tol))
    bad_edges = tuple(c.faces[1][i] for i in np.flatnonzero(abs_O > tol))
    return FlatnessReport(
        passed=max_o <= tol and max_O <= tol,
        max_omega=max_o,
        max_Omega=max_O,
        tol=tol,
        bad_faces=bad_faces,
        bad_edges=bad_edges,
    )
