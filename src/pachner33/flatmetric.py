"""Flat realizations of a complex in R^4 and the derived metric data.

A realization maps vertex ids to points; it induces squared edge lengths L,
triangle areas S, per-simplex signs eps (whether the stored orientation
agrees with the ambient one) and signed volumes V.  FlatMetric holds them as
arrays aligned with the complex's face tables, and realize and
metric_from_lengths compute each of them in one batch through the complex's
index arrays (edge ends, triangle edges, simplex vertices and edges).

Deficit angles come in two flavours, each an array aligned with its face
table: omega around 2-faces (minus the algebraic sum of dihedral angles,
reduced to (-pi, pi]) and Omega around edges (sums of the per-face deficits
weighted by each triangle's area derivatives dS/dL, which depend on its
own three edges only).

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


def _first_unrealizable(sq):
    """(index, kind) of the first squared measure that is not finite and positive, else None.

    kind is "non-finite" for inf or NaN (overflowing lengths) and
    "nonpositive" otherwise.
    """
    bad = np.flatnonzero(~(np.isfinite(sq) & (sq > 0.0)))
    if not bad.size:
        return None
    k = int(bad[0])
    return k, ("nonpositive" if np.isfinite(sq[k]) else "non-finite")


def triangle_areas(L, triangle_edges, triangles):
    """Areas of triangles from squared lengths L and their (F, 3) edge columns.

    One stacked Cayley-Menger determinant; raises DegenerateSimplexError
    naming the first triangle whose squared area is nonpositive or
    non-finite, and which of the two it is, by its row of `triangles` (vertex
    ids, read only then).
    """
    sq = geometry.cm_squared_volumes(2, L[triangle_edges])
    bad = _first_unrealizable(sq)
    if bad:
        k, kind = bad
        raise DegenerateSimplexError(
            f"triangle {tuple(map(int, triangles[k]))} has {kind} squared area"
        )
    return np.sqrt(sq)


def realize(c, coords):
    """FlatMetric induced by a vertex placement.

    Requires a closed, consistently oriented complex (require_closed_oriented);
    metric_from_lengths takes open ones.  Raises DegenerateSimplexError
    naming the first degenerate simplex.
    """
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

    S = triangle_areas(L, c.triangle_edges, c.face_ids(2))
    return FlatMetric(L=L, S=S, eps=eps, V=V)


def metric_from_lengths(c, L, eps):
    """Metric data from an (E,) length array with fixed (N,) simplex signs."""
    L = np.array(L, dtype=float)
    eps = np.array(eps, dtype=int)
    S = triangle_areas(L, c.triangle_edges, c.face_ids(2))
    sq = geometry.cm_squared_volumes(4, L[c.simplex_edges])
    bad = _first_unrealizable(sq)
    if bad:
        k, kind = bad
        raise DegenerateSimplexError(
            f"simplex {c.simplices[k][0]} is not realizable ({kind} squared volume)"
        )
    return FlatMetric(L=L, S=S, eps=eps, V=eps * np.sqrt(sq))


def random_realization(c, seed):
    """Seed-deterministic unit-ball placement with no simplex below DEFAULT_QUALITY."""
    pts = geometry.unit_ball_placement([seed], len(c.vertices), c.simplex_vertices)[0]
    return {v: pts[n] for n, v in enumerate(c.vertices)}


def deficit_omega(c, m):
    """(F,) per-face deficits, aligned with c.faces[2]: minus the algebraic
    dihedral-angle sum, in (-pi, pi].

    The dihedral angles of all simplices come from one batch
    (jacobians.dihedral_angles_batch) and are summed into the faces through
    the complex's (N, 10) face rows by one np.bincount, in simplex order
    from 0.0.
    """
    theta = jacobians.dihedral_angles_batch(jacobians.length_tables(m.L, c.simplex_edges))
    omega = np.bincount(
        c.simplex_faces.ravel(), (-m.eps[:, None] * theta).ravel(),
        minlength=len(c.triangle_vertices),
    )
    # the identity on (-pi, pi); wound faces come back on the flat branch
    return geometry.reduce_angle(omega)


def deficit_Omega(c, m, omega=None):
    """(E,) per-edge deficits, aligned with c.faces[1]: the area-derivative
    weighted sum of the face deficits.

    Omega_a = sum over the triangles t through edge a of (dS_t/dL_a) omega_t.
    A triangle's area depends only on its own three edges, so its weights
    are one (F, 3) array in c.triangle_edges order (ab, ac, bc): for the
    edge k, (L_other1 + L_other2 - L_k) / (16 S).  Equals minus the sum of
    per-simplex edge angles up to the 2*pi-multiple shifts that vanish on
    the branch chosen for omega.
    """
    if omega is None:
        omega = deficit_omega(c, m)
    ab, ac, bc = m.L[c.triangle_edges].T
    weights = np.stack([ac + bc - ab, ab + bc - ac, ab + ac - bc], axis=1) / (16.0 * m.S[:, None])
    return np.bincount(
        c.triangle_edges.ravel(), (weights * omega[:, None]).ravel(), minlength=len(c.edge_ends)
    )


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
    bad_faces = tuple(map(tuple, c.face_ids(2)[abs_o > tol].tolist()))
    bad_edges = tuple(map(tuple, c.face_ids(1)[abs_O > tol].tolist()))
    return FlatnessReport(
        passed=max_o <= tol and max_O <= tol,
        max_omega=max_o,
        max_Omega=max_O,
        tol=tol,
        bad_faces=bad_faces,
        bad_edges=bad_edges,
    )
