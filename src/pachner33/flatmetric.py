"""Flat realizations of a complex in R^4 and the derived metric data.

A realization maps vertex ids to points; it induces squared edge lengths L,
triangle areas S, per-simplex signs eps (whether the stored orientation
agrees with the ambient one) and signed volumes V.  FlatMetric holds them as
arrays aligned with the complex's face arrays, and realize and
metric_from_lengths compute each of them in one batch through the complex's
index arrays (edge ends, triangle edges, simplex vertices and edges).  The
areas take the closed form geometry.squared_areas16; realize takes the
volumes from the coordinates and metric_from_lengths from the edge-vector
Gram matrices (geometry.edge_gram).

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
    """Metric data of a realization, as arrays aligned with the face arrays.

    L[e] is the squared length of edge c.edge_ends[e], S[t] the area of
    triangle c.triangle_vertices[t], V[n] the signed 4-volume of cell n in
    its oriented order and eps[n] = +-1 its sign.  Compared by identity.
    """

    L: np.ndarray  # (E,)
    S: np.ndarray  # (F,)
    eps: np.ndarray  # (N,) of int
    V: np.ndarray  # (N,)


def _cell_text(c, n):
    """Cell n's vertex ids, ascending, as the tuple an error message names."""
    return tuple(np.sort(c.vertex_ids[c.simplex_vertices[n]]).tolist())


def triangle_areas(L, triangle_edges, triangles):
    """(..., F) areas of triangles from (..., E) squared lengths L and their (F, 3) edge columns.

    geometry.squared_areas16 of the columns in their order (ab, ac, bc) for
    each length array of the stack; raises DegenerateSimplexError naming the
    first triangle whose squared area is nonpositive or non-finite, and
    which of the two it is, by its row of `triangles` (vertex ids, read only
    then).
    """
    sq16, bad = geometry.squared_areas16(*np.moveaxis(np.take(L, triangle_edges, axis=-1), -1, 0))
    if bad:
        k, kind = bad
        raise DegenerateSimplexError(
            f"triangle {tuple(map(int, triangles[k % len(triangles)]))} has {kind} squared area"
        )
    return np.sqrt(sq16) / 4.0


def realize(c, coords):
    """FlatMetric induced by a vertex placement.

    Requires a closed, consistently oriented complex (require_closed_oriented);
    metric_from_lengths takes open ones.  Raises DegenerateSimplexError
    naming the first degenerate simplex.
    """
    require_closed_oriented(c)
    vertices = c.vertex_ids.tolist()
    missing = [v for v in vertices if v not in coords]
    if missing:
        raise Pachner33Error(f"realization lacks coordinates for vertices {missing}")

    X = np.array([coords[v] for v in vertices], dtype=float).reshape(len(vertices), 4)
    d = X[c.edge_ends[:, 0]] - X[c.edge_ends[:, 1]]
    # a stack of 1x4 by 4x1 products rounds exactly like d @ d per edge
    L = np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]

    V, below = geometry.cell_volumes(X[c.simplex_vertices], geometry.DEGENERACY_REL)
    bad = np.flatnonzero(below)
    if bad.size:
        sid = int(bad[0])
        raise DegenerateSimplexError(
            f"simplex {_cell_text(c, sid)} (id {sid}) is degenerate"
        )
    eps = np.where(V > 0, 1, -1)

    S = triangle_areas(L, c.triangle_edges, c.face_ids(2))
    return FlatMetric(L=L, S=S, eps=eps, V=V)


def metric_from_lengths(c, L, eps):
    """Metric data from an (E,) length array with fixed (N,) simplex signs.

    |V| of each cell is sqrt(det G / 576) for its edge-vector Gram matrix G
    (geometry.edge_gram); a cell whose det G is nonpositive or non-finite
    raises DegenerateSimplexError naming it.
    """
    L = np.array(L, dtype=float)
    eps = np.array(eps, dtype=int)
    S = triangle_areas(L, c.triangle_edges, c.face_ids(2))
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(geometry.edge_gram(jacobians.length_tables(L, c.simplex_edges)))
    bad = geometry.first_unrealizable(det)
    if bad:
        k, kind = bad
        raise DegenerateSimplexError(
            f"simplex {_cell_text(c, k)} is not realizable ({kind} squared volume)"
        )
    return FlatMetric(L=L, S=S, eps=eps, V=eps * np.sqrt(det / 576.0))


def random_realization(c, seed):
    """Seed-deterministic unit-ball placement with no simplex below DEFAULT_QUALITY."""
    pts = geometry.unit_ball_placement([seed], len(c.vertex_ids), c.simplex_vertices)[0]
    return dict(zip(c.vertex_ids.tolist(), pts))


def deficit_omega(c, m):
    """(F,) per-face deficits, aligned with c.triangle_vertices: minus the algebraic
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
    """(E,) per-edge deficits, aligned with c.edge_ends: the area-derivative
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
