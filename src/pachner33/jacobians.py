"""Derivative matrices of the deficit angles and submatrix selection.

Every per-simplex block is closed-form and computed for a stack of N
simplices at once; rows follow geometry.FACES5 and columns geometry.EDGES5
of each simplex's sorted vertex tuple.

- dS/dL: face areas by squared edge lengths, (L_ac + L_bc - L_ab) / (16 S)
  for the edge ab of the face abc and zero off the face
  (geometry.dS_dL_blocks).
- dtheta/dL: signed dihedral angles by squared edge lengths, from the
  bordered Cayley-Menger matrix Q = [[0, 1^T], [1, -L/2]].  The lower-right
  5x5 block P of Q^-1 is the Gram matrix of the facet normals, so the angle
  at the face opposite the vertices x, y has cos = -P_xy / sqrt(P_xx P_yy),
  and dQ^-1 = -Q^-1 dQ Q^-1 gives dP_xy/dL_ij = (P_xi P_jy + P_xj P_iy) / 2.
  These are the derivatives of linearised Regge calculus
  (Dittrich-Freidel-Speziale, PRD 76 104020, 2007); the opposite-edge entry
  is the paper's S / (24 V).
- dtheta/dS = (dtheta/dL) (dS/dL)^-1, the areas being local coordinates.

A command gathers the length tables once, through the complex's (N, 10)
edge columns (simplex_edges), and computes each block stack once; every
global matrix is a scatter of those blocks (scatter_blocks) through the
face rows and edge columns (simplex_faces, simplex_edges):

- dOmega_dL:    rows = triangles, cols = edges,       entries d(omega_i)/d(L_a)
- dOmega_dS:    rows = cols = triangles,              entries d(omega_i)/d(S_j)
- dBigOmega_dS: rows = edges, cols = triangles,       entries d(Omega_a)/d(S_i),
                the dS/dL weights times dOmega_dS

Row/column order follows the complex's lexicographic face tables.  The
maximal nondegenerate submatrix is found by complete-pivoting Gaussian
elimination with a relative pivot threshold.  Each step updates only the
rows its pivot column reaches and finds the next pivot through the row
maxima, so on the sparse dOmega_dL (a few percent nonzero) a step costs
the rows it changes rather than the whole matrix.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DegenerateSimplexError, SelectionError

PIVOT_TOL = 1e-9

_OPP_X, _OPP_Y = (np.array(ends) for ends in zip(*geometry.OPPOSITE5))


def _normal_gram(L):
    """Gram matrix P of the facet normals (barycentric-coordinate gradients).

    P is the lower-right 5x5 block of the inverse bordered Cayley-Menger
    matrix.  It is obtained as the inverse of the edge-vector Gram matrix at
    vertex 0, G_pq = (L_0p + L_0q - L_pq) / 2 with det G = 576 V^2, whose
    row sums give the normal at vertex 0.  Gauss-Jordan elimination runs in
    extended precision (np.longdouble where the platform has it): on thin
    simplices a float64 inverse loses about ten times more than the rounding
    of the lengths themselves, enough to add a spurious rank to dOmega_dL.
    A table whose G is not positive definite, or whose |V| falls below
    geometry.DEGENERACY_REL * (mean edge length)^4, is rejected: the floor
    of geometry.cell_volumes, taken here from the lengths.
    """
    L = np.asarray(L, dtype=np.longdouble)
    A = 0.5 * (L[:, 0, 1:, None] + L[:, 0, None, 1:] - L[:, 1:, 1:])
    inv = np.broadcast_to(np.eye(4, dtype=np.longdouble), A.shape).copy()
    det = np.ones(len(L), dtype=np.longdouble)
    for k in range(4):
        piv = A[:, k, k].copy()
        if not np.all(piv > 0.0):
            bad = int(np.flatnonzero(~(piv > 0.0))[0])
            raise DegenerateSimplexError(
                f"simplex {bad} of the batch has no nondegenerate Euclidean realization"
            )
        det *= piv
        A[:, k] /= piv[:, None]
        inv[:, k] /= piv[:, None]
        for r in range(4):
            if r != k:
                f = A[:, r, k, None].copy()
                A[:, r] -= f * A[:, k]
                inv[:, r] -= f * inv[:, k]
    mean_edge = np.sqrt(np.maximum(L[:, geometry.EDGE_I, geometry.EDGE_J], 0.0)).mean(axis=1)
    floor = geometry.DEGENERACY_REL * mean_edge**4
    bad = np.flatnonzero(~(det / 576.0 > floor * floor))
    if bad.size:
        raise DegenerateSimplexError(
            f"simplex {int(bad[0])} of the batch is degenerate "
            f"(|V| below {geometry.DEGENERACY_REL:g} mean_edge^4)"
        )
    P = np.empty((len(L), 5, 5), dtype=np.longdouble)
    P[:, 1:, 1:] = inv
    P[:, 0, 1:] = P[:, 1:, 0] = -inv.sum(axis=1)
    P[:, 0, 0] = inv.sum(axis=(1, 2))
    return P


def dihedral_angles_batch(L):
    """(N, 10) dihedral-angle magnitudes of an (N, 5, 5) stack, FACES5 order.

    theta = atan2(sqrt(P_xx P_yy - P_xy^2), -P_xy) at the face opposite the
    vertices x, y, for the facet-normal Gram matrix P of _normal_gram.
    """
    P = _normal_gram(L)
    Pxy = P[:, _OPP_X, _OPP_Y]
    wedge = np.sqrt(np.maximum(P[:, _OPP_X, _OPP_X] * P[:, _OPP_Y, _OPP_Y] - Pxy * Pxy, 0.0))
    return np.arctan2(wedge, -Pxy).astype(float)


def dtheta_dL_blocks(L, eps):
    """(N, 10, 10) signed dihedral-angle derivatives by squared edge length.

    L is an (N, 5, 5) stack of squared-length tables and eps the N simplex
    signs.  Raises DegenerateSimplexError on a degenerate table.
    """
    P = _normal_gram(L)
    x, y = _OPP_X[:, None], _OPP_Y[:, None]
    i, j = geometry.EDGE_I[None, :], geometry.EDGE_J[None, :]
    Pxx = P[:, _OPP_X, _OPP_X][:, :, None]
    Pyy = P[:, _OPP_Y, _OPP_Y][:, :, None]
    norm = np.sqrt(Pxx * Pyy)
    cos = -P[:, _OPP_X, _OPP_Y][:, :, None] / norm
    dPxy = 0.5 * (P[:, x, i] * P[:, j, y] + P[:, x, j] * P[:, i, y])
    dcos = -dPxy / norm - 0.5 * cos * (
        P[:, x, i] * P[:, x, j] / Pxx + P[:, y, i] * P[:, y, j] / Pyy
    )
    D = -np.asarray(eps, dtype=float)[:, None, None] * dcos / np.sqrt(1.0 - cos * cos)
    if not np.all(np.isfinite(D)):
        raise DegenerateSimplexError("dihedral-angle derivatives are not finite")
    return D.astype(float)


def domega_dS_blocks(dtheta, dS_dL):
    """(N, 10, 10) signed-angle derivatives by face areas.

    Areas determine all metric variations within one simplex, so each block
    is (dtheta/dL) (dS/dL)^-1, from the dtheta_dL_blocks and
    geometry.dS_dL_blocks of the same tables.  A singular area map means the
    realization is non-generic.
    """
    try:
        X = np.linalg.solve(np.swapaxes(dS_dL, 1, 2), np.swapaxes(dtheta, 1, 2))
    except np.linalg.LinAlgError as exc:
        raise DegenerateSimplexError(
            "per-simplex area map is singular (non-generic realization)"
        ) from exc
    return np.swapaxes(X, 1, 2)


def dtheta_dL_simplex(L, eps):
    """(10, 10) signed dihedral-angle derivatives of one squared-length table."""
    return dtheta_dL_blocks(geometry.validate_length_table(L, size=5)[None], [eps])[0]


def length_tables(L, simplex_edges):
    """(N, 5, 5) squared-length tables from edge lengths and (N, 10) edge columns."""
    i, j = geometry.EDGE_I, geometry.EDGE_J
    tables = np.zeros((len(simplex_edges), 5, 5))
    tables[:, i, j] = tables[:, j, i] = L[simplex_edges]
    return tables


def scatter_blocks(M, rows, cols, blocks):
    """Add an (N, 10, 10) block stack into M at its (N, 10) rows and columns; returns M.

    Entries shared by several simplices are summed in simplex order.
    """
    np.add.at(M, (rows[:, :, None], cols[:, None, :]), blocks)
    return M


def assemble_domega_dL(c, m, dtheta=None):
    """Global matrix of face-deficit derivatives by squared edge lengths.

    dtheta, the (N, 10, 10) dtheta_dL_blocks of the metric, is computed
    unless given.
    """
    if dtheta is None:
        dtheta = dtheta_dL_blocks(length_tables(m.L, c.simplex_edges), m.eps)
    M = np.zeros((len(c.faces[2]), len(c.faces[1])))
    return scatter_blocks(M, c.simplex_faces, c.simplex_edges, -dtheta)


def area_length_weights(c, dS_dL):
    """Global (edges x triangles) matrix of dS_j/dL_a from the (N, 10, 10) dS/dL blocks.

    Each triangle's area depends only on its own three edge lengths, so the
    simplices sharing a face write equal entries.
    """
    P = np.zeros((len(c.faces[1]), len(c.faces[2])))
    P[c.simplex_edges[:, None, :], c.simplex_faces[:, :, None]] = dS_dL
    return P


@dataclass(frozen=True)
class JacobianSet:
    """The three global derivative matrices."""

    dOmega_dL: np.ndarray
    dOmega_dS: np.ndarray
    dBigOmega_dS: np.ndarray

    def symmetry_residual(self):
        M = self.dOmega_dS
        scale = np.abs(M).max()
        return float(np.abs(M - M.T).max() / scale) if scale else 0.0

    def conjugacy_residual(self):
        A = self.dBigOmega_dS
        B = self.dOmega_dL.T
        scale = max(np.abs(A).max(), np.abs(B).max())
        return float(np.abs(A - B).max() / scale) if scale else 0.0


def build_jacobians(c, m):
    """The three matrices, from one batch of per-simplex angle and area blocks."""
    tables = length_tables(m.L, c.simplex_edges)
    dtheta = dtheta_dL_blocks(tables, m.eps)
    dS_dL = geometry.dS_dL_blocks(tables)
    F = len(c.faces[2])
    dOmega_dS = scatter_blocks(
        np.zeros((F, F)), c.simplex_faces, c.simplex_faces, -domega_dS_blocks(dtheta, dS_dL)
    )
    # At a flat point the area-derivative weights are stationary against the
    # vanishing face deficits, leaving the weighted sum of dOmega_dS rows.
    dBigOmega_dS = area_length_weights(c, dS_dL) @ dOmega_dS
    return JacobianSet(assemble_domega_dL(c, m, dtheta), dOmega_dS, dBigOmega_dS)


def log_product(values):
    """(sign, log|product|) of a sequence of reals, free of under- and overflow.

    A zero factor gives (0, -inf), a NaN factor (0, nan) and an empty
    sequence (1, 0.0).
    """
    a = np.asarray(values, dtype=float)
    sign = np.prod(np.sign(a))
    with np.errstate(divide="ignore"):
        return (int(sign) if np.isfinite(sign) else 0), float(np.sum(np.log(np.abs(a))))


@dataclass(frozen=True)
class SubmatrixSelection:
    """A maximal nondegenerate square submatrix in pivot order.

    rows/cols are matrix indices in pivot order and pivots the elimination
    pivots; their product is the determinant of the submatrix taken in
    exactly that ordering, which slogdet gives as (sign, log|det|) so that
    it cannot under- or overflow.  The rank is the number of pivots.
    Complements are in ascending ambient order.
    """

    rows: tuple
    cols: tuple
    rows_comp: tuple
    cols_comp: tuple
    pivots: tuple

    @property
    def rank(self):
        return len(self.pivots)

    def slogdet(self):
        """(sign, log|det|) from the pivots; (1, 0.0) for a rank-0 selection."""
        return log_product(self.pivots)


def rank_and_submatrix(matrix, must_include_row=None, tol=PIVOT_TOL):
    """Complete-pivoting elimination: pivot rows/cols and pivots.

    Pivoting stops when |pivot| <= tol * max|entry|; under complete pivoting
    the largest entry is exactly the first pivot, and it stays the reference
    when a (possibly weaker) first pivot row is forced.  If must_include_row
    is given, that row is forced as the first pivot row (its largest entry
    becomes the first pivot); a forced row that is not an integer index in
    [0, n_rows), or that is numerically zero, is an error.

    Elimination runs in place and keeps row_best, the largest |entry| of
    each row.  The pivot row is the first argmax of row_best and the pivot
    column the first argmax of |work[r]|: the first maximum of |work| in
    row-major order.  A step updates only the rows with a nonzero entry in
    the pivot column, then zeroes that column and the pivot row and
    refreshes row_best on the touched rows.  Every other row would only have
    a signed zero subtracted from it, which changes no |entry|, so the
    pivots and the complements are bitwise those of eliminating the whole
    array at every step; on the sparse dOmega_dL a step costs the
    touched rows, not the matrix.
    """
    work = np.array(matrix, dtype=float)
    if work.ndim != 2:
        raise SelectionError("selection needs a 2-d matrix")
    if not np.all(np.isfinite(work)):
        raise SelectionError("matrix has non-finite entries")
    n_rows, n_cols = work.shape
    row_best = np.abs(work).max(axis=1) if n_cols else np.zeros(n_rows)
    global_max = float(row_best.max()) if work.size else 0.0

    forced = None
    if must_include_row is not None:
        if not (isinstance(must_include_row, numbers.Integral) and 0 <= must_include_row < n_rows):
            raise SelectionError(
                f"forced row {must_include_row!r} is not a row index of a {n_rows}-row matrix"
            )
        forced = int(must_include_row)
        row_max = float(row_best[forced]) if n_cols else 0.0
        if row_max == 0.0 or (global_max and row_max <= tol * global_max):
            raise SelectionError(
                f"forced row {forced} is numerically zero; it cannot pivot"
            )

    pivots = []
    pivot_rows = []
    pivot_cols = []
    for _ in range(min(n_rows, n_cols)):
        r = forced if forced is not None and not pivots else int(np.argmax(row_best))
        c = int(np.argmax(np.abs(work[r])))
        piv = work[r, c]
        if pivots and abs(piv) <= tol * global_max:
            break
        if not pivots and piv == 0.0:
            break
        pivots.append(float(piv))
        pivot_rows.append(r)
        pivot_cols.append(c)
        rows = np.flatnonzero(work[:, c])
        touched = work[rows]
        touched -= np.outer(touched[:, c] / piv, work[r])
        touched[:, c] = 0.0
        work[rows] = touched
        work[r] = 0.0
        row_best[rows] = np.abs(touched).max(axis=1)
        row_best[r] = 0.0

    kept_rows, kept_cols = set(pivot_rows), set(pivot_cols)
    return SubmatrixSelection(
        rows=tuple(pivot_rows),
        cols=tuple(pivot_cols),
        rows_comp=tuple(i for i in range(n_rows) if i not in kept_rows),
        cols_comp=tuple(j for j in range(n_cols) if j not in kept_cols),
        pivots=tuple(pivots),
    )


def kernel_basis(matrix, rank):
    """Orthonormal null-space basis (columns) from the SVD, given the rank."""
    _, _, Vh = np.linalg.svd(np.asarray(matrix, dtype=float))
    return Vh[rank:].T.copy()
