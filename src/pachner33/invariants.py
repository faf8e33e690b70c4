"""The global 3->3 move invariant of a closed flat complex.

The invariant is I = prod(S) / (det(B) * prod(V)) for a maximal
nondegenerate submatrix B of the face-deficit/length matrix, det(B)^-1
multiplying the differential form on the complementary index sets (see
BasisChangeFactors).  I, det(B) and the products are held as (sign,
log|.|) only, which neither under- nor overflows at a thousand cells;
basis_change_factor takes det ratios as differences of slogdets.
Moves are compared with matched selections: the row of the disappearing
triangle is replaced by the row of the appearing one.  The move only swaps
three simplices, so the after-quantities come from the same data as the
before-quantities.  move_blocks computes each cell's share of dOmega/dL,
its (10, 10) block -dtheta/dL, for the N cells and the three replacement
cells in one batch; the assembled matrix is a scatter of the first N, and
the selection eliminates in it, so a command holds one faces x edges
array.  virtual_rebuild then forms only B_after, as the sum of the shares
of the after-cells (the N cells without the removed three, then the three
replacements) at the selected rows and columns: bitwise the moved
complex's own entries.  The products drop three volumes and one area and
gain their replacements, each at its place in the moved complex's order.
The moved complex is never built, which also covers the 5-simplex
boundary, where the opposite triangle is already a face and the moved
complex would not be simplicial.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .complexes import move_cluster, oriented_tuple
from .errors import DegenerateSimplexError, SelectionError
from .flatmetric import realize, triangle_areas
from .geometry import EDGES5, FACES5
from .jacobians import (
    PIVOT_TOL,
    assemble_domega_dL,
    dtheta_dL_blocks,
    length_tables,
    log_product,
    rank_and_submatrix,
    scatter_blocks,
)


def restricted_invariant(c, m, sel):
    """(sign, log|prod(S) / (det(B) * prod(V))|) of a selection.

    Each factor is carried in the log domain: prod(V) underflows a double
    at a few hundred cells, and I itself overflows one at about a thousand.
    """
    return _log_value(*_selection_det(c, sel), log_product(m.V), log_product(m.S))


def _selection_det(c, sel):
    """(sign, log|det|) of a selection that fits c and has a finite nonzero det."""
    det_sign, log_det = sel.slogdet()
    if sel.rank < 1 or det_sign == 0 or not math.isfinite(log_det):
        raise SelectionError("selection is degenerate (zero or non-finite det)")
    if max(sel.rows, default=0) >= len(c.triangle_vertices) or max(
        sel.cols, default=0
    ) >= len(c.edge_ends):
        raise SelectionError("selection does not fit the complex")
    return det_sign, log_det


def _log_value(det_sign, log_det, prod_V, prod_S):
    """(sign, log|prod S / (det * prod V)|) for det = det_sign * exp(log_det).

    prod_V and prod_S are the log_product pairs of the volumes and areas.
    """
    (vol_sign, log_V), (_, log_S) = prod_V, prod_S
    return int(det_sign) * vol_sign, log_S - (log_det + log_V)


@dataclass(frozen=True)
class InvariantReport:
    """The invariant I = prod(S) / (det(B) * prod(V)) with its selection.

    I is sign * exp(log_abs_value); the products of areas and volumes are
    given as log|prod S|, log|prod V| and the sign of prod V.  Neither I nor
    the products are held as plain floats (see restricted_invariant).
    """

    log_abs_value: float
    sign: int
    selection: object
    log_abs_prod_S: float
    log_abs_prod_V: float
    sign_prod_V: int


def full_invariant(c, m):
    """prod(S) / (det(B) * prod(V)) with a complete-pivoting selection.

    The selection stops at the fixed jacobians.PIVOT_TOL.  The complementary
    face/edge index sets ride along in the selection; they label the
    symbolic differential-form part, of which only transition factors (see
    basis_change_factor) are numerically meaningful.
    """
    sel = rank_and_submatrix(assemble_domega_dL(c, m))
    if sel.rank < 1:
        raise SelectionError("deficit/length matrix has rank zero")
    prod_V, prod_S = log_product(m.V), log_product(m.S)
    sign, log_abs = _log_value(*_selection_det(c, sel), prod_V, prod_S)
    (sign_V, log_V), (_, log_S) = prod_V, prod_S
    return InvariantReport(
        log_abs_value=log_abs,
        sign=sign,
        selection=sel,
        log_abs_prod_S=log_S,
        log_abs_prod_V=log_V,
        sign_prod_V=sign_V,
    )


def move_blocks(c, m, coords, star, new_cells):
    """Shares of the N cells and the three replacement cells, in one batch.

    Returns the (N + 3, 10, 10) shares -dtheta/dL, dtheta_dL_blocks of the
    negated signs, and the replacement cells' (3, 10) face rows and edge
    columns and (3,) signed volumes.  Every edge of a replacement cell, and
    every face but the appearing triangle, is a face of a star cell, so the
    rows and columns are read off the star cells' (simplex_faces[star],
    simplex_edges[star]); the appearing triangle gets row F, one past the
    complex's triangles (an older face with the same vertices may survive
    alongside).  A replacement cell below the cell_volumes floor raises
    DegenerateSimplexError first.
    """
    pts = [[coords[v] for v in oriented_tuple(*cell)] for cell in new_cells]
    volumes, below = geometry.cell_volumes(pts, geometry.DEGENERACY_REL)
    thin = np.flatnonzero(below)
    if thin.size:
        raise DegenerateSimplexError(
            f"replacement simplex {new_cells[int(thin[0])][0]} is degenerate"
        )
    # {vertex ids: index} of the star cells' faces and edges, read at the replacement cells'
    old = c.vertex_ids[np.sort(c.simplex_vertices[star], axis=1)].tolist()
    index = dict(zip(
        [(v[p], v[q], v[r]) for v in old for p, q, r in FACES5]
        + [(v[p], v[q]) for v in old for p, q in EDGES5],
        np.append(c.simplex_faces[star], c.simplex_edges[star]).tolist(),
    ))
    F = len(c.triangle_vertices)
    rows = np.array([[index.get((v[p], v[q], v[r]), F) for p, q, r in FACES5]
                     for v, _ in new_cells])
    cols = np.array([[index[(v[p], v[q])] for p, q in EDGES5] for v, _ in new_cells])
    shares = dtheta_dL_blocks(
        length_tables(m.L, np.vstack([c.simplex_edges, cols])),
        -np.append(m.eps, np.where(volumes > 0, 1, -1)),
    )
    return shares, rows, cols, volumes


def virtual_rebuild(c, sel, star, shares, rows, cols):
    """After-move entries at the selection: B_after and the appearing triangle's row.

    The after-cells are the N cells without the star, in cell order, then
    the three replacement cells, the last three of move_blocks at its rows
    and cols.  Only the after-matrix's entries at sel.rows x sel.cols, and
    those of the appearing triangle (row F) at sel.cols, are kept: the
    after-cells' shares are scattered (scatter_blocks) into a
    (len(sel.rows) + 2, len(sel.cols) + 1) array whose last row and column
    take every other entry, so each kept entry sums the same terms in the
    same order, from 0.0, as the moved complex's assembly does.  The moved
    complex is never built.
    """
    F = len(c.triangle_vertices)
    n_rows, n_cols = len(sel.rows), len(sel.cols)
    row_at = np.full(F + 1, n_rows + 1)
    row_at[list(sel.rows)] = np.arange(n_rows)
    row_at[F] = n_rows
    col_at = np.full(len(c.edge_ends), n_cols)
    col_at[list(sel.cols)] = np.arange(n_cols)
    after = np.delete(np.arange(len(shares)), star)
    B = scatter_blocks(
        (n_rows + 2, n_cols + 1),
        row_at[np.vstack([c.simplex_faces, rows])[after]],
        col_at[np.vstack([c.simplex_edges, cols])[after]],
        shares[after],
    )
    return B[:n_rows, :n_cols], B[n_rows, :n_cols]


@dataclass(frozen=True)
class MoveComparison:
    """The invariant before and after a 3->3 move, each as (sign, log|I|).

    selection is the before-selection; the after-selection has the same rows
    and columns with the row of old_face replaced by that of new_face.
    ratio is I_after / I_before and deviation is | |ratio| - 1 |.
    """

    old_face: tuple
    new_face: tuple
    six_vertices: tuple
    selection: object
    sign_before: int
    log_abs_before: float
    sign_after: int
    log_abs_after: float
    ratio: float
    deviation: float


def compare_under_move(c, coords, t):
    """Invariant before and after the 3->3 move at triangle t.

    The before-selection forces the row of t into the submatrix; the
    after-selection keeps the same rows and columns except that the row of t
    is replaced by the row of the opposite triangle.  The placement is reused
    for the rebuilt cluster, so flatness persists.  One batch of shares
    (move_blocks) gives the before-matrix, which the selection eliminates in
    place, and, through virtual_rebuild, the after-submatrix B_after.  The
    new volumes follow the kept ones and the opposite triangle's area goes
    at its lexicographic place (before it where it is already a face), so
    both products sum in the moved complex's order.  det(B) is taken from
    the pivots before the move and from slogdet after it, so both
    invariants stay in the log domain.
    """
    abc, def_, star, new_cells = move_cluster(c, t)
    m = realize(c, coords)
    shares, new_rows, new_cols, new_volumes = move_blocks(c, m, coords, star, new_cells)
    row_abc = c.face_index[2][abc]
    sel = rank_and_submatrix(
        assemble_domega_dL(c, m, shares[: len(c.simplex_vertices)]), must_include_row=row_abc
    )
    sign_before, log_before = restricted_invariant(c, m, sel)

    B_after, def_row = virtual_rebuild(c, sel, star, shares, new_rows, new_cols)
    B_after[sel.rows.index(row_abc)] = def_row
    volumes = np.append(np.delete(m.V, star), new_volumes)
    # the edges de, df, ef of the appearing triangle, in its first replacement cell
    is_def = new_rows[0] == len(c.triangle_vertices)
    def_edges = new_cols[0, geometry.FACE_EDGES5[is_def]]
    at = bisect.bisect_left(c.faces[2], def_)  # DEF's place, before DEF if it is a face
    areas = np.insert(
        np.delete(m.S, row_abc), at - (row_abc < at), triangle_areas(m.L, def_edges, [def_])
    )

    det_sign, log_det = np.linalg.slogdet(B_after)
    if det_sign == 0 or not math.isfinite(log_det):
        raise SelectionError("matched after-selection is degenerate")
    sign_after, log_after = _log_value(
        det_sign, float(log_det), log_product(volumes), log_product(areas)
    )

    log_ratio = log_after - log_before
    return MoveComparison(
        old_face=abc,
        new_face=def_,
        six_vertices=abc + def_,
        selection=sel,
        sign_before=sign_before,
        log_abs_before=log_before,
        sign_after=sign_after,
        log_abs_after=log_after,
        ratio=sign_before * sign_after * math.exp(log_ratio),
        deviation=abs(math.expm1(log_ratio)),
    )


@dataclass(frozen=True)
class BasisChangeFactors:
    """Transition factors when one element of a selection is exchanged.

    factor_det is det(B_new)/det(B_old).  coefficient is the weight of the
    outgoing element when the incoming one (a column of M for edge swaps, a
    row for face swaps) is expanded over the selected ones; by Cramer's rule
    it equals factor_det.  factor_form is the multiplier the complementary
    differential form picks up, computed from a kernel basis (of the
    face/length matrix for edge swaps, of the conjugate edge/area matrix for
    face swaps).  The contract factor_det = coefficient = -factor_form makes
    det(B)^-1 times the form invariant up to sign.
    """

    kind: str
    factor_det: float
    factor_form: float
    coefficient: float


def basis_change_factor(M, sel, swap, conjugate=None):
    """Factors for swapping one edge (column) or one face (row) of B.

    swap is ("edge", b, c) with column b outside the selection replacing
    column c inside it, or ("face", new_row, old_row) with row new_row
    outside the selection replacing old_row inside it.  A face swap is the
    edge swap of M^T, with the kernel taken from the independently assembled
    conjugate (edge x face) matrix, which face swaps therefore need.  Both
    determinants come from slogdet, so the factors do not depend on the scale
    of M.
    """
    kind, new, old = swap[0], int(swap[1]), int(swap[2])
    A = np.asarray(M, dtype=float)
    if kind == "edge":
        keep, inside, outside, kernel_of = sel.rows, sel.cols, sel.cols_comp, A
    elif kind == "face":
        A = A.T
        keep, inside, outside, kernel_of = sel.cols, sel.rows, sel.rows_comp, conjugate
    else:
        raise SelectionError(f"unknown swap kind {kind!r}")
    if new not in outside or old not in inside:
        raise SelectionError(f"{kind} swap must exchange an outside and an inside {kind}")
    if kernel_of is None:
        raise SelectionError("face swaps need the conjugate edge/area matrix")

    k = inside.index(old)
    B = A[np.ix_(keep, inside)]
    B_new = B.copy()
    B_new[:, k] = A[list(keep), new]
    (sign_old, log_old), (sign_new, log_new) = np.linalg.slogdet(B), np.linalg.slogdet(B_new)
    with np.errstate(over="ignore", invalid="ignore"):
        factor_det = float(sign_old * sign_new * np.exp(log_new - log_old))
    if not math.isfinite(factor_det) or abs(factor_det) <= PIVOT_TOL:
        raise SelectionError(f"{kind} swap produces a singular submatrix")
    coeffs, *_ = np.linalg.lstsq(A[:, list(inside)], A[:, new], rcond=None)

    # orthonormal null-space basis (columns) from the SVD, given the rank
    _, _, Vh = np.linalg.svd(np.asarray(kernel_of, dtype=float))
    kernel = Vh[sel.rank:].T.copy()
    rhs = np.zeros(len(outside))
    rhs[outside.index(new)] = 1.0
    try:
        x = np.linalg.solve(kernel[list(outside)], rhs)
    except np.linalg.LinAlgError as exc:
        raise SelectionError(f"outside {kind}s do not parametrize the kernel") from exc
    return BasisChangeFactors(
        kind=kind,
        factor_det=factor_det,
        factor_form=float((kernel @ x)[old]),
        coefficient=float(coeffs[k]),
    )
