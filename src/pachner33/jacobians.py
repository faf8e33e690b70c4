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
  is the paper's S / (24 V).  The same kernel gives the angles and the
  (10,) rows of a list of faces of every simplex (face_angle_rows), for a
  caller that reads no other face.

  The kernel runs once in float64 over every cell, and the rows of thin
  cells, those whose quality |V| / mean_edge^4 is below
  geometry.THIN_QUALITY = 2e-4, are then overwritten from a second run
  over those cells alone in extended precision (np.longdouble where the
  platform has it), through the same elimination and derivative
  (_normal_grams, _by_pass).  One scale-free quality, taken from the
  elimination pivots (_squared_quality), decides both which cells are
  thin and which fall below the degeneracy floor.
  Against a 50-digit reference from the coordinates (the 60 thinnest
  cells of each band on fifteen 406-cell ladder rungs), a float64 block
  is within 3.6e-12 of its largest entry from quality 2e-4 to 1e-3 and
  1.0e-13 above.  Below the line float64 would lose 7.7e-12 (1e-4 to
  2e-4) and 1.2e-9 (below 1e-4), where extended precision keeps 2.6e-12
  and 5.1e-10, the rounding of the squared lengths.
- dtheta/dS = (dtheta/dL) (dS/dL)^-1, the areas being local coordinates.

A command gathers the length tables once, through the complex's (N, 10)
edge columns (simplex_edges), and computes each block stack once; every
global matrix is a scatter of those blocks (scatter_blocks) through the
face rows and edge columns (simplex_faces, simplex_edges):

- dOmega_dL:    rows = triangles, cols = edges,       entries d(omega_i)/d(L_a)
- dOmega_dS:    rows = cols = triangles,              entries d(omega_i)/d(S_j)
- dBigOmega_dS: rows = edges, cols = triangles,       entries d(Omega_a)/d(S_i),
                the scatter of each simplex's (dS/dL)^T (dOmega/dS) block

Row/column order follows the complex's lexicographic face arrays.
build_jacobians forms the three one at a time and keeps each as Triplets,
its nonzero entries: each dense matrix is spent (by the selection or by a
residual's transpose_gap) before the next is formed.

The maximal nondegenerate submatrix is found by complete-pivoting Gaussian
elimination with a relative pivot threshold.  Each step updates only the
rows its pivot column reaches and finds the next pivot through the row
maxima, so on the sparse dOmega_dL (a few percent nonzero) a step costs
the rows it changes rather than the whole matrix; on a small array that
fills in, the later steps take the whole array.  The elimination runs in
the float64 matrix it is handed, and each of its temporaries stays within
_UPDATE_BYTES (256 KiB): those of a step's passes over its touched rows,
and the array-sized buffer of the whole-array steps, which only an array
that fits in one pass switches to.  So a command that selects holds one
faces x edges array.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DegenerateSimplexError, SelectionError

# The relative pivot threshold, fixed: the rank belongs to the complex (E - 4V + 10
# on S^4).  On flat placements the kept pivots stay above ~1e-3 of the largest
# entry and the next falls below ~1e-11 of it, so 1e-9 never decides a rank.
PIVOT_TOL = 1e-9
# Bytes of each (touched rows x columns) temporary of one elimination pass.
# Fill-in can make a step touch most rows (the stacked joins fill to about
# 58%); taking them in passes of this size keeps the temporaries small and
# in cache whatever the matrix size.  An array that fits in one pass takes
# whole-array steps once it fills in.
_UPDATE_BYTES = 1 << 18

# the squared mean edges the float64 pass takes (see _normal_grams)
_FLOAT64_SCALE = 1e100

_VERTICES = np.arange(5)[:, None]


def _eliminate(G):
    """Gauss-Jordan elimination of an (N, 4, 4) stack in its own dtype: (G^-1, pivots).

    The elimination runs on one augmented (N, 4, 8) array [G | I], whose
    right half ends as G^-1.  Each step divides the pivot row and then
    clears the pivot column from the rows above it and the rows below it,
    one broadcast update each.  The pivot row does not change during the
    step, so every entry gets the operations a row-by-row update of G and
    of its inverse gives it, bitwise.  Step k touches only the columns k+1 .. k+4: the columns
    to their left are spent (unit columns, which the update would leave as
    they are and which nothing reads again) and those to their right are
    still exact identity columns, zero in the pivot row, which it would
    leave unchanged too.  Nothing is checked: after a pivot that is not
    positive a table's values mean nothing, and the caller, which judges
    the (N, 4) pivots, discards them.  The inverse is C-contiguous.
    """
    A = np.empty((len(G), 4, 8), dtype=G.dtype)
    A[:, :, :4] = G
    A[:, :, 4:] = np.eye(4)
    pivots = np.empty((len(G), 4), dtype=G.dtype)
    for k in range(4):
        pivots[:, k] = A[:, k, k]
        window = slice(k + 1, k + 5)
        A[:, k, window] /= pivots[:, k, None]
        for others in (slice(k), slice(k + 1, 4)):
            A[:, others, window] -= A[:, others, k, None] * A[:, k, None, window]
    # contiguous, so that the sums of _gram_of_inverse reduce in the order they always have
    return np.ascontiguousarray(A[:, :, 4:]), pivots


def _squared_quality(pivots, scale):
    """(N,) squared qualities (|V| / mean_edge^4)^2 from the (N, 4) elimination pivots.

    prod_k (pivot_k / scale) / 576 for the (N,) squared mean edges scale,
    det G = prod_k pivot_k being 576 V^2: each factor is scale-free, so the
    product stays in range at any scale of the lengths, in float64 too.
    """
    rel = pivots / scale[:, None]
    return rel[:, 0] * rel[:, 1] * rel[:, 2] * rel[:, 3] / 576.0


def _gram_of_inverse(inv):
    """(N, 5, 5) facet-normal Gram matrices P from the inverses of the edge-vector Grams.

    P's lower-right 4x4 block is G^-1, and the row sums give the normal at
    vertex 0.
    """
    P = np.empty((len(inv), 5, 5), dtype=inv.dtype)
    P[:, 1:, 1:] = inv
    P[:, 0, 1:] = P[:, 1:, 0] = -inv.sum(axis=1)
    P[:, 0, 0] = inv.sum(axis=(1, 2))
    return P


def _normal_grams(L):
    """The facet-normal Gram matrices of an (N, 5, 5) stack: (P, thin, P_thin).

    P is the lower-right 5x5 block of the inverse bordered Cayley-Menger
    matrix, the inverse of the edge-vector Gram matrix at vertex 0
    (geometry.edge_gram, det G = 576 V^2) bordered by its row sums
    (_gram_of_inverse).  The float64 stack P holds every table (_eliminate
    in float64); thin holds the indices of the tables it cannot be trusted
    on, and P_thin their Grams eliminated again in np.longdouble, where on
    thin simplices a float64 inverse loses about ten times more than the
    rounding of the lengths themselves.  The thin tables' rows of P mean
    nothing, and may not be finite.  Both eliminations judge a table by one
    squared quality, _squared_quality of their pivots and the float64
    squared mean edge s, taken as geometry.cell_volumes takes it.  A table
    is thin when
        - its quality is below geometry.THIN_QUALITY,
        - a float64 pivot is not positive or an entry of its inverse is not
          finite, or
        - s lies outside [1 / _FLOAT64_SCALE, _FLOAT64_SCALE]: from about
          1e+-200 on, products of entries of P leave the float64 range and
          the blocks would not be finite.
    The extended elimination rejects a table whose G is not positive
    definite, or whose quality is below geometry.DEGENERACY_REL (NaN
    included), the floor of cell_volumes.  A pivot that is not positive is
    reported at the first step that has one, for the first table there, as
    an elimination that stops at that step reports it; every error names
    the table's index in the batch.  Degenerate tables are far below
    THIN_QUALITY in either precision, so every error is the extended
    elimination's own.  With no thin table, thin is empty and P_thin None.
    """
    L = np.asarray(L, dtype=float)
    scale = np.sqrt(np.maximum(L[:, geometry.EDGE_I, geometry.EDGE_J], 0.0)).mean(axis=1)
    scale *= scale
    with np.errstate(all="ignore"):  # the values of thin tables mean nothing
        inv, pivots = _eliminate(geometry.edge_gram(L))
        quality2 = _squared_quality(pivots, scale)
        P = _gram_of_inverse(inv)
    kept = ((quality2 >= geometry.THIN_QUALITY**2) & (pivots > 0.0).all(axis=1)
            & np.isfinite(inv).all(axis=(1, 2))
            & (scale >= 1.0 / _FLOAT64_SCALE) & (scale <= _FLOAT64_SCALE))
    thin = np.flatnonzero(~kept)
    if not thin.size:
        return P, thin, None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_thin, pivots = _eliminate(geometry.edge_gram(L[thin].astype(np.longdouble)))
        quality2 = _squared_quality(pivots, scale[thin])
    not_positive = ~(pivots > 0.0)
    if not_positive.any():
        step = int(not_positive.any(axis=0).argmax())
        raise DegenerateSimplexError(
            f"simplex {thin[int(not_positive[:, step].argmax())]} of the batch "
            "has no nondegenerate Euclidean realization"
        )
    bad = np.flatnonzero(~(quality2 >= geometry.DEGENERACY_REL**2))
    if bad.size:
        raise DegenerateSimplexError(
            f"simplex {thin[int(bad[0])]} of the batch is degenerate "
            f"(|V| below {geometry.DEGENERACY_REL:g} mean_edge^4)"
        )
    return P, thin, _gram_of_inverse(inv_thin)


def _by_pass(L, kernel):
    """kernel(P, cells) over every table of _normal_grams(L) in float64, a tuple
    of (N, ...) float64 arrays, with the thin tables' rows overwritten by
    kernel(P_thin, thin)."""
    P, thin, P_thin = _normal_grams(L)
    with np.errstate(all="ignore"):  # the thin tables' float64 values are overwritten
        out = kernel(P, slice(None))
    if thin.size:
        for full, rows in zip(out, kernel(P_thin, thin)):
            full[thin] = rows
    return out


def _derivatives_by_pass(L, eps, kernel):
    """_by_pass of kernel(P, signs) for the (N,) simplex signs eps; the last of
    its outputs are dtheta/dL rows.

    The signs are checked first: the kernel divides by them, which is exact
    only for +-1, so any other sign is a ValueError.  The rows are checked
    once merged: DegenerateSimplexError when one is not finite in float64.
    """
    eps = np.asarray(eps, dtype=float).reshape(-1)
    if not np.all(np.abs(eps) == 1.0):
        raise ValueError("simplex signs must be +1 or -1")
    out = _by_pass(L, lambda P, cells: kernel(P, eps[cells]))
    if not np.isfinite(out[-1]).all():
        raise DegenerateSimplexError("dihedral-angle derivatives are not finite")
    return out


def _gram_angles(P, faces=range(10)):
    """Dihedral-angle magnitudes from the facet-normal Gram matrices P.

    theta = atan2(sqrt(P_xx P_yy - P_xy^2), -P_xy) at the face opposite the
    vertices x, y, for each FACES5 row of faces (default all ten) of every
    table: (N, len(faces)), C-ordered.
    """
    x, y = geometry.OPP_X[faces, None], geometry.OPP_Y[faces, None]
    Pxy = P[:, x, y]
    wedge = np.sqrt(np.maximum(P[:, x, x] * P[:, y, y] - Pxy * Pxy, 0.0))
    # the gathers lay the angles out face-major; the cast returns them C-ordered
    return np.arctan2(wedge, -Pxy)[..., 0].astype(float, order="C")


def _gram_dtheta_dL(P, eps, faces=range(10)):
    """Signed dihedral-angle derivatives from the Gram matrices P and signs eps.

    The (N, len(faces), 10) rows of each FACES5 row of faces (default all
    ten: the blocks) of every table; columns follow EDGES5.  With
    s = P_xi P_jy + P_xj P_iy, cos = -P_xy / sqrt(P_xx P_yy) and
    norm = sqrt(P_xx P_yy),

        dcos/dL_ij = s / (-2 norm) - (cos / 2) (P_xi P_xj / P_xx + P_yi P_yj / P_yy)
        D = dcos / (-eps sqrt(1 - cos^2)),

    which rounds exactly as -(s / 2) / norm and (-eps dcos) / sqrt(1 - cos^2)
    do (halving, doubling and sign flips are exact).  The bracket is
    W[x] + W[y] for the per-vertex terms W[v, ij] = P_vi P_vj / P_vv,
    formed once per table for its five vertices and gathered at the faces.
    P is float64 or, for the thin tables, np.longdouble; every block-sized
    operation is in place, ordered so that at most three block-sized arrays
    are alive.  The signs are taken as they are and the derivatives may not
    be finite: _derivatives_by_pass checks both.
    """
    x, y = geometry.OPP_X[faces, None], geometry.OPP_Y[faces, None]
    i, j, v = geometry.EDGE_I, geometry.EDGE_J, _VERTICES
    dcos = P[:, j, y]
    dcos *= P[:, x, i]
    Piy = P[:, i, y]
    Piy *= P[:, x, j]
    dcos += Piy
    del Piy
    norm = np.sqrt(P[:, x, x] * P[:, y, y])
    cos = -P[:, x, y] / norm
    dcos /= -2.0 * norm
    W = P[:, v, i]
    W *= P[:, v, j]
    W /= P[:, v, v]
    bracket = W[:, geometry.OPP_X[faces]]
    # W[y] face by face, from views: gathered whole, it would be a third
    # block-sized array beside dcos and bracket, with W alive too
    for f, vertex in enumerate(geometry.OPP_Y[faces]):
        bracket[:, f] += W[:, vertex]
    del W
    bracket *= 0.5 * cos
    dcos -= bracket
    del bracket
    dcos /= -eps[:, None, None] * np.sqrt(1.0 - cos * cos)
    # the gathers lay the blocks out face-major; the cast returns them C-ordered
    with np.errstate(over="ignore"):
        return dcos.astype(float, order="C")


def dihedral_angles_batch(L):
    """(N, 10) dihedral-angle magnitudes of an (N, 5, 5) stack, FACES5 order.

    From the facet-normal Gram matrices P of _normal_grams: the angle at
    the face opposite the vertices x, y has cos = -P_xy / sqrt(P_xx P_yy).
    """
    return _by_pass(L, lambda P, cells: (_gram_angles(P),))[0]


def dtheta_dL_blocks(L, eps):
    """(N, 10, 10) signed dihedral-angle derivatives by squared edge length.

    L is an (N, 5, 5) stack of squared-length tables and eps the N simplex
    signs.  Raises DegenerateSimplexError on a degenerate table.
    """
    return _derivatives_by_pass(L, eps, lambda P, eps: (_gram_dtheta_dL(P, eps),))[0]


def face_angle_rows(L, eps, faces):
    """The angles and dtheta/dL rows of the given faces of every table, from one _normal_grams.

    faces lists FACES5 rows, evaluated for every table of the (N, 5, 5)
    stack L; returns the (N, k) magnitudes and (N, k, 10) signed derivative
    rows of its k faces, each entry bitwise that of dihedral_angles_batch(L)
    and dtheta_dL_blocks(L, eps) at that face.
    """
    return _derivatives_by_pass(
        L, eps, lambda P, eps: (_gram_angles(P, faces), _gram_dtheta_dL(P, eps, faces))
    )


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


def length_tables(L, simplex_edges):
    """(N, 5, 5) squared-length tables from edge lengths and (N, 10) edge columns."""
    i, j = geometry.EDGE_I, geometry.EDGE_J
    tables = np.zeros((len(simplex_edges), 5, 5))
    tables[:, i, j] = tables[:, j, i] = L[simplex_edges]
    return tables


def scatter_blocks(shape, rows, cols, blocks):
    """The (n_rows, n_cols) sum of an (N, r, c) block stack at its (N, r) rows and (N, c) columns.

    One np.bincount over the flat keys row * n_cols + col: each entry starts
    from 0.0 and adds its blocks' terms in simplex order, as np.add.at into
    zeros does, bitwise.
    """
    n_rows, n_cols = shape
    keys = rows[:, :, None] * n_cols + cols[:, None, :]
    return np.bincount(keys.ravel(), blocks.ravel(), minlength=n_rows * n_cols).reshape(shape)


def assemble_domega_dL(c, m, blocks=None):
    """Global matrix of face-deficit derivatives by squared edge lengths.

    blocks are the cells' (N, 10, 10) shares of it, -dtheta/dL, scattered as
    they are; unless given they are dtheta_dL_blocks(tables, -m.eps), bitwise
    the negated angle blocks (the sign enters only the kernel's last
    division).
    """
    if blocks is None:
        blocks = dtheta_dL_blocks(length_tables(m.L, c.simplex_edges), -m.eps)
    shape = (len(c.triangle_vertices), len(c.edge_ends))
    return scatter_blocks(shape, c.simplex_faces, c.simplex_edges, blocks)


def _abs_max(a, axis=None):
    """max |entry| of a (along axis) without an |a| temporary; NaN and +-inf propagate."""
    return np.maximum(a.max(axis=axis), -a.min(axis=axis))


@dataclass(frozen=True)
class Triplets:
    """A matrix as its nonzero entries in row-major order.

    rows and cols index the (n_rows, n_cols) shape and values holds the
    entries; exact zeros are left out, so the matrix rebuilds bit for bit.
    """

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, matrix):
        # nonzero runs several times faster on a bool array than on floats
        flat = np.flatnonzero(matrix != 0.0)
        rows, cols = np.divmod(flat, matrix.shape[1])
        return cls(matrix.shape, rows, cols, matrix.take(flat))


def transpose_gap(A, a, b):
    """max |A - B^T| from the dense A and the Triplets a of A and b of B.

    A is spent: its entries at the nonzeros of B^T are zeroed.  B^T's
    entry (j, i) is b's (i, j), so A - B^T is A's entry less b's value at
    the nonzeros of B^T, A's own entry at the other nonzeros of A, and 0.0
    elsewhere.  The gaps are taken at b's nonzeros, then at a's once b's
    are zeroed in A: a's entry where B^T has none, 0.0 where it was
    already taken.  With a = b, the triplets of a square A, they are the
    entries of A - A^T, each pair taken with either sign.  A 0.0 moves no
    maximum, so this is bitwise the maximum over the dense A - B^T, NaN
    and infinities included, a zero maximum being 0.0, never -0.0; 0.0
    when neither matrix has a nonzero.
    """
    n_cols = A.shape[1]
    flat = A.reshape(-1)
    at_b = b.cols * n_cols + b.rows
    gaps = [flat.take(at_b) - b.values]
    flat[at_b] = 0.0
    gaps.append(flat.take(a.rows * n_cols + a.cols))
    gaps = np.concatenate(gaps)
    # + 0.0 turns the -0.0 of all-zero gaps into 0.0 and keeps a NaN
    return _abs_max(gaps) + 0.0 if len(gaps) else 0.0


def _relative(gap, a, b):
    """gap / max(max |a|, max |b|) over two Triplets; 0.0 when that scale is 0.

    The zeros a triplet list leaves out move no maximum, so the scale is
    bitwise that of the dense matrices (0.0 for one without a nonzero).
    """
    scale = max(_abs_max(t.values) if len(t.values) else 0.0 for t in (a, b))
    return float(gap / scale) if scale else 0.0


@dataclass(frozen=True)
class JacobianSet:
    """The three global derivative matrices as Triplets, the selection of
    dOmega_dL, and the largest entry of each residual's difference."""

    dOmega_dL: Triplets
    dOmega_dS: Triplets
    dBigOmega_dS: Triplets
    selection: SubmatrixSelection
    symmetry_gap: float  # max |dOmega_dS - dOmega_dS^T|
    conjugacy_gap: float  # max |dBigOmega_dS - dOmega_dL^T|

    def symmetry_residual(self):
        return _relative(self.symmetry_gap, self.dOmega_dS, self.dOmega_dS)

    def conjugacy_residual(self):
        return _relative(self.conjugacy_gap, self.dBigOmega_dS, self.dOmega_dL)


def build_jacobians(c, m):
    """The three matrices, the selection and both residuals' largest gaps, from one
    batch of per-simplex angle and area blocks.

    Each whole matrix is scattered, taken as Triplets and spent before the
    next one is formed: dOmega_dL by the selection (rank_and_submatrix
    eliminates in it), dOmega_dS and dBigOmega_dS by transpose_gap.  So
    one dense matrix is alive at a time, the largest being the F x F
    dOmega_dS.
    """
    tables = length_tables(m.L, c.simplex_edges)
    shares = dtheta_dL_blocks(tables, -m.eps)
    dOmega_dL = assemble_domega_dL(c, m, shares)
    dL = Triplets.of(dOmega_dL)
    selection = rank_and_submatrix(dOmega_dL)
    del dOmega_dL
    dS_dL = geometry.dS_dL_blocks(tables)
    E, F = len(c.edge_ends), len(c.triangle_vertices)
    # a linear solve: X is bitwise the negated domega_dS_blocks of the angle blocks
    X = domega_dS_blocks(shares, dS_dL)
    del shares
    dOmega_dS = scatter_blocks((F, F), c.simplex_faces, c.simplex_faces, X)
    dS = Triplets.of(dOmega_dS)
    symmetry_gap = transpose_gap(dOmega_dS, dS, dS)
    del dOmega_dS
    # At a flat point the area-derivative weights are stationary against the
    # vanishing face deficits, leaving the weighted sum of dOmega_dS rows.
    # A triangle's weights depend on its own edges only, so each cell's
    # share is its own (dS/dL)^T X block.
    dBigOmega_dS = scatter_blocks(
        (E, F), c.simplex_edges, c.simplex_faces, np.swapaxes(dS_dL, 1, 2) @ X
    )
    dBig = Triplets.of(dBigOmega_dS)
    conjugacy_gap = transpose_gap(dBigOmega_dS, dBig, dL)
    return JacobianSet(dL, dS, dBig, selection, symmetry_gap, conjugacy_gap)


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


def rank_and_submatrix(matrix, must_include_row=None):
    """Complete-pivoting elimination: pivot rows/cols and pivots.

    The elimination overwrites matrix, as LAPACK's getrf does, when it is a
    float64 2-d ndarray (a read-only one is copied); anything else is
    converted to one first and the caller's object is left unchanged.  On
    return the array holds no meaningful values, so a caller that reads the
    matrix afterwards passes a copy.

    Pivoting stops when |pivot| <= PIVOT_TOL * max|entry|; under complete
    pivoting the largest entry is exactly the first pivot, and it stays the
    reference when a (possibly weaker) first pivot row is forced.  If must_include_row
    is given, that row is forced as the first pivot row (its largest entry
    becomes the first pivot); a forced row that is not an integer index in
    [0, n_rows) (a bool is none), or that is numerically zero, is an error.

    The elimination keeps row_best, the largest |entry| of each row.  It is
    first taken as max(row.max(), -row.min()), so that no |matrix| array is
    formed, and a NaN or infinite entry shows in its row's maximum.  The
    pivot row is the first argmax of row_best and the pivot column the first
    argmax of |work[r]|: the first maximum of |work| in row-major order.  A
    step updates only the rows with a nonzero entry in the pivot column, in
    passes of at most _UPDATE_BYTES per temporary, then zeroes that column
    and refreshes row_best on the touched rows.  The pivot row's own update,
    p - 1.0 * p, zeroes it exactly.  Every other row would only have a
    signed zero subtracted from it, which changes no |entry|, so the pivots
    and the complements are bitwise those of eliminating the whole array at
    every step; on the sparse dOmega_dL a step costs the touched rows, not
    the matrix.  Once a step has touched more than half of the rows and the
    whole array fits in one pass (work.nbytes <= _UPDATE_BYTES), the
    remaining steps do just that, in one array-sized buffer: the pivot is
    the first argmax of |work| and the update is x - (x_c / piv) * p, with
    no row maxima.
    """
    work = np.require(np.asarray(matrix, dtype=float), requirements="W")
    if work.ndim != 2:
        raise SelectionError("selection needs a 2-d matrix")
    n_rows, n_cols = work.shape
    row_best = _abs_max(work, axis=1) if n_cols else np.zeros(n_rows)
    if not np.all(np.isfinite(row_best)):
        raise SelectionError("matrix has non-finite entries")
    global_max = float(row_best.max()) if work.size else 0.0
    pivot_floor = PIVOT_TOL * global_max
    rows_per_pass = max(1, _UPDATE_BYTES // (work.itemsize * max(n_cols, 1)))

    forced = None
    if must_include_row is not None:
        row = must_include_row  # a bool is an Integral to Python, but no row index
        if isinstance(row, bool) or not (isinstance(row, numbers.Integral) and 0 <= row < n_rows):
            raise SelectionError(
                f"forced row {must_include_row!r} is not a row index of a {n_rows}-row matrix"
            )
        forced = int(must_include_row)
        row_max = float(row_best[forced]) if n_cols else 0.0
        if row_max == 0.0 or (global_max and row_max <= pivot_floor):
            raise SelectionError(
                f"forced row {forced} is numerically zero; it cannot pivot"
            )

    pivots = []
    pivot_rows = []
    pivot_cols = []
    whole = None  # the |work| and update buffer once the steps take the whole array
    for _ in range(min(n_rows, n_cols)):
        if whole is not None:
            r, c = divmod(int(np.abs(work, out=whole).argmax()), n_cols)
        else:
            r = forced if forced is not None and not pivots else int(row_best.argmax())
            c = int(np.abs(work[r]).argmax())
        piv = float(work[r, c])
        # the first pivot is the largest entry (or a forced row's, above the
        # floor), so only a zero matrix stops there
        if abs(piv) <= pivot_floor:
            break
        pivots.append(piv)
        pivot_rows.append(r)
        pivot_cols.append(c)
        if whole is not None:
            work -= np.multiply((work[:, c] / piv)[:, None], work[r], out=whole)
            work[:, c] = 0.0
        else:
            rows = work[:, c].nonzero()[0]
            # an earlier pass would overwrite row r, which later passes read
            pivot_row = work[r] if len(rows) <= rows_per_pass else work[r].copy()
            for start in range(0, len(rows), rows_per_pass):
                part = rows[start:start + rows_per_pass]
                touched = work[part]
                update = (touched[:, c] / piv)[:, None] * pivot_row
                touched -= update
                touched[:, c] = 0.0
                work[part] = touched
                # |touched| goes into the spent update rows: no further temporary
                row_best[part] = np.abs(touched, out=update).max(axis=1)
            if 2 * len(rows) > n_rows and work.nbytes <= _UPDATE_BYTES:
                whole = np.empty_like(work)

    return SubmatrixSelection(
        rows=tuple(pivot_rows),
        cols=tuple(pivot_cols),
        rows_comp=_complement(n_rows, pivot_rows),
        cols_comp=_complement(n_cols, pivot_cols),
        pivots=tuple(pivots),
    )


def _complement(n, kept):
    """The indices in range(n) not in kept, ascending, as a tuple of ints."""
    mask = np.ones(n, dtype=bool)
    mask[kept] = False
    return tuple(np.flatnonzero(mask).tolist())
