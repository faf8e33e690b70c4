"""Oriented 4-dimensional simplicial complexes and the 3->3 move.

A complex is its index arrays.  A cell has one form, its canonical oriented
order: ascending, with the last two vertices swapped when its sign, the
parity of the permutation sorting the cell as listed, is odd.  Lower faces
are ascending vertex rows with no stored orientation.  There is one
orientation rule: a cell of sign s induces s * _TET_SIGNS[k] on its k-th
tetrahedron (TETS5 order).  orient_consistently spreads signs by that rule;
stellar_subdivide and move_cluster orient a new cell as an oriented old
cell with one vertex substituted.

build_complex derives the face lattice in one array pass.  The cells are
stacked as an (N, 5) array, sorted row-wise, with the orientation sign from
the parity of the 10 pairwise comparisons, and relabelled by vertex
position.  A face of dimension k is packed into one integer key, the id of
its first-k-vertex face times V plus the position of its last vertex, so
one np.unique per dimension gives the lexicographic face table and, through
its inverse, the per-simplex index arrays.  Closedness, non-manifold
tetrahedra and orientation consistency are counts over the (N, 5)
tetrahedron ids.  find_faces, the one face lookup, finds edges and
triangles by vertex ids with one np.searchsorted over packed keys of the
face arrays.  The tuple views (faces, face_index, simplices,
oriented_simplex) are built when first read; the library reads none.
"""
from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ComplexStructureError, MovePreconditionError
from .geometry import EDGE_I, EDGE_INDEX5, EDGE_J, EDGES5, FACE_EDGES5, FACE_INDEX5, FACES5

# Local tetrahedra of a sorted 5-tuple, lexicographic: column k omits vertex 4 - k.
TETS5 = tuple(itertools.combinations(range(5), 4))
# (-1)^j for the facet omitting local vertex j, aligned with TETS5
_TET_SIGNS = np.array([(-1) ** (4 - k) for k in range(5)])
# Each local face as (first-k-vertex face, last vertex): edges over vertices,
# triangles over EDGES5, tetrahedra over FACES5.
_EDGE_PREFIX, _EDGE_LAST = (list(col) for col in zip(*EDGES5))
_FACE_PREFIX = [EDGE_INDEX5[f[:2]] for f in FACES5]
_FACE_LAST = [f[2] for f in FACES5]
_TET_PREFIX = [FACE_INDEX5[t[:3]] for t in TETS5]
_TET_LAST = [t[3] for t in TETS5]


def _sort_with_parity(rows):
    """Row-sorted copy of an (N, 5) array and the sign of each row's sorting permutation.

    The sign is (-1)^(number of inversions), counted over the 10 vertex
    pairs of EDGES5 at once.
    """
    inversions = (rows[:, EDGE_I] > rows[:, EDGE_J]).sum(axis=1)
    return np.sort(rows, axis=1), 1 - 2 * (inversions % 2)


def _oriented(rows, signs):
    """Ascending (N, 5) rows in canonical oriented order: the last two swapped where signs < 0."""
    oriented = rows.copy()
    odd = signs < 0
    oriented[odd, 3], oriented[odd, 4] = rows[odd, 4], rows[odd, 3]
    return oriented


@dataclass(frozen=True, eq=False)
class Complex4:
    """Immutable oriented 4-dimensional simplicial complex, held as index arrays.

    The faces of each dimension are lexicographic in their vertex ids
    (face_ids).  The views vertices, faces (dim -> tuple of vertex tuples),
    face_index (dim -> {face tuple: row}), simplices ((ascending 5-tuple,
    sign) pairs) and oriented_simplex are built from the arrays when first
    read.  Complexes compare by identity.
    """

    is_closed: bool
    orientation_consistent: bool
    # Vertex entries are positions in vertex_ids; edge, triangle and tetrahedron
    # entries are rows of edge_ends, triangle_vertices and tetrahedron_vertices.
    vertex_ids: np.ndarray = field(repr=False)  # (V,) int64, the vertices ascending
    edge_ends: np.ndarray = field(repr=False)  # (E, 2)
    triangle_vertices: np.ndarray = field(repr=False)  # (F, 3)
    tetrahedron_vertices: np.ndarray = field(repr=False)  # (T, 4)
    triangle_edges: np.ndarray = field(repr=False)  # (F, 3): ab, ac, bc
    simplex_vertices: np.ndarray = field(repr=False)  # (N, 5), canonical oriented order
    simplex_signs: np.ndarray = field(repr=False)  # (N,) +-1, that order against the ascending one
    simplex_faces: np.ndarray = field(repr=False)  # (N, 10), FACES5 order
    simplex_edges: np.ndarray = field(repr=False)  # (N, 10), EDGES5 order
    simplex_tetrahedra: np.ndarray = field(repr=False)  # (N, 5), TETS5 order

    def _face_positions(self):
        """dim -> (n, dim + 1) positions in vertex_ids of the faces of that dimension."""
        vertex = np.arange(len(self.vertex_ids))[:, None]
        return vertex, self.edge_ends, self.triangle_vertices, self.tetrahedron_vertices

    def face_ids(self, dim):
        """(n, dim + 1) vertex ids of the faces of one dimension, one ascending row per face."""
        return self.vertex_ids[self._face_positions()[dim]]

    @cached_property
    def _packed_faces(self):
        """dim -> (weights, keys) of the edges (1) and triangles (2): the base-V
        digit weights of a face's vertex positions and the packed keys of the
        face table, ascending, as the table is lexicographic (see find_faces)."""
        nv = len(self.vertex_ids)
        if nv**3 >= 2**63:
            raise ComplexStructureError(f"{nv} vertices are too many for packed face keys")
        packed = {}
        for dim in (1, 2):
            weights = nv ** np.arange(dim, -1, -1, dtype=np.int64)
            packed[dim] = weights, self._face_positions()[dim] @ weights
        return packed

    def find_faces(self, ids):
        """(at, found) for edges or triangles given by vertex ids.

        ids is an (..., 2) or (..., 3) integer array, each row ascending.
        Each row is packed into one key, its vertex positions as the digits
        of a base-V number (an int64 while V^3 < 2^63, up to about two
        million vertices; ComplexStructureError beyond), and one
        np.searchsorted over the packed table of its dimension gives at:
        its face row where found, and where not but every id names a
        vertex, the row it would go before.  A row with an id that names no
        vertex, or with a repeated id, is not found.
        """
        ids = np.asarray(ids, dtype=np.int64)
        vertex_ids = self.vertex_ids
        pos = np.minimum(np.searchsorted(vertex_ids, ids), len(vertex_ids) - 1)
        weights, table = self._packed_faces[ids.shape[-1] - 1]
        keys = pos @ weights
        at = np.searchsorted(table, keys)
        found = (vertex_ids[pos] == ids).all(axis=-1) & (table.take(at, mode="clip") == keys)
        return at, found

    def face_row(self, dim, ids):
        """Row of the edge (dim 1) or triangle (dim 2) with vertex ids in any order, or None.

        find_faces of one face given as Python integers: ids of another
        count, a repeated id or an id beyond int64 name no face.
        """
        key = sorted(int(v) for v in ids)
        if len(key) != dim + 1:
            return None
        try:
            at, found = self.find_faces(key)
        except OverflowError:
            return None
        return int(at) if found else None

    @cached_property
    def vertices(self):
        return tuple(self.vertex_ids.tolist())

    @cached_property
    def faces(self):
        return {dim: tuple(map(tuple, self.face_ids(dim).tolist())) for dim in range(4)}

    @cached_property
    def face_index(self):
        return {dim: {f: n for n, f in enumerate(table)} for dim, table in self.faces.items()}

    @cached_property
    def simplices(self):
        rows = self.vertex_ids[np.sort(self.simplex_vertices, axis=1)]
        return tuple(zip(map(tuple, rows.tolist()), self.simplex_signs.tolist()))

    def oriented_simplex(self, i):
        return tuple(self.vertex_ids[self.simplex_vertices[i]].tolist())

    def f_vector(self):
        return (len(self.vertex_ids), len(self.edge_ends), len(self.triangle_vertices),
                len(self.tetrahedron_vertices), len(self.simplex_vertices))

    def euler_characteristic(self):
        fv = self.f_vector()
        return sum((-1) ** d * n for d, n in enumerate(fv))


def _face_ids(prefix, last, nv):
    """Face table and (N, m) face ids from prefix-face ids and last-vertex positions.

    Each face is keyed prefix * nv + last; prefix ids are lexicographic
    positions already, so sorted keys are sorted faces.  Keys stay below
    (number of prefix faces) * nv <= 10 N * 5 N.  Returns (prefix ids,
    last positions) of the sorted distinct faces and the inverse.
    """
    keys, ids = np.unique(prefix * nv + last, return_inverse=True)
    return np.divmod(keys, nv), ids.reshape(prefix.shape)


def build_complex(simplex_list, allow_boundary=False):
    """Validate a list of oriented 5-tuples and derive the face lattice.

    Raises ComplexStructureError for a cell without 5 vertices or with a
    repeated vertex, for repeated vertex sets (each naming the first such
    cell in list order), for tetrahedra incident to more than two simplices
    (the first in lexicographic order), and for boundary tetrahedra unless
    allow_boundary is set.
    """
    cells = list(simplex_list)
    short = len(cells)
    if set(map(len, cells)) - {5}:
        short = next(n for n, cell in enumerate(cells) if len(cell) != 5)
    try:
        raw = np.array(cells[:short], dtype=np.int64).reshape(short, 5)
    except OverflowError:
        raise ComplexStructureError("vertex ids must fit in a signed 64-bit integer") from None
    rows, signs = _sort_with_parity(raw)
    vertices, pos = np.unique(rows, return_inverse=True)
    pos = pos.reshape(rows.shape)
    nv = len(vertices)

    (edge_first, edge_last), simplex_edges = _face_ids(
        pos[:, _EDGE_PREFIX], pos[:, _EDGE_LAST], nv
    )
    (tri_edge, tri_last), simplex_faces = _face_ids(
        simplex_edges[:, _FACE_PREFIX], pos[:, _FACE_LAST], nv
    )
    (tet_tri, tet_last), simplex_tets = _face_ids(
        simplex_faces[:, _TET_PREFIX], pos[:, _TET_LAST], nv
    )
    _, first, cell_ids = np.unique(
        simplex_tets[:, 0] * nv + pos[:, 4], return_index=True, return_inverse=True
    )
    earlier = first[cell_ids]
    repeated = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    bad = np.flatnonzero(repeated | (earlier != np.arange(short)))
    if bad.size:
        n = int(bad[0])
        if repeated[n]:
            raise ComplexStructureError(f"simplex {tuple(raw[n].tolist())} has repeated vertices")
        raise ComplexStructureError(
            f"duplicate simplex {tuple(rows[n].tolist())} at positions {int(earlier[n])} and {n}"
        )
    if short < len(cells):
        raise ComplexStructureError(
            f"simplex #{short} does not have 5 vertices: {cells[short]}"
        )

    edge_ends = np.stack([edge_first, edge_last], axis=1)
    triangles = np.column_stack([edge_ends[tri_edge], tri_last])
    tetrahedra = np.column_stack([triangles[tet_tri], tet_last])
    incidence = np.bincount(simplex_tets.ravel(), minlength=len(tetrahedra))
    crowded = np.flatnonzero(incidence > 2)
    if crowded.size:
        t = int(crowded[0])
        raise ComplexStructureError(
            f"tetrahedron {tuple(vertices[tetrahedra[t]].tolist())} is incident to "
            f"{int(incidence[t])} simplices (non-manifold)"
        )
    is_closed = bool(np.all(incidence == 2))
    check_boundary(is_closed, allow_boundary)
    # the two cofaces of an interior tetrahedron must induce opposite signs
    induced = np.bincount(
        simplex_tets.ravel(), weights=(signs[:, None] * _TET_SIGNS).ravel(),
        minlength=len(tetrahedra),
    )
    consistent = bool(np.all(induced[incidence == 2] == 0))

    triangle_edges = np.empty((len(triangles), 3), dtype=np.intp)
    triangle_edges[simplex_faces] = simplex_edges[:, FACE_EDGES5]
    return Complex4(
        is_closed=is_closed,
        orientation_consistent=consistent,
        vertex_ids=vertices,
        edge_ends=edge_ends,
        triangle_vertices=triangles,
        tetrahedron_vertices=tetrahedra,
        triangle_edges=triangle_edges,
        simplex_vertices=_oriented(pos, signs),
        simplex_signs=signs,
        simplex_faces=simplex_faces,
        simplex_edges=simplex_edges,
        simplex_tetrahedra=simplex_tets,
    )


def check_boundary(is_closed, allow_boundary):
    """Reject a complex with boundary tetrahedra unless allow_boundary."""
    if not is_closed and not allow_boundary:
        raise ComplexStructureError(
            "complex has boundary tetrahedra; this operation needs a closed complex"
        )


def require_closed_oriented(c):
    if not c.is_closed:
        raise ComplexStructureError("operation requires a closed complex")
    if not c.orientation_consistent:
        raise ComplexStructureError("operation requires a consistently oriented complex")


def star_of_triangle(c, t):
    """Ids of the 4-simplices containing triangle t, ascending."""
    row = c.face_row(2, t)
    if row is None:
        key = tuple(sorted(int(v) for v in t))
        raise ComplexStructureError(f"triangle {key} is not a face of the complex")
    return np.flatnonzero((c.simplex_faces == row).any(axis=1)).tolist()


@dataclass(frozen=True)
class MoveRecord:
    """Bookkeeping for one 3->3 move."""

    old_face: tuple
    new_face: tuple
    removed: tuple  # simplex ids in the source complex
    added: tuple  # simplex ids in the result complex
    six_vertices: tuple  # (A, B, C, D, E, F); ABC = old face, DEF = new face


def move_cluster(c, t):
    """Labels and replacement cells for a 3->3 move at triangle t.

    Returns (abc, def_, star_ids, new_cells) where new_cells is the (3, 5)
    array of the replacement cells' vertex ids in canonical oriented order,
    chosen so the replacement cluster carries the same boundary as the
    removed one.  Admissibility of materializing the move (new face absent)
    is NOT checked here.
    """
    star = star_of_triangle(c, t)
    abc = tuple(sorted(int(v) for v in t))
    if len(star) != 3:
        raise MovePreconditionError(
            f"triangle {abc} lies in {len(star)} simplices, need exactly 3"
        )
    # the oriented vertex ids of each star cell
    cells = dict(zip(star, c.vertex_ids[c.simplex_vertices[star]].tolist()))
    union = set().union(*cells.values())
    if len(union) != 6:
        raise MovePreconditionError(f"star of {abc} spans {len(union)} vertices, need exactly 6")
    def_ = tuple(sorted(union - set(abc)))

    by_missing = {}
    for sid, verts in cells.items():
        missing = [v for v in def_ if v not in verts]
        if len(missing) != 1:
            raise MovePreconditionError("star simplices do not form a 3->3 cluster")
        by_missing[missing[0]] = sid

    # The cell replacing x is the removed cell missing D with D in place of
    # x: it bounds their shared tetrahedron as that cell did.
    d_vertex = def_[0]
    donor = cells[by_missing[d_vertex]]
    new_cells = _oriented(*_sort_with_parity(
        np.array([[d_vertex if u == x else u for u in donor] for x in abc])
    ))
    return abc, def_, star, new_cells


def pachner_33(c, t):
    """Replace the three simplices around triangle t by the opposite cluster.

    Preconditions: t lies in exactly three 4-simplices whose union has six
    vertices, and the opposite triangle is not already a face (otherwise the
    result would identify distinct cells and stop being simplicial).
    """
    abc, def_, star, new_cells = move_cluster(c, t)
    if c.find_faces(def_)[1]:
        raise MovePreconditionError(
            f"opposite triangle {def_} is already a face; the move would create "
            "a non-simplicial identification"
        )
    kept = np.delete(c.vertex_ids[c.simplex_vertices], star, axis=0)
    added_ids = tuple(range(len(kept), len(kept) + 3))
    new_list = np.vstack([kept, new_cells]).tolist()
    moved = build_complex(new_list, allow_boundary=not c.is_closed)
    if moved.orientation_consistent != c.orientation_consistent:
        raise ComplexStructureError("move broke orientation consistency")
    record = MoveRecord(
        old_face=abc,
        new_face=def_,
        removed=tuple(star),
        added=added_ids,
        six_vertices=abc + def_,
    )
    return moved, record


def orient_consistently(simplex_sets):
    """Assign signs making the listed vertex sets a consistently oriented complex.

    The complex of the ascending sets gives, for each interior tetrahedron,
    its two cells and their TETS5 columns k1, k2; the cells are consistent
    when s1 * _TET_SIGNS[k1] = -s2 * _TET_SIGNS[k2].  Signs spread from the
    lowest unsigned cell across those pairs, one frontier at a time, so each
    connected part keeps its first cell ascending.  Raises
    ComplexStructureError if the sets are not a pseudomanifold or admit no
    consistent orientation.
    """
    c = build_complex([sorted(s) for s in simplex_sets], allow_boundary=True)
    tets = c.simplex_tetrahedra.ravel()
    order = np.argsort(tets, kind="stable")
    # the two (cell * 5 + column) incidences of each interior tetrahedron
    pairs = order[np.bincount(tets)[tets[order]] == 2].reshape(-1, 2)
    cell_a, cell_b = pairs.T // 5
    flip = -_TET_SIGNS[pairs[:, 0] % 5] * _TET_SIGNS[pairs[:, 1] % 5]
    signs = np.zeros(len(c.simplex_vertices), dtype=int)
    while not signs.all():
        signs[np.argmin(signs != 0)] = 1
        while True:
            forward = (signs[cell_a] != 0) & (signs[cell_b] == 0)
            backward = (signs[cell_b] != 0) & (signs[cell_a] == 0)
            if not (forward.any() or backward.any()):
                break
            signs[cell_b[forward]] = signs[cell_a[forward]] * flip[forward]
            signs[cell_a[backward]] = signs[cell_b[backward]] * flip[backward]
    if np.any(signs[cell_b] != signs[cell_a] * flip):
        raise ComplexStructureError("simplex list admits no consistent orientation")
    rows = c.vertex_ids[np.sort(c.simplex_vertices, axis=1)]
    return list(map(tuple, _oriented(rows, signs).tolist()))


def stellar_subdivide(c, sid):
    """Stellar 1->5 subdivision of simplex sid at a new vertex.

    The cell is replaced by the cone over its boundary from the vertex
    max(c.vertex_ids) + 1.  Each cone cell is the oriented cell with one
    vertex replaced by the apex, so it keeps the cell's orientation and
    every other cell keeps its own.  sid must be an integer in range(N) (a
    bool is none); anything else raises ComplexStructureError.
    """
    n_cells = len(c.simplex_vertices)
    if isinstance(sid, bool) or not (isinstance(sid, numbers.Integral) and 0 <= sid < n_cells):
        raise ComplexStructureError(f"simplex id {sid!r} is not in range({n_cells})")
    cells = c.vertex_ids[c.simplex_vertices]
    apex = int(c.vertex_ids[-1]) + 1
    cell = cells[sid].tolist()
    cone = [[apex if u == x else u for u in cell] for x in cell]
    return build_complex(np.delete(cells, sid, axis=0).tolist() + cone,
                         allow_boundary=not c.is_closed)


def boundary_delta5():
    """Boundary of the 5-simplex on vertices 0..5 with its standard orientation."""
    hats = np.array([[v for v in range(6) if v != i] for i in range(6)])
    return build_complex(_oriented(hats, (-1) ** np.arange(6)).tolist())


def tetra_circle_join():
    """Join of the tetrahedron boundary (vertices 0..3) with a 3-cycle (4, 5, 6).

    A 12-cell triangulated 4-sphere.  Every triangle of the tetrahedron
    boundary lies in exactly three 4-simplices and its opposite triangle
    (4, 5, 6) is not a face, so 3->3 moves at those triangles are admissible.
    """
    sphere_triangles = list(itertools.combinations(range(4), 3))
    circle_edges = [(4, 5), (5, 6), (4, 6)]
    sets = [tri + e for tri in sphere_triangles for e in circle_edges]
    return build_complex(orient_consistently(sets))


def bipyramid_sphere():
    """Two boundary-5-simplices glued along a facet: a 10-cell 4-sphere on 0..6.

    Vertices 0 and 6 are the apexes.  Its 20 triangles through an apex lie
    in three cells each, but every opposite triangle is already a face, so
    pachner_33 rejects all of them while compare_under_move (which never
    builds the moved complex) runs at each.
    """
    inner = range(1, 6)
    sets = [(0,) + q for q in itertools.combinations(inner, 4)]
    sets += [q + (6,) for q in itertools.combinations(inner, 4)]
    return build_complex(orient_consistently(sets))
