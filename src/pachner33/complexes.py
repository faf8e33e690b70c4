"""Oriented 4-dimensional simplicial complexes and the 3->3 move.

Simplices are stored canonically as (sorted 5-tuple, sign): the sign marks
whether the intended orientation is an even (+1) or odd (-1) permutation of
the ascending tuple.  Lower faces are keyed by sorted vertex tuples and carry
no stored orientation.  There is one orientation rule: the sign is the
parity of the sorting permutation, and a cell of sign s induces s *
_TET_SIGNS[k] on its k-th tetrahedron (TETS5 order).  orient_consistently
spreads signs by that rule; stellar_subdivide and move_cluster orient a new
cell as an oriented old cell with one vertex substituted.

build_complex derives the face lattice in one array pass.  The cells are
stacked as an (N, 5) array, sorted row-wise, with the orientation sign from
the parity of the 10 pairwise comparisons, and relabelled by vertex
position.  A face of dimension k is packed into one integer key, the id of
its first-k-vertex face times V plus the position of its last vertex, so
one np.unique per dimension gives the lexicographic face table and, through
its inverse, the per-simplex index arrays.  Closedness, non-manifold
tetrahedra and orientation consistency are counts over the (N, 5)
tetrahedron ids.  The complex keeps the vertex positions of its faces
as arrays; the tuple tables (faces[d], face_index[d], simplices) are built
from them on first read, each dimension on its own, so a command that only
reads the arrays builds none of them.
"""
from __future__ import annotations

import itertools
from collections.abc import Mapping
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


def oriented_tuple(verts, sign):
    """A concrete vertex ordering realizing (sorted tuple, sign)."""
    if sign > 0:
        return verts
    return verts[:-2] + (verts[-1], verts[-2])


class _Tables(Mapping):
    """dim -> table for the dimensions 0..3, each built by build(dim) on its first read.

    Reads as the dict of all four tables; its repr builds them.
    """

    def __init__(self, build):
        self._build = build
        self._built = {}

    def __getitem__(self, dim):
        if dim not in self._built:
            if dim not in range(4):
                raise KeyError(dim)
            self._built[dim] = self._build(dim)
        return self._built[dim]

    def __contains__(self, dim):
        return dim in range(4)

    def __iter__(self):
        return iter(range(4))

    def __len__(self):
        return 4

    def __repr__(self):
        return repr(dict(self))


@dataclass(frozen=True, eq=False)
class Complex4:
    """Immutable oriented 4-dimensional simplicial complex.

    The lattice is held as index arrays.  The tuple tables are derived from
    them on first read, each dimension separately: faces (dim -> tuple of
    sorted vertex tuples, lexicographic), face_index (dim -> {face tuple:
    position}), simplices (tuple of (sorted 5-tuple, sign)) and vertices
    (the tuple of vertex_ids).  Sizes come from the arrays (f_vector).
    Complexes compare by identity: two builds of one cell list are equal
    complexes only in their tables.
    """

    is_closed: bool
    orientation_consistent: bool
    # Index arrays aligned with the face tables, for batched metric and
    # assembly code.  Vertex entries are positions in `vertex_ids`; edge,
    # triangle and tetrahedron entries are positions in faces[1..3].
    vertex_ids: np.ndarray = field(repr=False)  # (V,) int64, the vertices ascending
    edge_ends: np.ndarray = field(repr=False)  # (E, 2)
    triangle_vertices: np.ndarray = field(repr=False)  # (F, 3)
    tetrahedron_vertices: np.ndarray = field(repr=False)  # (T, 4)
    triangle_edges: np.ndarray = field(repr=False)  # (F, 3): ab, ac, bc
    simplex_vertices: np.ndarray = field(repr=False)  # (N, 5), oriented
    simplex_signs: np.ndarray = field(repr=False)  # (N,) +-1 against the sorted order
    simplex_faces: np.ndarray = field(repr=False)  # (N, 10), FACES5 order
    simplex_edges: np.ndarray = field(repr=False)  # (N, 10), EDGES5 order
    simplex_tetrahedra: np.ndarray = field(repr=False)  # (N, 5), TETS5 order

    def _face_positions(self):
        """dim -> (n, dim + 1) positions in vertex_ids of the faces of that dimension."""
        vertex = np.arange(len(self.vertex_ids))[:, None]
        return vertex, self.edge_ends, self.triangle_vertices, self.tetrahedron_vertices

    def face_ids(self, dim):
        """(n, dim + 1) vertex ids of the faces of one dimension, rows aligned with faces[dim]."""
        return self.vertex_ids[self._face_positions()[dim]]

    @cached_property
    def vertices(self):
        return tuple(self.vertex_ids.tolist())

    # The table builders hold the arrays, not the complex, so that a complex
    # whose tables were read holds no reference cycle and is freed at once.
    @cached_property
    def faces(self):
        ids, positions = self.vertex_ids, self._face_positions()
        return _Tables(lambda dim: tuple(map(tuple, ids[positions[dim]].tolist())))

    @cached_property
    def face_index(self):
        faces = self.faces
        return _Tables(lambda dim: {f: n for n, f in enumerate(faces[dim])})

    @cached_property
    def simplices(self):
        rows = self.vertex_ids[np.sort(self.simplex_vertices, axis=1)]
        return tuple(zip(map(tuple, rows.tolist()), self.simplex_signs.tolist()))

    def oriented_simplex(self, i):
        verts, sign = self.simplices[i]
        return oriented_tuple(verts, sign)

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
    oriented = pos.copy()
    odd = signs < 0
    oriented[odd, 3], oriented[odd, 4] = pos[odd, 4], pos[odd, 3]
    return Complex4(
        is_closed=is_closed,
        orientation_consistent=consistent,
        vertex_ids=vertices,
        edge_ends=edge_ends,
        triangle_vertices=triangles,
        tetrahedron_vertices=tetrahedra,
        triangle_edges=triangle_edges,
        simplex_vertices=oriented,
        simplex_signs=signs,
        simplex_faces=simplex_faces,
        simplex_edges=simplex_edges,
        simplex_tetrahedra=simplex_tets,
    )


def scatter_indices(cells, face_index, edge_index):
    """(N, 10) global face rows and edge columns of sorted 5-tuples.

    Entry [n, k] is the position of the k-th local face (geometry.FACES5)
    or edge (geometry.EDGES5) of cells[n] in face_index or edge_index.
    """
    rows = [[face_index[(v[p], v[q], v[r])] for p, q, r in FACES5] for v in cells]
    cols = [[edge_index[(v[p], v[q])] for p, q in EDGES5] for v in cells]
    return _index_array(rows, 10), _index_array(cols, 10)


def _index_array(rows, width):
    return np.array(rows, dtype=np.intp).reshape(len(rows), width)


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
    key = tuple(sorted(int(v) for v in t))
    row = c.face_index[2].get(key)
    if row is None:
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

    Returns (abc, def_, star_ids, new_cells) where new_cells are oriented
    (sorted tuple, sign) pairs chosen so the replacement cluster carries the
    same boundary as the removed one.  Admissibility of materializing the
    move (new face absent) is NOT checked here.
    """
    star = star_of_triangle(c, t)
    if len(star) != 3:
        raise MovePreconditionError(
            f"triangle {tuple(sorted(t))} lies in {len(star)} simplices, need exactly 3"
        )
    # the oriented vertex ids of each star cell
    cells = dict(zip(star, c.vertex_ids[c.simplex_vertices[star]].tolist()))
    union = set().union(*cells.values())
    if len(union) != 6:
        raise MovePreconditionError(
            f"star of {tuple(sorted(t))} spans {len(union)} vertices, need exactly 6"
        )
    abc = tuple(sorted(int(v) for v in t))
    def_ = tuple(sorted(union - set(abc)))
    six = abc + def_

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
    rows, signs = _sort_with_parity(
        np.array([[d_vertex if u == x else u for u in donor] for x in abc])
    )
    new_cells = list(zip(map(tuple, rows.tolist()), signs.tolist()))
    return abc, def_, star, new_cells


def pachner_33(c, t):
    """Replace the three simplices around triangle t by the opposite cluster.

    Preconditions: t lies in exactly three 4-simplices whose union has six
    vertices, and the opposite triangle is not already a face (otherwise the
    result would identify distinct cells and stop being simplicial).
    """
    abc, def_, star, new_cells = move_cluster(c, t)
    if def_ in c.face_index[2]:
        raise MovePreconditionError(
            f"opposite triangle {def_} is already a face; the move would create "
            "a non-simplicial identification"
        )
    removed = set(star)
    new_list = [
        oriented_tuple(*c.simplices[i])
        for i in range(len(c.simplices))
        if i not in removed
    ]
    added_ids = tuple(range(len(new_list), len(new_list) + 3))
    new_list.extend(oriented_tuple(*cell) for cell in new_cells)
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
    signs = np.zeros(len(c.simplices), dtype=int)
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
    return [oriented_tuple(verts, s) for (verts, _), s in zip(c.simplices, signs.tolist())]


def stellar_subdivide(c, sid):
    """Stellar 1->5 subdivision of simplex sid at a new vertex.

    The cell is replaced by the cone over its boundary from the vertex
    max(c.vertices) + 1.  Each cone cell is the oriented cell with one vertex
    replaced by the apex, so it keeps the cell's orientation and every other
    cell keeps its own.
    """
    apex = c.vertices[-1] + 1
    cell = c.oriented_simplex(sid)
    cells = [c.oriented_simplex(n) for n in range(len(c.simplices)) if n != sid]
    cells += [tuple(apex if u == x else u for u in cell) for x in cell]
    return build_complex(cells, allow_boundary=not c.is_closed)


def boundary_delta5():
    """Boundary of the 5-simplex on vertices 0..5 with its standard orientation."""
    simplices = []
    for i in range(6):
        verts = tuple(v for v in range(6) if v != i)
        simplices.append(oriented_tuple(verts, (-1) ** i))
    return build_complex(simplices)


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
