"""Oriented 4-dimensional simplicial complexes and the 3->3 move.

Simplices are stored canonically as (sorted 5-tuple, sign): the sign marks
whether the intended orientation is an even (+1) or odd (-1) permutation of
the ascending tuple.  Lower faces are keyed by sorted vertex tuples and carry
no stored orientation; induced orientations are computed on demand.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ComplexStructureError, MovePreconditionError
from .geometry import EDGES5, FACES5


def canonical_oriented(verts):
    """Canonical (ascending tuple, parity sign) form of an oriented tuple."""
    verts = tuple(int(v) for v in verts)
    if len(set(verts)) != len(verts):
        raise ComplexStructureError(f"simplex {verts} has repeated vertices")
    order = sorted(range(len(verts)), key=lambda i: verts[i])
    # parity of the sorting permutation by cycle count
    seen = [False] * len(order)
    sign = 1
    for i in range(len(order)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return tuple(sorted(verts)), sign


def oriented_tuple(verts, sign):
    """A concrete vertex ordering realizing (sorted tuple, sign)."""
    if sign > 0:
        return verts
    return verts[:-2] + (verts[-1], verts[-2])


def induced_facet_sign(verts, sign, facet):
    """Sign induced on a sorted facet by an oriented simplex.

    The facet obtained by dropping position j of an ascending tuple inherits
    (-1)^j times the simplex sign.
    """
    omitted = [v for v in verts if v not in facet]
    if len(omitted) != 1:
        raise ValueError(f"{facet} is not a facet of {verts}")
    j = verts.index(omitted[0])
    return sign * (-1) ** j


@dataclass(frozen=True)
class Complex4:
    """Immutable oriented 4-dimensional simplicial complex."""

    simplices: tuple  # of (sorted 5-tuple, sign)
    vertices: tuple
    faces: dict  # dim -> tuple of sorted vertex tuples, lexicographic
    face_index: dict  # dim -> {face tuple: position}
    cofaces: dict  # dim -> {face tuple: tuple of simplex ids}
    is_closed: bool
    orientation_consistent: bool
    # Index arrays aligned with the face tables, for batched metric and
    # assembly code.  Vertex entries are positions in `vertices`; edge and
    # triangle entries are positions in faces[1] and faces[2].
    edge_ends: np.ndarray = field(compare=False, repr=False)  # (E, 2)
    triangle_edges: np.ndarray = field(compare=False, repr=False)  # (F, 3): ab, ac, bc
    simplex_vertices: np.ndarray = field(compare=False, repr=False)  # (N, 5), oriented
    simplex_faces: np.ndarray = field(compare=False, repr=False)  # (N, 10), FACES5 order
    simplex_edges: np.ndarray = field(compare=False, repr=False)  # (N, 10), EDGES5 order

    @property
    def edges(self):
        return self.faces[1]

    @property
    def triangles(self):
        return self.faces[2]

    @property
    def tetrahedra(self):
        return self.faces[3]

    def oriented_simplex(self, i):
        verts, sign = self.simplices[i]
        return oriented_tuple(verts, sign)

    def f_vector(self):
        return tuple(len(self.faces[d]) for d in range(4)) + (len(self.simplices),)

    def euler_characteristic(self):
        fv = self.f_vector()
        return sum((-1) ** d * n for d, n in enumerate(fv))

    def simplex_set(self):
        """Unordered view of the oriented simplices (for move comparisons)."""
        return frozenset(self.simplices)


def build_complex(simplex_list, allow_boundary=False):
    """Validate a list of oriented 5-tuples and derive the face lattice.

    Raises ComplexStructureError for repeated vertex sets, for tetrahedra
    incident to more than two simplices, and for boundary tetrahedra unless
    allow_boundary is set.
    """
    simplices = []
    seen = {}
    for n, raw in enumerate(simplex_list):
        if len(raw) != 5:
            raise ComplexStructureError(f"simplex #{n} does not have 5 vertices: {raw}")
        verts, sign = canonical_oriented(raw)
        if verts in seen:
            raise ComplexStructureError(
                f"duplicate simplex {verts} at positions {seen[verts]} and {n}"
            )
        seen[verts] = n
        simplices.append((verts, sign))

    faces = {}
    face_index = {}
    cofaces = {}
    for dim in range(4):
        incid = {}
        for sid, (verts, _) in enumerate(simplices):
            for face in itertools.combinations(verts, dim + 1):
                incid.setdefault(face, []).append(sid)
        keys = tuple(sorted(incid))
        faces[dim] = keys
        face_index[dim] = {f: n for n, f in enumerate(keys)}
        cofaces[dim] = {f: tuple(incid[f]) for f in keys}

    is_closed = bool(simplices)
    for tet, ids in cofaces.get(3, {}).items():
        if len(ids) > 2:
            raise ComplexStructureError(
                f"tetrahedron {tet} is incident to {len(ids)} simplices (non-manifold)"
            )
        if len(ids) == 1:
            is_closed = False
    if not simplices:
        is_closed = True
    check_boundary(is_closed, allow_boundary)

    consistent = True
    for tet, ids in cofaces.get(3, {}).items():
        if len(ids) != 2:
            continue
        s0 = simplices[ids[0]]
        s1 = simplices[ids[1]]
        if induced_facet_sign(*s0, tet) != -induced_facet_sign(*s1, tet):
            consistent = False
            break

    vertices = tuple(sorted({v for verts, _ in simplices for v in verts}))
    position = {v: n for n, v in enumerate(vertices)}
    edge_of = face_index[1]
    simplex_faces, simplex_edges = scatter_indices(
        [verts for verts, _ in simplices], face_index[2], edge_of
    )
    return Complex4(
        simplices=tuple(simplices),
        vertices=vertices,
        faces=faces,
        face_index=face_index,
        cofaces=cofaces,
        is_closed=is_closed,
        orientation_consistent=consistent,
        edge_ends=_index_array([[position[u], position[w]] for u, w in faces[1]], 2),
        triangle_edges=_index_array(
            [[edge_of[(a, b)], edge_of[(a, c)], edge_of[(b, c)]] for a, b, c in faces[2]], 3
        ),
        simplex_vertices=_index_array(
            [[position[v] for v in oriented_tuple(*s)] for s in simplices], 5
        ),
        simplex_faces=simplex_faces,
        simplex_edges=simplex_edges,
    )


def _index_array(rows, width):
    return np.array(rows, dtype=np.intp).reshape(len(rows), width)


def scatter_indices(cells, face_index, edge_index):
    """(N, 10) global face rows and edge columns of sorted 5-tuples.

    Entry [n, k] is the position of the k-th local face (geometry.FACES5)
    or edge (geometry.EDGES5) of cells[n] in face_index or edge_index.
    """
    rows = [[face_index[(v[p], v[q], v[r])] for p, q, r in FACES5] for v in cells]
    cols = [[edge_index[(v[p], v[q])] for p, q in EDGES5] for v in cells]
    return _index_array(rows, 10), _index_array(cols, 10)


def check_boundary(is_closed, allow_boundary):
    """Reject a complex with boundary tetrahedra unless allow_boundary."""
    if not is_closed and not allow_boundary:
        raise ComplexStructureError(
            "complex has boundary tetrahedra; pass allow_boundary=True to accept"
        )


def require_closed_oriented(c):
    if not c.is_closed:
        raise ComplexStructureError("operation requires a closed complex")
    if not c.orientation_consistent:
        raise ComplexStructureError("operation requires a consistently oriented complex")


def star_of_triangle(c, t):
    """Ids of the 4-simplices containing triangle t, in stored order."""
    key = tuple(sorted(int(v) for v in t))
    try:
        return list(c.cofaces[2][key])
    except KeyError:
        raise ComplexStructureError(f"triangle {key} is not a face of the complex")


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
    union = set()
    for sid in star:
        union.update(c.simplices[sid][0])
    if len(union) != 6:
        raise MovePreconditionError(
            f"star of {tuple(sorted(t))} spans {len(union)} vertices, need exactly 6"
        )
    abc = tuple(sorted(int(v) for v in t))
    def_ = tuple(sorted(union - set(abc)))
    six = abc + def_

    by_missing = {}
    for sid in star:
        verts = set(c.simplices[sid][0])
        missing = [v for v in def_ if v not in verts]
        if len(missing) != 1:
            raise MovePreconditionError("star simplices do not form a 3->3 cluster")
        by_missing[missing[0]] = sid

    d_vertex = def_[0]
    new_cells = []
    for x in abc:
        new_verts = tuple(sorted(union - {x}))
        # match the induced orientation on a boundary tetrahedron shared with
        # the removed cell missing vertex D
        tau = tuple(v for v in new_verts if v != d_vertex)
        donor = c.simplices[by_missing[d_vertex]]
        target = induced_facet_sign(*donor, tau)
        candidate = induced_facet_sign(new_verts, 1, tau)
        new_cells.append((new_verts, 1 if candidate == target else -1))
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

    Breadth-first propagation across shared tetrahedra; raises if the complex
    is non-orientable or the propagation conflicts.
    """
    sets = [tuple(sorted(s)) for s in simplex_sets]
    incid = {}
    for sid, verts in enumerate(sets):
        for tet in itertools.combinations(verts, 4):
            incid.setdefault(tet, []).append(sid)
    signs = {}
    for root in range(len(sets)):
        if root in signs:
            continue
        signs[root] = 1
        queue = [root]
        while queue:
            cur = queue.pop()
            for tet in itertools.combinations(sets[cur], 4):
                for other in incid[tet]:
                    if other == cur:
                        continue
                    needed = -induced_facet_sign(sets[cur], signs[cur], tet)
                    have = induced_facet_sign(sets[other], 1, tet)
                    required = 1 if have == needed else -1
                    if other in signs:
                        if signs[other] != required:
                            raise ComplexStructureError(
                                "simplex list admits no consistent orientation"
                            )
                    else:
                        signs[other] = required
                        queue.append(other)
    return [oriented_tuple(sets[i], signs[i]) for i in range(len(sets))]


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

    Vertices 0 and 6 are the apexes; no triangle admits a 3->3 move, which
    makes this a pure symmetry/conjugacy fixture.
    """
    inner = range(1, 6)
    sets = [(0,) + q for q in itertools.combinations(inner, 4)]
    sets += [q + (6,) for q in itertools.combinations(inner, 4)]
    return build_complex(orient_consistently(sets))
