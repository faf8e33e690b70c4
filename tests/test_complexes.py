"""Combinatorics: construction, face lattice, stars, 3->3 moves."""
import bisect
import dataclasses
import gc
import itertools
import re
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pachner33 import complexes as cx
from pachner33 import flatmetric as fm
from pachner33 import invariants as iv
from pachner33 import jacobians as jb
from pachner33.errors import ComplexStructureError, MovePreconditionError
from pachner33.io import load_fixture

from conftest import index_array, scatter_indices


# --------------------------------------------------- orientation references

def oriented_tuple(verts, sign):
    """The canonical oriented order of (ascending tuple, sign): the last two swapped if odd."""
    return verts if sign > 0 else verts[:-2] + (verts[-1], verts[-2])


def induced_facet_sign(verts, sign, facet):
    """Sign induced on a sorted facet by an oriented simplex.

    The facet obtained by dropping position j of an ascending tuple inherits
    (-1)^j times the simplex sign.  The per-tuple rule that the TETS5 column
    signs of build_complex replaced, kept as their reference.
    """
    omitted = [v for v in verts if v not in facet]
    if len(omitted) != 1:
        raise ValueError(f"{facet} is not a facet of {verts}")
    j = verts.index(omitted[0])
    return sign * (-1) ** j


def orient_consistently_walk(simplex_sets):
    """The breadth-first walk over tuple-keyed incidence that orient_consistently
    replaced, kept as its reference."""
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


def new_cells_by_induced_sign(c, t):
    """Replacement cells of the move at t by the induced-sign rule that the
    vertex substitution of move_cluster replaced: each new cell induces on
    the tetrahedron it shares with the removed cell missing D the sign that
    cell induces."""
    abc, def_, star, _ = cx.move_cluster(c, t)
    union = set(abc + def_)
    d_vertex = def_[0]
    (donor,) = [c.simplices[sid] for sid in star if d_vertex not in c.simplices[sid][0]]
    cells = []
    for x in abc:
        new_verts = tuple(sorted(union - {x}))
        tau = tuple(v for v in new_verts if v != d_vertex)
        target = induced_facet_sign(*donor, tau)
        candidate = induced_facet_sign(new_verts, 1, tau)
        cells.append(oriented_tuple(new_verts, 1 if candidate == target else -1))
    return cells


def test_boundary_delta5_counts(delta5):
    # binomial counts: C(6, k+1) faces in each dimension
    assert delta5.f_vector() == (6, 15, 20, 15, 6)
    assert delta5.is_closed
    assert delta5.orientation_consistent
    assert delta5.euler_characteristic() == 2


def test_single_simplex_has_boundary():
    c = cx.build_complex([(0, 1, 2, 3, 4)], allow_boundary=True)
    assert not c.is_closed
    # each of the five tetrahedra bounds the one simplex only
    assert np.bincount(c.simplex_tetrahedra.ravel()).tolist() == [1] * 5
    with pytest.raises(ComplexStructureError):
        cx.build_complex([(0, 1, 2, 3, 4)])


def test_duplicate_simplex_rejected():
    with pytest.raises(ComplexStructureError, match="duplicate"):
        cx.build_complex([(0, 1, 2, 3, 4), (1, 0, 2, 3, 4)], allow_boundary=True)


def test_non_manifold_tetrahedron_rejected():
    simplices = [(0, 1, 2, 3, 4), (0, 1, 2, 3, 5), (0, 1, 2, 3, 6)]
    with pytest.raises(ComplexStructureError, match="non-manifold"):
        cx.build_complex(simplices, allow_boundary=True)


def test_orientation_consistency_flag():
    # sharing tetra (0,1,2,3): equal tuples induce it with equal signs
    c = cx.build_complex([(0, 1, 2, 3, 4), (1, 0, 2, 3, 5)], allow_boundary=True)
    assert c.orientation_consistent
    d = cx.build_complex([(0, 1, 2, 3, 4), (0, 1, 2, 3, 5)], allow_boundary=True)
    assert not d.orientation_consistent


@given(st.permutations(list(range(5))))
@settings(max_examples=40)
def test_canonical_orientation_tracks_permutation_parity(perm):
    ((verts, sign),) = cx.build_complex([perm], allow_boundary=True).simplices
    assert verts == (0, 1, 2, 3, 4)
    inversions = sum(
        1 for i in range(5) for j in range(i + 1, 5) if perm[i] > perm[j]
    )
    assert sign == (-1) ** inversions


def test_star_of_triangle_delta5(delta5):
    star = cx.star_of_triangle(delta5, (0, 1, 2))
    sets = {delta5.simplices[i][0] for i in star}
    assert sets == {
        tuple(v for v in range(6) if v != omit) for omit in (3, 4, 5)
    }
    star2 = cx.star_of_triangle(delta5, (3, 4, 5))
    sets2 = {delta5.simplices[i][0] for i in star2}
    assert sets2 == {
        tuple(v for v in range(6) if v != omit) for omit in (0, 1, 2)
    }


def test_star_of_triangle_single_simplex():
    c = cx.build_complex([(0, 1, 2, 3, 4)], allow_boundary=True)
    assert cx.star_of_triangle(c, (0, 1, 2)) == [0]


def test_star_of_missing_triangle_raises(delta5):
    with pytest.raises(ComplexStructureError):
        cx.star_of_triangle(delta5, (0, 1, 7))


def test_find_faces_is_the_tuple_table_lookup(join_complex):
    # on a complex whose vertex ids have gaps, every ascending pair and
    # triple of ids around them (non-vertices included) is found exactly
    # where the tuple tables hold it, with bisect's place where it is not
    cells = join_complex.vertex_ids[join_complex.simplex_vertices]
    c = cx.build_complex((3 * cells - 4).tolist())
    ids = range(-6, 20)
    for dim in (1, 2):
        table, index = c.faces[dim], c.face_index[dim]
        queries = np.array(list(itertools.combinations(ids, dim + 1)))
        at, found = c.find_faces(queries)
        assert found.tolist() == [tuple(q) in index for q in queries.tolist()]
        assert found.sum() == len(table)
        vertices = set(c.vertices)
        for q, row in zip(queries.tolist(), at.tolist()):
            if set(q) <= vertices:
                assert row == bisect.bisect_left(table, tuple(q)), q
    # face_row: any order; ids outside int64, repeated ids and other
    # lengths name no face, as the tuple table's lookup had it
    for t in [(2, -4, -1), (-1, 2, -4), *itertools.combinations(ids, 3)]:
        assert c.face_row(2, t) == c.face_index[2].get(tuple(sorted(t))), t
    for e in [(-1, -4), *itertools.combinations(ids, 2)]:
        assert c.face_row(1, e) == c.face_index[1].get(tuple(sorted(e))), e
    for t in [(-4, -1, 2**63), (-4, -1, -(2**63) - 1), (-4, -1, 10**30),
              (-4, -4, -1), (-4, -1), (-4, -1, 2, 5)]:
        assert c.face_row(2, t) is None, t
        with pytest.raises(ComplexStructureError, match="is not a face"):
            cx.star_of_triangle(c, t)
    for e in [(-4, 10**20), (-4, -4), (-4,), (-4, -1, 2)]:
        assert c.face_row(1, e) is None, e
    # base-V keys of three positions fit int64 up to V = 2097151 vertices
    for nv, fits in ((2**21 - 1, True), (2**21, False)):
        wide = dataclasses.replace(c, vertex_ids=np.arange(nv))
        if fits:
            # positions 0, 1, 2 are the ids 0, 1, 2 of the wide complex
            assert wide.find_faces([[0, 1, 2]])[1].tolist() == [(-4, -1, 2) in c.face_index[2]]
        else:
            with pytest.raises(ComplexStructureError, match="too many"):
                wide.find_faces([[0, 1, 2]])


@pytest.mark.parametrize("ids", [[[0, 1, 2, 3]], [0], [[0]], [[]], 0, np.zeros((2, 0), dtype=int)],
                         ids=["width 4", "width 1", "rows of 1", "rows of 0", "scalar", "empty rows"])
def test_find_faces_rejects_rows_that_are_not_edges_or_triangles(bipyramid, ids):
    width = "a scalar" if np.ndim(ids) == 0 else f"width {np.shape(ids)[-1]}"
    with pytest.raises(ComplexStructureError, match=f"rows of 2 or 3 vertex ids, not {width}$"):
        bipyramid.find_faces(ids)


def test_total_boundary_of_delta5_vanishes(delta5):
    # every tetrahedron receives opposite induced orientations
    assert np.bincount(delta5.simplex_tetrahedra.ravel()).tolist() == [2] * 15
    for k, tet in enumerate(delta5.faces[3]):
        ids = np.flatnonzero((delta5.simplex_tetrahedra == k).any(axis=1))
        signs = [induced_facet_sign(*delta5.simplices[i], tet) for i in ids]
        assert signs[0] == -signs[1]


# ------------------------------------------------------------------- moves

def test_move_on_join_is_involutive(join_complex):
    moved, rec = cx.pachner_33(join_complex, (0, 1, 2))
    assert rec.old_face == (0, 1, 2)
    assert rec.new_face == (4, 5, 6)
    assert rec.six_vertices == (0, 1, 2, 4, 5, 6)
    assert moved.f_vector() == join_complex.f_vector()
    assert moved.is_closed and moved.orientation_consistent
    # triangle bookkeeping: old face gone, new face present
    assert (0, 1, 2) not in moved.face_index[2]
    assert (4, 5, 6) in moved.face_index[2]
    # the added simplices are exactly the star of the new face
    assert set(cx.star_of_triangle(moved, rec.new_face)) == set(rec.added)
    back, rec2 = cx.pachner_33(moved, rec.new_face)
    assert frozenset(back.simplices) == frozenset(join_complex.simplices)
    assert rec2.new_face == (0, 1, 2)


@given(st.sampled_from(list(itertools.combinations(range(4), 3))))
@settings(max_examples=4, deadline=None)
def test_move_preserves_counts_at_every_admissible_triangle(triangle):
    c = cx.tetra_circle_join()
    moved, rec = cx.pachner_33(c, triangle)
    assert moved.f_vector() == c.f_vector()
    assert moved.orientation_consistent
    assert set(rec.removed) == set(cx.star_of_triangle(c, triangle))


def test_move_rejected_when_opposite_triangle_present(delta5):
    # every triple of the six vertices is already a face here
    with pytest.raises(MovePreconditionError, match="already a face"):
        cx.pachner_33(delta5, (0, 1, 2))


def test_move_rejected_for_wrong_star_size():
    c = cx.build_complex([(0, 1, 2, 3, 4), (0, 1, 2, 3, 5)], allow_boundary=True)
    with pytest.raises(MovePreconditionError, match="lies in 2"):
        cx.pachner_33(c, (0, 1, 2))


def test_move_rejected_in_four_simplex_star(bipyramid):
    # triangles inside the equator belong to four simplices
    with pytest.raises(MovePreconditionError, match="lies in 4"):
        cx.pachner_33(bipyramid, (1, 2, 3))
    # ids given as numpy integers, in any order, are named as Python integers
    with pytest.raises(MovePreconditionError, match=r"^triangle \(1, 2, 3\) lies in 4 "):
        cx.pachner_33(bipyramid, np.array([3, 1, 2]))


def test_replacement_cells_cover_the_removed_boundary(join_complex):
    abc, def_, star, new_cells = cx.move_cluster(join_complex, (0, 1, 2))
    # boundary chain of removed cluster == boundary chain of replacement
    def boundary_chain(cells):
        chain = {}
        for verts, sign in cells:
            for tet in itertools.combinations(verts, 4):
                chain[tet] = chain.get(tet, 0) + induced_facet_sign(verts, sign, tet)
        return {t: s for t, s in chain.items() if s != 0}

    removed = [join_complex.simplices[i] for i in star]
    assert boundary_chain(removed) == boundary_chain(map(canonical_oriented_loop, new_cells))


def test_orient_consistently_round_trips(join_complex):
    sets = [verts for verts, _ in join_complex.simplices]
    oriented = cx.orient_consistently(sets)
    rebuilt = cx.build_complex(oriented)
    assert rebuilt.orientation_consistent
    assert rebuilt.is_closed


def _shuffled_sets(cells, rng):
    """Vertex sets of the cells in a random order, each in a random vertex order."""
    sets = [tuple(rng.permutation(cell).tolist()) for cell in cells]
    rng.shuffle(sets)
    return sets


def test_orient_consistently_matches_the_walk(delta5, join_complex, bipyramid, stellar_ladder):
    rng = np.random.default_rng(53)
    complexes = [delta5, join_complex, bipyramid] + [c for c, _ in stellar_ladder.values()]
    for c in complexes:
        sets = [verts for verts, _ in c.simplices]
        for cells in (sets, _shuffled_sets(sets, rng), _shuffled_sets(sets, rng)):
            oriented = cx.orient_consistently(cells)
            assert oriented == orient_consistently_walk(cells)
            rebuilt = cx.build_complex(oriented)
            assert rebuilt.orientation_consistent and rebuilt.is_closed
    # two separate spheres: each part keeps its first listed cell ascending
    apart = [verts for verts, _ in delta5.simplices]
    apart += [tuple(v + 10 for v in verts) for verts in _shuffled_sets(apart, rng)]
    assert cx.orient_consistently(apart) == orient_consistently_walk(apart)
    assert cx.orient_consistently([]) == orient_consistently_walk([]) == []


def test_non_orientable_list_is_rejected():
    # the 5-vertex Moebius band joined with the edge {5, 6}
    mobius = [(i, (i + 1) % 5, (i + 2) % 5, 5, 6) for i in range(5)]
    for orient in (cx.orient_consistently, orient_consistently_walk):
        with pytest.raises(ComplexStructureError, match="admits no consistent orientation"):
            orient(mobius)


def test_move_cluster_orients_like_the_induced_sign_rule(
    delta5, join_complex, bipyramid, stellar_ladder
):
    rng = np.random.default_rng(59)
    complexes = [delta5, join_complex, bipyramid] + [c for c, _ in stellar_ladder.values()]
    # the same complexes listed in another order, each cell rotated (an even permutation)
    for c in list(complexes):
        cells = oriented_cells(c)
        rng.shuffle(cells)
        turns = rng.integers(5, size=len(cells)).tolist()
        complexes.append(cx.build_complex([cell[k:] + cell[:k] for cell, k in zip(cells, turns)]))
    moved = 0
    for c in complexes:
        for tri in c.faces[2]:
            try:
                _, _, _, new_cells = cx.move_cluster(c, tri)
            except MovePreconditionError:
                continue
            assert new_cells.dtype == np.int64 and new_cells.shape == (3, 5)
            assert list(map(tuple, new_cells.tolist())) == new_cells_by_induced_sign(c, tri)
            moved += 1
    assert moved > 200


def test_bipyramid_moves_are_all_self_dual(bipyramid):
    # 20 triangles through an apex lie in three cells each; every opposite
    # triangle is already a face, so pachner_33 rejects every one of them,
    # while compare_under_move, which never builds the moved complex, runs
    coords = fm.random_realization(bipyramid, seed=2)
    admissible = []
    for tri in bipyramid.faces[2]:
        try:
            _, def_, _, _ = cx.move_cluster(bipyramid, tri)
        except MovePreconditionError:
            continue
        assert def_ in bipyramid.face_index[2]
        with pytest.raises(MovePreconditionError, match="already a face"):
            cx.pachner_33(bipyramid, tri)
        assert iv.compare_under_move(bipyramid, coords, tri).deviation < 1e-10
        admissible.append(tri)
    assert len(admissible) == 20
    assert all(0 in tri or 6 in tri for tri in admissible)


def test_bipyramid_structure(bipyramid):
    assert bipyramid.f_vector() == (7, 20, 30, 25, 10)
    assert bipyramid.euler_characteristic() == 2
    assert (0, 6) not in bipyramid.face_index[1]


# ------------------------------------------------ array-built face lattice

def canonical_oriented_loop(verts):
    """Sorted tuple and sorting-permutation parity by cycle count."""
    verts = tuple(int(v) for v in verts)
    if len(set(verts)) != len(verts):
        raise ComplexStructureError(f"simplex {verts} has repeated vertices")
    order = sorted(range(len(verts)), key=lambda i: verts[i])
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


def build_complex_loop(simplex_list, allow_boundary=False):
    """The per-cell loop that build_complex replaced, kept as its bitwise reference."""
    simplices = []
    seen = {}
    for n, raw in enumerate(simplex_list):
        if len(raw) != 5:
            raise ComplexStructureError(f"simplex #{n} does not have 5 vertices: {raw}")
        verts, sign = canonical_oriented_loop(raw)
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
    for tet, ids in cofaces[3].items():
        if len(ids) > 2:
            raise ComplexStructureError(
                f"tetrahedron {tet} is incident to {len(ids)} simplices (non-manifold)"
            )
        if len(ids) == 1:
            is_closed = False
    if not simplices:
        is_closed = True
    cx.check_boundary(is_closed, allow_boundary)

    consistent = True
    for tet, ids in cofaces[3].items():
        if len(ids) == 2 and induced_facet_sign(*simplices[ids[0]], tet) != (
            -induced_facet_sign(*simplices[ids[1]], tet)
        ):
            consistent = False
            break

    vertices = tuple(sorted({v for verts, _ in simplices for v in verts}))
    position = {v: n for n, v in enumerate(vertices)}
    edge_of = face_index[1]
    simplex_faces, simplex_edges = scatter_indices(
        [verts for verts, _ in simplices], face_index[2], edge_of
    )
    return SimpleNamespace(
        simplices=tuple(simplices),
        vertices=vertices,
        faces=faces,
        face_index=face_index,
        is_closed=is_closed,
        orientation_consistent=consistent,
        edge_ends=index_array([[position[u], position[w]] for u, w in faces[1]], 2),
        triangle_edges=index_array(
            [[edge_of[(a, b)], edge_of[(a, c)], edge_of[(b, c)]] for a, b, c in faces[2]], 3
        ),
        simplex_vertices=index_array(
            [[position[v] for v in oriented_tuple(*s)] for s in simplices], 5
        ),
        simplex_faces=simplex_faces,
        simplex_edges=simplex_edges,
        simplex_tetrahedra=index_array(
            [[face_index[3][t] for t in itertools.combinations(v, 4)] for v, _ in simplices], 5
        ),
    )


LATTICE_FIELDS = ("simplices", "vertices", "faces", "face_index", "is_closed",
                  "orientation_consistent")
INDEX_ARRAYS = ("edge_ends", "triangle_edges", "simplex_vertices", "simplex_faces",
                "simplex_edges", "simplex_tetrahedra")


def _outcome(build, cells, allow_boundary):
    try:
        return build(cells, allow_boundary=allow_boundary)
    except ComplexStructureError as exc:
        return str(exc)


def assert_builds_like_the_loop(cells, allow_boundary=False):
    """Same error message, or every field equal (repr, so int types count too)."""
    got = _outcome(cx.build_complex, cells, allow_boundary)
    want = _outcome(build_complex_loop, cells, allow_boundary)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return want
    for name in LATTICE_FIELDS:
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    for name in INDEX_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    return got


def oriented_cells(c):
    return [c.oriented_simplex(i) for i in range(len(c.simplices))]


def stellar_cells(n_cells, seed):
    """Oriented cells of seeded stellar 1->5 subdivisions of the 5-simplex boundary.

    Each cone cell is its cell with one vertex replaced by the apex, so the
    list stays consistently oriented; nothing is built until the caller does.
    """
    rng = np.random.default_rng(seed)
    cells = oriented_cells(cx.boundary_delta5())
    apex = 6
    while len(cells) < n_cells:
        cell = cells.pop(int(rng.integers(len(cells))))
        cells += [tuple(apex if u == x else u for u in cell) for x in cell]
        apex += 1
    return cells


def test_build_matches_the_loop_on_the_fixture_complexes(delta5, join_complex, bipyramid):
    for c in (delta5, join_complex, bipyramid):
        assert_builds_like_the_loop(oriented_cells(c))
    for name in ("boundary_delta5.json", "join_tetra_triangle.json", "bipyramid_10cell.json"):
        assert_builds_like_the_loop(load_fixture(name).simplices)
    assert_builds_like_the_loop([])


def test_build_matches_the_loop_on_the_stellar_rungs(stellar_ladder):
    for c, _ in stellar_ladder.values():
        assert_builds_like_the_loop(oriented_cells(c))
    c = assert_builds_like_the_loop(stellar_cells(1006, seed=5))
    assert len(c.simplices) == 1006
    assert c.is_closed and c.orientation_consistent and c.euler_characteristic() == 2


def test_tuple_views_are_read_off_the_arrays(stellar_ladder):
    cells = oriented_cells(stellar_ladder[86][0])
    c = cx.build_complex(cells)
    fv = c.f_vector()
    assert fv == (26, 115, 220, 215, 86) and c.euler_characteristic() == 2
    assert not {"faces", "face_index", "simplices"} & vars(c).keys()
    for dim in range(4):
        ids = c.face_ids(dim)
        assert ids.dtype == np.int64 and ids.shape == (fv[dim], dim + 1)
        assert c.faces[dim] == tuple(map(tuple, ids.tolist()))
        assert c.face_index[dim] == {f: n for n, f in enumerate(c.faces[dim])}
    assert list(c.faces) == list(c.face_index) == [0, 1, 2, 3]
    # built once, when first read
    assert c.faces is c.faces and c.face_index is c.face_index and c.simplices is c.simplices
    assert [c.oriented_simplex(i) for i in range(fv[4])] == [tuple(s) for s in cells]
    assert [oriented_tuple(*s) for s in c.simplices] == [tuple(s) for s in cells]


def test_a_complex_whose_tables_were_read_is_freed_without_the_cycle_collector():
    c = cx.build_complex(oriented_cells(cx.boundary_delta5()))
    c.faces[1], c.face_index[2], c.simplices
    gone = weakref.ref(c)
    gc.disable()
    try:
        del c
        assert gone() is None
    finally:
        gc.enable()


def test_complexes_compare_by_identity(join_complex):
    # two builds of one cell list have equal tables but are distinct complexes
    again = cx.build_complex(oriented_cells(join_complex))
    assert again.simplices == join_complex.simplices and again.faces == join_complex.faces
    assert again != join_complex and again == again
    assert len({again, join_complex}) == 2


def test_build_matches_the_loop_under_relabelling_and_reordering(join_complex):
    rng = np.random.default_rng(31)
    for base in (oriented_cells(join_complex), stellar_cells(86, seed=2)):
        ids = sorted({v for cell in base for v in cell})
        for labels in (
            rng.permutation(len(ids)),  # relabelled
            np.sort(rng.choice(10**4, len(ids), replace=False)) * 7 + 3,  # non-contiguous
            rng.choice(10**12, len(ids), replace=False) + 10**9,  # large
            rng.choice(10**12, len(ids), replace=False) - 10**15,  # negative
        ):
            relabel = dict(zip(ids, labels.tolist()))
            cells = [tuple(relabel[v] for v in cell) for cell in base]
            assert_builds_like_the_loop(cells)
            # cell order and the vertex order inside cells (any parity)
            shuffled = [tuple(rng.permutation(cell).tolist()) for cell in cells]
            rng.shuffle(shuffled)
            assert_builds_like_the_loop(shuffled)


def test_build_matches_the_loop_with_boundary(delta5):
    cells = oriented_cells(delta5)
    for boundary in (
        [(0, 1, 2, 3, 4)],
        [(0, 1, 2, 4, 5), (0, 1, 2, 5, 3), (0, 1, 2, 3, 4)],
        cells[1:],
        stellar_cells(166, seed=3)[3:],
    ):
        c = assert_builds_like_the_loop(boundary, allow_boundary=True)
        assert not c.is_closed
        assert "boundary" in assert_builds_like_the_loop(boundary)


def test_bad_lists_raise_the_loop_error():
    rng = np.random.default_rng(47)
    bases = [oriented_cells(cx.boundary_delta5()), oriented_cells(cx.tetra_circle_join()),
             oriented_cells(cx.bipyramid_sphere()), stellar_cells(26, seed=4)]
    seen = set()
    for _ in range(400):
        base = bases[int(rng.integers(len(bases)))]
        cells = list(base)
        fresh = max(v for cell in base for v in cell) + 1
        for _ in range(int(rng.integers(1, 4))):
            cell = base[int(rng.integers(len(base)))]
            kind = int(rng.integers(6))
            if kind == 0:  # wrong length
                bad = [cell[:4], cell + (fresh,), ()][int(rng.integers(3))]
            elif kind == 1:  # repeated vertex
                bad = (cell[0],) + cell[:4]
            elif kind == 2:  # duplicate vertex set, any orientation
                bad = tuple(rng.permutation(cell).tolist())
            elif kind == 3:  # a third cell on one of its tetrahedra
                bad = cell[:4] + (fresh,)
            elif kind == 4:  # boundary: drop a cell
                if cell in cells:
                    cells.remove(cell)
                continue
            else:  # inconsistent orientation: flip a cell
                if cell in cells:
                    cells.remove(cell)
                bad = (cell[1], cell[0]) + cell[2:]
            cells.insert(int(rng.integers(len(cells) + 1)), bad)
        result = assert_builds_like_the_loop(cells, allow_boundary=bool(rng.integers(2)))
        if isinstance(result, str):
            seen.add(result.split(" ")[-1] if "non-manifold" in result else result[:9])
        else:
            seen.add("inconsistent" if not result.orientation_consistent else "built")
    assert {"simplex #", "simplex (", "duplicate", "(non-manifold)", "complex h",
            "inconsistent", "built"} <= seen


def test_vertex_ids_beyond_int64_are_a_structure_error():
    with pytest.raises(ComplexStructureError, match="64-bit"):
        cx.build_complex([(0, 1, 2, 3, 2**63)], allow_boundary=True)


def test_stellar_subdivide_takes_only_a_cell_id(delta5):
    # the cone over cell 2 from vertex 6, as its oriented cell with one vertex replaced
    cells = oriented_cells(delta5)
    cone = [tuple(6 if u == x else u for u in cells[2]) for x in cells[2]]
    want = oriented_cells(cx.build_complex(cells[:2] + cells[3:] + cone))
    for sid in (2, np.int64(2), np.intp(2)):
        assert oriented_cells(cx.stellar_subdivide(delta5, sid)) == want
    for sid in (-1, 6, 10**20, True, False, 2.0, "2", None):
        with pytest.raises(ComplexStructureError, match=rf"^simplex id {re.escape(repr(sid))} "):
            cx.stellar_subdivide(delta5, sid)


def test_metric_paths_leave_the_lookup_dicts_unbuilt(stellar_ladder):
    c86, coords = stellar_ladder[86]
    c = cx.build_complex(oriented_cells(c86))
    m = fm.realize(c, coords)
    iv.full_invariant(c, m)
    jb.build_jacobians(c, m)
    assert fm.check_flat(c, m).passed
    assert "face_index" not in vars(c)
    # built on first use, then kept
    assert c.face_index is c.face_index
