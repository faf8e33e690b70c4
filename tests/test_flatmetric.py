"""Realizations, induced metric data and deficit angles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pachner33 import complexes as cx
from pachner33 import flatmetric as fm
from pachner33 import geometry as g
from pachner33 import jacobians as jb
from pachner33.errors import DegenerateSimplexError, Pachner33Error
from pachner33.identities import signed_angles
from pachner33.io import load_fixture


def test_realize_delta5_signed_volumes_cancel(delta5, delta5_metric):
    # the closed oriented complex is folded into R^4: total signed volume 0
    total = sum(delta5_metric.V.tolist())
    assert abs(total) <= 1e-12
    assert np.all(delta5_metric.V != 0)
    assert set(delta5_metric.eps.tolist()) <= {-1, 1}
    assert np.array_equal(delta5_metric.eps, np.where(delta5_metric.V > 0, 1, -1))


# ------------------------------------------- per-simplex reference versions

def _cm_squared_volume_loop(k, T):
    bordered = np.ones((k + 2, k + 2))
    bordered[0, 0] = 0.0
    bordered[1:, 1:] = T
    return float((-1) ** (k + 1) * np.linalg.det(bordered) / (2**k * math.factorial(k) ** 2))


def _pair_table_loop(c, L, verts):
    T = np.zeros((len(verts), len(verts)))
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            T[i, j] = T[j, i] = L[c.face_index[1][(verts[i], verts[j])]]
    return T


def _areas_loop(c, L):
    return np.array(
        [math.sqrt(_cm_squared_volume_loop(2, _pair_table_loop(c, L, t))) for t in c.faces[2]]
    )


def realize_loop(c, coords):
    """(L, S, eps, V) one edge, simplex and triangle at a time."""
    L = []
    for u, w in c.faces[1]:
        d = np.asarray(coords[u], dtype=float) - np.asarray(coords[w], dtype=float)
        L.append(float(d @ d))
    L = np.array(L)
    V = []
    for sid in range(len(c.simplices)):
        pts = np.stack([np.asarray(coords[v], dtype=float) for v in c.oriented_simplex(sid)])
        V.append(float(np.linalg.det(pts[1:] - pts[0]) / 24.0))
    V = np.array(V)
    return L, _areas_loop(c, L), np.where(V > 0, 1, -1), V


def metric_from_lengths_loop(c, L, eps):
    V = [
        e * math.sqrt(_cm_squared_volume_loop(4, _pair_table_loop(c, L, verts)))
        for (verts, _), e in zip(c.simplices, eps)
    ]
    return L, _areas_loop(c, L), eps, np.array(V)


def _placed_complexes(delta5, join_complex, bipyramid, stellar_ladder):
    out = [
        (delta5, fm.random_realization(delta5, seed=1)),
        (join_complex, fm.random_realization(join_complex, seed=5)),
        (bipyramid, fm.random_realization(bipyramid, seed=3)),
    ]
    for name in ("boundary_delta5.json", "join_tetra_triangle.json", "bipyramid_10cell.json"):
        doc = load_fixture(name)
        out.append((doc.to_complex(), doc.realization()))
    return out + [stellar_ladder[n] for n in sorted(stellar_ladder)]


def _assert_bitwise(m, reference):
    for got, want in zip((m.L, m.S, m.eps, m.V), reference):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_batched_metric_is_bitwise_the_loop_version(
    delta5, join_complex, bipyramid, stellar_ladder
):
    for c, coords in _placed_complexes(delta5, join_complex, bipyramid, stellar_ladder):
        m = fm.realize(c, coords)
        _assert_bitwise(m, realize_loop(c, coords))
        L = m.L.copy()
        L[0] *= 1.0 + 1e-6  # as check-flat --perturb does
        _assert_bitwise(fm.metric_from_lengths(c, L, m.eps), metric_from_lengths_loop(c, L, m.eps))


def test_realize_names_the_first_degenerate_simplex(delta5, delta5_coords):
    coords = dict(delta5_coords)
    coords[5] = coords[0]  # every cell on both 0 and 5 collapses; ids 1..4
    with pytest.raises(DegenerateSimplexError, match=r"\(0, 2, 3, 4, 5\) \(id 1\)"):
        fm.realize(delta5, coords)


def test_metric_from_lengths_names_the_first_bad_triangle(delta5, delta5_metric):
    L = delta5_metric.L.copy()
    L[delta5.face_index[1][(1, 2)]] = 100.0 * L.max()  # breaks every triangle on edge 12
    with pytest.raises(DegenerateSimplexError, match=r"triangle \(0, 1, 2\) "):
        delta5_metric.with_lengths(L, delta5)


def test_realize_rejects_repeated_points(delta5, delta5_coords):
    coords = dict(delta5_coords)
    coords[1] = coords[0]
    with pytest.raises(DegenerateSimplexError):
        fm.realize(delta5, coords)


def test_realize_requires_all_vertices(delta5, delta5_coords):
    coords = dict(delta5_coords)
    del coords[3]
    with pytest.raises(Pachner33Error, match="3"):
        fm.realize(delta5, coords)


@given(st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=20, deadline=None)
def test_scaling_coords_scales_metric(c):
    complex_ = cx.boundary_delta5()
    coords = fm.random_realization(complex_, seed=11)
    base = fm.realize(complex_, coords)
    scaled = fm.realize(complex_, {v: c * p for v, p in coords.items()})
    assert scaled.L == pytest.approx(c**2 * base.L, rel=1e-10)
    assert scaled.S == pytest.approx(c**2 * base.S, rel=1e-10)
    assert scaled.V == pytest.approx(c**4 * base.V, rel=1e-10)
    assert np.array_equal(scaled.eps, base.eps)


def test_random_realization_is_deterministic(delta5):
    a = fm.random_realization(delta5, seed=42)
    b = fm.random_realization(delta5, seed=42)
    assert sorted(a) == sorted(b)
    for v in a:
        assert np.array_equal(a[v], b[v])


@pytest.mark.parametrize(
    "name", ["boundary_delta5.json", "join_tetra_triangle.json", "bipyramid_10cell.json"]
)
def test_random_realization_reproduces_the_bundled_coords(name):
    # scripts/make_fixtures.py drew each fixture's coords at its coords_seed
    doc = load_fixture(name)
    coords = fm.random_realization(doc.to_complex(), seed=int(doc.metadata["coords_seed"]))
    assert sorted(coords) == sorted(doc.coords)
    for v, p in doc.realization().items():
        assert np.array_equal(coords[v], p)


def test_random_realization_single_simplex():
    c = cx.build_complex([(0, 1, 2, 3, 4)], allow_boundary=True)
    coords = fm.random_realization(c, seed=0)
    m = fm.realize(c, coords, allow_boundary=True)
    assert len(coords) == 5
    assert abs(m.V[0]) > 0


# ------------------------------------------------------------- deficits

def test_flat_delta5_face_deficits_vanish(delta5, delta5_metric):
    omega = fm.deficit_omega(delta5, delta5_metric)
    assert omega.shape == (20,)
    assert np.abs(omega).max() < 1e-10


def test_flat_delta5_edge_deficits_vanish(delta5, delta5_metric):
    Omega = fm.deficit_Omega(delta5, delta5_metric)
    assert Omega.shape == (15,)
    assert np.abs(Omega).max() < 1e-9


def test_deficits_vanish_on_larger_fixtures(join_complex, join_metric, bipyramid):
    assert fm.check_flat(join_complex, join_metric).passed
    mb = fm.realize(bipyramid, fm.random_realization(bipyramid, seed=3))
    assert fm.check_flat(bipyramid, mb).passed


def test_deficit_scale_invariance(delta5, delta5_coords):
    scaled = fm.realize(delta5, {v: 3.0 * p for v, p in delta5_coords.items()})
    Omega = fm.deficit_Omega(delta5, scaled)
    assert np.abs(Omega).max() < 1e-9


def test_one_simplex_diagnostics():
    c = cx.build_complex([(0, 1, 2, 3, 4)], allow_boundary=True)
    coords = fm.random_realization(c, seed=7)
    m = fm.realize(c, coords, allow_boundary=True)
    eps = m.eps[0]
    L = jb.length_tables(m.L, c.simplex_edges)[0]
    # the face tables of the one simplex are the local FACES5 and EDGES5
    assert c.faces[2] == g.FACES5 and c.faces[1] == g.EDGES5
    omega = fm.deficit_omega(c, m)
    assert omega == pytest.approx(-np.asarray(signed_angles(L, eps)), abs=1e-12)
    Omega = fm.deficit_Omega(c, m)
    Theta = g.edge_angle_thetas(L, eps)
    assert Omega == pytest.approx([-Theta[g.EDGE_INDEX5[edge]] for edge in g.EDGES5], abs=1e-12)


def test_perturbed_length_matches_first_order_prediction(delta5, delta5_metric):
    M = jb.assemble_domega_dL(delta5, delta5_metric)
    col = 0

    def residual(step):
        L = delta5_metric.L.copy()
        L[col] += step
        perturbed = delta5_metric.with_lengths(L, delta5)
        omega = fm.deficit_omega(delta5, perturbed)
        return np.abs(omega - M[:, col] * step).max()

    step = 1e-3 * delta5_metric.L.max()
    r1, r2 = residual(step), residual(step / 2)
    assert r1 > 0.0
    L = delta5_metric.L.copy()
    L[col] += step
    omega = fm.deficit_omega(delta5, delta5_metric.with_lengths(L, delta5))
    assert np.abs(omega).max() > 1e-6  # curvature switched on
    # quadratic remainder: halving the step cuts the residual ~4x
    assert r2 <= 0.35 * r1


def test_euclidean_motion_invariance(delta5, delta5_coords, delta5_metric):
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    shift = rng.standard_normal(4)
    moved = {v: Q @ p + shift for v, p in delta5_coords.items()}
    m2 = fm.realize(delta5, moved)
    assert m2.L == pytest.approx(delta5_metric.L, rel=1e-9)
    assert m2.V == pytest.approx(delta5_metric.V, rel=1e-9)
    assert np.array_equal(m2.eps, delta5_metric.eps)


def test_reflection_flips_signs_keeps_deficits(delta5, delta5_coords, delta5_metric):
    reflected = {v: p * np.array([-1.0, 1.0, 1.0, 1.0]) for v, p in delta5_coords.items()}
    m2 = fm.realize(delta5, reflected)
    assert np.array_equal(m2.eps, -delta5_metric.eps)
    assert np.abs(m2.V) == pytest.approx(np.abs(delta5_metric.V), rel=1e-12)
    omega = fm.deficit_omega(delta5, m2)
    assert np.abs(omega).max() < 1e-10


# ------------------------------------------------------------- check_flat

def test_check_flat_passes_on_flat_input(delta5, delta5_metric):
    rep = fm.check_flat(delta5, delta5_metric, tol=1e-8)
    assert rep.passed
    assert rep.bad_faces == () and rep.bad_edges == ()


def test_check_flat_names_offenders_after_perturbation(delta5, delta5_metric):
    L = delta5_metric.L.copy()
    L[delta5.face_index[1][(0, 1)]] += 1e-3
    rep = fm.check_flat(delta5, delta5_metric.with_lengths(L, delta5), tol=1e-8)
    assert not rep.passed
    assert rep.bad_faces
    # every offending face contains the perturbed edge's endpoints context
    assert all(len(f) == 3 for f in rep.bad_faces)


def test_check_flat_vacuous_on_empty_complex():
    c = cx.build_complex([])
    m = fm.FlatMetric(L=np.zeros(0), S=np.zeros(0), eps=np.zeros(0, dtype=int), V=np.zeros(0))
    rep = fm.check_flat(c, m)
    assert rep.passed
    assert rep.max_omega == 0.0 and rep.max_Omega == 0.0


def simplex_angle_tables(c, m):
    """Signed dihedral-angle tables of every simplex, keyed by global faces."""
    theta = jb.dihedral_angles_batch(jb.length_tables(m.L, c.simplex_edges))
    signed = (m.eps[:, None] * theta).tolist()
    return {
        sid: {
            tuple(verts[i] for i in local): angle
            for local, angle in zip(g.FACES5, signed[sid])
        }
        for sid, (verts, _) in enumerate(c.simplices)
    }


def test_folded_realizations_still_flat():
    # hunt for realizations whose raw angle sums wind by 2*pi: the reduced
    # deficits must vanish regardless
    complex_ = cx.boundary_delta5()
    found_winding = False
    for seed in range(30):
        coords = fm.random_realization(complex_, seed=seed)
        m = fm.realize(complex_, coords)
        tables = simplex_angle_tables(complex_, m)
        for tri in complex_.faces[2]:
            raw = -sum(tables[sid].get(tri, 0.0) for sid in tables)
            if abs(raw) > 1.0:  # a full winding, not noise
                found_winding = True
        assert fm.check_flat(complex_, m).passed
    assert found_winding


def test_deficits_equal_the_entrywise_reduction(stellar_ladder):
    # deficit_omega reduces only entries with |x| >= pi; reduce_angle is the
    # identity below, so every entry is bitwise the entrywise reduction
    complex_ = cx.boundary_delta5()
    cases = [(complex_, fm.realize(complex_, fm.random_realization(complex_, seed=s)))
             for s in range(30)]
    cases += [(c, fm.realize(c, coords)) for c, coords in stellar_ladder.values()]
    wound = 0
    for c, m in cases:
        tables = jb.length_tables(m.L, c.simplex_edges)
        theta = jb.dihedral_angles_batch(tables)
        raw = np.zeros(len(c.faces[2]))
        np.add.at(raw, c.simplex_faces, -m.eps[:, None] * theta)
        reduced = np.array([g.reduce_angle(x) for x in raw.tolist()])
        omega = fm.deficit_omega(c, m)
        assert omega.tobytes() == reduced.tobytes()
        Omega = fm.deficit_Omega(c, m)
        weights = jb.area_length_weights(c, g.dS_dL_blocks(tables))
        assert Omega.tobytes() == (weights @ reduced).tobytes()
        wound += int(np.count_nonzero(np.abs(raw) >= np.pi))
    assert wound  # the reduced branch was exercised
