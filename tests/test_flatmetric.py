"""Realizations, induced metric data and deficit angles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pachner33 import complexes as cx
from pachner33 import flatmetric as fm
from pachner33 import geometry as g
from pachner33.errors import DegenerateSimplexError, Pachner33Error


def test_realize_delta5_signed_volumes_cancel(delta5, delta5_metric):
    # the closed oriented complex is folded into R^4: total signed volume 0
    total = sum(delta5_metric.V.values())
    assert abs(total) <= 1e-12
    assert all(v != 0 for v in delta5_metric.V.values())
    assert set(delta5_metric.eps.values()) <= {-1, 1}
    for sid, vol in delta5_metric.V.items():
        assert delta5_metric.eps[sid] == (1 if vol > 0 else -1)


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
    for e in complex_.faces[1]:
        assert scaled.L[e] == pytest.approx(c**2 * base.L[e], rel=1e-10)
    for t in complex_.faces[2]:
        assert scaled.S[t] == pytest.approx(c**2 * base.S[t], rel=1e-10)
    for sid in base.V:
        assert scaled.V[sid] == pytest.approx(c**4 * base.V[sid], rel=1e-10)
        assert scaled.eps[sid] == base.eps[sid]


def test_random_realization_is_deterministic(delta5):
    a = fm.random_realization(delta5, seed=42)
    b = fm.random_realization(delta5, seed=42)
    assert sorted(a) == sorted(b)
    for v in a:
        assert np.array_equal(a[v], b[v])


def test_random_realization_single_simplex():
    c = cx.build_complex([(0, 1, 2, 3, 4)], allow_boundary=True)
    coords = fm.random_realization(c, seed=0)
    m = fm.realize(c, coords, allow_boundary=True)
    assert len(coords) == 5
    assert abs(m.V[0]) > 0


# ------------------------------------------------------------- deficits

def test_flat_delta5_face_deficits_vanish(delta5, delta5_metric):
    omega = fm.deficit_omega(delta5, delta5_metric)
    assert len(omega) == 20
    assert max(abs(v) for v in omega.values()) < 1e-10


def test_flat_delta5_edge_deficits_vanish(delta5, delta5_metric):
    Omega = fm.deficit_Omega(delta5, delta5_metric)
    assert len(Omega) == 15
    assert max(abs(v) for v in Omega.values()) < 1e-9


def test_deficits_vanish_on_larger_fixtures(join_complex, join_metric, bipyramid):
    assert fm.check_flat(join_complex, join_metric).passed
    mb = fm.realize(bipyramid, fm.random_realization(bipyramid, seed=3))
    assert fm.check_flat(bipyramid, mb).passed


def test_deficit_scale_invariance(delta5, delta5_coords):
    scaled = fm.realize(delta5, {v: 3.0 * p for v, p in delta5_coords.items()})
    Omega = fm.deficit_Omega(delta5, scaled)
    assert max(abs(v) for v in Omega.values()) < 1e-9


def test_one_simplex_diagnostics():
    c = cx.build_complex([(0, 1, 2, 3, 4)], allow_boundary=True)
    coords = fm.random_realization(c, seed=7)
    m = fm.realize(c, coords, allow_boundary=True)
    eps = m.eps[0]
    L = m.simplex_lengths((0, 1, 2, 3, 4))
    omega = fm.deficit_omega(c, m)
    for face in g.FACES5:
        expected = -eps * g.dihedral_angle(g.gram_embed(L), face)
        assert omega[face] == pytest.approx(expected, abs=1e-12)
    Omega = fm.deficit_Omega(c, m)
    for edge in g.EDGES5:
        assert Omega[edge] == pytest.approx(
            -g.edge_angle_theta(L, edge, eps), abs=1e-12
        )


def test_perturbed_length_matches_first_order_prediction(delta5, delta5_metric):
    from pachner33.jacobians import assemble_domega_dL

    M = assemble_domega_dL(delta5, delta5_metric)
    edge = delta5.faces[1][0]
    col = delta5.face_index[1][edge]

    def residual(step):
        L = dict(delta5_metric.L)
        L[edge] += step
        perturbed = delta5_metric.with_lengths(L, delta5)
        omega = fm.deficit_omega(delta5, perturbed)
        vec = np.array([omega[t] for t in delta5.faces[2]])
        return np.abs(vec - M[:, col] * step).max()

    step = 1e-3 * max(delta5_metric.L.values())
    r1, r2 = residual(step), residual(step / 2)
    assert r1 > 0.0
    omega = fm.deficit_omega(
        delta5,
        delta5_metric.with_lengths(
            {**delta5_metric.L, edge: delta5_metric.L[edge] + step}, delta5
        ),
    )
    assert max(abs(v) for v in omega.values()) > 1e-6  # curvature switched on
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
    for e in delta5.faces[1]:
        assert m2.L[e] == pytest.approx(delta5_metric.L[e], rel=1e-9)
    for sid in m2.V:
        assert m2.V[sid] == pytest.approx(delta5_metric.V[sid], rel=1e-9)
        assert m2.eps[sid] == delta5_metric.eps[sid]


def test_reflection_flips_signs_keeps_deficits(delta5, delta5_coords, delta5_metric):
    reflected = {v: p * np.array([-1.0, 1.0, 1.0, 1.0]) for v, p in delta5_coords.items()}
    m2 = fm.realize(delta5, reflected)
    for sid in m2.eps:
        assert m2.eps[sid] == -delta5_metric.eps[sid]
        assert abs(m2.V[sid]) == pytest.approx(abs(delta5_metric.V[sid]), rel=1e-12)
    omega = fm.deficit_omega(delta5, m2)
    assert max(abs(v) for v in omega.values()) < 1e-10


# ------------------------------------------------------------- check_flat

def test_check_flat_passes_on_flat_input(delta5, delta5_metric):
    rep = fm.check_flat(delta5, delta5_metric, tol=1e-8)
    assert rep.passed
    assert rep.bad_faces == () and rep.bad_edges == ()


def test_check_flat_names_offenders_after_perturbation(delta5, delta5_metric):
    L = dict(delta5_metric.L)
    L[(0, 1)] += 1e-3
    rep = fm.check_flat(delta5, delta5_metric.with_lengths(L, delta5), tol=1e-8)
    assert not rep.passed
    assert rep.bad_faces
    # every offending face contains the perturbed edge's endpoints context
    assert all(len(f) == 3 for f in rep.bad_faces)


def test_check_flat_vacuous_on_empty_complex():
    c = cx.build_complex([])
    m = fm.FlatMetric(L={}, S={}, eps={}, V={})
    rep = fm.check_flat(c, m)
    assert rep.passed
    assert rep.max_omega == 0.0 and rep.max_Omega == 0.0


def test_folded_realizations_still_flat():
    # hunt for realizations whose raw angle sums wind by 2*pi: the reduced
    # deficits must vanish regardless
    complex_ = cx.boundary_delta5()
    found_winding = False
    for seed in range(30):
        coords = fm.random_realization(complex_, seed=seed)
        m = fm.realize(complex_, coords)
        tables = fm.simplex_angle_tables(complex_, m)
        for tri in complex_.faces[2]:
            raw = -sum(tables[sid].get(tri, 0.0) for sid in tables)
            if abs(raw) > 1.0:  # a full winding, not noise
                found_winding = True
        assert fm.check_flat(complex_, m).passed
    assert found_winding
