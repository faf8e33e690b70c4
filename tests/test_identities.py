"""The finite-difference oracle on stacks, and one draw per trial per battery run."""
import numpy as np
import pytest

from pachner33 import geometry as g
from pachner33 import identities as idn
from pachner33 import invariants as iv
from pachner33.errors import DegenerateSimplexError
from pachner33.flatmetric import triangle_areas


def central_difference_loop(fn, L, direction):
    """One direction, four separate calls of fn on single tables."""
    h = g.FD_REL_STEP * float(L.max())

    def diff(step):
        plus, minus = fn(L + step * direction), fn(L - step * direction)
        return (np.asarray(plus) - np.asarray(minus)) / (2 * step)

    return (4 * diff(h / 2) - diff(h)) / 3


def fd_dtheta_dL_loop(L, eps):
    """The 40-call oracle: one embedding per stencil table, one column per edge."""
    cols = []
    for i, j in g.EDGES5:
        direction = np.zeros((5, 5))
        direction[i, j] = direction[j, i] = 1.0
        cols.append(central_difference_loop(lambda T: idn.signed_angles(T, eps), L, direction))
    return np.stack(cols, axis=1)


def test_fd_dtheta_dL_matches_the_40_call_loop():
    for seed in range(12):
        pts = idn.random_simplex_points(seed)
        L = g.squared_length_table(pts)
        for eps in (1, -1):
            want = fd_dtheta_dL_loop(L, eps)
            got = idn.fd_dtheta_dL(L, eps)
            assert got.shape == (10, 10)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_central_difference_takes_one_direction_or_a_stack():
    rng = np.random.default_rng(3)
    L = g.squared_length_table(idn.random_simplex_points(3))
    directions = [idn._random_direction(rng) for _ in range(4)]
    thetas = lambda T: g.edge_angle_thetas(T, +1)  # noqa: E731
    stacked = idn.central_difference(thetas, L, np.stack(directions))
    for k, direction in enumerate(directions):
        want = central_difference_loop(thetas, L, direction)
        alone = idn.central_difference(thetas, L, direction)
        scale = np.abs(want).max()
        assert np.abs(alone - want).max() <= 1e-10 * scale
        assert np.abs(stacked[k] - want).max() <= 1e-10 * scale


def test_random_cluster_is_drawn_once_per_trial_and_call(monkeypatch):
    calls = []

    def counted(seed, *args, **kwargs):
        calls.append(int(seed))
        return iv.random_cluster(seed, *args, **kwargs)

    monkeypatch.setattr(idn, "random_cluster", counted)
    idn.run_all_batteries(trials=3, seed=8)
    assert len(calls) == 3 and len(set(calls)) == 3
    # no draw outlives its call: the same seeds are drawn again
    idn.run_all_batteries(trials=3, seed=8)
    assert len(calls) == 6 and calls[3:] == calls[:3]


def test_shared_draws_give_every_battery_its_standalone_result():
    shared = idn.run_all_batteries(trials=4, seed=12)
    alone = [battery(trials=4, seed=12) for battery in idn.ALL_BATTERIES]
    assert shared == alone
    assert [r.name for r in shared] == [
        "opposite_edge_derivative", "two_edge_ratio", "six_term",
        "schlafli", "modified_schlafli", "cluster_closed_forms",
    ]


def test_cluster_assembles_each_gradient_once(monkeypatch):
    calls = []
    original = iv.assemble_domega_dL

    def counted(c, m):
        calls.append(c)
        return original(c, m)

    monkeypatch.setattr(iv, "assemble_domega_dL", counted)
    cluster = iv.random_cluster(21)
    first = {side: cluster.omega_gradient(side).copy() for side in iv.SIDES}
    for _ in range(3):
        for side in iv.SIDES:
            assert np.array_equal(cluster.omega_gradient(side), first[side])
    assert len(calls) == 2
    with pytest.raises(ValueError):
        cluster.omega_gradient("abc")[0] = 0.0


def test_schlafli_areas_are_the_face_areas():
    for seed in range(5):
        L = g.squared_length_table(idn.random_simplex_points(seed))
        areas = triangle_areas(L[g.EDGE_I, g.EDGE_J], g.FACE_EDGES5, g.FACES5)
        assert areas.tolist() == [g.face_area(L, f) for f in g.FACES5]
    flat = g.squared_length_table(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0],
                                            [1.0, 1.0]]))
    with pytest.raises(DegenerateSimplexError):
        triangle_areas(flat[g.EDGE_I, g.EDGE_J], g.FACE_EDGES5, g.FACES5)


def test_schlafli_direction_is_not_the_placement_draw():
    # the placement of trial seed s starts with default_rng(s).standard_normal((5, 4));
    # the deformation direction comes from a child stream, not from those Gaussians
    for s in idn.TrialDraws(5, 11).seeds:
        d = idn._trial_direction(s)
        assert np.array_equal(d, d.T) and np.abs(d).max() == 1.0
        raw = np.random.default_rng(s).standard_normal((5, 4)).ravel()[:10]
        assert not np.allclose(d[g.EDGE_I, g.EDGE_J], raw / np.abs(raw).max())
        assert np.array_equal(idn._trial_direction(s), d)
