"""The finite-difference oracle on stacks, one draw per battery run, and the
cluster stack against its per-trial reference."""
from types import SimpleNamespace

import numpy as np
import pytest

from pachner33 import flatmetric as fm
from pachner33 import geometry as g
from pachner33 import identities as idn
from pachner33 import jacobians as jb
from pachner33.cli import main
from pachner33.errors import DegenerateSimplexError
from pachner33.flatmetric import triangle_areas

from conftest import (
    AREA_REL_TOL,
    CLUSTER_FIELDS,
    DELTA5,
    DELTA5_CELLS,
    ClusterReference,
    check_6term_one,
    check_basic2_one,
    face_area,
    heron_area,
    symmetric_cluster,
    unit_ball_placement_loop,
)


def central_difference_loop(fn, L, direction):
    """One direction, four separate calls of fn on single tables."""
    h = idn.FD_REL_STEP * float(L.max())

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
        pts = idn.random_simplices([seed])[0]
        L = g.squared_length_table(pts)
        for eps in (1, -1):
            want = fd_dtheta_dL_loop(L, eps)
            got = idn.fd_dtheta_dL(L, eps)
            assert got.shape == (10, 10)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_central_difference_takes_one_direction_or_a_stack():
    L = g.squared_length_table(idn.random_simplices([3])[0])
    directions = [idn._trial_direction(s) for s in range(4)]
    thetas = lambda T: g.edge_angle_thetas(T, +1)  # noqa: E731
    stacked = idn.central_difference(thetas, L, np.stack(directions))
    for k, direction in enumerate(directions):
        want = central_difference_loop(thetas, L, direction)
        alone = idn.central_difference(thetas, L, direction)
        scale = np.abs(want).max()
        assert np.abs(alone - want).max() <= 1e-10 * scale
        assert np.abs(stacked[k] - want).max() <= 1e-10 * scale


def test_clusters_are_drawn_once_per_call(monkeypatch):
    calls = []
    original = idn.random_clusters

    def counted(seeds):
        calls.append([int(s) for s in seeds])
        return original(seeds)

    monkeypatch.setattr(idn, "random_clusters", counted)
    idn.run_all_batteries(trials=3, seed=8)
    # one stacked draw of all three trial seeds
    assert len(calls) == 1 and len(set(calls[0])) == 3
    # no draw outlives its call: the same seeds are drawn again
    idn.run_all_batteries(trials=3, seed=8)
    assert len(calls) == 2 and calls[1] == calls[0]


def test_schlafli_directions_are_drawn_once_per_trial_and_call(monkeypatch, capsys):
    calls = []
    original = idn._trial_direction

    def counted(seed):
        calls.append(int(seed))
        return original(seed)

    monkeypatch.setattr(idn, "_trial_direction", counted)
    seeds = [int(s) for s in idn.TrialDraws(5, 9).seeds]
    for n in (1, 2):
        assert main(["verify-identities", "--trials", "5", "--seed", "9"]) == 0
        # both Schlafli batteries read one direction per trial seed
        assert calls == seeds * n
    capsys.readouterr()
    draws = idn.TrialDraws(5, 9)
    assert draws.directions.shape == (5, 5, 5)
    for s, d in zip(draws.seeds, draws.directions):
        assert np.array_equal(d, original(s))


def test_shared_draws_give_every_battery_its_standalone_result():
    # one battery's reads of the shared draw leave the next battery's result unchanged
    shared = idn.run_all_batteries(trials=4, seed=12)
    alone = [battery(idn.TrialDraws(4, 12)) for battery in idn.ALL_BATTERIES]
    assert shared == alone
    assert [r.name for r in shared] == [
        "opposite_edge_derivative", "two_edge_ratio", "six_term",
        "schlafli", "modified_schlafli", "cluster_closed_forms",
    ]


@pytest.mark.parametrize("trials", [0, 1, 3])
def test_battery_trials_is_the_number_of_drawn_seeds(trials):
    draws = idn.TrialDraws(trials, 5)
    for battery in idn.ALL_BATTERIES:
        assert battery(draws).trials == len(draws.seeds) == trials


def test_random_direction_draws_ten_normals_in_edge_order():
    # one standard_normal(10) call gives the values of ten scalar calls in EDGES5 order
    for s in range(200):
        rng = np.random.default_rng([s, 1])
        want = np.zeros((5, 5))
        for i, j in g.EDGES5:
            want[i, j] = want[j, i] = rng.standard_normal()
        assert np.array_equal(idn._trial_direction(s), want / np.abs(want).max())


def test_cluster_assembles_each_gradient_once(monkeypatch):
    calls = []
    original = idn.face_angle_rows

    def counted(L, eps, faces):
        calls.append(len(L))
        return original(L, eps, faces)

    monkeypatch.setattr(idn, "face_angle_rows", counted)
    draws = idn.TrialDraws(4, 21)
    first = draws.clusters.gradients.copy()
    for _ in range(3):
        assert np.array_equal(draws.clusters.gradients, first)
    # both sides of all four trials come from one batch of rows over the 24 cells
    assert calls == [24]
    for name in CLUSTER_FIELDS:
        if name != "points":
            with pytest.raises(ValueError):
                getattr(draws.clusters, name)[0, 0] = 0.0


def test_cluster_stack_and_its_gradients_take_one_normal_gram(monkeypatch):
    calls = []
    original = jb._normal_grams

    def counted(L):
        calls.append(len(L))
        return original(L)

    monkeypatch.setattr(jb, "_normal_grams", counted)
    draws = idn.TrialDraws(5, 21)
    for battery in (idn.battery_two_edge_ratio, idn.battery_six_term,
                    idn.battery_cluster_closed_forms):
        battery(draws)
    # the deficits of the flatness check and the gradients of all 30 cells
    # come from one set of Gram matrices
    assert calls == [30]


# ------------------------------------------ the cluster stack and its references

def assert_stack_is_the_reference(clusters, references):
    """Every stacked field and check result is bitwise that of the per-trial route."""
    assert len(clusters.points) == len(references)
    basic2, six_term = idn.check_basic2(clusters), idn.check_6term(clusters)
    for t, ref in enumerate(references):
        for name in CLUSTER_FIELDS:
            assert getattr(clusters, name)[t].tobytes() == getattr(ref, name).tobytes(), name
        got = [basic2.ratio[t], basic2.predicted[t], basic2.residual[t]]
        want = check_basic2_one(ref.points, ref.hat_volumes)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        got = [six_term.residual[t], six_term.cosine[t], six_term.ratio_residual[t]]
        want = check_6term_one(*ref.gradients, ref.hat_volumes, *ref.areas)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def reference_for(seeds):
    return [ClusterReference(unit_ball_placement_loop(s, 6, DELTA5_CELLS)) for s in seeds]


def angles_and_dtheta_dL(L, eps):
    """All ten angles and (10, 10) dtheta/dL blocks of every table."""
    return jb.dihedral_angles_batch(L), jb.dtheta_dL_blocks(L, eps)


# the three cells through each side's central triangle in cell order, the
# triangle's place among each cell's ten faces and each cell's ten edges
SIDE_ROWS, SIDE_SIGNS = (np.array(col) for col in zip(*idn.SIDES.values()))
SIDE_CELLS = np.array([np.flatnonzero((DELTA5.simplex_faces == row).any(axis=1))
                       for row in SIDE_ROWS])
SIDE_FACES = np.argmax(DELTA5.simplex_faces[SIDE_CELLS] == SIDE_ROWS[:, None, None], axis=2)
SIDE_EDGES = DELTA5.simplex_edges[SIDE_CELLS]


def full_block_sides(points):
    """omegas and gradients of a (T, 6, 4) stack on the full-block route.

    Every cell's ten angles and whole dtheta/dL block, read at its central
    triangle by the three-step loop of each side, as ClusterSix did before
    it took only those rows and summed them in one scatter.
    """
    T = len(points)
    d = points[:, DELTA5.edge_ends[:, 0]] - points[:, DELTA5.edge_ends[:, 1]]
    L = np.matmul(d[..., None, :], d[..., :, None])[..., 0, 0]
    V, _ = g.cell_volumes(points[:, DELTA5.simplex_vertices], g.DEGENERACY_REL)
    eps = np.where(V > 0, 1, -1)
    tables = jb.length_tables(L.ravel(), idn._offset_rows(DELTA5.simplex_edges, 15, T))
    theta, dtheta = angles_and_dtheta_dL(tables, eps)
    theta, dtheta = theta.reshape(T, 6, 10), dtheta.reshape(T, 6, 10, 10)
    eps = eps.reshape(T, 6)
    omega, grad = np.zeros((T, 2)), np.zeros((T, 2, 15))
    sides = np.arange(2)[:, None]
    for k in range(3):
        cells, faces = SIDE_CELLS[:, k], SIDE_FACES[:, k]
        omega -= eps[:, cells] * theta[:, cells, faces]
        grad[:, sides, SIDE_EDGES[:, k]] -= dtheta[:, cells, faces]
    return SIDE_SIGNS * g.reduce_angle(omega), SIDE_SIGNS[:, None] * grad


def test_central_triangle_of_cell_n_is_face_0_from_n_3_and_face_9_below():
    # cell n omits point n, so it holds ABC (side 0) as its FACES5 row 0 when
    # n >= 3 and DEF (side 1) as its row 9 when n < 3, where ClusterSix reads them
    rows = [row for row, _ in idn.SIDES.values()]
    for n in range(6):
        side = int(n < 3)
        assert DELTA5.simplices[n][0] == tuple(p for p in range(6) if p != n)
        assert idn._CELL_SIDES[n] == side
        assert DELTA5.simplex_faces[n, idn._CENTRAL_FACES[side]] == rows[side]
        assert rows[1 - side] not in DELTA5.simplex_faces[n]
    assert idn._CENTRAL_FACES == [0, 9]
    assert SIDE_CELLS.tolist() == [[3, 4, 5], [0, 1, 2]]
    assert SIDE_FACES.tolist() == [[0, 0, 0], [9, 9, 9]]


def test_cluster_rows_are_the_full_block_route():
    stacks = [idn.random_clusters(range(200)), symmetric_cluster(),
              idn.random_clusters([]), idn.random_clusters([7])]
    stacks += [idn.random_clusters(range(300, 300 + T)) for T in (5, 37)]
    for clusters in stacks:
        omegas, gradients = full_block_sides(clusters.points)
        assert clusters.omegas.tobytes() == omegas.tobytes()
        assert clusters.gradients.tobytes() == gradients.tobytes()


def test_cluster_stack_is_bitwise_the_per_trial_route():
    assert_stack_is_the_reference(idn.random_clusters(range(200)), reference_for(range(200)))
    symmetric = symmetric_cluster()
    assert_stack_is_the_reference(symmetric, [ClusterReference(symmetric.points[0])])


@pytest.mark.parametrize("seeds", [[], [0], [7], [2**40]])
def test_cluster_stack_of_none_or_one(seeds):
    clusters = idn.random_clusters(seeds)
    for name, shape in CLUSTER_FIELDS.items():
        assert getattr(clusters, name).shape == (len(seeds),) + shape
    assert_stack_is_the_reference(clusters, reference_for(seeds))
    for chk in (idn.check_basic2(clusters), idn.check_6term(clusters)):
        for value in vars(chk).values():
            assert value.shape == (len(seeds),)


def test_stacked_failures_name_the_trial(monkeypatch):
    # a degenerate cell: trial 2 has a collapsed hat simplex
    pts = idn.random_clusters(range(4)).points.copy()
    pts[2, 2] = 0.5 * (pts[2, 0] + pts[2, 1])
    with pytest.raises(DegenerateSimplexError) as alone:
        ClusterReference(pts[2])
    with pytest.raises(DegenerateSimplexError) as stacked:
        idn.ClusterSix(pts)
    assert str(stacked.value) == f"trial 2: {alone.value}"

    # a deficit above the flatness tolerance: the largest deficit of twelve
    # trials is put last and the tolerance set just below it
    clusters = idn.random_clusters(range(12))
    worst = np.abs(clusters.omegas).max(axis=1)
    order = np.argsort(worst, kind="stable")
    pts, tol = clusters.points[order], worst[order][-2]
    assert tol < worst[order][-1]
    monkeypatch.setattr(idn, "FLATNESS_TOL", tol)
    monkeypatch.setattr(fm, "FLATNESS_TOL", tol)
    with pytest.raises(DegenerateSimplexError) as alone:
        ClusterReference(pts[-1])
    with pytest.raises(DegenerateSimplexError) as stacked:
        idn.ClusterSix(pts)
    assert str(stacked.value) == f"trial 11: {alone.value}"
    assert len(idn.ClusterSix(pts[:-1]).points) == 11

    # a rank-deficient flat family: in trial 1, F lies in the plane of B, C and E
    clusters = idn.random_clusters(range(3))
    pts = clusters.points.copy()
    B, C, E, F = 1, 2, 4, 5
    pts[1, F] = pts[1, E] + 0.5 * (pts[1, B] - pts[1, E]) + 0.25 * (pts[1, C] - pts[1, E])
    with pytest.raises(DegenerateSimplexError) as alone:
        check_basic2_one(pts[1], clusters.hat_volumes[1])
    with pytest.raises(DegenerateSimplexError) as stacked:
        idn.check_basic2(SimpleNamespace(points=pts, hat_volumes=clusters.hat_volumes))
    assert str(stacked.value) == f"trial 1: {alone.value}"


def test_schlafli_areas_are_the_face_areas():
    tables = g.squared_length_table(idn.random_simplices(range(5)))
    stacked = idn._face_areas(tables)
    for L, areas in zip(tables, stacked):
        want = [heron_area(L, f) for f in g.FACES5]
        assert areas.tolist() == want
        assert triangle_areas(L[g.EDGE_I, g.EDGE_J], g.FACE_EDGES5, g.FACES5).tolist() == want
        oracle = np.array([face_area(L, f) for f in g.FACES5])
        assert np.abs(areas - oracle).max() <= AREA_REL_TOL * oracle.min()
    flat = g.squared_length_table(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0],
                                            [1.0, 1.0]]))
    with pytest.raises(DegenerateSimplexError):
        triangle_areas(flat[g.EDGE_I, g.EDGE_J], g.FACE_EDGES5, g.FACES5)
    with pytest.raises(DegenerateSimplexError):
        idn._face_areas(np.stack([tables[0], flat]))


def test_schlafli_direction_is_not_the_placement_draw():
    # the placement of trial seed s starts with default_rng(s).standard_normal((5, 4));
    # the deformation direction comes from a child stream, not from those Gaussians
    for s in idn.TrialDraws(5, 11).seeds:
        d = idn._trial_direction(s)
        assert np.array_equal(d, d.T) and np.abs(d).max() == 1.0
        raw = np.random.default_rng(s).standard_normal((5, 4)).ravel()[:10]
        assert not np.allclose(d[g.EDGE_I, g.EDGE_J], raw / np.abs(raw).max())
        assert np.array_equal(idn._trial_direction(s), d)


def test_central_difference_steps_each_table_of_a_stack_alone():
    # tables of different scale, so that each takes a different step
    pts = idn.random_simplices(range(4))
    L = g.squared_length_table(pts) * np.array([1.0, 3.7, 0.2, 11.0])[:, None, None]
    assert len(set(L.max(axis=(1, 2)).tolist())) == 4
    directions = np.stack([idn._trial_direction(s) for s in range(4)])
    for fn in (lambda T: idn.signed_angles(T, +1), lambda T: g.edge_angle_thetas(T, -1)):
        stacked = idn.central_difference(fn, L, directions)
        assert stacked.shape == (4, 10)
        for t in range(4):
            alone = idn.central_difference(fn, L[t], directions[t])
            assert np.array_equal(alone, central_difference_one_table(fn, L[t], directions[t]))
            assert np.array_equal(stacked[t], alone)
    eps = np.array([1, -1, -1, 1])
    oracle = idn.fd_dtheta_dL(L, eps)
    assert oracle.shape == (4, 10, 10)
    for t in range(4):
        alone = idn.fd_dtheta_dL(L[t], eps[t])
        signed = lambda T: idn.signed_angles(T, eps[t])  # noqa: E731
        want = central_difference_one_table(signed, L[t], idn._EDGE_DIRECTIONS).T
        assert np.array_equal(alone, want)
        assert np.array_equal(oracle[t], alone)


# The per-trial loops of the three simplex batteries before they took the
# (T, 5, 5) stack of all trials, and the one-table oracle they called, kept
# as bitwise references.

def central_difference_one_table(fn, L, direction):
    """central_difference of one table: one scalar step, one stencil call."""
    h = idn.FD_REL_STEP * float(L.max())
    steps = np.array([h / 2, -h / 2, h, -h]).reshape((4,) + (1,) * np.ndim(direction))
    values = np.asarray(fn(L + steps * direction))
    half = (values[0] - values[1]) / (2 * (h / 2))
    full = (values[2] - values[3]) / (2 * h)
    return (4 * half - full) / 3


def opposite_edge_derivative_loop(draws, tol):
    residuals = []
    for pts in draws.simplices:
        V = g.signed_volume4(pts)
        eps = 1 if V > 0 else -1
        L = g.squared_length_table(pts)
        face, edge = (1, 2, 3), (0, 4)
        S = heron_area(L, face)
        oracle = central_difference_one_table(
            lambda T: idn.signed_angles(T, eps), L, idn._EDGE_DIRECTIONS
        ).T
        d = oracle[g.FACE_INDEX5[face], g.EDGE_INDEX5[edge]]
        target = S / V
        closed_form = abs(24.0 * d - target) / abs(target)
        block_stack = jb.dtheta_dL_blocks(g.validate_length_table(L, size=5)[None], [eps])
        block = np.abs(block_stack[0] - oracle).max() / np.abs(oracle).max()
        residuals.append(max(closed_form, block))
    return idn._result("opposite_edge_derivative", draws, tol, residuals)


def schlafli_loop(draws, tol):
    residuals = []
    for s, pts in zip(draws.seeds, draws.simplices):
        L = g.squared_length_table(pts)
        direction = idn._trial_direction(s)
        dtheta = central_difference_one_table(lambda T: idn.signed_angles(T, +1), L, direction)
        areas = triangle_areas(L[g.EDGE_I, g.EDGE_J], g.FACE_EDGES5, g.FACES5)
        terms = areas * dtheta
        residuals.append(abs(terms.sum()) / np.abs(terms).sum())
    return idn._result("schlafli", draws, tol, residuals)


def modified_schlafli_loop(draws, tol):
    residuals = []
    for s, pts in zip(draws.seeds, draws.simplices):
        L = g.squared_length_table(pts)
        direction = idn._trial_direction(s)
        dTheta = central_difference_one_table(
            lambda T: g.edge_angle_thetas(T, +1), L, direction
        )
        terms = L[g.EDGE_I, g.EDGE_J] * dTheta
        residuals.append(abs(terms.sum()) / np.abs(terms).sum())
    return idn._result("modified_schlafli", draws, tol, residuals)


def _identity_trial_seeds():
    """The trial seeds of verify-identities calls worth pinning.

    The four seeds drawn at each of the benchmark seeds 1, 611, 612 and 613
    by its identities workload (rng [seed, 2]), and the acceptance seeds.
    """
    seeds = [int(s) for bench in (1, 611, 612, 613)
             for s in np.random.default_rng([bench, 2]).integers(2**31, size=4)]
    return seeds + [101, 202, 303, 404]


@pytest.mark.parametrize("stacked, loop", [
    (idn.battery_opposite_edge_derivative, opposite_edge_derivative_loop),
    (idn.battery_schlafli, schlafli_loop),
    (idn.battery_modified_schlafli, modified_schlafli_loop),
])
def test_stacked_battery_is_bitwise_the_per_trial_loop(stacked, loop):
    cases = [idn.TrialDraws(5, s) for s in _identity_trial_seeds()]
    cases += [idn.TrialDraws(1, s) for s in (0, 7, 101)]
    for draws in cases:
        for tol in (idn.DEFAULT_TOL, 1e-12):  # the second fails some trials
            got, want = stacked(draws, tol), loop(draws, tol)
            # BatteryResult equality: name, trials, tol, max_residual, failures, extras
            assert got == want
            assert np.float64(got.max_residual).tobytes() == np.float64(want.max_residual).tobytes()
