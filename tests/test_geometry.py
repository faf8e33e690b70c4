"""Single-simplex geometry: volumes, embeddings, angles, edge angles."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pachner33 import complexes as cx
from pachner33 import geometry as g
from pachner33 import jacobians as jb
from pachner33.errors import DegenerateSimplexError, NonRealizableLengthsError
from pachner33.identities import signed_angles

from conftest import (
    below_quality_loop,
    cm_squared_volume,
    face_area,
    reduce_angle_scalar,
    unit_ball_placement_loop,
    unit_ball_points,
)


# ---------------------------------------------------------------- oracles

def gram_volume_oracle(points):
    """Brute-force squared volume via the Gram determinant of edge vectors."""
    pts = np.asarray(points, dtype=float)
    V = pts[1:] - pts[0]
    k = V.shape[0]
    return np.linalg.det(V @ V.T) / math.factorial(k) ** 2


def regular_simplex_dihedral_oracle(n):
    """Dihedral angle of the regular n-simplex from unit-normal Gram algebra.

    The n+1 facet normals of a regular simplex have pairwise cosine -1/n, so
    the inner dihedral angle is arccos(1/n).
    """
    return math.acos(1.0 / n)


def area_derivative_oracle(L1, L2, L3, h=1e-7):
    """Central difference of Heron's formula in squared lengths wrt L1."""

    def area(a, b, c):
        return math.sqrt((2 * (a * b + b * c + c * a) - a * a - b * b - c * c) / 16.0)

    return (area(L1 + h, L2, L3) - area(L1 - h, L2, L3)) / (2 * h)


def random_simplex(seed, quality=1e-3):
    rng = np.random.default_rng(seed)
    while True:
        pts = rng.standard_normal((5, 4))
        L = g.squared_length_table(pts)
        if abs(g.signed_volume4(pts)) >= quality * g.mean_edge_length(L) ** 4:
            return pts


UNIT_L = np.ones((5, 5)) - np.eye(5)


# ------------------------------------------------------ length-table checks

def validate_length_table_allclose(L, size=None):
    """The two-np.allclose check whose decisions validate_length_table keeps."""
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("length table must be square")
    if size is not None and L.shape[0] != size:
        raise ValueError(f"length table must be {size}x{size}")
    if not np.allclose(L, L.T):
        raise ValueError("length table must be symmetric")
    if not np.allclose(np.diag(L), 0.0):
        raise ValueError("length table must have zero diagonal")
    return L


def _decision(check, L, size):
    try:
        check(L, size)
    except ValueError as exc:
        return str(exc)
    return "accepted"


def _edge_tables(rng, count):
    """Seeded tables around the tolerance edge, with nan, +-inf and -0.0 entries."""
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-9, 5e-324, 1e300]
    diagonal = [0.0, -0.0, 0.5e-8, 1e-8, 1.0000001e-8, 2e-8, -1e-8, -1.1e-8,
                np.nan, np.inf, -np.inf, 5e-324]
    for _ in range(count):
        n = int(rng.choice([3, 5]))
        L = rng.uniform(0.0, 3.0, (n, n)) * 10.0 ** rng.integers(-12, 12)
        L = np.triu(L, 1)
        L = L + L.T
        for _ in range(int(rng.integers(1, 4))):
            i, j = (int(v) for v in rng.choice(n, 2, replace=False))
            kind = int(rng.integers(4))
            if kind == 0:  # just inside or outside |x - y| <= atol + rtol |y|
                y = L[j, i]
                factor = rng.choice([0.5, 0.999999, 1.0, 1.000001, 1.5])
                with np.errstate(invalid="ignore"):
                    L[i, j] = y + rng.choice([-1, 1]) * factor * (1e-8 + 1e-5 * abs(y))
            elif kind == 1:
                L[i, j] = rng.choice(special)
            elif kind == 2:
                L[i, j] = L[j, i] = rng.choice(special)
            else:
                L[i, i] = rng.choice(diagonal)
        yield L


def test_validate_length_table_keeps_the_allclose_decisions():
    rng = np.random.default_rng(20)
    tables = list(_edge_tables(rng, 3000))
    tables += [
        np.array([[0.0, np.inf], [np.inf, 0.0]]),
        np.array([[0.0, np.inf], [-np.inf, 0.0]]),
        np.array([[0.0, 1.0], [np.inf, 0.0]]),
        np.array([[0.0, np.nan], [np.nan, 0.0]]),
        np.array([[-0.0, 1.0], [1.0, -0.0]]),
        np.zeros((0, 0)),
        np.zeros((3, 4)),
        np.zeros((4, 4)),
    ]
    decisions = {}
    for L in tables:
        size = L.shape[0] if L.shape[0] in (2, 3) else 5
        want = _decision(validate_length_table_allclose, L, size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _decision(g.validate_length_table, L, size)
        assert got == want, L
        decisions[want] = decisions.get(want, 0) + 1
    # the battery reaches every decision, not only the easy ones
    assert decisions["accepted"] > 100
    assert decisions["length table must be symmetric"] > 100
    assert decisions["length table must have zero diagonal"] > 100


# ------------------------------------------------- Cayley-Menger volumes

def test_cm_unit_triangle_matches_heron():
    L = np.ones((3, 3)) - np.eye(3)
    assert cm_squared_volume(2, L) == pytest.approx(3.0 / 16.0, rel=1e-14)


def test_cm_orthoscheme_volume():
    pts = np.vstack([np.zeros(4), np.eye(4)])
    L = g.squared_length_table(pts)
    assert cm_squared_volume(4, L) == pytest.approx((1.0 / 24.0) ** 2, rel=1e-12)


def test_cm_regular_simplex_against_gram_oracle():
    # independent oracle: embed and take the Gram determinant
    pts = g.gram_embed(UNIT_L)
    oracle = gram_volume_oracle(pts)
    assert oracle == pytest.approx(5.0 / 9216.0, rel=1e-12)
    assert cm_squared_volume(4, UNIT_L) == pytest.approx(oracle, rel=1e-12)


def test_cm_matches_gram_oracle_on_random_simplices():
    for seed in range(5):
        pts = random_simplex(seed)
        L = g.squared_length_table(pts)
        assert cm_squared_volume(4, L) == pytest.approx(
            gram_volume_oracle(pts), rel=1e-9, abs=1e-15
        )


def test_cm_nonrealizable_input_goes_nonpositive():
    L = UNIT_L.copy()
    L[0, 1] = L[1, 0] = 100.0  # violates the triangle inequality grossly
    assert cm_squared_volume(2, L[:3, :3]) < 0.0


@given(st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=25, deadline=None)
def test_cm_homogeneity_under_scaling(c):
    pts = random_simplex(17)
    L = g.squared_length_table(pts)
    base = cm_squared_volume(4, L)
    assert cm_squared_volume(4, c * L) == pytest.approx(c**4 * base, rel=1e-10)


# ----------------------------------------------------------- signed volume

def test_signed_volume_orthoscheme():
    pts = np.vstack([np.zeros(4), np.eye(4)])
    assert g.signed_volume4(pts) == pytest.approx(1.0 / 24.0, rel=1e-14)


def test_signed_volume_flips_under_odd_permutation():
    pts = np.vstack([np.zeros(4), np.eye(4)])
    swapped = pts[[0, 2, 1, 3, 4]]
    assert g.signed_volume4(swapped) == pytest.approx(-1.0 / 24.0, rel=1e-14)


def test_signed_volume_zero_for_affinely_dependent_points():
    pts = np.vstack([np.zeros(4), np.eye(4)])
    pts[4] = 0.25 * (pts[0] + pts[1] + pts[2] + pts[3])
    assert g.signed_volume4(pts) == pytest.approx(0.0, abs=1e-15)


# ------------------------------------------------------- the volume floor

def test_cell_volumes_match_the_per_cell_loop():
    rng = np.random.default_rng(61)
    pts = rng.standard_normal((3000, 5, 4)) * rng.uniform(1e-3, 1e3, (3000, 1, 1))
    # pull the last point towards the others' centroid: thicknesses across the floors
    t = 10.0 ** rng.uniform(-12, 0, (3000, 1))
    pts[:, 4] = (1 - t) * pts[:, :4].mean(axis=1) + t * pts[:, 4]
    for rel in (g.DEGENERACY_REL, 1e-3, g.DEFAULT_QUALITY):
        V, below = g.cell_volumes(pts, rel)
        assert V.tolist() == [g.signed_volume4(p) for p in pts]
        assert below.tolist() == [below_quality_loop(p, rel) for p in pts]
        assert 0 < below.sum() < len(pts)


def test_placement_matches_the_per_cell_loop():
    cell_lists = [
        [(0, 1, 2, 3, 4)],
        [tuple(v for v in range(6) if v != x) for x in range(6)],
        cx.tetra_circle_join().simplex_vertices,
        cx.bipyramid_sphere().simplex_vertices,
    ]
    for cells in cell_lists:
        n = int(np.max(cells)) + 1
        stacked = g.unit_ball_placement(range(200), n, cells)
        assert stacked.shape == (200, n, 4)
        for seed in range(200):
            want = unit_ball_placement_loop(seed, n, cells)
            # drawn in rounds with the other seeds, or alone: the seed's own placement
            assert stacked[seed].tobytes() == want.tobytes()
            assert g.unit_ball_placement([seed], n, cells)[0].tobytes() == want.tobytes()
    assert g.unit_ball_placement([], 6, cell_lists[1]).shape == (0, 6, 4)


def draws_needed(seed, n, cells):
    """How many placements the per-seed loop draws for seed."""
    rng = np.random.default_rng(seed)
    for k in range(1, g.MAX_DRAWS + 1):
        pts = unit_ball_points(rng, n)
        if not any(below_quality_loop(pts[list(cell)], g.DEFAULT_QUALITY) for cell in cells):
            return k
    raise AssertionError(f"seed {seed} needs more than {g.MAX_DRAWS} draws")


def test_placement_redraw_limit_holds_per_seed(monkeypatch):
    cells = cx.bipyramid_sphere().simplex_vertices
    n = int(np.max(cells)) + 1
    needed = {seed: draws_needed(seed, n, cells) for seed in range(40)}
    hard = max(needed, key=needed.get)
    easy = [seed for seed, k in needed.items() if k < needed[hard]]
    assert needed[hard] > 1 and easy
    monkeypatch.setattr(g, "MAX_DRAWS", needed[hard] - 1)
    # seeds within the limit are placed; one seed past it fails the whole list
    assert g.unit_ball_placement(easy, n, cells).shape == (len(easy), n, 4)
    with pytest.raises(DegenerateSimplexError, match="placement in"):
        g.unit_ball_placement(easy + [hard], n, cells)
    monkeypatch.setattr(g, "MAX_DRAWS", needed[hard])
    placed = g.unit_ball_placement(easy + [hard], n, cells)
    assert placed[-1].tobytes() == unit_ball_placement_loop(hard, n, cells).tobytes()


def test_placement_rounds_draw_ahead_up_to_the_cap(monkeypatch):
    cells = cx.bipyramid_sphere().simplex_vertices
    n = int(np.max(cells)) + 1
    needed = {seed: draws_needed(seed, n, cells) for seed in range(40)}
    rounds = []  # placements drawn per seed in each round, from each cell_volumes call
    original = g.cell_volumes

    def counted(points, rel):
        rounds.append(points.shape[:2])
        return original(points, rel)

    monkeypatch.setattr(g, "cell_volumes", counted)
    for seeds in ([0], [5], [7, 31], list(range(40))):
        rounds.clear()
        g.unit_ball_placement(seeds, n, cells)
        k = max(needed[seed] for seed in seeds)
        # round r draws the next 2^r placements of each unplaced seed
        assert len(rounds) == math.ceil(math.log2(k + 1))
        assert [ahead for _, ahead in rounds] == [2**r for r in range(len(rounds))]

    # a cap that is neither a power of two nor 2^r - 1 cuts the last round short
    k = next(k for k in sorted(set(needed.values()))
             if k & (k - 1) and k & (k + 1) and k + 1 in needed.values())
    exact = min(seed for seed, need in needed.items() if need == k)
    over = min(seed for seed, need in needed.items() if need == k + 1)
    easy = [seed for seed, need in needed.items() if need < k]
    monkeypatch.setattr(g, "MAX_DRAWS", k)
    rounds.clear()
    placed = g.unit_ball_placement(easy + [exact], n, cells)
    assert placed[-1].tobytes() == unit_ball_placement_loop(exact, n, cells).tobytes()
    assert sum(ahead for _, ahead in rounds) == k
    with pytest.raises(DegenerateSimplexError) as exc:
        g.unit_ball_placement(easy + [over], n, cells)
    assert str(exc.value) == f"could not find a quality-{g.DEFAULT_QUALITY} placement in {k} draws"

    # a round that would floor more than _ROUND_CELLS cells draws fewer placements
    monkeypatch.setattr(g, "MAX_DRAWS", max(needed.values()))
    monkeypatch.setattr(g, "_ROUND_CELLS", 3 * len(cells))
    rounds.clear()
    placed = g.unit_ball_placement([exact, over], n, cells)
    for seed, pts in zip([exact, over], placed):
        assert pts.tobytes() == unit_ball_placement_loop(seed, n, cells).tobytes()
    assert all(seeds * ahead <= 3 or ahead == 1 for seeds, ahead in rounds)
    assert max(ahead for _, ahead in rounds) == 3


# ------------------------------------------------------------- embedding

def test_gram_embed_regular_simplex_round_trip():
    pts = g.gram_embed(UNIT_L)
    assert np.allclose(g.squared_length_table(pts), UNIT_L, rtol=1e-12, atol=1e-12)
    assert g.signed_volume4(pts) > 0.0


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_gram_embed_round_trip_random(seed):
    pts = random_simplex(seed)
    L = g.squared_length_table(pts)
    back = g.squared_length_table(g.gram_embed(L))
    assert np.abs(back - L).max() <= 1e-12 * L.max()


def test_gram_embed_rejects_triangle_inequality_violation():
    L = UNIT_L.copy()
    L[0, 1] = L[1, 0] = 100.0
    with pytest.raises(NonRealizableLengthsError):
        g.gram_embed(L)


# ------------------------------------------------- stacks of tables and points

def gram_matrix_one(L):
    L = validate_length_table_allclose(L, size=5)
    return 0.5 * (L[0, 1:, None] + L[0, None, 1:] - L[1:, 1:])


def gram_embed_one(L):
    """The one-table embedding the stacked gram_embed must reproduce per table."""
    try:
        C = np.linalg.cholesky(gram_matrix_one(L))
    except np.linalg.LinAlgError as exc:
        raise NonRealizableLengthsError("no realization") from exc
    pts = np.zeros((5, 4))
    pts[1:] = C
    return pts


def dihedral_angles_one(pts):
    """The one-simplex coordinate route, one math.acos per face, FACES5 order."""
    X = np.empty((5, 5))
    X[:, 0] = 1.0
    X[:, 1:] = pts
    try:
        N = np.linalg.inv(X)[1:, :]
    except np.linalg.LinAlgError as exc:
        raise DegenerateSimplexError("simplex is degenerate") from exc
    G = N.T @ N
    d = np.sqrt(np.diag(G))
    cosines = -G / np.outer(d, d)
    return np.array([math.acos(min(1.0, max(-1.0, cosines[x, y]))) for x, y in g.OPPOSITE5])


def edge_angle_thetas_one(L, eps):
    signed = eps * dihedral_angles_one(gram_embed_one(L))
    return np.array([
        sum(float(g.dS_dL_blocks(L[None])[0, f, e]) * signed[f] for f in range(10))
        for e in range(10)
    ])


def stacked_simplices(shape, seed):
    """Unit-ball simplices in a stack of the given shape: points, tables, signs."""
    count = int(np.prod(shape))
    pts = g.unit_ball_placement(range(seed, seed + count), 5, [range(5)])
    L = np.stack([g.squared_length_table(p) for p in pts])
    eps = np.where(np.random.default_rng(seed).random(count) < 0.5, -1, 1)
    return pts.reshape(shape + (5, 4)), L.reshape(shape + (5, 5)), eps.reshape(shape)


@pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 4)])
def test_stacked_route_equals_the_per_table_loop(shape):
    pts, L, eps = stacked_simplices(shape, 40)
    flat_pts, flat_L, flat_eps = pts.reshape(-1, 5, 4), L.reshape(-1, 5, 5), eps.reshape(-1)

    def loop(fn, *stacks):
        return np.stack([fn(*args) for args in zip(*stacks)]).reshape(shape + (-1,))

    assert g.validate_length_table(L, size=5).tobytes() == L.tobytes()
    cases = [
        (g.gram_matrix(L), loop(gram_matrix_one, flat_L)),
        (g.gram_embed(L), loop(gram_embed_one, flat_L)),
        (g.dihedral_angles_from_points(pts), loop(dihedral_angles_one, flat_pts)),
        (g.dihedral_angles_from_lengths(L),
         loop(lambda T: dihedral_angles_one(gram_embed_one(T)), flat_L)),
        (g.edge_angle_thetas(L, eps), loop(edge_angle_thetas_one, flat_L, flat_eps)),
        (g.edge_angle_thetas(L, -1), loop(lambda T: edge_angle_thetas_one(T, -1), flat_L)),
    ]
    for got, want in cases:
        assert got.size == want.size and got.shape[: len(shape)] == shape
        assert np.abs(got.reshape(want.shape) - want).max() <= 1e-15


def _bad_tables():
    """(name, bad table): asymmetric, nonzero diagonal, not realizable."""
    _, L, _ = stacked_simplices((), 50)
    asym, diag, far = L.copy(), L.copy(), L.copy()
    asym[0, 1] += 1e-3
    diag[2, 2] = 1e-3
    far[0, 1] = far[1, 0] = 100.0  # the triangle inequality fails
    return [("asymmetric", asym), ("diagonal", diag), ("non_realizable", far)]


def _raised(fn, arg):
    try:
        fn(arg)
    except (ValueError, NonRealizableLengthsError, DegenerateSimplexError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name,bad", _bad_tables())
@pytest.mark.parametrize(
    "fn,embeds",
    [
        (lambda L: g.validate_length_table(L, size=5), False),
        (g.gram_matrix, False),
        (g.gram_embed, True),
        (g.dihedral_angles_from_lengths, True),
        (lambda L: g.edge_angle_thetas(L, 1), True),
    ],
    ids=["validate", "gram_matrix", "gram_embed", "angles_from_lengths", "edge_angles"],
)
def test_a_stack_with_one_bad_table_fails_as_that_table(fn, embeds, name, bad):
    _, good, _ = stacked_simplices((6,), 60)
    single = _raised(fn, bad)
    if name != "non_realizable":
        assert single[0] is ValueError
    else:  # only an embedding can tell
        assert (single[0] is NonRealizableLengthsError) if embeds else (single is None)
    assert _raised(fn, good) is None
    for position in (0, 3, 6):
        stack = np.insert(good, position, bad, axis=0)
        assert _raised(fn, stack) == single
        assert _raised(fn, stack.reshape(7, 1, 5, 5)) == single


def test_a_stack_with_one_degenerate_simplex_fails_as_that_simplex():
    pts, _, _ = stacked_simplices((5,), 70)
    flat = pts[2].copy()
    flat[4] = 0.5 * (flat[1] + flat[3])  # the fifth point joins the others' hyperplane
    single = _raised(g.dihedral_angles_from_points, flat)
    assert single is not None and single[0] is DegenerateSimplexError
    for position in (0, 5):
        assert _raised(g.dihedral_angles_from_points, np.insert(pts, position, flat, axis=0)) == single


def test_stacks_must_be_square_tables():
    for shape in [(5,), (3, 5, 4), (2, 4, 4)]:
        with pytest.raises(ValueError):
            g.validate_length_table(np.zeros(shape), size=5)


# ------------------------------------------------------------ dihedral angle

def test_dihedral_regular_simplex_matches_gram_oracle():
    pts = g.gram_embed(UNIT_L)
    expected = regular_simplex_dihedral_oracle(4)
    assert expected == pytest.approx(1.3181160716528177, rel=1e-12)
    for angle in g.dihedral_angles_from_points(pts):
        assert angle == pytest.approx(expected, rel=1e-12)


def test_dihedral_orthoscheme_right_angle():
    pts = np.vstack([np.zeros(4), np.eye(4)])
    angles = g.dihedral_angles_from_points(pts)
    assert angles[g.FACE_INDEX5[(0, 1, 2)]] == pytest.approx(math.pi / 2, rel=1e-12)


def test_dihedral_degenerate_face_raises():
    pts = np.vstack([np.zeros(4), np.eye(4)])
    pts[2] = 2.0 * pts[1]  # face (0, 1, 2) collapses to a segment
    with pytest.raises(DegenerateSimplexError):
        g.dihedral_angles_from_points(pts)


def test_batched_angles_agree_with_projection_route():
    for seed in range(8):
        pts = random_simplex(seed)
        coordinate = g.dihedral_angles_from_points(pts)
        batch = jb.dihedral_angles_batch(g.squared_length_table(pts)[None])[0]
        for face, angle in zip(g.FACES5, batch):
            assert angle == pytest.approx(coordinate[g.FACE_INDEX5[face]], abs=1e-12)


def test_signed_dihedral_attaches_the_simplex_sign():
    expected = math.acos(0.25)
    n = g.FACE_INDEX5[(0, 1, 2)]
    assert signed_angles(UNIT_L, +1)[n] == pytest.approx(expected, rel=1e-12)
    assert signed_angles(UNIT_L, -1)[n] == pytest.approx(-expected, rel=1e-12)


def test_signed_dihedral_orthoscheme():
    pts = np.vstack([np.zeros(4), np.eye(4)])
    L = g.squared_length_table(pts)
    angles = g.dihedral_angles_from_lengths(L)
    assert angles[g.FACE_INDEX5[(0, 1, 2)]] == pytest.approx(math.pi / 2, rel=1e-12)


# ------------------------------------------------------- opposite-edge rule

def test_opposite_edge_derivative_matches_area_volume_ratio():
    # vary only the squared length AE; d(theta_BCD)/dL_AE = S_BCD / (24 V)
    for seed in (0, 3, 8):
        pts = random_simplex(seed)
        V = g.signed_volume4(pts)
        eps = 1 if V > 0 else -1
        L = g.squared_length_table(pts)
        face, edge = (1, 2, 3), (0, 4)
        n = g.FACE_INDEX5[face]
        S = face_area(L, face)
        h = 1e-5 * L.max()
        Lp = L.copy(); Lp[edge] += h; Lp[edge[::-1]] += h
        Lm = L.copy(); Lm[edge] -= h; Lm[edge[::-1]] -= h
        fd = (signed_angles(Lp, eps)[n] - signed_angles(Lm, eps)[n]) / (2 * h)
        assert fd == pytest.approx(S / (24.0 * V), rel=1e-6)


# ------------------------------------------------------------- edge angles

def area_length_derivative(L, face, edge):
    """d(area of face)/d(squared length of edge) of one (5, 5) table, from dS_dL_blocks."""
    L = g.validate_length_table(L, size=5)
    return float(g.dS_dL_blocks(L[None])[0, g.FACE_INDEX5[face], g.EDGE_INDEX5[edge]])


def test_area_length_derivative_regular_matches_oracle():
    oracle = area_derivative_oracle(1.0, 1.0, 1.0)
    assert oracle == pytest.approx(1.0 / (4.0 * math.sqrt(3.0)), rel=1e-8)
    assert area_length_derivative(UNIT_L, (0, 1, 2), (0, 1)) == pytest.approx(
        oracle, rel=1e-8
    )


def test_area_length_derivative_zero_off_face():
    assert area_length_derivative(UNIT_L, (0, 1, 2), (3, 4)) == 0.0


def test_dS_dL_blocks_names_the_table_face_and_kind_of_a_bad_squared_area():
    # table 2 stretches edge 01 past the triangle inequality; table 4 gives
    # edge 13 a squared length whose square overflows
    _, L, _ = stacked_simplices((6,), 60)
    L[2, 0, 1] = L[2, 1, 0] = 100.0 * L[2].max()
    L[4, 1, 3] = L[4, 3, 1] = 1e300
    nonpositive = "face (0, 1, 2) has nonpositive squared area"
    non_finite = "face (0, 1, 3) has non-finite squared area"
    for stack, message in [
        (L, f"table 2 of the stack: {nonpositive}"),
        (L.reshape(2, 3, 5, 5), f"table 2 of the stack: {nonpositive}"),
        (L[3:], f"table 1 of the stack: {non_finite}"),
        (L[3:].reshape(3, 1, 5, 5), f"table 1 of the stack: {non_finite}"),
        (L[4], f"table 0 of the stack: {non_finite}"),
    ]:
        with pytest.raises(DegenerateSimplexError) as exc:
            g.dS_dL_blocks(stack)
        assert str(exc.value) == message
    assert np.isfinite(g.dS_dL_blocks(np.delete(L, [2, 4], axis=0))).all()


def test_local_index_tables_match_a_faces5_loop():
    # the (face, edge) terms of dS_dL_blocks, derived from FACE_EDGES5, and the
    # vertices opposite each face, which jacobians reads from here, are the
    # tables a loop over FACES5 builds
    terms, opposite = [], []
    for fi, face in enumerate(g.FACES5):
        for a, b in ((face[0], face[1]), (face[0], face[2]), (face[1], face[2])):
            (c,) = [v for v in face if v not in (a, b)]
            terms.append((fi, g.EDGE_INDEX5[(a, b)], g.EDGE_INDEX5[tuple(sorted((a, c)))],
                          g.EDGE_INDEX5[tuple(sorted((b, c)))]))
        opposite.append([v for v in range(5) if v not in face])
    derived = (g._AREA_ROW, g._AREA_AB, g._AREA_AC, g._AREA_BC)
    assert [a.tolist() for a in derived] == [list(col) for col in zip(*terms)]
    assert [g.OPP_X.tolist(), g.OPP_Y.tolist()] == [list(col) for col in zip(*opposite)]


def test_edge_angle_regular_simplex_matches_oracle():
    # three faces contain any edge; each contributes (dS/dL) * arccos(1/4)
    oracle = 3.0 * area_derivative_oracle(1.0, 1.0, 1.0) * regular_simplex_dihedral_oracle(4)
    assert oracle == pytest.approx(0.5707610015939449, rel=1e-8)
    assert g.edge_angle_thetas(UNIT_L, +1)[g.EDGE_INDEX5[(0, 1)]] == pytest.approx(oracle, rel=1e-8)


def test_edge_angle_sign_flip():
    n = g.EDGE_INDEX5[(0, 1)]
    plus = g.edge_angle_thetas(UNIT_L, +1)[n]
    assert g.edge_angle_thetas(UNIT_L, -1)[n] == pytest.approx(-plus, rel=1e-12)


def edge_angle_theta_loop(L, edge, eps):
    """Per-edge reference: sum over the three faces containing the edge."""
    angles = g.dihedral_angles_from_lengths(L)
    a, b = edge
    total = 0.0
    for face in g.FACES5:
        if a in face and b in face:
            (c,) = [v for v in face if v not in edge]
            dS = (L[a, c] + L[b, c] - L[a, b]) / (16.0 * face_area(L, face))
            total += dS * (eps * angles[g.FACE_INDEX5[face]])
    return total


def test_edge_angle_thetas_match_scalar_route():
    pts = random_simplex(4)
    L = g.squared_length_table(pts)
    table = g.edge_angle_thetas(L, +1)
    for edge in g.EDGES5:
        assert table[g.EDGE_INDEX5[edge]] == pytest.approx(
            edge_angle_theta_loop(L, edge, +1), rel=1e-12
        )


# ----------------------------------------------------- differential identities

def directional_angle_differentials(L, direction, h):
    mp = g.dihedral_angles_from_lengths(L + h * direction)
    mm = g.dihedral_angles_from_lengths(L - h * direction)
    return {f: (mp[g.FACE_INDEX5[f]] - mm[g.FACE_INDEX5[f]]) / (2 * h) for f in g.FACES5}


def random_direction(seed):
    rng = np.random.default_rng(seed)
    d = np.zeros((5, 5))
    for i, j in g.EDGES5:
        d[i, j] = d[j, i] = rng.standard_normal()
    return d / np.abs(d).max()


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_area_weighted_angle_differentials_vanish(seed):
    pts = random_simplex(seed)
    L = g.squared_length_table(pts)
    direction = random_direction(seed + 1)
    dtheta = directional_angle_differentials(L, direction, 1e-5 * L.max())
    terms = [face_area(L, f) * dtheta[f] for f in g.FACES5]
    assert abs(sum(terms)) <= 1e-6 * sum(abs(t) for t in terms)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_length_weighted_edge_angle_differentials_vanish(seed):
    pts = random_simplex(seed)
    L = g.squared_length_table(pts)
    direction = random_direction(seed + 1)
    h = 1e-5 * L.max()
    Tp = g.edge_angle_thetas(L + h * direction, +1)
    Tm = g.edge_angle_thetas(L - h * direction, +1)
    terms = [L[e] * (Tp[g.EDGE_INDEX5[e]] - Tm[g.EDGE_INDEX5[e]]) / (2 * h) for e in g.EDGES5]
    assert abs(sum(terms)) <= 1e-6 * sum(abs(t) for t in terms)


def test_areas_homogeneous_of_degree_one():
    pts = random_simplex(9)
    L = g.squared_length_table(pts)
    for face in g.FACES5:
        S = face_area(L, face)
        assert face_area(2.0 * L, face) == pytest.approx(2.0 * S, rel=1e-12)
        euler = sum(
            L[e] * area_length_derivative(L, face, e) for e in g.EDGES5
        )
        assert euler == pytest.approx(S, rel=1e-10)


# ------------------------------------------------------------ angle reduction

@given(st.floats(min_value=-50.0, max_value=50.0), st.integers(min_value=-5, max_value=5))
@settings(max_examples=100)
def test_reduce_angle_is_2pi_periodic(x, k):
    r = g.reduce_angle(x)
    assert -math.pi < r <= math.pi + 1e-15
    assert g.reduce_angle(x + 2 * math.pi * k) == pytest.approx(r, abs=1e-9)


def test_reduce_angle_is_bitwise_the_scalar_remainder():
    rng = np.random.default_rng(17)
    k = np.arange(-6, 7)
    values = np.concatenate([
        rng.uniform(-50.0, 50.0, 20000),
        rng.uniform(-1e6, 1e6, 2000),
        k * math.pi, k * g.TWO_PI, k * math.pi + 1e-15,  # ties at +-pi, +-2*pi and their neighbours
        np.nextafter(k * math.pi, np.inf), np.nextafter(k * math.pi, -np.inf),
        np.nextafter(k * g.TWO_PI, np.inf), np.nextafter(k * g.TWO_PI, -np.inf),
        [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -3.0],
    ])
    want = np.array([reduce_angle_scalar(x) for x in values.tolist()])
    got = g.reduce_angle(values)
    assert got.tobytes() == want.tobytes()  # signed zeros included
    assert np.all((got > -math.pi) & (got <= math.pi))


def test_squared_length_table_of_a_stack_is_the_per_table_tables():
    pts = np.random.default_rng(4).standard_normal((3, 7, 5, 4))
    stacked = g.squared_length_table(pts)
    assert stacked.shape == (3, 7, 5, 5)
    for index in np.ndindex(3, 7):
        diff = pts[index][:, None, :] - pts[index][None, :, :]
        assert np.array_equal(stacked[index], np.einsum("ijk,ijk->ij", diff, diff))
