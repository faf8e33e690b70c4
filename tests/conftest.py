import math

import numpy as np
import pytest

from pachner33 import complexes as cx
from pachner33 import flatmetric as fm
from pachner33 import geometry as g
from pachner33 import jacobians as jb
from pachner33.errors import DegenerateSimplexError, MovePreconditionError

LADDER_RUNGS = (26, 86, 166)


# One-table references: the library computes these only in batches
# (cm_squared_volumes, the stacked batteries, deficit_omega).

def cm_squared_volume(k, L):
    """Squared k-volume of one (k+1)-point squared-length table (Cayley-Menger)."""
    L = g.validate_length_table(L, size=k + 1)
    if L.ndim != 2:
        raise ValueError("cm_squared_volume takes one table; stacks go to cm_squared_volumes")
    return float(g.cm_squared_volumes(k, L[np.triu_indices(k + 1, 1)][None])[0])


def face_area(L, face):
    """Area of one face of a squared-length table."""
    sq = cm_squared_volume(2, L[np.ix_(face, face)])
    if sq <= 0.0:
        raise DegenerateSimplexError(f"face {face} has nonpositive squared area")
    return math.sqrt(sq)


def reduce_angle_scalar(x):
    """Representative of the float x mod 2*pi in (-pi, pi]."""
    r = math.remainder(x, g.TWO_PI)
    if r <= -math.pi:
        r += g.TWO_PI
    return r


def area_length_weights(c, m):
    """Dense (edges x triangles) matrix of dS_t/dL_e from one batch of dS/dL blocks.

    The simplices sharing a triangle write equal entries.  The library once
    took dBigOmega_dS and Omega as products with this matrix; it is kept as
    their reference.
    """
    W = np.zeros((len(c.faces[1]), len(c.faces[2])))
    dS_dL = g.dS_dL_blocks(jb.length_tables(m.L, c.simplex_edges))
    W[c.simplex_edges[:, None, :], c.simplex_faces[:, :, None]] = dS_dL
    return W


def vertex_motion_dL(c, coords, delta):
    """(E,) squared-length change of a vertex displacement field, c.faces[1] order.

    dL_uw = 2 (x_u - x_w) . (delta_u - delta_w) for each edge (u, w).
    """
    X = np.array([coords[v] for v in c.vertices], dtype=float)
    dX = np.array([delta[v] for v in c.vertices], dtype=float)
    u, w = c.edge_ends.T
    return 2.0 * np.einsum("ek,ek->e", X[u] - X[w], dX[u] - dX[w])


def admissible_triangles(c, limit):
    """Up to limit triangles of c whose star is a 3->3 cluster, in face order."""
    found = []
    for tri in c.faces[2]:
        try:
            cx.move_cluster(c, tri)
        except MovePreconditionError:
            continue
        found.append(tri)
        if len(found) == limit:
            break
    return found


@pytest.fixture(scope="session")
def motion_dL():
    return vertex_motion_dL


@pytest.fixture(scope="session")
def admissible():
    return admissible_triangles


@pytest.fixture(scope="session")
def delta5():
    return cx.boundary_delta5()


@pytest.fixture(scope="session")
def delta5_coords(delta5):
    return fm.random_realization(delta5, seed=1)


@pytest.fixture(scope="session")
def delta5_metric(delta5, delta5_coords):
    return fm.realize(delta5, delta5_coords)


@pytest.fixture(scope="session")
def join_complex():
    return cx.tetra_circle_join()


@pytest.fixture(scope="session")
def join_coords(join_complex):
    return fm.random_realization(join_complex, seed=5)


@pytest.fixture(scope="session")
def join_metric(join_complex, join_coords):
    return fm.realize(join_complex, join_coords)


@pytest.fixture(scope="session")
def bipyramid():
    return cx.bipyramid_sphere()


@pytest.fixture(scope="session")
def stellar_ladder():
    """Nested stellar subdivisions of the 5-simplex boundary, with placements.

    Each step splits a cell chosen with probability proportional to its
    volume at a point with Dirichlet(20) barycentric weights, so new cells
    stay well inside the old.  Returns {cell count: (complex, coords)}.
    """
    rng = np.random.default_rng(2026)
    c = cx.boundary_delta5()
    coords = fm.random_realization(c, seed=int(rng.integers(2**31)))
    rungs = {}
    while len(c.simplices) < max(LADDER_RUNGS):
        cells = [np.stack([coords[v] for v in verts]) for verts, _ in c.simplices]
        volumes = np.array([abs(g.signed_volume4(pts)) for pts in cells])
        sid = int(rng.choice(len(cells), p=volumes / volumes.sum()))
        coords[c.vertices[-1] + 1] = rng.dirichlet(np.full(5, 20.0)) @ cells[sid]
        c = cx.stellar_subdivide(c, sid)
        if len(c.simplices) in LADDER_RUNGS:
            rungs[len(c.simplices)] = (c, dict(coords))
    return rungs
