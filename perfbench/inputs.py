"""Seeded input documents and operation lists for the benchmark workloads.

Everything here is derived from the workload seed alone, so one seed always
gives the same documents, the same sampled move triangles and the same
operation list.  The timed operations see only the generated documents:
they are plain argument vectors for ``pachner33.cli.main`` and carry no
tuning argument.

Placements keep the library sampler's unit-ball scale on purpose.  Stellar
subdivision makes cells smaller and thinner as the complex grows, so the
products of volumes and areas shrink towards underflow; that is part of
what the ladder measures.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pachner33.complexes import (
    boundary_delta5,
    build_complex,
    move_cluster,
    orient_consistently,
)
from pachner33.errors import MovePreconditionError
from pachner33.flatmetric import random_realization, realize
from pachner33.geometry import mean_edge_length, signed_volume4, squared_length_table
from pachner33.io import ComplexDocument, load_document, serialize_complex

# Cell counts of the stellar ladder: each 1->5 subdivision adds four cells
# to the 6-cell boundary of the 5-simplex.
LADDER_RUNGS = (26, 86, 166, 406)
LADDER_CALLS = (("invariant", 26), ("invariant", 86), ("invariant", 166), ("invariant", 406),
                ("jacobian", 86), ("jacobian", 166), ("check-flat", 406))
# Each ladder run holds three independently seeded ladders.  On some seeds
# the finite-difference stencil leaves the realizable region on a thin cell
# and the call fails early; that input then moves its kind's median only if
# it is the majority, while its failures are counted like any other.
LADDER_COPIES = 3
STELLAR_MOVE_RUNG = 86
# A stacked 2-sphere with 24 triangles joined with a 3-cycle has 72 cells.
JOIN_SPHERE_TRIANGLES = 24
MOVES_PER_INPUT = 6
# The join keeps the best of this many unit-ball placements by worst cell.
JOIN_PLACEMENTS = 40
# Short identity calls at several trial seeds: a call of a few tenths of a
# second lets the reference probes around it follow the machine's speed.
IDENTITY_TRIALS = 5
IDENTITY_SEEDS = 4
# Barycentric weights of a new vertex are Dirichlet(20): inside the cell and
# near its centre, so that nested splits stay far from degenerate.
BARYCENTRIC_CONCENTRATION = 20.0

WORKLOADS = ("ladder", "moves", "identities")


class SetupError(Exception):
    """A generated input failed its self-check; no timing may follow."""


@dataclass(frozen=True)
class Op:
    """One CLI call: the metric it is timed under and what the oracle checks."""

    kind: str
    argv: tuple
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list  # one closed-loop pass, in order
    warmup: tuple  # untimed argv run once before timing
    documents: dict  # file name -> f-vector of the complex


def unit_ball(rng, n):
    """n points uniform in the unit 4-ball, drawn as the library sampler draws them."""
    raw = rng.standard_normal((n, 4))
    radii = rng.uniform(size=(n, 1)) ** 0.25
    return raw / np.linalg.norm(raw, axis=1, keepdims=True) * radii


def stellar_ladder(rng, rungs):
    """Vertex sets and points of nested stellar subdivisions of the 5-simplex boundary.

    The base placement comes from the library sampler.  Each step picks a
    cell with probability proportional to its volume, places a new vertex
    inside it and replaces the cell by the cone over its boundary.  Returns
    {cell count: (vertex sets, points)} for each rung.
    """
    base = random_realization(boundary_delta5(), seed=int(rng.integers(2**31)))
    points = [base[v] for v in range(6)]
    cells = [tuple(v for v in range(6) if v != i) for i in range(6)]
    volumes = [abs(signed_volume4(np.array([points[v] for v in cell]))) for cell in cells]
    out = {}
    while len(cells) < max(rungs):
        k = int(rng.choice(len(cells), p=np.array(volumes) / sum(volumes)))
        cell, volume = cells.pop(k), volumes.pop(k)
        weights = rng.dirichlet(np.full(5, BARYCENTRIC_CONCENTRATION))
        new = len(points)
        points.append(weights @ np.array([points[v] for v in cell]))
        for x, w in zip(cell, weights):
            cells.append(tuple(v for v in cell if v != x) + (new,))
            volumes.append(volume * w)
        if len(cells) in rungs:
            out[len(cells)] = (list(cells), list(points))
    return out


def stacked_sphere_join(rng, sphere_triangles):
    """Vertex sets and points of K * C3 for a seeded stacked 2-sphere K.

    The library sampler redraws a placement until every cell has
    |V| >= 2e-3 mean_edge^4, which is out of reach at this size; the join
    keeps instead the best of JOIN_PLACEMENTS unit-ball draws by that measure.
    """
    triangles = list(itertools.combinations(range(4), 3))
    nv = 4
    while len(triangles) < sphere_triangles:
        tri = triangles.pop(int(rng.integers(len(triangles))))
        triangles.extend(pair + (nv,) for pair in itertools.combinations(tri, 2))
        nv += 1
    circle = ((nv, nv + 1), (nv + 1, nv + 2), (nv, nv + 2))
    cells = [tri + edge for tri in triangles for edge in circle]
    draws = [unit_ball(rng, nv + 3) for _ in range(JOIN_PLACEMENTS)]
    best = max(draws, key=lambda pts: min(quality(pts[list(cell)]) for cell in cells))
    return cells, list(best)


def quality(points):
    """|V| / mean_edge^4 of one cell, the measure the library sampler bounds."""
    return abs(signed_volume4(points)) / mean_edge_length(squared_length_table(points)) ** 4


def checked_complex(vertex_sets, points, name):
    """Oriented complex with its placement, after the self-check the ops rely on."""
    c = build_complex(orient_consistently(vertex_sets))
    if not (c.is_closed and c.orientation_consistent):
        raise SetupError(f"{name}: not a closed, consistently oriented complex")
    if c.euler_characteristic() != 2:
        raise SetupError(f"{name}: Euler characteristic {c.euler_characteristic()}, not 2")
    coords = {v: np.asarray(points[v], dtype=float) for v in c.vertices}
    realize(c, coords)  # raises DegenerateSimplexError on a degenerate cell
    return c, coords


def write_document(c, coords, name, workdir):
    """Write the complex with its coordinates and read it back through the parser."""
    doc = ComplexDocument(
        simplices=[list(c.oriented_simplex(i)) for i in range(len(c.simplices))],
        metadata={"name": name},
    ).with_coords(coords)
    path = Path(workdir) / f"{name}.json"
    path.write_text(serialize_complex(doc), encoding="utf-8")
    back = load_document(str(path))
    if len(back.simplices) != len(c.simplices) or back.coords is None:
        raise SetupError(f"{name}: document did not round-trip")
    return str(path)


def expected_rank(c):
    """E - 4V + 10, the selection rank predicted for a triangulated 4-sphere."""
    return len(c.faces[1]) - 4 * len(c.vertices) + 10


def move_triangles(c, rng, opposite_present):
    """A seeded sample of admissible 3->3 triangles of one opposite-face kind."""
    found = []
    for tri in c.faces[2]:
        try:
            _, opposite, _, _ = move_cluster(c, tri)
        except MovePreconditionError:
            continue
        if (opposite in c.face_index[2]) == opposite_present:
            found.append(tri)
    if len(found) < MOVES_PER_INPUT:
        raise SetupError(f"only {len(found)} admissible triangles of the wanted kind")
    picks = rng.choice(len(found), size=MOVES_PER_INPUT, replace=False)
    return [found[i] for i in sorted(picks)]


def _compare_ops(kind, path, triangles):
    return [
        Op(kind, ("compare", path, "--face", ",".join(map(str, tri))), {"face": list(tri)})
        for tri in triangles
    ]


def build_workload(name, seed, workdir):
    """Generate, write and validate the documents of one workload."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    documents = {}

    def add(vertex_sets, points, doc_name):
        c, coords = checked_complex(vertex_sets, points, doc_name)
        path = write_document(c, coords, doc_name, workdir)
        documents[Path(path).name] = c.f_vector()
        return c, path

    if name == "ladder":
        ladders = []
        for copy in range(LADDER_COPIES):
            rungs = {}
            for n, (cells, points) in sorted(stellar_ladder(rng, LADDER_RUNGS).items()):
                c, path = add(cells, points, f"stellar{copy}_n{n}")
                rungs[n] = (path, expected_rank(c))
            ladders.append(rungs)
        ops = [
            Op(f"{command.replace('-', '')}_s.n{n}", (command, rungs[n][0]), {"rank": rungs[n][1]})
            for command, n in LADDER_CALLS
            for rungs in ladders
        ]
        return Workload(ops, ops[0].argv, documents)

    if name == "moves":
        cells, points = stacked_sphere_join(rng, JOIN_SPHERE_TRIANGLES)
        join, join_path = add(cells, points, f"join_n{len(cells)}")
        cells, points = stellar_ladder(rng, (STELLAR_MOVE_RUNG,))[STELLAR_MOVE_RUNG]
        stellar, stellar_path = add(cells, points, f"stellar_n{STELLAR_MOVE_RUNG}")
        join_ops = _compare_ops("compare_s.join", join_path, move_triangles(join, rng, False))
        stellar_ops = _compare_ops(
            "compare_s.stellar", stellar_path, move_triangles(stellar, rng, True)
        )
        ops = [op for pair in zip(join_ops, stellar_ops) for op in pair]
        return Workload(ops, stellar_ops[0].argv, documents)

    if name == "identities":
        ops = [
            Op("identities_s", ("verify-identities", "--trials", str(IDENTITY_TRIALS),
                                "--seed", str(int(trial_seed))))
            for trial_seed in rng.integers(2**31, size=IDENTITY_SEEDS)
        ]
        return Workload(ops, ops[0].argv, documents)

    raise ValueError(f"unknown workload {name!r}")
