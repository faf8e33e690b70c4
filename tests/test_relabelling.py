"""Relabelling the vertices of a document: the reports follow the labels.

Vertex ids that differ from vertex positions are where array code can go
wrong.  A monotone relabelling keeps every face order, so the invariant,
jacobian and compare reports must be the same text with their keys mapped.
Any other relabelling reorders the faces and edges; the rank, the sign and
log|I| must survive it, the last up to rounding.
"""
import contextlib
import io
import json

import numpy as np
import pytest

from pachner33 import complexes as cx
from pachner33 import io as pio
from pachner33.cli import main

from conftest import admissible_triangles, join72

FIXTURES = ("boundary_delta5.json", "join_tetra_triangle.json", "bipyramid_10cell.json")
RUNGS = (26, 86, 166)
# the report fields that hold vertex ids, as paths of keys
KEY_FIELDS = {("face",), ("new_face",), ("matrices", "face_keys"), ("matrices", "edge_keys")} | {
    ("selection", key) for key in ("rows", "cols", "rows_complement", "cols_complement")
}
LOG_TOL = 1e-11


@pytest.fixture(scope="module")
def placed_documents(stellar_ladder):
    """name -> (cells, coords) of the three fixtures, the rungs and the 72-join."""
    docs = {}
    for name in FIXTURES:
        doc = pio.load_fixture(name)
        docs[name] = doc.simplices, doc.coords
    for n in RUNGS:
        c, coords = stellar_ladder[n]
        docs[f"rung{n}"] = c.vertex_ids[c.simplex_vertices].tolist(), coords
    docs["join72"] = join72()
    return docs


def write(path, cells, coords, label):
    """A document of the cells and coords with every vertex id v written as label[v]."""
    doc = pio.ComplexDocument(simplices=[[label[v] for v in cell] for cell in cells])
    pio.save_document(doc.with_coords({label[v]: p for v, p in coords.items()}), path)
    return str(path)


def report(*argv):
    """The report of one command, its floats kept as their text, without timing or file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    out = out.getvalue()
    rep = json.loads(out, parse_float=str)
    assert code in (0, 1) and "error" not in rep, out
    del rep["timing_s"], rep["inputs"]
    return rep


def mapped(rep, label, path=()):
    """rep with the vertex ids of its key fields written as label[v]."""
    if path in KEY_FIELDS:
        return relabel_ids(rep, label)
    if isinstance(rep, dict):
        return {k: mapped(v, label, path + (k,)) for k, v in rep.items()}
    return rep


def relabel_ids(ids, label):
    return [relabel_ids(v, label) for v in ids] if isinstance(ids, list) else label[ids]


def commands(path, face):
    return [("invariant", path), ("jacobian", path),
            ("compare", path, "--face", ",".join(map(str, face)))]


def labellings(ids):
    """(name, label) of the monotone map v -> 3v + 7, the reversal and two seeded shuffles."""
    yield "monotone", {v: 3 * v + 7 for v in ids}
    yield "reversed", dict(zip(ids, ids[::-1]))
    for seed in (1, 2):
        shuffled = np.random.default_rng(seed).permutation(ids).tolist()
        yield f"shuffle{seed}", dict(zip(ids, shuffled))


@pytest.mark.parametrize("name", [*FIXTURES, *(f"rung{n}" for n in RUNGS), "join72"])
def test_reports_follow_a_relabelling(name, placed_documents, tmp_path):
    cells, coords = placed_documents[name]
    ids = sorted({v for cell in cells for v in cell})
    face = admissible_triangles(cx.build_complex(cells), limit=1)[0]
    identity = dict(zip(ids, ids))
    path = write(tmp_path / "base.json", cells, coords, identity)
    base = [report(*argv) for argv in commands(path, face)]
    for kind, label in labellings(ids):
        path = write(tmp_path / f"{kind}.json", cells, coords, label)
        got = [report(*argv) for argv in commands(path, [label[v] for v in face])]
        if kind == "monotone":
            # every face keeps its place: the same numbers, bit for bit, at the mapped keys
            assert got == [mapped(rep, label) for rep in base], kind
            continue
        for was, now in zip(base, got):
            assert now["selection"]["rank"] == was["selection"]["rank"], (kind, now["command"])
        for key in ("log_abs_value", "log_abs_value_before", "log_abs_value_after"):
            for was, now in zip(base, got):
                if key in was:
                    assert abs(float(now[key]) - float(was[key])) <= LOG_TOL, (kind, key)
        for key in ("sign", "sign_before", "sign_after"):
            for was, now in zip(base, got):
                if key in was:
                    assert now[key] == was[key], (kind, key)
