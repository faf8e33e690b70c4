"""Document parsing, serialization round-trips and the CLI surface."""
import argparse
import dataclasses
import fractions
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pachner33
from pachner33 import cli
from pachner33 import complexes as cx
from pachner33 import flatmetric as fm
from pachner33 import geometry as g
from pachner33 import invariants as iv
from pachner33 import io as pio
from pachner33.cli import _selection_fields, _value_field, build_parser, main
from pachner33.complexes import build_complex
from pachner33.errors import ComplexStructureError, SchemaError
from pachner33 import jacobians as jb
from pachner33.jacobians import rank_and_submatrix

from conftest import dumps_reference, float64_text_reference


def fixture_path(name):
    import pachner33.fixtures
    from importlib import resources

    return str(resources.files("pachner33.fixtures").joinpath(name))


# ----------------------------------------------------------------- parsing

def test_parse_bundled_fixture():
    doc = pio.load_fixture("boundary_delta5.json")
    c = doc.to_complex()
    assert len(doc.simplices) == 6
    assert c.f_vector() == (6, 15, 20, 15, 6)
    assert doc.coords is not None and len(doc.coords) == 6


def test_parse_rejects_missing_coord_vertex():
    doc = pio.load_fixture("boundary_delta5.json")
    raw = json.loads(pio.serialize_complex(doc))
    del raw["coords"]["3"]
    with pytest.raises(SchemaError, match="vertex 3"):
        pio.parse_complex(json.dumps(raw))


def test_parse_rejects_two_keys_for_one_vertex():
    raw = json.loads(pio.serialize_complex(pio.load_fixture("boundary_delta5.json")))
    raw["coords"]["03"] = [0.5, 0.5, 0.5, 0.5]
    with pytest.raises(SchemaError, match="coords key '03' repeats vertex 3"):
        pio.parse_complex(json.dumps(raw))


def test_parse_rejects_a_key_that_names_no_vertex():
    raw = json.loads(pio.serialize_complex(pio.load_fixture("boundary_delta5.json")))
    raw["coords"]["77"] = [0.5, 0.5, 0.5, 0.5]
    with pytest.raises(SchemaError, match="coords key '77' names no vertex"):
        pio.parse_complex(json.dumps(raw))


@pytest.mark.parametrize("token", ['"0.25"', "true", "NaN", "Infinity"])
def test_parse_rejects_a_coordinate_that_is_no_finite_number(token):
    raw = json.loads(pio.serialize_complex(pio.load_fixture("boundary_delta5.json")))
    raw["coords"]["3"][1] = "TOKEN"
    text = json.dumps(raw).replace('"TOKEN"', token)
    with pytest.raises(SchemaError, match=r"coords\[3\] must contain finite numbers"):
        pio.parse_complex(text)


def test_parse_rejects_short_simplex():
    text = '{"format_version": "1", "simplices": [[0, 1, 2, 3]]}'
    with pytest.raises(SchemaError, match="5 vertex ids"):
        pio.parse_complex(text)


def test_parse_rejects_bad_json():
    with pytest.raises(SchemaError, match="invalid JSON"):
        pio.parse_complex("{nope")


def test_parse_rejects_wrong_version():
    text = '{"format_version": "0", "simplices": [[0, 1, 2, 3, 4]]}'
    with pytest.raises(SchemaError, match="format_version"):
        pio.parse_complex(text)


def test_parse_validates_structure():
    text = '{"format_version": "1", "simplices": [[0, 1, 2, 3, 4], [0, 1, 2, 4, 3]]}'
    from pachner33.errors import ComplexStructureError

    with pytest.raises(ComplexStructureError, match="duplicate"):
        pio.parse_complex(text)


def _finite_real_loop(x):
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
        raise TypeError(x)
    return float(x)


def parse_complex_loop(text):
    """parse_complex as it validated item by item before the bulk checks, kept as
    the reference of its accept/reject decisions and messages."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("document root must be an object")
    version = raw.get("format_version")
    if version != pio.FORMAT_VERSION:
        raise SchemaError(f"format_version must be {pio.FORMAT_VERSION!r}, got {version!r}")
    simplices = raw.get("simplices")
    if not isinstance(simplices, list) or not simplices:
        raise SchemaError("simplices must be a non-empty array")
    clean = []
    for n, s in enumerate(simplices):
        if not isinstance(s, list) or len(s) != 5:
            raise SchemaError(f"simplices[{n}] must be an array of 5 vertex ids")
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in s):
            raise SchemaError(f"simplices[{n}] must contain integers")
        clean.append(list(s))
    vertices = {v for s in clean for v in s}
    coords = None
    if raw.get("coords") is not None:
        rc = raw["coords"]
        if not isinstance(rc, dict):
            raise SchemaError("coords must be an object mapping vertex id to 4 reals")
        coords = {}
        for key, val in rc.items():
            try:
                vid = int(key)
            except ValueError:
                raise SchemaError(f"coords key {key!r} is not a vertex id")
            if vid not in vertices:
                raise SchemaError(f"coords key {key!r} names no vertex of the simplices")
            if vid in coords:
                raise SchemaError(f"coords key {key!r} repeats vertex {vid}")
            if not isinstance(val, list) or len(val) != 4:
                raise SchemaError(f"coords[{key}] must be an array of 4 reals")
            try:
                coords[vid] = [_finite_real_loop(x) for x in val]
            except (TypeError, OverflowError):
                raise SchemaError(f"coords[{key}] must contain finite numbers") from None
        for v in sorted(vertices):
            if v not in coords:
                raise SchemaError(f"coords is missing vertex {v}")
    metadata = raw.get("metadata", {})
    if metadata is None:
        metadata = {}
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise SchemaError("metadata must be a string-to-string map")
    doc = pio.ComplexDocument(
        simplices=clean, coords=coords, metadata=metadata, format_version=version
    )
    doc.to_complex(allow_boundary=True)
    return doc


def _parse_outcome(parse, text):
    """The error type and text, or the parsed fields (repr, so int and float types count)."""
    try:
        doc = parse(text)
    except (SchemaError, ComplexStructureError) as exc:
        return type(exc).__name__, str(exc)
    return repr((doc.simplices, doc.coords, doc.metadata, doc.format_version))


def _insert_at(mapping, position, key, value):
    items = list(mapping.items())
    items.insert(position, (key, value))
    return dict(items)


def _fault(raw, kind, rng):
    """Put one fault of the given kind at a seeded place of a raw document, in place."""
    simplices, coords = raw["simplices"], raw["coords"]
    k = int(rng.integers(5))
    at = int(rng.integers(len(coords) + 1))
    # an earlier fault may have cut a simplex or a point short: fault the others
    cells = [n for n, cell in enumerate(simplices) if isinstance(cell, list) and len(cell) >= 5]
    points = [key for key, p in coords.items() if isinstance(p, list) and len(p) == 4]
    if not (cells and points):
        return
    n = cells[int(rng.integers(len(cells)))]
    key = points[int(rng.integers(len(points)))]
    if kind == "short simplex":
        simplices[n] = simplices[n][:4]
    elif kind == "long simplex":
        simplices[n] = simplices[n] + [simplices[n][0]]
    elif kind == "bool id":
        simplices[n][k] = bool(rng.integers(2))
    elif kind == "float id":
        simplices[n][k] = float(simplices[n][k])
    elif kind == "non-list simplex":
        simplices[n] = ["01234", {"a": 1}, 7, None][int(rng.integers(4))]
    elif kind == "key x":
        raw["coords"] = _insert_at(coords, at, "x", [0.5] * 4)
    elif kind == "key naming no vertex":
        raw["coords"] = _insert_at(coords, at, "77", [0.5] * 4)
    elif kind == "key with a leading zero":
        raw["coords"] = _insert_at(coords, at, "0" + key, [0.5] * 4)
    elif kind == "3-long coordinate":
        coords[key] = coords[key][:3]
    elif kind == "non-list coordinate":
        coords[key] = {"x": 1.0}
    elif kind in ("NaN", "Infinity", "bool coordinate", "string coordinate",
                  "null coordinate", "huge int coordinate"):
        coords[key][k % 4] = {"NaN": math.nan, "Infinity": -math.inf, "bool coordinate": False,
                              "string coordinate": "0.5", "null coordinate": None,
                              "huge int coordinate": 10**400}[kind]
    elif kind == "missing vertex":
        del coords[key]
    elif kind == "int coordinate":  # not a fault: ints are reals
        coords[key][k % 4] = int(rng.integers(-3, 4))
    elif kind == "reordered keys":  # not a fault
        raw["coords"] = dict(sorted(coords.items(), key=lambda item: rng.random()))
    else:
        raise ValueError(kind)


FAULTS = ("short simplex", "long simplex", "bool id", "float id", "non-list simplex", "key x",
          "key naming no vertex", "key with a leading zero", "3-long coordinate",
          "non-list coordinate", "NaN", "Infinity", "bool coordinate", "string coordinate",
          "null coordinate", "huge int coordinate", "missing vertex", "int coordinate",
          "reordered keys")


def test_bulk_validation_decides_and_names_as_the_item_loop():
    # seeded documents with one to three faults each (several faults: the
    # first in document order must win), on the three fixtures
    texts = []
    rng = np.random.default_rng(23)
    for name in ("boundary_delta5.json", "join_tetra_triangle.json", "bipyramid_10cell.json"):
        base = json.loads(pio.serialize_complex(pio.load_fixture(name)))
        texts.append(json.dumps(base))
        for kind in FAULTS:
            raw = json.loads(json.dumps(base))
            _fault(raw, kind, rng)
            texts.append(json.dumps(raw))
        for _ in range(150):
            raw = json.loads(json.dumps(base))
            for kind in rng.choice(FAULTS, size=int(rng.integers(1, 4))):
                _fault(raw, str(kind), rng)
            texts.append(json.dumps(raw))
    outcomes = []
    for text in texts:
        want = _parse_outcome(parse_complex_loop, text)
        assert _parse_outcome(pio.parse_complex, text) == want, text
        outcomes.append(want)
    # every message of the item loop comes up
    errors = [o[1] for o in outcomes if isinstance(o, tuple)]
    templates = {re.sub(r"\[\d+\]|'[^']*'|\d+", "#", text) for text in errors}
    assert templates == {
        "simplices# must be an array of # vertex ids", "simplices# must contain integers",
        "coords key # is not a vertex id", "coords key # names no vertex of the simplices",
        "coords key # repeats vertex #", "coords# must be an array of # reals",
        "coords# must contain finite numbers", "coords is missing vertex #",
    }
    accepted = sum(isinstance(o, str) for o in outcomes)
    assert 10 <= accepted <= len(outcomes) - 300


def test_serialize_parse_round_trip():
    doc = pio.load_fixture("join_tetra_triangle.json")
    text = pio.serialize_complex(doc)
    doc2 = pio.parse_complex(text)
    assert doc2.simplices == doc.simplices
    assert doc2.metadata == doc.metadata
    assert pio.serialize_complex(doc2) == text
    for v in doc.coords:
        assert doc2.coords[v] == doc.coords[v]  # exact double round-trip


def test_float_formatting_round_trips_exactly():
    values = [0.1, 1.0 / 3.0, 2.0**-52, 1.7976931348623157e308, -1.2345678901234567e-300]
    for x in values:
        assert float(pio.format_float(x)) == x


# --------------------------------------------------------------------- CLI

def run_cli(*argv):
    import contextlib
    import io as _io

    buf = _io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_cli_inspect():
    code, out = run_cli("inspect", fixture_path("boundary_delta5.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["counts"]["simplices"] == 6
    assert rep["closed"] and rep["orientation_consistent"]


def test_cli_inspect_reports_an_open_complex(tmp_path):
    # the report's closed field can be false: an open complex is counted, not refused
    path = tmp_path / "one_cell.json"
    path.write_text(json.dumps({"format_version": "1", "simplices": [[0, 1, 2, 3, 4]]}))
    code, out = run_cli("inspect", str(path))
    assert code == 1
    rep = json.loads(out)
    assert "error" not in rep
    assert rep["counts"] == {
        "vertices": 5, "edges": 10, "triangles": 10, "tetrahedra": 5, "simplices": 1,
    }
    assert rep["closed"] is False and rep["orientation_consistent"] is True


def test_cli_compare_delta5_bundled_coords():
    code, out = run_cli("compare", fixture_path("boundary_delta5.json"), "--face", "0,1,2")
    rep = json.loads(out)
    assert code == 0
    assert rep["passed"]
    assert rep["deviation"] <= 1e-6
    assert rep["new_face"] == [3, 4, 5]


def test_cli_compare_join_materializes():
    code, out = run_cli(
        "compare", fixture_path("join_tetra_triangle.json"), "--face", "0,1,2"
    )
    rep = json.loads(out)
    assert code == 0 and rep["passed"]
    assert "materialized" not in rep


def test_cli_compare_reports_the_invariant_in_the_orientation_of_invariant():
    code, out = run_cli("compare", fixture_path("join_tetra_triangle.json"), "--face", "0,1,2")
    rep = json.loads(out)
    assert code == 0
    assert not {"value_before", "value_after"} & rep.keys()
    # I = prod S / (det B * prod V), with the products taken from realize
    doc = pio.load_fixture("join_tetra_triangle.json")
    m = fm.realize(doc.to_complex(), doc.realization())
    log_S, log_V = np.log(m.S).sum(), np.log(np.abs(m.V)).sum()
    sel = rep["selection"]
    assert rep["log_abs_value_before"] == pytest.approx(
        log_S - log_V - sel["log_abs_det"], rel=1e-12
    )
    assert rep["sign_before"] == sel["det_sign"] * int(np.prod(np.sign(m.V)))
    assert rep["sign_after"] == rep["sign_before"]
    assert rep["log_abs_value_after"] == pytest.approx(rep["log_abs_value_before"], abs=1e-9)


@pytest.mark.parametrize("face", ["0,1,99", "0,0,1"])
def test_cli_compare_rejects_a_non_face_triangle(face):
    code, out = run_cli("compare", fixture_path("join_tetra_triangle.json"), "--face", face)
    rep = json.loads(out)
    assert code == 1
    assert rep["error"]["type"] == "ComplexStructureError"
    assert "not a face" in rep["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("move", "--face", "0,1,x"),
        ("compare", "--face", "0,1,x"),
        ("compare", "--face", "0,1"),
        ("compare", "--face", "0,1,2,3"),
        ("check-flat", "--perturb", "0,1"),
        ("check-flat", "--perturb", "0,y,1e-3"),
    ],
)
def test_cli_malformed_face_or_perturb_is_a_usage_error(argv, capsys):
    command, *options = argv
    with pytest.raises(SystemExit) as exc:
        main([command, fixture_path("join_tetra_triangle.json"), *options])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and options[0] in err


@pytest.mark.parametrize("amount", ["nan", "inf", "-inf"])
def test_cli_check_flat_rejects_a_non_finite_perturb_amount(amount, capsys):
    # a non-finite length used to reach the geometry as a misleading degeneracy
    with pytest.raises(SystemExit) as exc:
        main(["check-flat", fixture_path("boundary_delta5.json"), "--perturb", f"0,1,{amount}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--perturb" in err


def test_cli_check_flat_reports_an_overflowing_amount_as_degenerate():
    # a finite AMOUNT whose squared areas overflow gets the typed
    # error report; tier-1 turns any numpy RuntimeWarning on the way into a failure
    code, out = run_cli(
        "check-flat", fixture_path("boundary_delta5.json"), "--perturb", "0,1,1e300"
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DegenerateSimplexError"


@pytest.mark.parametrize("amount, kind", [("1e300", "non-finite"), ("-5", "nonpositive")])
def test_cli_check_flat_names_the_kind_of_a_bad_area(amount, kind):
    code, out = run_cli(
        "check-flat", fixture_path("boundary_delta5.json"), "--perturb", f"0,1,{amount}"
    )
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {
        "type": "DegenerateSimplexError",
        "message": f"triangle (0, 1, 2) has {kind} squared area",
    }


@pytest.mark.parametrize("command", ["realize", "invariant"])
def test_cli_open_complex_error_names_no_missing_option(command, tmp_path):
    # the hint used to name allow_boundary=True, which no command line option sets
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"format_version": "1", "simplices": [[0, 1, 2, 3, 4]]}))
    code, out = run_cli(command, str(path), "--seed", "1")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ComplexStructureError"
    assert error["message"] == (
        "complex has boundary tetrahedra; this operation needs a closed complex"
    )


@pytest.mark.parametrize(
    "case, error_type",
    [
        ("missing input", "FileNotFoundError"),
        ("directory as input", "IsADirectoryError"),
        ("non-UTF-8 input", "UnicodeDecodeError"),
        ("realize -o into a missing directory", "FileNotFoundError"),
        ("move -o into a missing directory", "FileNotFoundError"),
    ],
)
def test_cli_unreadable_or_unwritable_file_is_an_error_report(case, error_type, tmp_path):
    # these used to end in a traceback with no report
    bad_bytes = tmp_path / "latin1.json"
    bad_bytes.write_bytes(b'{"format_version": "1", "simplices": [], "metadata": "\xe9\xff"}')
    unwritable = str(tmp_path / "absent" / "out.json")
    argv = {
        "missing input": ("inspect", str(tmp_path / "absent.json")),
        "directory as input": ("check-flat", str(tmp_path)),
        "non-UTF-8 input": ("invariant", str(bad_bytes)),
        "realize -o into a missing directory": (
            "realize", fixture_path("boundary_delta5.json"), "--seed", "1", "-o", unwritable
        ),
        "move -o into a missing directory": (
            "move", fixture_path("join_tetra_triangle.json"), "--face", "0,1,2", "-o", unwritable
        ),
    }[case]
    code, out = run_cli(*argv)
    assert code == 1
    rep = json.loads(out)
    assert rep["command"] == argv[0]
    assert rep["error"]["type"] == error_type and rep["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("realize", "FILE"),
        ("check-flat", "FILE"),
        ("verify-identities", "--trials", "1"),
        ("jacobian", "FILE"),
        ("invariant", "FILE"),
        ("compare", "FILE", "--face", "1,2,3"),
    ],
)
def test_cli_seed_must_be_a_nonnegative_integer(argv, capsys):
    # numpy's default_rng refuses a negative seed with a bare ValueError
    argv = [fixture_path("boundary_delta5.json") if a == "FILE" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--seed" in err


def test_cli_verify_identities_small():
    code, out = run_cli("verify-identities", "--trials", "3", "--seed", "7")
    rep = json.loads(out)
    assert code == 0
    assert len(rep["checks"]) == 6
    assert all(chk["passed"] for chk in rep["checks"])


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_cli_verify_identities_rejects_a_trial_count_below_one(trials, capsys):
    # zero trials would report every battery as passed without checking any
    with pytest.raises(SystemExit) as exc:
        main(["verify-identities", "--trials", trials])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "-inf", "1e-400", "x"])
@pytest.mark.parametrize(
    "argv",
    [
        ("check-flat", "FILE", "--tol", "VALUE"),
        ("verify-identities", "--trials", "1", "--tol", "VALUE"),
        ("jacobian", "FILE", "--tol", "VALUE"),
        ("compare", "FILE", "--face", "1,2,3", "--tol", "VALUE"),
        # checked wherever it stands: before the file and the other options
        ("check-flat", "--tol", "VALUE", "FILE"),
        ("jacobian", "--tol", "VALUE", "--seed", "1", "FILE"),
        ("compare", "--tol", "VALUE", "--face", "1,2,3", "FILE"),
    ],
)
def test_cli_tolerances_must_be_finite_and_positive(argv, value, capsys):
    # nan would pass every comparison it meets and write NaN into the report
    path = fixture_path("boundary_delta5.json")
    at = argv.index("VALUE")
    option = argv[at - 1]
    split = [{"FILE": path, "VALUE": value}.get(a, a) for a in argv]
    # argparse reads "--tol -inf" as an option without its value; "--tol=-inf" reaches the check
    joined = split[:at - 1] + [f"{option}={value}"] + split[at + 1:]
    for spelling in (split, joined):
        with pytest.raises(SystemExit) as exc:
            main(spelling)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"argument {option}:" in err
    assert f"expected a finite number above 0, got {value!r}" in err


def test_readme_synopsis_lists_every_option_of_every_command():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    (block,) = [b for b in readme.split("```") if "pachner33 inspect FILE" in b]
    synopsis = [line.split("#")[0].split() for line in block.strip().splitlines()]
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert [words[1] for words in synopsis] == list(commands.choices)
    for name, *words in (words[1:] for words in synopsis):
        # every spelling of an option maps to its first (-o and --output are one option)
        spelled = {opt: a.option_strings[0] for a in commands.choices[name]._actions
                   if a.dest != "help" for opt in a.option_strings}
        listed = {w.strip("[]") for w in words if w.strip("[]").startswith("-")}
        assert listed <= spelled.keys(), name
        assert {spelled[opt] for opt in listed} == set(spelled.values()), name


@pytest.mark.parametrize(
    "argv", [("jacobian",), ("invariant",), ("compare", "--face", "0,1,2")]
)
def test_cli_pivot_threshold_is_not_an_option(argv, capsys):
    # the rank belongs to the complex; the threshold is the fixed PIVOT_TOL
    path = fixture_path("boundary_delta5.json")
    with pytest.raises(SystemExit) as exc:
        main([argv[0], path, *argv[1:], "--pivot-tol", "1e-15"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --pivot-tol 1e-15" in capsys.readouterr().err
    code, out = run_cli(argv[0], path, *argv[1:])
    assert code == 0
    assert json.loads(out)["tolerances"]["pivot"] == 1e-9


def test_cli_verify_identities_is_byte_identical_apart_from_timing():
    outs = []
    for _ in range(2):
        code, out = run_cli("verify-identities", "--trials", "3", "--seed", "7")
        assert code == 0
        timing = re.findall(r'"timing_s": [^,}\n]+', out)
        assert len(timing) == 1
        outs.append(out.replace(timing[0], '"timing_s": T'))
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "argv", [("invariant",), ("compare", "--face", "1,2,3"), ("check-flat",), ("jacobian",)]
)
def test_cli_seed_draws_a_fresh_placement_over_bundled_coords(argv, tmp_path):
    bundled = fixture_path("boundary_delta5.json")
    realized = tmp_path / "delta5_seed5.json"
    code, _ = run_cli("realize", bundled, "--seed", "5", "-o", str(realized))
    assert code == 0

    def numbers(path, *seed):
        code, out = run_cli(argv[0], path, *argv[1:], *seed)
        assert code == 0
        rep = json.loads(out)
        for key in ("timing_s", "inputs", "seed"):
            rep.pop(key)
        return rep

    seeded = numbers(bundled, "--seed", "5")
    assert seeded == numbers(str(realized))
    assert seeded != numbers(bundled)


def test_cli_check_flat_pass_and_perturbed_fail():
    code, out = run_cli("check-flat", fixture_path("boundary_delta5.json"))
    assert code == 0 and json.loads(out)["passed"]

    code, out = run_cli(
        "check-flat", fixture_path("boundary_delta5.json"), "--perturb", "0,1,1e-3"
    )
    rep = json.loads(out)
    assert code == 1
    assert not rep["passed"]
    assert rep["bad_faces"]  # offending faces are listed


def test_cli_jacobian_reports_rank_and_residuals():
    code, out = run_cli("jacobian", fixture_path("boundary_delta5.json"))
    rep = json.loads(out)
    assert code == 0
    assert rep["rank"] == 1
    assert rep["symmetry_residual"] <= 1e-6
    assert rep["conjugacy_residual"] <= 1e-6
    assert rep["matrices"]["dOmega_dL"]["shape"] == [20, 15]


def rung_document(stellar_ladder, n_cells, path):
    """The stellar_ladder rung of n_cells cells written as a document at path."""
    c, coords = stellar_ladder[n_cells]
    pio.save_document(pio.ComplexDocument(
        simplices=[c.oriented_simplex(i) for i in range(len(c.simplices))]).with_coords(coords),
        path)
    return str(path)


@pytest.mark.parametrize("name", ["boundary_delta5.json", "join_tetra_triangle.json", 86])
def test_cli_jacobian_triplets_rebuild_the_matrices(name, stellar_ladder, tmp_path, monkeypatch):
    if name == 86:
        path = rung_document(stellar_ladder, 86, tmp_path / "rung.json")
    else:
        path = fixture_path(name)
    written = []
    dumps = cli.dumps

    def recording_dumps(obj):
        written.append(obj)
        return dumps(obj)

    monkeypatch.setattr(cli, "dumps", recording_dumps)
    code, out = run_cli("jacobian", path)
    assert code == 0
    # the whole report is the reference writers' text
    assert out == dumps_reference(written[-1]) + "\n"
    matrices = json.loads(out)["matrices"]
    doc = pio.load_document(path)
    c = doc.to_complex()
    m = fm.realize(c, doc.realization())
    assert matrices["face_keys"] == [list(k) for k in c.faces[2]]
    assert matrices["edge_keys"] == [list(k) for k in c.faces[1]]
    rebuilt = {}
    for field in ("dOmega_dL", "dOmega_dS", "dBigOmega_dS"):
        t = matrices[field]
        rebuilt[field] = np.zeros(t["shape"])
        rebuilt[field][t["rows"], t["cols"]] = t["values"]
        # row-major order, exact zeros left out
        assert sorted(zip(t["rows"], t["cols"])) == list(zip(t["rows"], t["cols"]))
        assert 0.0 not in t["values"]
    # the scatters of the cells' blocks, as the library forms them
    F, E = len(c.faces[2]), len(c.faces[1])
    tables = jb.length_tables(m.L, c.simplex_edges)
    X = -jb.domega_dS_blocks(jb.dtheta_dL_blocks(tables, m.eps), g.dS_dL_blocks(tables))
    XA = np.swapaxes(g.dS_dL_blocks(tables), 1, 2) @ X
    want = {
        "dOmega_dL": jb.assemble_domega_dL(c, m),
        "dOmega_dS": jb.scatter_blocks((F, F), c.simplex_faces, c.simplex_faces, X),
        "dBigOmega_dS": jb.scatter_blocks((E, F), c.simplex_edges, c.simplex_faces, XA),
    }
    for field, matrix in want.items():
        assert rebuilt[field].tobytes() == matrix.tobytes(), field


def test_cli_jacobian_holds_one_whole_matrix_at_a_time(stellar_ladder, tmp_path):
    # each dense matrix is freed before the next is formed and neither
    # residual forms a whole-matrix temporary: on the 166-cell rung the traced
    # peak lies one F x F float64 array below 4 437 478 bytes, the peak of
    # the same call when the three dense matrices and M - M^T were alive at
    # once (numpy 2.4)
    path = rung_document(stellar_ladder, 166, tmp_path / "rung.json")
    run_cli("jacobian", path)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        code, _ = run_cli("jacobian", path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    F = len(stellar_ladder[166][0].triangle_vertices)
    assert peak < 4_437_478 - F * F * np.dtype(float).itemsize, peak


def test_cli_move_round_trip(tmp_path):
    out_file = tmp_path / "moved.json"
    code, _ = run_cli(
        "move", fixture_path("join_tetra_triangle.json"),
        "--face", "0,1,2", "-o", str(out_file),
    )
    assert code == 0
    moved = pio.load_document(out_file)
    assert moved.to_complex().is_closed
    code2, out2 = run_cli("move", str(out_file), "--face", "4,5,6")
    assert code2 == 0
    rep = json.loads(out2)
    assert rep["new_face"] == [0, 1, 2]


def test_cli_move_rejects_delta5():
    code, out = run_cli("move", fixture_path("boundary_delta5.json"), "--face", "0,1,2")
    rep = json.loads(out)
    assert code == 1
    assert rep["error"]["type"] == "MovePreconditionError"


def test_cli_invariant_reports_value_and_selection():
    code, out = run_cli("invariant", fixture_path("boundary_delta5.json"))
    rep = json.loads(out)
    assert code == 0
    assert rep["value"] != 0.0
    assert rep["selection"]["rank"] == 1
    assert len(rep["selection"]["rows"]) == 1
    # products in the log domain: value = prod S / (det B * prod V)
    assert "prod_S" not in rep and "prod_V" not in rep
    assert rep["log_abs_value"] == pytest.approx(
        rep["log_abs_prod_S"] - rep["log_abs_prod_V"] - rep["selection"]["log_abs_det"],
        rel=1e-12,
    )
    assert rep["sign_prod_V"] * rep["selection"]["det_sign"] == rep["sign"]


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_selection_fields_stay_strict_json_when_det_overflows():
    sel = rank_and_submatrix(np.diag([1e200] * 3))
    assert math.prod(sel.pivots) == math.inf  # det(B) as a plain double overflows
    c = cx.boundary_delta5()
    rep = json.loads(pio.dumps(_selection_fields(sel, c)), parse_constant=_reject_constant)
    assert "det" not in rep
    assert rep["det_sign"] == 1
    assert rep["log_abs_det"] == pytest.approx(600.0 * math.log(10.0), rel=1e-12)
    assert rep["rank"] == 3


def stellar_rung(n_cells, seed):
    """Oriented cells and points of a seeded stellar subdivision of the 5-simplex boundary.

    Each step splits a cell, chosen with probability proportional to its
    volume, at a point with Dirichlet(20) barycentric weights.  A cone cell
    is the split cell with one vertex replaced by the apex, so the list stays
    consistently oriented and one build_complex call builds it.
    """
    rng = np.random.default_rng(seed)
    delta5 = cx.boundary_delta5()
    base = fm.random_realization(delta5, seed=int(rng.integers(2**31)))
    points = [base[v] for v in range(6)]
    cells = [delta5.oriented_simplex(i) for i in range(6)]
    volumes = [abs(g.signed_volume4(np.array([points[v] for v in cell]))) for cell in cells]
    while len(cells) < n_cells:
        k = int(rng.choice(len(cells), p=np.array(volumes) / sum(volumes)))
        cell, volume = cells.pop(k), volumes.pop(k)
        weights = rng.dirichlet(np.full(5, 20.0))
        apex = len(points)
        points.append(weights @ np.array([points[v] for v in cell]))
        for x, w in zip(cell, weights):
            cells.append(tuple(apex if u == x else u for u in cell))
            volumes.append(volume * w)
    return cells, points


@pytest.fixture(scope="module")
def sphere_1006():
    """Cells, points and complex of the 1006-cell stellar rung at seed 7."""
    cells, points = stellar_rung(1006, seed=7)
    return cells, points, build_complex(cells)


def test_cli_invariant_and_compare_on_a_1006_cell_sphere(tmp_path, sphere_1006, admissible):
    cells, points, c = sphere_1006
    assert c.is_closed and c.orientation_consistent and len(c.simplices) == 1006
    path = tmp_path / "stellar_n1006.json"
    doc = pio.ComplexDocument(simplices=cells).with_coords(dict(enumerate(points)))
    path.write_text(pio.serialize_complex(doc))

    code, out = run_cli("invariant", str(path))
    rep = json.loads(out, parse_constant=_reject_constant)
    assert code == 0
    assert rep["selection"]["rank"] == len(c.faces[1]) - 4 * len(c.vertices) + 10
    # |log I| is past what a double holds, so the plain value is null
    assert math.isfinite(rep["log_abs_value"]) and abs(rep["log_abs_value"]) > 710
    assert rep["value"] is None

    triangles = admissible(c, 3)
    assert len(triangles) == 3
    for tri in triangles:
        code, out = run_cli("compare", str(path), "--face", ",".join(map(str, tri)))
        rep = json.loads(out, parse_constant=_reject_constant)
        assert code == 0, rep
        assert rep["deviation"] <= 1e-10


def test_invariant_and_compare_hold_one_faces_by_edges_array(sphere_1006, admissible):
    # the selection eliminates in the assembled matrix and compare forms only
    # B_after, so neither call needs a second F x E array (a copy of dOmega_dL
    # or a whole-matrix temporary would put the traced peak near 3 F E 8 bytes)
    _, points, c = sphere_1006
    coords = dict(enumerate(points))
    m = fm.realize(c, coords)
    (tri,) = admissible(c, 1)
    budget = 2 * len(c.faces[2]) * len(c.faces[1]) * np.dtype(float).itemsize
    calls = {
        "full_invariant": lambda: iv.full_invariant(c, m),
        "compare_under_move": lambda: iv.compare_under_move(c, coords, tri),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget, (name, peak, budget)


def test_value_field_is_null_unless_a_finite_nonzero_double():
    assert _value_field(-1, 2.0) == -math.exp(2.0)
    assert _value_field(1, 709.0) == math.exp(709.0)
    for sign, log_abs in ((1, 710.0), (1, -746.0), (1, math.inf), (1, math.nan), (0, 1.0)):
        assert _value_field(sign, log_abs) is None, (sign, log_abs)


def test_cli_builds_the_face_lattice_once(monkeypatch):
    calls = []

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build_complex(*args, **kwargs)

    monkeypatch.setattr(pio, "build_complex", counting_build)
    monkeypatch.setattr(cx, "build_complex", counting_build)
    for argv in (("invariant",), ("compare", "--face", "0,1,2")):
        calls.clear()
        code, _ = run_cli(argv[0], fixture_path("join_tetra_triangle.json"), *argv[1:])
        assert code == 0
        assert len(calls) == 1, argv[0]


def test_check_flat_and_invariant_build_no_tuple_table(monkeypatch, stellar_ladder, tmp_path):
    # their reports are written from the face arrays: neither reads c.faces,
    # c.face_index or c.simplices, on the fixtures and on a 166-cell rung
    built = []

    def keeping_build(*args, **kwargs):
        built.append(build_complex(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(pio, "build_complex", keeping_build)
    c, coords = stellar_ladder[166]
    path = tmp_path / "rung.json"
    pio.save_document(pio.ComplexDocument(
        simplices=[c.oriented_simplex(i) for i in range(len(c.simplices))]).with_coords(coords),
        path)
    calls = [(command, str(path)) for command in ("check-flat", "invariant")]
    for name in ("boundary_delta5.json", "join_tetra_triangle.json"):
        for argv in (["check-flat"], ["invariant"], ["check-flat", "--seed", "3"],
                     ["invariant", "--seed", "3"]):
            calls.append((argv[0], fixture_path(name), *argv[1:]))
    for argv in calls:
        code, out = run_cli(*argv)
        assert code == 0, out
        assert not {"faces", "face_index", "simplices"} & vars(built[-1]).keys(), argv
    # nor does compare: its triangle and edge lookups search the face arrays
    for name in ("join_tetra_triangle.json", "bipyramid_10cell.json"):
        for seed in ([], ["--seed", "3"]):
            argv = ["compare", fixture_path(name), "--face", "0,1,2", *seed]
            code, out = run_cli(*argv)
            assert code == 0, out
            assert not {"faces", "face_index", "simplices"} & vars(built[-1]).keys(), argv


def _moved_vertex_document(path, vertex, onto):
    """The join fixture with vertex placed at the centroid of the vertices onto."""
    doc = pio.load_fixture("join_tetra_triangle.json")
    coords = dict(doc.coords)
    coords[vertex] = [sum(x) / len(onto) for x in zip(*(coords[v] for v in onto))]
    pio.save_document(pio.ComplexDocument(simplices=doc.simplices).with_coords(coords), path)
    return str(path)


def test_commands_read_no_tuple_table(monkeypatch, tmp_path):
    # every command reads the face arrays only, error paths included: with
    # the tuple views refusing to be read, each report is the one they give
    # when the views can be read, on documents each command parses afresh
    join, delta5 = fixture_path("join_tetra_triangle.json"), fixture_path("boundary_delta5.json")
    # vertex 4 on the triangle 0 1 2 flattens the cell 0 1 2 4 5; vertex 6 in
    # the hyperplane of 0 1 4 5 flattens only a replacement cell of the move at 0 1 2
    flat_cell = _moved_vertex_document(tmp_path / "flat_cell.json", 4, (0, 1, 2))
    flat_move = _moved_vertex_document(tmp_path / "flat_move.json", 6, (0, 1, 4, 5))
    cases = {
        ("invariant", join): None,
        ("invariant", join, "--seed", "3"): None,
        ("jacobian", join): None,
        ("compare", join, "--face", "0,1,2"): None,
        ("compare", delta5, "--face", "0,1,2"): None,
        ("move", join, "--face", "0,1,2"): None,
        ("check-flat", join, "--perturb", "0,1,1e-3"): None,
        ("invariant", flat_cell): "simplex (0, 1, 2, 4, 5) (id 0) is degenerate",
        ("compare", flat_move, "--face", "0,1,2"):
            "replacement simplex (0, 1, 4, 5, 6) is degenerate",
        ("check-flat", delta5, "--perturb", "0,1,-0.03"):
            "simplex (0, 1, 3, 4, 5) is not realizable (nonpositive squared volume)",
        ("check-flat", fixture_path("bipyramid_10cell.json"), "--perturb", "6,0,1e-3"):
            "(0, 6) is not an edge of the complex",
    }

    def untimed(out):
        return re.sub(r'"timing_s": [^,}]+', "", out)

    want = {}
    for argv in cases:
        code, out = run_cli(*argv)
        want[argv] = code, untimed(out)

    def refuse(name):
        def read(*args):
            raise AssertionError(f"Complex4.{name} was read")
        return read

    for name in ("faces", "face_index", "simplices", "vertices"):
        monkeypatch.setattr(cx.Complex4, name, property(refuse(name)))
    monkeypatch.setattr(cx.Complex4, "oriented_simplex", refuse("oriented_simplex"))
    for argv, message in cases.items():
        code, out = run_cli(*argv)
        assert (code, untimed(out)) == want[argv], argv
        rep = json.loads(out)
        if message is None:
            assert "error" not in rep, argv
        else:
            assert code == 1 and rep["error"]["message"] == message, argv


BIG_ID = str(10**20)


@pytest.mark.parametrize(
    "argv, error",
    [
        (("move", "--face", f"0,1,{BIG_ID}"),
         ("ComplexStructureError", f"triangle (0, 1, {BIG_ID}) is not a face of the complex")),
        (("move", "--face", "1,0,0"),
         ("ComplexStructureError", "triangle (0, 0, 1) is not a face of the complex")),
        (("compare", "--face", f"{BIG_ID},1,0"),
         ("ComplexStructureError", f"triangle (0, 1, {BIG_ID}) is not a face of the complex")),
        (("compare", "--face", "0,0,1"),
         ("ComplexStructureError", "triangle (0, 0, 1) is not a face of the complex")),
        (("check-flat", "--perturb", f"{BIG_ID},0,1e-3"),
         ("Pachner33Error", f"(0, {BIG_ID}) is not an edge of the complex")),
        (("check-flat", "--perturb", "1,1,1e-3"),
         ("Pachner33Error", "(1, 1) is not an edge of the complex")),
    ],
)
def test_cli_ids_that_name_no_face_are_an_error_report(argv, error):
    command, *options = argv
    code, out = run_cli(command, fixture_path("join_tetra_triangle.json"), *options)
    assert code == 1
    assert json.loads(out) == {
        "command": command, "error": {"type": error[0], "message": error[1]},
    }


def test_commands_hand_the_document_coords_to_realize(monkeypatch):
    # a document's own coords go to realize as parse_complex kept them:
    # realization() is never called, and each report is the one of a
    # document holding realization()'s per-vertex arrays instead
    argvs = [("invariant",), ("jacobian",), ("check-flat",), ("compare", "--face", "0,1,2")]
    paths = [fixture_path(name) for name in
             ("boundary_delta5.json", "join_tetra_triangle.json", "bipyramid_10cell.json")]
    cases = [(argv[0], path, *argv[1:]) for path in paths for argv in argvs]

    def untimed(*argv):
        code, out = run_cli(*argv)
        return code, re.sub(r'"timing_s": [^,}]+', "", out)

    def with_arrays(path):
        doc = pio.load_document(path)
        return dataclasses.replace(doc, coords=doc.realization())

    monkeypatch.setattr(cli, "load_document", with_arrays)
    want = [untimed(*argv) for argv in cases]
    monkeypatch.setattr(cli, "load_document", pio.load_document)

    def refusing(self):
        raise AssertionError("realization() called")

    monkeypatch.setattr(pio.ComplexDocument, "realization", refusing)
    for argv, (code, text) in zip(cases, want):
        assert code == 0, argv
        assert untimed(*argv) == (code, text), argv
    # the coords are the lists that parsing validated
    coords = pio.load_document(paths[0]).coords
    assert {type(p) for p in coords.values()} == {list}
    assert {type(x) for p in coords.values() for x in p} == {float}


def test_document_is_immutable_and_keeps_its_complex():
    doc = pio.load_fixture("boundary_delta5.json")
    assert doc.to_complex() is doc.to_complex()
    with pytest.raises(dataclasses.FrozenInstanceError):
        doc.simplices = ()
    # parsing builds the complex; to_complex is where closedness is checked
    one = pio.parse_complex('{"format_version": "1", "simplices": [[0, 1, 2, 3, 4]]}')
    assert one.to_complex(allow_boundary=True).f_vector()[-1] == 1
    with pytest.raises(ComplexStructureError, match="boundary"):
        one.to_complex()


def test_cli_realize_emits_coords(tmp_path):
    out_file = tmp_path / "realized.json"
    code, _ = run_cli(
        "realize", fixture_path("bipyramid_10cell.json"),
        "--seed", "9", "-o", str(out_file),
    )
    assert code == 0
    doc = pio.load_document(out_file)
    assert doc.coords is not None and len(doc.coords) == 7


def run_child(*args):
    """A fresh interpreter's run of args; it imports the package the tests
    imported, whatever PYTHONPATH says."""
    src = os.path.dirname(os.path.dirname(pachner33.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_cli_unknown_command_exits_2():
    assert run_child("-m", "pachner33", "frobnicate").returncode == 2


def test_importing_a_module_loads_only_what_it_imports():
    # the modules perfbench/inputs.py imports; the package namespace re-exports nothing
    proc = run_child("-c", (
        "import sys, pachner33.complexes, pachner33.flatmetric, pachner33.io\n"
        "print(sorted(m for m in ('identities', 'invariants', 'cli')\n"
        "             if 'pachner33.' + m in sys.modules))"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_parser_survives_a_usage_error():
    # the parser is built once per process; a rejected call must not change it
    def compare_report():
        code, out = run_cli("compare", fixture_path("join_tetra_triangle.json"), "--face", "0,1,2")
        assert code == 0
        rep = json.loads(out)
        rep.pop("timing_s")
        return rep

    build_parser.cache_clear()
    alone = compare_report()
    build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["compare", fixture_path("join_tetra_triangle.json"), "--face", "0,1,x"])
    assert exc.value.code == 2
    assert compare_report() == alone
    assert build_parser() is build_parser()


def test_cli_determinism_modulo_timing():
    reports = []
    for _ in range(2):
        code, out = run_cli(
            "compare", fixture_path("boundary_delta5.json"), "--face", "1,2,3"
        )
        assert code == 0
        rep = json.loads(out)
        rep.pop("timing_s")
        reports.append(json.dumps(rep, sort_keys=True))
    assert reports[0] == reports[1]


def test_cli_determinism_with_seed():
    outs = []
    for _ in range(2):
        _, out = run_cli(
            "jacobian", fixture_path("join_tetra_triangle.json")
        )
        rep = json.loads(out)
        rep.pop("timing_s")
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


def test_dumps_pins_float_text():
    special = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 0.1]
    assert pio.dumps(special) == (
        "[nan, inf, -inf, -0, 4.9406564584124654e-324, 0.10000000000000001]"
    )
    assert pio.dumps([1, 2.0, True, None]) == "[1, 2, true, null]"
    assert pio.dumps({"m": [[1.5, 2.0], (0.25,), [], [np.float64(0.5), 1.0]]}) == (
        '{"m": [[1.5, 2], [0.25], [], [0.5, 1]]}'
    )
    # 1-d float64 and integer arrays are written with the text of their .tolist()
    rng = np.random.default_rng(11)
    v = rng.standard_normal(18) * 10.0 ** rng.integers(-300, 300, size=18)
    v[6:12] = special
    v[12:14] = (1.0, 2.2250738585072009e-308)
    assert pio.dumps(v) == pio.dumps(v.tolist())
    assert pio.dumps({"v": v[::-3]}) == pio.dumps({"v": v[::-3].tolist()})
    assert pio.dumps(np.array(special)) == pio.dumps(special)
    assert pio.dumps(np.zeros(0)) == pio.dumps(np.zeros(0, dtype=np.int64)) == "[]"
    for dtype in (np.int64, np.int32, np.uint8, np.uint64):
        ints = np.array([0, 3, 7, 255], dtype=dtype)
        assert pio.dumps(ints) == pio.dumps(ints.tolist()) == "[0, 3, 7, 255]"
    big = np.array([-(2**63), 2**63 - 1, -1])
    assert pio.dumps(big) == "[-9223372036854775808, 9223372036854775807, -1]"
    rows, cols = np.nonzero(np.eye(3))
    assert pio.dumps({"rows": rows, "cols": cols[::-1]}) == '{"rows": [0, 1, 2], "cols": [2, 1, 0]}'
    assert pio.dumps([3, -1, 0, 10**20]) == "[3, -1, 0, 100000000000000000000]"
    # bool and numpy integers are not exactly int: the general path writes them
    assert pio.dumps([1, True]) == "[1, true]"
    assert pio.dumps([np.int64(1), 2]) == "[1, 2]"


@pytest.mark.parametrize(
    "key", ["rank", "", "\u00e9", "\u2713", "\U0001d11e", '"', "\\", "\n", "\x00", 3, 2.5]
)
def test_dumps_writes_dict_keys_as_json_dumps(key):
    # ASCII, Latin-1, BMP and astral characters, the escapes and non-str keys
    assert pio.dumps({key: 0}) == json.dumps({key: 0})
    assert pio.dumps({key: {key: [1]}}) == json.dumps({key: {key: [1]}})


INTEGER_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
                  np.uint64, np.dtype(">i8"), np.dtype(">u8"))


def test_dumps_writes_integer_arrays_as_their_item_text():
    # 1-d and 2-d arrays of every integer dtype (big-endian ones included):
    # the text of json.dumps(a.tolist()), through the range table (values
    # repeat) and through the per-item table (a range wider than the array).
    # dumps hands arrays of fewer than _INT_TABLE_ITEMS items to json itself;
    # the byte table is checked on every array directly
    rng = np.random.default_rng(5)
    cases = [
        np.zeros(0, dtype=np.int64), np.zeros((0, 3), dtype=np.int64),
        np.zeros((4, 0), dtype=np.int32), np.zeros((0, 0), dtype=np.uint8),
        np.array([7]), np.array([-3]), np.array([0]), np.array([[0]]), np.array([[-12, 0, 9]]),
        rng.integers(-50, 50, size=1000), rng.integers(0, 1020, size=5000),
        rng.integers(0, 1020, size=(600, 3)), rng.integers(-10**15, 10**15, size=(300, 2)),
        np.array([-1, 5, -1, 5, 5, 0, -1]), np.array([[1, 10, 100], [1000, 9, 99]]),
        # 10**(4k) - 1, 10**(4k) and 10**(4k) + 1: the edges of the 4-digit groups
        np.array([10 ** (4 * k) + d for k in range(1, 5) for d in (-1, 0, 1)] + [2**64 - 1],
                 dtype=np.uint64),
        -np.array([10 ** (4 * k) + d for k in range(1, 5) for d in (-1, 0, 1)]).reshape(4, 3),
    ]
    for dtype in INTEGER_DTYPES:
        info = np.iinfo(dtype)
        extremes = np.array([info.max, info.min, 0, info.max, 1, info.min, 9, 10], dtype=dtype)
        low = np.array([info.min + k for k in range(12)], dtype=dtype)
        high = np.array([info.max - k for k in range(12)], dtype=dtype)
        cases += [extremes, extremes[::-2], np.repeat(extremes, 3), extremes.reshape(2, 4),
                  extremes.reshape(4, 2)[::-1, ::-1], extremes.reshape(2, 4).T, low,
                  np.repeat(low, 2).reshape(6, 4), high[::-1], high.reshape(3, 4)[:, ::2]]
    assert {a.size < pio._INT_TABLE_ITEMS for a in cases} == {True, False}
    for a in cases:
        want = json.dumps(a.tolist())
        assert pio._int_array_text(a) == want, (a.dtype, a.shape)
        assert pio.dumps(a) == want, (a.dtype, a.shape)
        assert pio.dumps({"a": a}) == '{"a": ' + want + "}"


def test_dumps_takes_the_general_path_unless_items_are_exactly_int(monkeypatch):
    calls = []
    dump = pio._dump

    def counting_dump(obj, pieces):
        calls.append(obj)
        dump(obj, pieces)

    monkeypatch.setattr(pio, "_dump", counting_dump)
    for obj, text, n_calls in (
        ([1, 2], "[1, 2]", 1),
        ([1, True], "[1, true]", 3),
        ([np.int64(1)], "[1]", 2),
        # lists of exactly-int lists or tuples (keys) take one pass as well
        ([[0, 1, 2], (3, 4, 5), [], [-7]], "[[0, 1, 2], [3, 4, 5], [], [-7]]", 1),
        ([[0, 1], [2, True]], "[[0, 1], [2, true]]", 5),
        ([[0, 1], [np.int64(2), 3]], "[[0, 1], [2, 3]]", 5),
        ([(0, 1), [2.0]], "[[0, 1], [2]]", 3),
        ([[0, 1], None], "[[0, 1], null]", 3),
        # tuples, empty inner lists and ints beyond 64 bits through json's encoder
        ((4, 5, 6), "[4, 5, 6]", 1),
        (((0, 1), ()), "[[0, 1], []]", 1),
        ([[], []], "[[], []]", 1),
        ([10**20, -(10**20)], "[100000000000000000000, -100000000000000000000]", 1),
        ([(10**20, 0)], "[[100000000000000000000, 0]]", 1),
        ((1, np.int64(2)), "[1, 2]", 3),
    ):
        calls.clear()
        assert pio.dumps(obj) == text
        assert len(calls) == n_calls, obj


# ------------------------------------------------- float64 arrays in reports

def _powers_of_ten_and_neighbours(low, high, steps):
    """The doubles nearest 10**e for e in [low, high] and their `steps` nextafter
    neighbours on each side."""
    below = above = 10.0 ** np.arange(low, high + 1)
    found = [below]
    for _ in range(steps):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        found += [below, above]
    return np.concatenate(found)


def _exact_ties(rng, per_exponent):
    """Doubles whose 17-significant-digit rounding is an exact decimal tie.

    x = M / 2**(p + 1) with M odd makes x * 10**p = M * 5**p / 2 end in .5;
    M is drawn so that this lies in [1e16, 1e17) and M < 2**53 keeps x exact.
    """
    ties = []
    for p in range(1, 23):
        low, high = -(-2 * 10**16 // 5**p), min(2 * 10**17 // 5**p, 2**53)
        M = rng.integers(low // 2, high // 2, size=per_exponent) * 2 + 1
        ties.append(M[M < high].astype(np.float64) / 2.0 ** (p + 1))
    return np.concatenate(ties)


@given(st.lists(st.floats() | st.floats(1e-7, 1e18) | st.floats(-1e18, -1e-7), max_size=40))
@settings(max_examples=300, deadline=None)
def test_dumps_writes_a_float_array_as_the_item_format(xs):
    # finite and special doubles; any RuntimeWarning fails the test
    want = "[" + ", ".join("%.17g" % x for x in xs) + "]"
    assert pio.dumps(np.array(xs, dtype=np.float64)) == want


def test_dumps_writes_float_arrays_as_the_reference_writer():
    rng = np.random.default_rng(17)
    ties = _exact_ties(rng, 200)
    assert "%.17g" % 1234567890123456.25 == "1234567890123456.2"  # to even
    cases = [
        np.array([1234567890123456.25, 1234567890123456.75, 0.5, 2.5e-6, 9.5]),
        ties, -ties,
        _powers_of_ten_and_neighbours(-7, 18, 40),
        np.array([5e-324, -5e-324, 0.0, -0.0, 1e308, -1e308, np.nan, np.inf, -np.inf]),
        rng.standard_normal(5000) * 10.0 ** rng.uniform(-30, 20, 5000),
        # whole significands of 1 to 17 digits: trailing zeros left out
        np.repeat(rng.integers(10**16, 10**17, 17) // 10 ** np.arange(17), 23)
        * 10.0 ** np.tile(np.arange(-6, 17), 17),
        np.zeros(0), np.array([0.1]), np.array([-0.0]),
        # significands at the edges of the 4-digit groups, at every exponent
        np.array([float(f"{N}e{e}") for N in (10**16, 10**16 + 1, 10000999900009999,
                                             10001000000000000, 10**17 - 1)
                  for e in range(-22, 1)]),
    ]
    # more than one chunk, with per-item values on both sides of each chunk boundary
    long = rng.uniform(-2.0, 2.0, 3 * pio._CHUNK + 5)
    long[pio._CHUNK - 2:pio._CHUNK + 2] = (0.0, np.nan, 1e-300, 1e300)
    cases.append(long)
    for v in cases:
        for view in (v, v[::-1], v[1::3], np.repeat(v, 2)[::2]):
            assert pio.dumps(view) == float64_text_reference(view)
            assert pio.dumps({"v": view}) == '{"v": ' + float64_text_reference(view) + "}"


def test_float_array_items_outside_the_array_steps_are_formatted_one_at_a_time(monkeypatch):
    # zeros, nan, infinities, magnitudes outside [1e-6, 1e17) and the double
    # nearest 1e-6, which lies below 10**-6 (its y falls short of 1e16), all
    # take the per-item format; items in range take none
    formatted = []
    format17 = pio._FORMAT17

    def counting_format(x):
        formatted.append(x)
        return format17(x)

    monkeypatch.setattr(pio, "_FORMAT17", counting_format)
    per_item = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300, 9.99e-7, 1e-6,
                         1e17, -1e17, 2.5e17, 1e308])
    assert fractions.Fraction(1e-6) < fractions.Fraction(1, 10**6)
    v = np.tile(per_item, pio._CHUNK // 5)
    assert pio.dumps(v) == float64_text_reference(v)
    assert [x.hex() for x in formatted] == [x.hex() for x in v.tolist()]
    formatted.clear()
    in_range = np.array([np.nextafter(1e-6, 1.0), 1e-5, 0.1, 2.5, 1e16, np.nextafter(1e17, 0.0)])
    assert pio.dumps(in_range) == float64_text_reference(in_range)
    assert formatted == []


@pytest.mark.parametrize("toward", [-np.inf, np.inf])
def test_float_arrays_keep_their_text_when_log10_is_one_ulp_off(monkeypatch, toward):
    # a log10 one ulp off moves floor(log10) across each power of ten; the
    # exact tests y >= 1e16 and N < 10**17 send those items to the per-item
    # format, and every text stays the reference's
    v = _powers_of_ten_and_neighbours(-6, 16, 3)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
    assert pio.dumps(v) == float64_text_reference(v)
    assert pio.dumps(-v[::-1]) == float64_text_reference(-v[::-1])


def test_float_array_writer_temporaries_are_bounded_by_the_chunk():
    # at most the pieces, the joined text and one chunk's temporaries are alive
    v = np.random.default_rng(3).uniform(-1.0, 1.0, 25 * pio._CHUNK)
    tracemalloc.start()
    try:
        text = pio.dumps(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(text) + 200 * pio._CHUNK
