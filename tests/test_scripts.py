"""The scripts under scripts/ run to completion on the bundled fixtures, and the
benchmark's input module still finds every library name it imports and builds
workloads whose operations its oracle accepts."""
import importlib.resources
import importlib.util
import json
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from pachner33 import cli
from pachner33 import complexes as cx
from pachner33 import flatmetric as fm
from pachner33 import identities as idn
from pachner33 import invariants as iv
from pachner33 import io as pio
from pachner33 import jacobians as jb
from pachner33.cli import main as cli_main

from conftest import (
    admissible_triangles,
    assert_same_selection,
    check_6term_reference,
    check_basic2_reference,
    conjugacy_residual_dense,
    count_empty_like,
    dense,
    dumps_reference,
    materialized_value_after,
    reference_clusters,
    symmetry_residual_dense,
    unit_ball_placement_loop,
)

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
PERFBENCH = SCRIPTS.parent / "perfbench"


@pytest.mark.parametrize(
    "argv", [("move_experiment.py",), ("identity_battery.py", "--trials", "2")]
)
def test_script_exits_0(argv):
    # each script puts the checkout's src on sys.path itself
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_identity_battery_rejects_a_trial_count_below_one(trials):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "identity_battery.py"), "--trials", trials],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert "usage:" in done.stderr


@pytest.mark.parametrize("tol", ["nan", "-1", "0"])
def test_identity_battery_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "identity_battery.py"), "--trials", "1", "--tol", tol],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert "usage:" in done.stderr


@pytest.mark.parametrize(
    "argv", [("move_experiment.py",), ("identity_battery.py", "--trials", "1")]
)
def test_script_seed_must_be_a_nonnegative_integer(argv):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:], "--seed", "-1"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert "usage:" in done.stderr and "--seed" in done.stderr


def test_report_digest_is_stable_across_runs():
    # two runs of the moves workload at one seed print one and the same digest
    digests = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / "report_digest.py"), "moves", "611"],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1]
    assert re.fullmatch(r"[0-9a-f]{64}\n", digests[0])


def test_report_digest_at_this_checkout_equals_the_default():
    # --checkout at this checkout's root prints the digest of the call without it
    digests = []
    for flag in ([], ["--checkout", str(SCRIPTS.parent)]):
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / "report_digest.py"), "moves", "611", *flag],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1]
    assert re.fullmatch(r"[0-9a-f]{64}\n", digests[0])


def test_report_digest_against_its_own_checkout_shows_no_gap():
    # every numeric field of both runs is the same: each gap prints as 0
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "report_digest.py"), "identities", "611",
         "--against", str(SCRIPTS.parent)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    header, *fields = done.stdout.splitlines()
    assert header.split() == ["field", "max", "|a", "-", "b|", "/", "max(|a|,", "|b|)"]
    assert "verify-identities.checks[schlafli].max_residual" in {f.split()[0] for f in fields}
    assert all(f.split()[1] == "0" for f in fields), done.stdout


@pytest.fixture
def report_digest(monkeypatch):
    """scripts/report_digest.py as a module, loaded without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("report_digest", SCRIPTS / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digest_against_tells_digits_from_other_bytes(report_digest, monkeypatch, capsys):
    rd = report_digest
    base = '{"command": "c", "x": 2.0, "n": [1, 2], "s": "t", "checks": [{"name": "k", "r": 1e-3}]}'
    ours = [[0, base], [1, "not json"], [0, '{"command": "c", "v": nan, "w": inf}']]

    def with_text(*replacements):
        texts = [list(pair) for pair in ours]
        for n, old, new in replacements:
            texts[n][1] = texts[n][1].replace(old, new)
        return texts

    commands = ["c", "c", "c"]
    gaps, differences = rd.compare(ours, ours, commands)
    assert differences == [] and set(gaps.values()) == {0.0}
    assert set(gaps) == {"c.x", "c.n[]", "c.checks[k].r", "c.v", "c.w"}
    # the digits of a number: its relative gap, no difference
    gaps, differences = rd.compare(ours, with_text((0, "2.0", "2.5"), (0, "1e-3", "2e-3")), commands)
    assert differences == [] and gaps["c.x"] == 0.2 and gaps["c.checks[k].r"] == 0.5
    gaps, differences = rd.compare(ours, with_text((2, "inf", "1.0")), commands)
    assert differences == [] and gaps["c.w"] == float("inf")
    # any other byte, a list's length or an exit code: a difference
    for theirs in (with_text((0, '"t"', '"u"')), with_text((0, "[1, 2]", "[1, 2, 3]")),
                   with_text((1, "json", "JSON")), with_text((0, '"x"', '"y"'))):
        assert len(rd.compare(ours, theirs, commands)[1]) == 1
    theirs = [list(pair) for pair in ours]
    theirs[1][0] = 0
    assert rd.compare(ours, theirs, commands)[1] == ["operation 1 (c): exit code 1 against 0"]
    # main prints the gaps and the differences and exits 1 on a difference
    for other, code in ((ours, 0), (with_text((0, '"t"', '"u"')), 1)):
        monkeypatch.setattr(rd, "run_reports", lambda root, w, s, o=other: o if root.name == "b" else ours)
        monkeypatch.setattr(sys, "argv", ["report_digest.py", "moves", "3", "--checkout", "a",
                                          "--against", "b"])
        assert rd.main() == code
        out = capsys.readouterr().out
        assert "c.x" in out and ("differs: operation 0 (c): c.s differs" in out) == bool(code)


def load_perfbench_module(monkeypatch, name):
    """perfbench/<name>.py, loaded read-only (no bytecode written next to it)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench_inputs(monkeypatch):
    """perfbench/inputs.py.  It imports library names at module level: a name
    it needs that goes missing fails here, not in every benchmark run."""
    return load_perfbench_module(monkeypatch, "inputs")


def test_benchmark_inputs_import_and_build_the_identities_workload(
    perfbench_inputs, monkeypatch, tmp_path, capsys
):
    inputs = perfbench_inputs
    workload = inputs.build_workload("identities", 1, tmp_path)
    assert len(workload.ops) == inputs.IDENTITY_SEEDS and workload.documents == {}
    assert cli_main(list(workload.ops[0].argv)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trials"] == inputs.IDENTITY_TRIALS
    # the other two workloads, built once: the first operation of each kind
    # passes the benchmark's own oracle, so a library change that breaks their
    # generators or calls fails here and not as a failed benchmark run
    oracle = load_perfbench_module(monkeypatch, "oracle")
    kinds = set()
    for name in ("moves", "ladder"):
        for op in inputs.build_workload(name, 1, tmp_path).ops:
            if op.kind in kinds:
                continue
            kinds.add(op.kind)
            exit_code = cli_main(list(op.argv))
            text = capsys.readouterr().out
            reasons, _ = oracle.judge(op.argv[0], op.expect, exit_code, text, None)
            assert reasons == [], (op.kind, reasons)
    assert len(kinds) == 9
    # the one-cell quality measure of its join placements
    cell = np.vstack([np.zeros(4), np.eye(4)])
    assert inputs.quality(cell) == pytest.approx((1 / 24) / ((4 + 6 * 2**0.5) / 10) ** 4)


def test_selection_on_the_benchmark_join_takes_the_whole_array(perfbench_inputs, monkeypatch):
    # a 72-cell stacked-sphere join, as the moves workload builds, fills in
    # and its dOmega_dL fits in one update pass: at the default pass size the
    # selection switches to whole-array steps, with or without a forced row,
    # and keeps the pivots of the dense loop
    inputs = perfbench_inputs
    rng = np.random.default_rng(3)
    c, coords = inputs.checked_complex(
        *inputs.stacked_sphere_join(rng, inputs.JOIN_SPHERE_TRIANGLES), "join"
    )
    M = jb.assemble_domega_dL(c, fm.realize(c, coords))
    assert len(c.simplices) == 72 and M.nbytes <= jb._UPDATE_BYTES
    buffers = count_empty_like(monkeypatch)
    for row in (None, 0, len(M) // 2, len(M) - 1):
        buffers.clear()
        assert_same_selection(M, must_include_row=row)
        assert buffers == [M.shape], row


def test_jacobian_residuals_are_the_dense_residuals_bitwise(
    perfbench_inputs, delta5, delta5_metric, join_complex, join_metric, bipyramid, stellar_ladder
):
    # the residuals taken at the triplets are those of the dense matrices,
    # bit for bit, on the fixtures, the ladder rungs up to 166 cells and two
    # 72-cell stacked-sphere joins as the moves workload builds
    placed = [(delta5, delta5_metric), (join_complex, join_metric),
              (bipyramid, fm.realize(bipyramid, fm.random_realization(bipyramid, seed=2)))]
    placed += [(c, fm.realize(c, coords)) for c, coords in stellar_ladder.values()]
    for seed in (3, 6):
        c, coords = perfbench_inputs.checked_complex(
            *perfbench_inputs.stacked_sphere_join(
                np.random.default_rng(seed), perfbench_inputs.JOIN_SPHERE_TRIANGLES
            ), "join"
        )
        placed.append((c, fm.realize(c, coords)))
    assert [len(c.simplices) for c, _ in placed[3:]] == [26, 86, 166, 72, 72]
    for c, m in placed:
        jac = jb.build_jacobians(c, m)
        dOmega_dL = dense(jac.dOmega_dL)
        assert dOmega_dL.tobytes() == jb.assemble_domega_dL(c, m).tobytes()
        want = (symmetry_residual_dense(dense(jac.dOmega_dS)),
                conjugacy_residual_dense(dense(jac.dBigOmega_dS), dOmega_dL))
        assert (jac.symmetry_residual(), jac.conjugacy_residual()) == want
        assert 0.0 < max(want) <= 1e-6


def test_compare_after_value_on_the_benchmark_joins_is_the_moved_complexs_own(
    perfbench_inputs,
):
    # at every move whose opposite triangle is not yet a face, on two 72-cell
    # stacked-sphere joins as the moves workload builds, compare's after-value
    # is the moved complex's own bit for bit, products summed in its order
    inputs = perfbench_inputs
    compared = 0
    for seed in (3, 6):
        rng = np.random.default_rng(seed)
        c, coords = inputs.checked_complex(
            *inputs.stacked_sphere_join(rng, inputs.JOIN_SPHERE_TRIANGLES), "join"
        )
        for t in admissible_triangles(c):
            if cx.move_cluster(c, t)[1] in c.face_index[2]:
                continue
            mc = iv.compare_under_move(c, coords, t)
            sign, log_abs = materialized_value_after(c, coords, t, mc.selection)
            assert (mc.sign_after, mc.log_abs_after.hex()) == (sign, log_abs.hex()), (seed, t)
            compared += 1
    assert compared == 39 + 39


def test_benchmark_ladder_jacobian_and_check_flat_calls_succeed(perfbench_inputs, tmp_path, capsys):
    # the benchmark's own documents through the commands that take the
    # area-derivative weights: jacobian at 86 and 166 cells, check-flat at 406
    workload = perfbench_inputs.build_workload("ladder", 1, tmp_path)
    ops = {op.kind: op for op in workload.ops if op.argv[0] in ("jacobian", "check-flat")}
    assert sorted(ops) == ["checkflat_s.n406", "jacobian_s.n166", "jacobian_s.n86"]
    for op in ops.values():
        assert cli_main(list(op.argv)) == 0, op.kind
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == op.argv[0] and "error" not in report
        if op.argv[0] == "jacobian":
            assert report["rank"] == op.expect["rank"]


def test_jacobian_reports_are_the_reference_writers_text(
    perfbench_inputs, tmp_path, capsys, monkeypatch
):
    # the whole jacobian report, float64 triplet values included, is written
    # with the text of the writer before the array steps: on the three
    # fixtures and on the benchmark's 86-cell ladder rung at seed 611
    written = []
    dumps = cli.dumps

    def recording_dumps(obj):
        written.append(obj)
        return dumps(obj)

    monkeypatch.setattr(cli, "dumps", recording_dumps)
    fixtures = importlib.resources.files("pachner33.fixtures")
    argvs = [["jacobian", str(fixtures / name)] for name in
             ("boundary_delta5.json", "join_tetra_triangle.json", "bipyramid_10cell.json")]
    ops = perfbench_inputs.build_workload("ladder", 611, tmp_path).ops
    argvs.append(list(next(op.argv for op in ops if op.kind == "jacobian_s.n86")))
    for argv in argvs:
        written.clear()
        assert cli_main(argv) == 0, argv
        (report,) = written
        assert capsys.readouterr().out == dumps_reference(report) + "\n", argv
    # the rung's dOmega_dS values fill more than one chunk of the writer
    assert len(report["matrices"]["dOmega_dS"]["values"]) > pio._CHUNK


def test_invariant_and_compare_reports_are_the_reference_writers_text(
    perfbench_inputs, tmp_path, capsys, monkeypatch
):
    # invariant and compare reports, their selection keys written from
    # integer arrays, have the text of the writer of their nested lists: on
    # the three fixtures, the seed-611 ladder rungs 26-406 and a 72-join
    written = []
    dumps = cli.dumps

    def recording_dumps(obj):
        written.append(obj)
        return dumps(obj)

    monkeypatch.setattr(cli, "dumps", recording_dumps)
    fixtures = importlib.resources.files("pachner33.fixtures")
    argvs = []
    for name in ("boundary_delta5.json", "join_tetra_triangle.json", "bipyramid_10cell.json"):
        argvs += [["invariant", str(fixtures / name)],
                  ["compare", str(fixtures / name), "--face", "0,1,2"]]
    ladder = perfbench_inputs.build_workload("ladder", 611, tmp_path).ops
    for n in (26, 86, 166, 406):
        argvs.append(list(next(op.argv for op in ladder if op.kind == f"invariant_s.n{n}")))
    moves = perfbench_inputs.build_workload("moves", 611, tmp_path).ops
    join = next(op.argv for op in moves if op.kind == "compare_s.join")
    argvs += [["invariant", join[1]], list(join)]
    for argv in argvs:
        written.clear()
        assert cli_main(argv) == 0, argv
        (report,) = written
        selection = report["selection"]
        assert all(isinstance(selection[key], np.ndarray) for key in
                   ("rows", "cols", "rows_complement", "cols_complement")), argv
        assert capsys.readouterr().out == dumps_reference(report) + "\n", argv
    assert len(report["selection"]["rows"]) == report["selection"]["rank"] > 0


def test_benchmark_identity_reports_equal_the_per_trial_route(
    perfbench_inputs, tmp_path, capsys, monkeypatch
):
    # the identities workload's calls at four benchmark seeds, on the stacked
    # route and with the per-seed sampler and per-trial clusters and checks
    ops = [op for seed in (1, 611, 612, 613)
           for op in perfbench_inputs.build_workload("identities", seed, tmp_path).ops]

    def reports():
        out = []
        for op in ops:
            assert cli_main(list(op.argv)) == 0
            report = json.loads(capsys.readouterr().out)
            del report["timing_s"]
            out.append(report)
        return out

    stacked = reports()
    monkeypatch.setattr(idn, "random_simplices", lambda seeds: np.array(
        [unit_ball_placement_loop(s, 5, [range(5)]) for s in seeds]).reshape(-1, 5, 4))
    monkeypatch.setattr(idn, "random_clusters", reference_clusters)
    monkeypatch.setattr(idn, "check_basic2", check_basic2_reference)
    monkeypatch.setattr(idn, "check_6term", check_6term_reference)
    assert reports() == stacked
    assert [r["trials"] for r in stacked] == [perfbench_inputs.IDENTITY_TRIALS] * len(ops)
