"""The scripts under scripts/ run to completion on the bundled fixtures, and the
benchmark's input module still finds every library name it imports and builds
workloads whose operations its oracle accepts."""
import importlib.util
import json
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from pachner33 import identities as idn
from pachner33.cli import main as cli_main

from conftest import (
    check_6term_reference,
    check_basic2_reference,
    reference_clusters,
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
