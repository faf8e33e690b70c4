"""The scripts under scripts/ run to completion on the bundled fixtures."""
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


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
