"""Checks on each CLI report; a failing operation is counted, never fatal.

Every check returns a list of failure reasons (empty when the operation is
correct) and a fingerprint of the report with its timing removed.  The CLI
promises byte-identical reports for equal inputs apart from ``timing_s``, so
repeats of one operation in a run must share a fingerprint.
"""
from __future__ import annotations

import hashlib
import json
import math
import re

MAX_DEVIATION = 1e-6

_BARE_NONFINITE = re.compile(r'(?<=[\[:,] )(-?)(nan|inf)(?=[,\]}])')


class NonFiniteToken(ValueError):
    pass


def _reject_constant(token):
    raise NonFiniteToken(token)


def strict_loads(text):
    """JSON that refuses NaN and Infinity, as a strict consumer would."""
    return json.loads(text, parse_constant=_reject_constant)


def lenient_loads(text):
    """JSON that also reads the bare ``nan``/``inf`` tokens of a non-strict writer.

    Returns None when the text is not JSON even then.
    """
    fixed = _BARE_NONFINITE.sub(
        lambda m: m.group(1) + ("NaN" if m.group(2) == "nan" else "Infinity"), text
    )
    try:
        return json.loads(fixed)
    except json.JSONDecodeError:
        return None


def fingerprint(text):
    """Digest of the canonical report text without its timing field.

    A digest, not the text, so that keeping one per operation costs the
    measuring process no memory worth counting in its peak.
    """
    report = lenient_loads(text)
    if report is not None:
        if isinstance(report, dict):
            report.pop("timing_s", None)
        text = json.dumps(report, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _finite_nonzero(x):
    return isinstance(x, (int, float)) and math.isfinite(x) and x != 0


def _rank_reasons(report, expect):
    rank = (report.get("selection") or {}).get("rank")
    if rank is None:
        return ["no_rank"]
    if "rank" in expect and rank != expect["rank"]:
        return ["rank_mismatch"]
    return []


def _check_invariant(report, exit_code, expect):
    reasons = [] if exit_code == 0 else [f"exit_{exit_code}"]
    if not _finite_nonzero(report.get("value")):
        reasons.append("value_not_finite_nonzero")
    return reasons + _rank_reasons(report, expect)


def _check_jacobian(report, exit_code, expect):
    reasons = [] if exit_code == 0 else [f"exit_{exit_code}"]
    return reasons + _rank_reasons(report, expect)


def _check_flat(report, exit_code, expect):
    return [] if report.get("passed") is True and exit_code == 0 else ["not_flat"]


def _check_compare(report, exit_code, expect):
    reasons = [] if exit_code == 0 else [f"exit_{exit_code}"]
    dev = report.get("deviation")
    if not (isinstance(dev, (int, float)) and math.isfinite(dev) and dev <= MAX_DEVIATION):
        reasons.append("deviation_above_1e-6")
    if "face" in expect and report.get("face") != expect["face"]:
        reasons.append("wrong_face")
    return reasons


def _check_identities(report, exit_code, expect):
    checks = report.get("checks") or []
    reasons = [f"battery_failed:{c.get('name')}" for c in checks if not c.get("passed")]
    if not checks:
        reasons.append("no_batteries")
    if exit_code != 0 and not reasons:
        reasons.append(f"exit_{exit_code}")
    return reasons


CHECKS = {
    "invariant": _check_invariant,
    "jacobian": _check_jacobian,
    "check-flat": _check_flat,
    "compare": _check_compare,
    "verify-identities": _check_identities,
}


def judge(command, expect, exit_code, text, exc):
    """(failure reasons, fingerprint) for one finished CLI call.

    exc is the exception that escaped ``cli.main``, if any; exit_code is
    what it returned otherwise.
    """
    if exc is not None:
        outcome = f"raised:{type(exc).__name__}"
        return [outcome], outcome
    return _report_reasons(command, expect, exit_code, text), fingerprint(text)


def _report_reasons(command, expect, exit_code, text):
    lines = text.strip().splitlines()
    if len(lines) != 1:
        return ["not_one_report_line"]
    reasons = []
    try:
        report = strict_loads(lines[0])
    except NonFiniteToken as err:
        reasons.append(f"nonfinite_json:{err}")
    except json.JSONDecodeError:
        syntax = "nan_or_inf" if _BARE_NONFINITE.search(lines[0]) else "syntax"
        reasons.append(f"invalid_json:{syntax}")
    if reasons:
        # keep judging what a lenient reader sees, so that other faults show too
        report = lenient_loads(lines[0])
    if not isinstance(report, dict):
        return reasons or ["report_not_object"]
    if "error" in report:
        return reasons + [f"error_report:{(report['error'] or {}).get('type', 'unknown')}"]
    if report.get("command") != command:
        return reasons + ["wrong_command"]
    return reasons + CHECKS[command](report, exit_code, expect)
