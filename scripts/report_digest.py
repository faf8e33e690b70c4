"""Print one digest of every report of a benchmark workload, or compare two checkouts' reports.

    python3 scripts/report_digest.py WORKLOAD SEED [--checkout DIR] [--against DIR | --reports]

Builds the workload's documents with perfbench/inputs.py (read as it is:
no bytecode is written next to it) in a temporary directory, runs each of
its operations once through pachner33.cli.main, in order, and prints the
SHA-256 of the exit codes and report texts.  Each text counts byte by
byte, apart from its timing_s and inputs.file fields, which differ between
runs and directories and are cut out.  The library and perfbench/ come from
the checkout DIR, by default the one holding this script, so two checkouts
are compared with two commands that differ in --checkout.

--reports prints the exit codes and texts themselves, as one JSON list of
[code, text] pairs.  --against DIR runs the operations in both checkouts,
each in an interpreter of its own, and prints, for each numeric report
field, the largest |a - b| / max(|a|, |b|) over the operations; a field is
named by its command and its path of keys, a list item of a dict with a
"name" by that name.  It exits 1 when an exit code or a byte outside the
numbers differs (the reports then differ in more than their digits), and
0 otherwise.  Reports change in their last digits whenever the rounding of
the numeric core changes, where a digest can only say that they changed.
"""
import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, as the benchmark pins BLAS

WORKLOADS = ("ladder", "moves", "identities")
_TIMING = re.compile(r', "timing_s": [^,}]+')
_FILE = re.compile(r'"inputs": \{"file": "(?:[^"\\]|\\.)*"\}')
# a JSON string, or a bare nan or inf of io.dumps, which json reads as NaN and Infinity
_NONFINITE = re.compile(r'"(?:[^"\\]|\\.)*"|\b(?:nan|inf)\b')


def load_inputs(root):
    """root/perfbench/inputs.py, importing the library from root/src."""
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", root / "perfbench" / "inputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def canonical(text):
    """The report text as written, with its timing_s field cut out and its
    inputs.file emptied, so that every other byte counts."""
    return _FILE.sub('"inputs": {}', _TIMING.sub("", text))


def reports(root, workload, seed):
    """[code, canonical text] of each operation of the workload, in order, from the checkout root."""
    inputs = load_inputs(root)
    from pachner33.cli import main as cli_main

    out = []
    with tempfile.TemporaryDirectory() as workdir:
        for op in inputs.build_workload(workload, seed, workdir).ops:
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = cli_main(list(op.argv))
            out.append([code, canonical(text.getvalue())])
    return out


def parse(text):
    """The report as JSON values, nan and inf read as floats; None when it is not JSON."""
    fixed = _NONFINITE.sub(
        lambda m: {"nan": "NaN", "inf": "Infinity"}.get(m.group(), m.group()), text
    )
    try:
        return json.loads(fixed)
    except ValueError:
        return None


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def relative_gap(a, b):
    """|a - b| / max(|a|, |b|): 0.0 for equal values (two NaNs included), inf when
    either is not finite and they differ."""
    if a == b or (a != a and b != b):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def numeric_gaps(a, b, path, gaps):
    """Add the relative gap of each pair of numbers of two reports to gaps[path];
    the path of the first other difference, or None."""
    if _is_number(a) and _is_number(b):
        gaps[path] = max(gaps.get(path, 0.0), relative_gap(a, b))
        return None
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return path
        for key in a:
            where = numeric_gaps(a[key], b[key], f"{path}.{key}", gaps)
            if where:
                return where
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return path
        for x, y in zip(a, b):
            named = isinstance(x, dict) and isinstance(x.get("name"), str)
            where = numeric_gaps(x, y, f"{path}[{x['name']}]" if named else f"{path}[]", gaps)
            if where:
                return where
        return None
    return None if (type(a), a) == (type(b), b) else path


def compare(ours, theirs, commands):
    """({field: largest relative gap}, [differences]) of two lists of [code, text]."""
    gaps, differences = {}, []
    if len(ours) != len(theirs):
        return gaps, [f"{len(ours)} operations against {len(theirs)}"]
    for n, ((code_a, text_a), (code_b, text_b), command) in enumerate(zip(ours, theirs, commands)):
        if code_a != code_b:
            differences.append(f"operation {n} ({command}): exit code {code_a} against {code_b}")
            continue
        a, b = parse(text_a), parse(text_b)
        if a is None or b is None:
            where = None if text_a == text_b else "the text"
        else:
            where = numeric_gaps(a, b, command, gaps)
        if where:
            differences.append(f"operation {n} ({command}): {where} differs")
    return gaps, differences


def run_reports(checkout, workload, seed):
    """reports(workload, seed) of a checkout, in an interpreter of its own."""
    argv = [sys.executable, str(pathlib.Path(__file__).resolve()), workload, str(seed),
            "--checkout", str(checkout), "--reports"]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("--checkout", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parents[1])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--against", type=pathlib.Path, metavar="DIR",
                      help="compare the reports with those of the checkout DIR")
    mode.add_argument("--reports", action="store_true",
                      help="print the exit codes and report texts as JSON")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("SEED must be at least 0")
    sys.dont_write_bytecode = True
    if args.against:
        ours = run_reports(args.checkout.resolve(), args.workload, args.seed)
        theirs = run_reports(args.against.resolve(), args.workload, args.seed)
        commands = [(parse(text) or {}).get("command", "?") for _, text in ours]
        gaps, differences = compare(ours, theirs, commands)
        width = max(map(len, gaps), default=5)
        print(f"{'field':{width}}  max |a - b| / max(|a|, |b|)")
        for field in sorted(gaps):
            print(f"{field:{width}}  {gaps[field]:.3g}")
        for line in differences:
            print(f"differs: {line}")
        return 1 if differences else 0
    out = reports(args.checkout.resolve(), args.workload, args.seed)
    if args.reports:
        print(json.dumps(out))
        return 0
    digest = hashlib.sha256()
    for code, text in out:
        digest.update(f"{code}\n{text}\n".encode("utf-8"))
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
