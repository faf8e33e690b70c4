"""Print one digest of every report of a benchmark workload.

    python3 scripts/report_digest.py WORKLOAD SEED [--checkout DIR]

Builds the workload's documents with perfbench/inputs.py (read as it is:
no bytecode is written next to it) in a temporary directory, runs each of
its operations once through pachner33.cli.main, in order, and prints the
SHA-256 of the exit codes and report texts.  Each text counts byte by
byte, apart from its timing_s and inputs.file fields, which differ between
runs and directories and are cut out.  The library and perfbench/ come from
the checkout DIR, by default the one holding this script, so two checkouts
are compared with two commands that differ in --checkout.
"""
import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import pathlib
import re
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, as the benchmark pins BLAS

WORKLOADS = ("ladder", "moves", "identities")
_TIMING = re.compile(r', "timing_s": [^,}]+')
_FILE = re.compile(r'"inputs": \{"file": "(?:[^"\\]|\\.)*"\}')


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


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("--checkout", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parents[1])
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("SEED must be at least 0")
    sys.dont_write_bytecode = True
    inputs = load_inputs(args.checkout.resolve())
    from pachner33.cli import main as cli_main

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        for op in inputs.build_workload(args.workload, args.seed, workdir).ops:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(list(op.argv))
            digest.update(f"{code}\n{canonical(out.getvalue())}\n".encode("utf-8"))
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
