"""Closed-loop benchmark of the pachner33 command line on seeded inputs.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  One caller drives ``pachner33.cli.main(argv)`` in this
process and starts each operation after the previous one has ended.  Every
report goes through the oracle; failures are counted with their reasons and
never stop the run.  BLAS is pinned to one thread.

Output: JSON lines describing the environment, each operation kind and the
failures, then one last line with ``correct``, ``attempted``, ``failed`` and
the metrics: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  Full results (and the spans of a traced run)
are written under ``.perfbench/results`` in the checkout.
"""
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported, here and in the set-up probes

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
REFERENCE_BLOCKS = 600
PROBE_TIMEOUT_S = 60


@dataclass
class Record:
    kind: str
    argv: tuple
    seconds: float
    reference_s: float
    reasons: list
    fingerprint: str
    traced: bool


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """The checkout's own pachner33 package; exits when it is missing."""
    if not (SRC / "pachner33" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source under {SRC}")
    sys.path.insert(0, str(SRC))
    import pachner33
    import pachner33.cli

    if Path(pachner33.__file__).resolve().parent != (SRC / "pachner33").resolve():
        sys.exit(f"perfbench: imported pachner33 from {pachner33.__file__}, not {SRC}")
    return pachner33.cli


def environment(args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "load": "closed loop, one caller in one process",
    }


def time_setups(workload, seed, workdir):
    """Seconds of SETUP_REPEATS cold set-ups, each in a fresh interpreter."""
    samples = []
    for i in range(SETUP_REPEATS):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(probe_dir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            raise RuntimeError(f"set-up probe failed: {last}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(probe_dir)
    return samples


def reference_kernel():
    """Seconds of fixed work that never touches the library, about 14 ms.

    Small dense linear algebra and interpreted arithmetic, the mix the
    library's hot loops run.  Timed next to each operation, it tracks how
    fast this machine is right then.
    """
    start = time.perf_counter()
    tables = np.random.default_rng(0).standard_normal((REFERENCE_BLOCKS, 5, 5))
    total = 0.0
    for table in tables:
        total += float(np.linalg.det(np.linalg.inv(table + 5.0 * np.eye(5))))
        for i in range(5):
            for j in range(5):
                total += table[i, j] * (i - j)
    return time.perf_counter() - start


class Caller:
    """Calls the CLI, times each call and keeps what the oracle said."""

    def __init__(self, cli):
        self.cli = cli
        self.records = []
        self.messages = {}  # first exception text per (kind, reason)
        self.tracer = None

    def call(self, op, record=True):
        gc.collect()
        before = reference_kernel()
        out = io.StringIO()
        exit_code = exc = None
        main = self.cli.main  # looked up per call so that a traced wrapper is used
        if self.tracer:
            self.tracer.begin_op(len(self.records), op.kind)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                exit_code = main(list(op.argv))
        except (Exception, SystemExit) as err:  # counted as a failure, never fatal
            exc = err
        seconds = time.perf_counter() - start
        if self.tracer:
            self.tracer.end_op()
        reference_s = (before + reference_kernel()) / 2
        if not record:
            return
        reasons, fp = oracle.judge(op.argv[0], op.expect, exit_code, out.getvalue(), exc)
        if exc is not None:
            self.messages.setdefault(f"{op.kind} {reasons[0]}", str(exc)[:200])
        self.records.append(
            Record(op.kind, op.argv, seconds, reference_s, reasons, fp, self.tracer is not None)
        )

    def passes(self, ops, deadline):
        """Whole passes while the next one is expected to end by the deadline."""
        count, last = 0, 0.0
        while count == 0 or time.perf_counter() + last <= deadline:
            start = time.perf_counter()
            for op in ops:
                self.call(op)
            last = time.perf_counter() - start
            count += 1
        return count


def outcomes(records):
    """{argv: (kind, failure reasons)}, one entry per distinct input.

    An operation's outcome depends on its input alone (repeats that disagree
    make the run incorrect, see `nondeterministic`), so failures are counted
    per input: the counts then do not depend on how many passes fit in the
    run.  An input fails if any of its calls failed.
    """
    out = {}
    for r in records:
        kind, reasons = out.get(r.argv, (r.kind, []))
        out[r.argv] = (kind, reasons or list(r.reasons))
    return out


def kind_stats(records):
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r)
    per_input = outcomes(records)
    out = {}
    for kind, rs in by_kind.items():
        times = [r.seconds for r in rs]
        relative = [r.seconds / r.reference_s for r in rs]
        q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (times[0],) * 3
        judged = [reasons for k, reasons in per_input.values() if k == kind]
        out[kind] = {
            "metric": kind,
            "value": statistics.median(times),
            "unit": "s",
            "samples": len(times),
            "relative": statistics.median(relative),
            "reference_s": statistics.median(r.reference_s for r in rs),
            "q1": q1,
            "q3": q3,
            "attempted": len(judged),
            "failed": sum(1 for reasons in judged if reasons),
            "reasons": dict(Counter(reason for reasons in judged for reason in reasons)),
        }
    return out


def geometric_mean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def nondeterministic(records):
    """Operations whose repeats disagree beyond the timing field."""
    seen = {}
    for r in records:
        seen.setdefault(r.argv, set()).add(r.fingerprint)
    return sorted({r.kind for r in records if len(seen[r.argv]) > 1})


def per_layer(totals, byte_count, passes, untraced, traced, traced_s):
    """Per-pass layer metrics, named and ordered as tracing.per_layer_names gives them.

    `traced_s` is the operation time of all traced passes together.
    """
    values = {}
    for name, (calls, self_s, errors) in totals.items():
        values[f"{name}.calls"] = calls / passes
        values[f"{name}.self_s"] = self_s / passes
        values[f"{name}.errors"] = errors / passes
    values[f"{tracing.BYTES_COUNTED}.bytes"] = byte_count / passes
    # compared on reference-relative times, which machine speed changes move less
    common = [kind for kind in traced if kind in untraced]
    frac = geometric_mean([traced[k]["relative"] / untraced[k]["relative"] for k in common]) - 1
    values["trace.overhead_frac"] = frac
    values["trace.overhead_s"] = traced_s / passes * frac / (1 + frac)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in tracing.per_layer_names()}


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")


def main(argv=None):
    args = parse_args(argv)
    cli = import_library()
    import inputs

    if args.workload not in inputs.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {inputs.WORKLOADS}")
    results_dir = OUT / "results"
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results_dir.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True)
    try:
        return measure(args, cli, workdir, results_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, cli, workdir, results_dir):
    import inputs

    env = environment(args)
    emit({"env": env})
    setups = time_setups(args.workload, args.seed, workdir)
    workload = inputs.build_workload(args.workload, args.seed, workdir)

    caller = Caller(cli)
    caller.call(inputs.Op("warmup", workload.warmup), record=False)
    start = time.perf_counter()
    tracer, traced_passes = None, 0
    if args.trace:
        caller.passes(workload.ops, start + args.seconds / 2)
        tracer = caller.tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_passes = caller.passes(workload.ops, start + args.seconds)
        finally:
            tracer.uninstall()
            caller.tracer = None
    else:
        caller.passes(workload.ops, start + args.seconds)

    records = caller.records
    untraced_records = [r for r in records if not r.traced]
    untraced = kind_stats(untraced_records)
    per_input = outcomes(records)
    attempted = len(per_input)
    failed = sum(1 for _, reasons in per_input.values() if reasons)
    reasons = dict(Counter(f"{kind} {reason}"
                           for kind, rs in per_input.values() for reason in rs))
    unstable = nondeterministic(records)
    for stats in untraced.values():
        emit(stats)
    emit({"metric": "op_s", "value": geometric_mean([r.seconds for r in untraced_records]),
          "unit": "s", "of": "geometric mean of the untraced operation times"})
    emit({"metric": "fail_frac", "value": failed / attempted, "unit": "ratio",
          "attempted": attempted, "failed": failed, "calls": len(records),
          "failed_calls": sum(1 for r in records if r.reasons), "reasons": reasons,
          "messages": caller.messages, "nondeterministic": unstable})

    if tracer:
        traced_records = [r for r in records if r.traced]
        totals = tracer.totals()
        metrics = per_layer(totals, tracer.bytes, traced_passes, untraced,
                            kind_stats(traced_records), sum(r.seconds for r in traced_records))
        # present, expected on this workload, yet never called: a wrapper the library bypasses
        uncalled = [name for name in tracing.expected_calls(args.workload)
                    if name not in tracer.absent and totals[name][0] == 0]
        emit({"traced_passes": traced_passes, "absent": tracer.absent, "uncalled": uncalled,
              "layers": [{"functions": list(names), "should_move": moves, "called_on": list(on)}
                         for names, moves, on in tracing.LAYERS]})
        tracer.write(results_dir / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
    else:
        relative = [r.seconds / r.reference_s for r in untraced_records]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            # whole passes time every kind equally often, so this weights kinds equally
            "op_rel": {"value": geometric_mean(relative), "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    result = {"correct": not unstable, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {"env": env, "setup_samples_s": setups, "documents": workload.documents,
              "kinds": untraced, "reasons": reasons, "messages": caller.messages,
              "nondeterministic": unstable, "result": result}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
