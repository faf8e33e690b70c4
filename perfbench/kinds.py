"""Per-kind comparison of two sets of untraced benchmark runs.

    python3 perfbench/kinds.py BEFORE_DIR AFTER_DIR

Each directory holds the ``<workload>-seed<n>-trace0.json`` files that
``run.py`` writes under ``.perfbench/results``, one set from the parent and
one from the change.  Runs are paired by workload and seed, so both sides
of a pair timed the same inputs.  For each operation kind the script prints
the median, over the pairs, of the ratio of the kind's reference-relative
median time after to before, with the quartiles of those ratios, and marks
a kind whose median ratio is above ``1 + BOUND``.  The gated ``op_rel``
weighs a workload's kinds equally, so one kind alone can get much slower
before it moves ``op_rel`` past its bound; this comparison is the per-kind
check.  Exits with 1 when a kind is marked.
"""
import json
import statistics
import sys
from pathlib import Path

BOUND = 0.25


def load(directory):
    """{(workload, seed): {kind: relative median}} of the untraced runs."""
    runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        detail = json.loads(path.read_text(encoding="utf-8"))
        env = detail["env"]
        runs[env["workload"], env["seed"]] = {
            kind: stats["relative"] for kind, stats in detail["kinds"].items()}
    return runs


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    before, after = (load(d) for d in argv)
    ratios = {}  # (workload, kind) -> [after / before per paired seed]
    for key in sorted(before.keys() & after.keys()):
        for kind, rel in before[key].items():
            if kind in after[key]:
                ratios.setdefault((key[0], kind), []).append(after[key][kind] / rel)
    if not ratios:
        sys.exit("perfbench: no runs pair up by workload and seed")
    marked = 0
    for (workload, kind), values in sorted(ratios.items()):
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        worse = median > 1 + BOUND
        marked += worse
        print(f"{workload:11s} {kind:18s} pairs {len(values):2d}  after/before {median:6.3f}"
              f"  quartiles {q1:6.3f} {q3:6.3f}{'  WORSE' if worse else ''}")
    return 1 if marked else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
