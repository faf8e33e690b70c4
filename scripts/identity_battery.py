"""Run the randomized identity batteries and print a summary table.

The batteries read one identities.TrialDraws, as run_all_batteries does.
Everything it shares between batteries comes first, on the "shared draws"
row: the simplices with their length tables, face areas and Schlafli
directions, and the one ClusterSix stack of all trials' clusters.  Each
battery's time is then its own checks without the draws.
"""
import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from pachner33 import identities
from pachner33.cli import positive_float, positive_int, seed_int


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=positive_int, default=100)
    ap.add_argument("--seed", type=seed_int, default=0)
    ap.add_argument("--tol", type=positive_float, default=identities.DEFAULT_TOL)
    args = ap.parse_args()

    print(f"{'battery':30s} {'worst residual':>14s} {'failures':>9s} {'time':>7s}")
    t0 = time.perf_counter()
    draws = identities.TrialDraws(args.trials, args.seed)
    draws.face_areas, draws.directions, draws.clusters  # drawn and realized here, once
    print(f"{'shared draws':30s} {'':14s} {'':9s} {time.perf_counter() - t0:6.2f}s")
    overall = True
    for battery in identities.ALL_BATTERIES:
        t0 = time.perf_counter()
        res = battery(draws, args.tol)
        dt = time.perf_counter() - t0
        overall &= res.passed
        extra = " ".join(f"{k}={v:.3e}" for k, v in res.extras.items())
        print(
            f"{res.name:30s} {res.max_residual:14.3e} {res.failures:9d} {dt:6.2f}s {extra}"
        )
    print("overall:", "PASS" if overall else "FAIL")
    return 0 if overall else 1


if __name__ == "__main__":
    sys.exit(main())
