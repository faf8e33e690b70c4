"""Invariant comparison across every admissible 3->3 move of the fixtures.

For each bundled complex, every triangle whose star is a three-simplex
cluster is tried; the table lists the invariant before and after the move,
as its sign and log|I|, and the deviation of |after/before| from one.  A
triangle that admits no move is skipped; any other library error is printed
and ends the run with exit status 1.
"""
import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from pachner33 import invariants as iv
from pachner33.cli import seed_int
from pachner33.errors import MovePreconditionError, Pachner33Error
from pachner33.flatmetric import random_realization
from pachner33.io import load_fixture

FIXTURES = ("boundary_delta5.json", "join_tetra_triangle.json", "bipyramid_10cell.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=seed_int, default=None,
                    help="ignore bundled coords and draw a fresh placement")
    args = ap.parse_args()

    worst = 0.0
    for name in FIXTURES:
        doc = load_fixture(name)
        c = doc.to_complex()
        coords = doc.realization()
        if args.seed is not None:
            coords = random_realization(c, seed=args.seed)
        print(f"\n== {name}: {len(c.simplex_vertices)} simplices, "
              f"{len(c.triangle_vertices)} triangles ==")
        moved = 0
        for tri in map(tuple, c.face_ids(2).tolist()):
            try:
                mc = iv.compare_under_move(c, coords, tri)
            except MovePreconditionError:
                continue
            except Pachner33Error as exc:
                print(f"  {str(tri):12s} failed: {type(exc).__name__}: {exc}")
                return 1
            moved += 1
            worst = max(worst, mc.deviation)
            print(f"  {str(tri):12s} -> {str(mc.new_face):12s}"
                  f" before {mc.sign_before:+d} exp({mc.log_abs_before:.6f})"
                  f" after {mc.sign_after:+d} exp({mc.log_abs_after:.6f})"
                  f" | |ratio|-1 | = {mc.deviation:.2e}")
        if moved == 0:
            print("  (no admissible moves)")
    print(f"\nworst deviation over all moves: {worst:.3e}")
    return 0 if worst <= 1e-6 else 1


if __name__ == "__main__":
    sys.exit(main())
