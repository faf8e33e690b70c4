"""One timed set-up in a fresh interpreter: import, generate, write, validate.

``run.py`` starts this several times per run, with its BLAS thread pins in
the environment, so that ``setup_s`` is a median over cold imports.  Prints
the seconds taken as its only line of output.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402  (imports pachner33 and numpy)

inputs.build_workload(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(repr(time.perf_counter() - start))
