"""Child process of the exact-mixed probe: the mixed-scale exact solve at
the CLI's default grid (4097 frequencies, eps 1e-10, n_max 60).

Usage: python3 bench/budget_probe.py '[[l, m, p], ...]'

Prints one line: ``solved in <s> s`` or ``refused: <error>``.  The parent
kills it at its deadline.
"""

import json
import sys
import time

import randrefine as rr

atoms = json.loads(sys.argv[1])
measure = rr.build_measure(atoms)
g = rr.manufacture_inhomogeneity(measure, rr.gaussian(0, 1) - rr.gaussian(2, 1))
start = time.perf_counter()
try:
    rr.solve_spectrum(measure, g, 0.0, rr.symmetric_grid(40.0, 4097))
except rr.RandRefineError as exc:
    print(f"refused: {type(exc).__name__}: {exc}")
else:
    print(f"solved in {time.perf_counter() - start:.3f} s")
