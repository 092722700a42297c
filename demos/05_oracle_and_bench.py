"""
Trust, but enumerate
====================

Every closed formula in the package has a brute-force twin: the oracle counts
the actual tuples, pair by pair, from the Cayley table alone.  This script
shows the oracle confirming the character formula, the decorated bundle counts
matching the generator matrices entry by entry, and how the two routes compare
in time.
"""

import time

from arith_tqft.cobordism import P21, TORUS
from arith_tqft.dw import RelatorSpec, dw_generator_map_exact, hom_count
from arith_tqft.oracle import (
    EnumerationTask,
    count_epis,
    count_solutions,
    decorated_generator_count,
    run_task,
)
from arith_tqft.pgroup import heisenberg
from arith_tqft.units import INF

HEIS = heisenberg(3)

# ---------------------------------------------------------------------------
# The oracle counts solutions of x1^(3^r) [x1,y1]...[xn,yn] = 1 directly.
# Only the value of each prefix matters, so it tallies the values of each
# letter pair and carries the number of prefixes with each value to the next.

task = EnumerationTask(HEIS, RelatorSpec(1, 1))
out = run_task(task)
print("heisenberg(3), one relator at level 1:", out)
print("epimorphisms among them:", count_epis(task))

# with boundary decorations: fix the conjugacy class of x1, sum over classes
conj = HEIS.conjugacy_classes()
parts = [
    count_solutions(EnumerationTask(HEIS, RelatorSpec(1, 1), boundary={0: rep}))
    for rep in conj.reps
]
print("per-class counts for x1:", parts, "-> total", sum(parts))

# ---------------------------------------------------------------------------
# Decorated bundle counts.  The oracle's groupoid-weighted count between
# decorated circles reproduces every matrix entry of the pants and the handle.

m = dw_generator_map_exact(HEIS, P21)
k = len(conj)
mismatches = sum(
    m.rows[o][i * k + j] != decorated_generator_count(HEIS, P21, (i, j), o)
    for i in range(k)
    for j in range(k)
    for o in range(k)
)
print("\npair-of-pants entries checked:", k**3, "mismatches:", mismatches)

t = dw_generator_map_exact(HEIS, TORUS(INF))
mismatches = sum(
    t.rows[o][i] != decorated_generator_count(HEIS, TORUS(INF), i, o)
    for i in range(k)
    for o in range(k)
)
print("orientable-handle entries checked:", k**2, "mismatches:", mismatches)

# ---------------------------------------------------------------------------
# The contrast: the character formula answers the n=2 count in microseconds;
# the oracle accounts for all 27^4 = 531441 tuples from the Cayley table.

spec = RelatorSpec(2, 1)
value = hom_count(spec, HEIS)  # builds the class algebra's record once

t0 = time.perf_counter()
value = hom_count(spec, HEIS)
formula_s = time.perf_counter() - t0

t0 = time.perf_counter()
out = run_task(EnumerationTask(HEIS, spec))
oracle_s = time.perf_counter() - t0

print(f"\nhom count {value}: formula {formula_s * 1e6:.0f} µs, oracle {oracle_s * 1e3:.1f} ms over {out['scanned']} tuples")
print(f"agreement: {value == out['count']}")

# ---------------------------------------------------------------------------
# Budgets guard accidental monsters: the work of each letter pair is checked
# before that pair allocates anything.

try:
    count_solutions(EnumerationTask(HEIS, spec, budget=1000))
except Exception as e:
    print("\nbudget refusal:", e)
