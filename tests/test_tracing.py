"""The benchmark's tracer still finds the engine functions it wraps."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import arith_tqft.cli  # loads every engine module before the wrappers go in
from tracing import Tracer
tracer = Tracer()
tracer.install()
tracer.enabled = True
from arith_tqft import cobordism, dw, frobenius, pgroup
dw.hom_count(dw.RelatorSpec(2, 1), pgroup.heisenberg(3))
frobenius.evaluate_diagram(cobordism.parse_diagram("m; d"), frobenius.UniversalAlgebra())
dw.evaluate_dw(cobordism.parse_diagram("m; d"), pgroup.cyclic(9), 19)
split = cobordism.parse_diagram("swap, d, m, tor(inf), id; m, id, id, id, id, id")  # five pieces
assert len(cobordism.canonicalize(split).components) == 5
dw.evaluate_dw(split, pgroup.cyclic(3), 7)
print(json.dumps(tracer.metrics()))
"""


def test_traced_run_sees_every_layer():
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    for name in ("chartab.tables_n", "pgroup.classes_s", "frobenius.eval_universal_s", "frobenius.eval_dw_s"):
        assert metrics[name] > 0, name
