"""arith-tqft benchmark: one seeded workload per run, every answer checked.

Run from the repository root:

    python3 perfbench/run.py --workload count --seed 1 --seconds 20 --trace 0

Workloads: count, relations, gauge, verify (see workloads.py).  A run deals
whole passes of ops until another pass would end past --seconds (at least one
pass), times each op, checks each answer against a reference route, and prints
a summary line and then, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; --trace 1 installs spans around the engine's public
functions, prints per-layer metrics instead and writes the spans to
.perfbench/trace-<workload>-<seed>.jsonl.

Times are reported at a reference machine speed.  The speed of a shared
virtual machine drifts by tens of percent over seconds, so every quarter
second the run times a fixed probe and scales each op's wall time by the
probe's reference time over the mean of the probes around the op; set-up and
per-layer times are scaled by the run's median probe.  The probe matches
where the workload spends its time: a pure-Python loop, or for `gauge` a loop
of small numpy calls.  Passes are counted in scaled time too, so the number
of passes does not follow the machine's drift.  The summary line prints the
unscaled figures.

An op that raises a typed error listed for its workload and group in
known_failures.json is an expected refusal: it counts against answered_ratio
and is printed by error code, but not in "failed".  "failed" counts typed
errors that are not listed; a wrong answer stops the run with "correct":
false and exit code 1.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time starts here, before numpy and the engine load

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
PROBE_EVERY_S = 0.25
WALL_CAP = 1.5  # no pass starts that would end past this many --seconds of wall time
PROBE_SPAN = 2  # probes taken on each side of an op that set its speed


def _arguments(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("count", "relations", "gauge", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _probe_interpreter() -> float:
    """Seconds for a fixed slice of pure-Python work: the interpreter's speed right now."""
    t = time.perf_counter()
    acc, seen = 0, {}
    for i in range(50_000):
        acc = (acc * 31 + i) % 1_000_003
        seen[i & 255] = acc
    return time.perf_counter() - t


def _probe_numpy() -> float:
    """Seconds for a fixed run of small numpy calls like those of a DW evaluation."""
    import numpy as np

    a = np.arange(121, dtype=np.int64).reshape(11, 11)
    t = time.perf_counter()
    for _ in range(100):
        b = (a.astype(np.float64) @ a.astype(np.float64)) % 61
        np.kron(b.astype(np.int64) % 61, a[:3, :3])
    return time.perf_counter() - t


# probe kind -> (probe, its typical seconds on the 2-vCPU x86-64 VM the baseline comes from)
PROBES = {"interpreter": (_probe_interpreter, 0.0055), "numpy": (_probe_numpy, 0.0034)}


def _threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _tail(times_ms):
    """(value, percentile, samples beyond): the highest percentile with ten samples above it."""
    ordered = sorted(times_ms)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def _end_to_end(answered, attempted, op_ms, setup_s, rss_mb):
    return {
        "answers_per_s": {"value": answered / (sum(op_ms) / 1e3), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(op_ms), "unit": "ms"},
        "op_tail_ms": {"value": _tail(op_ms)[0], "unit": "ms"},
        "answered_ratio": {"value": answered / attempted, "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (ROOT / "src" / "arith_tqft" / "__init__.py").is_file():
        print(f"no engine sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    import arith_tqft.cli  # noqa: F401  (loads every engine module)
    from arith_tqft.errors import EngineError
    from tracing import Tracer
    from workloads import WORKLOADS, Refused, WrongAnswer

    known = {
        (f["workload"], f["group"], f["code"])
        for f in json.loads((HERE / "known_failures.json").read_text(encoding="utf-8"))["failures"]
    }
    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.enabled = True
    workload = WORKLOADS[args.workload]()
    workload.setup()
    tracer.enabled = False
    rng = random.Random(f"{args.workload}:{args.seed}")

    setup_wall = time.perf_counter() - _T0
    probe, ref_s = PROBES[workload.probe]
    probes = [(time.perf_counter(), probe())]
    op_ms, op_probe, answered, refused, unexpected, unchecked = [], [], 0, {}, {}, {}
    digest = hashlib.sha256()
    passes, pass_s, correct, abort = 0, [], True, None  # pass_s: seconds per pass, checks included
    # Whole passes only, so every run holds the same mix of cells.  Passes are
    # timed at reference speed, so the pass count does not follow the machine's
    # drift; the wall-clock cap bounds a run on a machine much slower than that.
    start = time.perf_counter()
    while abort is None and (
        passes == 0
        or sum(pass_s) + statistics.fmean(pass_s) <= args.seconds
        and (time.perf_counter() - start) * (passes + 1) / passes <= WALL_CAP * args.seconds
    ):
        ops = workload.deal(rng)
        pass_start, first_probe_of_pass = time.perf_counter(), len(probes) - 1
        for op in ops:
            digest.update(repr(op.payload).encode())
            if time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
                probes.append((time.perf_counter(), probe()))
            op_probe.append(len(probes) - 1)
            tracer.op = len(op_ms)
            tracer.enabled = bool(args.trace)
            t = time.perf_counter()
            try:
                raw = workload.execute(op)
                code = None
            except EngineError as e:
                code = e.code
            op_ms.append((time.perf_counter() - t) * 1e3)
            tracer.enabled = False
            try:
                if code is None:
                    value = workload.answer(op, raw)
            except Refused as e:
                code = e.code
            if code is not None:
                bucket = refused if (args.workload, op.group, code) in known else unexpected
                bucket[code] = bucket.get(code, 0) + 1
                continue
            try:
                for field in workload.check(op, value):
                    name = f"{op.group}.{field}"
                    unchecked[name] = unchecked.get(name, 0) + 1
            except WrongAnswer as e:
                correct, abort = False, str(e)
                break
            answered += 1
            if args.workload == "count":
                tracer.primes.append(len(value["primes_used"]))
        passes += 1
        pass_speed = statistics.median(p for _, p in probes[first_probe_of_pass:])
        pass_s.append((time.perf_counter() - pass_start) * ref_s / pass_speed)
    probes.append((time.perf_counter(), probe()))

    probe_s = [p for _, p in probes]
    run_scale = ref_s / statistics.median(probe_s)
    scaled_ms = [
        t * ref_s / statistics.fmean(probe_s[max(0, i - PROBE_SPAN + 1) : i + PROBE_SPAN + 1])
        for t, i in zip(op_ms, op_probe)
    ]
    attempted = len(op_ms)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _, tail_pct, beyond = _tail(scaled_ms)
    unscaled = _end_to_end(answered, attempted, op_ms, setup_wall, rss_mb)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "ops_sha256": digest.hexdigest()[:16],
        "refused_by_code": refused,
        "failed_by_code": unexpected,
        "failed_ratio": (attempted - answered) / attempted,
        "unchecked": unchecked,
        "reference_routes": getattr(getattr(workload, "ref", None), "routes", {}),
        "op_tail": f"p{tail_pct:.1f} of {attempted} ops, {beyond} beyond",
        "unscaled": {k: v["value"] for k, v in unscaled.items()},
        "probe_ms_median": statistics.median(probe_s) * 1e3,
        "blas_threads": int(BLAS_THREADS),
        "process_threads": _threads(),
    }
    if abort:
        summary["wrong_answer"] = abort
    print("# " + json.dumps(summary, ensure_ascii=False))

    if args.trace:
        tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.jsonl")
        values = {
            k: v / run_scale if k.endswith("per_s") else v * run_scale if k.endswith("_s") else v
            for k, v in tracer.metrics().items()
        }
        values["trace.answers_per_s"] = answered / (sum(scaled_ms) / 1e3)
        values["trace.spans_n"] = len(tracer.spans)
        units = {"trace.answers_per_s": "1/s", "oracle.tuples_per_s": "1/s", "dw.primes_per_query": "count"}
        metrics = {
            k: {"value": v, "unit": units.get(k, "s" if k.endswith("_s") else "count")}
            for k, v in values.items()
        }
    else:
        metrics = _end_to_end(answered, attempted, scaled_ms, setup_wall * run_scale, rss_mb)
    failed = sum(unexpected.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
