"""Run the benchmark over a grid of seeds and write one JSON summary.

From the repository root:

    python3 perfbench/grid.py --seeds 1-10 --seconds 20 --out perfbench/baseline.json

Each workload runs once per seed, one fresh process at a time, with tracing
off; then once more with --trace 1 on the first seed.  The summary holds every
run's metrics, each end-to-end metric's median and quartiles with the spread
(q3 − q1)/median, the traced run's per-layer metrics, and the tracing
overhead (the traced run's drop in answers_per_s against the untraced median).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-2][2:]), json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--workloads", default=None, help="comma-separated; default: all of BENCHMARK.json")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = _seeds(args.seeds)

    out = {"seconds": seconds, "seeds": seeds, "python": platform.python_version(), "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            summary, result = _run(workload, seed, seconds, 0)
            runs.append({"seed": seed, "summary": summary, "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(workload, seed, {k: round(v, 4) for k, v in runs[-1]["metrics"].items()}, flush=True)
        stats = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
        _, traced = _run(workload, seeds[0], seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        overhead = 1 - layers["trace.answers_per_s"] / stats["answers_per_s"]["median"]
        out["workloads"][workload] = {"end_to_end": stats, "per_layer": layers, "tracing_overhead": overhead, "runs": runs}
        print(workload, {k: (round(v["median"], 4), round(v["spread"], 3)) for k, v in stats.items()}, flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
