"""Append a trajectory point to baseline.json: medians and quartiles over several seeds.

    python3 bench/record.py --label "my change"

For every workload in BENCHMARK.json it runs the benchmark untraced with
seeds 1..RUNS, then traced with seeds 1..TRACE_RUNS, and stores for each
metric the median, the quartiles and the spread (quartile distance over
median), the percentile and sample count behind job_latency_tail_ms, and
the host's CPU count and Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
RUNS = 10
TRACE_RUNS = 3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    if trace == 0:
        tail = re.search(r"job_latency_tail_ms is p([0-9.]+) of ([0-9]+) samples", done.stdout)
        result["tail_percentile"], result["tail_samples"] = float(tail.group(1)), int(tail.group(2))
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} failed={result['failed']}", flush=True)
    return result


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "runs": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    point = {
        "label": args.label,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(1, RUNS + 1)),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, seed, spec["run_seconds"], 0) for seed in point["seeds"]]
        traced = [run_once(workload, seed, spec["run_seconds"], 1) for seed in range(1, TRACE_RUNS + 1)]
        point["workloads"][workload] = {
            "correct": all(r["correct"] for r in results + traced),
            "failed": sum(r["failed"] for r in results + traced),
            "attempted": sum(r["attempted"] for r in results + traced),
            "end_to_end": {
                m["name"]: {"unit": m["unit"], **summary([r["metrics"][m["name"]]["value"] for r in results])}
                for m in spec["end_to_end"]
            },
            "tail_percentile": summary([r["tail_percentile"] for r in results]),
            "tail_samples": summary([r["tail_samples"] for r in results]),
            "per_layer": {
                m["name"]: {"unit": m["unit"], **summary([r["metrics"][m["name"]]["value"] for r in traced])}
                for m in spec["per_layer"]
            },
        }
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    baseline["points"].append(point)
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    for workload, data in point["workloads"].items():
        for name, s in data["end_to_end"].items():
            print(f"{workload:16s} {name:22s} median {s['median']:.5g} {s['unit']} spread {s.get('spread', 0):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
