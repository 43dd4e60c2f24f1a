"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --seeds 10 [--first-seed 1] [--workload NAME ...]
                               [--trace 0|1] [--out perfbench/results/NAME.json]

For every workload it runs run.py once per seed, then reports per metric the
median, the quartiles (statistics.quantiles, n=4) and the spread, which is the
distance between the quartiles as a share of the median.  A perf change
quotes these for the parent and for the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: {proc.stdout.strip().splitlines()[-1]}", flush=True)
        metrics = {}
        for metric in sorted(results[0]["metrics"]):
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
            metrics[metric] = {
                "unit": results[0]["metrics"][metric]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / abs(median) if median else 0.0,
                "values": values,
            }
        summary["workloads"][name] = {
            "runs": len(results),
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        for metric, m in metrics.items():
            print(f"  {name} {metric}: median {m['median']:.6g} {m['unit']} spread {m['spread']:.4f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
