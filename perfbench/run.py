"""fermiball benchmark: times `fermiball run` end to end, or traces its layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every run is a fresh `python -m fermiball.cli run` child on the package in the
checkout's ``src/``, with the workload's BLAS threads pinned.  With
``--trace 0`` the benchmark first times ``fermiball validate`` on the same
config SETUP_REPEATS times (setup_s), then starts runs back to back for as
long as the next run is expected to end within S seconds (at least one), and
reports medians over the runs.  With ``--trace 1`` it alternates an untraced
run with a traced in-process run (trace_run.py) in the same window and
reports the per-layer metrics plus the tracing overhead.  Every run's CSVs
pass through check.py; one operation is one experiment of one run.

The last line of standard output is the JSON result.  The benchmark writes
only below ``perfbench/.work`` and exits 2 without a result when the checkout
holds no package source.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_run, load_reference
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
#: setup_s is the median of this many fresh `fermiball validate` processes
SETUP_REPEATS = 7


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_frac"):
        return "frac"
    if ".scaling_exponent." in name:
        return "exponent"
    if name == "rpa.rel_gap_final":
        return "ratio"
    return "count"


def child(argv: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Run one process to its end: (wall seconds, peak RSS in MB, exit code).

    Peak RSS comes from this child's own rusage through wait4, so earlier
    children never inflate it.
    """
    with open(log, "w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Runner:
    """Runs of one workload at one seed, with the operations they attempted."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.env = workload.env(str(SRC))
        self.config = work / "config.json"
        self.config.write_text(json.dumps(workload.config(seed), indent=1))
        self.references = load_reference()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._count = 0

    def _out_dir(self) -> Path:
        self._count += 1
        out = self.work / f"run{self._count}"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def validate(self) -> float:
        argv = [sys.executable, "-m", "fermiball.cli", "validate", "--config", str(self.config)]
        wall, _, code = child(argv, self.env, self.work / "validate.log")
        if code != 0:
            raise RuntimeError(f"fermiball validate exited {code}; see {self.work / 'validate.log'}")
        return wall

    def record(self, out: Path, code: int) -> None:
        per_experiment = check_run(self.workload, out, self.references)
        if code not in (0, 2):
            # a crash: nothing the manifest says can be trusted
            per_experiment = {n: p or [f"exit code {code}"] for n, p in per_experiment.items()}
        for name, problems in per_experiment.items():
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{out.name}/{name}: {p}" for p in problems]

    def run(self) -> tuple[float, float]:
        """One untraced `fermiball run`: (wall seconds, peak RSS MB)."""
        out = self._out_dir()
        argv = [
            sys.executable, "-m", "fermiball.cli", "run", "--config", str(self.config),
            "--out", str(out), "--workers", str(self.workload.workers),
        ]
        wall, rss, code = child(argv, self.env, out.with_suffix(".log"))
        self.record(out, code)
        return wall, rss

    def traced(self, spans: Path) -> tuple[float, dict]:
        """One traced in-process run: (wall seconds, trace document)."""
        out = self._out_dir()
        spans.unlink(missing_ok=True)
        argv = [
            sys.executable, str(BENCH_DIR / "trace_run.py"), "--config", str(self.config),
            "--out", str(out), "--workers", str(self.workload.workers), "--spans", str(spans),
        ]
        wall, _, code = child(argv, self.env, out.with_suffix(".log"))
        self.record(out, code)
        try:
            doc = json.loads(spans.read_text())
        except (OSError, ValueError):
            doc = {"metrics": {}, "environment": {}}
        return wall, doc


def _another(t0: float, done: int, seconds: float) -> bool:
    """Whether one more run, as long as the mean so far, ends inside the window."""
    elapsed = time.perf_counter() - t0
    return elapsed + elapsed / done <= seconds


def measure(runner: Runner, seconds: float) -> dict:
    setups = [runner.validate() for _ in range(SETUP_REPEATS)]
    walls, rss = [], []
    t0 = time.perf_counter()
    while not walls or _another(t0, len(walls), seconds):
        w, r = runner.run()
        walls.append(w)
        rss.append(r)
    print(f"# runs={len(walls)} wall_s={[round(w, 3) for w in walls]} "
          f"peak_rss_mb={[round(r, 1) for r in rss]} setup_s={[round(s, 3) for s in setups]}")
    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }


def measure_traced(runner: Runner, seconds: float, spans: Path) -> dict:
    plain, traced, docs = [], [], []
    t0 = time.perf_counter()
    while not traced or _another(t0, len(traced), seconds):
        plain.append(runner.run()[0])
        wall, doc = runner.traced(spans)
        traced.append(wall)
        docs.append(doc)
    print(f"# environment {json.dumps(docs[-1].get('environment', {}), sort_keys=True)}")
    print(f"# runs={len(traced)} untraced wall_s={[round(w, 3) for w in plain]} "
          f"traced wall_s={[round(w, 3) for w in traced]}")
    names = sorted({k for d in docs for k in d["metrics"]})
    metrics = {
        k: statistics.median(d["metrics"][k] for d in docs if k in d["metrics"]) for k in names
    }
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["fail_frac"] = runner.failed / runner.attempted
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fermiball" / "cli.py").is_file():
        print(f"no fermiball package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, args.seed, work)
        if args.trace:
            spans = WORK / f"spans-{workload.name}-seed{args.seed}.json"
            metrics = measure_traced(runner, args.seconds, spans)
        else:
            metrics = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in runner.problems[:20]:
        print(f"# FAILED {line}")
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"# non-finite metrics: {bad}")
    result = {
        "correct": runner.failed == 0 and not bad,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
