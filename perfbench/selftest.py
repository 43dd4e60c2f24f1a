"""Self-test of the benchmark harness (about 15 s).

Usage, from the root of a checkout: python3 perfbench/selftest.py

Checks that a corrupted or truncated CSV counts as a failed operation, that
a failing experiment counts as one failed operation while the run and the
benchmark go on, and that the metrics the harness emits are exactly the ones
BENCHMARK.json declares.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

from run import ROOT, WORK, Runner, measure, measure_traced
from workloads import WORKLOADS

#: registry_default's reference covers these; both take well under a second
QUICK = ["gauss_count", "small_v_fit"]


def _runner(tag: str, **changes) -> Runner:
    workload = dataclasses.replace(WORKLOADS["registry_default"], workers=1, **changes)
    work = WORK / f"selftest-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return Runner(workload, seed=7, work=work)


def corrupted_csv() -> list[str]:
    runner = _runner("corrupt", experiments=QUICK)
    runner.run()
    out = runner.work / "run1"
    errors = []
    if (runner.attempted, runner.failed) != (2, 0):
        errors.append(f"clean run: {runner.failed} of {runner.attempted} failed, expected 0 of 2")
    path = out / "gauss_count.csv"
    lines = path.read_text().splitlines()
    header, first = lines[0].split(","), lines[1].split(",")
    col = header.index("n")
    first[col] = str(int(first[col]) + 1)
    path.write_text("\n".join([lines[0], ",".join(first), *lines[2:]]) + "\n")
    runner.record(out, 0)
    if runner.failed != 1:
        errors.append(f"count off by one: {runner.failed} failed, expected 1")
    path.write_text("\n".join(lines[:-1]) + "\n")  # one grid point missing
    runner.record(out, 0)
    if runner.failed != 2:
        errors.append(f"truncated CSV: {runner.failed} failed in total, expected 2")
    (out / "small_v_fit.csv").write_text("garbage\n")
    runner.record(out, 0)
    if runner.failed != 4:
        errors.append(f"unreadable CSV: {runner.failed} failed in total, expected 4")
    return errors


def failing_experiment() -> list[str]:
    # a corridor wider than the patch scale makes patch_audit raise
    experiments = ["gauss_count", "patch_audit", "small_v_fit"]
    runner = _runner("fail", experiments=experiments, options={"patch_audit": {"r_v": 30.0}})
    metrics = measure(runner, seconds=0.0)
    errors = []
    if (runner.attempted, runner.failed) != (3, 1):
        errors.append(f"{runner.failed} of {runner.attempted} failed, expected 1 of 3")
    if not any("patch_audit: status failed" in p for p in runner.problems):
        errors.append(f"patch_audit failure not recorded: {runner.problems}")
    if abs(metrics["ok_frac"] - 2.0 / 3.0) > 1e-12:
        errors.append(f"ok_frac {metrics['ok_frac']}, expected 2/3")
    runner.run()  # the benchmark goes on after a failed operation
    if (runner.attempted, runner.failed) != (6, 2):
        errors.append(f"second run: {runner.failed} of {runner.attempted} failed, expected 2 of 6")
    return errors


def declared_metrics() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = _runner("metrics", experiments=QUICK)
    end_to_end = measure(runner, seconds=0.0)
    per_layer = measure_traced(runner, 0.0, runner.work / "spans.json")
    errors = []
    for kind, emitted in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        declared = {m["name"] for m in spec[kind]}
        if declared != set(emitted):
            errors.append(
                f"{kind}: declared but not emitted {sorted(declared - set(emitted))}, "
                f"emitted but not declared {sorted(set(emitted) - declared)}"
            )
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    if declared != {w.name: w.why for w in WORKLOADS.values()}:
        errors.append("BENCHMARK.json workloads differ from workloads.py")
    if runner.failed:
        errors.append(f"quick runs failed: {runner.problems}")
    return errors


def main() -> int:
    ok = True
    try:
        for test in (corrupted_csv, failing_experiment, declared_metrics):
            errors = test()
            ok &= not errors
            print(f"{'PASS' if not errors else 'FAIL'} {test.__name__}")
            for e in errors:
                print(f"    {e}")
    finally:
        for work in WORK.glob("selftest-*"):
            shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
