"""Regenerate reference.json: the seed-independent outputs of every workload.

Usage, from the root of a checkout: python3 perfbench/make_reference.py

Run it only at a commit whose outputs are trusted; the committed file was
made at the baseline commit 7a54144.  For each workload it runs
`fermiball run` once and keeps, per experiment, the columns that
check.REFERENCE_COLUMNS names.  Those columns do not depend on the seed.
"""

from __future__ import annotations

import json
import shutil
import sys

from check import REFERENCE_COLUMNS, REFERENCE_PATH, read_csv, reference_rows
from run import SRC, WORK, child
from workloads import WORKLOADS


def main() -> int:
    work = WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    doc = {}
    try:
        for workload in WORKLOADS.values():
            config = work / f"{workload.name}.json"
            config.write_text(json.dumps(workload.config(seed=0)))
            out = work / workload.name
            argv = [sys.executable, "-m", "fermiball.cli", "run", "--config", str(config), "--out", str(out)]
            _, _, code = child(argv, workload.env(str(SRC)), work / f"{workload.name}.log")
            if code != 0:
                print(f"{workload.name}: fermiball run exited {code}", file=sys.stderr)
                return 1
            doc[workload.name] = {
                name: reference_rows(read_csv(out / f"{name}.csv")[1], name)
                for name in workload.experiments
                if REFERENCE_COLUMNS[name] is not None
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
