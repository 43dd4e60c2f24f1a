"""Batch front-end: config parsing, experiment orchestration, CSV/JSON output.

Exit codes: 0 success, 1 invalid configuration, 2 at least one experiment
failed (the remaining experiments still run and the manifest records the
failure).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .experiments import EXPERIMENTS, load_config, run_experiments

__all__ = ["main"]

OUTPUT_DIR_ENV = "FERMIBALL_OUT"


def _read_config(path: str, **overrides):
    """The config at path; each override that is set replaces its field
    before the check, so it is checked as that field is."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        doc.update((key, value) for key, value in overrides.items() if value is not None)
    return load_config(doc)


def _cmd_run(args) -> int:
    out = args.out or os.environ.get(OUTPUT_DIR_ENV)
    try:
        config = _read_config(args.config, output_dir=out, workers=args.workers)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"config error: output directory {config.output_dir}: {err.strerror}", file=sys.stderr)
        return 1
    manifest, all_ok = run_experiments(config)
    for name, entry in manifest["experiments"].items():
        status = entry["status"]
        extra = entry.get("file", entry.get("error", ""))
        print(f"{name}: {status} {extra}")
    print(f"manifest: {config.output_dir / 'manifest.json'}")
    return 0 if all_ok else 2


def _cmd_list(_args) -> int:
    for name in EXPERIMENTS:
        print(name)
    return 0


def _cmd_validate(args) -> int:
    try:
        config = _read_config(args.config)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"invalid: {err}", file=sys.stderr)
        return 1
    print(f"ok: experiments={config.experiments}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fermiball",
        description="Fermi-ball lattice experiments: counting, patches, kernels, RPA energies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the experiments named in a config")
    p_run.add_argument("--config", required=True, help="path to a JSON run config")
    p_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="checked (>= 1) but without effect: experiments run one after another",
    )
    p_run.add_argument("--out", default=None, help=f"output directory (default ${OUTPUT_DIR_ENV} or config)")
    p_run.set_defaults(fn=_cmd_run)

    p_list = sub.add_parser("list-experiments", help="print the experiment registry")
    p_list.set_defaults(fn=_cmd_list)

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(fn=_cmd_validate)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
