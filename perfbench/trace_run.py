"""Traced in-process `fermiball run`: spans around every layer call.

Usage: python3 perfbench/trace_run.py --config CFG --out DIR --workers W --spans FILE

The package is imported from PYTHONPATH and left untouched: its public
functions are wrapped from outside, in the defining module and at every
``from ... import`` site, and a few named internals (the experiment registry,
the CSV writer, the ball and shell caches, the KD-tree pair search and the
thread pool) are wrapped where ``experiments`` looks them up.  Spans stay in
memory and are written to FILE at the end, together with the per-layer
metrics computed from them.  Self time is a span's duration minus the time
covered by its child spans; the spans of one experiment share its name as
trace identifier.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import wraps

from workloads import ALL_EXPERIMENTS, THREAD_VARS

LAYERS = ("lattice", "patches", "bogokernel", "rpa", "experiments", "cli")
#: called once per quadrature node; a span each would swamp the quadrature
NOT_TRACED = {"rpa.g_profile"}
#: stages whose self time is fitted against N (ROADMAP aim 1)
SCALING_STAGES = {
    "build_fermi_ball": "lattice.build_fermi_ball",
    "shell_pairs": "lattice.shell_pairs",
    "kinetic_reciprocal_sum": "lattice.kinetic_reciprocal_sum",
    "shell_assignment": "patches.shell_assignment",
}


@dataclass(slots=True)
class Span:
    span_id: int
    parent_id: int
    trace_id: str
    name: str
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self, ball_type):
        self.spans: list[Span] = []
        self.queue_waits: list[float] = []
        self.pairs_examined = 0
        #: every ball built, kept to measure its arrays at the end of the run
        self.balls: list = []
        self._ball_type = ball_type
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, on_return=None, trace_id: str | None = None):
        """fn wrapped in a span; on_return(bound_args, result) adds attributes."""
        sig = inspect.signature(fn) if on_return else None

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                self._next_id += 1
                span_id = self._next_id
            parent = stack[-1] if stack else None
            trace = trace_id or (parent.trace_id if parent else "run")
            span = Span(span_id, parent.span_id if parent else 0, trace, name)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                self.spans.append(span)
            for arg in args:
                if isinstance(arg, self._ball_type):
                    span.attrs["n"] = arg.n_particles
                    break
            if on_return is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(on_return(bound.arguments, result))
            return result

        return traced


def install(tracer: Tracer, fb) -> None:
    """Wrap the layer functions of package `fb` (already imported)."""
    from concurrent.futures import ThreadPoolExecutor

    from scipy.spatial import cKDTree

    modules = {name: getattr(fb, name) for name in LAYERS}
    hooks = _hooks(tracer, fb)
    wrapped = {}
    for short, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            qual = f"{short}.{name}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
                and qual not in NOT_TRACED
            ):
                wrapped[id(obj)] = tracer.wrap(qual, obj, hooks.get(qual))
    # every import site, the package namespace included
    for mod in [fb, *modules.values()]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                setattr(mod, name, wrapped[id(obj)])

    exp = fb.experiments
    for name, fn in list(exp.EXPERIMENTS.items()):
        exp.EXPERIMENTS[name] = tracer.wrap(f"experiments.{name}", fn, trace_id=name)
    exp._write_csv = tracer.wrap("experiments.write_csv", exp._write_csv, hooks["experiments.write_csv"])
    exp.BallCache.get = tracer.wrap("experiments.ball_cache.get", exp.BallCache.get)
    pd = fb.patches.PatchDecomposition
    pd.shell_assignment = tracer.wrap(
        "patches.shell_assignment", pd.shell_assignment, hooks["patches.shell_assignment"]
    )

    class CountingKDTree(cKDTree):
        def query_pairs(self, *args, **kwargs):
            pairs = super().query_pairs(*args, **kwargs)
            with tracer._lock:
                tracer.pairs_examined += len(pairs)
            return pairs

    class QueueTimedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted = time.perf_counter()

            def started(*a, **kw):
                tracer.queue_waits.append(time.perf_counter() - submitted)
                return fn(*a, **kw)

            return super().submit(started, *args, **kwargs)

    exp.cKDTree = CountingKDTree
    exp.ThreadPoolExecutor = QueueTimedPool


def _hooks(tracer: Tracer, fb) -> dict:
    index_sets = fb.patches.index_sets
    seen_assignments: dict[int, object] = {}

    def ball_built(a, ball):
        tracer.balls.append(ball)
        return {"n": ball.n_particles, "ksq": str(ball.k_fermi_sq)}

    def assignment(a, asg):
        with tracer._lock:
            built = id(asg) not in seen_assignments
            seen_assignments[id(asg)] = asg  # held, so an id is never reused
        return {"built": built, "points": len(asg.points) if built else 0}

    def mode_system(a, ms):
        # modes the index set offered but the system does not carry
        offered = len(index_sets(a["decomp"], a["k"], a["delta"]))
        return {"modes": ms.size, "dropped": offered - ms.size}

    return {
        "lattice.build_fermi_ball": ball_built,
        "patches.shell_assignment": assignment,
        "patches.build_patches": lambda a, d: {"m_requested": a["m_patches"], "m_actual": d.m_patches},
        "bogokernel.build_mode_system": mode_system,
        "bogokernel.diagonalize": lambda a, sol: {"size_cubed": a["ms"].size ** 3},
        "rpa.rpa_energy_trace": lambda a, rep: {"rel_gap": rep.relative_gap},
        "experiments.write_csv": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    }


def _array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds, one attribute level deep."""
    import numpy as np

    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif hasattr(value, "__dict__"):
            total += sum(v.nbytes for v in vars(value).values() if isinstance(v, np.ndarray))
    return total


def _slope(points: dict[int, list[float]]) -> float:
    """Least-squares slope of log(mean time per call) against log N."""
    xs, ys = [], []
    for n, times in sorted(points.items()):
        mean = sum(times) / len(times)
        if n > 0 and mean > 0:
            xs.append(math.log(n))
            ys.append(math.log(mean))
    if len(xs) < 2:
        return 0.0  # fewer than two radii on this workload
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(tracer: Tracer, experiment_names, import_s: float) -> dict[str, float]:
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def self_s(*names):
        return math.fsum(s.self_s for n in names for s in spans(n))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans(name))

    m: dict[str, float] = {}
    m["experiments.min_patch_separation.self_s"] = self_s("experiments.min_patch_separation")
    m["experiments.min_patch_separation.pairs_examined"] = tracer.pairs_examined

    m["lattice.build_fermi_ball.self_s"] = self_s("lattice.build_fermi_ball")
    m["lattice.build_fermi_ball.calls"] = len(spans("lattice.build_fermi_ball"))
    m["lattice.points_materialised"] = attr_sum("lattice.build_fermi_ball", "n")
    m["lattice.ball_bytes"] = sum(_array_bytes(b) for b in tracer.balls)
    for stage in ("shell_pairs", "kinetic_reciprocal_sum", "hartree_fock_energy"):
        m[f"lattice.{stage}.self_s"] = self_s(f"lattice.{stage}")
    m["lattice.excitation_energy.self_s"] = self_s("lattice.excitation_energy")
    m["lattice.excitation_energy.calls"] = len(spans("lattice.excitation_energy"))
    m["experiments.hf_energy_of_occupation.self_s"] = self_s("experiments.hf_energy_of_occupation")

    m["patches.build_patches.self_s"] = self_s("patches.build_patches")
    asg = spans("patches.shell_assignment")
    builds = sum(1 for s in asg if s.attrs.get("built"))
    m["patches.shell_assignment.self_s"] = self_s("patches.shell_assignment")
    m["patches.shell_assignment.calls"] = len(asg)
    m["patches.shell_assignment.builds"] = builds
    m["patches.shell_assignment.hit_frac"] = 1.0 - builds / len(asg) if asg else 0.0
    m["patches.shell_points"] = attr_sum("patches.shell_assignment", "points")
    m["patches.pair_count.self_s"] = self_s("patches.pair_count")
    m["patches.pair_count.calls"] = len(spans("patches.pair_count"))
    requested = attr_sum("patches.build_patches", "m_requested")
    m["patches.m_built_frac"] = (
        attr_sum("patches.build_patches", "m_actual") / requested if requested else 0.0
    )

    m["bogokernel.build_mode_system.self_s"] = self_s("bogokernel.build_mode_system")
    m["bogokernel.build_mode_system.calls"] = len(spans("bogokernel.build_mode_system"))
    m["bogokernel.modes"] = attr_sum("bogokernel.build_mode_system", "modes")
    m["bogokernel.modes_dropped"] = attr_sum("bogokernel.build_mode_system", "dropped")
    m["bogokernel.diagonalize.self_s"] = self_s("bogokernel.diagonalize")
    m["bogokernel.diagonalize.calls"] = len(spans("bogokernel.diagonalize"))
    m["bogokernel.diagonalize.size_cubed"] = attr_sum("bogokernel.diagonalize", "size_cubed")

    m["rpa.rpa_energy_trace.self_s"] = self_s("rpa.rpa_energy_trace")
    # rpa_mode_integral is a thin shell over the _with_error quadrature
    m["rpa.rpa_mode_integral.self_s"] = self_s("rpa.rpa_mode_integral", "rpa.rpa_mode_integral_with_error")
    m["rpa.rpa_mode_integral.calls"] = len(spans("rpa.rpa_mode_integral_with_error"))
    traces = sorted(spans("rpa.rpa_energy_trace"), key=lambda s: s.end)
    m["rpa.rel_gap_final"] = traces[-1].attrs["rel_gap"] if traces else 0.0

    for name in experiment_names:
        m[f"experiments.{name}.s"] = math.fsum(s.duration for s in spans(f"experiments.{name}"))
    m["experiments.queue_wait_s"] = math.fsum(tracer.queue_waits)
    gets = {s.span_id for s in spans("experiments.ball_cache.get")}
    cache_builds = [s for s in spans("lattice.build_fermi_ball") if s.parent_id in gets]
    m["experiments.ball_cache.requests"] = len(gets)
    m["experiments.ball_cache.builds"] = len(cache_builds)
    m["experiments.ball_cache.dup_builds"] = len(cache_builds) - len({s.attrs["ksq"] for s in cache_builds})
    m["experiments.write_csv.self_s"] = self_s("experiments.write_csv")
    m["experiments.csv_bytes"] = attr_sum("experiments.write_csv", "bytes")

    m["cli.load_config.self_s"] = self_s("experiments.load_config")
    m["cli.import_s"] = import_s

    for stage, name in SCALING_STAGES.items():
        per_n: dict[int, list[float]] = {}
        for s in spans(name):
            if "n" in s.attrs and (name != "patches.shell_assignment" or s.attrs.get("built")):
                per_n.setdefault(s.attrs["n"], []).append(s.self_s)
        m[f"lattice.scaling_exponent.{stage}"] = _slope(per_n)
    return m


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import fermiball
    import fermiball.cli  # noqa: F401 - timed: interpreter-side import cost

    import_s = time.perf_counter() - t0
    tracer = Tracer(fermiball.lattice.FermiBall)
    install(tracer, fermiball)
    code = fermiball.cli.main(
        ["run", "--config", args.config, "--out", args.out, "--workers", str(args.workers)]
    )
    doc = {
        "exit_code": code,
        "environment": environment(),
        "metrics": layer_metrics(tracer, ALL_EXPERIMENTS, import_s),
        "spans": [
            [s.span_id, s.parent_id, s.trace_id, s.name, s.start, s.end, s.self_s, s.attrs]
            for s in tracer.spans
        ],
    }
    with open(args.spans, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
