"""Batch experiments: convergence scans, invariant suites, bound-constant fits.

Every experiment maps onto one operation family of the library and emits one
CSV.  Each experiment declares its settable options once, as keyword-only
parameters whose defaults are the standard verification points; the config's
``options`` mapping overrides them, and a key that no experiment parameter
names is a config error.
"""

from __future__ import annotations

import csv
import inspect
import json
import logging
import math
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bogokernel, lattice, patches, rpa
from .lattice import FermiBall, InteractionPotential, build_fermi_ball

# hashlib loads _hashlib, which maps OpenSSL for the CSV digests alone: the
# interpreter's built-in SHA-256 gives the same digests without it
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # a build without the built-in module

__all__ = ["RunConfig", "ExperimentError", "EXPERIMENTS", "run_experiments", "load_config"]

log = logging.getLogger(__name__)

#: equator-cut exponent used by the patched-energy experiments; near the top
#: of the admissible range (0, 1/6) so the cut removes only genuinely
#: tangential modes at reachable particle numbers
ENERGY_DELTA = 0.16
UNIT_VECTORS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
#: the interaction momentum of the single-k lattice and normalisation scans
AXIS_K = (0, 0, 1)


class ExperimentError(RuntimeError):
    pass


class SeededDraws:
    """The run's seeded draws, from the interpreter's Mersenne Twister.

    It offers the three methods of a numpy Generator that the samplers
    (`lattice.sample_band`, `bogokernel.sample_mode_system`) and the swap
    check call, so no run loads numpy.random, which maps OpenSSL through
    secrets -> hmac -> _hashlib.  With size None a method draws one number.
    """

    def __init__(self, seed: int):
        self._random = random.Random(seed)

    def integers(self, low: int, high: int, size: int | None = None):
        """Integers uniform on [low, high), as an int64 array of size."""
        if size is None:
            return self._random.randrange(low, high)
        return np.fromiter((self._random.randrange(low, high) for _ in range(size)), np.int64, size)

    def uniform(self, low: float, high: float, size: int | None = None):
        """Floats uniform on [low, high), as a float64 array of size."""
        if size is None:
            return self._random.uniform(low, high)
        return np.fromiter((self._random.uniform(low, high) for _ in range(size)), np.float64, size)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        """size distinct integers of [0, n) in drawn order, as int64."""
        if replace:
            raise ValueError("only draws without replacement are offered")
        return np.array(self._random.sample(range(n), size), dtype=np.int64)


def _require_at_least(name: str, value, least: int) -> None:
    """Raise an ExperimentError naming the option if its value is below least."""
    if value < least:
        raise ExperimentError(f"{name} must be >= {least}, got {value!r}")


@dataclass
class RunConfig:
    """Validated run configuration."""

    #: the config's potential, or `default_potential()` where it sets none
    potential: InteractionPotential
    experiments: list[str]
    output_dir: Path
    seed: int = 0
    #: checked and echoed in the manifest; experiments run one at a time
    workers: int = 1
    options: dict = field(default_factory=dict)

    def echo(self) -> dict:
        return {
            "potential": [
                [list(k), v] for k, v in sorted(self.potential.items())
            ],
            "experiments": list(self.experiments),
            "output_dir": str(self.output_dir),
            "seed": self.seed,
            "workers": self.workers,
            "options": self.options,
        }


#: each top-level key of a run config, declared once as a value of its kind
#: (the rule of `_check`): a number, an integer, a string, or a list of such
#: entries or of [[integer, integer, integer], number] records; `options` is
#: declared by the experiments' keyword-only parameters; `n_particles` is
#: accepted and read by nothing
_FIELD_KINDS = {
    "n_particles": 1,
    "potential": (((0, 0, 0), 0.0),),
    "experiments": ("",),
    "output_dir": "",
    "seed": 0,
    "workers": 1,
}


def default_potential() -> InteractionPotential:
    return InteractionPotential({k: 0.05 for k in UNIT_VECTORS})


class BallCache:
    """Fermi balls by exact squared radius, each radius built once per run."""

    def __init__(self):
        self._balls: dict[str, FermiBall] = {}

    def get(self, ksq) -> FermiBall:
        key = str(Fraction(ksq))
        if key not in self._balls:
            self._balls[key] = build_fermi_ball(k_fermi_sq=Fraction(ksq))
        return self._balls[key]


@dataclass
class Context:
    config: RunConfig
    balls: BallCache


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, rows: list[dict]) -> None:
    """The rows under a header of the first row's keys, in its order; no
    rows make an empty file.  A row whose keys are not the header's is
    refused before the file is opened."""
    columns = list(rows[0]) if rows else []
    for i, row in enumerate(rows):
        if row.keys() != rows[0].keys():
            missing = [c for c in columns if c not in row]
            extra = [c for c in row if c not in rows[0]]
            raise ValueError(
                f"row {i} has other keys than the header: missing {missing}, extra {extra}"
            )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        if rows:
            writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


# --------------------------------------------------------------------------
# lattice experiments


def exp_gauss_count(ctx: Context, *, k_fermi_sq_grid=(25.5, 100.5, 400.5, 1600.5, 3600.5)):
    rows = []
    for ksq in k_fermi_sq_grid:
        ball = ctx.balls.get(ksq)
        volume = 4.0 * math.pi / 3.0 * ball.k_fermi**3
        rows.append(
            {
                "k_fermi": ball.k_fermi,
                "n": ball.n_particles,
                "ball_volume": volume,
                "rel_error": abs(ball.n_particles - volume) / volume,
            }
        )
    return rows


def exp_kinetic_sum_scaling(ctx: Context, *, k_fermi_sq_grid=(100.5, 400.5, 1600.5, 6400.5)):
    rows = []
    for ksq in k_fermi_sq_grid:
        ball = ctx.balls.get(ksq)
        total = lattice.kinetic_reciprocal_sum(ball, AXIS_K)
        rows.append(
            {
                "k_fermi": ball.k_fermi,
                "n": ball.n_particles,
                "total": total,
                "ratio_n13": total / ball.n_particles ** (1.0 / 3.0),
            }
        )
    return rows


def exp_equator_sum_scaling(
    ctx: Context, *, k_fermi_sq_grid=(100.5, 400.5, 1600.5, 6400.5), delta=1.0 / 24.0
):
    rows = []
    for ksq in k_fermi_sq_grid:
        ball = ctx.balls.get(ksq)
        total = lattice.equator_reciprocal_sum(ball, AXIS_K, delta)
        rows.append(
            {
                "k_fermi": ball.k_fermi,
                "n": ball.n_particles,
                "delta": delta,
                "total": total,
                "ratio": total / ball.n_particles ** (1.0 / 3.0 - delta),
            }
        )
    return rows


def exp_slice_count_bound(ctx: Context, *, k_fermi_sq_grid=(400.5, 1600.5, 6400.5)):
    gamma = 2.0 / 3.0
    rows = []
    for ksq in k_fermi_sq_grid:
        ball = ctx.balls.get(ksq)
        lo, counts = lattice.pair_gap_histogram(ball, AXIS_K)
        scale = ball.n_particles ** (gamma / 3.0)
        # slice lo holds at least one pair, so the first largest ratio is
        # positive and wins
        s = np.arange(lo, lo + len(counts))
        ratio = counts / (np.abs(s) + scale)
        i = int(np.argmax(ratio))
        c_fit, s_worst = float(ratio[i]), int(s[i])
        rows.append(
            {
                "k_fermi": ball.k_fermi,
                "n": ball.n_particles,
                "pairs": int(counts.sum()),
                "c_fit": c_fit,
                "s_worst": s_worst,
            }
        )
    return rows


def exp_ellipse_count(ctx: Context, *, axis_ratios=(1, 2, 5), radii=range(10, 301, 10)):
    rows = []
    for d0 in axis_ratios:
        for r in radii:
            # the full ellipse, then the annulus of width 5 below r
            for r_in in (0.0, max(0.0, r - 5.0)):
                count, area = lattice.annulus_count_vs_area(r_in, float(r), d0)
                rows.append(
                    {
                        "axis_ratio": d0,
                        "r_inner": r_in,
                        "r_outer": float(r),
                        "count": count,
                        "area": area,
                        "dev_ratio": abs(count - area) / r ** (2.0 / 3.0),
                    }
                )
    return rows


# --------------------------------------------------------------------------
# patch experiments


def exp_patch_audit(ctx: Context, *, k_fermi_sq=1600.5, m_grid=(6, 16, 30), r_v=2.0):
    # k_F = 40 keeps 2 r_v = 4 below the patch scale k_F / sqrt(M) at M = 30
    ball = ctx.balls.get(k_fermi_sq)
    rows = []
    for m in m_grid:
        decomp = patches.build_patches(m, ball, r_v)
        areas = decomp.angular_areas()
        audit = patches.audit_patches(decomp)
        n13 = ball.n_particles ** (1.0 / 3.0)
        rows.append(
            {
                "m_requested": m,
                "r_corridor": r_v,
                "min_separation": audit.min_separation,
                "separation_bound": 2.0 * r_v,
                "max_diameter": audit.max_diameter,
                "diameter_const": audit.max_diameter * math.sqrt(decomp.m_patches) / n13,
                "area_sum": float(areas.sum()),
                "corridor_area": 4.0 * math.pi - float(areas.sum()),
                "corridor_points": audit.corridor_points,
            }
        )
    return rows


def exp_normalization_asymptotics(ctx: Context, *, k_fermi_sq=3600.5, m_patches=16):
    ball = ctx.balls.get(k_fermi_sq)
    decomp = patches.build_patches(m_patches, ball, r_v=1.0)
    idx = patches.index_sets(decomp, AXIS_K, ENERGY_DELTA)
    counts = patches.pair_counts(decomp, AXIS_K)
    # AXIS_K is a unit vector, so k.omega is the cosine to the axis
    dots = decomp.k_dots(AXIS_K)
    rows = []
    for alpha in sorted(idx.plus_side + idx.minus_side):
        dot = float(dots[alpha])
        count = int(counts[alpha])
        predicted = 4.0 * math.pi * ball.k_fermi**2 / decomp.m_patches * abs(dot)
        rows.append(
            {
                "alpha": alpha,
                "k_dot_omega": dot,
                "pair_count": count,
                "predicted": predicted,
                "ratio": count / predicted if predicted > 0 else math.nan,
            }
        )
    return rows


# --------------------------------------------------------------------------
# kernel experiments


#: kernel_identities' columns after `size`, each a residual of the solve
_IDENTITY_COLUMNS = (
    "offdiagonal_rel", "spectrum_rel_dev", "l_block_dev", "hyperbolic", "orthogonality",
    "symplectic_plus", "symplectic_minus", "det_O",
)


def exp_kernel_identities(ctx: Context, *, n_systems=200, max_side=30):
    _require_at_least("n_systems", n_systems, 0)
    _require_at_least("max_side", max_side, 1)
    rng = SeededDraws(ctx.config.seed)
    systems = [bogokernel.sample_mode_system(rng, max_side=max_side) for _ in range(n_systems)]
    return [
        {"system": i, "size": ms.size, **{name: res[name] for name in _IDENTITY_COLUMNS}}
        for i, (ms, res) in enumerate(zip(systems, bogokernel.stacked_residuals(systems)))
    ]


def exp_kernel_bound_fit(ctx: Context, *, k_fermi_sq=1600.5, m_grid=(6, 16, 30)):
    # polar support: coarse layouts (M = 6) have patches exactly orthogonal
    # to the equatorial axes, which would empty those mode systems
    pot = InteractionPotential({(0, 0, 1): 0.1, (0, 0, -1): 0.1})
    ball = ctx.balls.get(k_fermi_sq)
    layouts = [patches.build_patches(m, ball, r_v=1.0) for m in m_grid]
    counts = {k: patches.pair_counts_by_layout(layouts, k) for k in pot.gamma_nor()}
    rows = []
    for i, (m, decomp) in enumerate(zip(m_grid, layouts)):
        for k in pot.gamma_nor():
            ms = bogokernel.build_mode_system(decomp, pot, k, ENERGY_DELTA, counts[k][i])
            sol = bogokernel.diagonalize(ms, checked=False)
            c_star, worst = bogokernel.check_kernel_bound(sol, ms)
            rows.append(
                {
                    "m_requested": m,
                    "k": f"{k.px} {k.py} {k.pz}",
                    "modes": ms.size,
                    "c_star": c_star,
                    "worst_alpha": worst[0],
                    "worst_beta": worst[1],
                    "c_star_sinh": bogokernel.check_sinh_bound(sol, ms),
                    "c_frak_minus_d": bogokernel.check_frakK_minus_D_bound(sol, ms),
                }
            )
    return rows


# --------------------------------------------------------------------------
# rpa experiments


def exp_rpa_compare(ctx: Context, *, schedule=((400.5, 8), (1600.5, 16), (6400.5, 30))):
    pot = default_potential()
    layouts = [patches.build_patches(m, ctx.balls.get(ksq), r_v=0.0) for ksq, m in schedule]
    counts = {k: patches.pair_counts_by_layout(layouts, k) for k in pot.gamma_nor()}
    rows = []
    for i, ((ksq, m), decomp) in enumerate(zip(schedule, layouts)):
        layout_counts = {k: walked[i] for k, walked in counts.items()}
        report = rpa.rpa_energy_trace(decomp, pot, ENERGY_DELTA, layout_counts)
        rows.append(
            {
                "k_fermi_sq": str(Fraction(ksq)),
                "m_requested": m,
                "n": decomp.ball.n_particles,
                "delta": ENERGY_DELTA,
                "e_analytic": report.e_analytic,
                "e_trace": report.e_trace,
                "rel_gap": report.relative_gap,
            }
        )
    return rows


def exp_small_v_fit(ctx: Context):
    chi = rpa.small_v_quadratic_coefficient(ctx.config.potential)
    ref = rpa.SMALL_V_REFERENCE_MAGNITUDE
    k2 = rpa.g_power_integral(2) / (2.0 * math.pi)
    rows = [
        {
            "chi": chi,
            "abs_chi": abs(chi),
            "reference_magnitude": ref,
            "magnitude_ratio": abs(chi) / ref,
            "quadratic_constant": k2,
        }
    ]
    return rows


# --------------------------------------------------------------------------
# Hartree-Fock experiments


def _boundary_bands(ball: FermiBall) -> tuple[tuple[int, int], tuple[int, int]]:
    """(q_lo, q_hi) of the occupied and of the empty momenta within one unit
    of the Fermi surface, the bands hf_stability draws its swaps from."""
    kf = ball.k_fermi
    holes = (math.ceil((kf - 1.0) ** 2), ball.norm_sq_max)
    particles = (ball.norm_sq_max + 1, math.floor((kf + 1.0) ** 2))
    return holes, particles


def exp_hf_stability(ctx: Context, *, k_fermi_sq=400.5, n_swaps=1000, n_check=50):
    # below 1 no occupied momentum lies within one unit of the Fermi surface,
    # so the hole band of `_boundary_bands` is empty
    _require_at_least("k_fermi_sq", k_fermi_sq, 1)
    _require_at_least("n_swaps", n_swaps, 1)
    _require_at_least("n_check", n_check, 0)
    ball = ctx.balls.get(k_fermi_sq)
    pot = ctx.config.potential
    lam_v1 = pot.ell1() / ball.n_particles
    if not lam_v1 < ball.hbar**2 / 2.0:
        raise ExperimentError(
            f"potential too strong for the stability regime: "
            f"lambda ||V||_1 = {lam_v1:.3e} >= hbar^2/2 = {ball.hbar ** 2 / 2:.3e}"
        )
    # each band is counted, and only the rows at the drawn ranks are built
    hole_band, particle_band = _boundary_bands(ball)
    rng = SeededDraws(ctx.config.seed)
    holes = lattice.sample_band(*hole_band, rng, n_swaps)
    particles = lattice.sample_band(*particle_band, rng, n_swaps)
    gaps = lattice.excitation_energy(ball, pot, holes, particles)
    e0 = lattice.hartree_fock_energy(ball, pot)
    rows = []
    check_ids = np.sort(rng.choice(n_swaps, size=min(n_check, n_swaps), replace=False))
    energies = lattice.swap_energies(ball, pot, holes[check_ids], particles[check_ids])
    worst_rel = 0.0
    for i, energy in zip(check_ids.tolist(), energies):
        h = holes[i]
        p = particles[i]
        full = energy - e0
        rel = abs(full - gaps[i]) / max(abs(full), 1e-300)
        worst_rel = max(worst_rel, rel)
        rows.append(
            {
                "swap": i,
                "hole": f"{h[0]} {h[1]} {h[2]}",
                "particle": f"{p[0]} {p[1]} {p[2]}",
                "excitation": float(gaps[i]),
                "full_difference": full,
                "rel_dev": rel,
            }
        )
    summary = {
        "swap": -1,
        "hole": "summary",
        "particle": f"n_swaps={n_swaps}",
        "excitation": float(gaps.min()),
        "full_difference": float(gaps.max()),
        "rel_dev": worst_rel,
    }
    return [summary] + rows


EXPERIMENTS = {
    "gauss_count": exp_gauss_count,
    "kinetic_sum_scaling": exp_kinetic_sum_scaling,
    "equator_sum_scaling": exp_equator_sum_scaling,
    "slice_count_bound": exp_slice_count_bound,
    "ellipse_count": exp_ellipse_count,
    "patch_audit": exp_patch_audit,
    "normalization_asymptotics": exp_normalization_asymptotics,
    "kernel_identities": exp_kernel_identities,
    "kernel_bound_fit": exp_kernel_bound_fit,
    "rpa_compare": exp_rpa_compare,
    "small_v_fit": exp_small_v_fit,
    "hf_stability": exp_hf_stability,
}


def _option_defaults(fn) -> dict:
    """The keyword-only parameters of experiment fn, its settable options,
    each with its default."""
    params = inspect.signature(fn).parameters.values()
    return {p.name: p.default for p in params if p.kind is inspect.Parameter.KEYWORD_ONLY}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_kind(value, kind) -> bool:
    """Whether a JSON value is of a scalar kind: a string for a str, an
    integer for an int, and for a float a number within the finite floats (a
    bool or a string is neither)."""
    if isinstance(kind, str):
        return isinstance(value, str)
    if _is_int(kind):
        return _is_int(value)
    number = _is_int(value) or isinstance(value, float)
    return number and abs(value) <= sys.float_info.max


def _kind_name(kind) -> str:
    if isinstance(kind, str):
        return "a string"
    return "an integer" if _is_int(kind) else "a finite number"


def _place(path) -> str:
    """A place in a config document: its top-level key, then subscripts."""
    return str(path[0]) + "".join(f"[{p!r}]" for p in path[1:]) if path else "config"


def _check(value, kind, path=()) -> None:
    """Raise a ValueError naming the first key that kind does not declare, or
    the first value not of its declared kind, with its place in the document.

    A dict declares a JSON object's keys, each with its kind.  A key declared
    as a tuple or a range takes a list whose every entry is of the kind of its
    first entry; a tuple entry is a record, a list of its length entry by
    entry; anything else is a scalar kind (`_is_kind`)."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{_place(path)} must be a JSON object, got {value!r}")
        for key, entry in value.items():
            if key not in kind:
                raise ValueError(f"unknown key {key!r} in {_place(path)}")
            declared, at = kind[key], (*path, key)
            if not isinstance(declared, (tuple, range)):
                _check(entry, declared, at)
            elif not isinstance(entry, list):
                raise ValueError(f"{_place(at)} must be a list, got {entry!r}")
            else:
                for i, item in enumerate(entry):
                    _check(item, declared[0], (*at, i))
    elif isinstance(kind, tuple):
        if not (isinstance(value, list) and len(value) == len(kind)):
            expected = f"a list of {len(kind)} entries"
            raise ValueError(f"{_place(path)} must be {expected}, got {value!r}")
        for i, (item, item_kind) in enumerate(zip(value, kind)):
            _check(item, item_kind, (*path, i))
    elif not _is_kind(value, kind):
        raise ValueError(f"{_place(path)} must be {_kind_name(kind)}, got {value!r}")


def load_config(doc: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document: every key and value is
    checked against its declaration, then converted and range-checked."""
    options = {name: _option_defaults(fn) for name, fn in EXPERIMENTS.items()}
    _check(doc, {**_FIELD_KINDS, "options": options})
    for key, least in (("seed", 0), ("workers", 1)):
        if doc.get(key, least) < least:
            raise ValueError(f"{key} must be >= {least}, got {doc[key]!r}")
    potential = InteractionPotential(doc.get("potential", []))
    experiments = list(doc.get("experiments", []))
    for i, name in enumerate(experiments):
        if name not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {name!r}")
        # a second run would write its CSV again under one manifest entry
        if name in experiments[:i]:
            raise ValueError(f"experiment {name!r} is named twice in experiments")
    return RunConfig(
        potential=potential if potential.support else default_potential(),
        experiments=experiments,
        output_dir=Path(doc.get("output_dir", "out")),
        seed=doc.get("seed", 0),
        workers=doc.get("workers", 1),
        options=doc.get("options", {}),
    )


def _sha256(path: Path) -> str:
    return sha256(path.read_bytes()).hexdigest()


def run_experiments(config: RunConfig) -> tuple[dict, bool]:
    """Execute the configured experiments; returns (manifest, all_ok).

    Experiments run one after another in the calling thread, in config order,
    and each writes its CSV as it finishes; the config's ``workers`` key is
    accepted and echoed but has no effect.
    """
    t_run = time.perf_counter()
    config.output_dir.mkdir(parents=True, exist_ok=True)
    ctx = Context(config=config, balls=BallCache())
    results: dict[str, dict] = {}
    all_ok = True
    for name in config.experiments:
        path = config.output_dir / f"{name}.csv"
        try:
            # a failed experiment leaves no CSV of an earlier run beside its entry
            path.unlink(missing_ok=True)
            t0 = time.perf_counter()
            rows = EXPERIMENTS[name](ctx, **config.options.get(name, {}))
            elapsed = time.perf_counter() - t0
            _write_csv(path, rows)
            entry = {
                "status": "ok",
                "file": path.name,
                "rows": len(rows),
                "runtime_s": round(elapsed, 3),
                "sha256": _sha256(path),
            }
        except Exception as err:  # noqa: BLE001 - recorded, run continues
            log.error("experiment %s failed: %s", name, err)
            entry = {"status": "failed", "error": f"{type(err).__name__}: {err}"}
            all_ok = False
        results[name] = entry

    from . import __version__

    manifest = {
        "config": config.echo(),
        "version": __version__,
        "experiments": results,
        "wall_s": time.perf_counter() - t_run,
        # ru_maxrss is the process's peak, not this run's alone: in bytes on
        # macOS, in KiB on Linux
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / (1 << 20 if sys.platform == "darwin" else 1 << 10),
            1,
        ),
    }
    manifest_path = config.output_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest, all_ok
