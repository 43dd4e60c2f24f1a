"""Output check for one `fermiball run`: one operation per experiment.

An experiment's operation fails when the manifest does not record it as
``ok`` or when its CSV fails the check below.  The check holds for any seed:

* values fixed by the mathematics (lattice counts, reciprocal sums, ellipse
  counts and areas, the analytic RPA energy, chi) are compared with
  ``reference.json``, taken at the baseline commit 7a54144 by ``make_reference.py``;
* values that depend on the patch layout or the seed are checked against the
  paper's invariants and the acceptance tolerances instead.

``rel_gap`` of ``rpa_compare`` is reported, never gated: acceptance
criterion 5 (final gap < 0.15) is red at the baseline commit and must stay
visible rather than be hidden by the benchmark.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: sums of positive terms: any summation order of n <= 2e6 float64 terms
#: differs by at most n * 2^-53 ~ 2.2e-10 relative, so 1e-9 admits every
#: order, while one lost or extra term moves a sum here by more than 1e-6
SUM_RTOL = 1e-9
#: quadrature values: rpa_mode_integral targets epsrel 1e-12; chi divides by
#: eps^2 = 1e-8 in its Richardson step, and criterion 6 accepts 1e-6 there
QUAD_RTOL = {"e_analytic": 1e-9, "chi": 1e-6}
#: key columns must match the reference row to float round-off
KEY_RTOL = 1e-12

#: columns compared with the reference; keys identify the row
REFERENCE_COLUMNS = {
    "gauss_count": {"key": ["k_fermi"], "exact": ["n"], "float": []},
    "kinetic_sum_scaling": {"key": ["k_fermi"], "exact": ["n"], "float": ["total"]},
    "equator_sum_scaling": {"key": ["k_fermi", "delta"], "exact": ["n"], "float": ["total"]},
    "slice_count_bound": {"key": ["k_fermi"], "exact": ["n", "pairs", "s_worst"], "float": ["c_fit"]},
    "ellipse_count": {"key": ["axis_ratio", "r_inner", "r_outer"], "exact": ["count"], "float": ["area"]},
    "rpa_compare": {"key": ["k_fermi_sq", "m_requested"], "exact": ["n"], "float": ["e_analytic"]},
    "small_v_fit": {"key": [], "exact": [], "float": ["chi"]},
    # layout- or seed-dependent: only the row count is referenced
    "kernel_identities": {"key": ["system"], "exact": [], "float": []},
    "kernel_bound_fit": {"key": ["m_requested", "k"], "exact": [], "float": []},
    "patch_audit": {"key": ["m_requested"], "exact": [], "float": []},
    "hf_stability": {"key": [], "exact": [], "float": []},
    "normalization_asymptotics": None,  # row count follows the layout
}

#: kernel residual tolerances: criteria 1-3 of the acceptance suite and the
#: matching unit tests of the kernel module
KERNEL_TOL = {
    "offdiagonal_rel": 1e-10,
    "spectrum_rel_dev": 1e-9,
    "l_block_dev": 1e-9,
    "symplectic_plus": 1e-10,
    "symplectic_minus": 1e-10,
    "orthogonality": 1e-12,
}

#: HF re-summation oracle.  hf_energy_of_occupation returns a total energy
#: E ~ hbar^2 sum |p|^2 <= k_F^2 N^(1/3) (hbar = N^(-1/3)), and the oracle gap
#: is the difference of two such totals, so round-off leaves an absolute error
#: of a few ulp of that scale: |dE| <= c eps k_F^2 N^(1/3).  Against a gap of
#: hbar^2 dq (dq = |p|^2 - |h|^2 >= 1) the relative deviation is then up to
#: c eps k_F^2 N / dq, which grows like N^(5/3): 1e-10 at k_F^2 = 400.5
#: becomes 6.8e-9 at 6400.5 with nothing wrong.  The per-row tolerance is this
#: bound with c = 16.  A wrong exchange term shifts a gap by ~ V / N, 0.05
#: N^(-1/3) / dq relative, 8x above the tolerance at k_F^2 = 6400.5, so such
#: a defect still fails.
HF_ROUNDOFF_FACTOR = 16.0
EPS = 2.0**-52


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def read_csv(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [dict(zip(header, r, strict=True)) for r in reader]
    return header, rows


def reference_rows(rows: list[dict], experiment: str) -> list[dict]:
    """The referenced columns of a CSV, as make_reference.py stores them."""
    spec = REFERENCE_COLUMNS[experiment]
    cols = spec["key"] + spec["exact"] + spec["float"]
    return [{c: r[c] for c in cols} for r in rows]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _compare(experiment: str, rows: list[dict], ref: list[dict]) -> list[str]:
    spec = REFERENCE_COLUMNS[experiment]
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, expected {len(ref)}"]
    bad = []
    for i, (row, want) in enumerate(zip(rows, ref)):
        for c in spec["key"]:
            try:
                same = _close(float(row[c]), float(want[c]), KEY_RTOL)
            except ValueError:
                same = row[c] == want[c]
            if not same:
                bad.append(f"row {i}: {c}={row[c]} is not the reference row {want[c]}")
        for c in spec["exact"]:
            if int(row[c]) != int(want[c]):
                bad.append(f"row {i}: {c}={row[c]}, reference {want[c]}")
        for c in spec["float"]:
            rtol = QUAD_RTOL.get(c, SUM_RTOL)
            if not _close(float(row[c]), float(want[c]), rtol):
                bad.append(f"row {i}: {c}={row[c]}, reference {want[c]} (rtol {rtol:g})")
    return bad


def _finite(row: dict, col: str) -> float:
    value = float(row[col])
    if not math.isfinite(value):
        raise ValueError(f"{col}={row[col]} is not finite")
    return value


def _invariants(experiment: str, rows: list[dict], hf_scale: float) -> list[str]:
    bad = []
    if experiment == "patch_audit":
        for i, r in enumerate(rows):
            if not _finite(r, "min_separation") > _finite(r, "separation_bound"):
                bad.append(f"row {i}: min_separation {r['min_separation']} <= bound")
            total = _finite(r, "area_sum") + _finite(r, "corridor_area")
            if abs(total - 4.0 * math.pi) > 1e-12 * 4.0 * math.pi:
                bad.append(f"row {i}: area_sum + corridor_area = {total!r} != 4 pi")
    elif experiment == "normalization_asymptotics":
        # criterion 9: pair counts within 25% of the area law where |k.w| >= 0.3
        if not rows:
            bad.append("no patch rows")
        for i, r in enumerate(rows):
            if int(r["pair_count"]) < 0:
                bad.append(f"row {i}: negative pair_count")
            if abs(_finite(r, "k_dot_omega")) >= 0.3 and not 0.75 <= _finite(r, "ratio") <= 1.25:
                bad.append(f"row {i}: pair-count ratio {r['ratio']} outside [0.75, 1.25]")
    elif experiment == "kernel_identities":
        for i, r in enumerate(rows):
            for col, tol in KERNEL_TOL.items():
                if not _finite(r, col) <= tol:
                    bad.append(f"system {i}: {col}={r[col]} > {tol:g}")
            size = int(r["size"])
            if not _finite(r, "hyperbolic") <= 1e-10 * math.sqrt(size):
                bad.append(f"system {i}: hyperbolic={r['hyperbolic']}")
            if not abs(abs(_finite(r, "det_O")) - 1.0) <= 1e-10:
                bad.append(f"system {i}: det_O={r['det_O']}")
    elif experiment == "kernel_bound_fit":
        # criterion 4: the fitted kernel-bound constant is stable across M
        by_k: dict[str, list[float]] = {}
        for i, r in enumerate(rows):
            c = _finite(r, "c_star")
            if not (c > 0 and int(r["modes"]) > 0):
                bad.append(f"row {i}: c_star={r['c_star']} modes={r['modes']}")
            by_k.setdefault(r["k"], []).append(c)
        for k, cs in by_k.items():
            if min(cs) > 0 and max(cs) / min(cs) >= 2.0:
                bad.append(f"k={k}: c_star spread x{max(cs) / min(cs):.2f} >= 2")
    elif experiment == "rpa_compare":
        for i, r in enumerate(rows):
            if not _finite(r, "e_trace") < 0.0:
                bad.append(f"row {i}: e_trace={r['e_trace']} is not negative")
            _finite(r, "rel_gap")  # reported, not gated
    elif experiment == "small_v_fit":
        if not _finite(rows[0], "chi") < 0.0:
            bad.append(f"chi={rows[0]['chi']} is not negative")
    elif experiment == "hf_stability":
        summary, swaps = rows[0], rows[1:]
        # criterion 10: every sampled boundary swap costs positive energy
        if not _finite(summary, "excitation") > 0.0:
            bad.append(f"smallest swap gap {summary['excitation']} is not positive")
        worst_tol = 0.0
        for r in swaps:
            gap = abs(_finite(r, "excitation"))
            if gap == 0.0:
                bad.append(f"swap {r['swap']}: zero gap")
                continue
            tol = HF_ROUNDOFF_FACTOR * EPS * hf_scale / gap
            worst_tol = max(worst_tol, tol)
            if not _finite(r, "rel_dev") <= tol:
                bad.append(f"swap {r['swap']}: rel_dev={r['rel_dev']} > {tol:.2e}")
        if not _finite(summary, "rel_dev") <= worst_tol:
            bad.append(f"summary rel_dev={summary['rel_dev']} > {worst_tol:.2e}")
    return bad


def hf_energy_scale(k_fermi_sq: float) -> float:
    """Upper bound k_F^2 N^(1/3) on the HF total energy, N from the volume law."""
    n = 4.0 * math.pi / 3.0 * k_fermi_sq**1.5
    return k_fermi_sq * n ** (1.0 / 3.0)


def check_experiment(
    experiment: str, out_dir: Path, manifest: dict | None, reference: dict, hf_scale: float
) -> list[str]:
    """Problems with one experiment's output; an empty list means it passed."""
    entry = (manifest or {}).get("experiments", {}).get(experiment)
    if entry is None:
        return ["missing from the manifest"]
    if entry.get("status") != "ok":
        return [f"status {entry.get('status')}: {entry.get('error', '')}"]
    try:
        _, rows = read_csv(out_dir / f"{experiment}.csv")
        problems = []
        if REFERENCE_COLUMNS[experiment] is not None:
            problems += _compare(experiment, rows, reference[experiment])
        return problems + _invariants(experiment, rows, hf_scale)
    except (OSError, KeyError, ValueError, StopIteration, IndexError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"]


def check_run(workload, out_dir: Path, references: dict) -> dict[str, list[str]]:
    """Problems per experiment of one run of `workload` written to out_dir."""
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError):
        manifest = None
    hf_ksq = workload.options.get("hf_stability", {}).get("k_fermi_sq", 400.5)
    return {
        name: check_experiment(
            name, out_dir, manifest, references[workload.name], hf_energy_scale(hf_ksq)
        )
        for name in workload.experiments
    }
