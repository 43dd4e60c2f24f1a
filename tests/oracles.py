"""Slow reference implementations that the package's fast paths are tested
against; they live here because no experiment needs them."""

import json
import logging
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from fermiball import lattice
from fermiball.lattice import (
    FermiBall,
    InteractionPotential,
    _as_ivec,
    _as_momentum,
    _band,
    _solve_ksq_for_n,
)
from fermiball.patches import PatchDecomposition

log = logging.getLogger(__name__)


def hf_energy_of_occupation(ball: FermiBall, v: InteractionPotential, occupied: np.ndarray) -> float:
    """Determinant energy for an arbitrary occupation set (re-summation oracle)."""
    occ = np.asarray(occupied, dtype=np.int64)
    n = len(occ)
    lam = 1.0 / ball.n_particles
    enc = lattice.EncodedSet(occ, int(np.abs(occ).max()) + 1)
    kinetic = ball.hbar**2 * float((occ * occ).sum())
    exchange = 0.0
    for k, val in v.items():
        if val == 0.0 or k == lattice.Momentum(0, 0, 0):
            continue
        shifted = occ + np.asarray(k, dtype=np.int64)
        exchange += val * float(enc.contains_points(shifted).sum())
    direct = v((0, 0, 0)) * n * (n - 1)
    return kinetic + 0.5 * lam * (direct - exchange)


def count_slice(ball: FermiBall, k, s: int) -> int:
    """Number of shell pairs with p.k = s."""
    kv = _as_ivec(k)
    if not kv.any():
        raise ValueError("k = 0 has no particle-hole pairs (empty domain)")
    p = lattice.shell_pairs(ball, kv)
    return int(np.count_nonzero(p @ kv == int(s)))


def dispersion(ball: FermiBall, p: Sequence[int]) -> float:
    """Kinetic distance from the Fermi surface, |hbar^2 |p|^2 - kappa_eff^2|.

    Uses kappa_eff = k_F * hbar, so the value vanishes exactly for |p| = k_F.
    """
    gap = Fraction(_as_momentum(p).norm_sq()) - ball.k_fermi_sq
    return ball.hbar**2 * abs(float(gap))


def solve_kfermi_for_n(n_target: int) -> float:
    """Fermi radius whose ball holds n_target momenta (nearest match, warned)."""
    ksq, n_actual = _solve_ksq_for_n(n_target)
    if n_actual != n_target:
        log.warning(
            "no radius yields exactly N=%d; nearest attainable is N=%d at k_F^2=%s",
            n_target,
            n_actual,
            ksq,
        )
    return math.sqrt(float(ksq))


def patch_of(decomp: PatchDecomposition, p: Sequence[int]) -> int | None:
    """Patch index containing p, or None for corridor / out-of-shell points."""
    pv = _as_ivec(p)
    r = math.sqrt(float(pv @ pv))
    if not (decomp.k_fermi - decomp.shell_halfwidth <= r <= decomp.k_fermi + decomp.shell_halfwidth):
        return None
    label = int(decomp.assign_directions(pv[None, :])[0])
    return None if label < 0 else label


def decomposition_to_json(decomp: PatchDecomposition, ball: FermiBall | None = None) -> str:
    """JSON document with patch bounds, direction vectors, and areas."""
    doc = {
        "m_requested": decomp.m_requested,
        "m_patches": decomp.m_patches,
        "k_fermi": decomp.k_fermi,
        "r_corridor": decomp.r_corridor,
        "shell_halfwidth": decomp.shell_halfwidth,
        "patches": [],
    }
    areas = decomp.angular_areas()
    for a in range(decomp.m_patches):
        spec = decomp.north[a % decomp.half]
        south = a >= decomp.half
        doc["patches"].append(
            {
                "index": a,
                "southern": south,
                "is_cap": spec.is_cap,
                "theta": [spec.theta_lo, spec.theta_hi],
                "phi": [spec.phi_lo, spec.phi_hi],
                "omega": list(decomp.omegas[a]),
                "angular_area": float(areas[a]),
            }
        )
    if ball is not None:
        asg = decomp.shell_assignment(ball)
        counts = np.bincount(asg.labels[asg.labels >= 0], minlength=decomp.m_patches)
        doc["lattice_counts"] = counts.tolist()
        doc["corridor_lattice_count"] = int((asg.labels < 0).sum())
    return json.dumps(doc, indent=2)


def scan_min_patch_separation(decomp: PatchDecomposition, ball: FermiBall) -> float:
    """Full offset scan: every labelled shell point looked up at p + d for
    each half-space offset d by rising |d|^2, up to 2 r_v + 4 (inf beyond)."""
    asg = decomp.shell_assignment(ball)
    enc = asg.encoder
    src = np.flatnonzero(asg.labels >= 0)
    codes, src_labels = enc.codes[src], asg.labels[src]
    radius = 2.0 * decomp.r_corridor + 4.0
    offsets = _band(1, math.floor(radius * radius))
    offsets = offsets[len(offsets) // 2 :]
    norms = (offsets * offsets).sum(axis=1)
    for i in np.argsort(norms):
        rows = enc.index_codes(codes + enc.shift(offsets[i]))
        lab = np.where(rows >= 0, asg.labels[rows], -1)
        if ((lab >= 0) & (lab != src_labels)).any():
            return math.sqrt(norms[i])
    return math.inf
