"""Slow reference implementations that the package's fast paths are tested
against; they live here because no experiment needs them."""

import numpy as np

from fermiball import lattice
from fermiball.lattice import FermiBall, InteractionPotential, _as_ivec


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
