"""RPA correlation energy: analytic quadrature formula and patched-trace sum.

The analytic per-mode value is (1/pi) int_0^inf log[1 + c g(l)] dl - c/4 with
g(l) = 1 - l arctan(1/l).  Since int_0^inf g = pi/4 exactly, the linear
subtraction folds inside the integrand as log1p(c g) - c g, which is free of
catastrophic cancellation down to c ~ 1e-6.  The trace route sums the
ground-state shifts of the per-momentum mode systems, each from its half-size
block.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bogokernel import DiagonalizationError, build_mode_system, ground_state_shift
from .lattice import KAPPA_IDEAL, FermiBall, InteractionPotential, Momentum
from .patches import PatchDecomposition

__all__ = [
    "RpaReport",
    "g_profile",
    "g_power_integral",
    "rpa_mode_integral",
    "rpa_mode_integral_with_error",
    "rpa_energy_analytic",
    "rpa_energy_trace",
    "small_v_quadratic_coefficient",
    "SMALL_V_REFERENCE_MAGNITUDE",
]

log = logging.getLogger(__name__)

#: magnitude of the quadratic small-coupling coefficient, pi (1 - log 2) / 2
SMALL_V_REFERENCE_MAGNITUDE = 0.5 * math.pi * (1.0 - math.log(2.0))


def g_profile(lam: float) -> float:
    """1 - lam * arctan(1/lam), extended by its limit g(0) = 1."""
    if lam == 0.0:
        return 1.0
    return 1.0 - lam * math.atan(1.0 / lam)


def g_power_integral(power: int, cutoff: float = 200.0) -> float:
    """int_0^inf g(l)^p dl by adaptive quadrature plus a series tail.

    g(l) = 1/(3 l^2) - 1/(5 l^4) + 1/(7 l^6) - ... for large l.
    """
    if power not in (1, 2, 3):
        raise ValueError("power must be 1, 2 or 3")
    from scipy.integrate import quad  # deferred: most of the package import time

    val, _ = quad(lambda t: g_profile(t) ** power, 0.0, cutoff, limit=500, epsabs=1e-13, epsrel=1e-13)
    lam = cutoff
    if power == 1:
        tail = 1.0 / (3.0 * lam) - 1.0 / (15.0 * lam**3) + 1.0 / (35.0 * lam**5)
    elif power == 2:
        tail = 1.0 / (27.0 * lam**3) - 2.0 / (75.0 * lam**5)
    else:
        tail = 1.0 / (135.0 * lam**5)
    return val + tail


def rpa_mode_integral_with_error(c: float) -> tuple[float, float]:
    """Per-mode correlation value for coupling c >= 0, with an error estimate.

    Returns (1/pi) int_0^inf [log1p(c g(l)) - c g(l)] dl, which equals the
    log-integral minus c/4 exactly.
    """
    if c < 0:
        raise ValueError(f"coupling must be nonnegative, got {c}")
    if c == 0.0:
        return 0.0, 0.0
    from scipy.integrate import quad  # deferred: most of the package import time

    cutoff = max(100.0, 2.0 * c)

    def integrand(t: float) -> float:
        gt = g_profile(t)
        return math.log1p(c * gt) - c * gt

    scale = c * c * 0.06 / (1.0 + c) + 0.25 * c * min(1.0, c)
    val, err = quad(
        integrand, 0.0, cutoff, limit=500, epsabs=scale * 1e-12 + 1e-300, epsrel=1e-12
    )
    # tail of log1p(c g) - c g = -(c g)^2/2 + (c g)^3/3 - ...
    tail = -(c * c / 2.0) * (1.0 / (27.0 * cutoff**3) - 2.0 / (75.0 * cutoff**5))
    tail += (c**3 / 3.0) * (1.0 / (135.0 * cutoff**5))
    tail_err = (c**4 / 4.0) * (1.0 / (7.0 * 81.0 * cutoff**7)) + (c * c / 2.0) * (
        1.0 / cutoff**7
    )
    return (val + tail) / math.pi, (err + tail_err) / math.pi


def rpa_mode_integral(c: float) -> float:
    """Per-mode correlation value; strictly negative for c > 0."""
    return rpa_mode_integral_with_error(c)[0]


def rpa_energy_analytic(ball: FermiBall, v: InteractionPotential) -> float:
    """Correlation energy hbar kappa sum_k |k| I(2 pi kappa V(k)) over all k.

    Uses the ideal kappa = (3/4pi)^(1/3); the k = 0 term vanishes through the
    |k| weight.
    """
    total = 0.0
    for k, val in v.items():
        if val == 0.0:
            continue
        knorm = math.sqrt(Momentum(*k).norm_sq())
        if knorm == 0.0:
            continue
        total += knorm * rpa_mode_integral(2.0 * math.pi * KAPPA_IDEAL * val)
    return ball.hbar * KAPPA_IDEAL * total


@dataclass
class RpaReport:
    """Side-by-side analytic and trace-based correlation energies."""

    e_analytic: float
    e_trace: float
    per_k_terms: dict[Momentum, tuple[float, float]]
    quadrature_error_estimate: float
    params: dict

    @property
    def relative_gap(self) -> float:
        if self.e_analytic == 0.0:
            return 0.0 if self.e_trace == 0.0 else math.inf
        return abs(self.e_trace - self.e_analytic) / abs(self.e_analytic)

    def to_json(self) -> str:
        doc = {
            "e_analytic": self.e_analytic,
            "e_trace": self.e_trace,
            "relative_gap": self.relative_gap,
            "quadrature_error_estimate": self.quadrature_error_estimate,
            "params": self.params,
            "per_k_terms": {
                f"{k.px} {k.py} {k.pz}": {"analytic": a, "trace": t}
                for k, (a, t) in self.per_k_terms.items()
            },
        }
        return json.dumps(doc, indent=2)


def rpa_energy_trace(
    decomp: PatchDecomposition,
    ball: FermiBall,
    v: InteractionPotential,
    delta: float,
) -> RpaReport:
    """Correlation energy from the per-momentum mode systems.

    Each k in the normal half-support contributes 2 hbar kappa |k| times the
    ground-state shift tr(E - D - W)/2; the paired analytic value for the same
    (k, -k) pair sits alongside it in `per_k_terms`.
    """
    per_k: dict[Momentum, tuple[float, float]] = {}
    quad_err = 0.0
    trace_terms = []
    for k in v.gamma_nor():
        knorm = math.sqrt(k.norm_sq())
        weight = 2.0 * ball.hbar * KAPPA_IDEAL * knorm
        ms = build_mode_system(decomp, ball, v, k, delta)
        try:
            shift = ground_state_shift(ms)
        except DiagonalizationError as err:
            raise DiagonalizationError(f"diagonalization failed at k={tuple(k)}: {err}") from err
        mode_val, mode_err = rpa_mode_integral_with_error(
            2.0 * math.pi * KAPPA_IDEAL * v(k)
        )
        analytic_pair = weight * mode_val
        trace_term = weight * shift
        quad_err += weight * mode_err
        per_k[k] = (analytic_pair, trace_term)
        trace_terms.append(trace_term)
        if shift > 1e-12 * ms.size:
            log.warning("positive trace correction at k=%s: %.3e", tuple(k), shift)
    e_trace = math.fsum(trace_terms)
    e_analytic = rpa_energy_analytic(ball, v)
    return RpaReport(
        e_analytic=e_analytic,
        e_trace=e_trace,
        per_k_terms=per_k,
        quadrature_error_estimate=abs(quad_err),
        params={
            "n_particles": ball.n_particles,
            "k_fermi_sq": str(ball.k_fermi_sq),
            "m_requested": decomp.m_requested,
            "m_actual": decomp.m_patches,
            "delta": delta,
        },
    )


def small_v_quadratic_coefficient(
    v: InteractionPotential, eps_pair: Sequence[float] = (1e-3, 1e-4)
) -> float:
    """Quadratic coefficient chi of the correlation energy at weak coupling.

    Fits rpa_energy_analytic ~ hbar chi sum_k |k| V(k)^2 by scaling the
    potential down by each epsilon and Richardson-extrapolating the two-point
    values to zero coupling.  Returns 0 for a vanishing potential.
    """
    weights = [
        (math.sqrt(Momentum(*k).norm_sq()), val)
        for k, val in v.items()
        if val != 0.0 and Momentum(*k).norm_sq() > 0
    ]
    denom0 = math.fsum(w * val * val for w, val in weights)
    if denom0 == 0.0:
        return 0.0
    eps1, eps2 = (float(e) for e in eps_pair)

    def chi_at(eps: float) -> float:
        num = math.fsum(
            w * rpa_mode_integral(2.0 * math.pi * KAPPA_IDEAL * eps * val)
            for w, val in weights
        )
        return KAPPA_IDEAL * num / (eps * eps * denom0)

    c1, c2 = chi_at(eps1), chi_at(eps2)
    return (eps1 * c2 - eps2 * c1) / (eps1 - eps2)
