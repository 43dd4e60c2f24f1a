"""RPA correlation energy: analytic quadrature formula and patched-trace sum.

The analytic per-mode value is (1/pi) int_0^inf log[1 + c g(l)] dl - c/4 with
g(l) = 1 - l arctan(1/l).  Since int_0^inf g = pi/4 exactly, the linear
subtraction folds inside the integrand as log1p(c g) - c g, which is read
from its series where it is small, so no cancellation is left at any c.
The trace route sums the ground-state shifts of the per-momentum mode
systems.  By the determinant lemma each shift is the same kind of integral,
with c g(t) replaced by the patch sum
s(t) = 2 g sum_a d_a v_a^2 / (d_a^2 + t^2), so no matrix is diagonalized.

Every integral over [0, inf) is one fixed-node rule: composite 20-point
Gauss-Legendre on [0, 2^-12], on the dyadic panels [2^j, 2^(j+1)] for
j = -12..11 and on the tail t = 2^12 / s, s in (0, 1].  The 10-point rule on
the same panels gives the error estimate.  Every integrand here is even in t
and analytic off the imaginary axis; while its singularities there lie
between 2^-12 and 2^12 in modulus, each panel stays at least its own width
away from them, and the 20-point rule converges to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bogokernel import DiagonalizationError, ModeSystem, build_mode_system
from .lattice import KAPPA_IDEAL, FermiBall, InteractionPotential, Momentum
from .patches import PatchDecomposition

__all__ = [
    "RpaReport",
    "g_power_integral",
    "ground_state_shift",
    "rpa_mode_integral",
    "rpa_mode_integral_with_error",
    "rpa_energy_analytic",
    "rpa_energy_trace",
    "small_v_quadratic_coefficient",
    "SMALL_V_REFERENCE_MAGNITUDE",
]

#: magnitude of the quadratic small-coupling coefficient, pi (1 - log 2) / 2
SMALL_V_REFERENCE_MAGNITUDE = 0.5 * math.pi * (1.0 - math.log(2.0))

#: panel edges 0, 2^-12, ..., 2^12; the tail beyond the last edge is mapped
_EDGES = np.array([0.0] + [2.0**j for j in range(-12, 13)])


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of n-point Gauss-Legendre on [-1, 1].

    Newton's method on P_n from the asymptotic roots; P_n and P_(n-1) come
    from the three-term recurrence.  It runs at import, so it uses plain
    arithmetic only: numpy.polynomial would add 0.17 s and about 2 MB to
    every import of the package, and numpy's cos another 0.35 MB of code.
    """
    x = np.array([math.cos(math.pi * (i - 0.25) / (n + 0.5)) for i in range(1, n + 1)])
    for _ in range(8):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _panel_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite n-point Gauss-Legendre on [0, inf)."""
    x, w = _gauss_legendre(n)
    half = 0.5 * (_EDGES[1:] - _EDGES[:-1])[:, None]
    mid = 0.5 * (_EDGES[1:] + _EDGES[:-1])[:, None]
    s = 0.5 * (x + 1.0)
    top = _EDGES[-1]
    nodes = np.concatenate([(mid + half * x).ravel(), top / s])
    weights = np.concatenate([(half * w).ravel(), 0.5 * w * top / s**2])
    return nodes, weights


_T_HI, _W_HI = _panel_rule(20)
_T_LO, _W_LO = _panel_rule(10)
#: every node an integrand is evaluated on: the 20-point rule's, then the 10-point rule's
_NODES = np.concatenate([_T_HI, _T_LO])
#: nodes summed at once in `ground_state_shift`: one block's nodes x modes
#: array is its largest temporary
_NODE_BLOCK = 64


def _integrate(values: np.ndarray) -> tuple[float, float]:
    """int_0^inf f dt from f at `_NODES`, and the gap to the lower-order rule."""
    n = len(_W_HI)
    hi = float((values[:n] * _W_HI).sum())
    lo = float((values[n:] * _W_LO).sum())
    return hi, abs(hi - lo)


def _g(t: np.ndarray) -> np.ndarray:
    """g(t) = 1 - t arctan(1/t), by its series above t = 8.

    The closed form cancels at large t; there the series
    g = sum_n (-1)^(n+1) t^(-2n) / (2n+1) converges by a factor 64 a term.
    """
    t = np.asarray(t, dtype=np.float64)
    far = t > 8.0
    x = 1.0 / np.where(far, t, 8.0) ** 2
    series = np.zeros_like(x)
    for n in range(10, 0, -1):
        series = 1.0 / (2 * n + 1) - x * series
    return np.where(far, x * series, 1.0 - t * np.arctan2(1.0, t))


def _log1p_minus(s: np.ndarray) -> np.ndarray:
    """log1p(s) - s for s >= 0, by its series below s = 1/8.

    The difference cancels for small s; there
    s^2 sum_n (-1)^(n+1) s^(n-2) / n (n >= 2) is exact to round-off.
    """
    y = np.where(s < 0.125, s, 0.0)
    series = np.zeros_like(y)
    for n in range(20, 1, -1):
        series = (1.0 if n % 2 else -1.0) / n + y * series
    return np.where(s < 0.125, y * y * series, np.log1p(s) - s)


def g_power_integral(power: int) -> float:
    """int_0^inf g(l)^p dl for an integer p >= 1."""
    if power < 1:
        raise ValueError(f"power must be a positive integer, got {power}")
    return _integrate(_g(_NODES) ** power)[0]


def rpa_mode_integral_with_error(c: float) -> tuple[float, float]:
    """Per-mode correlation value for coupling c >= 0, with an error estimate.

    Returns (1/pi) int_0^inf [log1p(c g(l)) - c g(l)] dl, which equals the
    log-integral minus c/4 exactly.
    """
    if c < 0:
        raise ValueError(f"coupling must be nonnegative, got {c}")
    if c == 0.0:
        return 0.0, 0.0
    val, err = _integrate(_log1p_minus(c * _g(_NODES)))
    return val / math.pi, err / math.pi


def rpa_mode_integral(c: float) -> float:
    """Per-mode correlation value; strictly negative for c > 0."""
    return rpa_mode_integral_with_error(c)[0]


def ground_state_shift(ms: ModeSystem) -> float:
    """tr(E - D - W)/2 of one mode system, by quadrature.

    Reflection pairing splits E into two n x n blocks of equal trace, both
    similar to A^1/2 with A = d^1/2 (d+2b) d^1/2 = d^2 + 2 g x x^T, where d, b
    are the same-side blocks of D and W and x = d^1/2 v.  With
    sqrt(l) - sqrt(m) = (1/pi) int_0^inf log((l + t^2)/(m + t^2)) dt and
    det(A + t^2) / det(d^2 + t^2) = 1 + s(t), the shift is
    (1/pi) int_0^inf [log1p(s) - s] dt with s = 2 g sum_a d_a v_a^2 / (d_a^2 + t^2);
    the -s term is tr b = g |v|^2.  The integrand is <= 0, so the shift is.
    """
    d = ms.u**2
    if d.min() <= 0.0:
        raise DiagonalizationError(f"d is not positive definite: smallest entry {d.min():.3e}")
    weights = 2.0 * ms.g * d * ms.v * ms.v
    t2, d2 = _NODES * _NODES, d * d
    s = np.empty(len(_NODES))
    # node blocks, each a nodes x modes array divided into in place; each row
    # is summed alone, so the blocking leaves every bit of s as it was
    for lo in range(0, len(_NODES), _NODE_BLOCK):
        rows = slice(lo, lo + _NODE_BLOCK)
        block = np.add.outer(t2[rows], d2)
        np.divide(weights, block, out=block)
        block.sum(axis=1, out=s[rows])
    val, err = _integrate(_log1p_minus(s))
    if err > 1e-8 * abs(val):
        raise DiagonalizationError(
            f"d^1/2 (d+2b) d^1/2 is too near singular for the quadrature: smallest d "
            f"{d.min():.3e}, error estimate {err:.1e} against {abs(val):.3e}"
        )
    return val / math.pi


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

    @property
    def relative_gap(self) -> float:
        if self.e_analytic == 0.0:
            return 0.0 if self.e_trace == 0.0 else math.inf
        return abs(self.e_trace - self.e_analytic) / abs(self.e_analytic)


def rpa_energy_trace(
    decomp: PatchDecomposition,
    v: InteractionPotential,
    delta: float,
    counts: Mapping[Momentum, np.ndarray] | None = None,
) -> RpaReport:
    """Correlation energy on `decomp.ball` from the per-momentum mode systems.

    Each k in the normal half-support contributes 2 hbar kappa |k| times the
    ground-state shift tr(E - D - W)/2; the paired analytic value for the same
    (k, -k) pair sits alongside it in `per_k_terms`.  ``counts`` maps each
    such k to `pair_counts(decomp, k)` when the caller has counted them
    already (see `patches.pair_counts_by_layout`); each is counted here
    otherwise.
    """
    per_k: dict[Momentum, tuple[float, float]] = {}
    quad_err = 0.0
    trace_terms = []
    for k in v.gamma_nor():
        knorm = math.sqrt(k.norm_sq())
        weight = 2.0 * decomp.ball.hbar * KAPPA_IDEAL * knorm
        ms = build_mode_system(decomp, v, k, delta, None if counts is None else counts[k])
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
    e_trace = math.fsum(trace_terms)
    e_analytic = rpa_energy_analytic(decomp.ball, v)
    return RpaReport(
        e_analytic=e_analytic,
        e_trace=e_trace,
        per_k_terms=per_k,
        quadrature_error_estimate=abs(quad_err),
    )


#: the two couplings, as fractions of the potential, from which
#: `small_v_quadratic_coefficient` extrapolates to zero coupling
SMALL_V_EPS_PAIR = (1e-3, 1e-4)


def small_v_quadratic_coefficient(v: InteractionPotential) -> float:
    """Quadratic coefficient chi of the correlation energy at weak coupling.

    Fits rpa_energy_analytic ~ hbar chi sum_k |k| V(k)^2 by scaling the
    potential down by each epsilon of `SMALL_V_EPS_PAIR` and
    Richardson-extrapolating the two-point values to zero coupling.  Returns
    0 for a vanishing potential.
    """
    weights = [
        (math.sqrt(Momentum(*k).norm_sq()), val)
        for k, val in v.items()
        if val != 0.0 and Momentum(*k).norm_sq() > 0
    ]
    denom0 = math.fsum(w * val * val for w, val in weights)
    if denom0 == 0.0:
        return 0.0
    eps1, eps2 = SMALL_V_EPS_PAIR

    def chi_at(eps: float) -> float:
        num = math.fsum(
            w * rpa_mode_integral(2.0 * math.pi * KAPPA_IDEAL * eps * val)
            for w, val in weights
        )
        return KAPPA_IDEAL * num / (eps * eps * denom0)

    c1, c2 = chi_at(eps1), chi_at(eps2)
    return (eps1 * c2 - eps2 * c1) / (eps1 - eps2)
