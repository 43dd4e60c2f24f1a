import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

import fermiball.rpa as rpa_mod
from fermiball import (
    DiagonalizationError,
    InteractionPotential,
    KAPPA_IDEAL,
    build_mode_system,
    build_patches,
    ground_state_shift,
    rpa_energy_analytic,
    rpa_energy_trace,
    rpa_mode_integral,
    sample_mode_system,
    small_v_quadratic_coefficient,
)
from fermiball.experiments import ENERGY_DELTA, default_potential
from fermiball.rpa import (
    SMALL_V_REFERENCE_MAGNITUDE,
    g_power_integral,
    rpa_mode_integral_with_error,
)
from oracles import (
    eigvalsh_ground_state_shift,
    g_profile,
    g_series_exact,
    one_array_ground_state_shift,
    pair_count,
    quad_mode_integral,
    report_to_json,
)

# frozen from the quadrature oracle: (1/2pi) int_0^inf g(l)^2 dl
K2_FROZEN = 0.051142136573342455


# ------------------------------------------------------------ profile


def test_profile_endpoint():
    assert g_profile(0.0) == 1.0
    assert g_profile(1e-12) == pytest.approx(1.0, abs=1e-11)
    assert 0 < g_profile(5.0) < g_profile(1.0) < 1


def test_profile_integral_is_quarter_pi():
    assert g_power_integral(1) == pytest.approx(math.pi / 4.0, abs=1e-10)


@pytest.mark.parametrize("n", [10, 20])
def test_gauss_legendre_rule(n):
    x, w = rpa_mod._gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    order = np.argsort(x)
    assert np.abs(x[order] - ref_x).max() <= 2e-16
    assert np.abs(w[order] - ref_w).max() <= 4e-15
    # exact for every even monomial up to degree 2n - 2
    for k in range(n):
        assert abs((w * x ** (2 * k)).sum() - 2.0 / (2 * k + 1)) <= 2e-15


def test_profile_series_region_matches_exact_series():
    # above t = 8, where 1 - t arctan(1/t) cancels, g is read from its series
    grid = np.concatenate([[8.0 + 2.0**-40, 8.5, 9.0], np.geomspace(10.0, 1e6, 40)])
    worst = max(abs(g_profile(t) - float(g_series_exact(t))) / float(g_series_exact(t)) for t in grid)
    assert worst <= 4e-16
    # the integral the series feeds: pi/4 to round-off, not only to 1e-10
    assert abs(g_power_integral(1) - math.pi / 4.0) <= 4.5e-16


def test_log1p_minus_series_branch_matches_exact_series():
    # below s = 1/8 log1p(s) - s is read from its series; oracle: the series in rationals
    for s in (1e-12, 1e-6, 1e-3, 0.01, 0.0625, 0.125 - 2.0**-30):
        exact = sum((-1) ** (n + 1) * Fraction(s) ** n / n for n in range(2, 60))
        got = float(rpa_mod._log1p_minus(np.array([s]))[0])
        assert abs(got - float(exact)) <= 4.5e-16 * abs(float(exact))  # 2 ulp


def test_profile_square_integral_frozen_constant():
    k2 = g_power_integral(2) / (2.0 * math.pi)
    assert k2 == pytest.approx(K2_FROZEN, abs=1e-12)


# ------------------------------------------------------------ mode integral


def test_mode_integral_zero_and_negative():
    assert rpa_mode_integral(0.0) == 0.0
    with pytest.raises(ValueError):
        rpa_mode_integral(-0.1)


def test_mode_integral_negative_and_monotone():
    grid = [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0]
    values = [rpa_mode_integral(c) for c in grid]
    assert all(v < 0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_mode_integral_matches_unfolded_form():
    # direct evaluation of the log integral minus c/4
    c = 0.5
    cutoff = 400.0
    direct, _ = quad(
        lambda t: math.log1p(c * g_profile(t)), 0.0, cutoff, limit=500, epsabs=1e-13
    )
    tail = c / (3.0 * cutoff) - (c / 5.0 + c * c / 6.0) / (3.0 * cutoff**3)
    direct = (direct + tail) / math.pi - c / 4.0
    assert rpa_mode_integral(c) == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("c", [1e-4, 1e-3, 0.01, 0.1, 0.19489, 1.0, 5.0, 50.0, 100.0])
def test_mode_integral_matches_adaptive_quadrature(c):
    val, err = rpa_mode_integral_with_error(c)
    ref, ref_err = quad_mode_integral(c)
    assert abs(val - ref) <= max(1e-11 * abs(ref), ref_err)
    assert err <= 1e-12 * abs(val)


def test_mode_integral_error_estimate():
    val, err = rpa_mode_integral_with_error(0.3)
    assert val < 0
    assert 0 <= err < 1e-9


def test_first_order_cancellation():
    # no linear term survives: I(c) = -K2 c^2 + O(c^3)
    for c in (1e-2, 3e-3, 1e-3):
        assert abs(rpa_mode_integral(c) + K2_FROZEN * c * c) <= 0.05 * c**3


def test_small_c_richardson():
    c1, c2 = 1e-3, 1e-4
    r1 = rpa_mode_integral(c1) / c1**2
    r2 = rpa_mode_integral(c2) / c2**2
    extrapolated = (c1 * r2 - c2 * r1) / (c1 - c2)
    assert abs(extrapolated + K2_FROZEN) <= 1e-6


# ------------------------------------------------------------ analytic energy


def test_analytic_energy_zero_potential(ball_tiny):
    assert rpa_energy_analytic(ball_tiny, InteractionPotential({})) == 0.0
    zero = InteractionPotential({(1, 0, 0): 0.0, (-1, 0, 0): 0.0})
    assert rpa_energy_analytic(ball_tiny, zero) == 0.0


def test_analytic_energy_negative(ball_tiny, unit_potential):
    assert rpa_energy_analytic(ball_tiny, unit_potential) < 0.0


def test_analytic_energy_quadratic_scaling(ball_tiny):
    values = []
    for eps in (1e-3, 2e-3):
        pot = InteractionPotential({(0, 0, 1): eps, (0, 0, -1): eps})
        values.append(rpa_energy_analytic(ball_tiny, pot))
    exponent = math.log(values[1] / values[0]) / math.log(2.0)
    assert 1.9 <= exponent <= 2.1


def test_analytic_energy_uses_half_support_symmetry(ball_tiny, unit_potential):
    full = rpa_energy_analytic(ball_tiny, unit_potential)
    half_sum = 0.0
    for k in unit_potential.gamma_nor():
        c = 2.0 * math.pi * KAPPA_IDEAL * unit_potential(k)
        half_sum += math.sqrt(k.norm_sq()) * rpa_mode_integral(c)
    half_sum *= 2.0 * ball_tiny.hbar * KAPPA_IDEAL
    assert full == pytest.approx(half_sum, rel=1e-12)


# ------------------------------------------------------------ trace energy


def test_trace_energy_zero_potential(ball_400):
    decomp = build_patches(2, ball_400, 1.0)
    zero = InteractionPotential({(0, 0, 1): 0.0, (0, 0, -1): 0.0})
    report = rpa_energy_trace(decomp, zero, 0.16)
    assert report.e_trace == pytest.approx(0.0, abs=1e-14)
    assert report.e_analytic == 0.0


def test_trace_energy_one_mode_closed_form(ball_400):
    # M = 2 and a single support direction: one mode per side, solvable exactly
    decomp = build_patches(2, ball_400, 1.0)
    value = 0.3
    pot = InteractionPotential({(0, 0, 1): value, (0, 0, -1): value})
    report = rpa_energy_trace(decomp, pot, 0.16)
    n_sq = pair_count(decomp, (0, 0, 1), 0)
    hbar = ball_400.hbar
    d = 1.0
    v_sq = (hbar / KAPPA_IDEAL) ** 2 * n_sq
    b = 0.5 * KAPPA_IDEAL * value * v_sq
    expected = 2.0 * hbar * KAPPA_IDEAL * (math.sqrt(d * (d + 2 * b)) - d - b)
    k = next(iter(report.per_k_terms))
    analytic_term, trace_term = report.per_k_terms[k]
    assert trace_term == pytest.approx(expected, rel=1e-12)
    assert report.e_trace == pytest.approx(expected, rel=1e-12)
    assert analytic_term < 0
    assert report.e_trace <= 0.0
    assert report.e_analytic <= 0.0


def test_trace_energy_report_fields(ball_400, unit_potential):
    decomp = build_patches(8, ball_400, 0.0)
    report = rpa_energy_trace(decomp, unit_potential, 0.16)
    assert set(report.per_k_terms) == set(unit_potential.gamma_nor())
    assert report.quadrature_error_estimate < 1e-9
    doc = json.loads(report_to_json(report))
    assert doc["e_trace"] == report.e_trace
    assert len(doc["per_k_terms"]) == 3
    assert report.relative_gap == pytest.approx(
        abs(report.e_trace - report.e_analytic) / abs(report.e_analytic)
    )


def test_trace_route_solves_no_matrix(ball_400, unit_potential, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the trace route called a dense eigensolver")

    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, boom)
    decomp = build_patches(8, ball_400, 0.0)
    report = rpa_energy_trace(decomp, unit_potential, 0.16)
    assert report.e_trace < 0.0


def test_shift_matches_eigvalsh_on_sample_systems():
    rng = np.random.default_rng(20261018)
    for _ in range(30):
        ms = sample_mode_system(rng, max_side=60)
        ref = eigvalsh_ground_state_shift(ms)
        assert abs(ground_state_shift(ms) - ref) <= 1e-9 * abs(ref)
        # the node blocks sum every row as the one nodes x modes array did
        assert ground_state_shift(ms) == one_array_ground_state_shift(ms)


@pytest.mark.parametrize("m_patches", [512, 1024, 2048])
def test_shift_matches_eigvalsh_at_many_patches(ball_6400, m_patches):
    # the rpa_compare setting of the many-patch benchmark: every k at k_F^2 = 6400.5
    pot = default_potential()
    decomp = build_patches(m_patches, ball_6400, 0.0)
    for k in pot.gamma_nor():
        ms = build_mode_system(decomp, pot, k, ENERGY_DELTA)
        ref = eigvalsh_ground_state_shift(ms)
        assert abs(ground_state_shift(ms) - ref) <= 1e-9 * abs(ref)
        assert ground_state_shift(ms) == one_array_ground_state_shift(ms)


def test_shift_allocates_one_node_block(ball_6400):
    # at M = 2048 the shift's traced peak is a fraction of one nodes x modes
    # float64 array: s(t) is summed over node blocks (one whole array before)
    decomp = build_patches(2048, ball_6400, 0.0)
    ms = build_mode_system(decomp, default_potential(), (0, 0, 1), ENERGY_DELTA)
    one = len(rpa_mod._NODES) * ms.side * 8
    tracemalloc.start()
    try:
        ground_state_shift(ms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ms.side > 500
    assert peak <= 0.25 * one, (peak, one)


def test_shift_rejects_unresolvable_d():
    ms = sample_mode_system(np.random.default_rng(3), max_side=20)
    ms.u[0] = 0.0
    with pytest.raises(DiagonalizationError, match="not positive definite"):
        ground_state_shift(ms)
    # resolved down to d ~ 2^-12, the lowest panel edge; far below it, a named error
    ms.u[0] = math.sqrt(2.0**-12)
    assert ground_state_shift(ms) == pytest.approx(eigvalsh_ground_state_shift(ms), rel=1e-12)
    ms.u[0] = math.sqrt(1e-7)
    with pytest.raises(DiagonalizationError, match="too near singular"):
        ground_state_shift(ms)


def test_trace_energy_propagates_failures(ball_400, unit_potential, monkeypatch):
    from fermiball.bogokernel import DiagonalizationError

    def boom(ms):
        raise DiagonalizationError("smallest eigenvalue -1")

    monkeypatch.setattr(rpa_mod, "ground_state_shift", boom)
    decomp = build_patches(8, ball_400, 0.0)
    with pytest.raises(DiagonalizationError, match=r"k=\(0, 0, 1\)|k=\(0, 1, 0\)|k=\(1, 0, 0\)"):
        rpa_energy_trace(decomp, unit_potential, 0.16)


# ------------------------------------------------------------ small-V fit


def test_small_v_zero_potential():
    assert small_v_quadratic_coefficient(InteractionPotential({})) == 0.0


def test_small_v_magnitude_matches_reference(unit_potential):
    chi = small_v_quadratic_coefficient(unit_potential)
    assert chi < 0
    # |chi| = pi (1 - log 2) / 2 up to the extrapolation residual
    assert abs(chi) == pytest.approx(SMALL_V_REFERENCE_MAGNITUDE, abs=1e-6)
    # consistency with the frozen per-mode constant: chi = -(3/2) int g^2
    assert chi == pytest.approx(-1.5 * g_power_integral(2), abs=1e-6)


def test_small_v_mode_independence():
    chi_a = small_v_quadratic_coefficient(
        InteractionPotential({(0, 0, 1): 1.0, (0, 0, -1): 1.0})
    )
    chi_b = small_v_quadratic_coefficient(
        InteractionPotential({(1, 1, 0): 1.0, (-1, -1, 0): 1.0})
    )
    assert abs(chi_a - chi_b) / abs(chi_a) <= 1e-3
