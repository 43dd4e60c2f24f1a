"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; the heavy lattice fixtures are shared across criteria.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fermiball import (
    InteractionPotential,
    KAPPA_IDEAL,
    annulus_count_vs_area,
    build_fermi_ball,
    build_mode_system,
    build_patches,
    check_kernel_bound,
    check_L_blocks,
    diagonalize,
    equator_reciprocal_sum,
    excitation_energy,
    ground_state_shift,
    hartree_fock_energy,
    index_sets,
    kinetic_reciprocal_sum,
    pair_gap_histogram,
    rpa_energy_trace,
    sample_mode_system,
)
from fermiball.experiments import ENERGY_DELTA
from fermiball.lattice import _band
from fermiball.rpa import g_power_integral, rpa_mode_integral
from oracles import (
    boundary_shells,
    dense_diagonalize,
    ell_inf,
    hf_energy_of_occupation,
    pair_count,
    two_sided,
)

DELTA_DEFAULT = 1.0 / 24.0


def report(criterion: int, passed: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} {status} ({elapsed:6.1f}s) {detail}")


@pytest.fixture(scope="module")
def mode_suite():
    """200 randomized valid mode systems with up to 60 modes, solved once."""
    rng = np.random.default_rng(1_2024)
    systems = []
    t0 = time.perf_counter()
    for _ in range(200):
        ms = sample_mode_system(rng, max_side=30)
        systems.append((ms, diagonalize(ms)))
    return systems, time.perf_counter() - t0


def test_criterion_1_offdiagonal_cancellation(mode_suite):
    systems, elapsed = mode_suite
    t0 = time.perf_counter()
    worst = max(sol.residuals["offdiagonal_rel"] for _, sol in systems)
    elapsed += time.perf_counter() - t0
    passed = worst <= 1e-10 and elapsed < 30.0
    report(1, passed, elapsed, f"off-diagonal combination: worst rel {worst:.2e} <= 1e-10")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_half_size_trace_matches_dense_route(mode_suite):
    # the trace route's half-size block against the 2n solve it replaces
    systems, _ = mode_suite
    worst = max(
        abs(ground_state_shift(ms) - sol.trace_correction) / abs(sol.trace_correction)
        for ms, sol in systems
    )
    assert worst <= 1e-9


def test_criterion_2_frak_spectrum_matches_E(mode_suite):
    systems, _ = mode_suite
    t0 = time.perf_counter()
    worst = 0.0
    for _, sol in systems:
        spec_f = np.sort(np.linalg.eigvalsh(sol.frakK))
        spec_e = np.sort(np.linalg.eigvalsh(sol.E))
        worst = max(worst, float(np.abs(spec_f - spec_e).max() / np.abs(spec_e).max()))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-9
    report(2, passed, elapsed, f"spectra of frakK vs E: worst rel {worst:.2e} <= 1e-9")
    assert passed


def test_criterion_3_dual_path_kernel(mode_suite):
    systems, _ = mode_suite
    t0 = time.perf_counter()
    worst = max(check_L_blocks(ms, sol) for ms, sol in systems)

    # 1+1 closed form: |K_01| = log(1 + 2 g v^2 / u^2) / 4, read as K1[0, 0],
    # the same entry of the plus-side block
    from fermiball.bogokernel import _assemble
    from fermiball.lattice import Momentum

    ms1 = _assemble(
        Momentum(0, 0, 1), 0.35, 20, 1e-2, (0,),
        np.array([0.77]), np.array([31.0]),
    )
    sol1 = diagonalize(ms1)
    theta = 0.25 * math.log1p(2.0 * ms1.g * ms1.v[0] ** 2 / ms1.u[0] ** 2)
    dev_closed = abs(abs(sol1.K[0, 0]) - theta)
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-9 and dev_closed <= 1e-12
    report(
        3,
        passed,
        elapsed,
        f"block-path kernel dev {worst:.2e} <= 1e-9; 1+1 closed form dev {dev_closed:.2e} <= 1e-12",
    )
    assert worst <= 1e-9
    assert dev_closed <= 1e-12


def test_plus_side_solve_matches_dense_solve(mode_suite):
    # the doubled forms read from the plus-side blocks against the doubled
    # 2I x 2I solve, at criterion 3's 1e-9: K = [[0, K1], [K1, 0]],
    # cosh K = diag(C, C), sinh K = [[0, S], [S, 0]], frakK = diag(F, F), the
    # spectrum of E is that of E1 twice, and the same trace correction
    systems, _ = mode_suite
    worst = dict.fromkeys(["K", "coshK", "sinhK", "frakK", "E", "trace_correction"], 0.0)
    for ms, sol in systems:
        ref = dense_diagonalize(ms)
        for name, cross in (("K", True), ("coshK", False), ("sinhK", True), ("frakK", False)):
            got, want = two_sided(getattr(sol, name), cross), getattr(ref, name)
            dev = np.abs(got - want).max() / np.abs(want).max()
            worst[name] = max(worst[name], float(dev))
        spec = np.repeat(np.linalg.eigvalsh(sol.E), 2)
        spec_ref = np.linalg.eigvalsh(ref.E)
        worst["E"] = max(worst["E"], float(np.abs(spec - spec_ref).max() / spec_ref.max()))
        dev = abs(sol.trace_correction - ref.trace_correction) / abs(ref.trace_correction)
        worst["trace_correction"] = max(worst["trace_correction"], dev)
    assert max(worst.values()) <= 1e-9, worst


def test_criterion_4_kernel_bound_stability(ball_1600):
    # support along +-e3: at M = 6 the two collar patches sit at azimuth
    # +-90 degrees, exactly orthogonal to e1/e2, so only the polar direction
    # couples to every patch layout in the scan
    t0 = time.perf_counter()
    pot = InteractionPotential({(0, 0, 1): 0.1, (0, 0, -1): 0.1})
    assert ell_inf(pot) <= 0.1
    c_by_m = {}
    for m in (6, 16, 30):
        decomp = build_patches(m, ball_1600, 1.0)
        worst = 0.0
        for k in pot.gamma_nor():
            ms = build_mode_system(decomp, pot, k, ENERGY_DELTA)
            sol = diagonalize(ms)
            c_star, _ = check_kernel_bound(sol, ms)
            worst = max(worst, c_star)
        c_by_m[m] = worst
    spread = max(c_by_m.values()) / min(c_by_m.values())
    elapsed = time.perf_counter() - t0
    passed = spread < 2.0 and elapsed < 120.0
    report(
        4,
        passed,
        elapsed,
        f"kernel bound C* by M {dict((m, round(c, 3)) for m, c in c_by_m.items())}: spread x{spread:.2f} < 2",
    )
    assert spread < 2.0
    assert elapsed < 120.0


def test_criterion_5_rpa_convergence(ball_400, ball_1600, ball_6400, unit_potential):
    t0 = time.perf_counter()
    schedule = [(ball_400, 8), (ball_1600, 16), (ball_6400, 30)]
    gaps = []
    for ball, m in schedule:
        decomp = build_patches(m, ball, 0.0)
        rep = rpa_energy_trace(decomp, unit_potential, ENERGY_DELTA)
        assert rep.e_trace <= 0.0 and rep.e_analytic < 0.0
        gaps.append(rep.relative_gap)
    elapsed = time.perf_counter() - t0
    monotone = gaps[0] > gaps[1] > gaps[2]
    final_ok = gaps[2] < 0.15
    passed = monotone and final_ok and elapsed < 600.0
    report(
        5,
        passed,
        elapsed,
        f"trace vs analytic gaps {[round(g, 4) for g in gaps]}: monotone={monotone}, final < 0.15: {final_ok}",
    )
    assert monotone
    assert final_ok
    assert elapsed < 600.0


def test_criterion_6_mode_integral_oracle():
    t0 = time.perf_counter()
    quarter_pi_dev = abs(g_power_integral(1) - math.pi / 4.0)
    c1, c2 = 1e-3, 1e-4
    r1 = rpa_mode_integral(c1) / c1**2
    r2 = rpa_mode_integral(c2) / c2**2
    extrapolated = (c1 * r2 - c2 * r1) / (c1 - c2)
    k2 = g_power_integral(2) / (2.0 * math.pi)
    spread = abs(extrapolated + k2)
    reference = 0.5 * math.pi * (1.0 - math.log(2.0))
    magnitude = 3.0 * math.pi * k2  # |chi| from the per-mode constant
    elapsed = time.perf_counter() - t0
    passed = quarter_pi_dev <= 1e-10 and extrapolated < 0 and spread <= 1e-6
    report(
        6,
        passed,
        elapsed,
        f"int g = pi/4 dev {quarter_pi_dev:.1e}; Richardson limit {extrapolated:.9f} "
        f"(spread {spread:.1e} <= 1e-6); |chi| {magnitude:.6f} vs pi(1-log2)/2 = {reference:.6f}",
    )
    assert quarter_pi_dev <= 1e-10
    assert extrapolated < 0
    assert spread <= 1e-6


def test_criterion_7_kinetic_sums(ball_100, ball_400, ball_1600, ball_6400):
    t0 = time.perf_counter()
    balls = [ball_100, ball_400, ball_1600, ball_6400]
    k = (0, 0, 1)
    ratios, eq_sums, ns = [], [], []
    for ball in balls:
        total = kinetic_reciprocal_sum(ball, k)
        ratios.append(total / ball.n_particles ** (1.0 / 3.0))
        eq_sums.append(equator_reciprocal_sum(ball, k, DELTA_DEFAULT))
        ns.append(ball.n_particles)
    band = max(ratios) / min(ratios)
    slope = float(np.polyfit(np.log(ns), np.log(eq_sums), 1)[0])
    slope_bound = 1.0 / 3.0 - DELTA_DEFAULT / 2.0
    elapsed = time.perf_counter() - t0
    passed = band <= 3.0 and slope <= slope_bound and elapsed < 300.0
    report(
        7,
        passed,
        elapsed,
        f"ratio band x{band:.2f} <= 3; equator slope {slope:.4f} <= {slope_bound:.4f}",
    )
    assert band <= 3.0
    assert slope <= slope_bound
    assert elapsed < 300.0


def test_criterion_8_counting(ball_400, ball_1600, ball_6400):
    t0 = time.perf_counter()
    # Gauss counting error
    gauss_worst = 0.0
    for ksq in ("100.5", "225.5", "400.5", "1600.5", "3600.5", "6400.5"):
        ball = build_fermi_ball(k_fermi_sq=Fraction(ksq))
        volume = 4.0 * math.pi / 3.0 * ball.k_fermi**3
        rel = abs(ball.n_particles - volume) / volume
        gauss_worst = max(gauss_worst, rel * ball.k_fermi / 3.0)
    # slice-count constant across k_F in {20, 40, 80}
    slice_consts = []
    for ball in (ball_400, ball_1600, ball_6400):
        lo, counts = pair_gap_histogram(ball, (0, 0, 1))
        scale = ball.n_particles ** (2.0 / 9.0)
        c_fit = max(c / (s + scale) for s, c in enumerate(counts.tolist(), start=lo) if c)
        slice_consts.append(float(c_fit))
    slice_spread = max(slice_consts) / min(slice_consts)
    # ellipse annulus deviation over R <= 300
    ellipse_worst = 0.0
    for d0 in (1, 2, 5):
        for r in range(10, 301, 10):
            count, area = annulus_count_vs_area(0.0, float(r), d0)
            ellipse_worst = max(ellipse_worst, abs(count - area) / r ** (2.0 / 3.0))
    elapsed = time.perf_counter() - t0
    passed = gauss_worst <= 1.0 and slice_spread <= 3.0 and ellipse_worst <= 8.0
    report(
        8,
        passed,
        elapsed,
        f"gauss rel err <= 3/k_F (worst frac {gauss_worst:.3f}); slice C spread x{slice_spread:.2f} <= 3; "
        f"ellipse dev/R^(2/3) worst {ellipse_worst:.2f} <= 8",
    )
    assert gauss_worst <= 1.0
    assert slice_spread <= 3.0
    assert ellipse_worst <= 8.0


def test_criterion_9_normalization(ball_3600):
    t0 = time.perf_counter()
    decomp = build_patches(16, ball_3600, 1.0)
    k = (0, 0, 1)
    idx = index_sets(decomp, k, ENERGY_DELTA)
    kv = np.array([0.0, 0.0, 1.0])
    ratios = {}
    for alpha in idx.plus_side + idx.minus_side:
        u = abs(float(decomp.omegas[alpha] @ kv))
        if u < 0.3:
            continue
        count = pair_count(decomp, k, alpha)
        predicted = 4.0 * math.pi * ball_3600.k_fermi**2 / decomp.m_patches * u
        ratios[alpha] = count / predicted
    lo, hi = min(ratios.values()), max(ratios.values())
    elapsed = time.perf_counter() - t0
    passed = 0.75 <= lo and hi <= 1.25 and len(ratios) > 0
    report(
        9,
        passed,
        elapsed,
        f"pair-count ratios over {len(ratios)} patches in [{lo:.3f}, {hi:.3f}] within [0.75, 1.25]",
    )
    assert passed


def test_criterion_10_hf_stability(ball_400, unit_potential):
    t0 = time.perf_counter()
    ball, pot = ball_400, unit_potential
    lam_v1 = pot.ell1() / ball.n_particles
    assert lam_v1 < ball.hbar**2 / 2.0
    holes, particles = boundary_shells(ball)
    rng = np.random.default_rng(9_2024)
    hi = rng.integers(0, len(holes), size=1000)
    pi_ = rng.integers(0, len(particles), size=1000)
    gaps = np.array(
        [
            excitation_energy(ball, pot, holes[i], particles[j])
            for i, j in zip(hi, pi_)
        ]
    )
    all_positive = bool((gaps > 0).all())

    # full re-summation oracle on 50 sampled swaps
    occ0 = _band(0, ball.norm_sq_max)
    e0 = hf_energy_of_occupation(ball, pot, occ0)
    assert e0 == pytest.approx(hartree_fock_energy(ball, pot), rel=1e-12)
    hole_index = {tuple(h): i for i, h in enumerate(occ0.tolist())}
    check = rng.choice(1000, size=50, replace=False)
    worst_rel = 0.0
    for i in check:
        h, p = holes[hi[i]], particles[pi_[i]]
        occ = occ0.copy()
        occ[hole_index[tuple(h.tolist())]] = p
        full = hf_energy_of_occupation(ball, pot, occ) - e0
        worst_rel = max(worst_rel, abs(full - gaps[i]) / abs(full))
    elapsed = time.perf_counter() - t0
    passed = all_positive and worst_rel <= 1e-10
    report(
        10,
        passed,
        elapsed,
        f"1000 boundary swaps positive: {all_positive} (min gap {gaps.min():.3e}); "
        f"50-swap re-summation dev {worst_rel:.2e} <= 1e-10",
    )
    assert all_positive
    assert worst_rel <= 1e-10
