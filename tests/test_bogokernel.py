import math
import re

import numpy as np
import pytest

from fermiball import (
    DiagonalizationError,
    KAPPA_IDEAL,
    build_mode_system,
    build_patches,
    check_frakK_minus_D_bound,
    check_kernel_bound,
    check_L_blocks,
    diagonalize,
    ground_state_shift,
    sample_mode_system,
)
from fermiball import bogokernel
from fermiball.bogokernel import (
    _assemble,
    _diag,
    _apply,
    _eigh_pd,
    _scaled_bound,
    _solve,
    stacked_residuals,
)
from fermiball.lattice import InteractionPotential, Momentum
from oracles import (
    check_frakK_vs_E,
    dense_diagonalize,
    dump_solution_csv,
    exact_plus_side_solve,
    mode_matrices,
    pair_count,
    two_sided,
)


def dense(ms):
    """The doubled D, W and W~ of a mode system."""
    return mode_matrices(ms.u, ms.v, ms.g)


def one_plus_one_system(u=0.8, n_pairs=900.0, vhat=0.4, n_particles=10**6):
    """Single mode per side, built directly from the scalar data."""
    hbar = n_particles ** (-1.0 / 3.0)
    return _assemble(
        Momentum(0, 0, 1),
        vhat,
        m_patches=24,
        hbar=hbar,
        plus_modes=(0,),
        u=np.array([u]),
        n=np.array([math.sqrt(n_pairs)]),
    )


# ------------------------------------------------------------ assembly


def test_mode_matrices_m2(ball_400, unit_potential):
    decomp = build_patches(2, ball_400, 1.0)
    ms = build_mode_system(decomp, unit_potential, (0, 0, 1), 0.05)
    assert ms.size == 2
    D, W, Wt = dense(ms)
    assert np.allclose(D, np.eye(2))
    g_prime = unit_potential((0, 0, 1)) / (
        2.0 * ball_400.hbar * KAPPA_IDEAL * ball_400.n_particles * 1.0
    )
    n0 = ms.n[0]
    assert W[0, 0] == pytest.approx(g_prime * n0 * n0, rel=1e-12)
    assert W[0, 1] == 0.0
    assert Wt[0, 1] == pytest.approx(g_prime * n0 * n0, rel=1e-12)
    assert Wt[0, 0] == 0.0


def test_mode_matrix_entries_match_pair_counts(ball_100, unit_potential):
    decomp = build_patches(6, ball_100, 1.0)
    ms = build_mode_system(decomp, unit_potential, (0, 0, 1), 0.16)
    coeff = unit_potential((0, 0, 1)) / (
        2.0 * ball_100.hbar * KAPPA_IDEAL * ball_100.n_particles
    )
    side = ms.side
    _, W, _ = dense(ms)
    for i in range(side):
        ni = pair_count(decomp, (0, 0, 1), ms.plus_modes[i])
        assert ms.n[i] ** 2 == pytest.approx(ni)
        for j in range(side):
            nj = pair_count(decomp, (0, 0, 1), ms.plus_modes[j])
            assert W[i, j] == pytest.approx(coeff * math.sqrt(ni * nj), rel=1e-12)


def test_mode_energies_read_the_matvec_dots(ball_6400):
    # at this k the row dots omega_a . k differ from the matrix-vector product
    # in the last bit for some patches; u must follow the product
    k = (-3, -2, 3)
    pot = InteractionPotential({k: 0.05, (3, 2, -3): 0.05})
    decomp = build_patches(30, ball_6400, 1.0)
    ms = build_mode_system(decomp, pot, k, 0.16)
    kv = np.array(k, dtype=np.float64)
    expected = np.sqrt(np.abs(decomp.omegas @ kv)[list(ms.plus_modes)] / math.sqrt(22.0))
    assert np.array_equal(ms.u, expected)


def test_free_case_is_trivial():
    ms = one_plus_one_system(vhat=0.0)
    sol = diagonalize(ms)
    d = _diag(ms.u**2)
    assert np.allclose(sol.E, d, atol=1e-15)
    assert np.allclose(sol.K, 0.0, atol=1e-15)
    assert np.allclose(sol.frakK, d, atol=1e-15)
    assert sol.trace_correction == pytest.approx(0.0, abs=1e-15)
    c_star, _ = check_kernel_bound(sol, ms)
    assert c_star == 0.0
    assert check_L_blocks(ms, sol) == pytest.approx(0.0, abs=1e-14)
    assert check_frakK_vs_E(sol) == pytest.approx(0.0, abs=1e-14)
    assert check_frakK_minus_D_bound(sol, ms) == 0.0


# ------------------------------------------------- 1+1 closed forms


def test_one_plus_one_closed_forms():
    ms = one_plus_one_system()
    sol = diagonalize(ms)
    u2 = ms.u[0] ** 2
    b = ms.g * ms.v[0] ** 2
    theta = 0.25 * math.log1p(2.0 * b / u2)
    # exact kernel: zero diagonal, off-diagonal -theta; K1 is that off-diagonal block
    assert sol.K.shape == (1, 1)
    assert sol.K[0, 0] == pytest.approx(-theta, rel=1e-13)
    assert abs(sol.K[0, 0]) == pytest.approx(theta, rel=1e-13)
    e_exact = math.sqrt(u2 * (u2 + 2.0 * b))
    assert np.allclose(sol.E, e_exact * np.eye(1), rtol=1e-13)
    assert sol.trace_correction == pytest.approx(e_exact - u2 - b, rel=1e-13)
    assert check_L_blocks(ms, sol) < 1e-12
    assert check_frakK_vs_E(sol) < 1e-12
    # fitted kernel-bound constant from the scalar formula
    c_star, pair = check_kernel_bound(sol, ms)
    assert c_star == pytest.approx(theta * ms.m_patches / ms.vhat_k, rel=1e-12)
    assert pair in ((0, 1), (1, 0))
    # the doubled forms of the plus-side blocks, and the doubled dense solve
    ref = dense_diagonalize(ms)
    closed = np.array([[0.0, -theta], [-theta, 0.0]])
    for got in (two_sided(sol.K, True), ref.K):
        assert np.abs(got - closed).max() <= 1e-13 * theta
    for got in (two_sided(sol.coshK, False), ref.coshK):
        assert got == pytest.approx(math.cosh(theta) * np.eye(2), rel=1e-13)
    for got in (two_sided(sol.sinhK, True), ref.sinhK):
        assert got == pytest.approx(-math.sinh(theta) * (1 - np.eye(2)), rel=1e-13)
    assert np.linalg.eigvalsh(ref.E) == pytest.approx([e_exact, e_exact], rel=1e-13)
    assert ref.trace_correction == pytest.approx(e_exact - u2 - b, rel=1e-13)


# ------------------------------------------------- 40-digit reference


def reference_systems(ball_1600):
    """Ten sampled systems of side 1 to 16 (two of side 16) and
    kernel_bound_fit's M = 30, k = (0, 0, 1) system (side 15)."""
    rng = np.random.default_rng(1)
    systems = [sample_mode_system(rng, max_side=16) for _ in range(10)]
    pot = InteractionPotential({(0, 0, 1): 0.1, (0, 0, -1): 0.1})
    decomp = build_patches(30, ball_1600, 1.0)
    return systems + [build_mode_system(decomp, pot, (0, 0, 1), 0.16)]


def test_solve_matches_a_40_digit_reference(ball_1600):
    # errors measured on these systems, with the margin each bound keeps:
    # K1 (dimensionless) 1.0e-13 absolute, bound 10x;
    # the spectrum of E1 3.8e-15 of its largest value, bound 10x;
    # trace_correction 8.3e-16 of tr d, bound 12x.  tr d is the scale that
    # tr(E1 - d - b) cancels, so the trace is compared on it: relative to
    # the trace itself the error reaches 8.2e-12 where the trace is small;
    # kernel_bound_fit's constant C* 2.9e-15 relative, bound 10x
    systems = reference_systems(ball_1600)
    assert max(ms.side for ms in systems) == 16
    for ms in systems:
        kernel, spectrum, trace = exact_plus_side_solve(ms, dps=40)
        sol = diagonalize(ms)
        assert np.abs(sol.K - kernel).max() <= 1e-12, ms.side
        spec = np.linalg.eigvalsh(sol.E)
        assert np.abs(spec - spectrum).max() <= 4e-14 * spectrum.max(), ms.side
        assert abs(sol.trace_correction - trace) <= 1e-14 * (ms.u**2).sum(), ms.side
    # the loop ends on kernel_bound_fit's system: C* of the solved K1 against
    # C* read from the exact K1 by the same formula
    c_star, _ = check_kernel_bound(sol, ms)
    assert abs(c_star - _scaled_bound(kernel, ms).max()) <= 3e-14 * c_star


# ------------------------------------------------- randomized identities


@pytest.fixture(scope="module")
def random_solutions():
    rng = np.random.default_rng(20240817)
    out = []
    for _ in range(40):
        ms = sample_mode_system(rng, max_side=20)
        out.append((ms, diagonalize(ms)))
    return out


def test_symplectic_relations(random_solutions):
    for ms, sol in random_solutions:
        assert sol.residuals["symplectic_plus"] < 1e-10
        assert sol.residuals["symplectic_minus"] < 1e-10


def test_hyperbolic_identity(random_solutions):
    for ms, sol in random_solutions:
        assert sol.residuals["hyperbolic"] < 1e-10 * math.sqrt(ms.size)


def test_orthogonality_and_symmetry(random_solutions):
    for _, sol in random_solutions:
        assert sol.residuals["orthogonality"] < 1e-12
        assert np.array_equal(sol.K, sol.K.T)
        assert abs(abs(sol.residuals["det_O"]) - 1.0) < 1e-10


def test_offdiagonal_cancellation(random_solutions):
    for _, sol in random_solutions:
        assert sol.residuals["offdiagonal_rel"] < 1e-10


def test_frak_equivalent_to_E(random_solutions):
    for ms, sol in random_solutions:
        assert check_frakK_vs_E(sol) < 1e-9
        spec_f = np.sort(np.linalg.eigvalsh(sol.frakK))
        spec_e = np.sort(np.linalg.eigvalsh(sol.E))
        assert np.abs(spec_f - spec_e).max() < 1e-9 * np.abs(spec_e).max()
        assert spec_e[0] > 0


def test_L_block_reconstruction(random_solutions):
    for ms, sol in random_solutions:
        assert check_L_blocks(ms, sol) < 1e-9


def test_sinh_decay_follows_kernel_bound(random_solutions):
    from fermiball.bogokernel import check_sinh_bound

    for ms, sol in random_solutions:
        c_kernel, _ = check_kernel_bound(sol, ms)
        c_sinh = check_sinh_bound(sol, ms)
        assert c_sinh <= 4.0 * c_kernel + 1e-12


def test_trace_correction_nonpositive(random_solutions):
    for _, sol in random_solutions:
        assert sol.trace_correction <= 1e-12


# ------------------------------------------------------------ stacked solve


def equal_size_systems(side, count=3, seed=5):
    """count sampled mode systems of the given side, in draw order."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        ms = sample_mode_system(rng, max_side=max(side, 1))
        if ms.side == side:
            found.append(ms)
    return found


def stacked_data(systems):
    """u, v and g of equal-size systems, stacked."""
    u = np.stack([ms.u for ms in systems])
    v = np.stack([ms.v for ms in systems])
    return u, v, np.array([ms.g for ms in systems])


@pytest.mark.parametrize("side", [1, 30])
def test_stack_solves_to_the_bits_of_single_systems(side):
    systems = equal_size_systems(side)
    u, v, g = stacked_data(systems)
    stacked = _solve(u, v, g)
    assert set(stacked.residuals) == {
        "offdiagonal_rel",
        "spectrum_rel_dev",
        "l_block_dev",
        "symplectic_plus",
        "symplectic_minus",
        "hyperbolic",
        "orthogonality",
        "det_O",
    }
    for j, ms in enumerate(systems):
        single = diagonalize(ms)
        for name in ("E", "S1", "S2", "O", "K", "coshK", "sinhK", "frakK"):
            assert np.array_equal(getattr(stacked, name)[j], getattr(single, name)), name
        assert stacked.trace_correction[j] == single.trace_correction
        assert set(single.residuals) == set(stacked.residuals)
        for name, value in single.residuals.items():
            assert stacked.residuals[name][j] == value, name
        assert stacked.residuals["l_block_dev"][j] == check_L_blocks(ms, single)


@pytest.mark.parametrize("entries", [None, 64])
def test_stacked_residuals_have_the_bits_of_single_solves(monkeypatch, entries):
    # systems of mixed sides, in draw order; 64 entries per stack splits
    # every side above 2 into several stacks, and sides above 8 into one
    # system a stack
    if entries is not None:
        monkeypatch.setattr(bogokernel, "_STACK_ENTRIES", entries)
    rng = np.random.default_rng(11)
    systems = [sample_mode_system(rng, max_side=12) for _ in range(60)]
    assert len({ms.side for ms in systems}) > 6
    stacks = []
    real_solve = bogokernel._solve

    def counted(u, *args, **kwargs):
        stacks.append(len(u))
        return real_solve(u, *args, **kwargs)

    monkeypatch.setattr(bogokernel, "_solve", counted)
    got = stacked_residuals(systems)
    assert sum(stacks) == len(systems) and len(stacks) < len(systems)
    assert len(got) == len(systems)
    for ms, res in zip(systems, got):
        single = real_solve(ms.u, ms.v, ms.g).residuals
        # repr tells -0.0 from 0.0, so equal reprs are equal bits
        assert {name: repr(value) for name, value in res.items()} == {
            name: repr(float(value)) for name, value in single.items()
        }
    assert stacked_residuals([]) == []


@pytest.mark.parametrize("side", [1, 30])
def test_unchecked_solve_has_the_bits_of_the_checked_one(monkeypatch, side):
    # checked=False drops l_block_dev and spectrum_rel_dev and their LAPACK
    # calls: d + 2b is guarded by eigvalsh, and only the sandwich and S1 S1^T
    # are decomposed
    u, v, g = stacked_data(equal_size_systems(side))
    checked = _solve(u, v, g)
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    unchecked = _solve(u, v, g, checked=False)
    assert sorted(calls) == ["eigh", "eigh", "eigvalsh"]
    for name in ("E", "S1", "S2", "O", "K", "coshK", "sinhK", "frakK", "trace_correction"):
        assert np.array_equal(getattr(unchecked, name), getattr(checked, name)), name
    assert set(checked.residuals) - set(unchecked.residuals) == {"l_block_dev", "spectrum_rel_dev"}
    for name, value in unchecked.residuals.items():
        assert np.array_equal(value, checked.residuals[name]), name


@pytest.mark.parametrize("stack", [None, 7])
def test_diagonal_root_has_the_bits_of_the_eigh_root(stack):
    # _solve takes d^1/2 and d^-1/2 entrywise; the eigh roots
    # give the same bits
    rng = np.random.default_rng(5)
    for side in range(1, 31):
        for _ in range(20):
            d = rng.uniform(0.01, 3.0, size=(side,) if stack is None else (stack, side)) ** 2
            w, q = _eigh_pd(_diag(d), "d")
            for fn in (np.sqrt, lambda x: 1.0 / np.sqrt(x)):
                want = _apply(w, q, fn)
                got = _diag(fn(d))
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (stack, side)


def test_non_pd_matrix_in_a_stack_is_named():
    u, v, g = stacked_data(equal_size_systems(4))
    zeroed = u.copy()
    zeroed[1, 0] = 0.0  # zero a kinetic entry of the second system
    with pytest.raises(DiagonalizationError, match=r"D \+ W - W~ .*\(matrix 1 of the stack\)"):
        _solve(zeroed, v, g)
    # d stays positive; a coupling below -1 / (2 v^T d^-1 v) makes d + 2b
    # indefinite, and the error names its negative eigenvalue
    g[1] = -1.5 / (2.0 * (v[1] ** 2 / u[1] ** 2).sum())
    for checked in (True, False):
        with pytest.raises(DiagonalizationError) as err:
            _solve(u, v, g, checked)
        message = str(err.value)
        assert re.search(r"D \+ W \+ W~ is not positive definite \(matrix 1 of the stack\)", message)
        assert re.search(r"smallest eigenvalue -\d", message)


# ------------------------------------------------------------ errors


def test_trace_route_builds_no_dense_matrices(monkeypatch):
    import fermiball.bogokernel as bk

    ms = sample_mode_system(np.random.default_rng(11))
    want = diagonalize(ms).trace_correction

    def refuse(*args):
        raise AssertionError("the trace route ran the kernel solve")

    monkeypatch.setattr(bk, "_solve", refuse)
    assert ground_state_shift(ms) == pytest.approx(want, rel=1e-9)


def test_dense_reference_runs_without_the_plus_side_solve(monkeypatch):
    import fermiball.bogokernel as bk

    ms = sample_mode_system(np.random.default_rng(11))
    sol = diagonalize(ms)

    def refuse(*args):
        raise AssertionError("the dense reference ran the plus-side solve")

    monkeypatch.setattr(bk, "_solve", refuse)
    ref = dense_diagonalize(ms)
    for name, cross in (("K", True), ("coshK", False), ("sinhK", True), ("frakK", False)):
        want = getattr(ref, name)
        dev = np.abs(two_sided(getattr(sol, name), cross) - want).max() / np.abs(want).max()
        assert dev <= 1e-9, name
    assert ref.trace_correction == pytest.approx(sol.trace_correction, rel=1e-9)


def test_non_pd_input_rejected():
    ms = one_plus_one_system()
    u = ms.u.copy()
    u[0] = 0.0  # d = diag(u^2) is singular
    with pytest.raises(DiagonalizationError, match=r"D \+ W - W~ is not positive definite"):
        _solve(u, ms.v, ms.g)
    # d stays positive definite; a coupling below -|u|^2/|v|^2 makes d + 2b indefinite
    g = -1.5 * (ms.u @ ms.u) / (ms.v @ ms.v)
    with pytest.raises(DiagonalizationError, match=r"D \+ W \+ W~ is not positive definite"):
        _solve(ms.u, ms.v, g)


def test_nearly_singular_d_plus_2b_is_refused():
    # with d > 0, det(d + 2b) / det(d) = 1 + 2g v^T d^-1 v (matrix determinant
    # lemma); at about 1e-14 the smallest eigenvalue of d + 2b is within the
    # guard's relative tolerance, checked or not
    ms = equal_size_systems(6)[0]
    d = ms.u**2
    g = -(1.0 - 1e-14) / (2.0 * (ms.v**2 / d).sum())
    assert 0.0 < 1.0 + 2.0 * g * (ms.v**2 / d).sum() < 1e-13
    for checked in (True, False):
        with pytest.raises(DiagonalizationError, match=r"D \+ W \+ W~ is not positive definite"):
            _solve(ms.u, ms.v, g, checked)


# ------------------------------------------------------------ dumps


def test_dump_solution_csv(tmp_path):
    ms = one_plus_one_system()
    sol = diagonalize(ms)
    path = tmp_path / "solution.csv"
    dump_solution_csv(sol, ms, path)
    text = path.read_text().splitlines()
    assert text[0].startswith("k,")
    names = {line.split(",")[0] for line in text[1:]}
    assert names == {"E", "S1", "S2", "O", "K", "coshK", "sinhK", "frakK"}
