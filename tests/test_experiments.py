"""Experiment internals against their slow oracles: the batched gaps and
the band-local Hartree-Fock swap oracle, the slice histogram that
slice_count_bound reads, the memory and reach of hf_stability, the
stacked kernel solves of kernel_identities, and kernel_bound_fit's
plus-side constants against the doubled dense solve."""

import csv
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fermiball import (
    InteractionPotential,
    bogokernel,
    build_fermi_ball,
    build_mode_system,
    build_patches,
    excitation_energy,
    lattice,
)
from fermiball.experiments import (
    ENERGY_DELTA,
    BallCache,
    Context,
    default_potential,
    exp_kernel_bound_fit,
    exp_kernel_identities,
    load_config,
    run_experiments,
)
from fermiball.lattice import pair_gap_histogram
from fermiball.lattice import _band
from oracles import (
    boundary_shells,
    contains_points,
    count_slice,
    dense_bound_constants,
    dense_diagonalize,
    hf_energy_of_occupation,
    per_system_kernel_identities,
    scalar_excitation_energy,
)

POTENTIALS = {
    "unit": default_potential(),
    # reach 2: ceil(|k|) = 2 on every support vector
    "reach_2": InteractionPotential([((2, 0, 0), 0.05), ((0, 1, 1), 0.05), ((0, 1, -1), 0.05)]),
    "with_v0": InteractionPotential([((0, 0, 0), 0.3), *default_potential().items()]),
}


def assert_band_oracle_exact(ball, pot, holes, particles):
    # every swap from one band walk
    energies = lattice.swap_energies(ball, pot, holes, particles)
    assert len(energies) == len(holes)
    occ0 = _band(0, ball.norm_sq_max)
    for h, p, energy in zip(holes, particles, energies):
        occ = occ0.copy()
        occ[np.flatnonzero((occ0 == h).all(axis=1))[0]] = p
        assert energy == hf_energy_of_occupation(ball, pot, occ), (h, p)


@pytest.mark.parametrize("name", list(POTENTIALS))
@pytest.mark.parametrize("ksq, n_swaps", [("400.5", 20), ("6400.5", 3)])
def test_band_oracle_matches_full_oracle(ksq, n_swaps, name):
    ball, pot = build_fermi_ball(k_fermi_sq=Fraction(ksq)), POTENTIALS[name]
    holes, particles = boundary_shells(ball)
    rng = np.random.default_rng(2024)
    hi = rng.integers(0, len(holes), size=n_swaps)
    pi = rng.integers(0, len(particles), size=n_swaps)
    assert_band_oracle_exact(ball, pot, holes[hi], particles[pi])


@pytest.mark.parametrize("name", list(POTENTIALS))
@pytest.mark.parametrize("ksq", ["400.5", "6400.5"])
def test_batched_gaps_equal_scalar_gaps(ksq, name):
    # hf_stability's 1000 sampled swaps (seed 1), in one call
    ball, pot = build_fermi_ball(k_fermi_sq=Fraction(ksq)), POTENTIALS[name]
    holes, particles = boundary_shells(ball)
    rng = np.random.default_rng(1)
    hi = rng.integers(0, len(holes), size=1000)
    pi = rng.integers(0, len(particles), size=1000)
    gaps = excitation_energy(ball, pot, holes[hi], particles[pi])
    assert gaps.shape == (1000,)
    for h, p, gap in zip(holes[hi], particles[pi], gaps.tolist()):
        assert gap == scalar_excitation_energy(ball, pot, h, p), (h, p)
    # one swap is a batch of one, returned as a float
    one = excitation_energy(ball, pot, holes[hi[0]], particles[pi[0]])
    assert type(one) is float and one == gaps[0]


@pytest.mark.parametrize("name", list(POTENTIALS))
def test_band_oracle_exact_on_deepest_partners(name):
    # k_F^2 = 441 puts the innermost holes on the perfect square |h|^2 = 20^2,
    # where a + k = h is possible for |a| = 20 - R: the one case that needs
    # the unit of slack in r_in. For each support vector k the swap takes the
    # hole whose partner h - k lies deepest.
    ball, pot = build_fermi_ball(k_fermi_sq=Fraction(441)), POTENTIALS[name]
    holes, particles = boundary_shells(ball)
    deepest = [np.argmin(((holes - np.asarray(k)) ** 2).sum(axis=1)) for k in pot.support]
    # the oracle's interior is read from the innermost of these holes
    assert int((holes[deepest] ** 2).sum(axis=1).min()) == 400
    assert_band_oracle_exact(ball, pot, holes[deepest], particles[: len(deepest)])


@pytest.mark.parametrize("name", list(POTENTIALS))
@pytest.mark.parametrize("ksq", ["400.5", "441"])
def test_band_oracle_exact_on_deep_holes(ksq, name):
    # holes below the boundary band: the origin, which leaves no interior,
    # and two holes of one batch whose innermost sets a smaller interior
    # than the band's (|h|^2 = 134 and 361; the band starts at 362 and 400)
    ball, pot = build_fermi_ball(k_fermi_sq=Fraction(ksq)), POTENTIALS[name]
    holes, particles = boundary_shells(ball)
    assert int((holes * holes).sum(axis=1).min()) > 361
    assert_band_oracle_exact(ball, pot, np.array([(0, 0, 0)]), particles[:1])
    assert_band_oracle_exact(ball, pot, np.array([(10, 5, 3), (0, 0, 19)]), particles[1:3])


def test_band_oracle_rejects_swaps_outside_its_band(ball_400, unit_potential, monkeypatch):
    # a hole outside the ball, and a particle inside it
    holes, particles = boundary_shells(ball_400)
    with pytest.raises(ValueError, match="hole .* is not inside"):
        lattice.swap_energies(ball_400, unit_potential, [holes[0], particles[1]], particles[:2])
    with pytest.raises(ValueError, match="particle .* is not outside"):
        lattice.swap_energies(ball_400, unit_potential, holes[:2], [particles[0], holes[1]])
    # an empty batch is priced without a walk
    monkeypatch.setattr(lattice, "_band_blocks", None)
    assert lattice.swap_energies(ball_400, unit_potential, holes[:0], particles[:0]) == []


def test_band_oracle_memory_is_kept_arrays_plus_bounded_transient(ball_6400, unit_potential):
    # re-summing 50 swaps at k_F^2 = 6400.5 traces at most 3 MB in all: the
    # band is walked once, in row blocks, and none is kept (the kept band and
    # norms alone were 7.6 MB)
    holes, particles = boundary_shells(ball_6400)
    tracemalloc.start()
    try:
        energies = lattice.swap_energies(ball_6400, unit_potential, holes[:50], particles[:50])
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(energies) == 50
    # what outlives the call is its list of energies, not the band
    assert kept < 64 * 1024, kept
    assert peak <= 3e6, peak


def test_boundary_shells_are_int32(ball_400):
    holes, particles = boundary_shells(ball_400)
    assert holes.dtype == particles.dtype == np.int32
    assert contains_points(ball_400, holes).all() and not contains_points(ball_400, particles).any()


@pytest.mark.parametrize("ksq", ["400.5", "1600.5"])
@pytest.mark.parametrize("k", [(0, 0, 1), (1, -2, 3)])
def test_slice_counts_match_count_slice(ksq, k):
    # the slice counts slice_count_bound reads are the pair-gap histogram
    ball = build_fermi_ball(k_fermi_sq=Fraction(ksq))
    lo, counts = pair_gap_histogram(ball, k)
    assert counts[0] > 0 and counts.sum() > 0
    for i, c in enumerate(counts.tolist()):
        assert c == count_slice(ball, k, lo + i)
    # no pair lies outside the histogram's range
    assert count_slice(ball, k, lo - 1) == 0
    assert count_slice(ball, k, lo + len(counts)) == 0


def hf_config(tmp_path, ksq: float, **options):
    doc = {
        "experiments": ["hf_stability"],
        "seed": 1,
        "options": {"hf_stability": {"k_fermi_sq": ksq, **options}},
        "output_dir": str(tmp_path / "out"),
    }
    return load_config(doc)


def test_hf_stability_without_checks_writes_its_summary_only(tmp_path):
    # n_check = 0 draws and prices the swaps but re-sums none of them
    config = hf_config(tmp_path, 400.5, n_swaps=20, n_check=0)
    manifest, ok = run_experiments(config)
    assert ok, manifest
    with open(tmp_path / "out" / "hf_stability.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    summary = rows[0]
    assert (summary["swap"], summary["hole"], summary["particle"]) == ("-1", "summary", "n_swaps=20")
    assert float(summary["excitation"]) > 0.0
    assert float(summary["rel_dev"]) == 0.0


def test_hf_stability_memory_below_one_ball_array(tmp_path):
    # one (N, 3) int64 array of the occupied ball is 24 N bytes (49 MiB here);
    # the band oracle must not build anything that size
    config = hf_config(tmp_path, 6400.5, n_swaps=20, n_check=1)
    n = build_fermi_ball(k_fermi_sq=Fraction("6400.5")).n_particles
    tracemalloc.start()
    try:
        manifest, ok = run_experiments(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok, manifest
    assert peak < 24 * n, f"peak {peak / 2**20:.1f} MiB >= {24 * n / 2**20:.1f} MiB"


def test_hf_stability_keeps_no_boundary_shell(tmp_path):
    # N = 1.4e8: the bands are counted and only the drawn rows are built
    # (the two kept int32 shells traced 57 MB here)
    config = hf_config(tmp_path, 102400.5, n_check=1)
    tracemalloc.start()
    try:
        manifest, ok = run_experiments(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok, manifest
    assert peak <= 8e6, peak


def test_hf_stability_reaches_n_1e7(tmp_path):
    ksq = 25600.5
    config = hf_config(tmp_path, ksq, n_check=2)
    manifest, ok = run_experiments(config)
    assert ok, manifest
    with open(tmp_path / "out" / "hf_stability.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))[1:]  # the first row is the summary
    assert len(rows) == 2
    # round-off bound on the re-summed gap: a few ulp of the total energy
    # scale k_F^2 N^(1/3) (N from the volume law) relative to the gap
    scale = ksq * (4.0 * math.pi / 3.0 * ksq**1.5) ** (1.0 / 3.0)
    for row in rows:
        tol = 16.0 * 2.0**-52 * scale / abs(float(row["excitation"]))
        assert float(row["rel_dev"]) <= tol, row


def kernel_identities_context(seed):
    config = load_config({"experiments": ["kernel_identities"], "seed": seed})
    return Context(config, BallCache())


@pytest.mark.parametrize("seed", [1, 7])
def test_kernel_identities_rows_equal_per_system_rows(seed):
    # default options: 200 systems of side up to 30, solved in equal-size stacks
    rows = exp_kernel_identities(kernel_identities_context(seed))
    expected = per_system_kernel_identities(seed, n_systems=200, max_side=30)
    assert rows == expected
    assert [list(row) for row in rows] == [list(row) for row in expected]


def test_kernel_identities_memory_is_bounded_by_its_stacks():
    # a stack holds at most 2^13 matrix entries (64 kB an array); the loop
    # of one system at a time traced 1.06 MB, 2^14-entry stacks 4.2 MB
    ctx = kernel_identities_context(1)
    tracemalloc.start()
    try:
        exp_kernel_identities(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6, peak


def kernel_bound_fit_context():
    config = load_config({"experiments": ["kernel_bound_fit"], "seed": 1})
    return Context(config, BallCache())


def test_kernel_bound_fit_matches_the_dense_solve():
    # each row's constants from the plus-side blocks against the doubled
    # 2I x 2I solve; the maximum is often tied between symmetric patches
    # (at M = 16 the two solves name different entries), so the named entry
    # is checked to attain the dense c*, not to be the dense solve's
    ctx = kernel_bound_fit_context()
    rows = exp_kernel_bound_fit(ctx)
    pot = InteractionPotential({(0, 0, 1): 0.1, (0, 0, -1): 0.1})
    ball = ctx.balls.get(1600.5)
    for row in rows:
        decomp = build_patches(row["m_requested"], ball, 1.0)
        k = tuple(int(c) for c in row["k"].split())
        ms = build_mode_system(decomp, pot, k, ENERGY_DELTA)
        ref = dense_bound_constants(ms, dense_diagonalize(ms))
        for name in ("c_star", "c_star_sinh", "c_frak_minus_d"):
            assert row[name] == pytest.approx(ref[name], rel=1e-9), (row, name)
        named = ref["scaled_kernel"][row["worst_alpha"], row["worst_beta"]]
        assert named == pytest.approx(ref["c_star"], rel=1e-9), row
    assert len(rows) == 3


def record_decompositions(monkeypatch, record):
    """Route np.linalg.eigh and eigvalsh through record(name, a) before each
    call, a the matrix argument."""
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def recorded(a, *args, _real=real, _name=name, **kwargs):
            record(_name, a)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)


def test_kernel_experiments_decompose_no_doubled_matrix(monkeypatch):
    # every eigh / eigvalsh call of kernel_identities and kernel_bound_fit is
    # on I x I matrices (stacked or not), I the plus side of the mode systems
    # being solved: none on the doubled 2I x 2I system
    shapes, current = [], []
    record_decompositions(
        monkeypatch,
        lambda _name, a: shapes.append((current[-1] if current else None, np.shape(a)[-2:])),
    )

    def solving(fn, side_of):
        def wrapped(arg, *args, **kwargs):
            current.append(side_of(arg))
            try:
                return fn(arg, *args, **kwargs)
            finally:
                current.pop()

        return wrapped

    monkeypatch.setattr(bogokernel, "_solve", solving(bogokernel._solve, lambda u: np.shape(u)[-1]))
    monkeypatch.setattr(bogokernel, "diagonalize", solving(bogokernel.diagonalize, lambda ms: ms.side))
    exp_kernel_identities(kernel_identities_context(1))
    exp_kernel_bound_fit(kernel_bound_fit_context())
    assert {side for side, _ in shapes} >= {1, 30}
    for side, shape in shapes:
        assert side is not None and shape == (side, side), (side, shape)


def test_kernel_bound_fit_solves_without_the_checks(monkeypatch):
    # kernel_bound_fit reads only K, sinh K and frakK, so each of its solves
    # makes two eigh calls (the sandwich and S1 S1^T) and guards d + 2b by
    # one eigvalsh, as a solve did before it checked itself
    names = []
    record_decompositions(monkeypatch, lambda name, _a: names.append(name))
    solves = len(exp_kernel_bound_fit(kernel_bound_fit_context()))
    assert (names.count("eigh"), names.count("eigvalsh"), len(names)) == (2 * solves, solves, 3 * solves)


def test_kernel_identities_decomposes_each_matrix_once(monkeypatch):
    # each stack makes five eigh calls (d + 2b, d^1/2 (d+2b) d^1/2, S1 S1^T,
    # (d+2b)^1/2 d (d+2b)^1/2 and I + L2) and one eigvalsh (frakK and E
    # stacked), and no two calls decompose the same bytes
    calls, stacks = [], []
    record_decompositions(monkeypatch, lambda name, a: calls.append((name, np.asarray(a).tobytes())))
    real_solve = bogokernel._solve

    def solve(*args, **kwargs):
        calls.clear()
        out = real_solve(*args, **kwargs)
        stacks.append(list(calls))
        return out

    monkeypatch.setattr(bogokernel, "_solve", solve)
    exp_kernel_identities(kernel_identities_context(1), n_systems=40)
    assert len(stacks) > 10
    for made in stacks:
        names = [name for name, _ in made]
        assert (names.count("eigh"), names.count("eigvalsh"), len(names)) == (5, 1, 6)
        assert len({data for _, data in made}) == len(made)
