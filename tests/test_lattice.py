import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiball import (
    InteractionPotential,
    Momentum,
    annulus_count_vs_area,
    build_fermi_ball,
    equator_reciprocal_sum,
    excitation_energy,
    hartree_fock_energy,
    kinetic_reciprocal_sum,
    pair_gap_histogram,
)
import fermiball.lattice as lattice_mod
from fermiball.lattice import (
    _band,
    _band_blocks,
    _band_rows,
    _band_runs,
    _ball_count,
    _ball_kinetic_sum,
    _blocks,
    _isqrt,
    _lune,
    _lune_size,
    sample_band,
    swap_energies,
)
from oracles import (
    band_shell_pairs,
    contains,
    count_slice,
    dispersion,
    one_pass_ball_count,
    one_pass_ball_kinetic_sum,
    one_pass_band,
    running_sum_fill,
    shell_denominators,
    shell_pairs,
    support_diameter,
)


# ---------------------------------------------------------------- oracles


def brute_ball_count(ksq) -> int:
    r = int(math.floor(math.sqrt(float(ksq)))) + 1
    count = 0
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            for z in range(-r, r + 1):
                if Fraction(x * x + y * y + z * z) <= Fraction(ksq):
                    count += 1
    return count


def brute_shell_pairs(ksq, k, box=6):
    kx, ky, kz = k
    thr = Fraction(ksq)
    out = set()
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            for z in range(-box, box + 1):
                p2 = x * x + y * y + z * z
                h2 = (x - kx) ** 2 + (y - ky) ** 2 + (z - kz) ** 2
                if Fraction(p2) > thr and Fraction(h2) <= thr:
                    out.add((x, y, z))
    return out


def brute_annulus(r_in, r_out, d0):
    lo, hi = r_in * r_in, r_out * r_out
    n = 0
    b = int(math.ceil(r_out)) + 1
    for x in range(-b, b + 1):
        for y in range(-b, b + 1):
            q = d0 * x * x + y * y
            if q <= hi and (q > lo or (r_in == 0 and q == 0)):
                n += 1
    return n


def brute_hf_energy(ball, v):
    pts = [tuple(p) for p in _band(0, ball.norm_sq_max).tolist()]
    n = len(pts)
    lam = 1.0 / n
    kin = ball.hbar**2 * sum(x * x + y * y + z * z for x, y, z in pts)
    inter = 0.0
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            if i != j:
                inter += v((0, 0, 0)) - v((p[0] - q[0], p[1] - q[1], p[2] - q[2]))
    return kin + 0.5 * lam * inter


# ------------------------------------------------------------ fermi ball


def test_ball_trivial_counts():
    assert build_fermi_ball(k_fermi_sq=Fraction(1, 4)).n_particles == 1
    assert build_fermi_ball(k_fermi_sq=1).n_particles == 7


def test_ball_matches_brute_force_and_gauss():
    ball = build_fermi_ball(k_fermi_sq=100)
    assert ball.n_particles == brute_ball_count(100)
    volume = 4.0 * math.pi / 3.0 * 1000.0
    assert abs(ball.n_particles - volume) / 100.0 < 1.0


def test_ball_builder_takes_only_a_squared_radius():
    # a positional argument, once a radius, would silently be squared
    with pytest.raises(TypeError):
        build_fermi_ball(10.0)
    assert build_fermi_ball(k_fermi_sq=100.0).k_fermi_sq == Fraction(100)


def test_ball_integer_radius_includes_boundary():
    ball = build_fermi_ball(k_fermi_sq=4)
    assert contains(ball, (2, 0, 0))
    assert ball.n_particles == brute_ball_count(4)


def test_ball_deterministic_and_sorted(ball_small):
    other = build_fermi_ball(k_fermi_sq=ball_small.k_fermi_sq)
    assert other.n_particles == ball_small.n_particles
    pts = _band(0, ball_small.norm_sq_max)
    assert np.array_equal(pts, _band(0, other.norm_sq_max))
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    assert np.array_equal(order, np.arange(len(pts)))


def test_ball_holds_no_arrays():
    ball = build_fermi_ball(k_fermi_sq=400.5)
    assert not any(isinstance(v, np.ndarray) for v in vars(ball).values())


def test_ball_counts_match_band():
    # every q in 0..3000 from one enumeration: _band(0, q) is the part of
    # _band(0, 3000) with |p|^2 <= q, so its size and kinetic sum are prefix
    # sums over |p|^2
    p = _band(0, 3000)
    shells = np.bincount((p * p).sum(axis=1), minlength=3001)
    counts = np.cumsum(shells)
    kinetic = np.cumsum(np.arange(3001) * shells)
    for q in range(3001):
        ball = build_fermi_ball(k_fermi_sq=Fraction(2 * q + 1, 2))
        assert ball.norm_sq_max == q
        assert ball.n_particles == counts[q], q
        assert _ball_kinetic_sum(q) == kinetic[q], q
    p = _band(0, 6400)
    assert build_fermi_ball(k_fermi_sq=6400).n_particles == len(p)
    assert _ball_kinetic_sum(6400) == int((p * p).sum())


def test_ball_reaches_a_billion_points():
    # N = 1.1e9 is counted column by column; no point is materialised
    ball = build_fermi_ball(k_fermi_sq=Fraction("409600.5"))
    volume = 4.0 * math.pi / 3.0 * ball.k_fermi**3
    assert abs(ball.n_particles - volume) / ball.n_particles < 1e-4


def test_isqrt_exact_next_to_squares():
    r = np.arange(0, 3_000_000, 997, dtype=np.int64)
    a = np.concatenate([r * r - 1, r * r, r * r + 1, [-5, -1]])
    expected = [math.isqrt(v) if v >= 0 else -1 for v in a.tolist()]
    assert _isqrt(a).tolist() == expected


def test_band_matches_brute_force_cube():
    r = math.isqrt(60) + 1
    ax = np.arange(-r, r + 1, dtype=np.int64)
    cube = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    q = (cube * cube).sum(axis=1)
    for q_hi in range(61):
        for q_lo in range(q_hi + 1):
            expected = cube[(q >= q_lo) & (q <= q_hi)]
            got = _band(q_lo, q_hi)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected), (q_lo, q_hi)


def slab_edge_radii(count: int) -> list[int]:
    """Radii r whose x-range -r..r ends exactly on an x-slab edge of _band,
    and radii whose last slab holds a single x, at the module's slab size."""
    on_edge, one_past = [], []
    for r in range(1, 2000):
        width = max(1, lattice_mod._SLAB_COLUMNS // (2 * r + 1))
        rest = (2 * r + 1) % width
        if rest == 0 and len(on_edge) < count:
            on_edge.append(r)
        if rest == 1 and width > 1 and len(one_past) < count:
            one_past.append(r)
    assert len(on_edge) == len(one_past) == count
    return on_edge + one_past


def band_cases() -> list[tuple[int, int]]:
    cases = [(5, 3), (2, 1), (1, 0), (0, 0), (1, 1), (0, 1), (4, 4), (9, 9)]
    for r in slab_edge_radii(3):
        q = r * r
        cases += [(q - 2 * r, q), (q - r, q + r), (q + 1, q + 2 * r)]
    # the radial shells shell_assignment builds at k_F^2 = 6400.5 and 25600.5
    for ksq in (6400.5, 25600.5):
        kf = math.sqrt(ksq)
        cases.append((math.ceil((kf - 1.0) ** 2), math.floor((kf + 1.0) ** 2)))
    return cases


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_band_matches_one_pass_oracle(dtype):
    # the block-wise repeat fill gives the one-pass running-sum band's rows
    # in its order, joined by _band and copied block by block into an array
    # of the given dtype sized from two ball counts, as the shell assignment
    # fills its int32 points (an inverted band such as (5, 3) counts below 0)
    for q_lo, q_hi in band_cases():
        expected = one_pass_band(q_lo, q_hi)
        got = _band(q_lo, q_hi)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected), (q_lo, q_hi)
        rows = np.empty((max(_ball_count(q_hi) - _ball_count(q_lo - 1), 0), 3), dtype=dtype)
        row = 0
        for block in _band_blocks(q_lo, q_hi):
            rows[row : row + len(block)] = block
            row += len(block)
        assert row == len(rows)
        assert np.array_equal(rows, expected), (q_lo, q_hi, dtype)


@pytest.mark.parametrize("slab_columns", [1, 7, 64])
def test_band_matches_one_pass_oracle_on_small_slabs(monkeypatch, slab_columns):
    # slabs of one x and of a few x cut the small bands at every edge
    monkeypatch.setattr(lattice_mod, "_SLAB_COLUMNS", slab_columns)
    for q_lo, q_hi in [(5, 3), (0, 0), (0, 1), (1, 1), (0, 50), (30, 61), (350, 420)]:
        assert np.array_equal(_band(q_lo, q_hi), one_pass_band(q_lo, q_hi)), (q_lo, q_hi)


@pytest.mark.parametrize("block_rows", [1, 7, 1 << 13])
def test_band_blocks_cover_the_band_in_order(monkeypatch, block_rows):
    # nonempty blocks of whole columns, each within block_rows plus one
    # column, that concatenate to the band filled by running sums; q = 7 and
    # 15 have no points
    monkeypatch.setattr(lattice_mod, "_BLOCK_ROWS", block_rows)
    empty = np.zeros((0, 3), dtype=np.int64)
    for q_lo, q_hi in [(7, 7), (15, 15), (0, 0), (0, 50), (30, 61), (290, 400), (5800, 6400)]:
        blocks = list(_band_blocks(q_lo, q_hi))
        assert all(0 < len(b) <= block_rows + 2 * math.isqrt(q_hi) + 1 for b in blocks)
        rows = np.concatenate([empty, *blocks])
        assert np.array_equal(rows, one_pass_band(q_lo, q_hi)), (q_lo, q_hi)
    # so do the lune's blocks, on slabs of one x and of a few x, for k in
    # the plane kz = 0, with negative components and with |k| > 1
    for slab_columns in (1, 7):
        monkeypatch.setattr(lattice_mod, "_SLAB_COLUMNS", slab_columns)
        for q in (0, 2, 50, 400):
            for k in ((1, 0, 0), (-1, 2, 0), (0, 0, 1), (1, -1, -2), (3, -2, 1)):
                kv = np.asarray(k, dtype=np.int64)
                rows = np.concatenate([empty, *_blocks(_lune(q, kv))])
                ref = np.concatenate([empty, *(running_sum_fill(*runs) for runs in _lune(q, kv))])
                assert len(ref) == _lune_size(q, kv)
                assert np.array_equal(rows, ref), (slab_columns, q, k)


def assert_sample_band_matches_band(q_lo, q_hi, seed):
    band = _band(q_lo, q_hi)
    if not len(band):
        with pytest.raises(ValueError, match=rf"band {q_lo} <= \|p\|\^2 <= {q_hi}"):
            sample_band(q_lo, q_hi, np.random.default_rng(seed), 10)
        return
    # every rank of a small band, else each slab's first and last ranks
    sizes = [int(lengths.sum()) for *_, lengths in _band_runs(q_lo, q_hi)]
    ends = np.cumsum(sizes)
    edges = np.unique(np.concatenate([ends - np.asarray(sizes), ends - 1]).clip(0, len(band) - 1))
    every = np.arange(len(band)) if len(band) <= 1 << 16 else edges
    got = _band_rows(q_lo, q_hi, every)
    assert got.dtype == np.int64
    assert np.array_equal(got, band[every]), (q_lo, q_hi)
    # then the draw: the rows at the ranks the same seed gives, repeats kept
    # and in drawn order
    got = sample_band(q_lo, q_hi, np.random.default_rng(seed), 1000)
    ranks = np.random.default_rng(seed).integers(0, len(band), size=1000)
    assert got.dtype == np.int64
    assert np.array_equal(got, band[ranks]), (q_lo, q_hi)


def test_sample_band_matches_the_band():
    for q_lo, q_hi in band_cases():
        assert_sample_band_matches_band(q_lo, q_hi, 3)


@pytest.mark.parametrize("slab_columns", [1, 7])
def test_sample_band_on_small_slabs(monkeypatch, slab_columns):
    # empty slabs and slabs of one x, and bands without a point (q = 7, 15)
    monkeypatch.setattr(lattice_mod, "_SLAB_COLUMNS", slab_columns)
    for q_lo, q_hi in [(7, 7), (15, 15), (5, 3), (0, 0), (0, 50), (30, 61), (350, 420)]:
        assert_sample_band_matches_band(q_lo, q_hi, 4)


def test_sample_band_names_a_band_without_a_point():
    # nothing is drawn from an empty band: the generator is left as it was
    rng = np.random.default_rng(5)
    for q_lo, q_hi in [(7, 7), (15, 15), (5, 3)]:
        with pytest.raises(ValueError, match=rf"band {q_lo} <= \|p\|\^2 <= {q_hi} holds no"):
            sample_band(q_lo, q_hi, rng, 10)
    assert rng.integers(0, 1 << 30) == np.random.default_rng(5).integers(0, 1 << 30)


def test_walk_refuses_empty_and_out_of_range_bands_at_once():
    # an empty band returns before the walk, and a radius beyond the walk's
    # exact range raises before its first slab: neither walks 2^32 x-slabs
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        empty = _band(2**62, 2**62 - 1)
        with pytest.raises(ValueError, match="exact range"):
            _band(0, 2**62)
        with pytest.raises(ValueError, match="exact range"):
            _band(0, lattice_mod._Q_MAX + 1)
        with pytest.raises(ValueError, match="exact range"):
            build_fermi_ball(k_fermi_sq=2**62)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert empty.shape == (0, 3) and empty.dtype == np.int64
    assert peak < 1e6, peak
    assert time.perf_counter() - t0 < 1.0


def ball_count_cases() -> list[int]:
    cases = [-1, 0, 1, 2, 3, 50, 400, 3000]
    for r in slab_edge_radii(3):
        cases += [r * r - 1, r * r, r * r + r]
    return cases


def test_ball_counts_match_one_pass_oracle():
    for q in ball_count_cases():
        assert _ball_count(q) == one_pass_ball_count(q), q
        assert _ball_kinetic_sum(q) == one_pass_ball_kinetic_sum(q), q


@pytest.mark.parametrize("slab_columns", [1, 7, 64])
def test_ball_counts_match_one_pass_oracle_on_small_slabs(monkeypatch, slab_columns):
    monkeypatch.setattr(lattice_mod, "_SLAB_COLUMNS", slab_columns)
    for q in [-1, 0, 1, 2, 3, 50, 400, 3000]:
        assert _ball_count(q) == one_pass_ball_count(q), q
        assert _ball_kinetic_sum(q) == one_pass_ball_kinetic_sum(q), q


def test_building_the_ball_traces_a_few_mb():
    # whole-disc column arrays traced 247 MB at N = 8.8e9
    tracemalloc.start()
    try:
        ball = build_fermi_ball(k_fermi_sq=Fraction("1638400.5"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ball.n_particles > 8.7e9
    assert peak <= 8e6, peak


def test_ball_reflection_symmetry(ball_small):
    pts = {tuple(p) for p in _band(0, ball_small.norm_sq_max).tolist()}
    assert pts == {(-x, -y, -z) for x, y, z in pts}


def test_scaling_constants(ball_100):
    n = ball_100.n_particles
    assert ball_100.hbar == pytest.approx(n ** (-1 / 3), rel=1e-15)
    assert ball_100.kappa_eff == pytest.approx(ball_100.k_fermi * ball_100.hbar, rel=1e-15)
    # kappa_eff approaches (3/4pi)^(1/3) ~ 0.620350 from the counting argument
    assert abs(ball_100.kappa_eff - 0.620350) < 0.01


# ------------------------------------------------------------ dispersion


def test_dispersion_vanishes_on_sphere():
    ball = build_fermi_ball(k_fermi_sq=9)
    assert dispersion(ball, (3, 0, 0)) == 0.0
    assert dispersion(ball, (0, 0, 0)) == pytest.approx(ball.kappa_eff**2, rel=1e-15)


def test_dispersion_example(ball_tiny):
    # k_F^2 = 1.5, N = 7: e((2,0,0)) = |4 - 1.5| hbar^2
    assert dispersion(ball_tiny, (2, 0, 0)) == pytest.approx(2.5 * 7 ** (-2 / 3), rel=1e-14)


# ------------------------------------------------------------ shell pairs


def test_shell_pairs_k_zero_empty(ball_tiny):
    assert len(shell_pairs(ball_tiny, (0, 0, 0))) == 0


def test_shell_pairs_brute_force():
    ball = build_fermi_ball(k_fermi_sq=1)
    got = {tuple(p) for p in shell_pairs(ball, (1, 0, 0)).tolist()}
    expected = {(2, 0, 0), (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)}
    assert got == expected
    assert got == brute_shell_pairs(1, (1, 0, 0))


@settings(max_examples=30, deadline=None)
@given(
    k=st.tuples(
        st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)
    ).filter(lambda k: any(k))
)
def test_shell_pairs_properties(k):
    ball = build_fermi_ball(k_fermi_sq=Fraction("4.5"))
    pairs = shell_pairs(ball, k)
    assert {tuple(p) for p in pairs.tolist()} == brute_shell_pairs(Fraction("4.5"), k)
    order = np.lexsort((pairs[:, 2], pairs[:, 1], pairs[:, 0]))
    assert np.array_equal(order, np.arange(len(pairs)))
    # reflection: same cardinality at -k
    assert len(pairs) == len(shell_pairs(ball, tuple(-c for c in k)))
    if len(pairs):
        den = shell_denominators(ball, k)
        assert den.min() >= 1


def ball_shift_shell_pairs(ball, k):
    """Reference shell pairs: shift every ball point by k and keep those
    outside (a constant shift keeps the lexicographic order)."""
    p = _band(0, ball.norm_sq_max) + np.asarray(k, dtype=np.int64)
    return p[(p * p).sum(axis=1) > ball.norm_sq_max]


@pytest.mark.parametrize("ksq", ["2.5", "400.5", "6400.5", "9"])
def test_shell_pairs_match_ball_shift(ksq):
    ball = build_fermi_ball(k_fermi_sq=Fraction(ksq))
    for k in ((1, 0, 0), (0, -1, 0), (1, 1, 1), (3, -2, 5), (9, 0, 0), (-4, 7, -12)):
        assert np.array_equal(shell_pairs(ball, k), ball_shift_shell_pairs(ball, k))


LUNE_KS = [k for k in itertools.product(range(-2, 3), repeat=3) if any(k)]
LUNE_KS += [(3, -3, 3), (5, 1, -2), (0, 0, 9), (7, -6, 0)]


LUNE_RADII = ["0.5", "1.5", "2.5", "3", "25.5", "100.5", "400.5", "401"]


@pytest.mark.parametrize("ksq", LUNE_RADII)
def test_shell_pairs_match_band_oracle(ksq):
    # the lune's column runs give the band-and-mask rows exactly, in order,
    # and their summed length is the overlap count hartree_fock_energy uses
    ball = build_fermi_ball(k_fermi_sq=Fraction(ksq))
    for k in LUNE_KS:
        want = band_shell_pairs(ball, k)
        assert np.array_equal(shell_pairs(ball, k), want), k
        assert _lune_size(ball.norm_sq_max, np.asarray(k)) == len(want), k


def band_oracle_histograms(ksq: str) -> list:
    """(ball, k, lo, counts) for each of LUNE_KS, with (lo, counts) the
    bincount of p.k over the band oracle's pairs."""
    ball = build_fermi_ball(k_fermi_sq=Fraction(ksq))
    out = []
    for k in LUNE_KS:
        dots = band_shell_pairs(ball, k) @ np.asarray(k)
        out.append((ball, k, int(dots.min()), np.bincount(dots - dots.min())))
    return out


def assert_histograms_match(cases):
    for ball, k, lo, counts in cases:
        got_lo, got = pair_gap_histogram(ball, k)
        assert got_lo == lo and got.dtype == np.int64, k
        assert np.array_equal(got, counts), k


@pytest.mark.parametrize("ksq", LUNE_RADII)
def test_pair_gap_histogram_matches_band_oracle(ksq):
    assert_histograms_match(band_oracle_histograms(ksq))


@pytest.mark.parametrize("slab_columns", [1, 7, 64])
def test_pair_gap_histogram_matches_band_oracle_on_small_slabs(monkeypatch, slab_columns):
    # the oracle is taken at the module's slab size, then the lune is cut
    # into slabs of one x and of a few x
    cases = [c for ksq in LUNE_RADII for c in band_oracle_histograms(ksq)]
    monkeypatch.setattr(lattice_mod, "_SLAB_COLUMNS", slab_columns)
    assert_histograms_match(cases)


def test_pair_gap_histogram_rejects_zero(ball_tiny):
    with pytest.raises(ValueError, match="k = 0"):
        pair_gap_histogram(ball_tiny, (0, 0, 0))


def histogram_peak(ksq: str, k) -> int:
    ball = build_fermi_ball(k_fermi_sq=Fraction(ksq))
    tracemalloc.start()
    try:
        pair_gap_histogram(ball, k)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k", [(0, 0, 1), (1, 1, 0), (2, -1, 1)])
def test_pair_gap_histogram_memory_is_bounded(k):
    # at k_F^2 = 25600.5 building every pair traced 9.6-12.1 MB, and the
    # band-and-mask route before it 24-59 MB beyond its pairs
    assert histogram_peak("25600.5", k) <= 4e6


def test_pair_gap_histogram_memory_does_not_grow_with_pairs():
    # 47 MB when every pair was built (7.8e5 pairs at N = 1.4e8)
    assert histogram_peak("102400.5", (1, -1, 2)) <= 8e6


def test_shell_cardinality_scales_like_surface():
    sizes = []
    for ksq in ["100.5", "400.5", "1600.5"]:
        ball = build_fermi_ball(k_fermi_sq=Fraction(ksq))
        sizes.append(len(shell_pairs(ball, (0, 0, 1))) / ball.n_particles ** (2 / 3))
    assert max(sizes) / min(sizes) < 1.5


# ------------------------------------------------------- reciprocal sums


def test_kinetic_sum_example(ball_tiny):
    ball = build_fermi_ball(k_fermi_sq=1)
    assert kinetic_reciprocal_sum(ball, (1, 0, 0)) == pytest.approx(13.0 / 3.0, abs=1e-15)


def test_kinetic_sum_rejects_zero(ball_tiny):
    with pytest.raises(ValueError):
        kinetic_reciprocal_sum(ball_tiny, (0, 0, 0))


def test_equator_sum_bounds_and_validation(ball_100):
    k = (0, 0, 1)
    full = kinetic_reciprocal_sum(ball_100, k)
    eq = equator_reciprocal_sum(ball_100, k, 1.0 / 24.0)
    assert 0.0 <= eq <= full + 1e-12
    for bad in (0.0, -0.1, 77.0 / 624.0, 0.2):
        with pytest.raises(ValueError):
            equator_reciprocal_sum(ball_100, k, bad)


def test_equator_sum_inactive_threshold_equals_full():
    # cut 4 N^(1/3 - delta) exceeds every integer gap on a small ball
    ball = build_fermi_ball(k_fermi_sq=1)
    k = (1, 0, 0)
    assert equator_reciprocal_sum(ball, k, 0.01) == kinetic_reciprocal_sum(ball, k)


@pytest.mark.parametrize("ksq", ["400.5", "6400.5", "102400.5"])
@pytest.mark.parametrize("k", [(0, 0, 1), (1, -1, 2), (2, 1, 0)])
def test_reciprocal_sums_bit_equal_fsum_over_oracle(ksq, k):
    # the histogram's exact rational sum equals fsum over every pair's term
    ball = build_fermi_ball(k_fermi_sq=Fraction(ksq))
    den = shell_denominators(ball, k).tolist()
    assert kinetic_reciprocal_sum(ball, k) == math.fsum(1.0 / d for d in den)
    for delta in (1.0 / 24.0, 0.1):
        cut = 4.0 * ball.n_particles ** (1.0 / 3.0 - delta)
        want = math.fsum(1.0 / d for d in den if d <= cut)
        assert equator_reciprocal_sum(ball, k, delta) == want


def test_equator_sum_empty_restriction():
    # large |k| pushes every gap above the cut: gaps at k=(0,0,4) are >= 8
    ball = build_fermi_ball(k_fermi_sq=1)
    k = (0, 0, 4)
    assert kinetic_reciprocal_sum(ball, k) > 0
    assert equator_reciprocal_sum(ball, k, 0.12) == 0.0


# ------------------------------------------------------------ slices


def test_count_slice_example():
    ball = build_fermi_ball(k_fermi_sq=1)
    k = (1, 0, 0)
    assert count_slice(ball, k, 1) == 4
    assert count_slice(ball, k, 2) == 1
    assert count_slice(ball, k, 0) == 0
    assert count_slice(ball, k, 3) == 0


@settings(max_examples=20, deadline=None)
@given(
    k=st.tuples(
        st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)
    ).filter(lambda k: any(k))
)
def test_slice_partition(k):
    ball = build_fermi_ball(k_fermi_sq=Fraction("6.5"))
    pairs = shell_pairs(ball, k)
    kv = np.asarray(k)
    if len(pairs):
        s_values = pairs @ kv
        total = sum(count_slice(ball, k, s) for s in range(s_values.min(), s_values.max() + 1))
        assert total == len(pairs)


def test_slice_window(ball_100):
    k = (1, 1, 0)
    pairs = shell_pairs(ball_100, k)
    s_vals = pairs @ np.asarray(k)
    ksq = 2
    assert s_vals.min() >= (1 + ksq) / 2
    assert s_vals.max() <= 2 * ball_100.k_fermi * math.sqrt(ksq)


# ------------------------------------------------------------ ellipses


def test_annulus_examples():
    assert annulus_count_vs_area(0, 1, 1) == (5, pytest.approx(math.pi))
    count, _ = annulus_count_vs_area(0, 2.5, 1)
    assert count == 21


@settings(max_examples=25, deadline=None)
@given(
    d0=st.integers(1, 5),
    r_in=st.floats(0, 6),
    width=st.floats(0.3, 5),
)
def test_annulus_brute_force(d0, r_in, width):
    r_out = r_in + width
    count, area = annulus_count_vs_area(r_in, r_out, d0)
    assert count == brute_annulus(r_in, r_out, d0)
    assert area == pytest.approx(math.pi * (r_out**2 - r_in**2) / math.sqrt(d0))


def test_annulus_validation():
    with pytest.raises(ValueError):
        annulus_count_vs_area(2.0, 1.0, 1)
    with pytest.raises(ValueError):
        annulus_count_vs_area(0.0, 1.0, 0)


# ------------------------------------------------------------ potential


def test_potential_symmetrization_and_radius():
    v = InteractionPotential([((1, 0, 0), 0.3), ((0, 0, 1), 0.2), ((0, 0, -1), 0.2)])
    assert v((-1, 0, 0)) == 0.3
    assert support_diameter(v) == 2.0
    assert v.ell1() == pytest.approx(1.0)
    # a mapping is completed as pairs are: the given entries, then the mirrors
    completed = InteractionPotential({(1, 0, 0): 0.3, (0, 2, 0): 0.1, (0, -2, 0): 0.1})
    assert list(completed.items()) == [
        ((1, 0, 0), 0.3), ((0, 2, 0), 0.1), ((0, -2, 0), 0.1), ((-1, 0, 0), 0.3)
    ]
    with pytest.raises(ValueError, match=r"conflicting symmetric potential values at \(1, 0, 0\)"):
        InteractionPotential([((1, 0, 0), 0.3), ((-1, 0, 0), 0.4)])
    with pytest.raises(ValueError, match=r"conflicting potential values for \(1, 0, 0\)"):
        InteractionPotential([((1, 0, 0), 0.3), ((1, 0, 0), 0.4)])
    with pytest.raises(ValueError, match=r"nonnegative, got -0.3 at \(1, 0, 0\)"):
        InteractionPotential({(1, 0, 0): -0.3})


@pytest.mark.parametrize("form", ["mapping", "pairs"])
@pytest.mark.parametrize(
    "key, value, named",
    [
        # int() would truncate the component to (1, 0, 0)
        ((1.5, 0, 0), 0.05, r"momentum \(1\.5, 0, 0\) has a non-integer component"),
        ((1.0, 0, 0), 0.05, r"momentum \(1\.0, 0, 0\) has a non-integer component"),
        ((True, 0, 0), 0.05, r"momentum \(True, 0, 0\) has a non-integer component"),
        # NaN would fail as "not reflection symmetric", and inf be accepted
        ((1, 0, 0), math.nan, r"value nan at \(1, 0, 0\) is not finite"),
        ((1, 0, 0), math.inf, r"value inf at \(1, 0, 0\) is not finite"),
    ],
)
def test_potential_names_a_non_integer_momentum_or_non_finite_value(form, key, value, named):
    mirror = tuple(-c for c in key)
    entries = [(key, value), (mirror, value)]
    with pytest.raises(ValueError, match=named):
        InteractionPotential(dict(entries) if form == "mapping" else entries)


def test_potential_takes_numpy_integer_momenta():
    k = np.array([1, 0, 0], dtype=np.int64)
    v = InteractionPotential({tuple(k): 0.3, tuple(-k): 0.3})
    assert v((-1, 0, 0)) == 0.3
    assert InteractionPotential([(k, 0.3)]).support == v.support


def test_gamma_nor_partitions_support(unit_potential):
    nor = unit_potential.gamma_nor()
    assert len(nor) == 3
    supp = set(unit_potential.support)
    mirrored = {Momentum(-k.px, -k.py, -k.pz) for k in nor}
    assert set(nor) | mirrored == supp
    assert set(nor) & mirrored == set()


# ------------------------------------------------------- Hartree-Fock


def test_hf_energy_free_case(ball_tiny):
    v = InteractionPotential({})
    assert hartree_fock_energy(ball_tiny, v) == pytest.approx(
        ball_tiny.hbar**2 * 6.0, rel=1e-14
    )


def test_hf_energy_contact_example():
    # k_F = 1, N = 7, support {0}: E = kinetic + (1/14) * 42 * v0
    ball = build_fermi_ball(k_fermi_sq=1)
    v0 = 0.7
    v = InteractionPotential({(0, 0, 0): v0})
    expected = ball.hbar**2 * 6.0 + 3.0 * v0
    assert hartree_fock_energy(ball, v) == pytest.approx(expected, rel=1e-14)


def test_hf_energy_matches_brute_force(ball_small, unit_potential):
    got = hartree_fock_energy(ball_small, unit_potential)
    assert got == pytest.approx(brute_hf_energy(ball_small, unit_potential), rel=1e-12)


def enumerated_hf_energy(ball, v):
    """hartree_fock_energy with the kinetic sum taken over every ball point
    and the overlaps counted from the band oracle's pairs."""
    n = ball.n_particles
    p = _band(0, ball.norm_sq_max)
    kinetic = ball.hbar**2 * float((p * p).sum(axis=1).sum())
    direct = v((0, 0, 0)) * n * (n - 1)
    exchange = math.fsum(
        val * (n - len(band_shell_pairs(ball, k)))
        for k, val in v.items()
        if val != 0.0 and k != Momentum(0, 0, 0)
    )
    return kinetic + 0.5 * (1.0 / n) * (direct - exchange)


@pytest.mark.parametrize("ksq", ["400.5", "6400.5"])
def test_hf_energy_bit_identical_to_enumeration(ksq, unit_potential):
    ball = build_fermi_ball(k_fermi_sq=Fraction(ksq))
    v = InteractionPotential([((0, 0, 0), 0.3), *unit_potential.items()])
    for pot in (unit_potential, v):
        assert hartree_fock_energy(ball, pot) == enumerated_hf_energy(ball, pot)


def test_excitation_free_gap(ball_small):
    v = InteractionPotential({})
    hole, particle = (4, 1, 0), (4, 2, 1)
    gap = 21 - 17
    assert excitation_energy(ball_small, v, hole, particle) == pytest.approx(
        ball_small.hbar**2 * gap, rel=1e-14
    )


def test_excitation_validates_membership(ball_small, unit_potential):
    with pytest.raises(ValueError):
        excitation_energy(ball_small, unit_potential, (5, 0, 0), (5, 1, 0))
    with pytest.raises(ValueError):
        excitation_energy(ball_small, unit_potential, (4, 0, 0), (4, 1, 0))


def test_swaps_must_pair_holes_with_particles(ball_400, unit_potential):
    # one hole against three particles, or two against three, is refused with
    # both shapes named, not cut to one swap or left to numpy's broadcasting
    particles = [(0, 0, 21), (0, 21, 0), (21, 0, 0)]
    for holes, shapes in [
        ((0, 0, 20), r"\(3,\) and particles of shape \(3, 3\)"),
        ([(0, 0, 20), (0, 20, 0)], r"\(2, 3\) and particles of shape \(3, 3\)"),
    ]:
        with pytest.raises(ValueError, match=f"holes of shape {shapes}"):
            excitation_energy(ball_400, unit_potential, holes, particles)
        with pytest.raises(ValueError, match=f"holes of shape {shapes}"):
            swap_energies(ball_400, unit_potential, holes, particles)
    # the one-swap form stays a float
    gap = excitation_energy(ball_400, unit_potential, (0, 0, 20), (0, 0, 21))
    assert isinstance(gap, float) and gap > 0


def test_excitation_matches_full_difference(ball_small, unit_potential):
    e0 = hartree_fock_energy(ball_small, unit_potential)
    rng = np.random.default_rng(7)
    kf = ball_small.k_fermi
    occ = _band(0, ball_small.norm_sq_max)
    holes = occ[(occ * occ).sum(axis=1) >= (kf - 1) ** 2]
    for _ in range(12):
        h = holes[rng.integers(0, len(holes))]
        p = h + np.array([0, 0, 1 + rng.integers(0, 2)])
        if contains(ball_small, p):
            continue
        pts = [tuple(q) for q in occ.tolist()]
        pts.remove(tuple(h.tolist()))
        pts.append(tuple(p.tolist()))
        swapped = _brute_energy_of(ball_small, unit_potential, pts)
        fast = excitation_energy(ball_small, unit_potential, h, p)
        assert fast == pytest.approx(swapped - brute_hf_energy(ball_small, unit_potential), rel=1e-10)
        break
    else:
        pytest.skip("no boundary swap found")
    assert e0 == pytest.approx(brute_hf_energy(ball_small, unit_potential), rel=1e-12)


def _brute_energy_of(ball, v, pts):
    n = len(pts)
    lam = 1.0 / ball.n_particles
    kin = ball.hbar**2 * sum(x * x + y * y + z * z for x, y, z in pts)
    inter = 0.0
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            if i != j:
                inter += v((0, 0, 0)) - v((p[0] - q[0], p[1] - q[1], p[2] - q[2]))
    return kin + 0.5 * lam * inter


def test_excitation_positive_in_stable_regime(ball_small, unit_potential):
    # lambda ||V||_1 < hbar^2 / 2 guarantees a positive gap for every swap
    lam_v1 = unit_potential.ell1() / ball_small.n_particles
    assert lam_v1 < ball_small.hbar**2 / 2
    rng = np.random.default_rng(11)
    kf = ball_small.k_fermi
    occ = _band(0, ball_small.norm_sq_max)
    holes = occ[(occ * occ).sum(axis=1) >= (kf - 1) ** 2]
    for _ in range(200):
        h = holes[rng.integers(0, len(holes))]
        step = rng.integers(-1, 2, size=3)
        p = h + step
        if not step.any() or contains(ball_small, p):
            continue
        assert excitation_energy(ball_small, unit_potential, h, p) > 0.0
