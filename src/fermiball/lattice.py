"""Exact integer-lattice geometry of the Fermi ball.

Membership tests are exact: radii are carried as rationals, so two runs always
produce identical point sets regardless of float rounding.  Everything here is
immutable after construction and safe to evaluate concurrently.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Momentum",
    "FermiBall",
    "InteractionPotential",
    "build_fermi_ball",
    "pair_gap_histogram",
    "kinetic_reciprocal_sum",
    "equator_reciprocal_sum",
    "annulus_count_vs_area",
    "hartree_fock_energy",
    "excitation_energy",
    "sample_band",
    "swap_energies",
]

EQUATOR_DELTA_MAX = Fraction(77, 624)

#: ideal Fermi-radius constant: k_F = KAPPA_IDEAL * N^(1/3) as N grows
KAPPA_IDEAL = (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)

#: rows a block of `_blocks` holds, plus at most one column: every row the
#: package builds is filled in such a block of whole columns (band rows for
#: `_band`, the Hartree-Fock oracle `swap_energies`,
#: `PatchDecomposition.shell_assignment` and `patches.audit_patches`' walk of
#: the shell; lune pairs for `pair_counts`), which bounds a walk's transient
#: memory to about 1 MB at any radius
_BLOCK_ROWS = 1 << 13

#: columns (x, y) per x-slab of the lattice walk `_slabs`, whose column
#: arrays are the only ones alive at a time
_SLAB_COLUMNS = 1 << 14

#: largest squared radius `_slabs` walks; see its docstring for why
_Q_MAX = 1 << 30


class Momentum(NamedTuple):
    """Integer momentum vector on the Z^3 lattice."""

    px: int
    py: int
    pz: int

    def norm_sq(self) -> int:
        return self.px * self.px + self.py * self.py + self.pz * self.pz


def _as_momentum(p: Sequence[int]) -> Momentum:
    x, y, z = (int(c) for c in p)
    return Momentum(x, y, z)


def _as_ivec(p: Sequence[int]) -> np.ndarray:
    v = np.asarray(p, dtype=np.int64)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return v


class FermiBall:
    """The integer momenta with |p|^2 <= k_F^2, held as the exact radius and
    the counts derived from it; no point is stored.

    The squared radius is stored as an exact rational; membership compares the
    integer |p|^2 against floor(k_F^2) (against k_F^2 itself when it is an
    integer, so boundary points are included exactly).
    """

    def __init__(self, k_fermi_sq: Fraction):
        if k_fermi_sq <= 0:
            raise ValueError("k_fermi_sq must be positive")
        self.k_fermi_sq: Fraction = k_fermi_sq
        self.k_fermi: float = math.sqrt(float(k_fermi_sq))
        # exact integer threshold: |p|^2 <= k_F^2  <=>  |p|^2 <= floor(k_F^2)
        self.norm_sq_max: int = math.floor(k_fermi_sq)
        self.n_particles: int = _ball_count(self.norm_sq_max)
        self.hbar: float = self.n_particles ** (-1.0 / 3.0)
        self.kappa_eff: float = self.k_fermi * self.hbar

    def __repr__(self) -> str:
        return f"FermiBall(k_fermi_sq={self.k_fermi_sq}, n={self.n_particles})"


def _isqrt(a) -> np.ndarray:
    """Exact floor(sqrt(a)) elementwise for int64 a, and -1 where a < 0."""
    a = np.asarray(a, dtype=np.int64)
    r = np.floor(np.sqrt(np.maximum(a, 0).astype(np.float64))).astype(np.int64)
    # the float root can be one off next to a perfect square
    r += (r + 1) * (r + 1) <= a
    r -= r * r > a
    return np.where(a < 0, -1, r)


def _ramps(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Runs one after another as one int64 array: run i is the lengths[i] >= 0
    values first[i], first[i] + 1, ..., so each value is its index plus its
    run's first value less the run's offset."""
    runs = np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
    runs += np.arange(len(runs))
    return runs


def _slabs(q: int):
    """The columns (x, y) with x^2 + y^2 <= q in lexicographic order, one
    x-slab of about _SLAB_COLUMNS columns at a time: a generator, so only one
    slab's arrays live at a time.

    The walk serves q <= _Q_MAX = 2^30 (k_F <= 32768, N up to 1.5e14)
    exactly: every coordinate, column height and slab row count fits int64,
    and so does a slab's summed |p|^2, below (2 isqrt(q) + 1)^2 q < 2^63.
    A larger q raises ValueError before the first slab.
    """
    if q > _Q_MAX:
        raise ValueError(f"q = {q} is beyond the slab walk's exact range q <= 2^30")
    r = math.isqrt(q) if q >= 0 else -1
    width = max(1, _SLAB_COLUMNS // (2 * r + 1))
    for x in range(-r, r + 1, width):
        ax = np.arange(x, min(x + width, r + 1), dtype=np.int64)
        heights = _isqrt(q - ax * ax)
        counts = 2 * heights + 1
        yield np.repeat(ax, counts), _ramps(-heights, counts)


def _column_runs(lo: np.ndarray, hi: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The z-runs (starts, lengths) of columns with their z in [lo, hi]
    outside [-h, h] (h = -1 cuts nothing out): a run below that ends at
    -max(h, 0) - 1 and a run above that starts at h + 1."""
    starts = np.stack([lo, np.maximum(lo, h + 1)], axis=1)
    ends = np.stack([np.minimum(hi, -np.maximum(h, 0) - 1), hi], axis=1)
    return starts, np.maximum(ends - starts + 1, 0)


def _band_runs(q_lo: int, q_hi: int):
    """_band's columns and z-runs, one x-slab at a time, as _blocks takes
    them: (x, y, starts, lengths).

    Column (x, y) holds the z with g < |z| <= h, where h and g are the column
    heights at q_hi and at q_lo - 1 (g = -1 when the column misses that ball):
    the column of q_hi outside that of q_lo - 1. Each slab is a call mapped
    over the walk, so its temporaries are freed before the next slab is built.
    """

    def runs(x, y):
        s = x * x + y * y
        h = _isqrt(q_hi - s)
        return x, y, *_column_runs(-h, h, _isqrt(q_lo - 1 - s))

    return itertools.starmap(runs, _slabs(q_hi))


def _band(q_lo: int, q_hi: int) -> np.ndarray:
    """Integer points with q_lo <= |p|^2 <= q_hi as an (n, 3) int64 array, in
    lexicographic order: the blocks of _band_blocks joined.

    An empty band (q_lo > q_hi) is returned without a walk; a q_hi beyond the
    walk's range (see _slabs) raises ValueError before its first slab.
    """
    if q_lo > q_hi:
        return np.empty((0, 3), dtype=np.int64)
    return np.concatenate([np.empty((0, 3), dtype=np.int64), *_band_blocks(q_lo, q_hi)])


def _band_rows(q_lo: int, q_hi: int, ranks) -> np.ndarray:
    """The rows of _band(q_lo, q_hi) at the given ranks, in the order of
    ranks and repeats kept, as an int64 array.

    The band is walked once and no slab is filled: a running row offset
    gives the ranks in each slab, and a rank's column there and its z are
    read from the cumulative row counts of the slab's columns and from the
    column's two z-runs."""
    ranks = np.asarray(ranks, dtype=np.int64)
    out = np.empty((len(ranks), 3), dtype=np.int64)
    row = 0
    for x, y, starts, lengths in _band_runs(q_lo, q_hi):
        per_column = lengths.sum(axis=1)
        column_end = np.cumsum(per_column)
        size = int(column_end[-1])
        mine = np.flatnonzero((row <= ranks) & (ranks < row + size))
        if len(mine):
            offset = ranks[mine] - row
            col = np.searchsorted(column_end, offset, side="right")
            offset -= column_end[col] - per_column[col]
            below = lengths[col, 0]
            out[mine, 0] = x[col]
            out[mine, 1] = y[col]
            out[mine, 2] = np.where(
                offset < below, starts[col, 0] + offset, starts[col, 1] + offset - below
            )
        row += size
    return out


def sample_band(q_lo: int, q_hi: int, rng, size: int) -> np.ndarray:
    """size rows of _band(q_lo, q_hi) drawn uniformly with repeats, as an
    (size, 3) int64 array: the rows at the ranks rng.integers(0, count,
    size=size), where count is the band's size.  rng is any source with the
    integers(low, high, size=None) method of a numpy Generator, such as
    `experiments.SeededDraws`.

    The band is counted as the difference of two ball counts and walked
    once, so only the drawn rows are built.  A band without a point raises
    ValueError before anything is drawn."""
    count = _ball_count(q_hi) - _ball_count(q_lo - 1)
    if count <= 0:
        raise ValueError(f"the band {q_lo} <= |p|^2 <= {q_hi} holds no lattice point")
    return _band_rows(q_lo, q_hi, rng.integers(0, count, size=size))


def _blocks(slabs):
    """The points of slabs of columns (x, y, starts, lengths), column i
    holding the z-runs starts[i, j], starts[i, j] + 1, ... of lengths[i, j]
    >= 0, as (n, 3) int64 blocks of whole columns in their order: a generator
    of nonempty blocks of at most _BLOCK_ROWS rows plus one column. Rows are
    in lexicographic order when the columns are and each column's runs rise.
    """
    for x, y, starts, lengths in slabs:
        per_column = lengths.sum(axis=1)
        # the block of each column is that of its first row
        block = (np.cumsum(per_column) - per_column) // _BLOCK_ROWS
        edges = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), len(x)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            n = per_column[lo:hi]
            if n.any():
                z = _ramps(starts[lo:hi].ravel(), lengths[lo:hi].ravel())
                yield np.column_stack([np.repeat(x[lo:hi], n), np.repeat(y[lo:hi], n), z])


def _band_blocks(q_lo: int, q_hi: int):
    """_band's rows as int64 blocks of whole columns, in its order (see
    _blocks)."""
    return _blocks(_band_runs(q_lo, q_hi))


def _lune(q: int, k: np.ndarray):
    """Columns and z-runs of the lune |p|^2 > q >= |p - k|^2, one x-slab of
    the disc q at a time, as _blocks takes them: (x, y, starts, lengths).
    Rows filled slab after slab are in lexicographic order.

    Particle column (x, y) is a hole column of the disc q shifted by (kx,
    ky). With h' the hole column's height and h the particle column's (-1
    where it misses the ball), its pairs are z in [kz - h', kz + h'] outside
    [-h, h], by _column_runs as _band_runs builds a band's.
    """
    kx, ky, kz = (int(c) for c in k)

    def runs(x, y):
        hole = _isqrt(q - x * x - y * y)
        x += kx
        y += ky
        return x, y, *_column_runs(kz - hole, kz + hole, _isqrt(q - x * x - y * y))

    return itertools.starmap(runs, _slabs(q))


def _lune_size(q: int, k: np.ndarray) -> int:
    """Number of lattice points p with |p|^2 > q >= |p - k|^2."""
    return sum(int(runs[3].sum()) for runs in _lune(q, k))


def _ball_count(m: int) -> int:
    """Number of lattice points with |p|^2 <= m, summed slab by slab."""
    return sum(int((2 * _isqrt(m - x * x - y * y) + 1).sum()) for x, y in _slabs(m))


def _ball_kinetic_sum(m: int) -> int:
    """sum |p|^2 over the lattice points with |p|^2 <= m, summed slab by
    slab. Over column (x, y) with s = x^2 + y^2 and height h the 2h + 1
    points add (2h + 1) s + 2 (1^2 + ... + h^2) = (2h + 1) s + h (h + 1)
    (2h + 1) / 3."""

    def slab(x, y):
        s = x * x + y * y
        h = _isqrt(m - s)
        return int(((2 * h + 1) * s + h * (h + 1) * (2 * h + 1) // 3).sum())

    return sum(itertools.starmap(slab, _slabs(m)))


def build_fermi_ball(*, k_fermi_sq) -> FermiBall:
    """Construct the Fermi ball of an exact squared radius.

    Half-integer squared radii (e.g. ``k_fermi_sq=Fraction(801, 2)``) make
    every run tie-free.  The argument is keyword-only, so that a radius is
    never taken for a squared radius.
    """
    return FermiBall(Fraction(k_fermi_sq))


def pair_gap_histogram(ball: FermiBall, k: Sequence[int]) -> tuple[int, np.ndarray]:
    """(lo, counts): counts[i] particle-hole pairs at k have p.k = lo + i,
    where lo is the smallest p.k, so counts[0] > 0 and counts[-1] > 0.

    A pair's kinetic gap is |p|^2 - |p - k|^2 = 2 p.k - |k|^2, so this is the
    histogram of the gaps. It is summed over the lune's x-slabs: a z-run is
    an arithmetic progression in p.k with step kz, entered into a difference
    array of stride |kz| (one value times the run length when kz = 0), so
    no pair is built and the memory is O(k_F |k|).
    """
    kv = _as_ivec(k)
    if not kv.any():
        raise ValueError("k = 0 has no particle-hole pairs (empty domain)")
    q, kk = ball.norm_sq_max, int(kv @ kv)
    kx, ky, kz = (int(c) for c in kv)
    step = abs(kz)
    # a gap 2 p.k - |k|^2 is >= 1, and p.k = (p - k).k + |k|^2 lies within
    # |k|^2 +- sqrt(q |k|^2)
    reach = math.isqrt(q * kk)
    base = max(kk // 2 + 1, kk - reach)
    diff = np.zeros(kk + reach - base + 1 + step, dtype=np.int64)
    for x, y, starts, lengths in _lune(q, kv):
        keep = lengths > 0
        n = lengths[keep]
        first = ((kx * x + ky * y)[:, None] + kz * starts)[keep] - base
        if step:
            # the run's smallest p.k, then one past its largest
            first += np.minimum(kz, 0) * (n - 1)
            np.add.at(diff, first, 1)
            np.add.at(diff, first + step * n, -1)
        else:
            np.add.at(diff, first, n)
    if step:
        # a cumulative sum within each residue class mod step
        diff = np.concatenate([diff, np.zeros(-len(diff) % step, dtype=np.int64)])
        diff = diff.reshape(-1, step).cumsum(axis=0).ravel()
    hit = np.flatnonzero(diff)
    return base + int(hit[0]), diff[hit[0] : hit[-1] + 1]


def _reciprocal_sum(ball: FermiBall, k: Sequence[int], max_gap: float = math.inf) -> float:
    """Sum of 1 / gap over the pairs at k with gap <= max_gap.

    Each count * fl(1 / gap) is added exactly as a rational and the total is
    rounded once: the correctly rounded sum that math.fsum gives over every
    pair's term.
    """
    lo, counts = pair_gap_histogram(ball, k)
    kv = _as_ivec(k)
    # p.k = lo + i has the gap 2 (lo + i) - |k|^2
    first = 2 * lo - int(kv @ kv)
    total = sum(
        count * Fraction(1.0 / (first + 2 * i))
        for i, count in enumerate(counts.tolist())
        if count and first + 2 * i <= max_gap
    )
    return float(total)


def kinetic_reciprocal_sum(ball: FermiBall, k: Sequence[int]) -> float:
    """Sum of 1 / (|p|^2 - |p-k|^2) over all particle-hole pairs at momentum k."""
    return _reciprocal_sum(ball, k)


def equator_reciprocal_sum(ball: FermiBall, k: Sequence[int], delta: float) -> float:
    """Reciprocal sum restricted to pairs with small total kinetic energy.

    Keeps pairs with e(p) + e(p-k) <= 4 N^(-1/3-delta), i.e. integer gaps up
    to 4 N^(1/3-delta).  Requires 0 < delta < 77/624.
    """
    if not (0.0 < delta < float(EQUATOR_DELTA_MAX)):
        raise ValueError(f"delta must lie in (0, 77/624), got {delta}")
    return _reciprocal_sum(ball, k, 4.0 * ball.n_particles ** (1.0 / 3.0 - delta))


def annulus_count_vs_area(
    radius_inner: float, radius_outer: float, axis_ratio: int = 1
) -> tuple[int, float]:
    """Integer points in the elliptic annulus r_in^2 < d0 x^2 + y^2 <= r_out^2.

    Returns (count, exact area pi d0^(-1/2) (r_out^2 - r_in^2)).  With
    radius_inner = 0 the full ellipse including the origin is counted.
    """
    d0 = int(axis_ratio)
    if d0 < 1:
        raise ValueError("axis_ratio must be a positive integer")
    if not (0 <= radius_inner < radius_outer):
        raise ValueError("need 0 <= radius_inner < radius_outer")
    lo, hi = radius_inner**2, radius_outer**2
    xmax = math.isqrt(math.floor(hi) // d0)
    q0 = d0 * np.arange(-xmax, xmax + 1, dtype=np.int64) ** 2
    count = int((2 * _isqrt(math.floor(hi) - q0) + 1).sum())
    if radius_inner > 0:
        # d0 x^2 + y^2 <= r_in^2 is excluded; where the column misses it the
        # root is -1 and the column loses nothing
        count -= int((2 * _isqrt(math.floor(lo) - q0) + 1).clip(min=0).sum())
    area = math.pi * (hi - lo) / math.sqrt(d0)
    return count, area


def _potential_entry(key: Sequence[int], val: float) -> tuple[Momentum, float]:
    """A potential entry as (momentum, value); a momentum component that is
    not an integer (a Python or numpy int, not a bool), or a value that is not
    finite, is a ValueError naming the entry, so that neither is truncated."""
    if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in key):
        raise ValueError(f"potential momentum {tuple(key)!r} has a non-integer component")
    v = float(val)
    if not math.isfinite(v):
        raise ValueError(f"potential value {val!r} at {tuple(key)!r} is not finite")
    return _as_momentum(key), v


class InteractionPotential:
    """Finitely supported, nonnegative, reflection-symmetric Fourier potential."""

    def __init__(
        self, values: Mapping[Sequence[int], float] | Iterable[tuple[Sequence[int], float]]
    ):
        """From a mapping or (k, value) pairs; a missing mirror entry is
        completed with its partner's value.  A repeated or mirror entry of
        another value, a negative value or a non-finite one is a ValueError
        naming the entry.  The table holds the given entries first, then the
        completed mirrors, each in order."""
        table: dict[Momentum, float] = {}
        for key, val in values.items() if isinstance(values, Mapping) else values:
            k, v = _potential_entry(key, val)
            if v < 0:
                raise ValueError(f"potential must be nonnegative, got {v} at {tuple(k)}")
            if table.get(k, v) != v:
                raise ValueError(f"conflicting potential values for {tuple(k)}")
            table[k] = v
        for k, v in list(table.items()):
            mk = Momentum(-k.px, -k.py, -k.pz)
            if table.setdefault(mk, v) != v:
                mirror = f"{tuple(k)}/{tuple(mk)}"
                raise ValueError(f"conflicting symmetric potential values at {mirror}")
        self._table = table

    def __call__(self, k: Sequence[int]) -> float:
        return self._table.get(_as_momentum(k), 0.0)

    @property
    def support(self) -> list[Momentum]:
        """Momenta with nonzero coefficient, sorted."""
        return sorted(k for k, v in self._table.items() if v != 0.0)

    def items(self):
        return self._table.items()

    def ell1(self) -> float:
        return math.fsum(abs(v) for v in self._table.values())

    def gamma_nor(self) -> list[Momentum]:
        """Normal half of the punctured support: the union with its negation
        covers the nonzero support, the intersection is empty."""
        out = []
        for k in self.support:
            if k.pz > 0 or (k.pz == 0 and k.py > 0) or (k.pz == 0 and k.py == 0 and k.px > 0):
                out.append(k)
        return out


def hartree_fock_energy(ball: FermiBall, v: InteractionPotential) -> float:
    """Energy of the plane-wave Slater determinant filling the ball.

    kinetic + (lambda/2) [N(N-1) V(0) - sum_{p != q} V(p - q)], lambda = 1/N.
    The exchange double sum collapses to one overlap count per support vector,
    |B_F intersect (B_F + k)| = N - #shell_pairs(k), where #shell_pairs(k) is
    the summed length of the lune's z-runs: no pair is enumerated.
    """
    n = ball.n_particles
    lam = 1.0 / n
    kinetic = ball.hbar**2 * float(_ball_kinetic_sum(ball.norm_sq_max))
    direct = v((0, 0, 0)) * n * (n - 1)
    exchange = math.fsum(
        val * (n - _lune_size(ball.norm_sq_max, _as_ivec(k)))
        for k, val in v.items()
        if val != 0.0 and k != Momentum(0, 0, 0)
    )
    return kinetic + 0.5 * lam * (direct - exchange)


def _swap_rows(ball: FermiBall, holes, particles):
    """The swaps' hole and particle rows (n, 3) and their squared norms, from
    one momentum each or (n, 3) arrays of one shape; holes and particles of
    different shapes, a hole outside the ball or a particle inside it is a
    ValueError."""
    h = np.asarray(holes, dtype=np.int64)
    p = np.asarray(particles, dtype=np.int64)
    if h.shape != p.shape:
        shapes = f"holes of shape {h.shape} and particles of shape {p.shape}"
        raise ValueError(f"{shapes} do not pair up")
    h, p = h.reshape(-1, 3), p.reshape(-1, 3)
    hh = np.einsum("ij,ij->i", h, h)
    pp = np.einsum("ij,ij->i", p, p)
    q = ball.norm_sq_max
    if (hh > q).any():
        raise ValueError(f"hole {h[np.argmax(hh > q)]} is not inside the Fermi ball")
    if (pp <= q).any():
        raise ValueError(f"particle {p[np.argmax(pp <= q)]} is not outside the Fermi ball")
    return h, p, hh, pp


def excitation_energy(ball: FermiBall, v: InteractionPotential, hole, particle):
    """Energy cost of moving one particle from `hole` to `particle`.

    Closed-form difference of the two determinant energies; O(|supp V|) work
    a swap. `hole` and `particle` are one momentum each, for which the gap is
    a float, or (n, 3) arrays of n swaps, for which it is an (n,) array.  The
    exchange fields sum_{a in B_F} V(q - a) add the support values in
    ``v.items()`` order, so a batch gives every swap's gap to the bit.
    """
    one = np.shape(hole) == (3,)
    h, p, hh, pp = _swap_rows(ball, hole, particle)
    q = ball.norm_sq_max
    lam = 1.0 / ball.n_particles
    kinetic = ball.hbar**2 * (pp - hh).astype(np.float64)
    g_p = np.zeros(len(p))
    g_h = np.zeros(len(h))
    v_rel = np.zeros(len(p))
    for k, val in v.items():
        if val == 0.0:
            continue
        kv = np.asarray(k, dtype=np.int64)
        kk = int(kv @ kv)
        for g, x, xx in ((g_p, p, pp), (g_h, h, hh)):
            # |x - k|^2 <= q as |x|^2 - 2 x.k <= q - |k|^2, built in place
            n2 = x @ kv
            n2 *= -2
            n2 += xx
            g += np.where(n2 <= q - kk, val, 0.0)
        v_rel[(h + kv == p).all(axis=1)] = val
    gap = kinetic - lam * (g_p - g_h) + lam * (v_rel - v((0, 0, 0)))
    return float(gap[0]) if one else gap


def swap_energies(ball: FermiBall, v: InteractionPotential, holes, particles) -> list[float]:
    """Determinant energy of the ball after each swap of holes[i] (inside the
    ball) for particles[i] (outside it), given as (n, 3) arrays, re-summed
    from the occupation: the oracle for the closed-form gap of
    `excitation_energy`.

    Only the band a swap can touch is counted point by point. With R =
    ceil(max |k|) over the support of V, q_hole the smallest |h|^2 of the
    given holes and r_in = isqrt(q_hole) - R - 1, every a with |a| <= r_in
    has |a + k| <= r_in + R < |h| <= k_F for every given hole h, so a keeps
    all its exchange partners after any of the swaps; that interior enters
    through its exact count, and only the band r_in^2 < |a|^2 <=
    floor(k_F^2) is walked, in row blocks, once for all the swaps, so no
    array the size of the band is kept. The walk yields only the band's
    partner counts in the unswapped ball, which hold for every swap; a swap
    moves them only at the rows h - k and p - k, and whether those are in
    the band is a test of their norms alone. An empty batch returns []
    without a walk.
    """
    h, p, hh, pp = _swap_rows(ball, holes, particles)
    q = ball.norm_sq_max
    if not len(h):
        return []
    # ceil(sqrt(m)) = isqrt(m - 1) + 1 for m >= 1
    reach = max((math.isqrt(k.norm_sq() - 1) + 1 for k in v.support if k.norm_sq()), default=0)
    r_in = math.isqrt(int(hh.min())) - reach - 1
    # q_in = -1 leaves no interior: the band is the whole ball
    q_in = r_in * r_in if r_in >= 0 else -1
    terms = [(k, val) for k, val in v.items() if val != 0.0 and k != Momentum(0, 0, 0)]
    ks = np.array([k for k, _ in terms], dtype=np.int64).reshape(-1, 3)
    kk = np.einsum("ij,ij->i", ks, ks)

    def occupied(a: np.ndarray) -> np.ndarray:
        """Per support vector k (rows) and row of a (columns), whether
        a + k is in the ball, built in place in one array."""
        n2 = ks @ a.T
        n2 *= 2
        n2 += np.einsum("ij,ij->i", a, a)
        n2 += kk[:, None]
        return n2 <= q

    # one walk for every swap: the band's partner counts in the ball do
    # not depend on the swap
    base = np.zeros(len(ks), dtype=np.int64)
    for band in _band_blocks(q_in + 1, q):
        base += np.count_nonzero(occupied(band), axis=1)
    # whether each swap's rows h - k and p - k are in the band: none is
    # in the interior (|h - k| >= |h| - R > r_in, likewise for p), so
    # each is in the band exactly when it is in the ball
    targets = np.concatenate([h[:, None] - ks, p[:, None] - ks])
    tt = np.einsum("ijk,ijk->ij", targets, targets)
    lost, gained = (tt <= q).reshape(2, len(h), len(ks))
    # counts[i, j]: rows a of the band after swap i with a + ks[j]
    # occupied after it. The row h - k loses its partner h and the row
    # p - k gains p; the swapped band drops the row h, partners p
    # included, and takes the row p, whose partner h is gone.
    counts = base - lost + gained
    counts -= occupied(h).T
    counts -= ((h[:, None] + ks) == p[:, None]).all(axis=2)
    counts += occupied(p).T
    counts -= ((p[:, None] + ks) == h[:, None]).all(axis=2)
    n = ball.n_particles
    lam = 1.0 / n
    direct = v((0, 0, 0)) * n * (n - 1)
    n_interior = _ball_count(q_in)
    kinetic_sum = _ball_kinetic_sum(q)
    out = []
    for swap_counts, h2, p2 in zip(counts.tolist(), hh.tolist(), pp.tolist()):
        kinetic = ball.hbar**2 * float(kinetic_sum - h2 + p2)
        exchange = 0.0
        for (_, val), count in zip(terms, swap_counts):
            exchange += val * float(n_interior + count)
        out.append(kinetic + 0.5 * lam * (direct - exchange))
    return out
