"""Slow reference implementations that the package's fast paths are tested
against; they live here because no experiment needs them."""

import csv
import dataclasses
import json
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import mpmath
import numpy as np
from scipy.integrate import quad

from fermiball import lattice
from fermiball.bogokernel import (
    BogoliubovSolution,
    DiagonalizationError,
    ModeSystem,
    _apply,
    _diag,
    _eigh_pd,
    _require_pd,
    _same_side,
    _sym,
    check_L_blocks,
    diagonalize,
    sample_mode_system,
)
from fermiball.lattice import (
    FermiBall,
    InteractionPotential,
    _as_ivec,
    _as_momentum,
    _band,
    _isqrt,
    _lune,
)
from fermiball.patches import (
    TWO_PI,
    PatchConstructionError,
    PatchDecomposition,
    ShellAssignment,
    _canonical_angles,
    _clearance,
    _collar_layout,
    pair_counts,
)
from fermiball.rpa import _NODES, RpaReport, _g, _integrate, _log1p_minus


def hf_energy_of_occupation(ball: FermiBall, v: InteractionPotential, occupied: np.ndarray) -> float:
    """Determinant energy for an arbitrary occupation set (re-summation oracle).

    Each exchange count is the number of occupied a with a + k occupied,
    read from a boolean grid over the occupation's bounding cube, padded by
    the support's reach so that a + k is a constant shift of a's flat index.
    """
    occ = np.asarray(occupied, dtype=np.int64)
    n = len(occ)
    lam = 1.0 / ball.n_particles
    terms = [(k, val) for k, val in v.items() if val != 0.0 and k != lattice.Momentum(0, 0, 0)]
    pad = max((max(abs(c) for c in k) for k, _ in terms), default=0)
    lo = occ.min(axis=0) - pad
    shape = occ.max(axis=0) + pad - lo + 1
    flat = np.ravel_multi_index(tuple((occ - lo).T), shape)
    grid = np.zeros(int(shape.prod()), dtype=bool)
    grid[flat] = True
    kinetic = ball.hbar**2 * float((occ * occ).sum())
    exchange = 0.0
    for k, val in terms:
        shift = (k[0] * shape[1] + k[1]) * shape[2] + k[2]
        exchange += val * float(np.count_nonzero(grid[flat + shift]))
    direct = v((0, 0, 0)) * n * (n - 1)
    return kinetic + 0.5 * lam * (direct - exchange)


def scalar_excitation_energy(
    ball: FermiBall, v: InteractionPotential, hole: Sequence[int], particle: Sequence[int]
) -> float:
    """One swap's closed-form gap in Python scalars, each exchange field
    sum_{a in B_F} V(q - a) added term by term: the reference for the
    batched `lattice.excitation_energy`."""
    h = _as_momentum(hole)
    p = _as_momentum(particle)
    if not contains(ball, h):
        raise ValueError(f"hole {h} is not inside the Fermi ball")
    if contains(ball, p):
        raise ValueError(f"particle {p} is not outside the Fermi ball")

    def exchange_field(q):
        total = 0.0
        for k, val in v.items():
            if val != 0.0 and contains(ball, (q.px - k.px, q.py - k.py, q.pz - k.pz)):
                total += val
        return total

    lam = 1.0 / ball.n_particles
    kinetic = ball.hbar**2 * float(p.norm_sq() - h.norm_sq())
    rel = (p.px - h.px, p.py - h.py, p.pz - h.pz)
    return kinetic - lam * (exchange_field(p) - exchange_field(h)) + lam * (v(rel) - v((0, 0, 0)))


def ell_inf(v: InteractionPotential) -> float:
    """Largest |V(k)| over the support (0 for the zero potential)."""
    return max((abs(val) for _, val in v.items()), default=0.0)


def support_diameter(v: InteractionPotential) -> float:
    """Diameter of the support as a point set (0 for <= 1 support point)."""
    supp = v.support
    if len(supp) < 2:
        return 0.0
    arr = np.asarray(supp, dtype=np.float64)
    d2 = ((arr[:, None, :] - arr[None, :, :]) ** 2).sum(axis=-1)
    return float(np.sqrt(d2.max()))


def g_profile(lam: float) -> float:
    """1 - lam * arctan(1/lam), extended by its limit g(0) = 1."""
    return float(_g(lam))


def contains(ball: FermiBall, p: Sequence[int]) -> bool:
    """Whether the momentum p lies in the ball."""
    return _as_momentum(p).norm_sq() <= ball.norm_sq_max


def contains_points(ball: FermiBall, points: np.ndarray) -> np.ndarray:
    """Which rows of an (n, 3) array of momenta lie in the ball."""
    points = np.asarray(points, dtype=np.int64).reshape(-1, 3)
    return (points * points).sum(axis=1) <= ball.norm_sq_max


def running_sum_runs(first: np.ndarray, lengths: np.ndarray, step: int, out: np.ndarray) -> None:
    """Fill out with runs one after another: run i is the lengths[i] values
    first[i], first[i] + step, ..., written as a running sum in place."""
    keep = lengths > 0
    first, lengths = first[keep], lengths[keep]
    last = first + step * (lengths - 1)
    out[...] = step
    out[np.cumsum(lengths) - lengths] = first - np.concatenate([[0], last[:-1]])
    np.cumsum(out, out=out, dtype=out.dtype)


def running_sum_fill(x: np.ndarray, y: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The int64 rows of columns (x, y) with z-runs (starts, lengths), filled
    by running sums: the reference for the repeat-filled blocks of
    `lattice._blocks`."""
    per_column = lengths.sum(axis=1)
    out = np.empty((int(per_column.sum()), 3), dtype=np.int64)
    running_sum_runs(x, per_column, 0, out[:, 0])
    running_sum_runs(y, per_column, 0, out[:, 1])
    running_sum_runs(starts.ravel(), lengths.ravel(), 1, out[:, 2])
    return out


def running_sum_columns(q: int, ax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns (x, y) with x^2 + y^2 <= q over the rising x of ax, as a
    slab of `lattice._slabs` holds them, with y filled by running sums."""
    heights = _isqrt(q - ax * ax)
    counts = 2 * heights + 1
    y = np.empty(int(counts.sum()), dtype=np.int64)
    running_sum_runs(-heights, counts, 1, y)
    return np.repeat(ax, counts), y


def one_pass_columns(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Every column (x, y) with x^2 + y^2 <= q at once, with no x-slabs."""
    r = math.isqrt(q) if q >= 0 else -1
    return running_sum_columns(q, np.arange(-r, r + 1, dtype=np.int64))


def boundary_shells(ball: FermiBall) -> tuple[np.ndarray, np.ndarray]:
    """Occupied and empty momenta within one unit of the Fermi surface, as
    int32 rows: the bands hf_stability draws its swaps from, built whole."""
    kf = ball.k_fermi
    holes = _band(math.ceil((kf - 1.0) ** 2), ball.norm_sq_max).astype(np.int32)
    particles = _band(ball.norm_sq_max + 1, math.floor((kf + 1.0) ** 2)).astype(np.int32)
    return holes, particles


def one_pass_band(q_lo: int, q_hi: int) -> np.ndarray:
    """`lattice._band` with every column of the band built at once, with no
    x-slabs and no row blocks, and filled by running sums: the reference for
    the block-wise repeat fill."""
    x, y = one_pass_columns(q_hi)
    s = x * x + y * y
    h = _isqrt(q_hi - s)
    g = _isqrt(q_lo - 1 - s)
    starts = np.stack([-h, g + 1], axis=1)
    lengths = np.maximum(np.stack([h - np.maximum(g, 0), h - g], axis=1), 0)
    return running_sum_fill(x, y, starts, lengths)


def one_pass_ball_count(m: int) -> int:
    """`lattice._ball_count` over every column at once."""
    x, y = one_pass_columns(m)
    return int((2 * _isqrt(m - x * x - y * y) + 1).sum())


def one_pass_ball_kinetic_sum(m: int) -> int:
    """`lattice._ball_kinetic_sum` over every column at once."""
    x, y = one_pass_columns(m)
    s = x * x + y * y
    h = _isqrt(m - s)
    return int(((2 * h + 1) * s + h * (h + 1) * (2 * h + 1) // 3).sum())


def shell_pairs(ball: FermiBall, k) -> np.ndarray:
    """Particle momenta p outside the ball with hole p - k inside, as an
    (n, 3) int64 array in lexicographic order (empty for k = 0), filled from
    the lune's column runs slab by slab by running sums."""
    slabs = [running_sum_fill(*runs) for runs in _lune(ball.norm_sq_max, _as_ivec(k))]
    return np.concatenate([np.zeros((0, 3), dtype=np.int64), *slabs])


def shell_denominators(ball: FermiBall, k) -> np.ndarray:
    """Integer kinetic gaps |p|^2 - |p-k|^2 = 2 p.k - |k|^2 over shell_pairs."""
    kv = _as_ivec(k)
    return 2 * (shell_pairs(ball, kv) @ kv) - int(kv @ kv)


def band_shell_pairs(ball: FermiBall, k) -> np.ndarray:
    """Shell pairs from the band q < |p|^2 <= (sqrt(q) + |k|)^2 around the
    ball (q = floor(k_F^2)), masked to |p - k|^2 <= q: the reference for the
    lune's column runs in `shell_pairs`."""
    kv = _as_ivec(k)
    if not kv.any():
        return np.zeros((0, 3), dtype=np.int64)
    q, kk = ball.norm_sq_max, int(kv @ kv)
    # the integer |p|^2 <= (sqrt(q) + |k|)^2 < q + kk + 2 (isqrt(q kk) + 1)
    p = _band(q + 1, q + kk + 2 * math.isqrt(q * kk) + 1)
    h = p - kv
    return p[(h * h).sum(axis=1) <= q]


def count_slice(ball: FermiBall, k, s: int) -> int:
    """Number of shell pairs with p.k = s."""
    kv = _as_ivec(k)
    if not kv.any():
        raise ValueError("k = 0 has no particle-hole pairs (empty domain)")
    p = shell_pairs(ball, kv)
    return int(np.count_nonzero(p @ kv == int(s)))


def dispersion(ball: FermiBall, p: Sequence[int]) -> float:
    """Kinetic distance from the Fermi surface, |hbar^2 |p|^2 - kappa_eff^2|.

    Uses kappa_eff = k_F * hbar, so the value vanishes exactly for |p| = k_F.
    """
    gap = Fraction(_as_momentum(p).norm_sq()) - ball.k_fermi_sq
    return ball.hbar**2 * abs(float(gap))


class PatchSpec(NamedTuple):
    """Angular footprint of one northern patch (half-open intervals), and
    its tile (theta_lo, theta_hi, phi_lo, phi_hi): the collar table cell
    its corridors were carved from."""

    is_cap: bool
    theta_lo: float
    theta_hi: float
    phi_lo: float
    phi_hi: float
    omega: tuple[float, float, float]
    tile: tuple[float, float, float, float]

    def angular_area(self) -> float:
        if self.is_cap:
            return TWO_PI * (1.0 - math.cos(self.theta_hi))
        band = math.cos(self.theta_lo) - math.cos(self.theta_hi)
        return (self.phi_hi - self.phi_lo) * band


def reference_layout(m_patches: int, ball: FermiBall, r_v: float) -> list[PatchSpec]:
    """The northern patches of `build_patches(m_patches, ball, r_v)`, one
    spec at a time in Python scalars: the cap, then each collar's patches in
    phi order.  A corridor that erases the cap or a collar raises the
    PatchConstructionError that names it.  The reference for the arrays that
    `PatchDecomposition` derives from its collar table."""
    kf = ball.k_fermi
    c = (2.0 * r_v + 1.0) / (2.0 * (kf - r_v)) if r_v > 0 else 0.0
    counts = _collar_layout(m_patches)
    area = TWO_PI / (1 + sum(counts))
    cos_edges = [1.0 - area / TWO_PI]
    for m in counts:
        cos_edges.append(cos_edges[-1] - m * area / TWO_PI)
    cos_edges[-1] = max(cos_edges[-1], 0.0)
    theta = [math.acos(x) for x in cos_edges]
    # each collar's tile top, the cap's first: the last collar reaches the equator
    tile_top = [*theta[:-1], math.pi / 2]
    if theta[0] - c <= 0:
        raise PatchConstructionError("corridor erases the polar cap; reduce r_v or m_patches")
    cap_tile = (-math.inf, tile_top[0], 0.0, TWO_PI)
    north = [PatchSpec(True, 0.0, theta[0] - c, 0.0, TWO_PI, (0.0, 0.0, 1.0), cap_tile)]
    for i, m in enumerate(counts):
        t_lo, t_hi = theta[i], theta[i + 1]
        t_c = 0.5 * (t_lo + t_hi)
        sin_min = min(math.sin(t_lo), math.sin(t_hi))
        c_phi = c / sin_min if sin_min > 0 else 0.0
        width = TWO_PI / m
        if t_hi - t_lo <= 2 * c or width <= 2 * c_phi:
            raise PatchConstructionError(
                f"corridor erases collar {i} (m_patches={m_patches}, r_v={r_v})"
            )
        for j in range(m):
            p_c = (j + 0.5) * width
            omega = (
                math.sin(t_c) * math.cos(p_c),
                math.sin(t_c) * math.sin(p_c),
                math.cos(t_c),
            )
            north.append(
                PatchSpec(
                    False,
                    t_lo + c,
                    t_hi - c,
                    p_c - width / 2 + c_phi,
                    p_c + width / 2 - c_phi,
                    omega,
                    (t_lo, tile_top[i + 1], j * width, j * width + width),
                )
            )
    return north


def loop_labels(decomp: PatchDecomposition, points) -> np.ndarray:
    """Reference labelling: each point's lexicographically positive one of
    +-p (z > 0; or z = 0 and y > 0; or z = y = 0 and x > 0) is tested
    against every northern spec of `reference_layout` in turn, the last
    matching write winning, and a negated point takes the antipodal label
    + M/2.

    With corridors a spec holds the directions within its stored bounds.
    At r_v = 0 it holds its tile: theta_lo <= theta < theta_hi (the last
    collar up to and including the equator) and, in a collar of m specs,
    the j-th phi cell floor(phi m / 2 pi) = j.
    """
    pts = np.array(points, dtype=np.float64).reshape(-1, 3)
    x, y, z = pts.T
    flip = (z < 0) | ((z == 0) & ((y < 0) | ((y == 0) & (x < 0))))
    pts[flip] *= -1.0
    r = np.linalg.norm(pts, axis=1)
    labels = np.full(len(pts), -1, dtype=np.int64)
    ok = r > 0
    theta = np.arccos(np.clip(pts[ok, 2] / r[ok], -1.0, 1.0))
    phi = np.mod(np.arctan2(pts[ok, 1], pts[ok, 0]), 2 * math.pi)
    north = reference_layout(decomp.m_patches, decomp.ball, decomp.r_corridor)
    collars: dict[float, list[int]] = {}
    for i, spec in enumerate(north):
        collars.setdefault(spec.theta_lo, []).append(i)
    last = north[-1].theta_lo
    cells = {}
    if decomp.r_corridor == 0:
        for lo, members in collars.items():
            m = len(members)
            cells[lo] = np.minimum((phi * (m / (2 * math.pi))).astype(np.int64), m - 1)
    sub = np.full(ok.sum(), -1, dtype=np.int64)
    for i, spec in enumerate(north):
        if decomp.r_corridor > 0:
            hit = (theta >= spec.theta_lo) & (theta < spec.theta_hi)
            if not spec.is_cap:
                hit &= (phi >= spec.phi_lo) & (phi < spec.phi_hi)
        else:
            hit = (theta >= spec.theta_lo) & ((theta < spec.theta_hi) | (spec.theta_lo == last))
            hit &= cells[spec.theta_lo] == collars[spec.theta_lo].index(i)
        sub[hit] = i
    labels[ok] = sub
    labels[ok & flip & (labels >= 0)] += decomp.half
    return labels


def patch_of(decomp: PatchDecomposition, p: Sequence[int]) -> int | None:
    """Patch index containing p by `loop_labels`, or None for corridor /
    out-of-shell points."""
    pv = _as_ivec(p)
    r = math.sqrt(float(pv @ pv))
    kf, w = decomp.ball.k_fermi, decomp.shell_halfwidth
    if not (kf - w <= r <= kf + w):
        return None
    label = int(loop_labels(decomp, pv[None, :])[0])
    return None if label < 0 else label


def pair_count(
    decomp: PatchDecomposition,
    k: Sequence[int],
    alpha: int,
    *,
    delta: float | None = None,
) -> int:
    """Number of particle-hole pairs with relative momentum k inside patch alpha.

    For k . omega_alpha > 0 the hole is p - k, for k . omega_alpha < 0 it is
    p + k; a patch orthogonal to k carries no modes and is rejected, as is any
    alpha below the equator cut when `delta` is given.
    """
    kv = _as_ivec(k)
    if not kv.any():
        raise ValueError("k = 0 admits no particle-hole pairs")
    if not (0 <= alpha < decomp.m_patches):
        raise IndexError(f"patch index {alpha} out of range")
    dot = float(decomp.k_dots(kv)[alpha])
    if dot == 0.0:
        raise ValueError(f"patch {alpha} is orthogonal to k={tuple(kv.tolist())}; no modes")
    if delta is not None:
        threshold = decomp.ball.n_particles ** (-float(delta))
        if abs(dot) < threshold:
            raise ValueError(
                f"patch {alpha} lies below the equator cut for k={tuple(kv.tolist())}"
            )
    return int(pair_counts(decomp, kv)[alpha])


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One void scalar per row of an integer array, equal exactly when the
    rows are equal, so `np.isin` on them is exact row membership."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def one_shot_shell_assignment(decomp: PatchDecomposition) -> ShellAssignment:
    """The decomposition's shell labelled in one pass over every row, with no
    row blocks: the reference for the block-wise `shell_assignment`."""
    kf, w = decomp.ball.k_fermi, decomp.shell_halfwidth
    r_out = kf + w
    r_in = max(kf - w, 0.0)
    points = _band(max(1, math.ceil(r_in * r_in)), math.floor(r_out * r_out))
    return ShellAssignment(points, decomp.assign_directions(points))


def one_shot_pair_counts(decomp: PatchDecomposition, asg: ShellAssignment, k) -> np.ndarray:
    """`pair_counts` from the labelled shell `asg`: every particle row (outside
    the ball) shifted by -/+ k and matched, with its label, against the
    labelled hole rows (inside) in one `np.isin`."""
    kv = _as_ivec(k)
    points, labels = asg.points.astype(np.int64), asg.labels.astype(np.int64)
    inside = contains_points(decomp.ball, points)
    sign = np.sign(decomp.k_dots(kv)).astype(np.int64)
    part = np.flatnonzero((labels >= 0) & ~inside)
    lab = labels[part]
    holes = np.column_stack([points[part] - sign[lab][:, None] * kv, lab])
    hit = np.isin(row_keys(holes), row_keys(np.column_stack([points, labels])[inside]))
    return np.bincount(lab[hit], minlength=decomp.m_patches)


def mod_canonical_angles(points) -> tuple:
    """`patches._canonical_angles` with the azimuth wrapped into [0, 2 pi) by
    np.mod, the reference of its sign test."""
    r, theta, _, flip = _canonical_angles(points)
    p = np.array(points, dtype=np.float64).reshape(-1, 3)
    np.negative(p, out=p, where=flip[:, None])
    return r, theta, np.mod(np.arctan2(p[:, 1], p[:, 0]), TWO_PI), flip


def decomposition_to_json(decomp: PatchDecomposition) -> str:
    """JSON document with patch bounds, direction vectors and areas from
    `reference_layout`, and the lattice counts of the shell."""
    doc = {
        "m_patches": decomp.m_patches,
        "k_fermi": decomp.ball.k_fermi,
        "r_corridor": decomp.r_corridor,
        "shell_halfwidth": decomp.shell_halfwidth,
        "patches": [],
    }
    north = reference_layout(decomp.m_patches, decomp.ball, decomp.r_corridor)
    for a in range(decomp.m_patches):
        spec = north[a % decomp.half]
        south = a >= decomp.half
        doc["patches"].append(
            {
                "index": a,
                "southern": south,
                "is_cap": spec.is_cap,
                "theta": [spec.theta_lo, spec.theta_hi],
                "phi": [spec.phi_lo, spec.phi_hi],
                "omega": [-w for w in spec.omega] if south else list(spec.omega),
                "angular_area": spec.angular_area(),
            }
        )
    asg = decomp.shell_assignment()
    counts = np.bincount(asg.labels[asg.labels >= 0], minlength=decomp.m_patches)
    doc["lattice_counts"] = counts.tolist()
    doc["corridor_lattice_count"] = int((asg.labels < 0).sum())
    return json.dumps(doc, indent=2)


def tile_clearance(
    decomp: PatchDecomposition, points: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Per labelled point p, a length below which no other of the given
    points with another label lies from p: `patches._clearance` of |p| and
    its tile angle mu_p, with mu_min the smallest mu over the given points.
    The reference for the clearance `patches.audit_patches` folds block
    by block."""
    r, theta, phi, _ = _canonical_angles(points)
    mu = decomp._tile_angle(theta, phi, np.asarray(labels) % decomp.half)
    return _clearance(r, mu, mu.min() if len(mu) else 0.0)


def scan_min_patch_separation(decomp: PatchDecomposition) -> float:
    """Full offset scan: every labelled shell point p tried at p + d for each
    half-space offset d by rising |d|^2, up to 2 r_v + 4 (inf beyond).

    The label of p + d is read from a cube of the shell's labels (-1 off the
    labelled shell) indexed by the coordinates themselves.
    """
    asg = decomp.shell_assignment()
    sel = asg.labels >= 0
    points, labels = asg.points[sel].astype(np.int64), asg.labels[sel]
    radius = 2.0 * decomp.r_corridor + 4.0
    offsets = _band(1, math.floor(radius * radius))
    offsets = offsets[len(offsets) // 2 :]
    norms = (offsets * offsets).sum(axis=1)
    pad = int(np.abs(points).max(initial=0)) + math.ceil(radius)
    cube = np.full((2 * pad + 1,) * 3, -1, dtype=np.int32)
    cube[tuple((points + pad).T)] = labels
    for i in np.argsort(norms):
        other = cube[tuple((points + offsets[i] + pad).T)]
        if ((other >= 0) & (other != labels)).any():
            return math.sqrt(norms[i])
    return math.inf


def shell_patch_audit(decomp: PatchDecomposition) -> tuple[float, float, int]:
    """The patch audit over the kept labelled shell: (min_separation,
    max_diameter, corridor_points), the reference for the block walk
    `patches.audit_patches`.

    The separation scans offsets d by rising |d|^2 and tries, at each
    length, the labelled shell points whose `tile_clearance` over the whole
    labelled shell is at most that length; the spans are taken by
    `np.minimum.at` and `np.maximum.at` over the labelled shell.
    """
    asg = decomp.shell_assignment()
    q_lo, q_hi = decomp.shell_bounds()
    src = np.flatnonzero(asg.labels >= 0)
    clearance = tile_clearance(decomp, asg.points[src], asg.labels[src])
    radius = 2.0 * decomp.r_corridor + 4.0
    offsets = _band(1, math.floor(radius * radius))
    offsets = offsets[len(offsets) // 2 :]
    norms = (offsets * offsets).sum(axis=1)
    separation = math.inf
    for norm in np.unique(norms):
        length = math.sqrt(norm)
        near = src[clearance <= length]
        ds = offsets[norms == norm]
        ends = (asg.points[near] + ds[:, None, :]).reshape(-1, 3)
        own = np.broadcast_to(asg.labels[near], (len(ds), len(near))).ravel()
        ends_sq = np.einsum("ij,ij->i", ends, ends)
        in_shell = (q_lo <= ends_sq) & (ends_sq <= q_hi)
        lab = decomp.assign_directions(ends[in_shell])
        if ((lab >= 0) & (lab != own[in_shell])).any():
            separation = length
            break
    sel = asg.labels >= 0
    labels, points = asg.labels[sel], asg.points[sel].astype(np.int64)
    lo = np.full((decomp.m_patches, 3), np.iinfo(np.int64).max)
    hi = np.full((decomp.m_patches, 3), np.iinfo(np.int64).min)
    np.minimum.at(lo, labels, points)
    np.maximum.at(hi, labels, points)
    span = (hi - lo)[np.bincount(labels, minlength=decomp.m_patches) > 0]
    diameter = float(np.sqrt((span * span).sum(axis=1)).max(initial=0.0))
    return separation, diameter, int((asg.labels < 0).sum())


def two_sided(b: np.ndarray, cross: bool) -> np.ndarray:
    """b on both diagonal blocks of a 2I x 2I matrix (W), or on both
    off-diagonal blocks (W~) when cross is set."""
    side = b.shape[-1]
    out = np.zeros(b.shape[:-2] + (2 * side, 2 * side))
    if cross:
        out[..., :side, side:] = b
        out[..., side:, :side] = b
    else:
        out[..., :side, :side] = b
        out[..., side:, side:] = b
    return out


def mode_matrices(u: np.ndarray, v: np.ndarray, g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The doubled D, W and W~ (..., 2I, 2I) of plus-side mode data u, v
    (..., I) and couplings g (...): mode I+j, the antipode of mode j,
    carries u[j] and v[j]."""
    b = _same_side(v, g)
    return _diag(np.concatenate([u * u, u * u], axis=-1)), two_sided(b, False), two_sided(b, True)


def _per_matrix(fn, *mats: np.ndarray):
    """fn of each matrix of equally stacked (..., n, n) arrays: a float for
    2-D input, else an array over the leading axes. Each call sees one
    contiguous 2-D matrix, so a stack's values have the bits of 2-D calls."""
    lead = mats[0].shape[:-2]
    flat = [m.reshape(-1, *m.shape[-2:]) for m in mats]
    vals = [float(fn(*each)) for each in zip(*flat)]
    return vals[0] if not lead else np.array(vals).reshape(lead)


def dense_solve(D: np.ndarray, W: np.ndarray, Wt: np.ndarray) -> BogoliubovSolution:
    """The general solve of D, W and W~ given as (..., n, n) arrays, with no
    use of their block structure: eigh roots of D + W - W~, and residual
    norms and det O taken one matrix at a time. `trace_correction` is
    tr(E - D - W). The reference of the plus-side `bogokernel._solve`.
    """
    norm = np.linalg.norm

    def rel(x, y):
        return norm(x) / norm(y)

    a_minus = _sym(D + W - Wt)
    a_plus = _sym(D + W + Wt)
    w_m, q_m = _eigh_pd(a_minus, "D + W - W~")
    _require_pd(np.linalg.eigvalsh(a_plus), "D + W + W~")
    rm = _apply(w_m, q_m, np.sqrt)
    rm_inv = _apply(w_m, q_m, lambda x: 1.0 / np.sqrt(x))
    del w_m, q_m
    e_sq = _sym(rm @ a_plus @ rm)
    w_e2, q_e2 = _eigh_pd(e_sq, "(D+W-W~)^1/2 (D+W+W~) (D+W-W~)^1/2")
    del e_sq
    E = _apply(w_e2, q_e2, np.sqrt)
    S1 = rm @ _apply(w_e2, q_e2, lambda x: x**-0.25)
    S2 = rm_inv @ _apply(w_e2, q_e2, lambda x: x**0.25)  # equals (S1^T)^-1
    del rm, rm_inv, w_e2, q_e2
    # each residual is taken as soon as its inputs exist, and they are freed
    symplectic_plus = _per_matrix(rel, S1.swapaxes(-1, -2) @ a_plus @ S1 - E, E)
    symplectic_minus = _per_matrix(rel, S2.swapaxes(-1, -2) @ a_minus @ S2 - E, E)
    del a_plus, a_minus
    w_s, q_s = _eigh_pd(_sym(S1 @ S1.swapaxes(-1, -2)), "S1 S1^T")
    K = _apply(w_s, q_s, lambda x: 0.5 * np.log(x))
    O = S1.swapaxes(-1, -2) @ _apply(w_s, q_s, lambda x: 1.0 / np.sqrt(x))
    del w_s, q_s
    coshK = _sym(0.5 * (S1 + S2) @ O)
    sinhK = _sym(0.5 * (S1 - S2) @ O)
    dw = _sym(D + W)
    # a @ b @ c groups as (a @ b) @ c, so each product is taken once
    cd, sd = coshK @ dw, sinhK @ dw
    cw, sw = coshK @ Wt, sinhK @ Wt
    frakK = _sym(cd @ coshK + sd @ sinhK + cw @ sinhK + sw @ coshK)
    offdiagonal_rel = _per_matrix(rel, cd @ sinhK + sd @ coshK + cw @ coshK + sw @ sinhK, dw)
    del cd, sd, cw, sw, dw
    ident = np.eye(D.shape[-1])
    residuals = {
        "offdiagonal_rel": offdiagonal_rel,
        "symplectic_plus": symplectic_plus,
        "symplectic_minus": symplectic_minus,
        "hyperbolic": _per_matrix(norm, coshK @ coshK - sinhK @ sinhK - ident),
        "orthogonality": _per_matrix(norm, O.swapaxes(-1, -2) @ O - ident),
        "det_O": _per_matrix(np.linalg.det, O),
    }
    trace_correction = _per_matrix(np.trace, E - D - W)
    return BogoliubovSolution(E, S1, S2, O, K, coshK, sinhK, frakK, trace_correction, residuals)


def dense_diagonalize(ms: ModeSystem) -> BogoliubovSolution:
    """The doubled 2I x 2I solve of a mode system (the dense reference of the
    plus-side `diagonalize`), with its shift tr(E - D - W) / 2."""
    sol = dense_solve(*mode_matrices(ms.u, ms.v, ms.g))
    return dataclasses.replace(sol, trace_correction=0.5 * sol.trace_correction)


def dense_bound_constants(ms: ModeSystem, sol: BogoliubovSolution) -> dict:
    """The entrywise-bound constants of `kernel_bound_fit` read from a doubled
    solution (`dense_diagonalize`) over all 2I x 2I entries, with the scaled
    kernel |K_ab| M / (V(k) min(n_a/n_b, n_b/n_a)) whose maximum is c_star."""
    n = np.concatenate([ms.n, ms.n])
    u = np.concatenate([ms.u, ms.u])
    ratio = np.minimum.outer(n, n) / np.maximum.outer(n, n)
    scale = ms.m_patches / (ms.vhat_k * ratio)
    scaled_k = np.abs(sol.K) * scale
    frak_scale = ms.vhat_k * np.outer(u, u) / ms.m_patches
    return {
        "c_star": float(scaled_k.max()),
        "c_star_sinh": float((np.abs(sol.sinhK) * scale).max()),
        "c_frak_minus_d": float((np.abs(sol.frakK - np.diag(u * u)) / frak_scale).max()),
        "scaled_kernel": scaled_k,
    }


def exact_plus_side_solve(ms: ModeSystem, dps: int = 40) -> tuple[np.ndarray, np.ndarray, float]:
    """K1, the ascending spectrum of E1 and tr(E1 - d - b) of a mode system,
    from its u, v and g taken as exact, by mpmath at dps digits.

    E1^2 = A = d^1/2 (d+2b) d^1/2 and S1 S1^T = d^1/2 A^-1/2 d^1/2, so the
    kernel K1 = log(S1 S1^T) / 2 takes two symmetric eigendecompositions.
    """
    with mpmath.workdps(dps):
        u = [mpmath.mpf(float(x)) for x in ms.u]
        v = [mpmath.mpf(float(x)) for x in ms.v]
        g = mpmath.mpf(float(ms.g))
        n = len(u)
        d = [x * x for x in u]
        a = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                a[i, j] = u[i] * ((d[i] if i == j else 0) + 2 * g * v[i] * v[j]) * u[j]
        lam, q = mpmath.eigsy(a)
        root = mpmath.diag([1 / mpmath.sqrt(x) for x in lam])
        du = mpmath.diag(u)
        mu, p = mpmath.eigsy(du * q * root * q.T * du)
        k1 = p * mpmath.diag([mpmath.log(x) / 2 for x in mu]) * p.T
        spectrum = sorted(mpmath.sqrt(x) for x in lam)
        trace = mpmath.fsum(spectrum) - mpmath.fsum(d) - g * mpmath.fsum(x * x for x in v)
        kernel = np.array([[float(k1[i, j]) for j in range(n)] for i in range(n)])
        return kernel, np.array([float(x) for x in spectrum]), float(trace)


def eigvalsh_ground_state_shift(ms: ModeSystem) -> float:
    """tr(E - D - W)/2 from one n x n eigvalsh of the half-size block.

    Reflection pairing splits E into two n x n blocks of equal trace, both
    similar to [d^1/2 (d+2b) d^1/2]^1/2 with d, b the same-side blocks of D
    and W, so the shift is sum sqrt(eig(d^1/2 (d+2b) d^1/2)) - tr d - tr b.
    """
    d = ms.u**2
    if d.min() <= 0.0:
        raise DiagonalizationError(f"d is not positive definite: smallest entry {d.min():.3e}")
    v = ms.v
    x = np.sqrt(d) * v
    a = 2.0 * ms.g * np.outer(x, x)
    a[np.diag_indices(ms.side)] += d * d
    w = np.linalg.eigvalsh(a)
    tol = 1e-12 * max(abs(w[0]), abs(w[-1]), 1e-300)
    if w[0] <= tol:
        raise DiagonalizationError(
            f"d^1/2 (d+2b) d^1/2 is not positive definite: smallest eigenvalue {w[0]:.3e}"
        )
    return float(np.sqrt(w).sum() - d.sum() - ms.g * (v @ v))


def one_array_ground_state_shift(ms: ModeSystem) -> float:
    """`rpa.ground_state_shift` with s(t) summed from one nodes x modes array
    and no node blocks: the reference for the block-wise sum."""
    d = ms.u**2
    if d.min() <= 0.0:
        raise DiagonalizationError(f"d is not positive definite: smallest entry {d.min():.3e}")
    weights = 2.0 * ms.g * d * ms.v * ms.v
    s = np.add.outer(_NODES * _NODES, d * d)
    np.divide(weights, s, out=s)
    val, err = _integrate(_log1p_minus(s.sum(axis=1)))
    if err > 1e-8 * abs(val):
        raise DiagonalizationError(f"too near singular: error estimate {err:.1e}")
    return val / math.pi


def quad_mode_integral(c: float) -> tuple[float, float]:
    """(1/pi) int_0^inf [log1p(c g) - c g] dl by adaptive quadrature to a
    cutoff plus a series tail, with quad's error estimate."""
    cutoff = max(100.0, 2.0 * c)

    def integrand(t: float) -> float:
        gt = 1.0 - t * math.atan(1.0 / t) if t > 0.0 else 1.0
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


def g_series_exact(t: float, terms: int = 30) -> Fraction:
    """g(t) = sum_n (-1)^(n+1) t^(-2n) / (2n+1) in exact rationals, for t >= 8;
    the first omitted term is below 64^-terms of the leading one."""
    x = 1 / Fraction(t) ** 2
    return sum((-1) ** (n + 1) * x**n / (2 * n + 1) for n in range(1, terms + 1))


def check_frakK_vs_E(sol: BogoliubovSolution) -> float:
    """Max deviation between frakK and O^T E O (their spectra coincide)."""
    return float(np.abs(sol.frakK - _sym(sol.O.T @ sol.E @ sol.O)).max())


def per_system_kernel_identities(seed: int, n_systems: int, max_side: int) -> list[dict]:
    """kernel_identities' rows from one system at a time: each is drawn,
    diagonalized and checked before the next is drawn (the stacked solve's
    reference)."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_systems):
        ms = sample_mode_system(rng, max_side=max_side)
        sol = diagonalize(ms)
        spec_frak = np.sort(np.linalg.eigvalsh(sol.frakK))
        spec_e = np.sort(np.linalg.eigvalsh(sol.E))
        spec_dev = float(np.abs(spec_frak - spec_e).max() / np.abs(spec_e).max())
        rows.append(
            {
                "system": i,
                "size": ms.size,
                "offdiagonal_rel": sol.residuals["offdiagonal_rel"],
                "spectrum_rel_dev": spec_dev,
                "l_block_dev": check_L_blocks(ms, sol),
                "hyperbolic": sol.residuals["hyperbolic"],
                "orthogonality": sol.residuals["orthogonality"],
                "symplectic_plus": sol.residuals["symplectic_plus"],
                "symplectic_minus": sol.residuals["symplectic_minus"],
                "det_O": sol.residuals["det_O"],
            }
        )
    return rows


def dump_solution_csv(sol: BogoliubovSolution, ms: ModeSystem, path) -> None:
    """Row-major CSV dump of every solution matrix, one block per matrix."""
    matrices = {
        "E": sol.E,
        "S1": sol.S1,
        "S2": sol.S2,
        "O": sol.O,
        "K": sol.K,
        "coshK": sol.coshK,
        "sinhK": sol.sinhK,
        "frakK": sol.frakK,
    }
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "k",
                f"{ms.k.px} {ms.k.py} {ms.k.pz}",
                "M",
                ms.m_patches,
                "size",
                ms.size,
            ]
        )
        for name, mat in matrices.items():
            for i, row in enumerate(mat):
                writer.writerow([name, i] + [repr(float(x)) for x in row])


def report_to_json(report: RpaReport) -> str:
    """JSON document of an RPA report, per-k terms included."""
    doc = {
        "e_analytic": report.e_analytic,
        "e_trace": report.e_trace,
        "relative_gap": report.relative_gap,
        "quadrature_error_estimate": report.quadrature_error_estimate,
        "per_k_terms": {
            f"{k.px} {k.py} {k.pz}": {"analytic": a, "trace": t}
            for k, (a, t) in report.per_k_terms.items()
        },
    }
    return json.dumps(doc, indent=2)
