"""Patch decomposition of the Fermi sphere.

A spherical cap is placed at the north pole, the rest of the northern
hemisphere is cut into collars of equal-area patches, corridors are carved
between neighbouring patches, and the southern hemisphere is the point
reflection of the north.  The layout is its collar table: the collar edges
in theta, the patch count of each collar and the corridor shrink.  Every
per-patch array (the stored bounds, the directions omega, the tiles and the
areas) is derived from that table at once, over all collars.  A point is
labelled through the lexicographically positive one of +-p, which lies in
the closed north, so label(-p) is the antipode of label(p) exactly, and
without corridors every nonzero point is labelled.  Extended patches are the
radial thickening of the angular patches intersected with the lattice.

A decomposition owns the `FermiBall` it was built from and counts pairs
against that ball only, from the pairs themselves.  The patch audit walks
the radial shell a block of rows at a time: one angle pass per block gives
each point's label and tile angle, and only the points near a tile edge
outlive their block, as candidates of the separation scan.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .lattice import (
    FermiBall,
    Momentum,
    _as_ivec,
    _as_momentum,
    _ball_count,
    _band,
    _band_blocks,
    _blocks,
    _lune,
)

__all__ = [
    "PatchDecomposition",
    "ModeIndexSet",
    "ShellAssignment",
    "PatchConstructionError",
    "build_patches",
    "index_sets",
    "pair_counts",
    "pair_counts_by_layout",
    "PatchAudit",
    "audit_patches",
]

TWO_PI = 2.0 * math.pi


def _canonical_angles(points: np.ndarray):
    """Norm, polar angle in [0, pi/2] and azimuth in [0, 2 pi) of the
    lexicographically positive one of +-p (z > 0; or z = 0 and y > 0; or
    z = y = 0 and x > 0), and the mask of the points that are its negative.

    This is the one place that maps the south onto the north.  The origin
    keeps r = 0 and the angles of its unit norm.
    """
    p = np.array(points, dtype=np.float64).reshape(-1, 3)
    x, y, z = p.T
    flip = (z < 0) | ((z == 0) & ((y < 0) | ((y == 0) & (x < 0))))
    np.negative(p, out=p, where=flip[:, None])
    # summed in np.linalg.norm's order, (x^2 + y^2) + z^2, so r has its bits
    r = np.sqrt(x * x + y * y + z * z)
    theta = z / np.where(r == 0, 1.0, r)
    np.arccos(np.minimum(theta, 1.0, out=theta), out=theta)
    phi = np.arctan2(y, x)
    # np.mod(phi, 2 pi)'s values (a -0.0 keeps its sign) in about a third of its time
    np.add(phi, TWO_PI, out=phi, where=phi < 0)
    return r, theta, phi, flip


def _clearance(r: np.ndarray, mu: np.ndarray, mu_min: float) -> np.ndarray:
    """The tile clearance |p| sin(min(mu_p + mu_min, pi/2)) of points of norm
    r and tile angle mu, less 1e-9 of it and less 1e-9, so that float angles
    on an ulp seam (where the bound can hold with equality) never overstate
    it.  A new array; mu is kept.

    Given a set of labelled points, mu_p of each from
    `PatchDecomposition.labels_and_tile_angles` and mu_min the smallest mu
    over the set, no point of the set with another label lies closer to p
    than its clearance.  Take p in tile a and q in tile b != a, both in the
    set.  The great-circle arc from p's direction to q's stays in tile a for
    at least mu_p from its start and in tile b for at least mu_q before its
    end; the tiles are disjoint, so those two stretches do not overlap and
    the angle between p and q is at least mu_p + mu_q >= mu_p + mu_min.  The
    angle between p and p + d is at most asin(|d| / |p|) (and reaches pi/2
    only once |d| >= |p|), so |q - p| >= |p| sin(min(mu_p + mu_min, pi/2)),
    from either end of the pair.
    """
    out = mu + mu_min
    np.minimum(out, math.pi / 2, out=out)
    np.sin(out, out=out)
    out *= r
    out *= 1.0 - 1e-9
    out -= 1e-9
    return out


class PatchConstructionError(ValueError):
    """Requested patch layout is infeasible for the given geometry."""


@dataclass(frozen=True)
class ModeIndexSet:
    """Patches coupling to a momentum k, split by the sign of k . omega."""

    k: Momentum
    delta: float
    plus_side: tuple[int, ...]
    minus_side: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.plus_side) + len(self.minus_side)


@dataclass
class ShellAssignment:
    """Lattice points of the radial shell labelled by patch index (-1: corridor).

    Points and labels are int32: 16 B a point.
    """

    points: np.ndarray
    labels: np.ndarray


class PatchDecomposition:
    """M patches with corridors on the Fermi sphere of the ball they tile, ``ball``.

    Northern patches are derived from the collar table; patch ``alpha + M/2``
    is the antipodal image of patch ``alpha`` for ``alpha < M/2`` (0-based
    indices).
    """

    def __init__(
        self,
        ball: FermiBall,
        r_corridor: float,
        shell_halfwidth: float,
        theta: Sequence[float],
        counts: Sequence[int],
        shrink: float,
    ):
        """The collar table: theta[0] is the cap's top, collar i spans
        theta[i] <= theta < theta[i + 1] and its counts[i] patches split phi
        evenly.  Corridors shrink each patch by ``shrink`` in theta (the cap
        at its rim only) and a collar's patches by shrink / sin in phi, the
        sin the smaller of the collar's two edges.

        Every per-patch array is derived here, over all collars at once: the
        cap first, then each collar's patches in phi order.  As tiles the
        table covers the closed northern hemisphere, where `_canonical_angles`
        puts every direction: the cap is collar 0, of one patch, and the last
        collar reaches the equator.  A PatchConstructionError names the cap,
        or the first collar, that the corridors erase.
        """
        self.ball = ball
        self.r_corridor = r_corridor
        self.shell_halfwidth = shell_halfwidth
        self._assignment: ShellAssignment | None = None
        theta = np.array(theta, dtype=np.float64)
        self._theta_edges = np.concatenate([[0.0], theta[:-1], [math.pi / 2]])
        self._collar_count = np.array([1, *counts], dtype=np.int64)
        self._collar_first = np.cumsum(self._collar_count) - self._collar_count
        self._collar_scale = self._collar_count / TWO_PI
        self.m_patches = 2 * int(self._collar_count.sum())
        # the collars below the cap: their theta edges and phi shrink
        lo, hi = theta[:-1], theta[1:]
        c_phi = shrink / np.minimum(np.sin(lo), np.sin(hi))
        if theta[0] - shrink <= 0:
            raise PatchConstructionError("corridor erases the polar cap; reduce r_v or m_patches")
        erased = (hi - lo <= 2 * shrink) | (TWO_PI / self._collar_count[1:] <= 2 * c_phi)
        if erased.any():
            raise PatchConstructionError(
                f"corridor erases collar {np.flatnonzero(erased)[0]} "
                f"(m_patches={self.m_patches}, r_v={r_corridor})"
            )

        # each northern patch's collar and its cell j of it
        collar = np.repeat(np.arange(len(self._collar_count)), self._collar_count)
        j = np.arange(self.half) - self._collar_first[collar]
        width = TWO_PI / self._collar_count[collar]
        # each patch's tile: its collar table cell, the pole inside the cap
        self._tile_theta_lo = self._theta_edges[collar]
        self._tile_theta_lo[0] = -np.inf
        self._tile_theta_hi = self._theta_edges[collar + 1]
        self._tile_phi_lo = j * width
        self._tile_phi_hi = self._tile_phi_lo + width
        # the stored bounds: each tile shrunk, the cap's phi left open; the
        # patches below the cap, each with its index i into lo, hi and c_phi
        i, j, width = collar[1:] - 1, j[1:], width[1:]
        p_c = (j + 0.5) * width
        self._theta_lo = np.concatenate([[0.0], (lo + shrink)[i]])
        self._theta_hi = theta[collar] - shrink
        self._phi_lo = np.concatenate([[-np.inf], p_c - width / 2 + c_phi[i]])
        self._phi_hi = np.concatenate([[np.inf], p_c + width / 2 - c_phi[i]])
        # omega: the pole for the cap, a collar patch's mid-theta and mid-phi
        t_c = (0.5 * (lo + hi))[i]
        sin_c = np.sin(t_c)
        north = np.column_stack([sin_c * np.cos(p_c), sin_c * np.sin(p_c), np.cos(t_c)])
        north = np.vstack([[0.0, 0.0, 1.0], north])
        self.omegas = np.vstack([north, -north])

    @property
    def half(self) -> int:
        return self.m_patches // 2

    def angular_areas(self) -> np.ndarray:
        """Each patch's solid angle within its stored bounds."""
        span = self._phi_hi - self._phi_lo
        span[0] = TWO_PI  # the cap's phi is open
        north = span * (np.cos(self._theta_lo) - np.cos(self._theta_hi))
        return np.concatenate([north, north])

    def k_dots(self, k: Sequence[int]) -> np.ndarray:
        """k . omega_alpha of every patch, as one matrix-vector product.

        Every layer reads k . omega from here, so the index sets, the pair
        counts and the mode energies agree to the last bit.
        """
        return self.omegas @ _as_ivec(k).astype(np.float64)

    def assign_directions(self, points: np.ndarray) -> np.ndarray:
        """Patch index for each lattice point's direction, -1 for corridors
        and the origin.

        Radial shell membership is not checked here.  A point is labelled by
        the lexicographically positive one of +-p, whose direction lies in
        one northern tile: the collar whose lower edge is the last at or
        below theta, and in it the patch floor(phi m / 2 pi).  A point that
        is the negative of it takes the antipodal label + M/2, so label(-p)
        is the antipode of label(p) exactly.  At r_v = 0 the tile is the
        patch and every nonzero point is labelled; with corridors the
        direction must also lie within the tile's stored patch bounds.
        """
        return self._label(*_canonical_angles(points))

    def _label(self, r, theta, phi, flip) -> np.ndarray:
        """`assign_directions` on the output of `_canonical_angles`."""
        collar = np.searchsorted(self._theta_edges[:-1], theta, side="right") - 1
        m = self._collar_count[collar]
        labels = np.minimum((phi * self._collar_scale[collar]).astype(np.int64), m - 1)
        labels += self._collar_first[collar]
        corridor = r == 0
        if self.r_corridor > 0:
            corridor |= (
                (theta < self._theta_lo[labels])
                | (theta >= self._theta_hi[labels])
                | (phi < self._phi_lo[labels])
                | (phi >= self._phi_hi[labels])
            )
        labels += self.half * flip
        labels[corridor] = -1
        return labels

    def labels_and_tile_angles(self, points: np.ndarray):
        """`assign_directions`' labels of the points, and |p| and the tile
        angle mu_p of each labelled one, in order, from one angle pass.

        A patch's tile is its cell of the collar table, the cell its
        corridors were carved from: the cap theta < theta_cap, a collar cell
        [t_lo, t_hi) x [2 pi j / m, 2 pi (j + 1) / m) (the last collar's
        closed at the equator), or the antipodal image of one.  Tiles are
        disjoint and each holds its patch.  mu_p is the angular distance
        from p's direction to the outside of its tile, read from the
        canonical angles of `assign_directions`; `_clearance` turns it into
        a distance below which no point of another patch lies from p.
        """
        r, theta, phi, flip = _canonical_angles(points)
        labels = self._label(r, theta, phi, flip)
        sel = labels >= 0
        return labels, r[sel], self._tile_angle(theta[sel], phi[sel], labels[sel] % self.half)

    def _tile_angle(self, theta, phi, spec) -> np.ndarray:
        """Angular distance from each canonical direction (theta, phi) to the
        outside of the tile of northern patch ``spec``; theta and phi are
        overwritten."""
        # in place where possible, so that few point-sized arrays live at once
        mu = self._tile_theta_lo[spec]
        np.subtract(theta, mu, out=mu)
        edge = self._tile_theta_hi[spec]
        np.subtract(edge, theta, out=edge)
        np.minimum(mu, edge, out=mu)
        # distance to the meridian half-circle dphi away: asin(sin theta
        # sin dphi), or to the nearer pole once dphi passes pi/2
        np.take(self._tile_phi_lo, spec, out=edge)
        np.subtract(phi, edge, out=edge)
        np.subtract(self._tile_phi_hi[spec], phi, out=phi)
        np.minimum(edge, phi, out=edge)
        np.minimum(edge, math.pi / 2, out=edge)
        np.sin(edge, out=edge)
        edge *= np.sin(theta, out=theta)
        np.arcsin(edge, out=edge)
        np.minimum(mu, edge, out=mu, where=spec > 0)  # the cap has no phi edge
        return mu

    def shell_bounds(self) -> tuple[int, int]:
        """(q_lo, q_hi): the radial shell is the lattice points p with
        q_lo <= |p|^2 <= q_hi, that is k_F - w <= |p| <= k_F + w for the shell
        half-width w, the origin left out."""
        kf, w = self.ball.k_fermi, self.shell_halfwidth
        r_in = max(kf - w, 0.0)
        r_out = kf + w
        return max(1, math.ceil(r_in * r_in)), math.floor(r_out * r_out)

    def shell_assignment(self) -> ShellAssignment:
        """Label every lattice point of the radial shell; built on the first
        call and kept.  No experiment calls it: the patch audit walks the
        shell in blocks and the pair counts walk the pairs."""
        if self._assignment is None:
            q_lo, q_hi = bounds = self.shell_bounds()
            points = np.empty((_ball_count(q_hi) - _ball_count(q_lo - 1), 3), dtype=np.int32)
            labels = np.empty(len(points), dtype=np.int32)
            row = 0
            # row blocks bound the float temporaries of labelling to one block's
            for block in _band_blocks(*bounds):
                points[row : row + len(block)] = block
                labels[row : row + len(block)] = self.assign_directions(block)
                row += len(block)
            self._assignment = ShellAssignment(points, labels)
        return self._assignment

    def __repr__(self) -> str:
        return (
            f"PatchDecomposition(M={self.m_patches}, "
            f"k_fermi={self.ball.k_fermi:.4f}, r_corridor={self.r_corridor})"
        )


def _collar_layout(m_patches: int) -> list[int]:
    """Per-collar patch counts for the requested M.

    Collars are about one patch side sqrt(4 pi / M) tall, and the M/2 - 1
    northern collar patches are shared among them by largest remainder in
    proportion to collar area, so exactly M patches are built.
    """
    if m_patches == 2:
        return []
    theta_cap = math.acos(1.0 - 2.0 / m_patches)
    side = math.sqrt(4.0 * math.pi / m_patches)
    n_collars = max(1, math.ceil((math.pi / 2.0 - theta_cap) / side))
    edges = np.linspace(theta_cap, math.pi / 2.0, n_collars + 1)
    areas = np.cos(edges[:-1]) - np.cos(edges[1:])
    total = m_patches // 2 - 1
    share = total * areas / areas.sum()
    counts = np.floor(share).astype(np.int64)
    by_remainder = np.argsort(counts - share, kind="stable")
    counts[by_remainder[: total - int(counts.sum())]] += 1
    return counts.tolist()


def build_patches(
    m_patches: int,
    ball: FermiBall,
    r_v: float,
) -> PatchDecomposition:
    """Build the patch decomposition with corridors sized for half-width r_v.

    Corridors separate extended patches by strictly more than 2 r_v (one
    lattice spacing of margin); r_v = 0 keeps the full tiling, the equator
    included, where pairwise disjointness alone already separates the
    lattice sets by >= 1.  The radial shell half-width is max(r_v, 1) so
    unit-momentum pairs always fit.  An M that is not an even integer >= 2,
    or an r_v that is not a nonnegative number (NaN included), raises a
    PatchConstructionError that names it.
    """
    if not isinstance(m_patches, numbers.Integral) or m_patches < 2 or m_patches % 2:
        raise PatchConstructionError(f"m_patches must be an even integer >= 2, got {m_patches!r}")
    if not isinstance(r_v, numbers.Real) or not r_v >= 0:
        raise PatchConstructionError(f"r_v must be a nonnegative number, got {r_v!r}")
    kf = ball.k_fermi
    if 2.0 * r_v >= kf / math.sqrt(m_patches):
        raise PatchConstructionError(
            f"corridor width {2 * r_v} is not below the patch scale "
            f"{kf / math.sqrt(m_patches):.3f}; reduce m_patches or r_v"
        )
    shell_halfwidth = float(max(r_v, 1.0))
    if shell_halfwidth >= kf:
        raise PatchConstructionError("shell half-width must be below k_fermi")

    # corridor half-shrink per patch boundary: total angular gap 2*c gives a
    # chord of 2 r_v + 1 at the inner shell radius
    c = (2.0 * r_v + 1.0) / (2.0 * (kf - r_v)) if r_v > 0 else 0.0

    counts = _collar_layout(m_patches)
    half = 1 + sum(counts)
    area = TWO_PI / half  # equal patch area 4 pi / M, northern share 2 pi

    # collar boundaries in cos(theta), each collar holding `counts[i]` patches
    cos_edges = [1.0 - area / TWO_PI]
    for m in counts:
        cos_edges.append(cos_edges[-1] - m * area / TWO_PI)
    cos_edges[-1] = max(cos_edges[-1], 0.0)

    # theta[0] is the cap's top and theta[i + 1] the top of collar i
    theta = [math.acos(x) for x in cos_edges]
    return PatchDecomposition(ball, r_v, shell_halfwidth, theta, counts, c)


def index_sets(decomp: PatchDecomposition, k: Sequence[int], delta: float) -> ModeIndexSet:
    """Patches with |k . omega| above the equator cut N^(-delta), by side."""
    kv = _as_ivec(k)
    if not kv.any():
        raise ValueError("k = 0 admits no particle-hole modes")
    if not (0.0 < delta < 1.0 / 6.0):
        raise ValueError(f"delta must lie in (0, 1/6), got {delta}")
    threshold = decomp.ball.n_particles ** (-delta)
    dots = decomp.k_dots(kv)
    plus = tuple(np.flatnonzero(dots >= threshold).tolist())
    minus = tuple(np.flatnonzero(dots <= -threshold).tolist())
    return ModeIndexSet(_as_momentum(k), float(delta), plus, minus)


def _shell_pair_ends(part: np.ndarray, k: np.ndarray, q_lo: int, q_hi: int):
    """`_canonical_angles` of the particles p of one block of lune pairs
    (p, p - k) that have both ends in the radial shell q_lo <= |.|^2 <= q_hi,
    and of their holes."""
    # both ends in the shell: the particle already lies above
    # k_F^2 >= q_lo and the hole below q_hi; |p - k|^2 is exact in int64
    pp = np.einsum("ij,ij->i", part, part)
    hh = pp - 2 * (part @ k) + int(k @ k)
    part = part[(pp <= q_hi) & (hh >= q_lo)]
    part_angles = _canonical_angles(part)
    part -= k
    return part_angles, _canonical_angles(part)


def pair_counts(decomp: PatchDecomposition, k: Sequence[int]) -> np.ndarray:
    """Pair counts of every patch at relative momentum k, indexed by patch.

    A particle p outside the ball in patch alpha pairs with the hole p - k
    (k . omega_alpha > 0) or p + k (k . omega_alpha < 0) when that hole lies
    inside ``decomp.ball`` and in the same patch; both lie in the radial
    shell, and patches orthogonal to k count 0.  The k . omega > 0 pairs
    (p, p - k) are the lune L(k): |p|^2 > k_F^2 >= |p - k|^2, walked one
    x-slab at a time and a block of rows at a time, so only one block's
    pairs live at once.  The k . omega < 0 pairs are their negatives: -p
    lies in L(-k) exactly when p lies in L(k), labels are antipodal
    (label(-p) = label(p) + M/2 mod M) and k . omega of patch alpha + M/2
    is -k . omega_alpha.  So each end is labelled once, and the counts of
    patch alpha + M/2 are those of patch alpha.  The walk is that of
    `pair_counts_by_layout` for one layout.
    """
    return pair_counts_by_layout([decomp], k)[0]


def pair_counts_by_layout(
    decomps: Sequence[PatchDecomposition], k: Sequence[int]
) -> list[np.ndarray]:
    """`pair_counts` of each layout at relative momentum k, in input order,
    from one walk of the lune per group of layouts that tile one `FermiBall`
    object and share one radial shell (`PatchDecomposition.shell_bounds`).

    The lune and its pair-end angles do not depend on the layout: each block
    of a group's lune is cut to the group's shell, its kept particles and
    their holes pass `_canonical_angles` once, and only the labels, the
    plus-side test, the agreement of the two ends and the tally are taken
    per layout.
    """
    kv = _as_ivec(k)
    if not kv.any():
        raise ValueError("k = 0 admits no particle-hole pairs")
    groups: dict[tuple, list[int]] = {}
    for i, decomp in enumerate(decomps):
        groups.setdefault((decomp.ball, decomp.shell_bounds()), []).append(i)
    out = [None] * len(decomps)
    for (ball, (q_lo, q_hi)), members in groups.items():
        group = [decomps[i] for i in members]
        plus = [d.k_dots(kv) > 0 for d in group]
        counts = [np.zeros(d.m_patches, dtype=np.int64) for d in group]
        # map drops each block once its pair ends are taken
        blocks = _blocks(_lune(ball.norm_sq_max, kv))
        for part, hole in map(_shell_pair_ends, blocks, repeat(kv), repeat(q_lo), repeat(q_hi)):
            for decomp, side, tally in zip(group, plus, counts):
                lab = decomp._label(*part)
                pair = np.flatnonzero((lab >= 0) & side[lab])
                lab = lab[pair]
                lab = lab[decomp._label(*(a[pair] for a in hole)) == lab]
                tally += np.bincount(lab, minlength=decomp.m_patches)
        for i, c, d in zip(members, counts, group):
            out[i] = c + np.roll(c, d.half)
    return out


#: a lower bound on the smallest tile angle mu_min of a labelled shell (>= 0
#: up to rounding); the patch audit keeps a point as a separation candidate
#: when its clearance with mu_min at this bound is within the scan radius
_MU_MIN_FLOOR = -1e-12


@dataclass(frozen=True)
class PatchAudit:
    """What `audit_patches` finds of one decomposition's labelled shell."""

    min_separation: float
    max_diameter: float
    corridor_points: int


def audit_patches(decomp: PatchDecomposition) -> PatchAudit:
    """The smallest distance between lattice points of distinct patches, up
    to 2 r_v + 4 (inf beyond), the largest patch diameter and the number of
    corridor points, from one walk of the radial shell in row blocks.

    Each block is labelled once, with each labelled point's tile angle mu_p
    (`PatchDecomposition.labels_and_tile_angles`).  The block adds its
    corridor points to the count, its smallest mu to mu_min, and each
    patch's coordinate minima and maxima to the spans, which are exact
    integer vectors.  The tile clearance `|p| sin(min(mu_p + mu_min,
    pi/2))` (see `_clearance`) does not decrease as mu_min grows, so a
    point whose clearance exceeds the scan radius with mu_min at
    _MU_MIN_FLOOR is never tried; only the other points outlive their
    block.  After the walk their clearance takes the shell's mu_min, so
    each has the bits it has over the whole labelled shell.

    Offsets d are then scanned by rising |d|^2, one half-space each (d and
    -d join the same pairs), and the first |d|^2 that joins two labels is
    the separation.  Both ends of a pair that joins two labels at length D
    have a clearance of at most D, so at that length only those candidates
    p are tried, at p + d for every offset d of that length: a p + d whose
    integer norm lies in the shell is labelled by `assign_directions`.
    """
    q_lo, q_hi = decomp.shell_bounds()
    radius = 2.0 * decomp.r_corridor + 4.0
    lo = np.full((decomp.m_patches, 3), np.iinfo(np.int64).max)
    hi = np.full((decomp.m_patches, 3), np.iinfo(np.int64).min)
    corridor, mu_min = 0, math.inf
    kept = []
    for block in _band_blocks(q_lo, q_hi):
        labels, r, mu = decomp.labels_and_tile_angles(block)
        sel = labels >= 0
        corridor += len(labels) - len(mu)
        if not len(mu):
            continue
        mu_min = min(mu_min, float(mu.min()))
        points, labels = block[sel], labels[sel]
        # the fold is monotone in mu_min in exact arithmetic; the 1e-9 covers
        # the few ulps by which a float sin may not be
        near = _clearance(r, mu, _MU_MIN_FLOOR) <= radius * (1.0 + 1e-9)
        kept.append((points[near].astype(np.int32), labels[near].astype(np.int32), r[near], mu[near]))
        # each patch's rows in one run, reduced at the run starts
        order = np.argsort(labels, kind="stable")
        points, labels = points[order], labels[order]
        starts = np.flatnonzero(np.diff(labels, prepend=-1))
        patch = labels[starts]
        lo[patch] = np.minimum(lo[patch], np.minimum.reduceat(points, starts))
        hi[patch] = np.maximum(hi[patch], np.maximum.reduceat(points, starts))
    if mu_min < _MU_MIN_FLOOR:
        raise RuntimeError(
            f"smallest tile angle {mu_min!r} lies below the separation scan's "
            f"candidate floor {_MU_MIN_FLOOR!r}: candidates may be missing"
        )
    present = (lo <= hi).all(axis=1)
    span = (hi - lo)[present]
    diameter = float(np.sqrt((span * span).sum(axis=1)).max(initial=0.0))
    # the clearance with the shell's mu_min; a part is replaced by its points
    # within the radius before the next is folded
    for i, (points, labels, r, mu) in enumerate(kept):
        clearance = _clearance(r, mu, mu_min)
        near = clearance <= radius
        kept[i] = points[near], labels[near], clearance[near]
    separation = math.inf
    if kept:
        points, labels, clearance = (np.concatenate(parts) for parts in zip(*kept))
        del kept
        separation = _first_joining_length(decomp, points, labels, clearance, radius)
    return PatchAudit(separation, diameter, corridor)


def _first_joining_length(decomp, points, labels, clearance, radius) -> float:
    """The scan of `audit_patches` over its candidates: the first offset
    length up to the radius at which a candidate p within its clearance
    reaches a labelled shell point p + d of another patch (inf if none)."""
    q_lo, q_hi = decomp.shell_bounds()
    offsets = _band(1, math.floor(radius * radius))
    # the band is symmetric and lexicographic: its upper half is the d > 0 half
    offsets = offsets[len(offsets) // 2 :]
    norms = (offsets * offsets).sum(axis=1)
    # the distinct norms in ascending order (np.unique would import numpy.ma)
    lengths = np.sort(norms)
    for norm in lengths[np.diff(lengths, prepend=-1) != 0]:
        length = math.sqrt(norm)
        near = np.flatnonzero(clearance <= length)
        ds = offsets[norms == norm]
        ends = (points[near] + ds[:, None, :]).reshape(-1, 3)
        own = np.broadcast_to(labels[near], (len(ds), len(near))).ravel()
        ends_sq = np.einsum("ij,ij->i", ends, ends)
        in_shell = (q_lo <= ends_sq) & (ends_sq <= q_hi)
        lab = decomp.assign_directions(ends[in_shell])
        if ((lab >= 0) & (lab != own[in_shell])).any():
            return length
    return math.inf
