"""Patch decomposition of the Fermi sphere.

A spherical cap is placed at the north pole, the rest of the northern
hemisphere is cut into collars of equal-area patches, corridors are carved
between neighbouring patches, and the southern hemisphere is the point
reflection of the north.  Extended patches are the radial thickening of the
angular patches intersected with the lattice.

A decomposition owns the `FermiBall` it was built from and counts pairs
against that ball only, from the pairs themselves.  It labels its shell once,
on first use, for the patch audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import (
    _BLOCK_ROWS,
    FermiBall,
    Momentum,
    _as_ivec,
    _as_momentum,
    _band,
    _blocks,
    _lune,
)

__all__ = [
    "PatchSpec",
    "PatchDecomposition",
    "ModeIndexSet",
    "ShellAssignment",
    "PatchConstructionError",
    "build_patches",
    "index_sets",
    "pair_counts",
]

TWO_PI = 2.0 * math.pi


def _angles(x: np.ndarray, y: np.ndarray, z: np.ndarray, r: np.ndarray):
    """Polar angle in [0, pi] and azimuth in [0, 2 pi) of points with norms r > 0."""
    theta = z / r
    np.arccos(np.clip(theta, -1.0, 1.0, out=theta), out=theta)
    phi = np.arctan2(y, x)
    np.mod(phi, TWO_PI, out=phi)
    return theta, phi


class PatchConstructionError(ValueError):
    """Requested patch layout is infeasible for the given geometry."""


@dataclass(frozen=True)
class PatchSpec:
    """Angular footprint of one northern patch (half-open intervals)."""

    is_cap: bool
    theta_lo: float
    theta_hi: float
    phi_lo: float
    phi_hi: float
    omega: tuple[float, float, float]

    def angular_area(self) -> float:
        if self.is_cap:
            return TWO_PI * (1.0 - math.cos(self.theta_hi))
        band = math.cos(self.theta_lo) - math.cos(self.theta_hi)
        return (self.phi_hi - self.phi_lo) * band


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

    Northern patches are stored explicitly; patch ``alpha + M/2`` is the
    antipodal image of patch ``alpha`` for ``alpha < M/2`` (0-based indices).
    """

    def __init__(
        self,
        m_requested: int,
        ball: FermiBall,
        r_corridor: float,
        shell_halfwidth: float,
        north: list[PatchSpec],
    ):
        self.m_requested = m_requested
        self.ball = ball
        self.r_corridor = r_corridor
        self.shell_halfwidth = shell_halfwidth
        self.north = north
        self.m_patches = 2 * len(north)
        omegas = np.array([s.omega for s in north], dtype=np.float64)
        self.omegas = np.vstack([omegas, -omegas])
        self._assignment: ShellAssignment | None = None
        # north[0] is the cap; the rest run collar by collar, each collar's
        # patches sharing one theta interval and splitting phi evenly
        collar_lo = np.array([s.theta_lo for s in north[1:]])
        first = np.flatnonzero(np.diff(collar_lo, prepend=np.nan) != 0)
        self._collar_lo = collar_lo[first]
        self._collar_hi = np.array([north[1 + i].theta_hi for i in first])
        self._collar_first = first + 1
        self._collar_count = np.diff(np.r_[first, len(collar_lo)])
        self._phi_lo = np.array([s.phi_lo for s in north])
        self._phi_hi = np.array([s.phi_hi for s in north])
        self._theta_top = max(north[0].theta_hi, self._collar_hi.max(initial=0.0))

    @property
    def half(self) -> int:
        return self.m_patches // 2

    def angular_areas(self) -> np.ndarray:
        a = np.array([s.angular_area() for s in self.north])
        return np.concatenate([a, a])

    def k_dots(self, k: Sequence[int]) -> np.ndarray:
        """k . omega_alpha of every patch, as one matrix-vector product.

        Every layer reads k . omega from here, so the index sets, the pair
        counts and the mode energies agree to the last bit.
        """
        return self.omegas @ _as_ivec(k).astype(np.float64)

    def _north_index(self, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Highest northern spec index whose half-open bounds hold (theta, phi), else -1.

        Collars are disjoint in theta, so the collar whose lower edge is the
        last one at or below theta is the only candidate; within it
        floor(phi / width) is at most one patch off, so that patch and its two
        phi neighbours are tested against the stored bounds.
        """
        out = np.full(len(theta), -1, dtype=np.int64)
        out[theta < self.north[0].theta_hi] = 0
        if not len(self._collar_lo):
            return out
        collar = np.searchsorted(self._collar_lo, theta, side="right") - 1
        idx = np.flatnonzero(collar >= 0)
        collar = collar[idx]
        keep = theta[idx] < self._collar_hi[collar]
        idx, collar = idx[keep], collar[keep]
        ph = phi[idx]
        m = self._collar_count[collar]
        first = self._collar_first[collar]
        j = np.minimum((ph * (m / TWO_PI)).astype(np.int64), m - 1)
        for dj in (-1, 0, 1):  # rising spec index: the highest hit is written last
            jj = j + dj
            spec = first + np.clip(jj, 0, m - 1)
            hit = (
                (jj >= 0)
                & (jj < m)
                & (ph >= self._phi_lo[spec])
                & (ph < self._phi_hi[spec])
            )
            out[idx[hit]] = spec[hit]
        return out

    def assign_directions(self, points: np.ndarray) -> np.ndarray:
        """Patch index for each lattice point's direction, -1 for corridors.

        Radial shell membership is not checked here.  A direction inside the
        bounds of several patches (an ulp-wide float seam) takes the highest
        northern spec index, and its southern image on a tie.
        """
        x, y, z = np.asarray(points, dtype=np.float64).reshape(-1, 3).T
        # summed in np.linalg.norm's order, (x^2 + y^2) + z^2, so r has its bits
        r = np.sqrt(x * x + y * y + z * z)
        origin = r == 0
        # the origin has no direction: a unit norm keeps its angles finite,
        # and its label is set to -1 at the end
        theta, phi = _angles(x, y, z, np.where(origin, 1.0, r))
        north = self._north_index(theta, phi)
        # southern points map through the antipode: -omega(t, p) = omega(pi-t,
        # p+pi), which only a pi - theta below the highest theta_hi can hit
        south = np.full(len(r), -1, dtype=np.int64)
        near = np.flatnonzero(math.pi - theta < self._theta_top)
        south[near] = self._north_index(math.pi - theta[near], np.mod(phi[near] + math.pi, TWO_PI))
        labels = np.where((south >= 0) & (south >= north), south + self.half, north)
        labels[origin] = -1
        return labels

    def tile_clearance(self, points: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Per labelled point p, a length below which no other of the given
        points with another label lies from p: |p| sin(min(mu_p + mu_min, pi/2)).

        A patch's tile is the cell its corridors were carved from: the cap
        theta < theta_cap, a collar cell [t_lo, t_hi) x [phi_lo, phi_hi), or
        the antipodal image of one.  Tile edges lie halfway between the stored
        bounds of neighbouring patches (the equator halfway between a patch
        and its southern image), so tiles are disjoint and each holds its
        patch.  mu_p is the angular distance from p's direction to the
        outside of its tile, and mu_min the smallest mu over the given points.

        Take p in tile a and q in tile b != a, both among the points.  The
        great-circle arc from p's direction to q's stays in tile a for at
        least mu_p from its start and in tile b for at least mu_q before its
        end; the tiles are disjoint, so those two stretches do not overlap
        and the angle between p and q is at least mu_p + mu_q >= mu_p +
        mu_min.  The angle between p and p + d is at most asin(|d| / |p|)
        (and reaches pi/2 only once |d| >= |p|), so |q - p| >= |p| sin(min(
        mu_p + mu_min, pi/2)), from either end of the pair.  The value
        returned is that bound less 1e-9 of it and less 1e-9, so that float
        angles on an ulp seam (where the bound can hold with equality) never
        overstate it.
        """
        n_collars = len(self._collar_lo)
        tops = np.r_[self.north[0].theta_hi, self._collar_hi]
        bottoms = np.r_[self._collar_lo, math.pi - tops[-1]]
        edges = 0.5 * (tops + bottoms)  # top of the cap tile, then of each collar's
        collar = np.repeat(np.arange(n_collars), self._collar_count)
        t_lo = np.r_[-np.inf, edges[collar]]
        t_hi = edges[np.r_[0, collar + 1]]
        mid = 0.5 * (self._phi_hi[:-1] + self._phi_lo[1:])
        p_lo, p_hi = np.r_[0.0, mid], np.r_[mid, TWO_PI]
        p_lo[self._collar_first] = 0.0
        p_hi[self._collar_first + self._collar_count - 1] = TWO_PI

        # in place where possible, so that few point-sized arrays live at once
        points = np.asarray(points, dtype=np.int64).reshape(-1, 3)
        r = np.einsum("ij,ij->i", points, points).astype(np.float64)
        np.sqrt(r, out=r)
        theta, phi = _angles(points[:, 0], points[:, 1], points[:, 2], r)
        # southern points map through the antipode, as in assign_directions
        south = labels >= self.half
        np.subtract(math.pi, theta, out=theta, where=south)
        np.add(phi, math.pi, out=phi, where=south)
        np.mod(phi, TWO_PI, out=phi, where=south)
        spec = np.where(south, labels - self.half, labels)
        mu = t_lo[spec]
        np.subtract(theta, mu, out=mu)
        edge = t_hi[spec]
        np.subtract(edge, theta, out=edge)
        np.minimum(mu, edge, out=mu)
        # distance to the meridian half-circle dphi away: asin(sin theta
        # sin dphi), or to the nearer pole once dphi passes pi/2
        np.take(p_lo, spec, out=edge)
        np.subtract(phi, edge, out=edge)
        np.subtract(p_hi[spec], phi, out=phi)
        np.minimum(edge, phi, out=edge)
        np.minimum(edge, math.pi / 2, out=edge)
        np.sin(edge, out=edge)
        edge *= np.sin(theta, out=theta)
        np.arcsin(edge, out=edge)
        np.minimum(mu, edge, out=mu, where=spec > 0)  # the cap has no phi edge
        if len(mu):
            mu += mu.min()
        np.minimum(mu, math.pi / 2, out=mu)
        np.sin(mu, out=mu)
        mu *= r
        mu *= 1.0 - 1e-9
        mu -= 1e-9
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
        call, for the patch audit (pair counts walk the pairs instead)."""
        if self._assignment is None:
            points = _band(*self.shell_bounds(), np.int32)
            labels = np.empty(len(points), dtype=np.int32)
            # row blocks bound the float temporaries of labelling to one block's
            for lo in range(0, len(points), _BLOCK_ROWS):
                block = slice(lo, lo + _BLOCK_ROWS)
                labels[block] = self.assign_directions(points[block])
            self._assignment = ShellAssignment(points, labels)
        return self._assignment

    def __repr__(self) -> str:
        return (
            f"PatchDecomposition(M={self.m_patches} of {self.m_requested} requested, "
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
    lattice spacing of margin); r_v = 0 keeps the full tiling, where pairwise
    disjointness alone already separates the lattice sets by >= 1.  The radial
    shell half-width is max(r_v, 1) so unit-momentum pairs always fit.
    """
    if m_patches < 2 or m_patches % 2:
        raise PatchConstructionError(f"m_patches must be even and >= 2, got {m_patches}")
    if r_v < 0:
        raise ValueError("r_v must be nonnegative")
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

    north: list[PatchSpec] = []
    theta_cap = math.acos(cos_edges[0])
    if theta_cap - c <= 0:
        raise PatchConstructionError("corridor erases the polar cap; reduce r_v or m_patches")
    north.append(
        PatchSpec(True, 0.0, theta_cap - c, 0.0, TWO_PI, (0.0, 0.0, 1.0))
    )
    for i, m in enumerate(counts):
        t_lo = math.acos(cos_edges[i])
        t_hi = math.acos(cos_edges[i + 1])
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
                )
            )
    return PatchDecomposition(m_patches, ball, r_v, shell_halfwidth, north)


def index_sets(decomp: PatchDecomposition, k: Sequence[int], delta: float) -> ModeIndexSet:
    """Patches with |k . omega| above the equator cut N^(-delta), by side."""
    kv = _as_ivec(k)
    if not kv.any():
        raise ValueError("k = 0 admits no particle-hole modes")
    if not (0.0 < delta < 1.0 / 6.0):
        raise ValueError(f"delta must lie in (0, 1/6), got {delta}")
    threshold = decomp.ball.n_particles ** (-delta)
    dots = decomp.k_dots(kv)
    plus = tuple(int(a) for a in np.nonzero(dots >= threshold)[0])
    minus = tuple(int(a) for a in np.nonzero(dots <= -threshold)[0])
    return ModeIndexSet(_as_momentum(k), float(delta), plus, minus)


def pair_counts(decomp: PatchDecomposition, k: Sequence[int]) -> np.ndarray:
    """Pair counts of every patch at relative momentum k, indexed by patch.

    A particle p outside the ball in patch alpha pairs with the hole p - k
    (k . omega_alpha > 0) or p + k (k . omega_alpha < 0) when that hole lies
    inside ``decomp.ball`` and in the same patch; both lie in the radial
    shell, and patches orthogonal to k count 0.  For each sign s the pairs
    (p, p - s k) are the lune L(s k): |p|^2 > k_F^2 >= |p - s k|^2.  Since p
    lies in L(k) exactly when -p lies in L(-k), one walk of L(k), one x-slab
    at a time and a block of rows at a time, gives both signs: the s = -1
    pairs are the negated block.  Only one block's pairs live at once.
    """
    kv = _as_ivec(k)
    if not kv.any():
        raise ValueError("k = 0 admits no particle-hole pairs")
    q_lo, q_hi = decomp.shell_bounds()
    sign = np.sign(decomp.k_dots(kv))
    counts = np.zeros(decomp.m_patches, dtype=np.int64)
    for part in _blocks(_lune(decomp.ball.norm_sq_max, kv)):
        hole = part - kv
        # both ends in the shell, whatever the sign: the particle already
        # lies above k_F^2 >= q_lo and the hole below q_hi
        keep = (np.einsum("ij,ij->i", part, part) <= q_hi) & (
            np.einsum("ij,ij->i", hole, hole) >= q_lo
        )
        part, hole = part[keep], hole[keep]
        for s in (1, -1):
            lab = decomp.assign_directions(s * part)
            pair = np.flatnonzero((lab >= 0) & (sign[lab] == s))
            lab = lab[pair]
            lab = lab[decomp.assign_directions(s * hole[pair]) == lab]
            counts += np.bincount(lab, minlength=decomp.m_patches)
    return counts
