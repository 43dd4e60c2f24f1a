"""Effective quadratic Hamiltonian per momentum mode and its diagonalization.

For each interaction momentum k the 2I particle-hole modes on the patched
Fermi surface carry a diagonal kinetic part D, a same-side rank-one coupling
W, and a cross-side coupling W~.  The Bogoliubov kernel K diagonalizes
D + W + W~ against D + W - W~; the ground-state shift is tr(E - D - W) / 2.
The modes come in reflection pairs, and the pair rotation
U = [[1, 1], [1, -1]] / sqrt 2 splits D + W -+ W~ into the blocks
(d, d + 2b) and (d + 2b, d), with d = diag(u^2) and b = g v v^T.  The second
block mirrors the first, so each kernel is solved on the plus side only:
`_solve(u, v, g)` solves the I x I pair (d, d + 2b), reading d's root,
inverse root and positivity from its entries.  Its blocks give the doubled
quantities in closed form: K = [[0, K1], [K1, 0]], cosh K = diag(C, C),
sinh K = [[0, S], [S, 0]], frakK = diag(F, F), the spectrum of E is that of
E1 twice, and tr(E - D - W) / 2 = tr(E1 - d - b).  No 2I x 2I matrix is
built; the general solve of the doubled D, W and W~, which does not call
`_solve`, is the test reference in `tests/oracles.py`.
A solve decomposes d^1/2 (d+2b) d^1/2 once and, unless told not to, checks
itself: its residuals include the L2 block's rebuild of K, a second route,
and the spectrum of frakK against E's (see `_solve`).
Positive definiteness is a checked precondition, never silently clamped.
The arithmetic takes (..., I, I) arrays, so `stacked_residuals` solves many
systems in stacks of equal size with the bits of one-by-one solves.
The energy path solves no matrix: `rpa.ground_state_shift` reads the shift
from u, v and g by quadrature, and the tests use `diagonalize` as its dense
reference.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .lattice import KAPPA_IDEAL, InteractionPotential, Momentum, _as_ivec
from .patches import PatchDecomposition, index_sets, pair_counts

__all__ = [
    "ModeSystem",
    "BogoliubovSolution",
    "DiagonalizationError",
    "EmptyModeSystemError",
    "build_mode_system",
    "sample_mode_system",
    "diagonalize",
    "stacked_residuals",
    "check_kernel_bound",
    "check_L_blocks",
    "check_frakK_minus_D_bound",
]

log = logging.getLogger(__name__)


class DiagonalizationError(ValueError):
    """A matrix that must be positive definite is not, or is too near
    singular for the trace quadrature to resolve."""


class EmptyModeSystemError(ValueError):
    """No usable modes survive the equator cut and zero-count drops."""


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def _require_pd(w: np.ndarray, name: str) -> None:
    """Raise unless the ascending eigenvalues w (..., n) of each matrix are
    all clearly positive; the error names the first failing matrix of a
    stack by its flat index."""
    tol = 1e-12 * np.maximum(np.maximum(abs(w[..., 0]), abs(w[..., -1])), 1e-300)
    bad = np.flatnonzero(w[..., 0] <= tol)
    if bad.size:
        i = int(bad[0])
        where = f" (matrix {i} of the stack)" if w.ndim > 1 else ""
        smallest = w.reshape(-1, w.shape[-1])[i, 0]
        raise DiagonalizationError(
            f"{name} is not positive definite{where}: smallest eigenvalue {smallest:.3e}"
        )


def _eigh_pd(a: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with a positive-definiteness guard."""
    w, q = np.linalg.eigh(_sym(a))
    _require_pd(w, name)
    return w, q


def _apply(w: np.ndarray, q: np.ndarray, fn) -> np.ndarray:
    return _sym(q @ (fn(w)[..., :, None] * q.swapaxes(-1, -2)))


def _diag(x: np.ndarray) -> np.ndarray:
    """Diagonal matrices (..., n, n) of the vectors x (..., n)."""
    n = x.shape[-1]
    out = np.zeros(x.shape + (n,))
    out[..., np.arange(n), np.arange(n)] = x
    return out


def _same_side(v_side: np.ndarray, g) -> np.ndarray:
    """The rank-one same-side blocks b = g v v^T of vectors v (..., I) and
    couplings g (...)."""
    return np.asarray(g)[..., None, None] * (v_side[..., :, None] * v_side[..., None, :])


@dataclass
class ModeSystem:
    """Mode data for one interaction momentum, plus side only.

    Modes are reflection paired: the plus modes 0..I-1 are ordered by patch
    index, and mode I+j, the antipodal partner of mode j, carries the same
    u, n and v, so u, n and v hold the I plus-side entries.  `diagonalize`
    solves the plus-side pair (d, d + 2b) built from u, v and g; the trace
    route (`rpa.ground_state_shift`) solves no matrix.  `size` counts both
    sides, 2I.
    """

    k: Momentum
    vhat_k: float
    m_patches: int
    plus_modes: tuple[int, ...]
    u: np.ndarray
    n: np.ndarray
    v: np.ndarray
    g: float

    @property
    def side(self) -> int:
        return len(self.plus_modes)

    @property
    def size(self) -> int:
        return 2 * self.side


def _assemble(
    k: Momentum,
    vhat_k: float,
    m_patches: int,
    hbar: float,
    plus_modes: Sequence[int],
    u: np.ndarray,
    n: np.ndarray,
) -> ModeSystem:
    knorm = math.sqrt(float(Momentum(*k).norm_sq()))
    return ModeSystem(
        k=k,
        vhat_k=vhat_k,
        m_patches=m_patches,
        plus_modes=tuple(plus_modes),
        u=u,
        n=n,
        v=(hbar / (KAPPA_IDEAL * math.sqrt(knorm))) * n,
        g=0.5 * KAPPA_IDEAL * vhat_k,
    )


def build_mode_system(
    decomp: PatchDecomposition,
    v: InteractionPotential,
    k: Sequence[int],
    delta: float,
    counts: np.ndarray | None = None,
) -> ModeSystem:
    """The mode system of momentum k, from exact lattice pair counts.

    ``counts`` is `pair_counts(decomp, k)` when the caller has it already
    (from `pair_counts_by_layout`'s walk); it is counted here otherwise.
    Patches whose pair count vanishes (a finite-size artifact near the cut)
    are dropped together with their antipodal partners.
    """
    kv = _as_ivec(k)
    km = Momentum(int(kv[0]), int(kv[1]), int(kv[2]))
    knorm = math.sqrt(km.norm_sq())
    idx = index_sets(decomp, kv, delta)
    if counts is None:
        counts = pair_counts(decomp, kv)
    side = np.array(idx.plus_side, dtype=np.int64)
    side_counts = counts[side]
    live = side_counts > 0
    plus = side[live]
    dropped = side[~live].tolist()
    if dropped:
        log.warning(
            "dropping %d zero-count modes for k=%s (geometry too coarse): %s",
            len(dropped),
            tuple(km),
            dropped,
        )
    if not len(plus):
        raise EmptyModeSystemError(
            f"no modes survive for k={tuple(km)} at delta={delta}; "
            "k_fermi is too small for this patch count"
        )
    # abs, the division and sqrt round correctly, as math's do one mode at a time
    return _assemble(
        km,
        v(kv),
        decomp.m_patches,
        decomp.ball.hbar,
        plus.tolist(),
        np.sqrt(np.abs(decomp.k_dots(kv)[plus]) / knorm),
        np.sqrt(side_counts[live].astype(np.float64)),
    )


def sample_mode_system(rng: np.random.Generator, max_side: int = 30) -> ModeSystem:
    """Random valid mode system for identity-check suites.

    Mode shapes mimic the lattice-built ones: u in (0, 1], pair counts near
    the surface-area heuristic, coupling below 1.
    """
    side = int(rng.integers(1, max_side + 1))
    m_patches = int(2 * side + 2 * rng.integers(0, side + 2))
    n_particles = int(rng.integers(10**3, 10**7))
    hbar = n_particles ** (-1.0 / 3.0)
    vhat_k = float(rng.uniform(0.01, 0.9))
    u = np.sqrt(rng.uniform(0.01, 1.0, size=side))
    kf = KAPPA_IDEAL * n_particles ** (1.0 / 3.0)
    base = 4.0 * math.pi * kf**2 / m_patches
    n_side = np.sqrt(base * u**2 * rng.uniform(0.6, 1.4, size=side))
    plus = tuple(range(side))
    return _assemble(Momentum(0, 0, 1), vhat_k, m_patches, hbar, plus, u, n_side)


@dataclass
class BogoliubovSolution:
    """Diagonalization output, with residual diagnostics.

    Everything is of the plus-side problem: E1, K1, C, S and F of the
    module docstring, with its S1, S2, O and residuals.  For one mode system
    the matrices are I x I and `trace_correction` and the residuals are
    floats; for a stack of equal-size systems (see `_solve`) every matrix is
    stacked and every scalar is an array over the stack.
    """

    E: np.ndarray
    S1: np.ndarray
    S2: np.ndarray
    O: np.ndarray
    K: np.ndarray
    coshK: np.ndarray
    sinhK: np.ndarray
    frakK: np.ndarray
    trace_correction: float | np.ndarray
    residuals: dict[str, float | np.ndarray] = field(default_factory=dict)


def _solve(u: np.ndarray, v: np.ndarray, g, checked: bool = True) -> BogoliubovSolution:
    """`diagonalize` on mode data u, v (..., I) and couplings g (...): one
    system, or a stack of equal-size systems solved by stacked LAPACK and
    matmul calls.  The pair (D+W-W~, D+W+W~) is (d, d + 2b) and W = W~ = b;
    d is diagonal, so its root and inverse root are taken entrywise, with the
    bits of its eigh roots, and its guard reads its entries.  Stacked calls,
    the residual norms over the last two axes, det and trace give each matrix
    the bits of its 2-D call, so a stack solves to the same bits as its
    systems one by one.
    `trace_correction` is tr(E1 - d - b), the doubled tr(E - D - W) / 2.
    When `checked`, the residuals also hold `l_block_dev` (the L2 rebuild of
    K) and `spectrum_rel_dev`, for five `eigh` calls in place of two.
    """

    def norm(x):
        return np.linalg.norm(x, axis=(-2, -1))

    d = u**2
    # the eigenvalues of a diagonal matrix are its entries
    _require_pd(np.sort(d, axis=-1), "D + W - W~")
    b = _same_side(v, g)
    # d + 2b summed as (d + b) + b, whose rounding kernel_bound_fit's pinned bytes carry
    dw = _diag(d) + b
    a_plus = dw + b
    if checked:
        # the L2 rebuild's root of d + 2b; its eigenvalues are the guard
        a_h = _apply(*_eigh_pd(a_plus, "D + W + W~"), np.sqrt)
    else:
        _require_pd(np.linalg.eigvalsh(a_plus), "D + W + W~")
    # diag(r) x as r[..., :, None] * x has the bits of the matmul
    rm = np.sqrt(d)[..., :, None]
    w_e2, q_e2 = _eigh_pd(rm * a_plus * rm.swapaxes(-1, -2), "(D+W-W~)^1/2 (D+W+W~) (D+W-W~)^1/2")
    E = _apply(w_e2, q_e2, np.sqrt)
    S1 = rm * _apply(w_e2, q_e2, lambda x: x**-0.25)
    S2 = (1.0 / rm) * _apply(w_e2, q_e2, lambda x: x**0.25)  # equals (S1^T)^-1
    del rm, w_e2, q_e2
    symplectic_plus = norm(S1.swapaxes(-1, -2) @ a_plus @ S1 - E) / norm(E)
    symplectic_minus = norm((S2.swapaxes(-1, -2) * d[..., None, :]) @ S2 - E) / norm(E)
    del a_plus
    w_s, q_s = _eigh_pd(_sym(S1 @ S1.swapaxes(-1, -2)), "S1 S1^T")
    K = _apply(w_s, q_s, lambda x: 0.5 * np.log(x))
    O = S1.swapaxes(-1, -2) @ _apply(w_s, q_s, lambda x: 1.0 / np.sqrt(x))
    del w_s, q_s
    if checked:
        # from its own roots of d + 2b and (d+2b)^1/2 d (d+2b)^1/2, L2 rebuilds
        # -K1 as log(I + L2) / 2 (I + L1 is S1 S1^T, whose log is 2 K1); rotated
        # back, the doubled kernel's deviation has the blocks
        # +-(log(I + L2) / 2 + K1) / 2
        l2 = a_h @ (d[..., :, None] * a_h)
        l2 = _apply(*_eigh_pd(l2, "(d+2b)^1/2 d (d+2b)^1/2"), lambda x: 1.0 / np.sqrt(x))
        l2 = _apply(*_eigh_pd(a_h @ l2 @ a_h, "I + L2"), np.log)
        l_block_dev = 0.5 * abs(0.5 * l2 + K).max(axis=(-2, -1))
        del a_h, l2
    coshK = _sym(0.5 * (S1 + S2) @ O)
    sinhK = _sym(0.5 * (S1 - S2) @ O)
    # a @ b @ c groups as (a @ b) @ c, so each product is taken once
    cd, sd = coshK @ dw, sinhK @ dw
    cw, sw = coshK @ b, sinhK @ b
    frakK = _sym(cd @ coshK + sd @ sinhK + cw @ sinhK + sw @ coshK)
    offdiagonal_rel = norm(cd @ sinhK + sd @ coshK + cw @ coshK + sw @ sinhK) / norm(dw)
    del cd, sd, cw, sw
    ident = np.eye(u.shape[-1])
    residuals = {
        "offdiagonal_rel": offdiagonal_rel,
        "symplectic_plus": symplectic_plus,
        "symplectic_minus": symplectic_minus,
        "hyperbolic": norm(coshK @ coshK - sinhK @ sinhK - ident),
        "orthogonality": norm(O.swapaxes(-1, -2) @ O - ident),
        "det_O": np.linalg.det(O),
    }
    if checked:
        residuals["l_block_dev"] = l_block_dev
        # frakK is orthogonally equivalent to E, so their spectra agree
        spec_f, spec_e = np.linalg.eigvalsh(np.stack([frakK, E]))
        residuals["spectrum_rel_dev"] = np.abs(spec_f - spec_e).max(axis=-1) / np.abs(spec_e).max(axis=-1)
    trace_correction = np.trace(E - dw, axis1=-2, axis2=-1)
    return BogoliubovSolution(E, S1, S2, O, K, coshK, sinhK, frakK, trace_correction, residuals)


def diagonalize(ms: ModeSystem, *, checked: bool = True) -> BogoliubovSolution:
    """Solve the quadratic mode problem for one momentum, on its plus side.

    With (D+W-W~, D+W+W~) = (d, d + 2b): E = [d^1/2 (d+2b) d^1/2]^1/2,
    S1 = d^1/2 E^-1/2, S2 = (S1^T)^-1, polar part O of S1^T, K = log|S1^T|,
    and the transformed matrix frakK, which is orthogonally equivalent to E.
    The doubled K, cosh K, sinh K and frakK read from these in closed form;
    checked=False skips `_solve`'s checks, for callers that read only these.
    `trace_correction` cancels tr d against tr E1: its error is small on the
    scale of tr d, not always on that of the correction itself.
    """
    return _solve(ms.u, ms.v, ms.g, checked)


#: matrix entries per stack of `stacked_residuals`: a stack of equal-size
#: systems holds at most this many, or one system, so each of the solve's
#: transient arrays stays within 64 kB
_STACK_ENTRIES = 1 << 13


def stacked_residuals(systems: Sequence[ModeSystem]) -> list[dict[str, float]]:
    """Each system's checked-solve residuals, in input order, from stacked
    solves: the systems are grouped by side and each group is solved in
    stacks of at most `_STACK_ENTRIES` entries, each stack by one `_solve`
    call, with the bits of `diagonalize(ms).residuals`."""
    by_side: dict[int, list[int]] = {}
    for i, ms in enumerate(systems):
        by_side.setdefault(ms.side, []).append(i)
    out: list[dict[str, float]] = [{} for _ in systems]
    for side, members in by_side.items():
        per_stack = max(1, _STACK_ENTRIES // side**2)
        for lo in range(0, len(members), per_stack):
            chunk = members[lo : lo + per_stack]
            u = np.stack([systems[i].u for i in chunk])
            v = np.stack([systems[i].v for i in chunk])
            res = _solve(u, v, np.array([systems[i].g for i in chunk])).residuals
            for j, i in enumerate(chunk):
                out[i] = {name: float(value[j]) for name, value in res.items()}
    return out


def _scaled_bound(mat: np.ndarray, ms: ModeSystem) -> np.ndarray:
    """|mat_ab| M / (V(k) min(n_a/n_b, n_b/n_a)) entrywise, of a plus-side
    block: its entry (a, b) is the doubled matrix's entry (a, I + b), and the
    doubled diagonal blocks vanish."""
    ratio = np.minimum.outer(ms.n, ms.n) / np.maximum.outer(ms.n, ms.n)
    return np.abs(mat) * ms.m_patches / (ms.vhat_k * ratio)


def check_kernel_bound(
    sol: BogoliubovSolution, ms: ModeSystem
) -> tuple[float, tuple[int, int]]:
    """Fitted constant of the entrywise kernel bound and its arg-max entry.

    C* = max over (a, b) of |K_ab| M / (V(k) min(n_a/n_b, n_b/n_a)), read
    from the plus-side block K1; the entry named is the doubled kernel's:
    K1's entry (a, b) is (a, I + b).  Ties between symmetric patches are
    common, and the first of K1 in row-major order is named.
    """
    if ms.vhat_k <= 0:
        return 0.0, (0, 0)
    scaled = _scaled_bound(sol.K, ms)
    a, b = np.unravel_index(int(np.argmax(scaled)), scaled.shape)
    return float(scaled[a, b]), (int(a), ms.side + int(b))


def check_sinh_bound(sol: BogoliubovSolution, ms: ModeSystem) -> float:
    """Fitted constant of the same entrywise bound applied to sinh(K)."""
    if ms.vhat_k <= 0:
        return 0.0
    return float(_scaled_bound(sol.sinhK, ms).max())


def check_L_blocks(ms: ModeSystem, sol: BogoliubovSolution) -> float:
    """Max deviation between the kernel and its block-reduction reconstruction.

    The half-size blocks L1 = d^1/2 [d^1/2 (d+2b) d^1/2]^-1/2 d^1/2 - I and
    L2 = (d+2b)^1/2 [(d+2b)^1/2 d (d+2b)^1/2]^-1/2 (d+2b)^1/2 - I rebuild the
    doubled kernel through the plus/minus block rotation, as log(I + L1) / 2
    = K1 and log(I + L2) / 2 = K2 = -K1.  I + L1 is S1 S1^T, from which the
    solve takes K1, so L2 is the one second route: the checked solve that
    gave sol took its deviation from -K1 as `l_block_dev`.
    """
    return float(sol.residuals["l_block_dev"])


def check_frakK_minus_D_bound(sol: BogoliubovSolution, ms: ModeSystem) -> float:
    """Fitted constant of |(frakK - D)_ab| <= C V(k) u_a u_b / M, read from
    the plus-side block F (the doubled off-diagonal blocks vanish)."""
    if ms.vhat_k <= 0:
        return 0.0
    scale = ms.vhat_k * np.outer(ms.u, ms.u) / ms.m_patches
    return float((np.abs(sol.frakK - _diag(ms.u**2)) / scale).max())
