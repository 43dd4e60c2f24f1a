import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fermiball import (
    PatchConstructionError,
    build_fermi_ball,
    build_patches,
    decomposition_to_json,
    index_sets,
    pair_count,
    patch_of,
)
from fermiball.experiments import min_patch_separation


@pytest.fixture(scope="module")
def decomp_400(ball_400):
    return build_patches(8, ball_400, 2.0)


def brute_pair_count(decomp, ball, k, alpha):
    """Enumerate the shell and count pairs with both legs in patch alpha."""
    asg = decomp.shell_assignment(ball)
    kv = np.asarray(k, dtype=np.int64)
    dot = float(decomp.omegas[alpha] @ kv)
    sign = 1 if dot > 0 else -1
    count = 0
    for p, lab, inside in zip(asg.points.tolist(), asg.labels.tolist(), asg.inside.tolist()):
        if lab != alpha or inside:
            continue
        h = tuple(np.asarray(p) - sign * kv)
        if not ball.contains(h):
            continue
        if patch_of(decomp, h) == alpha:
            count += 1
    return count


# ------------------------------------------------------------ construction


def test_m2_is_hemispheres(ball_100):
    decomp = build_patches(2, ball_100, 1.0)
    assert decomp.m_patches == 2
    assert tuple(decomp.omegas[0]) == (0.0, 0.0, 1.0)
    assert tuple(decomp.omegas[1]) == (0.0, 0.0, -1.0)
    cap = decomp.north[0]
    assert cap.is_cap
    # hemisphere minus the corridor band at the equator
    assert cap.theta_hi < math.pi / 2
    assert cap.theta_hi > math.pi / 2 - 0.2


def test_validation_errors(ball_100):
    with pytest.raises(PatchConstructionError):
        build_patches(7, ball_100, 1.0)
    with pytest.raises(PatchConstructionError):
        build_patches(0, ball_100, 1.0)
    with pytest.raises(PatchConstructionError):
        # corridor wider than the patch scale k_F / sqrt(M)
        build_patches(64, ball_100, 1.0)


def test_equal_areas_without_corridors(ball_100):
    decomp = build_patches(8, ball_100, 0.0)
    areas = decomp.angular_areas()
    assert areas.sum() == pytest.approx(4 * math.pi, rel=1e-12)
    assert np.allclose(areas, 4 * math.pi / decomp.m_patches, rtol=1e-12)


def test_builds_exactly_the_requested_count(ball_100):
    for m in range(2, 2049, 2):
        decomp = build_patches(m, ball_100, 0.0)
        assert decomp.m_patches == m
        if m < 64:
            continue
        # collars about one patch side tall: patches roughly as wide as tall
        for spec in decomp.north[1:]:
            tall = spec.theta_hi - spec.theta_lo
            wide = (spec.phi_hi - spec.phi_lo) * math.sin(0.5 * (spec.theta_lo + spec.theta_hi))
            assert 0.5 <= wide / tall <= 2.0


def test_area_accounting_with_corridors(decomp_400):
    areas = decomp_400.angular_areas()
    corridor = 4 * math.pi - areas.sum()
    assert corridor > 0
    # corridor area stays a modest multiple of sqrt(M) N^(-1/3) in angular units
    n13 = decomp_400.n_particles ** (1.0 / 3.0)
    assert corridor / (4 * math.pi) < 8 * math.sqrt(decomp_400.m_patches) / n13


def test_reflection_symmetry(decomp_400):
    half = decomp_400.half
    assert np.array_equal(decomp_400.omegas[half:], -decomp_400.omegas[:half])


def test_omega_inside_own_patch(decomp_400, ball_400):
    # the lattice point nearest to k_F omega_alpha lands in patch alpha
    for alpha in range(decomp_400.m_patches):
        target = decomp_400.k_fermi * decomp_400.omegas[alpha]
        p = np.rint(target).astype(np.int64)
        assert patch_of(decomp_400, p) == alpha


def test_patch_of_origin_and_shell(decomp_400):
    assert patch_of(decomp_400, (0, 0, 0)) is None
    assert patch_of(decomp_400, (1, 1, 1)) is None  # deep inside the ball


def test_assignment_is_single_valued(decomp_400, ball_400):
    asg = decomp_400.shell_assignment(ball_400)
    # exhaustive: scalar classification agrees with the vectorized labels
    rng = np.random.default_rng(3)
    idx = rng.choice(len(asg.points), size=500, replace=False)
    for i in idx:
        p = asg.points[i]
        lab = patch_of(decomp_400, p)
        assert (lab if lab is not None else -1) == asg.labels[i]


def test_shell_assignment_shared_by_equal_radii(decomp_400, ball_400):
    # keyed by k_F^2: an id-keyed cache could hand a new ball the shell of a
    # collected one whose id it reuses
    twin = build_fermi_ball(k_fermi_sq=ball_400.k_fermi_sq)
    assert twin is not ball_400
    assert decomp_400.shell_assignment(twin) is decomp_400.shell_assignment(ball_400)


def test_antipodal_membership(decomp_400, ball_400):
    asg = decomp_400.shell_assignment(ball_400)
    half = decomp_400.half
    rng = np.random.default_rng(5)
    idx = rng.choice(len(asg.points), size=300, replace=False)
    for i in idx:
        lab = asg.labels[i]
        if lab < 0:
            continue
        mirrored = patch_of(decomp_400, -asg.points[i])
        assert mirrored == (lab + half) % decomp_400.m_patches


def test_lattice_separation_exceeds_corridor_bound(decomp_400, ball_400):
    sep = min_patch_separation(decomp_400, ball_400)
    assert sep > 2.0 * decomp_400.r_corridor


def test_patch_diameter_bound(decomp_400, ball_400):
    asg = decomp_400.shell_assignment(ball_400)
    n13 = ball_400.n_particles ** (1.0 / 3.0)
    worst = 0.0
    for a in range(decomp_400.m_patches):
        pts = asg.points[asg.labels == a]
        if len(pts) > 1:
            span = (pts.max(axis=0) - pts.min(axis=0)).astype(float)
            worst = max(worst, float(np.linalg.norm(span)))
    assert worst * math.sqrt(decomp_400.m_patches) / n13 < 8.0


# ------------------------------------------------------------ index sets


def test_index_sets_m2(ball_100):
    decomp = build_patches(2, ball_100, 1.0)
    idx = index_sets(decomp, (0, 0, 1), 0.05)
    assert idx.plus_side == (0,)
    assert idx.minus_side == (1,)


def test_index_sets_orthogonal_excluded(ball_100):
    decomp = build_patches(2, ball_100, 1.0)
    idx = index_sets(decomp, (1, 0, 0), 0.05)
    assert idx.plus_side == () and idx.minus_side == ()


def test_index_sets_validation(decomp_400):
    with pytest.raises(ValueError):
        index_sets(decomp_400, (0, 0, 0), 0.05)
    for bad in (0.0, 1.0 / 6.0, 0.3):
        with pytest.raises(ValueError):
            index_sets(decomp_400, (0, 0, 1), bad)


def test_index_sets_mirror_and_threshold(decomp_400):
    idx = index_sets(decomp_400, (0, 0, 1), 0.16)
    half = decomp_400.half
    assert set(idx.minus_side) == {(a + half) % decomp_400.m_patches for a in idx.plus_side}
    thr = decomp_400.n_particles ** (-0.16)
    kv = np.array([0.0, 0.0, 1.0])
    for a in idx.plus_side + idx.minus_side:
        assert abs(decomp_400.omegas[a] @ kv) >= thr
    excluded = set(range(decomp_400.m_patches)) - set(idx.plus_side) - set(idx.minus_side)
    for a in excluded:
        assert abs(decomp_400.omegas[a] @ kv) < thr


def test_index_fraction_grows_as_cut_shrinks(decomp_400):
    sizes = [
        len(index_sets(decomp_400, (0, 0, 1), d)) for d in (0.02, 0.08, 0.16)
    ]
    assert sizes == sorted(sizes)


# ------------------------------------------------------------ pair counts


def test_pair_count_matches_enumeration(ball_400, decomp_400):
    for alpha in (0, 1):
        got = pair_count(decomp_400, ball_400, (0, 0, 1), alpha)
        assert got == brute_pair_count(decomp_400, ball_400, (0, 0, 1), alpha)
        assert got > 0


def test_pair_count_reflection(ball_400, decomp_400):
    idx = index_sets(decomp_400, (0, 0, 1), 0.16)
    half = decomp_400.half
    for a in idx.plus_side:
        b = (a + half) % decomp_400.m_patches
        assert pair_count(decomp_400, ball_400, (0, 0, 1), a) == pair_count(
            decomp_400, ball_400, (0, 0, 1), b
        )


def test_pair_count_empty_when_k_leaves_shell(ball_400, decomp_400):
    # k = (0,0,6): the hole leg always falls below the shell's inner radius
    assert pair_count(decomp_400, ball_400, (0, 0, 6), 0) == 0


def test_pair_count_rejections(ball_400, decomp_400):
    with pytest.raises(ValueError):
        pair_count(decomp_400, ball_400, (0, 0, 0), 0)
    with pytest.raises(ValueError):
        # cap is orthogonal to (1,0,0) exactly
        decomp = build_patches(2, ball_400, 1.0)
        pair_count(decomp, ball_400, (1, 0, 0), 0)
    with pytest.raises(ValueError):
        # below the equator cut when delta is enforced
        equator_alpha = None
        kv = np.array([0.0, 0.0, 1.0])
        thr = ball_400.n_particles ** (-0.02)
        for a in range(decomp_400.m_patches):
            d = decomp_400.omegas[a] @ kv
            if d != 0 and abs(d) < thr:
                equator_alpha = a
                break
        assert equator_alpha is not None
        pair_count(decomp_400, ball_400, (0, 0, 1), equator_alpha, delta=0.02)


def test_pair_count_normalization_ballpark(ball_400):
    decomp = build_patches(8, ball_400, 1.0)
    kv = np.array([0.0, 0.0, 1.0])
    for alpha in (0,):
        count = pair_count(decomp, ball_400, (0, 0, 1), alpha)
        predicted = (
            4 * math.pi * ball_400.k_fermi**2 / decomp.m_patches * abs(decomp.omegas[alpha] @ kv)
        )
        assert 0.5 < count / predicted < 1.5


def test_normalization_deviation_shrinks_with_radius(ball_400, ball_1600):
    kv = np.array([0.0, 0.0, 1.0])
    worst = []
    for ball in (ball_400, ball_1600):
        decomp = build_patches(8, ball, 1.0)
        devs = []
        for alpha in range(decomp.m_patches):
            dot = float(decomp.omegas[alpha] @ kv)
            if abs(dot) < 0.3:
                continue
            count = pair_count(decomp, ball, (0, 0, 1), alpha)
            predicted = 4 * math.pi * ball.k_fermi**2 / decomp.m_patches * abs(dot)
            devs.append(abs(count / predicted - 1.0))
        worst.append(max(devs))
    assert worst[1] < worst[0]


# ------------------------------------------------------------ export


def test_json_export_roundtrip(decomp_400, ball_400):
    doc = json.loads(decomposition_to_json(decomp_400, ball_400))
    assert doc["m_patches"] == decomp_400.m_patches
    assert len(doc["patches"]) == decomp_400.m_patches
    assert doc["corridor_lattice_count"] >= 0
    areas = [p["angular_area"] for p in doc["patches"]]
    assert sum(areas) < 4 * math.pi
