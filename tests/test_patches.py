import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fermiball import (
    PatchConstructionError,
    build_fermi_ball,
    build_patches,
    index_sets,
    rpa_energy_trace,
)
from fermiball import patches
from fermiball.lattice import _BLOCK_ROWS, _band
from fermiball.patches import audit_patches, pair_counts, pair_counts_by_layout
from oracles import (
    contains,
    contains_points,
    decomposition_to_json,
    loop_labels,
    mod_canonical_angles,
    one_shot_pair_counts,
    one_shot_shell_assignment,
    pair_count,
    patch_of,
    reference_layout,
    row_keys,
    scan_min_patch_separation,
    shell_patch_audit,
    tile_clearance,
)


@pytest.fixture(scope="module")
def decomp_400(ball_400):
    return build_patches(8, ball_400, 2.0)


def brute_pair_count(decomp, ball, k, alpha):
    """Enumerate the shell and count pairs with both legs in patch alpha."""
    asg = decomp.shell_assignment()
    kv = np.asarray(k, dtype=np.int64)
    dot = float(decomp.omegas[alpha] @ kv)
    sign = 1 if dot > 0 else -1
    count = 0
    for p, lab in zip(asg.points.tolist(), asg.labels.tolist()):
        if lab != alpha or contains(ball, p):
            continue
        h = tuple(np.asarray(p) - sign * kv)
        if not contains(ball, h):
            continue
        if patch_of(decomp, h) == alpha:
            count += 1
    return count


def loop_pair_counts(decomp, asg, ks):
    """Reference per-patch route: each patch's particle rows (outside the
    ball) shifted by -/+ k and matched against its own hole rows (inside)."""
    points = asg.points.astype(np.int64)
    inside = contains_points(decomp.ball, points)
    counts = np.zeros((len(ks), decomp.m_patches), dtype=np.int64)
    for a in range(decomp.m_patches):
        sel = asg.labels == a
        part, hole = points[sel & ~inside], row_keys(points[sel & inside])
        for i, k in enumerate(ks):
            kv = np.asarray(k, dtype=np.int64)
            dot = float(decomp.omegas[a] @ kv)
            if dot != 0.0:
                counts[i, a] = np.isin(row_keys(part - (kv if dot > 0 else -kv)), hole).sum()
    return counts


def kdtree_min_patch_separation(decomp):
    """Reference separation: every pair of labelled shell points within
    2 r_v + 4 from a KD-tree, the closest pair with distinct labels."""
    asg = decomp.shell_assignment()
    sel = asg.labels >= 0
    pts = asg.points[sel].astype(np.float64)
    lab = asg.labels[sel]
    pairs = cKDTree(pts).query_pairs(r=2.0 * decomp.r_corridor + 4.0, output_type="ndarray")
    if len(pairs):
        diff = lab[pairs[:, 0]] != lab[pairs[:, 1]]
        if diff.any():
            d = np.linalg.norm(pts[pairs[diff, 0]] - pts[pairs[diff, 1]], axis=1)
            return float(d.min())
    return math.inf


# ------------------------------------------------------------ construction


def test_m2_is_hemispheres(ball_100):
    decomp = build_patches(2, ball_100, 1.0)
    assert decomp.m_patches == 2
    assert tuple(decomp.omegas[0]) == (0.0, 0.0, 1.0)
    assert tuple(decomp.omegas[1]) == (0.0, 0.0, -1.0)
    cap = reference_layout(2, ball_100, 1.0)[0]
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
    # a non-integer M and a NaN r_v are named, not left to fail later
    for m in (6.0, 6.5, "6", np.float64(6.0)):
        with pytest.raises(PatchConstructionError, match="m_patches.*" + re.escape(repr(m))):
            build_patches(m, ball_100, 1.0)
    for r_v in (math.nan, -0.5, "1"):
        with pytest.raises(PatchConstructionError, match="r_v.*" + re.escape(repr(r_v))):
            build_patches(8, ball_100, r_v)
    assert build_patches(np.int64(8), ball_100, np.float64(1.0)).m_patches == 8


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
        for spec in reference_layout(m, ball_100, 0.0)[1:]:
            tall = spec.theta_hi - spec.theta_lo
            wide = (spec.phi_hi - spec.phi_lo) * math.sin(0.5 * (spec.theta_lo + spec.theta_hi))
            assert 0.5 <= wide / tall <= 2.0


#: the per-patch bound arrays a decomposition derives from its collar table;
#: omega and the area follow them in the columns of the parity check
BOUND_ARRAYS = (
    "_theta_lo",
    "_theta_hi",
    "_phi_lo",
    "_phi_hi",
    "_tile_theta_lo",
    "_tile_theta_hi",
    "_tile_phi_lo",
    "_tile_phi_hi",
)
LAYOUT_COLUMNS = (*BOUND_ARRAYS, "omega_x", "omega_y", "omega_z", "angular_area")


def check_layout_against_reference(m, ball, r_v):
    """"built" when `build_patches(m, ball, r_v)` derives the stored bounds,
    omegas, tiles and areas of `reference_layout` bit for bit; the message
    when both raise the error that names the cap or the first collar a
    corridor erases; None when `build_patches` rejects the parameters before
    it lays out a layout."""
    try:
        decomp = build_patches(m, ball, r_v)
    except PatchConstructionError as err:
        if "erases" not in str(err):
            return None
        with pytest.raises(PatchConstructionError) as want:
            reference_layout(m, ball, r_v)
        assert str(want.value) == str(err)
        return str(err)
    want = np.array(
        [
            (s.theta_lo, s.theta_hi, s.phi_lo, s.phi_hi, *s.tile, *s.omega, s.angular_area())
            for s in reference_layout(m, ball, r_v)
        ]
    )
    want[0, 2:4] = -np.inf, np.inf  # the cap's stored phi is left open
    half = decomp.half
    areas = decomp.angular_areas()
    got = np.column_stack(
        [getattr(decomp, name) for name in BOUND_ARRAYS] + [decomp.omegas[:half], areas[:half]]
    )
    assert got.shape == want.shape, (m, r_v)
    differ = (got.view(np.uint64) != want.view(np.uint64)).any(axis=0)
    assert not differ.any(), (m, r_v, [c for c, d in zip(LAYOUT_COLUMNS, differ) if d])
    # the south is the point reflection of the north
    got = np.column_stack([decomp.omegas[half:], areas[half:]])
    want = np.column_stack([-decomp.omegas[:half], areas[:half]])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (m, r_v)
    return "built"


def test_derived_layout_is_the_reference_layout(ball_small, ball_100, ball_400, ball_6400):
    built = [check_layout_against_reference(m, ball_100, 0.0) for m in range(2, 2049, 2)]
    assert built == ["built"] * 1024
    seen = []
    for ball, r_vs in (
        (ball_small, (0.1, 0.5, 1.0, 2.0, 3.0)),
        (ball_100, (0.1, 0.5, 1.0, 2.0, 3.0)),
        (ball_400, (0.1, 0.5, 1.0, 2.0, 3.0)),
        (ball_6400, (2.0, 3.0)),
    ):
        for r_v in r_vs:
            seen += [check_layout_against_reference(m, ball, r_v) for m in range(2, 2049, 2)]
    assert seen.count("built") >= 1000
    erased = {msg.split(" (")[0].split(";")[0] for msg in seen if msg not in ("built", None)}
    assert erased == {
        "corridor erases the polar cap",
        "corridor erases collar 0",
        "corridor erases collar 1",
    }


def test_area_accounting_with_corridors(decomp_400):
    areas = decomp_400.angular_areas()
    corridor = 4 * math.pi - areas.sum()
    assert corridor > 0
    # corridor area stays a modest multiple of sqrt(M) N^(-1/3) in angular units
    n13 = decomp_400.ball.n_particles ** (1.0 / 3.0)
    assert corridor / (4 * math.pi) < 8 * math.sqrt(decomp_400.m_patches) / n13


def test_reflection_symmetry(decomp_400):
    half = decomp_400.half
    assert np.array_equal(decomp_400.omegas[half:], -decomp_400.omegas[:half])


def test_omega_inside_own_patch(decomp_400, ball_400):
    # the lattice point nearest to k_F omega_alpha lands in patch alpha
    for alpha in range(decomp_400.m_patches):
        target = decomp_400.ball.k_fermi * decomp_400.omegas[alpha]
        p = np.rint(target).astype(np.int64)
        assert patch_of(decomp_400, p) == alpha


def test_patch_of_origin_and_shell(decomp_400):
    assert patch_of(decomp_400, (0, 0, 0)) is None
    assert patch_of(decomp_400, (1, 1, 1)) is None  # deep inside the ball


def test_assignment_is_single_valued(decomp_400, ball_400):
    asg = decomp_400.shell_assignment()
    # exhaustive: scalar classification agrees with the vectorized labels
    rng = np.random.default_rng(3)
    idx = rng.choice(len(asg.points), size=500, replace=False)
    for i in idx:
        p = asg.points[i]
        lab = patch_of(decomp_400, p)
        assert (lab if lab is not None else -1) == asg.labels[i]


@pytest.mark.parametrize("ball_name", ["ball_400", "ball_1600", "ball_6400"])
def test_one_pass_assignment_matches_patch_loop(ball_name, request):
    ball = request.getfixturevalue(ball_name)
    built = 0
    for m in (2, 4, 8, 30, 64, 512, 2048):
        for r_v in (0.0, 1.0, 2.0):
            try:
                decomp = build_patches(m, ball, r_v)
            except PatchConstructionError:
                continue
            built += 1
            asg = decomp.shell_assignment()
            assert np.array_equal(asg.labels, loop_labels(decomp, asg.points))
            ks = [(0, 0, 1), (1, -2, 3)]
            want = loop_pair_counts(decomp, asg, ks)
            for k, row in zip(ks, want):
                assert np.array_equal(pair_counts(decomp, k), row)
    assert built >= 10


def edge_directions(decomp):
    """The poles and a few axis and equator directions, then directions
    exactly on every northern spec's stored edges (up to the arccos /
    arctan2 round trip) and one ulp either side, at phi = 0 and 2 pi too,
    and their negatives."""
    north = reference_layout(decomp.m_patches, decomp.ball, decomp.r_corridor)
    t = np.array([(s.theta_lo, s.theta_hi) for s in north])
    p = np.array([(s.phi_lo, s.phi_hi, 0.0, 2 * math.pi) for s in north])
    t = np.stack([np.nextafter(t, -1.0), t, np.nextafter(t, 4.0)], axis=-1).reshape(len(t), -1, 1)
    p = np.stack([np.nextafter(p, -1.0), p, np.nextafter(p, 7.0)], axis=-1).reshape(len(p), 1, -1)
    on_sphere = np.stack(
        np.broadcast_arrays(np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)), axis=-1
    ).reshape(-1, 3)
    special = [(0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1e-17, 0.3)]
    return 10.0 * np.concatenate([special, on_sphere, -on_sphere])


def test_one_pass_labels_on_patch_edges(ball_400):
    for m, r_v in ((2, 0.0), (8, 0.0), (30, 0.0), (30, 1.0), (512, 0.0), (2048, 0.0)):
        decomp = build_patches(m, ball_400, r_v)
        pts = edge_directions(decomp)
        got = decomp.assign_directions(pts)
        assert np.array_equal(got, loop_labels(decomp, pts))
        assert got[0] == 0 and got[1] == decomp.half  # the poles lie in the caps

    # lattice points on the axis planes and diagonals: phi exactly 0, pi/2, pi,
    # pi/4, ..., and z = 0 on the equator
    for m, r_v in ((2, 1.0), (8, 0.0), (16, 2.0), (30, 0.0)):
        decomp = build_patches(m, ball_400, r_v)
        asg = decomp.shell_assignment()
        x, y, z = asg.points.T
        on_seam = (x == 0) | (y == 0) | (z == 0) | (np.abs(x) == np.abs(y))
        assert np.array_equal(asg.labels[on_seam], loop_labels(decomp, asg.points[on_seam]))


def test_angle_pass_matches_the_np_mod_wrap(ball_400, monkeypatch):
    # the azimuth is wrapped by adding 2 pi where it is negative: np.mod's
    # values, and the same labels and tile angles, on patch edges and on
    # random blocks rich in zero coordinates (phi = -0.0 after the flip)
    rng = np.random.default_rng(28)
    blocks = [rng.integers(-3, 4, size=(2000, 3)), rng.integers(-60, 61, size=(8192, 3))]
    for m, r_v in ((2, 0.0), (8, 0.0), (30, 0.0), (30, 1.0), (512, 0.0), (2048, 0.0)):
        decomp = build_patches(m, ball_400, r_v)
        for pts in (edge_directions(decomp), *blocks):
            assert np.array_equal(patches._canonical_angles(pts)[2], mod_canonical_angles(pts)[2])
            got = decomp.labels_and_tile_angles(pts)
            with monkeypatch.context() as patched:
                patched.setattr(patches, "_canonical_angles", mod_canonical_angles)
                ref = decomp.labels_and_tile_angles(pts)
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("ball_name", ["ball_400", "ball_6400"])
def test_labels_partition_the_sphere_antipodally_without_corridors(ball_name, request):
    # at r_v = 0 every nonzero point is labelled, the equator and the phi
    # seams included, and -p carries the antipodal label of p
    ball = request.getfixturevalue(ball_name)
    for m in (2, 8, 30, 512, 1024, 2048):
        decomp = build_patches(m, ball, 0.0)
        half = decomp.half
        asg = decomp.shell_assignment()
        assert asg.labels.min() >= 0
        assert np.array_equal(decomp.assign_directions(-asg.points), (asg.labels + half) % m)
        pts = edge_directions(decomp)
        got = decomp.assign_directions(pts)
        assert got.min() >= 0
        assert np.array_equal(decomp.assign_directions(-pts), (got + half) % m)


def test_decomposition_owns_its_ball_and_labels_its_shell_once(decomp_400, ball_400):
    assert decomp_400.ball is ball_400
    asg = decomp_400.shell_assignment()
    assert decomp_400.shell_assignment() is asg


def test_antipodal_membership(decomp_400, ball_400):
    asg = decomp_400.shell_assignment()
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
    sep = audit_patches(decomp_400).min_separation
    assert sep > 2.0 * decomp_400.r_corridor


@pytest.mark.parametrize(
    "ball_name, r_v",
    [("ball_400", 0.0), ("ball_400", 1.0), ("ball_400", 2.0), ("ball_1600", 0.0), ("ball_1600", 1.0)],
)
def test_separation_matches_kdtree(ball_name, r_v, request):
    ball = request.getfixturevalue(ball_name)
    built = 0
    for m in (2, 6, 8, 16, 30):
        try:
            decomp = build_patches(m, ball, r_v)
        except PatchConstructionError:
            continue
        built += 1
        assert audit_patches(decomp).min_separation == kdtree_min_patch_separation(decomp)
    assert built >= 3


def test_separation_matches_full_scan_at_benchmark_setting(ball_1600):
    # patch_audit's default grid
    for m in (6, 16, 30):
        decomp = build_patches(m, ball_1600, 2.0)
        assert audit_patches(decomp).min_separation == scan_min_patch_separation(decomp)


def test_separation_matches_full_scan_small_radii():
    built = 0
    for ksq in ("100.5", "400.5", "441", "900.5"):
        ball = build_fermi_ball(k_fermi_sq=Fraction(ksq))
        for r_v in (0.0, 0.5, 1.0, 2.0, 3.0):
            for m in (2, 4, 6, 8, 10, 16, 30, 64):
                try:
                    decomp = build_patches(m, ball, r_v)
                except PatchConstructionError:
                    continue
                built += 1
                want = scan_min_patch_separation(decomp)
                assert audit_patches(decomp).min_separation == want, (ksq, r_v, m)
    assert built >= 100


def test_audit_walk_matches_the_full_shell_audit():
    built = 0
    for ksq in ("100.5", "400.5", "1600.5"):
        ball = build_fermi_ball(k_fermi_sq=Fraction(ksq))
        for r_v in (0.0, 1.0, 2.0):
            for m in (2, 6, 16, 30):
                try:
                    decomp = build_patches(m, ball, r_v)
                except PatchConstructionError:
                    continue
                built += 1
                audit = audit_patches(decomp)
                got = (audit.min_separation, audit.max_diameter, audit.corridor_points)
                assert got == shell_patch_audit(decomp), (ksq, r_v, m)
    assert built >= 25


def test_audit_names_a_tile_angle_below_the_candidate_floor(decomp_400, monkeypatch):
    # every labelled point of decomp_400 lies well inside its tile; a floor
    # above its smallest tile angle could have dropped candidates
    monkeypatch.setattr(patches, "_MU_MIN_FLOOR", 1.0)
    with pytest.raises(RuntimeError, match="candidate floor"):
        audit_patches(decomp_400)


def test_audit_keeps_no_shell(ball_6400):
    # 321k shell points; the kept shell and its float temporaries traced
    # 25 MB here, the walk keeps only the scan's candidates
    decomp = build_patches(30, ball_6400, 2.0)
    tracemalloc.start()
    try:
        audit = audit_patches(decomp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert audit.min_separation > 4.0
    assert decomp._assignment is None
    assert peak <= 8e6, peak


@pytest.mark.parametrize("r_v", [0.0, 1.0, 2.0])
def test_tile_clearance_bounds_every_joining_pair(ball_400, r_v):
    checked = 0
    for m in (2, 6, 8, 16, 30):
        try:
            decomp = build_patches(m, ball_400, r_v)
        except PatchConstructionError:
            continue
        asg = decomp.shell_assignment()
        sel = asg.labels >= 0
        pts, lab = asg.points[sel], asg.labels[sel]
        clearance = tile_clearance(decomp, pts, lab)
        # every point lies in its own tile, up to the returned slack
        assert clearance.min() > -2e-9
        pairs = cKDTree(pts.astype(np.float64)).query_pairs(r=2.0 * r_v + 4.0, output_type="ndarray")
        pairs = pairs[lab[pairs[:, 0]] != lab[pairs[:, 1]]]
        dist = np.linalg.norm((pts[pairs[:, 0]] - pts[pairs[:, 1]]).astype(np.float64), axis=1)
        assert np.all(dist >= clearance[pairs[:, 0]])
        assert np.all(dist >= clearance[pairs[:, 1]])
        checked += len(pairs)
    assert checked > 0


def test_patch_diameter_bound(decomp_400, ball_400):
    asg = decomp_400.shell_assignment()
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
    thr = decomp_400.ball.n_particles ** (-0.16)
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
        got = pair_count(decomp_400, (0, 0, 1), alpha)
        assert got == brute_pair_count(decomp_400, ball_400, (0, 0, 1), alpha)
        assert got > 0
    k = (1, -1, 2)  # no patch of decomp_400 is orthogonal to it
    want = [brute_pair_count(decomp_400, ball_400, k, a) for a in range(decomp_400.m_patches)]
    assert pair_counts(decomp_400, k).tolist() == want


def test_pair_counts_use_the_decompositions_own_ball():
    # at two nearby radii each decomposition counts against the ball it was
    # built from; no other ball can be passed in
    counts = []
    for ksq in ("400.5", "420.5"):
        ball = build_fermi_ball(k_fermi_sq=Fraction(ksq))
        decomp = build_patches(8, ball, 2.0)
        assert decomp.ball is ball
        for k in ((0, 0, 1), (1, -1, 2)):
            want = [brute_pair_count(decomp, ball, k, a) for a in range(decomp.m_patches)]
            assert pair_counts(decomp, k).tolist() == want, (ksq, k)
            counts.append(want)
    assert counts[:2] != counts[2:]  # the radii are told apart


@pytest.mark.parametrize("m", [30, 512])
def test_block_labelling_and_counts_match_one_shot(ball_6400, m):
    # 161k shell rows, so several row blocks and a partial last one
    decomp = build_patches(m, ball_6400, 0.0)
    asg = decomp.shell_assignment()
    ref = one_shot_shell_assignment(decomp)
    assert len(asg.points) > 4 * _BLOCK_ROWS and len(asg.points) % _BLOCK_ROWS
    assert np.array_equal(asg.points, ref.points)
    assert np.array_equal(asg.labels, ref.labels)
    for k in ((0, 0, 1), (1, -1, 2), (5, 1, -2)):
        got = pair_counts(decomp, k)
        assert np.array_equal(got, one_shot_pair_counts(decomp, ref, k)), k
        assert got.sum() > 0


def test_shell_labelling_is_kept_arrays_plus_bounded_transient(ball_6400):
    # the int32 band is built slab by slab and labelled block by block, so
    # the transient is at most 2 MB (4.3 MB with an int64 band, 17 MB one-shot)
    decomp = build_patches(30, ball_6400, 0.0)
    tracemalloc.start()
    try:
        asg = decomp.shell_assignment()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # int32 points and labels: 16 B a point
    kept = asg.points.nbytes + asg.labels.nbytes
    assert kept <= 16 * len(asg.points), kept / len(asg.points)
    assert peak - kept <= 2e6, peak - kept


def test_pair_counts_memory_does_not_grow_with_the_shell():
    # N = 1.4e8, a shell of 2.57M points: the lune is filled one block of
    # rows at a time and no shell is labelled (a kept 25 B-a-point index
    # traced 65 MB here)
    ball = build_fermi_ball(k_fermi_sq=Fraction("102400.5"))
    decomp = build_patches(30, ball, 0.0)
    tracemalloc.start()
    try:
        counts = pair_counts(decomp, (1, -1, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.sum() > 0
    assert decomp._assignment is None
    assert peak <= 10e6, peak


#: (M, r_v) layouts of one ball: r_v = 0 and 1 have shell half-width 1,
#: r_v = 2 half-width 2, so each list, and each list's first three, holds
#: two shells
SHARED_WALK_LAYOUTS = {
    "ball_400": [(2, 2.0), (8, 2.0), (8, 0.0), (30, 1.0), (512, 0.0), (2048, 0.0)],
    "ball_6400": [(2, 2.0), (8, 0.0), (30, 2.0), (30, 1.0), (512, 1.0), (2048, 0.0)],
}


@pytest.mark.parametrize("ball_name", list(SHARED_WALK_LAYOUTS))
def test_shared_walk_equals_one_count_per_layout(ball_name, request, monkeypatch):
    # one list of mixed shells over three balls: this one, another radius and
    # a twin of equal radius in another object; each (ball, shell) group is
    # walked once and each layout gets its own counts, in input order
    ball = request.getfixturevalue(ball_name)
    other = build_fermi_ball(k_fermi_sq=ball.k_fermi_sq + 20)
    twin = build_fermi_ball(k_fermi_sq=ball.k_fermi_sq)
    specs = SHARED_WALK_LAYOUTS[ball_name]
    layouts = [build_patches(m, ball, r_v) for m, r_v in specs]
    layouts += [build_patches(m, b, r_v) for b in (other, twin) for m, r_v in specs[:3]]
    groups = {(id(d.ball), d.shell_bounds()) for d in layouts}
    assert len(groups) == 6
    walks = []
    real_lune = patches._lune
    monkeypatch.setattr(patches, "_lune", lambda *args: walks.append(args) or real_lune(*args))
    for k in ((0, 0, 1), (1, 0, 0), (1, -2, 3)):
        walks.clear()
        shared = pair_counts_by_layout(layouts, k)
        assert len(walks) == len(groups)
        assert len(shared) == len(layouts)
        for decomp, got in zip(layouts, shared):
            assert np.array_equal(got, pair_counts(decomp, k)), (decomp, k)
        # M = 2 is orthogonal to (1, 0, 0); at most one layout a group pairs nowhere
        assert sum(got.sum() > 0 for got in shared) >= len(layouts) - len(groups)
    assert pair_counts_by_layout([], (0, 0, 1)) == []
    with pytest.raises(ValueError, match="k = 0"):
        pair_counts_by_layout(layouts[:1], (0, 0, 0))


def test_shared_walk_memory_is_that_of_one_layout():
    # N = 1.4e8: four layouts add only their labels of one block to a walk
    ball = build_fermi_ball(k_fermi_sq=Fraction("102400.5"))
    layouts = [build_patches(m, ball, 0.0) for m in (256, 512, 1024, 2048)]
    peaks = []
    for group in (layouts[2:3], layouts):
        tracemalloc.start()
        try:
            pair_counts_by_layout(group, (1, -1, 2))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 1e6, peaks


def test_trace_route_builds_no_shell(ball_6400, unit_potential):
    decomp = build_patches(30, ball_6400, 0.0)
    rpa_energy_trace(decomp, unit_potential, 0.16)
    assert decomp._assignment is None


def test_pair_count_reflection(ball_400, decomp_400):
    idx = index_sets(decomp_400, (0, 0, 1), 0.16)
    half = decomp_400.half
    for a in idx.plus_side:
        b = (a + half) % decomp_400.m_patches
        assert pair_count(decomp_400, (0, 0, 1), a) == pair_count(decomp_400, (0, 0, 1), b)


def test_pair_count_empty_when_k_leaves_shell(ball_400, decomp_400):
    # k = (0,0,6): the hole leg always falls below the shell's inner radius
    assert pair_count(decomp_400, (0, 0, 6), 0) == 0


def test_pair_count_large_k_matches_brute_force(ball_400, decomp_400):
    # |k|_inf in {9, 12}: counted from every point of the ball, every hole h and
    # particle h + sign k in patch alpha
    pts = _band(0, ball_400.norm_sq_max)
    hole_lab = decomp_400.assign_directions(pts)
    r = np.sqrt((pts * pts).sum(axis=1))
    w = decomp_400.shell_halfwidth
    hole_lab[(r < decomp_400.ball.k_fermi - w) | (r > decomp_400.ball.k_fermi + w)] = -1
    nonzero = 0
    for k in ((9, 0, 0), (0, 9, 2), (12, 5, 0), (3, -4, 12)):
        kv = np.asarray(k, dtype=np.int64)
        for alpha in range(decomp_400.m_patches):
            dot = float(decomp_400.omegas[alpha] @ kv)
            if dot == 0.0:
                continue
            part = pts[hole_lab == alpha] + (kv if dot > 0 else -kv)
            outside = ~contains_points(ball_400, part)
            want = sum(patch_of(decomp_400, p) == alpha for p in part[outside])
            got = pair_count(decomp_400, k, alpha)
            assert got == want
            nonzero += got > 0
    assert nonzero > 0
    # two shell points never differ by more than 2 floor(k_F + w) per coordinate;
    # a z-shift by 6 floor(k_F + w) + 1 is the stride of a code packing the
    # shell's coordinates, which would alias p - k onto the column (x, y - 1)
    rmax = math.floor(decomp_400.ball.k_fermi + decomp_400.shell_halfwidth)
    for k in ((2 * rmax, 0, 1), (2 * rmax + 1, 0, 1), (0, 0, 6 * rmax + 1)):
        assert pair_count(decomp_400, k, 0) == 0


def test_pair_count_rejections(ball_400, decomp_400):
    with pytest.raises(ValueError):
        pair_count(decomp_400, (0, 0, 0), 0)
    with pytest.raises(ValueError):
        # cap is orthogonal to (1,0,0) exactly
        decomp = build_patches(2, ball_400, 1.0)
        pair_count(decomp, (1, 0, 0), 0)
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
        pair_count(decomp_400, (0, 0, 1), equator_alpha, delta=0.02)


def test_pair_count_keeps_every_index_set_patch(ball_6400):
    # |k . omega_9| sits on the cut N^-delta: a row dot and the matrix-vector
    # product of index_sets differ in the last bit there
    decomp = build_patches(30, ball_6400, 0.0)
    k, delta = (-3, -2, 3), 0.12549054681879854
    ix = index_sets(decomp, k, delta)
    kept = ix.plus_side + ix.minus_side
    assert 9 in kept
    for alpha in kept:
        pair_count(decomp, k, alpha, delta=delta)
    below = next(a for a in range(decomp.m_patches) if a not in kept)
    with pytest.raises(ValueError, match=r"below the equator cut for k=\(-3, -2, 3\)$"):
        pair_count(decomp, k, below, delta=delta)


def test_pair_count_normalization_ballpark(ball_400):
    decomp = build_patches(8, ball_400, 1.0)
    kv = np.array([0.0, 0.0, 1.0])
    for alpha in (0,):
        count = pair_count(decomp, (0, 0, 1), alpha)
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
            count = pair_count(decomp, (0, 0, 1), alpha)
            predicted = 4 * math.pi * ball.k_fermi**2 / decomp.m_patches * abs(dot)
            devs.append(abs(count / predicted - 1.0))
        worst.append(max(devs))
    assert worst[1] < worst[0]


# ------------------------------------------------------------ export


def test_json_export_roundtrip(decomp_400, ball_400):
    doc = json.loads(decomposition_to_json(decomp_400))
    assert doc["m_patches"] == decomp_400.m_patches
    assert len(doc["patches"]) == decomp_400.m_patches
    assert doc["corridor_lattice_count"] >= 0
    areas = [p["angular_area"] for p in doc["patches"]]
    assert sum(areas) < 4 * math.pi
