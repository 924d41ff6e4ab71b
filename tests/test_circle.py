import math

import numpy as np
import pytest

import oracles
from circle_potential import (
    Arc,
    ArcFamily,
    CantorSpec,
    CircleGrid,
    FULL_CIRCLE,
    GridSet,
    PowerChoice,
    PreconditionError,
    cantor_build,
    chord_distance,
    normalize_angle,
    vitali_disjoint_subfamily,
)
from circle_potential.circle import ANGLE_TOL, _arc_arrays, _normalized_angles

TWO_PI = 2.0 * math.pi


def test_normalize_angle_range_and_idempotence():
    rng = np.random.default_rng(11)
    for x in rng.uniform(-40.0, 40.0, size=200):
        y = normalize_angle(x)
        assert -math.pi <= y < math.pi
        assert normalize_angle(y) == y
        assert abs(normalize_angle(x + TWO_PI) - y) < 1e-9


def test_normalize_angle_cut_values():
    assert normalize_angle(math.pi) == -math.pi
    assert normalize_angle(-math.pi) == -math.pi
    assert normalize_angle(0.0) == 0.0


def test_angles_close_across_cut():
    """The circular distance normalize_angle(a - b) is small across the cut."""
    assert abs(normalize_angle((math.pi - 1e-14) - (-math.pi + 1e-14))) <= ANGLE_TOL
    assert not abs(normalize_angle(1.0 - 1.1)) <= ANGLE_TOL


def test_chord_distance_basics():
    assert chord_distance(0.3, 0.3) == 0.0
    assert abs(chord_distance(0.0, math.pi) - 2.0) < 1e-14
    rng = np.random.default_rng(5)
    for _ in range(50):
        s, t = rng.uniform(-math.pi, math.pi, size=2)
        d = chord_distance(s, t)
        assert abs(d - chord_distance(t, s)) == 0.0
        assert abs(d - abs(np.exp(1j * s) - np.exp(1j * t))) < 1e-12


def test_arc_length_and_wraparound():
    a = Arc(3.0, -3.0)
    assert abs(a.length - (TWO_PI - 6.0)) < 1e-14
    assert a.contains(math.pi - 0.01)
    assert a.contains(-math.pi + 0.01)
    assert not a.contains(0.0)


def test_arc_open_endpoints_excluded():
    a = Arc(-0.5, 0.5)
    assert not a.contains(-0.5)
    assert not a.contains(0.5)
    assert a.contains(0.0)


def test_arc_centered_and_json_round_trip():
    a = Arc.centered(2.9, 1.0)
    assert abs(a.length - 1.0) < 1e-14
    assert abs(normalize_angle(a.midpoint - 2.9)) < 1e-14
    b = Arc.from_json(a.to_json())
    assert b == a


def test_degenerate_arc_rejected():
    with pytest.raises(PreconditionError):
        Arc(1.0, 1.0)


@pytest.mark.parametrize(
    "start, end", [(math.nan, 1.0), (0.0, math.nan), (math.inf, 1.0), (0.0, -math.inf)]
)
def test_arc_rejects_non_finite_endpoints(start, end):
    with pytest.raises(PreconditionError):
        Arc(start, end)


@pytest.mark.parametrize("length", [-1.0, 0.0, TWO_PI, 7.0, math.inf, math.nan])
def test_centered_arc_rejects_length_outside_open_range(length):
    """Lengths are not reduced mod 2*pi: -1 is not the 5.28-rad
    complement and 7 is not a 0.72-rad arc."""
    with pytest.raises(PreconditionError):
        Arc.centered(0.0, length)


def test_centered_arc_keeps_lengths_inside_range():
    for length in (1e-6, 1.0, TWO_PI - 1e-6):
        assert abs(Arc.centered(0.3, length).length - length) < 1e-9


def test_family_total_length_and_full_constant():
    fam = ArcFamily((Arc(0.0, 0.5), Arc(1.0, 1.25)))
    assert abs(fam.total_length - 0.75) < 1e-14
    assert FULL_CIRCLE.full
    assert FULL_CIRCLE.total_length == TWO_PI
    assert len(FULL_CIRCLE) == 0


def test_family_disjoint_validation():
    with pytest.raises(PreconditionError):
        ArcFamily((Arc(0.0, 1.0), Arc(0.5, 1.5)), pairwise_disjoint=True)
    with pytest.raises(PreconditionError, match="arcs 0 and 2 overlap"):  # not adjacent as given
        ArcFamily((Arc(0.0, 1.0), Arc(5.0, 5.5), Arc(0.5, 1.5)), pairwise_disjoint=True)
    # shared endpoint is fine for open arcs
    ArcFamily((Arc(0.0, 1.0), Arc(1.0, 2.0)), pairwise_disjoint=True)
    # ... and so is one equal within ANGLE_TOL, but not a wider overlap
    ArcFamily((Arc(0.0, 1.0), Arc(1.0 - 1e-13, 2.0)), pairwise_disjoint=True)
    with pytest.raises(PreconditionError, match="overlap"):
        ArcFamily((Arc(0.0, 1.0), Arc(1.0 - 1e-11, 2.0)), pairwise_disjoint=True)


def test_family_overflow_rejected():
    arcs = tuple(Arc(k, k + 0.9) for k in range(8))
    with pytest.raises(PreconditionError):
        ArcFamily(arcs)


# -pi, the floats next to -pi and pi, signed zeros and subnormals, and
# angles whose arcs cross -pi
_EDGE_ANGLES = np.array([-math.pi, math.nextafter(-math.pi, 0.0), -0.0, 0.0, 5e-324, -5e-324,
                         1.0, math.nextafter(math.pi, 0.0), 3.0, -3.0])


def test_family_lengths_are_the_remainder_bytes():
    """Family lengths take one shift, not np.remainder. On random
    endpoints (outside [-pi, pi) too) and on every pair of edge angles
    they are np.remainder's floats byte for byte, and Arc.length's; where
    np.remainder's length is zero (e == s, or a gap that rounds to 2 pi)
    both routes refuse the arc."""
    rng = np.random.default_rng(17)
    k = len(_EDGE_ANGLES)
    starts = np.concatenate((rng.uniform(-7.0, 7.0, 20000), np.repeat(_EDGE_ANGLES, k)))
    ends = np.concatenate((rng.uniform(-7.0, 7.0, 20000), np.tile(_EDGE_ANGLES, k)))
    want = np.remainder(_normalized_angles(ends) - _normalized_angles(starts), TWO_PI)
    ok = want > 0.0
    assert np.count_nonzero(~ok[-k * k:]) > k and not ok[-k * k + 7]  # e == s; (-pi, below pi)
    _, _, lengths = _arc_arrays(starts[ok], ends[ok])
    assert lengths.tobytes() == want[ok].tobytes()
    assert lengths.tolist() == [Arc(a, b).length for a, b in zip(starts[ok], ends[ok])]
    for a, b in zip(starts[~ok], ends[~ok]):
        for build in (Arc, lambda a, b: ArcFamily.from_endpoints([a], [b])):
            with pytest.raises(PreconditionError, match="positive length"):
                build(a, b)


def test_require_disjoint_names_the_remainder_pair():
    """require_disjoint names the pair that gaps taken by np.remainder
    named: on random families of 2 to 6 arcs (half with tied starts,
    many overlapping, some across -pi), and on starts at -pi and just
    below pi, whose difference rounds to 2 pi."""
    rng = np.random.default_rng(23)
    cases = [ArcFamily.from_endpoints([-math.pi, math.nextafter(math.pi, 0.0)], [-3.0, -3.1])]
    ties = np.linspace(-math.pi, math.pi, 9)[:-1]
    for trial in range(2000):
        k = int(rng.integers(2, 7))
        starts = rng.choice(ties, k) if trial % 2 else rng.uniform(-math.pi, math.pi, k)
        cases.append(ArcFamily.from_endpoints(starts, starts + rng.uniform(0.01, 6.0 / k, k)))
    outcomes = set()
    for fam in cases:
        pair = oracles.overlapping_pair_remainder(fam)
        outcomes.add(pair is None)
        if pair is None:
            fam.require_disjoint()
            continue
        with pytest.raises(PreconditionError, match=f"^arcs {pair[0]} and {pair[1]} overlap$"):
            fam.require_disjoint()
    assert outcomes == {True, False}
    assert oracles.overlapping_pair_remainder(cases[0]) == (0, 1)


def test_vitali_selection_properties():
    """The greedy selection must be pairwise disjoint and its 3-fold
    dilations must cover every input arc."""
    rng = np.random.default_rng(77)
    for _ in range(25):
        k = int(rng.integers(1, 12))
        arcs = []
        budget = TWO_PI * 0.9
        for _ in range(k):
            ln = float(rng.uniform(0.02, 0.6))
            if ln > budget:
                break
            budget -= ln
            arcs.append(Arc.centered(float(rng.uniform(-math.pi, math.pi)), ln))
        if not arcs:
            continue
        fam = ArcFamily(tuple(arcs))
        sel = vitali_disjoint_subfamily(fam)
        assert sel.pairwise_disjoint
        assert set(sel.arcs) <= set(fam.arcs)
        assert oracles.dilation_covers_family(sel, fam)


def test_vitali_keeps_every_family_accepted_as_disjoint():
    """Vitali selects by the disjointness rule ``require_disjoint``
    applies, so any family ``ArcFamily`` accepts as pairwise disjoint
    comes back whole: arcs tiling the circle, some across -pi, with
    shared endpoints that overshoot by up to ANGLE_TOL (accepted) or by
    more (refused), and some arcs left out."""
    rng = np.random.default_rng(29)
    cases = [(Arc(0.0, 0.30000000000000004), Arc(0.3, 0.5))]
    for _ in range(400):
        k = int(rng.integers(2, 9))
        cuts = np.sort(rng.uniform(-math.pi, math.pi, k))
        over = rng.choice([0.0, 1e-15, 0.5 * ANGLE_TOL, 0.9 * ANGLE_TOL, 3.0 * ANGLE_TOL], k)
        ends = np.append(cuts[1:], cuts[0]) + over
        keep = rng.uniform(size=k) < 0.8
        cases.append(tuple(Arc(a, b) for a, b, kept in zip(cuts, ends, keep) if kept))
    accepted = 0
    for arcs in cases:
        try:
            fam = ArcFamily(arcs, pairwise_disjoint=True)
        except PreconditionError:
            continue
        accepted += 1
        sel = vitali_disjoint_subfamily(fam)
        assert sorted(sel.arcs, key=lambda a: a.start) == sorted(fam.arcs, key=lambda a: a.start)
    assert 100 < accepted < len(cases)


def test_vitali_full_circle_passthrough():
    assert vitali_disjoint_subfamily(FULL_CIRCLE) is FULL_CIRCLE


def test_grid_angles_and_cell_index(grid64):
    t = grid64.angles
    assert t[0] == -math.pi
    assert np.allclose(np.diff(t), grid64.cell_width)
    for j in (0, 1, 17, 63):
        assert grid64.indices_of(Arc.centered(t[j], grid64.cell_width / 2)).tolist() == [j]


def test_center_mask_counts_cells(grid256):
    h = grid256.cell_width
    a = Arc.centered(0.3, 1.0)
    m = grid256.mask_of(a, mode="centers")
    assert abs(m.sum() * h - a.length) <= h


def test_cover_mask_contains_center_mask(grid256):
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = Arc.centered(float(rng.uniform(-3, 3)), float(rng.uniform(0.05, 2.0)))
        centers = grid256.mask_of(a, mode="centers")
        cover = grid256.mask_of(a, mode="cover")
        assert np.all(~centers | cover)


def test_cover_mask_monotone_in_arc(grid256):
    """Enlarging an arc about a fixed midpoint can only add cover cells;
    capacity monotonicity on grid sets leans on this."""
    rng = np.random.default_rng(9)
    for _ in range(30):
        mid = float(rng.uniform(-3, 3))
        inner = float(rng.uniform(0.05, 1.0))
        outer = inner + float(rng.uniform(0.0, 1.0))
        small = grid256.mask_of(Arc.centered(mid, inner), mode="cover")
        big = grid256.mask_of(Arc.centered(mid, outer), mode="cover")
        assert np.all(~small | big)


def test_mask_of_family_is_union(grid64):
    a, b = Arc(0.0, 0.7), Arc(2.0, 2.4)
    fam = ArcFamily((a, b))
    m = grid64.mask_of(fam, mode="centers")
    expected = grid64.mask_of(a, mode="centers") | grid64.mask_of(b, mode="centers")
    assert np.array_equal(m, expected)
    assert grid64.mask_of(FULL_CIRCLE).all()


@pytest.mark.parametrize("n", [256, 4096, 65536])
def test_mask_of_many_arc_family_matches_scan(n):
    """The 64 arcs of a depth-6 Cantor build, in both modes: the union of
    the arcs' runs is the scan's mask, and so are the indices and the
    GridSet built from it."""
    grid = CircleGrid(n)
    fam = cantor_build(CantorSpec(rule=PowerChoice(0.5), depth=6, offset=3))
    assert len(fam) == 64
    for mode in ("centers", "cover"):
        want = oracles.mask_of_scan(grid, fam, mode)
        assert np.array_equal(grid.mask_of(fam, mode), want)
        assert np.array_equal(grid.indices_of(fam, mode), np.flatnonzero(want))
        assert np.array_equal(GridSet.from_arcs(grid, fam, mode).mask, want)


@pytest.mark.parametrize("n", [1, 3, 64, 4096])
def test_family_runs_match_one_arc_runs(n):
    """The runs found for a whole family at once are, arc for arc, the
    runs ``_run`` finds for each arc alone: ends on cell centers, on cell
    edges and anywhere, arcs across -pi and within 1e-9 of 2 pi, and
    the 1,024 arcs of a depth-10 Cantor build."""
    grid = CircleGrid(n)
    rng = np.random.default_rng(n)
    on = grid.angles[rng.integers(0, n, 300)]
    starts = np.concatenate([on, on + grid.cell_width / 2.0, rng.uniform(-math.pi, math.pi, 300)])
    lengths = np.concatenate([rng.uniform(1e-6, TWO_PI, 899), [TWO_PI - 1e-9]])
    arcs = [Arc(a, a + b) for a, b in zip(starts.tolist(), lengths.tolist())]
    fam = cantor_build(CantorSpec(rule=PowerChoice(0.5), depth=10, offset=3))
    cases = [([a.start for a in arcs], [a.length for a in arcs]),
             (fam.starts.tolist(), fam.lengths.tolist())]
    for arc_starts, arc_lengths in cases:
        for mode in ("centers", "cover"):
            first, count = grid._runs(np.array(arc_starts), np.array(arc_lengths), mode)
            want = [grid._run(a, b, mode) for a, b in zip(arc_starts, arc_lengths)]
            assert list(zip(first.tolist(), count.tolist())) == want


def test_deep_cantor_family_mask_matches_scan():
    """A depth-14 Cantor family (16,384 arcs) at N = 4096, both modes."""
    grid = CircleGrid(4096)
    fam = cantor_build(CantorSpec(rule=PowerChoice(0.5), depth=14, offset=3))
    for mode in ("centers", "cover"):
        assert np.array_equal(grid.mask_of(fam, mode), oracles.mask_of_scan(grid, fam, mode))


def test_near_full_arc_selects_whole_window(grid64):
    """An arc just short of the circle: in centers mode every cell but
    one whose center is the start, in cover mode every cell."""
    on_center = Arc(float(grid64.angles[5]), float(grid64.angles[5]) + TWO_PI - 1e-12)
    off_center = Arc(0.01, 0.01 + TWO_PI - 1e-12)
    assert np.array_equal(grid64.indices_of(on_center), np.delete(np.arange(64), 5))
    for arc in (on_center, off_center):
        assert grid64.mask_of(arc, "cover").all()
        assert np.array_equal(grid64.indices_of(arc, "cover"), np.arange(64))
    assert np.array_equal(grid64.indices_of(off_center), np.arange(64))
    for arc in (on_center, off_center):
        for mode in ("centers", "cover"):
            assert np.array_equal(grid64.mask_of(arc, mode), oracles.mask_of_scan(grid64, arc, mode))


def test_mask_mode_validation(grid64):
    with pytest.raises(PreconditionError):
        grid64.mask_of(Arc(0.0, 1.0), mode="nearest")


def test_grid_set_algebra(grid64):
    a = GridSet.from_arcs(grid64, Arc(0.0, 1.0))
    b = GridSet.from_arcs(grid64, Arc(0.5, 1.5))
    u = a.union(b)
    i = a.intersect(b)
    assert i.is_subset_of(a) and i.is_subset_of(u)
    assert a.is_subset_of(u)
    assert u.count + i.count == a.count + b.count
    assert abs(u.measure - u.count * grid64.cell_width) == 0.0


def test_grid_set_rotation_shifts_indices(grid64):
    s = GridSet.from_indices(grid64, [0, 1, 2, 40])
    r = s.rotated(5)
    assert set(r.indices) == {5, 6, 7, 45}
    assert r.rotated(-5).indices.tolist() == s.indices.tolist()


def test_grid_set_from_indices_refuses_bad_cells(grid64):
    """Cell indices must be integers in [0, N): none wraps around, is
    truncated or escapes as a bare IndexError."""
    for bad in ([-1], [64], [1.5], [0, 2.0], ["3"]):
        with pytest.raises(PreconditionError):
            GridSet.from_indices(grid64, bad)
    assert GridSet.from_indices(grid64, np.array([63, 0], dtype=np.uint8)).indices.tolist() == [0, 63]
    assert GridSet.from_indices(grid64, []).is_empty()


def test_grid_set_indices_found_once_and_read_only(grid64):
    """``indices`` is computed once per set and handed out read-only, so
    no caller can change the set through it; an integer ndarray given to
    ``from_indices`` makes the same set as its list."""
    s = GridSet.from_indices(grid64, np.array([40, 2, 0, 1]))
    idx = s.indices
    assert s.indices is idx
    assert idx.tolist() == [0, 1, 2, 40]
    with pytest.raises(ValueError):
        idx[0] = 5
    assert np.array_equal(s.mask, GridSet.from_indices(grid64, [0, 1, 2, 40]).mask)
    for bad in (np.array([-1]), np.array([64]), np.array([1.5]), np.array([True])):
        with pytest.raises(PreconditionError):
            GridSet.from_indices(grid64, bad)


def test_grid_set_mismatched_grids_rejected(grid64, grid256):
    a = GridSet.full(grid64)
    b = GridSet.full(grid256)
    with pytest.raises(PreconditionError):
        a.union(b)


def test_empty_and_full_grid_sets(grid64):
    assert GridSet.empty(grid64).is_empty()
    assert GridSet.full(grid64).count == grid64.n_points
