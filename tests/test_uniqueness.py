import functools
import math
import operator

import numpy as np
import pytest

import oracles
from circle_potential import (
    Arc,
    ArcFamily,
    CantorSpec,
    CircleGrid,
    ConstructionError,
    FULL_CIRCLE,
    GridSet,
    PowerChoice,
    PreconditionError,
    RatioRule,
    TableRule,
    cantor_build,
    cantor_capacity_series,
    cantor_grid_set,
    carleson_sum,
    classical_capacity,
    classify_trend,
    geometric_arcs,
    log_reciprocal_arcs,
    uniqueness_series,
)
from circle_potential.uniqueness import cantor_parts_in_arcs

LN2 = math.log(2.0)


def test_power_rule_lengths():
    """l_n = (2^{-n} n)^{1/(1-beta)}; at beta = 1/2 the exponent is 2, so
    l_1 = 1/4 and l_2 = 1/4 (the rule is only asymptotically
    contracting)."""
    rule = PowerChoice(0.5)
    assert rule.min_index == 1
    assert abs(math.exp(rule.log_length(1)) - 0.25) < 1e-15
    assert abs(math.exp(rule.log_length(2)) - 0.25) < 1e-15
    assert abs(math.exp(rule.log_length(4)) - 0.0625) < 1e-15
    with pytest.raises(PreconditionError):
        rule.log_length(0)
    with pytest.raises(PreconditionError):
        PowerChoice(1.0)


def test_ratio_rule_lengths():
    rule = RatioRule(0.5, l0=2.0)
    assert rule.min_index == 0
    assert abs(math.exp(rule.log_length(0)) - 2.0) < 1e-15
    assert abs(math.exp(rule.log_length(3)) - 0.25) < 1e-15
    with pytest.raises(PreconditionError):
        RatioRule(1.0)
    with pytest.raises(PreconditionError):
        RatioRule(0.5, l0=0.0)


def test_table_rule_lengths():
    rule = TableRule((1.0, 0.5, 0.125))
    assert abs(math.exp(rule.log_length(2)) - 0.125) < 1e-15
    with pytest.raises(PreconditionError):
        rule.log_length(3)
    with pytest.raises(PreconditionError):
        TableRule(())
    with pytest.raises(PreconditionError):
        TableRule((1.0, -0.5))


def test_power_rule_default_offset_is_inadmissible():
    """With the default offset the power rule at beta = 1/2 has
    l_2 = l_1, violating the halving requirement at index 2; the
    construction must refuse and name the offending stage."""
    with pytest.raises(ConstructionError) as info:
        CantorSpec(rule=PowerChoice(0.5), depth=2)
    assert info.value.stage == 2


def test_cantor_build_refuses_depth_over_bound():
    """The final stage has 2^depth arcs; depth 21 and beyond are refused
    before any array is built, so a typo such as depth 40 cannot exhaust
    memory."""
    for depth in (21, 40):
        spec = CantorSpec(rule=RatioRule(0.4, l0=1.0), depth=depth)
        with pytest.raises(PreconditionError, match="exceeds 20"):
            cantor_build(spec)


def test_power_rule_offset_three_is_admissible():
    spec = CantorSpec(rule=PowerChoice(0.5), depth=5, offset=3)
    fam = cantor_build(spec)
    assert len(fam) == 2**5


def test_cantor_build_structure():
    """Depth d yields 2^d pairwise-disjoint arcs of the stage-d length,
    symmetric about the host midpoint."""
    spec = CantorSpec(rule=RatioRule(0.4, l0=1.0), depth=3)
    fam = cantor_build(spec)
    assert len(fam) == 8
    final = spec.stage_length(3)
    for a in fam:
        assert abs(a.length - final) < 1e-12
    ArcFamily(fam.arcs, pairwise_disjoint=True)  # must validate
    mids = sorted(a.midpoint for a in fam)
    # symmetry of the construction about angle 0 (host = full circle)
    for lo, hi in zip(mids, reversed(mids)):
        assert abs(lo + hi) < 1e-12


def test_cantor_stages_nest():
    rule = PowerChoice(0.5)
    shallow = cantor_build(CantorSpec(rule=rule, depth=3, offset=3))
    deep = cantor_build(CantorSpec(rule=rule, depth=4, offset=3))
    for child in deep:
        inside = any(
            parent.contains(child.midpoint)
            and parent.contains(child.start + 1e-15)
            for parent in shallow
        )
        assert inside


def test_cantor_grid_sets_nest(grid256):
    rule = PowerChoice(0.5)
    deep = cantor_grid_set(CantorSpec(rule=rule, depth=4, offset=3), grid256)
    shallow = cantor_grid_set(CantorSpec(rule=rule, depth=3, offset=3), grid256)
    assert deep.is_subset_of(shallow)


def test_cantor_scale_to_host():
    host = Arc(0.5, 1.3)
    spec = CantorSpec(
        rule=PowerChoice(0.5), depth=2, host=host, offset=3, scale_to_host=True
    )
    assert abs(spec.stage_length(0) - host.length) < 1e-12
    fam = cantor_build(spec)
    for a in fam:
        assert host.contains(a.midpoint)
        assert a.length <= host.length


def test_cantor_host_too_small():
    with pytest.raises(ConstructionError) as info:
        CantorSpec(rule=RatioRule(0.4, l0=1.0), depth=1, host=Arc(0.0, 0.5))
    assert info.value.stage == 0


def test_cantor_underflow_reported():
    spec = CantorSpec(rule=RatioRule(1e-200, l0=1.0), depth=2)
    with pytest.raises(ConstructionError) as info:
        cantor_build(spec)
    assert info.value.stage == 2


def test_capacity_series_harmonic_route():
    """At s = 1 - beta the power-rule series telescopes to the harmonic
    series: 2^{-n} l_n^{-s} = 1/n. Partial sums must match harmonic
    numbers, cross 10 at the classical index, and classify as
    diverging with a logarithmic profile."""
    diag = cantor_capacity_series(PowerChoice(0.5), 0.5, 13000)
    assert diag.start_index == 1
    for k in (1, 2, 3, 7):
        assert abs(diag.sum_at(k) - oracles.harmonic_number(k)) < 1e-12
    crossing = int(np.argmax(diag.partial_sums > 10.0)) + diag.start_index
    assert crossing == oracles.HARMONIC_CROSSES_TEN_AT
    assert diag.trend == "diverges_plus_inf"
    assert diag.fit["model"] == "log"
    assert diag.fit["r_squared"] >= 0.999
    assert abs(diag.fit["slope"] - 1.0) <= 0.05


def test_capacity_series_convergent_route():
    """At s = (1 - beta)/2 the same rule gives terms 2^{-n/2}/sqrt(n),
    a convergent series with a frozen limit."""
    diag = cantor_capacity_series(PowerChoice(0.5), 0.25, 400)
    assert diag.trend == "converges"
    assert abs(diag.final_sum - oracles.CONVERGENT_SERIES_LIMIT) < 1e-12
    assert abs(diag.sum_at(200) - diag.final_sum) <= 1e-6


def test_capacity_series_geometric_closed_form():
    # ratio rule, terms (2^{-1} r^{-s})^n from n = 1: geometric with
    # quotient 2^{-1/2}, limit 1 + sqrt(2)
    diag = cantor_capacity_series(RatioRule(0.5), 0.5, 200)
    assert diag.trend == "converges"
    assert abs(diag.final_sum - (1.0 + math.sqrt(2.0))) < 1e-12


def test_capacity_series_validation():
    with pytest.raises(PreconditionError):
        cantor_capacity_series(PowerChoice(0.5), 1.0, 100)
    with pytest.raises(PreconditionError):
        cantor_capacity_series(PowerChoice(0.5), -0.1, 100)
    with pytest.raises(PreconditionError):
        cantor_capacity_series(PowerChoice(0.5), 0.5, 0)


def test_classify_trend_single_sum():
    trend, fit = classify_trend([0.0])
    assert trend == "converges"
    assert fit["model"] == "constant"
    assert fit["limit"] == 0.0


def test_classify_trend_sentinel():
    trend, fit = classify_trend([1.0, -math.inf, -math.inf], start_index=4)
    assert trend == "diverges_minus_inf"
    assert fit["model"] == "zero_capacity_sentinel"
    assert fit["first_infinite_index"] == 5


def test_classify_trend_window():
    sums = np.ones(100) * 3.25
    trend, fit = classify_trend(sums)
    assert trend == "converges"
    assert fit["limit"] == 3.25


def test_classify_trend_power_growth():
    sums = np.sqrt(np.arange(1.0, 2001.0))
    trend, fit = classify_trend(sums)
    assert trend == "diverges_plus_inf"
    assert fit["model"] == "power"
    assert abs(fit["power"] - 0.5) < 1e-12
    assert fit["r_squared"] >= 0.9999


def test_classify_trend_negative_log_drift():
    ns = np.arange(1.0, 5001.0)
    trend, fit = classify_trend(-np.log(ns))
    assert trend == "diverges_minus_inf"
    assert fit["model"] == "log"
    assert fit["slope"] < 0.0


def test_classify_trend_inconclusive_on_oscillation():
    sums = np.sin(np.arange(1.0, 65.0))
    trend, _ = classify_trend(sums)
    assert trend == "inconclusive"


def test_classify_trend_rejects_bad_input():
    with pytest.raises(PreconditionError):
        classify_trend([])
    with pytest.raises(PreconditionError):
        classify_trend([1.0, math.nan])


def test_diagnostic_record_interface():
    diag = cantor_capacity_series(PowerChoice(0.5), 0.25, 50)
    assert diag.last_index == 50
    assert diag.final_sum == diag.sum_at(50)
    rows = list(diag.csv_rows())
    assert rows[0][0] == 1
    assert len(rows) == 50
    js = diag.to_json(checkpoints=8)
    assert js["trend"] == diag.trend
    assert js["checkpoints"][-1][0] == 50
    assert js["n_terms"] == 50
    with pytest.raises(PreconditionError):
        diag.sum_at(51)


def test_diagnostic_sums_read_only():
    diag = cantor_capacity_series(PowerChoice(0.5), 0.25, 20)
    with pytest.raises(ValueError):
        diag.partial_sums[0] = 99.0


def test_carleson_geometric_exact_limit():
    """sum 2^{-n} log 2^{-n} = -2 log 2; the telescoped layout keeps
    every term exact so the limit lands on the closed form."""
    diag = carleson_sum(geometric_arcs(0.5, 60))
    assert diag.trend == "converges"
    assert abs(diag.final_sum - oracles.GEOMETRIC_CARLESON_LIMIT) < 1e-12


def test_carleson_order_is_by_length(rng):
    fam = geometric_arcs(0.5, 20)
    shuffled = list(fam.arcs)
    rng.shuffle(shuffled)
    diag = carleson_sum(ArcFamily(tuple(shuffled)))
    base = carleson_sum(fam)
    assert np.allclose(diag.partial_sums, base.partial_sums, rtol=0, atol=0)


def _shuffled(arcs):
    arcs = list(arcs)
    np.random.default_rng(11).shuffle(arcs)
    return None, tuple(arcs)


_CANTOR = CantorSpec(rule=PowerChoice(0.5), depth=6, host=Arc.centered(2.9, 2.0), offset=3,
                     scale_to_host=True)
# case -> (family built from arrays, or None for from_endpoints; the same
# arcs built one Arc at a time)
_ARC_ROUTE_CASES = {
    "log-reciprocal": lambda: (log_reciprocal_arcs(100_001),
                               oracles.log_reciprocal_arcs_direct(100_001)),
    "geometric": lambda: (geometric_arcs(0.5, 300), oracles.geometric_arcs_direct(0.5, 300)),
    "shuffled": lambda: _shuffled(oracles.geometric_arcs_direct(0.5, 40)),
    # two length classes, each exactly tied
    "tied": lambda: _shuffled(
        Arc(0.25 * k, 0.25 * k + (0.125 if k % 2 else 0.0625)) for k in range(-12, 12)
    ),
    "cantor": lambda: (cantor_build(_CANTOR), oracles.cantor_arcs_direct(_CANTOR)),
}


@pytest.mark.parametrize("case", list(_ARC_ROUTE_CASES))
def test_array_route_matches_arc_route(case):
    """Families held as endpoint arrays give the term order, partial
    sums, trend and fit of the per-Arc route byte for byte, and the Arcs
    they build on demand equal those the per-Arc constructors built."""
    fam, arcs = _ARC_ROUTE_CASES[case]()
    if fam is None:
        fam = ArcFamily.from_endpoints([a.start for a in arcs], [a.end for a in arcs])
    assert fam.arcs == arcs
    assert fam.lengths.tolist() == [a.length for a in arcs]
    # left to right: Python 3.12's sum() compensates, so it is no reference
    assert fam.total_length == functools.reduce(operator.add, (a.length for a in arcs), 0.0)
    assert fam.by_decreasing_length().tolist() == oracles.decreasing_length_order(arcs)
    want = oracles.carleson_partial_sums_direct(arcs)
    diag = carleson_sum(fam)
    assert diag.partial_sums.tobytes() == want.tobytes()
    assert (diag.trend, diag.fit) == classify_trend(want, 1)


def test_series_reject_overlapping_arcs(grid256, solver):
    """Both arc series run over disjoint arcs: overlapping ones are
    refused even when the family was not built with pairwise_disjoint."""
    a, b = Arc.centered(0.0, 0.5), Arc.centered(0.2, 0.5)
    fam = ArcFamily((a, b))
    parts = [GridSet.from_arcs(grid256, x, mode="cover") for x in (a, b)]
    with pytest.raises(PreconditionError, match="overlap"):
        carleson_sum(fam)
    with pytest.raises(PreconditionError, match="overlap"):
        uniqueness_series(parts, fam, 0.8, 0.8, solver)
    carleson_sum(ArcFamily((Arc(0.0, 0.5), Arc(0.5, 1.0))))  # shared endpoint
    # meant to abut, but rounding in Arc.centered overlaps them by one ulp
    abutting = ArcFamily((Arc.centered(0.1, 0.2), Arc.centered(0.3, 0.2)))
    assert abutting.starts[1] < abutting.ends[0]
    carleson_sum(abutting)


def test_carleson_single_unit_arc_trivially_converges():
    # a single arc of length 1 contributes 1 * log 1 = 0
    diag = carleson_sum(ArcFamily((Arc(0.0, 1.0),)))
    assert diag.final_sum == 0.0
    assert diag.trend == "converges"


def test_carleson_log_reciprocal_diverges():
    """Arcs (1/log(n+1), 1/log n) have Carleson sums drifting to -inf
    like -log log N: slow enough that only the doubly logarithmic model
    explains it."""
    diag = carleson_sum(log_reciprocal_arcs(5000))
    assert diag.trend == "diverges_minus_inf"
    assert diag.fit["model"] == "loglog"
    assert diag.fit["r_squared"] >= 0.99
    assert diag.fit["slope"] < 0.0


def test_carleson_validation():
    with pytest.raises(PreconditionError):
        carleson_sum(FULL_CIRCLE)
    with pytest.raises(PreconditionError):
        carleson_sum(ArcFamily(()))


def test_log_reciprocal_arcs_geometry():
    fam = log_reciprocal_arcs(50)
    assert len(fam) == 49
    # consecutive and telescoping: total length = 1/log 2 - 1/log 51
    total = 1.0 / math.log(2.0) - 1.0 / math.log(51.0)
    assert abs(fam.total_length - total) < 1e-12
    ArcFamily(fam.arcs, pairwise_disjoint=True)
    lengths = [a.length for a in fam]
    assert all(x > y for x, y in zip(lengths, lengths[1:]))
    with pytest.raises(PreconditionError):
        log_reciprocal_arcs(1)


def test_geometric_arcs_survive_tiny_lengths():
    """Arc n has length 2^{-n}; far below the ulp of the total span the
    positions must still telescope so every arc keeps its exact
    length."""
    fam = geometric_arcs(0.5, 300, start=0.0)
    lengths = np.array([a.length for a in fam])
    assert np.all(lengths > 0.0)
    assert abs(lengths[-1] - 0.5**300) <= 1e-16 * 0.5**300
    # consecutive: each arc ends where the previous one starts
    for prev, nxt in zip(fam.arcs, fam.arcs[1:]):
        assert prev.start == nxt.end


def test_geometric_arcs_validation():
    with pytest.raises(PreconditionError):
        geometric_arcs(0.9, 50)  # wraps the circle
    with pytest.raises(PreconditionError):
        geometric_arcs(1.2, 5)
    with pytest.raises(PreconditionError):
        geometric_arcs(0.5, 0)


def test_geometric_arcs_underflow_is_named():
    """0.5**n is zero from n = 1075 on, and 0.37**37 vanishes next to
    angle 3: both are refused by name, not as a zero-length arc."""
    with pytest.raises(PreconditionError, match="arc 1075 .* underflows"):
        geometric_arcs(0.5, 2000)
    with pytest.raises(PreconditionError, match="arc 37 .* underflows"):
        geometric_arcs(0.37, 60, start=3.0)
    assert len(geometric_arcs(0.5, 1074)) == 1074


def test_uniqueness_series_equal_arcs_linear(grid256, solver):
    """Identical arcs with identical trapped sets produce identical
    terms, so the partial sums are an arithmetic progression; each term
    must equal the defining formula evaluated directly."""
    h = grid256.cell_width
    m = 9
    arcs = tuple(Arc.centered(grid256.angles[c], m * h) for c in (10, 60, 110, 160, 210))
    fam = ArcFamily(arcs)
    parts = [GridSet.from_arcs(grid256, a, mode="cover") for a in arcs]
    alpha = beta = 0.8
    diag = uniqueness_series(parts, fam, alpha, beta, solver)
    sums = diag.partial_sums
    steps = np.diff(sums)
    assert np.allclose(steps, sums[0], rtol=1e-9)
    cap = classical_capacity(parts[0], 1.0 - beta, solver).value
    length = arcs[0].length
    expected = length * ((1.0 + alpha - beta) * math.log(length) - math.log(cap))
    assert abs(sums[0] - expected) <= 1e-12 * abs(expected)
    assert [r["n"] for r in diag.term_records] == [1, 2, 3, 4, 5]


def test_uniqueness_series_orders_by_length(grid256, solver):
    a_small = Arc.centered(0.0, 0.3)
    a_big = Arc.centered(2.0, 0.9)
    fam = ArcFamily((a_small, a_big))
    parts = [GridSet.from_arcs(grid256, a, mode="cover") for a in fam]
    diag = uniqueness_series(parts, fam, 0.8, 0.8, solver)
    assert diag.term_records[0]["arc_index"] == 1
    assert diag.term_records[1]["arc_index"] == 0
    assert diag.term_records[0]["length"] > diag.term_records[1]["length"]


def test_uniqueness_series_empty_part_sentinel(grid256, solver):
    arcs = ArcFamily((Arc.centered(0.0, 0.8), Arc.centered(2.0, 0.5)))
    parts = [
        GridSet.from_arcs(grid256, arcs.arcs[0], mode="cover"),
        GridSet.empty(grid256),
    ]
    diag = uniqueness_series(parts, arcs, 0.8, 0.8, solver)
    assert diag.trend == "diverges_minus_inf"
    assert math.isinf(diag.final_sum)
    assert diag.term_records[1]["capacity"] == 0.0
    assert any("zero computed capacity" in n for n in diag.notes)


def test_uniqueness_series_validation(grid256, grid64, solver):
    arc = Arc.centered(0.0, 0.8)
    fam = ArcFamily((arc,))
    part = GridSet.from_arcs(grid256, arc, mode="cover")
    with pytest.raises(PreconditionError):
        uniqueness_series([part], fam, 0.5, 0.8, solver)  # beta > alpha
    with pytest.raises(PreconditionError):
        uniqueness_series([part, part], fam, 0.8, 0.8, solver)
    with pytest.raises(PreconditionError):
        uniqueness_series([], ArcFamily(()), 0.8, 0.8, solver)
    stray = GridSet.from_arcs(grid256, Arc.centered(2.5, 0.4), mode="cover")
    with pytest.raises(PreconditionError):
        uniqueness_series([stray], fam, 0.8, 0.8, solver)
    arc2 = Arc.centered(2.0, 0.8)
    fam2 = ArcFamily((arc, arc2))
    mixed = [part, GridSet.from_arcs(grid64, arc2, mode="cover")]
    with pytest.raises(PreconditionError):
        uniqueness_series(mixed, fam2, 0.8, 0.8, solver)
    with pytest.raises(PreconditionError):
        uniqueness_series([part], fam, 0.8, 0.8, solver, n_terms=0)


def test_cantor_parts_feed_the_series(grid1024, solver):
    """Scaled Cantor copies inside the log-reciprocal arcs: every part
    is trapped in its host arc, and the assembled diagnostic matches
    the cumulative sum of its own term records."""
    fam = log_reciprocal_arcs(13)
    parts = cantor_parts_in_arcs(PowerChoice(0.5), 3, fam, grid1024, offset=3)
    assert len(parts) == len(fam)
    for part, arc in zip(parts, fam):
        assert not part.is_empty()
        hull = GridSet.from_arcs(grid1024, arc, mode="cover")
        assert part.is_subset_of(hull)
    diag = uniqueness_series(parts, fam, 0.8, 0.8, solver)
    terms = [r["term"] for r in diag.term_records]
    assert np.allclose(diag.partial_sums, np.cumsum(terms), rtol=1e-12)
