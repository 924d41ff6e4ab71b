import functools
import math
import operator
from unittest import mock

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
from circle_potential import uniqueness
from circle_potential.uniqueness import cantor_parts_in_arcs

LN2 = math.log(2.0)


def test_power_rule_lengths():
    """l_n = (2^{-n} n)^{1/(1-beta)}; at beta = 1/2 the exponent is 2, so
    l_1 = 1/4 and l_2 = 1/4 (the rule is only asymptotically
    contracting)."""
    rule = PowerChoice(0.5)
    assert rule.min_index == 1
    got = np.exp(rule.log_lengths(np.array([1, 2, 4])))
    assert np.all(np.abs(got - [0.25, 0.25, 0.0625]) < 1e-15)
    with pytest.raises(PreconditionError):
        rule.log_lengths(np.array([0]))
    with pytest.raises(PreconditionError):
        PowerChoice(1.0)


def test_ratio_rule_lengths():
    rule = RatioRule(0.5, l0=2.0)
    assert rule.min_index == 0
    got = np.exp(rule.log_lengths(np.array([0, 3])))
    assert np.all(np.abs(got - [2.0, 0.25]) < 1e-15)
    with pytest.raises(PreconditionError):
        RatioRule(1.0)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(PreconditionError, match="positive and finite"):
            RatioRule(0.5, l0=bad)


def test_table_rule_lengths():
    rule = TableRule((1.0, 0.5, 0.125))
    assert abs(math.exp(rule.log_lengths(np.array([2]))[0]) - 0.125) < 1e-15
    with pytest.raises(PreconditionError):
        rule.log_lengths(np.array([3]))
    with pytest.raises(PreconditionError):
        TableRule(())
    for bad in (-0.5, math.inf, math.nan):
        with pytest.raises(PreconditionError, match="positive and finite"):
            TableRule((1.0, bad, 0.1))


_RULE_RANGES = [
    (PowerChoice(0.3), np.arange(1, 23001)),
    (RatioRule(0.37, l0=1.7), np.arange(0, 3000)),
    (TableRule(tuple(np.random.default_rng(4).uniform(1e-6, 2.0, 97).tolist())), np.arange(97)),
]


@pytest.mark.parametrize("rule, ns", _RULE_RANGES)
def test_rule_log_lengths_match_scalar_form(rule, ns):
    """The array form returns the float of the scalar form taken one
    index at a time, and refuses the first index outside the rule's
    range with the message of the scalar form."""
    want = np.array([oracles.log_length_scalar(rule, int(n)) for n in ns])
    assert np.array_equal(rule.log_lengths(ns).view(np.int64), want.view(np.int64))
    first_bad = len(rule.lengths) if isinstance(rule, TableRule) else rule.min_index - 1
    bad = np.concatenate((ns[:3], [first_bad, -1], ns[3:]))
    with pytest.raises(PreconditionError) as scalar:
        oracles.log_length_scalar(rule, first_bad)
    with pytest.raises(PreconditionError) as array:
        rule.log_lengths(bad)
    assert str(array.value) == str(scalar.value)


def _libm_log_neighbours(xs) -> np.ndarray:
    """math.log of each x (row 0) and the floats one ulp below (row 1)
    and above it (row 2)."""
    m = np.array([math.log(x) for x in np.asarray(xs, dtype=float).tolist()])
    return np.stack([m, np.nextafter(m, -np.inf), np.nextafter(m, np.inf)])


@pytest.mark.parametrize("rule, ns", _RULE_RANGES)
def test_rule_log_lengths_within_one_ulp_of_libm(rule, ns):
    """The rules take np.log over index ranges. Each log length is the
    rule's formula applied to a log within one ulp of math.log's (the
    ratio rule takes math.log of its two constants, so it is exact)."""
    got = rule.log_lengths(ns)
    if isinstance(rule, PowerChoice):
        want = (-ns * LN2 + _libm_log_neighbours(ns)) / (1.0 - rule.beta)
    elif isinstance(rule, RatioRule):
        want = (math.log(rule.l0) + ns * math.log(rule.ratio))[None, :]
    else:
        want = _libm_log_neighbours(np.asarray(rule.lengths)[ns])
    assert np.all((got == want).any(axis=0))


def test_log_reciprocal_endpoints_within_one_ulp_of_libm():
    """The endpoints 1/log n, n = 2..100,002, of the 10^5 log-reciprocal
    arcs are 1/L for an L within one ulp of math.log(n)."""
    fam = log_reciprocal_arcs(100_001)
    inv = np.concatenate((fam.ends[:1], fam.starts))
    assert np.array_equal(fam.ends[1:], fam.starts[:-1])
    want = 1.0 / _libm_log_neighbours(np.arange(2, 100_003))
    assert np.all((inv == want).any(axis=0))


def test_power_rule_default_offset_is_inadmissible():
    """With the default offset the power rule at beta = 1/2 has
    l_2 = l_1, violating the halving requirement at index 2; the
    construction must refuse and name the offending stage."""
    with pytest.raises(ConstructionError) as info:
        CantorSpec(rule=PowerChoice(0.5), depth=2)
    assert info.value.stage == 2


def test_cantor_build_refuses_depth_over_bound():
    """The final stage has 2^depth arcs; depth 21 and beyond are refused
    when the spec is built, before any stage is computed, so a typo such
    as depth 40 cannot exhaust memory."""
    for depth in (21, 40):
        with pytest.raises(PreconditionError, match="exceeds 20"):
            cantor_build(CantorSpec(rule=RatioRule(0.4, l0=1.0), depth=depth))


_STAGE_RULES = [
    (PowerChoice(0.5), 3),
    (PowerChoice(0.2), 7),
    (RatioRule(0.37, l0=1.7), 0),
    (RatioRule(0.45, l0=0.05), 4),
    (TableRule(tuple(0.9 * 0.4 ** np.arange(30))), 2),
]


@pytest.mark.parametrize("rule, offset", _STAGE_RULES)
@pytest.mark.parametrize("host", [None, Arc.centered(-2.6, 0.7)])
@pytest.mark.parametrize("scale", [False, True])
def test_cantor_stage_array_matches_scalar_route(rule, offset, host, scale):
    """The spec's stage array is, bit for bit, the scalar rule taken one
    stage at a time plus the same rescale, at every depth 0..20, and the
    built arcs equal the per-Arc route's."""
    if host is not None and not scale and isinstance(rule, RatioRule) and rule.l0 > 1.0:
        with pytest.raises(ConstructionError, match="exceeds host length"):
            CantorSpec(rule=rule, depth=0, host=host, offset=offset)
        return
    for depth in range(21):
        spec = CantorSpec(rule=rule, depth=depth, host=host, offset=offset, scale_to_host=scale)
        want = np.array(oracles.cantor_stage_logs_direct(spec))
        got = spec.stage_log_lengths
        assert not got.flags.writeable
        assert got.tobytes() == want.tobytes()
        if depth <= 10:
            assert cantor_build(spec).arcs == oracles.cantor_arcs_direct(spec)


def test_cantor_stage_array_stays_out_of_identity():
    """The stage array is derived: it is not an argument, and specs that
    agree on their fields are equal, hash alike and print alike."""
    a = CantorSpec(rule=RatioRule(0.4), depth=5)
    b = CantorSpec(rule=RatioRule(0.4), depth=5, offset=0)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "stage_log_lengths" not in repr(a)
    with pytest.raises(TypeError):
        CantorSpec(rule=RatioRule(0.4), depth=5, stage_log_lengths=np.zeros(6))


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
    final = math.exp(spec.stage_log_lengths[3])
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
    assert abs(math.exp(spec.stage_log_lengths[0]) - host.length) < 1e-12
    fam = cantor_build(spec)
    for a in fam:
        assert host.contains(a.midpoint)
        assert a.length <= host.length


@pytest.mark.parametrize("offset", [3000, 10000, 30000])
def test_cantor_scale_to_host_at_large_offsets(offset):
    """A scaled stage 0 fills its host, whatever the offset: the shifted
    log may miss log H by an ulp of |log l_offset| (once refused as
    "stage-0 length 2.90985 exceeds host length 2.90985"), and the built
    set still lies in the host's cover."""
    grid = CircleGrid(4096)
    for length in np.linspace(0.01, 3.0, 200).tolist():
        host = Arc.centered(0.3, length)
        spec = CantorSpec(PowerChoice(0.5), 2, host=host, offset=offset, scale_to_host=True)
        cover = GridSet.from_arcs(grid, host, mode="cover")
        assert cantor_grid_set(spec, grid).is_subset_of(cover)


def test_cantor_host_too_small():
    with pytest.raises(ConstructionError,
                       match=r"^stage-0 length 1 exceeds host length 0\.5$") as info:
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


def test_trend_fit_matches_model_by_model_loop():
    """All growth models are fitted in one array pass; the model chosen
    and its slope, intercept and R^2 are the floats of fitting one model
    at a time, on random walks and on log, log log and power growth with
    and without noise, of 10 to 10^5 sums from start indices 1 to 5."""
    rng = np.random.default_rng(29)
    fitted = 0
    for trial in range(400):
        start = int(rng.integers(1, 6))
        n = start + np.arange(int(rng.integers(10, 100_000)), dtype=float)
        growth = [np.log(n), np.log(np.log(n + 2.0)), n ** rng.uniform(0.05, 1.0),
                  rng.standard_normal(n.size).cumsum()][trial % 4]
        noise = rng.uniform(0.0, 1e-3) * rng.standard_normal(n.size)
        sums = rng.uniform(-3.0, 3.0) * growth + noise
        trend, fit = classify_trend(sums, start)
        if fit["model"] in ("constant", "none"):
            continue
        fitted += 1
        want = oracles.trend_fit_direct(sums, start)
        assert (fit["model"], fit.get("power"), fit["slope"], fit["intercept"],
                fit["r_squared"]) == want
    assert fitted > 300


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


# hosts across -pi, overlapping hosts and hosts under one cell of 256,
# then 40 disjoint log-reciprocal arcs
_HOSTS = ArcFamily.from_endpoints(
    np.concatenate(([2.95, -3.2, 0.1, 0.5, 1.7, 1.75], log_reciprocal_arcs(41).starts - 2.0)),
    np.concatenate(([3.25, -2.9, 0.9, 0.7, 1.71, 1.7505], log_reciprocal_arcs(41).ends - 2.0)),
)


@pytest.mark.parametrize("rule, offset", [(PowerChoice(0.5), 3), (RatioRule(0.4), None)])
@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("max_depth", [20, 6])
def test_batched_cantor_parts_match_per_arc_route(rule, offset, n, max_depth):
    """One batched build gives the masks of one CantorSpec, cantor_build
    and cover mask per host, at depths 0 to 6: 1 to 64 arcs a host, so
    the per-host masks are found on both sides of _RUNS_AT_ONCE. With the
    depth bound at 6 the hosts come in batches of 1 to 64. An empty
    family gives no parts."""
    grid = CircleGrid(n)
    for depth in range(7):
        with mock.patch.object(uniqueness, "MAX_CANTOR_DEPTH", max_depth):
            got = cantor_parts_in_arcs(rule, depth, _HOSTS, grid, offset)
        want = oracles.cantor_parts_per_arc(rule, depth, _HOSTS, grid, offset)
        assert len(got) == len(want) == len(_HOSTS)
        for a, b in zip(got, want):
            assert a.grid == grid
            assert a.mask.tobytes() == b.mask.tobytes()
    assert cantor_parts_in_arcs(rule, 3, ArcFamily(()), grid, offset) == []


@pytest.mark.parametrize("max_depth", [20, 3])
@pytest.mark.parametrize("rule, depth, offset, hosts", [
    # l_2 = l_1 at the default offset: halving fails at index 2, for every host
    (PowerChoice(0.5), 2, None, _HOSTS),
    # the second stage underflows to zero
    (RatioRule(1e-200), 2, None, _HOSTS),
    # arcs shorter than the ulp of their angle inside the second host
    (RatioRule(0.1), 3, None,
     ArcFamily.from_endpoints([0.5, 3.0, -1.0], [0.6, 3.0 + 1e-13, -0.9])),
    # the first host's final arcs (1e-320) vanish next to their angle and
    # the second host's final length underflows: the first host's error
    (RatioRule(1e-160), 2, None, ArcFamily.from_endpoints([0.5, 2.0], [1.5, 2.0 + 1e-5])),
])
def test_batched_cantor_parts_raise_the_per_arc_error(rule, depth, offset, hosts, max_depth,
                                                      grid256):
    """A failing build raises the error, message and stage of the first
    host that fails when the hosts are built one at a time, also when
    that host is in a later batch (the depth bound at 3)."""
    with pytest.raises(PreconditionError) as want:
        oracles.cantor_parts_per_arc(rule, depth, hosts, grid256, offset)
    with pytest.raises(PreconditionError) as got, \
            mock.patch.object(uniqueness, "MAX_CANTOR_DEPTH", max_depth):
        cantor_parts_in_arcs(rule, depth, hosts, grid256, offset)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "stage", None) == getattr(want.value, "stage", None)


def test_uniqueness_series_names_the_first_uncontained_part(solver):
    """Each part is checked against its arc's covered cells, found for
    every arc at once: the part named is the one a cover GridSet per arc
    names, for a stray cell just before or just after any arc's run,
    including arcs across -pi and one under a cell."""
    grid = CircleGrid(64)
    fam = ArcFamily.from_endpoints([3.0, -2.0, 0.2, 1.0, 1.51], [-3.05, -1.2, 0.9, 1.4, 1.52])
    hulls = [GridSet.from_arcs(grid, arc, mode="cover") for arc in fam]
    assert oracles.uncontained_part_direct(hulls, fam) is None
    for k, hull in enumerate(hulls):
        # the cells just before and just after the run
        strays = np.flatnonzero(~hull.mask & (np.roll(hull.mask, 1) | np.roll(hull.mask, -1)))
        assert len(strays) == 2
        for stray in strays.tolist():
            parts = list(hulls)
            parts[k] = hull.union(GridSet.from_indices(grid, [stray]))
            assert oracles.uncontained_part_direct(parts, fam) == k
            with pytest.raises(PreconditionError, match=f"set part {k} is not contained"):
                uniqueness_series(parts, fam, 0.8, 0.8, solver)


def test_uniqueness_series_containment_from_cells(solver):
    """Containment is read from each part's cells against its arc's
    covered run: a part wholly outside its arc is named, the covered
    cells of an arc across -pi pass as its part, and that part moved one
    cell either way, still across -pi, is named."""
    grid = CircleGrid(64)
    fam = ArcFamily.from_endpoints([2.8, -2.0, 0.2], [-2.8, -1.2, 0.9])
    hulls = [GridSet.from_arcs(grid, arc, mode="cover") for arc in fam]
    assert hulls[0].indices[0] == 0 and hulls[0].indices[-1] == 63  # across -pi
    assert len(uniqueness_series(hulls, fam, 0.8, 0.8, solver).term_records) == 3
    for k in range(3):
        parts = list(hulls)
        parts[k] = hulls[(k + 1) % 3]
        assert oracles.uncontained_part_direct(parts, fam) == k
        with pytest.raises(PreconditionError, match=f"^set part {k} is not contained in the covered cells of its arc$"):
            uniqueness_series(parts, fam, 0.8, 0.8, solver)
    for shift in (1, -1):
        parts = [hulls[0].rotated(shift), *hulls[1:]]
        assert parts[0].indices[0] == 0 and parts[0].indices[-1] == 63
        assert oracles.uncontained_part_direct(parts, fam) == 0
        with pytest.raises(PreconditionError, match="^set part 0 is not contained"):
            uniqueness_series(parts, fam, 0.8, 0.8, solver)


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
