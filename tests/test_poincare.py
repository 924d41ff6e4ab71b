import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from circle_potential import (
    Arc,
    ArcFamily,
    BoundarySamples,
    CantorSpec,
    CircleGrid,
    ConvergenceError,
    GridSet,
    PowerChoice,
    PreconditionError,
    RatioRule,
    SolverConfig,
    cantor_grid_set,
    constant_estimate,
    l2_capacity,
    poincare_check,
    spike_function,
)
from circle_potential import poincare
from circle_potential.capacity import _CG_CELLS


def _instance(grid, e_length=0.12, i_length=1.2, delta=0.2):
    arc = Arc.centered(0.0, i_length)
    e = GridSet.from_arcs(grid, Arc.centered(-0.2, e_length))
    f = spike_function(e, delta)
    return f, e, arc


def test_spike_vanishes_on_set_and_saturates(grid1024):
    e = GridSet.from_arcs(grid1024, Arc.centered(0.5, 0.3))
    f = spike_function(e, 0.2)
    assert np.max(np.abs(f.values[e.mask])) == 0.0
    # far from E the spike reaches 1
    far = np.abs(grid1024.angles - (0.5 - math.pi)) < 0.3
    assert np.all(f.values[far].real == 1.0)
    vals = f.values.real
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_spike_distance_profile(grid1024):
    """Inside the ramp the spike grows linearly with arc distance to E
    at rate 1/delta."""
    e = GridSet.from_arcs(grid1024, Arc.centered(0.0, 0.2))
    delta = 0.3
    f = spike_function(e, delta)
    t = grid1024.angles
    edge = t[e.indices[-1]] + grid1024.cell_width / 2.0
    sel = (t > edge) & (t < edge + delta * 0.9)
    expected = (t[sel] - edge) / delta
    assert np.max(np.abs(f.values[sel].real - expected)) < 1e-12


def _spike_sets(n):
    """E shapes for the spike oracle at n cells: scattered cells, a run
    across -pi, one cell, the full set and Cantor sets."""
    grid = CircleGrid(n)
    rng = np.random.default_rng(n)
    sets = {
        "one-cell": GridSet.from_indices(grid, [int(rng.integers(n))]),
        "first-cell": GridSet.from_indices(grid, [0]),
        "last-cell": GridSet.from_indices(grid, [n - 1]),
        "full": GridSet.full(grid),
        "across-cut": GridSet.from_indices(grid, [n - 3, n - 2, n - 1, 0, 1, n // 2]),
        "two-ends": GridSet.from_indices(grid, [0, n - 1]),
    }
    for k in range(4):
        count = int(rng.integers(1, max(2, min(n // 3, 512))))
        sets[f"scattered-{k}"] = GridSet.from_indices(grid, rng.choice(n, count, replace=False))
    for depth in (2, 5, 8):
        spec = CantorSpec(rule=PowerChoice(0.5), depth=depth, offset=3,
                          host=Arc.centered(float(rng.uniform(-3.0, 3.0)), 2.5),
                          scale_to_host=True)
        sets[f"cantor-{depth}"] = cantor_grid_set(spec, grid)
    sets["cantor-full"] = cantor_grid_set(CantorSpec(rule=RatioRule(0.4), depth=6), grid)
    return sets


@pytest.mark.parametrize("n", [8, 64, 4096, 8192])
def test_spike_matches_run_route(n):
    """The index-distance spike is exactly 0 on E and agrees with the
    run-by-run distance route to |df| * delta <= 1e-14."""
    for name, e in _spike_sets(n).items():
        if e.is_empty():
            continue
        for delta in (0.05, 0.7, 4.0):
            got = spike_function(e, delta).values
            assert np.all(got.imag == 0.0)
            assert np.all(got.real[e.mask] == 0.0), name
            want = oracles.spike_from_runs(e, delta)
            assert np.max(np.abs(got.real - want)) * delta <= 1e-14, (name, delta)


def test_spike_tiny_delta_is_a_step(grid64):
    """A subnormal delta gives the step 0 on E and 1 off it, without the
    overflow warning of dist / delta (an error under this suite)."""
    e = GridSet.from_arcs(grid64, Arc(0.0, 0.5))
    f = spike_function(e, 1e-320)
    assert np.array_equal(f.values, np.where(e.mask, 0.0, 1.0))


def test_spike_validation(grid64):
    e = GridSet.from_arcs(grid64, Arc(0.0, 0.5))
    with pytest.raises(PreconditionError):
        spike_function(e, 0.0)
    with pytest.raises(PreconditionError):
        spike_function(GridSet.empty(grid64), 0.1)


def test_poincare_report_components(grid1024, solver):
    """The reported ratio must be exactly lhs * cap / (scale * energy)
    and every component positive on a generic spike instance."""
    f, e, arc = _instance(grid1024)
    rep = poincare_check(f, e, arc, 0.75, 0.5, 0.75, solver)
    assert rep.energy > 0.0
    assert rep.cap > 0.0
    assert rep.lhs > 0.0
    assert abs(rep.scale - arc.length ** (0.75 - 0.5)) < 1e-15
    assert abs(rep.ratio - rep.lhs * rep.cap / (rep.scale * rep.energy)) <= 1e-15 * rep.ratio
    js = rep.to_json()
    assert js["params"]["grid_n"] == 1024
    assert set(js) == {"lhs", "cap", "energy", "scale", "ratio", "params"}


def test_poincare_zero_energy_instance(grid1024, solver):
    """f identically zero on I: zero seminorm forces lhs = 0, ratio = 0
    rather than a 0/0."""
    arc = Arc.centered(0.0, 1.0)
    e = GridSet.from_arcs(grid1024, Arc.centered(0.0, 0.2))
    # zero inside I, climbs outside it: energy on I is exactly zero
    t = grid1024.angles
    vals = np.where(np.abs(t) < 0.6, 0.0, 1.0)
    f = BoundarySamples(grid1024, vals.astype(np.complex128))
    rep = poincare_check(f, e, arc, 0.75, 0.5, 0.75, solver)
    assert rep.energy == 0.0
    assert rep.lhs == 0.0
    assert rep.ratio == 0.0
    assert rep.cap > 0.0


def test_poincare_parameter_validation(grid1024, solver):
    f, e, arc = _instance(grid1024)
    with pytest.raises(PreconditionError):
        poincare_check(f, e, arc, 0.5, 0.75, 0.75, solver)  # beta > alpha
    with pytest.raises(PreconditionError):
        poincare_check(f, e, arc, 0.75, 0.5, 1.5, solver)
    with pytest.raises(PreconditionError):
        # arc longer than gamma*pi
        poincare_check(f, e, Arc.centered(0.0, 0.5 * math.pi + 0.2), 0.75, 0.5, 0.5, solver)


def test_poincare_requires_vanishing(grid1024, solver):
    _, e, arc = _instance(grid1024)
    f = BoundarySamples.constant(grid1024, 1.0)
    with pytest.raises(PreconditionError):
        poincare_check(f, e, arc, 0.75, 0.5, 0.75, solver)


def test_poincare_requires_intersection(grid1024, solver):
    arc = Arc.centered(0.0, 1.0)
    e = GridSet.from_arcs(grid1024, Arc.centered(3.0, 0.2))
    f = spike_function(e, 0.2)
    with pytest.raises(PreconditionError):
        poincare_check(f, e, arc, 0.75, 0.5, 0.75, solver)


def test_poincare_rotation_covariance(grid1024, solver):
    """Rotating f, E, and I together by whole grid cells leaves every
    reported component unchanged to solver precision."""
    f, e, arc = _instance(grid1024)
    base = poincare_check(f, e, arc, 0.75, 0.5, 0.75, solver)
    k = 137
    shift = k * grid1024.cell_width
    arc_rot = Arc(arc.start + shift, arc.end + shift)
    rep = poincare_check(f.rotated(k), e.rotated(k), arc_rot, 0.75, 0.5, 0.75, solver)
    assert abs(rep.ratio - base.ratio) <= 1e-9 * max(1.0, base.ratio)
    assert abs(rep.energy - base.energy) <= 1e-9 * max(1.0, base.energy)


def test_poincare_scaling_invariance(grid1024, solver):
    """lhs and energy both scale by |lambda|^2, so the ratio is
    invariant under complex scaling of f."""
    f, e, arc = _instance(grid1024)
    base = poincare_check(f, e, arc, 0.75, 0.5, 0.75, solver)
    lam = 2.7 - 1.3j
    scaled = BoundarySamples(grid1024, lam * f.values)
    rep = poincare_check(scaled, e, arc, 0.75, 0.5, 0.75, solver)
    assert abs(rep.ratio - base.ratio) <= 1e-9 * max(1.0, base.ratio)


def test_scale_component_direction(grid1024, solver):
    """For |I| < 1 the scale factor |I|^(alpha-beta) moves toward 1 as
    beta approaches alpha from below (the exponent shrinks); the check
    asserts the computed monotonicity."""
    f, e, arc = _instance(grid1024, i_length=0.8)
    r1 = poincare_check(f, e, arc, 0.75, 0.25, 0.75, solver)
    r2 = poincare_check(f, e, arc, 0.75, 0.5, 0.75, solver)
    r3 = poincare_check(f, e, arc, 0.75, 0.75, 0.75, solver)
    assert r1.scale < r2.scale < r3.scale
    assert abs(r3.scale - 1.0) < 1e-15


def test_constant_estimate_is_max(grid1024, solver):
    f1, e1, a1 = _instance(grid1024, e_length=0.10)
    f2, e2, a2 = _instance(grid1024, e_length=0.25)
    r1 = poincare_check(f1, e1, a1, 0.75, 0.5, 0.75, solver).ratio
    r2 = poincare_check(f2, e2, a2, 0.75, 0.5, 0.75, solver).ratio
    best = constant_estimate([(f1, e1, a1), (f2, e2, a2)], 0.75, 0.5, 0.75, solver)
    assert best == max(r1, r2)
    with pytest.raises(PreconditionError):
        constant_estimate([], 0.75, 0.5, 0.75, solver)


def _value_route_instances(grid):
    """(E, I) pairs whose E cap I takes the block route (spike arcs, 27
    cells, and a Cantor set, 48), Levinson (a 79-cell arc) or conjugate
    gradients (a 653-cell arc)."""
    spikes = ArcFamily(tuple(Arc.centered(-0.4 + 0.3 * j, 0.012) for j in range(3)))
    return [
        (GridSet.from_arcs(grid, spikes), Arc.centered(0.0, 1.2)),
        (GridSet.from_arcs(grid, Arc.centered(-0.2, 0.12)), Arc.centered(0.0, 1.2)),
        (cantor_grid_set(CantorSpec(rule=PowerChoice(0.5), depth=4, offset=3), grid),
         Arc.centered(0.0, 1.2)),
        (GridSet.from_arcs(grid, Arc.centered(0.0, 1.0)), Arc.centered(0.0, 2.0)),
    ]


def test_poincare_capacity_is_l2_capacity_exactly():
    """The verifier's capacity is the float ``l2_capacity`` reports for
    E cap I, on both solver routes; the verifier's ConvergenceError
    carries the same estimate, value and minimizer bytes."""
    grid = CircleGrid(4096)
    sizes = []
    for e, arc in _value_route_instances(grid):
        e_in_i = e.restrict_to(arc)
        sizes.append(e_in_i.count)
        f = spike_function(e, 0.1)
        rep = poincare_check(f, e, arc, 0.75, 0.5, 0.75)
        assert rep.cap == l2_capacity(e_in_i, 0.5).value
        cfg = SolverConfig(tolerance=1e-300)
        with pytest.raises(ConvergenceError) as full:
            l2_capacity(e_in_i, 0.5, cfg)
        with pytest.raises(ConvergenceError) as value:
            poincare_check(f, e, arc, 0.75, 0.5, 0.75, cfg)
        want, got = full.value.best_estimate, value.value.best_estimate
        assert got.minimizer.tobytes() == want.minimizer.tobytes()
        assert got.value == want.value
    assert min(sizes) <= _CG_CELLS < max(sizes)


def _mask_route_instances(rng):
    """(f, E, I, alpha, beta) at 256 to 4096 cells: spike families, arcs,
    Cantor sets and scattered cells for E, I anywhere (across -pi too),
    f the spike of E or a function vanishing on E and zero elsewhere in
    I (zero energy)."""
    out = []
    for n in (256, 1024, 4096):
        grid = CircleGrid(n)
        for trial in range(12):
            c = float(rng.uniform(-math.pi, math.pi)) if trial % 3 else math.pi - 0.1
            spikes = ArcFamily(tuple(Arc.centered(c - 0.2 + 0.1 * j, 0.02) for j in range(1 + trial % 4)))
            sets = [
                GridSet.from_arcs(grid, spikes),
                GridSet.from_arcs(grid, Arc.centered(c + 0.1, 0.15)),
                cantor_grid_set(CantorSpec(rule=PowerChoice(0.5), depth=3, offset=3), grid),
                GridSet.from_indices(grid, rng.choice(n, size=n // 16, replace=False)),
            ]
            arc = Arc.centered(c, float(rng.uniform(0.3, 2.0)))
            beta = float(rng.uniform(0.2, 1.0))
            alpha = float(rng.uniform(beta, 1.0))
            for e in sets:
                out.append((spike_function(e, 0.1), e, arc, alpha, beta))
            zero = BoundarySamples(grid, np.where(sets[1].mask, 0.0, 1.0).astype(np.complex128))
            out.append((zero, sets[1], Arc.centered(c + 0.1, 0.1), alpha, beta))
    return out


def test_poincare_matches_mask_route(monkeypatch):
    """E cap I found from I's runs is the set the N-long masks gave
    (``oracles.poincare_check_mask``), and lhs, energy, scale, cap and
    ratio have the same bytes, on instances with I across -pi and with
    zero energy; an instance the mask route refuses is refused with the
    same error."""
    capacity_cells = []
    l2 = poincare.l2_capacity
    monkeypatch.setattr(poincare, "l2_capacity",
                        lambda e, beta, cfg=None: capacity_cells.append(e.indices) or l2(e, beta, cfg))
    across = zero = checked = refusals = 0
    for f, e, arc, alpha, beta in _mask_route_instances(np.random.default_rng(32)):
        capacity_cells.clear()
        try:
            want, cells = oracles.poincare_check_mask(f, e, arc, alpha, beta, 0.75)
        except PreconditionError as refused:
            with pytest.raises(type(refused), match=f"^{re.escape(str(refused))}$"):
                poincare_check(f, e, arc, alpha, beta, 0.75)
            refusals += 1
            continue
        got = poincare_check(f, e, arc, alpha, beta, 0.75)
        assert capacity_cells[0].tolist() == cells.tolist()
        assert got.to_json() == want.to_json()
        for name in ("lhs", "energy", "scale", "cap", "ratio"):
            assert np.float64(getattr(got, name)).tobytes() == np.float64(getattr(want, name)).tobytes(), name
        checked += 1
        across += len(f.grid._arc_runs(arc, "centers")) == 2
        zero += got.energy == 0.0
    assert checked >= 100 and across and zero and refusals, (checked, across, zero, refusals)


def _precondition_cases():
    """(f, E, I, alpha, beta, gamma) breaking each precondition of
    ``poincare_check`` in turn, with I across -pi where it can be."""
    grid = CircleGrid(1024)
    e = GridSet.from_arcs(grid, Arc.centered(math.pi - 0.05, 0.05))  # across -pi
    f = spike_function(e, 0.2)
    across = Arc.centered(math.pi, 1.0)
    tiny_across = Arc.centered(-math.pi + 0.02, 0.03)  # under RESOLUTION_CELLS cells
    far = GridSet.from_arcs(grid, Arc.centered(0.0, 0.1))
    return {
        "beta above alpha": (f, e, across, 0.5, 0.75, 0.75),
        "gamma": (f, e, across, 0.75, 0.5, 1.5),
        "arc too long": (f, e, Arc.centered(math.pi, 0.5 * math.pi + 0.2), 0.75, 0.5, 0.5),
        "grids differ": (f, GridSet.from_arcs(CircleGrid(256), Arc.centered(0.0, 0.1)), across, 0.75, 0.5, 0.75),
        "not an arc": (f, e, SimpleNamespace(length=0.5), 0.75, 0.5, 0.75),
        "E cap I empty": (spike_function(far, 0.2), far, across, 0.75, 0.5, 0.75),
        "E cap I empty, I unresolved": (spike_function(far, 0.2), far, tiny_across, 0.75, 0.5, 0.75),
        "f does not vanish": (BoundarySamples.constant(grid, 1.0), e, across, 0.75, 0.5, 0.75),
        "I unresolved": (f, e, tiny_across, 0.75, 0.5, 0.75),
    }


@pytest.mark.parametrize("case", list(_precondition_cases()))
def test_poincare_preconditions_match_mask_route(case):
    """Each precondition raises the exception, type and message, that
    the mask route raises, in the same order."""
    args = _precondition_cases()[case]
    with pytest.raises(Exception) as want:
        oracles.poincare_check_mask(*args)
    with pytest.raises(Exception) as got:
        poincare_check(*args)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
