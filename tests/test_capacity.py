import json
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import asdict

import numpy as np
import pytest

import oracles
from circle_potential import (
    Arc,
    CapacityEstimate,
    CircleGrid,
    ConvergenceError,
    DiscreteMeasure,
    GridSet,
    PreconditionError,
    SolverConfig,
    classical_capacity,
    comparability_report,
    kernel_exponents,
    l2_capacity,
    mu_energy,
)
from circle_potential import capacity
from circle_potential._threads import _BLAS_VARS
from circle_potential.capacity import _finish_l2, potential_on_set
from circle_potential.energy import kernel_column, kernel_fault
from circle_potential.uniqueness import CantorSpec, PowerChoice, cantor_grid_set


def test_kernel_exponent_mapping():
    exps = kernel_exponents(0.5)
    assert exps.classical == 0.5
    assert exps.l2_convolution == 0.75
    exps = kernel_exponents(1.0)
    assert exps.classical == 0.0
    assert exps.l2_convolution == 0.5


def test_kernel_exponent_validation():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(PreconditionError):
            kernel_exponents(bad)


def test_l2_capacity_shrinks_as_alpha_goes_to_zero():
    """C_{alpha,2} of an arc falls like alpha^2 as alpha -> 0 (kernel
    exponent 1 - alpha/2 -> 1); it must keep falling where the exponent
    is within 1e-6 of 1."""
    e = GridSet.from_arcs(CircleGrid(256), Arc(0.3, 1.7))
    values = [l2_capacity(e, alpha).value for alpha in (1e-2, 1e-3, 1e-6, 1e-9, 1e-12)]
    assert all(a > b for a, b in zip(values, values[1:])), values


def test_solver_config_validation():
    with pytest.raises(PreconditionError):
        SolverConfig(step_rule="newton")
    # a retired step rule is still accepted, but selects and records nothing
    assert asdict(SolverConfig(step_rule="projected_gradient")) == asdict(SolverConfig())
    assert asdict(SolverConfig()) == {"tolerance": 1e-8, "max_iterations": 50_000}
    with pytest.raises(PreconditionError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(PreconditionError):
        SolverConfig(tolerance=math.nan)
    with pytest.raises(PreconditionError):
        SolverConfig(max_iterations=0)


def test_classical_full_circle_pin(grid1024, solver):
    """Equilibrium measure of the full circle is uniform by symmetry, so
    the capacity is the reciprocal of the uniform-measure energy; pinned
    to the quadrature value of the kernel mean."""
    est = classical_capacity(GridSet.full(grid1024), 0.5, solver)
    assert abs(est.value - oracles.FULL_CIRCLE_CLASSICAL_HALF) <= 0.02 * est.value
    mu = DiscreteMeasure.uniform(grid1024)
    assert abs(est.value - 1.0 / mu_energy(mu, 0.5)) <= 1e-10
    # weights should be uniform to solver precision
    dev = np.max(np.abs(est.minimizer - 1.0 / 1024)) * 1024
    assert dev <= 1e-6


def test_classical_kkt_certificate(grid256, solver):
    e = GridSet.from_arcs(grid256, Arc(-0.7, 0.9))
    est = classical_capacity(e, 0.5, solver)
    assert est.kkt_residual <= solver.tolerance
    w = est.minimizer
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) < 1e-9
    assert np.all(w[~e.mask] == 0.0)
    # equilibrium potential is constant (= 1/capacity) on the support
    n = grid256.n_points
    kappa = np.asarray(kernel_column(n, 0.5))
    idx = e.indices
    pot = np.array(
        [kappa[(int(i) - idx) % n] @ w[idx] for i in idx]
    )
    level = 1.0 / est.value
    support = w[idx] > 1e-12
    assert np.max(np.abs(pot[support] - level)) <= 1e-6 * level


def test_classical_monotone_under_inclusion(grid256, solver, rng):
    """cap(E) <= cap(F) for E inside F; exact at the grid level because
    cover masks of nested centered arcs are nested."""
    for _ in range(8):
        mid = float(rng.uniform(-3, 3))
        inner = float(rng.uniform(0.1, 1.0))
        outer = inner + float(rng.uniform(0.05, 1.0))
        small = GridSet.from_arcs(grid256, Arc.centered(mid, inner))
        big = GridSet.from_arcs(grid256, Arc.centered(mid, outer))
        assert small.is_subset_of(big)
        c_small = classical_capacity(small, 0.5, solver).value
        c_big = classical_capacity(big, 0.5, solver).value
        assert c_small <= c_big + 1e-12


def test_classical_rotation_equivariance(grid256, solver):
    e = GridSet.from_arcs(grid256, Arc(0.1, 0.9))
    base = classical_capacity(e, 0.5, solver).value
    rot = classical_capacity(e.rotated(41), 0.5, solver).value
    assert abs(rot - base) <= 1e-9 * base


def test_classical_empty_set(grid64, solver):
    est = classical_capacity(GridSet.empty(grid64), 0.5, solver)
    assert est.value == 0.0
    assert any("empty" in n for n in est.notes)


def test_classical_log_kernel(grid256, solver):
    # beta = 1 maps the classical side to the logarithmic kernel
    est = classical_capacity(GridSet.from_arcs(grid256, Arc(-0.4, 0.4)), 0.0, solver)
    assert est.value > 0.0
    assert est.kkt_residual <= solver.tolerance


def test_classical_convergence_error_carries_best():
    grid = __import__("circle_potential").CircleGrid(128)
    e = GridSet.from_arcs(grid, Arc(0.0, 1.0))
    cfg = SolverConfig(tolerance=1e-30, max_iterations=5)
    with pytest.raises(ConvergenceError) as info:
        classical_capacity(e, 0.5, cfg)
    best = info.value.best_estimate
    assert isinstance(best, CapacityEstimate)
    assert best.value > 0.0


def test_l2_full_circle_closed_form(grid1024, solver):
    """On the full circle the optimal density is constant and the value
    collapses to 1 / (mean kernel)^2; the solver must reproduce the
    closed form to solver precision, and the closed form at parameter 1
    is pinned to the quadrature value."""
    est = l2_capacity(GridSet.full(grid1024), 1.0, solver)
    kappa = np.asarray(kernel_column(1024, 0.5))
    closed = 1.0 / float(kappa.mean()) ** 2
    assert abs(est.value - closed) <= 1e-8 * closed
    assert abs(est.value - oracles.FULL_CIRCLE_L2_ALPHA_ONE) <= 0.03 * est.value


def test_l2_feasibility_certificate(grid256, solver):
    e = GridSet.from_arcs(grid256, Arc(-1.2, 0.3))
    est = l2_capacity(e, 0.5, solver)
    pot = potential_on_set(est, e)
    assert np.min(pot) >= 1.0 - 1e-6
    assert est.value > 0.0
    assert est.kkt_residual <= solver.tolerance


def test_l2_monotone_under_inclusion(grid256, solver, rng):
    for _ in range(8):
        mid = float(rng.uniform(-3, 3))
        inner = float(rng.uniform(0.1, 1.0))
        outer = inner + float(rng.uniform(0.05, 1.0))
        small = GridSet.from_arcs(grid256, Arc.centered(mid, inner))
        big = GridSet.from_arcs(grid256, Arc.centered(mid, outer))
        c_small = l2_capacity(small, 0.5, solver).value
        c_big = l2_capacity(big, 0.5, solver).value
        assert c_small <= c_big + 1e-9 * max(1.0, c_big)


def test_l2_rotation_equivariance(grid256, solver):
    e = GridSet.from_arcs(grid256, Arc(0.1, 0.9))
    base = l2_capacity(e, 0.5, solver).value
    rot = l2_capacity(e.rotated(77), 0.5, solver).value
    assert abs(rot - base) <= 1e-9 * base


def test_l2_empty_set(grid64, solver):
    est = l2_capacity(GridSet.empty(grid64), 0.5, solver)
    assert est.value == 0.0


def test_l2_alpha_validation(grid64, solver):
    e = GridSet.full(grid64)
    with pytest.raises(PreconditionError):
        l2_capacity(e, 0.0, solver)
    with pytest.raises(PreconditionError):
        l2_capacity(e, 1.0001, solver)


def test_l2_refuses_convolution_exponent_that_rounds_to_one(solver):
    """For alpha <= 2^-53 the convolution exponent 1 - alpha/2 is 1.0,
    where the kernel is not integrable: refused like any kernel exponent
    outside [0, 1), not solved with a meaningless diagonal."""
    e = GridSet.from_arcs(CircleGrid(256), Arc(0.3, 1.7))
    assert kernel_exponents(1e-17).l2_convolution == 1.0
    with pytest.raises(PreconditionError, match=r"kernel exponent must be in \[0, 1\), got 1.0"):
        l2_capacity(e, 1e-17, solver)


def test_potential_check_rejects_classical(grid64, solver):
    est = classical_capacity(GridSet.full(grid64), 0.5, solver)
    with pytest.raises(PreconditionError):
        potential_on_set(est, GridSet.full(grid64))


def test_comparability_report_bracket(grid256, solver):
    """The two capacity scales agree up to absolute constants; on
    well-resolved arc unions the observed ratio stays in a generous
    bracket around 1."""
    sets = [
        GridSet.from_arcs(grid256, Arc(-0.5, 0.5)),
        GridSet.from_arcs(grid256, Arc(0.0, 2.0)),
        GridSet.from_arcs(grid256, Arc(-2.0, -1.6)).union(
            GridSet.from_arcs(grid256, Arc(1.0, 1.4))
        ),
    ]
    for e in sets:
        rep = comparability_report(e, 0.5, solver)
        assert rep.c_classical > 0.0 and rep.c_l2 > 0.0
        assert 1.0 / 25.0 <= rep.ratio <= 25.0
        js = rep.to_json()
        assert set(js) == {"c_classical", "c_l2", "ratio", "beta", "grid_n"}


def test_estimate_json_round_trip(grid256, solver):
    est = classical_capacity(GridSet.from_arcs(grid256, Arc(0.0, 1.0)), 0.5, solver)
    blob = json.dumps(est.to_json(), sort_keys=True)
    again = json.dumps(est.to_json(), sort_keys=True)
    assert blob == again
    rec = json.loads(blob)
    assert rec["method"] == "classical"
    assert rec["capacity"] == est.value


def test_capacity_deterministic_across_runs(grid256, solver):
    e = GridSet.from_arcs(grid256, Arc(-1.0, 1.3))
    a = classical_capacity(e, 0.5, solver)
    b = classical_capacity(e, 0.5, solver)
    assert a.value == b.value
    assert np.array_equal(a.minimizer, b.minimizer)
    c = l2_capacity(e, 0.5, solver)
    d = l2_capacity(e, 0.5, solver)
    assert c.value == d.value


def _run_isolated(script):
    """Run a script in a fresh interpreter with a timeout, so a solver
    that hangs fails the test instead of stalling pytest; returns stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_stalled_solver_raises_instead_of_hanging():
    """A polish whose solves all fail has nothing behind it: each solver
    raises ConvergenceError without an estimate after one attempt instead
    of trying again."""
    script = """
        import circle_potential.capacity as cap
        from circle_potential import (
            CircleGrid, ConvergenceError, GridSet, SolverConfig,
            classical_capacity, l2_capacity,
        )

        calls = []
        cap._block_solve = lambda *args: calls.append(args)  # every solve fails
        e = GridSet.full(CircleGrid(64))
        for solve in (classical_capacity, l2_capacity):
            calls.clear()
            try:
                solve(e, 0.5, SolverConfig(max_iterations=1000))
            except ConvergenceError as exc:
                assert exc.best_estimate is None
                assert len(calls) == 1, len(calls)
            else:
                raise SystemExit(f"{solve.__name__}: no ConvergenceError")
        print("ok")
        """
    assert _run_isolated(script) == "ok"


def test_cycling_polish_stops_at_max_iterations():
    """A solve that turns one cell negative whenever it is active makes
    the polish drop and re-add that cell forever; max_iterations stops it
    after exactly that many solves with ConvergenceError, carrying the
    estimate of the last solve with every entry positive."""
    script = """
        import circle_potential.capacity as cap
        from circle_potential import (
            Arc, CircleGrid, ConvergenceError, GridSet, SolverConfig,
            classical_capacity, l2_capacity,
        )

        e = GridSet.from_arcs(CircleGrid(256), Arc(0.3, 1.7))
        cell = int(e.indices[e.count // 2])
        block = cap._block_solve
        calls = []

        def cycling(table, n, exponent, cells, rhs):
            calls.append(cell in cells)
            x = block(table, n, exponent, cells, rhs)
            x[cells == cell] = -1.0
            return x

        cap._block_solve = cycling
        for solve in (classical_capacity, l2_capacity):
            calls.clear()
            try:
                solve(e, 0.5, SolverConfig(max_iterations=7))
            except ConvergenceError as exc:
                best = exc.best_estimate
                assert calls == [True, False] * 3 + [True], calls
                assert best.iterations == 7
                assert best.value > 0.0 and best.kkt_residual > 1e-8
            else:
                raise SystemExit(f"{solve.__name__}: no ConvergenceError")
        print("ok")
        """
    assert _run_isolated(script) == "ok"


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_l2_density_matches_direct_loop(n, rng):
    grid = CircleGrid(n)
    e = GridSet.from_arcs(grid, Arc(-1.1, 0.4)).union(
        GridSet.from_indices(grid, rng.choice(n, size=5, replace=False))
    )
    idx = e.indices
    kappa = kernel_column(n, 0.75)
    lam = rng.uniform(0.0, 2.0, size=len(idx))
    f = _finish_l2(e, 0.5, 0.75, lam, 0.0, 0).minimizer
    ref = oracles.l2_density_direct(np.asarray(kappa), idx, lam)
    assert np.max(np.abs(f - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_potential_on_set_matches_direct_loop(n, rng, solver):
    grid = CircleGrid(n)
    e = GridSet.from_arcs(grid, Arc(0.2, 2.0))
    kappa = np.asarray(kernel_column(n, 0.75))
    est = l2_capacity(e, 0.5, solver)
    ref = oracles.potential_direct(kappa, est.minimizer, e.indices)
    assert np.max(np.abs(potential_on_set(est, e) - ref)) <= 1e-12 * np.max(np.abs(ref))
    f = rng.uniform(0.0, 1.0, size=n)
    rough = CapacityEstimate(
        value=1.0, method="l2", alpha=0.5, grid_n=n, iterations=0,
        kkt_residual=0.0, energy_or_norm=1.0, minimizer=f,
    )
    ref = oracles.potential_direct(kappa, f, e.indices)
    assert np.max(np.abs(potential_on_set(rough, e) - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("scale", [0.5, -0.25])
def test_kernel_fault_scales_both_capacities(grid256, solver, scale):
    """The fault hook scales K by (1 + s) and G by (1 + s)^2, so the
    classical capacity becomes base / (1 + s) and the L2 capacity
    base / (1 + s)^2."""
    e = GridSet.from_arcs(grid256, Arc(-0.8, 1.1)).union(
        GridSet.from_arcs(grid256, Arc(2.0, 2.6))
    )
    c_base = classical_capacity(e, 0.5, solver).value
    l2_base = l2_capacity(e, 0.5, solver).value
    with kernel_fault(scale):
        c_fault = classical_capacity(e, 0.5, solver).value
        l2_fault = l2_capacity(e, 0.5, solver).value
    assert abs(c_fault - c_base / (1.0 + scale)) <= 1e-6 * c_fault
    assert abs(l2_fault - l2_base / (1.0 + scale) ** 2) <= 1e-6 * l2_fault


def _agreement_sets(grid):
    sets = {
        "full": GridSet.full(grid),
        "half": GridSet.from_arcs(grid, Arc(-math.pi / 2.0, math.pi / 2.0), mode="cover"),
        "two-arcs": GridSet.from_arcs(grid, Arc(0.3, 1.7)).union(
            GridSet.from_arcs(grid, Arc(-2.4, -1.9))
        ),
        "cantor-4": cantor_grid_set(CantorSpec(rule=PowerChoice(0.5), depth=4, offset=3), grid),
    }
    # an arc and scattered cells on each side of the dense/CG crossover
    k = capacity._CG_CELLS
    if grid.n_points > k + 1:
        scattered = np.random.default_rng(7).permutation(grid.n_points)
        for side, size in (("below", k), ("above", k + 1)):
            sets[f"arc-{side}"] = GridSet.from_indices(grid, np.arange(size) + 100)
            sets[f"scattered-{side}"] = GridSet.from_indices(grid, scattered[:size])
    return sets


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_capacities_match_dense_route(n, solver, monkeypatch):
    """The matrix-free solvers agree to 1e-9 relative with a direct dense
    solve (``oracles.capacity_value_dense``). Sets just above the
    crossover are solved by conjugate gradients, sets at it by the dense
    block."""
    cg_sizes = []
    cg = capacity._conjugate_gradient
    monkeypatch.setattr(
        capacity,
        "_conjugate_gradient",
        lambda apply, precondition, b: cg_sizes.append(len(b)) or cg(apply, precondition, b),
    )
    for name, e in _agreement_sets(CircleGrid(n)).items():
        cg_sizes.clear()
        idx = e.indices
        for exponent in (0.0, 0.25, 0.5):
            kappa = np.asarray(kernel_column(n, exponent))
            want = oracles.capacity_value_dense(kappa, idx, "classical")
            got = classical_capacity(e, exponent, solver).value
            assert abs(got - want) <= 1e-9 * want, (name, exponent, got, want)
        for alpha in (0.5, 1.0):
            kappa = np.asarray(kernel_column(n, kernel_exponents(alpha).l2_convolution))
            want = oracles.capacity_value_dense(kappa, idx, "l2")
            got = l2_capacity(e, alpha, solver).value
            assert abs(got - want) <= 1e-9 * want, (name, alpha, got, want)
        if name.endswith("-below"):
            assert cg_sizes == [], name
        if name.endswith("-above"):
            assert capacity._CG_CELLS + 1 in cg_sizes, name


def test_half_circle_certifies_on_first_solve(grid256, solver):
    """Equilibrium measures charge the whole set, so the polish, started
    on every cell, certifies on its first solve."""
    e = GridSet.from_arcs(grid256, Arc(-math.pi / 2.0, math.pi / 2.0), mode="cover")
    for est in (classical_capacity(e, 0.5, solver), l2_capacity(e, 0.5, solver)):
        assert est.iterations == 1
        assert est.kkt_residual <= solver.tolerance


def _two_arcs(grid):
    return GridSet.from_arcs(grid, Arc(0.3, 1.7)).union(GridSet.from_arcs(grid, Arc(-2.4, -1.9)))


@pytest.mark.parametrize(
    "solve, rule",
    [
        (classical_capacity, "frank_wolfe"),
        (classical_capacity, "projected_gradient"),
        (l2_capacity, "projected_gradient"),
    ],
)
def test_descent_fallback_reaches_tolerance(monkeypatch, grid256, solve, rule):
    """No descent stands behind the polish: whichever retired step rule
    the config names, the estimate is the default one, and a first solve
    that fails ends the solver with ConvergenceError and no estimate."""
    e = _two_arcs(grid256)
    cfg = SolverConfig(step_rule=rule)
    want, got = solve(e, 0.5), solve(e, 0.5, cfg)
    assert got.to_json() == want.to_json()
    assert np.array_equal(got.minimizer, want.minimizer)

    block = capacity._block_solve
    calls = []

    def first_fails(*args):
        calls.append(None)
        return None if len(calls) == 1 else block(*args)

    monkeypatch.setattr(capacity, "_block_solve", first_fails)
    with pytest.raises(ConvergenceError) as info:
        solve(e, 0.5, cfg)
    assert info.value.best_estimate is None
    assert len(calls) == 1


@pytest.mark.parametrize("solve", [classical_capacity, l2_capacity])
def test_polish_drops_and_readds_a_cell(monkeypatch, grid256, solver, solve):
    """A first solve with one entry negated makes the polish drop that
    cell; the residual of the next solve adds it back, and the third
    solve certifies the unperturbed value."""
    e = _two_arcs(grid256)
    want = solve(e, 0.5, solver)
    j = e.count // 2
    block = capacity._block_solve
    active = []

    def first_negated(table, n, exponent, cells, rhs):
        x = block(table, n, exponent, cells, rhs)
        if not active:
            x[j] = -x[j]
        active.append(cells)
        return x

    monkeypatch.setattr(capacity, "_block_solve", first_negated)
    est = solve(e, 0.5, solver)
    assert [e.indices[j] in cells for cells in active] == [True, False, True]
    assert est.iterations == 3
    assert est.kkt_residual <= solver.tolerance
    assert abs(est.value - want.value) <= 1e-12 * want.value


def test_capacities_independent_of_thread_count():
    """Capacity JSON and minimizer bytes are the same with one and with
    two BLAS threads, on both sides of the dense/CG crossover and up to
    the 8192-cell full circle."""
    script = textwrap.dedent(
        """
        import hashlib, json
        import numpy as np
        from circle_potential import Arc, CircleGrid, GridSet, classical_capacity, l2_capacity

        grid, large = CircleGrid(4096), CircleGrid(8192)
        out = []
        for est in (
            classical_capacity(GridSet.full(grid), 0.5),
            l2_capacity(GridSet.from_arcs(grid, Arc(-1.5, 1.5)), 0.5),
            classical_capacity(GridSet.from_arcs(grid, Arc(0.2, 0.9)), 0.0),
            classical_capacity(GridSet.full(large), 0.5),
            l2_capacity(GridSet.from_indices(large, np.arange(7500)), 1.0),
        ):
            out.append([est.to_json(), hashlib.sha256(est.minimizer.tobytes()).hexdigest()])
        print(json.dumps(out, sort_keys=True))
        """
    )
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    base["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    outputs = []
    for threads in ("1", "2"):
        env = dict(base, CIRCLE_POTENTIAL_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, timeout=300, env=env
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert len(json.loads(outputs[0])) == 5
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "solve, rule",
    [
        (classical_capacity, "frank_wolfe"),
        (classical_capacity, "projected_gradient"),
        (l2_capacity, "projected_gradient"),
    ],
)
def test_conjugate_gradient_failure_falls_back(monkeypatch, grid256, solve, rule):
    """A conjugate-gradient solve that gives up fails the polish like a
    singular dense solve, and nothing falls back: given up on the first
    solve, ConvergenceError carries no estimate; given up after a solve
    with every entry positive, it carries that solve's uncertified
    estimate."""
    monkeypatch.setattr(capacity, "_CG_CELLS", 8)  # conjugate gradients on every polish
    e = _two_arcs(grid256)
    cfg = SolverConfig(step_rule=rule)
    want = solve(e, 0.5, cfg)
    assert want.iterations == 1

    cg = capacity._conjugate_gradient
    calls = []

    def first_gives_up(apply, precondition, b):
        calls.append(None)
        return None if len(calls) == 1 else cg(apply, precondition, b)

    monkeypatch.setattr(capacity, "_conjugate_gradient", first_gives_up)
    with pytest.raises(ConvergenceError) as info:
        solve(e, 0.5, cfg)
    assert info.value.best_estimate is None
    assert len(calls) == 1

    # drop a cell on the first solve, so the second re-adds it and the
    # third, which gives up, leaves the second's estimate
    j = e.count // 2
    calls.clear()

    def third_gives_up(apply, precondition, b):
        calls.append(None)
        if len(calls) == 3:
            return None
        x = cg(apply, precondition, b)
        if len(calls) == 1:
            x[j] = -x[j]
        return x

    monkeypatch.setattr(capacity, "_conjugate_gradient", third_gives_up)
    with pytest.raises(ConvergenceError) as info:
        solve(e, 0.5, cfg)
    best = info.value.best_estimate
    assert len(calls) == 3
    assert best.iterations == 2
    assert best.kkt_residual > cfg.tolerance
    assert 0.0 < best.value <= want.value  # the capacity of E less one cell


@pytest.mark.parametrize("solve, alpha", [(classical_capacity, 0.0), (l2_capacity, 1.0)])
def test_conjugate_gradient_is_preconditioned(monkeypatch, solve, alpha):
    """With the window's circulant as preconditioner, one polish of a half
    circle or a two-arc union at N = 8192 takes 7-13 operator products;
    unpreconditioned conjugate gradients took 209-238."""
    grid = CircleGrid(8192)
    sets = {
        "half": GridSet.from_arcs(grid, Arc(-math.pi / 2.0, math.pi / 2.0), mode="cover"),
        "two-arcs": GridSet.from_arcs(grid, Arc(0.3, 1.7)).union(
            GridSet.from_arcs(grid, Arc(-2.4, -1.9))
        ),
    }
    cg = capacity._conjugate_gradient
    products = []

    def counting(apply, precondition, b):
        def counted(p):
            products.append(None)
            return apply(p)

        return cg(counted, precondition, b)

    monkeypatch.setattr(capacity, "_conjugate_gradient", counting)
    for name, e in sets.items():
        products.clear()
        est = solve(e, alpha)
        assert est.iterations == 1, name
        assert 1 <= len(products) <= 40, (name, len(products))


def test_full_circle_polish_skips_conjugate_gradient(monkeypatch):
    """On all n cells the window circulant is M itself, so the polish
    solves by the preconditioner alone, certified by the full residual."""
    calls = []
    monkeypatch.setattr(capacity, "_conjugate_gradient", lambda *args: calls.append(args))
    full = GridSet.full(CircleGrid(4096))
    for est in (classical_capacity(full, 0.5), l2_capacity(full, 1.0)):
        assert est.iterations == 1, est.method
        assert est.kkt_residual <= 1e-14, (est.method, est.kkt_residual)
    want = 4096 / float(np.sum(kernel_column(4096, 0.5)))
    assert abs(classical_capacity(full, 0.5).value - want) <= 1e-12 * want
    assert not calls


def test_conjugate_gradient_refuses_indefinite_preconditioner(rng):
    """A preconditioner with r^T P^-1 r <= 0 ends the solve with None, like
    nonpositive curvature; an SPD one solves the system."""
    q = rng.standard_normal((6, 6))
    a = q @ q.T + 6.0 * np.eye(6)
    b = rng.standard_normal(6)
    x = capacity._conjugate_gradient(lambda p: a @ p, lambda r: r / np.diag(a), b)
    assert np.allclose(a @ x, b, rtol=0.0, atol=1e-12 * np.linalg.norm(b))
    assert capacity._conjugate_gradient(lambda p: a @ p, lambda r: -r, b) is None
    assert capacity._conjugate_gradient(lambda p: a @ p, np.zeros_like, b) is None


def test_capacities_at_65536_cells():
    """At N = 65536 the full circle's equilibrium measure is uniform, so
    its classical capacity is N / sum(kernel column); a half circle
    (conjugate gradients) and a depth-6 Cantor set (dense block)
    certify on their first solve."""
    n = 65536
    grid = CircleGrid(n)
    for exponent in (0.0, 0.5):
        want = n / float(np.sum(kernel_column(n, exponent)))
        est = classical_capacity(GridSet.full(grid), exponent)
        assert est.iterations == 1
        assert abs(est.value - want) <= 1e-12 * want, (exponent, est.value, want)
    half = GridSet.from_arcs(grid, Arc(-math.pi / 2.0, math.pi / 2.0), mode="cover")
    cantor = cantor_grid_set(CantorSpec(rule=PowerChoice(0.5), depth=6, offset=3), grid)
    for e in (half, cantor):
        for est in (classical_capacity(e, 0.5), l2_capacity(e, 1.0)):
            assert est.iterations == 1, (e.count, est.method)
            assert est.kkt_residual <= SolverConfig().tolerance
            assert est.value > 0.0
