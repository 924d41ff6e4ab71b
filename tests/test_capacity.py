import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import oracles
from circle_potential import (
    Arc,
    ArcFamily,
    BoundarySamples,
    CapacityEstimate,
    CircleGrid,
    ConvergenceError,
    DiscreteMeasure,
    FourierCoeffs,
    GridSet,
    PreconditionError,
    SeriesDiagnostic,
    SolverConfig,
    classical_capacity,
    comparability_report,
    kernel_exponents,
    l2_capacity,
    mu_energy,
)
from circle_potential import capacity, energy
from circle_potential._threads import _BLAS_VARS
from circle_potential.cli import main
from circle_potential.energy import _table, _window, kernel_column, kernel_fault
from circle_potential.uniqueness import CantorSpec, PowerChoice, cantor_grid_set, log_reciprocal_arcs


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
    assert asdict(SolverConfig()) == {"tolerance": 1e-8}
    with pytest.raises(PreconditionError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(PreconditionError):
        SolverConfig(tolerance=math.nan)


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
    cfg = SolverConfig(tolerance=1e-30)
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
    pot = oracles.potential_on_set(est, e)
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
        oracles.potential_on_set(est, GridSet.full(grid64))


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
    """A capacity whose solve fails has nothing behind it: each solver
    raises ConvergenceError without an estimate after one attempt instead
    of trying again, on every route of ``_block_solve``. The solve fails
    as a whole (``_block_solve`` gives None) and, on each route that can
    fail, inside it: the pivoted Cholesky of the block route and of the
    dense route reports a rank below k, the Levinson recursion finds the
    system singular and conjugate gradients give up."""
    script = """
        import numpy as np
        from scipy import linalg
        import circle_potential.capacity as cap
        from circle_potential import (
            CircleGrid, ConvergenceError, GridSet, SolverConfig,
            classical_capacity, l2_capacity,
        )

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        def rank_deficient(a, **kwargs):
            return a, np.arange(1, len(a) + 1, dtype=np.int32), 0, 1

        grid = CircleGrid(4096)
        routes = {  # route: (a set it takes, the module attribute that fails inside it)
            "block": (GridSet.full(CircleGrid(64)), (cap, "_pstrf", rank_deficient)),
            "Levinson": (GridSet.from_indices(grid, 100 + np.arange(100)),
                         (linalg, "solve_toeplitz", singular)),
            "dense": (GridSet.from_indices(grid, np.r_[100:150, 300:350]),
                      (cap, "_pstrf", rank_deficient)),
            "conjugate gradients": (GridSet.from_indices(grid, np.arange(600)),
                                    (cap, "_conjugate_gradient", lambda *args: None)),
            "full circle": (GridSet.full(grid), None),
        }
        block_solve, calls = cap._block_solve, []
        whole = (cap, "_block_solve", lambda *args: calls.append(args))  # every solve fails
        cap._block_solve = lambda *args: calls.append(args) or block_solve(*args)
        for route, (e, inside) in routes.items():
            for module, name, fault in filter(None, (whole, inside)):
                kept = getattr(module, name)
                setattr(module, name, fault)
                for solve in (classical_capacity, l2_capacity):
                    calls.clear()
                    try:
                        solve(e, 0.5)
                    except ConvergenceError as exc:
                        assert exc.best_estimate is None, (route, name)
                        assert len(calls) == 1, (route, name, len(calls))
                    else:
                        raise SystemExit(f"{route}, {name}, {solve.__name__}: no ConvergenceError")
                setattr(module, name, kept)
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
    f = CapacityEstimate(value=1.0, method="l2", alpha=0.5, grid_n=n, iterations=0, kkt_residual=0.0,
                         energy_or_norm=1.0, cells=idx, weights=lam).minimizer
    ref = oracles.l2_density_direct(np.asarray(kappa), idx, lam)
    assert np.max(np.abs(f - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_potential_on_set_matches_direct_loop(n, rng, solver):
    grid = CircleGrid(n)
    e = GridSet.from_arcs(grid, Arc(0.2, 2.0))
    kappa = np.asarray(kernel_column(n, 0.75))
    est = l2_capacity(e, 0.5, solver)
    ref = oracles.potential_direct(kappa, est.minimizer, e.indices)
    assert np.max(np.abs(oracles.potential_on_set(est, e) - ref)) <= 1e-12 * np.max(np.abs(ref))
    f = rng.uniform(0.0, 1.0, size=n)
    ref = oracles.potential_direct(kappa, f, e.indices)
    assert np.max(np.abs(oracles.density_potential(f, 0.5, e) - ref)) <= 1e-12 * np.max(np.abs(ref))


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


def _one_run_sets(grid):
    """Sets that are one cyclic run of cells: an arc across -pi (two
    sorted runs), one cell, and, where the grid has room, runs across -pi
    of exactly _BLOCK_CELLS cells, one more, and exactly _CG_CELLS
    cells."""
    n = grid.n_points
    sets = {
        "arc-across-pi": GridSet.from_arcs(grid, Arc(2.9, -2.7)),
        "single-cell": GridSet.from_indices(grid, [n - 1]),
    }
    for name, k in (("at-block-crossover", capacity._BLOCK_CELLS),
                    ("above-block-crossover", capacity._BLOCK_CELLS + 1),
                    ("at-crossover", capacity._CG_CELLS)):
        if n > k:
            sets[f"run-across-pi-{name}"] = GridSet.from_indices(grid, (np.arange(k) - k // 2) % n)
    return sets


def _agreement_sets(grid):
    sets = {
        "full": GridSet.full(grid),
        "half": GridSet.from_arcs(grid, Arc(-math.pi / 2.0, math.pi / 2.0), mode="cover"),
        "two-arcs": GridSet.from_arcs(grid, Arc(0.3, 1.7)).union(
            GridSet.from_arcs(grid, Arc(-2.4, -1.9))
        ),
        "cantor-4": cantor_grid_set(CantorSpec(rule=PowerChoice(0.5), depth=4, offset=3), grid),
        **_one_run_sets(grid),
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
    crossover are solved by conjugate gradients, sets at it by Levinson
    recursion (one run) or the dense block (scattered cells)."""
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


def _capacity_matches_dense(e, solver):
    """Assert both capacities of e agree with the dense oracle to 1e-9
    at classical exponents 0, 0.25, 0.5 and L2 alpha 0.5, 1."""
    n, idx = e.grid.n_points, e.indices
    for exponent in (0.0, 0.25, 0.5):
        kappa = np.asarray(kernel_column(n, exponent))
        want = oracles.capacity_value_dense(kappa, idx, "classical")
        got = classical_capacity(e, exponent, solver).value
        assert abs(got - want) <= 1e-9 * want, (e.count, exponent, got, want)
    for alpha in (0.5, 1.0):
        kappa = np.asarray(kernel_column(n, kernel_exponents(alpha).l2_convolution))
        want = oracles.capacity_value_dense(kappa, idx, "l2")
        got = l2_capacity(e, alpha, solver).value
        assert abs(got - want) <= 1e-9 * want, (e.count, alpha, got, want)


@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
def test_one_run_sets_take_toeplitz_route(n, solver, monkeypatch):
    """A set that is one cyclic run of more than _BLOCK_CELLS and at most
    _CG_CELLS cells is solved as a Toeplitz system: no dense block is
    formed, no conjugate gradients run and one window is made per solve,
    across -pi too. One of at most _BLOCK_CELLS cells takes the block
    route instead: one block per solve, no Levinson call and no window.
    Both capacities agree to 1e-9 with the dense oracle on each (at N =
    4096 as well, with the run of exactly _CG_CELLS cells at exponent 0
    the worst-conditioned case)."""
    routes = []
    block, cg, toeplitz = capacity._circulant_block, capacity._conjugate_gradient, capacity.linalg.solve_toeplitz
    monkeypatch.setattr(capacity, "_circulant_block",
                        lambda *args: routes.append("block") or block(*args))
    monkeypatch.setattr(capacity, "_conjugate_gradient",
                        lambda *args: routes.append("cg") or cg(*args))
    monkeypatch.setattr(capacity.linalg, "solve_toeplitz",
                        lambda *args, **kw: routes.append("levinson") or toeplitz(*args, **kw))
    monkeypatch.setattr(capacity, "_window",
                        lambda n, cells: routes.append("window") or _window(n, cells))
    for name, e in _one_run_sets(CircleGrid(n)).items():
        routes.clear()
        _capacity_matches_dense(e, solver)
        want = ["block"] if e.count <= capacity._BLOCK_CELLS else ["window", "levinson"]
        assert routes == want * 5, (name, routes)


def test_several_runs_keep_the_dense_block(monkeypatch, solver):
    """_CG_CELLS cells in two runs are still solved by the dense block,
    and the same count in one run is not."""
    grid, k = CircleGrid(1024), capacity._CG_CELLS
    sizes = []
    block = capacity._circulant_block
    monkeypatch.setattr(capacity, "_circulant_block",
                        lambda table, n, exponent, cells: sizes.append(len(cells))
                        or block(table, n, exponent, cells))
    halves = np.arange(k // 2)
    two_runs = GridSet.from_indices(grid, np.concatenate([halves, 600 + halves]))
    for e, want in ((two_runs, [k]), (GridSet.from_indices(grid, 300 + np.arange(k)), [])):
        for solve in (classical_capacity, l2_capacity):
            sizes.clear()
            solve(e, 0.5, solver)
            assert sizes == want, (e.count, solve.__name__, sizes)


def test_block_route_matches_the_kept_routes(monkeypatch, solver):
    """Sets of at most _BLOCK_CELLS cells solved and certified on their
    formed block agree with the routes they would take without it
    (``_BLOCK_CELLS`` = 0): Levinson on one run, across -pi too, and the
    dense factorization with the FFT certificate on several runs. For k =
    1 to _BLOCK_CELLS + 1 cells, both capacities agree to 1e-12 relative
    and both certificates are within the tolerance; the block route
    makes no window and the kept routes one."""
    n = 4096
    grid = CircleGrid(n)
    windows = []
    monkeypatch.setattr(capacity, "_window", lambda n, cells: windows.append(None) or _window(n, cells))
    for k in range(1, capacity._BLOCK_CELLS + 2):
        shapes = {"one-run": 100 + np.arange(k), "across-pi": (np.arange(k) - k // 2) % n}
        if k > 1:
            shapes["two-runs"] = np.concatenate([10 + np.arange(k // 2), 150 + np.arange(k - k // 2)])
            shapes["every-third-cell"] = 30 + 3 * np.arange(k)
        for name, cells in shapes.items():
            e = GridSet.from_indices(grid, cells)
            for solve, alpha in ((classical_capacity, 0.0), (classical_capacity, 0.5),
                                 (l2_capacity, 0.5), (l2_capacity, 1.0)):
                windows.clear()
                got = solve(e, alpha, solver)
                assert len(windows) == (k > capacity._BLOCK_CELLS), (k, name)
                with monkeypatch.context() as m:
                    m.setattr(capacity, "_BLOCK_CELLS", 0)
                    want = solve(e, alpha, solver)
                assert abs(got.value - want.value) <= 1e-12 * want.value, (k, name, solve.__name__, alpha)
                assert max(got.kkt_residual, want.kkt_residual) <= solver.tolerance, (k, name)


def test_half_circle_certifies_on_first_solve(grid256, solver):
    """Equilibrium measures charge the whole set, so one solve on every
    cell certifies."""
    e = GridSet.from_arcs(grid256, Arc(-math.pi / 2.0, math.pi / 2.0), mode="cover")
    for est in (classical_capacity(e, 0.5, solver), l2_capacity(e, 0.5, solver)):
        assert est.iterations == 1
        assert est.kkt_residual <= solver.tolerance


def _two_arcs(grid):
    return GridSet.from_arcs(grid, Arc(0.3, 1.7)).union(GridSet.from_arcs(grid, Arc(-2.4, -1.9)))


def _inverse_circulant(table, n, exponent):
    """The first column a of the inverse of the full n x n circulant of a
    table, by one FFT, and the rounding scale of its entries,
    eps log2(n) max |1 / rfft(t)|."""
    spec_inv = 1.0 / np.fft.rfft(_table(table, n, exponent))
    scale = np.finfo(float).eps * math.log2(n) * float(np.max(np.abs(spec_inv)))
    return np.fft.irfft(spec_inv, n), scale


# The tables the module docstring's proof covers: kernel tables at
# s = 0.05 to 0.99 and the L2 tables at alpha = 1e-3 to 1.
_PROVED_TABLES = [
    *(("kernel", s) for s in (0.05, 0.1, 0.25, 0.5, 0.9, 0.99)),
    *(("autocorr", kernel_exponents(a).l2_convolution) for a in (1e-3, 0.25, 0.5, 1.0)),
]


@pytest.mark.parametrize("n", [64, 256, 1024, 4096, 65536])
def test_inverse_circulant_is_an_m_matrix(n):
    """The proof that one solve suffices rests on a sign pattern: the
    inverse of the full circulant has off-diagonal entries <= 0. On every
    proved table each such entry is negative by more than its rounding
    scale, so not by rounding (the entries are tiny: down to -1.4e-23,
    L2 at alpha = 1e-3 and N = 65536, yet at least 5e4 times that
    scale). The log kernel (s = 0) has entries above the scale, which is
    why positivity there is observed, not proved."""
    for table, exponent in _PROVED_TABLES:
        a, scale = _inverse_circulant(table, n, exponent)
        assert np.max(a[1:]) < -scale, (table, exponent, np.max(a[1:]), scale)
    a, scale = _inverse_circulant("kernel", n, 0.0)
    assert np.max(a[1:]) > scale, (np.max(a[1:]), scale)


def _bound_sets(grid, rng):
    """Scattered cells, an arc and clusters of short arcs, each at a size
    below and one above the dense/CG crossover where the grid has room."""
    n = grid.n_points
    sets = []
    for k in (3, 40, 300, 700):
        if k >= n // 2:
            continue
        sets.append(GridSet.from_indices(grid, rng.permutation(n)[:k]))
        sets.append(GridSet.from_indices(grid, (int(rng.integers(n)) + np.arange(k)) % n))
        starts = rng.choice(n, size=max(1, k // 20), replace=False)
        sets.append(GridSet.from_indices(grid, np.unique((starts[:, None] + np.arange(20)) % n)))
    return sets


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_one_solve_meets_the_m_matrix_bound(n):
    """On a proved table every solution y = M_EE^-1 rhs of a capacity is
    at least rhs / sum(t) entrywise (the module docstring's bound), up to
    the solve's precision, on scattered, arc and clustered sets; at
    s = 0, where the bound is not proved, the solution stays positive."""
    grid, rng = CircleGrid(n), np.random.default_rng(n)
    sets = _bound_sets(grid, rng)
    for table, exponent in [*_PROVED_TABLES, ("kernel", 0.0)]:
        rhs = 1.0 if table == "kernel" else 2.0 * n
        total = float(np.sum(_table(table, n, exponent)))
        for e in sets:
            y, _ = capacity._block_solve(table, n, exponent, e.indices, rhs)
            if exponent == 0.0:
                assert np.min(y) > 0.0, e.count
            else:
                assert np.min(y) * total / rhs >= 1.0 - 1e-9, (table, exponent, e.count)


def _dense_block_sets():
    """Depth-2 and depth-4 Cantor sets of 13 to 505 cells and 8 to 512
    scattered cells: none is one cyclic run, so ``_block_solve`` factors
    the dense block of each (by the block route up to _BLOCK_CELLS
    cells)."""
    sets = []
    for n, depth, width in ((4096, 2, 0.02), (1024, 4, 0.5), (4096, 4, 1.0), (4096, 4, 2.0), (4096, 4, 2.2)):
        spec = CantorSpec(rule=PowerChoice(0.5), depth=depth, host=Arc.centered(0.7, width),
                          offset=3, scale_to_host=True)
        sets.append(cantor_grid_set(spec, CircleGrid(n)))
    scattered = np.random.default_rng(29).permutation(4096)
    sets += [GridSet.from_indices(CircleGrid(4096), scattered[:k]) for k in (8, 64, 256, 512)]
    return sets


def test_dense_block_solve_matches_bunch_kaufman(monkeypatch):
    """The pivoted Cholesky solve of a dense block agrees to 1e-12
    relative with the Bunch-Kaufman solve it replaced
    (``oracles.block_solve_bunch_kaufman``), on the kernel table at
    exponents 0, 0.25 and 0.5 and on the autocorrelation table at the
    L2 exponents of alpha 1 and 0.5."""
    factored = []
    pstrf = capacity._pstrf
    monkeypatch.setattr(capacity, "_pstrf", lambda a, **kw: factored.append(len(a)) or pstrf(a, **kw))
    sets = _dense_block_sets()
    assert [e.count for e in sets] == [13, 42, 238, 458, 505, 8, 64, 256, 512]
    for e in sets:
        n, cells = e.grid.n_points, e.indices
        for table, exponent, rhs in (("kernel", 0.0, 1.0), ("kernel", 0.25, 1.0), ("kernel", 0.5, 1.0),
                                     ("autocorr", 0.5, 2.0 * n), ("autocorr", 0.75, 2.0 * n)):
            want = oracles.block_solve_bunch_kaufman(
                oracles.restricted_dense(_table(table, n, exponent), cells, n), rhs)
            got, _ = capacity._block_solve(table, n, exponent, cells, rhs)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (e.count, table, exponent)
        assert factored[-5:] == [e.count] * 5


@pytest.mark.parametrize("solve", [classical_capacity, l2_capacity])
def test_rank_deficient_block_fails_the_polish(monkeypatch, solve):
    """A dense block of rank below k (all ones) makes ``_block_solve``
    return None, so the solve fails and the capacity raises
    ConvergenceError with no estimate, as on a singular block before: on
    the block route (42 cells) and on the dense route (238 cells)."""
    monkeypatch.setattr(capacity, "_circulant_block",
                        lambda table, n, exponent, cells: np.ones((len(cells), len(cells))))
    for e in _dense_block_sets()[1:3]:
        n, cells = e.grid.n_points, e.indices
        assert capacity._block_solve("kernel", n, 0.5, cells, 1.0) is None
        with pytest.raises(ConvergenceError) as info:
            solve(e, 0.5)
        assert info.value.best_estimate is None


@pytest.mark.parametrize(
    "solve, rule",
    [
        (classical_capacity, "frank_wolfe"),
        (classical_capacity, "projected_gradient"),
        (l2_capacity, "projected_gradient"),
    ],
)
def test_descent_fallback_reaches_tolerance(monkeypatch, grid256, solve, rule):
    """No descent stands behind the solve: whichever retired step rule
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
def test_nonpositive_entry_raises_without_estimate(monkeypatch, capsys, grid256, solve):
    """A solve with an entry <= 0, which no set has given, raises
    ConvergenceError naming that grid cell, with no estimate, after
    exactly that one solve; the command line exits 3."""
    e = _two_arcs(grid256)
    j = e.count // 2
    block = capacity._block_solve
    calls = []

    def one_negated(*args):
        calls.append(None)
        x, mx = block(*args)
        x[j] = -x[j]
        return x, mx

    monkeypatch.setattr(capacity, "_block_solve", one_negated)
    with pytest.raises(ConvergenceError, match=rf"<= 0 at grid cell {e.indices[j]}$") as info:
        solve(e, 0.5)
    assert info.value.best_estimate is None
    assert len(calls) == 1
    method = "classical" if solve is classical_capacity else "l2"
    code = main(["capacity", "--method", method, "--alpha", "0.5", "--set", "half", "--grid-n", "256"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert "<= 0 at grid cell" in err


def test_capacities_independent_of_thread_count():
    """Capacity JSON and minimizer bytes are the same with one and with
    two BLAS threads on every route of ``_block_solve``: the block route
    (a 34-cell arc and three 9-cell spikes, classical and L2), Levinson
    (an arc below the crossover), the dense block (a depth-4 Cantor set
    of 458 cells in 16 runs, classical and L2), conjugate gradients (arcs
    above the crossover) and the preconditioner alone (the full circle),
    up to 8192 cells."""
    script = textwrap.dedent(
        """
        import hashlib, json
        import numpy as np
        from circle_potential import (Arc, ArcFamily, CantorSpec, CircleGrid, GridSet, PowerChoice,
                                      cantor_grid_set, classical_capacity, l2_capacity)

        grid, large = CircleGrid(4096), CircleGrid(8192)
        spec = CantorSpec(rule=PowerChoice(0.5), depth=4, host=Arc.centered(0.7, 2.0),
                          offset=3, scale_to_host=True)
        cantor = cantor_grid_set(spec, grid)
        assert len(cantor.indices) == 458
        small_arc = GridSet.from_arcs(grid, Arc.centered(0.3, 0.05))
        spikes = GridSet.from_arcs(grid, ArcFamily(tuple(Arc.centered(-0.4 + 0.3 * j, 0.012) for j in range(3))))
        assert (small_arc.count, spikes.count) == (34, 27)
        out = []
        for est in (
            classical_capacity(small_arc, 0.0),
            l2_capacity(small_arc, 0.5),
            classical_capacity(spikes, 0.5),
            l2_capacity(spikes, 1.0),
            classical_capacity(GridSet.full(grid), 0.5),
            l2_capacity(GridSet.from_arcs(grid, Arc(-1.5, 1.5)), 0.5),
            classical_capacity(GridSet.from_arcs(grid, Arc(0.2, 0.9)), 0.0),
            classical_capacity(cantor, 0.5),
            l2_capacity(cantor, 0.5),
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
    assert len(json.loads(outputs[0])) == 11
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("solve", [classical_capacity, l2_capacity])
def test_conjugate_gradient_failure_falls_back(monkeypatch, grid256, solve):
    """A conjugate-gradient solve that gives up fails the capacity like a
    singular dense solve, and nothing falls back: ConvergenceError
    carries no estimate."""
    monkeypatch.setattr(capacity, "_CG_CELLS", 8)  # conjugate gradients on every solve
    e = _two_arcs(grid256)
    assert solve(e, 0.5).iterations == 1

    cg = capacity._conjugate_gradient
    calls = []

    def first_gives_up(apply, precondition, b):
        calls.append(None)
        return None if len(calls) == 1 else cg(apply, precondition, b)

    monkeypatch.setattr(capacity, "_conjugate_gradient", first_gives_up)
    with pytest.raises(ConvergenceError) as info:
        solve(e, 0.5)
    assert info.value.best_estimate is None
    assert len(calls) == 1


@pytest.mark.parametrize("solve, alpha", [(classical_capacity, 0.0), (l2_capacity, 1.0)])
def test_conjugate_gradient_is_preconditioned(monkeypatch, solve, alpha):
    """With the window's circulant as preconditioner, one solve of a half
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
    """On all n cells the window circulant is M itself, so the capacity
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


def _polish_sets(grid):
    """An arc pair, a depth-4 Cantor set (48 cells in 16 runs at 4096
    cells, the block route) and 600 scattered cells."""
    return {
        "arc-pair": _two_arcs(grid),
        "cantor-4": cantor_grid_set(CantorSpec(rule=PowerChoice(0.5), depth=4, offset=3), grid),
        "scattered": GridSet.from_indices(grid, np.random.default_rng(18).permutation(grid.n_points)[:600]),
    }


@pytest.mark.parametrize("cg_cells", [capacity._CG_CELLS, 8])
def test_polish_window_matches_gap_search(monkeypatch, cg_cells):
    """A capacity on an FFT route makes one window of its cells, for its
    solve's conjugate-gradient products and its residual product; one on
    the block route (at most _BLOCK_CELLS cells) makes none. Driven
    instead by ``oracles.circulant_apply_gap_search``, which searches the
    window again on every product, both capacities give the same bytes:
    value, report and minimizer. With _CG_CELLS = 8 every solve of more
    than _BLOCK_CELLS cells takes conjugate gradients."""
    grid = CircleGrid(4096)
    monkeypatch.setattr(capacity, "_CG_CELLS", cg_cells)
    for name, e in _polish_sets(grid).items():
        for solve, alpha in ((classical_capacity, 0.5), (l2_capacity, 1.0)):
            windows = []
            with monkeypatch.context() as m:
                for module in (capacity, energy):
                    m.setattr(module, "_window", lambda n, cells: windows.append(None) or _window(n, cells))
                got = solve(e, alpha)
            want_windows = 0 if e.count <= capacity._BLOCK_CELLS else 1
            assert len(windows) == want_windows, (name, solve.__name__, len(windows))
            with monkeypatch.context() as m:
                m.setattr(capacity, "_window", lambda n, cells: cells)
                m.setattr(capacity, "_circulant_apply", oracles.circulant_apply_gap_search)
                want = solve(e, alpha)
            assert got.to_json() == want.to_json(), (name, solve.__name__)
            assert got.minimizer.tobytes() == want.minimizer.tobytes(), (name, solve.__name__)


def test_l2_capacity_uses_the_polish_product(monkeypatch):
    """The L2 value takes G lam from the certificate product that
    ``_block_solve`` returns with lam: on an FFT route the product over
    the cells' window, on the block route the formed block times lam.
    On every route it is that product recomputed from lam, bit for bit
    (over a window made afresh, or a block formed afresh), and so is the
    value sum(lam) - lam^T G lam / (4N)."""
    block_solve = capacity._block_solve
    seen = []

    def recorded(*args):
        out = block_solve(*args)
        seen.append((args, out))
        return out

    monkeypatch.setattr(capacity, "_block_solve", recorded)
    grid = CircleGrid(4096)
    sets = (*_polish_sets(grid).values(), GridSet.from_indices(grid, 300 + np.arange(100)), GridSet.full(grid))
    routes = set()
    for e in sets:
        seen.clear()
        est = l2_capacity(e, 0.75)
        [((table, n, exponent, cells, _), (lam, g_lam))] = seen
        assert table == "autocorr" and lam is est.weights
        if len(cells) <= capacity._BLOCK_CELLS:
            again = capacity._circulant_block(table, n, exponent, cells) @ lam
        else:
            again = capacity._circulant_apply(table, n, exponent, e.indices, lam)
        routes.add(len(cells) <= capacity._BLOCK_CELLS)
        assert g_lam.tobytes() == again.tobytes()
        assert est.value == float(np.sum(lam) - np.sum(lam * again) / (4.0 * n))
    assert routes == {True, False}


def test_comparability_l2_is_l2_capacity_exactly():
    """``comparability_report`` reports the float ``l2_capacity`` does: spike arcs, arcs and a Cantor set, by
    the block route, Levinson and conjugate gradients."""
    grid = CircleGrid(4096)
    spikes = ArcFamily(tuple(Arc.centered(-0.4 + 0.3 * j, 0.012) for j in range(3)))
    sets = [
        GridSet.from_arcs(grid, spikes),
        GridSet.from_arcs(grid, Arc.centered(1.0, 0.3)),
        cantor_grid_set(CantorSpec(rule=PowerChoice(0.5), depth=4, offset=3), grid),
        GridSet.from_arcs(grid, Arc.centered(0.0, 1.0)),
    ]
    assert min(e.count for e in sets) <= capacity._CG_CELLS < max(e.count for e in sets)
    for e in sets:
        for beta in (0.5, 1.0):
            assert comparability_report(e, beta).c_l2 == l2_capacity(e, beta).value


def _tiny_exponent_sets():
    """The sets on which classical capacities at exponents near 0 stopped
    certifying: three cells and two cells at N = 64, an arc at 256, 300
    scattered cells at 1024 (dense route) and the 1,957-cell half circle
    at 4096 (conjugate gradients)."""
    return {
        "three cells": GridSet.from_indices(CircleGrid(64), [31, 32, 33]),
        "two cells": GridSet.from_indices(CircleGrid(64), [10, 40]),
        "arc": GridSet.from_arcs(CircleGrid(256), Arc(0.3, 1.7)),
        "scattered": GridSet.from_indices(CircleGrid(1024),
                                          np.random.default_rng(0).permutation(1024)[:300]),
        "half": GridSet.from_arcs(CircleGrid(4096), Arc(-1.5, 1.5)),
    }


def test_tiny_classical_exponents_are_refused():
    """0 < s < S_MIN is refused, as chord^(-s) tends to 1 there and not to
    the logarithmic kernel of s = 0; at S_MIN every set certifies on its
    first solve, with a capacity just below 1, and s = 0 stays valid."""
    sets = _tiny_exponent_sets()
    assert sets["half"].count == 1957
    for name, e in sets.items():
        for s in (1e-20, 1e-12, capacity.S_MIN / 2.0):
            with pytest.raises(PreconditionError, match="S_MIN"):
                classical_capacity(e, s)
        est = classical_capacity(e, capacity.S_MIN)
        assert est.iterations == 1, name
        assert est.kkt_residual <= SolverConfig().tolerance, name
        assert 1.0 - 1e-7 < est.value < 1.0, (name, est.value)
        assert classical_capacity(e, 0.0).iterations == 1, name
    with pytest.raises(PreconditionError, match="S_MIN"):
        classical_capacity(GridSet.empty(CircleGrid(64)), 1e-20)


def _arc_estimate():
    return classical_capacity(GridSet.from_arcs(CircleGrid(256), Arc.centered(0.3, 0.4)), 0.5)


@pytest.mark.parametrize(
    "make",
    [
        _arc_estimate,
        lambda: GridSet.from_arcs(CircleGrid(256), Arc.centered(0.3, 0.4)),
        lambda: BoundarySamples(CircleGrid(256), np.linspace(0.0, 1.0, 256)),
        lambda: DiscreteMeasure(CircleGrid(256), np.full(256, 1.0 / 256)),
        lambda: SeriesDiagnostic(partial_sums=np.arange(1.0, 5.0), trend="grows", fit={}, start_index=1),
        lambda: FourierCoeffs({0: 1 + 0j}, 4),
        lambda: ArcFamily([Arc.centered(0.3, 0.4)]),
    ],
    ids=["CapacityEstimate", "GridSet", "BoundarySamples", "DiscreteMeasure", "SeriesDiagnostic",
         "FourierCoeffs", "ArcFamily"],
)
def test_array_holding_dataclasses_compare_by_identity(make):
    """The public frozen dataclasses that hold numpy arrays (or, for
    FourierCoeffs, a dict) compare and hash by identity, as ArcFamily
    does: a generated == would compare the arrays and raise "truth value
    of an array ... is ambiguous", and the generated hash would hash
    them (or the dict) and raise TypeError. Two objects built
    alike are distinct; an object equals itself and finds itself in a
    list and a set."""
    a, b = make(), make()
    assert a == a and not (a == b) and a != b
    assert a in [a] and a not in [b]
    assert hash(a) == hash(a)
    assert len({a, a, b}) == 2


def test_arc_family_compares_without_building_arcs():
    """Comparing and hashing a family builds none of its Arc objects, so
    they cost O(1) at any size (value equality built all 10^5 of them)."""
    fam, twin = log_reciprocal_arcs(100_000), log_reciprocal_arcs(100_000)
    assert fam == fam and fam != twin and hash(fam) == hash(fam)
    assert "arcs" not in vars(fam) and "arcs" not in vars(twin)


@pytest.mark.parametrize("solve", [classical_capacity, l2_capacity])
@pytest.mark.parametrize("empty", [False, True], ids=["arc", "empty"])
def test_capacity_estimate_arrays_refuse_writes(solve, empty):
    """An estimate's cells, weights and minimizer are read-only, on a set
    and on the empty set: a write raises instead of changing what every
    later read sees."""
    grid = CircleGrid(256)
    e = GridSet.empty(grid) if empty else GridSet.from_arcs(grid, Arc.centered(0.3, 0.4))
    est = solve(e, 0.5)
    for name in ("cells", "weights", "minimizer"):
        arr = getattr(est, name)
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    assert est.minimizer is est.minimizer


_N = 4096
_GRID = CircleGrid(_N)


@pytest.mark.parametrize("make, field, inputs", [
    (lambda d: GridSet(_GRID, d), "mask",
     [[True] * _N, np.ones(_N, dtype=bool), np.ones(_N)]),
    (lambda d: BoundarySamples(_GRID, d), "values",
     [[0.5] * _N, np.full(_N, 0.5), np.full(_N, 0.5 + 1j)]),
    (lambda d: DiscreteMeasure(_GRID, d), "weights",
     [[1.0 / _N] * _N, np.full(_N, 1.0 / _N), np.full(_N, 1.0 / _N, dtype=np.float32)]),
    (lambda d: SeriesDiagnostic(partial_sums=d, trend="grows", fit={}, start_index=1),
     "partial_sums", [[0.5] * _N, np.full(_N, 0.5), np.arange(_N)]),
], ids=["GridSet", "BoundarySamples", "DiscreteMeasure", "SeriesDiagnostic"])
def test_constructors_own_one_read_only_copy(make, field, inputs):
    """Each array-holding constructor keeps one read-only copy of its
    input, whether given a list, an array of its own dtype or one it
    must cast, and makes no second: tracemalloc's peak over the call
    stays under 1.5 times the kept array (two copies read 2.0-2.1)."""
    for data in inputs:
        make(data)  # warm any one-time allocations
        tracemalloc.start()
        try:
            out = getattr(make(data), field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kind = type(data).__name__ if isinstance(data, list) else str(data.dtype)
        assert not out.flags.writeable and out.flags.owndata, kind
        assert not np.shares_memory(out, data), kind
        assert peak < 1.5 * out.nbytes, (kind, peak / out.nbytes)
