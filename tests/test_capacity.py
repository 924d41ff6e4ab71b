import json
import math
import os
import subprocess
import sys
import textwrap

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
from circle_potential.capacity import _finish_l2, potential_on_set, project_simplex
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


def test_solver_config_validation():
    with pytest.raises(PreconditionError):
        SolverConfig(step_rule="newton")
    with pytest.raises(PreconditionError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(PreconditionError):
        SolverConfig(tolerance=math.nan)
    with pytest.raises(PreconditionError):
        SolverConfig(max_iterations=0)


def test_project_simplex_properties(rng):
    for _ in range(50):
        v = rng.normal(size=int(rng.integers(1, 30)))
        w = project_simplex(v)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) < 1e-12
        # projection is idempotent on its image
        assert np.allclose(project_simplex(w), w, atol=1e-12)
    # a simplex point projects to itself
    p = np.array([0.2, 0.5, 0.3])
    assert np.allclose(project_simplex(p), p, atol=1e-15)


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


def test_classical_step_rules_agree(grid256, rng):
    e = GridSet.from_arcs(grid256, Arc(0.3, 1.7)).union(
        GridSet.from_arcs(grid256, Arc(-2.4, -1.9))
    )
    fw = classical_capacity(e, 0.5, SolverConfig(step_rule="frank_wolfe"))
    pg = classical_capacity(e, 0.5, SolverConfig(step_rule="projected_gradient"))
    assert abs(fw.value - pg.value) <= 1e-6 * fw.value


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


def test_stalled_solver_raises_instead_of_hanging():
    """With the active-set polish disabled, a Frank-Wolfe run that is
    already stationary takes no descent step; the solver must give up
    with ConvergenceError rather than repeat the same round forever.
    Runs in a subprocess so a hang fails the test instead of pytest."""
    script = textwrap.dedent(
        """
        import circle_potential.capacity as cap
        from circle_potential import (
            CircleGrid, ConvergenceError, GridSet, SolverConfig,
            classical_capacity, l2_capacity,
        )

        cap._kkt_polish = lambda *args, **kwargs: None
        e = GridSet.full(CircleGrid(64))
        for solve, rule in (
            (classical_capacity, "frank_wolfe"),
            (classical_capacity, "projected_gradient"),
            (l2_capacity, "frank_wolfe"),
        ):
            try:
                solve(e, 0.5, SolverConfig(max_iterations=1000, step_rule=rule))
            except ConvergenceError as exc:
                assert exc.best_estimate.value > 0.0
                assert exc.best_estimate.iterations <= 1000
            else:
                raise SystemExit(f"{solve.__name__} {rule}: no ConvergenceError")
        print("ok")
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


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
    solve on the k x k restricted matrices: classical capacity sum(x) for
    K x = 1, L2 capacity sum(lam) - lam^T G lam / (4N) for G lam = 2N.
    Sets just above the crossover are solved by conjugate gradients,
    sets at it by the dense block."""
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
            K = oracles.restricted_dense(kernel_column(n, exponent), idx, n)
            want = float(np.sum(oracles.capacity_dense(K, 1.0)))
            got = classical_capacity(e, exponent, solver).value
            assert abs(got - want) <= 1e-9 * want, (name, exponent, got, want)
        for alpha in (0.5, 1.0):
            kappa = np.asarray(kernel_column(n, kernel_exponents(alpha).l2_convolution))
            G = oracles.restricted_dense(oracles.autocorr_direct(kappa), idx, n)
            lam = oracles.capacity_dense(G, 2.0 * n)
            want = float(np.sum(lam) - lam @ (G @ lam) / (4.0 * n))
            got = l2_capacity(e, alpha, solver).value
            assert abs(got - want) <= 1e-9 * want, (name, alpha, got, want)
        if name.endswith("-below"):
            assert cg_sizes == [], name
        if name.endswith("-above"):
            assert capacity._CG_CELLS + 1 in cg_sizes, name


def test_half_circle_certifies_on_first_solve(grid256, solver):
    """Equilibrium measures charge the whole set, so the first polish,
    over every cell, certifies: one solve and no descent step."""
    e = GridSet.from_arcs(grid256, Arc(-math.pi / 2.0, math.pi / 2.0), mode="cover")
    for est in (classical_capacity(e, 0.5, solver), l2_capacity(e, 0.5, solver)):
        assert est.iterations == 1
        assert est.kkt_residual <= solver.tolerance


@pytest.mark.parametrize(
    "solve, rule",
    [
        (classical_capacity, "frank_wolfe"),
        (classical_capacity, "projected_gradient"),
        (l2_capacity, "projected_gradient"),
    ],
)
def test_descent_fallback_reaches_tolerance(monkeypatch, grid256, solve, rule):
    """When the first polish yields nothing, descent steps and the next
    polish still reach tolerance and the same value."""
    e = GridSet.from_arcs(grid256, Arc(0.3, 1.7)).union(
        GridSet.from_arcs(grid256, Arc(-2.4, -1.9))
    )
    cfg = SolverConfig(step_rule=rule)
    want = solve(e, 0.5, cfg).value
    polish = capacity._kkt_polish
    calls = []

    def first_fails(*args, **kwargs):
        calls.append(None)
        return None if len(calls) == 1 else polish(*args, **kwargs)

    monkeypatch.setattr(capacity, "_kkt_polish", first_fails)
    est = solve(e, 0.5, cfg)
    assert len(calls) >= 2
    assert est.iterations > 2
    assert est.kkt_residual <= cfg.tolerance
    assert abs(est.value - want) <= 1e-9 * want


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
    singular dense solve: descent then takes over and reaches the same
    value, and a solver whose every solve gives up still stops, with
    ConvergenceError on max_iterations."""
    monkeypatch.setattr(capacity, "_CG_CELLS", 8)  # conjugate gradients on every polish
    e = GridSet.from_arcs(grid256, Arc(0.3, 1.7)).union(
        GridSet.from_arcs(grid256, Arc(-2.4, -1.9))
    )
    cfg = SolverConfig(step_rule=rule)
    want = solve(e, 0.5, cfg)
    assert want.iterations == 1

    cg = capacity._conjugate_gradient
    calls = []

    def first_gives_up(apply, precondition, b):
        calls.append(None)
        return None if len(calls) == 1 else cg(apply, precondition, b)

    monkeypatch.setattr(capacity, "_conjugate_gradient", first_gives_up)
    est = solve(e, 0.5, cfg)
    assert len(calls) >= 2
    assert est.iterations > 2
    assert est.kkt_residual <= cfg.tolerance
    assert abs(est.value - want.value) <= 1e-9 * want.value

    monkeypatch.setattr(capacity, "_conjugate_gradient", cg)
    monkeypatch.setattr(capacity, "_CG_MAX_ITERATIONS", 0)
    with pytest.raises(ConvergenceError) as info:
        solve(e, 0.5, SolverConfig(step_rule=rule, max_iterations=300))
    assert info.value.best_estimate.iterations == 300
    assert info.value.best_estimate.value > 0.0


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
