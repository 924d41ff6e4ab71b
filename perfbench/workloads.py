"""The benchmark's workloads: seeded inputs and the query list of one pass.

A query is one closed-loop call into the library's public API plus an
independent check of what it returned (see ``oracle``). Inputs come
from the workload seed only; the library never sees the seed except
where the seed is itself an input of the public call (``run_all``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import oracle

GATE_GRID = 2048
GRID = 4096
LARGE_GRID = 8192
GLOBAL_GRID = 512
TOLERANCE = 1e-8  # SolverConfig default; the capacity checks hold estimates to it


@dataclass(frozen=True)
class Query:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass(frozen=True)
class Workload:
    queries: tuple[Query, ...]
    grids: tuple[int, ...]
    warm: Callable[[], None]  # builds the tables the passes use, during set-up
    cold_caches: bool = False  # clear the library's table caches before every pass


def trig_values(n: int, rng: np.random.Generator, degree: int = 6) -> np.ndarray:
    """sum over |k| <= degree of c_k e^{ikt} at the cell centres, with
    standard complex Gaussian c_k."""
    t = oracle.angles(n)
    ks = np.arange(-degree, degree + 1)
    c = rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size)
    return np.exp(1j * np.outer(t, ks)) @ c


def strata(rng: np.random.Generator, lo: float, hi: float, count: int) -> np.ndarray:
    """One uniform draw from each of ``count`` equal slices of [lo, hi), in
    random order: positions vary with the seed, the size mix hardly does."""
    return rng.permutation(lo + (hi - lo) * (np.arange(count) + rng.random(count)) / count)


def cycle(rng: np.random.Generator, values, count: int) -> list:
    """``values`` repeated to ``count`` items, in random order."""
    return [values[i % len(values)] for i in rng.permutation(count)]


def _warm(cp, n: int, exponents=(), betas=(), alphas=()):
    """Build the kernel, autocorrelation and chord-power tables a workload
    uses, through public calls on tiny inputs."""
    grid = cp.CircleGrid(n)
    one = cp.GridSet.from_indices(grid, [0])
    for x in exponents:
        cp.classical_capacity(one, x)
    for b in betas:
        cp.l2_capacity(one, b)
    f = cp.BoundarySamples(grid, trig_values(n, np.random.default_rng(0), 1))
    arc = cp.Arc.centered(0.0, 40.0 * 2.0 * math.pi / n)
    for a in alphas:
        cp.dirichlet_energy_local(f, arc, arc, a)


def gate(cp, seed: int) -> Workload:
    """The release gate: all twelve acceptance criteria at GATE_GRID."""

    def check(report):
        names = [c["name"] for c in report["criteria"]]
        oracle.expect(len(names) == 12, f"{len(names)} criteria ran, want 12")
        failed = [c["name"] for c in report["criteria"] if not c["passed"]]
        oracle.expect(not failed and report["all_passed"], f"criteria failed: {failed}")

    call = lambda: cp.run_all(grid_n=GATE_GRID, seed=seed)
    return Workload((Query("run_all", call, check),), (GATE_GRID,), lambda: None, cold_caches=True)


def capacity_large(cp, seed: int) -> Workload:
    """Dense capacity solves on large sets, up to the full 8192-cell circle."""
    rng = np.random.default_rng([seed, 2])
    g4, g8 = cp.CircleGrid(GRID), cp.CircleGrid(LARGE_GRID)
    half = cp.Arc.centered(rng.uniform(-math.pi, math.pi), 3.0)
    c = rng.uniform(-math.pi, math.pi)
    two = cp.ArcFamily((cp.Arc.centered(c, 0.75), cp.Arc.centered(c + math.pi + rng.uniform(-1, 1), 0.75)))
    host = cp.Arc.centered(rng.uniform(-math.pi, math.pi), 2.0)
    spec = cp.CantorSpec(rule=cp.PowerChoice(0.5), depth=4, host=host, offset=3, scale_to_host=True)
    sets = {
        "half": lambda: cp.GridSet.from_arcs(g4, half),
        "two_arc": lambda: cp.GridSet.from_arcs(g4, two),
        "cantor": lambda: cp.cantor_grid_set(spec, g4),
    }
    queries = []

    def classical(label, make, exponent, rule):
        def call():
            e = make()
            return e, cp.classical_capacity(e, exponent, cp.SolverConfig(step_rule=rule))

        check = lambda out: oracle.check_classical(out[1], out[0].indices, exponent, TOLERANCE)
        queries.append(Query(label, call, check))

    def l2(label, make, beta):
        def call():
            e = make()
            return e, cp.l2_capacity(e, beta)

        check = lambda out: oracle.check_l2(out[1], out[0].indices, beta, TOLERANCE)
        queries.append(Query(label, call, check))

    # Every set gets the three kernel exponents with Frank-Wolfe. The cheap
    # sets also get every projected-gradient and L2 case; the half circle
    # one of each, and the full circles the cases that fit the run time.
    classical("full8192_classical_0.5", lambda: cp.GridSet.full(g8), 0.5, "frank_wolfe")
    classical("full4096_classical_0", lambda: cp.GridSet.full(g4), 0.0, "frank_wolfe")
    l2("full4096_l2_0.75", lambda: cp.GridSet.full(g4), 0.75)
    for name, make in sets.items():
        for beta in (1.0, 0.75, 0.5):
            classical(f"{name}_classical_{1 - beta:g}_frank_wolfe", make, 1.0 - beta, "frank_wolfe")
            if name != "half" or beta == 0.75:
                classical(f"{name}_classical_{1 - beta:g}_projected_gradient", make, 1.0 - beta,
                          "projected_gradient")
            if name != "half" or beta == 1.0:
                l2(f"{name}_l2_{beta:g}", make, beta)

    def warm():
        _warm(cp, GRID, exponents=(0.0, 0.25, 0.5), betas=(1.0, 0.75, 0.5))
        _warm(cp, LARGE_GRID, exponents=(0.5,))

    return Workload(tuple(queries), (GRID, LARGE_GRID), warm)


def small_queries(cp, seed: int) -> Workload:
    """A few hundred millisecond-scale queries on short arcs and small sets."""
    rng = np.random.default_rng([seed, 3])
    grid = cp.CircleGrid(GRID)
    polys = [trig_values(GRID, rng) for _ in range(8)]
    samples = [cp.BoundarySamples(grid, v) for v in polys]
    alphas = (0.25, 0.5, 0.75, 1.0)
    queries = []

    len_i, len_j = strata(rng, 0.02, 0.2, 160), strata(rng, 0.02, 0.2, 160)
    for p, a, li, lj in zip(cycle(rng, range(8), 160), cycle(rng, alphas, 160), len_i, len_j):
        c = rng.uniform(-math.pi, math.pi)
        arc_i = cp.Arc.centered(c, li)
        arc_j = cp.Arc.centered(c + rng.uniform(-0.3, 0.3), lj)
        call = lambda f=samples[p], i=arc_i, j=arc_j, a=a: cp.dirichlet_energy_local(f, i, j, a)
        check = lambda out, v=polys[p], i=arc_i, j=arc_j, a=a: oracle.check_energy_local(out, v, i, j, a)
        queries.append(Query("energy_local", call, check))

    small = cp.CircleGrid(GLOBAL_GRID)
    for a in cycle(rng, alphas, 8):
        v = trig_values(GLOBAL_GRID, rng)
        f = cp.BoundarySamples(small, v)
        call = lambda f=f, a=a: cp.dirichlet_energy_global(f, a)
        check = lambda out, v=v, a=a: oracle.check_energy_global(out, v, a)
        queries.append(Query("energy_global_512", call, check))

    thetas, gammas = strata(rng, 0.08, 0.2, 40), strata(rng, 0.25, 0.6, 40)
    for p, a, theta, gamma in zip(cycle(rng, range(8), 40), cycle(rng, alphas, 40), thetas, gammas):
        setup = cp.ExtensionSetup(theta=theta, gamma=gamma)
        f, v = samples[p], polys[p]
        call = lambda f=f, s=setup, a=a: cp.extension_ratio(f, s, a)
        check = lambda out, v=v, t=theta, g=gamma, a=a: oracle.check_extension_ratio(out, v, t, g, a)
        queries.append(Query("extension_ratio", call, check))
        call = lambda f=f, s=setup, a=a: cp.six_term_decomposition(cp.extend(f, s), s, a)
        check = lambda out, v=v, t=theta, g=gamma, a=a: oracle.check_six_term(out, v, t, g, a)
        queries.append(Query("six_term", call, check))

    params = zip(cycle(rng, (1, 2, 3, 4), 40), cycle(rng, (0.5, 0.75, 1.0), 40),
                 cycle(rng, (0.25, 0.5), 40), strata(rng, 0.05, 0.2, 40))
    for spikes, a, b, delta in params:
        c0 = rng.uniform(-math.pi, math.pi)
        fam = cp.ArcFamily(tuple(cp.Arc.centered(c0 - 0.25 + 0.12 * j, 0.012) for j in range(spikes)))
        arc = cp.Arc.centered(c0 + 0.05, 0.8)

        def call(fam=fam, arc=arc, a=a, b=b, delta=delta):
            e = cp.GridSet.from_arcs(grid, fam)
            f = cp.spike_function(e, delta)
            return e, f, cp.poincare_check(f, e, arc, a, b, 0.75)

        def check(out, arc=arc, a=a, b=b, delta=delta):
            e, f, rep = out
            oracle.check_poincare(f, rep, e.indices, arc, a, b, delta, GRID)

        queries.append(Query("poincare_check", call, check))

    b_rule = rng.uniform(0.45, 0.55)
    beta = rng.uniform(0.5, 0.8)
    alpha = rng.uniform(beta, 1.0)

    def uniqueness():
        arcs = cp.log_reciprocal_arcs(51)
        parts = cp.uniqueness.cantor_parts_in_arcs(cp.PowerChoice(b_rule), 4, arcs, grid, offset=3)
        return parts, arcs, cp.uniqueness_series(parts, arcs, alpha, beta)

    def check_uniqueness(out):
        parts, arcs, diag = out
        oracle.check_uniqueness(diag, parts, list(arcs), alpha, beta, GRID)

    queries.append(Query("uniqueness_series", uniqueness, check_uniqueness))

    s_div, s_conv = 1.0 - b_rule, (1.0 - b_rule) / 2.0
    queries.append(Query(
        "cantor_series_divergent",
        lambda: cp.cantor_capacity_series(cp.PowerChoice(b_rule), s_div, 23_000),
        lambda d: oracle.check_power_series(d, b_rule, s_div, 23_000, "diverges_plus_inf"),
    ))
    queries.append(Query(
        "cantor_series_convergent",
        lambda: cp.cantor_capacity_series(cp.PowerChoice(b_rule), s_conv, 400),
        lambda d: oracle.check_power_series(d, b_rule, s_conv, 400, "converges"),
    ))
    ratio = rng.uniform(0.3, 0.5)
    queries.append(Query(
        "carleson_geometric",
        lambda: cp.carleson_sum(cp.geometric_arcs(ratio, 60)),
        lambda d: oracle.check_geometric_carleson(d, ratio, 60),
    ))
    queries.append(Query(
        "carleson_log_reciprocal",
        lambda: cp.carleson_sum(cp.log_reciprocal_arcs(100_001)),
        lambda d: oracle.check_log_reciprocal_carleson(d, 100_001),
    ))

    def warm():
        _warm(cp, GRID, exponents=(1.0 - beta,), betas=(0.25, 0.5), alphas=alphas)
        _warm(cp, GLOBAL_GRID, alphas=alphas)

    order = rng.permutation(len(queries))
    return Workload(tuple(queries[i] for i in order), (GRID, GLOBAL_GRID), warm)


WORKLOADS = {"gate": gate, "capacity_large": capacity_large, "small_queries": small_queries}
