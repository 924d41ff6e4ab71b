"""Built-in acceptance suite: twelve named criteria with frozen parameters.

Each criterion is a function from a shared context (grid size, seed,
solver settings) to a pair ``(passed, details)``: a pass flag and a
small JSON-able detail record. ``run_all`` executes them in order,
names each result after its function and is the engine behind the
``selftest`` CLI command; the test suite calls the same functions one
by one.

Tolerance schedule: criteria are calibrated at grid_n = 4096. Running
smaller grids relaxes quadrature-bound tolerances proportionally
(exact_diagonalization, at most 16x) or by a flat documented factor
(comparability and Poincare drift below 2048 cells), and sub-cases
whose arcs fall under the energy resolution floor (RESOLUTION_CELLS)
are skipped and listed under ``details["skipped"]``. At the default
grid nothing is relaxed, and ``run_all`` fails any criterion that
lists a skipped sub-case. Grids under 128 cells are refused: at 64 the
determinism probe arc is unresolved and the Poincare drift exceeds its
tolerance. No criterion records timing, so reports are byte-reproducible;
``run_all`` hands each criterion's wall time to an optional callback.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import energy
from .capacity import (
    SolverConfig,
    classical_capacity,
    comparability_report,
    l2_capacity,
)
from .circle import RESOLUTION_CELLS, Arc, ArcFamily, CircleGrid, GridSet
from .energy import (
    BoundarySamples,
    DiscreteMeasure,
    _block_energies,
    _circulant_block,
    dirichlet_energy_global,
    dirichlet_energy_local,
    energy_weight,
    kernel_column,
    monomial,
    mu_energy,
    random_trig_polynomial,
)
from .errors import PreconditionError, ResolutionError
from .extension import (
    RATIO_CEILING,
    ExtensionSetup,
    _extension_ratios,
    extend,
    six_term_decomposition,
)
from .poincare import poincare_check, spike_function
from .uniqueness import (
    CantorSpec,
    PowerChoice,
    TREND_CONVERGES,
    TREND_MINUS_INF,
    TREND_PLUS_INF,
    cantor_capacity_series,
    cantor_grid_set,
    carleson_sum,
    geometric_arcs,
    log_reciprocal_arcs,
)

REFERENCE_GRID = 4096


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    details: dict

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


@dataclass(frozen=True)
class AcceptanceContext:
    grid_n: int = REFERENCE_GRID
    seed: int = 2023
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.grid_n < 128 or self.grid_n & (self.grid_n - 1):
            raise PreconditionError(f"grid_n must be a power of two >= 128, got {self.grid_n}")

    @property
    def grid(self) -> CircleGrid:
        return CircleGrid(self.grid_n)

    def rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng(self.seed + 1000 * salt)


def json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _resolved(grid: CircleGrid, arc: Arc) -> bool:
    return len(grid.indices_of(arc)) >= RESOLUTION_CELLS


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def exact_diagonalization(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Grid energy of e^{int} against the closed-form weight w(n, alpha),
    n = 1..8; for alpha = 1 the weight is n itself."""
    grid = ctx.grid
    tol = 0.01 * REFERENCE_GRID / min(max(ctx.grid_n, 256), REFERENCE_GRID)
    alphas = (0.25, 0.5, 1.0)
    monomials = np.stack([monomial(grid, n).values for n in range(1, 9)])
    energies = _block_energies(monomials, [[(0, ctx.grid_n)]], [(0, 0)], alphas)[:, 0]
    energies /= ctx.grid_n**2
    worst = 0.0
    worst_case = None
    for alpha, row in zip(alphas, energies.tolist()):
        for n, got in enumerate(row, start=1):
            want = energy_weight(n, alpha)
            rel = abs(got - want) / want
            if alpha == 1.0:
                rel = max(rel, abs(got - n) / n)
            if rel > worst:
                worst = rel
                worst_case = {"n": n, "alpha": alpha, "got": got, "want": want}
    return worst <= tol, {"max_rel_error": worst, "tolerance": tol, "worst_case": worst_case}


def seminorm_invariances(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """D(f + c) = D(f) and D(lambda f) = |lambda|^2 D(f) to 1e-9 relative
    on 20 seeded trigonometric polynomials."""
    grid = ctx.grid
    rng = ctx.rng(2)
    alpha = 0.5
    shift = 0.37 - 0.82j
    lam = 1.6 - 0.7j
    worst = 0.0
    for _ in range(20):
        f, _ = random_trig_polynomial(grid, 6, rng)
        base = dirichlet_energy_global(f, alpha)
        shifted = dirichlet_energy_global(
            BoundarySamples(grid, f.values + shift), alpha
        )
        scaled = dirichlet_energy_global(BoundarySamples(grid, lam * f.values), alpha)
        worst = max(
            worst,
            abs(shifted - base) / base,
            abs(scaled - abs(lam) ** 2 * base) / (abs(lam) ** 2 * base),
        )
    return worst <= 1e-9, {"max_rel_error": worst, "tolerance": 1e-9, "polynomials": 20}


def extension_ceiling(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """extension_ratio stays below the proof-derived ceiling for 20
    polynomials across gamma in {0.25, 0.5, 0.75}, alpha in
    {0.25, 0.5, 1}."""
    grid = ctx.grid
    rng = ctx.rng(3)
    polys = np.stack([random_trig_polynomial(grid, 6, rng)[0].values for _ in range(20)])
    alphas = (0.25, 0.5, 1.0)
    worst = 0.0
    worst_case = None
    skipped = []
    for gamma in (0.25, 0.5, 0.75):
        setup = ExtensionSetup(theta=0.45 * gamma * math.pi / 2.0, gamma=gamma)
        if not (_resolved(grid, setup.arc_l) and _resolved(grid, setup.arc_r)):
            skipped.append(
                {"gamma": gamma, "reason": f"reflected arcs under {RESOLUTION_CELLS} cells"}
            )
            continue
        ratio = _extension_ratios(grid, polys, setup, alphas)[2]
        # the first maximum in (alpha, polynomial) order, as a scan with > finds it
        a, k = np.unravel_index(np.argmax(ratio), ratio.shape)
        if ratio[a, k] > worst:
            worst = float(ratio[a, k])
            worst_case = {"gamma": gamma, "alpha": alphas[a], "poly": int(k)}
    return worst <= RATIO_CEILING, {
        "max_ratio": worst,
        "ceiling": RATIO_CEILING,
        "worst_case": worst_case,
        "skipped": skipped,
    }


def six_term_partition(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Block decomposition of the extended energy over I/L/R equals the
    direct J energy to 1e-9 relative."""
    grid = ctx.grid
    rng = ctx.rng(4)
    setup = ExtensionSetup(theta=0.35, gamma=0.5)
    skipped = []
    worst = 0.0
    if _resolved(grid, setup.arc_l) and _resolved(grid, setup.arc_r):
        for _ in range(3):
            f, _ = random_trig_polynomial(grid, 6, rng)
            f_tilde = extend(f, setup)
            parts = six_term_decomposition(f_tilde, setup, 0.5)
            direct = dirichlet_energy_local(f_tilde, setup.arc_j, setup.arc_j, 0.5)
            worst = max(worst, abs(parts["total"] - direct) / max(1.0, direct))
    else:
        skipped.append({"reason": f"reflected arcs under {RESOLUTION_CELLS} cells"})
    return worst <= 1e-9, {"max_rel_gap": worst, "tolerance": 1e-9, "skipped": skipped}


def equilibrium_symmetry(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Full-circle capacity at alpha = 1/2 equals 1 / (uniform-measure
    energy) within 2%, with equilibrium weights uniform within 1%."""
    grid = ctx.grid
    est = classical_capacity(GridSet.full(grid), 0.5, ctx.solver)
    mu_e = mu_energy(DiscreteMeasure.uniform(grid), 0.5)
    want = 1.0 / mu_e
    rel = abs(est.value - want) / want
    w = est.minimizer
    uniform_dev = float(np.max(np.abs(w - 1.0 / ctx.grid_n)) * ctx.grid_n)
    passed = rel <= 0.02 and uniform_dev <= 0.01
    return passed, {
        "capacity": est.value,
        "uniform_energy_reciprocal": want,
        "rel_gap": rel,
        "max_weight_deviation": uniform_dev,
        "kkt_residual": est.kkt_residual,
    }


def capacity_monotonicity(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Set inclusion never increases either capacity: 10 nested arc
    pairs plus 5 nested Cantor stages, zero violations allowed."""
    grid = ctx.grid
    rng = ctx.rng(6)
    slack = 1e-12
    violations = []
    for k in range(10):
        center = float(rng.uniform(-math.pi, math.pi))
        small_len = float(rng.uniform(0.15, 0.5))
        big_len = small_len + float(rng.uniform(0.2, 0.4))
        small = GridSet.from_arcs(grid, Arc.centered(center, small_len), "cover")
        big = GridSet.from_arcs(grid, Arc.centered(center, big_len), "cover")
        for method, solve, a in (
            ("classical", classical_capacity, 0.5),
            ("l2", l2_capacity, 0.5),
        ):
            c_small = solve(small, a, ctx.solver).value
            c_big = solve(big, a, ctx.solver).value
            if c_small > c_big + slack * max(1.0, c_big):
                violations.append({"pair": k, "method": method, "small": c_small, "big": c_big})
    rule = PowerChoice(0.5)
    sets = [
        cantor_grid_set(CantorSpec(rule=rule, depth=d, offset=3), grid)
        for d in range(1, 6)
    ]
    for method, solve, a in (
        ("classical", classical_capacity, 0.5),
        ("l2", l2_capacity, 0.5),
    ):
        caps = [solve(s, a, ctx.solver).value for s in sets]
        for d in range(len(caps) - 1):
            if caps[d + 1] > caps[d] + slack * max(1.0, caps[d]):
                violations.append({"cantor_depth": d + 2, "method": method})
    return not violations, {"violations": violations, "arc_pairs": 10, "cantor_stages": 5}


def _comparability_family() -> list[list[Arc]]:
    singles = [
        Arc.centered(0.0, 0.5),
        Arc.centered(1.0, 0.3),
        Arc.centered(-2.0, 0.8),
        Arc.centered(2.5, 0.2),
        Arc.centered(-0.9, 0.35),
    ]
    unions = [
        [Arc.centered(-2.8, 0.3), Arc.centered(-1.2, 0.25)],
        [Arc.centered(0.4, 0.45), Arc.centered(1.8, 0.3)],
        [Arc.centered(3.0, 0.25), Arc.centered(-0.3, 0.2)],
    ]
    return [[a] for a in singles] + unions


def comparability_stability(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Ratio of the two capacities at beta = 0.5 on a 10-set family:
    drift under grid doubling below 10% (relaxed to 25% under 2048
    cells) and every ratio inside the [1/25, 25] bracket."""
    n_hi = ctx.grid_n
    n_lo = n_hi // 2
    tol = 0.10 if n_hi >= 2048 else 0.25
    bracket = 25.0
    beta = 0.5
    rule = PowerChoice(0.5)
    max_drift = 0.0
    out_of_bracket = []
    rows = []
    family = _comparability_family()
    for k in range(10):
        ratios = {}
        for n in (n_lo, n_hi):
            grid = CircleGrid(n)
            if k < 8:
                e = GridSet.from_arcs(grid, ArcFamily(family[k]))
            else:
                depth = 3 if k == 8 else 4
                spec = CantorSpec(
                    rule=rule,
                    depth=depth,
                    host=Arc.centered(0.8, 2.0),
                    offset=3,
                    scale_to_host=True,
                )
                e = cantor_grid_set(spec, grid)
            ratios[n] = comparability_report(e, beta, ctx.solver).ratio
        drift = abs(ratios[n_hi] - ratios[n_lo]) / abs(ratios[n_lo])
        max_drift = max(max_drift, drift)
        rows.append({"set": k, "ratio_fine": ratios[n_hi], "drift": drift})
        if not (1.0 / bracket <= ratios[n_hi] <= bracket):
            out_of_bracket.append(k)
    passed = max_drift < tol and not out_of_bracket
    return passed, {
        "max_drift": max_drift,
        "tolerance": tol,
        "grids": [n_lo, n_hi],
        "bracket": bracket,
        "out_of_bracket": out_of_bracket,
        "rows": rows,
    }


def _exact_min_energy(K: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimum of w^T K w over probability vectors w, and the w that
    attains it, for a small SPD K, by brute force over supports.

    On the minimizer's support S, K_SS y = 1 has a positive solution and
    w = y / sum(y). So every support is tried, one stacked solve per
    support size; each positive y gives a feasible w, whose energy is
    evaluated directly. The least energy is returned with its w on all
    of K's cells. It shares no code with the capacity solve."""
    c = len(K)
    best, arg = math.inf, None
    for size in range(1, c + 1):
        s = np.array(list(itertools.combinations(range(c), size)))
        block = K[s[:, :, None], s[:, None, :]]
        y = np.linalg.solve(block, np.ones((len(s), size, 1)))[..., 0]
        ok = np.all(y > 0.0, axis=1)
        w = y[ok] / y[ok].sum(axis=1, keepdims=True)
        energies = np.einsum("ij,ijk,ik->i", w, block[ok], w)
        if len(energies) and energies.min() < best:
            i = int(np.argmin(energies))
            best, arg = float(energies[i]), np.zeros(c)
            arg[s[ok][i]] = w[i]
    return best, arg


def small_instance_oracle(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Classical capacity on up-to-6-cell sets at N = 64 against the
    exact minimum energy over every support, within 1%."""
    n = 64
    grid = CircleGrid(n)
    rng = ctx.rng(8)
    worst = 0.0
    rows = []
    for size in range(1, 7):
        idx = np.sort(rng.choice(n, size=size, replace=False))
        e = GridSet.from_indices(grid, idx)
        est = classical_capacity(e, 0.5, ctx.solver)
        K = _circulant_block("kernel", n, 0.5, idx)
        exact = 1.0 / _exact_min_energy(K)[0]
        rel = abs(est.value - exact) / exact
        worst = max(worst, rel)
        rows.append({"cells": size, "solver": est.value, "exact": exact, "rel": rel})
    return worst <= 0.01, {"max_rel_error": worst, "tolerance": 0.01, "rows": rows}


def _poincare_instance(n: int, k_cells: int):
    grid = CircleGrid(n)
    arc = Arc.centered(0.05, 0.8)
    arcs = [Arc.centered(0.05 - 0.25 + 0.12 * j, 0.012) for j in range(k_cells)]
    e = GridSet.from_arcs(grid, ArcFamily(arcs))
    f = spike_function(e, 0.1)
    return f, e, arc


def poincare_stability(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Spike-family ratios are finite and positive, move under 15% when
    the grid doubles (30% under 2048 cells), and are invariant to 1e-9
    under joint rotation and under scaling of f."""
    n = ctx.grid_n
    tol_drift = 0.15 if n >= 2048 else 0.30
    alpha, beta, gamma = 0.75, 0.5, 0.75
    max_drift = 0.0
    rows = []
    invariance_gap = 0.0
    for k in range(1, 6):
        f, e, arc = _poincare_instance(n, k)
        rep = poincare_check(f, e, arc, alpha, beta, gamma, ctx.solver)
        f2, e2, arc2 = _poincare_instance(2 * n, k)
        rep2 = poincare_check(f2, e2, arc2, alpha, beta, gamma, ctx.solver)
        if not (rep.ratio > 0.0 and math.isfinite(rep.ratio)):
            return False, {"reason": "nonpositive or infinite ratio", "cells": k}
        drift = abs(rep2.ratio - rep.ratio) / rep.ratio
        max_drift = max(max_drift, drift)
        rows.append({"cells": k, "ratio": rep.ratio, "ratio_fine": rep2.ratio, "drift": drift})
        if k == 3:
            grid = f.grid
            shift = 37
            h = grid.cell_width
            arc_rot = Arc(float(arc.start) + shift * h, float(arc.end) + shift * h)
            rot = poincare_check(
                f.rotated(shift), e.rotated(shift), arc_rot, alpha, beta, gamma, ctx.solver
            )
            lam = 2.7 - 1.3j
            scaled = poincare_check(
                BoundarySamples(grid, lam * f.values), e, arc, alpha, beta, gamma, ctx.solver
            )
            invariance_gap = max(
                abs(rot.ratio - rep.ratio) / rep.ratio,
                abs(scaled.ratio - rep.ratio) / rep.ratio,
            )
    passed = max_drift < tol_drift and invariance_gap <= 1e-9
    return passed, {
        "max_drift": max_drift,
        "drift_tolerance": tol_drift,
        "invariance_gap": invariance_gap,
        "rows": rows,
    }


def cantor_series_concordance(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Power-rule Cantor sets: the s = 1/2 series grows past 10 within
    2.3e4 terms and stage capacities at that exponent are monotone
    nonincreasing over depths 1..8; the s = 1/4 series converges with
    its N = 200 sum within 1e-6 of the tail-bounded limit, and the
    matching capacity stays within 20% of its depth-4 floor at depth 8."""
    grid = ctx.grid
    rule = PowerChoice(0.5)
    diag_div = cantor_capacity_series(rule, 0.5, 23_000)
    crossed = bool(diag_div.final_sum > 10.0)
    div_ok = crossed and diag_div.trend == TREND_PLUS_INF

    sets = {
        d: cantor_grid_set(CantorSpec(rule=rule, depth=d, offset=3), grid)
        for d in range(1, 9)
    }
    caps_div = [classical_capacity(sets[d], 0.5, ctx.solver).value for d in range(1, 9)]
    mono_ok = all(
        caps_div[i + 1] <= caps_div[i] + 1e-12 * max(1.0, caps_div[i])
        for i in range(7)
    )

    diag_conv = cantor_capacity_series(rule, 0.25, 400)
    limit_ref = diag_conv.final_sum
    s200 = diag_conv.sum_at(200)
    conv_ok = diag_conv.trend == TREND_CONVERGES and abs(s200 - limit_ref) <= 1e-6

    cap4 = classical_capacity(sets[4], 0.25, ctx.solver).value
    cap8 = classical_capacity(sets[8], 0.25, ctx.solver).value
    floor_ok = cap8 >= 0.8 * cap4
    passed = div_ok and mono_ok and conv_ok and floor_ok
    return passed, {
        "divergent_sum_at_23000": diag_div.final_sum,
        "divergent_trend": diag_div.trend,
        "capacities_s_half": caps_div,
        "monotone": mono_ok,
        "convergent_trend": diag_conv.trend,
        "s200_minus_limit": abs(s200 - limit_ref),
        "limit": limit_ref,
        "cap_depth4": cap4,
        "cap_depth8": cap8,
    }


def carleson_diagnostics(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Geometric arcs: sum converges to -2 log 2 within 1e-6 by 60
    terms. Reciprocal-log arcs: classified as drifting to -inf with the
    log log model at R^2 >= 0.99 over 1e5 terms."""
    geo = carleson_sum(geometric_arcs(0.5, 60))
    target = -2.0 * math.log(2.0)
    geo_ok = geo.trend == TREND_CONVERGES and abs(geo.final_sum - target) <= 1e-6

    rec = carleson_sum(log_reciprocal_arcs(100_001))
    rec_ok = (
        rec.trend == TREND_MINUS_INF
        and rec.fit.get("model") == "loglog"
        and rec.fit.get("r_squared", 0.0) >= 0.99
    )
    return geo_ok and rec_ok, {
        "geometric_sum": geo.final_sum,
        "geometric_target": target,
        "geometric_trend": geo.trend,
        "reciprocal_log_trend": rec.trend,
        "reciprocal_log_fit": rec.fit,
    }


def _determinism_probe(grid_n: int, seed: int, solver: SolverConfig) -> bytes:
    n = min(512, grid_n)
    grid = CircleGrid(n)
    e = GridSet.from_arcs(grid, ArcFamily((Arc.centered(0.3, 0.45), Arc.centered(-1.5, 0.3))))
    ests = (classical_capacity(e, 0.5, solver), l2_capacity(e, 0.5, solver))
    # to_json leaves the minimizers out, so their bytes go in by hash
    cl, l2 = ({**est.to_json(), "minimizer_sha256": hashlib.sha256(est.minimizer).hexdigest()}
              for est in ests)
    f, _ = random_trig_polynomial(grid, 5, np.random.default_rng(seed))
    energy_val = dirichlet_energy_global(f, 0.5)
    e_small = GridSet.from_arcs(grid, Arc.centered(0.3, 0.02), "cover")
    spike = spike_function(e_small, 0.0875)
    poi = poincare_check(
        spike, e_small, Arc.centered(0.3, 0.7), 0.75, 0.5, 0.75, solver
    ).to_json()
    series = cantor_capacity_series(PowerChoice(0.5), 0.25, 400).to_json(16)
    carleson = carleson_sum(geometric_arcs(0.5, 40)).to_json(16)
    kappa = kernel_column(n, 0.5)
    report = {
        "grid_n": n,
        "seed": seed,
        "classical": cl,
        "l2": l2,
        "trig_energy": energy_val,
        "poincare": poi,
        "cantor_series": series,
        "carleson": carleson,
        "kernel_head": [float(x) for x in kappa[:4]],
    }
    return json_bytes(report)


def determinism(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """A fixed probe pipeline (capacities with hashes of their
    minimizers, energies, series, one Poincare check) serialized twice
    with the same seed must agree byte for byte."""
    first = _determinism_probe(ctx.grid_n, ctx.seed, ctx.solver)
    second = _determinism_probe(ctx.grid_n, ctx.seed, ctx.solver)
    return first == second, {"probe_bytes": len(first), "identical": first == second}


CRITERIA = (
    exact_diagonalization,
    seminorm_invariances,
    extension_ceiling,
    six_term_partition,
    equilibrium_symmetry,
    capacity_monotonicity,
    comparability_stability,
    small_instance_oracle,
    poincare_stability,
    cantor_series_concordance,
    carleson_diagnostics,
    determinism,
)


def criterion_names() -> list[str]:
    return [fn.__name__ for fn in CRITERIA]


def run_all(
    grid_n: int = REFERENCE_GRID,
    seed: int = 2023,
    solver: SolverConfig | None = None,
    kernel_fault_scale: float = 0.0,
    only: list[str] | None = None,
    progress: Callable[[CriterionResult, float], None] | None = None,
) -> dict:
    """Run the acceptance criteria and return the JSON-able report.

    kernel_fault_scale corrupts the kernel tables through the test hook
    (nonzero values are expected to produce named failures; one that is
    not finite and > -1 raises PreconditionError); ``only`` restricts to
    a subset of criterion names. ``progress``, when given, is called
    after each criterion with its result and its wall time in seconds,
    which stay out of the report.
    """
    ctx = AcceptanceContext(grid_n=grid_n, seed=seed, solver=solver or SolverConfig())
    selected = [fn for fn in CRITERIA if only is None or fn.__name__ in only]
    if only is not None and len(selected) != len(only):
        known = set(criterion_names())
        bad = [name for name in only if name not in known]
        raise PreconditionError(f"unknown criteria: {bad}")
    results = []
    with energy.kernel_fault(kernel_fault_scale):
        for fn in selected:
            started = time.perf_counter()
            try:
                passed, details = fn(ctx)
            except ResolutionError as exc:
                passed, details = False, {"error": "resolution", "message": str(exc)}
            passed = passed and (grid_n < REFERENCE_GRID or not details.get("skipped"))
            result = CriterionResult(fn.__name__, passed, details)
            results.append(result)
            if progress is not None:
                progress(result, time.perf_counter() - started)
    return {
        "grid_n": grid_n,
        "seed": seed,
        "kernel_fault_scale": kernel_fault_scale,
        "criteria": [r.to_json() for r in results],
        "all_passed": all(r.passed for r in results),
    }
