"""Per-layer metrics from the spans of a traced run.

Layers are the library's modules. Times and counts are per pass (the
traced passes' totals divided by their number), except
``cli.import_s`` (the import in this worker) and
``energy.table_build_s``, which adds the table builds of set-up to the
per-pass builds. ``<layer>.self_s`` is the layer's self time: span
durations minus the time of their child spans.
"""

from __future__ import annotations

import statistics

from . import oracle
from .trace import outermost, self_times

CRITERIA = (
    "exact_diagonalization", "seminorm_invariances", "extension_ceiling",
    "six_term_partition", "equilibrium_symmetry", "capacity_monotonicity",
    "comparability_stability", "small_instance_oracle", "poincare_stability",
    "cantor_series_concordance", "carleson_diagnostics", "determinism",
)
LAYERS = ("circle", "energy", "capacity", "extension", "poincare", "uniqueness", "acceptance")
GLOBAL = "energy.dirichlet_energy_global"
LOCAL = "energy.dirichlet_energy_local"
CLASSICAL = "capacity.classical_capacity"
L2 = "capacity.l2_capacity"
SERIES = {"uniqueness.cantor_capacity_series", "uniqueness.carleson_sum"}


def _capacity(args, kwargs, est):
    return int(args[0].mask.sum()), est.iterations, est.kkt_residual


COUNTERS = {
    LOCAL: lambda args, kwargs, _: (len(args[0].values), args[1], args[2]),
    CLASSICAL: _capacity,
    L2: _capacity,
    **{name: (lambda args, kwargs, diag: len(diag.partial_sums))
       for name in (*SERIES, "uniqueness.uniqueness_series")},
}


def layer_metrics(tracer, setup_range, pass_ranges, import_s, traced_walls, untraced_walls) -> dict:
    spans = tracer.spans
    own = self_times(spans)
    passes = max(1, len(pass_ranges))
    idx = [i for lo, hi in pass_ranges for i in range(lo, hi)]
    in_pass = set(idx)
    names = [spans[i][0] for i in idx]

    def count(*members):
        return sum(n in members for n in names) / passes

    def duration(members, pool):
        return sum(spans[i][2] - spans[i][1] for i in outermost(spans, set(members)) if i in pool)

    def inclusive(members):
        return duration(members, in_pass) / passes

    def group(prefix):
        return {n for n in names if n.startswith(prefix)}

    local_top = [i for i in idx if spans[i][0] == LOCAL
                 and not (spans[i][3] >= 0 and spans[spans[i][3]][0] == GLOBAL)]

    pairs = cells = iterations = dense = terms = 0
    residual_max = 0.0
    sizes: dict = {}
    for i, rec in tracer.records:
        if i not in in_pass:
            continue
        name = spans[i][0]
        if name == LOCAL:
            n, dom_i, dom_j = rec
            for dom in (dom_i, dom_j):
                if (n, dom) not in sizes:
                    sizes[(n, dom)] = len(oracle.domain_cells(n, dom))
            pairs += sizes[(n, dom_i)] * sizes[(n, dom_j)]
        elif name in (CLASSICAL, L2):
            k, its, residual = rec
            cells += k
            dense += 8 * k * k
            iterations += its
            residual_max = max(residual_max, residual)
        else:
            terms += rec

    energy_self = sum(own[i] for i in idx if spans[i][0] == LOCAL)
    layer_self = {layer: sum(own[i] for i in idx if spans[i][0].startswith(layer + "."))
                  for layer in LAYERS}
    traced_wall = sum(traced_walls)
    out = {
        "cli.import_s": import_s,
        "circle.gridset_calls": count(*group("circle.GridSet.")),
        "circle.gridset_s": inclusive(group("circle.GridSet.")),
        "energy.global_calls": count(GLOBAL),
        "energy.global_s": inclusive({GLOBAL}),
        "energy.local_calls": len(local_top) / passes,
        "energy.local_s": sum(spans[i][2] - spans[i][1] for i in local_top) / passes,
        "energy.pairs": pairs / passes,
        "energy.pair_ns": 1e9 * energy_self / pairs if pairs else 0.0,
        "energy.mu_s": inclusive({"energy.mu_energy"}),
        "energy.weight_s": inclusive({"energy.energy_weight"}),
        "energy.table_build_s": inclusive(tracer.table_names)
        + duration(tracer.table_names, set(range(*setup_range))),
        "capacity.classical_calls": count(CLASSICAL),
        "capacity.classical_s": inclusive({CLASSICAL}),
        "capacity.l2_calls": count(L2),
        "capacity.l2_s": inclusive({L2}),
        "capacity.cells": cells / passes,
        "capacity.iterations": iterations / passes,
        "capacity.dense_bytes": dense / passes,
        "capacity.kkt_residual_max": residual_max,
        "capacity.convergence_errors": sum(
            spans[i][4] == "ConvergenceError" and spans[i][0] in (CLASSICAL, L2) for i in idx
        ) / passes,
        "capacity.comparability_s": inclusive({"capacity.comparability_report"}),
        "extension.extend_s": inclusive({"extension.extend"}),
        "extension.ratio_s": inclusive({"extension.extension_ratio"}),
        "extension.six_term_s": inclusive({"extension.six_term_decomposition"}),
        "poincare.check_calls": count("poincare.poincare_check"),
        "poincare.check_s": inclusive({"poincare.poincare_check"}),
        "poincare.spike_s": inclusive({"poincare.spike_function"}),
        "uniqueness.cantor_set_s": inclusive(
            {"uniqueness.cantor_build", "uniqueness.cantor_grid_set", "uniqueness.cantor_parts_in_arcs"}
        ),
        "uniqueness.arcs_s": inclusive({"uniqueness.log_reciprocal_arcs", "uniqueness.geometric_arcs"}),
        "uniqueness.series_s": inclusive(SERIES),
        "uniqueness.series_terms": terms / passes,
        "uniqueness.uniqueness_series_s": inclusive({"uniqueness.uniqueness_series"}),
    }
    for crit in CRITERIA:
        out[f"acceptance.{crit}_s"] = inclusive({f"acceptance.{crit}"})
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / passes
    out["energy.local_self_s"] = energy_self / passes
    out["trace.wall_s"] = statistics.median(traced_walls)
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    out["trace.coverage"] = sum(layer_self.values()) / traced_wall if traced_wall else 0.0
    out["trace.spans"] = len(idx) / passes
    return out
