"""Series-based uniqueness diagnostics and generalized Cantor sets.

Three series are diagnosed:

* cantor_capacity_series: sum of 2^{-n} l_n^{-s} for a Cantor length
  rule; the set has zero s-capacity exactly when the series diverges.
* carleson_sum: sum of |I_n| log |I_n| over a family of disjoint arcs;
  a drift to -infinity disqualifies the family from being the
  complementary arcs of a Carleson set.
* uniqueness_series: sum of |I_n| log(|I_n|^{1+alpha-beta} / C(E_n))
  with C the classical capacity at kernel exponent 1 - beta of the
  part of E inside I_n; divergence to -infinity is the certificate of
  interest.

No finite computation proves divergence, so trends are assigned by an
explicit, reported decision rule: a partial-sum window test for
convergence (|S_N - S_{N/2}| below a relative tolerance), otherwise a
least-squares fit of S_n against log n, log log n, and n^p growth
models over the last half of 48 log-spaced checkpoints. Divergence is
declared only when the best fit has R^2 >= 0.99 and a slope whose
total movement over the fitted window is non-negligible; everything
else is reported as inconclusive. A Cantor capacity term is formed
from its logarithm, so neither 2^n nor l_n is formed on its own, but
the partial sums are linear: for a divergent rule whose terms grow
geometrically they overflow (README, Numerical notes; ROADMAP item 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .capacity import SolverConfig, classical_capacity, kernel_exponents
from .circle import TWO_PI, Arc, ArcFamily, CircleGrid, GridSet, _arc_arrays, _hold, _run_cells
from .errors import ConstructionError, PreconditionError

LN2 = math.log(2.0)

# Series and stage indices and counts enter the arithmetic as floats,
# which hold every integer only up to 2^53; larger ones are refused.
MAX_INDEX = 2**53

TREND_CONVERGES = "converges"
TREND_PLUS_INF = "diverges_plus_inf"
TREND_MINUS_INF = "diverges_minus_inf"
TREND_INCONCLUSIVE = "inconclusive"

# Decision-rule constants (documented in classify_trend).
_WINDOW_ABS = 1e-9
_WINDOW_REL = 1e-6
_FIT_R2_MIN = 0.99
_FIT_SLOPE_FLOOR = 1e-3
_N_CHECKPOINTS = 48
_POWER_GRID = [round(0.1 + 0.05 * k, 2) for k in range(19)]
# the growth models fitted, in the order that breaks ties in R^2
_MODELS = [("log", None), ("loglog", None)] + [("power", p) for p in _POWER_GRID]


# ---------------------------------------------------------------------------
# length rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerChoice:
    """l_n = (2^{-n} n)^{1/(1-beta)}, defined for n >= 1.

    The exponent makes the capacity series at s = 1 - beta exactly the
    harmonic series. Only asymptotically admissible as a Cantor rule:
    l_{n+1} <= l_n/2 first holds from n = ceil(1/(2^beta - 1)) on, so
    geometric constructions need an offset into the admissible range.
    """

    beta: float
    min_index: int = field(default=1, init=False)

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise PreconditionError(f"beta must be in (0, 1), got {self.beta}")

    def log_lengths(self, ns: np.ndarray) -> np.ndarray:
        """log l_n at each index n of ``ns``."""
        bad = ns[ns < 1]
        if bad.size:
            raise PreconditionError(f"power rule is defined for n >= 1, got {bad[0]}")
        return (-ns * LN2 + np.log(ns)) / (1.0 - self.beta)

    def describe(self) -> str:
        return f"power:beta={self.beta}"


@dataclass(frozen=True)
class RatioRule:
    """l_n = l0 * r^n."""

    ratio: float
    l0: float = 1.0
    min_index: int = field(default=0, init=False)

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise PreconditionError(f"ratio must be in (0, 1), got {self.ratio}")
        if not 0.0 < self.l0 < math.inf:
            raise PreconditionError(f"l0 must be positive and finite, got {self.l0}")

    def log_lengths(self, ns: np.ndarray) -> np.ndarray:
        """log l_n at each index n of ``ns``."""
        bad = ns[ns < 0]
        if bad.size:
            raise PreconditionError(f"ratio rule is defined for n >= 0, got {bad[0]}")
        return math.log(self.l0) + ns * math.log(self.ratio)

    def describe(self) -> str:
        return f"ratio:r={self.ratio},l0={self.l0}"


@dataclass(frozen=True)
class TableRule:
    """Explicit length table l_0..l_{K-1}."""

    lengths: tuple[float, ...]
    min_index: int = field(default=0, init=False)

    def __post_init__(self):
        vals = tuple(float(x) for x in self.lengths)
        if not vals:
            raise PreconditionError("length table is empty")
        if not all(0.0 < x < math.inf for x in vals):
            raise PreconditionError("table lengths must be positive and finite")
        object.__setattr__(self, "lengths", vals)

    def log_lengths(self, ns: np.ndarray) -> np.ndarray:
        """log l_n at each index n of ``ns``."""
        bad = ns[(ns < 0) | (ns >= len(self.lengths))]
        if bad.size:
            raise PreconditionError(
                f"table rule is defined for 0 <= n < {len(self.lengths)}, got {bad[0]}"
            )
        return np.log(np.asarray(self.lengths)[ns])

    def describe(self) -> str:
        return f"table:k={len(self.lengths)}"


LengthRule = PowerChoice | RatioRule | TableRule


# ---------------------------------------------------------------------------
# Cantor construction
# ---------------------------------------------------------------------------


# The final stage holds 2^depth arcs, built as arrays of that length
# stage by stage: depth 20 (about a million arcs) peaks near 140 MB and
# depth 22 already took 313 MB, so deeper sets are refused up front
# instead of growing until the allocator gives up.
MAX_CANTOR_DEPTH = 20


@dataclass(frozen=True)
class CantorSpec:
    """Generalized Cantor set: at stage k, 2^k intervals of length
    rule(offset + k); stage k+1 keeps the two end-subintervals of each.

    host is the arc the set lives in (None for the full circle, with
    the stage-0 interval centered at angle 0). offset shifts into the
    rule's admissible range; None selects the rule's first defined
    index. scale_to_host rescales all lengths so the stage-0 interval
    fills the host exactly. Depths over MAX_CANTOR_DEPTH are refused
    up front. stage_log_lengths (derived, read-only) holds the realized
    log length of each stage 0..depth.
    """

    rule: LengthRule
    depth: int
    host: Arc | None = None
    offset: int | None = None
    scale_to_host: bool = False
    stage_log_lengths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.offset is None:
            object.__setattr__(self, "offset", self.rule.min_index)
        logs = _stage_logs(self.rule, self.depth, self.offset, np.array([self.host_length]),
                           self.scale_to_host)[0]
        logs.setflags(write=False)
        object.__setattr__(self, "stage_log_lengths", logs)

    @property
    def host_length(self) -> float:
        return TWO_PI if self.host is None else self.host.length


def _stage_logs(rule: LengthRule, depth: int, offset: int, host_lengths: np.ndarray,
                scale_to_host: bool) -> np.ndarray:
    """The log length of each stage 0..depth realized in each host, one
    row per host, with a CantorSpec's checks: depth and offset in range,
    each stage at most half the one before (ConstructionError naming the
    index) and, unless scale_to_host, stage 0 no longer than the host
    (ConstructionError for the first such host). The rule's log
    l_(offset + k) is shifted so that stage 0 fills the host when
    scale_to_host."""
    if depth < 0:
        raise PreconditionError(f"depth must be >= 0, got {depth}")
    if depth > MAX_CANTOR_DEPTH:
        raise PreconditionError(
            f"depth {depth} exceeds {MAX_CANTOR_DEPTH}: the final stage "
            f"would hold 2^{depth} arcs"
        )
    if offset < rule.min_index:
        raise PreconditionError(
            f"offset {offset} is below the rule's first defined index {rule.min_index}"
        )
    if offset > MAX_INDEX - depth:
        raise PreconditionError(f"offset {offset} + depth {depth} exceeds 2^53")
    logs = rule.log_lengths(offset + np.arange(depth + 1))
    bad = np.flatnonzero(logs[1:] > logs[:-1] - LN2 + 1e-12)
    if bad.size:
        k = int(bad[0])
        raise ConstructionError(
            f"length rule violates l_n <= l_(n-1)/2 at index {offset + k + 1} "
            f"(l = {math.exp(logs[k + 1]):.6g} vs {math.exp(logs[k]) / 2.0:.6g})",
            stage=offset + k + 1,
        )
    log_hosts = np.array(list(map(math.log, host_lengths.tolist())))
    if scale_to_host:
        # stage 0 fills its host by construction; the shifted log may miss
        # log H by an ulp of |log l_offset|, over any fixed slack
        return logs + (log_hosts - logs[0])[:, None]
    logs = np.tile(logs, (len(log_hosts), 1))
    bad = np.flatnonzero(logs[:, 0] > log_hosts + 1e-12)
    if bad.size:
        i = bad[0]
        raise ConstructionError(
            f"stage-0 length {math.exp(logs[i, 0]):.6g} exceeds "
            f"host length {host_lengths[i]:.6g}",
            stage=0,
        )
    return logs


def _final_stages(logs: np.ndarray, host_starts: np.ndarray,
                  host_lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end angles, not yet normalized, of the final-stage arcs
    of each host in turn, left to right, from its row of ``_stage_logs``:
    stage k + 1 keeps both ends of every stage-k interval."""
    lengths = np.array(list(map(math.exp, logs.ravel().tolist()))).reshape(logs.shape)
    depth = logs.shape[1] - 1
    if np.any(lengths[:, -1] <= 0.0):
        raise ConstructionError("stage length underflows to zero", stage=depth)
    lefts = ((host_lengths - lengths[:, 0]) / 2.0)[:, None]
    for k in range(depth):
        shift = (lengths[:, k] - lengths[:, k + 1])[:, None]
        lefts = np.stack([lefts, lefts + shift], axis=2).reshape(len(lefts), -1)
    starts = host_starts[:, None] + lefts
    return starts.ravel(), (starts + lengths[:, -1:]).ravel()


def cantor_build(spec: CantorSpec) -> ArcFamily:
    """The 2^depth arcs of the final construction stage, ordered left to
    right within the host."""
    host_start = -math.pi if spec.host is None else spec.host.start
    return ArcFamily.from_endpoints(*_final_stages(
        spec.stage_log_lengths[None, :], np.array([host_start]), np.array([spec.host_length])
    ))


def cantor_grid_set(spec: CantorSpec, grid: CircleGrid) -> GridSet:
    """Cover-mode grid set of the final stage (every cell meeting one of
    the closed construction intervals)."""
    return GridSet.from_arcs(grid, cantor_build(spec), mode="cover")


# ---------------------------------------------------------------------------
# series diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SeriesDiagnostic:
    """Partial sums S_{start_index}..S_{start_index + len - 1}, the
    assigned trend, and the fit (or window) evidence behind it."""

    partial_sums: np.ndarray
    trend: str
    fit: dict
    start_index: int
    term_records: tuple[dict, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        _hold(self, "partial_sums", float)

    @property
    def final_sum(self) -> float:
        return float(self.partial_sums[-1])

    @property
    def last_index(self) -> int:
        return self.start_index + len(self.partial_sums) - 1

    def sum_at(self, n: int) -> float:
        """S_n (n counted in series indices, not array offsets)."""
        if not self.start_index <= n <= self.last_index:
            raise PreconditionError(
                f"n must be in {self.start_index}..{self.last_index}, got {n}"
            )
        return float(self.partial_sums[n - self.start_index])

    def to_json(self, checkpoints: int = 64) -> dict:
        ns = _checkpoint_indices(self.start_index, self.last_index, checkpoints)
        return {
            "start_index": self.start_index,
            "n_terms": int(len(self.partial_sums)),
            "final_sum": self.final_sum,
            "trend": self.trend,
            "fit": self.fit,
            "checkpoints": [[int(n), self.sum_at(int(n))] for n in ns],
            "notes": list(self.notes),
        }

    def csv_rows(self):
        for off, s in enumerate(self.partial_sums):
            yield self.start_index + off, float(s)


def _checkpoint_indices(lo: int, hi: int, count: int) -> list[int]:
    if hi <= lo:
        return [lo]
    raw = np.geomspace(max(lo, 1), hi, num=count)
    ns = sorted({int(round(x)) for x in raw})
    return [n for n in ns if lo <= n <= hi]


def classify_trend(partial_sums: Sequence[float], start_index: int = 1) -> tuple[str, dict]:
    """Assign a trend to a partial-sum sequence.

    Rule, in order:
    1. any -inf entry (zero-capacity sentinel) -> diverges_minus_inf;
    2. a single partial sum -> converges (finite-sum convention);
    3. window test: |S_N - S_{N//2}| <= max(1e-9, 1e-6 max(1, |S_N|))
       -> converges (the constant model);
    4. least-squares fits of S_n against log n, log log n, and n^p
       (p = 0.10..1.00 step 0.05) on the last half of 48 log-spaced
       checkpoints; the best model by R^2 declares divergence (sign of
       the slope) when R^2 >= 0.99 and |slope| * regressor span
       >= 1e-3 max(1, |S_N|); otherwise inconclusive.
    """
    sums = np.asarray(partial_sums, dtype=float)
    if sums.size == 0:
        raise PreconditionError("no partial sums to classify")
    n_last = start_index + sums.size - 1
    if np.any(np.isneginf(sums)):
        first_bad = start_index + int(np.argmax(np.isneginf(sums)))
        return TREND_MINUS_INF, {
            "model": "zero_capacity_sentinel",
            "first_infinite_index": first_bad,
        }
    if not np.all(np.isfinite(sums)):
        raise PreconditionError("partial sums contain non-finite entries")
    s_last = float(sums[-1])
    if sums.size == 1:
        # A one-term series is a finite sum; call it convergent rather
        # than refusing to extrapolate from a single point.
        return TREND_CONVERGES, {
            "model": "constant",
            "limit": s_last,
            "window_gap": 0.0,
        }
    half = n_last // 2
    if half >= start_index:
        gap = abs(s_last - float(sums[half - start_index]))
        if gap <= max(_WINDOW_ABS, _WINDOW_REL * max(1.0, abs(s_last))):
            return TREND_CONVERGES, {
                "model": "constant",
                "limit": s_last,
                "window_gap": gap,
            }

    ns = _checkpoint_indices(max(start_index, 2), n_last, _N_CHECKPOINTS)
    ns = ns[len(ns) // 2 :]
    if len(ns) < 4:
        return TREND_INCONCLUSIVE, {"model": "none", "reason": "too few checkpoints"}
    y = sums[np.array(ns) - start_index]
    nf = np.array(ns, dtype=float)
    # one row per model of _MODELS, all fitted at once
    x = np.stack([np.log(nf), np.log(np.log(nf))] + [nf**p for p in _POWER_GRID])
    xm, ym = x.mean(axis=1), y.mean()
    xc, yc = x - xm[:, None], y - ym
    sxx, sst = np.sum(xc**2, axis=1), float(np.sum(yc**2))
    fitted = np.flatnonzero(sxx != 0.0).tolist() if sst != 0.0 else []
    if not fitted:
        return TREND_INCONCLUSIVE, {"model": "none", "reason": "degenerate fit"}
    slopes = np.sum(xc * yc, axis=1) / np.where(sxx == 0.0, 1.0, sxx)
    intercepts = ym - slopes * xm
    r2s = 1.0 - np.sum((y - (intercepts[:, None] + slopes[:, None] * x)) ** 2, axis=1) / sst
    best = fitted[0]
    for k in fitted[1:]:  # the first best R^2
        if r2s[k] > r2s[best]:
            best = k
    name, p = _MODELS[best]
    slope, intercept, r2 = float(slopes[best]), float(intercepts[best]), float(r2s[best])
    span = float(x[best].max() - x[best].min())
    record = {
        "model": name,
        "slope": slope,
        "intercept": intercept,
        "r_squared": r2,
        "fit_window": [ns[0], ns[-1]],
    }
    if p is not None:
        record["power"] = p
    moved = abs(slope) * span
    if r2 >= _FIT_R2_MIN and moved >= _FIT_SLOPE_FLOOR * max(1.0, abs(s_last)):
        return (TREND_PLUS_INF if slope > 0 else TREND_MINUS_INF), record
    return TREND_INCONCLUSIVE, record


def cantor_capacity_series(rule: LengthRule, s: float, n_terms: int) -> SeriesDiagnostic:
    """Partial sums of sum_n 2^{-n} l_n^{-s}; divergence means the Cantor
    set of the rule has zero s-capacity. Terms are exp(-n log 2
    - s log l_n), from their logarithms, but summed linearly: terms that
    grow geometrically overflow the sums, and PreconditionError follows
    (ROADMAP item 3)."""
    if not 0.0 <= s < 1.0:
        raise PreconditionError(f"s must be in [0, 1), got {s}")
    start = max(1, rule.min_index)
    if not start <= n_terms <= MAX_INDEX:
        raise PreconditionError(f"n_terms must be in [{start}, 2^53], got {n_terms}")
    ns = np.arange(start, n_terms + 1)
    log_l = rule.log_lengths(ns)
    terms = np.exp(-ns * LN2 - s * log_l)
    sums = np.cumsum(terms)
    trend, fit = classify_trend(sums, start)
    return SeriesDiagnostic(
        partial_sums=sums,
        trend=trend,
        fit=fit,
        start_index=start,
        notes=(f"rule={rule.describe()}", f"s={s}"),
    )


def carleson_sum(fam: ArcFamily, n_terms: int | None = None) -> SeriesDiagnostic:
    """Partial sums of |I| log |I| over a family of disjoint arcs, longest
    arc first (lengths in radians, natural log). Overlapping arcs raise
    PreconditionError."""
    if fam.full:
        raise PreconditionError("the full circle has no complementary arc structure")
    if not len(fam):
        raise PreconditionError("empty arc family")
    fam.require_disjoint()
    order = fam.by_decreasing_length()
    if n_terms is not None:
        order = order[: max(0, n_terms)]
        if not order.size:
            raise PreconditionError("n_terms must be >= 1")
    lengths = fam.lengths[order]
    terms = lengths * np.log(lengths)
    sums = np.cumsum(terms)
    trend, fit = classify_trend(sums, 1)
    return SeriesDiagnostic(partial_sums=sums, trend=trend, fit=fit, start_index=1)


def uniqueness_series(
    e_parts: Sequence[GridSet],
    arcs: ArcFamily,
    alpha: float,
    beta: float,
    cfg: SolverConfig | None = None,
    n_terms: int | None = None,
) -> SeriesDiagnostic:
    """Partial sums of |I_n| log(|I_n|^{1+alpha-beta} / C(E_n)) over
    disjoint arcs I_n, with C the classical capacity at kernel exponent
    1 - beta of E_n = E cap I_n. Overlapping arcs raise PreconditionError.

    Terms are processed longest arc first. A zero computed capacity
    (including empty parts) makes its term -inf; the trend is then
    forced to diverges_minus_inf with a note, since a vanishing grid
    capacity may be a discretization artifact rather than a true zero.
    """
    if not 0.0 < beta <= alpha <= 1.0:
        raise PreconditionError(
            f"need 0 < beta <= alpha <= 1, got beta={beta}, alpha={alpha}"
        )
    if len(e_parts) != len(arcs):
        raise PreconditionError(
            f"{len(e_parts)} set parts for {len(arcs)} arcs"
        )
    if not len(arcs):
        raise PreconditionError("empty arc family")
    arcs.require_disjoint()
    grid = e_parts[0].grid
    first, count = grid._runs(arcs.starts, arcs.lengths, "cover")
    for k, part in enumerate(e_parts):
        if part.grid.n_points != grid.n_points:
            raise PreconditionError("set parts live on different grids")
        # arc k covers the count[k] cells from first[k] on, cyclically
        if np.any((part.indices - first[k]) % grid.n_points >= count[k]):
            raise PreconditionError(
                f"set part {k} is not contained in the covered cells of its arc"
            )
    order = arcs.by_decreasing_length().tolist()
    if n_terms is not None:
        if n_terms < 1:
            raise PreconditionError("n_terms must be >= 1")
        order = order[:n_terms]
    exponent = kernel_exponents(beta).classical
    records = []
    terms = []
    notes: list[str] = []
    for rank, i in enumerate(order, start=1):
        length = float(arcs.lengths[i])
        cap = classical_capacity(e_parts[i], exponent, cfg).value
        if cap > 0.0:
            term = length * ((1.0 + alpha - beta) * math.log(length) - math.log(cap))
        else:
            term = -math.inf
        records.append(
            {"n": rank, "arc_index": i, "length": length, "capacity": cap, "term": term}
        )
        terms.append(term)
    sums = np.cumsum(terms)
    if np.any(np.isneginf(sums)):
        notes.append(
            "a term has zero computed capacity; -inf is forced, which may "
            "reflect grid discretization rather than a true zero"
        )
    trend, fit = classify_trend(sums, 1)
    return SeriesDiagnostic(
        partial_sums=sums,
        trend=trend,
        fit=fit,
        start_index=1,
        term_records=tuple(records),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# arc families for the diagnostics
# ---------------------------------------------------------------------------


def log_reciprocal_arcs(n_max: int) -> ArcFamily:
    """Arcs (1/log(n+1), 1/log n) for n = 2..n_max: consecutive, disjoint,
    accumulating at angle 0 with lengths ~ 1/(n log^2 n); their Carleson
    sum drifts to -inf like -log log N."""
    if not 2 <= n_max <= MAX_INDEX:
        raise PreconditionError(f"n_max must be in [2, 2^53], got {n_max}")
    inv = 1.0 / np.log(np.arange(2.0, n_max + 2))
    return ArcFamily.from_endpoints(inv[1:], inv[:-1])


def geometric_arcs(ratio: float, count: int, start: float = 0.0) -> ArcFamily:
    """count consecutive arcs of lengths ratio^1..ratio^count accumulating
    down onto the start angle (longest arc outermost). Tail positions are
    summed smallest-first so arcs far below one ulp of the total stay
    representable."""
    if not 0.0 < ratio < 1.0:
        raise PreconditionError(f"ratio must be in (0, 1), got {ratio}")
    if not 1 <= count <= MAX_INDEX:
        raise PreconditionError(f"count must be in [1, 2^53], got {count}")
    lengths = ratio ** np.arange(1, count + 1)
    total = float(lengths.sum())
    if total >= TWO_PI:
        raise PreconditionError("arcs would wrap around the circle")
    tail = np.concatenate([np.cumsum(lengths[::-1])[::-1], [0.0]])
    starts, ends = start + tail[1:], start + tail[:-1]
    lost = np.flatnonzero(ends == starts)
    if lost.size:
        n = int(lost[0]) + 1
        raise PreconditionError(
            f"geometric arc {n} (length {ratio}**{n} = {lengths[n - 1]:.3g}) underflows: "
            f"it vanishes in floating point next to angle {start}; use fewer than {n} arcs"
        )
    return ArcFamily.from_endpoints(starts, ends)


def cantor_parts_in_arcs(
    rule: LengthRule,
    depth: int,
    arcs: ArcFamily,
    grid: CircleGrid,
    offset: int | None = None,
) -> list[GridSet]:
    """Scaled copies of the rule's Cantor set, one per arc: each copy is
    built with scale_to_host so stage 0 fills its arc, then realized as
    a cover-mode grid set (input shape for uniqueness_series).

    The copies are those of ``cantor_grid_set``, built together by the
    same float operations in batches of at most 2^MAX_CANTOR_DEPTH arcs,
    each with one run search (``CircleGrid._runs``); the hosts may
    overlap. On an error the hosts are built one at a time, so it is the
    first failing host's."""
    if not len(arcs):
        return []
    offset = rule.min_index if offset is None else offset
    parts = []
    try:
        logs = _stage_logs(rule, depth, offset, arcs.lengths, True)
        per_batch = 2 ** (MAX_CANTOR_DEPTH - depth)
        for lo in range(0, len(arcs), per_batch):
            hosts = slice(lo, lo + per_batch)
            starts, _, lengths = _arc_arrays(
                *_final_stages(logs[hosts], arcs.starts[hosts], arcs.lengths[hosts])
            )
            first, count = grid._runs(starts, lengths, "cover")
            masks = np.zeros((len(logs[hosts]), grid.n_points), dtype=bool)
            # run r belongs to host r >> depth
            cells = _run_cells(first, count) % grid.n_points
            masks[np.repeat(np.arange(count.size) >> depth, count), cells] = True
            parts.extend(GridSet(grid, mask) for mask in masks)
    except PreconditionError:
        for arc in arcs:
            cantor_grid_set(CantorSpec(rule=rule, depth=depth, host=arc, offset=offset,
                                       scale_to_host=True), grid)
        raise
    return parts
