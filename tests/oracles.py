"""Frozen reference values and independent recomputations.

Everything here is computed by routes that do not share code with the
package internals: closed forms, scipy quadrature called directly on
the defining integrals, high-precision series tails, the per-Arc
routes that array-backed arc families replaced, the chunked-einsum
lattice minimum that the gate's exact minimum over supports replaced
(its enumeration ``compositions`` is checked against a product filter,
``product_lattice``), the grid-wide routes that the
run-based cell selection and the span-sized local energy replaced
(they share only the windowed spectrum tables of ``energy``), and the
scalar length rules that the rules' array form replaced, the run-based
spike that the index-distance spike replaced, the one-function
extension and I = J energy that the stacked ones replaced, the
mode-by-mode sum that the inverse FFT of trigonometric polynomials
replaced, the six localized energy calls that one block transform
replaced, the per-arc Cantor parts and containment check and the
remainder-based arc gaps that the batched and remainder-free array
routes replaced, the model-by-model trend fit that one array pass
replaced, the Bunch-Kaufman solve of a dense capacity block that
pivoted Cholesky replaced, the N-long masks of I and of E cap I that
``poincare_check`` built before it read both from runs, and three checks that only tests use: the Vitali
covering check, the spectral measure energy and the KKT potential of
an L2 minimizer. The frozen
digits were produced by those same routes at high resolution and are
pinned so that a regression in the library cannot silently move the
targets.
"""

import itertools
import math

import numpy as np
from scipy import linalg
from scipy.integrate import quad

from circle_potential import (Arc, ArcFamily, CantorSpec, GridSet, PowerChoice,
                              PreconditionError, RatioRule, cantor_grid_set,
                              dirichlet_energy_local)
from circle_potential.capacity import kernel_exponents
from circle_potential.circle import ANGLE_TOL, TWO_PI, normalize_angle
from circle_potential.energy import (_TABLES, _circulant_apply, _coeffs_from_dft, _faulted,
                                     _spectrum_base)
from circle_potential.uniqueness import _N_CHECKPOINTS, _POWER_GRID, _checkpoint_indices

# Mean of the chord kernel (2 sin(t/2))^{-1/2} over the circle; also the
# energy of the uniform probability measure for that kernel. Computed by
# adaptive quadrature of the defining integral.
UNIFORM_ENERGY_HALF_KERNEL = 1.180340599016093

# Reciprocal of the above: classical capacity of the full circle at
# kernel exponent 1/2.
FULL_CIRCLE_CLASSICAL_HALF = 0.8472130847939815

# Reciprocal square: the L2 capacity of the full circle at parameter 1
# (convolution kernel exponent 1/2), from the rotation-averaging closed
# form value = 1 / (kernel mean)^2.
FULL_CIRCLE_L2_ALPHA_ONE = 0.717770011046134

# Limit of sum_{n>=1} 2^{-n/2} n^{-1/2} (the convergent capacity series
# of the power length rule at beta = 1/2, s = 1/4), summed to machine
# tail at N = 400.
CONVERGENT_SERIES_LIMIT = 1.620873903603967

# Geometric Carleson sum: sum_{n>=1} 2^{-n} log(2^{-n}) = -2 log 2.
GEOMETRIC_CARLESON_LIMIT = -2.0 * math.log(2.0)

# First divergent-series index with partial sum above 10 (harmonic).
HARMONIC_CROSSES_TEN_AT = 12367


def kernel_mean(exponent: float) -> float:
    """(1/pi) int_0^pi (2 sin(t/2))^{-exponent} dt by direct quadrature."""
    val, _ = quad(lambda t: (2.0 * math.sin(t / 2.0)) ** (-exponent), 0.0, math.pi,
                  limit=200)
    return val / math.pi


def kernel_diagonal_quad(n: int, exponent: float) -> float:
    """The cell-averaged kernel 2 int_0^1 (1 - x) k(2 sin(h x / 2)) dx,
    h = 2 pi / n, by QUADPACK with the singularity at x = 0 in its weight.
    With sinc(z) = sin(z) / z, the chord is h x sinc(h x / 2), at most 1
    for n >= 6. For s > 0 the factor x^(-s) is the algebraic weight; for
    s = 0, -log(chord) = -log h - log sinc(h x / 2) - log x, and the last
    term goes to the weight log(x)."""
    h = TWO_PI / n

    def sinc(x):
        return 1.0 if x == 0.0 else math.sin(h * x / 2.0) / (h * x / 2.0)

    if exponent > 0.0:
        val, _ = quad(lambda x: (1.0 - x) * h ** -exponent * sinc(x) ** -exponent, 0.0, 1.0,
                      weight="alg", wvar=(-exponent, 0.0), limit=200)
        return 2.0 * val
    smooth, _ = quad(lambda x: (1.0 - x) * (-math.log(h) - math.log(sinc(x))), 0.0, 1.0, limit=200)
    log_part, _ = quad(lambda x: -(1.0 - x), 0.0, 1.0, weight="alg-loga", wvar=(0.0, 0.0))
    return 2.0 * (smooth + log_part)


def monomial_energy(n: int, alpha: float) -> float:
    """Independent quadrature of the energy of e^{int}:
    (1/pi) int_0^pi (2 sin(nt/2))^2 / (2 sin(t/2))^{1+alpha} dt.

    Near t = 0 the integrand behaves like n^2 t^(1-alpha), a kink that
    plain adaptive quadrature resolves poorly as alpha -> 0 (2e-10
    relative at alpha = 1e-3). That factor goes to QUADPACK's algebraic
    weight, leaving the smooth h(t) = (2 sin(nt/2)/t)^2 (t / (2 sin(t/2)))^(1+alpha),
    h(0) = n^2."""
    def h(t):
        if t == 0.0:
            return float(n * n)
        return (2.0 * math.sin(n * t / 2.0) / t) ** 2 * (t / (2.0 * math.sin(t / 2.0))) ** (
            1.0 + alpha
        )

    val, _ = quad(h, 0.0, math.pi, weight="alg", wvar=(1.0 - alpha, 0.0), limit=400)
    return val / math.pi


def trig_polynomial_direct(grid, degree: int, rng: np.random.Generator) -> tuple:
    """(samples, coefficients) of ``random_trig_polynomial`` by the direct
    sum of c_k e^{ikt} over k = -degree..degree, one mode at a time, each
    c_k drawn as two scalar normals in that order."""
    coeffs = {k: complex(rng.standard_normal(), rng.standard_normal())
              for k in range(-degree, degree + 1)}
    vals = np.zeros(grid.n_points, dtype=np.complex128)
    for k, c in coeffs.items():
        vals += c * np.exp(1j * k * grid.angles)
    return vals, coeffs


def harmonic_number(n: int) -> float:
    return float(np.sum(1.0 / np.arange(1, n + 1)))


def l2_density_direct(kappa: np.ndarray, idx: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Primal L2 density f = (1/2) K^T lam, f[m] = (1/2) sum_j lam_j
    kappa[(i_j - m) mod n], by a direct loop over the cells i_j of E."""
    n = len(kappa)
    f = np.zeros(n)
    for j, i in enumerate(idx):
        f += kappa[(int(i) - np.arange(n)) % n] * lam[j]
    return 0.5 * f


def potential_direct(kappa: np.ndarray, f: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Convolution potential (1/n) sum_m kappa[(i - m) mod n] f[m] at each
    cell i of E, one dot product per cell."""
    n = len(kappa)
    return np.array([float(kappa[(int(i) - np.arange(n)) % n] @ f) / n for i in idx])


# Pairs per summation block of the direct double sums below.
_BLOCK_PAIRS = 4_000_000


def pair_sum_direct(values: np.ndarray, idx_i: np.ndarray, idx_j: np.ndarray, pw: np.ndarray, n: int) -> float:
    """sum over (i, j) in idx_i x idx_j of |f_i - f_j|^2 pw[(i-j) mod n],
    accumulated in fixed blocks of rows: the direct O(|I| |J|) route for
    the localized energy (times N^2)."""
    total = 0.0
    vj = values[idx_j]
    block = max(1, _BLOCK_PAIRS // max(1, len(idx_j)))
    for s in range(0, len(idx_i), block):
        ia = idx_i[s : s + block]
        diff = values[ia][:, None] - vj[None, :]
        d2 = diff.real**2 + diff.imag**2
        w = pw[(ia[:, None] - idx_j[None, :]) % n]
        total += float(np.sum(d2 * w))
    return total


def mu_energy_direct(weights: np.ndarray, kappa: np.ndarray) -> tuple[float, float]:
    """Measure energy sum_ij w_i w_j kappa[(i-j) mod n] and its diagonal
    part kappa[0] sum w_i^2, by blocked rows of the restricted kernel
    matrix over the support."""
    n = len(kappa)
    support = np.nonzero(weights)[0]
    w = weights[support]
    diagonal = float(kappa[0] * np.sum(w * w))
    off = np.array(kappa)
    off[0] = 0.0
    total = 0.0
    block = max(1, _BLOCK_PAIRS // max(1, len(support)))
    for s in range(0, len(support), block):
        ia = support[s : s + block]
        k_blk = off[(ia[:, None] - support[None, :]) % n]
        total += float(w[s : s + block] @ (k_blk @ w))
    return total + diagonal, diagonal


def autocorr_direct(kappa: np.ndarray) -> np.ndarray:
    """A[m] = sum_j kappa[j] kappa[(j - m) mod n], one dot product per m."""
    return np.array([float(kappa @ np.roll(kappa, m)) for m in range(len(kappa))])


def restricted_dense(table: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """The dense k x k matrix table[(i - j) mod n] over the cells idx, as
    the capacity solvers formed it before they became matrix-free."""
    return np.asarray(table)[(idx[:, None] - idx[None, :]) % n]


def block_solve_bunch_kaufman(M: np.ndarray, rhs: float) -> np.ndarray:
    """x with M x = rhs for a dense symmetric block M, by the
    Bunch-Kaufman factorization of ``scipy.linalg.solve(assume_a="sym")``,
    the solve the capacities made before pivoted Cholesky."""
    return linalg.solve(M, np.full(len(M), rhs), assume_a="sym")


def capacity_dense(M: np.ndarray, rhs: float, rounds: int = 50) -> np.ndarray:
    """x >= 0 with M x >= rhs and equality on the support of x, by direct
    np.linalg.solve on an active set that starts at every cell, drops
    cells with x <= 0 and adds cells where M x falls short of rhs."""
    k = len(M)
    act = np.arange(k)
    for _ in range(rounds):
        x_act = np.linalg.solve(M[np.ix_(act, act)], np.full(len(act), rhs))
        if np.any(x_act <= 0.0):
            act = act[x_act > 0.0]
            continue
        x = np.zeros(k)
        x[act] = x_act
        short = np.setdiff1d(np.nonzero(M @ x < rhs * (1.0 - 1e-12))[0], act)
        if short.size == 0:
            return x
        act = np.union1d(act, short)
    raise RuntimeError("dense active set did not settle")


def capacity_value_dense(kappa: np.ndarray, idx: np.ndarray, method: str) -> float:
    """Capacity of the cells idx of an n-cell grid with kernel column kappa,
    by ``capacity_dense`` on the k x k restricted matrices: sum(x) for
    K x = 1 ("classical"), sum(lam) - lam^T G lam / (4n) for G lam = 2n,
    G from the autocorrelation of kappa ("l2")."""
    n = len(kappa)
    if method == "classical":
        return float(np.sum(capacity_dense(restricted_dense(kappa, idx, n), 1.0)))
    G = restricted_dense(autocorr_direct(kappa), idx, n)
    lam = capacity_dense(G, 2.0 * n)
    return float(np.sum(lam) - lam @ (G @ lam) / (4.0 * n))


def log_reciprocal_arcs_direct(n_max: int) -> tuple:
    """The arcs (1/log(n+1), 1/log n), n = 2..n_max, one Arc at a time, as
    ``log_reciprocal_arcs`` built them before families held arrays, with
    np.log of one float (the library's log; it can differ from math.log
    by one ulp, which ``test_long_log_ranges_within_one_ulp_of_libm`` bounds)."""
    return tuple(Arc(1.0 / _np_log(n + 1), 1.0 / _np_log(n)) for n in range(2, n_max + 1))


def _np_log(x) -> float:
    """np.log of one float."""
    return float(np.log(float(x)))


def geometric_arcs_direct(ratio: float, count: int, start: float = 0.0) -> tuple:
    """Arc i runs from start + tail[i + 1] to start + tail[i], tail[i] the
    sum of the lengths ratio^(i+1)..ratio^count; one Arc at a time."""
    lengths = ratio ** np.arange(1, count + 1)
    tail = np.concatenate([np.cumsum(lengths[::-1])[::-1], [0.0]])
    return tuple(Arc(start + tail[i + 1], start + tail[i]) for i in range(count))


def cantor_stage_logs_direct(spec) -> list[float]:
    """Realized log length of each stage of a CantorSpec, one
    ``log_length_scalar`` per stage, rescaled when scale_to_host."""
    logs = [log_length_scalar(spec.rule, spec.offset + k) for k in range(spec.depth + 1)]
    if spec.scale_to_host:
        shift = math.log(spec.host_length) - logs[0]
        logs = [x + shift for x in logs]
    return logs


def cantor_arcs_direct(spec) -> tuple:
    """The final-stage arcs of a CantorSpec by a list doubled per stage,
    one Arc at a time, from ``cantor_stage_logs_direct``."""
    lengths = [math.exp(x) for x in cantor_stage_logs_direct(spec)]
    host_start = -math.pi if spec.host is None else float(spec.host.start)
    lefts = [(spec.host_length - lengths[0]) / 2.0]
    for k in range(spec.depth):
        shift = lengths[k] - lengths[k + 1]
        lefts = [y for x in lefts for y in (x, x + shift)]
    return tuple(Arc(host_start + x, host_start + x + lengths[-1]) for x in lefts)


def cantor_parts_per_arc(rule, depth: int, arcs, grid, offset=None) -> list:
    """Scaled Cantor copies one arc at a time (one CantorSpec,
    ``cantor_build`` and cover mask each), as ``cantor_parts_in_arcs``
    built them before it built every host in one batch."""
    parts = []
    for arc in arcs:
        spec = CantorSpec(rule=rule, depth=depth, host=arc, offset=offset, scale_to_host=True)
        parts.append(cantor_grid_set(spec, grid))
    return parts


def uncontained_part_direct(parts, arcs) -> int | None:
    """The first part not inside the covered cells of its arc, one cover
    GridSet per arc, as ``uniqueness_series`` checked containment before
    it found every arc's run at once; None when all are contained."""
    for k, (part, arc) in enumerate(zip(parts, arcs)):
        if not part.is_subset_of(GridSet.from_arcs(part.grid, arc, mode="cover")):
            return k
    return None


def overlapping_pair_remainder(fam) -> tuple | None:
    """The pair ``ArcFamily.require_disjoint`` names, with the gaps
    between sorted starts taken by np.remainder as it took them before;
    None when the arcs are disjoint."""
    if len(fam) < 2:
        return None
    order = np.argsort(fam.starts, kind="stable")
    s = fam.starts[order]
    gaps = np.remainder(np.roll(s, -1) - s, TWO_PI)
    overlap = np.flatnonzero(gaps < fam.lengths[order] - ANGLE_TOL)
    if not overlap.size:
        return None
    pos = int(overlap[0])
    return int(order[pos]), int(order[(pos + 1) % len(fam)])


def trend_fit_direct(sums: np.ndarray, start_index: int) -> tuple:
    """(model, power, slope, intercept, R^2) of the growth model that
    ``classify_trend`` fits best, fitting one model at a time on the
    same checkpoints, as it did before it fitted all of them at once."""
    last = start_index + len(sums) - 1
    ns = _checkpoint_indices(max(start_index, 2), last, _N_CHECKPOINTS)
    ns = ns[len(ns) // 2:]
    y = np.array([sums[n - start_index] for n in ns])
    nf = np.array(ns, dtype=float)
    candidates = [("log", np.log(nf), None), ("loglog", np.log(np.log(nf)), None)]
    candidates += [("power", nf**p, p) for p in _POWER_GRID]
    best = None
    for name, x, p in candidates:
        xm, ym = x.mean(), y.mean()
        sxx = float(np.sum((x - xm) ** 2))
        sst = float(np.sum((y - ym) ** 2))
        if sxx == 0.0 or sst == 0.0:
            continue
        slope = float(np.sum((x - xm) * (y - ym)) / sxx)
        intercept = float(ym - slope * xm)
        r2 = 1.0 - float(np.sum((y - (intercept + slope * x)) ** 2)) / sst
        if best is None or r2 > best[4]:
            best = (name, p, slope, intercept, r2)
    return best


def decreasing_length_order(arcs) -> list[int]:
    """Arc indices by a Python sort on (-length, start)."""
    return sorted(range(len(arcs)), key=lambda i: (-arcs[i].length, float(arcs[i].start)))


def carleson_partial_sums_direct(arcs) -> np.ndarray:
    """Partial sums of |I| log |I| over Arc objects, longest first (the
    order of ``decreasing_length_order``), read through ``Arc.length``."""
    order = decreasing_length_order(arcs)
    lengths = np.array([arcs[i].length for i in order])
    return np.cumsum(lengths * np.log(lengths))


def compositions(total: int, parts: int) -> list[np.ndarray]:
    """For every s <= total, the compositions of s into ``parts``
    nonnegative parts as the rows of a small-int array, in lexicographic
    order. Built a part at a time: the compositions of s into p + 1 parts
    are those with first part 0, then those of s - 1 with the first part
    raised by one."""
    dtype = np.min_scalar_type(total)
    level = [np.zeros((1 if s == 0 else 0, 0), dtype=dtype) for s in range(total + 1)]
    for p in range(parts):
        nxt = []
        for s in range(total + 1):
            head = len(level[s])
            block = np.zeros((head + (len(nxt[-1]) if s else 0), p + 1), dtype=dtype)
            block[:head, 1:] = level[s]
            if s:
                block[head:] = nxt[-1]
                block[head:, 0] += 1
            nxt.append(block)
        level = nxt
    return level


def product_lattice(c: int, subdivisions: int) -> np.ndarray:
    """The compositions of ``subdivisions`` into c parts from an
    itertools.product filter, which also yields them in lexicographic
    order."""
    points = itertools.product(range(subdivisions + 1), repeat=c)
    return np.array([p for p in points if sum(p) == subdivisions])


def lattice_min_einsum(K: np.ndarray, subdivisions: int) -> float:
    """Exhaustive minimum of w^T K w over the lattice of probability
    vectors with denominators ``subdivisions`` (small instances only).

    The lattice points are the compositions of ``subdivisions`` into c
    parts, scored in one chunk per value f of the first part: the rows
    [f, r] for r a composition of ``subdivisions - f`` into c - 1 parts.
    """
    c = K.shape[0]
    rest = compositions(subdivisions, c - 1)
    best = math.inf
    for f in range(subdivisions + 1):
        tail = rest[subdivisions - f]
        if not len(tail):
            continue
        w = np.empty((len(tail), c))
        w[:, 0] = f
        w[:, 1:] = tail
        w /= subdivisions
        best = min(best, float(np.einsum("ij,jk,ik->i", w, K, w).min()))
    return best


def mask_of_scan(grid, target, mode: str = "centers") -> np.ndarray:
    """Cell selection by testing every cell center against every arc:
    O(arcs * N), the route ``CircleGrid.mask_of`` took before it selected
    each arc's cells as one index run."""
    if isinstance(target, ArcFamily) and target.full:
        return np.ones(grid.n_points, dtype=bool)
    if isinstance(target, Arc):
        spans = ((target.start, target.length),)
    else:
        spans = zip(target.starts.tolist(), target.lengths.tolist())
    half = grid.cell_width / 2.0
    mask = np.zeros(grid.n_points, dtype=bool)
    for start, length in spans:
        rel = grid.angles - start
        rel += TWO_PI * (rel < 0.0)
        if mode == "centers":
            mask |= (rel > 0.0) & (rel < length)
        else:
            mask |= (rel <= length + half) | (rel >= TWO_PI - half)
    return mask


def circulant_apply_gap_search(table: str, n: int, exponent: float, cells: np.ndarray,
                               x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """``energy._circulant_apply`` with its window always found by the
    search for the widest cyclic gap and the cells always scattered and
    gathered by index, as before sorted runs of cells took a slice."""
    gaps = np.diff(cells, prepend=cells[-1] - n)
    k = int(np.argmax(gaps))
    start, m = int(cells[k]), 1 << (2 * (n - int(gaps[k]))).bit_length()
    if m >= n:
        start, m = 0, n
    pos = (cells - start) % n
    buf = np.zeros(x.shape[:-1] + (m,))
    buf[..., pos] = x
    spec = _faulted(_spectrum_base(table, n, float(exponent), m), _TABLES[table][1])
    ft = np.fft.rfft(buf)
    return np.fft.irfft(ft / spec if inverse else ft * spec, m)[..., pos]


def energy_local_members(f, arc_i, arc_j, alpha: float) -> float:
    """D_{I,J,alpha}(f) from two N-long membership rows and their
    ``flatnonzero``, cells selected by ``mask_of_scan`` and the window by
    ``circulant_apply_gap_search``: the localized energy's route before
    it sized its rows to the span of I u J (no resolution check)."""
    n = f.grid.n_points
    member = np.zeros((2, n))
    member[0, mask_of_scan(f.grid, arc_i)] = 1.0
    member[1, mask_of_scan(f.grid, arc_j)] = 1.0
    cells = np.flatnonzero(member[0] + member[1])
    in_i, in_j = member[:, cells]
    g = f.values[cells] - f.values[cells[0]]
    g2 = g.real**2 + g.imag**2
    t_j, t_i, t_re, t_im = circulant_apply_gap_search(
        "chord", n, alpha, cells, np.stack([in_j, in_i, in_j * g.real, in_j * g.imag])
    )
    terms = in_i * (g2 * t_j - 2.0 * (g.real * t_re + g.imag * t_im)) + in_j * g2 * t_i
    return float(np.sum(terms)) / n**2


def log_length_scalar(rule, n: int) -> float:
    """log l_n of a length rule, one index at a time, with the rule's
    refusal of an index outside its range. The log of n or of a table
    length is np.log of one float, as the rules take it; the ratio
    rule's two constants are math.log's."""
    if isinstance(rule, PowerChoice):
        if n < 1:
            raise PreconditionError(f"power rule is defined for n >= 1, got {n}")
        return (-n * math.log(2.0) + _np_log(n)) / (1.0 - rule.beta)
    if isinstance(rule, RatioRule):
        if n < 0:
            raise PreconditionError(f"ratio rule is defined for n >= 0, got {n}")
        return math.log(rule.l0) + n * math.log(rule.ratio)
    if not 0 <= n < len(rule.lengths):
        raise PreconditionError(
            f"table rule is defined for 0 <= n < {len(rule.lengths)}, got {n}"
        )
    return _np_log(rule.lengths[n])


def spike_from_runs(e, delta: float) -> np.ndarray:
    """min(1, dist/delta) with dist the arc distance from each cell center
    to the closed union of E's cells: E's cells merged into maximal runs
    (a run across the -pi/pi cut kept whole) and one N-long distance
    pass per run, as ``spike_function`` computed it before it measured
    distances in cells."""
    idx = e.indices
    n = e.grid.n_points
    h = e.grid.cell_width
    runs = [[int(idx[0]), int(idx[0])]]
    for j in idx[1:]:
        if j == runs[-1][1] + 1:
            runs[-1][1] = int(j)
        else:
            runs.append([int(j), int(j)])
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == n - 1:
        runs[0][0] = runs[-1][0] - n
        runs.pop()
    t = e.grid.angles
    dist = np.full(n, math.inf)
    for lo, hi in runs:
        t_lo = -math.pi + TWO_PI * lo / n
        t_hi = -math.pi + TWO_PI * hi / n
        center = normalize_angle((t_lo + t_hi) / 2.0)
        gap = np.abs((t - center + math.pi) % TWO_PI - math.pi) - (t_hi - t_lo + h) / 2.0
        np.minimum(dist, np.maximum(gap, 0.0), out=dist)
    return np.minimum(1.0, dist / delta)


def dilation_covers(big, small, factor: float = 3.0) -> bool:
    """Does the factor-dilation of ``big`` (same midpoint, scaled length,
    capped at the full circle) contain ``small``?"""
    dilated = factor * big.length
    if dilated >= TWO_PI:
        return True
    half = dilated / 2.0
    gap = abs(normalize_angle(small.midpoint - big.midpoint))
    return gap + small.length / 2.0 <= half + ANGLE_TOL


def dilation_covers_family(selected, fam, factor: float = 3.0) -> bool:
    """The Vitali covering property: every arc of ``fam`` sits inside the
    factor-dilation of some selected arc."""
    return all(any(dilation_covers(s, a, factor) for s in selected.arcs) for a in fam.arcs)


def self_energy_one_row(f, cells: np.ndarray, alpha: float) -> float:
    """D_{I,I,alpha}(f) over the sorted cells of I for one function, by a
    three-row window product of its own: the I = J route before energies
    were computed for a stack of functions at once."""
    n = f.grid.n_points
    g = f.values[cells] - f.values[cells[0]]
    g2 = g.real**2 + g.imag**2
    t_j, t_re, t_im = circulant_apply_gap_search(
        "chord", n, alpha, cells, np.stack([np.ones(cells.size), g.real, g.imag])
    )
    g2_t = g2 * t_j
    terms = (g2_t - 2.0 * (g.real * t_re + g.imag * t_im)) + g2_t
    return float(np.sum(terms)) / n**2


def extend_one_row(f, setup) -> np.ndarray:
    """The reflection extension of one function's samples, cells selected
    by ``mask_of_scan``: the route before rows were extended as a stack."""
    grid = f.grid
    idx_i = np.flatnonzero(mask_of_scan(grid, setup.arc_i))
    xp, fp = grid.angles[idx_i], f.values[idx_i]
    out = np.zeros(grid.n_points, dtype=np.complex128)
    out[idx_i] = fp
    for arc in (setup.arc_l, setup.arc_r):
        idx = np.flatnonzero(mask_of_scan(grid, arc))
        pre = setup.preimage(grid.angles[idx])
        out[idx] = np.interp(pre, xp, fp.real) + 1j * np.interp(pre, xp, fp.imag)
    return out


def extension_ceiling_per_call(grid_n: int, seed: int = 2023) -> tuple:
    """(max_ratio, worst_case) of the extension ceiling criterion by one
    extension and two energies per (gamma, alpha, polynomial), scanned in
    that order: the criterion's loop before it stacked the polynomials."""
    from circle_potential import BoundarySamples, CircleGrid, random_trig_polynomial
    from circle_potential.circle import RESOLUTION_CELLS
    from circle_potential.extension import ExtensionSetup

    grid = CircleGrid(grid_n)
    rng = np.random.default_rng(seed + 1000 * 3)
    polys = [random_trig_polynomial(grid, 6, rng)[0] for _ in range(20)]
    worst, worst_case = 0.0, None
    for gamma in (0.25, 0.5, 0.75):
        setup = ExtensionSetup(theta=0.45 * gamma * math.pi / 2.0, gamma=gamma)
        cells = {arc: np.flatnonzero(mask_of_scan(grid, arc))
                 for arc in (setup.arc_i, setup.arc_j, setup.arc_l, setup.arc_r)}
        if min(len(cells[setup.arc_l]), len(cells[setup.arc_r])) < RESOLUTION_CELLS:
            continue
        for alpha in (0.25, 0.5, 1.0):
            for k, f in enumerate(polys):
                d_i = self_energy_one_row(f, cells[setup.arc_i], alpha)
                f_tilde = BoundarySamples(grid, extend_one_row(f, setup))
                ratio = self_energy_one_row(f_tilde, cells[setup.arc_j], alpha) / d_i
                if ratio > worst:
                    worst, worst_case = ratio, {"gamma": gamma, "alpha": alpha, "poly": k}
    return worst, worst_case


def six_term_direct(f_tilde, setup, alpha: float) -> dict[str, float]:
    """The six block energies and their total by one localized energy
    call per block pair: the route before the six came from one
    transform over the window of I u L u R."""
    i_arc, l_arc, r_arc = setup.arc_i, setup.arc_l, setup.arc_r
    parts = {
        "d_ii": dirichlet_energy_local(f_tilde, i_arc, i_arc, alpha),
        "d_ll": dirichlet_energy_local(f_tilde, l_arc, l_arc, alpha),
        "d_rr": dirichlet_energy_local(f_tilde, r_arc, r_arc, alpha),
        "d_il": dirichlet_energy_local(f_tilde, i_arc, l_arc, alpha),
        "d_ir": dirichlet_energy_local(f_tilde, i_arc, r_arc, alpha),
        "d_lr": dirichlet_energy_local(f_tilde, l_arc, r_arc, alpha),
    }
    parts["total"] = (
        parts["d_ii"]
        + parts["d_ll"]
        + parts["d_rr"]
        + 2.0 * (parts["d_il"] + parts["d_ir"] + parts["d_lr"])
    )
    return parts


def measure_fourier_coeffs(mu, truncation: int | None = None):
    """mu^(n) = sum_j w_j e^{-i n t_j} for |n| <= truncation."""
    return _coeffs_from_dft(np.fft.fft(mu.weights), truncation)


def measure_fourier_energy(c, alpha: float) -> float:
    """Spectral measure energy sum_{n>=1} |mu^(n)|^2 / n^(1-alpha),
    truncated at the table's limit: the spectral check of ``mu_energy``.
    The zero coefficient (total mass) must be present."""
    if not 0.0 < alpha <= 1.0:
        raise PreconditionError(f"exponent must be in (0, 1], got {alpha}")
    if 0 not in c.coeffs:
        raise PreconditionError("coefficient table must include n = 0 (total mass)")
    out = 0.0
    for n in range(1, c.truncation + 1):
        out += abs(c[n]) ** 2 / n ** (1.0 - alpha)
    return out


def potential_on_set(estimate, e) -> np.ndarray:
    """Convolution potential of an L2 minimizer on the cells of E, the
    feasibility check of the KKT conditions (>= 1 - tolerance
    everywhere)."""
    if estimate.method != "l2":
        raise PreconditionError("potential check applies to l2 estimates")
    return density_potential(estimate.minimizer, estimate.alpha, e)


def density_potential(f: np.ndarray, alpha: float, e) -> np.ndarray:
    """Convolution potential, at L2 parameter alpha, of a density f on
    the full grid, on the cells of E."""
    n = e.grid.n_points
    exponent = kernel_exponents(alpha).l2_convolution
    potential = _circulant_apply("kernel", n, exponent, np.arange(n), f)
    return potential[e.indices] / n


def poincare_check_mask(f, e, arc, alpha: float, beta: float, gamma: float, cfg=None):
    """``poincare_check`` as it resolved I and E cap I before it read both
    from I's runs: N-long masks of I and of E cap I (``mask_of(arc)`` and
    ``e.mask & in_i``) and boolean gathers over N, with the same
    preconditions raised in the same order. Returns the report and the
    cells of E cap I that the capacity is taken on."""
    from circle_potential.capacity import l2_capacity
    from circle_potential.circle import _cell_runs, _check_resolved
    from circle_potential.energy import _block_energies
    from circle_potential.poincare import _VANISHING_TOL, PoincareReport

    if not 0.0 < beta <= alpha <= 1.0:
        raise PreconditionError(f"need 0 < beta <= alpha <= 1, got beta={beta}, alpha={alpha}")
    if not 0.0 < gamma < 1.0:
        raise PreconditionError(f"gamma must be in (0, 1), got {gamma}")
    if arc.length > gamma * math.pi + 1e-12:
        raise PreconditionError(f"|I| = {arc.length:.6g} exceeds gamma*pi = {gamma * math.pi:.6g}")
    if f.grid is not e.grid and f.grid.n_points != e.grid.n_points:
        raise PreconditionError("f and E live on different grids")
    grid = f.grid
    n = grid.n_points
    in_i = grid.mask_of(arc)
    idx = np.flatnonzero(in_i)
    e_in_i = GridSet(grid, e.mask & in_i)
    if e_in_i.is_empty():
        raise PreconditionError("E cap I contains no grid cells")
    worst = float(np.max(np.abs(f.values[e_in_i.mask])))
    if worst >= _VANISHING_TOL:
        raise PreconditionError(f"f does not vanish on E cap I (max |f| = {worst:.3g})")
    _check_resolved(idx.size, "arc I")
    n2d = _block_energies(f.values[None], [_cell_runs(idx)], [(0, 0)], (alpha,))[0, 0, 0]
    energy = float(n2d) / n**2
    cap = l2_capacity(e_in_i, beta, cfg).value
    scale = arc.length ** (alpha - beta)
    if energy == 0.0:
        lhs = ratio = 0.0
    else:
        lhs = float(np.mean(np.abs(f.values[idx]))) ** 2
        ratio = lhs * cap / (scale * energy)
    report = PoincareReport(lhs=lhs, cap=cap, energy=energy, scale=scale, ratio=ratio,
                            alpha=alpha, beta=beta, gamma=gamma, grid_n=n)
    return report, e_in_i.indices
