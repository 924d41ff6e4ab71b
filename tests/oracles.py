"""Frozen reference values and independent recomputations.

Everything here is computed by routes that do not share code with the
package internals: closed forms, scipy quadrature called directly on
the defining integrals, high-precision series tails, the per-Arc
routes that array-backed arc families replaced, and the chunked-einsum
lattice minimum that the split scorer of ``acceptance`` replaced (it
shares only the enumeration ``_compositions``, which a product filter
checks in test_acceptance.py). The frozen digits were produced by those
same routes at high resolution and are pinned so that a regression in
the library cannot silently move the targets.
"""

import math

import numpy as np
from scipy.integrate import quad

from circle_potential import Arc
from circle_potential.acceptance import _compositions

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


def monomial_energy(n: int, alpha: float) -> float:
    """Independent quadrature of the energy of e^{int}:
    (1/pi) int_0^pi (2 sin(nt/2))^2 / (2 sin(t/2))^{1+alpha} dt."""
    def integrand(t):
        return (2.0 * math.sin(n * t / 2.0)) ** 2 / (2.0 * math.sin(t / 2.0)) ** (
            1.0 + alpha
        )

    val, _ = quad(integrand, 0.0, math.pi, limit=400)
    return val / math.pi


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
    ``log_reciprocal_arcs`` built them before families held arrays."""
    return tuple(Arc(1.0 / math.log(n + 1), 1.0 / math.log(n)) for n in range(2, n_max + 1))


def geometric_arcs_direct(ratio: float, count: int, start: float = 0.0) -> tuple:
    """Arc i runs from start + tail[i + 1] to start + tail[i], tail[i] the
    sum of the lengths ratio^(i+1)..ratio^count; one Arc at a time."""
    lengths = ratio ** np.arange(1, count + 1)
    tail = np.concatenate([np.cumsum(lengths[::-1])[::-1], [0.0]])
    return tuple(Arc(start + tail[i + 1], start + tail[i]) for i in range(count))


def cantor_arcs_direct(spec) -> tuple:
    """The final-stage arcs of a CantorSpec by a list doubled per stage,
    one Arc at a time."""
    lengths = [spec.stage_length(k) for k in range(spec.depth + 1)]
    host_start = -math.pi if spec.host is None else float(spec.host.start)
    lefts = [(spec.host_length - lengths[0]) / 2.0]
    for k in range(spec.depth):
        shift = lengths[k] - lengths[k + 1]
        lefts = [y for x in lefts for y in (x, x + shift)]
    return tuple(Arc(host_start + x, host_start + x + lengths[-1]) for x in lefts)


def decreasing_length_order(arcs) -> list[int]:
    """Arc indices by a Python sort on (-length, start)."""
    return sorted(range(len(arcs)), key=lambda i: (-arcs[i].length, float(arcs[i].start)))


def carleson_partial_sums_direct(arcs) -> np.ndarray:
    """Partial sums of |I| log |I| over Arc objects, longest first (the
    order of ``decreasing_length_order``), read through ``Arc.length``."""
    order = decreasing_length_order(arcs)
    lengths = np.array([arcs[i].length for i in order])
    return np.cumsum(lengths * np.log(lengths))


def lattice_min_einsum(K: np.ndarray, subdivisions: int) -> float:
    """Exhaustive minimum of w^T K w over the lattice of probability
    vectors with denominators ``subdivisions`` (small instances only).

    The lattice points are the compositions of ``subdivisions`` into c
    parts, scored in one chunk per value f of the first part: the rows
    [f, r] for r a composition of ``subdivisions - f`` into c - 1 parts.
    """
    c = K.shape[0]
    rest = _compositions(subdivisions, c - 1)
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
