"""Classical and L2 capacities by convex minimization on the grid.

Two capacities of a grid set E, both with the normalized arc measure:

* classical_capacity: C_alpha(E) = 1 / inf { I_alpha(mu) : mu a
  probability measure on E }. The discrete problem minimizes the
  quadratic form w^T K w over the probability simplex on E's cells,
  with K the difference-indexed kernel table of ``energy.kernel_column``
  (cell-averaged diagonal).

* l2_capacity: C_{alpha,2}(E) = inf { ||f||_{L2}^2 : f >= 0 and the
  convolution k_{1-alpha/2} * f >= 1 on E }. The discrete dual is a
  bound-constrained concave quadratic
      max_{lam >= 0}  sum(lam) - lam^T G lam / (4N),
  where G restricts the "autocorr" table of ``energy``, the circular
  autocorrelation of the kernel column. The primal density
  f = (1/2) K^T lam is the minimizer.

After normalization both are one problem: find x >= 0 with M x >= rhs
on E and equality on the support of x. The classical problem is
M = K, rhs = 1, with weights w = x / sum(x) and minimal energy
1 / sum(x); the L2 dual is M = G, rhs = 2N, with lam = x. An estimate
holds that solution on E's cells (w, or lam) and builds the N-cell
minimizer from it only when it is read. One active-set
polish (Lawson-Hanson style) solves both, starting from every cell of
E, as Riesz equilibrium measures charge the whole set: solve
M_AA x = rhs, drop cells with x <= 0, add cells whose residual
r = rhs - M x exceeds tolerance * max(rhs, sum(x)). Its certificate,
reported as kkt_residual, is

    max( max |r| on the support, max(r, 0) off it ) / max(rhs, sum(x)).

For the classical capacity this is the gap between the equilibrium
potential and its level 1 / sum(x), relative to max(1, level). For the
L2 dual sum(lam) = 2 C_{alpha,2} stays below 2N, so the scale is 2N and
the certificate is the dual gradient 1 - (G lam) / (2N).

The polish drops every nonpositive cell at once, without the
Lawson-Hanson step back, so nothing but max_iterations bounds its
number of solves, which is what ``iterations`` reports; every set in
the tests, the release gate and the benchmark certifies on its first.
A polish whose solve fails, that runs out of solves, or whose
certificate misses the tolerance raises ConvergenceError carrying the
estimate of its last solve with every entry positive, or None when no
solve gave one.

Every block M_AA is symmetric positive definite (the full circulants
are, and principal blocks inherit it). ``_block_solve`` routes an
active set of k cells by its size and its runs. Up to _CG_CELLS cells,
a set that is one cyclic run (an arc, across -pi too) is, in cyclic
order, the symmetric Toeplitz system of the table's first k entries,
solved by Levinson recursion (``scipy.linalg.solve_toeplitz``) in
O(k^2) time and O(k) memory, weakly stable on such matrices (Cybenko
1980; Bunch 1985); any other set of up to _CG_CELLS cells by LAPACK's
pivoted Cholesky of its block (dpstrf; Hammarling, Higham & Lucas 2007)
and dpotrs, the only kernel matrix ever formed, which fails below full
numerical rank. Not dpotrf: OpenBLAS threads its own from 128 cells, and
its bytes then depend on the thread count; dpstrf is reference LAPACK.
Larger sets are solved by conjugate gradients, whose products with
M_AA, like every other product with K or G, are FFT convolutions
(``energy._circulant_apply``). They are preconditioned by the circulant
that the same FFT window embeds M_AA in (T. Chan 1988; R. Chan & Ng
1996): its inverse, applied to the zero-padded vector and restricted to
A, is exact on the full circle, which it solves without iterating, and
takes arcs and pairs of arcs to 5-15 iterations and depth-4 Cantor sets
to at most 29 at every N measured (up to 65536), against 33-640
unpreconditioned. The FFT window (``energy._window``) is made once per
cell set: once per polish for its residual products and once per solve
for every conjugate-gradient product and preconditioner application.
The L2 value takes G lam from the polish's last residual product. All
of these are indexed by cell difference, so rotating E by whole cells
changes results by roundoff.

Kernel exponent bookkeeping: for a divergence-test parameter beta, the
classical capacity uses kernel exponent 1 - beta while the L2 capacity
convolves with kernel exponent 1 - beta/2. ``kernel_exponents`` is the
single source for this mapping. The classical exponent is 0 or at least
S_MIN: near 0, chord^(-s) tends to 1 and K to the singular all-ones
matrix.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, asdict, dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np
from scipy import linalg

from .circle import GridSet, _cell_runs
from .errors import ConvergenceError, PreconditionError
from .energy import _check_kernel_exponent, _circulant_apply, _circulant_block, _table, _window


class KernelExponents(NamedTuple):
    classical: float
    l2_convolution: float


def kernel_exponents(beta: float) -> KernelExponents:
    """Kernel exponents used by the two capacities at parameter beta."""
    if not 0.0 < beta <= 1.0:
        raise PreconditionError(f"beta must be in (0, 1], got {beta}")
    return KernelExponents(classical=1.0 - beta, l2_convolution=1.0 - beta / 2.0)


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rules for the capacity solvers."""

    tolerance: float = 1e-8
    max_iterations: int = 50_000
    # Accepted, validated and ignored: the two iteration rules it chose
    # between are gone, but the benchmark's capacity workload still labels
    # its queries by them. Not stored, so configs no longer echo it.
    step_rule: InitVar[str] = "frank_wolfe"

    def __post_init__(self, step_rule):
        if not 0.0 < self.tolerance < math.inf:
            raise PreconditionError("tolerance must be positive and finite")
        if self.max_iterations < 1:
            raise PreconditionError("max_iterations must be >= 1")
        if step_rule not in ("frank_wolfe", "projected_gradient"):
            raise PreconditionError(f"unknown step_rule {step_rule!r}")


@dataclass(frozen=True, eq=False)
class CapacityEstimate:
    """Capacity value with solver diagnostics and the polish's solution.

    value = 1/energy for the classical method (energy_or_norm holds the
    minimal energy) and the squared norm itself for the l2 method.
    ``weights`` is the solution on E's ``cells``: the equilibrium weights
    (classical) or the dual lam (l2). ``minimizer`` is built from them on
    its first read and kept: the full-grid equilibrium weights, or the
    optimal density f = (1/2) K^T lam. The density is made from the
    kernel table in force at that read, so one first read inside
    ``energy.kernel_fault`` (as in the release gate's determinism probe)
    sees the faulted kernel.
    """

    value: float
    method: str
    alpha: float
    grid_n: int
    iterations: int
    kkt_residual: float
    energy_or_norm: float
    cells: np.ndarray
    weights: np.ndarray
    notes: tuple[str, ...] = field(default=())

    @cached_property
    def minimizer(self) -> np.ndarray:
        n = self.grid_n
        full = np.zeros(n)
        full[self.cells] = self.weights
        if self.method == "l2" and self.cells.size:
            # the kernel is even, so K^T lam is a convolution
            exponent = kernel_exponents(self.alpha).l2_convolution
            return 0.5 * _circulant_apply("kernel", n, exponent, np.arange(n), full)
        return full

    def to_json(self) -> dict:
        return {
            "capacity": self.value,
            "method": self.method,
            "alpha": self.alpha,
            "grid_n": self.grid_n,
            "iterations": self.iterations,
            "kkt_residual": self.kkt_residual,
            "energy_or_norm": self.energy_or_norm,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# shared solver: active-set polish and its driver
# ---------------------------------------------------------------------------


# Active sets of more cells than this are solved by conjugate gradients,
# smaller ones by Levinson recursion (one run) or a dense factorization
# of the block (several runs), which are faster there (crossovers
# measured on one thread; tables in CHANGES.md).
_CG_CELLS = 512
# Conjugate gradients stop at ||r|| <= _CG_RTOL ||b||, far inside the KKT
# tolerance. The cap is about eighteen times the most iterations measured:
# 279, for 16384 random cells in half of a 65536-cell grid (L2 alpha 1);
# arcs, arc pairs and depth-4 Cantor sets took at most 29.
_CG_RTOL = 1e-13
_CG_MAX_ITERATIONS = 5000
# Dense blocks: LAPACK's pivoted Cholesky and its triangular solves
# (not dpotrf; see the module docstring).
_pstrf, _potrs = linalg.get_lapack_funcs(("pstrf", "potrs"), dtype=np.float64)


def _conjugate_gradient(apply, precondition, b: np.ndarray):
    """Preconditioned conjugate gradients for A x = b from x = 0,
    ``apply(p)`` being A p and ``precondition(r)`` P^-1 r; None on
    nonpositive curvature p^T A p or r^T P^-1 r, or at the iteration cap."""
    x = np.zeros_like(b)
    r = b.copy()
    p = precondition(r)
    rz = float(np.sum(r * p))
    stop = _CG_RTOL**2 * float(np.sum(r * r))
    for _ in range(_CG_MAX_ITERATIONS):
        if not rz > 0.0:
            return None
        ap = apply(p)
        curvature = float(np.sum(p * ap))
        if not curvature > 0.0:
            return None
        step = rz / curvature
        x += step * p
        r -= step * ap
        if float(np.sum(r * r)) <= stop:
            return x
        z = precondition(r)
        rz_next = float(np.sum(r * z))
        p = z + (rz_next / rz) * p
        rz = rz_next
    return None


def _block_solve(table: str, n: int, exponent: float, cells: np.ndarray, rhs: float):
    """x with M_AA x = rhs on sorted ``cells``, or None when the solve
    fails. Up to _CG_CELLS cells, one cyclic run is solved as the
    Toeplitz system of the table's first k entries and any other set by
    forming the block and factoring it by pivoted Cholesky, which fails
    below full rank; above, conjugate gradients apply M_AA and the
    preconditioner by ``energy._circulant_apply`` over one window of the
    cells, and on all n cells the preconditioner alone solves the
    system. Only the dense route forms a k x k array."""
    k = len(cells)
    b = np.full(k, rhs)
    if k > _CG_CELLS:
        op = (table, n, exponent, _window(n, cells))
        if k == n:  # the preconditioner's circulant is M_AA itself
            return _circulant_apply(*op, b, inverse=True)
        return _conjugate_gradient(partial(_circulant_apply, *op),
                                   partial(_circulant_apply, *op, inverse=True), b)
    # one cyclic run: one sorted run (cut 0), or two that meet across
    # cell n - 1 -> 0, the run starting after the first one's cut cells
    first, last = int(cells[0]), int(cells[-1])
    if last - first == k - 1:
        cut = 0
    elif first == 0 and last == n - 1 and len(runs := _cell_runs(cells)) == 2:
        cut = runs[0][1]
    else:
        cut = None
    if cut is not None:
        # in cyclic order the block is Toeplitz; b is constant, so only x
        # goes back to sorted order
        try:
            x = linalg.solve_toeplitz(_table(table, n, exponent)[:k], b, check_finite=False)
        except np.linalg.LinAlgError:
            return None
        return np.roll(x, cut) if cut else x
    # pivoted Cholesky P^T M_AA P = U^T U, factored in place: the block's
    # transpose is the same matrix in LAPACK's column-major order. info > 0
    # is a computed rank below k (or a block not semidefinite). b is
    # constant, so only the solution y of U^T U y = b is unpermuted.
    u, piv, _, info = _pstrf(_circulant_block(table, n, exponent, cells).T, overwrite_a=True)
    if info != 0:
        return None
    y, _ = _potrs(u, b)
    x = np.empty(k)
    x[piv - 1] = y
    return x


def _kkt_polish(op: tuple, rhs: float, tol: float, max_solves: int):
    """Active-set solve of x >= 0, M x >= rhs, with equality on the support.

    M is ``op = (table, n, exponent, cells)`` of ``energy``'s operator.
    Starting from every cell, solves M_AA x = rhs on the active cells
    (``_block_solve``: Levinson or pivoted Cholesky up to _CG_CELLS
    cells, conjugate gradients above), drops cells with nonpositive
    solution and adds off-active cells whose residual r = rhs - M x,
    formed with x over every cell, exceeds tol * max(rhs, sum(x)). Stops
    when no cell is added, when a solve fails (a singular Toeplitz
    system, a dense block below full rank, or conjugate gradients
    meeting nonpositive curvature or their iteration cap), when every
    cell is dropped, or after max_solves solves. Returns (x, mx,
    residual, solves): x over the local index range from the last solve
    with every entry positive, mx = M x, the product its residual was
    formed from, and residual its certificate (the module docstring's),
    all None when no solve was positive, and the number of solves made.
    The residual is at most tol only when the polish stopped clean.
    Every residual product reuses one window of ``cells``
    (``energy._window``).
    """
    table, n, exponent, cells = op
    k = len(cells)
    window = _window(n, cells)
    act = np.arange(k)
    last = None, None, None
    solves = 0
    while solves < max_solves:
        x_act = _block_solve(table, n, exponent, cells[act], rhs)
        if x_act is None:
            break
        solves += 1
        if np.any(x_act <= 0.0):
            keep = x_act > 0.0
            if not np.any(keep):
                break
            act = act[keep]
            continue
        scale = max(rhs, float(np.sum(x_act)))
        x = np.zeros(k)
        x[act] = x_act
        mx = _circulant_apply(table, n, exponent, window, x)
        r = rhs - mx
        off = np.ones(k, dtype=bool)
        off[act] = False
        on_res = float(np.max(np.abs(r[act])))
        off_res = float(np.max(r[off], initial=0.0))
        last = x, mx, max(on_res, off_res) / scale
        viol = np.nonzero(off & (r > tol * scale))[0]
        if viol.size == 0:
            break
        act = np.union1d(act, viol)
    return *last, solves


def _solve(method: str, alpha: float, op: tuple, rhs: float, cfg: SolverConfig) -> CapacityEstimate:
    """Driver shared by both capacities: one polish of every cell of
    ``op``, capped at cfg.max_iterations solves, returned as the estimate
    of its solution when it certifies. Otherwise raises ConvergenceError
    carrying the estimate of the polish's last positive solve, or None
    when there was none. The empty set has capacity 0 by convention."""
    _, n, _, cells = op
    classical = method == "classical"
    if cells.size == 0:
        return CapacityEstimate(0.0, method, alpha, n, 0, 0.0, math.inf if classical else 0.0,
                                cells, np.zeros(0), notes=("empty set",))
    x, mx, residual, solves = _kkt_polish(op, rhs, cfg.tolerance, cfg.max_iterations)
    best = None
    if x is not None:
        if classical:  # weights x / sum(x), minimal energy 1 / sum(x)
            total = float(np.sum(x))
            norm = 1.0 / total
            value, weights = 1.0 / norm, x / total
        else:  # lam = x, and mx = G lam is the polish's last residual product
            value = norm = float(np.sum(x) - np.sum(x * mx) / (4.0 * n))
            weights = x
        best = CapacityEstimate(value, method, alpha, n, solves, residual, norm, cells, weights)
    if best is None or not residual <= cfg.tolerance:
        raise ConvergenceError(
            f"{method} capacity solver did not reach tolerance {cfg.tolerance}",
            best_estimate=best,
        )
    return best


# ---------------------------------------------------------------------------
# classical capacity
# ---------------------------------------------------------------------------


# The smallest positive kernel exponent the classical capacity accepts.
# As s -> 0, chord^(-s) -> 1 (not |log chord|, the s = 0 kernel), so K
# tends to the singular all-ones matrix and the polish loses its
# certificate. Probed on arcs, scattered and Cantor sets of 2 to 52,153
# cells at N = 64 to 65536, every set certified on its first solve down
# to s = 1e-10; the first not to was the largest arc at N = 65536, at
# s = 3e-11 (1e-12 at N = 4096). The onset grows with the set; S_MIN
# keeps a factor 30 over the worst.
S_MIN = 1e-9


def classical_capacity(e: GridSet, alpha: float, cfg: SolverConfig | None = None) -> CapacityEstimate:
    """Classical capacity of a grid set by energy minimization.

    The kernel exponent is 0 (the logarithmic kernel) or in [S_MIN, 1);
    0 < alpha < S_MIN raises PreconditionError. The empty set has
    capacity 0 by convention.
    """
    _check_kernel_exponent(alpha)
    if 0.0 < alpha < S_MIN:
        raise PreconditionError(
            f"classical kernel exponent must be 0 or at least S_MIN = {S_MIN:g}, got {alpha}"
        )
    op = ("kernel", e.grid.n_points, alpha, e.indices)
    return _solve("classical", alpha, op, 1.0, cfg or SolverConfig())


# ---------------------------------------------------------------------------
# l2 capacity
# ---------------------------------------------------------------------------


def l2_capacity(e: GridSet, alpha: float, cfg: SolverConfig | None = None) -> CapacityEstimate:
    """L2 capacity: minimal squared L2 norm of a nonnegative density whose
    Riesz potential (kernel exponent 1 - alpha/2) dominates 1 on E.

    Solved through the nonnegative dual described in the module
    docstring; the estimate's minimizer is the optimal density on the
    full grid, and at convergence its potential exceeds 1 - tolerance
    on every cell of E.
    """
    if not 0.0 < alpha <= 1.0:
        raise PreconditionError(f"alpha must be in (0, 1], got {alpha}")
    exponent = kernel_exponents(alpha).l2_convolution
    _check_kernel_exponent(exponent)  # 1 - alpha/2 rounds to 1.0 for alpha <= 2^-53
    n = e.grid.n_points
    return _solve("l2", alpha, ("autocorr", n, exponent, e.indices), 2.0 * n, cfg or SolverConfig())


@dataclass(frozen=True)
class ComparabilityReport:
    c_classical: float
    c_l2: float
    ratio: float
    beta: float
    grid_n: int

    def to_json(self) -> dict:
        return asdict(self)


def comparability_report(e: GridSet, beta: float, cfg: SolverConfig | None = None) -> ComparabilityReport:
    """Classical capacity at kernel exponent 1 - beta next to the L2
    capacity at parameter beta, plus their ratio."""
    exps = kernel_exponents(beta)
    c_cl = classical_capacity(e, exps.classical, cfg).value
    c_l2 = l2_capacity(e, beta, cfg).value
    ratio = math.inf if c_l2 == 0.0 else c_cl / c_l2
    return ComparabilityReport(
        c_classical=c_cl,
        c_l2=c_l2,
        ratio=ratio,
        beta=beta,
        grid_n=e.grid.n_points,
    )
