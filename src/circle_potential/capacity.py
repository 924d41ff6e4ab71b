"""Classical and L2 capacities by one linear solve on the grid.

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
minimizer from it only when it is read.

Equilibrium measures charge the whole set, and on the grid this is a
sign pattern: x = M_EE^-1 rhs, one solve on every cell of E, has every
entry positive, so x >= 0 holds, the support is E and nothing is left to
search. Let A be the inverse of the full N x N circulant of a table t.
When A's off-diagonal entries are <= 0 (A is an M-matrix), its row sums
are 1 / sum(t), and the inverse of any principal block M_EE is a Schur
complement of A, whose row sums are at least 1 / sum(t); so
M_EE^-1 1 >= 1 / sum(t) entrywise, for every E (Dellacherie, Martinez &
San Martin, Inverse M-Matrices and Ultrametric Matrices, LNM 2118, 2014;
the discrete face of the domination principle, Landkof 1972). One FFT
checks the sign pattern of a table, irfft(1 / rfft(t))[1:] <= 0: it
holds for every L2 table (alpha = 1e-3 to 1) and for every kernel table
with s >= 0.05, at N = 64 to 65536. It fails for the logarithmic kernel
(s = 0) and for s = 1e-9 at N >= 4096, so at s = 0 and at s below about
0.05 positivity is observed on every set tried, not proved. The
certificate, reported as kkt_residual, is

    max |r| / max(rhs, sum(x)),    r = rhs - M x on E,

the KKT residual of a solution whose support is all of E. For the
classical capacity this is the gap between the equilibrium potential
and its level 1 / sum(x), relative to max(1, level). For the L2 dual
sum(lam) = 2 C_{alpha,2} stays below 2N, so the scale is 2N and the
certificate is the dual gradient 1 - (G lam) / (2N). A solve that fails
or gives an entry <= 0 raises ConvergenceError without an estimate (the
message names the grid cell of that entry); a certificate that misses
the tolerance raises it carrying the uncertified estimate.

Every block M_EE is symmetric positive definite (the full circulants
are, and principal blocks inherit it). ``_block_solve`` routes a set of
k cells by its size and its runs. A set of at most _BLOCK_CELLS = 64
cells is solved on its formed block, by LAPACK's pivoted Cholesky
(dpstrf; Hammarling, Higham & Lucas 2007) and dpotrs, which fail below
full numerical rank, and the same block gives the residual product M x
and the L2 value's G lam: no FFT window, no transform and no Toeplitz
call, whose fixed costs (13 to 37 us for a window and its FFT pair, 16
to 22 us for scipy's Levinson wrapper) are most of a small set's solve.
That crossover was measured on one thread at N = 4096: a one-run set
costs the same either way at about 64 cells (60 against 68 us for the
classical capacity), and Levinson wins above (83 against 71 us at 80);
sets of several runs gain up to 96 cells and more. Up to _CG_CELLS
cells, a set that is one cyclic run (an arc, across -pi too) is, in
cyclic order, the symmetric Toeplitz system of the table's first k
entries, solved by Levinson recursion (``scipy.linalg.solve_toeplitz``)
in O(k^2) time and O(k) memory, weakly stable on such matrices (Cybenko
1980; Bunch 1985); any other set by pivoted Cholesky of its block, the
only kernel matrix formed above _BLOCK_CELLS cells. Not dpotrf: OpenBLAS
threads its own from 128 cells, and its bytes then depend on the thread
count; dpstrf is reference LAPACK. Larger sets are solved by conjugate
gradients, whose products with M_EE, like every product with K or G off
the block route, are FFT convolutions (``energy._circulant_apply``).
They are preconditioned by the circulant that the same FFT window embeds
M_EE in (T. Chan 1988; R. Chan & Ng 1996): its inverse, applied to the
zero-padded vector and restricted to E, is exact on the full circle,
which it solves without iterating, and takes arcs and pairs of arcs to
5-15 iterations and depth-4 Cantor sets to at most 29 at every N
measured (up to 65536), against 33-640 unpreconditioned. Above
_BLOCK_CELLS cells the FFT window of E (``energy._window``) is made once
per capacity and serves its residual product and every
conjugate-gradient product and preconditioner application; the L2 value
takes G lam from the residual product. All of these are indexed by cell
difference, so rotating E by whole cells changes results by roundoff.

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
    """Certificate tolerance of the capacity solvers."""

    tolerance: float = 1e-8
    # Accepted, validated and ignored: the two iteration rules it chose
    # between are gone, but the benchmark's capacity workload still labels
    # its queries by them. Not stored, so configs no longer echo it.
    step_rule: InitVar[str] = "frank_wolfe"

    def __post_init__(self, step_rule):
        if not 0.0 < self.tolerance < math.inf:
            raise PreconditionError("tolerance must be positive and finite")
        if step_rule not in ("frank_wolfe", "projected_gradient"):
            raise PreconditionError(f"unknown step_rule {step_rule!r}")


_DEFAULT_SOLVER = SolverConfig()


@dataclass(frozen=True, eq=False)
class CapacityEstimate:
    """Capacity value with solver diagnostics and the solve's solution.

    value = 1/energy for the classical method (energy_or_norm holds the
    minimal energy) and the squared norm itself for the l2 method.
    ``weights`` is the solution on E's ``cells``: the equilibrium weights
    (classical) or the dual lam (l2). ``minimizer`` is built from them on
    its first read and kept: the full-grid equilibrium weights, or the
    optimal density f = (1/2) K^T lam. The density is made from the
    kernel table in force at that read, so one first read inside
    ``energy.kernel_fault`` (as in the release gate's determinism probe)
    sees the faulted kernel. The estimate takes ``cells`` and ``weights``
    over, uncopied, and makes them read-only, as ``minimizer`` is.
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

    def __post_init__(self):
        self.cells.setflags(write=False)
        self.weights.setflags(write=False)

    @cached_property
    def minimizer(self) -> np.ndarray:
        n = self.grid_n
        full = np.zeros(n)
        full[self.cells] = self.weights
        if self.method == "l2" and self.cells.size:
            # the kernel is even, so K^T lam is a convolution
            exponent = kernel_exponents(self.alpha).l2_convolution
            full = 0.5 * _circulant_apply("kernel", n, exponent, np.arange(n), full)
        full.setflags(write=False)
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
# shared solver: one solve on every cell and its certificate
# ---------------------------------------------------------------------------


# Sets of at most _BLOCK_CELLS cells are solved and certified on their
# formed block, which costs less there than a window, its FFTs and a
# Levinson call; sets of more than _CG_CELLS cells by conjugate
# gradients; those in between by Levinson recursion (one run) or a dense
# factorization of the block (several runs), which are faster there
# (crossovers measured on one thread; tables in CHANGES.md).
_BLOCK_CELLS = 64
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


def _cholesky_solve(block: np.ndarray, b: np.ndarray):
    """x with block x = b for constant b by pivoted Cholesky, or None
    below full rank. P^T M P = U^T U is factored in place: the block's
    transpose is the same matrix in LAPACK's column-major order. info > 0
    is a computed rank below k (or a block not semidefinite). b is
    constant, so only the solution y of U^T U y = b is unpermuted."""
    u, piv, _, info = _pstrf(block.T, overwrite_a=True)
    if info != 0:
        return None
    y, _ = _potrs(u, b)
    x = np.empty(len(b))
    x[piv - 1] = y
    return x


def _block_solve(table: str, n: int, exponent: float, cells: np.ndarray, rhs: float):
    """(x, M_EE x) for x with M_EE x = rhs on sorted ``cells``, or None
    when the solve fails. Up to _BLOCK_CELLS cells the block is formed
    once, factored by pivoted Cholesky and multiplied by x. Up to
    _CG_CELLS cells, one cyclic run is solved as the Toeplitz system of
    the table's first k entries and any other set by pivoted Cholesky of
    its block; above, conjugate gradients apply M_EE and the
    preconditioner by ``energy._circulant_apply``, and on all n cells
    the preconditioner alone solves the system. Those routes make one
    ``Window`` of the cells, which also gives M_EE x."""
    k = len(cells)
    b = np.full(k, rhs)
    if k <= _BLOCK_CELLS:
        block = _circulant_block(table, n, exponent, cells)
        x = _cholesky_solve(block.copy(), b)
        return None if x is None else (x, block @ x)
    apply = partial(_circulant_apply, table, n, exponent, _window(n, cells))
    first, last = int(cells[0]), int(cells[-1])
    if k > _CG_CELLS:
        if k == n:  # the preconditioner's circulant is M_EE itself
            x = apply(b, inverse=True)
        else:
            x = _conjugate_gradient(apply, partial(apply, inverse=True), b)
    elif last - first == k - 1 or (first == 0 and last == n - 1 and len(runs := _cell_runs(cells)) == 2):
        # one cyclic run: one sorted run, or two that meet across cell
        # n - 1 -> 0. In cyclic order the block is Toeplitz; b is
        # constant, so only x goes back to sorted order, rolled by the
        # first sorted run's count
        try:
            x = linalg.solve_toeplitz(_table(table, n, exponent)[:k], b, check_finite=False)
        except np.linalg.LinAlgError:
            return None
        if last - first != k - 1:
            x = np.roll(x, runs[0][1])
    else:
        x = _cholesky_solve(_circulant_block(table, n, exponent, cells), b)
    return None if x is None else (x, apply(x))


def _solve(method: str, alpha: float, op: tuple, rhs: float, cfg: SolverConfig) -> CapacityEstimate:
    """Driver shared by both capacities: one ``_block_solve`` of M x = rhs
    on every cell of ``op = (table, n, exponent, cells)`` and its
    certificate (the module docstring's), returned as the estimate when
    it is at most cfg.tolerance. A solve that fails (a singular Toeplitz
    system, a dense block below full rank, or conjugate gradients meeting
    nonpositive curvature or their iteration cap) or has an entry <= 0
    raises ConvergenceError without an estimate; a certificate above the
    tolerance raises it carrying the estimate. The residual product
    comes with the solution, from the block or the window that served
    the solve. The empty set has capacity 0 by convention."""
    table, n, exponent, cells = op
    classical = method == "classical"
    if cells.size == 0:
        return CapacityEstimate(0.0, method, alpha, n, 0, 0.0, math.inf if classical else 0.0,
                                cells, np.zeros(0), notes=("empty set",))
    solved = _block_solve(table, n, exponent, cells, rhs)
    if solved is None:
        raise ConvergenceError(f"{method} capacity solve failed on {len(cells)} cells")
    x, mx = solved
    nonpositive = np.flatnonzero(x <= 0.0)
    if nonpositive.size:
        j = int(nonpositive[0])
        raise ConvergenceError(
            f"{method} capacity solve gave {x[j]!r} <= 0 at grid cell {int(cells[j])}"
        )
    total = float(np.sum(x))
    residual = float(np.max(np.abs(rhs - mx))) / max(rhs, total)
    if classical:  # weights x / sum(x), minimal energy 1 / sum(x)
        norm = 1.0 / total
        value, weights = 1.0 / norm, x / total
    else:  # lam = x and mx = G lam
        value = norm = float(total - np.sum(x * mx) / (4.0 * n))
        weights = x
    est = CapacityEstimate(value, method, alpha, n, 1, residual, norm, cells, weights)
    if not residual <= cfg.tolerance:
        raise ConvergenceError(
            f"{method} capacity solver did not reach tolerance {cfg.tolerance}",
            best_estimate=est,
        )
    return est


# ---------------------------------------------------------------------------
# classical capacity
# ---------------------------------------------------------------------------


# The smallest positive kernel exponent the classical capacity accepts.
# As s -> 0, chord^(-s) -> 1 (not |log chord|, the s = 0 kernel), so K
# tends to the singular all-ones matrix and the solve loses its
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
    return _solve("classical", alpha, op, 1.0, cfg or _DEFAULT_SOLVER)


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
    return _solve("l2", alpha, ("autocorr", n, exponent, e.indices), 2.0 * n, cfg or _DEFAULT_SOLVER)


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
