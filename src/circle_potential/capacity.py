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
  autocorrelation of the kernel column. The primal density is
  recovered as f = (1/2) K^T lam and reported as the minimizer.

After normalization both are one problem: find x >= 0 with M x >= rhs
on E and equality on the support of x. The classical problem is
M = K, rhs = 1, with weights w = x / sum(x) and minimal energy
1 / sum(x); the L2 dual is M = G, rhs = 2N, with lam = x. One active-set
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
are, and principal blocks inherit it). Active sets of up to _CG_CELLS
cells are solved by a dense factorization of the block, the only kernel
matrix ever formed; larger ones by conjugate gradients, whose products
with M_AA, like every other product with K or G, are FFT convolutions
(``energy._circulant_apply``). They are preconditioned by the circulant
that the same FFT window embeds M_AA in (T. Chan 1988; R. Chan & Ng
1996): its inverse, applied to the zero-padded vector and restricted to
A, is exact on the full circle, which it solves without iterating, and
takes arcs and pairs of arcs to 5-15 iterations and depth-4 Cantor sets
to at most 29 at every N measured (up to 65536), against 33-640
unpreconditioned. All of these are indexed by cell difference, so
rotating E by whole cells changes results by roundoff.

Kernel exponent bookkeeping: for a divergence-test parameter beta, the
classical capacity uses kernel exponent 1 - beta while the L2 capacity
convolves with kernel exponent 1 - beta/2. ``kernel_exponents`` is the
single source for this mapping.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, asdict, dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy import linalg

from .circle import GridSet
from .errors import ConvergenceError, PreconditionError
from .energy import _check_kernel_exponent, _circulant_apply, _circulant_block


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


@dataclass(frozen=True)
class CapacityEstimate:
    """Capacity value with solver diagnostics.

    value = 1/energy for the classical method (energy_or_norm holds the
    minimal energy) and the squared norm itself for the l2 method.
    ``minimizer`` is the full-grid equilibrium weights (classical) or
    the optimal density f (l2).
    """

    value: float
    method: str
    alpha: float
    grid_n: int
    iterations: int
    kkt_residual: float
    energy_or_norm: float
    minimizer: np.ndarray | None = None
    notes: tuple[str, ...] = field(default=())

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


def _empty_estimate(method: str, alpha: float, n: int, energy_or_norm: float) -> CapacityEstimate:
    """The empty set has capacity 0 by convention."""
    return CapacityEstimate(
        value=0.0,
        method=method,
        alpha=alpha,
        grid_n=n,
        iterations=0,
        kkt_residual=0.0,
        energy_or_norm=energy_or_norm,
        minimizer=np.zeros(n),
        notes=("empty set",),
    )


# ---------------------------------------------------------------------------
# shared solver: active-set polish and its driver
# ---------------------------------------------------------------------------


# Active sets of more cells than this are solved by conjugate gradients,
# smaller ones by a dense factorization of the block, which is faster
# there (crossover measured on one thread; table in CHANGES.md).
_CG_CELLS = 512
# Conjugate gradients stop at ||r|| <= _CG_RTOL ||b||, far inside the KKT
# tolerance. The cap is about eighteen times the most iterations measured:
# 279, for 16384 random cells in half of a 65536-cell grid (L2 alpha 1);
# arcs, arc pairs and depth-4 Cantor sets took at most 29.
_CG_RTOL = 1e-13
_CG_MAX_ITERATIONS = 5000


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
    """x with M_AA x = rhs on ``cells``, or None when the solve fails. Up
    to _CG_CELLS cells the block is formed and factored; above, conjugate
    gradients apply M_AA and the preconditioner by
    ``energy._circulant_apply``, so no k x k array exists, and on all n
    cells the preconditioner alone solves the system."""
    b = np.full(len(cells), rhs)
    if len(cells) > _CG_CELLS:
        op = (table, n, exponent, cells)
        if len(cells) == n:  # the preconditioner's circulant is M_AA itself
            return _circulant_apply(*op, b, inverse=True)
        return _conjugate_gradient(partial(_circulant_apply, *op),
                                   partial(_circulant_apply, *op, inverse=True), b)
    try:
        # Bunch-Kaufman on the symmetric block, factored in place: its
        # transpose is the same matrix in LAPACK's column-major order
        return linalg.solve(_circulant_block(table, n, exponent, cells).T, b,
                            assume_a="sym", overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None


def _kkt_polish(op: tuple, rhs: float, tol: float, max_solves: int):
    """Active-set solve of x >= 0, M x >= rhs, with equality on the support.

    M is ``op = (table, n, exponent, cells)`` of ``energy``'s operator.
    Starting from every cell, solves M_AA x = rhs on the active cells
    (``_block_solve``: dense up to _CG_CELLS cells, conjugate gradients
    above), drops cells with nonpositive solution and adds off-active
    cells whose residual r = rhs - M x, formed with x over every cell,
    exceeds tol * max(rhs, sum(x)). Stops when no cell is added, when a
    solve fails (singular block, or conjugate gradients meet nonpositive
    curvature or their iteration cap), when every cell is dropped, or
    after max_solves solves. Returns (x, residual, solves): x over the
    local index range from the last solve with every entry positive and
    residual its certificate (the module docstring's), both None when
    no solve was positive, and the number of solves made. The residual
    is at most tol only when the polish stopped clean.
    """
    table, n, exponent, cells = op
    k = len(cells)
    act = np.arange(k)
    last = None, None
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
        r = rhs - _circulant_apply(*op, x)
        off = np.ones(k, dtype=bool)
        off[act] = False
        on_res = float(np.max(np.abs(r[act])))
        off_res = float(np.max(r[off], initial=0.0))
        last = x, max(on_res, off_res) / scale
        viol = np.nonzero(off & (r > tol * scale))[0]
        if viol.size == 0:
            break
        act = np.union1d(act, viol)
    return *last, solves


def _solve(name: str, op: tuple, rhs: float, finish, cfg: SolverConfig) -> CapacityEstimate:
    """Driver shared by both capacities: one polish of every cell of
    ``op``, capped at cfg.max_iterations solves, returned as
    ``finish(x, residual, solves)`` when it certifies. Otherwise raises
    ConvergenceError carrying the estimate of the polish's last positive
    solve, or None when there was none."""
    x, residual, solves = _kkt_polish(op, rhs, cfg.tolerance, cfg.max_iterations)
    best = None if x is None else finish(x, residual, solves)
    if best is None or not residual <= cfg.tolerance:
        raise ConvergenceError(
            f"{name} capacity solver did not reach tolerance {cfg.tolerance}",
            best_estimate=best,
        )
    return best


# ---------------------------------------------------------------------------
# classical capacity
# ---------------------------------------------------------------------------


def classical_capacity(e: GridSet, alpha: float, cfg: SolverConfig | None = None) -> CapacityEstimate:
    """Classical capacity of a grid set by energy minimization.

    The empty set has capacity 0 by convention.
    """
    _check_kernel_exponent(alpha)
    cfg = cfg or SolverConfig()
    n = e.grid.n_points
    if e.is_empty():
        return _empty_estimate("classical", alpha, n, math.inf)
    op = ("kernel", n, alpha, e.indices)
    return _solve("classical", op, 1.0, partial(_finish_classical, e, alpha), cfg)


def _finish_classical(e, alpha, x, residual, iterations):
    """Estimate from the polish solution x, whose entries are
    nonnegative and not all zero, and its certificate."""
    n = e.grid.n_points
    total = float(np.sum(x))
    energy_val = 1.0 / total
    minimizer = np.zeros(n)
    minimizer[e.indices] = x / total
    return CapacityEstimate(
        value=1.0 / energy_val,
        method="classical",
        alpha=alpha,
        grid_n=n,
        iterations=iterations,
        kkt_residual=residual,
        energy_or_norm=energy_val,
        minimizer=minimizer,
        notes=(),
    )


# ---------------------------------------------------------------------------
# l2 capacity
# ---------------------------------------------------------------------------


def l2_capacity(e: GridSet, alpha: float, cfg: SolverConfig | None = None) -> CapacityEstimate:
    """L2 capacity: minimal squared L2 norm of a nonnegative density whose
    Riesz potential (kernel exponent 1 - alpha/2) dominates 1 on E.

    Solved through the nonnegative dual described in the module
    docstring; the reported minimizer is the optimal density on the
    full grid, and at convergence its potential exceeds 1 - tolerance
    on every cell of E.
    """
    if not 0.0 < alpha <= 1.0:
        raise PreconditionError(f"alpha must be in (0, 1], got {alpha}")
    exponent = kernel_exponents(alpha).l2_convolution
    _check_kernel_exponent(exponent)  # 1 - alpha/2 rounds to 1.0 for alpha <= 2^-53
    cfg = cfg or SolverConfig()
    n = e.grid.n_points
    if e.is_empty():
        return _empty_estimate("l2", alpha, n, 0.0)
    op = ("autocorr", n, exponent, e.indices)
    return _solve("l2", op, 2.0 * n, partial(_finish_l2, e, alpha, exponent), cfg)


def _finish_l2(e, alpha, exponent, lam, residual, iterations):
    """Estimate from the dual solution lam and its certificate."""
    n = e.grid.n_points
    g_lam = _circulant_apply("autocorr", n, exponent, e.indices, lam)
    value = float(np.sum(lam) - np.sum(lam * g_lam) / (4.0 * n))
    # f = (1/2) K^T lam; the kernel is even, so this is a convolution
    lam_full = np.zeros(n)
    lam_full[e.indices] = lam
    f = 0.5 * _circulant_apply("kernel", n, exponent, np.arange(n), lam_full)
    return CapacityEstimate(
        value=value,
        method="l2",
        alpha=alpha,
        grid_n=n,
        iterations=iterations,
        kkt_residual=residual,
        energy_or_norm=value,
        minimizer=f,
        notes=(),
    )


def potential_on_set(estimate: CapacityEstimate, e: GridSet) -> np.ndarray:
    """Convolution potential of the l2 minimizer on the cells of E
    (feasibility diagnostic: should be >= 1 - tolerance everywhere)."""
    if estimate.method != "l2":
        raise PreconditionError("potential check applies to l2 estimates")
    n = e.grid.n_points
    exponent = kernel_exponents(estimate.alpha).l2_convolution
    potential = _circulant_apply("kernel", n, exponent, np.arange(n), estimate.minimizer)
    return potential[e.indices] / n


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
