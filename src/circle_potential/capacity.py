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
1 / sum(x); the L2 dual is M = G, rhs = 2N, with lam = x. One driver
solves both by an active-set polish (Lawson-Hanson style), first on
every cell of E, as Riesz equilibrium measures charge the whole set:
solve M_AA x = rhs, drop cells with x <= 0, add cells whose
residual r = rhs - M x exceeds tolerance * max(rhs, sum(x)). Its
certificate, reported as kkt_residual, is

    max( max |r| on the support, max(r, 0) off it ) / max(rhs, sum(x)).

For the classical capacity this is the gap between the equilibrium
potential and its level 1 / sum(x), relative to max(1, level). For the
L2 dual sum(lam) = 2 C_{alpha,2} stays below 2N, so the scale is 2N and
the certificate is the dual gradient 1 - (G lam) / (2N).

Only a polish that fails or misses the tolerance is followed by descent
steps to relocate the support: Frank-Wolfe or projected gradient on the
simplex (classical), projected gradient on lam >= 0 (L2), the latter
two stepping by 1 / (largest row sum of M), a bound on its largest
eigenvalue as the tables are nonnegative. Descent steps and polish
solves both count toward max_iterations; a solver that runs out of
iterations, or stalls with neither a descent step nor a polish
solution, raises ConvergenceError carrying its best estimate.

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
unpreconditioned. A Frank-Wolfe column is a table lookup. All of these
are indexed by cell difference, so rotating E by whole cells changes
results by roundoff.

Kernel exponent bookkeeping: for a divergence-test parameter beta, the
classical capacity uses kernel exponent 1 - beta while the L2 capacity
convolves with kernel exponent 1 - beta/2. ``kernel_exponents`` is the
single source for this mapping.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy import linalg

from .circle import GridSet
from .errors import ConvergenceError, PreconditionError
from .energy import _circulant_apply, _circulant_block, kernel_column

_STEP_RULES = ("frank_wolfe", "projected_gradient")


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
    step_rule: str = "frank_wolfe"

    def __post_init__(self):
        if not 0.0 < self.tolerance < math.inf:
            raise PreconditionError("tolerance must be positive and finite")
        if self.max_iterations < 1:
            raise PreconditionError("max_iterations must be >= 1")
        if self.step_rule not in _STEP_RULES:
            raise PreconditionError(
                f"step_rule must be one of {_STEP_RULES}, got {self.step_rule!r}"
            )


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


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


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
# shared solver: active-set polish, projected gradient, outer driver
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


def _kkt_polish(op: tuple, rhs: float, active: np.ndarray, tol: float, rounds: int = 200):
    """Active-set solve of x >= 0, M x >= rhs, with equality on the support.

    M is ``op = (table, n, exponent, cells)`` of ``energy``'s operator.
    Solves M_AA x = rhs on the active cells (``_block_solve``: dense up
    to _CG_CELLS cells, conjugate gradients above), drops cells with
    nonpositive solution and adds off-active cells whose residual
    r = rhs - M x, formed with x over every cell, exceeds
    tol * max(rhs, sum(x)), until clean or out of rounds. Returns
    (x, residual, solves), x over the local index range and residual the
    module docstring's certificate; None when a solve fails (singular
    block, or conjugate gradients meet nonpositive curvature or their
    iteration cap) or every cell is dropped.
    """
    table, n, exponent, cells = op
    k = len(cells)
    act = active if active.size else np.arange(k)
    solves = 0
    for _ in range(rounds):
        x_act = _block_solve(table, n, exponent, cells[act], rhs)
        if x_act is None:
            return None
        solves += 1
        if np.any(x_act <= 0.0):
            keep = x_act > 0.0
            if not np.any(keep):
                return None
            act = act[keep]
            continue
        scale = max(rhs, float(np.sum(x_act)))
        x = np.zeros(k)
        x[act] = x_act
        r = rhs - _circulant_apply(*op, x)
        off = np.ones(k, dtype=bool)
        off[act] = False
        viol = np.nonzero(off & (r > tol * scale))[0]
        if viol.size == 0:
            on_res = float(np.max(np.abs(r[act])))
            off_res = float(np.max(r[off], initial=0.0))
            return x, max(on_res, off_res) / scale, solves
        act = np.union1d(act, viol)
    return None


def _projected_gradient(x: np.ndarray, budget: int, step: float, grad, project):
    """Up to ``budget`` steps x <- project(x - step * grad(x)), stopping
    early once an update moves no entry by more than 1e-15; returns the
    iterate and the number of steps taken."""
    steps = 0
    for _ in range(budget):
        x_new = project(x - step * grad(x))
        moved = float(np.max(np.abs(x_new - x)))
        x = x_new
        steps += 1
        if moved <= 1e-15:
            break
    return x, steps


def _solve(name: str, op: tuple, rhs: float, x: np.ndarray, descend, finish,
           support_floor: float, cfg: SolverConfig) -> CapacityEstimate:
    """Outer driver shared by both capacities.

    Round 0 polishes every cell of ``op``. Each later round runs
    ``descend(x, budget) -> (x, steps)`` from the given x on and polishes
    the support {x > support_floor * max(x)}; budgets grow fourfold from
    200. The first polish solution that meets the tolerance is returned
    as ``finish(x, residual, iterations)``. A later round with no descent
    step and no polish solution could only repeat itself, so it raises
    ConvergenceError, as does running out of iterations. The error
    carries the last polished estimate, or else ``finish(x, None,
    iterations)`` of the descent iterate.
    """
    k = len(x)
    total_steps = 0
    budget = 200
    best = None
    support, steps = np.arange(k), None  # round 0 takes no descent step
    while True:
        polished = _kkt_polish(op, rhs, support, cfg.tolerance)
        if polished is not None:
            sol, residual, solves = polished
            total_steps += solves
            best = finish(sol, residual, total_steps)
            if residual <= cfg.tolerance:
                return best
        stalled = steps == 0 and polished is None
        if stalled or total_steps >= cfg.max_iterations:
            if best is None:
                best = finish(x, None, total_steps)
            raise ConvergenceError(
                f"{name} capacity solver did not reach tolerance {cfg.tolerance}",
                best_estimate=best,
            )
        x, steps = descend(x, min(budget, cfg.max_iterations - total_steps))
        total_steps += steps
        support = np.nonzero(x > support_floor * float(x.max()))[0]
        budget *= 4


# ---------------------------------------------------------------------------
# classical capacity
# ---------------------------------------------------------------------------


def _frank_wolfe_steps(apply, column, w: np.ndarray, budget: int, gap_tol: float):
    """Run up to ``budget`` Frank-Wolfe steps with exact line search on the
    quadratic, ``apply(w)`` being K w and ``column(v)`` the column K[:, v];
    returns the updated iterate and the number of steps taken."""
    kw = apply(w)
    e_val = float(np.sum(w * kw))
    steps = 0
    for _ in range(budget):
        v = int(np.argmin(kw))
        gap = 2.0 * (e_val - float(kw[v]))
        if gap <= gap_tol * max(1.0, abs(e_val)):
            break
        col = column(v)
        a = e_val - float(kw[v])
        b = e_val - 2.0 * float(kw[v]) + float(col[v])
        gamma = 1.0 if b <= 0.0 else min(1.0, max(0.0, a / b))
        if gamma == 0.0:
            break
        w *= 1.0 - gamma
        w[v] += gamma
        kw = (1.0 - gamma) * kw + gamma * col
        e_val = float(np.sum(w * kw))
        steps += 1
    return w, steps


def classical_capacity(e: GridSet, alpha: float, cfg: SolverConfig | None = None) -> CapacityEstimate:
    """Classical capacity of a grid set by energy minimization.

    The empty set has capacity 0 by convention. A nonpositive minimal
    energy (possible only for the non-positive-definite logarithmic
    kernel on large sets) is reported as capacity 0 with a note.
    """
    if not 0.0 <= alpha < 1.0:
        raise PreconditionError(f"kernel exponent must be in [0, 1), got {alpha}")
    cfg = cfg or SolverConfig()
    n = e.grid.n_points
    if e.is_empty():
        return _empty_estimate("classical", alpha, n, math.inf)
    cells = e.indices
    op = ("kernel", n, alpha, cells)
    apply = partial(_circulant_apply, *op)

    if cfg.step_rule == "frank_wolfe":
        kappa = kernel_column(n, alpha)

        def column(v):
            return kappa[np.abs(cells - cells[v])]

        def descend(w, budget):
            return _frank_wolfe_steps(apply, column, w, budget, cfg.tolerance)
    else:
        top = float(np.max(apply(np.ones(len(cells)))))  # largest row sum
        step = 0.5 / top if top > 0.0 else 1.0

        def descend(w, budget):
            return _projected_gradient(w, budget, step, lambda v: 2.0 * apply(v), project_simplex)

    def finish(x, residual, iterations):
        if residual is None:  # a descent iterate, already on the simplex
            return _finish_classical(e, alpha, x, float(np.sum(x * apply(x))), math.inf, iterations)
        total = float(np.sum(x))
        return _finish_classical(e, alpha, x / total, 1.0 / total, residual, iterations)

    w0 = np.full(len(cells), 1.0 / len(cells))
    return _solve("classical", op, 1.0, w0, descend, finish, 1e-12, cfg)


def _finish_classical(e, alpha, w_loc, energy_val, residual, iterations):
    n = e.grid.n_points
    minimizer = np.zeros(n)
    minimizer[e.indices] = w_loc
    notes: tuple[str, ...] = ()
    if energy_val > 0.0:
        value = 1.0 / energy_val
    else:
        value = 0.0
        notes = ("nonpositive minimal energy; capacity clamped to 0",)
    return CapacityEstimate(
        value=value,
        method="classical",
        alpha=alpha,
        grid_n=n,
        iterations=iterations,
        kkt_residual=residual,
        energy_or_norm=energy_val,
        minimizer=minimizer,
        notes=notes,
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
    cfg = cfg or SolverConfig()
    n = e.grid.n_points
    if e.is_empty():
        return _empty_estimate("l2", alpha, n, 0.0)
    exponent = kernel_exponents(alpha).l2_convolution
    cells = e.indices
    op = ("autocorr", n, exponent, cells)
    apply = partial(_circulant_apply, *op)
    rows = apply(np.ones(len(cells)))  # the largest bounds lambda_max
    step = (2.0 * n) / float(np.max(rows))

    def descend(lam, budget):
        return _projected_gradient(
            lam, budget, step, lambda v: apply(v) / (2.0 * n) - 1.0, lambda v: np.maximum(0.0, v)
        )

    lam0 = np.full(len(cells), 2.0 * n / float(np.mean(rows)))
    finish = partial(_finish_l2, e, alpha, exponent)
    return _solve("l2", op, 2.0 * n, lam0, descend, finish, 0.0, cfg)


def _finish_l2(e, alpha, exponent, lam, residual, iterations):
    """Estimate from lam; residual None reports max |1 - (G lam) / (2N)|."""
    n = e.grid.n_points
    g_lam = _circulant_apply("autocorr", n, exponent, e.indices, lam)
    if residual is None:
        residual = float(np.max(np.abs(1.0 - g_lam / (2.0 * n))))
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
