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
  where G is the restricted table of ``energy.autocorr_column``, the
  circular autocorrelation of the kernel column. The primal density is
  recovered as f = (1/2) K^T lam and reported as the minimizer.

After normalization both are one problem: find x >= 0 with M x >= rhs
on E and equality on the support of x. The classical problem is
M = K, rhs = 1, with weights w = x / sum(x) and minimal energy
1 / sum(x); the L2 dual is M = G, rhs = 2N, with lam = x. One driver
solves both. Descent steps locate the support: Frank-Wolfe or projected
gradient on the simplex for the classical capacity, projected gradient
on lam >= 0 for the L2 dual. One active-set polish then solves
M_AA x = rhs by a direct solve, drops cells with x <= 0 and adds cells
whose residual r = rhs - M x exceeds tolerance * max(rhs, sum(x)). Its
certificate, reported as kkt_residual, is

    max( max |r| on the support, max(r, 0) off it ) / max(rhs, sum(x)).

For the classical capacity this is the gap between the equilibrium
potential and its level 1 / sum(x), relative to max(1, level). For the
L2 dual sum(lam) = 2 C_{alpha,2} stays below 2N, so the scale is 2N and
the certificate is the dual gradient 1 - (G lam) / (2N). Descent steps
and polish solves both count toward max_iterations; a solver that runs
out of iterations, or stalls with neither a descent step nor a polish
solution, raises ConvergenceError carrying its best estimate.

Both kernel matrices are pure lookups into difference-indexed tables,
so rotating E by a whole number of cells permutes the same matrix and
leaves the computed values unchanged up to roundoff.

Kernel exponent bookkeeping: for a divergence-test parameter beta, the
classical capacity uses kernel exponent 1 - beta while the L2 capacity
convolves with kernel exponent 1 - beta/2. ``kernel_exponents`` is the
single source for this mapping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circle import GridSet
from .errors import ConvergenceError, PreconditionError
from .energy import autocorr_column, kernel_column

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
        if self.tolerance <= 0.0:
            raise PreconditionError("tolerance must be positive")
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


def _restricted(table: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    return table[(idx[:, None] - idx[None, :]) % n]


def _circular_convolve(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(table * x)[m] = sum_j table[(m - j) mod n] x[j], by FFT."""
    return np.fft.irfft(np.fft.rfft(table) * np.fft.rfft(x), len(x))


def _power_lambda_max(mat: np.ndarray, iters: int = 40) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration
    with a fixed deterministic start."""
    k = mat.shape[0]
    v = np.full(k, 1.0 / math.sqrt(k))
    lam = 0.0
    for _ in range(iters):
        w = mat @ v
        lam = float(v @ w)
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            return 0.0
        v = w / nrm
    return max(lam, float(v @ (mat @ v)))


# ---------------------------------------------------------------------------
# shared solver: active-set polish, projected gradient, outer driver
# ---------------------------------------------------------------------------


def _kkt_polish(M: np.ndarray, rhs: float, active: np.ndarray, tol: float, rounds: int = 200):
    """Active-set solve of x >= 0, M x >= rhs, with equality on the support.

    Solves M_AA x = rhs on the active cells. Cells with nonpositive
    solution are dropped; off-active cells whose residual
    r = rhs - M x exceeds tol * max(rhs, sum(x)) are added; repeat until
    clean or the round budget is exhausted. Returns
    (x, sum(x), residual, solves) with x over the local index range and
    residual the certificate of the module docstring; None when a solve
    fails (singular system) or every cell is dropped.
    """
    k = M.shape[0]
    act = active if active.size else np.arange(k)
    solves = 0
    for _ in range(rounds):
        try:
            x_act = np.linalg.solve(M[np.ix_(act, act)], np.full(len(act), rhs))
        except np.linalg.LinAlgError:
            return None
        solves += 1
        if np.any(x_act <= 0.0):
            keep = x_act > 0.0
            if not np.any(keep):
                return None
            act = act[keep]
            continue
        total = float(x_act.sum())
        scale = max(rhs, total)
        x = np.zeros(k)
        x[act] = x_act
        r = rhs - M @ x
        off = np.ones(k, dtype=bool)
        off[act] = False
        viol = np.nonzero(off & (r > tol * scale))[0]
        if viol.size == 0:
            on_res = float(np.max(np.abs(r[act])))
            off_res = float(np.max(r[off], initial=0.0))
            return x, total, max(on_res, off_res) / scale, solves
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


def _solve(name: str, M: np.ndarray, rhs: float, x: np.ndarray, descend, finish,
           support_floor: float, cfg: SolverConfig) -> CapacityEstimate:
    """Outer driver shared by both capacities.

    Each round runs ``descend(x, budget) -> (x, steps)``, polishes the
    support {x > support_floor * max(x)} and returns
    ``finish(x, sum(x), residual, iterations)`` of the polish solution
    once its residual meets the tolerance; the round budget grows
    fourfold. A round with no descent step and no polish solution could
    only repeat itself, so it raises ConvergenceError, as does running
    out of iterations. The error carries the last polished estimate, or
    else ``finish(x, None, None, iterations)`` of the descent iterate.
    """
    total_steps = 0
    budget = 200
    best = None
    while True:
        steps = 0
        remaining = cfg.max_iterations - total_steps
        if remaining > 0:
            x, steps = descend(x, min(budget, remaining))
            total_steps += steps
        support = np.nonzero(x > support_floor * float(x.max()))[0]
        polished = _kkt_polish(M, rhs, support, cfg.tolerance)
        if polished is not None:
            sol, total, residual, solves = polished
            total_steps += solves
            best = finish(sol, total, residual, total_steps)
            if residual <= cfg.tolerance:
                return best
        stalled = steps == 0 and polished is None
        if stalled or total_steps >= cfg.max_iterations:
            if best is None:
                best = finish(x, None, None, total_steps)
            raise ConvergenceError(
                f"{name} capacity solver did not reach tolerance {cfg.tolerance}",
                best_estimate=best,
            )
        budget *= 4


# ---------------------------------------------------------------------------
# classical capacity
# ---------------------------------------------------------------------------


def _frank_wolfe_steps(K: np.ndarray, w: np.ndarray, budget: int, gap_tol: float):
    """Run up to ``budget`` Frank-Wolfe steps with exact line search on the
    quadratic; returns the updated iterate and the number of steps taken."""
    kw = K @ w
    e_val = float(w @ kw)
    steps = 0
    for _ in range(budget):
        v = int(np.argmin(kw))
        gap = 2.0 * (e_val - float(kw[v]))
        if gap <= gap_tol * max(1.0, abs(e_val)):
            break
        col = K[:, v]
        a = e_val - float(kw[v])
        b = e_val - 2.0 * float(kw[v]) + float(K[v, v])
        gamma = 1.0 if b <= 0.0 else min(1.0, max(0.0, a / b))
        if gamma == 0.0:
            break
        w *= 1.0 - gamma
        w[v] += gamma
        kw = (1.0 - gamma) * kw + gamma * col
        e_val = float(w @ kw)
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
    K = _restricted(kernel_column(n, alpha), e.indices, n)
    k = K.shape[0]

    if cfg.step_rule == "frank_wolfe":
        def descend(w, budget):
            return _frank_wolfe_steps(K, w, budget, cfg.tolerance)
    else:
        lam_max = _power_lambda_max(K)
        step = 1.0 / (2.0 * lam_max) if lam_max > 0 else 1.0

        def descend(w, budget):
            return _projected_gradient(w, budget, step, lambda v: 2.0 * (K @ v), project_simplex)

    def finish(x, total, residual, iterations):
        if total is None:  # a descent iterate, already on the simplex
            return _finish_classical(e, alpha, x, float(x @ (K @ x)), math.inf, iterations)
        return _finish_classical(e, alpha, x / total, 1.0 / total, residual, iterations)

    return _solve("classical", K, 1.0, np.full(k, 1.0 / k), descend, finish, 1e-12, cfg)


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
    kappa = kernel_column(n, exponent)
    G = _restricted(autocorr_column(n, exponent), e.indices, n)
    k = G.shape[0]

    step = (2.0 * n) / float(np.max(np.abs(np.fft.rfft(kappa))) ** 2)

    def descend(lam, budget):
        return _projected_gradient(
            lam, budget, step, lambda v: (G @ v) / (2.0 * n) - 1.0, lambda v: np.maximum(0.0, v)
        )

    def finish(lam, total, residual, iterations):
        if total is None:  # a descent iterate: report its largest dual gradient
            residual = float(np.max(np.abs(1.0 - (G @ lam) / (2.0 * n))))
        return _finish_l2(e, alpha, kappa, G, lam, residual, iterations)

    row_scale = float(np.mean(G.sum(axis=1)))
    lam0 = np.full(k, 2.0 * n / row_scale if row_scale > 0 else 1.0)
    return _solve("l2", G, 2.0 * n, lam0, descend, finish, 0.0, cfg)


def _finish_l2(e, alpha, kappa, G, lam, residual, iterations):
    n = e.grid.n_points
    value = float(lam.sum() - lam @ (G @ lam) / (4.0 * n))
    # f = (1/2) K^T lam; the kernel is even, so this is a convolution
    lam_full = np.zeros(n)
    lam_full[e.indices] = lam
    f = 0.5 * _circular_convolve(kappa, lam_full)
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
    potential = _circular_convolve(kernel_column(n, exponent), estimate.minimizer)
    return potential[e.indices] / n


@dataclass(frozen=True)
class ComparabilityReport:
    c_classical: float
    c_l2: float
    ratio: float
    beta: float
    grid_n: int

    def to_json(self) -> dict:
        return {
            "c_classical": self.c_classical,
            "c_l2": self.c_l2,
            "ratio": self.ratio,
            "beta": self.beta,
            "grid_n": self.grid_n,
        }


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
