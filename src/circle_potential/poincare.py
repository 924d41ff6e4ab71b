"""Capacitary Poincare verifier.

For a boundary function f vanishing on E inside an open arc I, the
inequality under test bounds the squared mean of |f| over I by

    lhs <= c * |I|^(alpha - beta) / C_{beta,2}(E cap I) * D_{I,alpha}(f)

with a constant depending only on beta and gamma (the arc being
admissible when |I| <= gamma*pi). The verifier computes all four
components on the grid and reports the realized ratio

    ratio = lhs * cap / (scale * energy),

which is a certified lower bound for c on that instance. No claim of
sharpness is made; families of instances give running lower bounds via
``constant_estimate``.

Membership convention: E cap I uses cell-center membership, matching
the open-arc semantics of the energy domains, and the vanishing
condition is enforced at grid resolution (max |f| over the cells of
E cap I below 1e-8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import SolverConfig, l2_capacity
from .circle import Arc, GridSet, _check_resolved
from .energy import BoundarySamples, _block_energies
from .errors import PreconditionError

_VANISHING_TOL = 1e-8


@dataclass(frozen=True)
class PoincareReport:
    """All components of the inequality on one instance."""

    lhs: float
    cap: float
    energy: float
    scale: float
    ratio: float
    alpha: float
    beta: float
    gamma: float
    grid_n: int

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs,
            "cap": self.cap,
            "energy": self.energy,
            "scale": self.scale,
            "ratio": self.ratio,
            "params": {
                "alpha": self.alpha,
                "beta": self.beta,
                "gamma": self.gamma,
                "grid_n": self.grid_n,
            },
        }


def poincare_check(
    f: BoundarySamples,
    e: GridSet,
    arc: Arc,
    alpha: float,
    beta: float,
    gamma: float,
    cfg: SolverConfig | None = None,
) -> PoincareReport:
    """Evaluate every component of the inequality on one instance.

    Preconditions: 0 < beta <= alpha <= 1, 0 < gamma < 1, |I| <= gamma*pi,
    E cap I nonempty, and f vanishing on E cap I at grid resolution.
    Zero energy forces f = 0 on I (constant plus the vanishing
    condition), reported as lhs = 0, ratio = 0.
    """
    if not 0.0 < beta <= alpha <= 1.0:
        raise PreconditionError(
            f"need 0 < beta <= alpha <= 1, got beta={beta}, alpha={alpha}"
        )
    if not 0.0 < gamma < 1.0:
        raise PreconditionError(f"gamma must be in (0, 1), got {gamma}")
    if arc.length > gamma * math.pi + 1e-12:
        raise PreconditionError(
            f"|I| = {arc.length:.6g} exceeds gamma*pi = {gamma * math.pi:.6g}"
        )
    if f.grid is not e.grid and f.grid.n_points != e.grid.n_points:
        raise PreconditionError("f and E live on different grids")
    grid = f.grid
    n = grid.n_points
    grid._check_target(arc, "centers")
    runs = grid._arc_runs(arc, "centers")  # I, resolved once, as sorted runs
    cells = e.indices
    bounds = np.searchsorted(cells, [(first, first + count) for first, count in runs])
    e_cells = np.concatenate([cells[lo:hi] for lo, hi in bounds])  # E cap I
    if not e_cells.size:
        raise PreconditionError("E cap I contains no grid cells")
    worst = float(np.max(np.abs(f.values[e_cells])))
    if worst >= _VANISHING_TOL:
        raise PreconditionError(
            f"f does not vanish on E cap I (max |f| = {worst:.3g})"
        )

    _check_resolved(sum(count for _, count in runs), "arc I")
    n2d = _block_energies(f.values[None], [runs], [(0, 0)], (alpha,))[0, 0, 0]
    energy = float(n2d) / n**2
    cap = l2_capacity(GridSet.from_indices(grid, e_cells), beta, cfg).value
    scale = arc.length ** (alpha - beta)
    if energy == 0.0:
        lhs = 0.0
        ratio = 0.0
    else:
        values = [f.values[first:first + count] for first, count in runs]
        lhs = float(np.mean(np.abs(np.concatenate(values)))) ** 2
        ratio = lhs * cap / (scale * energy)
    return PoincareReport(
        lhs=lhs,
        cap=cap,
        energy=energy,
        scale=scale,
        ratio=ratio,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        grid_n=n,
    )


def constant_estimate(
    family: list[tuple[BoundarySamples, GridSet, Arc]],
    alpha: float,
    beta: float,
    gamma: float,
    cfg: SolverConfig | None = None,
) -> float:
    """Max ratio over a family of instances: an empirical lower bound on
    the best constant for these parameters."""
    if not family:
        raise PreconditionError("family must contain at least one instance")
    best = 0.0
    for f, e, arc in family:
        report = poincare_check(f, e, arc, alpha, beta, gamma, cfg)
        best = max(best, report.ratio)
    return best


def spike_function(e: GridSet, delta: float) -> BoundarySamples:
    """f(t) = min(1, dist(t, E)/delta) with distance measured to the
    closed union of E's grid cells, which is (d - 1/2) cell widths for a
    cell d cells from E's nearest; vanishes on E exactly and climbs to 1
    at arc distance delta."""
    if delta <= 0.0:
        raise PreconditionError("delta must be positive")
    if e.is_empty():
        raise PreconditionError("E is empty; the spike is identically 1")
    n = e.grid.n_points
    idx = e.indices
    ext = np.concatenate((idx[-1:] - n, idx, idx[:1] + n))
    j = np.arange(n)
    above = np.searchsorted(ext, j)
    d = np.minimum(ext[above] - j, j - ext[above - 1])
    dist = np.maximum(d - 0.5, 0.0) * e.grid.cell_width
    vals = np.minimum(dist, delta) / delta  # dist / delta would overflow for tiny delta
    return BoundarySamples(e.grid, vals)
