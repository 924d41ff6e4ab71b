"""Reflection extension across an arc and the associated test function.

Geometry, all centered at angle 0: the inner arc I = (-theta, theta) is
extended to J = (-2 theta/(1+gamma), 2 theta/(1+gamma)) by pulling f
back through the contracting reflections

    t in L = (theta, 2 theta/(1+gamma))    ->  (3 theta - t) / 2
    t in R = (-2 theta/(1+gamma), -theta)  ->  -(3 theta + t) / 2,

both of which land inside I and fix the shared endpoint of I. The
extension costs a bounded factor in fractional Dirichlet energy; the
six pairwise block energies of J = I + L + R give the exact breakdown.

theta_gamma is the midpoint of (theta, 2 theta/(1+gamma)) and
I_gamma = (-theta_gamma, theta_gamma) is the support of the trapezoid
bump phi (1 on I, linear to 0 at the edges of I_gamma). The Poincare
test function is F = phi * |1 - |f_tilde| / m| with m the mean of
|f_tilde| over J.

Arbitrary arc positions are handled by rotating inputs so the arc is
centered at 0, applying these maps, and rotating back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circle import Arc, CircleGrid
from .energy import BoundarySamples, _block_energies, _check_energy_exponent
from .errors import DegenerateInputError, ResolutionError, SetupError

# Sum of the per-block energy bounds in the extension estimate:
# 1 (I with itself) + 4 + 4 (each reflected block with itself)
# + 2*2 + 2*2 (cross terms against I) + 2*4 (cross term L against R).
RATIO_CEILING = 21.0


@dataclass(frozen=True)
class ExtensionSetup:
    """Geometry of the reflection extension, centered at angle 0."""

    theta: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise SetupError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 < self.theta < self.gamma * math.pi / 2.0:
            raise SetupError(
                f"theta must be in (0, gamma*pi/2) = (0, {self.gamma * math.pi / 2.0:.6g}), "
                f"got {self.theta}"
            )

    @cached_property
    def outer_half_width(self) -> float:
        return 2.0 * self.theta / (1.0 + self.gamma)

    @cached_property
    def theta_gamma(self) -> float:
        return (3.0 + self.gamma) * self.theta / (2.0 * (1.0 + self.gamma))

    @property
    def arc_i(self) -> Arc:
        return Arc(-self.theta, self.theta)

    @property
    def arc_j(self) -> Arc:
        return Arc(-self.outer_half_width, self.outer_half_width)

    @property
    def arc_l(self) -> Arc:
        return Arc(self.theta, self.outer_half_width)

    @property
    def arc_r(self) -> Arc:
        return Arc(-self.outer_half_width, -self.theta)

    def preimage(self, t: np.ndarray) -> np.ndarray:
        """Reflection preimages for angles in L (t > 0 branch) and R."""
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0.0, (3.0 * self.theta - t) / 2.0, -(3.0 * self.theta + t) / 2.0)


def extend(f: BoundarySamples, setup: ExtensionSetup) -> BoundarySamples:
    """Extend f from I to J by the reflection pullbacks.

    Values at grid cells of I are copied verbatim; values on L and R are
    linear interpolations of f at the (generally off-grid) preimage
    angles, clamped at the outermost samples of I. Cells outside J are
    set to zero.
    """
    return BoundarySamples(f.grid, _extend_rows(f.grid, f.values[None], setup)[0])


def _extend_rows(grid: CircleGrid, values: np.ndarray, setup: ExtensionSetup) -> np.ndarray:
    """``extend`` of each row of a (k, N) stack of samples: a (k, N)
    complex array. The cells of L and R and their preimages are found
    once for the stack; ``np.interp`` runs per row, on L and R at once."""
    idx_lr = np.concatenate((grid.resolved_cells(setup.arc_l, "reflected arc L"),
                             grid.resolved_cells(setup.arc_r, "reflected arc R")))
    # I is centered at 0, so its cells are in increasing angle order.
    idx_i = grid.indices_of(setup.arc_i)
    xp, fps = grid.angles[idx_i], values[:, idx_i]
    pre = setup.preimage(grid.angles[idx_lr])
    out = np.zeros(values.shape, dtype=np.complex128)
    out[:, idx_i] = fps
    for row, fp in zip(out, fps):
        row[idx_lr] = np.interp(pre, xp, fp.real) + 1j * np.interp(pre, xp, fp.imag)
    return out


@dataclass(frozen=True)
class ExtensionRatio:
    d_i: float
    d_j: float
    ratio: float

    def to_json(self) -> dict:
        return {"d_I": self.d_i, "d_J": self.d_j, "ratio": self.ratio}


def extension_ratio(f: BoundarySamples, setup: ExtensionSetup, alpha: float) -> ExtensionRatio:
    """Energy cost of the extension: D_{J,alpha}(f~) / D_{I,alpha}(f).

    Bounded by RATIO_CEILING for every admissible input; a larger value
    indicates a quadrature or operator bug, not a sharper example.
    """
    d_i, d_j, ratio = _extension_ratios(f.grid, f.values[None], setup, (alpha,))
    return ExtensionRatio(d_i=float(d_i[0, 0]), d_j=float(d_j[0, 0]), ratio=float(ratio[0, 0]))


def _extension_ratios(grid: CircleGrid, values: np.ndarray, setup: ExtensionSetup, alphas):
    """``extension_ratio`` of each row of a (k, N) stack of samples at
    each exponent of ``alphas``: D_I, D_J and D_J / D_I as three
    (len(alphas), k) arrays. Each row is extended once for all exponents,
    and each energy is one one-block ``energy._block_energies`` call on
    the stack. A row constant on I raises DegenerateInputError."""
    for alpha in alphas:
        _check_energy_exponent(alpha)
    runs_i = grid.resolved_runs(setup.arc_i, "arc I")
    d_i = _block_energies(values, [runs_i], [(0, 0)], alphas)[:, 0] / grid.n_points**2
    if np.any(d_i == 0.0):
        raise DegenerateInputError("f is constant on I (zero seminorm)")
    f_tilde = _extend_rows(grid, values, setup)
    runs_j = grid.resolved_runs(setup.arc_j, "arc J")
    d_j = _block_energies(f_tilde, [runs_j], [(0, 0)], alphas)[:, 0] / grid.n_points**2
    return d_i, d_j, d_j / d_i


def six_term_decomposition(
    f_tilde: BoundarySamples, setup: ExtensionSetup, alpha: float
) -> dict[str, float]:
    """Block decomposition of D_{J,alpha}(f~) over the I/L/R partition.

    Returns the three diagonal and three cross energies plus their
    weighted total D_I + D_L + D_R + 2(D_IL + D_IR + D_LR), which equals
    the direct D_J whenever the arc endpoints fall strictly between grid
    cell centers (the cells of J are then partitioned exactly). The six
    are the three-block case of ``energy._block_energies``: one forward
    transform of twelve rows, four per block, over the window of I u L u R.
    """
    _check_energy_exponent(alpha)
    grid = f_tilde.grid
    blocks = [grid.resolved_runs(setup.arc_i, "arc I"),
              grid.resolved_runs(setup.arc_l, "reflected arc L"),
              grid.resolved_runs(setup.arc_r, "reflected arc R")]
    keys = ("d_ii", "d_ll", "d_rr", "d_il", "d_ir", "d_lr")
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    sums = _block_energies(f_tilde.values[None], blocks, pairs, (alpha,))[0, :, 0]
    parts = {key: s / grid.n_points**2 for key, s in zip(keys, sums.tolist())}
    parts["total"] = (
        parts["d_ii"]
        + parts["d_ll"]
        + parts["d_rr"]
        + 2.0 * (parts["d_il"] + parts["d_ir"] + parts["d_lr"])
    )
    return parts


def bump_phi(grid: CircleGrid, setup: ExtensionSetup) -> BoundarySamples:
    """Trapezoid bump: 1 on I, linear down to 0 at the edges of I_gamma,
    0 outside. Realized Lipschitz constant is 1/(theta_gamma - theta),
    i.e. c_gamma/|J| with c_gamma = |J|/(theta_gamma - theta)."""
    t = np.abs(grid.angles)
    ramp = (setup.theta_gamma - t) / (setup.theta_gamma - setup.theta)
    vals = np.clip(ramp, 0.0, 1.0)
    return BoundarySamples(grid, vals)


def bump_slope_constant(setup: ExtensionSetup) -> float:
    """c_gamma = |J| / (theta_gamma - theta); the bump satisfies
    |phi(z) - phi(w)| <= (c_gamma/|J|) |z - w| by construction."""
    return setup.arc_j.length / (setup.theta_gamma - setup.theta)


@dataclass(frozen=True)
class TestFunction:
    samples: BoundarySamples
    m: float


def test_function_F(
    f_tilde: BoundarySamples, phi: BoundarySamples, setup: ExtensionSetup
) -> TestFunction:
    """F = phi * |1 - |f~|/m| with m the mean of |f~| over the cells of
    J; nonnegative, supported in I_gamma, and equal to 1 wherever f~
    vanishes inside I."""
    grid = f_tilde.grid
    idx_j = grid.indices_of(setup.arc_j)
    if not idx_j.size:
        raise ResolutionError("J contains no grid cells")
    m = float(np.mean(np.abs(f_tilde.values[idx_j])))
    if m == 0.0:
        raise DegenerateInputError("f~ vanishes identically on J; the mean m is zero")
    vals = phi.values.real * np.abs(1.0 - np.abs(f_tilde.values) / m)
    return TestFunction(BoundarySamples(grid, vals), m)
