"""Riesz kernels, fractional Dirichlet energies, and measure energies.

Quantities computed here, all with the normalized arc measure |dz|/2pi:

* kernel_k(alpha, chord): the Riesz kernel chord^(-alpha) for
  0 < alpha < 1 and |log chord| in the logarithmic case alpha = 0.
* D_{I,J,alpha}(f) = double integral over I x J of
  |f(z) - f(w)|^2 / |z - w|^(1+alpha) with both measures normalized;
  discretized by the midpoint rule on grid cells with same-index
  (diagonal) pairs excluded. The omitted diagonal strip is a systematic
  underestimate of order N^(alpha-1) for smooth f and vanishes under
  refinement.
* The frequency-weight form: D_alpha(f) = sum_n w_alpha(|n|) |f^(n)|^2
  with w_alpha(n) = (1/2pi) * integral of |e^{int} - 1|^2 / |e^{it} - 1|^(1+alpha).
  For alpha = 1 this reduces to the classical Douglas identity w(n) = n.
* Measure energy I_alpha(mu) = double integral of the kernel against a
  probability measure twice, with a cell-averaged kernel on the
  diagonal so atom self-energies track the continuum limit.

All double sums run in fixed blocked order, so results are
bit-reproducible for a given grid size.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np
from scipy.integrate import quad

from .circle import FULL_CIRCLE, Arc, ArcFamily, CircleGrid, GridSet, TWO_PI
from .errors import (
    PreconditionError,
    ResolutionError,
    SingularityError,
)

EnergyDomain = Union[Arc, ArcFamily]

#: Pairs per summation block in the double sums (memory/performance knob,
#: does not affect results).
_BLOCK_PAIRS = 4_000_000

# Test hook: when nonzero, kernel tables are scaled by (1 + fault).
# Used by the self-test battery to demonstrate failure reporting.
_KERNEL_FAULT = 0.0


@contextmanager
def kernel_fault(scale: float):
    """Temporarily perturb kernel tables by a relative factor (test hook)."""
    global _KERNEL_FAULT
    old = _KERNEL_FAULT
    _KERNEL_FAULT = float(scale)
    try:
        yield
    finally:
        _KERNEL_FAULT = old


def _faulted(base: np.ndarray, power: int = 1) -> np.ndarray:
    """A cached table as handed out: scaled by (1 + fault)^power while the
    kernel fault hook is active. Every table provider goes through here."""
    if _KERNEL_FAULT != 0.0:
        return base * (1.0 + _KERNEL_FAULT) ** power
    return base


def kernel_k(alpha: float, chord: float) -> float:
    """Riesz kernel at a chord distance.

    k_alpha(chord) = chord^(-alpha) for 0 < alpha < 1 and
    |log(chord)| for alpha = 0. The logarithmic kernel is not monotone
    in the chord (it vanishes at chord 1 and grows again toward 2).
    """
    if not 0.0 <= alpha < 1.0:
        raise PreconditionError(f"kernel exponent must be in [0, 1), got {alpha}")
    if chord <= 0.0:
        raise SingularityError(
            "kernel is singular at chord 0; use the cell-averaged diagonal"
        )
    if chord > 2.0 + 1e-12:
        raise PreconditionError(f"chord distance {chord} exceeds the diameter 2")
    if alpha == 0.0:
        return abs(math.log(chord))
    return float(chord) ** (-alpha)


@lru_cache(maxsize=64)
def _chord_power_table_base(n: int, alpha: float) -> np.ndarray:
    m = np.arange(n)
    chord = 2.0 * np.abs(np.sin(np.pi * m / n))
    pw = np.zeros(n)
    pw[1:] = chord[1:] ** (-(1.0 + alpha))
    pw.setflags(write=False)
    return pw


def _chord_power_table(n: int, alpha: float) -> np.ndarray:
    """pw[m] = (2 sin(pi m / n))^(-(1+alpha)) with pw[0] = 0.

    Indexed by cell-index difference m = (i - j) mod n; the zero entry
    implements the diagonal exclusion of the midpoint rule.
    """
    return _faulted(_chord_power_table_base(n, alpha))


@lru_cache(maxsize=64)
def _kernel_column_base(n: int, exponent: float) -> np.ndarray:
    """kappa[m] = kernel at angular separation 2 pi m / n, with the m = 0
    entry replaced by the exact cell average

        kappa[0] = 2 * integral_0^1 (1 - x) k(2 sin(h x / 2)) dx,  h = 2 pi / n,

    the mean of the kernel over a cell-width gap (integrable for
    exponent < 1)."""
    m = np.arange(n)
    chord = 2.0 * np.abs(np.sin(np.pi * m / n))
    kappa = np.zeros(n)
    h = TWO_PI / n
    if exponent == 0.0:
        kappa[1:] = np.abs(np.log(chord[1:]))
        integrand = lambda x: (1.0 - x) * abs(math.log(2.0 * math.sin(h * x / 2.0)))
    else:
        kappa[1:] = chord[1:] ** (-exponent)
        integrand = lambda x: (1.0 - x) * (2.0 * math.sin(h * x / 2.0)) ** (-exponent)
    val, _ = quad(integrand, 0.0, 1.0, limit=200)
    kappa[0] = 2.0 * val
    kappa.setflags(write=False)
    return kappa


def kernel_column(n: int, exponent: float) -> np.ndarray:
    """Difference-indexed kernel table for an N-cell grid (see
    ``_kernel_column_base``); every kernel matrix used by the capacity
    solvers is a lookup kappa[(i - j) mod n] into this table."""
    if not 0.0 <= exponent < 1.0:
        raise PreconditionError(f"kernel exponent must be in [0, 1), got {exponent}")
    return _faulted(_kernel_column_base(int(n), float(exponent)))


@lru_cache(maxsize=64)
def _autocorr_base(n: int, exponent: float) -> np.ndarray:
    spec = np.fft.rfft(_kernel_column_base(n, exponent))
    out = np.fft.irfft(spec * np.conj(spec), n)
    out.setflags(write=False)
    return out


def autocorr_column(n: int, exponent: float) -> np.ndarray:
    """A[m] = sum_j kappa[j] kappa[(j - m) mod n] for kappa =
    ``kernel_column(n, exponent)``: the Gram column of convolution by the
    kernel, so the L2 dual matrix is the lookup A[(i - k) mod n]. Under
    the kernel fault hook it scales by (1 + fault)^2, as kappa does by
    (1 + fault)."""
    if not 0.0 <= exponent < 1.0:
        raise PreconditionError(f"kernel exponent must be in [0, 1), got {exponent}")
    return _faulted(_autocorr_base(int(n), float(exponent)), 2)


@dataclass(frozen=True)
class BoundarySamples:
    """Complex samples of a boundary function at the grid cell centers."""

    grid: CircleGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.grid.n_points,):
            raise PreconditionError(
                f"sample count {vals.shape} does not match grid {self.grid.n_points}"
            )
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise PreconditionError("samples must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, grid: CircleGrid, fn: Callable[[np.ndarray], np.ndarray]) -> "BoundarySamples":
        return cls(grid, np.asarray(fn(grid.angles), dtype=np.complex128))

    @classmethod
    def constant(cls, grid: CircleGrid, c: complex) -> "BoundarySamples":
        return cls(grid, np.full(grid.n_points, complex(c), dtype=np.complex128))

    def rotated(self, cells: int) -> "BoundarySamples":
        return BoundarySamples(self.grid, np.roll(self.values, cells))


def monomial(grid: CircleGrid, n: int) -> BoundarySamples:
    """Samples of e^{i n t}."""
    return BoundarySamples(grid, np.exp(1j * n * grid.angles))


def random_trig_polynomial(
    grid: CircleGrid, degree: int, rng: np.random.Generator
) -> tuple[BoundarySamples, dict[int, complex]]:
    """A trigonometric polynomial with standard complex Gaussian
    coefficients on frequencies -degree..degree; returns the samples and
    the exact coefficients (handy as a spectral oracle)."""
    freqs = range(-degree, degree + 1)
    coeffs = {
        k: complex(rng.standard_normal(), rng.standard_normal()) for k in freqs
    }
    t = grid.angles
    vals = np.zeros(grid.n_points, dtype=np.complex128)
    for k, c in coeffs.items():
        vals += c * np.exp(1j * k * t)
    return BoundarySamples(grid, vals), coeffs


def _domain_indices(grid: CircleGrid, domain: EnergyDomain | None) -> np.ndarray:
    if domain is None:
        return np.arange(grid.n_points)
    if isinstance(domain, ArcFamily) and domain.full:
        return np.arange(grid.n_points)
    return grid.indices_of(domain, mode="centers")


def _pair_sum(values: np.ndarray, idx_i: np.ndarray, idx_j: np.ndarray, pw: np.ndarray, n: int) -> float:
    """sum over (i, j) in idx_i x idx_j of |f_i - f_j|^2 pw[(i-j) mod n],
    accumulated in fixed blocks of rows for reproducibility."""
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


def dirichlet_energy_local(
    f: BoundarySamples,
    arc_i: EnergyDomain,
    arc_j: EnergyDomain,
    alpha: float,
) -> float:
    """Localized fractional Dirichlet energy D_{I,J,alpha}(f).

    Midpoint-rule double sum over the cells of I x J with same-index
    pairs excluded; each normalized measure factor contributes 1/N.
    Both arcs must be resolved by at least 8 cells.
    """
    if not 0.0 < alpha <= 1.0:
        raise PreconditionError(f"energy exponent must be in (0, 1], got {alpha}")
    grid = f.grid
    idx_i = _domain_indices(grid, arc_i)
    idx_j = _domain_indices(grid, arc_j)
    for name, idx in (("I", idx_i), ("J", idx_j)):
        if len(idx) < 8:
            raise ResolutionError(
                f"arc {name} is resolved by only {len(idx)} cells (need >= 8)"
            )
    pw = _chord_power_table(grid.n_points, float(alpha))
    return _pair_sum(f.values, idx_i, idx_j, pw, grid.n_points) / grid.n_points**2


def dirichlet_energy_global(f: BoundarySamples, alpha: float) -> float:
    """Global energy D_alpha(f): the localized energy with I = J = full
    circle."""
    return dirichlet_energy_local(f, FULL_CIRCLE, FULL_CIRCLE, alpha)


@lru_cache(maxsize=4096)
def energy_weight(n: int, alpha: float) -> float:
    """Exact diagonalization weight

        w_alpha(n) = (1/2pi) integral over the circle of
                     |e^{int} - 1|^2 / |e^{it} - 1|^(1+alpha) dt,

    so that D_alpha(f) = sum_n w_alpha(|n|) |f^(n)|^2. Evaluated by
    adaptive quadrature (the integrand behaves like t^(1-alpha) near 0).
    For alpha = 1 the weight equals n exactly (Douglas identity).
    """
    if n < 1:
        raise PreconditionError(f"frequency must be >= 1, got {n}")
    if not 0.0 < alpha <= 1.0:
        raise PreconditionError(f"energy exponent must be in (0, 1], got {alpha}")

    def integrand(t: float) -> float:
        return (2.0 * math.sin(n * t / 2.0)) ** 2 / (
            2.0 * math.sin(t / 2.0)
        ) ** (1.0 + alpha)

    val, _ = quad(integrand, 0.0, math.pi, limit=400)
    return val / math.pi


@dataclass(frozen=True)
class FourierCoeffs:
    """Sparse coefficient table on frequencies |n| <= truncation."""

    coeffs: dict[int, complex]
    truncation: int

    def __post_init__(self):
        for k, v in self.coeffs.items():
            if abs(k) > self.truncation:
                raise PreconditionError(
                    f"frequency {k} exceeds truncation {self.truncation}"
                )
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise PreconditionError(f"coefficient at {k} is not finite")

    def __getitem__(self, n: int) -> complex:
        return self.coeffs.get(n, 0.0 + 0.0j)


def fourier_energy(c: FourierCoeffs, alpha: float) -> float:
    """Weighted coefficient norm sum |c_n|^2 (1 + |n|)^alpha over the
    stored frequencies (a norm, not a seminorm: the n = 0 term counts)."""
    if not 0.0 < alpha <= 1.0:
        raise PreconditionError(f"energy exponent must be in (0, 1], got {alpha}")
    return float(
        sum(abs(v) ** 2 * (1.0 + abs(k)) ** alpha for k, v in c.coeffs.items())
    )


def fourier_from_samples(f: BoundarySamples, truncation: int | None = None) -> FourierCoeffs:
    """Discrete Fourier coefficients f^(n) = (1/N) sum_j f_j e^{-i n t_j}
    for |n| <= truncation (default N/4, which keeps aliasing below the
    quadrature error floor of the energy sums)."""
    return _coeffs_from_dft(np.fft.fft(f.values) / f.grid.n_points, truncation)


def _coeffs_from_dft(spec: np.ndarray, truncation: int | None) -> FourierCoeffs:
    """Coefficient table |n| <= truncation (default N/4) from the plain DFT
    of grid samples."""
    n_pts = len(spec)
    m = n_pts // 4 if truncation is None else int(truncation)
    if m > n_pts // 2:
        raise PreconditionError(f"truncation {m} exceeds N/2 = {n_pts // 2}")
    coeffs: dict[int, complex] = {}
    for k in range(-m, m + 1):
        # grid angles start at -pi, so the plain DFT picks up a factor (-1)^k
        phase = -1.0 if k % 2 else 1.0
        coeffs[k] = complex(phase * spec[k % n_pts])
    return FourierCoeffs(coeffs, m)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative weights on grid cells summing to 1 (a probability
    measure with atoms at cell centers)."""

    grid: CircleGrid
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.grid.n_points,):
            raise PreconditionError(
                f"weight count {w.shape} does not match grid {self.grid.n_points}"
            )
        if np.any(w < 0.0):
            raise PreconditionError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-10:
            raise PreconditionError(f"weights sum to {total}, expected 1 within 1e-10")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, grid: CircleGrid) -> "DiscreteMeasure":
        return cls(grid, np.full(grid.n_points, 1.0 / grid.n_points))

    @classmethod
    def on_set(cls, e: GridSet) -> "DiscreteMeasure":
        if e.is_empty():
            raise PreconditionError("cannot put a probability measure on the empty set")
        w = np.zeros(e.grid.n_points)
        w[e.mask] = 1.0 / e.count
        return cls(e.grid, w)

    @classmethod
    def from_weights(cls, grid: CircleGrid, pairs: dict[int, float]) -> "DiscreteMeasure":
        w = np.zeros(grid.n_points)
        for idx, val in pairs.items():
            w[idx] = val
        return cls(grid, w)

    def rotated(self, cells: int) -> "DiscreteMeasure":
        return DiscreteMeasure(self.grid, np.roll(self.weights, cells))


def mu_energy(mu: DiscreteMeasure, alpha: float) -> float:
    """Measure energy I_alpha(mu) = double kernel sum w_i w_j K_ij.

    Off-diagonal entries are the kernel at the chord distance of cell
    centers; the diagonal uses the cell-averaged kernel (excluding it
    would understate atom self-energy and break capacity convergence).
    """
    return _mu_energy_parts(mu, alpha)[0]


def mu_energy_report(mu: DiscreteMeasure, alpha: float) -> dict:
    """Measure energy plus diagnostics splitting out the diagonal term."""
    value, diagonal = _mu_energy_parts(mu, alpha)
    return {
        "value": value,
        "alpha": alpha,
        "grid_n": mu.grid.n_points,
        "diagnostics": {"diagonal_estimate": diagonal},
    }


def _mu_energy_parts(mu: DiscreteMeasure, alpha: float) -> tuple[float, float]:
    if not 0.0 <= alpha < 1.0:
        raise PreconditionError(f"kernel exponent must be in [0, 1), got {alpha}")
    n = mu.grid.n_points
    kappa = kernel_column(n, float(alpha))
    support = np.nonzero(mu.weights)[0]
    w = mu.weights[support]
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


def measure_fourier_energy(c: FourierCoeffs, alpha: float) -> float:
    """Spectral measure energy sum_{n>=1} |mu^(n)|^2 / n^(1-alpha),
    truncated at the table's limit. The zero coefficient (total mass)
    must be present."""
    if not 0.0 < alpha <= 1.0:
        raise PreconditionError(f"exponent must be in (0, 1], got {alpha}")
    if 0 not in c.coeffs:
        raise PreconditionError("coefficient table must include n = 0 (total mass)")
    out = 0.0
    for n in range(1, c.truncation + 1):
        v = c[n]
        out += abs(v) ** 2 / n ** (1.0 - alpha)
    return out


def measure_fourier_coeffs(mu: DiscreteMeasure, truncation: int | None = None) -> FourierCoeffs:
    """mu^(n) = sum_j w_j e^{-i n t_j} for |n| <= truncation."""
    return _coeffs_from_dft(np.fft.fft(mu.weights), truncation)


def energy_report(
    f: BoundarySamples,
    arc_i: EnergyDomain,
    arc_j: EnergyDomain,
    alpha: float,
) -> dict:
    """JSON-ready record for a localized energy evaluation."""
    value = dirichlet_energy_local(f, arc_i, arc_j, alpha)
    def _desc(a):
        return "full" if isinstance(a, ArcFamily) and a.full else a.to_json()
    return {
        "value": value,
        "grid_n": f.grid.n_points,
        "alpha": alpha,
        "arcs": {"i": _desc(arc_i), "j": _desc(arc_j)},
        "diagnostics": {
            "cells_i": int(len(_domain_indices(f.grid, arc_i))),
            "cells_j": int(len(_domain_indices(f.grid, arc_j))),
        },
    }
