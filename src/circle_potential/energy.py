"""Riesz kernels, fractional Dirichlet energies, and measure energies.

Quantities computed here, all with the normalized arc measure |dz|/2pi:

* kernel_k(alpha, chord): the Riesz kernel chord^(-alpha) for
  0 < alpha < 1 and |log chord| in the logarithmic case alpha = 0, at a
  float or an array: the one kernel formula, behind every kernel table.
* D_{I,J,alpha}(f) = double integral over I x J of
  |f(z) - f(w)|^2 / |z - w|^(1+alpha) with both measures normalized;
  discretized by the midpoint rule on grid cells with same-index
  (diagonal) pairs excluded. The omitted diagonal strip is a systematic
  underestimate, measured of relative order N^(alpha-2) for the global
  energy of smooth f, and vanishes under refinement. On arcs, cell-center
  selection at the arc ends adds an erratic O(h) term, h the cell width.
* The frequency-weight form: D_alpha(f) = sum_n w_alpha(|n|) |f^(n)|^2
  with w_alpha(n) = (1/2pi) * integral of |e^{int} - 1|^2 / |e^{it} - 1|^(1+alpha),
  in closed form. For alpha = 1 it is the Douglas identity w(n) = n.
* Measure energy I_alpha(mu) = double integral of the kernel against a
  probability measure twice, with a cell-averaged kernel on the
  diagonal so atom self-energies track the continuum limit.

Every double sum is a circulant quadratic form: a table indexed by
(i - j) mod N between cell values. ``_circulant_apply`` is the one place
a table meets a vector, by single-threaded FFT with numpy's pairwise
sums around it, so results are byte-reproducible for given inputs;
``_circulant_block`` builds dense blocks of the same matrices.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .circle import FULL_CIRCLE, Arc, ArcFamily, CircleGrid, GridSet, TWO_PI
from .errors import PreconditionError, SingularityError

EnergyDomain = Union[Arc, ArcFamily]

# Test hook: when nonzero, kernel tables are scaled by (1 + fault).
# Used by the self-test battery to demonstrate failure reporting.
_KERNEL_FAULT = 0.0


@contextmanager
def kernel_fault(scale: float):
    """Temporarily perturb kernel tables by a relative factor (test hook).

    The scale must be finite and > -1: at -1 every table vanishes, and
    below it every table changes sign."""
    global _KERNEL_FAULT
    if not -1.0 < scale < math.inf:
        raise PreconditionError(f"kernel fault scale must be finite and > -1, got {scale}")
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


def _check_kernel_exponent(exponent: float) -> None:
    """At exponent 1 the kernel is no longer integrable on the circle."""
    if not 0.0 <= exponent < 1.0:
        raise PreconditionError(f"kernel exponent must be in [0, 1), got {exponent}")


def kernel_k(alpha: float, chord: float | np.ndarray) -> float | np.ndarray:
    """Riesz kernel at a chord distance, or elementwise at an array of them.

    k_alpha(chord) = chord^(-alpha) for 0 < alpha < 1 and
    |log(chord)| for alpha = 0. The logarithmic kernel is not monotone
    in the chord (it vanishes at chord 1 and grows again toward 2).
    """
    _check_kernel_exponent(alpha)
    chord = np.asarray(chord)
    if np.any(chord <= 0.0):
        raise SingularityError(
            "kernel is singular at chord 0; use the cell-averaged diagonal"
        )
    if np.any(chord > 2.0 + 1e-12):
        raise PreconditionError(f"chord distance {chord} exceeds the diameter 2")
    if alpha == 0.0:
        return np.abs(np.log(chord))
    return chord ** -alpha


@lru_cache(maxsize=64)
def _chord_power_table_base(n: int, alpha: float) -> np.ndarray:
    """pw[m] = (2 sin(pi m / n))^(-(1+alpha)), indexed by the cell difference
    m = (i - j) mod n; pw[0] = 0 is the midpoint rule's diagonal exclusion.
    The chord is taken at min(m, n - m), so the table is exactly even."""
    m = np.arange(n)
    chord = 2.0 * np.sin(np.pi * np.minimum(m, n - m) / n)
    pw = np.zeros(n)
    pw[1:] = chord[1:] ** (-(1.0 + alpha))
    pw.setflags(write=False)
    return pw


# 48-point Gauss-Legendre rule on [0, 1] after x = t^2, t = (1 + u) / 2, which
# smooths the x^(2 - exponent) behaviour of the diagonal's rest at x = 0.
_u, _w = np.polynomial.legendre.leggauss(48)
_RULE_X, _RULE_DX = ((1.0 + _u) / 2.0) ** 2, (1.0 + _u) / 2.0 * _w


@lru_cache(maxsize=64)
def _kernel_column_base(n: int, exponent: float) -> np.ndarray:
    """kappa[m] = kernel_k at angular separation 2 pi m / n, with the m = 0
    entry replaced by the exact cell average

        kappa[0] = 2 * integral_0^1 (1 - x) k(2 sin(h x / 2)) dx,  h = 2 pi / n,

    the mean of the kernel over a cell-width gap (integrable for
    exponent < 1): its singular part, (h x)^(-s) or -log(h x), in closed
    form plus the rule above on the bounded rest. Under 6 cells the
    chord passes 1 inside the first cell, a kink of |log| in the rest,
    so those are refused. Exactly even, like the chord power table."""
    if n < 6:
        raise PreconditionError(f"kernel tables need at least 6 cells, got {n}")
    m = np.arange(n)
    chord = 2.0 * np.sin(np.pi * np.minimum(m, n - m) / n)
    kappa = np.empty(n)
    kappa[1:] = kernel_k(exponent, chord[1:])
    h = TWO_PI / n
    y = h * _RULE_X
    if exponent == 0.0:
        singular, lead = -np.log(y), 1.5 - math.log(h)
    else:
        singular, lead = y ** -exponent, 2.0 * h ** -exponent / ((1.0 - exponent) * (2.0 - exponent))
    rest = kernel_k(exponent, 2.0 * np.sin(y / 2.0)) - singular
    kappa[0] = lead + 2.0 * np.sum(_RULE_DX * (1.0 - _RULE_X) * rest)
    kappa.setflags(write=False)
    return kappa


def kernel_column(n: int, exponent: float) -> np.ndarray:
    """Difference-indexed kernel table for an N-cell grid (see
    ``_kernel_column_base``); the classical capacity's kernel matrix is
    the lookup kappa[(i - j) mod n] into this table."""
    return _faulted(_kernel_column_base(int(n), float(exponent)))


@lru_cache(maxsize=64)
def _autocorr_base(n: int, exponent: float) -> np.ndarray:
    """A[m] = sum_j kappa[j] kappa[(j - m) mod n], kappa the kernel column:
    the Gram column of convolution by the kernel (the L2 dual matrix),
    folded at min(m, n - m) so that it is exactly even."""
    spec = np.fft.rfft(_kernel_column_base(n, exponent))
    out = np.fft.irfft(spec * np.conj(spec), n)
    m = np.arange(n)
    out = out[np.minimum(m, n - m)]
    out.setflags(write=False)
    return out


# Table name -> (cached even base table, power of (1 + fault) it carries).
_TABLES = {"chord": (_chord_power_table_base, 1), "kernel": (_kernel_column_base, 1),
           "autocorr": (_autocorr_base, 2)}


@lru_cache(maxsize=256)
def _spectrum_base(table: str, n: int, exponent: float, m: int) -> np.ndarray:
    """Real spectrum of the windowed table t[min(d, m - d)], d < m, for t
    one of the even ``_TABLES`` of an n-cell grid."""
    t = _TABLES[table][0](n, exponent)
    d = np.arange(m)
    spec = np.fft.rfft(t[np.minimum(d, m - d)]).real
    spec.setflags(write=False)
    return spec


def _circulant_apply(table: str, n: int, exponent: float | tuple, cells: np.ndarray, x: np.ndarray,
                     inverse: bool = False):
    """y[..., a] = sum_b t[(cells[a] - cells[b]) mod n] x[..., b] over sorted
    distinct ``cells``, t the table of ``_spectrum_base``, by FFT over the
    shortest cyclic window of L cells holding them: circular convolution
    of length m, the next power of two >= 2L - 1, is the linear one, or
    of length n when m would not be shorter. With ``inverse`` the padded
    x is divided by that length-m circulant's spectrum instead, which
    restricted to ``cells`` is the conjugate-gradient preconditioner.
    For a tuple of exponents the forward transform is made once and a
    list of results, one per exponent, is returned."""
    first, last = int(cells[0]), int(cells[-1])
    run = last - first == len(cells) - 1
    if run:  # the widest cyclic gap is the one before the run
        start, gap = first, n - len(cells) + 1
    else:
        gaps = np.diff(cells, prepend=last - n)  # cyclic gap before each cell
        k = int(np.argmax(gaps))
        start, gap = int(cells[k]), int(gaps[k])
    m = 1 << (2 * (n - gap)).bit_length()
    if m >= n:
        start, m = 0, n
    # a run sits in one slice of the window
    pos = slice(first - start, last + 1 - start) if run else (cells - start) % n
    buf = np.zeros(x.shape[:-1] + (m,))
    buf[..., pos] = x
    ft = np.fft.rfft(buf)
    out = []
    for e in exponent if isinstance(exponent, tuple) else (exponent,):
        spec = _faulted(_spectrum_base(table, n, float(e), m), _TABLES[table][1])
        out.append(np.fft.irfft(ft / spec if inverse else ft * spec, m)[..., pos])
    return out if isinstance(exponent, tuple) else out[0]


def _circulant_block(table: str, n: int, exponent: float, cells: np.ndarray) -> np.ndarray:
    """The dense block t[|cells[a] - cells[b]|] of the matrix that
    ``_circulant_apply`` applies. The tables are even, so this needs no
    modulo; int32 differences keep the k x k temporary half its size."""
    base, power = _TABLES[table]
    c = np.asarray(cells, dtype=np.int32)
    d = c[:, None] - c[None, :]
    np.abs(d, out=d)
    return _faulted(base(n, float(exponent)), power)[d]


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


def _check_energy_exponent(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise PreconditionError(f"energy exponent must be in (0, 1], got {alpha}")


def _self_energies(values: np.ndarray, n: int, cells: np.ndarray, alphas) -> np.ndarray:
    """D_{I,I,alpha} of each row of a (k, n) stack of samples, for each
    exponent of ``alphas`` (each in (0, 1], checked by the caller): an
    (len(alphas), k) array. ``cells`` are the sorted cells of I.

    I = J in the localized energy: every cell is in both, T 1_I = T 1_J,
    and with g = f - f[cells[0]] the sum is the general one with both
    memberships 1, term for term. One ``_circulant_apply`` serves the
    whole stack at every exponent: one forward transform of the rows
    [1, g.real..., g.imag...] over I's window, one inverse per exponent.
    The FFT and the row sums treat each row alone, so every entry is the
    float of a one-row stack."""
    k = len(values)
    f = values[:, cells]
    rows = np.empty((2 * k + 1, cells.size))
    rows[0] = 1.0
    g_re, g_im = rows[1:k + 1], rows[k + 1:]
    # the parts of g = f - f[cells[0]], as complex subtraction forms them
    np.subtract(f.real, f.real[:, :1], out=g_re)
    np.subtract(f.imag, f.imag[:, :1], out=g_im)
    g2 = g_re**2 + g_im**2
    out = np.empty((len(alphas), k))
    for e, t in enumerate(_circulant_apply("chord", n, tuple(alphas), cells, rows)):
        g2_t = g2 * t[0]
        terms = (g2_t - 2.0 * (g_re * t[1:k + 1] + g_im * t[k + 1:])) + g2_t
        # gathers by index leave the rows strided; numpy sums a row
        # pairwise, as it sums one function's terms, only when it is contiguous
        out[e] = np.sum(np.ascontiguousarray(terms), axis=-1) / n**2
    return out


def dirichlet_energy_local(
    f: BoundarySamples,
    arc_i: EnergyDomain,
    arc_j: EnergyDomain,
    alpha: float,
) -> float:
    """Localized fractional Dirichlet energy D_{I,J,alpha}(f).

    Midpoint-rule double sum over the cells of I x J with same-index
    pairs excluded; each normalized measure factor contributes 1/N.
    Both arcs must be resolved by at least ``circle.RESOLUTION_CELLS`` cells.

    For g = f - f[c0], c0 in I u J (D is unchanged, and g is exactly 0
    where f is constant on I u J) and T the chord power table, D * N^2 is
    sum_I |g|^2 (T 1_J) + sum_J |g|^2 (T 1_I) - 2 Re sum_I conj(g) (T g_J).
    """
    _check_energy_exponent(alpha)
    grid = f.grid
    n = grid.n_points
    idx_i = grid.resolved_cells(arc_i, "arc I")
    if arc_j is arc_i or (isinstance(arc_i, Arc) and arc_j == arc_i):
        return float(_self_energies(f.values[None], n, idx_i, (alpha,))[0, 0])
    idx_j = grid.resolved_cells(arc_j, "arc J")
    # membership rows over the span of the sorted cells of I u J only
    lo = min(idx_i[0], idx_j[0])
    member = np.zeros((2, max(idx_i[-1], idx_j[-1]) + 1 - lo))
    member[0, idx_i - lo] = 1.0
    member[1, idx_j - lo] = 1.0
    span = np.flatnonzero(member[0] + member[1])
    in_i, in_j = member[:, span]
    cells = span + lo
    g = f.values[cells] - f.values[cells[0]]
    g2 = g.real**2 + g.imag**2
    t_j, t_i, t_re, t_im = _circulant_apply(
        "chord", n, alpha, cells, np.stack([in_j, in_i, in_j * g.real, in_j * g.imag])
    )
    terms = in_i * (g2 * t_j - 2.0 * (g.real * t_re + g.imag * t_im)) + in_j * g2 * t_i
    return float(np.sum(terms)) / n**2


def dirichlet_energy_global(f: BoundarySamples, alpha: float) -> float:
    """Global energy D_alpha(f): the localized energy with I = J = full
    circle."""
    return dirichlet_energy_local(f, FULL_CIRCLE, FULL_CIRCLE, alpha)


def energy_weight(n: int, alpha: float) -> float:
    """Exact diagonalization weight

        w_alpha(n) = (1/2pi) integral over the circle of
                     |e^{int} - 1|^2 / |e^{it} - 1|^(1+alpha) dt,

    so that D_alpha(f) = sum_n w_alpha(|n|) |f^(n)|^2. In closed form,

        w_alpha(n) = sum_{k<n} d_k / (Gamma(1 + alpha) sin(pi alpha / 2)),
        d_0 = alpha Gamma((1 + alpha)/2) / Gamma((3 - alpha)/2),
        d_{k+1} = d_k (k + (1 + alpha)/2) / (k + (3 - alpha)/2),

    from the Fourier coefficients of |2 sin(t/2)|^(-1-alpha), continued
    analytically. Every term is positive, so nothing cancels. For
    alpha = 1 every d_k is 1 and the weight is n exactly.
    """
    if n < 1:
        raise PreconditionError(f"frequency must be >= 1, got {n}")
    _check_energy_exponent(alpha)
    k = np.arange(n - 1)
    ratios = (k + (1.0 + alpha) / 2.0) / (k + (3.0 - alpha) / 2.0)
    d0 = alpha * math.gamma((1.0 + alpha) / 2.0) / math.gamma((3.0 - alpha) / 2.0)
    d = np.cumprod(np.concatenate(([d0], ratios)))
    return float(np.sum(d)) / (math.gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0))


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
    _check_energy_exponent(alpha)
    return float(
        sum(abs(v) ** 2 * (1.0 + abs(k)) ** alpha for k, v in c.coeffs.items())
    )


def fourier_from_samples(f: BoundarySamples, truncation: int | None = None) -> FourierCoeffs:
    """Discrete Fourier coefficients f^(n) = (1/N) sum_j f_j e^{-i n t_j}
    for |n| <= truncation (default N/4, which keeps aliasing below the
    quadrature error floor of the energy sums)."""
    return _coeffs_from_dft(np.fft.fft(f.values) / f.grid.n_points, truncation)


# Grid angles start at -pi, so e^{ikt_j} = (-1)^k e^{2 pi i kj/N}: frequency k
# is DFT bin k mod N times (-1)^k, in this function and its inverse below.
def random_trig_polynomial(
    grid: CircleGrid, degree: int, rng: np.random.Generator
) -> tuple[BoundarySamples, dict[int, complex]]:
    """A trigonometric polynomial with standard complex Gaussian
    coefficients on frequencies -degree..degree; returns the samples and
    the exact coefficients (handy as a spectral oracle). Frequencies
    equal mod N share a bin, so they alias as in the direct sum."""
    if degree < 0:
        raise PreconditionError(f"polynomial degree must be >= 0, got {degree}")
    k = np.arange(-degree, degree + 1)
    z = rng.standard_normal((k.size, 2))
    c = z[:, 0] + 1j * z[:, 1]
    bins = np.zeros(grid.n_points, dtype=np.complex128)
    np.add.at(bins, k % grid.n_points, np.where(k % 2, -c, c))
    samples = BoundarySamples(grid, np.fft.ifft(bins, norm="forward"))
    return samples, dict(zip(k.tolist(), c.tolist()))


def _coeffs_from_dft(spec: np.ndarray, truncation: int | None) -> FourierCoeffs:
    """Coefficient table |n| <= truncation (default N/4) from the plain DFT
    of grid samples."""
    n_pts = len(spec)
    m = n_pts // 4 if truncation is None else int(truncation)
    if m > n_pts // 2:
        raise PreconditionError(f"truncation {m} exceeds N/2 = {n_pts // 2}")
    coeffs: dict[int, complex] = {}
    for k in range(-m, m + 1):
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
    return mu_energy_report(mu, alpha)["value"]


def mu_energy_report(mu: DiscreteMeasure, alpha: float) -> dict:
    """Measure energy plus diagnostics splitting out the diagonal term."""
    n = mu.grid.n_points
    support = np.nonzero(mu.weights)[0]
    w = mu.weights[support]
    diagonal = float(kernel_column(n, float(alpha))[0] * np.sum(w * w))
    return {
        "value": float(np.sum(w * _circulant_apply("kernel", n, alpha, support, w))),
        "alpha": alpha,
        "grid_n": n,
        "diagnostics": {"diagonal_estimate": diagonal},
    }


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
            "cells_i": len(f.grid.indices_of(arc_i)),
            "cells_j": len(f.grid.indices_of(arc_j)),
        },
    }
