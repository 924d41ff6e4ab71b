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
(i - j) mod N between cell values. ``_circulant_padded`` is the one
place a table meets a vector, zero padded to its window (by
``_circulant_apply``, or by ``_block_energies``, which serves every
localized energy), by single-threaded FFT with numpy's pairwise sums
around it, so results are byte-reproducible for given inputs;
``_circulant_block`` builds dense blocks of the same matrices, and the
block of one run of k cells is the Toeplitz matrix of ``_table``'s
first k entries. The FFT runs over a window of the cells, found by one
rule (``_window_span``) from their runs: arcs give their runs in O(1),
and a cell set's ``Window`` is made once and reused by every product on
that set.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Union

import numpy as np

from .circle import FULL_CIRCLE, TWO_PI, Arc, ArcFamily, CircleGrid, _cell_runs, _merge_runs
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


class Window(NamedTuple):
    """An FFT window over an n-cell grid: cell (start + p) mod n sits at
    position p of a length-m buffer, and ``pos`` holds the positions of
    the values put into it, a slice or an index array."""

    start: int
    m: int
    pos: slice | np.ndarray


def _window_span(n: int, runs: list[tuple[int, int]]) -> tuple[int, int]:
    """(start, m) of the window of the cells in ``runs``, sorted disjoint
    runs (first, count) (``circle._cell_runs``). The shortest cyclic window
    holding them, of L cells, starts after the widest cyclic gap between
    runs; circular convolution of length m, the next power of two
    >= 2L - 1, is then the linear one. When m would not be shorter than
    n the window is the grid, (0, n). So m < n only when the widest gap
    exceeds n / 2, and ties between gaps never matter."""
    prev = runs[-1][0] + runs[-1][1] - 1 - n  # the last cell, one turn back
    gap = start = 0
    for first, count in runs:
        if first - prev > gap:
            gap, start = first - prev, first
        prev = first + count - 1
    m = 1 << (2 * (n - gap)).bit_length()
    return (0, n) if m >= n else (start, m)


def _window(n: int, cells: np.ndarray) -> Window:
    """The window of sorted distinct ``cells`` with their positions: one
    slice when they are one run, else an index array. Made once per cell
    set and handed to every ``_circulant_apply`` on that set."""
    runs = _cell_runs(cells)
    start, m = _window_span(n, runs)
    if len(runs) == 1:
        first, count = runs[0]
        return Window(start, m, slice(first - start, first + count - start))
    return Window(start, m, (cells - start) % n)


def _circulant_apply(table: str, n: int, exponent: float, cells, x: np.ndarray,
                     inverse: bool = False) -> np.ndarray:
    """y[..., a] = sum_b t[(cells[a] - cells[b]) mod n] x[..., b] over sorted
    distinct ``cells``, t the table of ``_spectrum_base``, by FFT over
    their ``Window`` (pass the window itself in place of the cells to
    reuse it): zero padded, circular convolution of length m is the
    linear one. With ``inverse`` the padded x is divided by that
    length-m circulant's spectrum instead, which restricted to ``cells``
    is the conjugate-gradient preconditioner."""
    win = cells if isinstance(cells, Window) else _window(n, cells)
    buf = np.zeros(x.shape[:-1] + (win.m,))
    buf[..., win.pos] = x
    return _circulant_padded(table, n, (exponent,), buf, win.pos, inverse)[0]


def _circulant_padded(table: str, n: int, exponents: tuple, buf: np.ndarray, pos,
                      inverse: bool = False) -> list:
    """``_circulant_apply`` of rows already zero padded to their window,
    buf of shape (..., m): the list of results at positions ``pos``, one
    per exponent, from one forward transform."""
    m = buf.shape[-1]
    ft = np.fft.rfft(buf)
    out = []
    for e in exponents:
        spec = _faulted(_spectrum_base(table, n, float(e), m), _TABLES[table][1])
        out.append(np.fft.irfft(ft / spec if inverse else ft * spec, m)[..., pos])
    return out


def _table(table: str, n: int, exponent: float) -> np.ndarray:
    """The even table t of the matrix t[(a - b) mod n] that
    ``_circulant_apply`` applies, as handed out (``_faulted``)."""
    base, power = _TABLES[table]
    return _faulted(base(n, float(exponent)), power)


def _circulant_block(table: str, n: int, exponent: float, cells: np.ndarray) -> np.ndarray:
    """The dense block t[|cells[a] - cells[b]|] of the matrix that
    ``_circulant_apply`` applies. The tables are even, so this needs no
    modulo; int32 differences keep the k x k temporary half its size."""
    c = np.asarray(cells, dtype=np.int32)
    d = c[:, None] - c[None, :]
    np.abs(d, out=d)
    return _table(table, n, exponent)[d]


@dataclass(frozen=True, eq=False)
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


def _block_energies(values: np.ndarray, blocks: list, pairs: list, alphas: tuple) -> np.ndarray:
    """N^2 D_{X,Y,alpha} of each row of a (k, N) stack of samples, for
    each pair (x, y) of indices into ``blocks`` and each exponent of
    ``alphas`` (each in (0, 1], checked by the caller): a (len(alphas),
    len(pairs), k) array, which the caller divides by N^2 (for one entry
    a float division, cheaper than an array operation). Blocks are cell
    sets given as sorted runs; I = J is one block and the pair (0, 0).

    For g = f - f[c0], c0 the lowest cell of the union U of the blocks
    (D is unchanged, and g is exactly 0 where f is constant on U) and T
    the chord power table, D_{X,Y} * N^2 is

        sum_X |g|^2 (T 1_Y) + sum_Y |g|^2 (T 1_X) - 2 Re sum_X conj(g) (T g_Y),

    g_Y = 1_Y g. The rows 1_X of every block, then the parts of g_Y of
    each row of the stack for every block Y second in a pair, are written
    by slices into one zero buffer as wide as the FFT window of the runs
    of U, so one transform (``_circulant_padded``) serves every pair, row
    and exponent: one forward transform, one inverse per exponent. With
    one block, U is that block and the masks 1_X, 1_Y are not applied.
    Each entry's terms are summed over the cells of U in increasing
    order; the FFT and the sums treat each row alone, so every entry is
    the float of a one-row call. Besides the FFTs, a call costs
    O(rows x cells of U).
    """
    k, n = values.shape
    union = _merge_runs(sum(blocks, []))
    start, m = _window_span(n, union)
    # each run of U is one slice of window positions [0, span)
    at = [((first - start) % n, count) for first, count in union]
    span = max(p + count for p, count in at)
    vals = values[:, start:start + span]
    if start + span > n:
        vals = np.concatenate((vals, values[:, :start + span - n]), axis=1)
    c0 = values[:, union[0][0], None]
    g_re, g_im = vals.real - c0.real, vals.imag - c0.imag
    g2 = g_re * g_re + g_im * g_im
    # rows 1_X per block, then from g_row[Y] k rows of g_Y.real and k of g_Y.imag; zero off U
    g_row: dict[int, int] = {}
    for _, y in pairs:
        if y not in g_row:
            g_row[y] = len(blocks) + 2 * k * len(g_row)
    rows = np.zeros((len(blocks) + 2 * k * len(g_row), m))
    for b, runs in enumerate(blocks):
        r = g_row.get(b)
        for first, count in runs:
            p = (first - start) % n
            rows[b, p:p + count] = 1.0
            if r is not None:
                rows[r:r + k, p:p + count] = g_re[:, p:p + count]
                rows[r + k:r + 2 * k, p:p + count] = g_im[:, p:p + count]
    lo = at[0][0] if len(at) == 1 else 0  # where the cells of U start in a term row
    out = np.empty((len(alphas), len(pairs), k))
    for t, out_e in zip(_circulant_padded("chord", n, alphas, rows, slice(0, span)), out):
        for i, (x, y) in enumerate(pairs):
            # 1_X (-2 (g.real T g_Y.real + g.imag T g_Y.imag) + |g|^2 T1_Y) + 1_Y |g|^2 T1_X;
            # row slices x:x+1 keep one-row operands the same shape as the terms
            r = g_row[y]
            w = g_re * t[r:r + k]
            w += g_im * t[r + k:r + 2 * k]
            w *= -2.0
            g2_t = g2 * t[y:y + 1]
            w += g2_t
            if len(blocks) == 1:  # X = Y = U: no masks, and the last term is |g|^2 T1_Y
                w += g2_t
            else:
                w *= rows[x:x + 1, :span]
                w += g2 * (rows[y:y + 1, :span] * t[x:x + 1])
            if len(at) > 1:  # the cells of U in increasing order, gaps left out
                w = np.concatenate([w[:, p:p + c] for p, c in at], axis=1)
            np.add.reduce(w[:, lo:], axis=-1, out=out_e[i])
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

    I and J come as sorted runs of cells (``CircleGrid.resolved_runs``:
    O(1) for an arc, whatever N) into ``_block_energies``: I = J is its
    one-block case, I != J its two-block case. Besides the FFTs, a call
    costs O(cells of I u J).
    """
    _check_energy_exponent(alpha)
    grid = f.grid
    blocks = [grid.resolved_runs(arc_i, "arc I")]
    if not (arc_j is arc_i or (isinstance(arc_i, Arc) and arc_j == arc_i)):
        blocks.append(grid.resolved_runs(arc_j, "arc J"))
    n2d = _block_energies(f.values[None], blocks, [(0, len(blocks) - 1)], (alpha,))[0, 0, 0]
    return float(n2d) / grid.n_points**2


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


@dataclass(frozen=True, eq=False)
class FourierCoeffs:
    """Sparse coefficient table on frequencies |n| <= truncation. It
    holds a dict, so it compares and hashes by identity."""

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
    terms = [abs(v) ** 2 * (1.0 + abs(k)) ** alpha for k, v in c.coeffs.items()]
    # cumsum adds left to right (the built-in sum compensates from Python
    # 3.12 on), so the total does not depend on the Python version
    return float(np.cumsum([0.0, *terms])[-1])


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
    k = np.arange(-m, m + 1)
    # a product, not a negation, so a zero part keeps the sign it had
    c = spec[k % n_pts] * np.where(k % 2, -1.0, 1.0)
    return FourierCoeffs(dict(zip(k.tolist(), c.tolist())), m)


@dataclass(frozen=True, eq=False)
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

    def rotated(self, cells: int) -> "DiscreteMeasure":
        return DiscreteMeasure(self.grid, np.roll(self.weights, cells))


def mu_energy(mu: DiscreteMeasure, alpha: float) -> float:
    """Measure energy I_alpha(mu) = double kernel sum w_i w_j K_ij.

    Off-diagonal entries are the kernel at the chord distance of cell
    centers; the diagonal uses the cell-averaged kernel (excluding it
    would understate atom self-energy and break capacity convergence).
    """
    support = np.nonzero(mu.weights)[0]
    w = mu.weights[support]
    return float(np.sum(w * _circulant_apply("kernel", mu.grid.n_points, alpha, support, w)))


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
