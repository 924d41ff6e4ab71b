"""Independent checks of the library's outputs.

Nothing here imports the library: kernel tables, cell selection, pair
sums, extensions, spikes and small capacity problems are recomputed
from their definitions with numpy and scipy. Each ``check_*`` raises
``CheckFailed`` with a message when an output disagrees.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cho_factor, solve_triangular
from scipy.optimize import nnls

TWO_PI = 2.0 * math.pi
TRENDS = ("converges", "diverges_plus_inf", "diverges_minus_inf", "inconclusive")


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def rel_close(got: float, want: float, tol: float, what: str):
    err = abs(got - want) / max(abs(want), 1e-300)
    expect(err <= tol, f"{what}: got {got!r}, want {want!r} (rel {err:.3g} > {tol:g})")


# ---------------------------------------------------------------------------
# tables and cell selection
# ---------------------------------------------------------------------------


def angles(n: int) -> np.ndarray:
    return -math.pi + TWO_PI * np.arange(n) / n


@lru_cache(maxsize=None)
def chord_power(n: int, alpha: float) -> np.ndarray:
    """(2 sin(pi m / n))^(-(1 + alpha)), zero at m = 0 (diagonal excluded)."""
    out = np.zeros(n)
    out[1:] = (2.0 * np.abs(np.sin(np.pi * np.arange(1, n) / n))) ** (-(1.0 + alpha))
    return out


@lru_cache(maxsize=None)
def kernel(n: int, exponent: float) -> np.ndarray:
    """Riesz (or |log|) kernel at separation 2 pi m / n; the m = 0 entry
    is the kernel's mean over a cell-width gap."""
    h = TWO_PI / n
    chord = 2.0 * np.abs(np.sin(np.pi * np.arange(1, n) / n))
    if exponent == 0.0:
        k = lambda c: abs(math.log(c))
        off = np.abs(np.log(chord))
    else:
        k = lambda c: c ** (-exponent)
        off = chord ** (-exponent)
    diag, _ = quad(lambda x: (1.0 - x) * k(2.0 * math.sin(h * x / 2.0)), 0.0, 1.0, limit=200)
    return np.concatenate([[2.0 * diag], off])


def circulant_apply(table: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(K v)_i = sum_j table[(i - j) mod n] v_j by FFT."""
    return np.fft.irfft(np.fft.rfft(table) * np.fft.rfft(v), len(v))


def arc_cells(n: int, start: float, length: float) -> np.ndarray:
    """Cells whose centre lies strictly inside the open arc."""
    rel = (angles(n) - start) % TWO_PI
    return np.nonzero((rel > 0.0) & (rel < length))[0]


def domain_cells(n: int, domain) -> np.ndarray:
    """Cells of an arc or a family of arcs (the full circle when
    ``domain`` carries ``full``); reads only the arcs' start and length."""
    if getattr(domain, "full", False):
        return np.arange(n)
    arcs = getattr(domain, "arcs", (domain,))
    return np.unique(np.concatenate([arc_cells(n, a.start, a.length) for a in arcs]))


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


def pair_energy(values: np.ndarray, ci: np.ndarray, cj: np.ndarray, alpha: float) -> float:
    """Direct midpoint sum over ci x cj of |f_i - f_j|^2 pw[i - j], / N^2."""
    n = len(values)
    d = values[ci][:, None] - values[cj][None, :]
    w = chord_power(n, alpha)[(ci[:, None] - cj[None, :]) % n]
    return float(np.sum((d.real**2 + d.imag**2) * w)) / n**2


def global_energy_fft(values: np.ndarray, alpha: float) -> float:
    """sum_k w_k |F_k|^2 / N^3 with w_k = 2 sum_m pw[m] (1 - cos 2 pi k m / N)."""
    n = len(values)
    pw = chord_power(n, alpha)
    weight = 2.0 * (pw.sum() - np.fft.fft(pw).real)
    return float(np.sum(weight * np.abs(np.fft.fft(values)) ** 2)) / n**3


def check_energy_local(value: float, values, dom_i, dom_j, alpha: float):
    n = len(values)
    want = pair_energy(values, domain_cells(n, dom_i), domain_cells(n, dom_j), alpha)
    rel_close(value, want, 1e-10, "local energy vs direct pair sum")


def check_energy_global(value: float, values, alpha: float):
    rel_close(value, global_energy_fft(values, alpha), 1e-10, "global energy vs FFT identity")


# ---------------------------------------------------------------------------
# reflection extension
# ---------------------------------------------------------------------------


def extension_cells(n: int, theta: float, gamma: float):
    outer = 2.0 * theta / (1.0 + gamma)
    ci = arc_cells(n, -theta, 2.0 * theta)
    cl = arc_cells(n, theta, outer - theta)
    cr = arc_cells(n, -outer, outer - theta)
    return ci, cl, cr


def reflect(values: np.ndarray, theta: float, gamma: float) -> np.ndarray:
    """f on I, f at the reflection preimages on L and R, zero elsewhere."""
    n = len(values)
    t = angles(n)
    ci, cl, cr = extension_cells(n, theta, gamma)
    xp, fp = t[ci], values[ci]
    out = np.zeros(n, dtype=complex)
    out[ci] = fp
    for cells, pre in ((cl, (3.0 * theta - t[cl]) / 2.0), (cr, -(3.0 * theta + t[cr]) / 2.0)):
        out[cells] = np.interp(pre, xp, fp.real) + 1j * np.interp(pre, xp, fp.imag)
    return out


def check_extension_ratio(res, values, theta, gamma, alpha):
    ci, cl, cr = extension_cells(len(values), theta, gamma)
    cj = np.concatenate([cr, ci, cl])
    ext = reflect(values, theta, gamma)
    rel_close(res.d_i, pair_energy(values, ci, ci, alpha), 1e-10, "D_I")
    rel_close(res.d_j, pair_energy(ext, cj, cj, alpha), 1e-10, "D_J of the extension")
    rel_close(res.ratio, res.d_j / res.d_i, 1e-15, "ratio")
    expect(0.0 < res.ratio <= 21.0, f"extension ratio {res.ratio} outside (0, 21]")


def check_six_term(parts: dict, values, theta, gamma, alpha):
    ci, cl, cr = extension_cells(len(values), theta, gamma)
    ext = reflect(values, theta, gamma)
    blocks = {"i": ci, "l": cl, "r": cr}
    for key in ("d_ii", "d_ll", "d_rr", "d_il", "d_ir", "d_lr"):
        want = pair_energy(ext, blocks[key[2]], blocks[key[3]], alpha)
        rel_close(parts[key], want, 1e-10, key)
    cj = np.concatenate([cr, ci, cl])
    rel_close(parts["total"], pair_energy(ext, cj, cj, alpha), 1e-10, "six-term total vs D_J")


# ---------------------------------------------------------------------------
# capacities
# ---------------------------------------------------------------------------


def _nonneg_quadratic_min(mat: np.ndarray) -> np.ndarray:
    """argmin over x >= 0 of x^T mat x / 2 - sum(x), for positive definite
    ``mat``, as a nonnegative least-squares problem through Cholesky."""
    c, lower = cho_factor(mat, lower=True)
    rhs = solve_triangular(c, np.ones(len(mat)), lower=True)
    x, _ = nnls(np.tril(c).T, rhs, maxiter=50 * len(mat))
    return x


def classical_small(n: int, cells: np.ndarray, exponent: float) -> float:
    """Capacity 1 / min_w w^T K w over the simplex on a small cell set."""
    mat = kernel(n, exponent)[(cells[:, None] - cells[None, :]) % n]
    return float(_nonneg_quadratic_min(mat).sum())


@lru_cache(maxsize=None)
def autocorr(n: int, exponent: float) -> np.ndarray:
    spec = np.fft.rfft(kernel(n, exponent))
    return np.fft.irfft(spec * np.conj(spec), n)


def l2_small(n: int, cells: np.ndarray, beta: float) -> float:
    """L2 capacity through its dual max_{lam >= 0} sum(lam) - lam^T G lam / 4N."""
    g = autocorr(n, 1.0 - beta / 2.0)[(cells[:, None] - cells[None, :]) % n] / (2.0 * n)
    lam = _nonneg_quadratic_min(g)
    return float(lam.sum() - 0.5 * lam @ g @ lam)


def check_classical(est, cells: np.ndarray, exponent: float, tolerance: float):
    n = est.grid_n
    w = np.asarray(est.minimizer, dtype=float)
    expect(est.kkt_residual <= tolerance, f"kkt_residual {est.kkt_residual} > {tolerance}")
    expect(bool(np.all(w >= 0.0)), "negative equilibrium weight")
    outside = np.ones(n, dtype=bool)
    outside[cells] = False
    expect(not np.any(w[outside]), "equilibrium weight outside the set")
    rel_close(float(w.sum()), 1.0, 1e-12, "total equilibrium mass")
    energy = float(w @ circulant_apply(kernel(n, exponent), w))
    rel_close(est.value, 1.0 / energy, 1e-9, "classical capacity vs 1/(w^T K w)")


def check_l2(est, cells: np.ndarray, beta: float, tolerance: float):
    n = est.grid_n
    f = np.asarray(est.minimizer, dtype=float)
    expect(est.kkt_residual <= tolerance, f"kkt_residual {est.kkt_residual} > {tolerance}")
    expect(bool(np.all(f >= 0.0)), "negative density")
    rel_close(est.value, float(np.mean(f * f)), 1e-9, "l2 capacity vs ||f||^2")
    potential = circulant_apply(kernel(n, 1.0 - beta / 2.0), f)[cells] / n
    low = float(potential.min())
    expect(low >= 1.0 - 10.0 * tolerance, f"potential {low} < 1 on the set")


# ---------------------------------------------------------------------------
# Poincare components
# ---------------------------------------------------------------------------


def spike(n: int, cells: np.ndarray, delta: float) -> np.ndarray:
    """min(1, dist(t, union of the closed cells) / delta)."""
    t = angles(n)
    gap = np.abs((t[:, None] - t[cells][None, :] + math.pi) % TWO_PI - math.pi)
    dist = np.maximum(gap - math.pi / n, 0.0).min(axis=1)
    return np.minimum(1.0, dist / delta)


def check_poincare(f, rep, e_cells, arc, alpha, beta, delta, n):
    vals = np.asarray(f.values)
    expect(float(np.max(np.abs(vals.imag))) == 0.0, "spike has an imaginary part")
    spike_err = float(np.max(np.abs(vals.real - spike(n, e_cells, delta))))
    expect(spike_err <= 1e-12, f"spike differs from its definition by {spike_err:.3g}")
    ci = arc_cells(n, arc.start, arc.length)
    inside = np.intersect1d(e_cells, ci)
    expect(inside.size > 0, "E cap I is empty")
    rel_close(rep.energy, pair_energy(vals, ci, ci, alpha), 1e-10, "D_I of the spike")
    rel_close(rep.lhs, float(np.mean(np.abs(vals[ci]))) ** 2, 1e-12, "squared mean")
    rel_close(rep.cap, l2_small(n, inside, beta), 1e-8, "l2 capacity of E cap I")
    rel_close(rep.scale, arc.length ** (alpha - beta), 1e-14, "scale")
    rel_close(rep.ratio, rep.lhs * rep.cap / (rep.scale * rep.energy), 1e-14, "ratio")


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def check_trend(diag, want: str | None):
    expect(diag.trend in TRENDS, f"unknown trend {diag.trend!r}")
    if want is not None:
        expect(diag.trend == want, f"trend {diag.trend!r}, want {want!r}")


def check_power_series(diag, beta: float, s: float, n_terms: int, trend: str):
    """2^-n l_n^-s with l_n = (2^-n n)^(1/(1-beta)), summed directly."""
    n = np.arange(1, n_terms + 1, dtype=float)
    p = s / (1.0 - beta)
    terms = 2.0 ** (-n * (1.0 - p)) * n ** (-p)
    expect(len(diag.partial_sums) == n_terms, "wrong number of partial sums")
    rel_close(diag.final_sum, math.fsum(terms), 1e-9, "Cantor capacity series sum")
    check_trend(diag, trend)


def check_geometric_carleson(diag, ratio: float, count: int):
    # sum_n r^n log r^n = log(r) r / (1 - r)^2, minus a tail below 1e-12
    rel_close(diag.final_sum, math.log(ratio) * ratio / (1.0 - ratio) ** 2, 1e-12,
              "geometric Carleson sum vs closed form")
    expect(len(diag.partial_sums) == count, "wrong number of partial sums")
    check_trend(diag, "converges")


def check_log_reciprocal_carleson(diag, n_max: int):
    inv = np.array([1.0 / math.log(k) for k in range(2, n_max + 2)])
    lengths = inv[:-1] - inv[1:]
    rel_close(diag.final_sum, math.fsum(lengths * np.log(lengths)), 1e-9,
              "log-reciprocal Carleson sum")
    check_trend(diag, "diverges_minus_inf")
    expect(diag.fit.get("model") == "loglog", f"fit model {diag.fit.get('model')!r}")


def check_uniqueness(diag, parts, arcs, alpha: float, beta: float, n: int):
    check_trend(diag, None)
    expect(len(diag.term_records) == len(arcs), "one term per arc expected")
    terms = []
    for rec in diag.term_records:
        part = parts[rec["arc_index"]]
        cells = np.nonzero(np.asarray(part.mask))[0]
        arc = arcs[rec["arc_index"]]
        rel_close(rec["length"], arc.length, 0.0, "arc length")
        rel_close(rec["capacity"], classical_small(n, cells, 1.0 - beta), 1e-8,
                  f"capacity of Cantor part {rec['arc_index']}")
        want = rec["length"] * ((1.0 + alpha - beta) * math.log(rec["length"])
                                - math.log(rec["capacity"]))
        rel_close(rec["term"], want, 1e-14, "series term")
        terms.append(want)
    rel_close(diag.final_sum, math.fsum(terms), 1e-9, "uniqueness series sum")
