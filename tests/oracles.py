"""Frozen reference values and independent recomputations.

Everything here is computed by routes that do not share code with the
package internals: closed forms, scipy quadrature called directly on
the defining integrals, and high-precision series tails. The frozen
digits were produced by those same routes at high resolution and are
pinned so that a regression in the library cannot silently move the
targets.
"""

import math

import numpy as np
from scipy.integrate import quad

# Mean of the chord kernel (2 sin(t/2))^{-1/2} over the circle; also the
# energy of the uniform probability measure for that kernel. Computed by
# adaptive quadrature of the defining integral.
UNIFORM_ENERGY_HALF_KERNEL = 1.180340599016093

# Reciprocal of the above: classical capacity of the full circle at
# kernel exponent 1/2.
FULL_CIRCLE_CLASSICAL_HALF = 0.8472130847939815

# Reciprocal square: the L2 capacity of the full circle at parameter 1
# (convolution kernel exponent 1/2), from the rotation-averaging closed
# form value = 1 / (kernel mean)^2.
FULL_CIRCLE_L2_ALPHA_ONE = 0.717770011046134

# Limit of sum_{n>=1} 2^{-n/2} n^{-1/2} (the convergent capacity series
# of the power length rule at beta = 1/2, s = 1/4), summed to machine
# tail at N = 400.
CONVERGENT_SERIES_LIMIT = 1.620873903603967

# Geometric Carleson sum: sum_{n>=1} 2^{-n} log(2^{-n}) = -2 log 2.
GEOMETRIC_CARLESON_LIMIT = -2.0 * math.log(2.0)

# First divergent-series index with partial sum above 10 (harmonic).
HARMONIC_CROSSES_TEN_AT = 12367


def kernel_mean(exponent: float) -> float:
    """(1/pi) int_0^pi (2 sin(t/2))^{-exponent} dt by direct quadrature."""
    val, _ = quad(lambda t: (2.0 * math.sin(t / 2.0)) ** (-exponent), 0.0, math.pi,
                  limit=200)
    return val / math.pi


def monomial_energy(n: int, alpha: float) -> float:
    """Independent quadrature of the energy of e^{int}:
    (1/pi) int_0^pi (2 sin(nt/2))^2 / (2 sin(t/2))^{1+alpha} dt."""
    def integrand(t):
        return (2.0 * math.sin(n * t / 2.0)) ** 2 / (2.0 * math.sin(t / 2.0)) ** (
            1.0 + alpha
        )

    val, _ = quad(integrand, 0.0, math.pi, limit=400)
    return val / math.pi


def harmonic_number(n: int) -> float:
    return float(np.sum(1.0 / np.arange(1, n + 1)))


def l2_density_direct(kappa: np.ndarray, idx: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Primal L2 density f = (1/2) K^T lam, f[m] = (1/2) sum_j lam_j
    kappa[(i_j - m) mod n], by a direct loop over the cells i_j of E."""
    n = len(kappa)
    f = np.zeros(n)
    for j, i in enumerate(idx):
        f += kappa[(int(i) - np.arange(n)) % n] * lam[j]
    return 0.5 * f


def potential_direct(kappa: np.ndarray, f: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Convolution potential (1/n) sum_m kappa[(i - m) mod n] f[m] at each
    cell i of E, one dot product per cell."""
    n = len(kappa)
    return np.array([float(kappa[(int(i) - np.arange(n)) % n] @ f) / n for i in idx])
