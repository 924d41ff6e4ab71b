import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import oracles
from circle_potential import (
    Arc,
    ArcFamily,
    BoundarySamples,
    CircleGrid,
    DiscreteMeasure,
    FULL_CIRCLE,
    GridSet,
    PreconditionError,
    ResolutionError,
    SingularityError,
    dirichlet_energy_global,
    dirichlet_energy_local,
    energy_weight,
    fourier_energy,
    fourier_from_samples,
    kernel_k,
    monomial,
    mu_energy,
    random_trig_polynomial,
)
from circle_potential._threads import _BLAS_VARS
from circle_potential.energy import (
    _TABLES,
    FourierCoeffs,
    _block_energies,
    _chord_power_table_base,
    _circulant_apply,
    _circulant_block,
    _spectrum_base,
    _window,
    energy_report,
    kernel_column,
    kernel_fault,
)
from circle_potential.extension import ExtensionSetup, extend, six_term_decomposition


def test_kernel_point_values():
    assert kernel_k(0.5, 1.0) == 1.0
    assert abs(kernel_k(0.5, 2.0) - 2.0 ** -0.5) < 1e-15
    assert kernel_k(0.0, 1.0) == 0.0
    assert abs(kernel_k(0.0, 0.5) - math.log(2.0)) < 1e-15
    assert abs(kernel_k(0.0, 2.0) - math.log(2.0)) < 1e-15


def test_kernel_domain_validation():
    with pytest.raises(SingularityError):
        kernel_k(0.5, 0.0)
    with pytest.raises(PreconditionError):
        kernel_k(0.5, 2.5)
    with pytest.raises(PreconditionError):
        kernel_k(1.0, 1.0)
    with pytest.raises(PreconditionError):
        kernel_k(-0.1, 1.0)


def test_chord_power_table_structure():
    n, alpha = 128, 0.5
    pw = _chord_power_table_base(n, alpha)
    assert pw[0] == 0.0
    m = np.arange(1, n)
    expected = (2.0 * np.abs(np.sin(np.pi * m / n))) ** (-(1.0 + alpha))
    assert np.allclose(pw[1:], expected, rtol=1e-14)
    assert np.allclose(pw[1:], pw[1:][::-1], rtol=1e-12)


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_block_builder_matches_dense_lookup(n, rng):
    """The block t[|a - b|] equals the lookup t[(a - b) mod n] exactly,
    wrapped cell pairs included: every table is exactly even."""
    cells = np.union1d(rng.choice(n, size=40, replace=False), [0, 1, n - 2, n - 1])
    for table, exponent in (("chord", 0.5), ("kernel", 0.0), ("kernel", 0.75), ("autocorr", 0.75)):
        dense = oracles.restricted_dense(_TABLES[table][0](n, exponent), cells, n)
        assert np.array_equal(_circulant_block(table, n, exponent, cells), dense)


@pytest.mark.parametrize("n", [16, 64, 1024, 4096, 65536])
def test_window_spectra_are_positive(n):
    """Every windowed circulant is positive definite, so its inverse, the
    conjugate-gradient preconditioner, is too. The smallest value is
    about 0.0085 (kernel exponent 0.01, m = 4), so the test compares
    with 0 exactly."""
    windows = [1 << j for j in range(n.bit_length())]
    for table, exponents in (("kernel", (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.99)),
                             ("autocorr", (0.5, 0.625, 0.75, 0.99))):
        for exponent in exponents:
            for m in windows:
                low = float(np.min(_spectrum_base(table, n, exponent, m)))
                assert low > 0.0, (table, exponent, m, low)


def test_kernel_column_cell_average_diagonal():
    """The m = 0 entry must equal the exact mean of the kernel over a
    cell-width gap, 2 int_0^1 (1-x) k(2 sin(hx/2)) dx; recomputed here
    by an independent quadrature."""
    from scipy.integrate import quad

    n, exponent = 256, 0.5
    kappa = kernel_column(n, exponent)
    h = 2.0 * math.pi / n
    val, _ = quad(
        lambda x: (1.0 - x) * (2.0 * math.sin(h * x / 2.0)) ** (-exponent), 0.0, 1.0
    )
    assert abs(kappa[0] - 2.0 * val) < 1e-12
    # off-diagonal entries are the plain kernel at center separations
    m = np.arange(1, n)
    chord = 2.0 * np.abs(np.sin(np.pi * m / n))
    assert np.allclose(kappa[1:], chord ** -exponent, rtol=1e-14)


@pytest.mark.parametrize("exponent", [0.0, 0.25, 0.5, 0.75, 0.99, 0.999, 1.0 - 1e-6])
def test_kernel_diagonal_matches_quadrature(exponent):
    """The closed-form-plus-rule diagonal agrees to 1e-13 relative with
    QUADPACK carrying the singularity in its weight (the largest gap
    measured is 4.2e-16), from 6 cells, the smallest table, to 65536."""
    for n in (6, 7, 8, 64, 1024, 65536):
        got = kernel_column(n, exponent)[0]
        want = oracles.kernel_diagonal_quad(n, exponent)
        assert abs(got - want) <= 1e-13 * want, (n, got, want)


@pytest.mark.parametrize("gap, bound", [(1e-3, 1e-2), (1e-6, 1e-5), (1e-9, 1e-8)])
def test_kernel_diagonal_grows_like_one_over_gap(gap, bound):
    """As the exponent s -> 1 the cell average is 2 h^(-s) / ((1 - s)(2 - s))
    to leading order, so (1 - s) kappa[0] h / 2 -> 1."""
    n, s = 4096, 1.0 - gap
    h = 2.0 * math.pi / n
    assert abs((1.0 - s) * kernel_column(n, s)[0] * h / 2.0 - 1.0) <= bound


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kernel_column_refuses_fewer_than_6_cells(n):
    with pytest.raises(PreconditionError, match="at least 6 cells"):
        kernel_column(n, 0.5)


def test_kernel_on_array_matches_elementwise():
    """kernel_k takes an array of chords and agrees with one call per
    chord; an array holding a bad chord is refused as a scalar is."""
    chords = np.array([1e-9, 0.01, 0.5, 1.0, 1.7, 2.0])
    for alpha in (0.0, 0.3, 0.75):
        got = kernel_k(alpha, chords)
        assert got.tobytes() == np.array([kernel_k(alpha, c) for c in chords]).tobytes()
    with pytest.raises(SingularityError):
        kernel_k(0.5, np.array([0.5, 0.0]))
    with pytest.raises(PreconditionError, match="exceeds the diameter"):
        kernel_k(0.5, np.array([0.5, 2.5]))
    with pytest.raises(PreconditionError, match="kernel exponent"):
        kernel_k(1.0, chords)


def test_library_does_not_import_quadrature():
    """Neither the CLI import nor a classical capacity, an L2 capacity and
    a localized energy load ``scipy.integrate``."""
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        import circle_potential.cli
        from circle_potential import (
            Arc, CircleGrid, GridSet, classical_capacity, dirichlet_energy_local,
            l2_capacity, random_trig_polynomial,
        )

        grid = CircleGrid(256)
        e = GridSet.from_arcs(grid, Arc(0.3, 1.7))
        classical_capacity(e, 0.5)
        l2_capacity(e, 0.5)
        f, _ = random_trig_polynomial(grid, 6, np.random.default_rng(1))
        dirichlet_energy_local(f, Arc(0.3, 1.7), Arc(1.0, 2.5), 0.5)
        assert "scipy.integrate" not in sys.modules
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr.decode()


def test_samples_validation(grid64):
    with pytest.raises(PreconditionError):
        BoundarySamples(grid64, np.zeros(5))
    with pytest.raises(PreconditionError):
        BoundarySamples(grid64, np.full(64, np.nan))
    s = BoundarySamples.constant(grid64, 2.0 + 1j)
    assert np.all(s.values == 2.0 + 1j)


def test_constant_has_zero_energy(grid256, rng):
    """A function constant on I u J has energy exactly 0.0, also when it
    varies elsewhere and I u J holds a cell count whose mean of the
    constant is inexact."""
    f = BoundarySamples.constant(grid256, 3.7 - 0.2j)
    assert dirichlet_energy_global(f, 0.5) == 0.0
    cases = (
        (Arc(-1.0, 0.3), Arc(0.1, 1.2)),
        (Arc.centered(0.4, 0.37), Arc.centered(0.4, 0.37)),
        (Arc.centered(math.pi, 0.9), Arc(2.0, 2.9)),
        (ArcFamily((Arc.centered(-2.0, 0.5), Arc.centered(1.0, 0.3))), Arc(-0.4, 0.2)),
    )
    for arc_i, arc_j in cases:
        vals = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        vals[grid256.mask_of(arc_i) | grid256.mask_of(arc_j)] = 3.7 - 0.2j
        g = BoundarySamples(grid256, vals)
        for alpha in (0.25, 1.0):
            assert dirichlet_energy_local(g, arc_i, arc_j, alpha) == 0.0


def test_monomial_energy_matches_quadrature(grid1024):
    """Cross-check the midpoint double sum against an independent
    quadrature of the defining integral for e^{int}. Tolerance follows
    the resolution: the near-diagonal midpoint error decays like
    N^(alpha-1)."""
    for alpha in (0.25, 0.5, 1.0):
        for n in (1, 2, 4):
            got = dirichlet_energy_global(monomial(grid1024, n), alpha)
            want = oracles.monomial_energy(n, alpha)
            assert abs(got - want) <= 0.04 * want


def test_energy_weight_douglas_identity():
    """At alpha = 1 the diagonalization weights are exactly w(n) = n
    (the classical half-plane Dirichlet integral identity)."""
    for n in range(1, 301):
        assert energy_weight(n, 1.0) == n


@pytest.mark.parametrize("alpha", [1e-6, 1e-3, 0.01, 0.05, 0.25, 0.5, 0.75, 0.999, 1.0])
def test_energy_weight_matches_quadrature(alpha):
    """The closed-form weight agrees with adaptive quadrature of its
    defining integral to 1e-12 relative, at low and high frequencies."""
    for n in [*range(1, 9), 50, 300]:
        want = oracles.monomial_energy(n, alpha)
        assert abs(energy_weight(n, alpha) - want) <= 1e-12 * want, n


def test_energy_weight_rejects_zero_frequency():
    with pytest.raises(PreconditionError):
        energy_weight(0, 0.5)


def test_random_trig_polynomial_rejects_negative_degree(grid64, rng):
    """A negative degree would otherwise be the zero function."""
    with pytest.raises(PreconditionError):
        random_trig_polynomial(grid64, -1, rng)
    f, coeffs = random_trig_polynomial(grid64, 0, rng)
    assert list(coeffs) == [0]
    assert np.allclose(f.values, coeffs[0])


def test_exact_diagonalization_for_polynomials(grid1024, rng):
    """D_alpha(f) = sum_n w_alpha(|n|) |c_n|^2 for trigonometric
    polynomials, the spectral route against the spatial double sum."""
    alpha = 0.5
    for _ in range(5):
        f, coeffs = random_trig_polynomial(grid1024, 4, rng)
        spatial = dirichlet_energy_global(f, alpha)
        spectral = sum(
            energy_weight(abs(k), alpha) * abs(c) ** 2
            for k, c in coeffs.items()
            if k != 0
        )
        assert abs(spatial - spectral) <= 0.04 * max(1.0, spectral)


def test_seminorm_shift_and_rotation_invariance(grid256, rng):
    """Adding a constant cannot change any energy; rotating the samples
    by whole cells permutes the same double sum, because kernel tables
    are indexed by index differences only, so it agrees to roundoff."""
    alpha = 0.5
    for _ in range(10):
        f, _ = random_trig_polynomial(grid256, 6, rng)
        base = dirichlet_energy_global(f, alpha)
        shifted = BoundarySamples(grid256, f.values + (0.37 - 0.82j))
        assert abs(dirichlet_energy_global(shifted, alpha) - base) <= 1e-9 * max(1.0, base)
        rot = f.rotated(int(rng.integers(1, 200)))
        assert abs(dirichlet_energy_global(rot, alpha) - base) <= 1e-12 * max(1.0, base)


def test_seminorm_modulus_scaling(grid256, rng):
    lam = 1.6 - 0.7j
    f, _ = random_trig_polynomial(grid256, 5, rng)
    base = dirichlet_energy_global(f, 0.75)
    scaled = BoundarySamples(grid256, lam * f.values)
    assert abs(dirichlet_energy_global(scaled, 0.75) - abs(lam) ** 2 * base) <= 1e-9 * base


def test_local_energy_symmetry_and_additivity(grid256, rng):
    """The double sum is symmetric in (I, J), and for disjoint I, J
    the square identity D_{I u J} = D_I + D_J + 2 D_{I,J} holds exactly
    cell by cell."""
    f, _ = random_trig_polynomial(grid256, 6, rng)
    alpha = 0.5
    a = Arc(-1.0, 0.0)
    b = Arc(0.5, 1.5)
    d_ab = dirichlet_energy_local(f, a, b, alpha)
    d_ba = dirichlet_energy_local(f, b, a, alpha)
    assert abs(d_ab - d_ba) <= 1e-12 * max(1.0, d_ab)
    from circle_potential import ArcFamily

    both = ArcFamily((a, b))
    d_union = dirichlet_energy_local(f, both, both, alpha)
    d_aa = dirichlet_energy_local(f, a, a, alpha)
    d_bb = dirichlet_energy_local(f, b, b, alpha)
    total = d_aa + d_bb + 2.0 * d_ab
    assert abs(d_union - total) <= 1e-9 * max(1.0, d_union)


def test_local_energy_monotone_in_domains(grid256, rng):
    f, _ = random_trig_polynomial(grid256, 6, rng)
    inner = Arc(-0.5, 0.5)
    outer = Arc(-1.0, 1.0)
    small = dirichlet_energy_local(f, inner, inner, 0.5)
    big = dirichlet_energy_local(f, outer, outer, 0.5)
    assert small <= big + 1e-15


def test_local_energy_matches_brute_force(grid64, rng):
    """The FFT route must agree with the naive O(n^2) loop."""
    f, _ = random_trig_polynomial(grid64, 3, rng)
    alpha = 0.75
    arc = Arc(-2.0, 1.0)
    got = dirichlet_energy_local(f, arc, arc, alpha)
    idx = grid64.indices_of(arc, mode="centers")
    n = grid64.n_points
    total = 0.0
    for i in idx:
        for j in idx:
            if i == j:
                continue
            chord = 2.0 * abs(math.sin(math.pi * (i - j) / n))
            total += abs(f.values[i] - f.values[j]) ** 2 / chord ** (1.0 + alpha)
    want = total / n**2
    assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_energy_resolution_guard(rng):
    from circle_potential import CircleGrid

    tiny = CircleGrid(64)
    f, _ = random_trig_polynomial(tiny, 2, rng)
    with pytest.raises(ResolutionError):
        dirichlet_energy_local(f, Arc(0.0, 0.2), FULL_CIRCLE, 0.5)


def test_energy_alpha_validation(grid64):
    f = monomial(grid64, 1)
    with pytest.raises(PreconditionError):
        dirichlet_energy_global(f, 0.0)
    with pytest.raises(PreconditionError):
        dirichlet_energy_global(f, 1.2)


def test_fourier_from_samples_recovers_coefficients(grid256, rng):
    f, coeffs = random_trig_polynomial(grid256, 5, rng)
    got = fourier_from_samples(f, truncation=8)
    for k, c in coeffs.items():
        assert abs(got[k] - c) < 1e-10
    assert abs(got[7]) < 1e-10


def test_fourier_truncation_guard(grid64):
    f = monomial(grid64, 1)
    with pytest.raises(PreconditionError):
        fourier_from_samples(f, truncation=40)


def test_fourier_energy_formula():
    c = FourierCoeffs({0: 2.0, 1: 1.0, -3: 0.5}, 3)
    want = 4.0 * 1.0 + 1.0 * 2.0**0.5 + 0.25 * 4.0**0.5
    assert abs(fourier_energy(c, 0.5) - want) < 1e-14


def test_fourier_energy_adds_left_to_right():
    """The total is the left-to-right sum of the terms on every Python
    version: on this white noise a compensated sum (the built-in sum()
    from Python 3.12 on) gives another float."""
    grid = CircleGrid(4096)
    rng = np.random.default_rng(7)
    f = BoundarySamples(grid, rng.standard_normal(4096) + 1j * rng.standard_normal(4096))
    c = fourier_from_samples(f)
    terms = [abs(v) ** 2 * (1.0 + abs(k)) ** 0.5 for k, v in c.coeffs.items()]
    left_to_right = 0.0
    for t in terms:
        left_to_right += t
    assert fourier_energy(c, 0.5) == left_to_right
    assert math.fsum(terms) != left_to_right


def test_uniform_measure_energy_pin(grid1024):
    """Energy of the uniform probability measure at kernel exponent 1/2
    equals the kernel mean; frozen to the quadrature value."""
    mu = DiscreteMeasure.uniform(grid1024)
    got = mu_energy(mu, 0.5)
    assert abs(got - oracles.UNIFORM_ENERGY_HALF_KERNEL) < 0.01


def test_measure_energy_rotation_invariant(grid256, rng):
    w = rng.uniform(0.0, 1.0, size=256)
    w[w < 0.7] = 0.0
    w /= w.sum()
    mu = DiscreteMeasure(grid256, w)
    base = mu_energy(mu, 0.5)
    rot = mu.rotated(37)
    assert abs(mu_energy(rot, 0.5) - base) <= 1e-12 * base


def test_point_mass_energy_is_diagonal_entry(grid256):
    w = np.zeros(256)
    w[10] = 1.0
    mu = DiscreteMeasure(grid256, w)
    kappa = kernel_column(256, 0.5)
    assert abs(mu_energy(mu, 0.5) - kappa[0]) < 1e-14


def test_measure_fourier_coeffs_uniform(grid256):
    mu = DiscreteMeasure.uniform(grid256)
    c = oracles.measure_fourier_coeffs(mu, truncation=16)
    assert abs(c[0] - 1.0) < 1e-14
    for n in range(1, 17):
        assert abs(c[n]) < 1e-12
    assert oracles.measure_fourier_energy(c, 0.5) < 1e-20


def test_measure_fourier_energy_requires_mass(grid64):
    c = FourierCoeffs({1: 0.5}, 1)
    with pytest.raises(PreconditionError):
        oracles.measure_fourier_energy(c, 0.5)


def test_kernel_fault_hook_scales_energy(grid256):
    """The fault hook scales every energy, also when the table spectrum
    was cached by a clean call first."""
    f = monomial(grid256, 2)
    arc = Arc.centered(0.5, 1.3)
    e = GridSet.from_arcs(grid256, arc)
    mu = DiscreteMeasure(grid256, e.mask / e.count)
    base = dirichlet_energy_global(f, 0.5)
    local = dirichlet_energy_local(f, arc, arc, 0.5)
    energy = mu_energy(mu, 0.5)
    clean_entry = kernel_column(256, 0.5)[1]
    with kernel_fault(0.5):
        assert abs(dirichlet_energy_global(f, 0.5) - 1.5 * base) <= 1e-12 * base
        assert abs(dirichlet_energy_local(f, arc, arc, 0.5) - 1.5 * local) <= 1e-12 * local
        assert abs(mu_energy(mu, 0.5) - 1.5 * energy) <= 1e-12 * energy
        assert abs(kernel_column(256, 0.5)[1] - 1.5 * clean_entry) < 1e-15
    assert dirichlet_energy_global(f, 0.5) == base
    assert dirichlet_energy_local(f, arc, arc, 0.5) == local
    assert mu_energy(mu, 0.5) == energy


def test_energy_report_shape(grid256):
    f = monomial(grid256, 1)
    rep = energy_report(f, FULL_CIRCLE, FULL_CIRCLE, 0.5)
    assert rep["grid_n"] == 256
    assert rep["arcs"]["i"] == "full"
    assert rep["diagnostics"]["cells_i"] == 256
    assert rep["value"] > 0.0


def test_random_polynomial_reproducible(grid64):
    f1, c1 = random_trig_polynomial(grid64, 3, np.random.default_rng(5))
    f2, c2 = random_trig_polynomial(grid64, 3, np.random.default_rng(5))
    assert np.array_equal(f1.values, f2.values)
    assert c1 == c2


@pytest.mark.parametrize("n", [1, 7, 2048, 8192])
def test_random_polynomial_matches_direct_sum(n):
    """The inverse FFT gives the samples of the direct sum of
    c_k exp(i k t) over k = -degree..degree to 1e-13 sum |c_k|, with the
    coefficients drawn in the same order; degree 40 on 1 and 7 cells
    aliases frequencies that are equal mod N."""
    grid = CircleGrid(n)
    for degree in (0, 6, 40):
        f, coeffs = random_trig_polynomial(grid, degree, np.random.default_rng(degree))
        want, want_coeffs = oracles.trig_polynomial_direct(grid, degree, np.random.default_rng(degree))
        assert coeffs == want_coeffs
        bound = 1e-13 * sum(abs(c) for c in coeffs.values())
        assert np.max(np.abs(f.values - want)) <= bound, degree


def test_local_energy_matches_member_rows():
    """The span-sized energy, and its one-row route when I = J, agree to
    1e-12 relative with the inverse-FFT route, which returns the float of
    the N-long membership rows: random arcs (I and J equal but distinct
    objects, and one object twice), random arc pairs, families, the full
    circle, arcs across -pi, at several N and alpha."""
    rng = np.random.default_rng(17)

    def arc():
        return Arc.centered(float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(0.15, 3.0)))

    def family():
        return ArcFamily((Arc.centered(-1.0, float(rng.uniform(0.1, 1.0))),
                          Arc.centered(float(rng.uniform(1.0, 3.0)), 0.3)))

    for n in (512, 2048, 4096):
        grid = CircleGrid(n)
        for _ in range(40):
            f, _ = random_trig_polynomial(grid, 6, rng)
            f = BoundarySamples(grid, f.values + float(rng.uniform(0.0, 50.0)))
            alpha = float(rng.choice([1.0, 0.5, rng.uniform(0.01, 1.0)]))
            a, b, fam = arc(), arc(), family()
            pairs = [(a, Arc(a.start, a.end)), (a, a), (a, b), (fam, fam), (fam, b), (b, fam),
                     (FULL_CIRCLE, FULL_CIRCLE), (FULL_CIRCLE, a), (Arc.centered(math.pi, 1.0), a)]
            for arc_i, arc_j in pairs:
                want = oracles.energy_local_inverse_fft(f, arc_i, arc_j, alpha)
                assert want == oracles.energy_local_members(f, arc_i, arc_j, alpha)
                got = dirichlet_energy_local(f, arc_i, arc_j, alpha)
                assert abs(got - want) <= 1e-12 * want, (n, arc_i, arc_j)


@pytest.mark.parametrize("n", [256, 2048, 4096])
@pytest.mark.parametrize("k", [1, 2, 20])
def test_stacked_self_energies_match_one_row(n, k):
    """D_{I,I} of a stack of k functions at three exponents, from the
    one-block case of ``_block_energies`` (its double sums divided by
    N^2), is, entry for entry, the float
    of one ``dirichlet_energy_local`` call per function and exponent, and
    within 1e-12 relative of the one-function route before stacking: an
    arc, an arc across -pi and the full circle."""
    rng = np.random.default_rng(n + k)
    grid = CircleGrid(n)
    fs = [random_trig_polynomial(grid, 6, rng)[0] for _ in range(k)]
    stack = np.stack([f.values for f in fs])
    alphas = (0.25, 0.5, 1.0)
    for arc in (Arc.centered(0.4, 1.3), Arc.centered(math.pi, 0.9), FULL_CIRCLE):
        cells = grid.resolved_cells(arc, "arc I")
        got = _block_energies(stack, [grid.resolved_runs(arc, "arc I")], [(0, 0)], alphas)[:, 0] / n**2
        assert got.shape == (3, k)
        for e, alpha in enumerate(alphas):
            for r, f in enumerate(fs):
                assert got[e, r] == dirichlet_energy_local(f, arc, arc, alpha), (arc, alpha, r)
                want = oracles.self_energy_one_row(f, cells, alpha)
                assert abs(got[e, r] - want) <= 1e-12 * want, (arc, alpha, r)


@pytest.mark.parametrize("n", [512, 4096])
@pytest.mark.parametrize("k", [1, 2, 20])
def test_stacked_block_energies_match_one_row(n, k):
    """D_{I,J} for I != J and the six blocks of the extension, for a stack
    of k functions at three exponents (the double sums of
    ``_block_energies`` divided by N^2), are entry for entry the floats of
    one ``dirichlet_energy_local`` or ``six_term_decomposition`` call per
    function and exponent: overlapping arcs, disjoint arcs, an arc across
    -pi against a family, and the I/L/R partition of two setups."""
    rng = np.random.default_rng(7 * n + k)
    grid = CircleGrid(n)
    fs = [random_trig_polynomial(grid, 6, rng)[0] for _ in range(k)]
    fs = [BoundarySamples(grid, f.values + float(rng.uniform(0, 9))) for f in fs]
    stack = np.stack([f.values for f in fs])
    alphas = (0.25, 0.5, 1.0)
    fam = ArcFamily((Arc.centered(-1.0, 0.7), Arc.centered(1.5, 0.4)))
    for arc_i, arc_j in ((Arc.centered(0.3, 0.8), Arc.centered(0.6, 0.5)),
                         (Arc.centered(-2.0, 0.6), Arc.centered(2.2, 0.9)),
                         (Arc.centered(math.pi, 0.9), fam)):
        blocks = [grid.resolved_runs(arc_i, "arc I"), grid.resolved_runs(arc_j, "arc J")]
        got = _block_energies(stack, blocks, [(0, 1)], alphas) / n**2
        assert got.shape == (3, 1, k)
        for e, alpha in enumerate(alphas):
            for r, f in enumerate(fs):
                want = dirichlet_energy_local(f, arc_i, arc_j, alpha)
                assert got[e, 0, r] == want, (arc_i, alpha, r)
    keys = ("d_ii", "d_ll", "d_rr", "d_il", "d_ir", "d_lr")
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    for setup in (ExtensionSetup(theta=0.45, gamma=0.3), ExtensionSetup(theta=0.6, gamma=0.4)):
        blocks = [grid.resolved_runs(a, "block") for a in (setup.arc_i, setup.arc_l, setup.arc_r)]
        exts = [extend(f, setup) for f in fs]
        got = _block_energies(np.stack([x.values for x in exts]), blocks, pairs, alphas) / n**2
        assert got.shape == (3, 6, k)
        for e, alpha in enumerate(alphas):
            for r, ext in enumerate(exts):
                want = six_term_decomposition(ext, setup, alpha)
                assert got[e, :, r].tolist() == [want[key] for key in keys], (setup, alpha, r)


def _block_energy_shapes(grid, rng):
    """(stack, blocks, pairs, alphas) of every kind of call: I != J pairs
    (overlapping, far apart, across -pi against a family), I = J on an arc
    and on the full circle (the global energy), the six-term split of two
    extensions, and a 20-row stack at three exponents."""
    fs = [random_trig_polynomial(grid, 6, rng)[0] for _ in range(20)]
    stack = np.stack([f.values + float(rng.uniform(0, 9)) for f in fs])
    fam = ArcFamily((Arc.centered(-1.0, 0.7), Arc.centered(1.5, 0.4)))
    shapes = []
    for arc_i, arc_j in ((Arc.centered(0.3, 0.8), Arc.centered(0.6, 0.5)),
                         (Arc.centered(0.0, 0.3), Arc.centered(2.5, 0.3)),
                         (Arc.centered(math.pi, 0.9), fam)):
        blocks = [grid.resolved_runs(arc_i, "arc I"), grid.resolved_runs(arc_j, "arc J")]
        shapes.append((stack[:1], blocks, [(0, 1)], (0.5,)))
    for arc in (Arc.centered(0.4, 1.3), FULL_CIRCLE):
        shapes.append((stack[:1], [grid.resolved_runs(arc, "arc I")], [(0, 0)], (0.25, 1.0)))
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    for setup in (ExtensionSetup(theta=0.45, gamma=0.3), ExtensionSetup(theta=0.6, gamma=0.4)):
        blocks = [grid.resolved_runs(a, "block") for a in (setup.arc_i, setup.arc_l, setup.arc_r)]
        shapes.append((extend(fs[0], setup).values[None], blocks, pairs, (0.5,)))
    shapes.append((stack, [grid.resolved_runs(FULL_CIRCLE, "arc I")], [(0, 0)], (0.25, 0.5, 1.0)))
    return shapes


@pytest.mark.parametrize("n", [512, 2048, 4096])
def test_block_energies_match_inverse_fft_route(n):
    """Every entry of ``_block_energies``, for every kind of call,
    agrees to 1e-12 relative with the route it replaced: one inverse FFT
    per exponent and sums over the cells of U."""
    grid = CircleGrid(n)
    for stack, blocks, pairs, alphas in _block_energy_shapes(grid, np.random.default_rng(n)):
        got = _block_energies(stack, blocks, pairs, alphas)
        want = oracles.block_energies_inverse_fft(stack, blocks, pairs, alphas)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * want), (len(blocks), pairs, alphas)


@pytest.mark.parametrize("n", [1024, 2048, 4096])
def test_six_term_entries_match_within_largest_energy(n):
    """The six-term split of 30 random extensions (offset by a constant),
    theta log-uniform from L and R 10 cells wide to 0.95 gamma pi / 2, at
    random exponents: every entry within 1e-12 of the call's largest
    energy of the inverse-FFT route and of the direct pair sums. Entry
    for entry, a small D_LL is up to 7e-12 relative off the direct sum
    here (the inverse-FFT route's 1.3e-11), so a bound relative to each
    entry holds for neither route."""
    grid = CircleGrid(n)
    rng = np.random.default_rng(n + 7)
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    for _ in range(30):
        gamma = float(rng.uniform(0.25, 0.6))
        lo, hi = 10 * 2 * math.pi / n * (1 + gamma) / (1 - gamma), 0.95 * gamma * math.pi / 2
        setup = ExtensionSetup(theta=lo * (hi / lo) ** float(rng.uniform()), gamma=gamma)
        alpha = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
        f, _ = random_trig_polynomial(grid, 6, rng)
        f = extend(BoundarySamples(grid, f.values + float(rng.uniform(0.0, 50.0))), setup)
        arcs = (setup.arc_i, setup.arc_l, setup.arc_r)
        blocks = [grid.resolved_runs(a, "block") for a in arcs]
        cells = [grid.resolved_cells(a, "block") for a in arcs]
        got = _block_energies(f.values[None], blocks, pairs, (alpha,))[0, :, 0]
        kept = oracles.block_energies_inverse_fft(f.values[None], blocks, pairs, (alpha,))[0, :, 0]
        pw = _chord_power_table_base(n, alpha)
        direct = [oracles.pair_sum_direct(f.values, cells[x], cells[y], pw, n) for x, y in pairs]
        tol = 1e-12 * max(kept)
        assert np.all(np.abs(got - kept) <= tol), (setup, alpha)
        assert np.all(np.abs(got - direct) <= tol), (setup, alpha)


def test_block_energies_make_one_forward_transform(monkeypatch):
    """A call makes exactly one forward FFT, of every row at once, and no
    inverse, whatever its blocks, pairs, rows and exponents."""
    grid = CircleGrid(1024)
    shapes = _block_energy_shapes(grid, np.random.default_rng(5))
    for shape in shapes:  # the windowed spectra are cached before counting
        _block_energies(*shape)
    calls = []
    for name in ("rfft", "irfft", "fft", "ifft"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, name=name, fn=fn, **kw: calls.append(name)
                            or fn(*a, **kw))
    for shape in shapes:
        calls.clear()
        _block_energies(*shape)
        assert calls == ["rfft"], (len(shape[1]), shape[2], shape[3])


@pytest.mark.parametrize("n", [1, 2, 64, 4096])
def test_circulant_apply_run_window_matches_gap_search(n):
    """A sorted run of cells skips the widest-gap search and lands in one
    slice of the window, yet gets the same window, hence the same floats,
    forward and inverse: runs of 1, 2, N/2, N - 1, N cells and one random
    length, at both ends of the grid and at a random place. Kernel tables
    need 6 cells, so the 1- and 2-cell grids run the chord table alone."""
    rng = np.random.default_rng(n)
    sizes = sorted(s for s in {1, 2, n // 2, n - 1, n, int(rng.integers(1, n + 1))} if 1 <= s <= n)
    cases = (("chord", False), ("kernel", False), ("kernel", True)) if n >= 6 else (("chord", False),)
    for size in sizes:
        for first in {0, n - size, int(rng.integers(0, n - size + 1))}:
            cells = np.arange(first, first + size)
            x = rng.standard_normal((2, size))
            for table, inverse in cases:
                got = _circulant_apply(table, n, 0.5, cells, x, inverse)
                want = oracles.circulant_apply_gap_search(table, n, 0.5, cells, x, inverse)
                assert got.tobytes() == want.tobytes(), (table, inverse, size, first)


def test_short_arc_pairs_match_member_rows():
    """The benchmark's regime, to 1e-12 relative of the inverse-FFT route
    (which is float for float the N-long membership rows): arcs of
    0.02-0.2 rad at N = 4096, J's centre within 0.3 rad of I's,
    overlapping, nested, equal but distinct (the same cells from other
    endpoints), touching, disjoint and across -pi."""
    grid = CircleGrid(4096)
    h = 2.0 * math.pi / 4096
    rng = np.random.default_rng(18)
    kinds = {"overlapping": 0, "nested": 0, "same cells": 0, "touching": 0, "disjoint": 0,
             "across -pi": 0}
    for trial in range(240):
        f, _ = random_trig_polynomial(grid, 6, rng)
        alpha = (0.25, 0.5, 0.75, 1.0)[trial % 4]
        c = math.pi - 0.05 if trial % 6 == 5 else float(rng.uniform(-math.pi, math.pi))
        shape = trial % 5
        arc_i = Arc.centered(c, float(rng.uniform(0.06 if shape == 0 else 0.02, 0.2)))
        if shape == 0:  # nested
            len_j = float(rng.uniform(0.02, arc_i.length - 0.02))
            arc_j = Arc.centered(c + float(rng.uniform(-0.9, 0.9)) * (arc_i.length - len_j) / 2.0, len_j)
        elif shape == 1:  # the cells of I, from endpoints moved within their cells
            cells = grid.indices_of(arc_i)
            lo, hi = grid.angles[cells[0]], grid.angles[cells[-1]]
            arc_j = Arc(lo - h * float(rng.uniform(0.01, 0.99)), hi + h * float(rng.uniform(0.01, 0.99)))
        elif shape == 2:  # touching: J starts where I ends
            arc_j = Arc(arc_i.end, arc_i.end + float(rng.uniform(0.02, 0.2)))
        else:
            arc_j = Arc.centered(c + float(rng.uniform(-0.3, 0.3)), float(rng.uniform(0.02, 0.2)))
        cells_i, cells_j = set(grid.indices_of(arc_i).tolist()), set(grid.indices_of(arc_j).tolist())
        if min(len(cells_i), len(cells_j)) < 8:
            continue
        if arc_i.contains(math.pi) or arc_j.contains(math.pi):
            kinds["across -pi"] += 1
        if cells_i == cells_j:
            kinds["same cells"] += 1
        elif cells_j < cells_i:
            kinds["nested"] += 1
        elif cells_i & cells_j:
            kinds["overlapping"] += 1
        elif max(cells_i) + 1 in cells_j:
            kinds["touching"] += 1
        else:
            kinds["disjoint"] += 1
        want = oracles.energy_local_inverse_fft(f, arc_i, arc_j, alpha)
        assert want == oracles.energy_local_members(f, arc_i, arc_j, alpha)
        got = dirichlet_energy_local(f, arc_i, arc_j, alpha)
        assert abs(got - want) <= 1e-12 * want, (arc_i, arc_j, alpha)
    assert min(kinds.values()) >= 5, kinds


@pytest.mark.parametrize("n", [1024, 4096])
def test_unions_with_inner_widest_gap_match_member_rows(n):
    """Unions whose widest cyclic gap lies between cells of I u J in
    index order, to 1e-12 relative of the inverse-FFT route (float for
    float the N-long membership rows): arcs on either side of -pi, long
    arcs on opposite sides (a union over half the circle), and a family
    against an arc."""
    grid = CircleGrid(n)
    rng = np.random.default_rng(n + 1)
    f, _ = random_trig_polynomial(grid, 6, rng)
    f = BoundarySamples(grid, f.values + 3.0)
    pairs = [
        (Arc.centered(-math.pi + 0.2, 0.3), Arc.centered(math.pi - 0.3, 0.25)),
        (Arc.centered(-math.pi + 0.05, 0.1), Arc.centered(math.pi - 0.02, 0.1)),
        (Arc.centered(0.4, 2.6), Arc.centered(0.4 + math.pi, 2.6)),
        (Arc.centered(-2.0, 2.0), Arc.centered(2.0, 2.0)),
        (ArcFamily((Arc.centered(-2.5, 0.3), Arc.centered(2.5, 0.3))), Arc.centered(0.0, 0.5)),
        (ArcFamily((Arc.centered(-1.5, 0.4), Arc.centered(1.5, 0.4))), Arc.centered(math.pi, 0.5)),
    ]
    for arc_i, arc_j in pairs:
        cells = np.union1d(grid.indices_of(arc_i), grid.indices_of(arc_j))
        gaps = np.diff(cells, prepend=cells[-1] - n)
        assert np.argmax(gaps) > 0  # the widest gap is not the one before the lowest cell
        for alpha in (0.25, 1.0):
            want = oracles.energy_local_inverse_fft(f, arc_i, arc_j, alpha)
            assert want == oracles.energy_local_members(f, arc_i, arc_j, alpha)
            got = dirichlet_energy_local(f, arc_i, arc_j, alpha)
            assert abs(got - want) <= 1e-12 * want, (arc_i, arc_j, alpha)


@pytest.mark.parametrize("n", [64, 1024, 4096])
def test_circulant_apply_scattered_window_matches_gap_search(n):
    """Scattered cells, wrapped runs and pairs of runs take their window
    from their runs (``energy._window``), the same window the widest-gap
    search over cells finds, hence the same floats, forward and inverse,
    whether the window is made per call or made once and passed."""
    rng = np.random.default_rng(n + 2)
    sets = [np.sort(rng.choice(n, size=k, replace=False)) for k in (2, 5, n // 8, n // 2)]
    sets += [np.r_[0:5, n - 7:n], np.r_[3:9, n // 3:n // 3 + 4], np.r_[0:n // 4, n // 2:3 * n // 4]]
    for cells in sets:
        x = rng.standard_normal((2, len(cells)))
        window = _window(n, cells)
        for table, inverse in (("chord", False), ("kernel", False), ("kernel", True)):
            want = oracles.circulant_apply_gap_search(table, n, 0.5, cells, x, inverse)
            for got in (_circulant_apply(table, n, 0.5, cells, x, inverse),
                        _circulant_apply(table, n, 0.5, window, x, inverse)):
                assert got.tobytes() == want.tobytes(), (table, inverse, cells[:4])


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("n", [64, 256, 1024])
def test_fft_route_matches_direct_sums(n, alpha):
    """Localized energies and measure energies agree with the blocked
    direct sums to 1e-12 relative: full circle, 8-cell, long and
    wrapping arcs, arc families whose window is under and over half the
    circle, and a +50 offset; measure energies (kernel exponent
    1 - alpha) on random sparse supports and point masses."""
    grid = CircleGrid(n)
    rng = np.random.default_rng(n)
    h = 2.0 * math.pi / n
    eight = Arc(grid.angles[n // 3] - h / 2.0, grid.angles[n // 3 + 7] + h / 2.0)
    long_arc = Arc.centered(-0.5, 4.0)
    wrap = Arc.centered(math.pi, 1.2)
    near = ArcFamily((Arc.centered(0.0, 0.6), Arc.centered(0.9, 0.4)))
    far = ArcFamily((Arc.centered(-1.6, 0.5), Arc.centered(1.6, 0.5)))
    pairs = (
        (FULL_CIRCLE, FULL_CIRCLE), (eight, eight), (eight, long_arc), (long_arc, long_arc),
        (wrap, wrap), (wrap, eight), (near, near), (far, far), (near, far), (far, wrap),
    )
    assert len(grid.indices_of(eight)) == 8
    pw = _chord_power_table_base(n, alpha)
    f, _ = random_trig_polynomial(grid, 6, rng)
    for offset in (0.0, 50.0):
        g = BoundarySamples(grid, f.values + offset)
        for arc_i, arc_j in pairs:
            got = dirichlet_energy_local(g, arc_i, arc_j, alpha)
            want = oracles.pair_sum_direct(
                g.values, grid.indices_of(arc_i), grid.indices_of(arc_j), pw, n
            ) / n**2
            assert abs(got - want) <= 1e-12 * want, (arc_i, arc_j, offset)

    exponent = 1.0 - alpha
    kappa = np.asarray(kernel_column(n, exponent))
    measures = [DiscreteMeasure(grid, np.eye(n)[k]) for k in (int(rng.integers(n)), n - 1)]
    for density in (0.02, 0.3, 1.0):
        w = rng.uniform(size=n) * (rng.uniform(size=n) < density)
        w[int(rng.integers(n))] = 1.0
        measures.append(DiscreteMeasure(grid, w / w.sum()))
    for mu in measures:
        want, _ = oracles.mu_energy_direct(mu.weights, kappa)
        assert abs(mu_energy(mu, exponent) - want) <= 1e-12 * want


def test_energies_independent_of_thread_count():
    """Global and localized energies and measure energies serialize to
    the same bytes with one and with two BLAS threads."""
    script = textwrap.dedent(
        """
        import json, math
        import numpy as np
        from circle_potential import (
            Arc, ArcFamily, CircleGrid, DiscreteMeasure, GridSet, FULL_CIRCLE,
            dirichlet_energy_global, dirichlet_energy_local, mu_energy,
            random_trig_polynomial,
        )

        grid = CircleGrid(4096)
        f, _ = random_trig_polynomial(grid, 12, np.random.default_rng(7))
        fam = ArcFamily((Arc.centered(-1.0, 0.8), Arc.centered(2.0, 1.5)))
        out = [dirichlet_energy_global(f, a) for a in (0.25, 0.5, 1.0)]
        for arc_i, arc_j in ((Arc.centered(0.3, 0.2), Arc.centered(0.4, 0.1)),
                             (Arc.centered(math.pi, 2.5), fam), (fam, FULL_CIRCLE)):
            out.append(dirichlet_energy_local(f, arc_i, arc_j, 0.75))
        w = np.random.default_rng(8).uniform(size=4096)
        out.append(mu_energy(DiscreteMeasure(grid, w / w.sum()), 0.5))
        e = GridSet.from_arcs(grid, fam)
        out.append(mu_energy(DiscreteMeasure(grid, e.mask / e.count), 0.0))
        print(json.dumps(out))
        """
    )
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    base["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    outputs = []
    for threads in ("1", "2"):
        env = dict(base, CIRCLE_POTENTIAL_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert len(json.loads(outputs[0])) == 8
    assert outputs[0] == outputs[1]
