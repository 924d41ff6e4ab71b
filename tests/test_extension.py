import math

import numpy as np
import pytest

import oracles
from circle_potential import (
    BoundarySamples,
    CircleGrid,
    DegenerateInputError,
    RATIO_CEILING,
    ResolutionError,
    SetupError,
    bump_phi,
    dirichlet_energy_local,
    extend,
    extension_ratio,
    random_trig_polynomial,
    six_term_decomposition,
)
from circle_potential import energy, extension
from circle_potential.acceptance import AcceptanceContext, extension_ceiling
from circle_potential.extension import (
    ExtensionSetup,
    _extend_rows,
    _extension_ratios,
    bump_slope_constant,
)
from circle_potential.extension import test_function_F as build_test_function


def test_setup_validation():
    with pytest.raises(SetupError):
        ExtensionSetup(theta=0.5, gamma=1.0)
    with pytest.raises(SetupError):
        ExtensionSetup(theta=0.5, gamma=0.0)
    with pytest.raises(SetupError):
        # theta at the admissibility edge gamma*pi/2 is rejected
        ExtensionSetup(theta=0.5 * math.pi / 2.0, gamma=0.5)
    ExtensionSetup(theta=0.3, gamma=0.5)


def test_setup_geometry():
    s = ExtensionSetup(theta=0.3, gamma=0.5)
    assert abs(s.outer_half_width - 0.4) < 1e-15
    assert s.theta < s.theta_gamma < s.outer_half_width
    # theta_gamma is the midpoint of (theta, outer edge)
    assert abs(s.theta_gamma - 0.5 * (s.theta + s.outer_half_width)) < 1e-15
    assert abs(s.arc_j.length - 2.0 * s.outer_half_width) < 1e-15
    assert abs(s.arc_l.length + s.arc_r.length + s.arc_i.length - s.arc_j.length) < 1e-15


def test_preimages_land_inside_i():
    s = ExtensionSetup(theta=0.3, gamma=0.5)
    t = np.linspace(s.theta + 1e-9, s.outer_half_width - 1e-9, 50)
    pre = s.preimage(t)
    assert np.all(pre > -s.theta) and np.all(pre < s.theta)
    pre_r = s.preimage(-t)
    assert np.all(pre_r > -s.theta) and np.all(pre_r < s.theta)
    # the shared endpoint of I and L is fixed
    assert abs(s.preimage(np.array([s.theta]))[0] - s.theta) < 1e-15


def test_extend_copies_i_and_reflects(grid1024):
    """On I the extension is f itself; on L it must approach
    f((3 theta - t)/2) as the grid refines (linear interpolation of the
    smooth truth)."""
    s = ExtensionSetup(theta=0.5, gamma=0.75)
    fn = lambda t: np.cos(3.0 * t) + 1j * np.sin(2.0 * t)
    f = BoundarySamples(grid1024, fn(grid1024.angles))
    ext = extend(f, s)
    mask_i = grid1024.mask_of(s.arc_i, mode="centers")
    assert np.array_equal(ext.values[mask_i], f.values[mask_i])
    mask_l = grid1024.mask_of(s.arc_l, mode="centers")
    pre = s.preimage(grid1024.angles[mask_l])
    truth = fn(pre)
    err = np.abs(ext.values[mask_l] - truth)
    # preimages beyond the outermost sample of I are clamped to it,
    # which costs one grid step of accuracy at the seam
    xp = grid1024.angles[grid1024.mask_of(s.arc_i, mode="centers")]
    interior = (pre >= xp.min()) & (pre <= xp.max())
    assert np.max(err[interior]) < 1e-4
    assert np.max(err) < 3.0 * grid1024.cell_width
    mask_j = grid1024.mask_of(s.arc_j, mode="centers")
    assert np.all(ext.values[~mask_j] == 0.0)


def test_extend_resolution_guard():
    s = ExtensionSetup(theta=0.3, gamma=0.5)
    grid = CircleGrid(64)
    f = BoundarySamples.constant(grid, 1.0)
    with pytest.raises(ResolutionError):
        extend(f, s)


def test_extension_ratio_bounded(grid1024, rng):
    """The reflection extension never costs more than the fixed ceiling
    in fractional energy, across gammas, exponents, and random smooth
    data."""
    for gamma in (0.25, 0.5, 0.75):
        s = ExtensionSetup(theta=0.45 * gamma * math.pi / 2.0, gamma=gamma)
        for alpha in (0.25, 0.5, 1.0):
            for _ in range(4):
                f, _ = random_trig_polynomial(grid1024, 6, rng)
                r = extension_ratio(f, s, alpha)
                assert r.d_i > 0.0
                assert r.ratio <= RATIO_CEILING
                assert r.d_j <= RATIO_CEILING * r.d_i


def test_extension_ratio_degenerate_input(grid1024):
    s = ExtensionSetup(theta=0.3, gamma=0.5)
    f = BoundarySamples.constant(grid1024, 5.0)
    with pytest.raises(DegenerateInputError):
        extension_ratio(f, s, 0.5)


def _polynomial_stack(grid, k, seed):
    rng = np.random.default_rng(seed)
    fs = [random_trig_polynomial(grid, 6, rng)[0] for _ in range(k)]
    return fs, np.stack([f.values for f in fs])


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
def test_stacked_extension_matches_one_row(grid1024, gamma):
    """Each row of a stacked extension, and each entry of the stacked
    D_I, D_J and ratio, is the float of the one-function call and of the
    one-function route before stacking."""
    s = ExtensionSetup(theta=0.45 * gamma * math.pi / 2.0, gamma=gamma)
    fs, stack = _polynomial_stack(grid1024, 5, int(gamma * 100))
    rows = _extend_rows(grid1024, stack, s)
    alphas = (0.25, 0.5, 1.0)
    d_i, d_j, ratio = _extension_ratios(grid1024, stack, s, alphas)
    cells_i = grid1024.indices_of(s.arc_i)
    cells_j = grid1024.indices_of(s.arc_j)
    for r, f in enumerate(fs):
        ext = extend(f, s)
        assert rows[r].tobytes() == ext.values.tobytes()
        assert rows[r].tobytes() == oracles.extend_one_row(f, s).tobytes()
        for e, alpha in enumerate(alphas):
            one = extension_ratio(f, s, alpha)
            assert (d_i[e, r], d_j[e, r], ratio[e, r]) == (one.d_i, one.d_j, one.ratio)
            assert one.d_i == oracles.self_energy_one_row(f, cells_i, alpha)
            assert one.d_j == oracles.self_energy_one_row(ext, cells_j, alpha)


def test_stack_with_a_constant_row_is_degenerate(grid1024):
    s = ExtensionSetup(theta=0.3, gamma=0.5)
    _, stack = _polynomial_stack(grid1024, 3, 1)
    stack[1] = 5.0
    with pytest.raises(DegenerateInputError):
        _extension_ratios(grid1024, stack, s, (0.5,))


@pytest.mark.parametrize("n", [256, 2048])
def test_extension_ceiling_matches_per_call_loop(n):
    """The stacked criterion finds the maximum ratio and the case that
    attains it first, as the loop of one extension and two energies per
    (gamma, alpha, polynomial) did."""
    _, details = extension_ceiling(AcceptanceContext(grid_n=n))
    assert (details["max_ratio"], details["worst_case"]) == oracles.extension_ceiling_per_call(n)


def test_extension_ceiling_does_only_distinct_work(monkeypatch):
    """Per gamma, one window product per arc (I, J) for all 20
    polynomials and three exponents, and each polynomial extended once.
    Every window product goes through ``_circulant_padded``."""
    applies, rows = [], []
    apply, extend_rows = energy._circulant_padded, extension._extend_rows
    monkeypatch.setattr(energy, "_circulant_padded",
                        lambda *a, **kw: applies.append(1) or apply(*a, **kw))
    monkeypatch.setattr(extension, "_extend_rows",
                        lambda grid, values, setup: rows.append(len(values))
                        or extend_rows(grid, values, setup))
    extension_ceiling(AcceptanceContext(grid_n=2048))
    assert len(applies) == 6
    assert rows == [20, 20, 20]


def test_six_term_partition_matches_direct(grid1024, rng):
    """I, L, R partition the cells of J, so the inclusion-exclusion
    total D_I + D_L + D_R + 2(D_IL + D_IR + D_LR) must reproduce the
    direct energy of J to quadrature precision."""
    s = ExtensionSetup(theta=0.35, gamma=0.5)
    for _ in range(3):
        f, _ = random_trig_polynomial(grid1024, 5, rng)
        ext = extend(f, s)
        parts = six_term_decomposition(ext, s, 0.5)
        direct = dirichlet_energy_local(ext, s.arc_j, s.arc_j, 0.5)
        assert abs(parts["total"] - direct) <= 1e-9 * max(1.0, direct)
        for key in ("d_ii", "d_ll", "d_rr", "d_il", "d_ir", "d_lr"):
            assert parts[key] >= 0.0


def test_six_term_resolution_error_names_the_reflected_arc(grid1024):
    """An under-resolved block is named as ``extend`` names it: at
    theta = 0.3, gamma = 0.9 on 1024 cells, L has 3 cells, I has many."""
    f, _ = random_trig_polynomial(grid1024, 4, np.random.default_rng(3))
    with pytest.raises(ResolutionError, match=r"^reflected arc L is resolved by only 3 cells"):
        six_term_decomposition(f, ExtensionSetup(theta=0.3, gamma=0.9), 0.5)


@pytest.mark.parametrize("n", [1024, 4096])
def test_six_term_blocks_match_six_calls(n):
    """The six block energies from one transform over the window of
    I u L u R are the six localized energy calls' to 1e-12 of
    max(1, |d_ii|), and so is their total, with arc endpoints between
    cell centres and, in the last setup, I's right end on one (a cell
    then in none of I, L and R)."""
    grid = CircleGrid(n)
    rng = np.random.default_rng(n)
    setups = [ExtensionSetup(theta=fr * gamma * math.pi / 2.0, gamma=gamma)
              for gamma in (0.25, 0.5, 0.75) for fr in (0.45, 0.7, 0.9)]
    on_centre = n // 2 + n // 16
    setups.append(ExtensionSetup(theta=float(grid.angles[on_centre]), gamma=0.5))
    for arc in (setups[-1].arc_i, setups[-1].arc_l):
        assert on_centre not in grid.indices_of(arc)
    for s in setups:
        for alpha in (0.25, 0.5, 1.0):
            f, _ = random_trig_polynomial(grid, 6, rng)
            ext = extend(f, s)
            got = six_term_decomposition(ext, s, alpha)
            want = oracles.six_term_direct(ext, s, alpha)
            assert got.keys() == want.keys()
            tol = 1e-12 * max(1.0, abs(want["d_ii"]))
            for key, value in want.items():
                assert abs(got[key] - value) <= tol, (s, alpha, key)


def test_ratio_json_keys(grid1024, rng):
    s = ExtensionSetup(theta=0.35, gamma=0.5)
    f, _ = random_trig_polynomial(grid1024, 4, rng)
    r = extension_ratio(f, s, 0.5)
    assert set(r.to_json()) == {"d_I", "d_J", "ratio"}


def test_bump_phi_shape(grid1024):
    s = ExtensionSetup(theta=0.3, gamma=0.5)
    phi = bump_phi(grid1024, s)
    t = grid1024.angles
    inner = np.abs(t) <= s.theta - 1e-9
    outer = np.abs(t) >= s.theta_gamma + 1e-9
    assert np.all(phi.values[inner] == 1.0)
    assert np.all(phi.values[outer] == 0.0)
    ramp = (np.abs(t) > s.theta) & (np.abs(t) < s.theta_gamma)
    assert np.all(phi.values[ramp].real > 0.0)
    assert np.all(phi.values[ramp].real < 1.0)


def test_bump_slope_constant_value():
    """c_gamma = |J| / (theta_gamma - theta) collapses to 8/(1-gamma),
    independent of theta."""
    for gamma in (0.25, 0.5, 0.75):
        s = ExtensionSetup(theta=0.3 * gamma, gamma=gamma)
        assert abs(bump_slope_constant(s) - 8.0 / (1.0 - gamma)) < 1e-12


def test_bump_chord_lipschitz(grid1024):
    """|phi(z) - phi(w)| <= (c/|J|) |e^{iz} - e^{iw}| with c the slope
    constant; checked on random angle pairs with a 1% slack for the
    chord-versus-angle curvature at these arc scales."""
    s = ExtensionSetup(theta=0.3, gamma=0.5)
    phi = bump_phi(grid1024, s).values.real
    c_over_j = bump_slope_constant(s) / s.arc_j.length
    rng = np.random.default_rng(42)
    idx = rng.integers(0, grid1024.n_points, size=(400, 2))
    t = grid1024.angles
    for i, j in idx:
        chord = 2.0 * abs(math.sin((t[i] - t[j]) / 2.0))
        assert abs(phi[i] - phi[j]) <= 1.01 * c_over_j * chord + 1e-12


def test_test_function_shape(grid1024, rng):
    s = ExtensionSetup(theta=0.5, gamma=0.75)
    f, _ = random_trig_polynomial(grid1024, 4, rng)
    ext = extend(f, s)
    phi = bump_phi(grid1024, s)
    tf = build_test_function(ext, phi, s)
    mask_j = grid1024.mask_of(s.arc_j, mode="centers")
    assert abs(tf.m - float(np.mean(np.abs(ext.values[mask_j])))) < 1e-15
    vals = tf.samples.values.real
    assert np.all(vals >= 0.0)
    outside = np.abs(grid1024.angles) >= s.theta_gamma + 1e-9
    assert np.all(vals[outside] == 0.0)
    with pytest.raises(DegenerateInputError):
        build_test_function(BoundarySamples.constant(grid1024, 0.0), phi, s)
