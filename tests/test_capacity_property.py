"""Property tests: one solve on every cell solves both capacities, and
one-run sets by the Toeplitz route.

Derandomized, so every run draws the same 100 examples per test (about 3 s
in all).
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from circle_potential import (  # noqa: E402
    Arc,
    ArcFamily,
    CircleGrid,
    GridSet,
    SolverConfig,
    classical_capacity,
    kernel_exponents,
    l2_capacity,
)
from circle_potential import capacity  # noqa: E402
from circle_potential.energy import kernel_column  # noqa: E402
from circle_potential.uniqueness import CantorSpec, PowerChoice, cantor_grid_set  # noqa: E402


def _property_set(draw, n):
    """An arc union, scattered cells, a Cantor set of depth 2-8, or an arc
    within two cells of the dense/CG crossover (at N = 1024)."""
    grid = CircleGrid(n)
    kind = draw(st.sampled_from(["arcs", "scattered", "cantor", "crossover"]))
    if kind == "arcs":
        arcs = draw(st.lists(
            st.tuples(st.floats(-math.pi, math.pi), st.floats(0.05, 2.0)), min_size=1, max_size=3,
        ))
        return GridSet.from_arcs(grid, ArcFamily(tuple(Arc.centered(c, l) for c, l in arcs)))
    if kind == "scattered":
        size = draw(st.integers(1, min(n, capacity._CG_CELLS + 200)))
        seed = draw(st.integers(0, 2**16))
        return GridSet.from_indices(grid, np.random.default_rng(seed).permutation(n)[:size])
    if kind == "cantor":
        depth = draw(st.integers(2, 8))
        return cantor_grid_set(CantorSpec(rule=PowerChoice(0.5), depth=depth, offset=3), grid)
    size = capacity._CG_CELLS + draw(st.integers(-2, 2))
    start = draw(st.integers(0, 1023))
    return GridSet.from_indices(CircleGrid(1024), (start + np.arange(size)) % 1024)


# Exponents in (0, 1e-12) are left out. Below about 1e-16 the kernel
# table rounds to all ones, so every block is singular, and an L2 alpha
# below about 4e-16 rounds the convolution exponent to 1, which
# ``kernel_column`` refuses: the dense oracle has no answer there either.
# Classical exponents in (0, S_MIN) are refused (test_capacity's
# test_tiny_classical_exponents_are_refused), so they start at S_MIN.
_SMALLEST_EXPONENT = 1e-12


@st.composite
def _property_case(draw):
    e = _property_set(draw, draw(st.sampled_from([64, 128, 256, 512, 1024])))
    if draw(st.booleans()):
        return e, classical_capacity, draw(st.just(0.0) | st.floats(capacity.S_MIN, 0.75))
    return e, l2_capacity, draw(st.floats(_SMALLEST_EXPONENT, 1.0))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(case=_property_case())
def test_polish_alone_matches_dense_oracle(case):
    """On arc unions, scattered cells, Cantor sets and sets on both sides
    of the dense/CG crossover, each capacity certifies on its one solve
    and agrees to 1e-9 with a direct dense active-set solve."""
    e, solve, alpha = case
    est = solve(e, alpha)
    assert est.iterations == 1
    assert est.kkt_residual <= SolverConfig().tolerance
    exponent = alpha if solve is classical_capacity else kernel_exponents(alpha).l2_convolution
    kappa = np.asarray(kernel_column(e.grid.n_points, exponent))
    want = oracles.capacity_value_dense(kappa, e.indices, est.method)
    assert abs(est.value - want) <= 1e-9 * want, (e.count, solve.__name__, alpha, est.value, want)


@st.composite
def _arc_case(draw):
    """An arc of 1 to _CG_CELLS cells (fewer than N) at any cell, across
    -pi when it runs past cell N - 1, a whole-cell rotation that takes it
    off -pi or puts it across (a single cell: next to it), a capacity and
    its exponent."""
    n = draw(st.sampled_from([64, 256, 1024]))
    most = min(capacity._CG_CELLS, n - 1)
    size = draw(st.integers(1, most) | st.just(most))
    start = draw(st.integers(0, n - 1))
    e = GridSet.from_indices(CircleGrid(n), (start + np.arange(size)) % n)
    if start + size > n:
        to = draw(st.integers(0, n - size))
    else:
        to = n - draw(st.integers(1, max(1, size - 1)))
    shift = to - start
    if draw(st.booleans()):
        return e, shift, classical_capacity, draw(st.just(0.0) | st.floats(1e-9, 0.75))
    return e, shift, l2_capacity, draw(st.floats(_SMALLEST_EXPONENT, 1.0))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(case=_arc_case())
def test_one_run_route_matches_dense_oracle_and_rotation(case):
    """Arcs of up to _CG_CELLS cells take the block route (up to
    _BLOCK_CELLS cells) or the Toeplitz route: they agree to 1e-9 with
    the dense oracle, and rotating them by whole cells across -pi changes
    the value only by roundoff."""
    e, shift, solve, alpha = case
    est = solve(e, alpha)
    exponent = alpha if solve is classical_capacity else kernel_exponents(alpha).l2_convolution
    kappa = np.asarray(kernel_column(e.grid.n_points, exponent))
    want = oracles.capacity_value_dense(kappa, e.indices, est.method)
    assert abs(est.value - want) <= 1e-9 * want, (e.count, solve.__name__, alpha, est.value, want)
    rotated = solve(e.rotated(shift), alpha).value
    assert abs(rotated - est.value) <= 1e-13 * est.value, (e.count, shift, rotated, est.value)
