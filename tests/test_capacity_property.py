"""Property test: the active-set polish alone solves both capacities.

Derandomized, so every run draws the same 100 examples (about 2 s).
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
_SMALLEST_EXPONENT = 1e-12


@st.composite
def _property_case(draw):
    e = _property_set(draw, draw(st.sampled_from([64, 128, 256, 512, 1024])))
    if draw(st.booleans()):
        return e, classical_capacity, draw(st.just(0.0) | st.floats(_SMALLEST_EXPONENT, 0.75))
    return e, l2_capacity, draw(st.floats(_SMALLEST_EXPONENT, 1.0))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(case=_property_case())
def test_polish_alone_matches_dense_oracle(case):
    """On arc unions, scattered cells, Cantor sets and sets on both sides
    of the dense/CG crossover, the polish certifies on its first solve and
    agrees to 1e-9 with a direct dense active-set solve."""
    e, solve, alpha = case
    est = solve(e, alpha)
    assert est.iterations == 1
    assert est.kkt_residual <= SolverConfig().tolerance
    exponent = alpha if solve is classical_capacity else kernel_exponents(alpha).l2_convolution
    kappa = np.asarray(kernel_column(e.grid.n_points, exponent))
    want = oracles.capacity_value_dense(kappa, e.indices, est.method)
    assert abs(est.value - want) <= 1e-9 * want, (e.count, solve.__name__, alpha, est.value, want)
