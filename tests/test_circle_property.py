"""Property test: run-based cell selection selects what a scan of every
cell center selects.

Derandomized, so every run draws the same examples.
"""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from circle_potential import Arc, ArcFamily, CircleGrid, PreconditionError  # noqa: E402
from circle_potential import circle  # noqa: E402

TWO_PI = 2.0 * math.pi

_GRIDS = {n: CircleGrid(n) for n in (1, 2, 3, 7, 64, 2048, 4096, 65536)}


def _end(draw, grid):
    """An angle on a cell center, on a cell edge, or anywhere."""
    kind = draw(st.sampled_from(["center", "edge", "free"]))
    if kind == "free":
        return draw(st.floats(-math.pi, math.pi, exclude_max=True))
    center = float(grid.angles[draw(st.integers(0, grid.n_points - 1))])
    return center + grid.cell_width / 2.0 if kind == "edge" else center


def _arc(draw, grid):
    """An arc between two drawn ends (about half of them wrap -pi), or
    one within 1e-9 of the full circle."""
    start = _end(draw, grid)
    if draw(st.integers(0, 3)) == 0:
        length = TWO_PI - draw(st.floats(0.0, 1e-9))
        end = start + length
    else:
        end = _end(draw, grid)
    try:
        return Arc(start, end)
    except PreconditionError:
        assume(False)


def _family(arcs):
    """The family of ``arcs``, unless their lengths add up past the circle."""
    try:
        return ArcFamily(arcs)
    except PreconditionError:
        assume(False)


@st.composite
def _selection(draw):
    grid = _GRIDS[draw(st.sampled_from(sorted(_GRIDS)))]
    if draw(st.booleans()):
        target = _arc(draw, grid)
    else:
        target = _family(tuple(_arc(draw, grid) for _ in range(draw(st.integers(1, 4)))))
    return grid, target, draw(st.sampled_from(["centers", "cover"]))


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(case=_selection())
def test_selection_matches_center_scan(case):
    """Masks and indices of arcs and families in both modes, on grids of
    1 to 65536 cells, equal the scan's, including ends on cell centers
    and cell edges, arcs across -pi and arcs within 1e-9 of 2 pi."""
    grid, target, mode = case
    want = oracles.mask_of_scan(grid, target, mode)
    assert np.array_equal(grid.mask_of(target, mode), want)
    assert np.array_equal(grid.indices_of(target, mode), np.flatnonzero(want))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(case=_selection())
def test_array_runs_match_center_scan(case):
    """The same cases with every family's runs found all at once, however
    few its arcs (an arc taken as a one-arc family)."""
    grid, target, mode = case
    fam = ArcFamily((target,)) if isinstance(target, Arc) else target
    with mock.patch.object(circle, "_RUNS_AT_ONCE", 1):
        assert np.array_equal(grid.mask_of(fam, mode), oracles.mask_of_scan(grid, fam, mode))
