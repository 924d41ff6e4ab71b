"""Geometry of the unit circle: angles, arcs, grids, and arc families.

Conventions used throughout the package:

* Angles are radians with canonical representative in [-pi, pi).
* Arcs are open and run counterclockwise from ``start`` to ``end``;
  an arc is never the full circle (use the ``FULL_CIRCLE`` family
  constant for that).
* A ``CircleGrid`` of N points places cell centers at
  t_j = -pi + 2*pi*j/N; the closed cell around t_j is
  [t_j - h/2, t_j + h/2] with h = 2*pi/N.
* Angle equality is decided with an absolute tolerance of 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from .errors import PreconditionError

TWO_PI = 2.0 * math.pi

#: Absolute tolerance for angle equality tests.
ANGLE_TOL = 1e-12


def normalize_angle(x: float) -> float:
    """Canonical representative of ``x`` in [-pi, pi).

    Values already in range are returned unchanged, which makes the
    normalization exactly idempotent in floating point.
    """
    x = float(x)
    if -math.pi <= x < math.pi:
        return x
    r = math.remainder(x, TWO_PI)
    if r >= math.pi:
        r -= TWO_PI
    return r


def angles_close(a: float, b: float, tol: float = ANGLE_TOL) -> bool:
    """True when the circular distance between two angles is within ``tol``."""
    return abs(normalize_angle(float(a) - float(b))) <= tol


def chord_distance(s, t) -> float:
    """Euclidean distance |e^{is} - e^{it}| between two circle points.

    Computed as 2*|sin((s - t)/2)|, which is exact on the chord range
    [0, 2] and symmetric in its arguments.
    """
    return 2.0 * abs(math.sin((float(s) - float(t)) / 2.0))


@dataclass(frozen=True)
class Arc:
    """Open arc running counterclockwise from ``start`` to ``end``.

    The length is the counterclockwise gap from ``start`` to ``end``,
    always in (0, 2*pi). Arcs may cross the -pi/pi cut.
    """

    start: float
    end: float

    def __post_init__(self):
        object.__setattr__(self, "start", normalize_angle(self.start))
        object.__setattr__(self, "end", normalize_angle(self.end))
        if self.length <= 0.0:
            raise PreconditionError(
                "arc must have positive length strictly below 2*pi "
                f"(got start={self.start}, end={self.end})"
            )

    @property
    def length(self) -> float:
        gap = (self.end - self.start) % TWO_PI
        return gap

    @property
    def midpoint(self) -> float:
        return normalize_angle(self.start + self.length / 2.0)

    def contains(self, t) -> bool:
        """Strict interior membership (open-arc semantics)."""
        rel = (float(t) - self.start) % TWO_PI
        return 0.0 < rel < self.length

    def to_json(self) -> dict:
        return {"start": self.start, "end": self.end}

    @classmethod
    def from_json(cls, obj: dict) -> "Arc":
        return cls(float(obj["start"]), float(obj["end"]))

    @classmethod
    def centered(cls, midpoint: float, length: float) -> "Arc":
        half = float(length) / 2.0
        return cls(midpoint - half, midpoint + half)


def _dilation_covers(big: Arc, small: Arc, factor: float = 3.0) -> bool:
    """Does the factor-dilation of ``big`` (same midpoint, scaled length,
    capped at the full circle) contain ``small``?"""
    dilated = factor * big.length
    if dilated >= TWO_PI:
        return True
    half = dilated / 2.0
    gap = abs(normalize_angle(small.midpoint - big.midpoint))
    return gap + small.length / 2.0 <= half + ANGLE_TOL


@dataclass(frozen=True)
class ArcFamily:
    """An ordered collection of arcs, optionally validated as disjoint.

    The full circle is represented by the module constant
    ``FULL_CIRCLE`` (an ArcFamily with the ``full`` flag set); ordinary
    families never contain it.
    """

    arcs: tuple[Arc, ...]
    pairwise_disjoint: bool = False
    full: bool = field(default=False)

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(self.arcs))
        if self.full and self.arcs:
            raise PreconditionError("full-circle family carries no explicit arcs")
        if self.pairwise_disjoint and not self.full:
            self._validate_disjoint()
        total = self.total_length
        if total > TWO_PI + 1e-9:
            raise PreconditionError(
                f"total arc length {total} exceeds the circumference"
            )

    def _validate_disjoint(self):
        n = len(self.arcs)
        if n < 2:
            return
        order = sorted(range(n), key=lambda k: self.arcs[k].start)
        for pos in range(n):
            a = self.arcs[order[pos]]
            b = self.arcs[order[(pos + 1) % n]]
            gap = (b.start - a.start) % TWO_PI
            if pos == n - 1 and gap == 0.0:
                gap = TWO_PI
            if gap < a.length:
                raise PreconditionError(
                    f"arcs {order[pos]} and {order[(pos + 1) % n]} overlap"
                )

    @property
    def total_length(self) -> float:
        if self.full:
            return TWO_PI
        return float(sum(a.length for a in self.arcs))

    def __len__(self) -> int:
        return len(self.arcs)

    def __iter__(self):
        return iter(self.arcs)

    def to_json(self) -> dict:
        if self.full:
            return {"arcs": [], "disjoint": True, "full": True}
        return {
            "arcs": [a.to_json() for a in self.arcs],
            "disjoint": self.pairwise_disjoint,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ArcFamily":
        if obj.get("full"):
            return FULL_CIRCLE
        arcs = tuple(Arc.from_json(a) for a in obj["arcs"])
        return cls(arcs, pairwise_disjoint=bool(obj.get("disjoint", False)))


#: The full circle, distinct from any Arc.
FULL_CIRCLE = ArcFamily(arcs=(), pairwise_disjoint=True, full=True)

#: Targets accepted by grid selection helpers.
CircleSet = Union[Arc, ArcFamily]


def vitali_disjoint_subfamily(fam: ArcFamily) -> ArcFamily:
    """Greedy Vitali selection: a pairwise-disjoint subfamily whose
    3-fold dilations cover every arc of the input.

    Arcs are scanned by decreasing length (ties broken by smaller start
    angle) and kept when disjoint from everything already kept. The
    classical covering property then holds: any discarded arc meets a
    kept arc at least as long, so it lies inside that arc's 3-dilation.
    Empty input yields the empty family.
    """
    if fam.full:
        return fam
    order = sorted(fam.arcs, key=lambda a: (-a.length, a.start))
    kept: list[Arc] = []
    for cand in order:
        if all(_open_disjoint(cand, k) for k in kept):
            kept.append(cand)
    kept.sort(key=lambda a: a.start)
    return ArcFamily(tuple(kept), pairwise_disjoint=True)


def _open_disjoint(a: Arc, b: Arc) -> bool:
    """Disjointness of open arcs; shared endpoints do not count as overlap."""
    rel = (b.start - a.start) % TWO_PI
    if rel == 0.0:
        return False
    if rel < a.length:
        return False
    back = (a.start - b.start) % TWO_PI
    return back >= b.length


def dilation_covers_family(selected: ArcFamily, fam: ArcFamily, factor: float = 3.0) -> bool:
    """Check the Vitali covering property: every arc of ``fam`` sits inside
    the factor-dilation of some selected arc."""
    return all(
        any(_dilation_covers(s, a, factor) for s in selected.arcs) for a in fam.arcs
    )


@dataclass(frozen=True)
class CircleGrid:
    """Uniform angular grid of N cell centers t_j = -pi + 2*pi*j/N."""

    n_points: int

    def __post_init__(self):
        if self.n_points < 1:
            raise PreconditionError("grid needs at least one point")

    @cached_property
    def angles(self) -> np.ndarray:
        n = self.n_points
        out = -math.pi + TWO_PI * np.arange(n) / n
        out.setflags(write=False)
        return out

    @property
    def cell_width(self) -> float:
        return TWO_PI / self.n_points

    def cell_index(self, t) -> int:
        """Index of the cell whose closed interval contains angle ``t``
        (ties at a cell edge resolve to the counterclockwise cell)."""
        rel = (float(t) + math.pi) % TWO_PI
        return int(round(rel / self.cell_width)) % self.n_points

    def _arc_center_mask(self, arc: Arc) -> np.ndarray:
        rel = (self.angles - arc.start) % TWO_PI
        return (rel > 0.0) & (rel < arc.length)

    def _arc_cover_mask(self, arc: Arc) -> np.ndarray:
        h = self.cell_width
        rel = (self.angles - arc.start) % TWO_PI
        return (rel <= arc.length + h / 2.0) | (rel >= TWO_PI - h / 2.0)

    def mask_of(self, target: CircleSet, mode: str = "centers") -> np.ndarray:
        """Boolean mask of cells selected by an arc or family.

        mode="centers": cells whose center lies strictly inside the open
        set (used for localized energies). mode="cover": cells whose
        closed cell intersects the closure of the set (used for capacity
        targets; biases the represented set slightly outward).
        """
        if isinstance(target, ArcFamily):
            if target.full:
                return np.ones(self.n_points, dtype=bool)
            mask = np.zeros(self.n_points, dtype=bool)
            for arc in target.arcs:
                mask |= self.mask_of(arc, mode)
            return mask
        if not isinstance(target, Arc):
            raise PreconditionError(f"unsupported set type {type(target)!r}")
        if mode == "centers":
            return self._arc_center_mask(target)
        if mode == "cover":
            return self._arc_cover_mask(target)
        raise PreconditionError(f"unknown selection mode {mode!r}")

    def indices_of(self, target: CircleSet, mode: str = "centers") -> np.ndarray:
        return np.nonzero(self.mask_of(target, mode))[0]


@dataclass(frozen=True)
class GridSet:
    """A subset of the circle represented by a boolean mask over grid cells.

    The derived measure is count * cell_width.
    """

    grid: CircleGrid
    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (self.grid.n_points,):
            raise PreconditionError(
                f"mask length {mask.shape} does not match grid {self.grid.n_points}"
            )
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def empty(cls, grid: CircleGrid) -> "GridSet":
        return cls(grid, np.zeros(grid.n_points, dtype=bool))

    @classmethod
    def full(cls, grid: CircleGrid) -> "GridSet":
        return cls(grid, np.ones(grid.n_points, dtype=bool))

    @classmethod
    def from_arcs(cls, grid: CircleGrid, target: CircleSet, mode: str = "cover") -> "GridSet":
        return cls(grid, grid.mask_of(target, mode))

    @classmethod
    def from_indices(cls, grid: CircleGrid, indices: Iterable[int]) -> "GridSet":
        mask = np.zeros(grid.n_points, dtype=bool)
        mask[np.asarray(list(indices), dtype=int)] = True
        return cls(grid, mask)

    @property
    def indices(self) -> np.ndarray:
        return np.nonzero(self.mask)[0]

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    @property
    def measure(self) -> float:
        return self.count * self.grid.cell_width

    def is_empty(self) -> bool:
        return not bool(self.mask.any())

    def intersect(self, other: "GridSet") -> "GridSet":
        self._check_same_grid(other)
        return GridSet(self.grid, self.mask & other.mask)

    def union(self, other: "GridSet") -> "GridSet":
        self._check_same_grid(other)
        return GridSet(self.grid, self.mask | other.mask)

    def restrict_to(self, target: CircleSet, mode: str = "centers") -> "GridSet":
        return GridSet(self.grid, self.mask & self.grid.mask_of(target, mode))

    def is_subset_of(self, other: "GridSet") -> bool:
        self._check_same_grid(other)
        return bool(np.all(~self.mask | other.mask))

    def rotated(self, cells: int) -> "GridSet":
        return GridSet(self.grid, np.roll(self.mask, cells))

    def _check_same_grid(self, other: "GridSet"):
        if other.grid.n_points != self.grid.n_points:
            raise PreconditionError("grid sizes differ")

    def cell_intervals(self) -> list[tuple[float, float]]:
        """Merge the mask into maximal runs of consecutive cells and return
        them as (center, half_width) closed intervals, used for distance
        computations. Wrap-around runs are merged across the -pi/pi cut."""
        idx = self.indices
        if idx.size == 0:
            return []
        n = self.grid.n_points
        h = self.grid.cell_width
        runs: list[list[int]] = [[int(idx[0]), int(idx[0])]]
        for j in idx[1:]:
            if j == runs[-1][1] + 1:
                runs[-1][1] = int(j)
            else:
                runs.append([int(j), int(j)])
        if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == n - 1:
            runs[0][0] = runs[-1][0] - n
            runs.pop()
        out = []
        for lo, hi in runs:
            t_lo = -math.pi + TWO_PI * lo / n
            t_hi = -math.pi + TWO_PI * hi / n
            out.append((normalize_angle((t_lo + t_hi) / 2.0), (t_hi - t_lo + h) / 2.0))
        return out
