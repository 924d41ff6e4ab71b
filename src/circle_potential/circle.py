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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from .errors import PreconditionError, ResolutionError

TWO_PI = 2.0 * math.pi

#: Absolute tolerance for angle equality tests.
ANGLE_TOL = 1e-12

#: Fewest center-mode cells an arc needs before energies on it are computed.
RESOLUTION_CELLS = 8

#: Fewest arcs of a family whose runs ``CircleGrid.mask_of`` finds all at
#: once: an array pass costs about 0.1 ms, a loop about 8 us per arc.
_RUNS_AT_ONCE = 16


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
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise PreconditionError(f"arc endpoints must be finite, got {self.start}, {self.end}")
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
        if not 0.0 < length < TWO_PI:
            raise PreconditionError(f"arc length must be in (0, 2*pi), got {length}")
        half = float(length) / 2.0
        return cls(midpoint - half, midpoint + half)


def _normalized_angles(x: np.ndarray) -> np.ndarray:
    """``normalize_angle`` over an array, bit for bit: values already in
    [-pi, pi) are kept and only the others go through the scalar rule."""
    out = np.array(x, dtype=float)
    far = np.flatnonzero(~((out >= -math.pi) & (out < math.pi)))
    out[far] = [normalize_angle(v) for v in out[far].tolist()]
    return out


def _ccw_gaps(d: np.ndarray) -> np.ndarray:
    """``np.remainder(d, TWO_PI)``, in place, for differences d of two
    angles in [-pi, pi): such a d lies in [-2pi, 2pi] (2pi itself only by
    rounding), so one shift gives np.remainder's floats at a fraction of
    its cost. Only a zero may keep its sign, which no caller can tell: a
    zero length is refused, and a zero gap compares alike either way."""
    d[d >= TWO_PI] = 0.0
    d[d < 0.0] += TWO_PI
    return d


def _arc_arrays(starts, ends) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, ends, lengths) of the arcs (starts[i], ends[i]), checked
    and normalized as Arc checks and normalizes each one; lengths are the
    floats of ``Arc.length``."""
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    if starts.ndim != 1 or starts.shape != ends.shape:
        raise PreconditionError("arc endpoints must be two 1-d arrays of one length")
    bad = np.flatnonzero(~(np.isfinite(starts) & np.isfinite(ends)))
    if bad.size:
        i = bad[0]
        raise PreconditionError(
            f"arc endpoints must be finite, got {float(starts[i])}, {float(ends[i])}"
        )
    starts, ends = _normalized_angles(starts), _normalized_angles(ends)
    lengths = _ccw_gaps(ends - starts)
    bad = np.flatnonzero(lengths <= 0.0)
    if bad.size:
        i = bad[0]
        raise PreconditionError(
            "arc must have positive length strictly below 2*pi "
            f"(got start={float(starts[i])}, end={float(ends[i])})"
        )
    return starts, ends, lengths


@dataclass(frozen=True, init=False, eq=False)
class ArcFamily:
    """An ordered collection of arcs, optionally validated as disjoint.

    The arcs are held as read-only float arrays: ``starts`` and ``ends``,
    normalized as Arc normalizes them, and ``lengths``, the same floats
    as ``Arc.length``. ``arcs`` and iteration build the Arc objects only
    when they are asked for. The full circle is represented by the module
    constant ``FULL_CIRCLE`` (the ``full`` flag set, no arcs); ordinary
    families never contain it.
    """

    starts: np.ndarray
    ends: np.ndarray
    lengths: np.ndarray
    pairwise_disjoint: bool
    full: bool

    def __init__(self, arcs: Iterable[Arc] = (), pairwise_disjoint: bool = False,
                 full: bool = False):
        arcs = tuple(arcs)
        if full and arcs:
            raise PreconditionError("full-circle family carries no explicit arcs")
        self._set_arrays([a.start for a in arcs], [a.end for a in arcs], pairwise_disjoint, full)
        self.__dict__["arcs"] = arcs  # the cached_property's slot: no second copy

    @classmethod
    def from_endpoints(cls, starts, ends) -> "ArcFamily":
        """The family of arcs (starts[i], ends[i]), checked and normalized
        as Arc checks each one, without building Arc objects."""
        fam = cls.__new__(cls)
        fam._set_arrays(starts, ends, False, False)
        return fam

    def _set_arrays(self, starts, ends, pairwise_disjoint: bool, full: bool):
        starts, ends, lengths = _arc_arrays(starts, ends)
        for value in (starts, ends, lengths):
            value.setflags(write=False)
        self.__dict__.update(starts=starts, ends=ends, lengths=lengths,
                             pairwise_disjoint=bool(pairwise_disjoint), full=bool(full))
        if self.pairwise_disjoint and not self.full:
            self.require_disjoint()
        total = self.total_length
        if total > TWO_PI + 1e-9:
            raise PreconditionError(
                f"total arc length {total} exceeds the circumference"
            )

    def require_disjoint(self):
        """Raise PreconditionError unless the open arcs are pairwise
        disjoint (a shared endpoint, equal within ANGLE_TOL, is not an
        overlap): sorted by start, each arc must end no later than the
        next one starts."""
        n = len(self)
        if n < 2:
            return
        order = np.argsort(self.starts, kind="stable")
        s = self.starts[order]
        gaps = _ccw_gaps(np.append(s[1:], s[0]) - s)
        overlap = np.flatnonzero(~_clear(gaps, self.lengths[order]))
        if overlap.size:
            pos = int(overlap[0])
            raise PreconditionError(f"arcs {order[pos]} and {order[(pos + 1) % n]} overlap")

    def by_decreasing_length(self) -> np.ndarray:
        """Arc indices by decreasing length, ties by increasing start;
        stable, as a sort on the key (-length, start) is."""
        return np.lexsort((self.starts, -self.lengths))

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(map(Arc, self.starts.tolist(), self.ends.tolist()))

    @property
    def total_length(self) -> float:
        if self.full:
            return TWO_PI
        # cumsum adds left to right (np.sum would add pairwise), so the
        # total does not depend on the Python or NumPy version
        return float(np.cumsum(self.lengths)[-1]) if len(self) else 0.0

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self):
        return iter(self.arcs)

    def __eq__(self, other):
        if not isinstance(other, ArcFamily):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        return self.arcs, self.pairwise_disjoint, self.full

    def to_json(self) -> dict:
        if self.full:
            return {"arcs": [], "disjoint": True, "full": True}
        return {
            "arcs": [{"start": a, "end": b}
                     for a, b in zip(self.starts.tolist(), self.ends.tolist())],
            "disjoint": self.pairwise_disjoint,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ArcFamily":
        if obj.get("full"):
            return FULL_CIRCLE
        arcs = tuple(Arc.from_json(a) for a in obj["arcs"])
        return cls(arcs, pairwise_disjoint=bool(obj.get("disjoint", False)))


#: The full circle, distinct from any Arc.
FULL_CIRCLE = ArcFamily(pairwise_disjoint=True, full=True)

#: Targets accepted by grid selection helpers.
CircleSet = Union[Arc, ArcFamily]


def _clear(gaps: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The one disjointness rule for open arcs: an arc of each length ends
    by the start of the arc ``gaps`` ahead of it counterclockwise, or
    within ANGLE_TOL past it (a shared endpoint is not an overlap)."""
    return gaps >= lengths - ANGLE_TOL


def vitali_disjoint_subfamily(fam: ArcFamily) -> ArcFamily:
    """Greedy Vitali selection: a pairwise-disjoint subfamily whose
    3-fold dilations cover every arc of the input.

    Arcs are scanned by decreasing length (ties broken by smaller start
    angle) and kept when disjoint from everything already kept, by the
    rule ``ArcFamily.require_disjoint`` applies, so a family accepted as
    pairwise disjoint comes back whole. The classical covering property
    then holds: any discarded arc meets a kept arc at least as long, so
    it lies inside that arc's 3-dilation. Empty input yields the empty
    family.
    """
    if fam.full:
        return fam
    starts, lengths = fam.starts, fam.lengths
    kept: list[int] = []
    for i in fam.by_decreasing_length().tolist():
        s, k = starts[i], np.array(kept, dtype=int)
        if (np.all(_clear(_ccw_gaps(starts[k] - s), lengths[i]))
                and np.all(_clear(_ccw_gaps(s - starts[k]), lengths[k]))):
            kept.append(i)
    kept.sort(key=starts.__getitem__)
    return ArcFamily(map(fam.arcs.__getitem__, kept), pairwise_disjoint=True)


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

    def mask_of(self, target: CircleSet, mode: str = "centers") -> np.ndarray:
        """Boolean mask of cells selected by an arc or family.

        mode="centers": cells whose center lies strictly inside the open
        set (used for localized energies). mode="cover": cells whose
        closed cell intersects the closure of the set (used for capacity
        targets; biases the represented set slightly outward).

        The cells one arc selects form a cyclic run. The run is found in
        O(1) from the arc's endpoints and its two ends are settled by the
        same float test a scan of every cell center would make; a family's
        runs are found all at once by array arithmetic (``_runs``) when it
        has ``_RUNS_AT_ONCE`` arcs or more. So a mask costs
        O(N + arcs + selected cells), not O(arcs * N).
        """
        self._check_target(target, mode)
        n = self.n_points
        if isinstance(target, Arc):
            runs = [self._run(target.start, target.length, mode)]
        elif target.full:
            return np.ones(n, dtype=bool)
        elif len(target) < _RUNS_AT_ONCE:
            runs = map(self._run, target.starts.tolist(), target.lengths.tolist(),
                       [mode] * len(target))
        else:
            mask = np.zeros(n, dtype=bool)
            mask[_run_cells(*self._runs(target.starts, target.lengths, mode)) % n] = True
            return mask
        mask = np.zeros(n, dtype=bool)
        for first, count in runs:
            mask[first:first + count] = True
            mask[:max(first + count - n, 0)] = True
        return mask

    def indices_of(self, target: CircleSet, mode: str = "centers") -> np.ndarray:
        self._check_target(target, mode)
        if isinstance(target, ArcFamily):
            if target.full:
                return np.arange(self.n_points)
            return np.flatnonzero(self.mask_of(target, mode))
        return np.concatenate([np.arange(a, a + c) for a, c in self._arc_runs(target, mode)])

    @staticmethod
    def _check_target(target: CircleSet, mode: str) -> None:
        if not isinstance(target, (Arc, ArcFamily)):
            raise PreconditionError(f"unsupported set type {type(target)!r}")
        if mode not in ("centers", "cover"):
            raise PreconditionError(f"unknown selection mode {mode!r}")

    def _run(self, start: float, length: float, mode: str) -> tuple[int, int]:
        """The cells one arc selects, as a cyclic run (first, count).

        The selection is the one a scan of every cell center makes with
        rel = angle - start (+ 2pi if negative): 0 < rel < length for
        centers, rel <= length + h/2 or rel >= 2pi - h/2 for cover. From
        j0, the first center at or after ``start``, rel grows with each
        step counterclockwise, so each test selects a prefix or a suffix
        of that cyclic order. Each end is estimated from the cell width
        and settled by the scan's own float test.
        """
        n = self.n_points
        h = self.cell_width

        def angle(j):  # the float of self.angles[j]
            return -math.pi + TWO_PI * j / n

        def rel(i):  # the scan's offset of the i-th cell from j0
            j = j0 + i
            r = angle(j - n if j >= n else j) - start
            return r + TWO_PI if r < 0.0 else r

        def prefix(inside, guess):  # the count of leading cells with inside(rel)
            i = min(max(guess, 0), n)
            while i > 0 and not inside(rel(i - 1)):
                i -= 1
            while i < n and inside(rel(i)):
                i += 1
            return i

        j0 = min(max(math.ceil((start + math.pi) / h), 0), n)
        while j0 > 0 and angle(j0 - 1) >= start:
            j0 -= 1
        while j0 < n and angle(j0) < start:
            j0 += 1
        j0 %= n
        r0 = rel(0)
        if mode == "centers":
            skip = 0 if r0 > 0.0 else 1  # a center on ``start`` is not inside
            stop = prefix(lambda r: r < length, math.ceil((length - r0) / h))
            return (j0 + skip) % n, max(stop - skip, 0)
        half = h / 2.0
        top, bottom = length + half, TWO_PI - half
        stop = prefix(lambda r: r <= top, math.floor((top - r0) / h) + 1)
        tail = prefix(lambda r: r < bottom, math.ceil((bottom - r0) / h))
        if stop >= tail:  # the prefix and the suffix cover every cell
            return 0, n
        return (j0 + tail) % n, n - tail + stop

    def _runs(self, starts: np.ndarray, lengths: np.ndarray, mode: str):
        """``_run`` of every arc (starts[a], lengths[a]) at once: arrays
        (first, count). j0 comes from a search of the cell centers, which
        makes the same float test; then each end is estimated for all
        arcs together and settled by the same float test, repeated while
        any end still moves (each end moves one way and is bounded by 0
        and N, so this stops)."""
        n = self.n_points
        h = self.cell_width

        def angle(j):  # the floats of self.angles[j]
            return -math.pi + TWO_PI * j / n

        j0 = np.searchsorted(self.angles, starts) % n  # the first center at or after start

        def rel(i):  # the scan's offset of the i-th cell from j0
            j = j0 + i
            r = angle(np.where(j >= n, j - n, j)) - starts
            return np.where(r < 0.0, r + TWO_PI, r)

        def prefix(inside, guess):  # the count of leading cells with inside(rel)
            i = np.clip(guess, 0, n).astype(np.int64)
            while (back := (i > 0) & ~inside(rel(np.maximum(i - 1, 0)))).any():
                i -= back
            while (ahead := (i < n) & inside(rel(np.minimum(i, n - 1)))).any():
                i += ahead
            return i

        r0 = rel(0)
        if mode == "centers":
            skip = (r0 <= 0.0).astype(np.int64)  # a center on ``start`` is not inside
            stop = prefix(lambda r: r < lengths, np.ceil((lengths - r0) / h))
            return (j0 + skip) % n, np.maximum(stop - skip, 0)
        half = h / 2.0
        top, bottom = lengths + half, TWO_PI - half
        stop = prefix(lambda r: r <= top, np.floor((top - r0) / h) + 1)
        tail = prefix(lambda r: r < bottom, np.ceil((bottom - r0) / h))
        whole = stop >= tail  # the prefix and the suffix cover every cell
        return np.where(whole, 0, (j0 + tail) % n), np.where(whole, n, n - tail + stop)

    def resolved_cells(self, target: CircleSet, what: str) -> np.ndarray:
        """Center-mode indices of ``target``; fewer than RESOLUTION_CELLS
        of them raise ResolutionError naming the set as ``what``."""
        idx = self.indices_of(target)
        _check_resolved(len(idx), what)
        return idx

    def resolved_runs(self, target: CircleSet, what: str) -> list[tuple[int, int]]:
        """The cells of ``resolved_cells`` as sorted runs (``_cell_runs``);
        for an arc they cost O(1), with no index array."""
        if not isinstance(target, Arc):
            return _cell_runs(self.resolved_cells(target, what))
        runs = self._arc_runs(target, "centers")
        _check_resolved(sum(count for _, count in runs), what)
        return runs

    def _arc_runs(self, arc: Arc, mode: str) -> list[tuple[int, int]]:
        """An arc's cyclic run from ``_run``, split at cell 0: one or two
        sorted runs (first, count) with first + count <= N."""
        first, count = self._run(arc.start, arc.length, mode)
        over = first + count - self.n_points
        return [(first, count)] if over <= 0 else [(0, over), (first, count - over)]


def _check_resolved(count: int, what: str) -> None:
    if count < RESOLUTION_CELLS:
        raise ResolutionError(
            f"{what} is resolved by only {count} cells (need >= {RESOLUTION_CELLS})"
        )


def _run_cells(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The cells of runs (first, count) in turn, run r's first cell then
    steps of one, not yet reduced modulo N."""
    return np.repeat(first - (np.cumsum(count) - count), count) + np.arange(count.sum())


def _cell_runs(cells: np.ndarray) -> list[tuple[int, int]]:
    """Sorted distinct cells as their maximal runs (first, count), in
    order; no run passes cell N - 1, so a set across -pi has two. One
    run is found in O(1)."""
    if len(cells) and cells[-1] - cells[0] == len(cells) - 1:
        return [(int(cells[0]), len(cells))]
    breaks = np.flatnonzero(np.diff(cells) != 1) + 1
    firsts = cells[np.concatenate(([0], breaks))]
    counts = np.diff(np.concatenate(([0], breaks, [len(cells)])))
    return list(zip(firsts.tolist(), counts.tolist()))


def _merge_runs(runs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The union of runs (first, count) with first + count <= N, as
    sorted disjoint runs, runs that touch joined."""
    out: list[tuple[int, int]] = []
    for first, count in sorted(runs):
        if out and first <= out[-1][0] + out[-1][1]:
            top, size = out[-1]
            out[-1] = (top, max(size, first + count - top))
        else:
            out.append((first, count))
    return out


@dataclass(frozen=True, eq=False)
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
        n = grid.n_points
        idx = indices if isinstance(indices, np.ndarray) else np.asarray(list(indices))
        if idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= n):
            raise PreconditionError(f"cell indices must be integers in [0, {n})")
        mask = np.zeros(n, dtype=bool)
        mask[idx.astype(int)] = True
        return cls(grid, mask)

    @cached_property
    def indices(self) -> np.ndarray:
        """The sorted cells of the set, found once and read-only."""
        idx = np.flatnonzero(self.mask)
        idx.setflags(write=False)
        return idx

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
