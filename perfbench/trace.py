"""Timing spans around the library's public functions.

``Tracer.install`` replaces every public function of the package's
modules with a timing wrapper, in every module namespace that holds it
(so ``acceptance.dirichlet_energy_global`` and
``energy.dirichlet_energy_global`` are the same wrapper) and inside
module-level tuples such as ``acceptance.CRITERIA``. Selected methods
of ``GridSet`` and ``CircleGrid`` and the private ``lru_cache`` table
functions are wrapped too. Spans nest: each records its name, start,
end, parent span and the exception type it raised, if any. Spans stay
in memory until the run ends. ``uninstall`` puts the originals back.

Scalar helpers called per angle (``normalize_angle`` and friends) are
not wrapped; their time counts in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = ("circle", "energy", "capacity", "extension", "poincare", "uniqueness", "acceptance")
SCALAR_HELPERS = frozenset(
    {"normalize_angle", "angles_close", "chord_distance", "kernel_k", "arc_contains"}
)
CLASS_METHODS = {
    ("circle", "GridSet"): (
        "full", "empty", "from_arcs", "from_indices", "restrict_to",
        "intersect", "union", "rotated",
    ),
    ("circle", "CircleGrid"): ("mask_of", "indices_of"),
}


def package_modules():
    return [importlib.import_module(f"circle_potential.{m}") for m in MODULES]


def cached_functions(modules) -> dict:
    """The package's lru-cached functions by span name. The private ones
    are the kernel and autocorrelation table functions."""
    return {
        f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}": obj
        for mod in modules
        for attr, obj in vars(mod).items()
        if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__
    }


def _public_function(mod, attr, obj) -> bool:
    return (
        callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == mod.__name__
        and not attr.startswith("_")
        and attr not in SCALAR_HELPERS
    )


class Tracer:
    """``counters`` maps a span name to ``fn(args, kwargs, result)``, whose
    small return value is kept with the span index in ``records`` (the
    arguments and results themselves are not kept)."""

    def __init__(self, counters: dict | None = None):
        # (name, start, end, parent index or -1, exception type or None)
        self.spans: list = []
        self.counters = counters or {}
        self.records: list = []
        self.table_names: set[str] = set()
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, records = self.spans, self._stack, self.records
        clock = time.perf_counter
        counter = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (name, start, clock(), parent, type(exc).__name__)
                raise
            finally:
                stack.pop()
            spans[idx] = (name, start, clock(), parent, None)
            if counter is not None:
                records.append((idx, counter(args, kwargs, result)))
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        package = importlib.import_module("circle_potential")
        modules = package_modules()
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if _public_function(mod, attr, obj):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for name, obj in cached_functions(modules).items():
            if name.split(".")[-1].startswith("_"):
                wrappers[id(obj)] = self._wrap(name, obj)
                self.table_names.add(name)
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, tuple) and any(id(x) in wrappers for x in obj):
                    self._patch(mod, attr, tuple(wrappers.get(id(x), x) for x in obj))
        for (modname, clsname), methods in CLASS_METHODS.items():
            cls = getattr(importlib.import_module(f"circle_potential.{modname}"), clsname)
            for meth in methods:
                raw = cls.__dict__[meth]
                name = f"{modname}.{clsname}.{meth}"
                if isinstance(raw, classmethod):
                    self._patch(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(cls, meth, self._wrap(name, raw))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [end - start for (_, start, end, _, _) in spans]
    for (_, start, end, parent, _) in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def outermost(spans, members) -> list[int]:
    """Indices of spans in ``members`` with no ancestor in ``members``."""
    out = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name not in members:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in members:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out
