"""Timed passes over a workload's query list, with output checks.

Each query is timed on its own; its independent check runs after the
timer stops, on the first pass only. Later passes must reproduce the
first pass's outputs byte for byte (compared by digest).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import statistics
import sys
import time

import numpy as np
import scipy

from . import oracle

MAX_FAILURE_MESSAGES = 10


def digest_into(h, obj):
    """Feed a canonical byte form of a query output into ``h``."""
    if isinstance(obj, float):
        h.update(b"f" + obj.hex().encode())
    elif obj is None or isinstance(obj, (bool, int, str, complex)):
        h.update(repr(obj).encode())
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        digest_into(h, obj.item())
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            digest_into(h, key)
            digest_into(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for x in obj:
            digest_into(h, x)
        h.update(b"]")
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        digest_into(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def output_digest(obj) -> str:
    h = hashlib.sha256()
    digest_into(h, obj)
    return h.hexdigest()


class Runner:
    def __init__(self, workload, caches, tracer):
        self.workload = workload
        self.caches = caches
        self.tracer = tracer
        self.reference: list = []  # (digest, failure message or None) per query
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.latencies: list[float] = []
        self.walls = {False: [], True: []}
        self.traced_ranges: list[tuple[int, int]] = []

    def fail(self, label: str, message: str):
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(f"{label}: {message}")

    def run_pass(self, traced: bool):
        if self.workload.cold_caches:
            for fn in self.caches.values():
                fn.cache_clear()
        if traced:
            first = len(self.tracer.spans)
            self.tracer.install()
        outputs, times = [], []
        clock = time.perf_counter
        for q in self.workload.queries:
            start = clock()
            try:
                out, err = q.call(), None
            except Exception as exc:  # a raising query is a failed query
                out, err = None, f"{type(exc).__name__}: {exc}"
            times.append(clock() - start)
            outputs.append((out, err))
        if traced:
            self.tracer.uninstall()
            self.traced_ranges.append((first, len(self.tracer.spans)))
        else:
            self.latencies.extend(times)
        self.walls[traced].append(sum(times))
        self.verify(outputs)

    def verify(self, outputs):
        first = not self.reference
        for i, (q, (out, err)) in enumerate(zip(self.workload.queries, outputs)):
            self.attempted += 1
            if err is not None:
                self.fail(q.label, err)
                if first:
                    self.reference.append((None, err))
                continue
            digest = output_digest(out)
            if first:
                problem = None
                try:
                    q.check(out)
                except oracle.CheckFailed as exc:
                    problem = f"check failed: {exc}"
                except Exception as exc:  # the check itself broke on this output
                    problem = f"check raised {type(exc).__name__}: {exc}"
                self.reference.append((digest, problem))
            ref_digest, problem = self.reference[i]
            if digest != ref_digest:
                self.fail(q.label, "output differs from the first pass")
            elif problem is not None:
                self.fail(q.label, problem)

    def run(self, seconds: float, modes: tuple[bool, ...]):
        """Run passes, cycling through ``modes`` (traced or not), while
        another pass fits in ``seconds``; every mode runs at least once."""
        start = time.perf_counter()
        done = 0
        while True:
            self.run_pass(modes[done % len(modes)])
            done += 1
            pass_s = statistics.median(self.walls[False] + self.walls[True])
            if done >= len(modes) and time.perf_counter() - start + pass_s > seconds:
                return

    def digest(self) -> str:
        h = hashlib.sha256()
        for d, _ in self.reference:
            h.update(str(d).encode())
        return h.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "thread_env": {v: os.environ.get(v) for v in ("CIRCLE_POTENTIAL_THREADS",
                                                      "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def label_medians(workload, latencies) -> dict:
    by_label: dict[str, list[float]] = {}
    per_pass = len(workload.queries)
    for i, t in enumerate(latencies):
        by_label.setdefault(workload.queries[i % per_pass].label, []).append(t)
    return {k: statistics.median(v) for k, v in sorted(by_label.items())}
