"""Benchmark entry point.

    python3 perfbench/run.py --workload {gate,capacity_large,small_queries}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. The library is imported from
``src/`` in fresh worker processes (``perfbench/worker.py``) with
``CIRCLE_POTENTIAL_THREADS=1``. One client sends the queries in a
closed loop. With ``--trace 0`` three workers are started one after
another and ``setup_s`` is the median of their start-to-ready times;
the last one runs the timed passes. With ``--trace 1`` one worker runs
untraced and traced passes and the per-layer metrics are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(environment, quartiles, per-query medians, failures, digest) goes to
``.perfbench/<workload>-seed<N>-trace<T>.json``. Outputs are hashed;
a second run of the same code and seed must reproduce the digest kept
in ``.perfbench/digests.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

THREADS = "1"
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 170.0
WORKLOADS = ("gate", "capacity_large", "small_queries")
STATE_DIR = ".perfbench"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def percentile(xs, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 1]) of a nonempty list."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def quartiles(xs) -> dict:
    return {"n": len(xs), "q1": percentile(xs, 0.25), "median": percentile(xs, 0.5),
            "q3": percentile(xs, 0.75)}


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for pattern in ("src/**/*.py", "perfbench/*.py"):
        for p in sorted(root.glob(pattern)):
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD's commit when the checkout is a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Worker:
    """A worker process, killed if it outlives ``deadline``; ``ready_s`` is
    its start-to-READY time."""

    def __init__(self, root: Path, env: dict, argv: list[str], deadline: float):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.worker", *argv],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
        self.timer = threading.Timer(max(0.0, deadline - start), self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - start
        if line.strip() != "READY":
            self.finish()
            raise RuntimeError("worker did not reach READY")

    def finish(self) -> str:
        """Wait for the worker to exit; return the rest of its standard output."""
        out, _ = self.proc.communicate()
        self.timer.cancel()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return out


def check_digest(root: Path, key: str, digest: str) -> bool:
    """Record the digest under ``key``; False if a different one is on file."""
    state = root / STATE_DIR
    state.mkdir(exist_ok=True)
    path = state / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if known.setdefault(key, digest) != digest:
        return False
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        return fail("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "circle_potential" / "__init__.py").is_file():
        return fail("run from the root of a circle-potential checkout (src/circle_potential missing)")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = dict(os.environ, CIRCLE_POTENTIAL_THREADS=THREADS, PYTHONPATH=str(root / "src"))
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    deadline = time.perf_counter() + WORKER_TIMEOUT_S

    setup_samples = []
    try:
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                w = Worker(root, env, worker_argv + ["--mode", "setup"], deadline)
                setup_samples.append(w.ready_s)
                w.finish()
        w = Worker(root, env, worker_argv + ["--mode", "run"], deadline)
        setup_samples.append(w.ready_s)
        lines = w.finish().strip().splitlines()
        res = json.loads(lines[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        return fail(str(exc))

    failed = res["failed"]
    code_hash = source_digest(root)
    if not check_digest(root, f"{code_hash}:{args.workload}:{args.seed}", res["digest"]):
        failed += 1
        res["failures"].append("digest differs from an earlier run of the same code and seed")
    for message in res["failures"]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    lat_ms = [1e3 * t for t in res["latencies_s"]]
    values = res["per_layer"] if args.trace else {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(res["walls"]),
        "query_p50_ms": percentile(lat_ms, 0.5),
        "query_p90_ms": percentile(lat_ms, 0.9),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        return fail(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "threads": THREADS,
        "grids": res["grids"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model(),
        **res["env"],
        "git_commit": git_commit(root),
        "source_digest": code_hash,
        "library": res["library"],
        "output_digest": res["digest"],
        "setup_s": quartiles(setup_samples),
        "import_s": res["import_s"],
        "wall_s": quartiles(res["walls"]),
        "traced_wall_s": quartiles(res["traced_walls"]) if res["traced_walls"] else None,
        "queries_per_pass": res["queries_per_pass"],
        "latency_samples": len(lat_ms),
        "label_median_ms": {k: 1e3 * v for k, v in res["label_latency_s"].items()},
        "peak_rss_mb": res["peak_rss_mb"],
        "attempted": res["attempted"],
        "failed": failed,
        "failures": res["failures"],
        "metrics": metrics,
    }
    out_path = root / STATE_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
