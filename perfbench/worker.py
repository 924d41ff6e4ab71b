"""One benchmark worker process: set up, run timed passes, report.

Started by ``run.py`` as ``python -m perfbench.worker`` with
``CIRCLE_POTENTIAL_THREADS`` and ``PYTHONPATH`` set. The library is the
first thing imported, so its thread cap precedes numpy. The worker then
builds the workload's inputs and the tables the passes use and prints
``READY``. In ``setup`` mode it exits there; in ``run`` mode it runs
passes over the query list for ``--seconds`` and prints one JSON line
with its measurements. With ``--trace 1`` untraced and traced passes
alternate, so the tracing overhead is measured in the same process.
"""

import argparse
import json
import resource
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    import circle_potential as cp

    import_s = time.perf_counter() - start
    from . import trace
    from .layers import COUNTERS, layer_metrics
    from .runner import Runner, environment, label_medians
    from .workloads import WORKLOADS

    caches = trace.cached_functions(trace.package_modules())
    tracer = trace.Tracer(COUNTERS) if args.trace else None
    if tracer:
        tracer.install()
    workload = WORKLOADS[args.workload](cp, args.seed)
    workload.warm()
    if tracer:
        tracer.uninstall()
    setup_spans = (0, len(tracer.spans)) if tracer else (0, 0)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    runner = Runner(workload, caches, tracer)
    runner.run(args.seconds, (False, True) if tracer else (False,))

    result = {
        "import_s": import_s,
        "library": cp.__file__,
        "grids": list(workload.grids),
        "queries_per_pass": len(workload.queries),
        "walls": runner.walls[False],
        "traced_walls": runner.walls[True],
        "latencies_s": runner.latencies,
        "label_latency_s": label_medians(workload, runner.latencies),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "digest": runner.digest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer:
        result["per_layer"] = layer_metrics(
            tracer, setup_spans, runner.traced_ranges, import_s,
            runner.walls[True], runner.walls[False],
        )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
