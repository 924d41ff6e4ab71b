"""Fail unless a benchmark run reports every output correct.

perfbench/run.py exits 0 even when an output check fails. Its verdict
is the last line of its standard output: a JSON object whose "correct"
key must be true. This script reads that output on stdin, echoes the
verdict, and exits 1 unless it is correct.

A traced run (--trace 1) must also account for its pass time. It passes
when "trace.coverage", the share of the traced pass time that the
per-layer self times explain, is at least MIN_COVERAGE, or when the time
left uncovered is at most MAX_UNCOVERED_US per query:

    (1 - trace.coverage) * trace.wall_s / queries_per_pass

with queries_per_pass read from the run's record, the
.perfbench/<workload>-seed<N>-trace1.json file that run.py writes. The
uncovered time is mostly the harness's own per-query work, which stays
constant while the library's spans shrink, so a faster library lowers
the coverage ratio with nothing wrong; the per-query bound does not
drift that way.

Usage: python3 perfbench/run.py --workload W ... | python .github/scripts/bench_correct.py W [RECORD]
"""

import json
import sys

MIN_COVERAGE = 0.99
MAX_UNCOVERED_US = 10.0


def uncovered_us(metrics: dict, coverage: float, record_path: str | None) -> float | None:
    """Uncovered time per query in microseconds; None without a record."""
    if record_path is None:
        return None
    with open(record_path) as fh:
        per_pass = json.load(fh)["queries_per_pass"]
    wall = metrics["trace.wall_s"]["value"]
    return 1e6 * (1.0 - coverage) * wall / per_pass


def main(argv):
    label = argv[1] if len(argv) > 1 else "benchmark"
    record_path = argv[2] if len(argv) > 2 else None
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    try:
        verdict = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{label}: no JSON verdict on the last line of output", file=sys.stderr)
        return 1
    if not isinstance(verdict, dict) or verdict.get("correct") is not True:
        print(f"{label}: not correct: {lines[-1]}", file=sys.stderr)
        return 1
    metrics = verdict.get("metrics", {})
    coverage = metrics.get("trace.coverage", {}).get("value")
    note = ""
    if coverage is not None:
        try:
            per_query = uncovered_us(metrics, coverage, record_path)
        except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
            print(f"{label}: cannot read the uncovered time per query: {exc!r}", file=sys.stderr)
            return 1
        note = f", trace.coverage {coverage:.5f}"
        if per_query is not None:
            note += f", {per_query:.2f} us uncovered per query"
        if not (coverage >= MIN_COVERAGE
                or (per_query is not None and per_query <= MAX_UNCOVERED_US)):
            print(f"{label}: trace.coverage {coverage} is below {MIN_COVERAGE} and the "
                  f"uncovered time per query is {per_query} us, over {MAX_UNCOVERED_US} us "
                  f"(or unknown without the run's record)", file=sys.stderr)
            return 1
    print(f"{label}: correct, {verdict.get('attempted')} attempted, {verdict.get('failed')} failed{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
