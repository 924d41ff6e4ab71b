"""Fail unless a benchmark run reports every output correct.

perfbench/run.py exits 0 even when an output check fails. Its verdict
is the last line of its standard output: a JSON object whose "correct"
key must be true. This script reads that output on stdin, echoes the
verdict, and exits 1 unless it is correct. A traced run (--trace 1)
must also report a "trace.coverage" of at least MIN_COVERAGE: the
share of the traced pass time that the per-layer self times explain.

Usage: python3 perfbench/run.py --workload W ... | python .github/scripts/bench_correct.py W
"""

import json
import sys

MIN_COVERAGE = 0.99


def main(argv):
    label = argv[1] if len(argv) > 1 else "benchmark"
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    try:
        verdict = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{label}: no JSON verdict on the last line of output", file=sys.stderr)
        return 1
    if not isinstance(verdict, dict) or verdict.get("correct") is not True:
        print(f"{label}: not correct: {lines[-1]}", file=sys.stderr)
        return 1
    coverage = verdict.get("metrics", {}).get("trace.coverage", {}).get("value")
    if coverage is not None and not coverage >= MIN_COVERAGE:
        print(f"{label}: trace.coverage {coverage} is below {MIN_COVERAGE}", file=sys.stderr)
        return 1
    note = "" if coverage is None else f", trace.coverage {coverage:.5f}"
    print(f"{label}: correct, {verdict.get('attempted')} attempted, {verdict.get('failed')} failed{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
