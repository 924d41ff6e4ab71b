"""Fail unless a benchmark run reports every output correct.

perfbench/run.py exits 0 even when an output check fails. Its verdict
is the last line of its standard output: a JSON object whose "correct"
key must be true. This script reads that output on stdin, echoes the
verdict, and exits 1 unless it is correct.

Usage: python3 perfbench/run.py --workload W ... | python .github/scripts/bench_correct.py W
"""

import json
import sys


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
    print(f"{label}: correct, {verdict.get('attempted')} attempted, {verdict.get('failed')} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
