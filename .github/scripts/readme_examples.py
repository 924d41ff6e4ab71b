"""Run the command-line examples of README.md, so none goes stale.

Every ``circle-potential`` command in the README's ``sh`` blocks runs
with OUT_DIR as its working directory, so ``--out`` files land there.
Continued lines are joined. A ``...`` stands for the arguments of the
previous example of the same subcommand. A ``json`` block introduced by
a line naming a ``.json`` file is written to OUT_DIR under that name
first, and the configuration example (the block with a "solver" key) is
run through ``capacity --config``. Commands that read a file the README
does not give are skipped and listed.

Each command must exit 0, or with the code its trailing comment names
("exit 1"). The script stops at the first that does not, with that
command's stderr, and exits 1.

Usage: python .github/scripts/readme_examples.py OUT_DIR
"""

import re
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[2] / "README.md"
CLI = [sys.executable, "-m", "circle_potential.cli"]
BLOCK = re.compile(r"^((?:[^\n]*\n){0,2})```(sh|json)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def examples(text, out_dir):
    """(argv, expected exit code) for each example, after writing the
    named JSON blocks into out_dir."""
    found, last = [], {}
    for intro, kind, body in BLOCK.findall(text):
        if kind == "json":
            named = re.findall(r"`([\w.-]+\.json)`", intro)
            if named:
                (out_dir / named[-1]).write_text(body)
            if '"solver"' in body:
                (out_dir / "config.json").write_text(body)
                found.append((["capacity", "--config", "config.json", "--method", "classical",
                               "--alpha", "0.5", "--set", "half"], 0))
            continue
        for line in body.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if not words or words[0] != "circle-potential":
                continue
            args = words[1:]
            if "..." in args:
                at = args.index("...")
                args[at:at + 1] = last[args[0]]
            last[args[0]] = args[1:]
            code = re.search(r"#.*\bexit (\d+)", line)
            found.append((args, int(code.group(1)) if code else 0))
    return found


def inputs_missing(args, out_dir):
    return [a for i, a in enumerate(args)
            if re.search(r"\.(csv|json)$", a) and args[i - 1] != "--out"
            and not (out_dir / a).exists()]


def main(out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ran = 0
    for args, expected in examples(README.read_text(), out_dir):
        missing = inputs_missing(args, out_dir)
        if missing:
            print(f"skipped (needs {', '.join(missing)}): {shlex.join(args)}")
            continue
        proc = subprocess.run(CLI + args, cwd=out_dir, capture_output=True, text=True)
        print(f"exit {proc.returncode}: {shlex.join(args)}")
        if proc.returncode != expected:
            print(f"expected exit {expected}; stderr:\n{proc.stderr}", file=sys.stderr)
            return 1
        ran += 1
    print(f"{ran} examples ran as documented")
    return 0 if ran else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
