"""Run the command-line examples of README.md under one and two threads,
so none goes stale and none depends on the thread count.

Every ``circle-potential`` command in the README's ``sh`` blocks runs
twice: with CIRCLE_POTENTIAL_THREADS=1 in OUT_DIR/threads-1 and with
CIRCLE_POTENTIAL_THREADS=2 in OUT_DIR/threads-2, its working directory,
so ``--out`` files land there. Inherited OMP_, OPENBLAS_, MKL_,
NUMEXPR_ and VECLIB_ variables are removed from the command's
environment, since the package caps each pool only where its variable
is unset. Continued lines are joined. A ``...`` stands for the
arguments of the previous example of the same subcommand. A ``json``
block introduced by a line naming a ``.json`` file is written to both
directories under that name first, and the configuration example (the
block with a "solver" key) is run through ``capacity --config``.
Commands that read a file the README does not give are skipped and
listed.

Each command must exit 0, or with the code its trailing comment names
("exit 1"), under both settings, and its stdout and every ``--out`` file
must be the same bytes under both. The script stops at the first
example that does not, naming it (and the file that differs) on
stderr, and exits 1.

Usage: python .github/scripts/readme_examples.py OUT_DIR
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[2] / "README.md"
CLI = [sys.executable, "-m", "circle_potential.cli"]
BLOCK = re.compile(r"^((?:[^\n]*\n){0,2})```(sh|json)\n(.*?)^```", re.MULTILINE | re.DOTALL)
THREADS = (1, 2)
THREAD_VARS = ("OMP_", "OPENBLAS_", "MKL_", "NUMEXPR_", "VECLIB_")


def examples(text):
    """The named JSON blocks as {file name: text}, and (argv, expected
    exit code) for each example in order."""
    files, found, last = {}, [], {}
    for intro, kind, body in BLOCK.findall(text):
        if kind == "json":
            named = re.findall(r"`([\w.-]+\.json)`", intro)
            if named:
                files[named[-1]] = body
            if '"solver"' in body:
                files["config.json"] = body
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
    return files, found


def inputs_missing(args, files):
    return [a for i, a in enumerate(args)
            if re.search(r"\.(csv|json)$", a) and args[i - 1] != "--out" and a not in files]


def run(args, cwd, threads):
    env = {k: v for k, v in os.environ.items() if not k.startswith(THREAD_VARS)}
    env["CIRCLE_POTENTIAL_THREADS"] = str(threads)
    return subprocess.run(CLI + args, cwd=cwd, env=env, capture_output=True)


def problem(args, expected, dirs):
    """What is wrong with one example run once in each of ``dirs``, or
    None when it exits as documented and gives the same bytes."""
    procs = [run(args, d, t) for d, t in zip(dirs, THREADS)]
    for t, proc in zip(THREADS, procs):
        if proc.returncode != expected:
            return (f"exit {proc.returncode} under {t} thread(s), expected {expected}; "
                    f"stderr:\n{proc.stderr.decode(errors='replace')}")
    if procs[0].stdout != procs[1].stdout:
        return "stdout differs between 1 and 2 threads"
    for i in range(len(args) - 1):
        if args[i] == "--out" and len({(d / args[i + 1]).read_bytes() for d in dirs}) > 1:
            return f"{args[i + 1]} differs between 1 and 2 threads"
    return None


def main(out_dir):
    files, found = examples(README.read_text())
    dirs = [Path(out_dir) / f"threads-{t}" for t in THREADS]
    for d in dirs:
        d.mkdir(parents=True, exist_ok=True)
        for name, body in files.items():
            (d / name).write_text(body)
    ran = 0
    for args, expected in found:
        missing = inputs_missing(args, files)
        if missing:
            print(f"skipped (needs {', '.join(missing)}): {shlex.join(args)}")
            continue
        wrong = problem(args, expected, dirs)
        if wrong:
            print(f"circle-potential {shlex.join(args)}: {wrong}", file=sys.stderr)
            return 1
        print(f"exit {expected}, same bytes under 1 and 2 threads: {shlex.join(args)}")
        ran += 1
    print(f"{ran} examples ran as documented")
    return 0 if ran else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
