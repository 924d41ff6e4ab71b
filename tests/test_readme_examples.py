"""README's command-line examples are CI's one list of command-line
checks (``.github/scripts/readme_examples.py`` runs each under one and
two threads and compares the bytes). These tests keep the list from
losing what it covers, and check that the comparison fails."""

import argparse
import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

from circle_potential import CircleGrid, cli
from circle_potential.acceptance import REFERENCE_GRID
from circle_potential.capacity import _BLOCK_CELLS, _CG_CELLS
from circle_potential.circle import _cell_runs

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location(
        "readme_examples", ROOT / ".github" / "scripts" / "readme_examples.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def runnable(script):
    files, found = script.examples((ROOT / "README.md").read_text())
    return [args for args, _ in found if not script.inputs_missing(args, files)]


def _value(args, flag):
    return args[args.index(flag) + 1] if flag in args else None


def _polish_route(text):
    """The route of a capacity's solve, on every cell of the set at 4096
    cells (``capacity._block_solve``)."""
    grid = CircleGrid(4096)
    cells = cli.parse_set(grid, text).indices
    runs = _cell_runs(cells)
    if len(cells) <= _BLOCK_CELLS:
        return "block, one run" if len(runs) == 1 else "block, several runs"
    if len(cells) == grid.n_points:
        return "full circle"
    if len(cells) > _CG_CELLS:
        return "conjugate gradients"
    if len(runs) == 2 and runs[0][0] == 0 and sum(runs[-1]) == grid.n_points:
        return "Levinson across -pi"
    return "Levinson" if len(runs) == 1 else "dense"


def test_readme_runs_every_subcommand(runnable):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {args[0] for args in runnable} == set(sub.choices)
    kinds = next(a for a in sub.choices["series"]._actions if a.dest == "kind").choices
    assert {args[1] for args in runnable if args[0] == "series"} == set(kinds)


def test_readme_runs_selftest_at_the_reference_grid(runnable):
    assert any(args[0] == "selftest" and _value(args, "--kernel-fault") is None
               and int(_value(args, "--grid-n") or REFERENCE_GRID) == REFERENCE_GRID
               for args in runnable)


def test_readme_runs_energy_on_one_arc_and_on_two(runnable):
    energies = [args for args in runnable if args[0] == "energy"]
    assert any("--arc-i" in args and "--arc-j" not in args for args in energies)
    assert any("--arc-i" in args and "--arc-j" in args for args in energies)


def test_readme_runs_a_capacity_on_every_polish_route(runnable):
    routes = {_polish_route(_value(args, "--set")) for args in runnable if args[0] == "capacity"}
    assert {"block, one run", "block, several runs", "Levinson across -pi", "dense",
            "conjugate gradients", "full circle"} <= routes


def test_readme_writes_a_minimizer_for_each_capacity_method(runnable):
    """A ``capacity --out`` example for each method, so the weights CSV
    and the density CSV are compared under one and two threads."""
    outs = {_value(args, "--method") for args in runnable if args[0] == "capacity" and "--out" in args}
    assert {"classical", "l2"} <= outs


# stands in for the CLI: prints the thread count when told to, and writes
# it to its --out file when told to; exits 3 on an inherited OMP_ variable
FAKE_CLI = textwrap.dedent("""
    import os, sys
    args = sys.argv[1:]
    if any(k.startswith("OMP_") for k in os.environ):
        sys.exit(3)
    threads = os.environ["CIRCLE_POTENTIAL_THREADS"]
    print(threads if "stdout-varies" in args else "same")
    if "--out" in args:
        with open(args[args.index("--out") + 1], "w") as out:
            out.write(threads if "file-varies" in args else "same")
""")


@pytest.mark.parametrize("example, named", [
    ("circle-potential steady --out a.csv", None),
    ("circle-potential stdout-varies --out a.csv", "stdout"),
    ("circle-potential steady file-varies --out b.csv", "b.csv"),
])
def test_comparison_fails_and_names_the_example(script, tmp_path, monkeypatch, capsys,
                                                example, named):
    readme = tmp_path / "README.md"
    readme.write_text(f"```sh\ncircle-potential steady\n{example}\n```\n")
    monkeypatch.setattr(script, "README", readme)
    monkeypatch.setattr(script, "CLI", [sys.executable, "-c", FAKE_CLI])
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    code = script.main(tmp_path / "out")
    err = capsys.readouterr().err
    if named is None:
        assert code == 0 and err == ""
    else:
        assert code == 1
        assert err.startswith(f"{example}: {named} differs between 1 and 2 threads")
