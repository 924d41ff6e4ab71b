"""Acceptance gate: the twelve release criteria at reference scale.

Each test pins one criterion of the self-test battery, run once per
session at the default 4096-cell grid and seed. The shared report is
computed by ``run_all`` with library defaults, so `circle-potential
selftest` and this module always agree. One summary line per criterion
goes to stdout (visible with -s or on failure).
"""

import itertools
import json

import numpy as np
import pytest

from circle_potential import PreconditionError, ResolutionError, acceptance
from circle_potential.acceptance import AcceptanceContext, criterion_names, json_bytes, run_all
from circle_potential.cli import main
from circle_potential.energy import _circulant_block
from oracles import lattice_min_einsum


@pytest.fixture(scope="module")
def report():
    return run_all()


def _criterion(report, name):
    item = next(c for c in report["criteria"] if c["name"] == name)
    status = "PASS" if item["passed"] else "FAIL"
    print(f"{status} {name}: {json.dumps(item['details'], sort_keys=True)}")
    return item


def _assert_passed(report, name):
    item = _criterion(report, name)
    assert item["passed"], f"{name} failed: {item['details']}"


def test_exact_diagonalization(report):
    """Monomial energies against independent quadrature of the
    diagonalization weights, three exponents, frequencies 1..8."""
    _assert_passed(report, "exact_diagonalization")


def test_seminorm_invariances(report):
    """Constant shifts leave energies fixed and modulus scaling
    multiplies them by |lambda|^2 across random polynomials."""
    _assert_passed(report, "seminorm_invariances")


def test_extension_ceiling(report):
    """Reflection extension never exceeds the energy ratio ceiling over
    the gamma/alpha/sample grid."""
    _assert_passed(report, "extension_ceiling")


def test_six_term_partition(report):
    """Block decomposition of the extended energy reproduces the direct
    double sum to relative 1e-9."""
    _assert_passed(report, "six_term_partition")


def test_equilibrium_symmetry(report):
    """Full-circle equilibrium measure is uniform and its capacity is
    the reciprocal uniform energy."""
    _assert_passed(report, "equilibrium_symmetry")


def test_capacity_monotonicity(report):
    """Capacities increase under set inclusion on nested arcs and nested
    Cantor stages, both solver routes."""
    _assert_passed(report, "capacity_monotonicity")


def test_comparability_stability(report):
    """Classical and L2 capacities stay within the comparability bracket
    and drift little between grid resolutions."""
    _assert_passed(report, "comparability_stability")


def test_small_instance_oracle(report):
    """Tiny supports against exhaustive lattice minimization of the
    energy form."""
    _assert_passed(report, "small_instance_oracle")


def test_poincare_stability(report):
    """Inequality components stable across grid refinement and invariant
    under joint rotation and scaling."""
    _assert_passed(report, "poincare_stability")


def test_cantor_series_concordance(report):
    """Capacity series verdicts match direct capacity trends for the
    power-rule Cantor sets on both sides of the threshold."""
    _assert_passed(report, "cantor_series_concordance")


def test_carleson_diagnostics(report):
    """Geometric arcs hit the closed-form Carleson sum; log-reciprocal
    arcs drift to -inf on the doubly logarithmic profile."""
    _assert_passed(report, "carleson_diagnostics")


def test_determinism(report):
    """Repeated probe runs produce byte-identical serialized output."""
    _assert_passed(report, "determinism")


def test_all_criteria_present(report):
    assert [c["name"] for c in report["criteria"]] == criterion_names()
    assert report["grid_n"] == 4096
    assert report["all_passed"] is True


def test_report_reproducible_across_runs():
    """Two full battery runs at reduced scale serialize to identical
    bytes (no timing, ordering, or hidden-state leaks)."""
    a = run_all(grid_n=256)
    b = run_all(grid_n=256)
    assert json_bytes(a) == json_bytes(b)


def test_grid_below_128_is_rejected(capsys):
    """At 64 cells two criteria cannot be evaluated, so the battery
    refuses the grid (exit 2) instead of reporting a failure (exit 1)."""
    with pytest.raises(PreconditionError):
        run_all(grid_n=64)
    assert main(["selftest", "--grid-n", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ">= 128" in captured.err


@pytest.mark.parametrize("scale", ["-1", "-2.5", "nan", "inf", "-inf"])
def test_invalid_kernel_fault_is_rejected(capsys, scale):
    """A fault scale of -1 zeroes every kernel table and a smaller one
    flips their sign; such scales and non-finite ones are refused
    (exit 2) instead of ending in a traceback."""
    with pytest.raises(PreconditionError):
        run_all(grid_n=128, kernel_fault_scale=float(scale), only=["seminorm_invariances"])
    assert main(["selftest", f"--kernel-fault={scale}", "--grid-n", "128"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "kernel fault scale" in captured.err
    assert "Traceback" not in captured.err


def test_fault_injection_is_detected():
    """Corrupting the kernel tables by 50% must flip the quadrature
    cross-check to FAIL while the internally consistent invariance
    checks still pass: failures are named, not smeared."""
    report = run_all(
        grid_n=256,
        kernel_fault_scale=0.5,
        only=["exact_diagonalization", "seminorm_invariances"],
    )
    by_name = {c["name"]: c["passed"] for c in report["criteria"]}
    assert by_name["exact_diagonalization"] is False
    assert by_name["seminorm_invariances"] is True
    assert report["all_passed"] is False


def test_fault_injection_is_detected_at_128_cells(capsys):
    """At 128 cells a 30% kernel fault (a 0.2998 energy error) must still
    fail the quadrature cross-check: its relaxed tolerance stops at the
    256-cell value, 0.16."""
    report = run_all(
        grid_n=128,
        kernel_fault_scale=0.3,
        only=["exact_diagonalization", "seminorm_invariances"],
    )
    by_name = {c["name"]: c["passed"] for c in report["criteria"]}
    assert by_name == {"exact_diagonalization": False, "seminorm_invariances": True}
    assert report["criteria"][0]["details"]["tolerance"] == 0.16
    assert main(["selftest", "--grid-n", "128", "--kernel-fault", "0.3"]) == 1
    assert "FAIL exact_diagonalization" in capsys.readouterr().err


def _stub_clean(ctx):
    return True, {"grid_n": ctx.grid_n}


def _stub_skipping(ctx):
    return True, {"skipped": [{"reason": "arc under the resolution floor"}]}


def _stub_unresolved(ctx):
    raise ResolutionError("arc holds 3 cells")


def test_runner_names_results_after_their_functions(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", (_stub_clean, _stub_skipping))
    report = run_all(grid_n=128)
    assert [c["name"] for c in report["criteria"]] == ["_stub_clean", "_stub_skipping"]
    assert report["criteria"][0]["details"] == {"grid_n": 128}
    assert run_all(grid_n=128, only=["_stub_skipping"])["criteria"][0]["name"] == "_stub_skipping"


@pytest.mark.parametrize("grid_n, passed", [(2048, True), (4096, False), (8192, False)])
def test_runner_fails_skipped_sub_cases_from_the_reference_grid(monkeypatch, grid_n, passed):
    """A criterion that lists a skipped sub-case passes below the
    reference grid and fails at it and above; one that skips nothing is
    left alone."""
    monkeypatch.setattr(acceptance, "CRITERIA", (_stub_skipping, _stub_clean))
    report = run_all(grid_n=grid_n)
    assert [c["passed"] for c in report["criteria"]] == [passed, True]
    assert report["all_passed"] is passed


def test_runner_reports_resolution_errors_and_goes_on(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", (_stub_unresolved, _stub_clean))
    seen = []
    report = run_all(grid_n=128, progress=lambda result, _: seen.append(result.name))
    assert report["criteria"][0] == {
        "name": "_stub_unresolved",
        "passed": False,
        "details": {"error": "resolution", "message": "arc holds 3 cells"},
    }
    assert report["criteria"][1]["passed"] is True
    assert seen == ["_stub_unresolved", "_stub_clean"]
    assert report["all_passed"] is False


def _product_lattice(c, subdivisions):
    """The lattice's points from an itertools.product filter, which also
    yields the compositions in lexicographic order."""
    points = itertools.product(range(subdivisions + 1), repeat=c)
    return np.array([p for p in points if sum(p) == subdivisions])


@pytest.mark.parametrize("seed", [500_000, 4])
def test_lattice_oracle_matches_product_enumeration(seed):
    """The compositions built a part at a time are a brute product
    filter's points in the same order, for one to six cells and every
    subdivision up to 8, and the oracle scores that lattice to the
    chunked einsum route's float on two random kernel sets. One einsum
    over all the points is no reference: at two cells numpy rounds a row
    differently depending on how many rows the operand has."""
    rng = np.random.default_rng(seed)
    for c in range(1, 7):
        a = rng.standard_normal((c, c))
        K = a @ a.T + 0.1 * np.eye(c)
        for subdivisions in range(1, 9):
            points = acceptance._compositions(subdivisions, c)[subdivisions]
            assert np.array_equal(points, _product_lattice(c, subdivisions)), (c, subdivisions)
            got = acceptance._lattice_min_energy(K, subdivisions)
            assert got == lattice_min_einsum(K, subdivisions), (c, subdivisions)


def test_lattice_oracle_single_cell_is_the_unit_weight():
    """With one cell the lattice is the single point w = [1]."""
    assert acceptance._lattice_min_energy(np.array([[2.5]]), 48) == 2.5


def test_lattice_oracle_matches_einsum_route():
    """The split scorer returns the chunked einsum route's float, bit for
    bit, at 48 subdivisions: on the gate's own kernels (the sets that
    small_instance_oracle draws, one to six cells, for three seeds) and
    on random SPD kernels of one to six cells."""
    for seed in (AcceptanceContext().seed, 1, 7):
        rng = AcceptanceContext(seed=seed).rng(8)
        for size in range(1, 7):
            idx = np.sort(rng.choice(64, size=size, replace=False))
            K = _circulant_block("kernel", 64, 0.5, idx)
            assert acceptance._lattice_min_energy(K, 48) == lattice_min_einsum(K, 48), (seed, size)
    rng = np.random.default_rng(11)
    for c in range(1, 7):
        a = rng.standard_normal((c, c))
        K = a @ a.T + 0.1 * np.eye(c)
        assert acceptance._lattice_min_energy(K, 48) == lattice_min_einsum(K, 48), c


@pytest.mark.parametrize("c", [2, 3, 4])
def test_lattice_oracle_exact_ties(c):
    """With K = ones every lattice point scores 1 in exact arithmetic, so
    every point is rescored; the result lies within the documented
    rounding margin 4 (c^2 + 18 c + 57) 2^-53 max|K| of the einsum route
    and of 1. Rescored in chunks of one first part, the chunks are then
    the einsum route's own operands, so its float is met exactly too; a
    zero margin would miss it at S = 48, one rescoring batch at c = 2,
    S = 7."""
    K = np.ones((c, c))
    margin = 4.0 * (c * c + 18 * c + 57) * 2.0**-53
    for subdivisions in (7, 8, 48):
        got = acceptance._lattice_min_energy(K, subdivisions)
        want = lattice_min_einsum(K, subdivisions)
        assert abs(got - want) <= margin, subdivisions
        assert abs(got - 1.0) <= margin, subdivisions
        assert got == want, subdivisions
