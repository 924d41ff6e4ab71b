"""Acceptance gate: the twelve release criteria at reference scale.

Each test pins one criterion of the self-test battery, run once per
session at the default 4096-cell grid and seed. The shared report is
computed by ``run_all`` with library defaults, so `circle-potential
selftest` and this module always agree. One summary line per criterion
goes to stdout (visible with -s or on failure).
"""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from circle_potential import PreconditionError, ResolutionError, acceptance
from circle_potential._threads import _BLAS_VARS
from circle_potential.acceptance import AcceptanceContext, criterion_names, json_bytes, run_all
from circle_potential.cli import main
from circle_potential.energy import _circulant_block
from oracles import compositions, lattice_min_einsum, product_lattice


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
    """Classical capacities of one- to six-cell sets against the exact
    minimum of the energy form over every support."""
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


@pytest.mark.parametrize("name", ["classical_capacity", "l2_capacity"])
def test_determinism_compares_minimizer_bytes(monkeypatch, name):
    """A capacity whose minimizer differs between the two probe runs, by
    an ulp or two in one entry, with its value and JSON unchanged, fails
    the determinism criterion."""
    solve = getattr(acceptance, name)
    calls = []

    def drifting(*args):
        est = solve(*args)
        calls.append(None)
        est.minimizer[0] += len(calls) * np.spacing(est.minimizer[0])
        return est

    ctx = AcceptanceContext(grid_n=512)
    assert acceptance.determinism(ctx)[0]
    monkeypatch.setattr(acceptance, name, drifting)
    passed, details = acceptance.determinism(ctx)
    assert calls and not passed and not details["identical"]


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


@pytest.mark.parametrize("seed", [500_000, 4])
def test_lattice_oracle_matches_product_enumeration(seed):
    """The compositions built a part at a time are a brute product
    filter's points in the same order, for one to six cells and every
    subdivision up to 8, and the chunked einsum route scores that
    lattice's minimum, up to the rounding of one einsum row (one einsum
    over all the points rounds a row differently at two cells)."""
    rng = np.random.default_rng(seed)
    for c in range(1, 7):
        a = rng.standard_normal((c, c))
        K = a @ a.T + 0.1 * np.eye(c)
        margin = 4.0 * (c * c + 3) * 2.0**-53 * np.max(np.abs(K))
        for subdivisions in range(1, 9):
            points = product_lattice(c, subdivisions)
            assert np.array_equal(compositions(subdivisions, c)[subdivisions], points)
            w = points / subdivisions
            want = np.einsum("ij,jk,ik->i", w, K, w).min()
            assert abs(lattice_min_einsum(K, subdivisions) - want) <= margin, (c, subdivisions)


def test_lattice_oracle_single_cell_is_the_unit_weight():
    """With one cell the lattice is the single point w = [1], which is
    also the exact minimum's one support."""
    K = np.array([[2.5]])
    assert lattice_min_einsum(K, 48) == 2.5
    energy, w = acceptance._exact_min_energy(K)
    assert energy == 2.5 and w.tolist() == [1.0]


def _oracle_kernels(rounds):
    """The kernels small_instance_oracle builds (one to six cells, for
    three seeds), then ``rounds`` random SPD kernels of each size from
    one to six cells."""
    for seed in (AcceptanceContext().seed, 1, 7):
        rng = AcceptanceContext(seed=seed).rng(8)
        for size in range(1, 7):
            idx = np.sort(rng.choice(64, size=size, replace=False))
            yield _circulant_block("kernel", 64, 0.5, idx)
    rng = np.random.default_rng(11)
    for _ in range(rounds):
        for c in range(1, 7):
            a = rng.standard_normal((c, c))
            yield a @ a.T + 0.1 * np.eye(c)


def test_exact_oracle_not_above_lattice():
    """Every lattice point is a probability vector, so the exact minimum
    is at most the lattice minimum at 48 subdivisions. At two gate cells
    the minimizer (1/2, 1/2) is itself a lattice point, and the two
    floats differ by rounding (two ulps), hence the relative slack."""
    for K in _oracle_kernels(1):
        energy, _ = acceptance._exact_min_energy(K)
        assert energy <= lattice_min_einsum(K, 48) * (1.0 + 1e-14), K.shape


def test_exact_oracle_minimizer_passes_kkt():
    """The returned w is a probability vector of the returned energy,
    and the optimality conditions hold: (K w)_j >= w^T K w on every
    cell, to 1e-12 relative."""
    for K in _oracle_kernels(50):
        energy, w = acceptance._exact_min_energy(K)
        assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-14
        assert abs(w @ K @ w - energy) <= 1e-14 * energy
        assert np.all(K @ w >= energy * (1.0 - 1e-12)), K.shape


def test_exact_oracle_independent_of_thread_count():
    """The six exact minima of the gate's small_instance_oracle, and
    their weights, are the same bytes under one and two BLAS threads."""
    script = textwrap.dedent(
        """
        import numpy as np
        from circle_potential import acceptance
        from circle_potential.energy import _circulant_block

        rng = acceptance.AcceptanceContext().rng(8)
        out = []
        for size in range(1, 7):
            idx = np.sort(rng.choice(64, size=size, replace=False))
            K = _circulant_block("kernel", 64, 0.5, idx)
            energy, w = acceptance._exact_min_energy(K)
            out.append((energy.hex(), w.tobytes().hex()))
        print(out)
        """
    )
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    base["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    outputs = []
    for threads in ("1", "2"):
        env = dict(base, CIRCLE_POTENTIAL_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0].count(b"0x") == 6
    assert outputs[0] == outputs[1]


def test_small_instance_oracle_fails_on_a_two_percent_error(monkeypatch):
    """A solver that reports 1.02 times each capacity fails the
    criterion, by that 2% against the exact minimum."""
    solve = acceptance.classical_capacity

    def inflated(*args):
        est = solve(*args)
        return dataclasses.replace(est, value=1.02 * est.value)

    monkeypatch.setattr(acceptance, "classical_capacity", inflated)
    passed, details = acceptance.small_instance_oracle(AcceptanceContext())
    assert not passed
    assert abs(details["max_rel_error"] - 0.02) < 1e-12
