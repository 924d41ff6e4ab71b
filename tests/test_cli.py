import json
import math

import numpy as np
import pytest

import oracles
from circle_potential.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_energy_monomial_full(capsys):
    payload = run_json(
        capsys, "energy", "--fn", "builtin:monomial,n=2", "--alpha", "0.5",
        "--grid-n", "256",
    )
    assert payload["config"]["grid_n"] == 256
    assert payload["energy"]["value"] > 0.0
    assert payload["energy"]["arcs"]["i"] == "full"


def test_energy_fourier_flag(capsys):
    payload = run_json(
        capsys, "energy", "--fn", "builtin:monomial,n=2", "--alpha", "0.5",
        "--grid-n", "256", "--fourier",
    )
    assert payload["fourier_energy"] > 0.0


def test_energy_arc_specs(capsys):
    payload = run_json(
        capsys, "energy", "--fn", "builtin:trigpoly,seed=7", "--alpha", "0.5",
        "--grid-n", "256", "--arc-i", "[0, 1]",
        "--arc-j", '{"center": 0.5, "length": 1.0}',
    )
    assert payload["energy"]["diagnostics"]["cells_i"] > 8
    assert payload["energy"]["value"] >= 0.0


def test_energy_csv_out(capsys, tmp_path):
    out = tmp_path / "samples.csv"
    run_json(
        capsys, "energy", "--fn", "builtin:monomial,n=1", "--alpha", "0.5",
        "--grid-n", "64", "--out", str(out),
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "angle,re,im"
    assert len(lines) == 65


def test_energy_from_csv_samples(capsys, tmp_path):
    src = tmp_path / "fn.csv"
    t = np.linspace(-math.pi, math.pi, 200, endpoint=False)
    rows = ["angle,re,im"] + [f"{x},{math.cos(x)},{math.sin(x)}" for x in t]
    src.write_text("\n".join(rows))
    payload = run_json(
        capsys, "energy", "--fn", str(src), "--alpha", "1.0", "--grid-n", "256",
    )
    # the samples describe e^{it}: global energy at alpha = 1 is w(1) = 1
    assert abs(payload["energy"]["value"] - 1.0) < 0.05


def test_capacity_classical_full(capsys, tmp_path):
    out = tmp_path / "weights.csv"
    payload = run_json(
        capsys, "capacity", "--method", "classical", "--alpha", "0.5",
        "--set", "full", "--grid-n", "256", "--out", str(out),
    )
    est = payload["estimate"]
    assert est["method"] == "classical"
    assert abs(est["capacity"] - oracles.FULL_CIRCLE_CLASSICAL_HALF) <= 0.05
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "angle,weight"
    assert len(lines) == 257


def test_capacity_l2_closed_form(capsys):
    payload = run_json(
        capsys, "capacity", "--method", "l2", "--alpha", "1.0",
        "--set", "full", "--grid-n", "256",
    )
    est = payload["estimate"]
    assert abs(est["capacity"] - oracles.FULL_CIRCLE_L2_ALPHA_ONE) <= 0.05


def test_capacity_compare(capsys):
    payload = run_json(
        capsys, "capacity", "--method", "compare", "--alpha", "0.5",
        "--set", "half", "--grid-n", "256",
    )
    rep = payload["comparability"]
    assert rep["c_classical"] > 0.0
    assert rep["c_l2"] > 0.0
    assert 1.0 / 25.0 <= rep["ratio"] <= 25.0


def test_capacity_cantor_set_json(capsys):
    spec = json.dumps(
        {"cantor": {"rule": "power:beta=0.5", "depth": 3, "offset": 3}}
    )
    payload = run_json(
        capsys, "capacity", "--method", "classical", "--alpha", "0.5",
        "--set", spec, "--grid-n", "512",
    )
    assert payload["estimate"]["capacity"] > 0.0


def test_extend_command(capsys, tmp_path):
    out = tmp_path / "ext.csv"
    payload = run_json(
        capsys, "extend", "--fn", "builtin:trigpoly,seed=11", "--theta", "0.35",
        "--gamma", "0.5", "--alpha", "0.5", "--grid-n", "512", "--out", str(out),
    )
    assert payload["ratio"]["ratio"] <= 21.0
    gap = abs(payload["six_terms"]["total"] - payload["ratio"]["d_J"])
    assert gap <= 1e-9 * max(1.0, payload["ratio"]["d_J"])
    assert abs(payload["setup"]["c_gamma"] - 16.0) < 1e-9
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "angle,ext_re,ext_im,phi,test_fn"
    assert len(lines) == 513


def test_poincare_command(capsys):
    payload = run_json(
        capsys, "poincare-check", "--alpha", "0.75", "--beta", "0.5",
        "--gamma", "0.75", "--set", '{"arcs": [{"center": -0.2, "length": 0.12}]}',
        "--arc", '{"center": 0.0, "length": 1.2}',
        "--fn", "builtin:spike,delta=0.2", "--grid-n", "512",
    )
    rep = payload["report"]
    assert rep["ratio"] > 0.0
    assert rep["params"]["grid_n"] == 512


def test_poincare_sweep_needs_out(capsys):
    code, _, err = run_cli(
        capsys, "poincare-check", "--alpha", "0.75", "--beta", "0.5",
        "--gamma", "0.75", "--set", '{"arcs": [{"center": -0.2, "length": 0.12}]}',
        "--arc", '{"center": 0.0, "length": 1.2}',
        "--fn", "builtin:spike,delta=0.2", "--grid-n", "512", "--sweep", "4",
    )
    assert code == 2
    assert "error" in err


def test_poincare_sweep_csv(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    payload = run_json(
        capsys, "poincare-check", "--alpha", "0.75", "--beta", "0.5",
        "--gamma", "0.75", "--set", '{"arcs": [{"center": -0.2, "length": 0.12}]}',
        "--arc", '{"center": 0.0, "length": 1.2}',
        "--fn", "builtin:spike,delta=0.2", "--grid-n", "512",
        "--sweep", "4", "--out", str(out),
    )
    assert payload["sweep_points"] == 4
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta,ratio,lhs,cap,energy"
    assert len(lines) == 5


def test_series_cantor_capacity(capsys, tmp_path):
    out = tmp_path / "series.csv"
    payload = run_json(
        capsys, "series", "cantor-capacity", "--rule", "power:beta=0.5",
        "--s", "0.25", "--n", "400", "--out", str(out),
    )
    series = payload["series"]
    assert series["trend"] == "converges"
    assert abs(series["final_sum"] - oracles.CONVERGENT_SERIES_LIMIT) < 1e-9
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,partial_sum"
    assert len(lines) == 401


def test_series_cantor_capacity_default_n(capsys):
    payload = run_json(
        capsys, "series", "cantor-capacity", "--rule", "power:beta=0.5", "--s", "0.5",
    )
    series = payload["series"]
    assert series["n_terms"] == 20000
    assert series["trend"] == "diverges_plus_inf"


def test_series_carleson_geometric(capsys):
    payload = run_json(
        capsys, "series", "carleson", "--arcs", "geometric,ratio=0.5,count=60",
    )
    series = payload["series"]
    assert series["trend"] == "converges"
    assert abs(series["final_sum"] - oracles.GEOMETRIC_CARLESON_LIMIT) < 1e-9


def test_series_carleson_log_reciprocal(capsys):
    payload = run_json(
        capsys, "series", "carleson", "--arcs", "log-recip,n=5000",
    )
    series = payload["series"]
    assert series["trend"] == "diverges_minus_inf"
    assert series["fit"]["model"] == "loglog"


def test_series_uniqueness_spec_file(capsys, tmp_path):
    spec = tmp_path / "assembly.json"
    spec.write_text(
        json.dumps(
            {"arcs": "log-recip,n=9", "rule": "power:beta=0.5", "depth": 2, "offset": 3}
        )
    )
    out = tmp_path / "uniq.csv"
    payload = run_json(
        capsys, "series", "uniqueness", "--spec", str(spec),
        "--alpha", "0.8", "--beta", "0.8", "--grid-n", "1024", "--out", str(out),
    )
    series = payload["series"]
    assert series["n_terms"] == 8
    assert series["trend"] in (
        "converges", "diverges_plus_inf", "diverges_minus_inf", "inconclusive",
    )
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 9


def test_series_uniqueness_requires_spec(capsys):
    with pytest.raises(SystemExit) as info:
        main(["series", "uniqueness"])
    assert info.value.code == 64


def test_cantor_command(capsys, tmp_path):
    out = tmp_path / "cantor.csv"
    payload = run_json(
        capsys, "cantor", "--rule", "power:beta=0.5", "--depth", "3",
        "--offset", "3", "--out", str(out),
    )
    assert payload["count"] == 8
    stages = payload["stage_lengths"]
    assert all(x > y for x, y in zip(stages, stages[1:]))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "start,end,length"
    assert len(lines) == 9


def test_cantor_scaled_host(capsys):
    payload = run_json(
        capsys, "cantor", "--rule", "ratio:r=0.4", "--depth", "2",
        "--host", '{"center": 1.0, "length": 0.8}', "--scale-to-host",
    )
    assert payload["count"] == 4
    assert abs(payload["stage_lengths"][0] - 0.8) < 1e-12


def test_cantor_default_offset_rejected(capsys):
    code, _, err = run_cli(
        capsys, "cantor", "--rule", "power:beta=0.5", "--depth", "3",
    )
    assert code == 2
    assert "error" in err


def test_selftest_single_criterion(capsys):
    code, out, err = run_cli(
        capsys, "selftest", "--only", "determinism", "--grid-n", "256",
    )
    assert code == 0
    assert "PASS determinism" in err
    report = json.loads(out)
    assert report["all_passed"] is True
    assert len(report["criteria"]) == 1


def test_selftest_fault_injection_fails(capsys):
    """A kernel perturbation of 50% must be caught by the quadrature
    cross-check and turn the selftest red."""
    code, out, err = run_cli(
        capsys, "selftest", "--only", "exact_diagonalization",
        "--kernel-fault", "0.5", "--grid-n", "256",
    )
    assert code == 1
    assert "FAIL exact_diagonalization" in err
    report = json.loads(out)
    assert report["all_passed"] is False
    assert report["kernel_fault_scale"] == 0.5


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        main(["capacity", "--method", "quantum", "--alpha", "0.5", "--set", "full"])
    assert info.value.code == 64


def test_precondition_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "energy", "--fn", "builtin:monomial,n=1", "--alpha", "1.5",
        "--grid-n", "256",
    )
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(
        capsys, "energy", "--fn", "builtin:monomial,n=1", "--alpha", "0.5",
        "--grid-n", "100",
    )
    assert code == 2


@pytest.mark.parametrize("flag", ["--grid-n", "--max-iterations", "--tolerance"])
def test_zero_flag_values_are_rejected(capsys, flag):
    """A zero flag value reaches config validation instead of falling
    back to the default."""
    code, out, err = run_cli(
        capsys, "capacity", "--method", "classical", "--alpha", "0.5",
        "--set", "half", "--grid-n", "256", flag, "0",
    )
    assert code == 2
    assert out == ""
    assert "error" in err


def test_no_convergence_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "capacity", "--method", "classical", "--alpha", "0.5",
        "--set", "half", "--grid-n", "256",
        "--tolerance", "1e-30", "--max-iterations", "5",
    )
    assert code == 3
    assert "error" in err


def test_config_file_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {"grid_n": 128, "seed": 7, "solver": {"step_rule": "projected_gradient"}}
        )
    )
    payload = run_json(
        capsys, "energy", "--fn", "builtin:monomial,n=1", "--alpha", "0.5",
        "--config", str(cfg),
    )
    assert payload["config"]["grid_n"] == 128
    assert payload["config"]["seed"] == 7
    assert payload["config"]["solver"]["step_rule"] == "projected_gradient"
    payload = run_json(
        capsys, "energy", "--fn", "builtin:monomial,n=1", "--alpha", "0.5",
        "--config", str(cfg), "--grid-n", "256",
    )
    assert payload["config"]["grid_n"] == 256


def test_cli_output_reproducible(capsys):
    argv = [
        "capacity", "--method", "compare", "--alpha", "0.5",
        "--set", '{"arcs": [{"center": 0.3, "length": 1.0}]}', "--grid-n", "256",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
