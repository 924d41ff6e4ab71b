import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from circle_potential.cli import _emit, _strict, main


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


@pytest.mark.parametrize(
    "arcs, message",
    [
        ('{"arcs":[{"center":0,"length":0.5},{"center":0.2,"length":0.5}]}', "overlap"),
        ("geometric,ratio=0.5,count=2000", "underflows"),
    ],
    ids=["overlapping", "underflow"],
)
def test_series_carleson_refuses_bad_families(capsys, arcs, message):
    """Overlapping arcs and arc lengths that underflow are named
    precondition errors (exit 2), not a sum or a zero-length arc."""
    code, out, err = run_cli(capsys, "series", "carleson", "--arcs", arcs)
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def test_series_carleson_accepts_abutting_centered_arcs(capsys):
    """Arcs given by center and length that are meant to meet end to end
    share an endpoint within rounding: a sum, not an overlap."""
    payload = run_json(
        capsys, "series", "carleson", "--arcs",
        '{"arcs":[{"center":0.1,"length":0.2},{"center":0.3,"length":0.2}]}',
    )
    assert abs(payload["series"]["final_sum"] - 2 * 0.2 * math.log(0.2)) < 1e-12


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


def test_cantor_depth_over_bound_exits_2(capsys):
    code, out, err = run_cli(capsys, "cantor", "--rule", "ratio:r=0.4", "--depth", "40")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_cantor_huge_depth_exits_2_at_once():
    """A depth of a billion is refused when the spec is built, before
    any per-stage work: exit 2 in seconds, with no traceback. The set
    JSON and series routes build their specs the same way."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "circle_potential.cli", "cantor", "--rule", "ratio:r=0.4",
         "--depth", "1000000000"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert time.perf_counter() - start < 10.0
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "exceeds 20" in proc.stderr
    assert "Traceback" not in proc.stderr


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


@pytest.mark.parametrize("argv", [
    ("capacity", "--method", "l2", "--alpha", "1e-17", "--set", "half", "--grid-n", "256"),
    ("poincare-check", "--alpha", "0.75", "--beta", "1e-17", "--gamma", "0.75",
     "--set", '{"arcs": [{"center": -0.2, "length": 0.12}]}',
     "--arc", '{"center": 0.0, "length": 1.2}', "--fn", "builtin:spike,delta=0.2",
     "--grid-n", "512"),
], ids=["capacity", "poincare"])
def test_l2_exponent_rounding_to_one_exits_2(capsys, argv):
    """An L2 parameter so small that 1 - alpha/2 rounds to 1.0 is a
    precondition error (exit 2), not a capacity."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: kernel exponent must be in [0, 1)")
    assert "Traceback" not in err


def test_infinite_tolerance_is_rejected(capsys):
    """An infinite tolerance would count any polish as certified."""
    code, out, err = run_cli(
        capsys, "capacity", "--method", "classical", "--alpha", "0.5",
        "--set", "half", "--grid-n", "256", "--tolerance", "inf",
    )
    assert code == 2
    assert out == ""
    assert "error" in err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_non_finite_values_print_as_null(capsys):
    """stdout is strict JSON: the empty set's infinite minimal energy and
    the ratio of two zero capacities print as null."""
    empty = '{"arcs": []}'
    code, out, _ = run_cli(
        capsys, "capacity", "--method", "classical", "--alpha", "0.5",
        "--set", empty, "--grid-n", "64",
    )
    assert code == 0
    assert json.loads(out, parse_constant=_reject_constant)["estimate"]["energy_or_norm"] is None
    code, out, _ = run_cli(
        capsys, "capacity", "--method", "compare", "--alpha", "0.5",
        "--set", empty, "--grid-n", "64",
    )
    assert code == 0
    assert json.loads(out, parse_constant=_reject_constant)["comparability"]["ratio"] is None


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
    cfg.write_text(json.dumps({"grid_n": 128, "seed": 7, "solver": {"max_iterations": 777}}))
    payload = run_json(
        capsys, "energy", "--fn", "builtin:monomial,n=1", "--alpha", "0.5",
        "--config", str(cfg),
    )
    assert payload["config"]["grid_n"] == 128
    assert payload["config"]["seed"] == 7
    assert payload["config"]["solver"] == {"tolerance": 1e-8, "max_iterations": 777}
    payload = run_json(
        capsys, "energy", "--fn", "builtin:monomial,n=1", "--alpha", "0.5",
        "--config", str(cfg), "--grid-n", "256",
    )
    assert payload["config"]["grid_n"] == 256
    # a config written for the retired step rules still runs
    cfg.write_text(json.dumps({"grid_n": 128, "solver": {"step_rule": "projected_gradient"}}))
    code, _, err = run_cli(
        capsys, "capacity", "--method", "classical", "--alpha", "0.5", "--set", "half",
        "--config", str(cfg),
    )
    assert code == 0, err


def test_cli_output_reproducible(capsys):
    argv = [
        "capacity", "--method", "compare", "--alpha", "0.5",
        "--set", '{"arcs": [{"center": 0.3, "length": 1.0}]}', "--grid-n", "256",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


_ENERGY = ["energy", "--fn", "builtin:monomial,n=1", "--alpha", "0.5", "--grid-n", "64"]
_CAPACITY = ["capacity", "--method", "classical", "--alpha", "0.5", "--grid-n", "64"]
_UNIQUENESS = ["series", "uniqueness", "--grid-n", "64", "--spec"]


@pytest.mark.parametrize(
    "argv",
    [
        _ENERGY + ["--arc-i", "{bad"],
        ["cantor", "--rule", "power:beta=0.5", "--depth", "2", "--offset", "3", "--host", "{bad"],
        _CAPACITY + ["--set", '{"arcs":[{"center":"x","length":1}]}'],
        _CAPACITY + ["--set", '{"cantor":{"depth":2}}'],
        _CAPACITY + ["--set", '{"arcs":5}'],
        _CAPACITY + ["--set", '{"union":[5]}'],
        _UNIQUENESS + ['{"rule":"power:beta=0.5","depth":2,"offset":3}'],
        _UNIQUENESS + ['{"arcs":"log-recip,n=9","rule":"power:beta=0.5","depth":"x"}'],
        _ENERGY + ["--config", '{"grid_n":"x"}'],
        _ENERGY + ["--config", '{"solver":5}'],
        ["series", "carleson", "--arcs", "geometric,ratio=x"],
        _ENERGY + ["--arc-i", '{"center":0,"length":1e400}'],
        [
            "poincare-check", "--alpha", "0.75", "--beta", "0.5", "--gamma", "0.75",
            "--set", '{"arcs":[[0.0,0.1]]}', "--arc", "[-0.4,0.4]",
            "--fn", "builtin:spike,delta=0.1", "--grid-n", "64", "--sweep", "-1",
            "--out", "TMP/sweep.csv",
        ],
        _ENERGY + ["--out", "TMP/missing/samples.csv"],
        ["selftest", "--only", "determinism", "--seed", "-1", "--grid-n", "128"],
        ["selftest", "--only", "", "--grid-n", "128"],
    ],
    ids=[
        "arc-i-bad-json", "cantor-host-bad-json", "set-arc-center-text",
        "set-cantor-without-rule", "set-arcs-number", "set-union-number",
        "uniqueness-without-arcs", "uniqueness-depth-text", "config-grid-n-text",
        "config-solver-number", "carleson-ratio-text", "arc-i-infinite-length",
        "poincare-negative-sweep", "out-missing-dir", "selftest-negative-seed",
        "selftest-empty-only",
    ],
)
def test_malformed_specs_exit_2(capsys, tmp_path, argv):
    """Malformed inputs are precondition errors (exit 2), reported on
    stderr without a traceback; stdout is empty or one JSON document."""
    argv = [a.replace("TMP", str(tmp_path)) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" or isinstance(json.loads(out), dict)
    assert "error" in err
    assert "Traceback" not in err


def test_emit_writes_the_json_round_trip(capsys):
    """One walk and one streamed encoding write the bytes that encoding,
    parsing with non-finite constants as null and encoding again wrote:
    NaN and infinities inside dicts, lists and tuples, numpy floats,
    int, float, bool and None keys, and containers with nothing to
    change, which are not copied."""
    unchanged = [{"start": 0.5, "end": 1.5}, (1, "a", None)]
    payload = {
        "b": [1.0, float("nan"), (float("inf"), -float("inf"))],
        "a": {10: 1, 2: np.float64(0.25), 1.5: True, True: None, None: "x"},
        "c": unchanged,
        "d": {"e": np.float64("nan"), "f": [[{"g": 2.0}]]},
    }
    old = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    want = json.dumps(old, sort_keys=True, indent=2, allow_nan=False) + "\n"
    _emit(payload)
    assert capsys.readouterr().out == want
    assert _strict(unchanged) is unchanged


def test_selftest_timings_leave_stdout_alone(capsys):
    """--timings adds each criterion's wall time and the total to stderr;
    stdout is the same bytes without it."""
    argv = ["selftest", "--grid-n", "256", "--only", "exact_diagonalization,extension_ceiling"]
    code, plain, plain_err = run_cli(capsys, *argv)
    timed_code, timed, err = run_cli(capsys, *argv, "--timings")
    assert code == timed_code == 0
    assert timed == plain
    assert plain_err.splitlines() == ["PASS exact_diagonalization", "PASS extension_ceiling"]
    lines = err.splitlines()
    assert [line.rsplit(" ", 2)[0] for line in lines] == [
        "PASS exact_diagonalization", "PASS extension_ceiling", "total"]
    for line in lines:
        seconds, unit = line.split()[-2:]
        assert unit == "s" and float(seconds) >= 0.0


_OUT_OF_MEMORY_CHILD = """
import resource, sys
from circle_potential.cli import main
with open("/proc/self/status") as fh:
    size = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:")) * 1024
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + (128 << 20), hard))
sys.exit(main(["cantor", "--rule", "ratio:r=0.4", "--depth", "20"]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_cantor_out_of_memory_exits_2_without_traceback():
    """Depth 20 (about 10^6 arcs) with 128 MB of address space left
    after the imports cannot build its report: the CLI says so on one
    error line and exits 2, with no traceback."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
               CIRCLE_POTENTIAL_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _OUT_OF_MEMORY_CHILD], env=env, text=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=300)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: out of memory\n"


def test_closed_stdout_exits_quietly():
    """A reader that closes the pipe early (``| head -c 10``) ends the CLI
    with status 141 (128 + SIGPIPE) and nothing on stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "circle_potential.cli", "cantor", "--rule", "power:beta=0.5",
         "--depth", "12", "--offset", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141, err
    assert "Traceback" not in err
    assert err == ""
