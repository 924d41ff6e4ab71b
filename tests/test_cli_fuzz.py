"""Property test: no argument vector makes the CLI show a traceback.

Argument vectors are drawn per subcommand. Each value is usually valid
and otherwise a near miss or junk, so runs reach the library as well as
the argument readers. Every run must end with a documented exit code
(0, 2, 3 or 64), nothing on stderr may be a traceback, and stdout is
empty or one strict (RFC 8259) JSON document: no NaN or Infinity. The work per example stays small: 64-cell
grids (512 for ``extend``, whose reflected arcs need it; 128 for the
selftest, whose criteria need it), a solver budget of at most 500
iterations, and small series lengths, Cantor depths and sweeps.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from circle_potential.acceptance import criterion_names  # noqa: E402
from circle_potential.cli import main  # noqa: E402

JUNK = st.text(alphabet='{}[]":,.=-_0123456789eaxnrt ', max_size=16)
BAD_NUMBERS = ["-1", "0", "1.5", "nan", "inf", "1e400", "x", ""]
FAULTS = ["0", "-1", "-1.5", "-1e400", "nan", "inf", "-inf", "x"]


def mix(valid, bad=()):
    """A valid value seven times in eight, else a near miss or junk."""
    return st.integers(0, 7).flatmap(
        lambda k: st.sampled_from(valid) if k else st.sampled_from(list(bad) or ["x"]) | JUNK
    )


ALPHA = mix(["0.25", "0.5", "0.75", "1"], BAD_NUMBERS)
ARC = mix(
    [
        "full", "[0, 1.5]", "[-2.5, 2.5]",
        '{"center": 0.2, "length": 2.0}', '{"start": 3, "end": -3}',
    ],
    [
        "[1, 1]", "[1]", "{bad", "[", "5", "no-such-file.json",
        '{"center": 0, "length": 7}', '{"center": 0, "length": -1}',
        '{"center": 0, "length": 1e400}', '{"center": "x", "length": 1}',
        '{"start": null, "end": 1}', '{"start": NaN, "end": 1}',
    ],
)
RULE = mix(
    ["power:beta=0.5", "power:beta=0.25", "ratio:r=0.4", "ratio:r=0.3,l0=2", "table:0.5,0.2,0.05"],
    ["power:beta=x", "power:beta=-1", "power:", "ratio:r=0", "ratio:r=0.6", "table:x",
     "table:", "other:a=1", ""],
)
SET = mix(
    [
        "full", "half",
        '{"arcs": [[0, 0.5], {"center": 2, "length": 0.3}]}',
        '{"cantor": {"rule": "power:beta=0.5", "depth": 2, "offset": 3}}',
        '{"cantor": {"rule": "ratio:r=0.4", "depth": 2, "host": [0, 1], "scale_to_host": true}}',
        '{"union": [{"arcs": [[0, 1]]}, {"arcs": [[2, 2.5]]}]}',
    ],
    [
        '{"arcs": [{"center": "x", "length": 1}]}', '{"arcs": 5}', '{"arcs": []}',
        '{"cantor": {"depth": 2}}', '{"cantor": 3}',
        '{"cantor": {"rule": "power:beta=0.5", "depth": "x", "offset": 3}}',
        '{"cantor": {"rule": 5, "depth": 2}}', '{"union": [5]}', '{"union": 7}', "[]", "{}",
    ],
)
FAMILY = mix(
    [
        "geometric,ratio=0.5,count=20", "geometric", "log-recip,n=50",
        '{"arcs": [[0, 0.5], [1, 1.2]]}',
    ],
    ["geometric,ratio=x", "geometric,ratio=1.5,count=3", "geometric,count=-1", "geometric,ratio",
     "log-recip,n=0", "log-recip,n=x", '{"arcs": 5}', '{"nope": []}'],
)
FN = mix(
    ["builtin:monomial,n=2", "builtin:trigpoly,degree=3,seed=4", "builtin:constant,re=1,im=2"],
    ["builtin:monomial", "builtin:trigpoly,degree=-1", "builtin:trigpoly,seed=-1",
     "builtin:constant,re=1,im=x", "builtin:spike,delta=0.1", "builtin:nothing",
     "builtin:monomial,n", "no-such-file.csv"],
)
SPEC = mix(
    [
        '{"arcs": "log-recip,n=9", "rule": "power:beta=0.5", "depth": 2, "offset": 3}',
        '{"arcs": {"arcs": [[-0.5, 0.5]]}, "rule": "power:beta=0.5", "depth": 1, "offset": 3}',
    ],
    [
        '{"rule": "power:beta=0.5"}', '{"arcs": [1, 2], "rule": "ratio:r=0.4", "depth": 1}',
        '{"arcs": "log-recip,n=9", "rule": "power:beta=0.5", "depth": "x"}',
        '{"arcs": "geometric,count=4", "rule": 3}', "[]",
    ],
)
COMMON = {
    "--seed": mix(["0", "7"], ["-1", "x", "1.5"]),
    "--config": mix(
        ['{"seed": 7, "solver": {"step_rule": "projected_gradient"}}', "{}"],
        ['{"grid_n": "x"}', '{"solver": 5}', '{"solver": {"tolerance": "x"}}',
         '{"solver": {"tolerance": -1, "max_iterations": null}}', '{"fourier_m": 1000}',
         '{"seed": -3}', "[1, 2]", "no-such-file.json"],
    ),
    "--tolerance": mix(["1e-8", "1e-6"], ["0", "-1", "nan", "x", "1e-30"]),
}
OUT = st.sampled_from(["OUT_DIR/out.csv", "OUT_DIR/missing/out.csv", "OUT_DIR"])
FLAG = st.just(None)


def options(required, optional, rare=COMMON):
    """Required options are present nineteen times in twenty, the
    command's optional ones half the time and the common ones a quarter
    of the time. A None value marks a flag without a value."""
    groups = []
    for table, keep in ((required, 19), (optional, 10), (rare, 5)):
        for flag, value in table.items():
            pair = value.map(lambda v, k=flag: [k] if v is None else [k, v])
            groups.append(
                st.integers(0, 19).flatmap(lambda r, p=pair, n=keep: p if r < n else st.just([]))
            )
    return st.tuples(*groups).map(lambda gs: [tok for g in gs for tok in g])


def command(name, grid, required, optional=None, positional=()):
    """Subcommand, options (``--out`` among the optional ones), a grid
    (usually the given one) and a solver budget small enough that a
    non-converging solve stops quickly."""
    return st.tuples(
        mix([list(positional)], [[], ["x"]]) if positional else st.just([]),
        options(required, {**(optional or {}), "--out": OUT}),
        mix([grid], ["100", "0", "x"]),
        mix(["50", "500"], ["1", "0", "x"]),
    ).map(lambda p: [name, *p[0], *p[1], "--grid-n", p[2], "--max-iterations", p[3]])


ARGV = st.one_of(
    command(
        "energy", "64",
        {"--fn": FN, "--alpha": ALPHA},
        {"--arc-i": ARC, "--arc-j": ARC, "--fourier": FLAG},
    ),
    command(
        "capacity", "64",
        {"--method": mix(["classical", "l2", "compare"], ["x"]),
         "--alpha": mix(["0", "0.25", "0.5", "0.75"], BAD_NUMBERS), "--set": SET},
    ),
    command(
        "extend", "512",
        {"--fn": FN, "--theta": mix(["0.6", "1.0"], BAD_NUMBERS),
         "--gamma": mix(["0.75", "0.9"], BAD_NUMBERS)},
        {"--alpha": ALPHA},
    ),
    command(
        "poincare-check", "64",
        {
            "--alpha": mix(["0.75", "1"], BAD_NUMBERS),
            "--beta": mix(["0.5", "0.75"], BAD_NUMBERS),
            "--gamma": mix(["0.75", "0.9"], BAD_NUMBERS),
            "--set": mix(['{"arcs": [[0, 0.1]]}', '{"arcs": [[-0.3, -0.2], [0.2, 0.25]]}']) | SET,
            "--arc": mix(["[-0.6, 0.6]", '{"center": 0, "length": 1.5}'], ["full"]) | ARC,
            "--fn": mix(["builtin:spike,delta=0.1", "builtin:spike,delta=0.3"]) | FN,
        },
        {"--sweep": mix(["0", "2"], ["-1", "x"])},
    ),
    command(
        "series", "64",
        {},
        {"--rule": RULE, "--s": mix(["0.25", "0.5"], BAD_NUMBERS),
         "--n": mix(["1", "40"], ["-1", "0", "x"]), "--arcs": FAMILY,
         "--alpha": mix(["0.8"], BAD_NUMBERS), "--beta": mix(["0.8", "0.5"], BAD_NUMBERS),
         "--spec": SPEC},
        positional=["cantor-capacity"],
    ),
    command("series", "64", {"--arcs": FAMILY}, {"--n": mix(["5", "40"], ["-1", "0"])},
            positional=["carleson"]),
    command(
        "series", "64",
        {"--spec": SPEC},
        {"--alpha": mix(["0.8"], BAD_NUMBERS), "--beta": mix(["0.8", "0.5"], BAD_NUMBERS)},
        positional=["uniqueness"],
    ),
    command(
        "cantor", "64",
        {"--rule": RULE, "--depth": mix(["0", "2", "5"], ["-1", "x", "40"])},
        {"--offset": mix(["3", "4"], ["-1", "0", "x"]), "--host": ARC, "--scale-to-host": FLAG},
    ),
    # The selftest takes no solver options (a loose tolerance or a tiny
    # budget legitimately fails a criterion, exit 1) and runs at 128
    # cells, the smallest grid at which every criterion passes. The
    # lattice oracle does not depend on the grid and has its own test.
    # A kernel fault is 0 or invalid, as a valid nonzero one also fails
    # a criterion.
    st.tuples(
        st.lists(
            mix([n for n in criterion_names() if n != "small_instance_oracle"], ["", "nope"]),
            min_size=1,
            max_size=3,
        ),
        st.just([]) | st.sampled_from(FAULTS).map(lambda v: [f"--kernel-fault={v}"]),
    ).map(lambda p: ["selftest", "--only", ",".join(p[0]), *p[1], "--grid-n", "128"]),
    st.lists(JUNK, max_size=4),
)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=ARGV)
def test_cli_exit_codes_without_traceback(out_dir, argv):
    argv = [tok.replace("OUT_DIR", str(out_dir)) for tok in argv]
    code, out, err = run_main(argv)
    assert code in (0, 2, 3, 64), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if out:
        json.loads(out, parse_constant=_reject_constant)
