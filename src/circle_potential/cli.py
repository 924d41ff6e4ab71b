"""Command-line front end.

Subcommands map onto the library modules: energy, capacity, extend,
poincare-check, series, cantor, selftest. Results go to standard output
as JSON (keys sorted, so identical command + config + seed reproduces
byte-identical output); plot-ready CSV goes to the --out path when one
is given. Exit codes: 0 success, 2 precondition/setup errors, 3 solver
non-convergence, 64 usage, 141 (128 + SIGPIPE) when the reader of
standard output closes it early.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .acceptance import run_all
from .capacity import (
    SolverConfig,
    classical_capacity,
    comparability_report,
    l2_capacity,
)
from .circle import FULL_CIRCLE, Arc, ArcFamily, CircleGrid, GridSet
from .energy import (
    BoundarySamples,
    energy_report,
    fourier_energy,
    fourier_from_samples,
    monomial,
    random_trig_polynomial,
)
from .errors import CirclePotentialError, ConvergenceError, PreconditionError
from .extension import (
    ExtensionSetup,
    bump_phi,
    bump_slope_constant,
    extend,
    extension_ratio,
    six_term_decomposition,
    test_function_F,
)
from .poincare import poincare_check, spike_function
from .uniqueness import (
    CantorSpec,
    PowerChoice,
    RatioRule,
    TableRule,
    cantor_build,
    cantor_capacity_series,
    cantor_grid_set,
    cantor_parts_in_arcs,
    carleson_sum,
    geometric_arcs,
    log_reciprocal_arcs,
    uniqueness_series,
)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 128 + 13  # the shell's status for a SIGPIPE death


class UsageParser(argparse.ArgumentParser):
    """ArgumentParser that exits 64 on usage problems."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass(frozen=True)
class Config:
    grid_n: int = 4096
    fourier_m: int | None = None
    seed: int = 2023
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.grid_n < 64 or self.grid_n & (self.grid_n - 1):
            raise PreconditionError(
                f"grid_n must be a power of two >= 64, got {self.grid_n}"
            )
        if self.seed < 0:
            raise PreconditionError(f"seed must be >= 0, got {self.seed}")
        if self.fourier_m is None:
            object.__setattr__(self, "fourier_m", self.grid_n // 4)
        if not 1 <= self.fourier_m <= self.grid_n // 2:
            raise PreconditionError(
                f"fourier_m must be in 1..{self.grid_n // 2}, got {self.fourier_m}"
            )

    @property
    def grid(self) -> CircleGrid:
        return CircleGrid(self.grid_n)

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# argument ingestion
# ---------------------------------------------------------------------------


def _load_json_arg(text: str):
    """Inline JSON when the argument looks like an object or an array,
    else a path to a JSON file."""
    candidate = text.strip()
    if not candidate.startswith(("{", "[")):
        try:
            with open(candidate) as fh:
                candidate = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise PreconditionError(f"cannot read JSON argument: {exc}")
    try:
        obj = json.loads(candidate)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"malformed JSON argument: {exc}")
    if not isinstance(obj, (dict, list)):
        raise PreconditionError("JSON argument must be an object or an array")
    return obj


_REQUIRED = object()


def _field(obj, key, kind, default=_REQUIRED):
    """``kind(obj[key])`` for a spec read from JSON; ``default`` when the
    key is absent or null. A non-object, a missing required key or a
    value ``kind`` rejects raises PreconditionError."""
    if not isinstance(obj, dict):
        raise PreconditionError(f"expected a JSON object, got {obj!r}")
    if obj.get(key) is None:
        if default is _REQUIRED:
            raise PreconditionError(f"spec {obj!r} needs the key {key!r}")
        return default
    try:
        return kind(obj[key])
    except (TypeError, ValueError, OverflowError):
        raise PreconditionError(f"malformed {key!r} in spec: {obj[key]!r}")


def _arc_from_obj(obj) -> Arc:
    if isinstance(obj, list) and len(obj) == 2:
        obj = {"start": obj[0], "end": obj[1]}
    if isinstance(obj, dict):
        if "start" in obj and "end" in obj:
            return Arc(_field(obj, "start", float), _field(obj, "end", float))
        if "center" in obj and "length" in obj:
            return Arc.centered(_field(obj, "center", float), _field(obj, "length", float))
    raise PreconditionError(f"cannot interpret arc spec {obj!r}")


def parse_rule(text: str):
    kind, _, rest = text.partition(":")
    if kind == "table":
        try:
            return TableRule(tuple(float(x) for x in rest.split(",") if x))
        except ValueError:
            raise PreconditionError(f"malformed table rule {text!r}")
    kv = _kv_pairs(rest)
    try:
        if kind == "power":
            return PowerChoice(float(kv["beta"]))
        if kind == "ratio":
            return RatioRule(float(kv["r"]), float(kv.get("l0", 1.0)))
    except (KeyError, ValueError):
        raise PreconditionError(f"malformed rule spec {text!r}")
    raise PreconditionError(f"unknown rule kind {kind!r} (power, ratio, table)")


def _set_from_obj(grid: CircleGrid, obj) -> GridSet:
    if not isinstance(obj, dict):
        raise PreconditionError(f"set JSON must be an object, got {obj!r}")
    if "arcs" in obj:
        mask = np.zeros(grid.n_points, dtype=bool)
        for sub in _field(obj, "arcs", list):
            mask |= grid.mask_of(_arc_from_obj(sub), mode="cover")
        return GridSet(grid, mask)
    if "cantor" in obj:
        spec = _field(obj, "cantor", dict)
        host = spec.get("host", "full")
        return cantor_grid_set(
            CantorSpec(
                rule=parse_rule(_field(spec, "rule", str)),
                depth=_field(spec, "depth", int),
                host=None if host in (None, "full") else _arc_from_obj(host),
                offset=_field(spec, "offset", int, None),
                scale_to_host=bool(spec.get("scale_to_host", False)),
            ),
            grid,
        )
    if "union" in obj:
        out = GridSet.empty(grid)
        for sub in _field(obj, "union", list):
            out = out.union(_set_from_obj(grid, sub))
        return out
    raise PreconditionError(
        "set JSON must contain one of 'arcs', 'cantor', 'union'"
    )


def parse_set(grid: CircleGrid, text: str) -> GridSet:
    if text == "full":
        return GridSet.full(grid)
    if text == "half":
        return GridSet.from_arcs(grid, Arc(-math.pi / 2.0, math.pi / 2.0), mode="cover")
    return _set_from_obj(grid, _load_json_arg(text))


def parse_arc(text: str):
    """Arc JSON, or the name 'full' for the whole circle."""
    if text == "full":
        return FULL_CIRCLE
    return _arc_from_obj(_load_json_arg(text))


def _kv_pairs(rest: str) -> dict:
    kv = {}
    for item in rest.split(","):
        if not item:
            continue
        key, sep, val = item.partition("=")
        if not sep:
            raise PreconditionError(f"malformed parameter {item!r}")
        kv[key] = val
    return kv


def parse_fn(
    grid: CircleGrid, text: str, seed: int, e_set: GridSet | None = None
) -> BoundarySamples:
    """Builtin generators (monomial, trigpoly, constant, spike) or a CSV
    of (angle, re, im) samples interpolated onto the grid."""
    if text.startswith("builtin:"):
        body = text[len("builtin:") :]
        name, _, rest = body.partition(",")
        kv = _kv_pairs(rest)
        try:
            if name == "monomial":
                return monomial(grid, int(kv["n"]))
            if name == "trigpoly":
                rng = np.random.default_rng(int(kv.get("seed", seed)))
                return random_trig_polynomial(grid, int(kv.get("degree", 6)), rng)[0]
            if name == "constant":
                return BoundarySamples.constant(
                    grid, complex(float(kv.get("re", 1.0)), float(kv.get("im", 0.0)))
                )
            if name == "spike":
                if e_set is None:
                    raise PreconditionError("builtin:spike needs --set for its zero set")
                return spike_function(e_set, float(kv["delta"]))
        except (KeyError, ValueError):
            raise PreconditionError(f"malformed builtin function {text!r}")
        raise PreconditionError(
            f"unknown builtin {name!r} (monomial, trigpoly, constant, spike)"
        )
    try:
        rows = []
        with open(text, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].lstrip().startswith("#") or row[0] == "angle":
                    continue
                rows.append((float(row[0]), float(row[1]), float(row[2]) if len(row) > 2 else 0.0))
    except OSError as exc:
        raise PreconditionError(f"cannot read samples: {exc}")
    except (ValueError, IndexError):
        raise PreconditionError(f"malformed CSV sample file {text!r}")
    if len(rows) < 2:
        raise PreconditionError("need at least 2 CSV samples")
    rows.sort()
    t = np.array([r[0] for r in rows])
    re = np.array([r[1] for r in rows])
    im = np.array([r[2] for r in rows])
    tp = np.concatenate([[t[-1] - 2.0 * math.pi], t, [t[0] + 2.0 * math.pi]])
    rep = np.concatenate([[re[-1]], re, [re[0]]])
    imp = np.concatenate([[im[-1]], im, [im[0]]])
    vals = np.interp(grid.angles, tp, rep) + 1j * np.interp(grid.angles, tp, imp)
    return BoundarySamples(grid, vals)


def parse_family(spec) -> ArcFamily:
    """A named family (``log-recip,n=..`` or ``geometric,ratio=..``), arc
    family JSON (inline or a path), or an already parsed JSON object."""
    if isinstance(spec, str):
        kind, _, rest = spec.partition(",")
        if kind.startswith("log-recip"):
            return log_reciprocal_arcs(_field(_kv_pairs(rest), "n", int, 1000))
        if kind.startswith("geometric"):
            kv = _kv_pairs(rest)
            return geometric_arcs(
                _field(kv, "ratio", float, 0.5),
                _field(kv, "count", int, 60),
                _field(kv, "start", float, 0.0),
            )
        spec = _load_json_arg(spec)
    if not isinstance(spec, dict) or "arcs" not in spec:
        raise PreconditionError("arc family JSON must contain 'arcs'")
    return ArcFamily(tuple(_arc_from_obj(sub) for sub in _field(spec, "arcs", list)))


def _write_csv(path: str, header: list[str], rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise PreconditionError(f"cannot write CSV output: {exc}")


def _write_samples_csv(path: str, f: BoundarySamples) -> None:
    _write_csv(path, ["angle", "re", "im"], zip(f.grid.angles, f.values.real, f.values.imag))


def _emit(payload: dict) -> None:
    # non-finite floats become null, so stdout is strict (RFC 8259) JSON
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    print(json.dumps(strict, sort_keys=True, indent=2, allow_nan=False))


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_energy(args, cfg: Config) -> int:
    grid = cfg.grid
    f = parse_fn(grid, args.fn, cfg.seed)
    arc_i = parse_arc(args.arc_i) if args.arc_i else FULL_CIRCLE
    arc_j = parse_arc(args.arc_j) if args.arc_j else arc_i
    report = energy_report(f, arc_i, arc_j, args.alpha)
    payload = {"config": cfg.to_json(), "energy": report}
    if args.fourier:
        coeffs = fourier_from_samples(f, cfg.fourier_m)
        payload["fourier_energy"] = fourier_energy(coeffs, args.alpha)
    _emit(payload)
    if args.out:
        _write_samples_csv(args.out, f)
    return EXIT_OK


def _cmd_capacity(args, cfg: Config) -> int:
    grid = cfg.grid
    e = parse_set(grid, args.set)
    if args.method == "compare":
        report = comparability_report(e, args.alpha, cfg.solver)
        _emit({"config": cfg.to_json(), "comparability": report.to_json()})
        return EXIT_OK
    solve = classical_capacity if args.method == "classical" else l2_capacity
    est = solve(e, args.alpha, cfg.solver)
    _emit({"config": cfg.to_json(), "estimate": est.to_json()})
    if args.out:
        _write_csv(args.out, ["angle", "weight"], zip(grid.angles, est.minimizer))
    return EXIT_OK


def _cmd_extend(args, cfg: Config) -> int:
    grid = cfg.grid
    setup = ExtensionSetup(theta=args.theta, gamma=args.gamma)
    f = parse_fn(grid, args.fn, cfg.seed)
    f_tilde = extend(f, setup)
    ratio = extension_ratio(f, setup, args.alpha)
    parts = six_term_decomposition(f_tilde, setup, args.alpha)
    phi = bump_phi(grid, setup)
    test_fn = test_function_F(f_tilde, phi, setup)
    payload = {
        "config": cfg.to_json(),
        "setup": {
            "theta": setup.theta,
            "gamma": setup.gamma,
            "theta_gamma": setup.theta_gamma,
            "arc_j": setup.arc_j.to_json(),
            "c_gamma": bump_slope_constant(setup),
        },
        "ratio": ratio.to_json(),
        "six_terms": parts,
        "mean_abs_on_j": test_fn.m,
    }
    _emit(payload)
    if args.out:
        _write_csv(
            args.out,
            ["angle", "ext_re", "ext_im", "phi", "test_fn"],
            zip(
                grid.angles,
                f_tilde.values.real,
                f_tilde.values.imag,
                phi.values.real,
                test_fn.samples.values.real,
            ),
        )
    return EXIT_OK


def _cmd_poincare(args, cfg: Config) -> int:
    if args.sweep < 0:
        raise PreconditionError(f"--sweep must be >= 0, got {args.sweep}")
    grid = cfg.grid
    e = parse_set(grid, args.set)
    arc = parse_arc(args.arc)
    if not isinstance(arc, Arc):
        raise PreconditionError("poincare-check needs a proper arc, not 'full'")
    f = parse_fn(grid, args.fn, cfg.seed, e_set=e)
    report = poincare_check(f, e, arc, args.alpha, args.beta, args.gamma, cfg.solver)
    payload = {"config": cfg.to_json(), "report": report.to_json()}
    if args.sweep:
        if not args.out:
            raise PreconditionError("--sweep needs --out for its CSV")
        deltas = np.geomspace(arc.length / 64.0, arc.length / 2.0, args.sweep)
        rows = []
        for d in deltas:
            g = spike_function(e, float(d))
            rep = poincare_check(g, e, arc, args.alpha, args.beta, args.gamma, cfg.solver)
            rows.append((float(d), rep.ratio, rep.lhs, rep.cap, rep.energy))
        _write_csv(args.out, ["delta", "ratio", "lhs", "cap", "energy"], rows)
        payload["sweep_points"] = args.sweep
    _emit(payload)
    if args.out and not args.sweep:
        _write_samples_csv(args.out, f)
    return EXIT_OK


def _cmd_series(args, cfg: Config) -> int:
    if args.kind == "cantor-capacity":
        diag = cantor_capacity_series(parse_rule(args.rule), args.s, args.n)
    elif args.kind == "carleson":
        fam = parse_family(args.arcs)
        diag = carleson_sum(fam, args.n)
    else:
        spec = _load_json_arg(args.spec)
        rule = parse_rule(_field(spec, "rule", str))
        fam = parse_family(spec.get("arcs"))
        parts = cantor_parts_in_arcs(
            rule, _field(spec, "depth", int, 4), fam, cfg.grid, _field(spec, "offset", int, None)
        )
        diag = uniqueness_series(
            parts, fam, args.alpha, args.beta, cfg.solver, args.n
        )
    payload = {"config": cfg.to_json(), "series": diag.to_json()}
    _emit(payload)
    if args.out:
        _write_csv(args.out, ["n", "partial_sum"], diag.csv_rows())
    return EXIT_OK


def _cmd_cantor(args, cfg: Config) -> int:
    host = None if args.host == "full" else parse_arc(args.host)
    spec = CantorSpec(
        rule=parse_rule(args.rule),
        depth=args.depth,
        host=host,
        offset=args.offset,
        scale_to_host=args.scale_to_host,
    )
    fam = cantor_build(spec)
    payload = {
        "config": cfg.to_json(),
        "arcs": fam.to_json(),
        "count": len(fam),
        "stage_lengths": [spec.stage_length(k) for k in range(spec.depth + 1)],
    }
    _emit(payload)
    if args.out:
        _write_csv(
            args.out,
            ["start", "end", "length"],
            ((float(a.start), float(a.end), a.length) for a in fam),
        )
    return EXIT_OK


def _cmd_selftest(args, cfg: Config) -> int:
    only = args.only.split(",") if args.only is not None else None
    report = run_all(
        grid_n=cfg.grid_n,
        seed=cfg.seed,
        solver=cfg.solver,
        kernel_fault_scale=args.kernel_fault,
        only=only,
    )
    for item in report["criteria"]:
        status = "PASS" if item["passed"] else "FAIL"
        print(f"{status} {item['name']}", file=sys.stderr)
    _emit(report)
    return EXIT_OK if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-n", type=int, default=None, help="grid cells (power of two >= 64)")
    p.add_argument("--seed", type=int, default=None, help="seed for builtin random inputs")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--tolerance", type=float, default=None, help="solver stationarity tolerance")
    p.add_argument(
        "--max-iterations", type=int, default=None, help="capacity solver budget, in polish solves"
    )
    p.add_argument("--out", default=None, help="CSV output path")


def _config_from_args(args) -> Config:
    cfg = Config()
    if getattr(args, "config", None):
        raw = _load_json_arg(args.config)
        solver_raw = _field(raw, "solver", dict, {})
        cfg = Config(
            grid_n=_field(raw, "grid_n", int, cfg.grid_n),
            fourier_m=_field(raw, "fourier_m", int, None),
            seed=_field(raw, "seed", int, cfg.seed),
            solver=SolverConfig(
                tolerance=_field(solver_raw, "tolerance", float, cfg.solver.tolerance),
                max_iterations=_field(
                    solver_raw, "max_iterations", int, cfg.solver.max_iterations
                ),
            ),
        )

    def pick(name, default):
        value = getattr(args, name, None)
        return default if value is None else value

    grid_n = pick("grid_n", cfg.grid_n)
    seed = pick("seed", cfg.seed)
    solver = SolverConfig(
        tolerance=pick("tolerance", cfg.solver.tolerance),
        max_iterations=pick("max_iterations", cfg.solver.max_iterations),
    )
    fourier_m = cfg.fourier_m if grid_n == cfg.grid_n else None
    return Config(grid_n=grid_n, fourier_m=fourier_m, seed=seed, solver=solver)


def build_parser() -> UsageParser:
    parser = UsageParser(prog="circle-potential", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", help="localized fractional Dirichlet energy")
    p.add_argument("--fn", required=True, help="CSV path or builtin:name,args")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--arc-i", default=None, help="arc JSON or 'full'")
    p.add_argument("--arc-j", default=None, help="arc JSON (defaults to --arc-i)")
    p.add_argument("--fourier", action="store_true", help="add the spectral-side energy")
    _add_common(p)
    p.set_defaults(handler=_cmd_energy)

    p = sub.add_parser("capacity", help="classical or L2 capacity of a set")
    p.add_argument("--method", choices=("classical", "l2", "compare"), required=True)
    p.add_argument(
        "--alpha",
        type=float,
        required=True,
        help="kernel exponent (classical), parameter (l2), or beta (compare)",
    )
    p.add_argument("--set", required=True, help="set JSON, 'full', or 'half'")
    _add_common(p)
    p.set_defaults(handler=_cmd_capacity)

    p = sub.add_parser("extend", help="reflection extension and its energy cost")
    p.add_argument("--fn", required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    _add_common(p)
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser("poincare-check", help="capacitary Poincare components")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--arc", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--sweep", type=int, default=0, help="CSV sweep over spike sharpness")
    _add_common(p)
    p.set_defaults(handler=_cmd_poincare)

    p = sub.add_parser("series", help="series diagnostics")
    p.add_argument("kind", choices=("cantor-capacity", "carleson", "uniqueness"))
    p.add_argument("--rule", default="power:beta=0.5")
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--arcs", default="geometric,ratio=0.5,count=60")
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--beta", type=float, default=0.8)
    p.add_argument("--spec", default=None, help="uniqueness assembly JSON")
    _add_common(p)
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("cantor", help="generalized Cantor set geometry")
    p.add_argument("--rule", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--offset", type=int, default=None)
    p.add_argument("--host", default="full")
    p.add_argument("--scale-to-host", action="store_true")
    _add_common(p)
    p.set_defaults(handler=_cmd_cantor)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--kernel-fault", type=float, default=0.0,
                   help="fault-injection hook: scale kernel tables by 1 + s, s > -1")
    p.add_argument("--only", default=None, help="comma-separated criterion names")
    _add_common(p)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "series":
            if args.kind == "cantor-capacity" and args.n is None:
                args.n = 20_000
            if args.kind == "uniqueness" and args.spec is None:
                parser.error("series uniqueness needs --spec")
        code = args.handler(args, cfg)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at /dev/null so the final
        # flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except CirclePotentialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
