"""Command-line interface: simulate, fit, sensitivity, diagnose, bench.

Every run emits a JSON report embedding the effective configuration, the
seed, the package version, and the wall-clock duration, so any output file
can be traced back to the exact invocation. Row-shaped outputs (datasets,
sensitivity curves) are CSV; everything else is JSON.

Exit codes: 0 success, 2 usage error, 3 data error (a malformed dataset, or
any ``OSError``, such as a file that cannot be read), 4 numerical or
convergence failure (an ``EstimationError`` or a ``LinAlgError``). Any other
exception is a bug and surfaces as a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .data import Schema, load_dataset, save_dataset, validate
from .diagnostics import run_diagnostics
from .errors import DataError, EstimationError
from .identify import check_rho
from .models import (
    ALL_METHODS,
    bootstrap,
    check_method,
    estimate_sace,
    fit_survival_sm,
    method_rhos,
    sensitivity_sweep,
)
from .simulate import SimulationSetting, gen_dataset, run_benchmark

class UsageError(Exception):
    pass


def _usage(check, *args):
    """Run a library input check, reporting its ValueError as a usage error."""
    try:
        return check(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_outputs(inputs, outputs):
    """Refuse, before any write, an output path that is a directory, whose
    directory does not exist, or that names an input or another output."""
    seen = {os.path.realpath(path) for path in filter(None, inputs)}
    for path in filter(None, outputs):
        real = os.path.realpath(path)
        if os.path.isdir(real):
            raise UsageError(f"output path {path} is a directory")
        if not os.path.isdir(os.path.dirname(real)):
            raise UsageError(f"output path {path}: its directory does not exist")
        if real in seen:
            raise UsageError(f"output path {path} names an input or another output")
        seen.add(real)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sacekit",
        description="Survivor average causal effect estimation "
        "for outcomes truncated by death.",
    )
    parser.add_argument("--version", action="version", version=f"sacekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument(
            "--config",
            help="plain-text config file (key = value per line, # comments); "
            "command-line flags override file values",
        )

    def add_schema(p):
        p.add_argument("--z-col", default="z", help="treatment column name")
        p.add_argument("--s-col", default="s", help="survival column name")
        p.add_argument("--y-col", default="y", help="outcome column name")
        p.add_argument("--a-col", default="a", help="substitution variable column name")
        p.add_argument(
            "--covariates",
            help="comma-separated covariate columns (default: all other columns)",
        )

    p = sub.add_parser("simulate", help="draw a synthetic dataset")
    add_config(p)
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--delta1", type=int, choices=(0, 1), default=0,
                   help="1 = confounded treatment assignment")
    p.add_argument("--delta2", type=int, choices=(0, 1), default=0,
                   help="1 = survival class depends on covariates")
    p.add_argument("--er-violation", action="store_true",
                   help="outcome means shift with the substitution variable")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="dataset CSV path")
    p.add_argument("--oracle-out", help="latent-truth side-file CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="estimate the always-survivor effect")
    add_config(p)
    add_schema(p)
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--method", required=True, choices=ALL_METHODS)
    p.add_argument("--rho", type=float,
                   help="sensitivity level (stochastic methods only)")
    p.add_argument("--bootstrap", type=int, default=0, metavar="B",
                   help="bootstrap replicates (0 = point estimate only); each is "
                        "fitted on its distinct rows with integer frequency weights")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sensitivity", help="sweep the effect over rho")
    add_config(p)
    add_schema(p)
    p.add_argument("--data", required=True)
    p.add_argument("--rho-grid", default="0:1:0.05",
                   help="start:stop:step (inclusive) or comma-separated values")
    p.add_argument("--assume-er", choices=("true", "false", "both"), default="true",
                   help="outcome-stage variant(s); 'both' writes two curves")
    p.add_argument("--out", required=True, help="curve CSV path")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("diagnose", help="screen the observable implications")
    add_config(p)
    add_schema(p)
    p.add_argument("--data", required=True)
    p.add_argument("--bins", type=int, default=2,
                   help="quantile bins per covariate for cell formation")
    p.add_argument("--rho", type=float,
                   help="enables the control-arm mean-structure screen")
    p.add_argument("--validate", action="store_true",
                   help="include structural validation counts in the report")
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("bench", help="replicate benchmark over a scenario grid")
    add_config(p)
    p.add_argument("--table2", action="store_true",
                   help="preset: full delta grid, n in {200,1000,5000}, "
                   "methods naive,dgyz,prop-er,prop-ni")
    p.add_argument("--table3", action="store_true",
                   help="preset: same grid with the exclusion-violating outcome")
    p.add_argument("--settings",
                   help="semicolon list of d1,d2[,er] triples, e.g. '0,0;1,0,er'")
    p.add_argument("--sizes", default="200,1000,5000",
                   help="comma-separated sample sizes")
    p.add_argument("--methods", default="naive,dgyz,prop-er,prop-ni")
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--rho", type=float,
                   help="sensitivity level for stochastic methods")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.add_argument("--table", action="store_true",
                   help="also print the formatted text table")
    p.set_defaults(func=cmd_bench)

    return parser


def _with_config(parser, argv):
    """``argv`` with the key = value lines of its ``--config`` file, if any, read in.

    Each line becomes a flag placed right after the subcommand, so that a
    flag given on the command line overrides it. ``--config`` itself stays in
    ``argv`` for the subcommand's parser, which also tells which keys name
    flags that take no value: those take a boolean.
    """
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        raise UsageError("--config needs a path") from None
    if path is None:
        return argv
    if argv[0].startswith("-"):
        raise UsageError("--config must follow a subcommand")
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if argv[0] not in commands:
        return argv  # argparse names the unknown subcommand
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(
                        f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
                    )
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    actions = commands[argv[0]]._option_string_actions
    prefix = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if flag in actions and actions[flag].nargs == 0:
            if value.lower() in ("1", "true", "yes", "on"):
                prefix.append(flag)
            elif value.lower() not in ("0", "false", "no", "off"):
                raise UsageError(f"config key {key}: expected a boolean, got {value!r}")
        else:
            prefix.extend([flag, value])
    return argv[:1] + prefix + argv[1:]


def _schema_from_args(args):
    covariates = None
    if getattr(args, "covariates", None):
        covariates = tuple(
            name.strip() for name in args.covariates.split(",") if name.strip()
        )
    return Schema(
        z=args.z_col, s=args.s_col, y=args.y_col, a=args.a_col, covariates=covariates
    )


def _envelope(args, result, started):
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "command", "config")
    }
    return {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "duration_s": round(time.monotonic() - started, 6),
        "config": config,
        "result": result,
    }


def parse_rho_grid(spec):
    """Parse 'start:stop:step' (inclusive endpoints) or 'v1,v2,...'."""
    spec = spec.strip()
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = bounds = [float(p) for p in parts]
            for part, v in zip(parts, bounds):
                if not np.isfinite(v):
                    raise ValueError(f"{part.strip()!r} is not a finite number")
            if step <= 0 or stop < start:
                raise ValueError("need step > 0 and stop >= start")
            count = int(round((stop - start) / step))
            grid = [start + k * step for k in range(count + 1)]
            grid = [round(v, 12) for v in grid if v <= stop + 1e-12]
        else:
            grid = [float(p) for p in spec.split(",") if p.strip()]
    except ValueError as exc:
        raise UsageError(f"bad rho grid {spec!r}: {exc}") from None
    if not grid:
        raise UsageError("rho grid is empty")
    for v in grid:
        try:
            check_rho(v)
        except ValueError:
            raise UsageError(f"rho grid value {v} outside [0, 1]") from None
    return grid


def cmd_simulate(args):
    # a file without data rows is one load_dataset rejects
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    _check_outputs([args.config], [args.out, args.oracle_out])
    setting = _usage(
        SimulationSetting, args.n, args.delta1, args.delta2, args.er_violation, args.seed
    )
    data, oracle = gen_dataset(setting)
    save_dataset(data, args.out)
    files = {"dataset": args.out}
    if args.oracle_out:
        oracle.save(args.oracle_out)
        files["oracle"] = args.oracle_out
    return {"n": len(data), "files": files}, None, None


def cmd_fit(args):
    _usage(check_method, args.method, args.rho)
    if args.bootstrap < 0 or args.bootstrap == 1:
        raise UsageError("--bootstrap must be 0 or at least 2")
    _check_outputs([args.data, args.config], [args.out])
    data = load_dataset(args.data, schema=_schema_from_args(args))
    if args.bootstrap:
        estimate = bootstrap(
            data, args.method, n_boot=args.bootstrap, seed=args.seed, rho=args.rho
        )
    else:
        estimate = estimate_sace(data, args.method, rho=args.rho)
    return estimate.to_dict(), args.out, None


def _curve_paths(out, variants):
    if len(variants) == 1:
        return {variants[0]: out}
    stem, ext = os.path.splitext(out)
    return {v: f"{stem}.{'er' if v == 'true' else 'ni'}{ext or '.csv'}" for v in variants}


def cmd_sensitivity(args):
    grid = parse_rho_grid(args.rho_grid)
    variants = ["true", "false"] if args.assume_er == "both" else [args.assume_er]
    paths = _curve_paths(args.out, variants)
    _check_outputs([args.data, args.config], paths.values())

    data = load_dataset(args.data, schema=_schema_from_args(args))
    survival = fit_survival_sm(data)
    result = {"grid_points": len(grid), "curves": {}}
    for variant in variants:
        curve = sensitivity_sweep(
            data, grid, assume_er=(variant == "true"), survival=survival
        )
        curve.to_csv(paths[variant])
        failed = sum(1 for r in curve.rows if not np.isfinite(r.effect))
        result["curves"][
            "assume_er" if variant == "true" else "no_interaction"
        ] = {"file": paths[variant], "failed_points": failed}
    return result, None, None


def cmd_diagnose(args):
    if args.bins < 1:
        raise UsageError("--bins must be at least 1")
    if args.rho is not None:
        _usage(check_rho, args.rho)
    _check_outputs([args.data, args.config], [args.out])
    data = load_dataset(args.data, schema=_schema_from_args(args))
    report = run_diagnostics(data, bins=args.bins, rho=args.rho)
    result = report.to_dict()
    if args.validate:
        result["validation"] = validate(data).to_dict()
    return result, args.out, report.format_text() if args.out else None


def _parse_settings(args):
    flags = {"--table2": args.table2, "--table3": args.table3, "--settings": args.settings}
    given = [flag for flag, value in flags.items() if value not in (False, None)]
    if len(given) > 1:
        raise UsageError(f"{' and '.join(given)} each set the grid; give one")
    if args.table2 or args.table3:
        er = bool(args.table3)
        return [(d1, d2, er) for d1 in (0, 1) for d2 in (0, 1)]
    if not args.settings:
        raise UsageError("provide --table2, --table3, or --settings")
    settings = []
    for part in args.settings.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = [f.strip() for f in part.split(",")]
        if len(fields) not in (2, 3):
            raise UsageError(f"bad settings entry {part!r}, expected d1,d2[,er]")
        try:
            d1, d2 = int(fields[0]), int(fields[1])
        except ValueError:
            raise UsageError(f"bad settings entry {part!r}") from None
        if len(fields) == 3 and fields[2].lower() not in ("er", "true", "1", "yes"):
            raise UsageError(f"bad settings entry {part!r}, its third field must be er")
        er = len(fields) == 3
        _usage(SimulationSetting, 0, d1, d2)
        settings.append((d1, d2, er))
    if not settings:
        raise UsageError("no settings parsed")
    return settings


def cmd_bench(args):
    if args.reps < 1:
        raise UsageError("--reps must be at least 1")
    settings = _parse_settings(args)
    try:
        sizes = [int(v) for v in args.sizes.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad --sizes {args.sizes!r}") from None
    if not sizes or any(n < 1 for n in sizes):
        raise UsageError("--sizes must be positive integers")
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    _usage(method_rhos, methods, args.rho)
    _check_outputs([args.config], [args.out])

    report = run_benchmark(
        settings, sizes, methods, reps=args.reps, seed=args.seed, rho=args.rho
    )
    return report.to_dict(), args.out, report.format_table() if args.table else None


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(parser, argv))
        if getattr(args, "seed", 0) < 0:
            raise UsageError("--seed must be non-negative")
        started = time.monotonic()
        result, out_path, text = args.func(args)
        report = json.dumps(_envelope(args, result, started), indent=2)
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(report + "\n")
        else:
            print(report)
        if text is not None:
            print(text)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (EstimationError, np.linalg.LinAlgError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
