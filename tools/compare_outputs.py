"""Compare what two trees compute on one fixed battery of library calls.

Usage, from the root of a checkout::

    python3 tools/compare_outputs.py --parent HEAD

Two clean copies are made in a temporary directory, exactly as
``tools/bench_pairs.py`` makes them: the parent from ``git archive`` of
``--parent``, the change from the files of the working tree that git
tracks or would track. In each copy this script runs the battery below in
a subprocess that imports that copy's ``src/sacekit``, and dumps every
result as JSON (floats written by ``repr``, dict keys in their own order).
The battery:

- ``estimate_sace`` for all six methods (rho = 0.5 where a method needs
  it) on six ``gen_dataset`` draws from n=200 to n=20000, one with
  ``er_violation``;
- ``bootstrap`` with B=20 for prop-er, prop-ni, prop-sm and prop-sm-ni on
  each of those draws (prop-ni and prop-sm-ni fit the weighted pooled
  outcome stage on the joint and the arm-wise survival fit);
- the outcome stage of each draw: the coefficients, column names and
  notes of ``fit_outcome_er`` and ``fit_ni`` on the draw's joint survival
  fit and of both ``fit_sm`` variants at rho = 0.5, and the
  ``naive_estimator`` coefficient;
- both 21-point ``sensitivity_sweep`` variants on each draw, and on three
  n=40 draws: two whose control arm has fewer survivors than outcome
  coefficients, so every grid point fails the same way, and one whose
  control-arm covariate columns are rank deficient;
- the data layout of each of the six draws: z, a, s and the survivor
  outcomes of ``data.subset(rows)``, ``rows`` being one draw of n row
  indices with replacement from ``rng_stream(seed, 0)``, and the survivor
  outcomes after a ``save_dataset``/``load_dataset`` round trip;
- ``run_diagnostics(...).to_dict()`` on 2-5-level data at bins 1-3, with
  rho None, 0.3 and 1;
- the three ``sace_*`` routes on those data's cell tables, binned as for
  the diagnostics and with the covariates pooled;
- a 2x2 ``run_benchmark`` grid with reps=6 (``duration_s`` left out);
- the files group: an analysis session at n=2000 through
  ``sacekit.cli.main`` (``simulate --out --oracle-out``, ``sensitivity
  --assume-er both``, ``diagnose --validate`` and ``fit --method prop-er``,
  then ``simulate`` and ``fit`` again, each with ``--config`` naming a file
  that sets its options: n, seed and ``er-violation = true``, and the
  method), with relative paths in the battery's directory, recording each
  stdout envelope without ``duration_s`` and the text of the session's
  first four files, line endings included;
- the csv group: ``load_dataset`` on fifteen small files written into the
  battery's directory and read by relative path (LF, CRLF and lone-CR line
  endings; quoted header names holding a comma and a line break; padded and
  quoted fields; a UTF-8 BOM; ``Schema(a="z")``; a header that names a
  covariate twice; a missing role and a missing listed covariate; a survivor
  outcome written with a fullwidth digit; a byte that is not UTF-8 in a
  column that is not read, near the top of the file and past its first
  8 KiB ahead of a bad row; an outcome ``2_5`` and a level code ``1_0``),
  recording the covariate names and the z, s, a, x and survivor outcome
  arrays, or the error.

That is 272 keys: estimate 36, bootstrap 24, outcome 30, sweep 18, data 12,
diagnostics 54, routes 72, benchmark 1, files 10 and csv 15.

A library error (``SacekitError`` or ``ValueError``) is recorded as its
type and message, and warnings as their category and message; any other
exception stops the run. Every key whose result differs is printed with the
maximum relative difference over its numbers ("text" when only text,
types or shapes differ). The exit status is 1 if any key differs.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
from bench_pairs import export_parent, export_worktree, git

RHO = 0.5
DRAWS = [  # (n, delta1, delta2, er_violation, seed)
    (200, 0, 0, False, 901),
    (500, 1, 0, False, 902),
    (1000, 0, 1, False, 903),
    (3000, 1, 1, False, 904),
    (8000, 1, 1, True, 905),
    (20000, 1, 1, False, 906),
]
# seeds of n=40 draws with delta1 = delta2 = 1: in 907 and 909 the control
# arm has 4 survivors, in 903 its covariate columns are rank deficient
SMALL_SEEDS = (907, 909, 903)
LEVEL_DATA = [  # (levels, n, seed) of the multi-level diagnostics data
    (2, 3000, 911),
    (3, 3000, 912),
    (3, 8000, 913),
    (4, 5000, 914),
    (5, 6000, 915),
    (5, 800, 916),
]


def plain(value):
    """``value`` with numpy scalars, arrays and tuples made JSON-native."""
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if hasattr(value, "tolist"):
        return plain(value.tolist())
    return value


def record(call, *args, **kwargs):
    """``call``'s result (through ``plain``) or library error, and its warnings.

    Any other exception is a fault of the battery and stops the run.
    """
    from sacekit.errors import SacekitError

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = {"value": plain(call(*args, **kwargs))}
        except (SacekitError, ValueError) as exc:
            out = {"error": f"{type(exc).__name__}: {exc}"}
    out["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    return out


def levels_dataset(sk, k, n, seed):
    """``k``-level data whose always-survivor share grows with the level.

    Units with ``x2 = 1`` all survive in both arms, so their cells have
    constant mixing weights.
    """
    rng = sk.rng_stream(seed)
    z = rng.integers(0, 2, size=n)
    x = [rng.normal(size=n), rng.integers(0, 2, size=n).astype(float)]
    a = rng.integers(0, k, size=n)
    always = 0.3 + 0.4 * a / max(k - 1, 1) + 0.1 * (x[0] > 0)
    u = rng.uniform(size=n)
    stratum = (u < always).astype(int) + ((u >= always) & (u < always + 0.3)) * 2
    survives = (x[1] == 1) | (stratum == 1) | ((stratum == 2) & (z == 1))
    y = 1.0 + z + 2.0 * (stratum == 1) + 0.5 * x[0] + rng.normal(size=n)
    y[~survives] = float("nan")
    return sk.Dataset.from_arrays(z, np.column_stack(x), a, survives.astype(int), y)


def subset_columns(sk, data, n, seed):
    """z, a, s and survivor outcomes of ``n`` rows drawn with replacement."""
    sub = data.subset(sk.rng_stream(seed, 0).integers(0, n, size=n))
    return {"z": sub.z, "a": sub.a, "s": sub.s, "y": sub.outcomes_at(sub.s == 1)}


def reloaded_outcomes(sk, data, tmp):
    """Survivor outcomes of ``data`` after a CSV save and load."""
    path = os.path.join(tmp, "data.csv")
    sk.save_dataset(data, path)
    back = sk.load_dataset(path)
    return back.outcomes_at(back.s == 1)


CLI_SESSION = {  # command: argv, run in this order with relative paths
    "simulate": ["simulate", "--n", "2000", "--delta1", "1", "--delta2", "1", "--seed", "921",
                 "--out", "sim.csv", "--oracle-out", "sim.oracle.csv"],
    "sensitivity": ["sensitivity", "--data", "sim.csv", "--assume-er", "both",
                    "--out", "curve.csv"],
    "diagnose": ["diagnose", "--data", "sim.csv", "--validate"],
    "fit": ["fit", "--data", "sim.csv", "--method", "prop-er"],
    "simulate --config": ["simulate", "--config", "sim.cfg", "--out", "cfg.csv"],
    "fit --config": ["fit", "--config", "fit.cfg", "--data", "sim.csv"],
}
CLI_CONFIGS = {  # name: text of each config file that CLI_SESSION reads
    "sim.cfg": "n = 500\nseed = 922\ner-violation = true\n",
    "fit.cfg": "method = dgyz\n",
}
CLI_FILES = ("sim.csv", "sim.oracle.csv", "curve.er.csv", "curve.ni.csv")


def cli_files(tmp):
    """Each CLI_SESSION command's exit code and envelope, then each written file's text."""
    from sacekit.cli import main

    results = {}
    here = os.getcwd()
    os.chdir(tmp)
    try:
        for name, text in CLI_CONFIGS.items():
            with open(name, "w") as fh:
                fh.write(text)
        for command, argv in CLI_SESSION.items():
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(argv)
            envelope = json.loads(out.getvalue())
            envelope.pop("duration_s")
            results[f"files/{command}"] = {"value": [code, envelope], "warnings": []}
        for name in CLI_FILES:
            with open(name, newline="") as fh:
                results[f"files/{name}"] = {"value": fh.read(), "warnings": []}
    finally:
        os.chdir(here)
    return results


CSV_ROWS = ["z,s,y,a,x1,x2", "1,1,2.5,0,0.5,1", "0,0,,1,-1.25,0", "1,0,,2,3e2,1"]
LF = "\n".join(CSV_ROWS).encode() + b"\n"
OK_ROW, CAFE = b"1,1,2.5,0,0.5,ok", b"0,0,,1,-1.25,caf\xe9"
UNREAD = {"covariates": ("x1",)}  # the note column is not read


def notes_file(rows):
    """The bytes of a z,s,y,a,x1,note file with these data rows."""
    return b"\n".join([b"z,s,y,a,x1,note", *rows]) + b"\n"


CSV_FILES = {  # name: (bytes, Schema keyword arguments)
    "lf.csv": (LF, {}),
    "crlf.csv": ("\r\n".join(CSV_ROWS).encode() + b"\r\n", {}),
    "cr.csv": ("\r".join(CSV_ROWS).encode() + b"\r", {}),
    "quoted_names.csv": (b'z,s,y,a,"age, years","x\r\n2"\n1,1,2.5,0,44,1\n0,0,,1,51,0\n', {}),
    "padded.csv": (b'"z", s ,y,a,x1\n" 1 ",1 ,"2.5", 0,"-0.0"\n0, 0,,"3",1e-3\n', {}),
    "bom.csv": (b"\xef\xbb\xbf" + LF, {}),
    "role_reuse.csv": (LF, {"a": "z"}),
    "duplicate_name.csv": (b"z,s,y,a,age,age\n1,1,2.5,0,44,45\n0,0,,1,51,52\n", {}),
    "missing_role.csv": (b"z,s,a,x1\n1,1,0,0.5\n", {}),
    "missing_covariate.csv": (LF, {"covariates": ("x1", "bmi")}),
    "non_ascii_outcome.csv": ("z,s,y,a\n1,1,2.0,0\n1,1,\uff12.0,0\n".encode(), {}),
    "unread_byte_near_top.csv": (notes_file([OK_ROW, CAFE, OK_ROW]), UNREAD),
    # the byte past the first 8 KiB (at 8515), then a bad z
    "unread_byte_before_bad_row.csv": (
        notes_file([OK_ROW] * 499 + [CAFE] + [OK_ROW] * 19 + [b"2" + OK_ROW[1:]]), UNREAD
    ),
    "underscore_outcome.csv": (b"z,s,y,a\n1,1,2.0,0\n1,1,2_5,0\n", {}),
    "underscore_code.csv": (b"z,s,y,a\n1,1,2.0,0\n1,1,2.5,1_0\n", {}),
}


def csv_loads(sk, tmp):
    """Each CSV_FILES file through ``load_dataset``: its columns, or the error."""

    def columns(path, schema):
        data = sk.load_dataset(path, schema)
        return {"covariates": data.covariate_names, "z": data.z, "s": data.s, "a": data.a,
                "x": data.x, "y": data.outcomes_at(data.s == 1)}

    results = {}
    here = os.getcwd()
    os.chdir(tmp)
    try:
        for name, (raw, schema) in CSV_FILES.items():
            with open(name, "wb") as fh:
                fh.write(raw)
            results[f"csv/{name}"] = record(columns, name, sk.Schema(**schema))
    finally:
        os.chdir(here)
    return results


def battery(tmp):
    import sacekit as sk
    from sacekit import models
    from sacekit.models import ALL_METHODS

    results = {}
    grid = np.linspace(0.0, 1.0, 21)
    for n, d1, d2, er, seed in DRAWS:
        data, _ = sk.gen_dataset(sk.SimulationSetting(n, d1, d2, er, seed))
        tag = f"n={n},d=({d1},{d2}),er={int(er)}"
        for method in ALL_METHODS:
            rho = RHO if method in ("prop-sm", "prop-sm-ni") else None
            est = record(lambda: sk.estimate_sace(data, method, rho=rho).to_dict())
            results[f"estimate/{tag}/{method}"] = est
        for method, rho in (
            ("prop-er", None), ("prop-ni", None), ("prop-sm", RHO), ("prop-sm-ni", RHO)
        ):
            results[f"bootstrap/{tag}/{method}"] = record(
                lambda: sk.bootstrap(data, method, n_boot=20, seed=seed, rho=rho).to_dict()
            )
        joint = models.fit_survival_er(data)
        for fit in (models.fit_outcome_er, models.fit_ni):
            results[f"outcome/{tag}/{fit.__name__}"] = record(lambda: vars(fit(data, joint)))
        for assume_er in (True, False):
            results[f"outcome/{tag}/fit_sm/assume_er={assume_er}"] = record(
                lambda: vars(models.fit_sm(data, RHO, assume_er).outcome)
            )
        results[f"outcome/{tag}/naive_estimator"] = record(models.naive_estimator, data)
        for assume_er in (True, False):
            results[f"sweep/{tag}/assume_er={assume_er}"] = record(
                lambda: [vars(row) for row in sk.sensitivity_sweep(data, grid, assume_er).rows]
            )
        results[f"data/{tag}/subset"] = record(subset_columns, sk, data, n, seed)
        results[f"data/{tag}/csv_round_trip"] = record(reloaded_outcomes, sk, data, tmp)
    for seed in SMALL_SEEDS:
        data, _ = sk.gen_dataset(sk.SimulationSetting(40, 1, 1, False, seed))
        for assume_er in (True, False):
            results[f"sweep/n=40,seed={seed}/assume_er={assume_er}"] = record(
                lambda: [vars(row) for row in sk.sensitivity_sweep(data, grid, assume_er).rows]
            )
    for k, n, seed in LEVEL_DATA:
        data = levels_dataset(sk, k, n, seed)
        tag = f"levels={k},n={n}"
        tables = {"pooled": sk.CellTable.from_dataset(data, use_x=False)}
        for bins in (1, 2, 3):
            for rho in (None, 0.3, 1.0):
                report = record(lambda: sk.run_diagnostics(data, bins=bins, rho=rho).to_dict())
                results[f"diagnostics/{tag}/bins={bins}/rho={rho}"] = report
            transform = sk.quantile_binner(data.x, bins)
            tables[f"bins={bins}"] = sk.CellTable.from_dataset(data, x_transform=transform)
        for cells, table in tables.items():
            for route in (sk.sace_monotone_exclusion, sk.sace_no_interaction):
                results[f"routes/{tag}/{cells}/{route.__name__}"] = record(route, table)
            results[f"routes/{tag}/{cells}/sace_stochastic_monotone"] = record(
                sk.sace_stochastic_monotone, table, RHO
            )
    bench = sk.run_benchmark(
        [(0, 0, False), (1, 1, True)], [200, 1000], ALL_METHODS, reps=6, seed=77, rho=RHO
    ).to_dict()
    bench.pop("duration_s")
    results["benchmark/2x2"] = {"value": plain(bench), "warnings": []}
    results.update(cli_files(tmp))
    results.update(csv_loads(sk, tmp))
    return results


def max_rel_diff(a, b):
    """Largest relative difference between the numbers of ``a`` and ``b``.

    None when the two differ in anything but numbers: text, types, keys or
    lengths.
    """
    if isinstance(a, bool) or isinstance(b, bool) or type(a) is not type(b):
        return 0.0 if a == b and type(a) is type(b) else None
    if isinstance(a, (int, float)):
        if a == b or (a != a and b != b):
            return 0.0
        if not (math.isfinite(a) and math.isfinite(b)):
            return None
        return abs(a - b) / max(abs(a), abs(b))
    if isinstance(a, dict):
        if list(a) != list(b):
            return None
        diffs = [max_rel_diff(a[k], b[k]) for k in a]
    elif isinstance(a, list):
        if len(a) != len(b):
            return None
        diffs = [max_rel_diff(u, v) for u, v in zip(a, b)]
    else:
        return 0.0 if a == b else None
    return None if None in diffs else max(diffs, default=0.0)


def run_battery(tree, out):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--dump", out, "--tree", tree],
        cwd=tree, env=env, check=True,
    )
    with open(out) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    parser.add_argument("--tree", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.dump:
        import sacekit

        where = os.path.realpath(sacekit.__file__)
        if not where.startswith(os.path.realpath(args.tree) + os.sep):
            raise SystemExit(f"imported {where}, not the copy in {args.tree}")
        with tempfile.TemporaryDirectory(prefix="compare-outputs-data-") as tmp:
            results = battery(tmp)
        with open(args.dump, "w") as fh:
            json.dump(results, fh)
        return 0

    parent_rev = git("rev-parse", args.parent).decode().strip()
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        parent_tree, change_tree = os.path.join(tmp, "parent"), os.path.join(tmp, "change")
        export_parent(parent_rev, parent_tree)
        export_worktree(change_tree)
        parent = run_battery(parent_tree, os.path.join(tmp, "parent.json"))
        change = run_battery(change_tree, os.path.join(tmp, "change.json"))

    keys = list(dict.fromkeys([*parent, *change]))
    differ = 0
    for key in keys:
        if key not in parent or key not in change:
            print(f"DIFFERS {key}: only in the {'change' if key in change else 'parent'}")
            differ += 1
        elif json.dumps(parent[key]) != json.dumps(change[key]):
            rel = max_rel_diff(parent[key], change[key])
            print(f"DIFFERS {key}: " + ("text" if rel is None else f"max rel diff {rel:.3g}"))
            differ += 1
    sections = collections.Counter(key.split("/")[0] for key in keys)
    errors = sum("error" in r for r in change.values())
    warned = sum(bool(r["warnings"]) for r in change.values())
    print(f"parent {parent_rev[:12]} against the working tree: {len(keys)} keys "
          f"({', '.join(f'{s} {c}' for s, c in sections.items())}); "
          f"{errors} record an error and {warned} warnings; "
          + (f"{differ} differ" if differ else "every output identical"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
