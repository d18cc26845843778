"""The benchmark's workloads: set-up, per-operation inputs, the timed operation and its checks.

Every workload calls sacekit's public functions only. A workload object is
stateless: ``setup`` returns the state shared by a run's operations,
``inputs`` builds one operation's inputs from a seed, ``op`` is the timed
call, and ``collect`` turns its result into plain JSON data outside the
timed region, for ``check``, ``summary`` (the golden comparison) and the
determinism check.

Operation ``k`` of a run draws its inputs from ``op_seed(seed, k)``, so a run
averages over many inputs instead of measuring one seed's luck: how many
Newton fits fail to converge, and so how much work a replicate costs,
depends on the data.

- ``bootstrap``: one ``bootstrap(data, "prop-er")`` call on an n=20000
  dataset. Few large Newton fits plus resample copies.
- ``analysis``: the analyst session on a fresh n=100000 dataset, four CLI
  commands through ``sacekit.cli.main(argv)`` in-process, each timed on its
  own: ``simulate --out``, ``diagnose``, ``sensitivity`` and ``fit``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

BOOT_N = 20_000
BOOT_B = 16
ANALYSIS_N = 100_000
COMMANDS = ("simulate", "diagnose", "sensitivity", "fit")
RHO_GRID = "0:1:0.05"
RHO_POINTS = 21
SENSITIVITY_HEADER = "rho,pi_dl,delta"
# Operation k > 0 of a run uses seed + k * OP_SEED_STRIDE; operation 0 uses
# the run's seed itself, so the golden outputs belong to the default seed.
OP_SEED_STRIDE = 1_000_003


def op_seed(seed, k):
    return seed + k * OP_SEED_STRIDE


class CheckFailed(Exception):
    """A workload's output is wrong; the run must not report numbers."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def run_cli(sk, argv):
    """``sacekit.cli.main(argv)`` with its stdout captured: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = sk.cli.main(list(argv))
    return rc, buf.getvalue()


def without_duration(envelope):
    return {k: v for k, v in envelope.items() if k != "duration_s"}


class Bootstrap:
    name = "bootstrap"
    sizes = {"n": BOOT_N, "delta1": 1, "delta2": 1, "method": "prop-er", "n_boot": BOOT_B}
    required = (
        "models.bootstrap",
        "models.estimate_sace",
        "models.fit_survival_er",
        "models.fit_outcome_er",
        "numerics.fit_logistic",
        "numerics.maximize_loglik",
        "numerics.fit_ols",
        "data.Dataset.subset",
        "data.Dataset.from_arrays",
    )
    units = BOOT_B

    def setup(self, sk, tmp):
        return {"sk": sk}

    def inputs(self, state, seed):
        sk = state["sk"]
        setting = sk.SimulationSetting(n=BOOT_N, delta1=1, delta2=1, seed=seed)
        return {"seed": seed, "data": sk.gen_dataset(setting)[0]}

    def op(self, state, inp):
        return state["sk"].bootstrap(inp["data"], "prop-er", n_boot=BOOT_B, seed=inp["seed"])

    def collect(self, state, inp, est):
        return est.to_dict()

    def counts(self, out):
        return BOOT_B - out["n_failed"], BOOT_B

    def summary(self, state, inp, out):
        keys = ("point", "se", "q025", "q50", "q975", "n_failed")
        return {k: out[k] for k in keys}

    def check(self, state, inp, out):
        point = state["sk"].estimate_sace(inp["data"], "prop-er").point
        require(
            out["point"] == point,
            f"bootstrap point {out['point']!r} differs from estimate_sace {point!r}",
        )
        require(out["n_boot"] == BOOT_B, "wrong replicate count")
        require(out["n_failed"] < BOOT_B, "every replicate failed")
        require(out["se"] > 0 and math.isfinite(out["se"]), "bad standard error")
        require(out["q025"] <= out["q50"] <= out["q975"], "quantiles out of order")


class Analysis:
    """The analyst session: four CLI commands on a fresh n=100000 CSV.

    The operation returns each command's exit code, stdout and wall time.
    The traced run reports each command's median time as ``cmd.<name>_s``,
    so a gain in one command cannot hide a loss in another.
    """

    name = "analysis"
    sizes = {"n": ANALYSIS_N, "delta1": 0, "delta2": 0, "commands": list(COMMANDS),
             "rho_grid": RHO_GRID}
    required = (
        "cli.main",
        "data.load_dataset",
        "data.save_dataset",
        "data.validate",
        "data.Dataset.from_arrays",
        "simulate.gen_dataset",
        "identify.CellTable.from_dataset",
        "diagnostics.run_diagnostics",
        "diagnostics.quantile_binner",
        "diagnostics.check_monotone",
        "diagnostics.check_relevance",
        "models.fit_survival_sm",
        "models.sensitivity_sweep",
        "models.fit_sm",
        "models.estimate_sace",
        "models.fit_survival_er",
        "models.fit_outcome_er",
        "numerics.fit_logistic",
        "numerics.maximize_loglik",
        "numerics.fit_ols",
    )
    units = len(COMMANDS)

    def setup(self, sk, tmp):
        return {"sk": sk, "csv": os.path.join(tmp, "data.csv"),
                "curve": os.path.join(tmp, "curve.csv")}

    def inputs(self, state, seed):
        return {"seed": seed}

    def argv(self, state, inp, command):
        csv = state["csv"]
        return {
            "simulate": ["simulate", "--n", str(ANALYSIS_N), "--seed", str(inp["seed"]),
                         "--out", csv],
            "diagnose": ["diagnose", "--data", csv, "--bins", "2", "--validate"],
            "sensitivity": ["sensitivity", "--data", csv, "--rho-grid", RHO_GRID,
                            "--assume-er", "both", "--out", state["curve"]],
            "fit": ["fit", "--data", csv, "--method", "prop-er"],
        }[command]

    def op(self, state, inp):
        steps = {}
        for command in COMMANDS:
            started = time.perf_counter()
            rc, text = run_cli(state["sk"], self.argv(state, inp, command))
            steps[command] = (rc, text, time.perf_counter() - started)
        return steps

    def step_seconds(self, raw):
        return {command: seconds for command, (_, _, seconds) in raw.items()}

    def collect(self, state, inp, raw):
        out = {}
        for command, (rc, text, _) in raw.items():
            require(rc == 0, f"{command} exited {rc}")
            out[command] = without_duration(json.loads(text))["result"]
        curves = {}
        for variant in ("er", "ni"):
            path = f"{os.path.splitext(state['curve'])[0]}.{variant}.csv"
            with open(path) as fh:
                lines = fh.read().splitlines()
            curves[variant] = {
                "header": lines[0] if lines else "",
                "rows": [[float(f) if f else None for f in line.split(",")] for line in lines[1:]],
            }
        out["curves"] = curves
        return out

    def counts(self, out):
        failed = sum(c["failed_points"] for c in out["sensitivity"]["curves"].values())
        attempted = 2 * RHO_POINTS + len(COMMANDS)
        return attempted - failed, attempted

    def summary(self, state, inp, out):
        data = state["sk"].gen_dataset(self.setting(state, inp))[0]
        diagnose = out["diagnose"]
        return {
            "simulate": {
                "n": out["simulate"]["n"],
                "z": int(data.z.sum()),
                "s": int(data.s.sum()),
                "a": int(data.a.sum()),
                "x": [float(v) for v in data.x.sum(axis=0)],
                "y": float(data.outcomes_at(data.survivor_mask()).sum()),
            },
            "diagnose": {
                "ok": diagnose["ok"],
                "statuses": {k: c["status"] for k, c in diagnose["constraints"].items()},
                "cells": {k: len(c.get("cells", [])) for k, c in diagnose["constraints"].items()},
                "survivor_counts": diagnose["validation"]["survivor_counts"],
            },
            "sensitivity": {"curves": out["curves"]},
            "fit": {"point": out["fit"]["point"], "converged": out["fit"]["converged"]},
        }

    def setting(self, state, inp):
        return state["sk"].SimulationSetting(n=ANALYSIS_N, seed=inp["seed"])

    def check(self, state, inp, out):
        sk = state["sk"]
        data = sk.gen_dataset(self.setting(state, inp))[0]
        require(
            sk.load_dataset(state["csv"]) == data,
            "load_dataset(csv) differs from gen_dataset(setting)",
        )
        require(out["simulate"]["n"] == ANALYSIS_N, "simulate wrote the wrong row count")
        diagnose = out["diagnose"]
        require(len(diagnose["constraints"]) == 5, "expected five constraints")
        for name, c in diagnose["constraints"].items():
            require(c["status"] in ("pass", "fail", "vacuous"), f"{name}: bad status")
        require(diagnose["validation"]["n"] == ANALYSIS_N, "validation saw the wrong n")
        require(out["sensitivity"]["grid_points"] == RHO_POINTS, "wrong grid size")
        for name, curve in out["curves"].items():
            require(curve["header"] == SENSITIVITY_HEADER, f"{name}: header {curve['header']!r}")
            require(len(curve["rows"]) == RHO_POINTS, f"{name}: {len(curve['rows'])} rows")
            rhos = [row[0] for row in curve["rows"]]
            require(
                all(abs(r - k / (RHO_POINTS - 1)) < 1e-12 for k, r in enumerate(rhos)),
                f"{name}: rho column is not the 0:1:0.05 grid",
            )
        point = sk.estimate_sace(data, "prop-er").point
        require(
            out["fit"]["point"] == point,
            f"fit point {out['fit']['point']!r} differs from estimate_sace {point!r}",
        )
        require(out["fit"]["converged"], "fit did not converge")


WORKLOADS = {w.name: w for w in (Bootstrap(), Analysis())}
