"""Synthetic data generation and the replicate benchmark.

The data-generating process draws three covariates (one symmetric binary,
two correlated Gaussians), a binary substitution variable whose propensity
depends on the covariates, a treatment that is either randomized or
confounded (``delta1``), a latent survival class from a monotone
multinomial whose covariate dependence is switched by ``delta2``, and
normal outcomes for the arms in which a unit survives. The true
always-survivor effect is exactly 1 under both outcome variants, so bias
is read off directly. ``er_violation=True`` switches to outcome means that
shift with the substitution variable, breaking the exclusion restriction
on purpose.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, StratumLabel, _write_csv
from .models import _replicates, method_rhos
# fit_ols is no longer called here, but the binding stays: the tracing test
# in perfbench/test_tracing.py patches and checks sacekit.simulate.fit_ols.
from .numerics import expit, fit_ols, rng_stream  # noqa: F401

# Fixed DGP constants.
_U = np.array([0.5, 0.5, 0.5])
_X23_MEAN = np.array([1.0, -1.0])
_X23_CHOL = np.linalg.cholesky(np.array([[1.0, 0.5], [0.5, 1.0]]))
_NOISE_SD = 0.5


@dataclass(frozen=True)
class SimulationSetting:
    """Configuration of one synthetic scenario.

    ``delta1`` in {0, 1} switches on confounded treatment assignment;
    ``delta2`` in {0, 1} switches on covariate dependence of the survival
    class; ``er_violation`` selects the outcome-mean variant that violates
    the exclusion restriction.
    """

    n: int
    delta1: int = 0
    delta2: int = 0
    er_violation: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.delta1 not in (0, 1) or self.delta2 not in (0, 1):
            raise ValueError("delta1 and delta2 must be 0 or 1")


@dataclass
class OracleTable:
    """Latent truth retained beside a simulated dataset, for tests only.

    Kept out of :class:`Dataset` on purpose: estimators must not be able to
    touch the stratum labels or the unobserved potential outcomes. Arrays
    are aligned with the dataset rows; potential outcomes are NaN in arms
    where the unit does not survive.
    """

    stratum: np.ndarray
    s_treated: np.ndarray
    s_control: np.ndarray
    y_treated: np.ndarray
    y_control: np.ndarray

    def save(self, path):
        names = ["stratum", "s_treated", "s_control", "y_treated", "y_control"]
        _write_csv(path, names, [getattr(self, name) for name in names])


def gen_dataset(setting, rng=None):
    """Draw one dataset from the configured process.

    Returns ``(Dataset, OracleTable)``. With the default ``rng`` the draw
    is a pure function of ``setting.seed``; the benchmark passes derived
    per-replicate streams instead.
    """
    if rng is None:
        rng = rng_stream(setting.seed)
    n = setting.n
    d1, d2 = float(setting.delta1), float(setting.delta2)

    # Each temporary is deleted after its last use, which bounds how many
    # n-long arrays are alive at once; the draws and the formulas are unchanged.
    x1 = rng.integers(0, 2, size=n) * 2.0 - 1.0
    x23 = _X23_MEAN + rng.standard_normal((n, 2)) @ _X23_CHOL.T
    x = np.column_stack([x1, x23])
    del x1, x23
    xu = x @ _U
    a = (rng.random(n) < expit(xu)).astype(np.int64)
    z = (rng.random(n) < expit(d1 * xu + d1 * a)).astype(np.int64)

    surv_lin = 2.0 + (d2 / 2.0) * (x[:, 0] + x[:, 1] + x[:, 2]) + a
    p_surv_treated = expit(surv_lin)
    del surv_lin
    ratio_lin = (-1.5 * d2) * x[:, 0] + (d2 / 2.0) * (x[:, 1] + x[:, 2]) + a
    ratio = expit(ratio_lin)
    del ratio_lin
    pr_always = ratio * p_surv_treated
    pr_protected = (1.0 - ratio) * p_surv_treated
    del ratio, p_surv_treated

    ug = rng.random(n)
    stratum = np.where(
        ug < pr_always,
        StratumLabel.ALWAYS.value,
        np.where(ug < pr_always + pr_protected, StratumLabel.PROTECTED.value, StratumLabel.NEVER.value),
    )
    del ug, pr_always, pr_protected
    s_treated = (stratum != StratumLabel.NEVER.value).astype(np.int64)
    s_control = (stratum == StratumLabel.ALWAYS.value).astype(np.int64)

    if setting.er_violation:
        mean_treated_always = 5.0 + xu + a
        mean_treated_protected = 7.0 + xu + a
        mean_control_always = 4.0 + xu + a
    else:
        mean_treated_always = xu
        mean_treated_protected = 1.0 + xu
        mean_control_always = -1.0 + xu
    del xu

    eps1 = rng.standard_normal(n)
    eps0 = rng.standard_normal(n)
    mean_treated = np.where(
        stratum == StratumLabel.ALWAYS.value, mean_treated_always, mean_treated_protected
    )
    del mean_treated_always, mean_treated_protected
    y_treated = np.where(s_treated == 1, mean_treated + _NOISE_SD * eps1, np.nan)
    del mean_treated, eps1
    y_control = np.where(s_control == 1, mean_control_always + _NOISE_SD * eps0, np.nan)
    del mean_control_always, eps0

    s = np.where(z == 1, s_treated, s_control)
    y = np.where(s == 1, np.where(z == 1, y_treated, y_control), np.nan)

    data = Dataset.from_arrays(z, x, a, s, y, covariate_names=("x1", "x2", "x3"))
    oracle = OracleTable(
        stratum=stratum,
        s_treated=s_treated,
        s_control=s_control,
        y_treated=y_treated,
        y_control=y_control,
    )
    return data, oracle


def true_sace(setting):
    """Exact always-survivor effect of the process: 1 for every setting.

    Both outcome variants separate the treated and control always-survivor
    means by exactly 1 at every covariate value, so the stratum-weighted
    average is 1 regardless of the delta switches.
    """
    return 1.0


@dataclass
class BenchCell:
    """Benchmark summary for one (setting, size, method) cell; dropped replicates by reason."""

    n: int
    delta1: int
    delta2: int
    er_violation: bool
    method: str
    n_ok: int
    n_failed: int
    mean_bias: float
    mc_se: float
    failed_by_reason: dict

    def to_dict(self):
        return dataclasses.asdict(self)


@dataclass
class BenchReport:
    """Mean bias and Monte Carlo standard error over a simulation grid."""

    cells: list
    reps: int
    seed: int
    methods: tuple
    true_value: float = 1.0
    duration_s: float = 0.0
    warnings: list = field(default_factory=list)

    def to_dict(self):
        return {
            "reps": self.reps,
            "seed": self.seed,
            "methods": list(self.methods),
            "true_value": self.true_value,
            "duration_s": self.duration_s,
            "warnings": list(self.warnings),
            "cells": [c.to_dict() for c in self.cells],
        }

    def cell(self, n, delta1, delta2, er_violation, method):
        for c in self.cells:
            if (
                c.n == n
                and c.delta1 == delta1
                and c.delta2 == delta2
                and c.er_violation == er_violation
                and c.method == method
            ):
                return c
        raise KeyError((n, delta1, delta2, er_violation, method))

    def format_table(self):
        """Text table, one row per (setting, n), one column pair per method.

        Entries are 100 x mean bias with 100 x MC standard error in
        parentheses, the convention used throughout for readability.
        """
        lines = [
            "entries: 100 x bias (100 x MC standard error), "
            f"{self.reps} replicates, true value {self.true_value:g}",
        ]
        header = f"{'d1':>3} {'d2':>3} {'er':>3} {'n':>6}"
        for m in self.methods:
            header += f" {m:>16}"
        lines.append(header)
        seen = []
        for c in self.cells:
            key = (c.delta1, c.delta2, c.er_violation, c.n)
            if key not in seen:
                seen.append(key)
        for d1, d2, er, n in seen:
            row = f"{d1:>3} {d2:>3} {'y' if er else 'n':>3} {n:>6}"
            for m in self.methods:
                c = self.cell(n, d1, d2, er, m)
                if c.n_ok:
                    entry = f"{100 * c.mean_bias:.1f}({100 * c.mc_se:.2f})"
                else:
                    entry = "all-failed"
                if c.n_failed:
                    entry += f"[{c.n_failed}f]"
                row += f" {entry:>16}"
            lines.append(row)
        return "\n".join(lines)


def run_benchmark(settings, sizes, methods, reps, seed=0, rho=None):
    """Replicate benchmark over a grid of scenarios and sample sizes.

    Parameters
    ----------
    settings : sequence
        ``(delta1, delta2, er_violation)`` triples.
    sizes : sequence of int
    methods : sequence of str
        Any of naive, dgyz, prop-er, prop-ni, prop-sm, prop-sm-ni.
    reps : int
    seed : int
        Master seed; replicate r of grid cell c, the c-th (setting, size)
        pair with sizes varying fastest, draws from the derived stream
        (seed, c, r), so cells and replicates are independent and
        individually reproducible.
    rho : float, optional
        Sensitivity level; required when a stochastic method is requested,
        and passed only to the methods that need it.

    Each replicate fits every stage-one kind its methods use once and
    shares it among them. Failed replicates (estimation errors, non-finite
    estimates, stage-one non-convergence) are excluded from a cell's
    average and counted by reason.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    methods = tuple(methods)
    rhos = method_rhos(methods, rho)

    # every setting is checked before the first dataset is drawn
    norm_settings = [
        SimulationSetting(0, int(d1), int(d2), bool(er)) for d1, d2, er in settings
    ]

    started = time.monotonic()
    cells = []
    cell_index = 0
    for base in norm_settings:
        for n in sizes:
            setting = dataclasses.replace(base, n=n)
            draws = (
                (gen_dataset(setting, rng=rng_stream(seed, cell_index, r))[0], None)
                for r in range(reps)
            )
            replicates = _replicates(draws, methods, rhos)
            for m in methods:
                est, failed = replicates[m]
                n_ok = est.size
                mean_bias = float(np.mean(est) - true_sace(setting)) if n_ok else float("nan")
                mc_se = (
                    float(np.std(est, ddof=1) / np.sqrt(n_ok)) if n_ok > 1 else float("nan")
                )
                cells.append(
                    BenchCell(
                        n=n,
                        delta1=setting.delta1,
                        delta2=setting.delta2,
                        er_violation=setting.er_violation,
                        method=m,
                        n_ok=n_ok,
                        n_failed=sum(failed.values()),
                        mean_bias=mean_bias,
                        mc_se=mc_se,
                        failed_by_reason=failed,
                    )
                )
            cell_index += 1

    warnings = [
        f"{c.method} at n={c.n} ({c.delta1},{c.delta2},{'er' if c.er_violation else 'std'}): "
        f"{c.n_failed} failed replicates"
        for c in cells
        if c.n_failed
    ]
    return BenchReport(
        cells=cells,
        reps=reps,
        seed=seed,
        methods=methods,
        duration_s=time.monotonic() - started,
        warnings=warnings,
    )
