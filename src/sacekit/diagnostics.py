"""Falsification checks for the observable implications of the assumptions.

The identification assumptions restrict the law of the observed data in
five testable ways: control-arm survival cannot exceed treated-arm survival
within a cell; the treated-arm and control-arm survivor means, and their
contrast, must follow two-point mixture structures across substitution
levels; and the ratio of control to treated survival must actually vary
with the substitution variable. The checks here screen each restriction
per covariate cell.

Statuses are ``pass``, ``fail``, or ``vacuous`` (not enough data or levels
to probe the restriction). These are falsification screens with plain
thresholds, not calibrated tests: a relevance cell fails only when the
survival ratio is affirmatively constant, and every per-cell statistic is
included in the report so users can apply their own corrections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincinv

from .identify import (
    SEPARATION_EPS,
    CellTable,
    check_rho,
    gmm_overidentified,
    strata_probs_stochastic,
)
from .errors import RelevanceError

# A monotonicity cell fails when its one-sided z statistic exceeds this.
MONOTONE_FAIL_Z = 2.0

# A relevance cell fails only when its dispersion statistic is this small
# and its ratio spread is at most identify.SEPARATION_EPS, the separation
# guard of the mixture solver: the observed ratios are numerically
# identical across levels.
RELEVANCE_FAIL_Q = 1e-4

# A mean-structure cell fails when its J statistic exceeds this quantile of
# the chi-square distribution with its degrees of freedom.
J_LEVEL = 0.99


def _chi2_quantile(level, df):
    """The ``level`` quantile of the chi-square law with ``df`` degrees of
    freedom: the formula ``scipy.stats.chi2.ppf`` evaluates, without
    importing scipy.stats."""
    return 2.0 * gammaincinv(df / 2, level)


@dataclass
class DiagnosticsReport:
    """Per-constraint statuses with cell-level detail."""

    n: int
    bins: int
    constraints: dict
    notes: list = field(default_factory=list)

    @property
    def ok(self):
        return all(c["status"] != "fail" for c in self.constraints.values())

    def to_dict(self):
        return {
            "n": self.n,
            "bins": self.bins,
            "ok": self.ok,
            "constraints": self.constraints,
            "notes": list(self.notes),
        }

    def format_text(self):
        lines = [f"diagnostics on n={self.n} units ({self.bins} quantile bins)"]
        for name, c in self.constraints.items():
            lines.append(f"  {name}: {c['status'].upper()}")
            if c.get("note"):
                lines.append(f"    note: {c['note']}")
            for cell in c.get("cells", []):
                detail = ", ".join(
                    f"{k}={_fmt(v)}" for k, v in cell.items() if k != "status"
                )
                lines.append(f"    [{cell['status']}] {detail}")
        lines.append(f"overall: {'OK' if self.ok else 'PROBLEMS FOUND'}")
        return "\n".join(lines)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def quantile_binner(x, bins):
    """Per-covariate quantile binning; discrete columns keep their levels.

    Returns a transform for use as the ``x_transform`` of
    :meth:`CellTable.from_dataset`. It maps the whole (n, d) covariate
    matrix to an (n, d) integer array of bin indices.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    rules = []
    for j in range(x.shape[1]):
        uniq = np.unique(x[:, j])
        if uniq.size <= bins:
            rules.append(("left", uniq))
        else:
            qs = np.quantile(x[:, j], [k / bins for k in range(1, bins)])
            rules.append(("right", np.unique(qs)))

    def transform(rows):
        rows = np.asarray(rows, dtype=float)
        keys = np.empty(rows.shape, dtype=np.int64)
        for j, (side, arr) in enumerate(rules):
            keys[:, j] = np.searchsorted(arr, rows[:, j], side=side)
        return keys

    return transform


def _aggregate(cells):
    statuses = [c["status"] for c in cells]
    if any(s == "fail" for s in statuses):
        return "fail"
    if any(s == "pass" for s in statuses):
        return "pass"
    return "vacuous"


def check_monotone(table):
    """Screen: control-arm survival must not exceed treated-arm survival.

    One-sided two-proportion z comparison per cell of a sample-mode
    :class:`CellTable`; a cell missing an arm is vacuous.
    """
    cells = []
    for (xkey, a), c in table.cells.items():
        entry = {"x": list(xkey), "a": a}
        if (
            c.p_surv_treated is None
            or c.p_surv_control is None
            or c.n_treated == 0
            or c.n_control == 0
        ):
            entry.update(status="vacuous")
            cells.append(entry)
            continue
        p1, p0 = c.p_surv_treated, c.p_surv_control
        diff = p0 - p1
        entry.update(p_surv_treated=p1, p_surv_control=p0)
        if diff <= 0:
            entry.update(status="pass", z=0.0)
        else:
            se = np.sqrt(
                p1 * (1 - p1) / c.n_treated + p0 * (1 - p0) / c.n_control
            )
            if se == 0.0:
                entry.update(status="fail", z=float("inf"))
            else:
                zstat = diff / se
                entry.update(status="fail" if zstat > MONOTONE_FAIL_Z else "pass", z=float(zstat))
        cells.append(entry)
    return {"status": _aggregate(cells), "cells": cells}


def _group_screen(table, level_entry, min_levels, score):
    """Screen each covariate group of ``table``: one report cell per group.

    The levels of a group are walked in ascending order, and
    ``level_entry(cell)`` gives a usable level's entry or None. A group
    with fewer than ``min_levels`` usable levels is vacuous. Otherwise
    ``score(entries)`` returns ``(stats, failed)``, and the cell reports
    the level count, the stats and a pass/fail status. A score that finds
    the mixing weights constant (``RelevanceError``) is vacuous too, with
    a note.
    """
    cells = []
    for xkey, group in table.x_groups().items():
        entries = [level_entry(group[a]) for a in sorted(group)]
        entries = [e for e in entries if e is not None]
        cell = {"x": list(xkey)}
        if len(entries) < min_levels:
            cell.update(status="vacuous", levels=len(entries))
        else:
            try:
                stats, failed = score(entries)
            except RelevanceError:
                note = "constant mixing weights"
                cell.update(status="vacuous", levels=len(entries), note=note)
            else:
                cell.update(levels=len(entries), **stats, status="fail" if failed else "pass")
        cells.append(cell)
    return cells


def check_relevance(table):
    """Screen: the control/treated survival ratio must vary across levels.

    Within each covariate group, the log survival ratios across
    substitution levels are contrasted with an inverse-variance weighted
    dispersion statistic Q (chi-square with levels-1 degrees of freedom
    under exact constancy; unit weights in population mode). A group fails
    only on affirmative constancy: Q at the numerical-noise floor AND a
    ratio spread below the same separation guard the mixture solver uses.
    A small Q alone is not failure, because under sampling noise Q has
    substantial mass near zero even when the ratios genuinely differ.
    Fewer than two usable levels is vacuous.
    """
    sample = table.mode == "sample"

    def log_ratio(c):
        """(log survival ratio, its variance) of a level; None if unusable."""
        if (
            c.p_surv_treated is None
            or c.p_surv_control is None
            or c.p_surv_treated <= 0.0
            or c.p_surv_control <= 0.0
            or (sample and (c.n_treated == 0 or c.n_control == 0))
        ):
            return None
        p1, p0 = c.p_surv_treated, c.p_surv_control
        if sample:
            var = (1 - p1) / (c.n_treated * p1) + (1 - p0) / (c.n_control * p0)
        else:
            var = 1.0
        return np.log(p0) - np.log(p1), max(var, 1e-300)

    def q_score(entries):
        l, variances = (np.array(v) for v in zip(*entries))
        w = 1.0 / variances
        center = float(np.sum(w * l) / np.sum(w))
        q = float(np.sum(w * (l - center) ** 2))
        df = len(entries) - 1
        spread = float(np.ptp(np.exp(l)))
        chi2_95 = float(_chi2_quantile(0.95, df))
        stats = {"q_stat": q, "df": df, "chi2_95": chi2_95, "ratio_spread": spread}
        return stats, q <= RELEVANCE_FAIL_Q and spread <= SEPARATION_EPS

    cells = _group_screen(table, log_ratio, 2, q_score)
    return {"status": _aggregate(cells), "cells": cells}


def _j_test_cells(table, which, rho=None):
    """Over-identification screen of a mean-structure restriction.

    ``which`` selects the treated-arm means, the control-arm means, or the
    treated-minus-control contrasts. Needs at least 3 usable levels in a
    covariate group; with two the structure is exactly identified and the
    restriction has no observable content (vacuous).
    """

    def mixture_entry(c):
        """(mean, mixing weight, count) of a level; None if unusable."""
        if c.p_surv_treated is None or c.p_surv_control is None or c.p_surv_treated <= 0.0:
            return None
        if which == "treated":
            if c.mean_treated is None:
                return None
            return c.mean_treated, c.p_surv_control / c.p_surv_treated, max(c.n_surv_treated, 1)
        if which == "control":
            if c.mean_control is None or c.p_surv_control <= 0.0:
                return None
            always = strata_probs_stochastic(c.p_surv_treated, c.p_surv_control, rho)[0]
            return c.mean_control, always / c.p_surv_control, max(c.n_surv_control, 1)
        if c.mean_treated is None or c.mean_control is None:
            return None
        count = 1.0 / (1.0 / max(c.n_surv_treated, 1) + 1.0 / max(c.n_surv_control, 1))
        return c.mean_treated - c.mean_control, c.p_surv_control / c.p_surv_treated, count

    def j_score(entries):
        _, _, j_stat, df = gmm_overidentified(*zip(*entries))
        crit = float(_chi2_quantile(J_LEVEL, df))
        return {"j_stat": float(j_stat), "df": df, "critical": crit}, j_stat > crit

    return _group_screen(table, mixture_entry, 3, j_score)


def _mean_structure(table, which, rho=None):
    levels = table.a_levels
    if len(levels) <= 2:
        return {
            "status": "pass",
            "cells": [],
            "note": "vacuous with a finite substitution alphabet; with two "
            "levels the mean structure is exactly identified and has no "
            "testable content",
        }
    if which == "control" and rho is None:
        return {
            "status": "pass",
            "cells": [],
            "note": "vacuous without a sensitivity level: the control-arm "
            "mixing weights need rho",
        }
    cells = _j_test_cells(table, which, rho=rho)
    out = {"status": _aggregate(cells), "cells": cells}
    if out["status"] == "vacuous":
        out["status"] = "pass"
        out["note"] = "no covariate group offered 3+ usable levels; nothing to test"
    return out


def run_diagnostics(data, bins=2, rho=None):
    """Run every observable-implication screen on a dataset.

    Parameters
    ----------
    data : Dataset
    bins : int
        Quantile bins per covariate for cell formation (continuous
        covariates only; discrete ones keep their levels).
    rho : float, optional
        Sensitivity level enabling the control-arm mean-structure screen.

    Returns
    -------
    DiagnosticsReport
        All five constraints always appear, each with a status and
        cell-level detail. Inputs are never modified.
    """
    if rho is not None:
        check_rho(rho)
    transform = quantile_binner(data.x, bins) if data.n_covariates else None
    table = CellTable.from_dataset(
        data, use_x=data.n_covariates > 0, x_transform=transform
    )
    constraints = {
        "survival_monotonicity": check_monotone(table),
        "treated_mean_structure": _mean_structure(table, "treated"),
        "substitution_relevance": check_relevance(table),
        "control_mean_structure": _mean_structure(table, "control", rho=rho),
        "contrast_mean_structure": _mean_structure(table, "contrast"),
    }
    notes = []
    if len(table.a_levels) < 2:
        notes.append(
            "the substitution variable takes a single level; "
            "mixture identification is impossible on this data"
        )
    return DiagnosticsReport(
        n=len(data), bins=bins, constraints=constraints, notes=notes
    )
