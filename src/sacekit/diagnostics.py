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
from scipy.stats import chi2

from .identify import CellTable, check_rho, gmm_overidentified, strata_probs_stochastic
from .errors import RelevanceError
from .models import SurvivalParamsER, SurvivalParamsSM

# A relevance cell fails only when its dispersion statistic is this small:
# the observed ratios are numerically identical across levels.
RELEVANCE_FAIL_Q = 1e-4

# A ratio spread at or below this is treated as numerically constant. Kept
# equal to the separation guard of the two-point mixture solver so the
# screen and the estimator agree on what "no variation" means.
RELEVANCE_SPREAD_FLOOR = 1e-8


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
    matrix to an (n, d) integer array of bin indices, or one covariate row
    to a tuple of bin indices.
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
            keys[..., j] = np.searchsorted(arr, rows[..., j], side=side)
        return keys if keys.ndim == 2 else tuple(int(k) for k in keys)

    return transform


def _aggregate(cells):
    statuses = [c["status"] for c in cells]
    if any(s == "fail" for s in statuses):
        return "fail"
    if any(s == "pass" for s in statuses):
        return "pass"
    return "vacuous"


def check_monotone(source, z_threshold=2.0, *, x=None, a=None):
    """Screen: control-arm survival must not exceed treated-arm survival.

    ``source`` is either a :class:`CellTable` (sample mode: one-sided
    two-proportion z comparison per cell) or a fitted survival model (model
    mode). An arm-wise :class:`SurvivalParamsSM` fit is evaluated pointwise
    at covariates ``x`` and level codes ``a``, which it requires. The
    ratio-parameterized joint fit satisfies the restriction by construction
    and is reported vacuous-pass.
    """
    if isinstance(source, SurvivalParamsER):
        return {
            "status": "pass",
            "cells": [],
            "note": "holds by construction of the ratio parameterization",
        }
    if isinstance(source, SurvivalParamsSM):
        if x is None or a is None:
            raise TypeError("an arm-wise survival model needs x= and a=")
        th1 = source.theta_treated(x, a)
        th0 = source.theta_control(x, a)
        bad = th0 > th1 + 1e-12
        frac = float(np.mean(bad)) if len(np.atleast_1d(bad)) else 0.0
        status = "fail" if frac > 0 else "pass"
        return {
            "status": status,
            "cells": [],
            "note": f"pointwise model check: {frac:.1%} of units have fitted "
            "control survival above treated survival",
        }
    if not isinstance(source, CellTable):
        raise TypeError("expected a CellTable or a fitted survival model")

    cells = []
    for (xkey, a), c in source.cells.items():
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
                entry.update(status="fail" if zstat > z_threshold else "pass", z=float(zstat))
        cells.append(entry)
    return {"status": _aggregate(cells), "cells": cells}


def check_relevance(table, fail_q=RELEVANCE_FAIL_Q):
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
    cells = []
    for xkey, group in table.x_groups().items():
        entry = {"x": list(xkey)}
        ratios = []
        variances = []
        levels = []
        for a, c in sorted(group.items()):
            if (
                c.p_surv_treated is None
                or c.p_surv_control is None
                or c.p_surv_treated <= 0.0
                or c.p_surv_control <= 0.0
                or (sample and (c.n_treated == 0 or c.n_control == 0))
            ):
                continue
            p1, p0 = c.p_surv_treated, c.p_surv_control
            if sample:
                var = (1 - p1) / (c.n_treated * p1) + (1 - p0) / (c.n_control * p0)
            else:
                var = 1.0
            ratios.append(np.log(p0) - np.log(p1))
            variances.append(max(var, 1e-300))
            levels.append(a)
        if len(levels) < 2:
            entry.update(status="vacuous", levels=len(levels))
            cells.append(entry)
            continue
        w = 1.0 / np.array(variances)
        l = np.array(ratios)
        center = float(np.sum(w * l) / np.sum(w))
        q = float(np.sum(w * (l - center) ** 2))
        df = len(levels) - 1
        spread = float(np.ptp(np.exp(l)))
        entry.update(
            levels=len(levels),
            q_stat=q,
            df=df,
            chi2_95=float(chi2.ppf(0.95, df)),
            ratio_spread=spread,
        )
        constant = q <= fail_q and spread <= RELEVANCE_SPREAD_FLOOR
        entry["status"] = "fail" if constant else "pass"
        cells.append(entry)
    return {"status": _aggregate(cells), "cells": cells}


def _j_test_cells(table, which, j_level, rho=None):
    """Over-identification screen of a mean-structure restriction.

    ``which`` selects the treated-arm means, the control-arm means, or the
    treated-minus-control contrasts. Needs at least 3 usable levels in a
    covariate group; with two the structure is exactly identified and the
    restriction has no observable content (vacuous).
    """
    cells = []
    for xkey, group in table.x_groups().items():
        entry = {"x": list(xkey)}
        means = []
        mixes = []
        counts = []
        for a, c in sorted(group.items()):
            if (
                c.p_surv_treated is None
                or c.p_surv_control is None
                or c.p_surv_treated <= 0.0
            ):
                continue
            if which == "treated":
                if c.mean_treated is None:
                    continue
                mix = c.p_surv_control / c.p_surv_treated
                means.append(c.mean_treated)
                counts.append(max(c.n_surv_treated, 1))
            elif which == "control":
                if c.mean_control is None or c.p_surv_control <= 0.0:
                    continue
                always = strata_probs_stochastic(
                    c.p_surv_treated, c.p_surv_control, rho
                )[0]
                mix = always / c.p_surv_control
                means.append(c.mean_control)
                counts.append(max(c.n_surv_control, 1))
            else:
                if c.mean_treated is None or c.mean_control is None:
                    continue
                mix = c.p_surv_control / c.p_surv_treated
                means.append(c.mean_treated - c.mean_control)
                counts.append(
                    1.0
                    / (
                        1.0 / max(c.n_surv_treated, 1)
                        + 1.0 / max(c.n_surv_control, 1)
                    )
                )
            mixes.append(mix)
        if len(means) < 3:
            entry.update(status="vacuous", levels=len(means))
            cells.append(entry)
            continue
        try:
            _, _, j_stat, df = gmm_overidentified(means, mixes, counts)
        except RelevanceError:
            entry.update(status="vacuous", levels=len(means), note="constant mixing weights")
            cells.append(entry)
            continue
        crit = float(chi2.ppf(j_level, df))
        entry.update(
            levels=len(means), j_stat=float(j_stat), df=df, critical=crit
        )
        entry["status"] = "fail" if j_stat > crit else "pass"
        cells.append(entry)
    return cells


def _mean_structure(table, which, j_level, rho=None):
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
    cells = _j_test_cells(table, which, j_level, rho=rho)
    out = {"status": _aggregate(cells), "cells": cells}
    if out["status"] == "vacuous":
        out["status"] = "pass"
        out["note"] = "no covariate group offered 3+ usable levels; nothing to test"
    return out


def run_diagnostics(
    data,
    bins=2,
    survival=None,
    rho=None,
    z_threshold=2.0,
    fail_q=RELEVANCE_FAIL_Q,
    j_level=0.99,
):
    """Run every observable-implication screen on a dataset.

    Parameters
    ----------
    data : Dataset
    bins : int
        Quantile bins per covariate for cell formation (continuous
        covariates only; discrete ones keep their levels).
    survival : optional
        A fitted survival model; switches the monotonicity screen to model
        mode (the empirical mode runs otherwise).
    rho : float, optional
        Sensitivity level enabling the control-arm mean-structure screen.
    z_threshold, fail_q, j_level : float
        Thresholds of the individual screens.

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

    if survival is not None:
        if not isinstance(survival, (SurvivalParamsER, SurvivalParamsSM)):
            raise TypeError("survival must be a fitted survival model")
        monotone = check_monotone(survival, x=data.x, a=data.a)
    else:
        monotone = check_monotone(table, z_threshold=z_threshold)

    constraints = {
        "survival_monotonicity": monotone,
        "treated_mean_structure": _mean_structure(table, "treated", j_level),
        "substitution_relevance": check_relevance(table, fail_q=fail_q),
        "control_mean_structure": _mean_structure(table, "control", j_level, rho=rho),
        "contrast_mean_structure": _mean_structure(table, "contrast", j_level),
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
