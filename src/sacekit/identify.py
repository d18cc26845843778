"""Nonparametric identification of the survivor average causal effect.

The outcome is truncated by death, so the usual average effect is undefined;
the target is the mean effect inside the always-survivor stratum (units that
would survive under either arm). Within each covariate cell, survival
probabilities under the two arms pin down the stratum shares, and survivor
outcome means across the levels of a substitution variable form two-point
mixtures whose components can be solved for. Three routes are implemented,
differing in the assumption that closes the system:

- :func:`sace_monotone_exclusion`: treatment never kills a unit that would
  survive control, and the substitution variable does not shift outcomes
  inside a stratum.
- :func:`sace_stochastic_monotone`: monotonicity holds only in distribution,
  graded by a sensitivity parameter ``rho`` in [0, 1].
- :func:`sace_no_interaction`: protected units may differ from always
  survivors by an additive shift that the treatment does not interact with.

All three consume a :class:`CellTable` (exact population cell probabilities
or sample frequencies) through one per-group driver: it takes each cell's
always-survivor share, asks the route for the contrasts of the group, and
averages them weighted by mass times share. A group whose shares are all 0
carries no weight and is skipped; a cell with a positive share that the
route cannot score is dropped with a warning, and every
:class:`IdentificationWarning` names the line outside the package that
called the route.
"""

from __future__ import annotations

import sys
import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, EstimationError, MonotonicityError, RelevanceError

# Weight separation below this is treated as exactly singular.
SEPARATION_EPS = 1e-8
# In sample mode, separation below this only warns: the solve is performed
# but its output is noise-amplified.
WEAK_THRESHOLD = 0.02


class IdentificationWarning(UserWarning):
    """Non-fatal identification issues: weak separation, dropped cells."""


@dataclass(frozen=True)
class CellStats:
    """Observable summary of one (covariate value, substitution level) cell.

    ``mass`` is pr(X=x, A=a) in population mode and the cell count in sample
    mode. Probabilities and means are None when the cell has no units (or no
    survivors) in the corresponding arm.
    """

    mass: float
    p_surv_treated: float | None = None
    p_surv_control: float | None = None
    mean_treated: float | None = None
    mean_control: float | None = None
    n_treated: int = 0
    n_control: int = 0
    n_surv_treated: int = 0
    n_surv_control: int = 0


class CellTable:
    """Cell-level observables keyed by (covariate tuple, substitution level).

    Parameters
    ----------
    cells : dict
        ``{(x_tuple, a_code): CellStats}``.
    mode : str
        ``"population"`` (masses are probabilities summing to 1, moments are
        exact) or ``"sample"`` (masses are counts, moments are averages).
    covariate_names : sequence of str
    """

    def __init__(self, cells, mode, covariate_names=()):
        if mode not in ("population", "sample"):
            raise ValueError("mode must be 'population' or 'sample'")
        self.mode = mode
        self.covariate_names = tuple(covariate_names)
        self.cells = {}
        for (xkey, a), stats in cells.items():
            key = (tuple(float(v) for v in xkey), int(a))
            if key in self.cells:
                raise DataError(f"duplicate cell {key}")
            self.cells[key] = stats
        if mode == "population":
            total = sum(c.mass for c in self.cells.values())
            if abs(total - 1.0) > 1e-6:
                raise DataError(f"population cell masses sum to {total}, expected 1")

    @property
    def a_levels(self):
        return sorted({a for (_, a) in self.cells})

    def x_groups(self):
        """Cells grouped by covariate value: ``{x_tuple: {a: CellStats}}``."""
        groups = {}
        for (xkey, a), stats in self.cells.items():
            groups.setdefault(xkey, {})[a] = stats
        return groups

    @classmethod
    def from_dataset(cls, data, use_x=True, x_transform=None):
        """Tabulate a dataset into sample-mode cells.

        ``use_x=False`` collapses all covariates into a single group (the
        substitution variable alone defines the cells). ``x_transform``
        optionally maps the whole (n, d) covariate matrix to an (n, k) array
        of cell keys, one row per unit, e.g. quantile-bin assignments for
        continuous covariates (:func:`~sacekit.diagnostics.quantile_binner`).
        Without it the raw covariate values are the keys, and values that
        compare equal (``-0.0`` and ``0.0``) share a cell. Cells come in
        ascending (key, level) order, and each is keyed by its first row.
        """
        z, s, a, x = data.z, data.s, data.a, data.x
        n = len(data)
        if n == 0:
            raise DataError("cannot tabulate an empty dataset")
        y = np.full(n, np.nan)
        mask = data.survivor_mask()
        y[mask] = data.outcomes_at(mask)

        if not use_x:
            keys = np.empty((n, 0))
        elif x_transform is not None:
            keys = np.asarray(x_transform(x))
            if keys.ndim != 2 or keys.shape[0] != n:
                raise ValueError(
                    "x_transform must map the (n, d) covariate matrix to an (n, k) array"
                )
        else:
            keys = x
        _, cell_of_row = np.unique(_row_codes([*keys.T, a], n), return_inverse=True)
        # A stable sort keeps each cell's rows in ascending order.
        order = np.argsort(cell_of_row, kind="stable")
        sizes = np.bincount(cell_of_row)
        stops = np.cumsum(sizes)

        cells = {}
        for start, stop in zip(stops - sizes, stops):
            idx = order[start:stop]
            stats = {}
            for arm, tag in ((1, "treated"), (0, "control")):
                sel = idx[z[idx] == arm]
                stats[f"n_{tag}"] = len(sel)
                if len(sel):
                    stats[f"p_surv_{tag}"] = float(np.mean(s[sel]))
                else:
                    stats[f"p_surv_{tag}"] = None
                surv = sel[s[sel] == 1]
                stats[f"n_surv_{tag}"] = len(surv)
                stats[f"mean_{tag}"] = float(np.mean(y[surv])) if len(surv) else None
            key = (tuple(keys[idx[0]]), int(a[idx[0]]))
            cells[key] = CellStats(mass=float(len(idx)), **stats)
        names = data.covariate_names if use_x else ()
        return cls(cells, mode="sample", covariate_names=names)


def _row_codes(columns, n):
    """One int64 code per row, ordered as the rows' tuples of column values.

    Rows whose values compare equal share a code. Each column is ranked by
    ``np.unique`` and the ranks are combined in mixed radix; the running
    code is re-ranked first whenever the next column would overflow int64.
    """
    code = np.zeros(n, dtype=np.int64)
    size = 1
    for col in columns:
        levels, rank = np.unique(col, return_inverse=True)
        if size > np.iinfo(np.int64).max // levels.size:
            distinct, code = np.unique(code, return_inverse=True)
            size = distinct.size
        code = code * levels.size + rank
        size *= levels.size
    return code


def _survival_probs(*probs):
    """The survival probabilities as floats, each checked to lie in [0, 1]."""
    probs = tuple(float(p) for p in probs)
    for p in probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"survival probability {p} outside [0, 1]")
    return probs


def strata_probs_monotone(p_surv_treated, p_surv_control):
    """Stratum shares under deterministic monotonicity.

    With no harmed units, the always-survivor share equals the control-arm
    survival probability. Returns ``(always, protected, never)``.

    Raises
    ------
    MonotonicityError
        If survival is higher under control than under treatment.
    """
    p1, p0 = _survival_probs(p_surv_treated, p_surv_control)
    if p0 > p1:
        raise MonotonicityError(
            f"control survival {p0} exceeds treated survival {p1}"
        )
    return p0, p1 - p0, 1.0 - p1


def check_rho(rho):
    """``rho`` as a float, checked to lie in [0, 1]; NaN does not."""
    rho = float(rho)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    return rho


def strata_probs_stochastic(p_surv_treated, p_surv_control, rho):
    """Stratum shares under stochastic monotonicity of degree ``rho``.

    ``rho = 0`` makes potential survival statuses independent (always share
    is the product of marginals); ``rho = 1`` gives the maximal coupling
    (always share is the smaller marginal, recovering the deterministic
    case when control survival is the smaller one). Returns
    ``(always, protected, harmed, never)``, which is an exact probability
    vector for every ``rho`` in [0, 1].
    """
    p1, p0 = _survival_probs(p_surv_treated, p_surv_control)
    rho = check_rho(rho)
    if p0 <= 0.0:
        always = 0.0
    else:
        cond = p1 + rho * (min(1.0, p1 / p0) - p1)
        always = p0 * cond
    protected = max(0.0, p1 - always)
    harmed = max(0.0, p0 - always)
    never = max(0.0, 1.0 - p1 - p0 + always)
    return always, protected, harmed, never


def solve_two_point_mixture(mean_a, mean_b, weight_a, weight_b):
    """Solve a two-component mixture observed at two mixing weights.

    Given ``mean = w * mu_first + (1 - w) * mu_second`` at two weights,
    returns ``(mu_first, mu_second)``.

    Raises
    ------
    RelevanceError
        If the two weights differ by less than ``SEPARATION_EPS``: the
        system is singular and the substitution variable carries no
        information.
    """
    wa, wb = float(weight_a), float(weight_b)
    det = wa - wb
    if abs(det) < SEPARATION_EPS:
        raise RelevanceError(
            f"mixing weights {wa} and {wb} do not separate the mixture components"
        )
    ya, yb = float(mean_a), float(mean_b)
    mu_first = ((1.0 - wb) * ya - (1.0 - wa) * yb) / det
    mu_second = (wa * yb - wb * ya) / det
    return mu_first, mu_second


def gmm_overidentified(means, mix_weights, counts):
    """Weighted least-squares fit of the two-point mixture across 3+ levels.

    Minimizes ``sum_k counts[k] * (means[k] - w_k mu_first - (1-w_k)
    mu_second)^2``. Returns ``(mu_first, mu_second, j_stat, df)`` where
    ``j_stat`` is the minimized weighted residual sum of squares and
    ``df = K - 2``. Under a correctly specified mixture with cell counts as
    weights, ``j_stat`` is asymptotically chi-square(df), so a large value
    rejects the common-components restriction. With exactly two levels this
    reduces to :func:`solve_two_point_mixture` and ``j_stat = 0, df = 0``.
    """
    ys = np.asarray(means, dtype=float)
    ws = np.asarray(mix_weights, dtype=float)
    cs = np.asarray(counts, dtype=float)
    if ys.shape != ws.shape or ys.shape != cs.shape or ys.ndim != 1:
        raise ValueError("means, mix_weights, counts must be equal-length vectors")
    k = ys.size
    if k < 2:
        raise ValueError("need at least two levels")
    if np.any(cs <= 0):
        raise ValueError("counts must be positive")
    if float(np.ptp(ws)) < SEPARATION_EPS:
        raise RelevanceError(
            "mixing weights are numerically constant across levels"
        )
    if k == 2:
        mu1, mu2 = solve_two_point_mixture(ys[0], ys[1], ws[0], ws[1])
        return mu1, mu2, 0.0, 0
    design = np.column_stack([ws, 1.0 - ws])
    sw = np.sqrt(cs)
    coef, _, _, _ = np.linalg.lstsq(design * sw[:, None], ys * sw, rcond=None)
    resid = ys - design @ coef
    j_stat = float(np.sum(cs * resid**2))
    return float(coef[0]), float(coef[1]), j_stat, k - 2


def _cell_label(xkey, a=None):
    parts = []
    if xkey:
        parts.append("x=" + ",".join(f"{v:g}" for v in xkey))
    if a is not None:
        parts.append(f"a={a}")
    return "(" + ("; ".join(parts) if parts else "all") + ")"


def _warn(msg):
    """Warn at the first frame outside the package: the public function's caller."""
    frame, level = sys._getframe(), 1
    while frame is not None and (
        frame.f_globals.get("__name__", "").partition(".")[0] == __package__
    ):
        frame, level = frame.f_back, level + 1
    _warnings.warn(msg, IdentificationWarning, stacklevel=level)


def _solve_mixture_levels(entries, sample, where):
    """Common per-group solve: entries = list of (mean, mix_weight, count).

    Returns the first mixture component (the always-survivor mean), or None
    when the group cannot support a solve (with a warning). Handles the
    degenerate pure case where every weight is 1: the survivors then are a
    pure always-survivor sample and their weighted mean is the answer.
    """
    if len(entries) < 2:
        _warn(f"{where}: fewer than two usable levels, group dropped")
        return None
    ys = np.array([e[0] for e in entries])
    ws = np.array([e[1] for e in entries])
    cs = np.array([e[2] for e in entries])
    spread = float(np.ptp(ws))
    if spread < SEPARATION_EPS:
        if np.all(np.abs(ws - 1.0) < 1e-6):
            return float(np.average(ys, weights=cs))
        raise RelevanceError(
            f"{where}: mixing weights constant at {ws[0]:.6g}; "
            "components are not identified"
        )
    if sample and spread < WEAK_THRESHOLD:
        _warn(
            f"{where}: mixing-weight spread {spread:.3g} is weak; "
            "the solve is noise-amplified"
        )
    if len(entries) == 2:
        mu, _ = solve_two_point_mixture(ys[0], ys[1], ws[0], ws[1])
        return float(mu)
    mu, _, _, _ = gmm_overidentified(ys, ws, cs)
    return float(mu)


def _arm_mixture(group, shares, arm, table, xkey):
    """Always-survivor mean of one arm's survivors in one covariate group.

    Each level with survivors gives the entry (survivor mean, share /
    survival, survivor count in sample mode or else the cell mass).
    """
    sample = table.mode == "sample"
    tag = "treated" if arm == 1 else "control"
    entries = []
    for a, share in shares.items():
        c = group[a]
        mean, p = getattr(c, f"mean_{tag}"), getattr(c, f"p_surv_{tag}")
        if mean is None or p <= 0.0:
            continue
        count = getattr(c, f"n_surv_{tag}") if sample else c.mass
        if count <= 0:
            count = c.mass
        entries.append((mean, share / p, count))
    where = f"{tag}-arm mixture at {_cell_label(xkey)}"
    return _solve_mixture_levels(entries, sample, where)


def _sace_by_group(table, strata_probs, group_contrasts):
    """The skeleton shared by the three routes.

    Per covariate group, in ascending level order: the always-survivor share
    of each cell is the first of ``strata_probs(p1, p0)``; a group with no
    positive share is skipped, and otherwise
    ``group_contrasts(xkey, group, shares)`` returns ``{a: contrast}`` for the
    cells the route can score. The effect averages the contrasts weighted by
    mass times share; a cell with a positive share and no contrast is dropped
    with a warning.
    """
    num = 0.0
    den = 0.0
    for xkey, group in table.x_groups().items():
        shares = {}
        for a, c in sorted(group.items()):
            if c.p_surv_treated is None or c.p_surv_control is None:
                _warn(
                    f"cell {_cell_label(xkey, a)}: survival unobserved in an arm, "
                    "cell dropped"
                )
                continue
            try:
                shares[a] = strata_probs(c.p_surv_treated, c.p_surv_control)[0]
            except (MonotonicityError, ValueError) as exc:
                raise type(exc)(f"cell {_cell_label(xkey, a)}: {exc}") from None
        if not any(share > 0.0 for share in shares.values()):
            continue
        contrasts = group_contrasts(xkey, group, shares)
        for a, share in shares.items():
            if a not in contrasts:
                if share > 0.0:
                    _warn(
                        f"cell {_cell_label(xkey, a)}: incomplete outcome data, "
                        "cell dropped from the effect average"
                    )
                continue
            num += group[a].mass * share * contrasts[a]
            den += group[a].mass * share
    if den <= 0.0:
        raise EstimationError(
            "no cell carries always-survivor mass with complete data"
        )
    return num / den


def sace_monotone_exclusion(table):
    """Always-survivor effect under monotonicity plus exclusion restriction.

    Within every covariate group, the treated-arm survivor mean at each
    substitution level is a two-point mixture of the always-survivor and
    protected outcome means with known weights (ratio of control to treated
    survival); the exclusion restriction makes the components constant
    across levels, so two separated levels solve them. Control-arm
    survivors are pure always survivors. Cells lacking the data for a
    contribution are dropped from the final weighted average with a warning.

    Parameters
    ----------
    table : CellTable

    Returns
    -------
    float
        The effect, a weighted average of per-cell contrasts with
        always-survivor mass as weights.
    """
    def contrasts(xkey, group, shares):
        mu = _arm_mixture(group, shares, 1, table, xkey)
        return {
            a: mu - group[a].mean_control
            for a in shares
            if mu is not None and group[a].mean_control is not None
        }

    return _sace_by_group(table, strata_probs_monotone, contrasts)


def sace_stochastic_monotone(table, rho):
    """Always-survivor effect under stochastic monotonicity of degree ``rho``.

    Both arms now hold two-point mixtures: treated survivors mix always
    survivors with protected units, control survivors mix always survivors
    with harmed units. The always-survivor share in each cell comes from
    :func:`strata_probs_stochastic` at the supplied ``rho``, and each arm's
    components are solved per covariate group across substitution levels.

    Returns the effect as a float; see :func:`sace_monotone_exclusion` for
    the weighting and drop policy. An out-of-range ``rho`` raises
    ValueError before any cell is visited.
    """
    rho = check_rho(rho)

    def contrasts(xkey, group, shares):
        mu1 = _arm_mixture(group, shares, 1, table, xkey)
        mu0 = _arm_mixture(group, shares, 0, table, xkey)
        if mu1 is None or mu0 is None:
            return {}
        return dict.fromkeys(shares, mu1 - mu0)

    return _sace_by_group(
        table, lambda p1, p0: strata_probs_stochastic(p1, p0, rho), contrasts
    )


def sace_no_interaction(table):
    """Always-survivor effect under monotonicity plus additive no-interaction.

    The exclusion restriction is dropped: substitution levels may shift
    outcomes, but by the same additive amount in every stratum and arm.
    Control survivors are pure always survivors, so the between-level shift
    is read off the control arm; subtracting it from the treated-arm means
    restores a solvable two-point system at two reference levels (the first
    two sufficiently separated levels in code order). The per-cell contrast
    is then constant across levels within a covariate group.
    """
    sample = table.mode == "sample"

    def contrasts(xkey, group, shares):
        # the mixing weights of the levels with both survivor means
        mixes = {
            a: share / group[a].p_surv_treated
            for a, share in shares.items()
            if group[a].p_surv_treated > 0.0
            and group[a].mean_treated is not None
            and group[a].mean_control is not None
        }
        if len(mixes) < 2:
            _warn(
                f"group {_cell_label(xkey)}: fewer than two usable levels, "
                "group dropped"
            )
            return {}
        ref, *rest = mixes
        other = next(
            (a for a in rest if abs(mixes[a] - mixes[ref]) >= SEPARATION_EPS), None
        )
        if other is None:
            raise RelevanceError(
                f"group {_cell_label(xkey)}: mixing weights constant across "
                "levels; components are not identified"
            )
        spread = abs(mixes[other] - mixes[ref])
        if sample and spread < WEAK_THRESHOLD:
            _warn(
                f"group {_cell_label(xkey)}: mixing-weight spread "
                f"{spread:.3g} is weak; the solve is noise-amplified"
            )
        shift = group[ref].mean_control - group[other].mean_control
        mu_always_ref, _ = solve_two_point_mixture(
            group[ref].mean_treated,
            group[other].mean_treated + shift,
            mixes[ref],
            mixes[other],
        )
        contrast = mu_always_ref - group[ref].mean_control
        return {a: contrast for a in shares if group[a].mean_control is not None}

    return _sace_by_group(table, strata_probs_monotone, contrasts)
