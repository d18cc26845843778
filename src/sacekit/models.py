"""Parametric estimation of the survivor average causal effect.

The estimators share a two-stage layout. Stage one fits survival models
that deliver a per-unit always-survivor share: either a joint fit of the
treated-arm survival probability together with the control/treated survival
ratio (the ratio parameterization keeps control survival below treated
survival everywhere, so the monotone route can never be violated by the
fit), or two independent arm-wise logistic fits combined through a
stochastic-monotonicity coupling of degree ``rho``. Stage two runs linear
outcome regressions in which the fitted always-survivor share enters as a
regressor, and the effect is a share-weighted plug-in average over the
empirical covariate distribution. Every survivor regression, the naive
baseline's included, goes through one function, :func:`_outcome_ols`,
which screens each share column the same way: weak spread warns, a pure
always-survivor arm (share constant at 1) drops the column with a note,
and a share constant elsewhere raises.

Method tags used throughout (and by the CLI):

- ``prop-er``: joint survival fit + arm-wise outcome fits under the
  exclusion restriction.
- ``prop-ni``: joint survival fit + one pooled outcome fit with additive
  no-interaction structure; the effect is the treatment coefficient.
- ``prop-sm``: arm-wise survival fits + stochastic monotonicity at ``rho``,
  exclusion restriction in the outcome stage.
- ``prop-sm-ni``: as prop-sm but with the pooled no-interaction outcome
  stage.
- ``naive`` and ``dgyz``: the comparison baselines, which fit no stage one.

:data:`METHODS` holds one row per tag, and :func:`estimate_sace` runs any
of them. Every fit and plug-in average takes optional integer frequency
weights, one per row; :func:`bootstrap` fits each replicate on its
distinct rows weighted by their draw counts. Without weights no weight
enters the arithmetic.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .data import _write_csv
from .errors import CollinearityError, EstimationError
from .identify import (
    PURE_SHARE_TOL,
    WEAK_THRESHOLD,
    IdentificationWarning,
    _warn,
    check_rho,
    solve_two_point_mixture,
    stochastic_always_share,
)
from .numerics import (
    FixedBlockOLS,
    OptimizerResult,
    _check_weights,
    expit,
    fit_logistic,
    fit_ols,
    maximize_loglik,
    rng_stream,
)

# Below this spread a fitted regressor is numerically constant.
CONSTANT_EPS = 1e-10


def survival_design(x, a):
    """Design matrix (1, X, A) shared by every stage-one model."""
    return np.column_stack([np.ones(len(a)), x, a])


def _design(x, a):
    """The stage-one design of ``(x, a)``; ``x`` itself when ``a`` is None."""
    return x if a is None else survival_design(x, a)


def _weights_at(weights, rows):
    """The weights of the rows that a mask or index array selects; None without weights."""
    return None if weights is None else weights[rows]


def _mean(values, weights=None):
    """Mean of ``values``, each counted ``weights`` times when weights are given."""
    if weights is None:
        return float(np.mean(values))
    return float(weights @ values / np.sum(weights))


def _share_average(values, always, weights=None):
    """Average of per-unit ``values`` weighted by the always-survivor share."""
    mass = always if weights is None else always * weights
    return float(np.sum(mass * values) / np.sum(mass))


def _design_names(covariate_names, tail):
    return ("intercept", *covariate_names, *tail)


def _softplus(t):
    """log(1 + exp(t)), elementwise and without overflow.

    The same formula as ``np.logaddexp(0, t)``, written with the vectorized
    ``exp`` and ``log1p`` kernels, which are several times faster.
    """
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


@dataclass
class SurvivalParamsER:
    """Joint survival fit: treated-arm probability and control/treated ratio.

    ``beta_treated`` parameterizes pr(survive | treated, x, a) through a
    logistic link on (1, x, a); ``gamma_ratio`` parameterizes the ratio of
    control to treated survival the same way. Control survival is their
    product, so it can never exceed treated survival.

    Each ``theta_*`` method takes covariates and substitution levels
    ``(x, a)``, or, with ``a`` omitted, a ready (1, X, A) design such as
    :func:`survival_design` returns; the estimators build that design once
    per fit and pass it.
    """

    beta_treated: np.ndarray
    gamma_ratio: np.ndarray
    optimizer: OptimizerResult
    column_names: tuple

    def theta_treated(self, x, a=None):
        return expit(_design(x, a) @ self.beta_treated)

    def theta_ratio(self, x, a=None):
        """Fitted always-survivor share among treated-arm survivors."""
        return expit(_design(x, a) @ self.gamma_ratio)

    def theta_control(self, x, a=None):
        v = _design(x, a)
        return self.theta_treated(v) * self.theta_ratio(v)

    def always_share(self, x, a=None):
        """Fitted always-survivor probability, which equals control survival."""
        return self.theta_control(x, a)

    @property
    def params(self):
        return self.optimizer.params

    @property
    def converged(self):
        return self.optimizer.converged

    @property
    def boundary_flag(self):
        return self.optimizer.boundary_flag


@dataclass
class SurvivalParamsSM:
    """Independent arm-wise survival fits for the stochastic route.

    The ``theta_*`` methods take ``(x, a)`` or a ready design, as in
    :class:`SurvivalParamsER`.
    """

    beta_treated: np.ndarray
    beta_control: np.ndarray
    opt_treated: OptimizerResult
    opt_control: OptimizerResult
    column_names: tuple

    def theta_treated(self, x, a=None):
        return expit(_design(x, a) @ self.beta_treated)

    def theta_control(self, x, a=None):
        return expit(_design(x, a) @ self.beta_control)

    @property
    def params(self):
        return np.concatenate([self.beta_treated, self.beta_control])

    @property
    def converged(self):
        return self.opt_treated.converged and self.opt_control.converged

    @property
    def boundary_flag(self):
        return self.opt_treated.boundary_flag or self.opt_control.boundary_flag


def _check_survival(survival, kind, what):
    """``survival``, checked to be a stage-one fit of ``kind`` ("er" or "sm")."""
    expected = SurvivalParamsER if kind == "er" else SurvivalParamsSM
    if not isinstance(survival, expected):
        raise TypeError(f"{what} needs a {expected.__name__} survival fit")
    return survival


def _joint_objective(design, treated, lived, dead, s_treated, weights=None):
    """Log-likelihood triple of the joint survival model on picked rows of ``design``.

    The parameter vector stacks the treated-survival coefficients ``b`` and
    the ratio coefficients ``g``. Treated units contribute ordinary
    Bernoulli terms in the treated probability; control units contribute
    Bernoulli terms in the product ``q`` of the two logistic surfaces.
    Gradient and Hessian are analytic.

    ``treated``, ``lived`` and ``dead`` index the rows of ``design`` of the
    treated units, the control survivors and the control deaths, each
    ascending; ``s_treated`` is the survival of the treated rows and
    ``weights``, if given, holds one integer frequency weight per row of
    ``design``, by which each row's terms are multiplied. Returns the
    objective and the (p, n) array of the rows it reads, one column per
    picked row in the order treated, lived, dead; the caller need not keep
    ``design``.

    A control survivor's log q is the sum of two logistic log-successes, one
    in ``b`` and one in ``g``, so the rows are gathered once, in that order,
    when the closure is built: treated units and control survivors form one
    logistic block in ``b``, control survivors another in ``g``, and only
    the control deaths, through log(1 - q), couple the two blocks.
    """
    order = np.concatenate([treated, lived, dead])
    # one C-ordered (p, n) array, so that every product below runs over
    # contiguous rows
    vt = np.asarray(design, dtype=float).T.take(order, axis=1)
    p = vt.shape[0]
    n1, m = treated.size, lived.size
    nb = n1 + m
    vg, vd = vt[:, n1:], vt[:, nb:]
    target = np.concatenate([np.asarray(s_treated, dtype=float), np.ones(m)])
    flip = 1.0 - 2.0 * target
    w = None
    if weights is not None:
        w = np.asarray(weights).take(order)
        # the weights of the rows in vg and vd, and of the two logistic blocks
        wg, wd, wb = w[n1:], w[nb:], w[:nb]

    def objective(theta):
        b, g = theta[:p], theta[p:]
        t = b @ vt
        u = g @ vg
        th = expit(t)
        thu = expit(u)
        if w is None:
            ll = -float(np.sum(_softplus(flip * t[:nb]))) - float(np.sum(_softplus(-u[:m])))
        else:
            ll = -float(wb @ _softplus(flip * t[:nb])) - float(wg[:m] @ _softplus(-u[:m]))
        r_b = np.empty_like(t)
        w_bb = np.empty_like(t)
        r_g = np.empty_like(u)
        w_gg = np.empty_like(u)
        # the two logistic blocks: residual and weight per row
        np.subtract(target, th[:nb], out=r_b[:nb])
        np.multiply(th[:nb], 1.0 - th[:nb], out=w_bb[:nb])
        np.subtract(1.0, thu[:m], out=r_g[:m])
        np.multiply(thu[:m], r_g[:m], out=w_gg[:m])

        # control deaths
        tht, thr = th[nb:], thu[m:]
        one_t, one_u = 1.0 - tht, 1.0 - thr
        q = tht * thr
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ll += float(np.sum(np.log1p(-q)) if w is None else wd @ np.log1p(-q))
            c = -(q / (1.0 - q))
            curv = q / (1.0 - q) ** 2
            np.multiply(one_t, c, out=r_b[nb:])
            np.multiply(one_u, c, out=r_g[m:])
            w_bb[nb:] = tht * one_t * c + one_t**2 * curv
            w_gg[m:] = thr * one_u * c + one_u**2 * curv
            w_bg = one_t * one_u * curv
        if w is not None:
            r_b *= w
            w_bb *= w
            r_g *= wg
            w_gg *= wg
            w_bg *= wd

        grad = np.concatenate([vt @ r_b, vg @ r_g])
        hess = np.empty((2 * p, 2 * p))
        hess[:p, :p] = (vt * w_bb) @ vt.T
        hess[p:, p:] = (vg * w_gg) @ vg.T
        hess[:p, p:] = (vd * w_bg) @ vd.T
        hess[p:, :p] = hess[:p, p:].T
        return ll, grad, np.negative(hess, out=hess)

    return objective, vt


def fit_survival_er(data, init=None, weights=None):
    """Fit the joint survival model by maximum likelihood.

    ``init`` is the starting point: the treated-survival coefficients
    stacked on the ratio coefficients, as in ``params`` of an earlier fit.
    :func:`bootstrap` passes the full-data fit there, so each replicate
    starts near its optimum. Without it the fit starts from an
    arm-wise logistic fit for the treated coefficients and zeros for the
    ratio coefficients. The returned optimizer result carries convergence
    and boundary flags; a boundary-saturated ratio surface is the
    fingerprint of a monotonicity violation in the data. ``weights`` are
    integer frequency weights, one per unit (see :func:`bootstrap`).
    """
    weights = _check_weights(weights, len(data))
    z, s = data.z, data.s
    if not np.any(z == 1) or not np.any(z == 0):
        raise EstimationError("both treatment arms are required to fit survival")
    v = survival_design(data.x, data.a)
    treated = np.flatnonzero(z == 1)
    s1 = s[treated]
    p = v.shape[1]
    if init is None:
        warm = fit_logistic(v.take(treated, axis=0), s1, weights=_weights_at(weights, treated))
        init = np.concatenate([warm.params, np.zeros(p)])
    lived = np.flatnonzero((z == 0) & (s == 1))
    dead = np.flatnonzero((z == 0) & (s != 1))
    objective, vt = _joint_objective(v, treated, lived, dead, s1, weights)
    # the objective holds what it reads of these, every row of v gathered once
    del v, treated, s1, lived, dead

    def probabilities(theta):
        # both surfaces at every unit, in the objective's row order
        return np.concatenate([expit(theta[:p] @ vt), expit(theta[p:] @ vt)])

    result = maximize_loglik(objective, init, probabilities=probabilities)
    names = _design_names(data.covariate_names, ("a",))
    return SurvivalParamsER(
        beta_treated=result.params[:p],
        gamma_ratio=result.params[p:],
        optimizer=result,
        column_names=names,
    )


def fit_survival_sm(data, init=None, weights=None):
    """Fit treated and control survival by independent logistic regressions.

    ``init`` is the starting point: the treated coefficients stacked on the
    control coefficients, as in ``params`` of an earlier fit.
    :func:`bootstrap` passes the full-data fit there, so each replicate
    starts near its optimum. Without it both fits start from zeros.
    ``weights`` are integer frequency weights, one per unit.
    """
    weights = _check_weights(weights, len(data))
    z, s = data.z, data.s
    if not np.any(z == 1) or not np.any(z == 0):
        raise EstimationError("both treatment arms are required to fit survival")
    p = data.n_covariates + 2
    init1, init0 = (None, None) if init is None else (init[:p], init[p:])

    def arm_fit(arm, start):
        # each arm's design is built from its own rows; no design of all units is held
        rows = np.flatnonzero(z == arm)
        v = survival_design(data.x.take(rows, axis=0), data.a[rows])
        s_arm, w = s[rows], _weights_at(weights, rows)
        del rows  # freed before the fit
        return fit_logistic(v, s_arm, init=start, weights=w)

    opt1, opt0 = arm_fit(1, init1), arm_fit(0, init0)
    return SurvivalParamsSM(
        beta_treated=opt1.params,
        beta_control=opt0.params,
        opt_treated=opt1,
        opt_control=opt0,
        column_names=_design_names(data.covariate_names, ("a",)),
    )


@dataclass
class OutcomeParams:
    """Coefficient blocks of the stage-two outcome regressions.

    Only the blocks used by the requested method are filled. Vectors keep a
    canonical column order recorded in ``names``; a column dropped because
    its regressor was degenerate (a pure always-survivor arm) is stored
    with coefficient 0 so downstream formulas stay valid, and ``notes``
    says so.

    - ``control``: (1, X, A), control-arm survivor mean.
    - ``treated_mix``: (1, X, share), treated-arm survivor mean with the
      always-share regressor; evaluating at share = 1 gives the fitted
      always-survivor mean.
    - ``control_mix``: (1, X, share), control-arm analogue for the
      stochastic route.
    - ``pooled``: (1, X, A, share*, Z) over all survivors, where share* is
      1 in the control arm and the fitted share in the treated arm; the Z
      coefficient is the effect.
    - ``pooled_relaxed``: (1, X, A, Z*share1, Z, (1-Z)*share0); the effect
      is coef[Z*share1] + coef[Z] - coef[(1-Z)*share0].
    """

    control: np.ndarray | None = None
    treated_mix: np.ndarray | None = None
    control_mix: np.ndarray | None = None
    pooled: np.ndarray | None = None
    pooled_relaxed: np.ndarray | None = None
    names: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


class _SurvivorFit(NamedTuple):
    """One survivor outcome regression, as :func:`_survivor_fit` builds it."""

    what: str  # the fit's name, which starts its errors and notes
    names: tuple  # the design's column names
    ys: np.ndarray
    design: np.ndarray
    weights: np.ndarray | None
    shares: dict  # fitted-share column -> the rows it is screened on
    fixed: list  # the other columns
    solver: FixedBlockOLS | None  # the fixed columns, factored once
    error: str | None  # the survivor-count failure, decided once


def _survivor_fit(what, data, rows, tail, weights=None, factor=False):
    """The survivor regression ``what`` of ``data`` at ``rows``, for :func:`_outcome_ols`.

    The one builder of a stage-two design: one Fortran-ordered array of
    (1, X) over ``rows``, then a column per ``tail`` entry ``(name, values,
    screen)``. ``values`` are the column over the rows, or None for a
    fitted-share column filled later; ``screen`` is None, or the rows a
    fitted-share column is screened on. The survivor-count failures depend
    on no share value and are decided here: fewer survivors (with integer
    frequency ``weights``, their sum) than coefficients, or a share column
    with no rows to screen. With ``factor`` the columns without a screen are
    factored once, by :class:`~sacekit.numerics.FixedBlockOLS`, for a fit
    that is evaluated at many share values.
    """
    d = data.n_covariates
    design = np.empty((rows.size, d + 1 + len(tail)), order="F")
    design[:, 0] = 1.0
    design[:, 1 : d + 1] = data.x.take(rows, axis=0)
    shares = {}
    for j, (_, values, screen) in enumerate(tail, start=d + 1):
        if values is not None:
            design[:, j] = values
        if screen is not None:
            shares[j] = screen
    names = _design_names(data.covariate_names, [name for name, _, _ in tail])
    ys, weights = data.outcomes_at(rows), _weights_at(weights, rows)
    n, p = design.shape
    if weights is not None:
        n = int(np.sum(weights))
    error = None
    if n < p:
        error = f"{what}: {n} survivors, fewer than the {p} outcome coefficients"
    elif any(design[screen, j].size == 0 for j, screen in shares.items()):
        error = f"{what}: survivors are required in both arms"
    fixed = [j for j in range(p) if j not in shares]
    solver = FixedBlockOLS(design, fixed, ys, weights) if factor and not error else None
    return _SurvivorFit(what, names, ys, design, weights, shares, fixed, solver, error)


def _outcome_ols(fit):
    """Least-squares survivor outcome regression: (coefficients, notes).

    The one stage-two fit of every model-based method, of a
    :func:`_survivor_fit` at the current values of its share columns. A
    share column whose spread on its rows is below ``WEAK_THRESHOLD``
    warns; one constant at 1 marks a pure always-survivor sample and is
    dropped with coefficient 0 and a note; one constant anywhere else
    carries no information and raises CollinearityError. Errors and notes
    start with ``fit.what``, and the coefficients come in ``fit.names`` order.

    With a solver the kept share columns S are solved against the factored
    fixed columns F by block elimination. Where that factor, or the one
    assembled with S, does not clear the rank tolerance of ``fit_ols`` by
    ``numerics.RANK_MARGIN``, or S is not finite, and always without a
    solver, the fit is :func:`fit_ols` on the full design, so every
    ``CollinearityError`` and ``ValueError`` is that of ``fit_ols``.
    """
    if fit.error is not None:
        raise EstimationError(fit.error)
    design, names = fit.design, fit.names
    keep, notes = list(range(design.shape[1])), []
    for j, rows in fit.shares.items():
        col = design[rows, j]
        spread = float(np.ptp(col))
        if spread >= CONSTANT_EPS:
            if spread < WEAK_THRESHOLD:
                _warn(
                    f"{fit.what}: {names[j]} spread {spread:.3g} is weak; "
                    "coefficients are noise-amplified"
                )
        elif abs(float(col[0]) - 1.0) < PURE_SHARE_TOL:
            keep.remove(j)
            notes.append(
                f"{fit.what}: {names[j]} dropped, its survivors are a pure "
                "always-survivor sample"
            )
        else:
            raise CollinearityError(
                [names[j]],
                f"{fit.what}: fitted always-survivor share {names[j]} is numerically "
                f"constant at {float(col[0]):.6g}; the substitution variable "
                "carries no information there",
            )
    coef = np.zeros(design.shape[1])
    varying = [j for j in fit.shares if j in keep]
    solved = None if fit.solver is None else fit.solver.solve(design, varying)
    if solved is None:
        kept = design if len(keep) == coef.size else design[:, keep]
        coef[keep] = fit_ols(
            kept, fit.ys, column_names=[names[j] for j in keep], weights=fit.weights
        )
    else:
        coef[fit.fixed + varying] = solved
    return coef, notes


def _always_mass(always, weights=None):
    """Mean fitted always-survivor share; zero mass leaves no effect to average."""
    mass = _mean(always, weights) if always.size else 0.0
    if mass <= 1e-12:
        raise EstimationError(
            "fitted always-survivor mass is zero; the effect is undefined"
        )
    return mass


def fit_outcome_er(data, survival, weights=None):
    """Stage-two outcome fits under the exclusion restriction.

    Control-arm survivors are pure always survivors, so their mean is linear
    in (1, X, A). Treated-arm survivor means are linear in (1, X, share)
    where share is the fitted always-survivor share from ``survival``; the
    share coefficient measures the always-vs-protected outcome gap.
    ``weights`` are integer frequency weights, one per unit.
    """
    _check_survival(survival, "er", "fit_outcome_er")
    weights = _check_weights(weights, len(data))
    rows0, rows1 = (np.flatnonzero(data.survivor_mask(arm)) for arm in (0, 1))
    control = _survivor_fit(
        "the control-arm outcome fit", data, rows0, [("a", data.a[rows0], None)], weights
    )
    control_coef, _ = _outcome_ols(control)
    share = survival.theta_ratio(data.x.take(rows1, axis=0), data.a[rows1])
    tail = [("always_share", share, slice(None))]
    treated = _survivor_fit("the treated-arm outcome fit", data, rows1, tail, weights)
    treated_mix, notes = _outcome_ols(treated)
    return OutcomeParams(
        control=control_coef,
        treated_mix=treated_mix,
        names={"control": control.names, "treated_mix": treated.names},
        notes=notes,
    )


def fit_ni(data, survival, weights=None):
    """Pooled no-interaction outcome fit.

    All survivors enter one regression on (1, X, A, share*, Z): share* is 1
    for control-arm rows (pure always survivors) and the fitted share for
    treated-arm rows. Under the additive no-interaction assumption the Z
    coefficient is exactly the always-survivor effect. ``weights`` are
    integer frequency weights, one per unit.
    """
    _check_survival(survival, "er", "fit_ni")
    weights = _check_weights(weights, len(data))
    rows = np.flatnonzero(data.survivor_mask())
    zs = data.z[rows]
    if not (zs == 1).any() or not (zs == 0).any():
        raise EstimationError("survivors are required in both arms")
    treated = np.flatnonzero(zs == 1)
    share = np.ones(rows.size)
    share[treated] = survival.theta_ratio(
        data.x.take(rows[treated], axis=0), data.a[rows[treated]]
    )
    tail = [("a", data.a[rows], None), ("always_share", share, treated), ("z", zs, None)]
    fit = _survivor_fit("the pooled outcome fit", data, rows, tail, weights)
    pooled, notes = _outcome_ols(fit)
    return OutcomeParams(pooled=pooled, names={"pooled": fit.names}, notes=notes)


@dataclass
class SmFit:
    """Stochastic-monotonicity fit at one value of ``rho``."""

    survival: SurvivalParamsSM
    rho: float
    assume_er: bool
    outcome: OutcomeParams
    effect: float
    always_mass: float
    harmed_mass: float
    warnings: list = field(default_factory=list)


class _SmStage:
    """The part of the stochastic-monotonicity pipeline that no ``rho`` changes.

    Built once per :func:`sensitivity_sweep` (and once per stand-alone
    :func:`fit_sm` call) for one outcome variant. It holds the two fitted
    survival surfaces over all units and one factored :func:`_survivor_fit`
    per outcome regression, whose fixed columns F (intercept, covariates,
    ``a`` and ``z``) are factored once
    (:class:`~sacekit.numerics.FixedBlockOLS`) and whose survivor-count
    failures, which no ``rho`` changes, are decided once. Each fit is listed
    once, in ``fits``, with its survivor rows and its share columns, each
    (column, survival surface, arm). At a ``rho`` ``always[rows]`` is
    gathered once per fit, and every share column is ``always[rows] /
    max(surface[rows], 1e-300)``, times Z (arm 1) or 1 - Z (arm 0) in the
    pooled fit, written in place, so no share-length array is held between
    points; the floor keeps a zero survival probability from dividing by
    zero. :func:`_outcome_ols` then screens the share columns S and solves
    ``[F | S]`` by block elimination, or by ``fit_ols`` on the full design
    where the factor is too near rank deficiency, so its errors are exactly
    ``fit_ols``'s. A stored survivor-count failure is raised where a full
    fit would raise it: after the zero-mass check of :func:`fit_sm`, and in
    an arm-wise fit after the treated arm's. In a sweep each grid point
    thus still fails alone. ``weights`` are integer frequency weights, one
    per unit.
    """

    def __init__(self, data, survival, assume_er, weights=None):
        self.survival = survival
        self.assume_er = assume_er
        self.weights = weights
        self.x = data.x
        v = survival_design(data.x, data.a)
        self.th1 = survival.theta_treated(v)
        self.th0 = survival.theta_control(v)
        del v  # freed before the outcome designs are built and factored
        self._last = None
        self.fits = []
        if assume_er:
            tail = [("always_share", None, slice(None))]
            for arm, name, th in ((1, "treated", self.th1), (0, "control", self.th0)):
                rows = np.flatnonzero(data.survivor_mask(arm))
                what = f"the {name}-arm outcome fit"
                fit = _survivor_fit(what, data, rows, tail, weights, factor=True)
                self.fits.append((fit, rows, [(-1, th, None)]))
        else:
            rows = np.flatnonzero(data.survivor_mask())
            zs = data.z[rows]
            # (1, X, A, Z*share1, Z, (1-Z)*share0); each share column is
            # screened on its own arm's rows
            tail = [
                ("a", data.a[rows], None),
                ("z_x_treated_share", None, np.flatnonzero(zs == 1)),
                ("z", zs, None),
                ("cz_x_control_share", None, np.flatnonzero(zs == 0)),
            ]
            fit = _survivor_fit("the pooled outcome fit", data, rows, tail, weights, factor=True)
            d = data.n_covariates
            # arm 0 comes last: its 1 - Z is written over the gathered shares
            self.fits.append((fit, rows, [(d + 2, self.th1, 1), (d + 4, self.th0, 0)]))
        self.names = self.fits[0][0].names

    def coupling(self, rho):
        """(always, harmed_mass) at ``rho``.

        The last result is kept, so asking again at the same ``rho`` (as
        :func:`sensitivity_sweep` does for a failing point) computes nothing.
        """
        rho = float(rho)
        if self._last is None or self._last[0] != rho:
            always = stochastic_always_share(self.th1, self.th0, rho)
            harmed_mass = _mean(self.th0 - always, self.weights) if always.size else 0.0
            self._last = (rho, always, harmed_mass)
        return self._last[1:]

    def fit(self, always):
        """(outcome, effect) of the outcome stage at the coupling ``always``.

        Two arm-wise fits on (1, X, arm share) when the exclusion
        restriction is assumed, else one pooled fit. Each fit gathers
        ``always`` at its rows once, fills its share columns and is solved.
        """
        coefs, notes = [], []
        for fit, rows, columns in self.fits:
            taken = always.take(rows)
            for j, th, arm in columns:
                share = fit.design[:, j]
                # "clip" lets take write into the column directly; rows are valid
                np.take(th, rows, out=share, mode="clip")
                np.divide(taken, np.maximum(share, 1e-300, out=share), out=share)
                if arm is not None:
                    z = fit.design[:, fit.names.index("z")]
                    share *= z if arm else np.subtract(1.0, z, out=taken)
            del taken  # freed before the outcome fit
            coef, fit_notes = _outcome_ols(fit)
            coefs.append(coef)
            notes += fit_notes
        keys = ("treated_mix", "control_mix") if self.assume_er else ("pooled_relaxed",)
        outcome = OutcomeParams(
            **dict(zip(keys, coefs)), names=dict.fromkeys(keys, self.names), notes=notes
        )
        if self.assume_er:
            # (1, X, 1) @ (treated - control): the survivor-mean gap of each unit
            gap_coef = coefs[0] - coefs[1]
            gap = self.x @ gap_coef[1:-1] + (gap_coef[0] + gap_coef[-1])
            return outcome, _share_average(gap, always, self.weights)
        (coef,) = coefs
        d = self.x.shape[1]
        return outcome, float(coef[d + 2] + coef[d + 3] - coef[d + 4])


def fit_sm(data, rho, assume_er=True, survival=None, weights=None, *, _stage=None):
    """Stochastic-monotonicity pipeline at sensitivity level ``rho``.

    Stage one (reusable across ``rho`` via the ``survival`` argument) fits
    the two arm-wise survival models. The coupling at ``rho`` turns them into
    a per-unit always-survivor share. Stage two either fits each arm's
    survivor mean on (1, X, arm share) and plugs in (``assume_er=True``), or
    fits the pooled regression on (1, X, A, Z*share1, Z, (1-Z)*share0)
    whose coefficient combination gives the effect (``assume_er=False``).

    An arm whose share regressor is constant at 1 is a pure
    always-survivor sample (this happens at ``rho = 1`` when fitted control
    survival never exceeds treated survival); the share column is then
    dropped and its coefficient recorded as 0, which leaves every formula
    valid.

    Everything that does not depend on ``rho`` (the survival surfaces over
    all units, the survivor selections, the fixed design columns and their
    factorization, and the survivor-count checks) is built first as one
    stage, :class:`_SmStage`; :func:`sensitivity_sweep` builds it once and
    evaluates every grid point through this function, and the fit reports
    the stage's ``assume_er``. ``weights`` are integer frequency weights,
    one per unit.
    """
    if _stage is None:
        weights = _check_weights(weights, len(data))
        if survival is None:
            survival = fit_survival_sm(data, weights=weights)
        _stage = _SmStage(data, _check_survival(survival, "sm", "fit_sm"), assume_er, weights)
    always, harmed_mass = _stage.coupling(rho)
    always_mass = _always_mass(always, _stage.weights)
    outcome, effect = _stage.fit(always)
    return SmFit(
        survival=_stage.survival,
        rho=float(rho),
        assume_er=_stage.assume_er,
        outcome=outcome,
        effect=effect,
        always_mass=always_mass,
        harmed_mass=harmed_mass,
        warnings=outcome.notes,
    )


# Why a bootstrap replicate is dropped, in the order the reasons are checked.
FAILURE_REASONS = ("estimation_error", "non_finite", "not_converged")


@dataclass
class SaceEstimate:
    """Point estimate of the always-survivor effect, optionally with bootstrap.

    ``n_failed`` counts the dropped bootstrap replicates and
    ``failed_by_reason`` splits that count over :data:`FAILURE_REASONS`.
    """

    method: str
    point: float
    se: float | None = None
    q025: float | None = None
    q50: float | None = None
    q975: float | None = None
    n_boot: int = 0
    n_failed: int = 0
    failed_by_reason: dict = field(default_factory=lambda: dict.fromkeys(FAILURE_REASONS, 0))
    converged: bool = True
    warnings: list = field(default_factory=list)

    def to_dict(self):
        # the field order is the order of the JSON report
        return asdict(self)


def naive_estimator(data, weights=None):
    """Survivor-only regression that ignores the truncation problem.

    OLS of the outcome on (1, X, A, Z) among survivors; returns the Z
    coefficient. Biased whenever treatment changes the composition of the
    surviving population. ``weights`` are integer frequency weights, one
    per unit.
    """
    weights = _check_weights(weights, len(data))
    rows = np.flatnonzero(data.survivor_mask())
    zs = data.z[rows]
    if not (zs == 1).any() or not (zs == 0).any():
        raise EstimationError("survivors are required in both arms")
    tail = [("a", data.a[rows], None), ("z", zs, None)]
    coef, _ = _outcome_ols(_survivor_fit("the naive fit", data, rows, tail, weights))
    return float(coef[-1])


def dgyz_estimator(data, weights=None):
    """Covariate-free two-point mixture plug-in baseline.

    Requires a binary substitution variable. At each level, the ratio of
    control-arm to treated-arm survival proportions estimates the
    always-survivor share among treated survivors; the two treated-arm
    survivor means then solve the mixture for the treated always-survivor
    mean, and control survivors average to the control one. The ratios are
    used raw (they may exceed 1 in samples), which is the source of this
    baseline's documented instability when the two shares are close.
    ``weights`` are integer frequency weights, one per unit.
    """
    weights = _check_weights(weights, len(data))
    z, s, a = data.z, data.s, data.a

    def mean(values, sel):
        return _mean(values, _weights_at(weights, sel))

    levels = np.unique(a)
    if levels.size != 2:
        raise EstimationError(
            f"the baseline needs a binary substitution variable, found levels {levels.tolist()}"
        )
    shares = []
    means = []
    for level in levels:
        sel1 = (z == 1) & (a == level)
        sel0 = (z == 0) & (a == level)
        if not sel1.any() or not sel0.any():
            raise EstimationError(f"no units in an arm at substitution level {level}")
        p1 = mean(s[sel1], sel1)
        p0 = mean(s[sel0], sel0)
        if p1 <= 0.0:
            raise EstimationError(f"no treated survivors at substitution level {level}")
        surv1 = sel1 & (s == 1)
        means.append(mean(data.outcomes_at(surv1), surv1))
        shares.append(p0 / p1)
    mask0 = (z == 0) & (s == 1)
    if not mask0.any():
        raise EstimationError("no control-arm survivors")
    mu_treated, _ = solve_two_point_mixture(means[0], means[1], shares[0], shares[1])
    mu_control = mean(data.outcomes_at(mask0), mask0)
    return mu_treated - mu_control


# The estimators of the method table: (data, survival, rho, weights) ->
# (point, notes). They reach the public fits through this module's global
# names, so a wrapper installed on those names sees every call.


def _prop_er(data, survival, rho, weights):
    # one stage-one design serves the always-survivor share and both plug-in means
    v = survival_design(data.x, data.a)
    outcome = fit_outcome_er(data, survival, weights)
    always = survival.always_share(v)
    _always_mass(always, weights)
    mu0 = v @ outcome.control
    v[:, -1] = 1.0
    mu1 = v @ outcome.treated_mix
    return _share_average(mu1 - mu0, always, weights), outcome.notes


def _prop_ni(data, survival, rho, weights):
    outcome = fit_ni(data, survival, weights)
    return float(outcome.pooled[-1]), outcome.notes


def _prop_sm(data, survival, rho, weights, assume_er=True):
    fit = fit_sm(data, rho, assume_er=assume_er, survival=survival, weights=weights)
    return fit.effect, fit.warnings


class _Method(NamedTuple):
    """One row of :data:`METHODS`."""

    needs_rho: bool
    stage_one: str | None  # kind of stage-one fit: "er", "sm" or None
    estimate: Callable


METHODS = {
    "naive": _Method(False, None, lambda data, _, __, w: (naive_estimator(data, w), [])),
    "dgyz": _Method(False, None, lambda data, _, __, w: (dgyz_estimator(data, w), [])),
    "prop-er": _Method(False, "er", _prop_er),
    "prop-ni": _Method(False, "er", _prop_ni),
    "prop-sm": _Method(True, "sm", _prop_sm),
    "prop-sm-ni": _Method(True, "sm", partial(_prop_sm, assume_er=False)),
}
ALL_METHODS = tuple(METHODS)
PROP_METHODS = tuple(m for m, spec in METHODS.items() if spec.stage_one)


def check_method(method, rho=None):
    """The :data:`METHODS` row of ``method``, with ``rho`` checked against it.

    ``rho`` is required by, and only by, the methods that need it, and must
    lie in [0, 1]. An unknown method or a wrong ``rho`` raises ValueError.
    """
    spec = METHODS.get(method)
    if spec is None:
        raise ValueError(f"unknown method {method!r}; expected one of {ALL_METHODS}")
    if not spec.needs_rho:
        if rho is not None:
            raise ValueError(f"rho does not apply to method {method!r}")
    elif rho is None:
        raise ValueError(f"{method} requires rho")
    else:
        check_rho(rho)
    return spec


def method_rhos(methods, rho):
    """Share one ``rho`` among several methods: {method: its rho}.

    Methods that need ``rho`` get it and the rest get None; each pair is
    checked with :func:`check_method`. The benchmark grid runs its methods
    this way.
    """
    rhos = {m: rho if m in METHODS and METHODS[m].needs_rho else None for m in methods}
    for m in methods:
        check_method(m, rhos[m])
    return rhos


def _fit_stage_one(data, kind, start=None, weights=None):
    """Stage-one survival fit of the given kind; None when ``kind`` is None.

    ``start`` is an earlier stage-one fit of the same kind whose parameters
    are the starting point; without it the fit starts cold.
    """
    if kind is None:
        return None
    fit = fit_survival_er if kind == "er" else fit_survival_sm
    return fit(data, init=None if start is None else start.params, weights=weights)


def estimate_sace(data, method, rho=None, survival=None, weights=None):
    """Estimate the always-survivor effect by any method of :data:`METHODS`.

    Parameters
    ----------
    data : Dataset
    method : str
        One of ``naive``, ``dgyz``, ``prop-er``, ``prop-ni``, ``prop-sm``,
        ``prop-sm-ni``.
    rho : float, optional
        Sensitivity level; required by (and only by) the stochastic methods.
    survival : optional
        Precomputed stage-one fit (SurvivalParamsER for the er/ni methods,
        SurvivalParamsSM for the stochastic ones) to reuse across calls;
        the baselines fit no stage one and ignore it.
    weights : (n,) array, optional
        Integer frequency weights of 1 or more, one per row: row i stands
        for ``weights[i]`` copies of itself. Every fit and every plug-in
        average counts it that many times, so the estimate equals the one
        on the copied rows up to rounding (:func:`bootstrap` fits its
        resamples this way). Without weights each row counts once and no
        weight enters the arithmetic.

    Returns
    -------
    SaceEstimate
        Point estimate with convergence status and collected warnings
        (no bootstrap fields; see :func:`bootstrap`).
    """
    spec = check_method(method, rho)
    weights = _check_weights(weights, len(data))
    collected = []
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        if survival is None:
            survival = _fit_stage_one(data, spec.stage_one, weights=weights)
        elif spec.stage_one is not None:
            _check_survival(survival, spec.stage_one, method)
        converged = survival is None or survival.converged
        if not converged:
            collected.append(
                "survival fit did not converge"
                + (
                    " (boundary-saturated fitted probabilities)"
                    if survival.boundary_flag
                    else ""
                )
            )
        point, notes = spec.estimate(data, survival, rho, weights)
        collected.extend(notes)
    collected.extend(str(w.message) for w in caught)
    return SaceEstimate(
        method=method, point=point, converged=converged, warnings=collected
    )


def _replicates(draws, methods, rhos, starts=None):
    """{method: (kept points, dropped replicates by reason)} over ``(data, weights)`` draws.

    The replicate loop of :func:`bootstrap` and ``run_benchmark``. In each
    draw every stage-one kind is fitted once, from ``starts[kind]`` if
    given, and shared among the methods; ``rhos`` maps each method to its ``rho``.
    """
    starts = starts or {}
    points = {m: [] for m in methods}
    failed = {m: dict.fromkeys(FAILURE_REASONS, 0) for m in methods}
    for data, weights in draws:
        fits = {}  # kind -> this draw's stage-one fit
        for m in methods:
            kind = METHODS[m].stage_one
            try:
                if kind not in fits:
                    fits[kind] = _fit_stage_one(data, kind, starts.get(kind), weights)
                est = estimate_sace(data, m, rho=rhos[m], survival=fits[kind], weights=weights)
            except EstimationError:
                failed[m]["estimation_error"] += 1
                continue
            if not np.isfinite(est.point):
                failed[m]["non_finite"] += 1
            elif not est.converged:
                failed[m]["not_converged"] += 1
            else:
                points[m].append(est.point)
    return {m: (np.array(points[m]), failed[m]) for m in methods}


def _resample(data, seed, b):
    """Bootstrap replicate ``b``: (its distinct rows as a dataset, their counts).

    The replicate draws ``n`` row indices with replacement from
    ``rng_stream(seed, b)``. It keeps each drawn row once, in ascending
    order, with the number of times it was drawn as a float frequency
    weight (1 or more).
    """
    n = len(data)
    counts = np.bincount(rng_stream(seed, b).integers(0, n, size=n), minlength=n)
    rows = np.flatnonzero(counts)
    return data.subset(rows), counts[rows].astype(float)


def bootstrap(data, method, n_boot=200, seed=0, rho=None):
    """Nonparametric bootstrap of any method's point estimate.

    Resamples units with replacement; replicate ``b`` uses the derived
    stream ``rng_stream(seed, b)`` so any single replicate can be
    reproduced. A replicate is fitted on its distinct rows, about 63% of
    them, each weighted by the number of times it was drawn
    (:func:`_resample`); that is the fit on the resample with its rows
    copied, up to summation order (measured within 1e-12 relative), and
    every screen that reads which rows are present sees the same rows.
    The stage-one survival fit of a model-based method runs
    once on the full data, from the usual cold start, and gives the point
    estimate; when it converged, every replicate's stage-one fit starts
    from it, which reaches the replicate's own optimum in about half the
    Newton iterations. Replicates that raise an estimation error, return a
    non-finite value, or fail stage-one convergence are dropped and counted
    by reason (``failed_by_reason``, the first reason that applies); more
    than 10% dropped flags the result as unreliable.
    The standard error is the ddof-1 standard deviation and the quantiles
    are linearly interpolated.
    """
    spec = check_method(method, rho)
    if n_boot < 2:
        raise ValueError("need at least 2 bootstrap replicates")

    full = _fit_stage_one(data, spec.stage_one)
    first = estimate_sace(data, method, rho=rho, survival=full)
    starts = {spec.stage_one: full} if first.converged else None
    draws = (_resample(data, seed, b) for b in range(n_boot))
    est, failed = _replicates(draws, (method,), {method: rho}, starts)[method]
    n_failed = sum(failed.values())

    if not est.size:
        raise EstimationError("every bootstrap replicate failed")
    notes = []
    if n_failed:
        notes.append(f"{n_failed} of {n_boot} bootstrap replicates dropped")
    if n_failed > 0.1 * n_boot:
        notes.append("unreliable: more than 10% of bootstrap replicates failed")
    if not first.converged:
        notes.append("full-data survival fit did not converge")
    q025, q50, q975 = np.quantile(est, [0.025, 0.5, 0.975], method="linear")
    return SaceEstimate(
        method=method,
        point=first.point,
        se=float(np.std(est, ddof=1)),
        q025=float(q025),
        q50=float(q50),
        q975=float(q975),
        n_boot=n_boot,
        n_failed=n_failed,
        converged=first.converged,
        warnings=notes,
        failed_by_reason=failed,
    )


@dataclass
class SensitivityRow:
    rho: float
    harmed_mass: float
    effect: float
    message: str = ""


@dataclass
class SensitivityCurve:
    """Effect and harmed-stratum mass over a grid of sensitivity levels."""

    assume_er: bool
    rows: list

    def to_csv(self, path):
        """Write the curve to ``path`` with the pinned header ``rho,pi_dl,delta``.

        A failed grid point keeps its row with an empty effect field.
        """
        columns = [[getattr(r, f) for r in self.rows] for f in ("rho", "harmed_mass", "effect")]
        _write_csv(path, ["rho", "pi_dl", "delta"], columns, lineterminator="\n")


def sensitivity_sweep(data, rho_grid, assume_er=True, survival=None):
    """Sweep the stochastic-monotonicity estimate over a grid of ``rho``.

    The arm-wise survival models are fitted once and reused at every grid
    point. Everything else that does not depend on ``rho`` is computed once
    per sweep too, in one :class:`_SmStage`: the fitted survival surfaces
    over all units, the survivor selections and outcomes, the fixed columns
    F of the outcome designs, their one QR factorization, and the
    survivor-count checks. Each grid point computes the coupling
    (always-survivor share and harmed mass) once, overwrites the one or two
    share columns S and runs the outcome fits through :func:`fit_sm`, which
    solves ``[F | S]`` by block elimination against the stored factor (or
    by ``fit_ols`` on the full design where the factor is too near rank
    deficiency; see :class:`_SmStage`). The harmed-stratum mass falls as
    ``rho`` rises (stronger positive coupling leaves less room for units
    harmed by treatment), which gives the rho axis its interpretation. A
    grid point whose outcome stage fails is recorded with its message and
    harmed mass instead of aborting the sweep; a survivor-count failure
    gives every point the same message, after a zero always-survivor mass,
    which is checked first.
    """
    grid = np.asarray(rho_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("rho grid is empty")
    for rho in grid.tolist():
        check_rho(rho)
    grid = np.sort(grid)
    if survival is None:
        survival = fit_survival_sm(data)
    stage = _SmStage(data, _check_survival(survival, "sm", "sensitivity_sweep"), assume_er)
    rows = []
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", IdentificationWarning)
        for rho in grid.tolist():
            try:
                fit = fit_sm(data, rho, _stage=stage)
            except EstimationError as exc:
                rows.append(
                    SensitivityRow(
                        rho=rho,
                        harmed_mass=stage.coupling(rho)[1],
                        effect=float("nan"),
                        message=str(exc),
                    )
                )
                continue
            rows.append(
                SensitivityRow(rho=rho, harmed_mass=fit.harmed_mass, effect=fit.effect)
            )
    return SensitivityCurve(assume_er=assume_er, rows=rows)
