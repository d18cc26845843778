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
of them.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import CollinearityError, EstimationError
from .identify import (
    WEAK_THRESHOLD,
    IdentificationWarning,
    _warn,
    check_rho,
    solve_two_point_mixture,
)
from .numerics import (
    OptimizerResult,
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
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    a = np.asarray(a, dtype=float)
    return np.column_stack([np.ones(a.shape[0]), x, a])


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
    """

    beta_treated: np.ndarray
    gamma_ratio: np.ndarray
    optimizer: OptimizerResult
    column_names: tuple

    def theta_treated(self, x, a):
        return expit(survival_design(x, a) @ self.beta_treated)

    def theta_ratio(self, x, a):
        """Fitted always-survivor share among treated-arm survivors."""
        return expit(survival_design(x, a) @ self.gamma_ratio)

    def theta_control(self, x, a):
        return self.theta_treated(x, a) * self.theta_ratio(x, a)

    def always_share(self, x, a):
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
    """Independent arm-wise survival fits for the stochastic route."""

    beta_treated: np.ndarray
    beta_control: np.ndarray
    opt_treated: OptimizerResult
    opt_control: OptimizerResult
    column_names: tuple

    def theta_treated(self, x, a):
        return expit(survival_design(x, a) @ self.beta_treated)

    def theta_control(self, x, a):
        return expit(survival_design(x, a) @ self.beta_control)

    @property
    def params(self):
        return np.concatenate([self.beta_treated, self.beta_control])

    @property
    def converged(self):
        return self.opt_treated.converged and self.opt_control.converged

    @property
    def boundary_flag(self):
        return self.opt_treated.boundary_flag or self.opt_control.boundary_flag


def joint_survival_objective(design_treated, s_treated, design_control, s_control):
    """Log-likelihood triple for the joint survival model.

    The parameter vector stacks the treated-survival coefficients ``b`` and
    the ratio coefficients ``g``. Treated-arm units contribute ordinary
    Bernoulli terms in the treated probability; control-arm units contribute
    Bernoulli terms in the product ``q`` of the two logistic surfaces.
    Gradient and Hessian are analytic.

    A control survivor's log q is the sum of two logistic log-successes, one
    in ``b`` and one in ``g``, so the rows are sorted once, when the closure
    is built: treated units and control survivors form one logistic block in
    ``b``, control survivors another in ``g``, and only the control deaths,
    through log(1 - q), couple the two blocks.
    """
    v1 = np.asarray(design_treated, dtype=float)
    s1 = np.asarray(s_treated, dtype=float)
    v0 = np.asarray(design_control, dtype=float)
    s0 = np.asarray(s_control, dtype=float)
    p = v1.shape[1]
    n1 = v1.shape[0]
    lived = s0 == 1
    # columns: treated units, control survivors, control deaths; stored as
    # one C-ordered (p, n) array so that every product below runs over
    # contiguous rows
    vt = np.empty((p, n1 + v0.shape[0]))
    np.concatenate([v1.T, v0[lived].T, v0[~lived].T], axis=1, out=vt)
    m = int(np.count_nonzero(lived))
    nb = n1 + m
    vg, vd = vt[:, n1:], vt[:, nb:]
    target = np.concatenate([s1, np.ones(m)])
    flip = 1.0 - 2.0 * target

    def objective(theta):
        b, g = theta[:p], theta[p:]
        t = b @ vt
        u = g @ vg
        th = expit(t)
        thu = expit(u)
        ll = -float(np.sum(_softplus(flip * t[:nb]))) - float(np.sum(_softplus(-u[:m])))
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
            ll += float(np.sum(np.log1p(-q)))
            c = -(q / (1.0 - q))
            curv = q / (1.0 - q) ** 2
            np.multiply(one_t, c, out=r_b[nb:])
            np.multiply(one_u, c, out=r_g[m:])
            w_bb[nb:] = tht * one_t * c + one_t**2 * curv
            w_gg[m:] = thr * one_u * c + one_u**2 * curv
            w_bg = one_t * one_u * curv

        grad = np.concatenate([vt @ r_b, vg @ r_g])
        hess = np.empty((2 * p, 2 * p))
        hess[:p, :p] = (vt * w_bb) @ vt.T
        hess[p:, p:] = (vg * w_gg) @ vg.T
        hess[:p, p:] = (vd * w_bg) @ vd.T
        hess[p:, :p] = hess[:p, p:].T
        return ll, grad, np.negative(hess, out=hess)

    return objective


def fit_survival_er(data, init=None):
    """Fit the joint survival model by maximum likelihood.

    ``init`` is the starting point: the treated-survival coefficients
    stacked on the ratio coefficients, as in ``params`` of an earlier fit.
    :func:`bootstrap` passes the full-data fit there, so each replicate
    starts near its optimum. Without it the fit starts from an
    arm-wise logistic fit for the treated coefficients and zeros for the
    ratio coefficients. The returned optimizer result carries convergence
    and boundary flags; a boundary-saturated ratio surface is the
    fingerprint of a monotonicity violation in the data.
    """
    z, s = data.z, data.s
    if not np.any(z == 1) or not np.any(z == 0):
        raise EstimationError("both treatment arms are required to fit survival")
    v = survival_design(data.x, data.a)
    v1, s1 = v[z == 1], s[z == 1]
    v0, s0 = v[z == 0], s[z == 0]
    p = v.shape[1]
    if init is None:
        warm = fit_logistic(v1, s1)
        init = np.concatenate([warm.params, np.zeros(p)])
    objective = joint_survival_objective(v1, s1, v0, s0)

    def probabilities(theta):
        return np.concatenate([expit(v @ theta[:p]), expit(v @ theta[p:])])

    result = maximize_loglik(objective, init, probabilities=probabilities)
    names = _design_names(data.covariate_names, ("a",))
    return SurvivalParamsER(
        beta_treated=result.params[:p],
        gamma_ratio=result.params[p:],
        optimizer=result,
        column_names=names,
    )


def fit_survival_sm(data, init=None):
    """Fit treated and control survival by independent logistic regressions.

    ``init`` is the starting point: the treated coefficients stacked on the
    control coefficients, as in ``params`` of an earlier fit.
    :func:`bootstrap` passes the full-data fit there, so each replicate
    starts near its optimum. Without it both fits start from zeros.
    """
    z, s = data.z, data.s
    if not np.any(z == 1) or not np.any(z == 0):
        raise EstimationError("both treatment arms are required to fit survival")
    v = survival_design(data.x, data.a)
    p = v.shape[1]
    init1, init0 = (None, None) if init is None else (init[:p], init[p:])
    opt1 = fit_logistic(v[z == 1], s[z == 1], init=init1)
    opt0 = fit_logistic(v[z == 0], s[z == 0], init=init0)
    return SurvivalParamsSM(
        beta_treated=opt1.params,
        beta_control=opt0.params,
        opt_treated=opt1,
        opt_control=opt0,
        column_names=_design_names(data.covariate_names, ("a",)),
    )


def stochastic_always_share(theta_treated, theta_control, rho):
    """Vectorized always-survivor share under stochastic monotonicity."""
    th1 = np.asarray(theta_treated, dtype=float)
    th0 = np.asarray(theta_control, dtype=float)
    rho = check_rho(rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = th1 + rho * (np.minimum(1.0, th1 / th0) - th1)
    return np.where(th0 > 0.0, th0 * np.where(th0 > 0.0, cond, 0.0), 0.0)


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


def _outcome_ols(ys, design, names, shares, what):
    """Least-squares survivor outcome regression: (coefficients, notes).

    The one stage-two fit of every model-based method. ``shares`` maps the
    index of each fitted-share column to the rows it is screened on. A
    column whose spread there is below ``WEAK_THRESHOLD`` warns; one
    constant at 1 marks a pure always-survivor sample and is dropped with
    coefficient 0 and a note; one constant anywhere else carries no
    information and raises CollinearityError. Errors and notes start with
    ``what``, the fit's name, and the coefficients come in ``names`` order.
    """
    n, p = design.shape
    if n < p:
        raise EstimationError(
            f"{what}: {n} survivors, fewer than the {p} outcome coefficients"
        )
    screened = {j: design[rows, j] for j, rows in shares.items()}
    if any(col.size == 0 for col in screened.values()):
        raise EstimationError(f"{what}: survivors are required in both arms")
    keep, notes = list(range(p)), []
    for j, col in screened.items():
        spread = float(np.ptp(col))
        if spread >= CONSTANT_EPS:
            if spread < WEAK_THRESHOLD:
                _warn(
                    f"{what}: {names[j]} spread {spread:.3g} is weak; "
                    "coefficients are noise-amplified"
                )
        elif abs(float(col[0]) - 1.0) < 1e-6:
            keep.remove(j)
            notes.append(
                f"{what}: {names[j]} dropped, its survivors are a pure "
                "always-survivor sample"
            )
        else:
            raise CollinearityError(
                [names[j]],
                f"{what}: fitted always-survivor share {names[j]} is numerically "
                f"constant at {float(col[0]):.6g}; the substitution variable "
                "carries no information there",
            )
    coef = np.zeros(p)
    fit = design if len(keep) == p else design[:, keep]
    coef[keep] = fit_ols(fit, ys, column_names=[names[j] for j in keep])
    return coef, notes


def _always_mass(always):
    """Mean fitted always-survivor share; zero mass leaves no effect to average."""
    mass = float(np.mean(always)) if always.size else 0.0
    if mass <= 1e-12:
        raise EstimationError(
            "fitted always-survivor mass is zero; the effect is undefined"
        )
    return mass


def fit_outcome_er(data, survival):
    """Stage-two outcome fits under the exclusion restriction.

    Control-arm survivors are pure always survivors, so their mean is linear
    in (1, X, A). Treated-arm survivor means are linear in (1, X, share)
    where share is the fitted always-survivor share from ``survival``; the
    share coefficient measures the always-vs-protected outcome gap.
    """
    x0, a0, y0 = data.survivors(arm=0)
    x1, a1, y1 = data.survivors(arm=1)
    names_control = _design_names(data.covariate_names, ("a",))
    names_treated = _design_names(data.covariate_names, ("always_share",))
    control, _ = _outcome_ols(
        y0, survival_design(x0, a0), names_control, {}, "the control-arm outcome fit"
    )
    treated_mix, notes = _outcome_ols(
        y1,
        survival_design(x1, survival.theta_ratio(x1, a1)),
        names_treated,
        {len(names_treated) - 1: slice(None)},
        "the treated-arm outcome fit",
    )
    return OutcomeParams(
        control=control,
        treated_mix=treated_mix,
        names={"control": names_control, "treated_mix": names_treated},
        notes=notes,
    )


def fit_ni(data, survival):
    """Pooled no-interaction outcome fit.

    All survivors enter one regression on (1, X, A, share*, Z): share* is 1
    for control-arm rows (pure always survivors) and the fitted share for
    treated-arm rows. Under the additive no-interaction assumption the Z
    coefficient is exactly the always-survivor effect.
    """
    mask = data.survivor_mask()
    xs, as_, zs = data.x[mask], data.a[mask], data.z[mask]
    ys = data.outcomes_at(mask)
    if not (zs == 1).any() or not (zs == 0).any():
        raise EstimationError("survivors are required in both arms")
    share = np.ones(ys.size)
    treated = zs == 1
    share[treated] = survival.theta_ratio(xs[treated], as_[treated])
    names = _design_names(data.covariate_names, ("a", "always_share", "z"))
    design = np.column_stack([np.ones(ys.size), xs, as_, share, zs])
    pooled, notes = _outcome_ols(
        ys, design, names, {len(names) - 2: treated}, "the pooled outcome fit"
    )
    return OutcomeParams(pooled=pooled, names={"pooled": names}, notes=notes)


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
    survival surfaces over all units, the survivors' outcomes, the divisors
    that turn the always-survivor probability into a share, and each
    outcome design as a Fortran-ordered buffer whose intercept, covariate,
    ``a`` and ``z`` columns are filled here; evaluating at a ``rho``
    overwrites only the share columns. Every data check runs when a fit is
    evaluated, so in a sweep each grid point fails alone.
    """

    def __init__(self, data, survival, assume_er):
        self.survival = survival
        self.assume_er = assume_er
        self.x = data.x
        self.th1 = survival.theta_treated(data.x, data.a)
        self.th0 = survival.theta_control(data.x, data.a)
        tiny = 1e-300
        d = data.n_covariates
        if assume_er:
            self.names = _design_names(data.covariate_names, ("always_share",))
            self.shares = {d + 1: slice(None)}
            self.arms = []
            for arm, th_arm in ((1, self.th1), (0, self.th0)):
                mask = data.survivor_mask(arm)
                ys = data.outcomes_at(mask)
                design = np.empty((ys.size, d + 2), order="F")
                design[:, 0] = 1.0
                design[:, 1:-1] = data.x[mask]
                floor = np.maximum(th_arm[mask], tiny)
                what = f"the {'treated' if arm else 'control'}-arm outcome fit"
                self.arms.append((what, mask, ys, floor, design))
        else:
            self.mask = mask = data.survivor_mask()
            self.z = zs = data.z[mask]
            self.cz = 1 - zs
            self.ys = data.outcomes_at(mask)
            self.floor1 = np.maximum(self.th1[mask], tiny)
            self.floor0 = np.maximum(self.th0[mask], tiny)
            # (1, X, A, Z*share1, Z, (1-Z)*share0); the share columns are per
            # rho and each is screened on its own arm's rows
            self.names = _design_names(
                data.covariate_names, ("a", "z_x_treated_share", "z", "cz_x_control_share")
            )
            self.shares = {d + 2: zs == 1, d + 4: zs == 0}
            design = np.empty((self.ys.size, d + 5), order="F")
            design[:, 0] = 1.0
            design[:, 1 : d + 1] = data.x[mask]
            design[:, d + 1] = data.a[mask]
            design[:, d + 3] = zs
            self.design = design

    def coupling(self, rho):
        """(always, harmed_mass) at ``rho``."""
        always = stochastic_always_share(self.th1, self.th0, float(rho))
        harmed_mass = float(np.mean(self.th0 - always)) if always.size else 0.0
        return always, harmed_mass

    def fit(self, always):
        """(outcome, effect) of the outcome stage at the coupling ``always``.

        Two arm-wise fits on (1, X, arm share) when the exclusion
        restriction is assumed, else one pooled fit.
        """
        if self.assume_er:
            coefs, notes = [], []
            for what, mask, ys, floor, design in self.arms:
                np.divide(always[mask], floor, out=design[:, -1])
                coef, arm_notes = _outcome_ols(ys, design, self.names, self.shares, what)
                coefs.append(coef)
                notes += arm_notes
            treated_mix, control_mix = coefs
            outcome = OutcomeParams(
                treated_mix=treated_mix,
                control_mix=control_mix,
                names={"treated_mix": self.names, "control_mix": self.names},
                notes=notes,
            )
            # (1, X, 1) @ (treated - control): the survivor-mean gap of each unit
            gap_coef = treated_mix - control_mix
            gap = self.x @ gap_coef[1:-1] + (gap_coef[0] + gap_coef[-1])
            return outcome, float(np.sum(always * gap) / np.sum(always))
        d = self.x.shape[1]
        surv_always = always[self.mask]
        np.multiply(self.z, surv_always / self.floor1, out=self.design[:, d + 2])
        np.multiply(self.cz, surv_always / self.floor0, out=self.design[:, d + 4])
        coef, notes = _outcome_ols(
            self.ys, self.design, self.names, self.shares, "the pooled outcome fit"
        )
        outcome = OutcomeParams(
            pooled_relaxed=coef, names={"pooled_relaxed": self.names}, notes=notes
        )
        return outcome, float(coef[d + 2] + coef[d + 3] - coef[d + 4])


def fit_sm(data, rho, assume_er=True, survival=None, *, _stage=None):
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
    all units, the survivor selections and the fixed design columns) is
    built first as one stage; :func:`sensitivity_sweep` builds it once and
    evaluates every grid point through this function.
    """
    if _stage is None:
        if survival is None:
            survival = fit_survival_sm(data)
        _stage = _SmStage(data, survival, assume_er)
    always, harmed_mass = _stage.coupling(rho)
    always_mass = _always_mass(always)
    outcome, effect = _stage.fit(always)
    return SmFit(
        survival=_stage.survival,
        rho=float(rho),
        assume_er=assume_er,
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


def naive_estimator(data):
    """Survivor-only regression that ignores the truncation problem.

    OLS of the outcome on (1, X, A, Z) among survivors; returns the Z
    coefficient. Biased whenever treatment changes the composition of the
    surviving population.
    """
    mask = data.survivor_mask()
    zs = data.z[mask]
    if not (zs == 1).any() or not (zs == 0).any():
        raise EstimationError("survivors are required in both arms")
    ys = data.outcomes_at(mask)
    design = np.column_stack([np.ones(ys.size), data.x[mask], data.a[mask], zs])
    names = _design_names(data.covariate_names, ("a", "z"))
    coef, _ = _outcome_ols(ys, design, names, {}, "the naive fit")
    return float(coef[-1])


def dgyz_estimator(data):
    """Covariate-free two-point mixture plug-in baseline.

    Requires a binary substitution variable. At each level, the ratio of
    control-arm to treated-arm survival proportions estimates the
    always-survivor share among treated survivors; the two treated-arm
    survivor means then solve the mixture for the treated always-survivor
    mean, and control survivors average to the control one. The ratios are
    used raw (they may exceed 1 in samples), which is the source of this
    baseline's documented instability when the two shares are close.
    """
    z, s, a = data.z, data.s, data.a
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
        p1 = float(np.mean(s[sel1]))
        p0 = float(np.mean(s[sel0]))
        if p1 <= 0.0:
            raise EstimationError(f"no treated survivors at substitution level {level}")
        surv1 = sel1 & (s == 1)
        means.append(float(np.mean(data.outcomes_at(surv1))))
        shares.append(p0 / p1)
    mask0 = (z == 0) & (s == 1)
    if not mask0.any():
        raise EstimationError("no control-arm survivors")
    mu_treated, _ = solve_two_point_mixture(means[0], means[1], shares[0], shares[1])
    mu_control = float(np.mean(data.outcomes_at(mask0)))
    return mu_treated - mu_control


# The estimators of the method table: (data, survival, rho) -> (point,
# notes). They reach the public fits through this module's global names, so a
# wrapper installed on those names sees every call.


def _prop_er(data, survival, rho):
    outcome = fit_outcome_er(data, survival)
    always = survival.always_share(data.x, data.a)
    _always_mass(always)
    mu1 = survival_design(data.x, np.ones(len(data))) @ outcome.treated_mix
    mu0 = survival_design(data.x, data.a) @ outcome.control
    return float(np.sum(always * (mu1 - mu0)) / np.sum(always)), outcome.notes


def _prop_ni(data, survival, rho):
    outcome = fit_ni(data, survival)
    return float(outcome.pooled[-1]), outcome.notes


def _prop_sm(data, survival, rho, assume_er=True):
    fit = fit_sm(data, rho, assume_er=assume_er, survival=survival)
    return fit.effect, fit.warnings


class _Method(NamedTuple):
    """One row of :data:`METHODS`."""

    needs_rho: bool
    stage_one: str | None  # kind of stage-one fit: "er", "sm" or None
    estimate: Callable


METHODS = {
    "naive": _Method(False, None, lambda data, *_: (naive_estimator(data), [])),
    "dgyz": _Method(False, None, lambda data, *_: (dgyz_estimator(data), [])),
    "prop-er": _Method(False, "er", _prop_er),
    "prop-ni": _Method(False, "er", _prop_ni),
    "prop-sm": _Method(True, "sm", _prop_sm),
    "prop-sm-ni": _Method(True, "sm", partial(_prop_sm, assume_er=False)),
}
ALL_METHODS = tuple(METHODS)
PROP_METHODS = tuple(m for m, spec in METHODS.items() if spec.stage_one)
_SURVIVAL_TYPES = {"er": SurvivalParamsER, "sm": SurvivalParamsSM}


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


def _fit_stage_one(data, kind, start=None):
    """Stage-one survival fit of the given kind; None when ``kind`` is None.

    ``start`` is an earlier stage-one fit of the same kind whose parameters
    are the starting point; without it the fit starts cold.
    """
    if kind is None:
        return None
    fit = fit_survival_er if kind == "er" else fit_survival_sm
    return fit(data, init=None if start is None else start.params)


def estimate_sace(data, method, rho=None, survival=None):
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

    Returns
    -------
    SaceEstimate
        Point estimate with convergence status and collected warnings
        (no bootstrap fields; see :func:`bootstrap`).
    """
    spec = check_method(method, rho)
    collected = []
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        if survival is None:
            survival = _fit_stage_one(data, spec.stage_one)
        elif spec.stage_one is not None:
            expected = _SURVIVAL_TYPES[spec.stage_one]
            if not isinstance(survival, expected):
                raise TypeError(f"{method} needs a {expected.__name__} survival fit")
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
        point, notes = spec.estimate(data, survival, rho)
        collected.extend(notes)
    collected.extend(str(w.message) for w in caught)
    return SaceEstimate(
        method=method, point=point, converged=converged, warnings=collected
    )


def _replicate(data, methods, rhos, starts=None):
    """{method: its point, or the :data:`FAILURE_REASONS` entry that drops it}.

    The replicate step of :func:`bootstrap` and ``run_benchmark``. Each
    stage-one kind is fitted once, from ``starts[kind]`` if given, and
    shared among the methods; ``rhos`` maps each method to its ``rho``.
    """
    starts = starts or {}
    fits = {}  # kind -> this replicate's stage-one fit
    outcomes = {}
    for m in methods:
        kind = METHODS[m].stage_one
        try:
            if kind not in fits:
                fits[kind] = _fit_stage_one(data, kind, starts.get(kind))
            est = estimate_sace(data, m, rho=rhos[m], survival=fits[kind])
        except EstimationError:
            outcomes[m] = "estimation_error"
            continue
        if not np.isfinite(est.point):
            outcomes[m] = "non_finite"
        elif not est.converged:
            outcomes[m] = "not_converged"
        else:
            outcomes[m] = est.point
    return outcomes


def bootstrap(data, method, n_boot=200, seed=0, rho=None):
    """Nonparametric bootstrap of any method's point estimate.

    Resamples units with replacement; replicate ``b`` uses the derived
    stream ``rng_stream(seed, b)`` so any single replicate can be
    reproduced. The stage-one survival fit of a model-based method runs
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
    n = len(data)
    estimates = []
    failed = dict.fromkeys(FAILURE_REASONS, 0)
    for b in range(n_boot):
        sample = data.subset(rng_stream(seed, b).integers(0, n, size=n))
        outcome = _replicate(sample, (method,), {method: rho}, starts)[method]
        if isinstance(outcome, str):
            failed[outcome] += 1
        else:
            estimates.append(outcome)
    n_failed = sum(failed.values())

    if not estimates:
        raise EstimationError("every bootstrap replicate failed")
    est = np.array(estimates)
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

    def to_csv(self, path_or_handle):
        """Write the curve with the pinned header ``rho,pi_dl,delta``.

        A failed grid point keeps its row with an empty effect field.
        """
        own = isinstance(path_or_handle, (str, bytes))
        fh = open(path_or_handle, "w", newline="") if own else path_or_handle
        try:
            fh.write("rho,pi_dl,delta\n")
            for row in self.rows:
                effect = "" if not np.isfinite(row.effect) else repr(row.effect)
                fh.write(f"{row.rho!r},{row.harmed_mass!r},{effect}\n")
        finally:
            if own:
                fh.close()


def sensitivity_sweep(data, rho_grid, assume_er=True, survival=None):
    """Sweep the stochastic-monotonicity estimate over a grid of ``rho``.

    The arm-wise survival models are fitted once and reused at every grid
    point. Everything else that does not depend on ``rho`` is computed once
    per sweep too: the fitted survival surfaces over all units, the
    survivor selections and outcomes, and the fixed columns of the outcome
    designs. Each grid point computes the coupling (always-survivor share
    and harmed mass), overwrites the share columns and runs the outcome
    fits through :func:`fit_sm`; a failing point computes the coupling
    again to record its harmed mass. The
    harmed-stratum mass falls as ``rho`` rises (stronger positive coupling
    leaves less room for units harmed by treatment), which gives the rho
    axis its interpretation. A grid point whose outcome stage fails is
    recorded with a message instead of aborting the sweep.
    """
    grid = np.asarray(rho_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("rho grid is empty")
    for rho in grid.tolist():
        check_rho(rho)
    grid = np.sort(grid)
    if survival is None:
        survival = fit_survival_sm(data)
    stage = _SmStage(data, survival, assume_er)
    rows = []
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", IdentificationWarning)
        for rho in grid.tolist():
            try:
                fit = fit_sm(data, rho, assume_er=assume_er, _stage=stage)
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
