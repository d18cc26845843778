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
empirical covariate distribution.

Method tags used throughout (and by the CLI):

- ``prop-er``: joint survival fit + arm-wise outcome fits under the
  exclusion restriction.
- ``prop-ni``: joint survival fit + one pooled outcome fit with additive
  no-interaction structure; the effect is the treatment coefficient.
- ``prop-sm``: arm-wise survival fits + stochastic monotonicity at ``rho``,
  exclusion restriction in the outcome stage.
- ``prop-sm-ni``: as prop-sm but with the pooled no-interaction outcome
  stage.
"""

from __future__ import annotations

import json
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CollinearityError, EstimationError
from .identify import WEAK_THRESHOLD, IdentificationWarning
from .numerics import (
    OptimizerResult,
    bernoulli_objective,
    expit,
    fit_logistic,
    fit_ols,
    maximize_loglik,
    rng_stream,
)

PROP_METHODS = ("prop-er", "prop-ni", "prop-sm", "prop-sm-ni")
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
    return np.logaddexp(0.0, t)


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
    def converged(self):
        return self.opt_treated.converged and self.opt_control.converged

    @property
    def boundary_flag(self):
        return self.opt_treated.boundary_flag or self.opt_control.boundary_flag


def joint_survival_objective(design_treated, s_treated, design_control, s_control):
    """Log-likelihood triple for the joint survival model.

    The parameter vector stacks the treated-survival coefficients and the
    ratio coefficients. Treated-arm units contribute ordinary Bernoulli
    terms in the treated probability; control-arm units contribute
    Bernoulli terms in the product of the two logistic surfaces. Gradient
    and Hessian are analytic.
    """
    v1 = np.asarray(design_treated, dtype=float)
    s1 = np.asarray(s_treated, dtype=float)
    v0 = np.asarray(design_control, dtype=float)
    s0 = np.asarray(s_control, dtype=float)
    p = v1.shape[1]

    def objective(theta):
        b, g = theta[:p], theta[p:]
        t1 = v1 @ b
        th1 = expit(t1)
        ll = float(np.sum(np.where(s1 == 1, -_softplus(-t1), -_softplus(t1))))
        grad_b = v1.T @ (s1 - th1)
        grad_g = np.zeros(p)
        w1 = th1 * (1.0 - th1)
        h_bb = -(v1.T * w1) @ v1
        h_bg = np.zeros((p, p))
        h_gg = np.zeros((p, p))

        t0 = v0 @ b
        u0 = v0 @ g
        tht = expit(t0)
        thu = expit(u0)
        q = tht * thu
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            logq = -(_softplus(-t0) + _softplus(-u0))
            log1mq = np.log1p(-q)
            ll += float(np.sum(np.where(s0 == 1, logq, log1mq)))
            ratio = q / (1.0 - q)
            curv = q / (1.0 - q) ** 2
            c = np.where(s0 == 1, 1.0, -ratio)
            curv = np.where(s0 == 1, 0.0, curv)
            one_t = 1.0 - tht
            one_u = 1.0 - thu
            grad_b += v0.T @ (one_t * c)
            grad_g += v0.T @ (one_u * c)
            h_bb += -(v0.T * (tht * one_t * c + one_t**2 * curv)) @ v0
            h_bg += -(v0.T * (one_t * one_u * curv)) @ v0
            h_gg += -(v0.T * (thu * one_u * c + one_u**2 * curv)) @ v0

        grad = np.concatenate([grad_b, grad_g])
        hess = np.block([[h_bb, h_bg], [h_bg.T, h_gg]])
        return ll, grad, hess

    return objective


def fit_survival_er(data, init=None, tol=1e-8, max_iter=100):
    """Fit the joint survival model by maximum likelihood.

    Starts from an arm-wise logistic fit for the treated coefficients and
    zeros for the ratio coefficients unless ``init`` (stacked vector) is
    given. The returned optimizer result carries convergence and boundary
    flags; a boundary-saturated ratio surface is the fingerprint of a
    monotonicity violation in the data.
    """
    z, s = data.z, data.s
    if not np.any(z == 1) or not np.any(z == 0):
        raise EstimationError("both treatment arms are required to fit survival")
    v = survival_design(data.x, data.a)
    v1, s1 = v[z == 1], s[z == 1]
    v0, s0 = v[z == 0], s[z == 0]
    p = v.shape[1]
    if init is None:
        warm = fit_logistic(v1, s1, tol=tol, max_iter=max_iter)
        init = np.concatenate([warm.params, np.zeros(p)])
    objective = joint_survival_objective(v1, s1, v0, s0)

    def probabilities(theta):
        return np.concatenate([expit(v @ theta[:p]), expit(v @ theta[p:])])

    result = maximize_loglik(
        objective, init, tol=tol, max_iter=max_iter, probabilities=probabilities
    )
    names = _design_names(data.covariate_names, ("a",))
    return SurvivalParamsER(
        beta_treated=result.params[:p],
        gamma_ratio=result.params[p:],
        optimizer=result,
        column_names=names,
    )


def fit_survival_sm(data, tol=1e-8, max_iter=100):
    """Fit treated and control survival by independent logistic regressions."""
    z, s = data.z, data.s
    if not np.any(z == 1) or not np.any(z == 0):
        raise EstimationError("both treatment arms are required to fit survival")
    v = survival_design(data.x, data.a)
    opt1 = fit_logistic(v[z == 1], s[z == 1], tol=tol, max_iter=max_iter)
    opt0 = fit_logistic(v[z == 0], s[z == 0], tol=tol, max_iter=max_iter)
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
    if not 0.0 <= float(rho) <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = th1 + rho * (np.minimum(1.0, th1 / th0) - th1)
    return np.where(th0 > 0.0, th0 * np.where(th0 > 0.0, cond, 0.0), 0.0)


@dataclass
class OutcomeParams:
    """Coefficient blocks of the stage-two outcome regressions.

    Only the blocks used by the requested method are filled. Vectors keep a
    canonical column order recorded in ``names``; a column dropped because
    its regressor was degenerate (a pure always-survivor arm) is stored
    with coefficient 0 so downstream formulas stay valid.

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


def _linear_mean(coef, x, tail):
    """Evaluate (1, x, *tail) @ coef for array-valued columns."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    cols = [np.ones(n), *(x[:, j] for j in range(x.shape[1]))]
    for t in tail:
        cols.append(np.broadcast_to(np.asarray(t, dtype=float), (n,)))
    return np.column_stack(cols) @ coef


def _check_share_regressor(share, what, weak_threshold, stacklevel=3):
    """Classify a fitted-share regressor: usable, pure, or degenerate.

    Returns True when the column is usable, False when the arm is a pure
    always-survivor sample (share constant at 1). Constant anywhere else is
    unidentifiable and raises. ``stacklevel`` places the weak-share warning
    at the caller of the public fit that runs this check.
    """
    spread = float(np.ptp(share)) if share.size else 0.0
    if spread < CONSTANT_EPS:
        if share.size and abs(float(share[0]) - 1.0) < 1e-6:
            return False
        raise CollinearityError(
            [what],
            f"fitted always-survivor share is numerically constant at "
            f"{float(share[0]) if share.size else float('nan'):.6g} in {what}; "
            "the substitution variable carries no information there",
        )
    if spread < weak_threshold:
        _warnings.warn(
            f"{what}: always-share spread {spread:.3g} is weak; "
            "coefficients are noise-amplified",
            IdentificationWarning,
            stacklevel=stacklevel,
        )
    return True


def fit_outcome_er(data, survival, weak_threshold=WEAK_THRESHOLD):
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
    if y0.size < len(names_control):
        raise EstimationError(
            f"control arm has {y0.size} survivors, fewer than the "
            f"{len(names_control)} outcome coefficients"
        )
    if y1.size < len(names_treated):
        raise EstimationError(
            f"treated arm has {y1.size} survivors, fewer than the "
            f"{len(names_treated)} outcome coefficients"
        )
    control = fit_ols(survival_design(x0, a0), y0, column_names=names_control)

    share = survival.theta_ratio(x1, a1)
    if not _check_share_regressor(share, "the treated-arm outcome fit", weak_threshold):
        raise CollinearityError(
            ["always_share"],
            "fitted always-survivor share is numerically constant across "
            "treated-arm survivors; the substitution variable carries no "
            "information",
        )
    design1 = np.column_stack([np.ones(y1.size), x1, share])
    treated_mix = fit_ols(design1, y1, column_names=names_treated)
    return OutcomeParams(
        control=control,
        treated_mix=treated_mix,
        names={"control": names_control, "treated_mix": names_treated},
    )


def fit_ni(data, survival, weak_threshold=WEAK_THRESHOLD):
    """Pooled no-interaction outcome fit.

    All survivors enter one regression on (1, X, A, share*, Z): share* is 1
    for control-arm rows (pure always survivors) and the fitted share for
    treated-arm rows. Under the additive no-interaction assumption the Z
    coefficient is exactly the always-survivor effect.
    """
    mask = data.survivor_mask()
    if not mask.any():
        raise EstimationError("no survivors to fit")
    xs = data.x[mask]
    as_ = data.a[mask]
    zs = data.z[mask]
    ys = data.outcomes_at(mask)
    if not (zs == 1).any() or not (zs == 0).any():
        raise EstimationError("survivors are required in both arms")
    share = np.ones(ys.size)
    treated = zs == 1
    share[treated] = survival.theta_ratio(xs[treated], as_[treated])
    _check_share_regressor(
        share[treated], "the pooled outcome fit (treated rows)", weak_threshold
    )
    names = _design_names(data.covariate_names, ("a", "always_share", "z"))
    if ys.size < len(names):
        raise EstimationError(
            f"{ys.size} survivors, fewer than the {len(names)} outcome coefficients"
        )
    design = np.column_stack([np.ones(ys.size), xs, as_, share, zs])
    pooled = fit_ols(design, ys, column_names=names)
    return OutcomeParams(pooled=pooled, names={"pooled": names})


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
    overwrites only the share columns. A data condition that rules out the
    outcome stage is stored as its message and raised at evaluation, in the
    order a single fit meets it, so in a sweep each grid point fails alone.
    """

    def __init__(self, data, survival, assume_er):
        self.survival = survival
        self.covariate_names = tuple(data.covariate_names)
        self.x = data.x
        self.th1 = survival.theta_treated(data.x, data.a)
        self.th0 = survival.theta_control(data.x, data.a)
        tiny = 1e-300
        d = data.n_covariates
        if assume_er:
            self.names = _design_names(self.covariate_names, ("always_share",))
            self.arms = []
            for arm, tag, th_arm in ((1, "treated_mix", self.th1), (0, "control_mix", self.th0)):
                mask = data.survivor_mask(arm)
                ys = data.outcomes_at(mask)
                problem = None
                if not mask.any():
                    problem = f"arm {arm} has no survivors"
                elif ys.size < len(self.names):
                    problem = (
                        f"arm {arm} has {ys.size} survivors, fewer than the "
                        f"{len(self.names)} outcome coefficients"
                    )
                design = np.empty((ys.size, d + 2), order="F")
                design[:, 0] = 1.0
                design[:, 1:-1] = data.x[mask]
                floor = np.maximum(th_arm[mask], tiny)
                self.arms.append((arm, tag, problem, mask, ys, floor, design))
        else:
            mask = data.survivor_mask()
            zs = data.z[mask]
            self.mask = mask
            self.ys = data.outcomes_at(mask)
            self.treated = zs == 1
            self.problem = None
            if not self.treated.any() or not (zs == 0).any():
                self.problem = "survivors are required in both arms"
            self.z = zs
            self.cz = 1 - zs
            self.floor1 = np.maximum(self.th1[mask], tiny)
            self.floor0 = np.maximum(self.th0[mask], tiny)
            # (1, X, A, Z*share1, Z, (1-Z)*share0); the share columns are per rho
            self.pooled_names = _design_names(
                self.covariate_names, ("a", "z_x_treated_share", "z", "cz_x_control_share")
            )
            design = np.empty((self.ys.size, d + 5), order="F")
            design[:, 0] = 1.0
            design[:, 1 : d + 1] = data.x[mask]
            design[:, d + 1] = data.a[mask]
            design[:, d + 3] = zs
            self.design = design

    def coupling(self, rho):
        """(always, always_mass, harmed_mass) at ``rho``."""
        always = stochastic_always_share(self.th1, self.th0, float(rho))
        n = always.size
        always_mass = float(np.mean(always)) if n else 0.0
        harmed_mass = float(np.mean(self.th0 - always)) if n else 0.0
        return always, always_mass, harmed_mass

    def fit_arms(self, always, weak_threshold):
        """Arm-wise outcome fits on (1, X, arm share), and their notes."""
        coefs = {}
        notes = []
        for arm, tag, problem, mask, ys, floor, design in self.arms:
            if problem is not None:
                raise EstimationError(problem)
            share = np.divide(always[mask], floor, out=design[:, -1])
            if _check_share_regressor(
                share, f"the arm-{arm} outcome fit", weak_threshold, stacklevel=4
            ):
                coefs[tag] = fit_ols(design, ys, column_names=self.names)
            else:
                reduced = fit_ols(design[:, :-1], ys, column_names=self.names[:-1])
                coefs[tag] = np.concatenate([reduced, [0.0]])
                notes.append(
                    f"arm {arm} survivors fitted as a pure always-survivor sample"
                )
        outcome = OutcomeParams(
            treated_mix=coefs["treated_mix"],
            control_mix=coefs["control_mix"],
            names={"treated_mix": self.names, "control_mix": self.names},
        )
        # (1, X, 1) @ (treated - control): the survivor-mean gap of each unit
        gap_coef = outcome.treated_mix - outcome.control_mix
        gap = self.x @ gap_coef[1:-1] + (gap_coef[0] + gap_coef[-1])
        effect = float(np.sum(always * gap) / np.sum(always))
        return outcome, effect, notes

    def fit_pooled(self, always, weak_threshold):
        """Pooled fit on (1, X, A, Z*share1, Z, (1-Z)*share0), and its notes."""
        if self.problem is not None:
            raise EstimationError(self.problem)
        surv_always = always[self.mask]
        share1 = surv_always / self.floor1
        share0 = surv_always / self.floor0
        use1 = _check_share_regressor(
            share1[self.treated],
            "the pooled fit (treated share column)",
            weak_threshold,
            stacklevel=4,
        )
        use0 = _check_share_regressor(
            share0[~self.treated],
            "the pooled fit (control share column)",
            weak_threshold,
            stacklevel=4,
        )
        d = len(self.covariate_names)
        design = self.design
        np.multiply(self.z, share1, out=design[:, d + 2])
        np.multiply(self.cz, share0, out=design[:, d + 4])
        notes = []
        if not use0:
            notes.append("control-arm survivors fitted as a pure always-survivor sample")
        if not use1:
            notes.append("treated-arm survivors fitted as a pure always-survivor sample")
        cols = [j for j in range(d + 5) if (use1 or j != d + 2) and (use0 or j != d + 4)]
        if len(cols) < design.shape[1]:
            design = design[:, cols]
        if self.ys.size < design.shape[1]:
            raise EstimationError(
                f"{self.ys.size} survivors, fewer than the {design.shape[1]} "
                "outcome coefficients"
            )
        # a dropped share column keeps coefficient 0 in the canonical layout
        canonical = np.zeros(d + 5)
        canonical[cols] = fit_ols(
            design, self.ys, column_names=[self.pooled_names[j] for j in cols]
        )
        outcome = OutcomeParams(
            pooled_relaxed=canonical, names={"pooled_relaxed": self.pooled_names}
        )
        return outcome, float(canonical[d + 2] + canonical[d + 3] - canonical[d + 4]), notes


def fit_sm(
    data,
    rho,
    assume_er=True,
    survival=None,
    weak_threshold=WEAK_THRESHOLD,
    tol=1e-8,
    *,
    _stage=None,
):
    """Stochastic-monotonicity pipeline at sensitivity level ``rho``.

    Stage one (reusable across ``rho`` via the ``survival`` argument, and
    fitted with tolerance ``tol`` when not given) fits the two arm-wise
    survival models. The coupling at ``rho`` turns them into a per-unit
    always-survivor share. Stage two either fits each arm's survivor mean on
    (1, X, arm share) and plugs in (``assume_er=True``), or fits the pooled
    regression on (1, X, A, Z*share1, Z, (1-Z)*share0) whose coefficient
    combination gives the effect (``assume_er=False``).

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
            survival = fit_survival_sm(data, tol=tol)
        _stage = _SmStage(data, survival, assume_er)
    always, always_mass, harmed_mass = _stage.coupling(rho)
    if always_mass <= 1e-12:
        raise EstimationError(
            "fitted always-survivor mass is zero; the effect is undefined"
        )
    if assume_er:
        outcome, effect, notes = _stage.fit_arms(always, weak_threshold)
    else:
        outcome, effect, notes = _stage.fit_pooled(always, weak_threshold)
    return SmFit(
        survival=_stage.survival,
        rho=float(rho),
        assume_er=assume_er,
        outcome=outcome,
        effect=effect,
        always_mass=always_mass,
        harmed_mass=harmed_mass,
        warnings=notes,
    )


@dataclass
class SaceEstimate:
    """Point estimate of the always-survivor effect, optionally with bootstrap."""

    method: str
    point: float
    se: float | None = None
    q025: float | None = None
    q50: float | None = None
    q975: float | None = None
    n_boot: int = 0
    n_failed: int = 0
    converged: bool = True
    warnings: list = field(default_factory=list)

    def to_dict(self):
        return {
            "method": self.method,
            "point": self.point,
            "se": self.se,
            "q025": self.q025,
            "q50": self.q50,
            "q975": self.q975,
            "n_boot": self.n_boot,
            "n_failed": self.n_failed,
            "converged": self.converged,
            "warnings": list(self.warnings),
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)


def _require_rho(method, rho):
    if method in ("prop-sm", "prop-sm-ni"):
        if rho is None:
            raise ValueError(f"{method} requires rho")
        if not 0.0 <= float(rho) <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {rho}")
    elif rho is not None:
        raise ValueError(f"rho does not apply to method {method!r}")


def estimate_sace(
    data,
    method,
    rho=None,
    survival=None,
    weak_threshold=WEAK_THRESHOLD,
    tol=1e-8,
):
    """Estimate the always-survivor effect by one of the model-based methods.

    Parameters
    ----------
    data : Dataset
    method : str
        One of ``prop-er``, ``prop-ni``, ``prop-sm``, ``prop-sm-ni``.
    rho : float, optional
        Sensitivity level; required by (and only by) the stochastic methods.
    survival : optional
        Precomputed stage-one fit (SurvivalParamsER for the er/ni methods,
        SurvivalParamsSM for the stochastic ones) to reuse across calls.
    weak_threshold : float
        Spread below which the share regressor triggers a warning.
    tol : float
        Convergence tolerance of the stage-one survival fit, when it is
        fitted here.

    Returns
    -------
    SaceEstimate
        Point estimate with convergence status and collected warnings
        (no bootstrap fields; see :func:`bootstrap`).
    """
    if method not in PROP_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {PROP_METHODS}"
        )
    _require_rho(method, rho)

    collected = []
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        if method in ("prop-er", "prop-ni"):
            if survival is None:
                survival = fit_survival_er(data, tol=tol)
            if not isinstance(survival, SurvivalParamsER):
                raise TypeError(f"{method} needs a SurvivalParamsER survival fit")
            converged = survival.optimizer.converged
            if not converged:
                collected.append(
                    "survival fit did not converge"
                    + (
                        " (boundary-saturated fitted probabilities)"
                        if survival.optimizer.boundary_flag
                        else ""
                    )
                )
            if method == "prop-er":
                outcome = fit_outcome_er(data, survival, weak_threshold)
                always = survival.always_share(data.x, data.a)
                if np.sum(always) <= 1e-12:
                    raise EstimationError(
                        "fitted always-survivor mass is zero; the effect is undefined"
                    )
                mu1 = _linear_mean(outcome.treated_mix, data.x, (1.0,))
                mu0 = _linear_mean(outcome.control, data.x, (data.a,))
                point = float(np.sum(always * (mu1 - mu0)) / np.sum(always))
            else:
                outcome = fit_ni(data, survival, weak_threshold)
                point = float(outcome.pooled[-1])
        else:
            if survival is not None and not isinstance(survival, SurvivalParamsSM):
                raise TypeError(f"{method} needs a SurvivalParamsSM survival fit")
            fit = fit_sm(
                data,
                rho,
                assume_er=(method == "prop-sm"),
                survival=survival,
                weak_threshold=weak_threshold,
                tol=tol,
            )
            survival = fit.survival
            converged = survival.converged
            if not converged:
                collected.append(
                    "survival fit did not converge"
                    + (
                        " (boundary-saturated fitted probabilities)"
                        if survival.boundary_flag
                        else ""
                    )
                )
            collected.extend(fit.warnings)
            point = fit.effect
    collected.extend(str(w.message) for w in caught)
    return SaceEstimate(
        method=method, point=point, converged=converged, warnings=collected
    )


def _point_estimate(data, method, rho, weak_threshold):
    """Unified dispatch over all six method tags.

    Returns (value, converged). The baseline estimators live in the
    simulation module; imported lazily to keep module layering one-way.
    """
    if method in PROP_METHODS:
        est = estimate_sace(data, method, rho=rho, weak_threshold=weak_threshold)
        return est.point, est.converged
    from . import simulate as _simulate

    if method == "naive":
        return _simulate.naive_estimator(data), True
    if method == "dgyz":
        return _simulate.dgyz_estimator(data), True
    raise ValueError(f"unknown method {method!r}")


ALL_METHODS = ("naive", "dgyz") + PROP_METHODS


def bootstrap(
    data,
    method,
    n_boot=200,
    seed=0,
    rho=None,
    weak_threshold=WEAK_THRESHOLD,
):
    """Nonparametric bootstrap of any method's point estimate.

    Resamples units with replacement; replicate ``b`` uses the derived
    stream ``rng_stream(seed, b)`` so any single replicate can be
    reproduced. Replicates that raise an estimation error, return a
    non-finite value, or fail stage-one convergence are dropped and
    counted; more than 10% dropped flags the result as unreliable. The
    standard error is the ddof-1 standard deviation and the quantiles are
    linearly interpolated.
    """
    if method not in ALL_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {ALL_METHODS}")
    if method in PROP_METHODS:
        _require_rho(method, rho)
    if n_boot < 2:
        raise ValueError("need at least 2 bootstrap replicates")

    point, converged = _point_estimate(data, method, rho, weak_threshold)
    n = len(data)
    estimates = []
    n_failed = 0
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", IdentificationWarning)
        for b in range(n_boot):
            rng = rng_stream(seed, b)
            sample = data.subset(rng.integers(0, n, size=n))
            try:
                value, ok = _point_estimate(sample, method, rho, weak_threshold)
            except EstimationError:
                n_failed += 1
                continue
            if not np.isfinite(value) or not ok:
                n_failed += 1
                continue
            estimates.append(value)

    if not estimates:
        raise EstimationError("every bootstrap replicate failed")
    est = np.array(estimates)
    notes = []
    if n_failed:
        notes.append(f"{n_failed} of {n_boot} bootstrap replicates dropped")
    if n_failed > 0.1 * n_boot:
        notes.append("unreliable: more than 10% of bootstrap replicates failed")
    if not converged:
        notes.append("full-data survival fit did not converge")
    q025, q50, q975 = np.quantile(est, [0.025, 0.5, 0.975], method="linear")
    return SaceEstimate(
        method=method,
        point=point,
        se=float(np.std(est, ddof=1)),
        q025=float(q025),
        q50=float(q50),
        q975=float(q975),
        n_boot=n_boot,
        n_failed=n_failed,
        converged=converged,
        warnings=notes,
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


def sensitivity_sweep(
    data,
    rho_grid,
    assume_er=True,
    survival=None,
    weak_threshold=WEAK_THRESHOLD,
):
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
    if np.any(~np.isfinite(grid)) or np.any(grid < 0.0) or np.any(grid > 1.0):
        raise ValueError("rho grid values must lie in [0, 1]")
    grid = np.sort(grid)
    if survival is None:
        survival = fit_survival_sm(data)
    stage = _SmStage(data, survival, assume_er)
    rows = []
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", IdentificationWarning)
        for rho in grid.tolist():
            try:
                fit = fit_sm(
                    data,
                    rho,
                    assume_er=assume_er,
                    weak_threshold=weak_threshold,
                    _stage=stage,
                )
            except EstimationError as exc:
                rows.append(
                    SensitivityRow(
                        rho=rho,
                        harmed_mass=stage.coupling(rho)[2],
                        effect=float("nan"),
                        message=str(exc),
                    )
                )
                continue
            rows.append(
                SensitivityRow(rho=rho, harmed_mass=fit.harmed_mass, effect=fit.effect)
            )
    return SensitivityCurve(assume_er=assume_er, rows=rows)
