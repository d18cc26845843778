"""Tests for the model-based estimation pipelines.

Coefficient-limit tests pass the data-generating survival coefficients
into the outcome stage directly, so the frozen limits below are checked
without stage-one noise. They were derived by evaluating the outcome
means of each survival class against the fitted design columns.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sacekit.data import Dataset
from sacekit.errors import EstimationError
from sacekit.identify import stochastic_always_share
from sacekit.models import (
    ALL_METHODS,
    FAILURE_REASONS,
    PROP_METHODS,
    SurvivalParamsER,
    SurvivalParamsSM,
    _replicates,
    _resample,
    _weights_at,
    bootstrap,
    dgyz_estimator,
    estimate_sace,
    fit_ni,
    fit_outcome_er,
    fit_sm,
    fit_survival_er,
    fit_survival_sm,
    method_rhos,
    naive_estimator,
    sensitivity_sweep,
    survival_design,
)
from sacekit.numerics import (
    BOUNDARY_EPS,
    NEWTON_TOL,
    OptimizerResult,
    check_gradient,
    expit,
    rng_stream,
)
from sacekit.simulate import SimulationSetting, gen_dataset

from conftest import joint_objective

TRUE_U = np.array([0.5, 0.5, 0.5])


def true_survival_er(delta2, covariate_names=("x1", "x2", "x3")):
    """Data-generating survival coefficients on the (1, x, a) design."""
    d2 = float(delta2)
    beta = np.array([2.0, d2 / 2.0, d2 / 2.0, d2 / 2.0, 1.0])
    gamma = np.array([0.0, -1.5 * d2, d2 / 2.0, d2 / 2.0, 1.0])
    opt = OptimizerResult(
        params=np.concatenate([beta, gamma]),
        loglik=0.0,
        converged=True,
        iterations=0,
        grad_norm=0.0,
        boundary_flag=False,
    )
    return SurvivalParamsER(
        beta_treated=beta,
        gamma_ratio=gamma,
        optimizer=opt,
        column_names=("intercept", *covariate_names, "a"),
    )


def test_survival_design_shape():
    d = survival_design(np.ones((4, 2)), np.zeros(4))
    assert d.shape == (4, 4)
    assert_allclose(d[:, 0], 1.0)


def test_joint_objective_gradient_is_analytic():
    rng = rng_stream(31)
    data, _ = gen_dataset(SimulationSetting(n=300, delta1=1, delta2=1, seed=7))
    v = survival_design(data.x, data.a)
    z, s = data.z, data.s
    objective = joint_objective(v, z, s)
    for _ in range(5):
        point = rng.uniform(-0.8, 0.8, size=2 * v.shape[1])
        assert check_gradient(objective, point) < 1e-6


def _reference_joint_objective(design_treated, s_treated, design_control, s_control):
    """The joint survival kernel as first written: every row through np.where."""
    v1 = np.asarray(design_treated, dtype=float)
    s1 = np.asarray(s_treated, dtype=float)
    v0 = np.asarray(design_control, dtype=float)
    s0 = np.asarray(s_control, dtype=float)
    p = v1.shape[1]

    def softplus(t):
        return np.logaddexp(0.0, t)

    def objective(theta):
        b, g = theta[:p], theta[p:]
        t1 = v1 @ b
        th1 = expit(t1)
        ll = float(np.sum(np.where(s1 == 1, -softplus(-t1), -softplus(t1))))
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
            logq = -(softplus(-t0) + softplus(-u0))
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


def test_joint_objective_matches_the_reference_kernel():
    data, _ = gen_dataset(SimulationSetting(n=2000, delta1=1, delta2=1, seed=62))
    v = survival_design(data.x, data.a)
    z, s = data.z, data.s
    objective = joint_objective(v, z, s)
    reference = _reference_joint_objective(v[z == 1], s[z == 1], v[z == 0], s[z == 0])
    p = v.shape[1]
    # control deaths with q = expit(12)^2, within 1.3e-5 of 1
    edge = np.zeros(2 * p)
    edge[0] = edge[p] = 12.0
    points = {
        "fitted": fit_survival_er(data).optimizer.params,
        "zero": np.zeros(2 * p),
        "boundary": edge,
    }
    for name, theta in points.items():
        got, want = objective(theta), reference(theta)
        # relative to the larger of 1 and the reference's largest entry: the
        # gradient at the fitted point is itself rounding noise
        for part, a, b in zip(("value", "gradient", "hessian"), got, want):
            err = np.max(np.abs(np.subtract(a, b))) / max(1.0, np.max(np.abs(b)))
            assert err <= 1e-12, (name, part, err)
    # central differences of log(1 - q) lose their digits at the boundary
    for name in ("fitted", "zero"):
        assert check_gradient(objective, points[name]) < 1e-6, name


class _Captured(Exception):
    pass


@pytest.mark.parametrize("control", ["mixed", "no deaths", "no survivors"])
@pytest.mark.parametrize("weighted", [False, True])
def test_fit_survival_er_objective_is_joint_survival_objective(control, weighted, monkeypatch):
    # fit_survival_er gathers its rows in one take, by index from the design
    # of every unit; the objective built here from the two arms' rows
    # stacked must give the same bits
    data, _ = gen_dataset(SimulationSetting(n=800, delta1=1, delta2=1, seed=64))
    rng = rng_stream(64)
    z, s = data.z, data.s.copy()
    if control != "mixed":
        s[z == 0] = int(control == "no deaths")
    y = np.where(s == 1, rng.normal(size=z.size), np.nan)
    data = Dataset.from_arrays(z, data.x, data.a, s, y)
    weights = rng.integers(1, 4, size=z.size).astype(float) if weighted else None
    captured = []

    def capture(objective, init, probabilities=None):
        captured.append(objective)
        raise _Captured

    monkeypatch.setattr("sacekit.models.maximize_loglik", capture)
    v = survival_design(data.x, data.a)
    p = v.shape[1]
    with pytest.raises(_Captured):
        fit_survival_er(data, init=np.zeros(2 * p), weights=weights)
    arms = np.concatenate([np.flatnonzero(z == 1), np.flatnonzero(z == 0)])
    stacked = joint_objective(v[arms], z[arms], s[arms], _weights_at(weights, arms))
    for theta in (np.zeros(2 * p), rng.uniform(-0.8, 0.8, size=2 * p)):
        for got, want in zip(captured[0](theta), stacked(theta)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _probe_on_the_design(data, result):
    """(boundary_flag, converged) of the boundary probe on the (n, p) design."""
    v = survival_design(data.x, data.a)
    p = v.shape[1]
    probs = np.concatenate([expit(v @ result.params[:p]), expit(v @ result.params[p:])])
    boundary = bool(np.any(probs <= BOUNDARY_EPS) or np.any(probs >= 1.0 - BOUNDARY_EPS))
    return boundary, result.grad_norm <= NEWTON_TOL and not boundary


def _separated(seed, control):
    """A small draw whose survival one covariate or arm separates."""
    data, _ = gen_dataset(SimulationSetting(n=400, delta1=1, delta2=1, seed=seed))
    z, x = data.z, data.x
    s = data.s.copy()
    if control == "separated":
        s[z == 0] = (x[z == 0, 1] > 1.0).astype(int)
    elif control == "treated all survive":
        s[z == 1] = 1
    else:  # no control deaths at all
        s[z == 0] = 1
    y = np.where(s == 1, 0.5, np.nan)
    return Dataset.from_arrays(z, x, data.a, s, y)


@pytest.mark.parametrize("control", ["separated", "treated all survive", "no control deaths"])
@pytest.mark.parametrize("seed", [3, 4])
def test_boundary_probe_on_the_gathered_rows_matches_the_design(control, seed):
    # the probe reads the objective's gathered rows, not a second design;
    # on data that drive the fit to the boundary its flags are the same
    data = _separated(seed, control)
    result = fit_survival_er(data).optimizer
    assert (result.boundary_flag, result.converged) == _probe_on_the_design(data, result)


def test_boundary_probe_matches_on_weighted_bootstrap_replicates():
    # criterion 7's dataset r=11, whose resamples often end at the boundary,
    # fitted as bootstrap fits them: distinct rows weighted, warm started
    data, _ = gen_dataset(
        SimulationSetting(n=1000, delta1=0, delta2=1), rng=rng_stream(808, 11)
    )
    full = fit_survival_er(data)
    flags = []
    for b in range(40):
        sample, weights = _resample(data, 11, b)
        for init in (full.params, None):
            result = fit_survival_er(sample, init=init, weights=weights).optimizer
            got = (result.boundary_flag, result.converged)
            assert got == _probe_on_the_design(sample, result)
            flags.append(result.boundary_flag)
    assert any(flags) and not all(flags)


def test_fit_survival_er_recovers_truth():
    data, _ = gen_dataset(SimulationSetting(n=40_000, delta1=1, delta2=1, seed=41))
    fit = fit_survival_er(data)
    assert fit.optimizer.converged
    truth = true_survival_er(1)
    assert np.all(np.abs(fit.beta_treated - truth.beta_treated) < 0.25)
    assert np.all(np.abs(fit.gamma_ratio - truth.gamma_ratio) < 0.25)


def test_fitted_control_survival_never_exceeds_treated():
    # holds by construction, whatever the data
    data, _ = gen_dataset(SimulationSetting(n=500, delta1=0, delta2=1, seed=42))
    fit = fit_survival_er(data)
    rng = rng_stream(43)
    x = rng.normal(size=(200, 3))
    for a in (0, 1):
        av = np.full(200, a)
        assert np.all(fit.theta_control(x, av) <= fit.theta_treated(x, av) + 1e-15)


def test_outcome_er_coefficient_limits():
    data, _ = gen_dataset(SimulationSetting(n=120_000, delta1=0, delta2=0, seed=44))
    outcome = fit_outcome_er(data, true_survival_er(0))
    # control survivors: mean -1 + x'u with no substitution effect
    assert_allclose(outcome.control, [-1.0, *TRUE_U, 0.0], atol=0.08)
    # treated survivors: always-survivor mean at share 1, protected at 0,
    # so intercept 1 (the protected mean) and share coefficient -1
    assert_allclose(outcome.treated_mix, [1.0, *TRUE_U, -1.0], atol=0.08)


def test_pooled_ni_coefficient_limits():
    data, _ = gen_dataset(SimulationSetting(n=120_000, delta1=0, delta2=0, seed=45))
    outcome = fit_ni(data, true_survival_er(0))
    assert outcome.names["pooled"][-2:] == ("always_share", "z")
    assert_allclose(outcome.pooled, [0.0, *TRUE_U, 0.0, -1.0, 1.0], atol=0.08)


def test_pooled_ni_limits_under_level_shifted_outcomes():
    # outcome means move with the substitution level; the additive model
    # absorbs the shift into the level coefficient and keeps the effect
    data, _ = gen_dataset(
        SimulationSetting(n=120_000, delta1=0, delta2=0, er_violation=True, seed=46)
    )
    outcome = fit_ni(data, true_survival_er(0))
    assert_allclose(outcome.pooled, [6.0, *TRUE_U, 1.0, -2.0, 1.0], atol=0.08)


def test_prop_ni_point_is_the_pooled_z_coefficient():
    data, _ = gen_dataset(SimulationSetting(n=2000, delta1=1, delta2=0, seed=47))
    survival = fit_survival_er(data)
    est = estimate_sace(data, "prop-ni", survival=survival)
    direct = fit_ni(data, survival)
    assert est.point == float(direct.pooled[-1])


@pytest.mark.parametrize("arm", [0, 1])
def test_no_interaction_fits_need_survivors_in_both_arms(arm):
    data, _ = gen_dataset(SimulationSetting(n=400, delta1=1, delta2=1, seed=3))
    s = np.where(data.z == arm, 0, data.s)
    data = Dataset.from_arrays(data.z, data.x, data.a, s, np.where(s == 1, 1.0, np.nan))
    with pytest.raises(EstimationError, match="^survivors are required in both arms$"):
        estimate_sace(data, "prop-ni")
    # the sweep decides it once, from the survivor rows, for every point
    rows = sensitivity_sweep(data, [0.0, 0.5, 1.0], assume_er=False).rows
    assert [row.message for row in rows] == [
        "the pooled outcome fit: survivors are required in both arms"
    ] * 3
    assert all(np.isnan(row.effect) for row in rows)


@pytest.mark.parametrize("method", ["prop-er", "prop-ni"])
def test_pure_treated_share_is_dropped_with_a_note(method):
    # a ratio intercept of 50 puts the always-survivor share at exactly 1
    # for every treated survivor: the treated arm is a pure always-survivor
    # sample, so the share column is dropped as prop-sm drops it
    data, _ = gen_dataset(SimulationSetting(n=2000, delta1=1, delta2=0, seed=47))
    survival = true_survival_er(0)
    survival.gamma_ratio = survival.gamma_ratio.copy()
    survival.gamma_ratio[0] = 50.0
    est = estimate_sace(data, method, survival=survival)
    assert np.isfinite(est.point)
    assert any("pure always-survivor" in w for w in est.warnings)


def test_end_to_end_recovery_at_moderate_n():
    data, _ = gen_dataset(SimulationSetting(n=5000, delta1=1, delta2=1, seed=48))
    survival = fit_survival_er(data)
    for method in ("prop-er", "prop-ni"):
        est = estimate_sace(data, method, survival=survival)
        assert est.converged
        assert abs(est.point - 1.0) < 0.2


def test_method_and_rho_validation():
    data, _ = gen_dataset(SimulationSetting(n=400, seed=49))
    with pytest.raises(ValueError, match="unknown method"):
        estimate_sace(data, "magic")
    with pytest.raises(ValueError, match="requires rho"):
        estimate_sace(data, "prop-sm")
    with pytest.raises(ValueError, match="does not apply"):
        estimate_sace(data, "prop-er", rho=0.5)
    with pytest.raises(ValueError, match="rho must lie"):
        estimate_sace(data, "prop-sm", rho=1.5)
    with pytest.raises(TypeError):
        estimate_sace(data, "prop-sm", rho=0.5, survival=true_survival_er(0))
    for weights in (np.ones(len(data) - 1), np.zeros(len(data)), np.full(len(data), 1.5)):
        with pytest.raises(ValueError, match="weights must be integers"):
            estimate_sace(data, "naive", weights=weights)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda d, er, sm: fit_sm(d, 0.5, survival=er), "fit_sm needs a SurvivalParamsSM"),
        (
            lambda d, er, sm: sensitivity_sweep(d, [0.5], survival=er),
            "sensitivity_sweep needs a SurvivalParamsSM",
        ),
        (lambda d, er, sm: fit_outcome_er(d, sm), "fit_outcome_er needs a SurvivalParamsER"),
        (lambda d, er, sm: fit_ni(d, sm), "fit_ni needs a SurvivalParamsER"),
    ],
    ids=["fit_sm", "sensitivity_sweep", "fit_outcome_er", "fit_ni"],
)
def test_public_fits_reject_the_other_survival_fit(call, message):
    # the joint fit has the arm-wise fit's theta_treated and theta_control,
    # so the stochastic pipeline would run on its surfaces without a check
    data, _ = gen_dataset(SimulationSetting(n=2000, seed=3))
    with pytest.raises(TypeError, match=message):
        call(data, fit_survival_er(data), fit_survival_sm(data))


WEIGHTED_FITS = {
    "fit_survival_er": lambda d, w: fit_survival_er(d, weights=w),
    "fit_survival_sm": lambda d, w: fit_survival_sm(d, weights=w),
    "fit_outcome_er": lambda d, w: fit_outcome_er(d, true_survival_er(0), weights=w),
    "fit_ni": lambda d, w: fit_ni(d, true_survival_er(0), weights=w),
    "fit_sm": lambda d, w: fit_sm(d, 0.5, weights=w),
    "naive_estimator": lambda d, w: naive_estimator(d, weights=w),
    "dgyz_estimator": lambda d, w: dgyz_estimator(d, weights=w),
}


@pytest.mark.parametrize("bad", ["halves", "negative", "too_few"])
@pytest.mark.parametrize("fit", WEIGHTED_FITS)
def test_public_fits_reject_weights_that_are_not_frequencies(fit, bad):
    data, _ = gen_dataset(SimulationSetting(n=400, seed=49))
    n = len(data)
    weights = {"halves": np.full(n, 0.5), "negative": -np.ones(n), "too_few": np.ones(5)}[bad]
    with pytest.raises(ValueError, match="weights must be integers of 1 or more, one per row"):
        WEIGHTED_FITS[fit](data, weights)


def units(z, a, s):
    """A one-covariate dataset of the given units; survivor i has outcome i."""
    s = np.asarray(s)
    y = np.where(s == 1, np.arange(s.size, dtype=float), np.nan)
    return Dataset.from_arrays(z, np.zeros((s.size, 1)), a, s, y)


@pytest.mark.parametrize(
    "call, z, a, s, message",
    [
        (fit_survival_er, [1, 1, 1], [0, 1, 0], [1, 0, 1],
         "both treatment arms are required to fit survival"),
        (fit_survival_sm, [0, 0, 0], [0, 1, 0], [1, 0, 1],
         "both treatment arms are required to fit survival"),
        (dgyz_estimator, [1, 0, 1, 1], [0, 0, 1, 1], [1, 1, 1, 1],
         "no units in an arm at substitution level 1"),
        (dgyz_estimator, [1, 0, 1, 0], [0, 0, 1, 1], [0, 1, 1, 1],
         "no treated survivors at substitution level 0"),
        (dgyz_estimator, [1, 0, 1, 0], [0, 0, 1, 1], [1, 0, 1, 0],
         "no control-arm survivors"),
    ],
)
def test_model_errors(call, z, a, s, message):
    with pytest.raises(EstimationError, match=f"^{message}$"):
        call(units(z, a, s))


def test_fit_sm_interior_and_endpoint_rho():
    import warnings

    from sacekit.identify import IdentificationWarning

    data, _ = gen_dataset(SimulationSetting(n=3000, delta1=1, delta2=1, seed=51))
    survival = fit_survival_sm(data)
    with warnings.catch_warnings():
        # at full coupling the control-arm share column flattens; expected
        warnings.simplefilter("ignore", IdentificationWarning)
        fits = {
            rho: fit_sm(data, rho, assume_er=True, survival=survival)
            for rho in (0.0, 0.5, 1.0)
        }
    for fit in fits.values():
        assert np.isfinite(fit.effect)
        assert fit.always_mass > 0
    # stronger coupling leaves less room for treatment-harmed units
    assert fits[1.0].harmed_mass <= fits[0.5].harmed_mass <= fits[0.0].harmed_mass


def test_fit_sm_relaxed_variant_runs():
    data, _ = gen_dataset(SimulationSetting(n=3000, delta1=1, delta2=1, seed=52))
    survival = fit_survival_sm(data)
    fit = fit_sm(data, 0.5, assume_er=False, survival=survival)
    assert np.isfinite(fit.effect)
    names = fit.outcome.names["pooled_relaxed"]
    assert names[-4:] == ("a", "z_x_treated_share", "z", "cz_x_control_share")
    coef = fit.outcome.pooled_relaxed
    assert len(names) == coef.size
    assert_allclose(fit.effect, coef[-3] + coef[-2] - coef[-1], rtol=1e-12)


def test_estimate_sace_collects_weak_separation_warnings(monkeypatch):
    data, _ = gen_dataset(SimulationSetting(n=1500, delta1=0, delta2=0, seed=53))
    # absurdly high threshold forces the weak-spread path
    monkeypatch.setattr("sacekit.models.WEAK_THRESHOLD", 0.999)
    est = estimate_sace(data, "prop-er")
    assert any("weak" in w for w in est.warnings)
    d = est.to_dict()
    assert set(d) >= {"method", "point", "se", "converged", "warnings"}
    assert d["se"] is None


def _cell_counts_dataset(treated_survivors, control_survivors=50, n=100):
    """Covariate-free data, ``n`` units per (z, a) cell, survivors counted exactly.

    ``treated_survivors`` gives the treated survivors at a = 0 and at a = 1.
    """
    z, a, s = [], [], []
    for arm, survivors in ((0, (control_survivors,) * 2), (1, treated_survivors)):
        for level, k in enumerate(survivors):
            z += [arm] * n
            a += [level] * n
            s += [1] * k + [0] * (n - k)
    s = np.array(s)
    y = np.where(s == 1, np.tile(np.linspace(0.0, 1.0, n), 4) + np.array(z), np.nan)
    return Dataset.from_arrays(z, np.zeros((s.size, 0)), a, s, y)


def test_estimate_sace_warns_of_a_share_spread_below_the_weak_threshold():
    # treated survival 0.80 and 0.81 over the two levels, control 0.5: the
    # fitted share is 0.5 / 0.80 or 0.5 / 0.81, a spread of 0.0077
    data = _cell_counts_dataset((80, 81))
    share = fit_survival_er(data).theta_ratio(data.x, data.a)[data.survivor_mask(1)]
    assert 0.002 < np.ptp(share) < 0.02
    assert_allclose(np.ptp(share), 0.5 / 0.80 - 0.5 / 0.81, rtol=1e-6)
    est = estimate_sace(data, "prop-er")
    assert any("always_share spread 0.00772 is weak" in w for w in est.warnings)
    # treated survival 0.80 and 0.83: a spread of 0.0226 is not weak
    est = estimate_sace(_cell_counts_dataset((80, 83)), "prop-er")
    assert not any("is weak" in w for w in est.warnings)


@pytest.mark.parametrize("assume_er", [True, False])
def test_an_always_survivor_mass_below_1e_12_counts_as_zero(assume_er):
    # a control intercept of -40 puts control survival near 4e-18: the mass
    # is tiny but not 0, as it is at -800, where expit underflows
    data, _ = gen_dataset(SimulationSetting(n=2000, delta1=1, delta2=1, seed=62))
    fitted = fit_survival_sm(data)
    dying = np.zeros_like(fitted.beta_control)
    dying[0] = -40.0
    survival = SurvivalParamsSM(
        beta_treated=fitted.beta_treated,
        beta_control=dying,
        opt_treated=fitted.opt_treated,
        opt_control=fitted.opt_control,
        column_names=fitted.column_names,
    )
    v = survival_design(data.x, data.a)
    always = stochastic_always_share(survival.theta_treated(v), survival.theta_control(v), 0.5)
    assert 0.0 < always.mean() < 1e-12
    with pytest.raises(EstimationError, match="fitted always-survivor mass is zero"):
        fit_sm(data, 0.5, assume_er=assume_er, survival=survival)


def test_replicates_count_a_non_finite_point(monkeypatch):
    import sacekit.models as models

    data, _ = gen_dataset(SimulationSetting(n=300, seed=63))
    nan_method = models._Method(False, None, lambda data, _, __, w: (float("nan"), []))
    monkeypatch.setitem(models.METHODS, "naive", nan_method)
    points, failed = _replicates([(data, None)] * 3, ("naive",), {"naive": None})["naive"]
    assert points.size == 0
    assert failed == {"estimation_error": 0, "non_finite": 3, "not_converged": 0}


def test_replicates_count_a_stage_one_fit_stopped_by_the_iteration_cap(monkeypatch):
    import sacekit.numerics as numerics

    data, _ = gen_dataset(SimulationSetting(n=2000, delta1=1, delta2=1, seed=64))
    monkeypatch.setattr(numerics, "NEWTON_MAX_ITER", 1)
    est = estimate_sace(data, "prop-er")
    assert not est.converged
    # not at the boundary, so the warning carries no boundary note
    assert "survival fit did not converge" in est.warnings
    points, failed = _replicates([(data, None)], ("prop-er",), {"prop-er": None})["prop-er"]
    assert points.size == 0
    assert failed == {"estimation_error": 0, "non_finite": 0, "not_converged": 1}


def test_bootstrap_deterministic_and_ordered():
    data, _ = gen_dataset(SimulationSetting(n=600, delta1=0, delta2=0, seed=54))
    est1 = bootstrap(data, "naive", n_boot=60, seed=9)
    est2 = bootstrap(data, "naive", n_boot=60, seed=9)
    assert est1.se == est2.se
    assert est1.q025 == est2.q025
    assert est1.q025 <= est1.q50 <= est1.q975
    assert est1.n_boot == 60
    est3 = bootstrap(data, "naive", n_boot=60, seed=10)
    assert est3.se != est1.se


def test_bootstrap_validation():
    data, _ = gen_dataset(SimulationSetting(n=300, seed=55))
    with pytest.raises(ValueError, match="unknown method"):
        bootstrap(data, "magic", n_boot=10)
    with pytest.raises(ValueError, match="at least 2"):
        bootstrap(data, "naive", n_boot=1)
    with pytest.raises(ValueError, match="requires rho"):
        bootstrap(data, "prop-sm", n_boot=10)


@pytest.mark.parametrize("method, rho", [("prop-er", None), ("prop-sm-ni", 0.5)])
def test_bootstrap_lets_no_identification_warning_escape(method, rho, monkeypatch):
    import warnings

    data, _ = gen_dataset(SimulationSetting(n=800, delta1=0, delta2=0, seed=53))
    # an absurdly high threshold makes every replicate's share regressor weak;
    # estimate_sace records those warnings instead of letting them escape
    monkeypatch.setattr("sacekit.models.WEAK_THRESHOLD", 0.999)
    point = estimate_sace(data, method, rho=rho)
    assert any("weak" in w for w in point.warnings)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = bootstrap(data, method, n_boot=5, seed=2, rho=rho)
    assert est.n_failed == 0


def test_bootstrap_counts_dropped_replicates():
    # a lone control-arm survivor vanishes from ~37% of resamples, which
    # makes the naive fit impossible in those replicates
    rng = rng_stream(56)
    n = 40
    z = np.ones(n, dtype=int)
    z[0] = 0
    s = np.ones(n, dtype=int)
    a = rng.integers(0, 2, size=n)
    y = rng.normal(size=n)
    data = Dataset.from_arrays(z, rng.normal(size=(n, 1)), a, s, y)
    est = bootstrap(data, "naive", n_boot=40, seed=11)
    assert est.n_failed > 0
    assert est.n_boot == 40
    assert any("dropped" in w for w in est.warnings)
    if est.n_failed > 4:
        assert any("unreliable" in w for w in est.warnings)
    # the missing control arm is an estimation error, never a bad value
    assert est.failed_by_reason == {
        "estimation_error": 16,
        "non_finite": 0,
        "not_converged": 0,
    }
    assert est.n_failed == sum(est.failed_by_reason.values())
    d = est.to_dict()
    assert d["failed_by_reason"] == est.failed_by_reason
    assert d["n_failed"] == 16


def _replicate_outcome(sample, method, rho, survival=None):
    """(point, None) for a kept replicate, (None, reason) for a dropped one."""
    try:
        est = estimate_sace(sample, method, rho=rho, survival=survival)
    except EstimationError:
        return None, "estimation_error"
    if not np.isfinite(est.point):
        return None, "non_finite"
    if not est.converged:
        return None, "not_converged"
    return est.point, None


def _indefinite_at(sample, theta):
    """Whether the joint survival Hessian of ``sample`` is indefinite at ``theta``."""
    v = survival_design(sample.x, sample.a)
    z, s = sample.z, sample.s
    hess = joint_objective(v, z, s)(theta)[2]
    return bool(np.any(np.linalg.eigvalsh(hess) >= 0.0))


# the last case is a criterion-7 dataset whose ratio coefficients are weakly
# identified: at the full-data optimum the Hessian of replicates 1, 3 and 5
# is indefinite, so their warm-started fits begin with damped Newton steps
SEEDED_2000 = (SimulationSetting(n=2000, delta1=1, delta2=1, seed=0), (63,))
WEAK_RATIO = (SimulationSetting(n=1000, delta1=0, delta2=1, seed=0), (808, 11))


@pytest.mark.parametrize(
    "method, rho, source, seed, n_boot, indefinite",
    [
        ("prop-er", None, SEEDED_2000, 4, 12, False),
        ("prop-ni", None, SEEDED_2000, 4, 12, False),
        ("prop-sm", 0.5, SEEDED_2000, 4, 12, False),
        ("prop-ni", None, WEAK_RATIO, 11, 6, True),
    ],
)
def test_bootstrap_warm_start_matches_cold_refits(
    method, rho, source, seed, n_boot, indefinite
):
    setting, key = source
    data, _ = gen_dataset(setting, rng=rng_stream(*key))
    n = len(data)
    est = bootstrap(data, method, n_boot=n_boot, seed=seed, rho=rho)
    assert est.point == estimate_sace(data, method, rho=rho).point

    fit = fit_survival_sm if method == "prop-sm" else fit_survival_er
    full = fit(data)
    kept = []
    failed = dict.fromkeys(FAILURE_REASONS, 0)
    damped = 0
    for b in range(n_boot):
        sample = data.subset(rng_stream(seed, b).integers(0, n, size=n))
        warm = fit(sample, init=full.params)
        if method != "prop-sm":
            damped += _indefinite_at(sample, full.params)
        cold_point, cold_reason = _replicate_outcome(sample, method, rho)
        warm_point, warm_reason = _replicate_outcome(sample, method, rho, warm)
        assert warm.converged == fit(sample).converged
        assert warm_reason == cold_reason
        if cold_reason is None:
            assert_allclose(warm_point, cold_point, rtol=1e-9, atol=0)
            kept.append(cold_point)
        else:
            failed[cold_reason] += 1
    assert (damped > 0) == indefinite
    # warm starts drop exactly what cold starts drop
    assert est.failed_by_reason == failed
    assert_allclose(est.se, np.std(kept, ddof=1), rtol=1e-9)
    assert_allclose(
        [est.q025, est.q50, est.q975], np.quantile(kept, [0.025, 0.5, 0.975]), rtol=1e-9
    )


def test_warm_start_through_an_indefinite_hessian_converges():
    # replicate 5 of the weak-ratio case: the Hessian at the full-data
    # optimum is indefinite, so the undamped Newton direction there need
    # not be an ascent direction
    setting, key = WEAK_RATIO
    data, _ = gen_dataset(setting, rng=rng_stream(*key))
    full = fit_survival_er(data)
    sample = data.subset(rng_stream(11, 5).integers(0, len(data), size=len(data)))
    assert _indefinite_at(sample, full.params)
    warm = fit_survival_er(sample, init=full.params)
    assert warm.converged
    assert warm.optimizer.iterations < 10


def _weighted_and_copied(data, seed, b, draw=None):
    """One-draw ``_replicates`` of all six methods on resample ``b``, both ways.

    Returns (weighted, copied): the outcomes on the resample's distinct rows
    with frequency weights, as :func:`bootstrap` fits it, and on the
    resample with its rows copied. Stage one starts where
    :func:`bootstrap` starts it: at the converged full-data fits. ``draw``
    replaces the drawn row indices with hand-picked ones.
    """
    n = len(data)
    if draw is None:
        draw = rng_stream(seed, b).integers(0, n, size=n)
        sample, weights = _resample(data, seed, b)
    else:
        counts = np.bincount(draw, minlength=n)
        rows = np.flatnonzero(counts)
        sample, weights = data.subset(rows), counts[rows].astype(float)
    starts = {}
    for kind, fit in (("er", fit_survival_er), ("sm", fit_survival_sm)):
        full = fit(data)
        if full.converged:
            starts[kind] = full
    rhos = method_rhos(ALL_METHODS, 0.5)
    weighted = _replicates([(sample, weights)], ALL_METHODS, rhos, starts)
    copied = _replicates([(data.subset(draw), None)], ALL_METHODS, rhos, starts)
    return weighted, copied


def _assert_same_replicates(weighted, copied):
    for m in ALL_METHODS:
        (w, w_failed), (c, c_failed) = weighted[m], copied[m]
        assert w_failed == c_failed, m  # the same failure reason
        assert w.shape == c.shape and np.all(np.abs(w - c) <= 1e-12 * np.abs(c)), (m, w, c)


@pytest.mark.parametrize("n, delta1, delta2, cell", [
    (200, 0, 0, 0), (200, 0, 1, 1), (200, 1, 0, 2), (200, 1, 1, 3), (2000, 1, 1, 0),
])
def test_weighted_distinct_rows_replicate_the_copied_rows(n, delta1, delta2, cell):
    # the n=200 datasets are the first two draws of the acceptance grid's
    # cells, where prop-er and prop-ni lose 8-30% of their replicates
    setting = SimulationSetting(n=n, delta1=delta1, delta2=delta2)
    dropped = 0
    for r in range(2):
        data, _ = gen_dataset(setting, rng=rng_stream(2024, cell, r))
        for b in range(12):
            weighted, copied = _weighted_and_copied(data, 5, b)
            _assert_same_replicates(weighted, copied)
            dropped += sum(sum(failed.values()) for _, failed in copied.values())
    if n == 200:
        assert dropped > 0  # failure reasons were compared, not only points


def test_too_few_distinct_survivors_fail_both_ways():
    # the control arm has two distinct survivors, fewer than the three
    # coefficients of its outcome fit (1, x, a); drawn three times each
    # they are six rows, enough for the count guard, and the copied design
    # is rank deficient. The weighted fit must fail the same way instead
    # of tripping the row check of fit_ols.
    rng = rng_stream(70)
    n = 80
    z = np.repeat([1, 0], n // 2)
    a = rng.integers(0, 2, size=n)
    s = np.where(z == 1, rng.integers(0, 2, size=n), 0)
    s[[40, 41]] = 1
    a[[40, 41]] = [0, 1]
    y = np.where(s == 1, rng.normal(size=n), np.nan)
    data = Dataset.from_arrays(z, rng.normal(size=(n, 1)), a, s, y)
    draw = np.concatenate([np.arange(40), np.arange(42, 76), [40, 40, 40, 41, 41, 41]])
    assert draw.size == n
    weighted, copied = _weighted_and_copied(data, None, None, draw=draw)
    _assert_same_replicates(weighted, copied)
    assert weighted["prop-er"][1]["estimation_error"] == 1


def test_bootstrap_replicates_start_from_a_converged_full_fit(monkeypatch):
    import sacekit.models as models

    inits = []
    original = models.fit_survival_er

    def spy(data, init=None, **kwargs):
        inits.append(init)
        return original(data, init=init, **kwargs)

    monkeypatch.setattr(models, "fit_survival_er", spy)
    data, _ = gen_dataset(SimulationSetting(n=1000, delta1=1, delta2=1, seed=64))
    bootstrap(data, "prop-er", n_boot=3, seed=1)
    full = original(data).optimizer.params
    assert inits[0] is None
    assert all(np.array_equal(init, full) for init in inits[1:]) and len(inits) == 4

    # every control unit with a=1 survives but only half the treated ones:
    # the ratio surface saturates, the full fit does not converge, and the
    # replicates start cold instead of from its drifting parameters
    rng = rng_stream(64)
    n = 600
    z = rng.integers(0, 2, size=n)
    a = rng.integers(0, 2, size=n)
    s = np.where((z == 0) & (a == 1), 1, rng.integers(0, 2, size=n))
    y = np.where(s == 1, rng.normal(size=n), np.nan)
    saturated = Dataset.from_arrays(z, rng.normal(size=(n, 1)), a, s, y)
    inits.clear()
    with pytest.raises(EstimationError, match="every bootstrap replicate failed"):
        bootstrap(saturated, "prop-er", n_boot=3, seed=1)
    assert inits == [None] * 4


def test_bootstrap_notes_a_full_data_fit_that_did_not_converge():
    # one unit far out in x1 has a fitted survival within BOUNDARY_EPS of 1:
    # the full fit and every replicate that draws it are boundary-saturated,
    # and the replicates without it converge
    data, _ = gen_dataset(SimulationSetting(n=500, delta1=1, delta2=1, seed=8))
    x = data.x.copy()
    x[0, 0] = 20.0
    y = np.full(len(data), np.nan)
    y[data.s == 1] = data.outcomes_at(data.s == 1)
    data = Dataset.from_arrays(data.z, x, data.a, data.s, y)
    boot = bootstrap(data, "prop-er", n_boot=10, seed=1)
    assert not boot.converged
    assert boot.point == estimate_sace(data, "prop-er").point
    assert boot.failed_by_reason["not_converged"] == boot.n_failed == 7
    assert boot.warnings[-1] == "full-data survival fit did not converge"


def test_sensitivity_sweep_grid_and_reuse():
    data, _ = gen_dataset(SimulationSetting(n=2500, delta1=1, delta2=1, seed=57))
    survival = fit_survival_sm(data)
    grid = [0.75, 0.0, 0.25, 0.5, 1.0]
    curve = sensitivity_sweep(data, grid, assume_er=True, survival=survival)
    rhos = [r.rho for r in curve.rows]
    assert rhos == sorted(rhos) and len(rhos) == 5
    harmed = [r.harmed_mass for r in curve.rows]
    assert np.all(np.diff(harmed) <= 1e-12)
    assert all(np.isfinite(r.effect) for r in curve.rows)
    # same survival object: rerun reproduces exactly
    again = sensitivity_sweep(data, grid, assume_er=True, survival=survival)
    assert [r.effect for r in again.rows] == [r.effect for r in curve.rows]
    with pytest.raises(ValueError):
        sensitivity_sweep(data, [])
    with pytest.raises(ValueError):
        sensitivity_sweep(data, [0.5, 1.2])


def _sweep_matches_point_fits(data, survival, grid, assume_er):
    """Compare every sweep row with a stand-alone fit_sm at its rho, bit for bit."""
    import warnings

    from sacekit.identify import IdentificationWarning

    curve = sensitivity_sweep(data, grid, assume_er=assume_er, survival=survival)
    th1 = survival.theta_treated(data.x, data.a)
    th0 = survival.theta_control(data.x, data.a)
    notes = {}
    for row in curve.rows:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IdentificationWarning)
            try:
                fit = fit_sm(data, row.rho, assume_er=assume_er, survival=survival)
            except EstimationError as exc:
                assert row.message == str(exc)
                assert np.isnan(row.effect)
                harmed = np.mean(th0 - stochastic_always_share(th1, th0, row.rho))
                assert row.harmed_mass == float(harmed)
                notes[row.rho] = None
                continue
        assert row.message == ""
        assert row.effect == fit.effect
        assert row.harmed_mass == fit.harmed_mass
        notes[row.rho] = fit.warnings
    return notes


@pytest.mark.parametrize("assume_er", [True, False])
def test_sensitivity_sweep_equals_point_fits(assume_er):
    data, _ = gen_dataset(SimulationSetting(n=3000, delta1=1, delta2=1, seed=57))
    survival = fit_survival_sm(data)
    notes = _sweep_matches_point_fits(data, survival, [0.0, 0.3, 0.65, 1.0], assume_er)
    # at full coupling fitted control survival never exceeds treated survival
    # here, so the control arm is a pure always-survivor sample and its
    # share column is dropped
    assert any("pure always-survivor" in w for w in notes[1.0])
    assert not any(notes[0.3])


@pytest.mark.parametrize("assume_er", [True, False])
def test_sensitivity_sweep_failing_point_matches_point_fit(assume_er):
    data, _ = gen_dataset(SimulationSetting(n=3000, delta1=1, delta2=1, seed=58))
    fitted = fit_survival_sm(data)
    # control survival constant over units: at rho = 0 the treated-arm share
    # equals it, so that grid point alone is unidentifiable
    flat = np.zeros_like(fitted.beta_control)
    flat[0] = fitted.beta_control[0]
    survival = SurvivalParamsSM(
        beta_treated=fitted.beta_treated,
        beta_control=flat,
        opt_treated=fitted.opt_treated,
        opt_control=fitted.opt_control,
        column_names=fitted.column_names,
    )
    notes = _sweep_matches_point_fits(data, survival, [0.0, 0.5, 1.0], assume_er)
    assert notes[0.0] is None
    assert notes[0.5] is not None


@pytest.mark.parametrize("assume_er", [True, False])
def test_sweep_and_fit_sm_fit_the_arm_wise_survival_by_default(assume_er):
    data, _ = gen_dataset(SimulationSetting(n=2000, delta1=1, delta2=1, seed=61))
    survival = fit_survival_sm(data)
    grid = [0.0, 0.5, 1.0]
    own = sensitivity_sweep(data, grid, assume_er)
    given = sensitivity_sweep(data, grid, assume_er, survival=survival)
    assert repr(own.rows) == repr(given.rows)
    fit = fit_sm(data, 0.5, assume_er)
    ref = fit_sm(data, 0.5, assume_er, survival=survival)
    assert fit.survival.params.tolist() == survival.params.tolist()
    assert (fit.effect, fit.always_mass, fit.harmed_mass, fit.warnings) == (
        ref.effect, ref.always_mass, ref.harmed_mass, ref.warnings
    )
    for block, names in ref.outcome.names.items():
        assert fit.outcome.names[block] == names
        assert getattr(fit.outcome, block).tolist() == getattr(ref.outcome, block).tolist()


@pytest.mark.parametrize("assume_er", [True, False])
def test_fit_sm_weak_share_warning_points_at_the_caller(assume_er, monkeypatch):
    import warnings

    from sacekit.identify import IdentificationWarning

    data, _ = gen_dataset(SimulationSetting(n=1500, delta1=1, delta2=1, seed=60))
    survival = fit_survival_sm(data)
    # absurdly high threshold forces the weak-spread path
    monkeypatch.setattr("sacekit.models.WEAK_THRESHOLD", 0.999)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IdentificationWarning)
        fit_sm(data, 0.5, assume_er=assume_er, survival=survival)
    weak = [w for w in caught if issubclass(w.category, IdentificationWarning)]
    assert weak
    assert all(w.filename == __file__ for w in weak)


def test_sensitivity_curve_csv_format(tmp_path):
    from sacekit.models import SensitivityCurve, SensitivityRow

    curve = SensitivityCurve(
        assume_er=True,
        rows=[
            SensitivityRow(rho=0.0, harmed_mass=0.25, effect=1.5),
            SensitivityRow(rho=1.0, harmed_mass=0.0, effect=float("nan"), message="x"),
        ],
    )
    p = tmp_path / "curve.csv"
    curve.to_csv(str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == "rho,pi_dl,delta"
    assert lines[1] == "0.0,0.25,1.5"
    assert lines[2] == "1.0,0.0,"  # failed point keeps its row
    assert p.read_bytes() == b"rho,pi_dl,delta\n0.0,0.25,1.5\n1.0,0.0,\n"


def test_method_registry():
    assert set(PROP_METHODS) == {"prop-er", "prop-ni", "prop-sm", "prop-sm-ni"}
    assert set(ALL_METHODS) == set(PROP_METHODS) | {"naive", "dgyz"}
