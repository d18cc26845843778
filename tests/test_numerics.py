"""Tests for the shared numerical kernels."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from sacekit.errors import CollinearityError
from sacekit.models import joint_survival_objective, survival_design
from sacekit.numerics import (
    bernoulli_objective,
    check_gradient,
    expit,
    fit_logistic,
    fit_ols,
    logit,
    maximize_loglik,
    rng_stream,
)
from sacekit.simulate import SimulationSetting, gen_dataset


def test_expit_known_values():
    assert expit(0.0) == 0.5
    assert_allclose(expit(np.log(3.0)), 0.75, rtol=1e-14)
    assert_allclose(expit(-np.log(3.0)), 0.25, rtol=1e-14)
    # saturates without overflow warnings
    assert expit(800.0) == 1.0
    assert expit(-800.0) == 0.0


def _two_branch_expit(t):
    """The earlier formula: 1/(1+exp(-t)) for t >= 0, exp(t)/(1+exp(t)) below."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def test_expit_saturation_nan_and_scalar_type():
    assert_allclose(expit(np.array([-800.0, 800.0])), [0.0, 1.0], rtol=0, atol=0)
    assert expit(np.float64(-800.0)) == 0.0 and expit(800) == 1.0
    assert np.isnan(expit(float("nan")))
    out = expit(np.array([0.0, np.nan, 1.0]))
    assert np.isnan(out[1]) and np.isfinite(out[[0, 2]]).all()
    for scalar in (0.25, np.float64(0.25), np.array(0.25), 3):
        assert type(expit(scalar)) is float
    assert expit(np.ones((2, 3))).shape == (2, 3)


def test_expit_matches_the_two_branch_formula():
    t = np.linspace(-40.0, 40.0, 100_001)
    assert_allclose(expit(t), _two_branch_expit(t), rtol=1e-15, atol=0)


def test_logit_inverts_expit():
    p = np.array([0.01, 0.3, 0.5, 0.77, 0.999])
    assert_allclose(expit(logit(p)), p, rtol=1e-12)


def test_fit_ols_exact_on_noiseless_data():
    rng = rng_stream(11)
    x = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
    beta = np.array([1.0, -2.0, 0.5])
    coef = fit_ols(x, x @ beta)
    assert_allclose(coef, beta, atol=1e-10)


def test_fit_ols_recovers_coefficients_under_noise():
    rng = rng_stream(12)
    n = 10_000
    x = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    beta = np.array([0.3, 1.0, -1.5])
    y = x @ beta + 0.5 * rng.normal(size=n)
    coef = fit_ols(x, y)
    # each z-score is below 3 with overwhelming probability at this n
    assert np.all(np.abs(coef - beta) < 3.0 * 0.5 / np.sqrt(n) * 1.2)


def test_fit_ols_names_collinear_columns():
    rng = rng_stream(13)
    base = rng.normal(size=(30, 2))
    design = np.column_stack([np.ones(30), base, base[:, 0] + base[:, 1]])
    with pytest.raises(CollinearityError) as err:
        fit_ols(design, rng.normal(size=30), column_names=["c0", "x1", "x2", "xsum"])
    assert "xsum" in str(err.value) or "x1" in str(err.value)


def _lstsq(design, response):
    return np.linalg.lstsq(design, response, rcond=None)[0]


def _tall_case(seed, n, scales):
    rng = rng_stream(seed)
    p = len(scales)
    design = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    design = design * np.asarray(scales, dtype=float)
    beta = rng.uniform(0.5, 2.0, size=p) * rng.choice([-1.0, 1.0], size=p)
    beta = beta / np.asarray(scales, dtype=float)
    return design, design @ beta + rng.normal(size=n)


@pytest.mark.parametrize(
    "seed, n, scales",
    [
        (21, 500, [1.0, 1.0, 1.0]),
        (22, 20_000, [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
        (23, 3_000, [1.0, 1e-2, 1e2, 10.0]),
        (24, 7, [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    ],
    ids=["tall", "wide-tall", "badly-scaled", "square"],
)
def test_fit_ols_matches_lstsq(seed, n, scales):
    design, response = _tall_case(seed, n, scales)
    assert_allclose(fit_ols(design, response), _lstsq(design, response), rtol=1e-10)


def test_fit_ols_is_column_scale_invariant():
    # Columns 1e12 apart: the SVD solver truncates near its rcond cut-off and
    # loses digits, while the pivoted QR matches the solve of the
    # equilibrated design, whose columns have unit scale.
    scales = np.array([1.0, 1e-6, 1e6, 1e3])
    design, response = _tall_case(23, 3_000, scales)
    reference = _lstsq(design / scales, response) / scales
    assert_allclose(fit_ols(design, response), reference, rtol=1e-10)


def test_fit_ols_undoes_the_column_pivoting():
    # the largest column comes last, so the pivoted QR reorders the columns
    design, response = _tall_case(25, 400, [1.0, 1.0, 1e2, 1e4])
    _, _, piv = scipy.linalg.qr(design, mode="economic", pivoting=True)
    assert list(piv) != list(range(design.shape[1]))
    assert_allclose(fit_ols(design, response), _lstsq(design, response), rtol=1e-10)


def test_fit_ols_collinearity_columns():
    rng = rng_stream(13)
    base = rng.normal(size=(30, 2))
    ones = np.ones(30)
    cases = [
        ([ones, base[:, 0], base[:, 1], base[:, 0] + base[:, 1]], ["c0", "x1", "x2", "xsum"], ("x1",)),
        ([ones, base[:, 0], base[:, 1], base[:, 0]], ["c0", "x1", "x2", "x1copy"], ("x1copy",)),
        ([ones, np.zeros(30), base[:, 1]], ["c0", "zero", "x2"], ("zero",)),
        ([ones, base[:, 0], 3.0 * ones], ["c0", "x1", "three"], ("c0",)),
        ([base[:, 0], base[:, 1], base[:, 0] - base[:, 1]], None, ("column 1",)),
    ]
    response = rng_stream(14).normal(size=30)
    for cols, names, expected in cases:
        with pytest.raises(CollinearityError) as err:
            fit_ols(np.column_stack(cols), response, column_names=names)
        assert err.value.columns == expected


def test_fit_ols_shape_checks():
    with pytest.raises(ValueError):
        fit_ols(np.ones(5), np.ones(5))
    with pytest.raises(ValueError):
        fit_ols(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        fit_ols(np.eye(3), np.array([1.0, np.nan, 0.0]))
    assert fit_ols(np.ones((4, 0)), np.ones(4)).shape == (0,)


def test_maximize_loglik_quadratic():
    def objective(x):
        g = -(x - 2.0)
        h = -np.eye(x.size)
        f = -0.5 * float((x - 2.0) @ (x - 2.0))
        return f, g, h

    res = maximize_loglik(objective, np.zeros(3))
    assert res.converged
    assert_allclose(res.params, 2.0, atol=1e-8)
    assert res.grad_norm < 1e-8
    assert not res.boundary_flag


def test_maximize_loglik_monotone_accepted_steps():
    rng = rng_stream(14)
    design = np.column_stack([np.ones(400), rng.normal(size=400)])
    y = rng.binomial(1, expit(design @ np.array([0.3, 1.0]))).astype(float)
    objective, _ = bernoulli_objective(design, y)

    values = []

    def tracking(beta):
        f, g, h = objective(beta)
        values.append(f)
        return f, g, h

    res = maximize_loglik(tracking, np.zeros(2))
    assert res.converged
    # accepted path is non-decreasing up to last-place rounding
    f = -np.inf
    for v in values:
        if np.isfinite(v) and v >= f - 1e-9 * (1.0 + abs(v)):
            f = max(f, v)
    assert_allclose(f, res.loglik, rtol=1e-12)


def test_maximize_loglik_separated_data_is_not_converged():
    # all successes: the MLE runs to infinity and probabilities saturate
    design = np.ones((50, 1))
    y = np.ones(50)
    objective, probabilities = bernoulli_objective(design, y)
    res = maximize_loglik(objective, np.zeros(1), probabilities=probabilities)
    assert res.boundary_flag
    assert not res.converged


def test_maximize_loglik_respects_max_iter():
    def slow(x):
        return -float(x[0] ** 2), np.array([-2.0 * x[0]]), np.array([[-1e-6]])

    res = maximize_loglik(slow, np.array([5.0]), max_iter=3)
    assert res.iterations <= 3
    assert not res.converged


def _undamped_newton(objective, init, tol=1e-8, max_iter=100):
    """Plain Newton ascent with step halving: ``maximize_loglik`` without damping.

    Returns ``(params, loglik, iterations)``; raises LinAlgError at the
    first Hessian that is not negative definite.
    """
    x = np.asarray(init, dtype=float).copy()
    f, g, h = objective(x)
    iterations = 0
    for _ in range(max_iter):
        if np.max(np.abs(g)) <= tol:
            break
        direction = scipy.linalg.cho_solve(scipy.linalg.cho_factor(-h), g)
        slack = 64.0 * np.finfo(float).eps * (1.0 + abs(f))
        step = 1.0
        for _ in range(60):
            x_new = x + step * direction
            f_new, g_new, h_new = objective(x_new)
            if np.isfinite(f_new) and f_new >= f - slack:
                break
            step *= 0.5
        else:
            break
        x, f, g, h = x_new, f_new, g_new, h_new
        iterations += 1
    return x, f, iterations


def _joint_case():
    data, _ = gen_dataset(SimulationSetting(n=2000, delta1=1, delta2=1, seed=15))
    v = survival_design(data.x, data.a)
    z, s = data.z, data.s
    objective = joint_survival_objective(v[z == 1], s[z == 1], v[z == 0], s[z == 0])
    return objective, np.zeros(2 * v.shape[1])


def _logistic_case():
    rng = rng_stream(15)
    design = np.column_stack([np.ones(500), rng.normal(size=(500, 2))])
    y = rng.binomial(1, expit(design @ np.array([0.2, 1.0, -0.5]))).astype(float)
    return bernoulli_objective(design, y)[0], np.zeros(3)


@pytest.mark.parametrize("case", [_logistic_case, _joint_case])
def test_maximize_loglik_is_plain_newton_where_the_hessian_is_definite(case):
    objective, init = case()
    params, loglik, iterations = _undamped_newton(objective, init)
    res = maximize_loglik(objective, init)
    assert res.converged and iterations > 3
    assert np.array_equal(res.params, params)
    assert res.loglik == loglik
    assert res.iterations == iterations


def test_maximize_loglik_damps_an_indefinite_hessian():
    # f = -(u^2 - 1)^2 - v^2 in coordinates (u, v) rotated by 30 degrees from
    # x; it curves upward along u for |u| < 1/sqrt(3)
    rot = np.array([[np.sqrt(3.0), -1.0], [1.0, np.sqrt(3.0)]]) / 2.0

    def objective(x):
        u, v = rot @ x
        f = -((u**2 - 1.0) ** 2) - v**2
        g = rot.T @ np.array([-4.0 * u * (u**2 - 1.0), -2.0 * v])
        h = rot.T @ np.diag([-(12.0 * u**2 - 4.0), -2.0]) @ rot
        return f, g, h

    start = rot.T @ np.array([0.1, 1.0])
    with pytest.raises(scipy.linalg.LinAlgError):
        _undamped_newton(objective, start)
    res = maximize_loglik(objective, start)
    assert res.converged
    assert_allclose(rot @ res.params, [1.0, 0.0], atol=1e-8)
    assert res.iterations < 20


def test_maximize_loglik_stops_at_a_non_finite_hessian():
    def objective(x):
        return -float(x @ x), -2.0 * x, np.full((2, 2), np.nan)

    res = maximize_loglik(objective, np.array([1.0, 2.0]))
    assert not res.converged
    assert res.iterations == 0
    assert np.array_equal(res.params, [1.0, 2.0])


def test_check_gradient_flags_wrong_gradient():
    def good(x):
        return float(np.sin(x).sum()), np.cos(x), None

    def bad(x):
        return float(np.sin(x).sum()), 1.5 * np.cos(x), None

    pt = np.array([0.3, -0.7])
    assert check_gradient(good, pt) < 1e-7
    assert check_gradient(bad, pt) > 0.1


def test_fit_logistic_recovers_truth():
    rng = rng_stream(15)
    n = 20_000
    design = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    beta = np.array([0.5, -1.0, 0.75])
    y = rng.binomial(1, expit(design @ beta)).astype(float)
    res = fit_logistic(design, y)
    assert res.converged
    assert np.all(np.abs(res.params - beta) < 0.1)


def test_rng_stream_determinism_and_distinctness():
    a = rng_stream(99, 3).normal(size=4)
    b = rng_stream(99, 3).normal(size=4)
    c = rng_stream(99, 4).normal(size=4)
    d = rng_stream(98, 3).normal(size=4)
    assert_allclose(a, b, rtol=0)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)
