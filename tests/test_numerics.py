"""Tests for the shared numerical kernels."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from sacekit.errors import CollinearityError
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


def test_expit_known_values():
    assert expit(0.0) == 0.5
    assert_allclose(expit(np.log(3.0)), 0.75, rtol=1e-14)
    assert_allclose(expit(-np.log(3.0)), 0.25, rtol=1e-14)
    # saturates without overflow warnings
    assert expit(800.0) == 1.0
    assert expit(-800.0) == 0.0


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
