"""Tests for the shared numerical kernels."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from sacekit import numerics
from sacekit.errors import CollinearityError
from sacekit.models import survival_design
from sacekit.numerics import (
    bernoulli_objective,
    check_gradient,
    expit,
    fit_logistic,
    fit_ols,
    maximize_loglik,
    rng_stream,
)
from sacekit.simulate import SimulationSetting, gen_dataset

from conftest import joint_objective


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


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("weighted", [False, True])
def test_fixed_block_ols_matches_fit_ols(k, weighted):
    design, response = _tall_case(26, 5_000, [1.0] * 7)
    weights = rng_stream(26, 1).integers(1, 4, size=5_000).astype(float) if weighted else None
    fixed, varying = [0, 2, 3, 5, 6], [4, 1][:k]
    solver = numerics.FixedBlockOLS(design, fixed, response, weights)
    # the same factor serves each value of the varying columns
    for shift in (0.0, 0.5):
        design[:, varying] += shift
        expected = fit_ols(design[:, fixed + varying], response, weights=weights)
        assert_allclose(solver.solve(design, varying), expected, rtol=1e-12)


def test_fixed_block_ols_leaves_doubtful_fits_to_fit_ols():
    design, response = _tall_case(27, 2_000, [1.0] * 4)
    fixed = design[:, :3]
    # a rank-deficient fixed block declines every varying block
    doubled = np.column_stack([design, fixed[:, 1]])
    assert numerics.FixedBlockOLS(doubled, [0, 1, 2, 4], response).solve(doubled, [3]) is None
    solver = numerics.FixedBlockOLS(design, [0, 1, 2], response)
    assert solver.solve(design, [3]) is not None
    # fewer rows than fixed columns, though enough weighted rows: F is rank
    # deficient, and fit_ols raises
    weights = np.array([3.0, 4.0])
    wide = numerics.FixedBlockOLS(design[:2], [0, 1, 2], response[:2], weights)
    assert wide.solve(design[:2], []) is None and wide.solve(design[:2], [3]) is None
    with pytest.raises(CollinearityError):
        fit_ols(design[:2], response[:2], weights=weights)
    # a non-finite varying column
    design[7, 3] = np.nan
    assert solver.solve(design, [3]) is None
    # a varying column within the margin of the rank tolerance: fit_ols
    # still finds the design full rank and fits it, the solver declines it
    rng = rng_stream(27, 1)
    tol = numerics._rank_tol(1.0, 2_000, 4) * np.linalg.norm(fixed, 2)
    design[:, 3] = fixed @ [0.3, -1.0, 2.0] + 10.0 * tol * rng.normal(size=2_000)
    assert np.all(np.isfinite(fit_ols(design, response)))
    assert solver.solve(design, [3]) is None
    # and one in the span of F: fit_ols raises
    design[:, 3] = fixed @ [0.3, -1.0, 2.0]
    with pytest.raises(CollinearityError):
        fit_ols(design, response)
    assert solver.solve(design, [3]) is None


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


def test_fixed_block_ols_factor_is_scipys_qr_bit_for_bit():
    rng = rng_stream(19)
    compared = 0
    for i in range(240):
        q = int(rng.integers(1, 7))
        n = int(np.exp(rng.uniform(np.log(8), np.log(5_000))))
        design = rng.normal(size=(n, q + 1)) * np.exp(rng.normal(size=q + 1))
        fixed = [int(j) for j in rng.permutation(q + 1)[:q]]
        weights = rng.integers(1, 5, size=n).astype(float) if i % 3 == 0 else None
        solver = numerics.FixedBlockOLS(design, fixed, rng.normal(size=n), weights)
        f = design[:, fixed]
        if weights is not None:
            f = f * np.sqrt(weights)[:, None]
        basis, r = scipy.linalg.qr(f, mode="economic")
        if solver.basis is None:
            assert not numerics._clears_rank_tol(r, solver.n), (i, n, q)
            continue
        assert solver.basis.tobytes() == basis.tobytes(), (i, n, q)
        assert solver.r.tobytes() == r.tobytes(), (i, n, q)
        compared += 1
    assert compared > 200


def _scipy_fit_ols(design, response, weights=None):
    """``fit_ols`` as written on scipy.linalg's checked wrappers.

    A pivoted ``qr_multiply`` and ``solve_triangular``; returns the
    coefficients, or the column indices a ``CollinearityError`` names.
    """
    n, p = design.shape
    if weights is not None:
        root = np.sqrt(weights)
        design, response = design * root[:, None], response * root
        n = int(np.sum(weights))
    qty, r, piv = scipy.linalg.qr_multiply(
        design, response[None, :], mode="right", pivoting=True
    )
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > diag[0] * max(n, p) * np.finfo(float).eps))
    if rank < p:
        return sorted(piv[rank:])
    coef = np.empty(p)
    coef[piv] = scipy.linalg.solve_triangular(r, qty[0], check_finite=False)
    return coef


def test_fit_ols_is_scipys_pivoted_qr_bit_for_bit():
    rng = rng_stream(17)
    solved = collinear = 0
    for i in range(320):
        shape = ("tall", "square", "wide", "weighted")[i % 4]
        p = int(rng.integers(1, 9))
        n = {"tall": p + int(rng.integers(1, 300)), "square": p}.get(shape)
        weights = None
        if shape == "wide":
            # fewer distinct rows than coefficients, but enough weighted rows
            n = int(rng.integers(1, p + 1))
            weights = rng.integers(1, 4, size=n) + float(p)
        elif shape == "weighted":
            n = p + int(rng.integers(1, 300))
            weights = rng.integers(1, 5, size=n).astype(float)
        # column scales far apart, so the pivoting reorders the columns
        design = rng.normal(size=(n, p)) * np.exp(3.0 * rng.normal(size=p))
        if p > 1 and rng.uniform() < 0.25:
            design[:, -1] = design[:, 0] - 2.0 * design[:, p // 2]
        response = rng.normal(size=n)
        names = [f"c{j}" for j in range(p)]
        want = _scipy_fit_ols(design, response, weights)
        if isinstance(want, list):
            with pytest.raises(CollinearityError) as err:
                fit_ols(design, response, column_names=names, weights=weights)
            assert err.value.columns == tuple(names[j] for j in want), (i, shape)
            collinear += 1
        else:
            got = fit_ols(design, response, column_names=names, weights=weights)
            assert got.tobytes() == want.tobytes(), (i, shape, n, p)
            solved += 1
    assert solved > 150 and collinear > 80


def test_fit_ols_rejects_non_finite_inputs_and_negative_weights():
    rng = rng_stream(18)
    design = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
    response = rng.normal(size=40)
    weights = rng.integers(1, 4, size=40).astype(float)
    for bad in (np.nan, np.inf, -np.inf):
        for w in (None, weights):
            broken = design.copy()
            broken[7, 1] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                fit_ols(broken, response, weights=w)
            broken = response.copy()
            broken[3] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                fit_ols(design, broken, weights=w)
    negative = weights.copy()
    negative[5] = -1.0
    with pytest.raises(ValueError, match="weights must be integers of 1 or more"):
        fit_ols(design, response, weights=negative)


@pytest.mark.parametrize("bad", [0.5, -1.0, 0.0, np.nan])
def test_solvers_reject_weights_that_are_not_frequency_weights(bad):
    # a weight of 0.5 used to be taken as half a row, and one of -1 as a
    # row removed: fit_ols returned the unweighted fit, FixedBlockOLS
    # counted 25 rows for 50, and fit_logistic ran out its iterations
    rng = rng_stream(19)
    design = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
    weights = np.full(50, bad)
    message = "weights must be integers of 1 or more"
    with pytest.raises(ValueError, match=message):
        fit_ols(design, rng.normal(size=50), weights=weights)
    with pytest.raises(ValueError, match=message):
        numerics.FixedBlockOLS(design, [0, 1], rng.normal(size=50), weights)
    with pytest.raises(ValueError, match=message):
        fit_logistic(design, (rng.random(50) < 0.5).astype(float), weights=weights)
    with pytest.raises(ValueError, match=message):
        bernoulli_objective(design, np.ones(50), weights[:10])


def test_frequency_weights_equal_copied_rows():
    rng = rng_stream(16)
    n = 300
    design = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    y = design @ np.array([1.0, -0.5, 2.0]) + rng.normal(size=n)
    s = rng.binomial(1, expit(design @ np.array([0.2, 1.0, -0.5]))).astype(float)
    weights = rng.integers(1, 5, size=n).astype(float)
    copied = np.repeat(np.arange(n), weights.astype(int))
    assert_allclose(
        fit_ols(design, y, weights=weights), fit_ols(design[copied], y[copied]), rtol=1e-12
    )
    got = fit_logistic(design, s, weights=weights)
    want = fit_logistic(design[copied], s[copied])
    assert got.converged and want.converged
    assert_allclose(got.params, want.params, rtol=1e-12)
    assert_allclose(got.loglik, want.loglik, rtol=1e-12)


def test_fit_ols_counts_weighted_rows():
    # two distinct rows drawn three times each: enough rows for three
    # coefficients, but a rank-deficient design, as the copied rows are
    design = np.array([[1.0, 0.5, 2.0], [1.0, -1.0, 0.0]])
    with pytest.raises(CollinearityError):
        fit_ols(design, np.ones(2), weights=np.array([3.0, 3.0]))
    with pytest.raises(CollinearityError):
        fit_ols(np.repeat(design, 3, axis=0), np.ones(6))
    with pytest.raises(ValueError, match="got 2"):
        fit_ols(design, np.ones(2), weights=np.array([1.0, 1.0]))


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


def test_maximize_loglik_respects_max_iter(monkeypatch):
    def slow(x):
        return -float(x[0] ** 2), np.array([-2.0 * x[0]]), np.array([[-1e-6]])

    monkeypatch.setattr(numerics, "NEWTON_MAX_ITER", 3)
    res = maximize_loglik(slow, np.array([5.0]))
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
    objective = joint_objective(v, z, s)
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


def test_maximize_loglik_rejects_a_start_where_the_objective_is_not_finite():
    # both surfaces at expit(40) == 1.0: a control death has q = 1 and
    # log(1 - q) = -inf
    data, _ = gen_dataset(SimulationSetting(n=200, delta1=1, delta2=1, seed=15))
    v = survival_design(data.x, data.a)
    init = np.zeros(2 * v.shape[1])
    init[0] = init[v.shape[1]] = 40.0
    with pytest.raises(ValueError, match="^objective is not finite at the initial point$"):
        maximize_loglik(joint_objective(v, data.z, data.s), init)


def _scipy_ascent_direction(g, h):
    """``numerics._ascent_direction`` on scipy's ``cho_factor``/``cho_solve``: (d, lam)."""
    neg = -h
    if not np.all(np.isfinite(neg)):
        return None, None
    lam = 0.0
    for _ in range(40):
        damped = neg + lam * np.eye(g.size) if lam else neg
        try:
            return scipy.linalg.cho_solve(scipy.linalg.cho_factor(damped), g), lam
        except scipy.linalg.LinAlgError:
            c = 1e-8 * max(1.0, float(np.max(np.abs(np.diagonal(neg)))))
            lam = 10.0 * lam if lam else c
    return None, lam


def test_ascent_direction_is_scipys_cholesky_bit_for_bit():
    rng = rng_stream(19)
    damped = 0
    for i in range(300):
        p = int(rng.integers(1, 13))
        a = rng.normal(size=(p, p))
        g = rng.normal(size=p)
        # negative definite, symmetric indefinite, negative semi-definite
        h = (-(a @ a.T) - 1e-3 * np.eye(p), a + a.T, -np.outer(a[0], a[0]))[i % 3]
        want, lam = _scipy_ascent_direction(g, h)
        got = numerics._ascent_direction(g, h)
        assert want is not None
        assert got.tobytes() == want.tobytes(), (i, p, lam)
        damped += lam > 0
    assert damped > 150
    for bad in (np.nan, np.inf):
        h = -np.eye(3)
        h[1, 2] = bad
        assert _scipy_ascent_direction(np.ones(3), h) == (None, None)
        assert numerics._ascent_direction(np.ones(3), h) is None
    # a non-finite gradient at a finite Hessian raises, as cho_solve does
    with pytest.raises(ValueError):
        numerics._ascent_direction(np.array([np.nan, 1.0]), -np.eye(2))


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


def test_maximize_loglik_stops_where_no_damping_factors_the_hessian():
    # -H = [[0, 1e300], [1e300, 0]] is indefinite, and the largest damping
    # tried, 1e30, is far below the 1e300 that would make it definite
    h = np.array([[0.0, -1e300], [-1e300, 0.0]])
    g = np.array([1.0, 1.0])
    assert numerics._ascent_direction(g, h) is None

    def objective(x):
        return -float(x @ x), g, h

    res = maximize_loglik(objective, np.array([0.5, 0.5]))
    assert not res.converged
    assert res.iterations == 0
    assert res.grad_norm == 1.0


def test_maximize_loglik_stays_at_its_start_when_every_trial_step_fails():
    start = np.array([1.0, -2.0])
    calls = []

    def objective(x):
        # finite at the start only; a step of 2**-60 rounds back onto it
        calls.append(x)
        return (0.0 if len(calls) == 1 else -np.inf), np.array([1.0, 1.0]), -np.eye(2)

    res = maximize_loglik(objective, start)
    assert len(calls) == 61
    assert res.iterations == 0
    assert not res.converged
    assert np.array_equal(res.params, start)
    assert res.loglik == 0.0


def test_fixed_block_ols_leaves_an_all_zero_varying_column_to_fit_ols():
    rng = rng_stream(65)
    design = np.column_stack([np.ones(30), rng.normal(size=30), np.zeros(30)])
    solver = numerics.FixedBlockOLS(design, [0, 1], rng.normal(size=30))
    assert solver.solve(design, [2]) is None
    with pytest.raises(CollinearityError):
        fit_ols(design, rng.normal(size=30))


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
