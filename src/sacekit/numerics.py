"""Shared numerical kernels: link functions, least squares, Newton maximization.

Everything here is deterministic. Randomness enters the package only through
numpy Generator objects created by :func:`rng_stream`, which derives
independent PCG64 streams from a base seed and an integer key path, so any
replicate of any experiment can be reproduced in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CollinearityError

# Fitted probabilities within this distance of 0 or 1 are treated as
# boundary-saturated: the likelihood is flat there although the parameters
# are still drifting, so such fits are reported as not converged.
BOUNDARY_EPS = 1e-6
# Newton ascent stops once the max-norm gradient is at most NEWTON_TOL, or
# after NEWTON_MAX_ITER accepted steps; both are read at call time.
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 100


def expit(t):
    """Numerically stable logistic function, elementwise.

    Saturates to exactly 0.0 / 1.0 for large negative / positive inputs
    instead of overflowing, and propagates NaN. A 0-d input gives a Python
    ``float``.
    """
    t = np.asarray(t, dtype=float)
    # In place, so one buffer serves every step. ``out=`` is passed from the
    # start because a 0-d ``np.negative`` would return a numpy scalar.
    out = np.negative(t, out=np.empty_like(t))
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    if out.ndim == 0:
        return float(out)
    return out


def fit_ols(design, response, column_names=None, weights=None):
    """Least-squares coefficients of ``response`` on ``design``.

    Parameters
    ----------
    design : (n, p) array
    response : (n,) array
    column_names : sequence of str, optional
        Used in the rank-deficiency error message. Defaults to column
        indices.
    weights : (n,) array, optional
        Integer frequency weights: row i stands for ``weights[i]`` copies
        of itself. Rows are scaled by the square root of their weight, and
        the row count in the checks below is the weight sum, so the fit
        equals the fit on the copied rows up to rounding; fewer distinct
        rows than coefficients is then a rank deficiency, as it is there.

    Returns
    -------
    (p,) array of coefficients.

    Raises
    ------
    CollinearityError
        If the design is numerically rank deficient. The error names the
        columns that a pivoted QR factorization leaves without a pivot,
        i.e. the ones expressible through the others.
    ValueError
        On mismatched shapes, fewer rows (weighted) than columns, or a
        non-finite entry in ``design`` or ``response``.

    Notes
    -----
    The design is factored once, by a column-pivoted QR that applies the
    reflectors to the response instead of forming Q. The same R serves the
    rank test and the triangular solve, whose solution is then un-pivoted.
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    if design.ndim != 2 or design.shape[0] != response.shape[0]:
        raise ValueError("design must be (n, p) with response of length n")
    n, p = design.shape
    if weights is not None:
        root = np.sqrt(weights)
        design = design * root[:, None]
        response = response * root
        n = int(np.sum(weights))
    if n < p:
        raise ValueError(f"need at least {p} rows to fit {p} coefficients, got {n}")
    if p == 0:
        return np.zeros(0)

    qty, r, piv = scipy.linalg.qr_multiply(
        design, response[None, :], mode="right", pivoting=True
    )
    diag = np.abs(np.diag(r))
    tol = diag[0] * max(n, p) * np.finfo(float).eps
    rank = int(np.sum(diag > tol))
    if rank < p:
        if column_names is None:
            column_names = [f"column {j}" for j in range(p)]
        offending = [str(column_names[j]) for j in sorted(piv[rank:])]
        raise CollinearityError(offending)

    coef = np.empty(p)
    coef[piv] = scipy.linalg.solve_triangular(r, qty[0], check_finite=False)
    return coef


@dataclass
class OptimizerResult:
    """Outcome of a Newton maximization.

    Attributes
    ----------
    params : (p,) array
        Final parameter values.
    loglik : float
        Objective value at ``params``.
    converged : bool
        True when the max-norm gradient met the tolerance and no fitted
        probability saturated the boundary. A flat gradient alone is not
        enough: with separated data the likelihood flattens while the
        parameters diverge, and that must not be reported as success.
    iterations : int
        Accepted ascent steps.
    grad_norm : float
        Max-norm of the gradient at ``params``.
    boundary_flag : bool
        True when some fitted probability is within ``BOUNDARY_EPS`` of
        0 or 1.
    """

    params: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    grad_norm: float
    boundary_flag: bool


def _ascent_direction(g, h):
    """Solve (-h + lam I) d = g for the first lam of 0, c, 10c, 100c, ... that factors.

    ``c`` is 1e-8 times the largest absolute diagonal entry of -h, at least
    1e-8; ``lam = 0`` gives the Newton step. None if ``h`` is not finite or
    no tried ``lam`` factors.
    """
    neg = np.negative(h)
    if np.all(np.isfinite(neg)):
        lam = 0.0
        for _ in range(40):
            damped = neg + lam * np.eye(g.size) if lam else neg
            try:
                return scipy.linalg.cho_solve(scipy.linalg.cho_factor(damped), g)
            except scipy.linalg.LinAlgError:
                c = 1e-8 * max(1.0, float(np.max(np.abs(np.diagonal(neg)))))
                lam = 10.0 * lam if lam else c
    return None


def maximize_loglik(objective, init, probabilities=None):
    """Maximize a twice-differentiable log-likelihood by damped Newton ascent.

    Parameters
    ----------
    objective : callable
        ``objective(params) -> (value, gradient, hessian)``.
    init : (p,) array
        Starting point.
    probabilities : callable, optional
        ``probabilities(params) -> array`` of fitted probabilities, probed
        at the final point to set ``boundary_flag``.

    Notes
    -----
    Each iteration solves the Newton system where the Hessian is negative
    definite and a Levenberg-Marquardt damped one, ``(-H + lam I) d = g``,
    where it is not (see :func:`_ascent_direction`); a non-finite Hessian
    ends the iterations. Step halving enforces a non-decreasing objective
    across accepted steps, up to a slack of a few units in the last place
    of the objective, so that full Newton steps are still taken once
    improvements fall below floating-point resolution. It stops at
    :data:`NEWTON_TOL` or after :data:`NEWTON_MAX_ITER` accepted steps. The
    routine is deterministic: equal inputs give bit-identical results.
    """
    x = np.asarray(init, dtype=float).copy()
    f, g, h = objective(x)
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the initial point")

    tol = NEWTON_TOL
    iterations = 0
    for _ in range(NEWTON_MAX_ITER):
        grad_norm = float(np.max(np.abs(g))) if g.size else 0.0
        if grad_norm <= tol:
            break
        direction = _ascent_direction(g, h)
        if direction is None:
            break

        slack = 64.0 * np.finfo(float).eps * (1.0 + abs(f))
        step = 1.0
        accepted = False
        for _ in range(60):
            x_new = x + step * direction
            f_new, g_new, h_new = objective(x_new)
            if np.isfinite(f_new) and f_new >= f - slack:
                x, f, g, h = x_new, f_new, g_new, h_new
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        iterations += 1

    grad_norm = float(np.max(np.abs(g))) if g.size else 0.0
    boundary = False
    if probabilities is not None:
        probs = np.asarray(probabilities(x), dtype=float)
        if probs.size:
            boundary = bool(
                np.any(probs <= BOUNDARY_EPS) or np.any(probs >= 1.0 - BOUNDARY_EPS)
            )
    converged = grad_norm <= tol and not boundary
    return OptimizerResult(
        params=x,
        loglik=float(f),
        converged=converged,
        iterations=iterations,
        grad_norm=grad_norm,
        boundary_flag=boundary,
    )


def check_gradient(objective, point, step=1e-6):
    """Largest relative disagreement between analytic and central-difference gradient.

    For coordinate j the finite-difference step is ``step * max(1, |x_j|)``
    and the relative error uses ``max(1, |analytic|, |numeric|)`` as scale.
    """
    point = np.asarray(point, dtype=float)
    out = objective(point)
    grad = np.asarray(out[1], dtype=float)
    worst = 0.0
    for j in range(point.size):
        h = step * max(1.0, abs(point[j]))
        plus = point.copy()
        plus[j] += h
        minus = point.copy()
        minus[j] -= h
        fd = (objective(plus)[0] - objective(minus)[0]) / (2.0 * h)
        scale = max(1.0, abs(grad[j]), abs(fd))
        worst = max(worst, abs(grad[j] - fd) / scale)
    return worst


def bernoulli_objective(design, response, weights=None):
    """Log-likelihood triple for a logistic regression.

    Returns a callable suitable for :func:`maximize_loglik` together with
    the probability probe for boundary detection. ``weights`` are integer
    frequency weights, one per row; without them every row counts once.
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)

    def objective(beta):
        t = design @ beta
        p = expit(t)
        with np.errstate(divide="ignore"):
            terms = np.where(response == 1, np.log(p), np.log1p(-p))
        resid = response - p
        w = p * (1.0 - p)
        if weights is None:
            ll = float(np.sum(terms))
        else:
            ll = float(weights @ terms)
            resid *= weights
            w *= weights
        grad = design.T @ resid
        hess = -(design.T * w) @ design
        return ll, grad, hess

    def probabilities(beta):
        return expit(design @ beta)

    return objective, probabilities


def fit_logistic(design, response, init=None, weights=None):
    """Maximum-likelihood logistic regression via :func:`maximize_loglik`.

    ``weights`` are integer frequency weights, one per row.
    """
    design = np.asarray(design, dtype=float)
    if init is None:
        init = np.zeros(design.shape[1])
    objective, probabilities = bernoulli_objective(design, response, weights)
    return maximize_loglik(objective, init, probabilities=probabilities)


def rng_stream(seed, *key):
    """Independent PCG64 generator for a (seed, key path) pair.

    ``rng_stream(seed)`` matches ``np.random.default_rng(seed)``. Supplying
    integer key components derives statistically independent child streams
    (SeedSequence spawn keys), e.g. ``rng_stream(seed, cell, replicate)``.
    Equal arguments always give an identical stream.
    """
    if key:
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    return np.random.default_rng(seed)
