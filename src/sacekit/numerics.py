"""Shared numerical kernels: link functions, least squares, Newton maximization.

Everything here is deterministic. Randomness enters the package only through
numpy Generator objects created by :func:`rng_stream`, which derives
independent PCG64 streams from a base seed and an integer key path, so any
replicate of any experiment can be reproduced in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollinearityError

# Fitted probabilities within this distance of 0 or 1 are treated as
# boundary-saturated: the likelihood is flat there although the parameters
# are still drifting, so such fits are reported as not converged.
BOUNDARY_EPS = 1e-6
# Newton ascent stops once the max-norm gradient is at most NEWTON_TOL, or
# after NEWTON_MAX_ITER accepted steps; both are read at call time.
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 100
# FixedBlockOLS solves by block elimination only when the smallest singular
# value of its triangular factor exceeds fit_ols' rank tolerance by this
# factor; nearer the tolerance the fit, and the rank decision, are left to
# fit_ols on the full design. The factor caps the condition number of a
# design solved this way at 1 / (RANK_MARGIN * max(n, p) * eps): 6e4 at
# n = 74000, 1e8 at n = 40. Beyond about 1e4 two backward-stable solvers
# may differ by more than 1e-10 relative; with a factor of 1e3 the sweeps of
# 1200 small gen_dataset draws (n = 40-400) moved 204 of 25200 effects from
# the fit_ols values by more than that (up to 1.4e-5), with 1e6 none by more
# than 3.1e-11.
RANK_MARGIN = 1e6


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


def _check_weights(weights, n):
    """Frequency ``weights`` as floats, or None: ValueError unless integers >= 1, one per row."""
    if weights is None:
        return None
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,) or not np.all(
        np.isfinite(weights) & (weights >= 1) & (weights == np.floor(weights))
    ):
        raise ValueError("weights must be integers of 1 or more, one per row")
    return weights


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
        On mismatched shapes, weights that are not integers of 1 or more,
        fewer rows (weighted) than columns, or a non-finite entry in
        ``design`` or ``response``.

    Notes
    -----
    The design is factored once, by LAPACK's column-pivoted QR, whose
    reflectors are applied to the response instead of forming Q. The same
    R serves the rank test and the triangular solve, whose solution is
    then un-pivoted. The routines are called directly, without
    scipy.linalg's per-call checks, so the finiteness check is made here.
    """
    from scipy.linalg import lapack

    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    if design.ndim != 2 or design.shape[0] != response.shape[0]:
        raise ValueError("design must be (n, p) with response of length n")
    n, p = design.shape
    weights = _check_weights(weights, n)
    # one Fortran-ordered copy, which LAPACK factors in place
    a = np.array(design, order="F")
    if weights is not None:
        root = np.sqrt(weights)
        a *= root[:, None]
        response = response * root
        n = int(np.sum(weights))
    if n < p:
        raise ValueError(f"need at least {p} rows to fit {p} coefficients, got {n}")
    if p == 0:
        return np.zeros(0)
    if not (np.all(np.isfinite(response)) and np.all(np.isfinite(a))):
        raise ValueError("array must not contain infs or NaNs")

    # the LAPACK calls of scipy.linalg.qr_multiply(design, response,
    # pivoting=True), workspace queries included, so the bits are its
    lwork = int(lapack.dgeqp3(a, lwork=-1, overwrite_a=1)[3][0])
    qr, piv, tau = lapack.dgeqp3(a, lwork=lwork, overwrite_a=1)[:3]
    piv -= 1
    # a wide (weighted) design has as many reflectors as rows
    reflectors, rhs = qr[:, : min(qr.shape)], response[:, None]
    lwork = int(lapack.dormqr("L", "T", reflectors, tau, rhs, lwork=-1)[1][0])
    qty = lapack.dormqr("L", "T", reflectors, tau, rhs, lwork=lwork)[0]
    diag = np.abs(np.diagonal(qr))
    rank = int(np.sum(diag > _rank_tol(diag[0], n, p)))
    if rank < p:
        if column_names is None:
            column_names = [f"column {j}" for j in range(p)]
        offending = [str(column_names[j]) for j in sorted(piv[rank:])]
        raise CollinearityError(offending)

    coef = np.empty(p)
    coef[piv] = _solve_upper(qr[:p], qty[:p, 0])
    return coef


def _solve_upper(r, b):
    """x with ``triu(r) @ x = b``, by LAPACK's ``dtrtrs``; ``r`` is square.

    Only the upper triangle of ``r`` is read. The system is solved as
    scipy.linalg.solve_triangular solves a C-ordered factor, transposed
    and lower triangular, so the bits are the same as its. ``r`` must
    clear the rank tolerance: singularity is not checked here.
    """
    from scipy.linalg import lapack

    return lapack.dtrtrs(r.T, b, lower=1, trans=1)[0]


def _rank_tol(scale, n, p):
    """The rank tolerance of :func:`fit_ols` for a factor of largest scale ``scale``."""
    return scale * max(n, p) * np.finfo(float).eps


def _clears_rank_tol(r, n):
    """True when the triangular factor ``r`` is full rank by a wide margin.

    Its smallest singular value must exceed :data:`RANK_MARGIN` times the
    :func:`fit_ols` tolerance taken at its largest one. A triangular
    factor's diagonal entries are no smaller than its smallest singular
    value and no larger than its largest, so a design whose factor clears
    this is full rank for :func:`fit_ols` too.
    """
    sv = np.linalg.svd(r, compute_uv=False)
    return bool(sv[-1] > RANK_MARGIN * _rank_tol(sv[0], n, r.shape[0]))


class FixedBlockOLS:
    """Least squares of one response on ``design[:, fixed + varying]``, F factored once.

    F = ``design[:, fixed]``, the fixed columns, is factored here by a thin
    QR, F = Q R, of its rows scaled by the square root of the integer
    frequency ``weights`` when they are given, as in :func:`fit_ols`.
    :meth:`solve` then fits ``[F | S]`` for the current values of a block S
    of k varying columns of the same design by block elimination (the
    Frisch-Waugh-Lovell partitioned regression): S is projected onto the
    orthogonal complement of F's columns twice, so that no orthogonality is
    lost, the n-by-k residual is factored, and the assembled triangular
    factor ``[[R, Q'S], [0, R_S]]`` is solved by back substitution. A call
    costs O(n q k) for q fixed columns instead of a factorization of the
    whole design. ``design`` is read, never written.
    """

    def __init__(self, design, fixed, response, weights=None):
        from scipy.linalg import lapack

        response = np.asarray(response, dtype=float)
        n, q = design.shape[0], len(fixed)
        weights = _check_weights(weights, n)
        self.n = n if weights is None else int(np.sum(weights))
        self.q = q
        self.root = None if weights is None else np.sqrt(weights)
        self.basis = None
        # one copy of F, factored in place
        f = np.asfortranarray(design[:, fixed], dtype=float)
        # fewer rows than columns leave F rank deficient whatever the
        # weights, so only a tall F is factored: scipy's wide branch is
        # never taken
        if min(n, self.n) < q or not (np.all(np.isfinite(f)) and np.all(np.isfinite(response))):
            return
        if self.root is not None:
            f *= self.root[:, None]
            response = response * self.root
        # the LAPACK calls of scipy.linalg.qr(f, mode="economic",
        # overwrite_a=True, check_finite=False), workspace queries included,
        # so the bits are its
        lwork = int(lapack.dgeqrf(f, lwork=-1, overwrite_a=1)[2][0])
        qr, tau = lapack.dgeqrf(f, lwork=lwork, overwrite_a=1)[:2]
        r = np.triu(qr[:q])
        lwork = int(lapack.dorgqr(qr, tau, lwork=-1, overwrite_a=1)[1][0])
        basis = lapack.dorgqr(qr, tau, lwork=lwork, overwrite_a=1)[0]
        if not _clears_rank_tol(r, self.n):
            return
        self.basis, self.r = basis, r
        self.qty = basis.T @ response
        self.resid = response - basis @ self.qty

    def solve(self, design, varying):
        """Coefficients of ``design[:, fixed + varying]``, or None when :func:`fit_ols` must fit it.

        None when F or the assembled factor does not clear the rank
        tolerance of :func:`fit_ols` by :data:`RANK_MARGIN`, when the
        varying columns are not finite, when there are fewer (weighted)
        rows than coefficients, or when F has fewer rows than columns;
        :func:`fit_ols` on the full design then gives the coefficients or
        raises its exact error.
        """
        from scipy.linalg import blas

        q, k = self.q, len(varying)
        if self.basis is None or self.n < q + k:
            return None
        if k == 0:
            return _solve_upper(self.r, self.qty)
        # S transposed, one contiguous row per column, so that both products
        # with the basis run over contiguous memory
        s = np.asarray(design).T[varying]
        if not np.all(np.isfinite(s)):
            return None
        if self.root is not None:
            s *= self.root
        r = np.zeros((q + k, q + k))
        r[:q, :q] = self.r
        # S's residual off F, then the Gram-Schmidt factor of that residual;
        # every projection is made twice, so that orthogonality is not lost
        for _ in range(2):
            c = s @ self.basis
            # s -= c @ basis.T in one BLAS call, in place (s.T is Fortran-ordered)
            s = blas.dgemm(
                -1.0, self.basis, c, 1.0, s.T, trans_b=True, overwrite_c=True
            ).T
            r[:q, q:] += c.T
        # the inner products of the k rows run as einsum, not as BLAS level-1
        # calls, whose thread start-up costs more than they compute here
        for j in range(k):
            row = s[j]
            for _ in range(2):
                for i in range(j):
                    c = np.einsum("i,i->", s[i], row)
                    row -= c * s[i]
                    r[q + i, q + j] += c
            r[q + j, q + j] = np.sqrt(np.einsum("i,i->", row, row))
            if r[q + j, q + j] == 0.0:
                return None
            row /= r[q + j, q + j]
        if not _clears_rank_tol(r, self.n):
            return None
        rhs = np.concatenate([self.qty, np.einsum("kn,n->k", s, self.resid)])
        return _solve_upper(r, rhs)


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
    no tried ``lam`` factors. The Cholesky factor and solve are LAPACK's
    ``dpotrf`` and ``dpotrs``, called as scipy.linalg's ``cho_factor`` and
    ``cho_solve`` call them, so the bits are theirs.
    """
    from scipy.linalg import lapack

    neg = np.negative(h)
    if not np.all(np.isfinite(neg)):
        return None
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient is not finite")
    lam = 0.0
    for _ in range(40):
        damped = neg + lam * np.eye(g.size) if lam else neg
        factor, info = lapack.dpotrf(damped, clean=0)
        if info == 0:
            return lapack.dpotrs(factor, g)[0]
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
    frequency weights, one per row (ValueError otherwise); without them
    every row counts once.
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    weights = _check_weights(weights, design.shape[0])

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
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
