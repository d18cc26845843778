"""The stochastic-monotonicity outcome stage against full-design references.

``fit_sm`` and ``sensitivity_sweep`` factor the fixed outcome columns once
and solve each share value by block elimination. These tests rebuild every
outcome design from its formula and fit it with ``numerics.fit_ols``, and
where ``fit_ols`` raises, each sweep row must carry its exact message.

The coefficient vectors must agree within 1e-10 relative (largest absolute
difference over the largest absolute coefficient) on designs whose
condition number kappa is at most 1e3, and within 1e-13 * kappa above.
Over 2160 fits of 120 ``gen_dataset`` draws (n=600-4400, both variants,
rho in {0, 0.3, 1}, with and without weights) the gap was at most 2.7e-12
for kappa < 1e3 and never above 1.1e-14 * kappa. Near-pure share columns
at rho = 1 give kappa up to 5e5, and there two solvers that are both
backward stable need not agree to 1e-10: ``scipy.linalg.lstsq`` differs
from ``fit_ols`` by up to 1e-9 on such designs, as this solver does.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sacekit.models as models
from sacekit.data import Dataset
from sacekit.errors import CollinearityError
from sacekit.identify import IdentificationWarning, stochastic_always_share
from sacekit.models import (
    SurvivalParamsSM,
    fit_sm,
    fit_survival_sm,
    sensitivity_sweep,
    survival_design,
)
from sacekit.numerics import fit_ols, rng_stream
from sacekit.simulate import SimulationSetting, gen_dataset

GRID = np.linspace(0.0, 1.0, 21)


def full_designs(data, survival, rho, assume_er, weights=None):
    """{block: (design, ys, weights, names, {share column: rows})} of fit_sm's fits."""
    v = survival_design(data.x, data.a)
    th1, th0 = survival.theta_treated(v), survival.theta_control(v)
    always = stochastic_always_share(th1, th0, rho)
    names = list(survival.column_names[:-1])
    out = {}
    if assume_er:
        for block, arm, th in (("treated_mix", 1, th1), ("control_mix", 0, th0)):
            m = data.survivor_mask(arm)
            share = always[m] / np.maximum(th[m], 1e-300)
            design = np.column_stack([np.ones(share.size), data.x[m], share])
            w = None if weights is None else weights[m]
            rows = np.arange(share.size)
            out[block] = (design, data.outcomes_at(m), w, [*names, "always_share"], {
                design.shape[1] - 1: rows})
        return out
    m = data.survivor_mask()
    z = data.z[m]
    s1 = z * (always[m] / np.maximum(th1[m], 1e-300))
    s0 = (1 - z) * (always[m] / np.maximum(th0[m], 1e-300))
    design = np.column_stack([np.ones(z.size), data.x[m], data.a[m], s1, z, s0])
    d = data.n_covariates
    tail = ["a", "z_x_treated_share", "z", "cz_x_control_share"]
    shares = {d + 2: z == 1, d + 4: z == 0}
    w = None if weights is None else weights[m]
    out["pooled_relaxed"] = (design, data.outcomes_at(m), w, [*names, *tail], shares)
    return out


def reference_fit(design, ys, w, names, shares):
    """fit_ols on ``design`` less its pure always-survivor share columns, zero-filled."""
    keep = [
        j for j in range(design.shape[1])
        if not (j in shares and np.ptp(design[shares[j], j]) < models.CONSTANT_EPS
                and abs(design[shares[j], j][0] - 1.0) < models.PURE_SHARE_TOL)
    ]
    coef = np.zeros(design.shape[1])
    coef[keep] = fit_ols(design[:, keep], ys, column_names=[names[j] for j in keep], weights=w)
    return coef, keep


def reference_message(data, survival, rho, assume_er):
    """The error text of fit_ols on the full designs at ``rho``, in fit order, or ""."""
    for args in full_designs(data, survival, rho, assume_er).values():
        try:
            reference_fit(*args)
        except CollinearityError as exc:
            return str(exc)
    return ""


def assert_matches_reference(data, weights=None):
    """Compare fit_sm's coefficients with the reference fits; the number of dropped shares."""
    survival = fit_survival_sm(data, weights=weights)
    dropped = 0
    for assume_er in (True, False):
        for rho in (0.0, 0.3, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IdentificationWarning)
                fit = fit_sm(data, rho, assume_er, survival=survival, weights=weights)
                refs = full_designs(data, survival, rho, assume_er, weights)
                for block, args in refs.items():
                    ref, keep = reference_fit(*args)
                    got = getattr(fit.outcome, block)
                    dropped += ref.size - len(keep)
                    gap = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
                    design, _, w = args[:3]
                    design = design[:, keep]
                    if w is not None:
                        design = design * np.sqrt(w)[:, None]
                    kappa = np.linalg.cond(design)
                    assert gap <= 1e-10 * max(1.0, kappa / 1e3), (block, rho, gap, kappa)
    return dropped


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(600, 4000),
    deltas=st.sampled_from([(0, 0), (1, 0), (1, 1)]),
    weighted=st.booleans(),
)
def test_fit_sm_matches_full_design_fit_ols(seed, n, deltas, weighted):
    data, _ = gen_dataset(SimulationSetting(n, *deltas, seed=seed))
    weights = None
    if weighted:
        weights = rng_stream(seed, 1).integers(1, 4, size=n).astype(float)
    assert_matches_reference(data, weights)


@pytest.mark.parametrize("weighted", [False, True])
def test_pure_share_drop_matches_full_design_fit_ols(weighted):
    # at rho = 1 this draw's control arm is a pure always-survivor sample,
    # so its share column is dropped and the block to solve is empty
    data, _ = gen_dataset(SimulationSetting(n=3000, delta1=1, delta2=1, seed=57))
    weights = rng_stream(57, 1).integers(1, 4, size=3000).astype(float) if weighted else None
    assert assert_matches_reference(data, weights) > 0


def _rank_deficient_data():
    """x2 constant at 1 among treated survivors: that arm's fixed block is rank deficient."""
    rng = rng_stream(1401)
    n = 1200
    z = rng.integers(0, 2, size=n)
    x1 = rng.normal(size=n)
    a = rng.integers(0, 2, size=n)
    s = (rng.uniform(size=n) < np.where(z == 1, 0.8, 0.6) - 0.1 * a).astype(int)
    x2 = np.where((z == 1) & (s == 1), 1.0, rng.integers(0, 2, size=n))
    y = np.where(s == 1, 1.0 + z + x1 + rng.normal(size=n), np.nan)
    return Dataset.from_arrays(z, np.column_stack([x1, x2]), a, s, y)


def _near_collinear_survival(data):
    """Control survival with a slope of 1e-7 on x1 only.

    At rho = 0 the treated-arm share is the control survival, so that share
    column is linear in x1 up to rounding: fit_ols finds the arm design
    rank deficient while the share screens still pass it as non-constant.
    """
    fitted = fit_survival_sm(data)
    flat = np.zeros_like(fitted.beta_control)
    flat[0], flat[1] = fitted.beta_control[0], 1e-7
    return SurvivalParamsSM(
        beta_treated=fitted.beta_treated,
        beta_control=flat,
        opt_treated=fitted.opt_treated,
        opt_control=fitted.opt_control,
        column_names=fitted.column_names,
    )


@pytest.mark.parametrize("case", ["rank_deficient_fixed", "near_collinear_share"])
@pytest.mark.parametrize("assume_er", [True, False])
def test_sweep_fallback_messages_equal_fit_ols(case, assume_er, monkeypatch):
    if case == "rank_deficient_fixed":
        data = _rank_deficient_data()
        survival = fit_survival_sm(data)
    else:
        data, _ = gen_dataset(SimulationSetting(3000, 1, 1, seed=1402))
        survival = _near_collinear_survival(data)
    fallbacks = []
    original = models.fit_ols

    def counted(*args, **kwargs):
        fallbacks.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(models, "fit_ols", counted)
    curve = sensitivity_sweep(data, GRID, assume_er, survival=survival)
    messages = [row.message for row in curve.rows]
    for row in curve.rows:
        expected = reference_message(data, survival, row.rho, assume_er)
        assert row.message == expected, row.rho
        assert np.isnan(row.effect) == bool(expected)
    if assume_er:
        # the treated arm fails at every point, or at rho = 0 alone
        failing = sum(bool(m) for m in messages)
        assert failing == (21 if case == "rank_deficient_fixed" else 1)
        assert len(fallbacks) >= failing  # each failing fit went to fit_ols
        assert all(m.startswith("design matrix is rank deficient") for m in messages if m)


def _n40(seed):
    data, _ = gen_dataset(SimulationSetting(40, 1, 1, seed=seed))
    return data, fit_survival_sm(data)


@pytest.mark.parametrize("seed", [907, 909])
def test_survivor_count_failure_is_decided_once(seed, monkeypatch):
    data, survival = _n40(seed)
    calls = []
    original = models.stochastic_always_share

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(models, "stochastic_always_share", counted)
    curve = sensitivity_sweep(data, GRID, True, survival=survival)
    assert calls == GRID.tolist()  # one coupling per point, failing ones included
    expected = "the control-arm outcome fit: 4 survivors, fewer than the 5 outcome coefficients"
    v = survival_design(data.x, data.a)
    th1, th0 = survival.theta_treated(v), survival.theta_control(v)
    for row in curve.rows:
        assert row.message == expected
        assert np.isnan(row.effect)
        assert row.harmed_mass == float(np.mean(th0 - original(th1, th0, row.rho)))


def test_zero_always_mass_is_reported_before_the_survivor_count():
    data, survival = _n40(907)
    dead = np.zeros_like(survival.beta_control)
    dead[0] = -800.0  # control survival, hence the always-survivor share, is 0
    survival = SurvivalParamsSM(
        beta_treated=survival.beta_treated,
        beta_control=dead,
        opt_treated=survival.opt_treated,
        opt_control=survival.opt_control,
        column_names=survival.column_names,
    )
    curve = sensitivity_sweep(data, GRID, True, survival=survival)
    assert {row.message for row in curve.rows} == {
        "fitted always-survivor mass is zero; the effect is undefined"
    }


@pytest.mark.parametrize("assume_er", [True, False])
def test_fit_sm_reports_the_variant_of_the_stage_it_is_given(assume_er):
    data, _ = gen_dataset(SimulationSetting(n=2000, delta1=1, seed=31))
    survival = fit_survival_sm(data)
    staged = fit_sm(
        data, 0.5, assume_er=not assume_er, _stage=models._SmStage(data, survival, assume_er)
    )
    alone = fit_sm(data, 0.5, assume_er=assume_er, survival=survival)
    assert staged.assume_er is assume_er
    assert staged.effect == alone.effect
