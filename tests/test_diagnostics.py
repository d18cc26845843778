"""Tests for the observable-implication screens."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chi2

from sacekit.data import Dataset
from sacekit.diagnostics import (
    J_LEVEL,
    RELEVANCE_FAIL_Q,
    _chi2_quantile,
    _mean_structure,
    check_monotone,
    check_relevance,
    quantile_binner,
    run_diagnostics,
)
from sacekit.identify import (
    CellStats,
    CellTable,
    gmm_overidentified,
    strata_probs_stochastic,
)
from sacekit.numerics import rng_stream
from sacekit.simulate import SimulationSetting, gen_dataset

from conftest import population_cell


def sample_cell(mass, p1, p0, n1, n0, m1=None, m0=None):
    return CellStats(
        mass=mass,
        p_surv_treated=p1,
        p_surv_control=p0,
        mean_treated=m1,
        mean_control=m0,
        n_treated=n1,
        n_control=n0,
        n_surv_treated=int(round(n1 * p1)),
        n_surv_control=int(round(n0 * p0)),
    )


def test_quantile_binner_splits_continuous_keeps_discrete():
    rng = rng_stream(81)
    x = np.column_stack([rng.normal(size=500), rng.integers(0, 2, size=500) * 2.0 - 1.0])
    transform = quantile_binner(x, bins=2)
    keys = transform(x)
    # first column: median split into exactly two nonempty bins
    assert set(keys[:, 0]) == {0, 1}
    counts = np.bincount(keys[:, 0])
    assert abs(counts[0] - counts[1]) <= 1
    # second column: the two levels stay distinct codes
    assert set(keys[:, 1]) == {0, 1}
    lo = x[:, 1] == -1.0
    assert len(set(keys[lo, 1])) == 1 and len(set(keys[~lo, 1])) == 1


@pytest.mark.parametrize("shape", [(500,), (500, 1, 2), ()])
def test_quantile_binner_takes_only_a_covariate_matrix(shape):
    x = np.zeros(shape)
    with pytest.raises(ValueError, match=r"x must be an \(n, d\) covariate matrix"):
        quantile_binner(x, bins=2)


def test_check_monotone_sample_pass_fail_and_noise():
    clear_fail = CellTable(
        {((), 0): sample_cell(400, 0.5, 0.8, 200, 200)}, mode="sample"
    )
    assert check_monotone(clear_fail)["status"] == "fail"
    clean = CellTable({((), 0): sample_cell(400, 0.8, 0.5, 200, 200)}, mode="sample")
    assert check_monotone(clean)["status"] == "pass"
    # a violation inside sampling noise is not flagged
    noisy = CellTable({((), 0): sample_cell(40, 0.50, 0.55, 20, 20)}, mode="sample")
    assert check_monotone(noisy)["status"] == "pass"
    # missing arm: nothing to compare
    vacuous = CellTable(
        {((), 0): CellStats(mass=10.0, p_surv_treated=0.5, n_treated=10)},
        mode="sample",
    )
    assert check_monotone(vacuous)["status"] == "vacuous"


def test_check_monotone_fails_a_violation_without_sampling_variance():
    # every treated unit died and every control unit survived
    table = CellTable({((), 0): sample_cell(20, 0.0, 1.0, 10, 10)}, mode="sample")
    out = check_monotone(table)
    assert out["status"] == "fail"
    assert out["cells"][0]["status"] == "fail" and out["cells"][0]["z"] == float("inf")


def test_check_relevance_population_examples():
    # identical survival ratios at every level: affirmatively constant
    flat = CellTable(
        {
            ((), 0): population_cell(0.5, 0.8, 0.4, 1.0, 1.0),
            ((), 1): population_cell(0.5, 0.6, 0.3, 1.0, 1.0),
        },
        mode="population",
    )
    out = check_relevance(flat)
    assert out["status"] == "fail"
    assert out["cells"][0]["ratio_spread"] <= 1e-12

    varying = CellTable(
        {
            ((), 0): population_cell(0.5, 0.8, 0.4, 1.0, 1.0),
            ((), 1): population_cell(0.5, 0.6, 0.45, 1.0, 1.0),
        },
        mode="population",
    )
    assert check_relevance(varying)["status"] == "pass"

    single = CellTable(
        {((), 0): population_cell(1.0, 0.8, 0.4, 1.0, 1.0)}, mode="population"
    )
    assert check_relevance(single)["status"] == "vacuous"


def test_check_relevance_passes_a_ratio_spread_below_the_guard_when_q_exceeds_the_floor():
    # 1.6e14 units per arm make a 2.5e-9 ratio spread, below the solver's
    # separation guard, significant enough to lift Q to 5e-4: above the
    # fail floor, so the ratios are not shown to be constant
    n = 1.6e14
    table = CellTable(
        {
            ((), 0): sample_cell(2 * n, 0.5, 0.25, n, n),
            ((), 1): sample_cell(2 * n, 0.5, 0.25 * (1 + 5e-9), n, n),
        },
        mode="sample",
    )
    out = check_relevance(table)
    cell = out["cells"][0]
    assert cell["ratio_spread"] == pytest.approx(2.5e-9, rel=1e-6)
    assert cell["q_stat"] == pytest.approx(5e-4, rel=1e-6)
    assert out["status"] == "pass"


def test_check_relevance_sample_near_tie_is_not_failure():
    # ratios differ by less than sampling noise: the q statistic lands at
    # the chi-square floor but the spread shows genuine variation, so the
    # screen must not call it a failure
    table = CellTable(
        {
            ((), 0): sample_cell(100, 0.8, 0.4, 50, 50),
            ((), 1): sample_cell(100, 0.8, 0.4008, 50, 50),
        },
        mode="sample",
    )
    out = check_relevance(table)
    cell = out["cells"][0]
    assert cell["q_stat"] <= RELEVANCE_FAIL_Q  # the near-tie is real
    assert out["status"] == "pass"


def test_relevance_false_positive_rate_is_controlled():
    # randomized scenario with a relevant substitution variable: over 200
    # replicates the screen may fail at most 5% of the time
    fails = 0
    for r in range(200):
        data, _ = gen_dataset(
            SimulationSetting(n=2000, delta1=0, delta2=0, seed=0),
            rng=rng_stream(83, r),
        )
        report = run_diagnostics(data, bins=2)
        if any(c["status"] == "fail" for c in report.constraints.values()):
            fails += 1
    assert fails <= 10


def test_mean_structure_j_test_consistent_population():
    # three levels, means exactly on a two-component mixture: j is zero
    mu1, mu2 = 2.0, -1.0
    cells = {}
    weights = [0.2, 0.5, 0.8]
    p1 = 0.8
    for a, w in enumerate(weights):
        m = w * mu1 + (1 - w) * mu2
        cells[((), a)] = population_cell(1.0 / 3.0, p1, w * p1, m, 0.0)
    table = CellTable(cells, mode="population")
    report_cells = _mean_structure(table, "treated", 0.99)
    assert report_cells["status"] == "pass"
    assert report_cells["cells"][0]["j_stat"] < 1e-18


def test_a_level_with_treated_survivors_and_no_treated_mean_is_not_used():
    # three levels on an exact mixture; level 2 survives but reports no mean
    cells = {
        ((), a): population_cell(1.0 / 3.0, 0.8, w * 0.8, 3.0 * w - 1.0, 0.0)
        for a, w in enumerate((0.2, 0.5, 0.8))
    }
    assert _mean_structure(CellTable(cells, mode="population"), "treated")["cells"][0][
        "levels"
    ] == 3
    cells[((), 2)] = population_cell(1.0 / 3.0, 0.8, 0.64, None, 0.0)
    out = _mean_structure(CellTable(cells, mode="population"), "treated")
    assert out["cells"] == [{"x": [], "status": "vacuous", "levels": 2}]


def test_mean_structure_cells_pin_every_group_outcome():
    # three levels, three covariate groups: x=0 is scored; x=1 has no
    # treated survivors at level 2, so two usable levels; x=2 has equal
    # control and treated survival everywhere, so constant mixing weights
    p0s, means = (0.2, 0.4, 0.6), (1.0, 1.5, 1.7)
    cells = {}
    for a, (p0, m1) in enumerate(zip(p0s, means)):
        cells[((0.0,), a)] = sample_cell(200, 0.8, p0, 100, 100, m1, 0.5)
        if a < 2:
            cells[((1.0,), a)] = sample_cell(200, 0.8, p0, 100, 100, m1, 0.5)
        else:
            cells[((1.0,), a)] = sample_cell(200, 0.0, p0, 100, 100, None, 0.5)
        cells[((2.0,), a)] = sample_cell(200, 0.5, 0.5, 100, 100, m1, 0.5)
    out = _mean_structure(CellTable(cells, mode="sample"), "treated")
    _, _, j_stat, df = gmm_overidentified(means, [p0 / 0.8 for p0 in p0s], [80, 80, 80])
    expected = [
        {
            "x": [0.0],
            "levels": 3,
            "j_stat": j_stat,
            "df": 1,
            "critical": float(chi2.ppf(J_LEVEL, 1)),
            "status": "pass",
        },
        {"x": [1.0], "status": "vacuous", "levels": 2},
        {"x": [2.0], "status": "vacuous", "levels": 3, "note": "constant mixing weights"},
    ]
    assert out == {"status": "pass", "cells": expected}
    assert [list(c) for c in out["cells"]] == [list(c) for c in expected]


def two_group_table():
    """Three levels; group x=0 uses all three, x=1 lacks a control mean at level 2."""
    p1s, p0s = (0.8, 0.7, 0.9), (0.2, 0.45, 0.6)
    m1s, m0s = (1.0, 1.5, 1.7), (0.5, 0.9, 0.4)
    cells = {}
    for a, (p1, p0, m1, m0) in enumerate(zip(p1s, p0s, m1s, m0s)):
        cells[((0.0,), a)] = sample_cell(200, p1, p0, 100, 120, m1, m0)
        cells[((1.0,), a)] = sample_cell(200, p1, p0, 100, 120, m1, m0 if a < 2 else None)
    return CellTable(cells, mode="sample")


@pytest.mark.parametrize("which", ["control", "contrast"])
def test_control_and_contrast_cells_match_a_hand_gmm(which):
    rho = 0.3
    table = two_group_table()
    entries = []
    for a in (0, 1, 2):
        c = table.cells[((0.0,), a)]
        p1, p0 = c.p_surv_treated, c.p_surv_control
        if which == "control":
            always = strata_probs_stochastic(p1, p0, rho)[0]
            entries.append((c.mean_control, always / p0, c.n_surv_control))
        else:
            # the harmonic count of the two arms' survivors
            count = 1.0 / (1.0 / c.n_surv_treated + 1.0 / c.n_surv_control)
            entries.append((c.mean_treated - c.mean_control, p0 / p1, count))
    _, _, j_stat, df = gmm_overidentified(*zip(*entries))
    critical = float(chi2.ppf(J_LEVEL, df))
    expected = [
        {
            "x": [0.0],
            "levels": 3,
            "j_stat": j_stat,
            "df": 1,
            "critical": critical,
            "status": "fail" if j_stat > critical else "pass",
        },
        {"x": [1.0], "status": "vacuous", "levels": 2},
    ]
    cells = _mean_structure(table, which, rho)["cells"]
    assert cells == expected
    assert [list(c) for c in cells] == [list(c) for c in expected]


def test_control_and_contrast_screens_note_what_they_did_not_test():
    # the status of these returns is left unpinned: they tested nothing
    table = two_group_table()
    out = _mean_structure(table, "control")
    assert out["cells"] == []
    assert out["note"] == (
        "vacuous without a sensitivity level: the control-arm mixing weights need rho"
    )
    # without group x=0, no group has three usable levels
    only_x1 = CellTable(
        {key: c for key, c in table.cells.items() if key[0] == (1.0,)}, mode="sample"
    )
    for which in ("control", "contrast"):
        out = _mean_structure(only_x1, which, 0.3)
        assert out["cells"] == [{"x": [1.0], "status": "vacuous", "levels": 2}]
        assert out["note"] == "no covariate group offered 3+ usable levels; nothing to test"


@pytest.mark.parametrize("level", [0.95, J_LEVEL])
def test_chi2_quantile_equals_scipy_stats_exactly(level):
    df = np.arange(1, 201)
    assert np.array_equal(_chi2_quantile(level, df), chi2.ppf(level, df))


def test_relevance_cells_pin_scored_and_vacuous_groups():
    # x=0 has two usable levels; x=1 has no control survivors at level 1
    table = CellTable(
        {
            ((0.0,), 0): sample_cell(200, 0.8, 0.4, 100, 100),
            ((0.0,), 1): sample_cell(200, 0.8, 0.6, 100, 100),
            ((1.0,), 0): sample_cell(200, 0.8, 0.4, 100, 100),
            ((1.0,), 1): sample_cell(200, 0.8, 0.0, 100, 100),
        },
        mode="sample",
    )
    out = check_relevance(table)
    scored, single = out["cells"]
    assert list(scored) == ["x", "levels", "q_stat", "df", "chi2_95", "ratio_spread", "status"]
    var = [0.2 / 80 + 0.6 / 40, 0.2 / 80 + 0.4 / 60]
    logs = np.log([0.5, 0.75])
    center = np.average(logs, weights=1 / np.array(var))
    assert_allclose(scored["q_stat"], np.sum((logs - center) ** 2 / var), rtol=1e-12)
    assert_allclose(scored["ratio_spread"], 0.25, rtol=1e-12)
    assert (scored["x"], scored["levels"], scored["df"], scored["status"]) == ([0.0], 2, 1, "pass")
    assert scored["chi2_95"] == float(chi2.ppf(0.95, 1))
    assert single == {"x": [1.0], "status": "vacuous", "levels": 1}
    assert list(single) == ["x", "status", "levels"]
    assert out["status"] == "pass"


def test_mean_structure_j_test_detects_injected_misfit():
    # one level's treated mean shifted by 0.5 off the mixture line; with
    # cells of ten thousand units the screen must reject nearly always
    rng_master = 84
    mu1, mu2 = 2.0, -1.0
    weights = np.array([0.2, 0.5, 0.8])
    p1 = 0.8
    n_per = 10_000 // (3 * 2)
    fails = 0
    reps = 200
    for r in range(reps):
        rng = rng_stream(rng_master, r)
        cells = {}
        for a, w in enumerate(weights):
            truth = w * mu1 + (1 - w) * mu2 + (0.5 if a == 1 else 0.0)
            n1 = n_per
            k1 = rng.binomial(n1, p1)
            k1 = max(k1, 2)
            mean = truth + rng.normal() / np.sqrt(k1)
            cells[((), a)] = CellStats(
                mass=float(2 * n_per),
                p_surv_treated=k1 / n1,
                p_surv_control=(k1 / n1) * w,
                mean_treated=float(mean),
                mean_control=0.0,
                n_treated=n1,
                n_control=n_per,
                n_surv_treated=int(k1),
                n_surv_control=int(round(n_per * p1 * w)),
            )
        table = CellTable(cells, mode="sample")
        out = _mean_structure(table, "treated", 0.99)
        if out["status"] == "fail":
            fails += 1
    assert fails >= 0.95 * reps


def test_run_diagnostics_reports_all_five_constraints():
    data, _ = gen_dataset(SimulationSetting(n=2000, delta1=1, delta2=1, seed=85))
    report = run_diagnostics(data, bins=2)
    assert set(report.constraints) == {
        "survival_monotonicity",
        "treated_mean_structure",
        "substitution_relevance",
        "control_mean_structure",
        "contrast_mean_structure",
    }
    # binary substitution variable: mean-structure screens are vacuous
    assert "vacuous" in report.constraints["treated_mean_structure"]["note"]
    assert report.constraints["control_mean_structure"]["status"] == "pass"
    text = report.format_text()
    assert "survival_monotonicity" in text
    assert text.splitlines()[-1].startswith("overall:")
    d = report.to_dict()
    assert d["n"] == 2000 and d["bins"] == 2 and isinstance(d["ok"], bool)


@pytest.mark.parametrize("bins", [0, -3, 2.0, True])
def test_bins_must_be_an_integer_of_one_or_more(bins):
    data, _ = gen_dataset(SimulationSetting(n=2000, seed=85))
    y = np.full(len(data), np.nan)
    y[data.s == 1] = data.outcomes_at(data.s == 1)
    bare = Dataset.from_arrays(data.z, np.empty((len(data), 0)), data.a, data.s, y)
    for each in (data, bare):  # checked with and without covariates
        with pytest.raises(ValueError, match="bins must be an integer of 1 or more"):
            run_diagnostics(each, bins=bins)
    with pytest.raises(ValueError, match="bins must be an integer of 1 or more"):
        quantile_binner(data.x, bins)


def test_run_diagnostics_checks_rho():
    data, _ = gen_dataset(SimulationSetting(n=500, seed=1))
    with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\]"):
        run_diagnostics(data, rho=1.5)


def test_run_diagnostics_single_level_note():
    rng = rng_stream(87)
    n = 200
    data = Dataset.from_arrays(
        rng.integers(0, 2, size=n),
        rng.normal(size=(n, 1)),
        np.zeros(n, dtype=int),
        np.ones(n, dtype=int),
        rng.normal(size=n),
    )
    report = run_diagnostics(data)
    assert any("single level" in note for note in report.notes)
