"""Tests for the synthetic process, baseline estimators and benchmark."""

import csv
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sacekit.data import Dataset
from sacekit.models import dgyz_estimator, estimate_sace, naive_estimator
from sacekit.numerics import rng_stream
from sacekit.simulate import (
    BenchCell,
    BenchReport,
    OracleTable,
    SimulationSetting,
    gen_dataset,
    run_benchmark,
    true_sace,
)


def test_setting_validation():
    with pytest.raises(ValueError):
        SimulationSetting(n=-1)
    with pytest.raises(ValueError):
        SimulationSetting(n=10, delta1=2)
    with pytest.raises(ValueError):
        SimulationSetting(n=10, delta2=-1)
    assert true_sace(SimulationSetting(n=10, delta1=1, delta2=1)) == 1.0


def test_covariate_and_assignment_marginals():
    data, _ = gen_dataset(SimulationSetting(n=100_000, delta1=0, delta2=0, seed=61))
    x = data.x
    assert_allclose(np.mean(x[:, 0] == 1.0), 0.5, atol=0.01)
    assert set(np.unique(x[:, 0])) == {-1.0, 1.0}
    assert_allclose(np.mean(x[:, 1]), 1.0, atol=0.02)
    assert_allclose(np.mean(x[:, 2]), -1.0, atol=0.02)
    assert_allclose(np.cov(x[:, 1], x[:, 2])[0, 1], 0.5, atol=0.02)
    # delta1 = 0: randomized assignment, independent of everything
    assert_allclose(np.mean(data.z), 0.5, atol=0.01)
    corr = np.corrcoef(data.z, data.a)[0, 1]
    assert abs(corr) < 0.02


def test_confounded_assignment_when_delta1_on():
    data, _ = gen_dataset(SimulationSetting(n=100_000, delta1=1, delta2=0, seed=62))
    corr = np.corrcoef(data.z, data.a)[0, 1]
    assert corr > 0.05


def test_oracle_always_survivor_contrast_is_one():
    for er in (False, True):
        data, oracle = gen_dataset(
            SimulationSetting(n=200_000, delta1=1, delta2=1, er_violation=er, seed=63)
        )
        ll = oracle.stratum == "LL"
        gap = np.mean(oracle.y_treated[ll]) - np.mean(oracle.y_control[ll])
        assert abs(gap - 1.0) < 0.02


def test_rowwise_consistency_with_oracle():
    data, oracle = gen_dataset(
        SimulationSetting(n=5000, delta1=1, delta2=1, er_violation=True, seed=64)
    )
    z, s = data.z, data.s
    assert np.array_equal(s, np.where(z == 1, oracle.s_treated, oracle.s_control))
    # no unit is harmed by treatment in this process
    assert set(np.unique(oracle.stratum)) <= {"LL", "LD", "DD"}
    assert np.all(oracle.s_treated >= oracle.s_control)
    # observed outcomes equal the realized-arm potential outcomes exactly
    y = np.full(len(data), np.nan)
    mask = data.survivor_mask()
    y[mask] = data.outcomes_at(mask)
    pot = np.where(z == 1, oracle.y_treated, oracle.y_control)
    assert_allclose(y[mask], pot[mask], rtol=0)
    # potential outcomes exist exactly for surviving arms
    assert np.array_equal(np.isnan(oracle.y_treated), oracle.s_treated == 0)
    assert np.array_equal(np.isnan(oracle.y_control), oracle.s_control == 0)


def test_same_seed_reproduces_bit_identical_draw():
    setting = SimulationSetting(n=1000, delta1=1, delta2=0, seed=65)
    d1, o1 = gen_dataset(setting)
    d2, o2 = gen_dataset(setting)
    assert d1 == d2
    assert np.array_equal(o1.stratum, o2.stratum)
    assert_allclose(o1.y_treated, o2.y_treated, rtol=0, equal_nan=True)
    d3, _ = gen_dataset(SimulationSetting(n=1000, delta1=1, delta2=0, seed=66))
    assert not (d3 == d1)


def test_empty_draw():
    data, oracle = gen_dataset(SimulationSetting(n=0, seed=67))
    assert len(data) == 0
    assert oracle.stratum.shape == (0,)


def test_oracle_table_roundtrip(tmp_path):
    _, oracle = gen_dataset(SimulationSetting(n=50, delta1=1, delta2=1, seed=68))
    p = tmp_path / "oracle.csv"
    oracle.save(p)
    with open(p, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["stratum", "s_treated", "s_control", "y_treated", "y_control"]
    assert [row[0] for row in rows] == oracle.stratum.tolist()
    assert [int(row[1]) for row in rows] == oracle.s_treated.tolist()
    # a potential outcome is empty in an arm without survival, else exact
    y_control = [float(row[4]) if row[4] else np.nan for row in rows]
    assert_allclose(y_control, oracle.y_control, rtol=0, equal_nan=True)


def test_oracle_file_bytes(tmp_path):
    oracle = OracleTable(
        stratum=np.array(["LL", "LD", "DD"]),
        s_treated=np.array([1, 1, 0]),
        s_control=np.array([1, 0, 0]),
        y_treated=np.array([0.1, -2.5, np.nan]),
        y_control=np.array([1e-17, np.nan, np.nan]),
    )
    p = tmp_path / "oracle.csv"
    oracle.save(p)
    assert p.read_bytes() == (
        b"stratum,s_treated,s_control,y_treated,y_control\r\n"
        b"LL,1,1,0.1,1e-17\r\nLD,1,0,-2.5,\r\nDD,0,0,,\r\n"
    )


def test_naive_estimator_exact_without_truncation():
    # no deaths and a purely additive arm effect: the survivor regression
    # is the right model and must return the effect exactly
    rng = rng_stream(69)
    n = 300
    z = rng.integers(0, 2, size=n)
    x = rng.normal(size=(n, 2))
    a = rng.integers(0, 2, size=n)
    y = 2.0 * z + x @ np.array([1.0, -1.0]) + 0.5 * a
    data = Dataset.from_arrays(z, x, a, np.ones(n, dtype=int), y)
    assert_allclose(naive_estimator(data), 2.0, atol=1e-10)


def test_naive_bias_under_truncation():
    # composition bias: protected units survive only under treatment and
    # their outcome mean sits 1 above the always-survivor mean
    reps, n = 80, 2000
    vals = {False: [], True: []}
    for er in (False, True):
        for r in range(reps):
            data, _ = gen_dataset(
                SimulationSetting(n=n, er_violation=er, seed=0),
                rng=rng_stream(70, int(er), r),
            )
            vals[er].append(naive_estimator(data))
    # frozen large-sample values of the survivor-regression projection
    assert abs(np.mean(vals[False]) - 1.0 - 0.367) < 0.02
    assert abs(np.mean(vals[True]) - 1.0 - 0.733) < 0.02


def test_dgyz_exact_on_exact_counts(exact_count_dataset):
    assert_allclose(dgyz_estimator(exact_count_dataset), 1.0, atol=1e-12)


def test_dgyz_unstable_under_covariate_shift():
    # covariate-dependent strata (delta2 = 1) break the covariate-free
    # mixture: the raw share ratios no longer identify the components
    vals = []
    for r in range(30):
        data, _ = gen_dataset(
            SimulationSetting(n=5000, delta1=1, delta2=0, seed=0),
            rng=rng_stream(71, r),
        )
        vals.append(dgyz_estimator(data))
    assert np.mean(vals) - 1.0 > 0.8


def test_dgyz_requires_binary_substitution_variable():
    rng = rng_stream(72)
    n = 100
    data = Dataset.from_arrays(
        rng.integers(0, 2, size=n),
        rng.normal(size=(n, 1)),
        rng.integers(0, 3, size=n),
        np.ones(n, dtype=int),
        rng.normal(size=n),
    )
    from sacekit.errors import EstimationError

    with pytest.raises(EstimationError, match="binary substitution"):
        dgyz_estimator(data)


def test_run_benchmark_shape_and_determinism():
    settings = [(0, 0, False), (1, 0, False)]
    sizes = [200, 400]
    methods = ("naive", "prop-ni")
    rep1 = run_benchmark(settings, sizes, methods, reps=2, seed=5)
    assert len(rep1.cells) == len(settings) * len(sizes) * len(methods)
    cell = rep1.cell(400, 1, 0, False, "naive")
    assert cell.n_ok + cell.n_failed == 2
    rep2 = run_benchmark(settings, sizes, methods, reps=2, seed=5)
    assert rep1.to_dict()["cells"] == rep2.to_dict()["cells"]
    with pytest.raises(KeyError):
        rep1.cell(999, 0, 0, False, "naive")


def _naive_points(setting, seed, cell, reps):
    """Naive estimates of replicates 0..reps-1 of grid cell ``cell``, drawn from their keys."""
    draws = (gen_dataset(setting, rng=rng_stream(seed, cell, r))[0] for r in range(reps))
    return np.array([estimate_sace(data, "naive").point for data in draws])


def test_benchmark_cell_summarizes_its_draws_with_the_ddof1_standard_error():
    est = _naive_points(SimulationSetting(300, 1, 0), 8, 0, 3)
    report = run_benchmark([(1, 0, False)], [300], ("naive",), reps=3, seed=8)
    cell = report.cell(300, 1, 0, False, "naive")
    assert cell.n_ok == 3
    assert cell.mean_bias == pytest.approx(np.mean(est) - 1.0, rel=1e-12, abs=0)
    assert cell.mc_se == pytest.approx(np.std(est, ddof=1) / np.sqrt(3), rel=1e-12, abs=0)


def test_grid_cells_are_keyed_by_their_loop_position():
    # replicate r of cell c draws from (seed, c, r), c counting (setting,
    # size) pairs with sizes fastest: appending replicates or reordering
    # methods keeps every draw, adding a size re-keys the cells after it
    settings = [(0, 0, False), (0, 1, False)]
    base = run_benchmark(settings, [200], ("naive", "dgyz"), reps=3, seed=5)
    more = run_benchmark(settings, [200], ("dgyz", "naive"), reps=4, seed=5)
    grown = run_benchmark(settings, [200, 300], ("naive",), reps=3, seed=5)

    def bias(report, delta2):
        return report.cell(200, 0, delta2, False, "naive").mean_bias

    for report, reps, cell in ((base, 3, 1), (more, 4, 1), (grown, 3, 2)):
        est = _naive_points(SimulationSetting(200, 0, 1), 5, cell, reps)
        assert bias(report, 1) == pytest.approx(np.mean(est) - 1.0, rel=1e-12, abs=0)
    assert bias(grown, 0) == bias(base, 0)
    assert bias(grown, 1) != bias(base, 1)


def test_run_benchmark_validation():
    with pytest.raises(ValueError, match="reps"):
        run_benchmark([(0, 0, False)], [100], ("naive",), reps=0)
    with pytest.raises(ValueError, match="unknown method"):
        run_benchmark([(0, 0, False)], [100], ("magic",), reps=1)
    with pytest.raises(ValueError, match="requires rho"):
        run_benchmark([(0, 0, False)], [100], ("prop-sm",), reps=1)


def test_run_benchmark_checks_every_setting_before_drawing(monkeypatch):
    import sacekit.simulate as simulate

    draws = []
    real = simulate.gen_dataset
    monkeypatch.setattr(
        simulate, "gen_dataset", lambda *a, **k: draws.append(1) or real(*a, **k)
    )
    with pytest.raises(ValueError, match="delta1 and delta2 must be 0 or 1"):
        run_benchmark([(0, 0, False), (2, 0, False)], [300], ("prop-er",), reps=5)
    assert draws == []


def test_format_table_uses_times_hundred_convention():
    rep = run_benchmark([(0, 0, False)], [300], ("naive",), reps=3, seed=6)
    text = rep.format_table()
    assert "100 x bias" in text.splitlines()[0]
    cell = rep.cell(300, 0, 0, False, "naive")
    assert f"{100 * cell.mean_bias:.1f}" in text


def test_format_table_marks_failed_replicates():
    failed = dict.fromkeys(("estimation_error", "non_finite", "not_converged"), 0)
    cells = [
        BenchCell(200, 0, 0, False, "naive", 0, 3, float("nan"), float("nan"), failed),
        BenchCell(200, 0, 0, False, "prop-er", 2, 1, 0.0123, 0.0045, failed),
    ]
    report = BenchReport(cells, reps=3, seed=0, methods=("naive", "prop-er"))
    row = report.format_table().splitlines()[2]
    assert row.split() == ["0", "0", "n", "200", "all-failed[3f]", "1.2(0.45)[1f]"]


# gen_dataset's tracemalloc peak over what it returns (the dataset and the
# oracle arrays) at n=50000: each temporary is freed after its last use
# (1.21 measured; 2.47 with every temporary alive until the return)
GEN_PEAK_PER_RETURNED_BYTE = 1.5


@pytest.mark.parametrize("er_violation", [False, True])
def test_gen_dataset_peak_memory_is_bounded_by_its_output(er_violation):
    setting = SimulationSetting(n=50_000, delta1=1, delta2=1, er_violation=er_violation)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = gen_dataset(setting)
        returned, peak = (v - base for v in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(result[0]) == 50_000
    assert peak < GEN_PEAK_PER_RETURNED_BYTE * returned
