"""One estimation path for every method, and invariance properties.

Every method runs through ``estimate_sace``: ``bootstrap`` and
``run_benchmark`` must report the same numbers as calling it directly. The
invariance tolerances were measured on seeded n=2000 data over 40 random
draws of seed, scale and shift: permuting rows moved no estimate by more
than 4e-15 relative, and an affine rescaling of the covariates moved
prop-er, prop-ni and naive by at most 8e-11. The cell routes see the
substitution levels only through their order, so an order-preserving
relabeling of the levels must leave them bit-identical.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sacekit.data import Dataset
from sacekit.errors import EstimationError
from sacekit.identify import (
    CellTable,
    IdentificationWarning,
    sace_monotone_exclusion,
    sace_no_interaction,
    sace_stochastic_monotone,
)
from sacekit.models import (
    ALL_METHODS,
    FAILURE_REASONS,
    METHODS,
    bootstrap,
    dgyz_estimator,
    estimate_sace,
    naive_estimator,
)
from sacekit.numerics import rng_stream
from sacekit.simulate import SimulationSetting, gen_dataset, run_benchmark

RHO = 0.5


def rho_for(method):
    return RHO if METHODS[method].needs_rho else None


def full_outcomes(data):
    """The outcome column at full length, NaN at truncated units."""
    y = np.full(len(data), np.nan)
    mask = data.survivor_mask()
    y[mask] = data.outcomes_at(mask)
    return y


@pytest.fixture(scope="module")
def data():
    return gen_dataset(SimulationSetting(n=800, delta1=1, delta2=1, seed=61))[0]


@pytest.mark.parametrize("method", ALL_METHODS)
def test_bootstrap_point_is_the_estimate(data, method):
    rho = rho_for(method)
    est = estimate_sace(data, method, rho=rho)
    boot = bootstrap(data, method, n_boot=4, seed=3, rho=rho)
    assert boot.point == est.point
    assert boot.converged == est.converged


def test_every_model_based_method_fits_its_outcomes_in_one_place(data, monkeypatch):
    import sacekit.models as models

    calls = []
    original = models._outcome_ols

    def spy(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(models, "_outcome_ols", spy)
    expected = {"prop-er": 2, "prop-ni": 1, "prop-sm": 2, "prop-sm-ni": 1, "naive": 1}
    for method, count in expected.items():
        calls.clear()
        estimate_sace(data, method, rho=rho_for(method))
        assert len(calls) == count, (method, calls)


def test_estimate_sace_runs_the_baselines(data):
    for method, fn in (("naive", naive_estimator), ("dgyz", dgyz_estimator)):
        est = estimate_sace(data, method)
        assert est.point == fn(data)
        assert est.converged and est.warnings == []


def test_bootstrap_rejects_rho_for_a_method_without_it(data):
    with pytest.raises(ValueError, match="does not apply"):
        bootstrap(data, "naive", n_boot=4, rho=0.5)
    with pytest.raises(ValueError, match="rho must lie"):
        bootstrap(data, "prop-sm-ni", n_boot=4, rho=float("nan"))


def test_benchmark_cells_average_the_direct_estimates():
    settings_, sizes, reps, seed = [(0, 0, False), (1, 1, True)], [150, 300], 3, 12
    report = run_benchmark(settings_, sizes, ALL_METHODS, reps=reps, seed=seed, rho=RHO)
    assert any(c.n_failed for c in report.cells)  # the reasons below are not vacuous
    cell_index = 0
    for d1, d2, er in settings_:
        for n in sizes:
            setting = SimulationSetting(n=n, delta1=d1, delta2=d2, er_violation=er)
            draws = [
                gen_dataset(setting, rng=rng_stream(seed, cell_index, r))[0]
                for r in range(reps)
            ]
            for method in ALL_METHODS:
                points = []
                failed = dict.fromkeys(FAILURE_REASONS, 0)
                for sample in draws:
                    try:
                        est = estimate_sace(sample, method, rho=rho_for(method))
                    except EstimationError:
                        failed["estimation_error"] += 1
                        continue
                    if not np.isfinite(est.point):
                        failed["non_finite"] += 1
                    elif not est.converged:
                        failed["not_converged"] += 1
                    else:
                        points.append(est.point)
                cell = report.cell(n, d1, d2, er, method)
                assert cell.n_ok == len(points)
                assert cell.n_failed == reps - len(points)
                assert cell.failed_by_reason == failed
                if points:
                    assert cell.mean_bias == float(np.mean(np.array(points)) - 1.0)
            cell_index += 1


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16))
def test_row_order_changes_no_estimate(seed):
    data = gen_dataset(SimulationSetting(n=2000, delta1=1, delta2=1, seed=seed))[0]
    shuffled = data.subset(rng_stream(seed, 1).permutation(len(data)))
    for method in ALL_METHODS:
        rho = rho_for(method)
        a = estimate_sace(data, method, rho=rho).point
        b = estimate_sace(shuffled, method, rho=rho).point
        assert abs(b - a) <= 1e-12 * abs(a), method


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    scale=st.lists(st.floats(0.25, 4.0), min_size=3, max_size=3),
    shift=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
)
def test_affine_covariates_change_no_estimate(seed, scale, shift):
    data = gen_dataset(SimulationSetting(n=2000, delta1=1, delta2=1, seed=seed))[0]
    moved = Dataset.from_arrays(
        data.z,
        data.x * np.array(scale) + np.array(shift),
        data.a,
        data.s,
        full_outcomes(data),
        covariate_names=data.covariate_names,
    )
    for method in ("prop-er", "prop-ni", "naive"):
        a = estimate_sace(data, method).point
        b = estimate_sace(moved, method).point
        assert abs(b - a) <= 1e-9 * abs(a), method


def test_identity_subset_is_the_dataset(data):
    assert data.subset(np.arange(len(data))) == data


def relabel_levels(table):
    """The table with every substitution level ``a`` recoded as ``5a + 3``."""
    return CellTable(
        {(xkey, 5 * a + 3): c for (xkey, a), c in table.cells.items()},
        mode=table.mode,
        covariate_names=table.covariate_names,
    )


def route_values(table, rho):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IdentificationWarning)
        return (
            sace_monotone_exclusion(table),
            sace_stochastic_monotone(table, rho),
            sace_no_interaction(table),
        )


@pytest.mark.parametrize("n_levels", [2, 3, 4])
def test_level_relabeling_changes_no_population_route(
    random_monotone_table, random_stochastic_table, n_levels
):
    for rep in range(6):
        rho = (0.0, 0.3, 1.0)[rep % 3]
        rng = rng_stream(120, n_levels, rep)
        for table, _ in (
            random_monotone_table(rng, n_levels=n_levels),
            random_stochastic_table(rng, rho, n_levels=n_levels),
        ):
            assert route_values(relabel_levels(table), rho) == route_values(table, rho)


def stratified_sample(seed, n_levels=4, n_groups=2, per_arm=80):
    """Exact stratum counts per (group, level, arm), noisy survivor outcomes.

    Treated survivors are always survivors (mean 2) and protected units
    (mean -1); control survivors are always survivors (mean 1). The counts
    keep every cell monotone and the levels' mixing weights apart.
    """
    rng = rng_stream(seed)
    z, x, a, s, y = [], [], [], [], []
    for g in range(n_groups):
        for lev in range(n_levels):
            n_always = int(per_arm * (0.2 + 0.15 * lev + 0.05 * g))
            n_alive = {0: n_always, 1: n_always + int(per_arm * 0.3)}
            for arm in (0, 1):
                unit = np.arange(per_arm)
                alive = unit < n_alive[arm]
                mean = np.where(unit < n_always, 1.0 + arm, -1.0)
                noise = rng.normal(scale=0.5, size=per_arm)
                z.append(np.full(per_arm, arm))
                x.append(np.full(per_arm, float(g)))
                a.append(np.full(per_arm, lev))
                s.append(alive.astype(int))
                y.append(np.where(alive, mean + noise, np.nan))
    return [np.concatenate(v) for v in (z, x, a, s, y)]


@pytest.mark.parametrize("seed", range(3))
def test_level_relabeling_changes_no_sample_route(seed):
    z, x, a, s, y = stratified_sample(seed)
    table = CellTable.from_dataset(Dataset.from_arrays(z, x, a, s, y))
    moved = CellTable.from_dataset(Dataset.from_arrays(z, x, 5 * a + 3, s, y))
    assert len(table.a_levels) == 4
    assert list(moved.cells) == list(relabel_levels(table).cells)
    for rho in (0.0, 0.3, 1.0):
        assert route_values(moved, rho) == route_values(table, rho)
