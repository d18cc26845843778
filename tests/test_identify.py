"""Tests for the cell-level identification routes.

The random-table tests compare each route against contrasts enumerated
directly from the strata that generated the table, so the check is exact
up to floating point rather than statistical.
"""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sacekit.data import Dataset
from sacekit.diagnostics import quantile_binner
from sacekit.errors import (
    DataError,
    EstimationError,
    MonotonicityError,
    RelevanceError,
)
from sacekit.identify import (
    CellStats,
    CellTable,
    IdentificationWarning,
    gmm_overidentified,
    sace_monotone_exclusion,
    sace_no_interaction,
    sace_stochastic_monotone,
    solve_two_point_mixture,
    stochastic_always_share,
    strata_probs_monotone,
    strata_probs_stochastic,
)
from sacekit.numerics import rng_stream

from conftest import population_cell


def test_strata_probs_monotone_values():
    always, protected, never = strata_probs_monotone(0.8, 0.6)
    assert_allclose([always, protected, never], [0.6, 0.2, 0.4 - 0.2])
    with pytest.raises(MonotonicityError):
        strata_probs_monotone(0.5, 0.6)
    with pytest.raises(ValueError):
        strata_probs_monotone(1.2, 0.5)


def test_strata_probs_stochastic_endpoints():
    p1, p0 = 0.8, 0.6
    always0 = strata_probs_stochastic(p1, p0, 0.0)[0]
    always1 = strata_probs_stochastic(p1, p0, 1.0)[0]
    assert_allclose(always0, p1 * p0, rtol=1e-14)
    assert_allclose(always1, min(p1, p0), rtol=1e-14)
    # valid probability vector at interior rho
    probs = strata_probs_stochastic(p1, p0, 0.37)
    assert_allclose(sum(probs), 1.0, rtol=1e-14)
    assert all(p >= 0 for p in probs)
    with pytest.raises(ValueError):
        strata_probs_stochastic(p1, p0, 1.5)
    # degenerate control survival
    assert strata_probs_stochastic(0.5, 0.0, 0.5)[0] == 0.0


def test_stochastic_share_matches_scalar_route():
    rng = rng_stream(50)
    th1 = rng.uniform(0.05, 0.95, size=40)
    th0 = rng.uniform(0.05, 0.95, size=40)
    for rho in (0.0, 0.25, 0.8, 1.0):
        vec = stochastic_always_share(th1, th0, rho)
        scalar = [strata_probs_stochastic(a, b, rho)[0] for a, b in zip(th1, th0)]
        assert vec.tolist() == scalar
    with pytest.raises(ValueError):
        stochastic_always_share(th1, th0, -0.1)


def test_strata_probs_stochastic_harmed_share_shrinks_with_rho():
    grid = np.linspace(0.0, 1.0, 21)
    for p1, p0 in [(0.8, 0.6), (0.4, 0.7), (0.55, 0.55)]:
        harmed = [strata_probs_stochastic(p1, p0, r)[2] for r in grid]
        assert np.all(np.diff(harmed) <= 1e-12)


def test_solve_two_point_mixture_exact():
    mu1, mu2 = 2.0, -1.0
    wa, wb = 0.75, 0.25
    ya = wa * mu1 + (1 - wa) * mu2
    yb = wb * mu1 + (1 - wb) * mu2
    got = solve_two_point_mixture(ya, yb, wa, wb)
    assert_allclose(got, (mu1, mu2), rtol=1e-14)
    with pytest.raises(RelevanceError):
        solve_two_point_mixture(1.0, 2.0, 0.5, 0.5)


def test_gmm_two_levels_matches_direct_solve():
    mu1, mu2, j, df = gmm_overidentified([1.5, 6.0 / 7.0], [0.75, 3.0 / 7.0], [10, 10])
    assert df == 0
    assert j == 0.0
    assert_allclose([mu1, mu2], [2.0, 0.0], atol=1e-12)


def test_gmm_three_levels_consistent_and_misfit():
    mu1, mu2 = 3.0, 1.0
    ws = np.array([0.2, 0.5, 0.9])
    ys = ws * mu1 + (1 - ws) * mu2
    got1, got2, j, df = gmm_overidentified(ys, ws, [50, 50, 50])
    assert df == 1
    assert j < 1e-20
    assert_allclose([got1, got2], [mu1, mu2], rtol=1e-12)

    ys_off = ys.copy()
    ys_off[1] += 0.5  # one level violates the common-components restriction
    _, _, j_off, _ = gmm_overidentified(ys_off, ws, [200, 200, 200])
    assert j_off > 10.0


@pytest.mark.parametrize("mode", ["population", "sample"])
def test_gmm_three_plus_levels_is_the_weighted_least_squares_fit(mode):
    # population masses sum to 1, so they must not be read as frequency
    # weights: fewer than two "rows" would be a rank deficiency there
    rng = rng_stream(96)
    for _ in range(50):
        k = int(rng.integers(3, 7))
        ws, ys = rng.uniform(0.05, 1.0, size=k), rng.normal(size=k)
        cs = rng.dirichlet(np.ones(k)) if mode == "population" else rng.integers(1, 500, size=k)
        sw = np.sqrt(cs)
        design = np.column_stack([ws, 1.0 - ws])
        want = np.linalg.lstsq(design * sw[:, None], ys * sw, rcond=None)[0]
        mu1, mu2, j, df = gmm_overidentified(ys, ws, cs)
        assert_allclose([mu1, mu2], want, rtol=1e-12, atol=1e-12)
        assert_allclose(j, np.sum(cs * (ys - design @ want) ** 2), rtol=1e-9)
        assert df == k - 2


def test_gmm_input_validation():
    with pytest.raises(ValueError):
        gmm_overidentified([1.0], [0.5], [10])
    with pytest.raises(ValueError):
        gmm_overidentified([1.0, 2.0], [0.2, 0.8], [10, 0])
    with pytest.raises(RelevanceError):
        gmm_overidentified([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], [10, 10, 10])


def test_hand_table_monotone_exclusion_exact(hand_table):
    assert_allclose(sace_monotone_exclusion(hand_table), 1.0, atol=1e-12)


def test_hand_table_stochastic_rho_one_matches_monotone(hand_table):
    got = sace_stochastic_monotone(hand_table, rho=1.0)
    assert_allclose(got, sace_monotone_exclusion(hand_table), atol=1e-12)


def test_hand_table_through_no_interaction_route(hand_table):
    # zero between-level shift in the control means: the additive model
    # nests the exclusion case, so the route must agree exactly
    assert_allclose(sace_no_interaction(hand_table), 1.0, atol=1e-12)


def test_shifted_table_needs_the_additive_route(hand_shifted_table):
    assert_allclose(sace_no_interaction(hand_shifted_table), 1.0, atol=1e-12)
    # ignoring the shift mixes the level effect into the components
    wrong = sace_monotone_exclusion(hand_shifted_table)
    assert abs(wrong - 1.0) > 0.01


def test_no_interaction_route_recovers_the_contrast_from_four_shifted_levels():
    # every outcome mean at level a moves by shifts[a], in both arms and
    # strata, so the contrast holds at every level and every level is usable
    for rep in range(10):
        rng = rng_stream(105, rep)
        masses = rng.dirichlet(np.full(8, 5.0))
        cells, num, den = {}, 0.0, 0.0
        for gx in range(2):
            mu1_always = rng.normal(scale=2.0)
            mu1_protected = mu1_always + rng.choice((-1, 1)) * rng.uniform(0.8, 3.0)
            mu0_always = rng.normal(scale=2.0)
            ratios = rng.permutation([0.2, 0.4, 0.6, 0.85])
            shifts = rng.normal(scale=1.5, size=4)
            for a in range(4):
                i = 4 * gx + a
                p1 = rng.uniform(0.55, 0.95)
                m1 = ratios[a] * mu1_always + (1 - ratios[a]) * mu1_protected + shifts[a]
                cells[((float(gx),), a)] = population_cell(
                    masses[i], p1, ratios[a] * p1, m1, mu0_always + shifts[a]
                )
                num += masses[i] * ratios[a] * p1 * (mu1_always - mu0_always)
                den += masses[i] * ratios[a] * p1
        table = CellTable(cells, mode="population", covariate_names=("g",))
        assert_allclose(sace_no_interaction(table), num / den, rtol=1e-10)


def shifted_levels_dataset(k, n, seed, codes):
    """``k``-level sample whose outcomes shift with the level, coded ``codes[level]``.

    The always-survivor share grows with the level, so every level is
    usable and the levels are well separated.
    """
    rng = rng_stream(seed)
    z = rng.integers(0, 2, size=n)
    x = rng.normal(size=(n, 1))
    level = rng.integers(0, k, size=n)
    always = 0.3 + 0.4 * level / (k - 1) + 0.1 * (x[:, 0] > 0)
    u = rng.uniform(size=n)
    stratum = np.where(u < always, 1, np.where(u < always + 0.3, 2, 0))
    s = (stratum == 1) | ((stratum == 2) & (z == 1))
    y = 1.0 + z + 2.0 * (stratum == 1) + 0.3 * level + 0.5 * x[:, 0] + rng.normal(size=n)
    y[~s] = np.nan
    return Dataset.from_arrays(z, x, np.asarray(codes)[level], s.astype(int), y)


@pytest.mark.parametrize("k, n, seed", [(3, 3000, 12), (4, 5000, 14)])
@pytest.mark.parametrize("binned", [False, True])
def test_relabeling_the_levels_changes_no_route(k, n, seed, binned):
    # the no-interaction reference level is the first code, so a relabeling
    # that moves it must leave the contrast unchanged too
    def table(codes):
        data = shifted_levels_dataset(k, n, seed, codes)
        if binned:
            return CellTable.from_dataset(data, x_transform=quantile_binner(data.x, 2))
        return CellTable.from_dataset(data, use_x=False)

    routes = {
        "exclusion": sace_monotone_exclusion,
        "no-interaction": sace_no_interaction,
        "stochastic": lambda t: sace_stochastic_monotone(t, 0.5),
    }
    levels = list(range(k))
    base = table(levels)
    for codes in (levels[::-1], levels[1:] + levels[:1]):
        relabeled = table(codes)
        for name, route in routes.items():
            assert_allclose(route(relabeled), route(base), rtol=1e-12, err_msg=name)


def test_random_monotone_tables_enumerated_truth(random_monotone_table):
    for rep in range(25):
        rng = rng_stream(101, rep)
        table, truth = random_monotone_table(rng)
        assert_allclose(sace_monotone_exclusion(table), truth, rtol=1e-9)
        # exclusion tables satisfy the additive model with zero shift
        assert_allclose(sace_no_interaction(table), truth, rtol=1e-9)
        # and the coupled route at full coupling must agree
        assert_allclose(sace_stochastic_monotone(table, 1.0), truth, rtol=1e-9)


def test_random_monotone_three_levels(random_monotone_table):
    for rep in range(10):
        rng = rng_stream(102, rep)
        table, truth = random_monotone_table(rng, n_levels=3)
        assert_allclose(sace_monotone_exclusion(table), truth, rtol=1e-9)


def test_random_stochastic_tables_enumerated_truth(random_stochastic_table):
    for rep in range(8):
        for rho in (0.0, 0.3, 0.7, 1.0):
            rng = rng_stream(103, rep, int(rho * 10))
            table, truth = random_stochastic_table(rng, rho)
            assert_allclose(sace_stochastic_monotone(table, rho), truth, rtol=1e-9)


def test_stochastic_route_wrong_rho_is_biased(random_stochastic_table):
    rng = rng_stream(104)
    table, truth = random_stochastic_table(rng, rho=0.0)
    right = sace_stochastic_monotone(table, 0.0)
    wrong = sace_stochastic_monotone(table, 1.0)
    assert_allclose(right, truth, rtol=1e-9)
    assert abs(wrong - truth) > 1e-3


def test_pure_cells_when_weights_all_one():
    # equal survival in both arms: treated survivors are pure always
    # survivors and no unmixing is needed or possible
    table = CellTable(
        {
            ((), 0): population_cell(0.5, 0.8, 0.8, 2.0, 1.0),
            ((), 1): population_cell(0.5, 0.8, 0.8, 2.0, 1.0),
        },
        mode="population",
    )
    assert_allclose(sace_monotone_exclusion(table), 1.0, atol=1e-12)
    assert_allclose(sace_no_interaction(table), 1.0, atol=1e-12)
    assert_allclose(sace_stochastic_monotone(table, 1.0), 1.0, atol=1e-12)


def test_monotone_route_flags_violating_cell():
    table = CellTable(
        {
            ((), 0): population_cell(0.5, 0.6, 0.7, 1.0, 1.0),
            ((), 1): population_cell(0.5, 0.8, 0.6, 1.5, 1.0),
        },
        mode="population",
    )
    with pytest.raises(MonotonicityError, match="a=0"):
        sace_monotone_exclusion(table)


def test_constant_mixing_weights_raise_relevance_error():
    # same survival pattern at both levels, strictly mixed cells
    table = CellTable(
        {
            ((), 0): population_cell(0.5, 0.8, 0.6, 1.5, 1.0),
            ((), 1): population_cell(0.5, 0.8, 0.6, 1.7, 1.0),
        },
        mode="population",
    )
    with pytest.raises(RelevanceError):
        sace_monotone_exclusion(table)
    with pytest.raises(RelevanceError):
        sace_no_interaction(table)


@pytest.mark.parametrize("levels", [2, 3])
def test_a_zero_mass_cell_is_refused_at_every_level_count(levels):
    # one mixture solve serves every group: a two-level group checks its
    # counts as a group of three or more does
    cells = {
        ((), 1): population_cell(1.0, 0.8, 0.6, 1.5, 1.0),
        ((), 0): population_cell(0.0, 0.7, 0.3, 6.0 / 7.0, 1.0),
    }
    if levels == 3:
        cells[((), 1)] = population_cell(0.5, 0.8, 0.6, 1.5, 1.0)
        cells[((), 2)] = population_cell(0.5, 0.9, 0.45, 1.75, 1.0)
    table = CellTable(cells, mode="population")
    with pytest.raises(ValueError, match="counts must be positive"):
        sace_monotone_exclusion(table)


def test_single_level_group_dropped_with_warning():
    # second covariate group observed at one level only: dropped, not fatal
    table = CellTable(
        {
            ((0.0,), 1): population_cell(0.4, 0.8, 0.6, 1.5, 1.0),
            ((0.0,), 0): population_cell(0.4, 0.7, 0.3, 6.0 / 7.0, 1.0),
            ((1.0,), 0): population_cell(0.2, 0.9, 0.5, 3.0, 1.0),
        },
        mode="population",
        covariate_names=("g",),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = sace_monotone_exclusion(table)
    messages = [str(w.message) for w in caught]
    assert any("fewer than two usable levels" in m for m in messages)
    assert any("cell dropped from the effect average" in m for m in messages)
    # the surviving group still identifies its own contrast exactly
    assert_allclose(got, 1.0, atol=1e-12)


def test_all_groups_unusable_is_an_error():
    table = CellTable(
        {((), 0): population_cell(1.0, 0.8, 0.6, 1.5, 1.0)},
        mode="population",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IdentificationWarning)
        with pytest.raises(EstimationError):
            sace_monotone_exclusion(table)


def test_cell_table_validation():
    with pytest.raises(ValueError):
        CellTable({}, mode="both")
    with pytest.raises(DataError, match="sum to"):
        CellTable(
            {((), 0): population_cell(0.4, 0.8, 0.6, 1.0, 1.0)}, mode="population"
        )
    # distinct dict keys that normalize to the same cell key
    with pytest.raises(DataError, match="duplicate"):
        CellTable(
            {
                ((0.0,), 0): population_cell(0.5, 0.8, 0.6, 1.0, 1.0),
                (("0",), 0): population_cell(0.5, 0.8, 0.6, 1.0, 1.0),
            },
            mode="population",
        )


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: CellTable.from_dataset(
                Dataset.from_arrays([], np.zeros((0, 1)), [], [], [])
            ),
            DataError,
            "cannot tabulate an empty dataset",
        ),
        (
            lambda: gmm_overidentified([1.0, 2.0, 3.0], [0.2, 0.5], [10, 10, 10]),
            ValueError,
            "means, mix_weights, counts must be equal-length vectors",
        ),
    ],
)
def test_identify_errors(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_from_dataset_counts(exact_count_dataset):
    table = CellTable.from_dataset(exact_count_dataset)
    assert table.mode == "sample"
    assert table.a_levels == [0, 1]
    c1 = table.cells[((), 1)]
    assert c1.mass == 140.0
    assert c1.n_treated == 70 and c1.n_control == 70
    assert_allclose(c1.p_surv_treated, 0.8)
    assert_allclose(c1.p_surv_control, 0.6)
    assert_allclose(c1.mean_treated, 1.5)
    assert_allclose(c1.mean_control, 1.0)


def reference_tabulation(data, use_x=True, x_transform=None):
    """Per-row grouping: the reference ``from_dataset`` must reproduce exactly."""
    z, s, a, x = data.z, data.s, data.a, data.x
    y = np.full(len(data), np.nan)
    y[data.survivor_mask()] = data.outcomes_at(data.survivor_mask())
    keys = x_transform(x) if x_transform is not None else x
    rows = {}
    for i in range(len(data)):
        xkey = tuple(keys[i]) if use_x else ()
        rows.setdefault((xkey, int(a[i])), []).append(i)
    cells = {}
    for key in sorted(rows):
        idx = np.array(rows[key])
        stats = {}
        for arm, tag in ((1, "treated"), (0, "control")):
            sel = idx[z[idx] == arm]
            stats[f"n_{tag}"] = len(sel)
            stats[f"p_surv_{tag}"] = float(np.mean(s[sel])) if len(sel) else None
            surv = sel[s[sel] == 1]
            stats[f"n_surv_{tag}"] = len(surv)
            stats[f"mean_{tag}"] = float(np.mean(y[surv])) if len(surv) else None
        cells[key] = CellStats(mass=float(len(idx)), **stats)
    return CellTable(cells, mode="sample", covariate_names=data.covariate_names if use_x else ())


def assert_same_table(got, want):
    assert list(got.cells) == list(want.cells)
    for key, stats in want.cells.items():
        assert got.cells[key] == stats
    # -0.0 and 0.0 compare equal; the cell key keeps the first row's sign
    signs = [np.signbit(k[0]).tolist() for k in got.cells]
    assert signs == [np.signbit(k[0]).tolist() for k in want.cells]
    assert got.covariate_names == want.covariate_names


def random_dataset(rng, n, x):
    s = rng.integers(0, 2, size=n)
    return Dataset.from_arrays(
        rng.integers(0, 2, size=n),
        x,
        rng.choice([0, 2, 5, 2**40], size=n),
        s,
        np.where(s == 1, rng.normal(size=n), np.nan),
    )


@pytest.mark.parametrize("seed", range(6))
def test_from_dataset_matches_per_row_tabulation(seed):
    rng = rng_stream(90, seed)
    n = int(rng.integers(1, 600))
    discrete = rng.choice([-0.0, 0.0, 1.5, -2.0], size=(n, 2))
    data = random_dataset(rng, n, np.column_stack([discrete, rng.normal(size=n)]))
    assert_same_table(
        CellTable.from_dataset(data, use_x=False),
        reference_tabulation(data, use_x=False),
    )
    binner = quantile_binner(data.x, bins=3)
    assert_same_table(
        CellTable.from_dataset(data, x_transform=binner),
        reference_tabulation(data, x_transform=binner),
    )
    raw = random_dataset(rng, n, discrete)
    assert_same_table(CellTable.from_dataset(raw), reference_tabulation(raw))
    assert sum(c.mass for c in CellTable.from_dataset(raw).cells.values()) == n


def test_from_dataset_raw_keys_past_int64_radix():
    # six continuous columns: the mixed-radix code must be re-ranked
    rng = rng_stream(91)
    data = random_dataset(rng, 2000, rng.normal(size=(2000, 6)))
    assert_same_table(CellTable.from_dataset(data), reference_tabulation(data))


def test_from_dataset_rejects_per_row_transforms():
    rng = rng_stream(92)
    data = random_dataset(rng, 50, rng.normal(size=(50, 2)))
    with pytest.raises(ValueError, match="x_transform"):
        CellTable.from_dataset(data, x_transform=lambda row: (row[0] > 0,))


def test_sample_mode_exact_on_exact_counts(exact_count_dataset):
    table = CellTable.from_dataset(exact_count_dataset)
    assert_allclose(sace_monotone_exclusion(table), 1.0, atol=1e-10)
    assert_allclose(sace_stochastic_monotone(table, 1.0), 1.0, atol=1e-10)
    assert_allclose(sace_no_interaction(table), 1.0, atol=1e-10)


def test_weak_separation_warns_in_sample_mode():
    cells = {
        ((), 0): CellStats(
            mass=100.0,
            p_surv_treated=0.80,
            p_surv_control=0.6,
            mean_treated=1.5,
            mean_control=1.0,
            n_treated=50,
            n_control=50,
            n_surv_treated=40,
            n_surv_control=30,
        ),
        ((), 1): CellStats(
            mass=100.0,
            p_surv_treated=0.801,
            p_surv_control=0.6,
            mean_treated=1.5,
            mean_control=1.0,
            n_treated=50,
            n_control=50,
            n_surv_treated=40,
            n_surv_control=30,
        ),
    }
    table = CellTable(cells, mode="sample")
    with pytest.warns(IdentificationWarning, match="weak"):
        sace_monotone_exclusion(table)


def sample_cell(p1, p0, m1, m0, per_arm=50):
    """A sample-mode cell with ``per_arm`` units in each arm."""
    return CellStats(
        mass=2.0 * per_arm,
        p_surv_treated=p1,
        p_surv_control=p0,
        mean_treated=m1,
        mean_control=m0,
        n_treated=per_arm,
        n_control=per_arm,
        n_surv_treated=round(p1 * per_arm),
        n_surv_control=round(p0 * per_arm),
    )


ROUTES = {
    "exclusion": sace_monotone_exclusion,
    "stochastic": lambda table: sace_stochastic_monotone(table, 1.0),
    "no-interaction": sace_no_interaction,
}


@pytest.mark.parametrize("route", ROUTES)
def test_route_warnings_point_at_the_calling_line(route):
    # group 0 is weakly separated; group 1 has one level without control
    # units, which leaves a single usable level
    table = CellTable(
        {
            ((0.0,), 0): sample_cell(0.80, 0.6, 1.5, 1.0),
            ((0.0,), 1): sample_cell(0.801, 0.6, 1.5, 1.0),
            ((1.0,), 0): sample_cell(0.8, 0.6, 1.5, 1.0),
            ((1.0,), 1): CellStats(
                mass=50.0,
                p_surv_treated=0.8,
                mean_treated=1.5,
                n_treated=50,
                n_surv_treated=40,
            ),
        },
        mode="sample",
        covariate_names=("g",),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ROUTES[route](table)
    messages = [str(w.message) for w in caught]
    for kind in (
        "is weak",
        "fewer than two usable levels",
        "incomplete outcome data",
        "survival unobserved",
    ):
        assert any(kind in m for m in messages), kind
    assert all(w.category is IdentificationWarning for w in caught)
    assert [w.filename for w in caught] == [__file__] * len(caught)


def test_every_route_drops_an_unsolvable_groups_cells_once():
    # group 1: nobody survives at level 1 (share 0), so level 0 alone
    # cannot be solved and is the one cell dropped
    table = CellTable(
        {
            ((0.0,), 1): sample_cell(0.8, 0.6, 1.5, 1.0),
            ((0.0,), 0): sample_cell(0.7, 0.3, 6.0 / 7.0, 1.0),
            ((1.0,), 0): sample_cell(0.8, 0.6, 1.5, 1.0),
            ((1.0,), 1): sample_cell(0.0, 0.0, None, None),
        },
        mode="sample",
        covariate_names=("g",),
    )
    for name, route in ROUTES.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = route(table)
        dropped = [
            str(w.message)
            for w in caught
            if "dropped from the effect average" in str(w.message)
        ]
        assert dropped == [
            "cell (x=1; a=0): incomplete outcome data, "
            "cell dropped from the effect average"
        ], name
        assert_allclose(got, 1.0, atol=1e-12)


@pytest.mark.parametrize("route", ROUTES)
def test_a_group_without_always_survivors_is_skipped(route):
    # group 1 has no control survivors at either level: every share is 0,
    # so it carries no weight and is skipped without a warning
    table = CellTable(
        {
            ((0.0,), 1): population_cell(0.4, 0.8, 0.6, 1.5, 1.0),
            ((0.0,), 0): population_cell(0.4, 0.7, 0.3, 6.0 / 7.0, 1.0),
            ((1.0,), 0): population_cell(0.1, 0.6, 0.0, 1.5, None),
            ((1.0,), 1): population_cell(0.1, 0.5, 0.0, 1.2, None),
        },
        mode="population",
        covariate_names=("g",),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ROUTES[route](table)
    assert_allclose(got, 1.0, atol=1e-12)


def test_stochastic_route_checks_rho_before_any_cell(hand_table):
    with pytest.raises(ValueError, match=r"^rho must lie in \[0, 1\], got 1.5$"):
        sace_stochastic_monotone(hand_table, 1.5)
    # no cell has survivors, so no cell would ever reach the share step
    dead = CellTable(
        {((), a): sample_cell(0.0, 0.0, None, None) for a in (0, 1)}, mode="sample"
    )
    with pytest.raises(ValueError, match=r"^rho must lie in \[0, 1\], got nan$"):
        sace_stochastic_monotone(dead, float("nan"))
    # its one group has no always survivors, so it is skipped without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimationError, match="no cell carries"):
            sace_stochastic_monotone(dead, 0.5)
