"""Shared oracle builders.

Everything here is small enough to verify by hand. The hand tables fix
strata shares and outcome means so that the always-survivor contrast is
exactly 1; every observable cell moment then follows by direct mixing.
The random-table factories build discrete populations from explicit
strata and return the exact contrast alongside, so identification
routines can be tested against enumerated truth instead of simulation.
"""

import numpy as np
import pytest

from sacekit.data import Dataset
from sacekit.identify import CellStats, CellTable, strata_probs_stochastic
from sacekit.models import _joint_objective


def joint_objective(design, z, s, weights=None):
    """The joint survival objective of ``fit_survival_er`` on the rows of ``design``."""
    treated = np.flatnonzero(z == 1)
    lived = np.flatnonzero((z == 0) & (s == 1))
    dead = np.flatnonzero((z == 0) & (s != 1))
    return _joint_objective(design, treated, lived, dead, s[treated], weights)[0]


def population_cell(mass, p1, p0, m1, m0):
    return CellStats(
        mass=mass,
        p_surv_treated=p1,
        p_surv_control=p0,
        mean_treated=m1,
        mean_control=m0,
    )


@pytest.fixture
def hand_table():
    """Two-level table with strata (.6,.2,.2) at level 1 and (.3,.4,.3) at 0.

    Treated survivor means mix the always-survivor mean 2 with the
    protected mean 0 at weights 0.75 and 3/7; control survivors are pure
    always-survivors with mean 1. Contrast: exactly 1.
    """
    return CellTable(
        {
            ((), 1): population_cell(0.5, 0.8, 0.6, 1.5, 1.0),
            ((), 0): population_cell(0.5, 0.7, 0.3, 6.0 / 7.0, 1.0),
        },
        mode="population",
    )


@pytest.fixture
def hand_shifted_table():
    """Same strata, every outcome mean shifted by the substitution level.

    The shift breaks mean exclusion but keeps the treated-minus-control
    contrast constant across levels, the regime the shift-and-solve route
    is built for. Contrast: exactly 1.
    """
    return CellTable(
        {
            ((), 0): population_cell(0.5, 0.7, 0.3, 6.0 / 7.0, 1.0),
            ((), 1): population_cell(0.5, 0.8, 0.6, 2.5, 2.0),
        },
        mode="population",
    )


@pytest.fixture
def exact_count_dataset():
    """280 units whose cell frequencies equal the hand table probabilities.

    Outcomes sit exactly at the stratum means, so moment-based estimators
    recover the contrast with no sampling error at all.
    """
    z, a, s, y = [], [], [], []
    for zz in (0, 1):
        for aa in (0, 1):
            counts = (42, 14, 14) if aa == 1 else (21, 28, 21)
            for cnt, stratum in zip(counts, ("always", "protected", "never")):
                for _ in range(cnt):
                    z.append(zz)
                    a.append(aa)
                    alive = stratum != "never" if zz == 1 else stratum == "always"
                    s.append(int(alive))
                    if not alive:
                        y.append(np.nan)
                    elif zz == 0:
                        y.append(1.0)
                    else:
                        y.append(2.0 if stratum == "always" else 0.0)
    return Dataset.from_arrays(
        np.asarray(z), np.zeros((len(z), 0)), np.asarray(a), np.asarray(s), np.asarray(y)
    )


def _spaced_weights(rng, k, lo=0.2, hi=0.9, gap=0.1):
    """Draw k increasing mixing weights separated by at least ``gap``."""
    while True:
        w = np.sort(rng.uniform(lo, hi, size=k))
        if k == 1 or np.min(np.diff(w)) >= gap:
            return w


@pytest.fixture
def random_monotone_table():
    """Factory for monotone populations with exclusion holding.

    Returns ``(table, truth)``. Within each covariate group the
    always-share ratio differs across substitution levels by at least 0.1,
    keeping the mixture solve well conditioned.
    """

    def build(rng, n_groups=2, n_levels=2):
        cells = {}
        num = 0.0
        den = 0.0
        masses = rng.dirichlet(np.full(n_groups * n_levels, 5.0))
        i = 0
        for gx in range(n_groups):
            mu1_always = rng.normal(scale=2.0)
            mu1_protected = mu1_always + rng.choice((-1, 1)) * rng.uniform(0.8, 3.0)
            mu0_always = rng.normal(scale=2.0)
            ratios = _spaced_weights(rng, n_levels)
            for a in range(n_levels):
                p1 = rng.uniform(0.55, 0.95)
                p0 = ratios[a] * p1
                always, protected = p0, p1 - p0
                m1 = (always * mu1_always + protected * mu1_protected) / p1
                cells[((float(gx),), a)] = population_cell(
                    masses[i], p1, p0, m1, mu0_always
                )
                num += masses[i] * always * (mu1_always - mu0_always)
                den += masses[i] * always
                i += 1
        return CellTable(cells, mode="population", covariate_names=("g",)), num / den

    return build


@pytest.fixture
def random_stochastic_table():
    """Factory for populations under the partial-coupling survival model.

    Returns ``(table, truth)`` for a requested coupling level. Both arms
    are genuine mixtures here (the control arm includes harmed units), so
    the route has to unmix both.
    """

    def build(rng, rho, n_groups=2, n_levels=2):
        cells = {}
        num = 0.0
        den = 0.0
        masses = rng.dirichlet(np.full(n_groups * n_levels, 5.0))
        i = 0
        for gx in range(n_groups):
            mu1_always = rng.normal(scale=2.0)
            mu1_protected = mu1_always + rng.choice((-1, 1)) * rng.uniform(0.8, 3.0)
            mu0_always = rng.normal(scale=2.0)
            mu0_harmed = mu0_always + rng.choice((-1, 1)) * rng.uniform(0.8, 3.0)
            ratios = _spaced_weights(rng, n_levels)
            for a in range(n_levels):
                p1 = rng.uniform(0.55, 0.95)
                p0 = ratios[a] * p1
                always, protected, harmed, _ = strata_probs_stochastic(p1, p0, rho)
                m1 = (always * mu1_always + protected * mu1_protected) / p1
                m0 = (always * mu0_always + harmed * mu0_harmed) / p0
                cells[((float(gx),), a)] = population_cell(masses[i], p1, p0, m1, m0)
                num += masses[i] * always * (mu1_always - mu0_always)
                den += masses[i] * always
                i += 1
        return CellTable(cells, mode="population", covariate_names=("g",)), num / den

    return build
