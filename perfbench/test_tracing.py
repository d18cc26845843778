"""Tests of the benchmark's tracer: self-time arithmetic and patching.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402


def span(name, start, end, parent):
    return [name, float(start), float(end), parent]


def test_self_time_on_hand_built_tree():
    spans = [
        span("A", 0, 10, -1),  # 0
        span("B", 1, 4, 0),  # 1
        span("C", 2, 3, 1),  # 2
        span("D", 5, 9, 0),  # 3
        span("B", 6, 8, 3),  # 4
        span("E", 20, 22, -1),  # 5: recursive E, inner span must not add busy time
        span("E", 20.5, 21.5, 5),  # 6
        span("F", 30, 40, -1),  # 7: overlapping children count once
        span("G", 31, 35, 7),  # 8
        span("H", 33, 37, 7),  # 9
    ]
    stats = tracing.aggregate(spans, ["A", "B", "Z"])
    expected = {
        "A": (1, 10.0, 3.0),
        "B": (2, 5.0, 4.0),
        "C": (1, 1.0, 1.0),
        "D": (1, 4.0, 2.0),
        "E": (2, 2.0, 2.0),
        "F": (1, 10.0, 4.0),
        "G": (1, 4.0, 4.0),
        "H": (1, 4.0, 4.0),
        "Z": (0, 0.0, 0.0),
    }
    for name, (calls, busy, own) in expected.items():
        assert stats[name]["calls"] == calls, name
        assert stats[name]["busy_s"] == pytest.approx(busy), name
        assert stats[name]["self_s"] == pytest.approx(own), name


def test_child_interval_is_clipped_to_parent():
    spans = [span("P", 0, 5, -1), span("Q", 4, 7, 0)]
    stats = tracing.aggregate(spans, [])
    assert stats["P"]["self_s"] == pytest.approx(4.0)


def test_patching_covers_every_binding_and_is_undone():
    import numpy as np

    import sacekit
    from sacekit import models, numerics, simulate

    original = numerics.fit_ols
    tracer = tracing.Tracer()
    design = np.column_stack([np.ones(6), np.arange(6.0)])
    response = np.arange(6.0) * 2.0 + 1.0
    with tracing.Patched(tracer):
        for binding in (sacekit.fit_ols, models.fit_ols, simulate.fit_ols, numerics.fit_ols):
            assert binding is not original
            binding(design, response)
    assert [s[0] for s in tracer.spans] == ["numerics.fit_ols"] * 4
    assert tracer.counters["numerics.ols_rows"] == 24
    for binding in (sacekit.fit_ols, models.fit_ols, simulate.fit_ols, numerics.fit_ols):
        assert binding is original


def test_newton_counters():
    import numpy as np

    from sacekit import numerics

    def objective(x):
        return -float(x @ x), -2.0 * x, -2.0 * np.eye(x.size)

    tracer = tracing.Tracer()
    with tracing.Patched(tracer):
        result = numerics.maximize_loglik(objective, np.array([3.0, -1.0]))
    counters = tracer.finished_counters()
    # One evaluation at the start, one per accepted full Newton step.
    assert counters["numerics.newton_iters"] == result.iterations == 1
    assert counters["numerics.objective_calls"] == 2
    assert counters["numerics.step_halvings"] == 0
    assert counters["numerics.nonconverged"] == 0
