"""Outside-in tracing of sacekit's public functions.

The tracer wraps functions from the benchmark's side only: it replaces every
module-level binding of each traced function inside the ``sacekit`` package
(``sacekit.fit_ols``, ``sacekit.models.fit_ols``, ``sacekit.simulate.fit_ols``
and so on) and the class attributes of the traced methods, and restores the
originals on exit. Nothing in the package changes, and an untraced run never
touches these bindings.

Spans are kept in memory as ``(name, start, end, parent)`` tuples, with
``parent`` the index of the enclosing span or -1. A function's self time is
its busy time minus the part of its interval covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

# Layer -> traced public functions. ``errors`` does no work and is not traced;
# functions no workload reaches (``run_benchmark`` and the estimators only it
# calls) are left out, since their metrics would always read zero.
TARGETS = {
    "numerics": ("fit_ols", "maximize_loglik", "fit_logistic"),
    "data": (
        "load_dataset",
        "save_dataset",
        "validate",
        "Dataset.from_arrays",
        "Dataset.subset",
    ),
    "identify": ("CellTable.from_dataset",),
    "diagnostics": (
        "run_diagnostics",
        "quantile_binner",
        "check_monotone",
        "check_relevance",
    ),
    "models": (
        "fit_survival_er",
        "fit_survival_sm",
        "fit_outcome_er",
        "fit_sm",
        "estimate_sace",
        "bootstrap",
        "sensitivity_sweep",
    ),
    "simulate": ("gen_dataset",),
    "cli": ("main",),
}

# Counters recorded at the traced boundaries, all observable from outside.
COUNTERS = (
    "numerics.newton_iters",
    "numerics.objective_calls",
    "numerics.step_halvings",
    "numerics.nonconverged",
    "numerics.ols_rows",
    "data.rows_validated",
    "data.csv_rows_read",
    "data.csv_rows_written",
    "identify.cells",
    "identify.rows_tabulated",
    "models.bootstrap.failed",
    "models.sweep.failed_points",
)


def span_names():
    """Every traced function as ``<layer>.<function>``."""
    return [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns]


class Tracer:
    """In-memory span and counter store for one traced operation at a time."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.solves = 0
        self._stack = []

    def add(self, key, amount):
        self.counters[key] += amount

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def finished_counters(self):
        """Counters with the derived step-halving count filled in."""
        out = dict(self.counters)
        out["numerics.step_halvings"] = (
            out["numerics.objective_calls"] - self.solves - out["numerics.newton_iters"]
        )
        return out


def _covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def aggregate(spans, names):
    """Per-function ``calls``, ``busy_s`` and ``self_s`` from a span list.

    ``busy_s`` sums the spans of a function that have no enclosing span of
    the same function, so recursion is not counted twice. ``self_s`` sums,
    over every span of the function, its duration minus the union of its
    child spans' intervals clipped to it.
    """
    children = [[] for _ in spans]
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in names}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        covered = _covered(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[index]
        )
        entry["self_s"] += (end - start) - covered
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["busy_s"] += end - start
    return stats


def _count_rows(tracer, key):
    def after(args, kwargs, result):
        tracer.add(key, len(result))

    return after


def _hooks(tracer):
    """Post-call hooks that update the counters: name -> after(args, kwargs, result)."""

    def fit_ols(args, kwargs, result):
        design = args[0] if args else kwargs["design"]
        tracer.add("numerics.ols_rows", len(design))

    def maximize_loglik(args, kwargs, result):
        tracer.solves += 1
        tracer.add("numerics.newton_iters", int(result.iterations))
        tracer.add("numerics.nonconverged", int(not result.converged))

    def save_dataset(args, kwargs, result):
        data = args[0] if args else kwargs["data"]
        tracer.add("data.csv_rows_written", len(data))

    def from_dataset(args, kwargs, result):
        data = args[1] if len(args) > 1 else kwargs["data"]
        tracer.add("identify.cells", len(result.cells))
        tracer.add("identify.rows_tabulated", len(data))

    def bootstrap(args, kwargs, result):
        tracer.add("models.bootstrap.failed", int(result.n_failed))

    def sweep(args, kwargs, result):
        failed = sum(1 for row in result.rows if not math.isfinite(row.effect))
        tracer.add("models.sweep.failed_points", failed)

    return {
        "numerics.fit_ols": fit_ols,
        "numerics.maximize_loglik": maximize_loglik,
        "data.Dataset.from_arrays": _count_rows(tracer, "data.rows_validated"),
        "data.load_dataset": _count_rows(tracer, "data.csv_rows_read"),
        "data.save_dataset": save_dataset,
        "identify.CellTable.from_dataset": from_dataset,
        "models.bootstrap": bootstrap,
        "models.sensitivity_sweep": sweep,
    }


def _counting_objective(tracer, objective):
    @functools.wraps(objective)
    def counted(*args, **kwargs):
        tracer.add("numerics.objective_calls", 1)
        return objective(*args, **kwargs)

    return counted


def _wrap(tracer, name, fn, after):
    is_solver = name == "numerics.maximize_loglik"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if is_solver:
            if args:
                args = (_counting_objective(tracer, args[0]),) + args[1:]
            else:
                kwargs["objective"] = _counting_objective(tracer, kwargs["objective"])
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    return traced


class Patched:
    """Context manager that installs the tracer's wrappers and undoes them.

    Every module-level binding of a traced function in the package is
    replaced, so calls through re-exports and ``from ... import`` names are
    seen too. A binding held elsewhere (a dict, a closure) is not; the
    benchmark catches that by requiring a call of each function a workload
    must reach.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def __enter__(self):
        hooks = _hooks(self.tracer)
        homes = {layer: importlib.import_module(f"sacekit.{layer}") for layer in TARGETS}
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "sacekit" or key.startswith("sacekit."))
        ]
        try:
            for layer, fns in TARGETS.items():
                home = homes[layer]
                for fn_name in fns:
                    name = f"{layer}.{fn_name}"
                    after = hooks.get(name)
                    if "." in fn_name:
                        cls_name, meth = fn_name.split(".")
                        cls = getattr(home, cls_name)
                        raw = cls.__dict__[meth]
                        if isinstance(raw, classmethod):
                            new = classmethod(_wrap(self.tracer, name, raw.__func__, after))
                        else:
                            new = _wrap(self.tracer, name, raw, after)
                        self._undo.append((cls, meth, raw))
                        setattr(cls, meth, new)
                        continue
                    original = getattr(home, fn_name)
                    wrapper = _wrap(self.tracer, name, original, after)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._undo.append((mod, attr, value))
                                setattr(mod, attr, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []
        return False
