"""sacekit benchmark: one workload per run, end to end or traced per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid --seed 2024 --seconds 10 --trace 0

The package is imported from the checkout's ``src/`` directory; the run
fails (exit 2, no result) when it is missing. A run

1. sets up: imports sacekit, then builds the first operation's inputs from
   the seed three times; ``setup_s`` is the import time plus the median build;
2. runs one untimed warm-up operation and checks its output: invariants at
   every seed, and the committed golden outputs at the default seed;
3. runs operations on fresh inputs until ``--seconds`` have passed (at least
   three), operation ``k`` on the inputs of ``op_seed(seed, k)``; inputs are
   built and every output is checked off the clock, and operation 0 must
   repeat the warm-up's output exactly;
4. prints an environment record, then as its last line the result JSON.

With ``--trace 0`` the metrics are the end-to-end ones, timed with no
tracing installed. With ``--trace 1`` each operation's inputs run once
untraced and once traced; the traced runs give the per-layer metrics, and
the median of the paired differences is the tracing overhead. Spans are
written to ``.perfbench-out/`` at the end of a traced run.

BLAS thread settings are never changed here: the benchmark measures the
defaults a user gets, and records them.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from statistics import median

import tracing
from workloads import COMMANDS, WORKLOADS, CheckFailed, op_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
GOLDEN_PATH = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 2024
SETUP_SAMPLES = 3
# Every run times at least this many operations, however long they take.
MIN_OPS = 3
# Golden floats must agree to this; far below any printed acceptance digit,
# far above the rounding a re-ordered factorization introduces.
GOLDEN_REL_TOL = 1e-8
GOLDEN_ABS_TOL = 1e-10


class MissingPackage(Exception):
    pass


def import_sacekit():
    """Import sacekit from the checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "sacekit", "__init__.py")):
        raise MissingPackage(f"no sacekit package under {SRC}")
    sys.path.insert(0, SRC)
    import sacekit
    import sacekit.cli  # noqa: F401  (the analyst workloads call sacekit.cli.main)

    origin = os.path.dirname(os.path.abspath(sacekit.__file__))
    if origin != os.path.join(SRC, "sacekit"):
        raise MissingPackage(f"sacekit was imported from {origin}, not from {SRC}")
    return sacekit


def openblas_threads():
    """Runtime thread count of each loaded OpenBLAS copy, read through ctypes."""
    symbols = {
        "numpy": "scipy_openblas_get_num_threads64_",
        "scipy": "scipy_openblas_get_num_threads",
    }
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path) and path.endswith(".so"):
                    paths.add(path)
    except OSError:
        pass
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for owner, symbol in symbols.items():
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[owner] = {"library": os.path.basename(path), "threads": fn()}
    return found


def cpu_ticks():
    """(steal, total) clock ticks of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    values = [int(v) for v in fields[1:]]
    return values[7] if len(values) > 7 else 0, sum(values)


def steal_share(before, after):
    """Share of the machine's CPU time taken by the hypervisor in between."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def environment(sk, workload, seed, seconds, trace):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sacekit": sk.__version__,
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "openblas": openblas_threads(),
        "workload": workload.name,
        "seed": seed,
        "sizes": workload.sizes,
        "seconds": seconds,
        "trace": trace,
    }


def setup(workload, seed, tmp):
    """Import, then set up and build the first operation's inputs ``SETUP_SAMPLES`` times.

    Returns the module, the last state and inputs, and the set-up seconds of
    each sample: the one import time plus that sample's build time.
    """
    started = time.perf_counter()
    sk = import_sacekit()
    import_s = time.perf_counter() - started
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        state = workload.setup(sk, tmp)
        inp = workload.inputs(state, op_seed(seed, 0))
        samples.append(import_s + time.perf_counter() - started)
    return sk, state, inp, samples


def matches(got, want, where="output"):
    """Compare JSON-like values; floats within the golden tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            raise CheckFailed(f"{where}: keys {sorted(got)} != {sorted(want)}")
        for key in want:
            matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise CheckFailed(f"{where}: length differs")
        for i, (g, w) in enumerate(zip(got, want)):
            matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        same = (math.isnan(want) and math.isnan(got)) or math.isclose(
            got, want, rel_tol=GOLDEN_REL_TOL, abs_tol=GOLDEN_ABS_TOL
        )
        if not same:
            raise CheckFailed(f"{where}: {got!r} != golden {want!r}")
    elif got != want or type(got) is not type(want):
        raise CheckFailed(f"{where}: {got!r} != golden {want!r}")


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def canonical(out):
    return json.dumps(out, sort_keys=True)


def warm_up(workload, state, inp, seed):
    """One untimed operation on the first inputs, fully checked: its output."""
    warm = workload.collect(state, inp, workload.op(state, inp))
    workload.check(state, inp, warm)
    if seed == DEFAULT_SEED:
        golden = load_golden()
        matches(golden["seed"], DEFAULT_SEED, "golden.seed")
        matches(workload.summary(state, inp, warm), golden[workload.name], workload.name)
    return warm


class Record:
    """What one run measured: per-operation times, checked outputs and traces."""

    def __init__(self):
        self.seeds = []
        self.plain = []  # seconds of each untraced operation
        self.steps = []  # per-step seconds of each untraced operation, if it has steps
        self.traced = []  # seconds of each traced operation
        self.layer_ops = []  # (per-function stats, counters) of each traced operation
        self.spans = []
        self.ok = 0
        self.attempted = 0


def timed(workload, state, inp):
    # Start every operation from a collected heap, so garbage left by the
    # previous one is not collected on this one's clock.
    gc.collect()
    started = time.perf_counter()
    raw = workload.op(state, inp)
    return raw, time.perf_counter() - started


def measure(workload, state, first_inp, warm, seed, seconds, trace):
    """Run operations on fresh inputs until ``seconds`` have passed.

    Operation ``k`` uses the inputs of ``op_seed(seed, k)``; inputs are built
    and outputs checked off the clock. Operation 0 repeats the warm-up's
    inputs and must give identical output. With ``trace``, each operation's
    inputs run once untraced and once traced, and the two outputs must agree.
    """
    rec = Record()
    tracer = tracing.Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_OPS or time.perf_counter() < deadline:
        rec.seeds.append(op_seed(seed, k))
        inp = first_inp if k == 0 else workload.inputs(state, rec.seeds[-1])
        raw, elapsed = timed(workload, state, inp)
        rec.plain.append(elapsed)
        if hasattr(workload, "step_seconds"):
            rec.steps.append(workload.step_seconds(raw))
        out = workload.collect(state, inp, raw)
        workload.check(state, inp, out)
        if k == 0 and canonical(out) != canonical(warm):
            raise CheckFailed("the first operation's output differs from the warm-up's")
        ok, attempted = workload.counts(out)
        rec.ok += ok
        rec.attempted += attempted
        if trace:
            tracer.reset()
            with tracing.Patched(tracer):
                raw, elapsed = timed(workload, state, inp)
            rec.traced.append(elapsed)
            rec.layer_ops.append(
                (tracing.aggregate(tracer.spans, tracing.span_names()),
                 tracer.finished_counters())
            )
            rec.spans.append(tracer.spans)
            if canonical(workload.collect(state, inp, raw)) != canonical(out):
                raise CheckFailed("a traced operation's output differs from the untraced one's")
        k += 1
    return rec


def step_medians(rec):
    """Median seconds of each step over the untraced operations."""
    if not rec.steps:
        return {}
    return {step: median(s[step] for s in rec.steps) for step in rec.steps[0]}


def end_to_end(workload, rec, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (workload.units / median(rec.plain), "ops/s"),
        "ok_ratio": (rec.ok / rec.attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload, rec):
    reached = {
        name for stats, _ in rec.layer_ops for name, entry in stats.items() if entry["calls"]
    }
    missed = [name for name in workload.required if name not in reached]
    if missed:
        raise CheckFailed("traced run recorded no call of: " + ", ".join(missed))
    metrics = {}
    for name in tracing.span_names():
        for field, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s")):
            metrics[f"{name}.{field}"] = (
                median([stats[name][field] for stats, _ in rec.layer_ops]),
                unit,
            )
    for key in tracing.COUNTERS:
        metrics[key] = (median([counters[key] for _, counters in rec.layer_ops]), "count")
    steps = step_medians(rec)
    for command in COMMANDS:
        metrics[f"cmd.{command}_s"] = (steps.get(command, 0.0), "s")
    overhead = median(t - p for t, p in zip(rec.traced, rec.plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / median(rec.plain), "fraction")
    return metrics


def write_spans(workload, seed, env, spans):
    path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "env": env,
                "fields": ["name", "start", "end", "parent"],
                "ops": spans,
            },
            fh,
        )
    return path


def result_line(correct, attempted, failed, metrics):
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run(args):
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    try:
        sk, state, inp, setups = setup(workload, args.seed, tmp)
        if args.write_golden:
            warm = workload.collect(state, inp, workload.op(state, inp))
            workload.check(state, inp, warm)
            golden = load_golden()
            golden["seed"] = args.seed
            golden[workload.name] = workload.summary(state, inp, warm)
            with open(GOLDEN_PATH, "w") as fh:
                json.dump(golden, fh, indent=1, sort_keys=True)
                fh.write("\n")
            return 0
        env = environment(sk, workload, args.seed, args.seconds, args.trace)
        warm = warm_up(workload, state, inp, args.seed)
        ticks = cpu_ticks()
        rec = measure(workload, state, inp, warm, args.seed, args.seconds, args.trace)
        env["cpu_steal_share"] = steal_share(ticks, cpu_ticks())
        if args.trace:
            metrics = per_layer(workload, rec)
            env["spans_file"] = os.path.relpath(
                write_spans(workload, args.seed, env, rec.spans), ROOT
            )
        else:
            metrics = end_to_end(workload, rec, median(setups))
        env.update(
            setup_samples_s=setups,
            warmup_ops=1,
            op_seeds=rec.seeds,
            untraced_op_s=rec.plain,
            untraced_step_s=rec.steps,
            traced_op_s=rec.traced,
        )
        attempted = 1 + len(rec.plain) + len(rec.traced)
        print(json.dumps({"env": env}))
        print(result_line(True, attempted, 0, metrics))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record this seed's checked outputs in golden.json and exit")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except MissingPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        print(result_line(False, 1, 1, {}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
