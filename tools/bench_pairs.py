"""Alternating parent/change benchmark pairs, written as one BENCH JSON file.

Usage, from the root of a checkout::

    python3 tools/bench_pairs.py --parent HEAD --seeds 1111-1120 --out BENCH_11.json

Two clean copies are made in a temporary directory: the parent from
``git archive`` of ``--parent``, the change from the files of the working
tree that git tracks or would track (``git ls-files -co --exclude-standard``),
so uncommitted work is measured and nothing that building or testing left
behind is. Pair ``i`` runs both copies at the ``i``-th seed, the parent
first in odd pairs and the change first in even ones, each workload in
turn. Every run is ``perfbench/repeat.py``'s ``run_once`` of that copy,
so it is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in the copy's own directory, and a run whose output is not
correct stops the script.

The file keeps every run's metrics and environment record (``sides``, in
the layout of ``perfbench/repeat.py --out``), the pairs themselves, and
per workload and end-to-end metric (``end_to_end``): both sides' median
and quartiles (``statistics.quantiles(values, n=4)``), the parent's spread
``(q3 - q1) / median``, how many pairs the change won, and the median of
the per-pair ratios change/parent. Runs go one after another, never in
parallel.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(spec):
    if "-" in spec:
        lo, hi = (int(v) for v in spec.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in spec.split(",")]


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True
    ).stdout


def export_parent(rev, dest):
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def export_worktree(dest):
    for name in git("ls-files", "-z", "-co", "--exclude-standard").decode().split("\0"):
        if name and os.path.isfile(os.path.join(ROOT, name)):
            os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
            shutil.copy2(os.path.join(ROOT, name), os.path.join(dest, name))


def load_repeat(checkout, tag):
    """The ``perfbench/repeat.py`` module of ``checkout``, loaded under its own name."""
    spec = importlib.util.spec_from_file_location(
        f"repeat_{tag}", os.path.join(checkout, "perfbench", "repeat.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def compare(parent, change, bound, better):
    """Paired summary of one metric: both sides' quartiles and the pair wins."""
    p_med, p_q1, p_q3 = quartiles(parent)
    c_med, c_q1, c_q3 = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    ratios = [c / p for p, c in zip(parent, change) if p]
    return {
        "bound": bound,
        "better": better,
        "pairs": len(parent),
        "parent_median": p_med,
        "parent_q1": p_q1,
        "parent_q3": p_q3,
        "parent_iqr": p_q3 - p_q1,
        "parent_spread": (p_q3 - p_q1) / p_med if p_med else None,
        "change_median": c_med,
        "change_q1": c_q1,
        "change_q3": c_q3,
        "change_wins": wins,
        "ties": ties,
        "relative_change": (c_med - p_med) / p_med if p_med else None,
        "pair_ratio_median": statistics.median(ratios) if ratios else None,
        "gain_exceeds_parent_iqr": sign * (c_med - p_med) > p_q3 - p_q1,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--seeds", default="1111-1120", help="'lo-hi' or 'a,b,c'")
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--seconds", type=float,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--what", default="", help="one line on what the change does")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.seconds is not None:
        bench["run_seconds"] = args.seconds
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    parent_rev = git("rev-parse", args.parent).decode().strip()

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        copies = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        export_parent(parent_rev, copies["parent"])
        export_worktree(copies["change"])
        repeat = {side: load_repeat(path, side) for side, path in copies.items()}

        sides = {side: {"workloads": {w: {"envs": [], "values": {}} for w in names}}
                 for side in copies}
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in names:
                pair = {"seed": seed, "workload": workload, "order": list(order)}
                for side in order:
                    result, env = repeat[side].run_once(bench, workload, seed, 0)
                    record = sides[side]["workloads"][workload]
                    record["envs"].append(env)
                    values = {k: m["value"] for k, m in result["metrics"].items()}
                    for key, value in values.items():
                        record["values"].setdefault(key, []).append(value)
                    pair[side] = values
                pairs.append(pair)
                print(f"{workload:10s} seed {seed}  ops_per_s parent "
                      f"{pair['parent']['ops_per_s']:.4g}  change "
                      f"{pair['change']['ops_per_s']:.4g}", flush=True)

    end_to_end = {}
    for workload in names:
        end_to_end[workload] = {}
        for side in sides.values():
            record = side["workloads"][workload]
            record["summary"] = {
                key: dict(zip(("median", "q1", "q3"), quartiles(vals)))
                for key, vals in record["values"].items()
            }
        for key, metric in metrics.items():
            parent = sides["parent"]["workloads"][workload]["values"][key]
            change = sides["change"]["workloads"][workload]["values"][key]
            end_to_end[workload][key] = compare(parent, change, metric.get("bound"),
                                                metric["better"])
    env = sides["parent"]["workloads"][names[0]]["envs"][0]
    report = {
        "what": args.what,
        "parent": parent_rev,
        "procedure": (
            f"{len(seeds)} alternating parent/change pairs per workload (tools/bench_pairs.py): "
            "parent from git archive, change from the working tree's files; the parent "
            "runs first in odd pairs; each run is perfbench/repeat.py's run_once "
            f"(python3 perfbench/run.py --workload W --seed S --seconds {bench['run_seconds']:g} "
            "--trace 0) in its own copy. Quartiles are statistics.quantiles(values, n=4); "
            "pair_ratio_median is the median over pairs of change/parent."
        ),
        "machine": {
            "cpu_count": env.get("cpu_count"),
            "python": env.get("python"),
            "numpy": env.get("numpy"),
            "scipy": env.get("scipy"),
            "openblas": env.get("openblas"),
            "OMP_NUM_THREADS": env.get("OMP_NUM_THREADS"),
            "OPENBLAS_NUM_THREADS": env.get("OPENBLAS_NUM_THREADS"),
        },
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "sizes": {w: sides["parent"]["workloads"][w]["envs"][0].get("sizes") for w in names},
        "trace": 0,
        "end_to_end": end_to_end,
        "pairs": pairs,
        "sides": sides,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload in names:
        for key, s in end_to_end[workload].items():
            print(f"{workload:10s} {key:12s} parent {s['parent_median']:.6g} "
                  f"[{s['parent_q1']:.6g}, {s['parent_q3']:.6g}]  change "
                  f"{s['change_median']:.6g}  wins {s['change_wins']}/{s['pairs']}  "
                  f"pair ratio {s['pair_ratio_median']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
