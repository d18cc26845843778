"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/repeat.py --workloads grid,fit --seeds 1-10
    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/baseline.json

For every workload and end-to-end metric it prints the median of the runs,
the first and third quartile (``statistics.quantiles(values, n=4)``), the
spread ``(q3 - q1) / median`` and the metric's bound from ``BENCHMARK.json``;
a spread of a third of the bound or more is flagged, except for ``setup_s``,
whose spread is not bounded. Runs go one after another, never in parallel.
``--out`` writes every run's values, the summaries and every run's
environment record, with the run's wall seconds, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(spec):
    if "-" in spec:
        lo, hi = (int(v) for v in spec.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in spec.split(",")]


def run_once(bench, workload, seed, trace):
    argv = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall_s = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = json.loads(lines[-2])["env"] if len(lines) > 1 else {}
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output")
    env["run_wall_s"] = wall_s
    return result, env


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--seeds", default="1-10", help="'lo-hi' or 'a,b,c'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write all values and summaries to this JSON file")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    report = {"run_seconds": bench["run_seconds"], "seeds": seeds, "trace": args.trace,
              "workloads": {}}
    flagged = 0
    for workload in names:
        values = {}
        envs = []
        for seed in seeds:
            result, env = run_once(bench, workload, seed, args.trace)
            envs.append(env)
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
        summary = {key: summarize(vals) for key, vals in values.items()}
        walls = [env["run_wall_s"] for env in envs]
        print(f"{workload:12s} run wall s: median {statistics.median(walls):.1f}  "
              f"max {max(walls):.1f}", flush=True)
        report["workloads"][workload] = {"envs": envs, "values": values, "summary": summary}
        for key, s in summary.items():
            bound = bounds.get(key)
            flag = ""
            if bound is not None and key != "setup_s" and s["spread"] is not None:
                if s["spread"] >= bound / 3:
                    flag = "  <-- spread >= bound/3"
                    flagged += 1
            if args.trace == 0 or bound is not None:
                print(f"{workload:12s} {key:14s} median {s['median']:.6g}  "
                      f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}  "
                      f"bound {bound}{flag}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
