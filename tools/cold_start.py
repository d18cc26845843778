"""Cold start of the CLI commands: the parent's tree against the working tree.

Usage, from the root of a checkout::

    python3 tools/cold_start.py --parent HEAD [--rounds 11]

Two clean copies are made in a temporary directory, exactly as
``tools/bench_pairs.py`` makes them: the parent from ``git archive`` of
``--parent``, the change from the files of the working tree that git
tracks or would track. Each measurement is one fresh interpreter whose
``PYTHONPATH`` is the copy's ``src``, so it imports that copy where it
lies; it times, by ``time.perf_counter``, ``import sacekit, sacekit.cli``
and then the case's ``sacekit.cli.main(argv)``, with stdout discarded.
Interpreter start-up is not timed: it is the same for both trees. The
cases:

- ``import``: the import alone;
- ``simulate``: ``simulate --n 20000 --out FILE``;
- ``diagnose``: ``diagnose --validate`` on one ``simulate --n 20000``
  file, written once before the timing;
- ``sensitivity``: ``sensitivity --assume-er both`` on that file;
- ``fit``: ``fit --method prop-er`` on that file.

Each round runs every case once in each tree, one process after another,
the parent first in even rounds and the change first in odd ones. Printed
per case and tree: the median and quartiles of the seconds
(``statistics.quantiles(values, n=4)``), the median resident-set
high-water mark (``ru_maxrss``) at the end, and the scipy subpackages the
process had loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

from bench_pairs import export_parent, export_worktree, git, quartiles

N = "20000"

CHILD = r"""
import contextlib, io, json, resource, sys, time
argv = json.loads(sys.argv[1])
started = time.perf_counter()
import sacekit, sacekit.cli
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = sacekit.cli.main(argv)
    if code != 0:
        raise SystemExit(f"sacekit {argv[0]} exited {code}")
seconds = time.perf_counter() - started
print(json.dumps({
    "module": sacekit.__file__,
    "seconds": seconds,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "scipy": sorted(
        name for name, module in list(sys.modules.items())
        if name.count(".") == 1 and name.startswith("scipy.")
        and not name.split(".")[1].startswith("_") and hasattr(module, "__path__")
    ),
}))
"""


def run_case(tree, argv):
    """One fresh interpreter on ``tree``: its seconds, high-water mark and scipy subpackages."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv)],
        env=env, cwd=tree, capture_output=True, text=True, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    if not os.path.realpath(out["module"]).startswith(os.path.realpath(tree) + os.sep):
        raise SystemExit(f"imported {out['module']}, not the copy in {tree}")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--rounds", type=int, default=11, help="measurements per case and tree")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")

    parent_rev = git("rev-parse", args.parent).decode().strip()
    with tempfile.TemporaryDirectory(prefix="cold-start-") as tmp:
        trees = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        export_parent(parent_rev, trees["parent"])
        export_worktree(trees["change"])
        data = os.path.join(tmp, "data.csv")
        run_case(trees["change"], ["simulate", "--n", N, "--out", data])
        cases = {
            "import": [],
            "simulate": ["simulate", "--n", N, "--out", os.path.join(tmp, "sim.csv")],
            "diagnose": ["diagnose", "--data", data, "--validate"],
            "sensitivity": ["sensitivity", "--data", data, "--assume-er", "both",
                            "--out", os.path.join(tmp, "curve.csv")],
            "fit": ["fit", "--data", data, "--method", "prop-er"],
        }
        runs = {case: {side: [] for side in trees} for case in cases}
        for i in range(args.rounds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for case, case_argv in cases.items():
                for side in order:
                    runs[case][side].append(run_case(trees[side], case_argv))

    print(f"parent {parent_rev[:12]} against the working tree: n={N}, "
          f"{args.rounds} fresh processes per case and tree")
    print(f"{'case':12s} {'tree':7s} {'median s':>9s} {'q1 s':>7s} {'q3 s':>7s} "
          f"{'maxrss MB':>10s}  scipy loaded")
    for case, sides in runs.items():
        for side, outs in sides.items():
            median, q1, q3 = quartiles([o["seconds"] for o in outs])
            rss = statistics.median(o["maxrss_mb"] for o in outs)
            loaded = sorted({m for o in outs for m in o["scipy"]})
            print(f"{case:12s} {side:7s} {median:9.3f} {q1:7.3f} {q3:7.3f} {rss:10.1f}  "
                  f"{', '.join(loaded) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
