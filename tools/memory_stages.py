"""Peak memory of the analysis stages, stage by stage and command by command.

Usage, from the root of a checkout::

    python3 tools/memory_stages.py [--n 100000] [--seed 2024]

Prints one JSON object with two parts.

``stages``: each stage of the analysis session run once as a library call
at ``--n`` rows, with the ``tracemalloc`` peak it adds above what was held
before it started (``peak_mb``) and what it leaves held (``kept_mb``). The
stages are ``gen_dataset``, ``save_dataset``, ``load_dataset``,
``validate``, ``run_diagnostics`` (bins 2), ``fit_survival_sm``, both
21-point ``sensitivity_sweep`` variants on that survival fit, and
``estimate_sace(prop-er)``; ``scipy.linalg`` and ``scipy.special``, which
sacekit imports on first use, are imported before the first stage, so no
stage is charged for them. ``file_mb`` and ``dataset_mb`` give the CSV
file and the arrays of the loaded ``Dataset``, and ``load_per_file_byte``
is the ``load_dataset`` peak over the file size.

``session``: a fresh interpreter imports ``sacekit.cli`` and runs the
analysis session through ``sacekit.cli.main``: ``simulate --out``,
``diagnose --bins 2 --validate``, ``sensitivity --assume-er both`` over
0:1:0.05, and ``fit --method prop-er``. It reports the resident-set
high-water mark (``ru_maxrss``) after the import and after each command,
in MB. No tracing runs in that process.

Memory is only read, never limited: ``tracemalloc`` in this process and
``resource.getrusage`` in the child.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MB = 1024.0 * 1024.0
RHO_GRID = "0:1:0.05"

SESSION = r"""
import contextlib, io, json, resource, sys
def high_water():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
import sacekit.cli
csv, curve, n, seed = sys.argv[1:5]
out = {"import": high_water()}
commands = {
    "simulate": ["simulate", "--n", n, "--seed", seed, "--out", csv],
    "diagnose": ["diagnose", "--data", csv, "--bins", "2", "--validate"],
    "sensitivity": ["sensitivity", "--data", csv, "--rho-grid", sys.argv[5],
                    "--assume-er", "both", "--out", curve],
    "fit": ["fit", "--data", csv, "--method", "prop-er"],
}
for name, argv in commands.items():
    with contextlib.redirect_stdout(io.StringIO()):
        if sacekit.cli.main(argv) != 0:
            raise SystemExit(f"{name} failed")
    out[name] = high_water()
print(json.dumps(out))
"""


def stage_peaks(n, seed, tmp):
    from sacekit import (
        SimulationSetting,
        estimate_sace,
        fit_survival_sm,
        gen_dataset,
        load_dataset,
        run_diagnostics,
        save_dataset,
        sensitivity_sweep,
        validate,
    )
    from sacekit.cli import parse_rho_grid

    # sacekit imports these on first use; imported here, before tracing
    # starts, their modules are not charged to the first stage that uses them
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401

    csv = os.path.join(tmp, "data.csv")
    grid = parse_rho_grid(RHO_GRID)
    held = {}

    def stage(name, call):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        current, peak = tracemalloc.get_traced_memory()
        held[name] = {"peak_mb": (peak - base) / MB, "kept_mb": (current - base) / MB}
        return result

    tracemalloc.start()
    generated = stage("gen_dataset", lambda: gen_dataset(SimulationSetting(n=n, seed=seed)))
    stage("save_dataset", lambda: save_dataset(generated[0], csv))
    del generated
    data = stage("load_dataset", lambda: load_dataset(csv))
    stage("validate", lambda: validate(data))
    stage("run_diagnostics", lambda: run_diagnostics(data, bins=2))
    survival = stage("fit_survival_sm", lambda: fit_survival_sm(data))
    for variant, assume_er in (("er", True), ("ni", False)):
        stage(f"sensitivity_sweep_{variant}",
              lambda: sensitivity_sweep(data, grid, assume_er=assume_er, survival=survival))
    stage("estimate_sace_prop_er", lambda: estimate_sace(data, "prop-er"))
    tracemalloc.stop()

    file_mb = os.path.getsize(csv) / MB
    dataset_mb = sum(arr.nbytes for arr in (data.z, data.x, data.a, data.s, data._y)) / MB
    return {
        "n": n,
        "seed": seed,
        "file_mb": file_mb,
        "dataset_mb": dataset_mb,
        "load_per_file_byte": held["load_dataset"]["peak_mb"] / file_mb,
        "stages": held,
    }


def session_high_water(n, seed, tmp):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run(
        [sys.executable, "-c", SESSION, os.path.join(tmp, "session.csv"),
         os.path.join(tmp, "curve.csv"), str(n), str(seed), RHO_GRID],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(run.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=100_000, help="rows (default 100000)")
    parser.add_argument("--seed", type=int, default=2024, help="simulation seed")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory(prefix="memory-stages-") as tmp:
        # the session first: a child's ru_maxrss starts from its parent's
        # high-water mark, so it must be forked before numpy is imported here
        session = session_high_water(args.n, args.seed, tmp)
        report = stage_peaks(args.n, args.seed, tmp)
        report["session_rss_mb"] = session
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
