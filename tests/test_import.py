"""Cold start: importing the package and its CLI loads no scipy, and a
command loads only the scipy subpackages its first solve (``scipy.linalg``)
or first chi-square quantile (``scipy.special``) needs. Each check runs in
a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sacekit.data import save_dataset
from sacekit.simulate import SimulationSetting, gen_dataset

ROOT = Path(__file__).resolve().parents[1]

# scipy.stats loads all of these; together they cost about 0.8 s of import
# that no sacekit code path needs
UNUSED_SCIPY = (
    "scipy.stats",
    "scipy.optimize",
    "scipy.sparse",
    "scipy.spatial",
    "scipy.integrate",
    "scipy.interpolate",
    "scipy.ndimage",
)


def test_import_loads_no_unused_scipy_subpackage():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, sacekit, sacekit.cli; "
        f"print(' '.join(m for m in {UNUSED_SCIPY!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == []


def _scipy_loaded(*argv):
    """The ``scipy`` modules of a fresh interpreter after ``import sacekit,
    sacekit.cli`` and, given ``argv``, ``sacekit.cli.main(argv)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = (
        "import json, sys, sacekit, sacekit.cli\n"
        f"argv = {list(argv)!r}\n"
        "if argv and sacekit.cli.main(argv) != 0:\n"
        "    raise SystemExit('the command failed')\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "d.csv"
    save_dataset(gen_dataset(SimulationSetting(n=2000, delta1=1, seed=3))[0], path)
    return str(path)


def test_import_loads_no_scipy():
    assert _scipy_loaded() == set()


def test_simulate_loads_no_scipy(tmp_path):
    assert _scipy_loaded("simulate", "--n", "500", "--out", str(tmp_path / "d.csv")) == set()


def test_fit_loads_linalg_but_not_special(data_csv):
    loaded = _scipy_loaded("fit", "--data", data_csv, "--method", "prop-er")
    assert "scipy.linalg" in loaded and "scipy.special" not in loaded


def test_diagnose_loads_special(data_csv):
    assert "scipy.special" in _scipy_loaded("diagnose", "--data", data_csv)
