"""Cold start: importing the package and its CLI loads only the scipy
parts the code uses (linalg and special)."""

import os
import subprocess
import sys
from pathlib import Path

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
