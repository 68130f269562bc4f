"""The demo scripts run to completion and print their key results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

KEY_LINES = {
    "01_monoids_are_coherent.py": "  aspherical (by convergent presentation)",
    "02_commutative_monoids.py": "  54 critical branchings",
    "03_braided_coherence.py":
        "    bundles ((1, 0),)  sigma (1, 0)  pure mu",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(
        KEY_LINES)


@pytest.mark.parametrize("script", sorted(KEY_LINES))
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(Path("demos") / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert KEY_LINES[script] in done.stdout.splitlines()
