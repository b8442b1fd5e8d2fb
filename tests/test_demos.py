"""Each script under demos/ runs to completion and prints its landmark line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

LANDMARKS = {
    "twirl_convergence.py": "    1,000,000",
}


@pytest.mark.parametrize("script", sorted(LANDMARKS))
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith(LANDMARKS[script]) for line in proc.stdout.splitlines()), proc.stdout
