"""Smoke test of the shipped demo scripts, run as users run them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# demo script -> a line fragment its report must print; a demo missing
# here fails its test
EXPECTED = {
    "run_area_gate.py": "extrapolated gap",
    "run_manufactured_check.py": "tensor-vs-raw gap",
    "run_parabolic_tracking.py": "ic_pairing",
    "run_robin_pipeline.py": "relative gap at the smallest step",
}


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("run_*.py")))
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert EXPECTED[script] in proc.stdout
