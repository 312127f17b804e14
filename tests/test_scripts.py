"""Smoke tests: the scripts under scripts/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_demo_pipeline_runs():
    proc = _run("demo_pipeline.py")
    assert proc.returncode == 0, proc.stderr


def test_calibrate_fpras_runs():
    proc = _run("calibrate_fpras.py", "--runs", "2", "--max-count", "20")
    assert proc.returncode == 0, proc.stderr
    assert "overall: ok" in proc.stdout
