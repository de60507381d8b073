"""Smoke tests: every demo script runs to completion from a clean directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# demos that write artifacts take their output root as --output
OUTPUT_FLAG = {"cli_sweep_workflow.py"}


def test_every_demo_is_collected():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    args = [sys.executable, str(demo)]
    if demo.name in OUTPUT_FLAG:
        args += ["--output", str(tmp_path / "runs")]
    env = dict(os.environ)
    env["PYTHONWARNINGS"] = "error"  # a warning fails a demo as it fails a test
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        args, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
