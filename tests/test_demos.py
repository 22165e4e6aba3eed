"""Smoke runs of the quick demos.

The demos call the public scoring and operator API (``apply_chain``,
``score``, ``grad_score``) and the CLI the way a reader would; each runs
in its own temporary directory, since the CLI demo writes
``demo_outputs/`` relative to its working directory.  Demos 03 and 04
train models and take tens of seconds, so they are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_operator_algebra.py",
        "02_classic_models_as_presets.py",
        "05_cli_pipeline.py",
    ],
)
def test_demo_runs_clean(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
