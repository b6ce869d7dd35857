"""Smoke runs of the offline scripts in scripts/, each in its own process."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [("run_pipeline_demo.py", ["--workdir", "{tmp}"]), ("recall_curve.py", [])],
)
def test_script_runs(tmp_path, script, args):
    argv = [a.format(tmp=tmp_path / "work") for a in args]
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
