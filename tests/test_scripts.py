"""Smoke runs of the offline scripts in scripts/, each in its own process."""

from __future__ import annotations

import os
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


def test_cli_module_runs():
    src = str(SCRIPTS.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, "-m", "factforge.cli", "--help"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.startswith("usage: factforge")
