"""Smoke runs of the experiment scripts, which read snapshot and sweep fields
that no other test reaches through them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "name, args",
    [
        ("run_churn_demo.py", ["--events", "5"]),
        ("run_sweeps.py", ["--replications", "2", "--out-dir", "{tmp}"]),
    ],
)
def test_script_runs(tmp_path, name, args):
    proc = run_script(name, *(arg.format(tmp=tmp_path) for arg in args))
    assert proc.returncode == 0, proc.stderr
