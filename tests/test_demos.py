"""Each demo script runs to completion and prints its table.

A copy of each script runs in a temporary directory, so a plot it saves when
matplotlib is installed lands there, not in the checkout.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    # conftest.py puts this checkout's src/ on PYTHONPATH for subprocesses.
    run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         cwd=tmp_path, env=os.environ, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
