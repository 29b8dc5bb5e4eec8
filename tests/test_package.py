"""The demos run and the public names resolve."""

import os
import subprocess
import sys
from pathlib import Path

import equirank

ROOT = Path(__file__).resolve().parent.parent


def test_demos_run_and_exports_resolve():
    missing = [name for name in equirank.__all__ if not hasattr(equirank, name)]
    assert missing == []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    demos = sorted((ROOT / "demos").glob("0*.py"))
    assert demos
    for demo in demos:
        done = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, f"{demo.name} exited {done.returncode}:\n{done.stderr}"
