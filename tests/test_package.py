"""The demos run, the public names resolve, and the public API stays narrow."""

import inspect
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


def test_no_public_callable_takes_a_lattice_or_decomposition():
    # A G-set's decomposition is computed once, by `decompose(X)`, so no
    # public function accepts one.  `conj_order_graph` describes a lattice
    # itself, and BoxDecomposition keeps the lattice it was built on.
    allowed = {"conj_order_graph", "BoxDecomposition"}
    found = []
    for name in equirank.__all__:
        obj = getattr(equirank, name)
        if not callable(obj) or name in allowed:
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        found += [f"{name}({p})" for p in params if p in ("lattice", "decomp")]
    assert found == []
