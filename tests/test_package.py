"""The demos run, the public names resolve, and the public API stays narrow."""

import hashlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import equirank

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout; the demos print library facts, which must not move
DEMO_STDOUT_SHA256 = {
    "01_subgroup_lattice.py": "6f927394240a1e336945a6ae5e0553d586210f0aef79072d9c9ee20387b09a72",
    "02_box_decomposition.py": "638dce8fb400de04806543fdbcffd28ba9070d205a4de3755e8f3b1b73fc2812",
    "03_enumeration.py": "f1e1a5260f0ce399e85d01d0f03fb61faa5344fe7ea168156573118b5939f74d",
    "04_relative_rank.py": "0d93a7ee025958e3b9f256c2b4e74d1c48632943e1336b4753ce035fb8eb78dd",
    "05_cellular_automata.py": "3fecd0ecf35b4cb27cb70a067183faa2c7297f42bac3c7d9baa4b870d83a0d2f",
}


def test_demos_run_and_exports_resolve():
    missing = [name for name in equirank.__all__ if not hasattr(equirank, name)]
    assert missing == []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    demos = sorted((ROOT / "demos").glob("0*.py"))
    assert [demo.name for demo in demos] == sorted(DEMO_STDOUT_SHA256)
    for demo in demos:
        done = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                              capture_output=True, timeout=300)
        assert done.returncode == 0, f"{demo.name} exited {done.returncode}:\n{done.stderr}"
        assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo.name], demo.name


def test_no_public_callable_takes_a_lattice_or_decomposition():
    # A G-set's decomposition is computed once, by `decompose(X)`, so no
    # public function accepts one.  BoxDecomposition keeps the lattice it
    # was built on.
    allowed = {"BoxDecomposition"}
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
