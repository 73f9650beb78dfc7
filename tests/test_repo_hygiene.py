"""Repository hygiene: what is tracked, what the process loads, packaging.

- No compiled-Python artifacts may ever be tracked.  The CI guard step
  runs the same check shell-side; this test keeps it in tier-1 so a stray
  ``git add -A`` fails locally before it reaches CI.
- No run path loads a third-party module: the package needs only the
  standard library.  Importing every ``repro`` module, one lossy
  scenario and the default ``repro simulate`` must leave numpy, scipy and
  networkx unloaded; a numpy import alone costs every run about 12 MiB
  of peak RSS.
- ``setup.py`` resolves its metadata from ``pyproject.toml``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_IMPORT_EVERYTHING_AND_RUN = """
import contextlib, importlib, io, pkgutil, sys
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
from repro.analysis.experiments import ScenarioSpec, run_scenario
from repro.cli import main
record = run_scenario(ScenarioSpec(
    nodes=60, episodes=2, radio_radius=0.3, loss_rate=0.1,
    channel_version=2, seed=1,
))
assert record["frames_sent"] > 0, record
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["simulate"]) == 0
print(sorted(m for m in ("networkx", "numpy", "scipy") if m in sys.modules))
"""


def test_no_tracked_pycache_or_bytecode():
    try:
        out = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        pytest.skip("git unavailable or not a repository checkout")
    offenders = [
        path
        for path in out.stdout.splitlines()
        if "__pycache__" in path or path.endswith((".pyc", ".pyo"))
    ]
    assert offenders == [], f"compiled-python artifacts are tracked: {offenders}"


def test_no_repro_module_imports_numpy():
    """Every ``repro`` module, one lossy scenario and the default
    ``repro simulate``: no numpy, scipy or networkx."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_EVERYTHING_AND_RUN],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]", f"a repro run path loaded {out.stdout.strip()}"


def test_setup_py_resolves_the_project_name():
    pytest.importorskip("setuptools")
    out = subprocess.run(
        [sys.executable, "setup.py", "--name"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "sealed-bottle"
