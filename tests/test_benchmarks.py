"""The layer benchmarks under benchmarks/ stay runnable.

The ordinary test run does not collect benchmarks/, so a benchmark whose API
has gone away would otherwise fail only when someone times it. This runs
every benchmark once, untimed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_layer_benchmarks_run():
    pytest.importorskip("pytest_benchmark")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "-q",
         "--benchmark-disable", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
