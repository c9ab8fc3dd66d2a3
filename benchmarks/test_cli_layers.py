"""Layer benchmarks of CLI processes from start to exit (pytest-benchmark).

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest benchmarks/test_cli_layers.py \
        --benchmark-json=cli_layers.json

This directory sits outside the test paths in pyproject.toml, so the
ordinary test run does not collect it. Each round starts a fresh
interpreter that runs one of: `python -m npagraph.cli compare` of a small
edge matrix with itself; `python -m npagraph.cli calibrate --mode single`
of the solved BA tree, which fits it with one evaluation; `import
npagraph.cli` alone; or a `generate` whose --seed the parser rejects. So
the time is mostly the interpreter's start-up, the imports each loads and
the exit. The package is copied without its bytecode cache and run with
PYTHONDONTWRITEBYTECODE=1, so every round compiles it from source, as a
fresh checkout does; numpy and the standard library keep their installed
caches.

To time another version, copy this file into that version's checkout and
run the same command from its root: pyproject.toml's pythonpath = ["src"]
puts the checkout's own src ahead of PYTHONPATH, so a PYTHONPATH that
points at another tree still times this one.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from npagraph import BaTreeSpec, solve_arc_dd, solve_vdd, symmetrize
from npagraph.formats import edd_to_csv, vdd_to_csv

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def fresh_package(tmp_path_factory):
    """A copy of the package without bytecode, and the environment that
    keeps it so."""
    root = tmp_path_factory.mktemp("src")
    shutil.copytree(SRC / "npagraph", root / "npagraph",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
    return env


@pytest.fixture(scope="module")
def ba_target(tmp_path_factory):
    """The BA tree's VDD, and its edge matrix to degree 20, as ingest writes
    them."""
    model = BaTreeSpec()
    sol = solve_vdd(model, 2000)
    root = tmp_path_factory.mktemp("target")
    (root / "vdd.csv").write_text(vdd_to_csv(sol.q))
    (root / "edd.csv").write_text(edd_to_csv(symmetrize(solve_arc_dd(model, sol, 20))))
    return root


def test_compare_process(benchmark, fresh_package, ba_target, tmp_path):
    edd = str(ba_target / "edd.csv")
    argv = [sys.executable, "-m", "npagraph.cli", "compare", edd, edd,
            "--out", str(tmp_path / "out")]
    proc = benchmark(subprocess.run, argv, env=fresh_package,
                     capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == 0.0


def test_calibrate_process(benchmark, fresh_package, ba_target, tmp_path):
    argv = [sys.executable, "-m", "npagraph.cli", "calibrate", str(ba_target),
            "--mode", "single", "--rmax", "5", "--u", "20",
            "--out", str(tmp_path / "out")]
    proc = benchmark(subprocess.run, argv, env=fresh_package,
                     capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["distance"] < 1e-12


def test_import_process(benchmark, fresh_package):
    argv = [sys.executable, "-c", "import npagraph.cli"]
    proc = benchmark(subprocess.run, argv, env=fresh_package,
                     capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_rejected_setting_process(benchmark, fresh_package, tmp_path):
    argv = [sys.executable, "-m", "npagraph.cli", "generate", "--preset",
            "gowalla", "--seed", "-1", "--out", str(tmp_path / "out")]
    proc = benchmark(subprocess.run, argv, env=fresh_package,
                     capture_output=True, text=True)
    assert proc.returncode == 2
    assert "--seed: must be at least 0, got -1" in proc.stderr
