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


def test_span_targets_resolve():
    # perfbench/spans.py skips a target the program no longer defines, and the
    # metrics that target feeds then read 0. Its list is read with ast, so
    # the benchmark is neither imported nor installed here.
    import ast
    import importlib

    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS"
                           for t in node.targets))
    def defines(module: str, name: str) -> bool:
        try:
            return hasattr(importlib.import_module(f"npagraph.{module}"), name)
        except ModuleNotFoundError:
            return False

    unresolved = {(module, name) for module, name, _ in targets
                  if not defines(module, name)}
    # calibrate._optimize went with the simplex search of 0.5.0, and
    # datasets.smooth_vdd with VDD smoothing in 0.32.0; their spans still
    # name them. 0.28.0 moved every text reader and writer into formats,
    # 0.31.0 moved select_u into models, and 0.32.0 moved summarize into
    # growth when it deleted the datasets module; their spans still name
    # the old homes.
    homes = [importlib.import_module(f"npagraph.{module}")
             for module in ("formats", "models", "growth")]
    moved = {(module, name) for module, name in unresolved
             if any(hasattr(home, name) for home in homes)}
    assert unresolved - moved == {("calibrate", "_optimize"),
                                  ("datasets", "smooth_vdd")}
    assert sorted(name for _, name in moved) == [
        "edd_from_csv", "edd_to_csv", "id_map_csv", "load_edge_list",
        "select_u", "summarize", "vdd_counts_csv", "vdd_from_csv",
        "vdd_to_csv", "write_edge_list"]
