"""Spans around npagraph's public functions, recorded from outside the program.

Callers import these functions by name, so each wrapper is installed in
every npagraph module whose namespace binds the original function (for
example npagraph.cli.solve_vdd and npagraph.calibrate.solve_vdd). A span
holds its name, layer, start, end and parent; spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from pathlib import Path

# (module, function, layer). A name a later version of the program drops is
# skipped, and the metrics it feeds read 0.
TARGETS = [
    ("cli", "main", "cli"),
    ("cli", "cmd_generate", "cli"),
    ("cli", "cmd_ingest", "cli"),
    ("cli", "cmd_calibrate", "cli"),
    ("cli", "cmd_compare", "cli"),
    ("growth", "grow_npa", "growth"),
    ("growth", "grow_aer", "growth"),
    ("growth", "grow_aer_unpruned", "growth"),
    ("growth", "grow_composite", "growth"),
    ("growth", "write_edge_list", "io"),
    ("datasets", "load_edge_list", "io"),
    ("solver", "vdd_to_csv", "io"),
    ("solver", "edd_to_csv", "io"),
    ("solver", "vdd_from_csv", "io"),
    ("solver", "edd_from_csv", "io"),
    ("datasets", "vdd_counts_csv", "io"),
    ("datasets", "id_map_csv", "io"),
    ("growth", "measure_vdd", "measure"),
    ("growth", "measure_edd", "measure"),
    ("datasets", "summarize", "measure"),
    ("datasets", "smooth_vdd", "measure"),
    ("calibrate", "select_u", "measure"),
    ("solver", "solve_vdd", "solver"),
    ("solver", "solve_arc_dd", "solver"),
    ("solver", "symmetrize", "solver"),
    ("solver", "mix_vdd", "solver"),
    ("solver", "mix_edd", "solver"),
    ("solver", "complement_vdd", "solver"),
    ("calibrate", "calibrate_single", "calibrate"),
    ("calibrate", "calibrate_composite", "calibrate"),
    ("calibrate", "component_profile", "calibrate"),
    ("calibrate", "_optimize", "calibrate"),
]

CSV_WRITERS = ("vdd_to_csv", "edd_to_csv", "vdd_counts_csv", "id_map_csv")
CSV_READERS = ("vdd_from_csv", "edd_from_csv")
MIXERS = ("mix_vdd", "mix_edd", "complement_vdd")
EVALUATION = "evaluation"


class Recorder:
    """In-memory spans: [name, layer, start, end, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, **info) -> None:
        self.spans[index][3] = time.perf_counter()
        self.spans[index][5].update(info)
        self._stack.pop()

    def wrap(self, fn, name: str, layer: str):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "_optimize" and args:
                args = (recorder.counted_objective(args[0]),) + args[1:]
            index = recorder.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                recorder.close(index, error=type(exc).__name__)
                raise
            recorder.close(index, **_sizes(name, args, out))
            return out

        return wrapper

    def counted_objective(self, objective):
        """One span per objective evaluation, noting whether it solved."""
        def evaluate(x):
            index = self.open(EVALUATION, "calibrate")
            try:
                value = objective(x)
            except BaseException as exc:
                self.close(index, error=type(exc).__name__)
                raise
            self.close(index, solved=math.isfinite(value))
            return value
        return evaluate

    def install(self) -> None:
        """Wrap every target wherever an npagraph module binds it: as a
        module global, or as a value of a module-level dict such as the
        CLI's command table."""
        namespaces = [vars(mod) for key, mod in list(sys.modules.items())
                      if mod is not None and (key == "npagraph"
                                              or key.startswith("npagraph."))]
        namespaces += [value for ns in namespaces for value in ns.values()
                       if type(value) is dict]
        for module_name, name, layer in TARGETS:
            home = sys.modules.get(f"npagraph.{module_name}")
            original = getattr(home, name, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name, layer)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._patched.append((ns, key, original))
                        ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patched):
            ns[key] = original
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "info"],
                       "spans": self.spans}, fh)


def _sizes(name: str, args: tuple, out) -> dict:
    """Work counts taken at the boundary: bytes, rows and vertices."""
    if name == "write_edge_list" and len(args) > 1:
        return {"bytes": args[1].tell()}
    if name == "load_edge_list" and args:
        return {"bytes": Path(args[0]).stat().st_size}
    if name in CSV_WRITERS:
        return {"rows": out.count("\n") - 1}
    if name in CSV_READERS and args:
        return {"rows": args[0].count("\n") - 1}
    if name == "grow_npa":
        return {"vertices": out.final_graph.vertex_count}
    return {}


def span_cost_s(calls: int = 20000) -> float:
    """What a wrapper adds to one call: a wrapped no-op against a bare one,
    each the fastest of three tries."""
    def noop():
        return None

    def per_call(make) -> float:
        best = math.inf
        for _ in range(3):
            fn = make()
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, (time.perf_counter() - start) / calls)
        return best

    return max(per_call(lambda: Recorder().wrap(noop, "noop", "none"))
               - per_call(lambda: noop), 0.0)


def layer_metrics(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-layer totals per round, and self time per layer: a span's
    duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for name, layer, start, end, parent, info in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        total[key] = total.get(key, 0.0) + value

    evaluations = solved = 0
    for i, (name, layer, start, end, parent, info) in enumerate(spans):
        dur = end - start
        add(f"self.{layer}.s", dur - child_time[i])
        if name.startswith("cmd_"):
            add(f"cli.{name[4:]}.s", dur)
        elif name in ("grow_npa", "grow_aer_unpruned", "grow_composite"):
            add(f"growth.{name}.s", dur)
            if name == "grow_npa":
                add("growth.grow_npa.vertices", info.get("vertices", 0))
        elif name == "grow_aer":
            add("growth.grow_aer.prune_s", dur - child_time[i])
        elif name in ("write_edge_list", "load_edge_list"):
            add(f"io.{name}.s", dur)
            add(f"io.{name}.bytes", info.get("bytes", 0))
        elif name in CSV_WRITERS + CSV_READERS:
            kind = "csv_write" if name in CSV_WRITERS else "csv_read"
            add(f"io.{kind}.s", dur)
            add(f"io.{kind}.rows", info.get("rows", 0))
        elif name in ("measure_edd", "measure_vdd", "select_u"):
            add(f"measure.{name}.s", dur)
        elif name in ("solve_vdd", "solve_arc_dd"):
            add(f"solver.{name}.s", dur)
            add(f"solver.{name}.calls", 1)
            if name == "solve_vdd" and "error" in info:
                add("solver.solve_vdd.failures", 1)
        elif name in MIXERS:
            add("solver.mix.s", dur)
        elif name == "component_profile":
            add("calibrate.component_profile.s", dur)
        elif name == EVALUATION:
            evaluations += 1
            solved += bool(info.get("solved"))
            add("calibrate.eval_s", dur)
    per_round = {key: value / rounds for key, value in total.items()}
    per_round["calibrate.evaluations"] = evaluations / rounds
    per_round["calibrate.solved_share"] = solved / evaluations if evaluations else 0.0
    eval_s = per_round.pop("calibrate.eval_s", 0.0)
    per_round["calibrate.eval_ms"] = 1000.0 * eval_s / per_round["calibrate.evaluations"] \
        if evaluations else 0.0
    calibrate_s = per_round.get("cli.calibrate.s", 0.0)
    per_round["calibrate.evals_per_s"] = (per_round["calibrate.evaluations"] / calibrate_s
                                          if calibrate_s else 0.0)
    per_round["trace.spans"] = len(spans) / rounds
    return per_round
