#!/usr/bin/env python3
"""Self-test of the benchmark's output checks, at small sizes in seconds.

    python3 perfbench/selftest.py

Runs the CLI on small inputs, requires every checker to accept the real
outputs, then breaks each output on purpose (a miscounted edge file, a VDD
with shifted mass, a perturbed EDD cell, a wrong count, distance, rho or
gamma) and requires the checker to reject it. Exits 1 on the first miss.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run  # perfbench/run.py: sets single-threaded numpy and sys.path

import checks
import numpy as np

WORK = run.OUT / "selftest"


def npa(probs: list[float]) -> dict:
    """A linear-weight model spec with increments r_1, r_2, ..."""
    return {"type": "npa",
            "weights": {"g": 1, "M": None, "rule": "linear", "alpha": 1.0,
                        "value": 1.0, "table": []},
            "increments": {"min_arcs": 1, "probs": probs},
            "seed_graph": {"name": "default"}}


def cli(*argv: str) -> run.Result:
    res = run.run_cli(list(argv), WORK / f"cmd-{argv[0]}")
    if res.exit != 0:
        sys.exit(f"FAIL: npagraph {' '.join(argv)} exited {res.exit}: {res.stderr}")
    return res


def accept(label: str, fn, *args) -> None:
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        sys.exit(f"FAIL: rejected the real {label}: {exc}")
    print(f"ok  accepts {label}")


def reject(label: str, fn, *args) -> None:
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        print(f"ok  rejects {label}: {str(exc)[:90]}")
        return
    sys.exit(f"FAIL: accepted {label}")


def broken(src: Path, name: str, edit) -> Path:
    """A copy of src next to it, its text passed through edit."""
    dst = src.with_name(f"broken-{name}-{src.name}")
    dst.write_text(edit(src.read_text()))
    return dst


def edit_csv_value(text: str, row: int, delta: float) -> str:
    """Add delta to the last field of data row `row`."""
    lines = text.splitlines()
    fields = lines[row + 1].split(",")
    fields[-1] = repr(float(fields[-1]) + delta)
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_simulate() -> None:
    gen, ing = WORK / "generate", WORK / "ingest"
    cli("generate", "--preset", "gowalla", "--n", "3000", "--seed", "5",
        "--u", "40", "--out", str(gen))
    cli("ingest", str(gen / "graph_rep0.txt"), "--out", str(ing))
    printed = cli("compare", str(gen / "edd_rep0.csv"), str(ing / "edd.csv"),
                  "--out", str(WORK / "compare")).stdout
    runs = checks.read_json(gen / "runs.json")
    edges, vdd, edd = gen / "graph_rep0.txt", gen / "vdd_rep0.csv", gen / "edd_rep0.csv"
    nodes, pairs, degrees = checks.check_edge_file(edges, runs, vdd)
    accept("edge list", checks.check_edge_file, edges, runs, vdd)
    e = len(pairs)
    reject("an edge file whose header miscounts the edges", checks.check_edge_file,
           broken(edges, "header", lambda t: t.replace(f"Edges: {e}", f"Edges: {e + 1}")),
           runs, vdd)
    reject("an edge file with a line dropped", checks.check_edge_file,
           broken(edges, "dropped", lambda t: t[:t.rstrip("\n").rfind("\n") + 1]),
           runs, vdd)

    accept("VDD", checks.check_vdd_recount, vdd, degrees)
    shifted = broken(vdd, "shift", lambda t: edit_csv_value(
        edit_csv_value(t, 0, -0.01), 1, 0.01))
    reject("a VDD with mass shifted from degree 1 to 2", checks.check_vdd_recount,
           shifted, degrees)

    accept("EDD", checks.check_edd_recount, edd, pairs, degrees, 40)
    reject("an EDD with one cell off by 1e-6", checks.check_edd_recount,
           broken(edd, "cell", lambda t: edit_csv_value(t, 45, 1e-6)),
           pairs, degrees, 40)

    model = checks.read_json(gen / "model.json")
    growth = model["components"][-1]
    budget = int(round(growth["rho"] * model["total_n"]))
    inc = growth["model"]["increments"]
    r = checks.increments_upto(inc, inc["min_arcs"] + len(inc["probs"]))
    accept("growth-component degree shares", checks.check_growth_shares,
           degrees[nodes - budget:], r)
    reject("growth degrees shifted up by one", checks.check_growth_shares,
           degrees[nodes - budget:] + 1, r)

    summary = checks.read_json(ing / "summary.json")
    accept("ingest summary", checks.check_ingest, summary, pairs)
    reject("an ingest summary with a miscounted duplicate", checks.check_ingest,
           {**summary, "duplicates_collapsed": summary["duplicates_collapsed"] + 1},
           pairs)
    reject("an ingest summary with a miscounted node", checks.check_ingest,
           {**summary, "node_count": summary["node_count"] - 1}, pairs)

    accept("compare distance", checks.check_compare, printed, edd, ing / "edd.csv")
    reject("a compare distance off by 0.1%", checks.check_compare,
           repr(float(printed) * 1.001), edd, ing / "edd.csv")


def write_fit(path: Path, model: dict, details: dict, distance: float) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    (path / "model.json").write_text(json.dumps(model))
    (path / "report.json").write_text(json.dumps(
        {"distance": distance, "details": {"window": [1, run.TARGET_U], **details}}))
    return path


def test_calibrate() -> None:
    run.calibrate(0, WORK / "targets")  # writes the planted targets
    single, composite = WORK / "targets" / "single", WORK / "targets" / "composite"
    planted = run.PLANTED_SINGLE
    model = npa(planted[1:].tolist())
    fit = write_fit(WORK / "fit-single", model, {}, 0.0)
    accept("the planted single fit", checks.check_single_fit, fit, single, planted)
    off = npa([0.5, 0.2, 0.2, 0.1])
    d_off = checks.fit_edge_matrix(off, run.TARGET_U, "off")[0]
    _, target = checks.read_edd(single / "edd.csv")
    true_distance = float(np.sqrt(((d_off - target) ** 2).sum()))
    reject("a single fit with r_1 off by 0.1", checks.check_single_fit,
           write_fit(WORK / "fit-off", off, {}, true_distance), single, planted)
    reject("a single fit reporting a wrong distance", checks.check_fit,
           write_fit(WORK / "fit-dist", model, {}, 1e-3), single)
    reject("a fit whose probabilities do not sum to 1", checks.check_fit,
           write_fit(WORK / "fit-sum", npa([0.5, 0.3, 0.3]), {}, 0.0),
           single)

    def composite_fit(rho: float, gamma_scale: float = 1.0,
                      complement: tuple[float, ...] = (0.3, 0.7)) -> Path:
        comp = {"type": "composite", "total_n": 100000,
                "components": [{"model": {"type": "ba_tree"}, "rho": rho},
                               {"model": npa(list(complement)),
                                "rho": 1.0 - rho}]}
        mixed, parts = checks.fit_edge_matrix(comp, run.TARGET_U, "composite")
        _, target = checks.read_edd(composite / "edd.csv")
        gamma = parts["gamma"] * gamma_scale
        comp["metadata"] = {"gamma": gamma}
        return write_fit(WORK / f"fit-rho-{rho}-{gamma_scale}-{complement[0]}", comp,
                         {"rho": rho, "gamma": gamma},
                         float(np.sqrt(((mixed - target) ** 2).sum())))

    tol = run.RHO_TOLERANCE
    accept("the planted composite fit", checks.check_composite_fit,
           composite_fit(run.PLANTED_RHO), composite, run.PLANTED_RHO, tol)
    for rho in (float(run.RHO_GRID[0]), float(run.RHO_GRID[1]),
                run.PLANTED_RHO + 2 * tol):
        reject(f"a composite fit at rho = {rho:g}", checks.check_composite_fit,
               composite_fit(rho), composite, run.PLANTED_RHO, tol)
    reject("a composite fit at the planted rho with a wrong complement",
           checks.check_composite_fit, composite_fit(run.PLANTED_RHO,
                                                     complement=(0.35, 0.65)),
           composite, run.PLANTED_RHO, tol)
    reject("a composite fit with a wrong gamma", checks.check_composite_fit,
           composite_fit(run.PLANTED_RHO, 1.01), composite, run.PLANTED_RHO, tol)


def main() -> int:
    if not (run.SRC / "npagraph" / "cli.py").is_file():
        print(f"no npagraph sources under {run.SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    test_simulate()
    test_calibrate()
    print("all checks accept real outputs and reject broken ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
