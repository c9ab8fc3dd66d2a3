#!/usr/bin/env python3
"""End-to-end benchmark of npagraph's simulate and calibrate workflows.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 10 --trace 0

With --trace 0 each command runs through the CLI (python3 -m npagraph.cli)
in a fresh, single-threaded process, one at a time, on inputs made here.
Whole rounds of the workload's commands repeat until --seconds have passed,
at least one round (three for simulate). Every output is checked with numpy
(checks.py). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics, holding the end_to_end metrics
of BENCHMARK.json.

With --trace 1 the same rounds run in this process through
npagraph.cli.main, traced, with spans around the program's public
functions (spans.py). The metrics are then the
per_layer metrics of BENCHMARK.json. Spans go to perfbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads, here and in every child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402

SETUP_SPAWNS = 3
COMMAND_TIMEOUT_S = 150.0
IMPORT_PROBE = ("import time; t = time.perf_counter(); import npagraph.cli; "
                "print(time.perf_counter() - t)")

# On a shared virtual machine the speed of the cores drifts, largely together,
# by up to 2x over minutes. SpeedMeter times a fixed 3 ms job (meter.py) back
# to back on the second core, in a process of its own, while the commands run
# on the first, and a command's time is reported at the speed where that job
# takes REFERENCE_JOB_S (its time on an unloaded 2-core Xeon VM), the speed
# being the median over the command's span widened by SPEED_WINDOW_S on each
# side. The wide window follows the drift without adding the job's own
# second-to-second noise.
REFERENCE_JOB_S = 0.0034
SPEED_WINDOW_S = 15.0
CLOCK = time.CLOCK_MONOTONIC  # shared with the meter's process

# simulate: one replication of the gowalla preset, measured to degree 300.
SIM_N = 100000
SIM_U = 300

# calibrate: the planted models of the calibration round trip (criterion 09).
PLANTED_SINGLE = np.array([0.0, 0.4, 0.3, 0.2, 0.1])  # r_k by arc count k
PLANTED_RHO = 0.3
PLANTED_COMPLEMENT = np.array([0.0, 0.3, 0.7])
BA_TREE = np.array([0.0, 1.0])
TARGET_U = 20
TARGET_KMAX = 4000
SINGLE_RMAX = 5
RHO_GRID = ("0.25", "0.35", "0.05")  # --rho-min, --rho-max, --rho-step
# The composite refines rho on a grid 5 times finer around the best coarse
# value (CalibrateOptions.rho_refine_factor), so it must land within one
# refined step of the planted rho.
RHO_TOLERANCE = float(RHO_GRID[2]) / 5


@dataclass
class Result:
    exit: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    start: float = 0.0  # CLOCK when the command started


@dataclass
class Op:
    """One CLI command of a round. When it exits with a code in
    checked_exits it has run to its end: its outputs are checked and its wall
    time counts in commands_s."""

    argv: list[str]
    check: Callable[[Result], None]
    checked_exits: tuple[int, ...] = (0,)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(args: list[str], stem: Path) -> Result:
    """Run python3 with args to its end; wall time and peak RSS of the child."""
    out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        at = time.clock_gettime(CLOCK)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=_child_env(), cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                  out_path.read_text(), err_path.read_text(), at)


class SpeedMeter:
    """meter.py on another core, from before set-up to the end of the run."""

    def __init__(self, cpu: int, path: Path):
        self.path = path
        self.jobs: list[tuple[float, float]] = []  # (start, seconds)
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "meter.py"), str(cpu), str(path)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if self._proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("the speed meter did not start")

    def stop(self) -> None:
        """End the meter and load its job times."""
        if self._proc.poll() is None:
            self._proc.terminate()
        self._proc.wait()
        self._proc.stdout.close()
        text = self.path.read_text() if self.path.exists() else ""
        for line in text.splitlines():
            fields = line.split()
            if len(fields) == 2:  # the last line may be cut short
                self.jobs.append((float(fields[0]), float(fields[1])))

    def at_reference(self, res: Result) -> float:
        """res.wall_s at the reference speed."""
        start = res.start - SPEED_WINDOW_S
        end = res.start + res.wall_s + SPEED_WINDOW_S
        took = [t for at, t in self.jobs if start <= at <= end]
        return res.wall_s * REFERENCE_JOB_S / statistics.median(took) if took \
            else res.wall_s


def run_cli(argv: list[str], stem: Path) -> Result:
    return spawn(["-m", "npagraph.cli", *argv], stem)


def run_inprocess(cli, argv: list[str]) -> Result:
    """Run one command through cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # an uncaught error ends a real process with 1
            traceback.print_exc()
            code = 1
    return Result(code, time.perf_counter() - start, 0.0, out.getvalue(),
                  err.getvalue())


def run_round(ops: list[Op], runner: Callable[[list[str], Path], Result],
              logs: Path, tally: Tally) -> list[Result]:
    """Run one round and check the outputs of each command that ran to its end."""
    results = []
    for i, op in enumerate(ops):
        res = runner(op.argv, logs / f"cmd{i}")
        results.append(res)
        tally.attempted += 1
        status = "ok" if res.exit == 0 else f"exit {res.exit}"
        if res.exit != 0:
            tally.failed += 1
        print(f"  {op.argv[0]:<9} {res.wall_s:8.3f} s {res.rss_mb:7.1f} MB {status}",
              file=sys.stderr)
        if res.exit != 0 and res.stderr.strip():
            print(f"    {res.stderr.strip().splitlines()[-1]}", file=sys.stderr)
        if res.exit in op.checked_exits:
            try:
                op.check(res)
            except Exception as exc:  # every check error makes the run incorrect
                tally.problems.append(f"{' '.join(op.argv[:2])}: "
                                      f"{type(exc).__name__}: {exc}")
    return results


# ---------------------------------------------------------------------------
# Workloads: each writes its inputs and returns the ops of one round
# ---------------------------------------------------------------------------

def simulate(seed: int, inputs: Path) -> Callable[[Path], list[Op]]:
    """generate --preset gowalla, ingest of the edge list, compare of EDDs."""
    def ops(rd: Path) -> list[Op]:
        gen, ing = rd / "generate", rd / "ingest"
        edges = gen / "graph_rep0.txt"
        parsed = {}  # the edge list, parsed once for both checks

        def check_generate(res: Result) -> None:
            runs = checks.read_json(gen / "runs.json")
            nodes, pairs, degrees = checks.check_edge_file(
                edges, runs, gen / "vdd_rep0.csv")
            parsed["pairs"] = pairs
            checks.check_vdd_recount(gen / "vdd_rep0.csv", degrees)
            checks.check_edd_recount(gen / "edd_rep0.csv", pairs, degrees, SIM_U)
            model = checks.read_json(gen / "model.json")
            growth = model["components"][-1]
            checks.require(growth["model"]["type"] == "npa",
                           "the growth component is not the last one")
            budget = int(round(growth["rho"] * model["total_n"]))
            inc = growth["model"]["increments"]
            r = checks.increments_upto(inc, inc["min_arcs"] + len(inc["probs"]))
            # The union puts the growth component's vertices last.
            z = checks.check_growth_shares(degrees[nodes - budget:], r)
            print(f"    growth shares within {z:.2f} standard errors",
                  file=sys.stderr)

        def check_ingest(res: Result) -> None:
            pairs = parsed.get("pairs")
            if pairs is None:
                pairs = checks.read_edge_list(edges)[2]
            checks.check_ingest(checks.read_json(ing / "summary.json"), pairs)

        def check_compare(res: Result) -> None:
            checks.check_compare(res.stdout, gen / "edd_rep0.csv", ing / "edd.csv")

        return [
            Op(["generate", "--preset", "gowalla", "--n", str(SIM_N),
                "--seed", str(seed), "--u", str(SIM_U), "--out", str(gen)],
               check_generate),
            Op(["ingest", str(edges), "--out", str(ing)], check_ingest),
            Op(["compare", str(gen / "edd_rep0.csv"), str(ing / "edd.csv"),
                "--out", str(rd / "compare")], check_compare),
        ]
    return ops


def _write_target(path: Path, q: np.ndarray, theta: np.ndarray, m: float) -> None:
    """vdd.csv, edd.csv and summary.json as ingest writes them."""
    path.mkdir(parents=True, exist_ok=True)
    (path / "vdd.csv").write_text("degree,probability\n" + "".join(
        f"{k},{p!r}\n" for k, p in enumerate(q.tolist(), 1)))
    (path / "edd.csv").write_text("l,k,probability\n" + "".join(
        f"{l},{k},{p!r}\n" for l, row in enumerate(theta.tolist(), 1)
        for k, p in enumerate(row, 1)))
    (path / "summary.json").write_text(json.dumps(
        {"derived_m": m, "selected_u": TARGET_U}, indent=2) + "\n")


def calibrate(seed: int, inputs: Path) -> Callable[[Path], list[Op]]:
    """Exact targets of planted models; a single fit, a composite fit and a
    single fit at the default --rmax. The inputs do not depend on the seed:
    the planted models are fixed, as in the calibration round trip."""
    single, composite = inputs / "single", inputs / "composite"
    m_single = float((np.arange(len(PLANTED_SINGLE)) * PLANTED_SINGLE).sum())
    _write_target(single, checks.linear_vdd(PLANTED_SINGLE, TARGET_KMAX),
                  checks.linear_edge_matrix(PLANTED_SINGLE, TARGET_U), m_single)
    m2 = float((np.arange(len(PLANTED_COMPLEMENT)) * PLANTED_COMPLEMENT).sum())
    m_mix = PLANTED_RHO * 1.0 + (1.0 - PLANTED_RHO) * m2
    gamma = PLANTED_RHO * 1.0 / m_mix
    _write_target(
        composite,
        PLANTED_RHO * checks.linear_vdd(BA_TREE, TARGET_KMAX)
        + (1.0 - PLANTED_RHO) * checks.linear_vdd(PLANTED_COMPLEMENT, TARGET_KMAX),
        gamma * checks.linear_edge_matrix(BA_TREE, TARGET_U)
        + (1.0 - gamma) * checks.linear_edge_matrix(PLANTED_COMPLEMENT, TARGET_U),
        m_mix)

    def ops(rd: Path) -> list[Op]:
        fit1, fit2, fit3 = rd / "single", rd / "composite", rd / "default-rmax"
        return [
            Op(["calibrate", str(single), "--mode", "single",
                "--rmax", str(SINGLE_RMAX), "--out", str(fit1)],
               lambda res: checks.check_single_fit(fit1, single, PLANTED_SINGLE)),
            # Exits 4 today although it recovers rho: its fit is still checked.
            Op(["calibrate", str(composite), "--mode", "composite",
                "--first", "ba-tree", "--rmax", "3", "--rho-min", RHO_GRID[0],
                "--rho-max", RHO_GRID[1], "--rho-step", RHO_GRID[2],
                "--out", str(fit2)],
               lambda res: checks.check_composite_fit(
                   fit2, composite, PLANTED_RHO, RHO_TOLERANCE),
               checked_exits=(0, 4)),
            # Exits 3 today: no candidate solves at the default --rmax 50.
            # Once it runs to its end, its fit is checked and its time counts.
            Op(["calibrate", str(single), "--out", str(fit3)],
               lambda res: checks.check_fit(fit3, single)),
        ]
    return ops


# name -> (set-up, fewest rounds in an untraced run). generate's time varies
# by up to 50 % between identical runs a few seconds apart, bursts the speed
# meter does not see, so simulate keeps each command's median of at least
# three rounds.
WORKLOADS = {"simulate": (simulate, 3), "calibrate": (calibrate, 1)}


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

def measure_setup(logs: Path) -> list[Result]:
    """Fresh interpreters importing npagraph.cli; each prints its import time."""
    results = []
    for i in range(SETUP_SPAWNS):
        res = spawn(["-c", IMPORT_PROBE], logs / f"setup{i}")
        if res.exit != 0:
            raise RuntimeError(f"importing npagraph.cli failed: {res.stderr}")
        results.append(res)
    return results


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _rho_fits(round_dir: Path) -> tuple[int, int]:
    """Fitted rho values in the round's composite grid logs, and how many
    of them are distinct."""
    rhos = []
    for report in round_dir.rglob("report.json"):
        grid = checks.read_json(report).get("details", {}).get("grid", [])
        rhos += [e["rho"] for e in grid if "objective" in e]
    return len(rhos), len({round(r, 9) for r in rhos})


def untraced(make_ops, min_rounds: int, work: Path, seconds: float,
             tally: Tally) -> tuple[list[Op], list[list[Result]]]:
    """Rounds of fresh processes until --seconds have passed."""
    rounds = []
    start = time.perf_counter()
    while True:
        rd = _fresh(work / "round")
        print(f"round {len(rounds)}", file=sys.stderr)
        ops = make_ops(rd)
        rounds.append(run_round(ops, run_cli, rd, tally))
        if time.perf_counter() - start >= seconds and len(rounds) >= min_rounds:
            break
    return ops, rounds


def end_to_end(ops: list[Op], rounds: list[list[Result]], setup: list[Result],
               scaled: Callable[[Result], float]) -> dict:
    """Each command's time at reference speed is its median over the rounds
    in which it ran to its end."""
    commands_s = 0.0
    for i, op in enumerate(ops):
        ran = [scaled(r[i]) for r in rounds if r[i].exit in op.checked_exits]
        commands_s += statistics.median(ran) if ran else 0.0
    return {"commands_s": commands_s,
            "setup_s": statistics.median(scaled(res) for res in setup),
            "peak_rss_mb": max(res.rss_mb for r in rounds for res in r)}


def traced(make_ops, work: Path, seconds: float, tally: Tally) -> dict:
    import spans
    sys.path.insert(0, str(SRC))
    import npagraph.cli as cli

    def runner(argv, stem):
        return run_inprocess(cli, argv)

    recorder = spans.Recorder()
    recorder.install()
    rounds, fits, distinct = [], 0, 0
    start = time.perf_counter()
    try:
        while True:
            rd = _fresh(work / "round")
            print(f"traced round {len(rounds)}", file=sys.stderr)
            rounds.append(sum(res.wall_s for res in run_round(make_ops(rd), runner,
                                                              rd, tally)))
            f, d = _rho_fits(rd)
            fits, distinct = fits + f, distinct + d
            if time.perf_counter() - start >= seconds:
                break
    finally:
        recorder.uninstall()
    recorder.write(work / "trace.json")
    metrics = spans.layer_metrics(recorder.spans, len(rounds))
    round_s = statistics.median(rounds)
    span_s = spans.span_cost_s()
    metrics.update({
        "calibrate.rho_fits": fits / len(rounds),
        "calibrate.distinct_rho_fits": distinct / len(rounds),
        "trace.round_s": round_s,
        "trace.span_us": span_s * 1e6,
        # The wrappers' cost over the round, less that cost.
        "trace.overhead_share": span_s * metrics["trace.spans"]
                                / (round_s - span_s * metrics["trace.spans"]),
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "npagraph" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no npagraph sources under {SRC} or no {spec_path.name}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    # On SIGTERM, unwind through spawn(), which kills and reaps its command.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Commands run on the first core, the speed meter on the second. With one
    # core, or in a traced run, times stay as measured.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    work = _fresh(OUT / args.workload)
    meter = (SpeedMeter(cpus[1], work / "meter.txt")
             if len(cpus) > 1 and not args.trace else None)
    try:
        setup = measure_setup(work)
        set_up, min_rounds = WORKLOADS[args.workload]
        make_ops = set_up(args.seed, work / "inputs")
        tally = Tally()
        if args.trace:
            values = traced(make_ops, work, args.seconds, tally)
            values["cli.import_s"] = statistics.median(float(res.stdout)
                                                       for res in setup)
            wanted = spec["per_layer"]
        else:
            ops, rounds = untraced(make_ops, min_rounds, work, args.seconds, tally)
            wanted = spec["end_to_end"]
    finally:
        if meter:
            meter.stop()
    if not args.trace:
        values = end_to_end(ops, rounds, setup,
                            meter.at_reference if meter else lambda res: res.wall_s)
    if meter and meter.jobs:
        took = statistics.median(t for _, t in meter.jobs)
        print(f"speed meter: median job {took * 1e3:.2f} ms over {len(meter.jobs)} "
              f"jobs, times scaled by about {REFERENCE_JOB_S / took:.3f}",
              file=sys.stderr)

    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:<32} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
