"""Command-line entry point for reproducible batch workflows.

A command writes only its data files; `main` then writes the run's
manifest.json, capturing its resolved parameters and the toolkit version, and
`npagraph rerun manifest.json --out DIR` re-executes the recorded run and
reproduces the data files byte for byte.

The parser alone checks the settings: a flag's type holds its range,
`generate` takes a spec or --preset in a mutually exclusive group, and
--rho-min <= --rho-max, a rho lattice of at most 2**53 points and the
linear --weights of --mode composite follow the parse. `rerun` parses the
command line its manifest records, so a manifest is checked like a typed
command.
What depends on input data raises a typed error, and `main` alone returns
an exit code: 0 success, 2 input error (an `InputError`, an input that
cannot be read or held in memory, or a setting the parser rejects), 3
compute error (any other `NpaGraphError`), 4 no feasible vertex fraction in
a composite calibration, which still writes report.json and the manifest.

Importing this module loads only argparse, json and pathlib of the
standard library, and `errors` and `constants`, which holds the values the
parser needs, so --help and a setting the parser rejects exit before numpy
loads. Each command imports the modules it calls in its own body, and
`logging` loads only under -v or where a message is logged.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from . import __version__
from .constants import (GOWALLA_AER_MEAN_DEGREE, PRESET_NAMES, R_MIN,
                        RHO_REFINE_FACTOR, TOTAL_N, VARIANTS)
from .errors import AllRhoInfeasible, InputError, NpaGraphError, ValidationError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3
EXIT_INCOMPLETE = 4
REP_FILES = ("graph_rep{}.txt", "vdd_rep{}.csv", "edd_rep{}.csv")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(out: Path, command: str, params: dict) -> None:
    _write_json(out / "manifest.json", {
        "manifest_version": 1,
        "tool_version": __version__,
        "command": command,
        "params": params,
    })


def cmd_solve(params: dict, out: Path) -> None:
    from .calibrate import component_profile
    from .formats import edd_to_csv, vdd_to_csv
    from .models import load_model, validate_model
    spec = validate_model(load_model(Path(params["spec"]).read_text()))
    profile = component_profile(spec, params["umax"], params["kmax"], params["variant"])
    _write(out / "vdd.csv", vdd_to_csv(profile.vdd))
    _write(out / "edd.csv", edd_to_csv(profile.edd))
    _write_json(out / "solution.json", {
        **profile.record, "recurrence_variant": params["variant"]})


def _generate_one(spec_text: str, n: int, seed: int, rep: int, u: int,
                  out: Path) -> dict:
    from .formats import edd_to_csv, vdd_to_csv, write_edge_list
    from .growth import RngStream, grow, measure_edd, measure_vdd
    from .models import load_model
    graph = grow(load_model(spec_text), n, RngStream(seed, rep))
    # Measured before any file opens: a graph with nothing to measure
    # leaves no file of its replication.
    vdd, edd = vdd_to_csv(measure_vdd(graph)), edd_to_csv(measure_edd(graph, u))
    out.mkdir(parents=True, exist_ok=True)
    graph_path, vdd_path, edd_path = (out / name.format(rep) for name in REP_FILES)
    with open(graph_path, "w", newline="\n") as fh:
        write_edge_list(graph, fh)
    _write(vdd_path, vdd)
    _write(edd_path, edd)
    return {"rep": rep, "vertices": graph.vertex_count, "edges": graph.edge_count}


def cmd_generate(params: dict, out: Path) -> None:
    from .models import PRESETS, dump_model, load_model, size_violations
    n = params["n"]
    spec = (PRESETS[params["preset"]](n) if params["preset"]
            else load_model(Path(params["spec"]).read_text()))
    too_small = size_violations(spec, n)  # at n alone, whatever size spec holds
    if too_small:  # before anything is written
        raise ValidationError(too_small)
    spec_text = dump_model(spec)
    jobs = [(spec_text, n, params["seed"], rep, params["u"], out)
            for rep in range(params["reps"])]
    infos = []  # the replications whose files are written
    try:
        if params["threads"] > 1 and len(jobs) > 1:
            from concurrent.futures import (FIRST_EXCEPTION,
                                            ProcessPoolExecutor, wait)
            with ProcessPoolExecutor(max_workers=params["threads"]) as pool:
                runs = [pool.submit(_generate_one, *job) for job in jobs]
                wait(runs, return_when=FIRST_EXCEPTION)
                pool.shutdown(cancel_futures=True)  # those not yet started
            runs = [run for run in runs if not run.cancelled()]
            infos = [run.result() for run in runs if not run.exception()]
            for run in runs:
                run.result()  # raises the first failure, in replication order
        else:
            for job in jobs:  # the first failure ends the run
                infos.append(_generate_one(*job))
    except Exception:  # every replication has ended: remove what they wrote
        for info in infos:
            for name in REP_FILES:
                (out / name.format(info["rep"])).unlink()
        raise
    _write(out / "model.json", spec_text + "\n")
    _write_json(out / "runs.json", {"replications": infos})


def cmd_ingest(params: dict, out: Path) -> None:
    from .formats import edd_to_csv, id_map_csv, load_edge_list, vdd_counts_csv
    from .growth import measure_edd, measure_vdd, summarize
    from .models import select_u
    graph, ids, counts = load_edge_list(params["dataset"])
    vdd = measure_vdd(graph)
    edd = measure_edd(graph, min(vdd.max_degree, params["edd_extent"]))
    u = select_u(edd, params["u_mass"])
    _write(out / "vdd.csv", vdd_counts_csv(vdd, graph.vertex_count))
    _write(out / "edd.csv", edd_to_csv(edd))
    _write(out / "id_map.csv", id_map_csv(ids))
    _write_json(out / "summary.json", {
        **summarize(graph),
        "selected_u": u,
        **counts,
        "max_degree": vdd.max_degree,
    })


def cmd_calibrate(params: dict, out: Path) -> None:
    from dataclasses import replace

    from .calibrate import CalibrationTarget, fit
    from .formats import edd_from_csv, vdd_from_csv
    from .models import (BaTreeSpec, dump_model, preset_gowalla, select_u,
                         validate_model)
    target_dir = Path(params["target"])
    vdd = vdd_from_csv(target_dir / "vdd.csv")
    edd = edd_from_csv(target_dir / "edd.csv")
    meta = _target_meta(target_dir / "summary.json")
    u = params["u"]
    if u is None:
        u = meta.get("selected_u") or select_u(edd)
    target = CalibrationTarget(vdd=vdd, edd=edd, u=u,
                               mean_increment=meta.get("derived_m"))
    first = None if params["mode"] == "single" else validate_model(
        BaTreeSpec() if params["first"] == "ba-tree"
        else replace(preset_gowalla(TOTAL_N).components[0][0], a=params["aer_a"]))
    result = fit(target, first, params["weights"], params["rmax"], params["rho_min"],
                 params["rho_max"], params["rho_step"])
    _write(out / "model.json", dump_model(result.model) + "\n")
    _write_json(out / "report.json", {
        "distance": result.distance,
        "vdd_tv_error": result.vdd_tv_error,
        "evaluations": result.evaluations,
        "solver_failures": result.solver_failures,
        "failure_types": result.failure_types,
        "details": {**result.report, "target_meta": meta},
    })


def _target_meta(path: Path) -> dict:
    """The target's summary.json, {} when there is none. An InputError
    names the file and the key when it holds no object, a selected_u that
    is no integer above 0, or a derived_m that is no finite number above 0."""
    if not path.exists():
        return {}
    meta = json.loads(path.read_text())
    if not isinstance(meta, dict):
        raise InputError(f"{path}: expected a JSON object holding "
                         f"'selected_u' and 'derived_m', got {meta!r}")
    u, m = meta.get("selected_u"), meta.get("derived_m")
    if u is not None and not (type(u) is int and u >= 1):
        raise InputError(f"{path}: 'selected_u' must be an integer above 0, "
                         f"got {u!r}")
    if m is not None and not (type(m) in (int, float) and 0.0 < m < float("inf")):
        raise InputError(f"{path}: 'derived_m' must be a finite number "
                         f"above 0, got {m!r}")
    return meta


def cmd_compare(params: dict, out: Path) -> None:
    from .formats import edd_from_csv, matrix_csv
    from .models import edd_distance
    a = edd_from_csv(params["edd_a"])
    b = edd_from_csv(params["edd_b"])
    g = params["g"] if params["g"] is not None else max(a.min_degree, b.min_degree)
    u = params["u"] if params["u"] is not None else min(a.max_degree, b.max_degree)
    distance = edd_distance(a, b, g, u)
    _write(out / "diff.csv",
           matrix_csv("l,k,difference", g, a.window(g, u) - b.window(g, u)))
    _write_json(out / "distance.json", {"distance": distance, "g": g, "u": u})
    print(repr(distance))


_DISPATCH = {
    "solve": cmd_solve,
    "generate": cmd_generate,
    "ingest": cmd_ingest,
    "calibrate": cmd_calibrate,
    "compare": cmd_compare,
}


def _ranged(kind, within, need: str):
    """An argparse type: the text read by kind, rejected unless within holds
    for it. NaN fails every range, since each of its comparisons is false."""
    def read(text: str):
        value = kind(text)
        if not within(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value
    read.__name__ = kind.__name__  # "invalid int value: 'x'"
    return read


def _add_out(parser: argparse.ArgumentParser) -> None:
    """Output directory; NPAGRAPH_OUT provides the default when set. -v is
    no setting of the run: like --help it stays out of the parsed settings
    unless given, so no manifest records it."""
    default = os.environ.get("NPAGRAPH_OUT")
    parser.add_argument("--out", default=default, required=default is None)
    parser.add_argument("-v", "--verbose", action="count", default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npagraph",
        description="Growing-graph degree distributions: solve, simulate, "
                    "ingest, calibrate.")
    sub = parser.add_subparsers(dest="command", required=True)
    at_least_1 = _ranged(int, lambda v: v >= 1, "at least 1")
    fraction = _ranged(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")

    p = sub.add_parser("solve", help="solve analytic degree distributions")
    p.add_argument("spec", help="model spec JSON file")
    p.add_argument("--kmax", type=int, default=10000)
    p.add_argument("--umax", type=int, default=300)
    p.add_argument("--variant", default=VARIANTS[0], choices=VARIANTS)
    _add_out(p)

    p = sub.add_parser("generate", help="grow graphs by simulation")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("spec", nargs="?", help="model spec JSON file")
    source.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--n", type=int, default=TOTAL_N)
    p.add_argument("--seed", default=0,
                   type=_ranged(int, lambda v: v >= 0, "at least 0"))
    p.add_argument("--reps", type=at_least_1, default=1)
    p.add_argument("--u", type=at_least_1, default=300,
                   help="extent of the measured edge matrix")
    p.add_argument("--threads", type=at_least_1, default=1)
    _add_out(p)

    p = sub.add_parser("ingest", help="ingest a network edge list")
    p.add_argument("dataset", help="edge-list file (optionally .gz)")
    p.add_argument("--u-mass", dest="u_mass", default=0.95,
                   type=_ranged(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"))
    p.add_argument("--edd-extent", dest="edd_extent", type=at_least_1,
                   default=500)
    _add_out(p)

    p = sub.add_parser("calibrate", help="fit a model to an ingested target")
    p.add_argument("target", help="directory produced by ingest")
    p.add_argument("--mode", default="single", choices=["single", "composite"])
    p.add_argument("--first", default="ba-tree", choices=["ba-tree", "aer"])
    p.add_argument("--weights", default="linear", choices=["linear", "table-free"])
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--rmax", default=50, type=_ranged(
        int, lambda v: v >= R_MIN, f"at least {R_MIN}"))
    p.add_argument("--rho-min", dest="rho_min", type=fraction, default=0.025)
    p.add_argument("--rho-max", dest="rho_max", type=fraction, default=0.975)
    p.add_argument("--rho-step", dest="rho_step", default=0.025, type=_ranged(
        float, lambda v: 0.0 < v < float("inf"), "above 0 and finite"))
    p.add_argument("--aer-a", dest="aer_a", type=float,
                   default=GOWALLA_AER_MEAN_DEGREE)
    _add_out(p)

    p = sub.add_parser("compare", help="distance between two edge matrices")
    p.add_argument("edd_a")
    p.add_argument("edd_b")
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--u", type=int, default=None)
    _add_out(p)

    p = sub.add_parser("rerun", help="re-execute a recorded manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=None)
    p.add_argument("-v", "--verbose", action="count", default=argparse.SUPPRESS)
    return parser


def _replay(commands: dict, args: dict) -> list[str]:
    """The command line a manifest records: each setting of its command as
    --flag=value and each positional in order, a null one left out; rerun's
    own --out, when given, replaces the recorded one. A recorded setting
    the command does not take is rejected, since the run it records could
    not be reproduced without it."""
    rerun = commands["rerun"]
    manifest = json.loads(Path(args["manifest"]).read_text())
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if command not in list(_DISPATCH) or not isinstance(manifest.get("params"), dict):
        rerun.error(f"a manifest holds 'params' and a 'command' of "
                    f"{', '.join(_DISPATCH)}, got command {command!r}")
    params = {**manifest["params"], "out": args["out"] or manifest["params"].get("out")}
    settings = [action for action in commands[command]._actions
                if action.default is not argparse.SUPPRESS]  # not --help or -v
    unknown = sorted(set(params) - {action.dest for action in settings})
    if unknown:
        rerun.error(f"the {command} manifest records a setting {command} "
                    f"does not take: {', '.join(map(repr, unknown))}")
    argv = [command]
    for action in settings:
        if action.dest not in params:
            rerun.error(f"the {command} manifest lacks {action.dest!r}")
        value = params[action.dest]
        if value is not None:
            argv.append(f"{action.option_strings[-1]}={value}"
                        if action.option_strings else str(value))
    return argv


def _parse(argv: list[str] | None) -> tuple[str, dict]:
    """The command and its settings, each checked by the parser; `rerun`
    parses the command line its manifest records."""
    parser = build_parser()
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    args = vars(parser.parse_args(argv))
    if args.pop("verbose", 0):
        import logging
        logging.basicConfig(level=logging.INFO)
    if args["command"] == "rerun":
        args = vars(parser.parse_args(_replay(commands, args)))
    command = args.pop("command")
    if command == "calibrate":
        if not args["rho_min"] <= args["rho_max"]:
            commands[command].error(f"need --rho-min <= --rho-max, got "
                                    f"{args['rho_min']} and {args['rho_max']}")
        points = ((args["rho_max"] - args["rho_min"]) * RHO_REFINE_FACTOR
                  / args["rho_step"])
        if points > 2**53:  # a float lattice index could not narrow the search
            commands[command].error(f"--rho-step {args['rho_step']} makes a rho "
                                    f"lattice of {points:.3g} points, above 2**53")
        if args["mode"] == "composite" and args["weights"] != "linear":
            commands[command].error(f"--mode composite fits linear weights, "
                                    f"got --weights {args['weights']}")
    return command, args


def main(argv: list[str] | None = None) -> int:
    """Run one command, write its manifest, and return its exit code."""
    try:
        command, params = _parse(argv)
        out = Path(params["out"])
        code = EXIT_OK
        try:
            _DISPATCH[command](params, out)
        except AllRhoInfeasible as exc:
            _write_json(out / "report.json", {"error": str(exc)})
            print(f"optimization incomplete: {exc}", file=sys.stderr)
            code = EXIT_INCOMPLETE
        _write_manifest(out, command, params)
        return code
    except SystemExit as exc:  # the parser's: --help, or a rejected setting
        return exc.code
    except (InputError, OSError, MemoryError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NpaGraphError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def run() -> None:
    """The process entry (`npagraph` and `python -m npagraph.cli`).

    The collector is off for the whole process: the objects a command
    leaves in reference cycles, about 850, all come from its imports, so
    the 30 or so collections while numpy and the package import, and the
    one at exit, would free next to nothing. Once `main` returns, the
    output streams are flushed and the process ends at once, without the
    interpreter's teardown. Every file a command writes is closed before
    `main` returns, and `generate --threads` shuts its pool down first.
    `main` changes neither, so a caller that runs it in process keeps its
    own collector and exit, and an exception that escapes `main` ends the
    process through the interpreter (traceback, exit 1).
    """
    gc.disable()
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
