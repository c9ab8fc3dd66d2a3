#!/usr/bin/env python3
"""Digest what a fixed set of CLI commands writes, to check that a change
keeps every data file's bytes.

Usage: python scripts/output_digests.py OUT

OUT must be empty or absent. Runs COMMANDS in order through
`python -m npagraph.cli`, each in the directory OUT with relative paths,
against the `src/` of the tree this script lives in. Prints one `sha256  path` line per file the commands
write, except the manifests (they record the tool version), then one line
per command with its exit code and the digests of its stdout and stderr.
Run it in two trees (copy it into the older one) and diff the two
outputs: no line should differ.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SPECS = {
    "ba_tree.json": {"type": "ba_tree"},
    "power_1.json": {
        "type": "npa",
        "weights": {"g": 1, "rule": "power", "alpha": 1.0},
        "increments": {"min_arcs": 1, "probs": [0.5, 0.3, 0.2]}},
    "degree_table.json": {
        "type": "npa",
        "weights": {"g": 1, "rule": "linear", "table": [1, 2, 3, 4, 5]},
        "increments": {"min_arcs": 1, "probs": [0.5, 0.3, 0.2]}},
}

_GOWALLA, _BRIGHTKITE = "gowalla_ingest", "brightkite_ingest"
_RECORDED = [  # (output directory, argv without --out); each is rerun
    ("gowalla_generate", ["generate", "--preset", "gowalla", "--n", "100000",
                          "--seed", "1"]),
    (_GOWALLA, ["ingest", "gowalla_generate/graph_rep0.txt"]),
    ("brightkite_generate", ["generate", "--preset", "brightkite",
                             "--n", "20000", "--seed", "2"]),
    (_BRIGHTKITE, ["ingest", "brightkite_generate/graph_rep0.txt"]),
    ("gowalla_single", ["calibrate", _GOWALLA, "--u", "40", "-v"]),
    ("gowalla_ba_tree", ["calibrate", _GOWALLA, "--u", "40", "--mode",
                         "composite", "--first", "ba-tree", "-v"]),
    ("gowalla_aer", ["calibrate", _GOWALLA, "--u", "40", "--mode",
                     "composite", "--first", "aer", "-v"]),
    ("gowalla_rho_range", ["calibrate", _GOWALLA, "--u", "40", "--mode",
                           "composite", "--rho-min", "0.9", "--rho-max",
                           "0.975", "-v"]),
    ("gowalla_rho_infeasible", ["calibrate", _GOWALLA, "--u", "40", "--mode",
                                "composite", "--rho-min", "0.95", "--rho-max",
                                "0.975", "-v"]),
    ("gowalla_table_free", ["calibrate", _GOWALLA, "--u", "40", "--weights",
                            "table-free", "-v"]),
    ("brightkite_ba_tree", ["calibrate", _BRIGHTKITE, "--mode", "composite",
                            "--first", "ba-tree", "-v"]),
    ("brightkite_table_free", ["calibrate", _BRIGHTKITE, "--weights",
                               "table-free", "--rmax", "10", "--u", "40",
                               "-v"]),
]
COMMANDS = [  # (output directory, argv), in the order they run
    *((name, [*argv, "--out", name]) for name, argv in _RECORDED),
    *((f"{name}_rerun", ["rerun", f"{name}/manifest.json",
                         "--out", f"{name}_rerun"]) for name, _ in _RECORDED),
    ("gowalla_compare", ["compare", "gowalla_generate/edd_rep0.csv",
                         f"{_GOWALLA}/edd.csv", "--out", "gowalla_compare"]),
    *((f"solve_{spec[:-5]}", ["solve", spec, "--out", f"solve_{spec[:-5]}"])
      for spec in SPECS),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python scripts/output_digests.py OUT", file=sys.stderr)
        return 2
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    for name, spec in SPECS.items():
        (out / name).write_text(json.dumps(spec) + "\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    runs = []
    for name, argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "npagraph.cli", *argv],
                              cwd=out, env=env, capture_output=True)
        runs.append(f"{name}  exit {proc.returncode}  stdout "
                    f"{_sha256(proc.stdout)}  stderr {_sha256(proc.stderr)}")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name != "manifest.json":
            print(f"{_sha256(path.read_bytes())}  {path.relative_to(out)}")
    print("\n".join(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
