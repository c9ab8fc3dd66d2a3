import importlib.util
import json
import os
import pickle
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from npagraph import (BaTreeSpec, CompositeSpec, DegreeDistribution,
                      EdgeDegreeMatrix, EmptyInput, IncrementDistribution,
                      NpaModelSpec, WeightFunction, dump_model, load_model,
                      solve_arc_dd, solve_vdd, symmetrize, validate_model)
from npagraph import cli, errors
from npagraph.cli import main
from npagraph.formats import edd_from_csv, edd_to_csv, vdd_to_csv


def _first_fails_others_slow(spec_text, n, seed, rep, u, out):
    """A stand-in for cli._generate_one: replication 0 fails at once; each
    other one marks that it ran in the folder beside `out`, sleeps, and
    writes its three files."""
    if rep == 0:
        raise EmptyInput("replication 0 fails")
    (out.parent / "ran" / str(rep)).touch()
    time.sleep(0.5)
    for name in cli.REP_FILES:
        (out / name.format(rep)).write_text("")
    return {"rep": rep, "vertices": n, "edges": 0}


def _write_ba_spec(path: Path) -> Path:
    spec_file = path / "ba.json"
    spec_file.write_text(dump_model(BaTreeSpec()) + "\n")
    return spec_file


def _readme_specs() -> dict:
    """The specs of README.md's schema block by type, the composite with a
    composite part as "nested"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Model spec schema (JSON)")[1]
    block = re.sub(r"//[^\n]*", "", block.split("```jsonc\n")[1].split("```")[0])
    specs = {}
    for chunk in re.split(r"\n\s*\n", block.strip()):  # one spec per paragraph
        spec = json.loads(chunk)
        nested = any(c["model"]["type"] == "composite"
                     for c in spec.get("components", ()))
        specs["nested" if nested else spec["type"]] = spec
    return specs


def _write_readme_spec(path: Path, name: str) -> Path:
    spec_file = path / f"{name}.json"
    spec_file.write_text(json.dumps(_readme_specs()[name]))
    return spec_file


def _tree_bytes(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args: str, **run) -> subprocess.CompletedProcess:
    """A fresh interpreter run with these arguments, the package's source
    first on its path, so that it imports npagraph uninstalled; run holds
    further arguments of subprocess.run. Its output to a pipe stays
    block-buffered, as a plain shell leaves it, so output that the process
    loses at exit shows."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, **run)


def _address_space(limit: int) -> int:
    """limit in bytes, or this process's hard address-space limit if lower;
    skips the test where the resource module is missing."""
    resource = pytest.importorskip("resource")
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    return limit if hard == resource.RLIM_INFINITY else min(limit, hard)


def _modules_after(code: str, *roots: str) -> list[str]:
    """The modules at or under roots that a fresh interpreter holds after
    running code."""
    code += ("\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules if any(\n"
             f"    m == r or m.startswith(r + '.') for r in {roots!r}))))\n")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestSolveCommand:
    def test_ba_solution_files(self, tmp_path):
        spec = _write_ba_spec(tmp_path)
        out = tmp_path / "out"
        code = main(["solve", str(spec), "--kmax", "2000", "--umax", "30",
                     "--out", str(out)])
        assert code == 0
        first = (out / "vdd.csv").read_text().splitlines()[1]
        degree, prob = first.split(",")
        assert degree == "1"
        assert abs(float(prob) - 2.0 / 3.0) < 1e-9
        solution = json.loads((out / "solution.json").read_text())
        assert abs(solution["mean_weight"] - 2.0) < 1e-8
        assert solution["control_residual"] < 1e-6

    @pytest.mark.parametrize("weights,probs,seed_graph,code", [
        ({"g": 1, "M": None, "rule": "linear"}, [0.5, 0.4], "default",
         "NonNormalized"),
        # 10**400 overflows: an infinite weight, not a crash.
        ({"g": 1, "M": 10, "rule": "power", "alpha": 400.0}, [1.0], "default",
         "WeightSignViolation"),
        # No rule and no table: the seed's degree has no weight.
        ({"g": 1}, [1.0], "default", "EmptySupport"),
        # (-2)**0.5 is NaN, no weight (0.33.0: a TypeError on a complex
        # number, exit 1).
        ({"g": -2, "M": None, "rule": "power", "alpha": 0.5}, [1.0], "default",
         "f_-2 = nan is not positive and finite"),
        # Only the default seed graph has a name.
        ({"g": 1, "M": None, "rule": "linear"}, [1.0], "star",
         "unknown seed graph name 'star'"),
        # A seed edge names a vertex the seed does not have.
        ({"g": 1, "M": None, "rule": "linear"}, [1.0],
         {"vertices": 2, "edges": [[0, 5]]}, "SeedIdOutOfRange"),
        # A seed graph cannot have fewer than no vertices.
        ({"g": 1, "M": None, "rule": "linear"}, [1.0],
         {"vertices": -1, "edges": []}, "EmptySupport"),
        ({"g": 2, "M": 1, "rule": "linear"}, [1.0], "default",
         "M = 1 < g = 2"),
        ({"g": 1, "M": None, "rule": "cubic"}, [1.0], "default",
         "unknown weight rule 'cubic'"),
        ({"g": 1, "M": None, "rule": "linear"}, [], "default",
         "increment distribution has no mass"),
        ({"g": 1, "M": None, "rule": "linear"}, [1.5, -0.5], "default",
         "r_2 = -0.5 is not a probability"),
        # A whole increments object in place of the probabilities.
        ({"g": 1, "M": None, "rule": "linear"},
         {"min_arcs": -1, "probs": [1.0]}, "default",
         "negative minimum arc count -1"),
        # Uncapped superlinear weights: the spec has no stationary law
        # (0.36.0: NoConvergence, exit 3).
        ({"g": 1, "rule": "power", "alpha": 1.5}, [1.0], "default",
         "NoStationaryLaw"),
    ])
    def test_invalid_spec_exit_2(self, tmp_path, capsys, weights, probs,
                                 seed_graph, code):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "type": "npa",
            "weights": weights,
            "increments": (probs if isinstance(probs, dict)
                           else {"min_arcs": 1, "probs": probs}),
            "seed_graph": (seed_graph if isinstance(seed_graph, dict)
                           else {"name": seed_graph}),
        }))
        assert main(["solve", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert code in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("source", ["aer", "gowalla", "brightkite", "nested"])
    def test_every_written_spec_solves(self, tmp_path, source):
        # A bare AER spec, the model.json generate writes for each preset
        # and a composite nested in a composite: solve writes its three
        # files, and rerun reproduces them byte for byte.
        if source in ("aer", "nested"):
            spec = _write_readme_spec(tmp_path, source)
        else:
            assert main(["generate", "--preset", source, "--n", "2000",
                         "--u", "10", "--out", str(tmp_path / "gen")]) == 0
            spec = tmp_path / "gen" / "model.json"
        out, again = tmp_path / "run1", tmp_path / "run2"
        assert main(["solve", str(spec), "--kmax", "2000", "--umax", "25",
                     "--out", str(out)]) == 0
        assert main(["rerun", str(out / "manifest.json"),
                     "--out", str(again)]) == 0
        first, second = _tree_bytes(out), _tree_bytes(again)
        assert sorted(first) == ["edd.csv", "manifest.json", "solution.json",
                                 "vdd.csv"]
        assert all(first[name] == second[name] for name in first
                   if name != "manifest.json")
        solution = json.loads(first["solution.json"])
        assert edd_from_csv(out / "edd.csv").max_degree == 25
        components = solution.get("components", [])
        for part in components:
            assert {"mean_increment", "kept", "vertex_share"} <= set(part)
        if components:
            shares = [part["vertex_share"] for part in components]
            assert sum(shares) == pytest.approx(1.0, abs=1e-12)
            assert solution["mean_increment"] == pytest.approx(
                sum(s * p["mean_increment"] for s, p in zip(shares, components)),
                rel=1e-12)

    def test_composite_solution_records_each_component(self, tmp_path):
        # The gowalla preset: its AER component is measured from AER_REPS
        # replicates from AER_SEED, and its vertex share is its growth
        # budget times its kept share, renormalised.
        from npagraph import calibrate
        from npagraph.models import GOWALLA_RHO as rho
        assert main(["generate", "--preset", "gowalla", "--n", "2000",
                     "--u", "10", "--out", str(tmp_path / "gen")]) == 0
        out = tmp_path / "solve"
        assert main(["solve", str(tmp_path / "gen" / "model.json"), "--kmax",
                     "2000", "--umax", "20", "--out", str(out)]) == 0
        solution = json.loads((out / "solution.json").read_text())
        aer, growth = solution["components"]
        assert (aer["aer_seed"], aer["aer_replicates"]) == (
            calibrate.AER_SEED, calibrate.AER_REPS)
        assert 0.5 < aer["kept"] < 1.0 and growth["kept"] == 1.0
        assert "mean_weight" in growth and "mean_weight" not in aer
        assert solution["kept"] == pytest.approx(
            rho * aer["kept"] + 1.0 - rho, rel=1e-12)
        assert aer["vertex_share"] == pytest.approx(
            rho * aer["kept"] / solution["kept"], rel=1e-12)

    def test_composite_without_arcs(self, tmp_path):
        # Every component brings no arcs, its law written with and without
        # a zero tail: the mixture weights them by their vertex shares
        # (0.35.0 ended in a ZeroDivisionError, exit 1).
        no_arcs = [NpaModelSpec(weights=WeightFunction.constant(1.0, g=0),
                                increments=IncrementDistribution(0, probs))
                   for probs in [(1.0,), (1.0, 0.0)]]
        spec = tmp_path / "spec.json"
        spec.write_text(dump_model(CompositeSpec(
            components=((no_arcs[0], 0.5), (no_arcs[1], 0.5)), total_n=1000)))
        out = tmp_path / "o"
        assert main(["solve", str(spec), "--kmax", "50", "--umax", "10",
                     "--out", str(out)]) == 0
        solution = json.loads((out / "solution.json").read_text())
        assert solution["mean_increment"] == 0.0
        assert solution["edd_truncation_mass"] == 1.0
        edd = edd_from_csv(out / "edd.csv")
        assert edd.entries.shape == (11, 11) and not edd.entries.any()
        assert (out / "vdd.csv").read_text().splitlines()[1] == "0,1.0"

    def test_kmax_below_umax_exit_2(self, tmp_path, capsys):
        spec = _write_ba_spec(tmp_path)
        assert main(["solve", str(spec), "--kmax", "5", "--umax", "300",
                     "--out", str(tmp_path / "o")]) == 2
        assert "last stored vertex degree" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kmax,umax", [("0", "0"), ("300", "0")])
    def test_extent_below_g_exit_2(self, tmp_path, kmax, umax):
        spec = _write_ba_spec(tmp_path)
        assert main(["solve", str(spec), "--kmax", kmax, "--umax", umax,
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


    def test_rerun_byte_identical(self, tmp_path):
        spec = _write_ba_spec(tmp_path)
        out1 = tmp_path / "run1"
        assert main(["solve", str(spec), "--kmax", "1500", "--umax", "25",
                     "--out", str(out1)]) == 0
        out2 = tmp_path / "run2"
        assert main(["rerun", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == 0
        a = _tree_bytes(out1)
        b = _tree_bytes(out2)
        # The manifest records the output directory; data files must agree.
        for name in a:
            if name != "manifest.json":
                assert a[name] == b[name], name


class TestGenerateCommand:
    def test_ba_tree_edge_count(self, tmp_path):
        spec = _write_ba_spec(tmp_path)
        out = tmp_path / "gen"
        code = main(["generate", str(spec), "--n", "1000", "--seed", "7",
                     "--u", "50", "--out", str(out)])
        assert code == 0
        lines = (out / "graph_rep0.txt").read_text().splitlines()
        header = lines[0]
        assert "Nodes: 1000" in header
        assert "Edges: 999" in header
        edges = [ln for ln in lines if not ln.startswith("#")]
        assert len(edges) == 999

    def test_replications_distinct_and_reproducible(self, tmp_path):
        spec = _write_ba_spec(tmp_path)
        out1 = tmp_path / "g1"
        assert main(["generate", str(spec), "--n", "300", "--seed", "3",
                     "--reps", "2", "--u", "20", "--out", str(out1)]) == 0
        rep0 = (out1 / "graph_rep0.txt").read_bytes()
        rep1 = (out1 / "graph_rep1.txt").read_bytes()
        assert rep0 != rep1
        out2 = tmp_path / "g2"
        assert main(["rerun", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == 0
        assert (out2 / "graph_rep0.txt").read_bytes() == rep0
        assert (out2 / "graph_rep1.txt").read_bytes() == rep1

    def test_preset_requires_or_spec(self, tmp_path, capsys):
        assert main(["generate", "--out", str(tmp_path / "x")]) == 2
        assert "one of the arguments spec --preset is required" in \
            capsys.readouterr().err

    def test_spec_and_preset_exit_2(self, tmp_path, capsys):
        # 0.21.0 grew the preset and ignored the spec.
        assert main(["generate", str(_write_ba_spec(tmp_path)), "--preset",
                     "gowalla", "--n", "100", "--out", str(tmp_path / "o")]) == 2
        assert "argument --preset: not allowed with argument spec" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spec,key", [
        ({"type": "npa"}, "missing key 'weights'"),
        ({"type": "aer", "n1": "x", "a": 2}, "key 'n1' holds 'x'"),
        ([1, 2], "expected a JSON object holding 'type', got [1, 2]"),
        ({"type": "npa", "weights": {"g": 1, "rule": "linear"},
          "increments": {"min_arcs": 1, "probs": "ab"}}, "key 'probs' holds 'ab'"),
        # A misspelt key is rejected, not read as the default of the key
        # meant: f_k = k, an AER model without a share, the default seed.
        ({"type": "npa", "weights": {"g": 1, "rule": "power", "alpah": 0.5},
          "increments": {"min_arcs": 1, "probs": [1.0]}},
         "unknown keys ['alpah']; known keys ['g', 'M', 'rule', 'alpha', "
         "'value', 'table']"),
        ({"type": "aer", "n1": 200, "a": 2.0, "rho": 0.3},
         "unknown keys ['rho']; known keys ['type', 'n1', 'a']"),
        ({"type": "npa", "weights": {"g": 1, "rule": "linear"},
          "increments": {"min_arcs": 1, "probs": [1.0]},
          "seed_graph": {"vertices": 5}},
         "unknown keys ['vertices']; known keys ['name']"),
    ], ids=["missing_key", "non_numeric", "not_an_object", "probs_string",
            "unknown_weights_key", "unknown_aer_key", "unknown_seed_key"])
    def test_malformed_spec_exit_2(self, tmp_path, capsys, spec, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "o"
        for command in (["solve", str(path)],
                        ["generate", str(path), "--n", "100"]):
            assert main([*command, "--out", str(out)]) == 2
            assert f"input error: MalformedSpec: {key}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("name", ["npa", "ba_tree", "aer", "composite",
                                      "nested"])
    def test_every_spec_type_grows_to_n(self, tmp_path, name):
        out = tmp_path / "o"
        assert main(["generate", str(_write_readme_spec(tmp_path, name)),
                     "--n", "600", "--seed", "2", "--u", "20",
                     "--out", str(out)]) == 0
        vertices = json.loads((out / "runs.json").read_text())[
            "replications"][0]["vertices"]
        if name in ("aer", "composite"):  # the README's composite holds an AER
            assert 0 < vertices <= 600  # pruning removes vertices
        else:
            assert vertices == 600

    @pytest.mark.parametrize("spec,n", [
        # Budgets 501 and 500: rounding each half on its own gave 500 twice.
        ({"type": "composite", "total_n": 1001, "components": [
            {"rho": 0.5, "model": {"type": "ba_tree"}},
            {"rho": 0.5, "model": {"type": "ba_tree"}}]}, 1001),
        # The inner composite's own total_n of 2 would give its parts one
        # vertex each; it grows at its budget of 500.
        ({"type": "composite", "total_n": 1000, "components": [
            {"rho": 0.5, "model": {"type": "ba_tree"}},
            {"rho": 0.5, "model": {"type": "composite", "total_n": 2,
                                   "components": [
                                       {"rho": 0.5, "model": {"type": "ba_tree"}},
                                       {"rho": 0.5, "model": {"type": "ba_tree"}}]}}]},
         1000),
        # At its own total_n of 4 the g = 2 half would get 2 vertices, below
        # its seed graph's 3; 0.28.0 checked it there and exited 2.
        ({"type": "composite", "total_n": 4, "components": [
            {"rho": 0.5, "model": {"type": "ba_tree"}},
            {"rho": 0.5, "model": {"type": "npa",
                                   "weights": {"g": 2, "rule": "linear"},
                                   "increments": {"min_arcs": 2, "probs": [1.0]}}}]},
         1000),
    ], ids=["odd_n", "nested_total_n", "spec_total_n_below_seed"])
    def test_composite_grows_to_exactly_n(self, tmp_path, spec, n):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "o"
        assert main(["generate", str(spec_file), "--n", str(n), "--seed", "4",
                     "--u", "20", "--out", str(out)]) == 0
        runs = json.loads((out / "runs.json").read_text())
        assert runs["replications"][0]["vertices"] == n

    @pytest.mark.parametrize("source,n,message", [
        ("spec", 1, "EmptySupport: n = 1 is below the seed graph's 2 vertices"),
        ("gowalla", 1, "EmptySupport: component 0: n1 = 0 leaves no vertex "
                       "pairs"),
        ("brightkite", 1, "EmptySupport: component 0: n = 0 is below the "
                          "seed graph's 2 vertices"),
        # An AER model is scanned on --n vertices, p_a = a / (n - 1).
        ("aer", 2, "NonNormalized: base probability p_a = 2.75 outside (0, 1]"),
        # The AER component's budget is round(0.35 * 6) = 2.
        ("composite", 6, "NonNormalized: component 0: base probability "
                         "p_a = 2.75 outside (0, 1]"),
        # The inner composite's budget of 2 gives its parts 1 vertex each.
        ("nested", 4, "EmptySupport: component 1: component 0: n = 1 is "
                      "below the seed graph's 2 vertices")])
    def test_n_below_seed_exit_2(self, tmp_path, capsys, source, n, message):
        if source == "spec":
            src = [str(_write_ba_spec(tmp_path))]
        elif source in ("gowalla", "brightkite"):
            src = ["--preset", source]
        else:
            src = [str(_write_readme_spec(tmp_path, source))]
        assert main(["generate", *src, "--n", str(n),
                     "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--u", "0"),  # an edge matrix up to degree 0 has no cells
        ("--reps", "0"),  # no replication would leave an empty runs.json
        ("--reps", "-1"),
    ])
    def test_setting_below_one_exit_2(self, tmp_path, capsys, flag, value):
        assert main(["generate", str(_write_ba_spec(tmp_path)), "--n", "100",
                     flag, value, "--out", str(tmp_path / "o")]) == 2
        assert f"argument {flag}: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_vertex_count_writes_nothing(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "type": "npa", "weights": {"g": 1, "M": None, "rule": "linear"},
            "increments": {"min_arcs": 1, "probs": [1.0]},
            "seed_graph": {"vertices": -1, "edges": []}}))
        out = tmp_path / "o"
        for command in (["solve", str(spec)],
                        ["generate", str(spec), "--n", "100"]):
            assert main([*command, "--out", str(out)]) == 2
            assert "EmptySupport" in capsys.readouterr().err
            assert not out.exists()

    def test_aer_spec(self, tmp_path):
        from npagraph import AerModelSpec
        spec = tmp_path / "aer.json"
        spec.write_text(dump_model(AerModelSpec(n1=500, a=2.5)) + "\n")
        out = tmp_path / "aer"
        assert main(["generate", str(spec), "--n", "500", "--seed", "3",
                     "--u", "20", "--out", str(out)]) == 0
        rep0 = json.loads((out / "runs.json").read_text())["replications"][0]
        lines = (out / "graph_rep0.txt").read_text().splitlines()
        assert f"Nodes: {rep0['vertices']} Edges: {rep0['edges']}" in lines[0]
        # Pruning removed isolated vertices, so the VDD starts at degree 1.
        assert 0 < rep0["vertices"] < 500
        assert (out / "vdd_rep0.csv").read_text().splitlines()[1].startswith("1,")
        assert main(["rerun", str(out / "manifest.json"),
                     "--out", str(tmp_path / "again")]) == 0
        assert (tmp_path / "again" / "graph_rep0.txt").read_bytes() == \
            (out / "graph_rep0.txt").read_bytes()

    def test_aer_spec_checked_at_n_alone(self, tmp_path):
        # p_a = 2.75 / 2 at the spec's own n1 = 3, but --n scans 2000
        # vertices; 0.28.0 checked the spec at n1 and exited 2.
        spec = tmp_path / "aer.json"
        spec.write_text(json.dumps({"type": "aer", "n1": 3, "a": 2.75}))
        assert main(["generate", str(spec), "--n", "2000", "--seed", "1",
                     "--u", "20", "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_replication_removes_the_files_of_its_run(
            self, tmp_path, capsys, threads):
        # At seed 1 replication 0 grows an edge and replications 1 and 2
        # none. 0.28.0 left replication 0's three files behind.
        spec = tmp_path / "edgeless.json"
        spec.write_text(json.dumps({
            "type": "npa",
            "weights": {"g": 0, "rule": "constant", "value": 1.0},
            "increments": {"min_arcs": 0, "probs": [0.5, 0.5]},
            "seed_graph": {"vertices": 3, "edges": []}}))
        out = tmp_path / "o"
        out.mkdir()
        kept = {"notes.txt": b"mine", "graph_rep1.txt": b"an earlier run's"}
        for name, data in kept.items():
            (out / name).write_bytes(data)
        assert main(["generate", str(spec), "--n", "4", "--reps", "3",
                     "--seed", "1", "--u", "5", "--threads", threads,
                     "--out", str(out)]) == 2
        assert "graph has no edges to measure" in capsys.readouterr().err
        assert _tree_bytes(out) == kept

    def test_failed_replication_stops_the_pool(self, tmp_path, capsys,
                                               monkeypatch):
        # 0.29.0 ran all 11 replications after replication 0 had failed.
        monkeypatch.setattr(cli, "_generate_one", _first_fails_others_slow)
        out, ran = tmp_path / "o", tmp_path / "ran"
        out.mkdir()
        ran.mkdir()
        assert main(["generate", "--preset", "gowalla", "--n", "1000",
                     "--reps", "12", "--threads", "2",
                     "--out", str(out)]) == 2
        assert "replication 0 fails" in capsys.readouterr().err
        assert len(list(ran.iterdir())) < 11 / 2
        assert list(out.iterdir()) == []

    def test_preset_gowalla_small(self, tmp_path):
        out = tmp_path / "gw"
        code = main(["generate", "--preset", "gowalla", "--n", "2000",
                     "--seed", "1", "--u", "30", "--out", str(out)])
        assert code == 0
        model = json.loads((out / "model.json").read_text())
        assert model["type"] == "composite"
        assert model["components"][0]["rho"] == 0.35

    def test_preset_brightkite_growable(self, tmp_path):
        out = tmp_path / "bk"
        code = main(["generate", "--preset", "brightkite", "--n", "3000",
                     "--seed", "4", "--u", "30", "--out", str(out)])
        assert code == 0
        runs = json.loads((out / "runs.json").read_text())
        assert runs["replications"][0]["vertices"] == 3000
        model = json.loads((out / "model.json").read_text())
        assert model["components"][0]["model"]["type"] == "ba_tree"
        assert model["components"][0]["rho"] == 0.225

    def test_threads_do_not_change_outputs(self, tmp_path):
        spec = _write_ba_spec(tmp_path)
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        for out, threads in ((serial, "1"), (parallel, "2")):
            assert main(["generate", str(spec), "--n", "400", "--seed", "5",
                         "--reps", "2", "--u", "20", "--threads", threads,
                         "--out", str(out)]) == 0
        for rep in range(2):
            name = f"graph_rep{rep}.txt"
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_zero_weight_model_exit_3(self, tmp_path):
        from npagraph import IncrementDistribution, NpaModelSpec, WeightFunction
        from npagraph.models import dump_model as dm
        # Almost every arrival lands saturated (degree 2 > M = 1), so the
        # pool of attachable vertices dies out.
        spec = NpaModelSpec(
            weights=WeightFunction.linear(g=1, M=1),
            increments=IncrementDistribution(min_arcs=1, probs=(0.02, 0.98)))
        path = tmp_path / "dead.json"
        path.write_text(dm(spec) + "\n")
        out = tmp_path / "o"
        assert main(["generate", str(path), "--n", "400", "--seed", "0",
                     "--out", str(out)]) == 3
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("spec,n,message", [
        # Three seed vertices, and every arrival brings zero arcs.
        ({"type": "npa", "weights": {"g": 0, "rule": "constant", "value": 1.0},
          "increments": {"min_arcs": 0, "probs": [1.0]},
          "seed_graph": {"vertices": 3, "edges": []}}, 10,
         "graph has no edges to measure"),
        # Pruning the isolated vertices of so sparse a graph leaves none.
        ({"type": "aer", "n1": 50, "a": 0.01}, 50,
         "cannot measure an empty graph"),
    ], ids=["edgeless", "pruned_to_nothing"])
    def test_nothing_to_measure_exit_2(self, tmp_path, capsys, spec, n,
                                       message):
        # The spec is at fault, not the computation: 0.26.0 exited 3 with
        # "error:" on the edgeless graph.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "o"
        assert main(["generate", str(path), "--n", str(n),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"
        # The graph is measured before any file opens: 0.27.0 left
        # model.json, graph_rep0.txt and vdd_rep0.csv behind.
        assert not out.exists() or not any(out.iterdir())


class TestIngestCommand:
    def test_tiny_network(self, tmp_path):
        data = tmp_path / "net.txt"
        data.write_text("# tiny\n0 1\n1 2\n2 0\n2 3\n")
        out = tmp_path / "ing"
        assert main(["ingest", str(data), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["node_count"] == 4
        assert summary["edge_count"] == 4
        assert summary["mean_degree"] == pytest.approx(2.0)
        assert summary["derived_m"] == pytest.approx(1.0)
        vdd_lines = (out / "vdd.csv").read_text().splitlines()
        assert vdd_lines[0] == "degree,count,probability"
        assert vdd_lines[1] == f"1,1,{0.25!r}"
        id_map = (out / "id_map.csv").read_text().splitlines()
        assert id_map[1] == "0,0"

    def test_malformed_exit_2(self, tmp_path):
        data = tmp_path / "net.txt"
        data.write_text("0 1\nbroken\n")
        assert main(["ingest", str(data), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("flags,message", [
        (["--edd-extent", "0"], "--edd-extent"),
        # --u-mass is the share of edge mass the selected window holds.
        (["--u-mass", "0"], "argument --u-mass: must be in (0, 1]"),
        (["--u-mass", "-1"], "argument --u-mass: must be in (0, 1]"),
        (["--u-mass", "7"], "argument --u-mass: must be in (0, 1]"),
        (["--u-mass", "nan"], "argument --u-mass: must be in (0, 1]"),
    ])
    def test_setting_out_of_range_exit_2(self, tmp_path, capsys, flags,
                                         message):
        data = tmp_path / "net.txt"
        data.write_text("0 1\n1 2\n")
        assert main(["ingest", str(data), *flags,
                     "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_oversized_id_exit_2(self, tmp_path, capsys):
        data = tmp_path / "net.txt"
        data.write_text("0 1\n99999999999999999999 1\n")
        assert main(["ingest", str(data), "--out", str(tmp_path / "o")]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_smooth_option_gone_exit_2(self, tmp_path, capsys):
        # 0.32.0 fits the VDD as measured; --smooth went with smoothing.
        data = tmp_path / "net.txt"
        data.write_text("0 1\n1 2\n")
        out = tmp_path / "o"
        assert main(["ingest", str(data), "--smooth", "log-bin",
                     "--out", str(out)]) == 2
        assert "unrecognized arguments: --smooth" in capsys.readouterr().err
        assert not out.exists()

    def test_writes_the_measured_vdd(self, tmp_path):
        # No vertex has degree 2: vdd.csv still holds each degree from the
        # least to the greatest, its probability the one measure_vdd gives,
        # and summary.json's max_degree is that VDD's.
        from npagraph.formats import load_edge_list, vdd_from_csv
        from npagraph.growth import measure_vdd
        data = tmp_path / "net.txt"
        data.write_text("0 1\n0 2\n0 3\n4 5\n")
        out = tmp_path / "ing"
        assert main(["ingest", str(data), "--out", str(out)]) == 0
        measured = measure_vdd(load_edge_list(data)[0])
        written = vdd_from_csv(out / "vdd.csv")
        assert (written.min_degree, written.max_degree) == (1, 3)
        assert (written.aligned(1, 3).tolist()
                == measured.aligned(1, 3).tolist())
        rows = (out / "vdd.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            ["1", "5"], ["2", "0"], ["3", "1"]]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_degree"] == measured.max_degree
        assert sorted(summary) == [
            "derived_m", "duplicates_collapsed", "edge_count", "max_degree",
            "mean_degree", "node_count", "selected_u", "self_loops_dropped"]


class TestRerunDeterminism:
    def _assert_twin_runs(self, first, second):
        checked = 0
        for path in sorted(first.rglob("*")):
            if path.is_file() and path.name != "manifest.json":
                twin = second / path.relative_to(first)
                assert path.read_bytes() == twin.read_bytes(), path.name
                checked += 1
        assert checked > 0

    def test_ingest_rerun_byte_identical(self, tmp_path):
        data = tmp_path / "net.txt"
        data.write_text("\n".join(f"{i} {(i * 7 + 1) % 40}"
                                  for i in range(120)) + "\n")
        first = tmp_path / "i1"
        assert main(["ingest", str(data), "--u-mass", "0.9", "--edd-extent",
                     "30", "--out", str(first)]) == 0
        second = tmp_path / "i2"
        assert main(["rerun", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        self._assert_twin_runs(first, second)

    def test_calibrate_rerun_byte_identical(self, tmp_path):
        model = NpaModelSpec(
            weights=WeightFunction.linear(g=1),
            increments=IncrementDistribution(min_arcs=1, probs=(0.7, 0.3)))
        sol = solve_vdd(model, 4000)
        theta = symmetrize(solve_arc_dd(model, sol, 10))
        target_dir = tmp_path / "target"
        target_dir.mkdir()
        (target_dir / "vdd.csv").write_text(vdd_to_csv(sol.q))
        (target_dir / "edd.csv").write_text(edd_to_csv(theta))
        (target_dir / "summary.json").write_text(json.dumps(
            {"derived_m": model.increments.mean, "selected_u": 10}))
        first = tmp_path / "c1"
        assert main(["calibrate", str(target_dir), "--mode", "single",
                     "--rmax", "2", "--out", str(first)]) == 0
        second = tmp_path / "c2"
        assert main(["rerun", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        self._assert_twin_runs(first, second)


    def test_compare_rerun_byte_identical(self, tmp_path):
        # --g and --u were not given: null in the manifest, left out on rerun.
        a = _write_ba_target(tmp_path / "target") / "edd.csv"
        model = NpaModelSpec(
            weights=WeightFunction.linear(g=1),
            increments=IncrementDistribution(min_arcs=1, probs=(0.7, 0.3)))
        b = tmp_path / "b.csv"
        b.write_text(edd_to_csv(symmetrize(
            solve_arc_dd(model, solve_vdd(model, 2000), 10))))
        first = tmp_path / "c1"
        assert main(["compare", str(a), str(b), "--out", str(first)]) == 0
        params = json.loads((first / "manifest.json").read_text())["params"]
        assert params["g"] is None and params["u"] is None
        second = tmp_path / "c2"
        assert main(["rerun", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        self._assert_twin_runs(first, second)

    def test_generate_preset_rerun_byte_identical(self, tmp_path):
        # A preset run's spec is null in the manifest, left out on rerun.
        first = tmp_path / "g1"
        assert main(["generate", "--preset", "gowalla", "--n", "2000",
                     "--seed", "1", "--u", "30", "--out", str(first)]) == 0
        params = json.loads((first / "manifest.json").read_text())["params"]
        assert params["spec"] is None
        second = tmp_path / "g2"
        assert main(["rerun", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        self._assert_twin_runs(first, second)


class TestSettingsChecked:
    """The parser checks every setting, on a typed command line and in a
    manifest that rerun replays alike: a bad one exits 2, names the
    setting and writes nothing."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory) -> dict:
        """Each data command's arguments (but --out) and the manifest of a
        small valid run of it."""
        root = tmp_path_factory.mktemp("runs")
        spec = str(_write_ba_spec(root))
        target = _write_ba_target(root / "target")
        net = root / "net.txt"
        net.write_text("0 1\n1 2\n2 0\n2 3\n")
        edd = str(target / "edd.csv")
        argvs = {"solve": [spec, "--kmax", "500", "--umax", "5"],
                 "generate": [spec, "--n", "50", "--u", "5"],
                 "ingest": [str(net)],
                 "calibrate": [str(target), "--rmax", "2", "--u", "6"],
                 "compare": [edd, edd]}
        out = {}
        for command, argv in argvs.items():
            assert main([command, *argv, "--out", str(root / command)]) == 0
            out[command] = (argv, json.loads(
                (root / command / "manifest.json").read_text()))
        return out

    def _rerun_exit(self, tmp_path, manifest) -> int:
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        code = main(["rerun", str(path), "--out", str(tmp_path / "again")])
        assert not (tmp_path / "again").exists()
        return code

    @pytest.mark.parametrize("command,flag,value", [
        ("generate", "--u", 0),
        ("generate", "--reps", 0),
        ("generate", "--seed", -1),  # 0.21.0 wrote model.json, then failed
        ("generate", "--threads", -3),  # 0.24.0 ran it and recorded it
        ("ingest", "--edd-extent", 0),
        ("ingest", "--u-mass", float("nan")),
        ("calibrate", "--rmax", 0),
        ("calibrate", "--rho-min", 0.0),
        ("calibrate", "--rho-max", 1.0),
        ("calibrate", "--rho-step", -0.05),
    ])
    def test_out_of_range_exit_2(self, runs, tmp_path, capsys, command, flag,
                                 value):
        argv, manifest = runs[command]
        out = tmp_path / "o"
        assert main([command, *argv, flag, str(value), "--out", str(out)]) == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err
        assert not out.exists()
        params = {**manifest["params"], flag[2:].replace("-", "_"): value}
        assert self._rerun_exit(tmp_path, {**manifest, "params": params}) == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value,message", [
        ("solve", "command", "bogus", "got command 'bogus'"),
        ("solve", "command", "rerun", "got command 'rerun'"),
        ("solve", "params", None, "holds 'params'"),
        # 0.21.0 raised from the solver or the smoother (exit 1) ...
        ("solve", "variant", "bogus", "argument --variant: invalid choice"),
        # ... and ran the composite or the AER fit instead.
        ("calibrate", "mode", "bogus", "argument --mode: invalid choice"),
        ("calibrate", "first", "bogus", "argument --first: invalid choice"),
        # 0.32.0 dropped ingest's --smooth: a 0.31.0 ingest manifest records
        # it, and replayed without it would write other bytes.
        ("ingest", "smooth", "bogus",
         "the ingest manifest records a setting ingest does not take: 'smooth'"),
        ("ingest", "smooth", "none",
         "the ingest manifest records a setting ingest does not take: 'smooth'"),
        ("solve", "kmax", "x", "argument --kmax: invalid int value: 'x'"),
        ("calibrate", "rho_step", "x",
         "argument --rho-step: invalid float value: 'x'"),
        ("solve", "kmax", KeyError, "the solve manifest lacks 'kmax'"),
        ("solve", "spec", KeyError, "the solve manifest lacks 'spec'"),
        ("solve", "spec", None, "the following arguments are required: spec"),
        ("compare", "edd_b", None, "required: edd_b"),
        ("generate", "preset", "gowalla", "--preset: not allowed with argument spec"),
        ("calibrate", "rho_min", 0.99, "need --rho-min <= --rho-max"),
    ])
    def test_bad_manifest_exit_2(self, runs, tmp_path, capsys, command, key,
                                 value, message):
        manifest = dict(runs[command][1])
        if key in manifest:
            manifest[key] = value
        else:
            manifest["params"] = dict(manifest["params"])
            if value is KeyError:
                del manifest["params"][key]
            else:
                manifest["params"][key] = value
        assert self._rerun_exit(tmp_path, manifest) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "generate", "ingest",
                                         "calibrate", "compare"])
    def test_unknown_setting_exit_2(self, runs, tmp_path, capsys, command):
        # 0.31.0 ignored a recorded setting its command did not take, and
        # replayed the run without it.
        manifest = dict(runs[command][1])
        manifest["params"] = {**manifest["params"], "bogus_setting": None}
        assert self._rerun_exit(tmp_path, manifest) == 2
        assert (f"the {command} manifest records a setting {command} does not "
                f"take: 'bogus_setting'") in capsys.readouterr().err

    def test_help_returns_0(self, capsys):
        assert main(["--help"]) == 0
        assert main(["rerun", "--help"]) == 0
        assert "manifest" in capsys.readouterr().out

    def test_only_main_returns_exit_input(self):
        # The parser checks the settings and the commands raise typed
        # errors; a command writes its data files and returns nothing, and
        # main alone writes the manifest and returns every exit code.
        import ast

        import npagraph.cli as cli
        tree = ast.parse(Path(cli.__file__).read_text())
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]

        def returned(func):
            return [node.value for node in ast.walk(func)
                    if isinstance(node, ast.Return) and node.value is not None]

        def exit_code(value):
            return (isinstance(value, ast.Name) and value.id.startswith("EXIT_")
                    or isinstance(value, ast.Constant)
                    and type(value.value) is int)

        assert [f.name for f in functions
                if any(map(exit_code, returned(f)))] == ["main"]
        commands = {f.name: returned(f) for f in functions
                    if f.name.startswith("cmd_")}
        assert commands == {f"cmd_{c}": [] for c in cli._DISPATCH}
        assert len([node for node in ast.walk(tree) if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_write_manifest"]) == 1
        # Each error's class, not a list in main, says whether it is an
        # input or a compute error.
        from npagraph import errors
        main_def = next(f for f in functions if f.name == "main")
        handled = {node.id for handler in ast.walk(main_def)
                   if isinstance(handler, ast.ExceptHandler)
                   for node in ast.walk(handler.type)
                   if isinstance(node, ast.Name)}
        assert {name for name in handled
                if isinstance(getattr(errors, name, None), type)
                and issubclass(getattr(errors, name), errors.NpaGraphError)
                } == {"InputError", "NpaGraphError", "AllRhoInfeasible"}

    def test_error_class_decides_input_or_compute(self):
        from npagraph import errors
        for cls in (errors.ValidationError, errors.MalformedLine,
                    errors.EmptyInput, errors.InputTooLarge,
                    errors.WindowExceedsMatrix):
            assert issubclass(cls, errors.InputError), cls
        for cls in (errors.SolverFailure, errors.ZeroTotalWeight):
            assert not issubclass(cls, errors.InputError), cls

    @pytest.mark.parametrize("name", sorted(
        name for name, cls in vars(errors).items() if isinstance(cls, type)
        and issubclass(cls, Exception) and cls.__module__ == errors.__name__))
    def test_error_survives_pickling(self, name):
        # generate --threads brings a worker's error back by pickle. 0.42.0
        # split a ValidationError's message into characters and could not
        # unpickle a MalformedLine.
        args = {"ValidationError": ([errors.Violation("a", "b"),
                                     errors.Violation("c", "d")],),
                "MalformedLine": (3, "x y")}.get(name, ("what went wrong",))
        error = getattr(errors, name)(*args)
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error)
        assert str(back) == str(error)
        assert vars(back) == vars(error)

    @pytest.mark.parametrize("command", [
        # A 10**6 x 10**6 arc matrix: 7.28 TiB.
        lambda tmp_path: ["solve", str(_write_ba_spec(tmp_path)),
                          "--kmax", "1000000", "--umax", "1000000"],
        # The same edge matrix of a grown graph.
        lambda tmp_path: ["generate", str(_write_ba_spec(tmp_path)),
                          "--n", "100", "--u", "1000000"],
        # The increment fit's 10**7 x 10**7 program: 728 TiB.
        lambda tmp_path: ["calibrate", str(_write_ba_target(tmp_path / "t")),
                          "--rmax", "10000000"],
    ], ids=["solve", "generate", "calibrate"])
    def test_unallocatable_setting_exit_2(self, tmp_path, monkeypatch,
                                          command):
        # The child caps its own address space at 4 GiB, enough to import
        # numpy, so the allocation raises MemoryError rather than waiting
        # on the machine's memory. 0.26.0 exited 1 with a traceback.
        import resource
        limit = _address_space(4 << 30)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        out = tmp_path / "o"
        proc = _python("-m", "npagraph.cli", *command(tmp_path),
                       "--out", str(out), preexec_fn=lambda: resource.setrlimit(
                           resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("input error: Unable to allocate")
        assert "Traceback" not in proc.stderr
        assert not (out / "manifest.json").exists()


class TestEnvironment:
    def test_out_defaults_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NPAGRAPH_OUT", str(tmp_path / "envout"))
        spec = _write_ba_spec(tmp_path)
        assert main(["solve", str(spec), "--kmax", "1500", "--umax", "10"]) == 0
        assert (tmp_path / "envout" / "solution.json").exists()

    def test_console_entry_point(self):
        proc = _python("-m", "npagraph.cli", "--help")
        assert proc.returncode == 0
        assert "solve" in proc.stdout and "calibrate" in proc.stdout

    def test_import_leaves_optimizer_unloaded(self):
        # The runtime needs numpy alone: importing the CLI loads no scipy.
        assert _modules_after("import npagraph.cli", "scipy") == []

    def test_power_weight_solve_loads_no_scipy(self, tmp_path):
        # The incomplete gamma of the power-weight tail is the package's own.
        from crosscheck import reference_models
        spec = tmp_path / "sublinear.json"
        spec.write_text(dump_model(reference_models()["sublinear"]) + "\n")
        out = tmp_path / "out"
        code = ("from npagraph.cli import main\n"
                f"assert main(['solve', {str(spec)!r}, '--umax', '15',\n"
                f"             '--out', {str(out)!r}]) == 0\n")
        assert _modules_after(code, "scipy") == []
        assert (out / "solution.json").exists()

    def test_table_free_calibrate_loads_no_scipy(self, tmp_path):
        # The exponent search of phase 2 is the package's own golden section.
        from crosscheck import reference_models
        spec = tmp_path / "sublinear.json"
        spec.write_text(dump_model(reference_models()["sublinear"]) + "\n")
        target, out = tmp_path / "target", tmp_path / "fit"
        assert main(["solve", str(spec), "--kmax", "4000", "--umax", "15",
                     "--out", str(target)]) == 0
        code = ("from npagraph.cli import main\n"
                f"assert main(['calibrate', {str(target)!r}, '--weights',\n"
                "             'table-free', '--rmax', '3', '--u', '15',\n"
                f"             '--out', {str(out)!r}]) == 0\n")
        assert _modules_after(code, "scipy") == []
        report = json.loads((out / "report.json").read_text())
        assert report["details"]["phase"] == 2


def _write_ba_target(path: Path) -> Path:
    """vdd.csv and edd.csv of the BA tree to degree 8, as ingest writes them."""
    model = BaTreeSpec()
    sol = solve_vdd(model, 2000)
    path.mkdir()
    (path / "vdd.csv").write_text(vdd_to_csv(sol.q))
    (path / "edd.csv").write_text(edd_to_csv(symmetrize(
        solve_arc_dd(model, sol, 8))))
    return path


def _file_as_target(tmp_path: Path) -> list[str]:
    return ["calibrate", str(_write_ba_spec(tmp_path))]


def _directory_as_vdd(tmp_path: Path) -> list[str]:
    (tmp_path / "target" / "vdd.csv").mkdir(parents=True)
    return ["calibrate", str(tmp_path / "target")]


@pytest.mark.parametrize("command", [
    lambda tmp_path: ["solve", str(tmp_path)], _directory_as_vdd, _file_as_target],
    ids=["directory_as_spec", "directory_as_vdd", "file_as_target"])
def test_unreadable_input_exit_2(tmp_path, capsys, command):
    # An input that exists but cannot be read as a file is an input error,
    # like a missing one: exit 2, one line on stderr, and nothing written.
    out = tmp_path / "o"
    assert main([*command(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: [Errno ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def _non_utf8_edd(tmp_path: Path) -> list[str]:
    path = tmp_path / "bad.csv"
    path.write_bytes(b"l,k,probability\n1,1,0.5\n1,2,\xff0.5\n")
    return ["compare", str(path), str(path)]


def _non_utf8_edge_list(tmp_path: Path) -> list[str]:
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0 1\n1 \xff2\n")
    return ["ingest", str(path)]


@pytest.mark.parametrize("command", [_non_utf8_edd, _non_utf8_edge_list],
                         ids=["compare", "ingest"])
def test_non_utf8_input_exit_2(tmp_path, capsys, command):
    # 0.30.0 ended both in a UnicodeDecodeError traceback (exit 1).
    out = tmp_path / "o"
    assert main([*command(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


class TestStartup:
    """A command loads only the modules it calls, and `logging` only when it
    logs; only the process entry turns the collector off. Each check runs
    in a fresh interpreter."""

    def test_import_loads_only_the_parser(self):
        assert _modules_after("import npagraph.cli", "numpy", "npagraph",
                              "multiprocessing", "concurrent.futures", "logging",
                              "dataclasses", "inspect", "traceback") == [
            "npagraph", "npagraph.cli", "npagraph.constants", "npagraph.errors"]

    def test_commands_that_log_nothing_load_no_logging(self, tmp_path):
        # No input here holds a self-loop, and the fit skips no candidate.
        gen, target = tmp_path / "gen", _write_ba_target(tmp_path / "target")
        edd = str(target / "edd.csv")
        code = ("from npagraph.cli import main\n"
                f"assert main(['solve', {str(_write_ba_spec(tmp_path))!r},\n"
                "             '--kmax', '2000', '--umax', '20',\n"
                f"             '--out', {str(tmp_path / 'sol')!r}]) == 0\n"
                "assert main(['generate', '--preset', 'gowalla', '--n', '2000',\n"
                f"             '--u', '20', '--out', {str(gen)!r}]) == 0\n"
                f"assert main(['ingest', {str(gen / 'graph_rep0.txt')!r},\n"
                f"             '--out', {str(tmp_path / 'ing')!r}]) == 0\n"
                f"assert main(['calibrate', {str(target)!r}, '--rmax', '2',\n"
                f"             '--u', '6', '--out', {str(tmp_path / 'fit')!r}]) == 0\n"
                f"assert main(['compare', {edd!r}, {edd!r},\n"
                f"             '--out', {str(tmp_path / 'cmp')!r}]) == 0\n")
        assert _modules_after(code, "logging") == []

    @pytest.mark.parametrize("argv,code", [
        (["--help"], 0),
        (["generate", "--preset", "gowalla", "--seed", "-1"], 2),
        (["rerun", "{manifest}"], 2),
    ], ids=["help", "rejected_setting", "rejected_manifest"])
    def test_parser_exits_before_numpy(self, tmp_path, argv, code):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "grow", "params": {}}))
        argv = [arg.format(manifest=manifest) for arg in argv]
        run = ("from npagraph.cli import main\n"
               f"assert main({argv + ['--out', str(tmp_path / 'o')]!r}) == {code}\n")
        assert _modules_after(run, "numpy") == []
        assert not (tmp_path / "o").exists()

    def test_simulate_commands_load_no_calibrate_or_solver(self, tmp_path):
        out = tmp_path / "gen"
        edd = str(out / "edd_rep0.csv")
        code = ("from npagraph.cli import main\n"
                "assert main(['generate', '--preset', 'gowalla', '--n', '2000',\n"
                f"             '--u', '20', '--out', {str(out)!r}]) == 0\n"
                f"assert main(['ingest', {str(out / 'graph_rep0.txt')!r},\n"
                f"             '--out', {str(tmp_path / 'ing')!r}]) == 0\n"
                f"assert main(['compare', {edd!r}, {edd!r},\n"
                f"             '--out', {str(tmp_path / 'cmp')!r}]) == 0\n")
        assert _modules_after(code, "npagraph.calibrate", "npagraph.solver") == []
        assert (tmp_path / "ing" / "summary.json").exists()
        assert (tmp_path / "cmp" / "distance.json").exists()

    def test_presets_are_the_parser_choices(self):
        from npagraph.models import PRESETS
        commands = next(a.choices for a in cli.build_parser()._actions
                        if a.dest == "command")
        preset = next(a for a in commands["generate"]._actions
                      if a.dest == "preset")
        assert list(preset.choices) == list(PRESETS)

    def test_calibrate_and_compare_load_no_growth_or_io(self, tmp_path):
        target = _write_ba_target(tmp_path / "target")
        edd = str(target / "edd.csv")
        code = ("from npagraph.cli import main\n"
                f"assert main(['calibrate', {str(target)!r}, '--rmax', '2',\n"
                f"             '--u', '6', '--out', {str(tmp_path / 'fit')!r}]) == 0\n"
                f"assert main(['compare', {edd!r}, {edd!r},\n"
                f"             '--out', {str(tmp_path / 'cmp')!r}]) == 0\n")
        assert _modules_after(code, "npagraph.growth") == []
        assert (tmp_path / "fit" / "model.json").exists()
        assert (tmp_path / "cmp" / "distance.json").exists()

    def test_solve_loads_growth_only_for_an_aer_component(self, tmp_path):
        # A growth model and a composite of growth models are solved; only
        # an AER component is grown, so only its solve loads npagraph.growth.
        specs = (_write_ba_spec(tmp_path), _write_readme_spec(tmp_path, "nested"))
        code = ("from npagraph.cli import main\n"
                f"for spec in {tuple(map(str, specs))!r}:\n"
                "    assert main(['solve', spec, '--kmax', '2000', '--umax', '20',\n"
                f"                 '--out', {str(tmp_path / 'o')!r}]) == 0\n")
        assert _modules_after(code, "npagraph.growth") == []
        code += (f"assert main(['solve', {str(_write_readme_spec(tmp_path, 'aer'))!r},\n"
                 f"             '--out', {str(tmp_path / 'a')!r}]) == 0\n")
        assert _modules_after(code, "npagraph.growth") == ["npagraph.growth"]

    def test_every_export_resolves(self):
        code = ("import sys\n"
                "import npagraph\n"
                "assert not [m for m in sys.modules if m.startswith('npagraph.')]\n"
                "missing = [n for n in npagraph.__all__\n"
                "           if getattr(npagraph, n, None) is None]\n"
                "assert not missing, missing\n"
                "assert set(npagraph.__all__) <= set(dir(npagraph))\n")
        assert _modules_after(code, "npagraph.growth") == ["npagraph.growth"]

    def test_main_leaves_the_heap_unfrozen(self, tmp_path):
        edd = str(_write_ba_target(tmp_path / "target") / "edd.csv")
        code = ("import gc\n"
                "from npagraph.cli import main\n"
                "before = gc.get_freeze_count()\n"
                f"assert main(['compare', {edd!r}, {edd!r},\n"
                f"             '--out', {str(tmp_path / 'cmp')!r}]) == 0\n"
                "assert gc.get_freeze_count() == before, "
                "(before, gc.get_freeze_count())\n"
                "assert gc.isenabled()\n")
        _modules_after(code)

    def test_process_entry_collects_nothing(self, tmp_path):
        # Each collection the command triggers writes a line to stderr, and
        # so does the interpreter's teardown, which the entry skips.
        import tomllib
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["npagraph"] == "npagraph.cli:run"
        edd = str(_write_ba_target(tmp_path / "target") / "edd.csv")
        code = ("import atexit, gc, os, sys\n"
                "from npagraph.cli import run\n"
                "gc.callbacks.append(lambda phase, info: phase == 'start'\n"
                "                    and os.write(2, b'collection\\n'))\n"
                "atexit.register(os.write, 2, b'teardown\\n')\n"
                f"sys.argv = ['npagraph', 'compare', {edd!r}, {edd!r},\n"
                f"            '--out', {str(tmp_path / 'cmp')!r}]\n"
                "run()\n")
        proc = _python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert "collection" not in proc.stderr
        assert "teardown" not in proc.stderr
        assert float(proc.stdout) == 0.0

    def test_version_matches_pyproject(self):
        import tomllib
        import npagraph
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert npagraph.__version__ == project["version"]


@pytest.fixture(scope="class")
def threaded_generate(tmp_path_factory):
    """A two-replication generate of a two-worker pool, run as a process."""
    out = tmp_path_factory.mktemp("gen") / "out"
    proc = _python("-m", "npagraph.cli", "generate", "--preset", "gowalla",
                   "--n", "2000", "--reps", "2", "--threads", "2",
                   "--out", str(out))
    return proc, out


class TestProcessExit:
    """The process entry ends without the interpreter's teardown, and loses
    no output by it: what a command prints reaches a pipe, and every file
    it writes is whole."""

    def test_threaded_generate_writes_every_replication(self, threaded_generate):
        proc, out = threaded_generate
        assert proc.returncode == 0, proc.stderr
        for rep in (0, 1):
            for name in cli.REP_FILES:
                assert (out / name.format(rep)).stat().st_size > 0
        runs = json.loads((out / "runs.json").read_text())
        assert [info["rep"] for info in runs["replications"]] == [0, 1]
        assert json.loads((out / "manifest.json").read_text())["command"] == "generate"

    def test_compare_prints_its_distance(self, threaded_generate, tmp_path):
        _, gen = threaded_generate
        out = tmp_path / "cmp"
        proc = _python("-m", "npagraph.cli", "compare", str(gen / "edd_rep0.csv"),
                       str(gen / "edd_rep1.csv"), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        distance = json.loads((out / "distance.json").read_text())["distance"]
        assert distance > 0.0
        assert proc.stdout == repr(distance) + "\n"
        assert (out / "diff.csv").read_text().startswith("l,k,difference\n")
        assert json.loads((out / "manifest.json").read_text())["command"] == "compare"

    def test_ingest_warns_of_a_dropped_self_loop(self, tmp_path):
        # Without -v the warning reaches stderr through logging's last
        # resort handler, which writes the bare message.
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 1\n1 2\n")
        out = tmp_path / "ing"
        proc = _python("-m", "npagraph.cli", "ingest", str(edges), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "dropped 1 self-loop(s)\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["self_loops_dropped"] == 1

    def test_missing_input_exits_2(self, tmp_path):
        missing = str(tmp_path / "missing.csv")
        out = tmp_path / "cmp"
        proc = _python("-m", "npagraph.cli", "compare", missing, missing,
                       "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("input error:")
        assert proc.stdout == ""
        assert not (out / "manifest.json").exists()


class TestCompareCommand:
    def _write_edd(self, path: Path, perturb=0.0) -> Path:
        model = BaTreeSpec()
        theta = symmetrize(solve_arc_dd(model, solve_vdd(model, 4000), 10))
        text = edd_to_csv(theta)
        if perturb:
            lines = text.splitlines()
            l, k, p = lines[1].split(",")
            lines[1] = f"{l},{k},{float(p) + perturb!r}"
            text = "\n".join(lines) + "\n"
        path.write_text(text)
        return path

    def test_identical_zero(self, tmp_path, capsys):
        a = self._write_edd(tmp_path / "a.csv")
        out = tmp_path / "cmp"
        assert main(["compare", str(a), str(a), "--out", str(out)]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_swapped_same_value(self, tmp_path, capsys):
        a = self._write_edd(tmp_path / "a.csv")
        b = self._write_edd(tmp_path / "b.csv", perturb=0.05)
        assert main(["compare", str(a), str(b), "--out", str(tmp_path / "x")]) == 0
        d1 = float(capsys.readouterr().out.strip())
        assert main(["compare", str(b), str(a), "--out", str(tmp_path / "y")]) == 0
        d2 = float(capsys.readouterr().out.strip())
        assert d1 == d2

    def test_known_single_cell_difference(self, tmp_path, capsys):
        a = self._write_edd(tmp_path / "a.csv")
        b = self._write_edd(tmp_path / "b.csv", perturb=0.125)
        assert main(["compare", str(a), str(b), "--out", str(tmp_path / "z")]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.125)

    def test_diff_cells_are_plain_floats(self, tmp_path):
        a = self._write_edd(tmp_path / "a.csv")
        b = self._write_edd(tmp_path / "b.csv", perturb=0.125)
        out = tmp_path / "d"
        assert main(["compare", str(a), str(b), "--g", "2", "--out", str(out)]) == 0
        ma, mb = (edd_from_csv(p) for p in (a, b))
        diff = ma.window(2, 10) - mb.window(2, 10)
        lines = (out / "diff.csv").read_text().splitlines()
        assert lines[0] == "l,k,difference"
        assert len(lines) == 1 + diff.size
        for line in lines[1:]:
            l, k, value = line.split(",")
            assert float(value) == diff[int(l) - 2, int(k) - 2]

    @pytest.mark.parametrize("text", ["l,k,probability\n",
                                      "l,k,probability\n1,1,0.5\n1,2\n",
                                      "l,k,probability\n1,1,0.5\n1,2,nan\n",
                                      "l,k,probability\n1,1,-0.5\n1,2,1.5\n",
                                      # numpy cannot index it (0.24.0: exit 1)
                                      f"l,k,probability\n1,1,0.5\n{10**12},1,0.5\n"])
    def test_unreadable_matrix_is_input_error(self, tmp_path, capsys, text):
        a = self._write_edd(tmp_path / "a.csv")
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert main(["compare", str(a), str(bad), "--out", str(tmp_path / "c")]) == 2
        assert "input error" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_repeated_cell_is_input_error(self, tmp_path, capsys):
        a = self._write_edd(tmp_path / "a.csv")
        bad = tmp_path / "bad.csv"
        bad.write_text("l,k,probability\n1,2,0.5\n2,1,0.25\n1,2,0.25\n")
        assert main(["compare", str(a), str(bad), "--out", str(tmp_path / "c")]) == 2
        assert capsys.readouterr().err == ("input error: DuplicateRow: cell "
                                           "(l, k) = (1, 2) has more than one row\n")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("window", [["--u", "100000"], ["--g", "0"]])
    def test_window_outside_matrix_is_input_error(self, tmp_path, capsys,
                                                  window):
        a = self._write_edd(tmp_path / "a.csv")
        assert main(["compare", str(a), str(a), *window,
                     "--out", str(tmp_path / "c")]) == 2
        assert "input error" in capsys.readouterr().err

    def test_degree_span_too_large_is_input_error(self, tmp_path):
        # A three-line file whose degrees span 30000 asks for a 6.7 GiB dense
        # matrix. Under a 2 GiB address-space limit, set by the child on
        # itself, the allocation fails and must surface as InputTooLarge.
        small, big = tmp_path / "small.csv", tmp_path / "big.csv"
        vdd = tmp_path / "vdd.csv"
        small.write_text("l,k,probability\n1,1,1.0\n")
        big.write_text("l,k,probability\n1,1,0.5\n30000,1,0.5\n")
        vdd.write_text("degree,probability\n1,0.5\n900000000,0.5\n")
        limit = _address_space(2 << 30)
        code = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from npagraph import InputTooLarge\n"
            "from npagraph.cli import main\n"
            "from npagraph.formats import vdd_from_csv\n"
            "try:\n"
            f"    vdd_from_csv({str(vdd)!r})\n"
            "except InputTooLarge as exc:\n"
            "    print('vdd:', exc)\n"
            f"sys.exit(main(['compare', {str(small)!r}, {str(big)!r},\n"
            f"                '--out', {str(tmp_path / 'c')!r}]))\n")
        proc = _python("-c", code)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout.startswith("vdd: degrees 1 to 900000000 span")
        assert "input error: degrees 1 to 30000 span 30000" in proc.stderr
        assert not (tmp_path / "c").exists()


class TestCalibrateCommand:
    def test_empty_window_exit_2_before_any_fit(self, tmp_path, capsys,
                                                monkeypatch):
        # An edge matrix from degree 5 and --u 4 leave no window; 0.24.0
        # fitted and solved a candidate before it failed.
        from npagraph import calibrate
        monkeypatch.setattr(calibrate, "fit", None)
        target_dir = _write_ba_target(tmp_path / "target")
        edd = edd_from_csv(target_dir / "edd.csv")
        (target_dir / "edd.csv").write_text(edd_to_csv(EdgeDegreeMatrix(
            min_degree=5, entries=edd.window(5, edd.max_degree))))
        out = tmp_path / "fit"
        assert main(["calibrate", str(target_dir), "--u", "4",
                     "--out", str(out)]) == 2
        assert ("input error: the edge matrix starts at degree 5, above u = 4"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("name,text", [
        ("edd.csv", "l,k,probability\n"),
        ("edd.csv", "l,k,probability\n1,2\n"),
        ("vdd.csv", "degree,probability\n"),
        ("vdd.csv", "degree,probability\n1,0.5\n2\n"),
        # numpy cannot index these (0.24.0: exit 1, a traceback)
        ("vdd.csv", f"degree,probability\n1,0.5\n{2**62},0.5\n"),
        ("vdd.csv", f"degree,probability\n1,0.5\n{2**63 - 1},0.5\n"),
    ])
    def test_unreadable_target_is_input_error(self, tmp_path, capsys, name, text):
        target_dir = _write_ba_target(tmp_path / "target")
        (target_dir / name).write_text(text)
        code = main(["calibrate", str(target_dir), "--rmax", "2", "--out",
                     str(tmp_path / "fit")])
        assert code == 2
        assert "input error" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("text,key", [
        ("[1, 2]", "selected_u"),
        ('"text"', "selected_u"),
        ('{"derived_m": "x"}', "derived_m"),
        ('{"selected_u": "20"}', "selected_u"),
        ('{"selected_u": 2.5}', "selected_u"),
        # 0.35.0 took a recorded 0 for no record and fitted at select_u's u.
        ('{"selected_u": 0}', "selected_u"),
        ('{"derived_m": NaN}', "derived_m"),
    ])
    def test_malformed_summary_is_input_error(self, tmp_path, capsys, text, key):
        # 0.32.0 ended the first five in a traceback (exit 1) and the last
        # as a compute error (exit 3).
        target_dir = _write_ba_target(tmp_path / "target")
        (target_dir / "summary.json").write_text(text)
        assert main(["calibrate", str(target_dir), "--rmax", "2", "--out",
                     str(tmp_path / "fit")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {target_dir / 'summary.json'}: ")
        assert repr(key) in err
        assert not (tmp_path / "fit").exists()

    def test_repeated_degree_is_input_error(self, tmp_path, capsys):
        # 0.25.0 kept the last row of degree 1 and fitted a VDD of mass 0.5.
        target_dir = _write_ba_target(tmp_path / "target")
        (target_dir / "vdd.csv").write_text(
            "degree,probability\n1,0.5\n1,0.25\n2,0.25\n")
        assert main(["calibrate", str(target_dir), "--rmax", "2", "--out",
                     str(tmp_path / "fit")]) == 2
        assert capsys.readouterr().err == (
            "input error: DuplicateRow: degree 1 has more than one row\n")
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("flags,alpha,rtol", [
        (["--mode", "single", "--rmax", "3"], None, 1e-12),
        (["--mode", "composite", "--first", "ba-tree", "--rmax", "3",
          "--rho-min", "0.25", "--rho-max", "0.35", "--rho-step", "0.05"],
         0.8, 1e-12),
        (["--mode", "composite", "--first", "aer", "--rmax", "3",
          "--rho-min", "0.05", "--rho-max", "0.35", "--rho-step", "0.05"],
         None, 1e-12),
        (["--mode", "single", "--weights", "table-free", "--rmax", "3"],
         0.8, 1e-12),
    ], ids=["single", "ba_tree", "aer", "table_free"])
    def test_solve_of_the_fit_reproduces_its_distance(self, tmp_path, flags,
                                                     alpha, rtol):
        # calibrate writes the fit's model, its report and its manifest, and
        # nothing else; solving model.json to u, then comparing against the
        # target over the report's window, gives back the reported distance.
        # The target's complement has linear weights, or power weights
        # k**alpha that no linear fit matches exactly.
        weights = (WeightFunction.linear(g=1) if alpha is None
                   else WeightFunction.power(alpha, g=1))
        target = self._composite_target(tmp_path, (0.6, 0.4), 0.3, 12, weights)
        fit, solved = tmp_path / "fit", tmp_path / "solved"
        assert main(["calibrate", str(target), *flags, "--out", str(fit)]) == 0
        assert sorted(p.name for p in fit.iterdir()) == [
            "manifest.json", "model.json", "report.json"]
        report = json.loads((fit / "report.json").read_text())
        assert report["details"]["recurrence_variant"] == "printed"
        if "table-free" in flags:  # the power weights won
            assert report["details"]["phase"] == 2
        g, u = report["details"]["window"]
        assert main(["solve", str(fit / "model.json"), "--umax", str(u),
                     "--out", str(solved)]) == 0
        assert main(["compare", str(solved / "edd.csv"), str(target / "edd.csv"),
                     "--g", str(g), "--u", str(u),
                     "--out", str(tmp_path / "cmp")]) == 0
        distance = json.loads((tmp_path / "cmp" / "distance.json").read_text())
        assert distance["distance"] == pytest.approx(report["distance"], rel=rtol)

    def test_solve_of_a_near_exact_power_fit_reproduces_its_distance(self, tmp_path):
        # The exact target of power(0.8) weights, which the table-free fit
        # matches to a distance of 4e-8. 0.33.0 bisected the fit's mean
        # weight to 1e-9 and solve's to 1e-10: 1.9e-4 relative apart here.
        spec = tmp_path / "spec.json"
        spec.write_text(dump_model(NpaModelSpec(
            weights=WeightFunction.power(0.8, g=1),
            increments=IncrementDistribution(min_arcs=1, probs=(0.6, 0.4)))))
        target, fit, solved = (tmp_path / name for name in ("target", "fit", "solved"))
        assert main(["solve", str(spec), "--kmax", "4000", "--umax", "12",
                     "--out", str(target)]) == 0
        assert main(["calibrate", str(target), "--weights", "table-free",
                     "--rmax", "3", "--u", "12", "--out", str(fit)]) == 0
        report = json.loads((fit / "report.json").read_text())
        assert report["details"]["phase"] == 2 and report["distance"] < 1e-7
        assert main(["solve", str(fit / "model.json"), "--umax", "12",
                     "--out", str(solved)]) == 0
        assert main(["compare", str(solved / "edd.csv"), str(target / "edd.csv"),
                     "--g", "1", "--u", "12", "--out", str(tmp_path / "cmp")]) == 0
        distance = json.loads((tmp_path / "cmp" / "distance.json").read_text())
        assert distance["distance"] == pytest.approx(report["distance"], rel=1e-12)

    def test_first_aer_uses_gowalla_constants(self, tmp_path, monkeypatch):
        from npagraph import AerModelSpec, AllRhoInfeasible, calibrate
        from npagraph.models import (GOWALLA_AER_MEAN_DEGREE, GOWALLA_RHO,
                                     TOTAL_N)
        model = BaTreeSpec()
        sol = solve_vdd(model, 2000)
        theta = symmetrize(solve_arc_dd(model, sol, 8))
        target_dir = tmp_path / "target"
        target_dir.mkdir()
        (target_dir / "vdd.csv").write_text(vdd_to_csv(sol.q))
        (target_dir / "edd.csv").write_text(edd_to_csv(theta))
        seen = []

        def capture(target, first, weights, r_max, rho_min, rho_max, rho_step):
            seen.append(first)
            raise AllRhoInfeasible("captured")

        monkeypatch.setattr(calibrate, "fit", capture)
        code = main(["calibrate", str(target_dir), "--mode", "composite",
                     "--first", "aer", "--u", "8", "--out", str(tmp_path / "o")])
        assert code == 4
        assert seen == [AerModelSpec(n1=round(GOWALLA_RHO * TOTAL_N),
                                     a=GOWALLA_AER_MEAN_DEGREE)]

    def test_target_vdd_above_unit_mass_exit_2(self, tmp_path, capsys):
        # 0.21.0 fitted the BA tree's VDD times 1.5 with exit 0 and took
        # its mean increment as 1.499.
        target = _write_ba_target(tmp_path / "target")
        q = solve_vdd(BaTreeSpec(), 2000).q
        (target / "vdd.csv").write_text(vdd_to_csv(
            DegreeDistribution(q.min_degree, q.probs * 1.5)))
        out = tmp_path / "fit"
        assert main(["calibrate", str(target), "--rmax", "2", "--u", "6",
                     "--out", str(out)]) == 2
        assert "NonNormalized: the VDD's stored mass" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_target_exit_2(self, tmp_path, capsys):
        assert main(["calibrate", str(tmp_path / "void"),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"input error: [Errno 2] No such file or directory: " \
               f"'{tmp_path / 'void' / 'vdd.csv'}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--u", "1"], "must exceed the minimum degree 1"),
        (["--u", "0"], "u = 0 must exceed the minimum degree 1"),
        (["--u", "500"], "edge matrix extent 12 is below u = 500"),
        (["--rmax", "0"], "argument --rmax: must be at least 1"),
        (["--mode", "composite", "--rho-step", "0"],
         "argument --rho-step: must be above 0"),
        (["--mode", "composite", "--rho-step", "-0.05"],
         "argument --rho-step: must be above 0"),
        (["--mode", "composite", "--rho-step", "nan"],
         "argument --rho-step: must be above 0"),
        # rho is the first component's vertex fraction, inside (0, 1).
        (["--mode", "composite", "--rho-min", "0"],
         "argument --rho-min: must be in (0, 1)"),
        (["--mode", "composite", "--rho-min", "-0.5"],
         "argument --rho-min: must be in (0, 1)"),
        (["--mode", "composite", "--rho-max", "1"],
         "argument --rho-max: must be in (0, 1)"),
        (["--mode", "composite", "--rho-min", "nan"],
         "argument --rho-min: must be in (0, 1)"),
        # An empty grid tries no fraction at all.
        (["--mode", "composite", "--rho-min", "0.5", "--rho-max", "0.3"],
         "--rho-min <= --rho-max"),
        # The composite's complement has linear weights; 0.33.0 fitted them
        # and recorded --weights table-free in the manifest.
        (["--mode", "composite", "--weights", "table-free"],
         "--mode composite fits linear weights, got --weights table-free"),
        # p_a = a / (n1 - 1) must lie in (0, 1] for the AER first component.
        # (Above 1 it is the same violation; unchecked, that scan would fill
        # every slot of the 35000-vertex graph, gigabytes of pairs.)
        (["--mode", "composite", "--first", "aer", "--aer-a", "0"],
         "p_a = 0.0 outside (0, 1]"),
        # An infinite step made the lattice NaN (exit 1); a lattice of more
        # than 2**53 points left the rho search narrowing forever.
        (["--mode", "composite", "--rho-step", "inf"],
         "argument --rho-step: must be above 0"),
        (["--mode", "composite", "--rho-step", "1e-20"],
         "--rho-step 1e-20 makes a rho lattice of"),
    ])
    def test_setting_out_of_range_exit_2(self, tmp_path, capsys, flags,
                                         message):
        target = self._composite_target(tmp_path, (0.3, 0.7), 0.3, 12)
        out = tmp_path / "fit"
        assert main(["calibrate", str(target), *flags, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_ingest_then_calibrate_chain(self, tmp_path):
        # A grown tree round-trips through ingest into a usable target.
        gen = tmp_path / "gen"
        spec = _write_ba_spec(tmp_path)
        assert main(["generate", str(spec), "--n", "5000", "--seed", "2",
                     "--u", "40", "--out", str(gen)]) == 0
        ing = tmp_path / "ing"
        assert main(["ingest", str(gen / "graph_rep0.txt"),
                     "--out", str(ing)]) == 0
        fit = tmp_path / "fit"
        code = main(["calibrate", str(ing), "--mode", "single",
                     "--rmax", "2", "--u", "8", "--out", str(fit)])
        assert code == 0
        report = json.loads((fit / "report.json").read_text())
        # A tree target is nearly pure single-arc increments.
        fitted = json.loads((fit / "model.json").read_text())
        assert fitted["increments"]["probs"][0] > 0.9
        assert report["details"]["target_meta"] == json.loads(
            (ing / "summary.json").read_text())

    def test_all_rho_infeasible_exit_4(self, tmp_path):
        # Target of two-arc increments: against a tree first component every
        # candidate fraction puts the complement's mean above --rmax 2.
        model = NpaModelSpec(
            weights=WeightFunction.linear(g=2),
            increments=IncrementDistribution(min_arcs=2, probs=(1.0,)))
        sol = solve_vdd(model, 4000)
        theta = symmetrize(solve_arc_dd(model, sol, 12))
        target_dir = tmp_path / "target"
        target_dir.mkdir()
        (target_dir / "vdd.csv").write_text(vdd_to_csv(sol.q))
        (target_dir / "edd.csv").write_text(edd_to_csv(theta))
        (target_dir / "summary.json").write_text(json.dumps(
            {"derived_m": model.increments.mean, "selected_u": 12}))
        out = tmp_path / "fit"
        code = main(["calibrate", str(target_dir), "--mode", "composite",
                     "--rmax", "2", "--rho-min", "0.3", "--rho-max", "0.5",
                     "--rho-step", "0.1", "--out", str(out)])
        assert code == 4
        report = json.loads((out / "report.json").read_text())
        assert "error" in report

    def test_linear_fits_load_no_optimizer(self, tmp_path):
        # The increment fit is a numpy simplex: a linear single fit at the
        # default --rmax and a composite on the BA tree load no scipy module.
        target = self._composite_target(tmp_path, (0.3, 0.7), 0.3, 12)
        code = (
            "from npagraph.cli import main\n"
            f"t, out = {str(target)!r}, {str(tmp_path)!r}\n"
            "assert main(['calibrate', t, '--out', out + '/single']) == 0\n"
            "assert main(['calibrate', t, '--mode', 'composite', '--first',\n"
            "             'ba-tree', '--rmax', '3', '--rho-min', '0.25',\n"
            "             '--rho-max', '0.35', '--rho-step', '0.05',\n"
            "             '--out', out + '/composite']) == 0\n")
        assert _modules_after(code, "scipy") == []
        assert (tmp_path / "single" / "model.json").exists()
        assert (tmp_path / "composite" / "model.json").exists()

    def _composite_target(self, path: Path, probs, rho: float, u: int,
                          weights=WeightFunction.linear(g=1)) -> Path:
        """Exact target of a BA tree (share rho) plus a complement with
        these weights, linear by default, and increments probs from one
        arc."""
        from npagraph import mix_edd, mix_vdd
        ba = BaTreeSpec()
        comp = NpaModelSpec(
            weights=weights,
            increments=IncrementDistribution(min_arcs=1, probs=probs))
        sol1, sol2 = solve_vdd(ba, 4000), solve_vdd(comp, 4000)
        th1 = symmetrize(solve_arc_dd(ba, sol1, u))
        th2 = symmetrize(solve_arc_dd(comp, sol2, u))
        m2 = comp.increments.mean
        m_tot = rho + (1 - rho) * m2
        target_dir = path / "target"
        target_dir.mkdir()
        (target_dir / "vdd.csv").write_text(vdd_to_csv(
            mix_vdd([(sol1.q, rho), (sol2.q, 1 - rho)])))
        (target_dir / "edd.csv").write_text(edd_to_csv(
            mix_edd([(th1, 1.0, rho), (th2, m2, 1 - rho)])))
        (target_dir / "summary.json").write_text(json.dumps(
            {"derived_m": m_tot, "selected_u": u}))
        return target_dir

    def test_composite_rerun_byte_identical(self, tmp_path):
        # The rho grid's floats replay as --rho-step=0.05 and so on.
        target = self._composite_target(tmp_path, (0.3, 0.7), 0.3, 12)
        first, second = tmp_path / "c1", tmp_path / "c2"
        assert main(["calibrate", str(target), "--mode", "composite",
                     "--rmax", "3", "--rho-min", "0.25", "--rho-max", "0.35",
                     "--rho-step", "0.05", "--out", str(first)]) == 0
        assert main(["rerun", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        a, b = _tree_bytes(first), _tree_bytes(second)
        assert a.keys() == b.keys() and "model.json" in a
        assert all(a[name] == b[name] for name in a if name != "manifest.json")

    def test_composite_mode_with_rho_flags(self, tmp_path):
        rho = 0.3
        target_dir = self._composite_target(tmp_path, (0.4, 0.6), rho, 12)
        out = tmp_path / "fit"
        code = main(["calibrate", str(target_dir), "--mode", "composite",
                     "--first", "ba-tree", "--rmax", "2",
                     "--rho-min", "0.25", "--rho-max", "0.35",
                     "--rho-step", "0.05", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["details"]["rho"] - rho) <= 0.05 + 1e-9
        assert report["details"]["recurrence_variant"] == "printed"
        fitted = json.loads((out / "model.json").read_text())
        assert fitted["type"] == "composite"

    def test_planted_composite_not_stalled(self, tmp_path):
        # BA tree plus r = (0.3, 0.7) from one arc, rho = 0.3. Every rho of
        # the grid is fitted by one inverted candidate, and the command exits
        # 0 with no stall state left to report.
        rho = 0.3
        target_dir = self._composite_target(tmp_path, (0.3, 0.7), rho, 20)
        out = tmp_path / "fit"
        code = main(["calibrate", str(target_dir), "--mode", "composite",
                     "--first", "ba-tree", "--rmax", "3",
                     "--rho-min", "0.25", "--rho-max", "0.35",
                     "--rho-step", "0.05", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "stalled" not in report
        fitted = [e for e in report["details"]["grid"] if "objective" in e]
        assert report["evaluations"] == len(fitted)
        assert (report["solver_failures"], report["failure_types"]) == (0, {})
        assert abs(report["details"]["rho"] - rho) <= 0.01 + 1e-9


# ---------------------------------------------------------------------------
# The byte-identity command set of scripts/output_digests.py
# ---------------------------------------------------------------------------

def test_output_digests_commands_parse():
    # Each command of the set is a command line the parser takes, writing
    # to its own directory, and each spec it solves is a valid model; none
    # is run here.
    path = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    names = [name for name, _ in digests.COMMANDS]
    assert len(names) == len(set(names)) == 28
    for name, argv in digests.COMMANDS:
        assert cli.build_parser().parse_args(argv).out == name
    for text in map(json.dumps, digests.SPECS.values()):
        assert validate_model(load_model(text))
