"""Acceptance suite: one test per criterion, at the stated tolerances.

Real-dataset criteria run against the public Brightkite friendship edge list
when it is available locally (data/ directory or NPAGRAPH_DATA); they skip
with instructions otherwise, never fake a pass. Report artifacts are
written under each test's temporary directory, never into the repository.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from npagraph import (AerModelSpec, BaTreeSpec, DegreeDistribution, RngStream,
                      complement_vdd, edge_share, grow_aer,
                      grow_aer_unpruned, mix_edd, mix_vdd, solve_arc_dd,
                      solve_vdd, symmetrize)
from npagraph import calibrate
from npagraph.calibrate import (K_MAX, CalibrationTarget, calibrate_composite,
                                calibrate_single)
from npagraph.cli import main as cli_main
from npagraph.formats import load_edge_list
from npagraph.growth import measure_edd, measure_vdd, summarize
from npagraph.models import dump_model, preset_brightkite, select_u

from crosscheck import aer_lag1, edd_crosscheck, reference_models, vdd_agreement

BRIGHTKITE_NODES = 58228
BRIGHTKITE_EDGES = 214078


def _announce(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})", flush=True)


def _dataset_path(stem: str) -> Path | None:
    roots = []
    if os.environ.get("NPAGRAPH_DATA"):
        roots.append(Path(os.environ["NPAGRAPH_DATA"]))
    roots.append(Path(__file__).resolve().parent.parent / "data")
    for root in roots:
        for ext in (".txt.gz", ".txt"):
            candidate = root / f"{stem}{ext}"
            if candidate.exists():
                return candidate
    return None


def _require_brightkite() -> Path:
    path = _dataset_path("loc-brightkite_edges")
    if path is None:
        pytest.skip("Brightkite dataset not present; download "
                    "loc-brightkite_edges.txt.gz (see README) into data/ or "
                    "set NPAGRAPH_DATA")
    return path


@pytest.fixture(scope="module")
def brightkite_graph():
    return load_edge_list(_require_brightkite())[0]


# ---------------------------------------------------------------------------
# 1. Closed-form oracle for the single-arc linear-weight tree
# ---------------------------------------------------------------------------

def test_criterion_01_ba_closed_form_oracle():
    start = time.perf_counter()
    sol = solve_vdd(BaTreeSpec(), k_max=10000)
    elapsed = time.perf_counter() - start
    ks = np.arange(1, 101, dtype=float)
    exact = 4.0 / (ks * (ks + 1.0) * (ks + 2.0))
    err = np.abs(sol.q.probs[:100] - exact).max()
    assert err < 1e-9
    assert elapsed < 1.0
    _announce("1 ba-closed-form", f"max_err={err:.2e} runtime={elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. Control equation on the bundled models
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(reference_models()))
def test_criterion_02_control_equation(name):
    sol = solve_vdd(reference_models()[name], k_max=10000)
    assert sol.control_residual < 1e-6
    _announce("2 control-equation", f"{name} residual={sol.control_residual:.2e}")


# ---------------------------------------------------------------------------
# 3. Simulation vs analysis agreement per model
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(reference_models()))
def test_criterion_03_simulation_agreement(name):
    model = reference_models()[name]
    start = time.perf_counter()
    report = vdd_agreement(model, n=100000, reps=5, rng=RngStream(3100))
    elapsed = time.perf_counter() - start
    assert report["tv_distance"] < 0.02
    assert elapsed / report["reps"] < 60.0
    _announce("3 simulation-agreement",
              f"{name} tv={report['tv_distance']:.4f} "
              f"per_rep={elapsed / report['reps']:.1f}s")


# ---------------------------------------------------------------------------
# 4. Directed-recurrence cross-check report
# ---------------------------------------------------------------------------

def test_criterion_04_edd_crosscheck_report(tmp_path):
    report = edd_crosscheck(BaTreeSpec(), n=100000, reps=20,
                            window_u=15, rng=RngStream(3200))
    out = tmp_path / "edd_crosscheck_ba.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    printed = report["variants"]["printed"]
    alt = report["variants"]["mean-weight"]
    within = printed["fraction_within_3se"] == 1.0
    documented = (printed["systematic_discrepancy"]
                  and np.isfinite(printed["max_abs_deviation"])
                  and printed["max_abs_deviation_cell"])
    assert within or documented
    # The registered mass-conserving variant must sit closer to simulation,
    # which is what makes the discrepancy report informative.
    assert alt["max_abs_deviation"] < printed["max_abs_deviation"]
    _announce("4 edd-crosscheck",
              f"printed max_dev={printed['max_abs_deviation']:.4f} "
              f"within3se={printed['fraction_within_3se']:.2f} "
              f"alt max_dev={alt['max_abs_deviation']:.4f} report={out.name}")


# ---------------------------------------------------------------------------
# 5. Mixture algebra
# ---------------------------------------------------------------------------

def test_criterion_05_mixture_algebra():
    rng = np.random.default_rng(3500)
    worst = 0.0
    for _ in range(200):
        p1 = rng.random(10)
        p2 = rng.random(10)
        q1 = DegreeDistribution(1, p1 / p1.sum())
        q2 = DegreeDistribution(1, p2 / p2.sum())
        rho = float(rng.uniform(0.05, 0.95))
        mixed = mix_vdd([(q1, rho), (q2, 1.0 - rho)])
        back = complement_vdd(mixed, q1, rho)
        worst = max(worst, float(np.abs(back.probs - q2.probs).max()))
    assert worst < 1e-12

    gamma = edge_share(1.0, 0.225, 3.6765)
    assert abs(gamma - 0.225 / 3.6765) < 1e-12
    _announce("5 mixture-algebra", f"round_trip_worst={worst:.2e} "
              f"gamma={gamma:.10f}")


# ---------------------------------------------------------------------------
# 6. Brightkite ingestion statistics
# ---------------------------------------------------------------------------

def test_criterion_06_brightkite_statistics(brightkite_graph):
    summary = summarize(brightkite_graph)
    assert summary["node_count"] == BRIGHTKITE_NODES
    assert summary["edge_count"] == BRIGHTKITE_EDGES
    assert abs(summary["derived_m"] - 3.6765) <= 1e-4
    _announce("6 brightkite-statistics",
              f"nodes={summary['node_count']} edges={summary['edge_count']} "
              f"m={summary['derived_m']:.5f}")


# ---------------------------------------------------------------------------
# 7. Composite model closes the probability-range gap
# ---------------------------------------------------------------------------

def test_criterion_07_brightkite_composite_range(brightkite_graph, monkeypatch,
                                                 tmp_path):
    graph = brightkite_graph
    vdd = measure_vdd(graph)
    edd = measure_edd(graph, 300)
    u = select_u(edd, 0.95)
    target = CalibrationTarget(vdd=vdd, edd=edd, u=u,
                               mean_increment=summarize(graph)["derived_m"])
    preset = preset_brightkite()
    first, rho = preset.components[0]
    assert isinstance(first, BaTreeSpec) and rho == 0.225
    monkeypatch.setattr(calibrate, "K_MAX", 20000)
    result = calibrate_composite(target, BaTreeSpec(), r_max=40, rho_min=rho,
                                 rho_max=rho)

    from npagraph.calibrate import component_profile
    profile = component_profile(BaTreeSpec(), target.u)
    complement = result.model.components[1][0]
    sol2 = solve_vdd(complement, 20000)
    th2 = symmetrize(solve_arc_dd(complement, sol2, u))
    m2 = complement.increments.mean
    mixed = mix_edd([(profile.edd, 1.0, rho), (th2, m2, 1.0 - rho)])
    model_max = float(mixed.window(1, u).max())
    target_max = float(edd.window(1, u).max())
    ratio = model_max / target_max
    (tmp_path / "brightkite_composite.json").write_text(json.dumps({
        "u": u, "rho": rho, "model_max_cell": model_max,
        "target_max_cell": target_max, "ratio": ratio,
        "distance": result.distance}, indent=2, sort_keys=True) + "\n")
    assert 0.5 <= ratio <= 2.0
    _announce("7 brightkite-composite", f"u={u} ratio={ratio:.3f}")


def test_criterion_07_pipeline_dry_run_on_synthetic_composite(tmp_path,
                                                               monkeypatch):
    """Same pipeline as the dataset criterion, on a bundled synthetic network.

    Grows a two-component graph (single-arc tree plus a known linear-weight
    complement), ingests it as an edge list, and runs the fixed-fraction
    composite calibration; the mixed matrix's peak cell must sit within a
    factor of two of the measured one. Keeps the real-data path executable
    end to end even when the public dataset is absent.
    """
    from npagraph.models import (CompositeSpec, IncrementDistribution,
                                 NpaModelSpec, WeightFunction)
    from npagraph import grow_composite
    from npagraph.formats import write_edge_list

    rho = 0.225
    complement = NpaModelSpec(
        weights=WeightFunction.linear(g=1),
        increments=IncrementDistribution(min_arcs=1,
                                         probs=(0.35, 0.3, 0.2, 0.1, 0.05)))
    spec = CompositeSpec(components=((BaTreeSpec(), rho), (complement,
                                                           1.0 - rho)),
                         total_n=30000)
    grown = grow_composite(spec, RngStream(7700))
    path = tmp_path / "grown.txt"
    with open(path, "w") as fh:
        write_edge_list(grown, fh)
    graph, _, _ = load_edge_list(path)

    vdd = measure_vdd(graph)
    edd = measure_edd(graph, 200)
    u = min(select_u(edd, 0.95), 40)
    target = CalibrationTarget(vdd=vdd, edd=edd, u=u,
                               mean_increment=summarize(graph)["derived_m"])
    monkeypatch.setattr(calibrate, "K_MAX", 6000)
    result = calibrate_composite(target, BaTreeSpec(), r_max=8, rho_min=rho,
                                 rho_max=rho)

    from npagraph.calibrate import component_profile
    profile = component_profile(BaTreeSpec(), target.u)
    fitted = result.model.components[1][0]
    sol2 = solve_vdd(fitted, 6000)
    th2 = symmetrize(solve_arc_dd(fitted, sol2, u))
    m2 = fitted.increments.mean
    mixed = mix_edd([(profile.edd, 1.0, rho), (th2, m2, 1.0 - rho)])
    ratio = float(mixed.window(1, u).max()) / float(edd.window(1, u).max())
    assert 0.5 <= ratio <= 2.0
    assert result.report["gamma"] == pytest.approx(
        rho / (rho + (1 - rho) * m2), abs=1e-12)
    _announce("7-dry-run synthetic-composite", f"u={u} ratio={ratio:.3f}")


# ---------------------------------------------------------------------------
# 8. Autocorrelated-graph properties
# ---------------------------------------------------------------------------

def test_criterion_08_aer_properties():
    spec = AerModelSpec(n1=35000, a=2.75)
    mean_degrees = []
    min_z = np.inf
    for rep in range(10):
        full = grow_aer_unpruned(spec, RngStream(3800, rep))
        mean_degrees.append(2.0 * full.edge_count / spec.n1)
        min_z = min(min_z, aer_lag1(full)[1])
    avg = float(np.mean(mean_degrees))
    assert abs(avg - 2.75) / 2.75 < 0.02
    # One-sided 99% confidence against the independence null.
    assert min_z > 2.326

    full = grow_aer_unpruned(spec, RngStream(3800, 0))
    pruned = grow_aer(spec, RngStream(3800, 0))
    sizes = _component_sizes(full)
    large_before = sorted(s for s in sizes if s >= 3)
    assert sorted(_component_sizes(pruned)) == large_before
    removed = spec.n1 - pruned.vertex_count
    assert removed == sum(s for s in sizes if s < 3)
    _announce("8 aer-properties",
              f"mean_degree={avg:.4f} min_z={min_z:.0f} "
              f"removed={removed}")


def _component_sizes(graph) -> list[int]:
    parent = np.arange(graph.vertex_count, dtype=np.int64)

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in graph.pairs:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[rb] = ra
    roots = np.array([find(int(v)) for v in range(graph.vertex_count)])
    return list(np.bincount(roots)[np.bincount(roots) > 0])


# ---------------------------------------------------------------------------
# 9. Synthetic calibration round trips
# ---------------------------------------------------------------------------

def test_criterion_09_calibration_round_trip():
    from npagraph.models import (IncrementDistribution, NpaModelSpec,
                                 WeightFunction)
    start = time.perf_counter()
    planted = NpaModelSpec(
        weights=WeightFunction.linear(g=1),
        increments=IncrementDistribution(min_arcs=1,
                                         probs=(0.4, 0.3, 0.2, 0.1)))
    sol = solve_vdd(planted, K_MAX)
    theta = symmetrize(solve_arc_dd(planted, sol, 20))
    target = CalibrationTarget(vdd=sol.q, edd=theta, u=20,
                               mean_increment=planted.increments.mean)
    res = calibrate_single(target, "linear", r_max=5)
    assert res.distance < 1e-3
    fitted, true = (dict(enumerate(inc.probs, inc.min_arcs))
                    for inc in (res.model.increments, planted.increments))
    for k in range(1, 6):
        assert abs(fitted.get(k, 0.0) - true.get(k, 0.0)) <= 0.05

    # Composite: plant rho = 0.3 (a coarse grid point) with a known complement.
    complement = NpaModelSpec(
        weights=WeightFunction.linear(g=1),
        increments=IncrementDistribution(min_arcs=1, probs=(0.3, 0.7)))
    ba = BaTreeSpec()
    rho = 0.3
    sol1 = solve_vdd(ba, K_MAX)
    sol2 = solve_vdd(complement, K_MAX)
    th1 = symmetrize(solve_arc_dd(ba, sol1, 20))
    th2 = symmetrize(solve_arc_dd(complement, sol2, 20))
    m2 = complement.increments.mean
    m_tot = rho + (1 - rho) * m2
    ctarget = CalibrationTarget(
        vdd=mix_vdd([(sol1.q, rho), (sol2.q, 1 - rho)]),
        edd=mix_edd([(th1, 1.0, rho), (th2, m2, 1 - rho)]),
        u=20, mean_increment=m_tot)
    step = 0.025
    cres = calibrate_composite(ctarget, BaTreeSpec(), r_max=3, rho_min=0.1,
                               rho_max=0.6, rho_step=step)
    assert abs(cres.report["rho"] - rho) <= step + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _announce("9 calibration-round-trip",
              f"single_dist={res.distance:.2e} rho={cres.report['rho']:.4f} "
              f"runtime={elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. Determinism through manifests
# ---------------------------------------------------------------------------

def test_criterion_10_manifest_determinism(tmp_path):
    spec_file = tmp_path / "ba.json"
    spec_file.write_text(dump_model(BaTreeSpec()) + "\n")
    run1 = tmp_path / "run1"
    assert cli_main(["solve", str(spec_file), "--kmax", "3000", "--umax", "40",
                     "--out", str(run1)]) == 0
    run2 = tmp_path / "run2"
    assert cli_main(["rerun", str(run1 / "manifest.json"),
                     "--out", str(run2)]) == 0

    gen1 = tmp_path / "gen1"
    assert cli_main(["generate", str(spec_file), "--n", "2000", "--seed", "11",
                     "--reps", "2", "--u", "30", "--out", str(gen1)]) == 0
    gen2 = tmp_path / "gen2"
    assert cli_main(["rerun", str(gen1 / "manifest.json"),
                     "--out", str(gen2)]) == 0

    checked = 0
    for first, second in ((run1, run2), (gen1, gen2)):
        for path in sorted(first.rglob("*")):
            if path.is_file() and path.name != "manifest.json":
                twin = second / path.relative_to(first)
                assert path.read_bytes() == twin.read_bytes(), path.name
                checked += 1
    assert checked >= 8
    _announce("10 determinism", f"{checked} files byte-identical")
