"""Output checks for the npagraph benchmark, computed with numpy alone.

Each check recomputes what a command wrote from the command's own inputs,
or tests a property the method must have. None compares against a stored
copy of an earlier output, and none calls into npagraph. A failed check
raises CheckFailed with a message that names the file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output disagrees with its independent recomputation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= max(abs_, rel * abs(b))


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------

def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def read_edge_list(path: Path) -> tuple[int, int, np.ndarray]:
    """Header node and edge counts, and the (E, 2) id pairs of the file."""
    nodes = edges = None
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            fields = line.replace(":", " ").split()
            if "Nodes" in fields:
                nodes = int(fields[fields.index("Nodes") + 1])
            if "Edges" in fields:
                edges = int(fields[fields.index("Edges") + 1])
    require(nodes is not None and edges is not None,
            f"{path}: header lacks the node and edge counts")
    pairs = np.loadtxt(path, comments="#", dtype=np.int64, ndmin=2)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    return nodes, edges, pairs


def read_vdd(path: Path) -> tuple[int, np.ndarray]:
    """(lowest degree, dense probabilities) of a degree,...,probability CSV."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    degrees = rows[:, 0].astype(np.int64)
    lo = int(degrees.min())
    probs = np.zeros(int(degrees.max()) - lo + 1)
    probs[degrees - lo] = rows[:, -1]
    return lo, probs


def read_edd(path: Path) -> tuple[int, np.ndarray]:
    """(lowest degree, dense square matrix) of an l,k,probability CSV."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    ls = rows[:, 0].astype(np.int64)
    ks = rows[:, 1].astype(np.int64)
    lo = int(min(ls.min(), ks.min()))
    hi = int(max(ls.max(), ks.max()))
    mat = np.zeros((hi - lo + 1, hi - lo + 1))
    mat[ls - lo, ks - lo] = rows[:, 2]
    return lo, mat


def window(lo: int, mat: np.ndarray, g: int, u: int) -> np.ndarray:
    return mat[g - lo:u - lo + 1, g - lo:u - lo + 1]


# ---------------------------------------------------------------------------
# Independent model arithmetic
# ---------------------------------------------------------------------------

def increments_upto(increments: dict, k_hi: int) -> np.ndarray:
    """r_k for k = 0 .. k_hi from a model's "increments" JSON object."""
    r = np.zeros(k_hi + 1)
    lo = int(increments["min_arcs"])
    probs = np.asarray(increments["probs"], dtype=np.float64)
    r[lo:lo + len(probs)] = probs[:max(0, k_hi + 1 - lo)]
    return r


def linear_vdd(r: np.ndarray, k_hi: int) -> np.ndarray:
    """Q_k for k = 1 .. k_hi under linear weights (f_k = k, g = 1), where the
    mean weight is 2m and the recurrence is Q_k = (2 r_k + (k-1) Q_{k-1}) / (k+2)."""
    r = np.concatenate([r, np.zeros(max(0, k_hi + 1 - len(r)))])
    q = np.zeros(k_hi)
    prev = 0.0
    for k in range(1, k_hi + 1):
        prev = (2.0 * r[k] + (k - 1) * prev) / (k + 2)
        q[k - 1] = prev
    return q


def arc_matrix(f: np.ndarray, r: np.ndarray, q: np.ndarray, m: float,
               g: int, u: int) -> np.ndarray:
    """Joint (tail, head) arc-degree matrix on [g, u]^2, row by row, under the
    CLI's default ("printed") recurrence.

    Cell (l, k) collects new l-arc vertices landing on degree-(k-1) heads,
    tails promoted from l - 1 and heads promoted from k - 1, over the
    denominator m (l f_l + m f_k + m f_l). q holds Q_k for k = g .. u.
    """
    n = u - g + 1
    mat = np.zeros((n, n))
    m2 = m * m
    for li in range(n):
        l_deg = g + li
        f_l = f[l_deg]
        f_lprev = f[l_deg - 1] if li > 0 else 0.0
        for ki in range(n):
            k_deg = g + ki
            den = m * (l_deg * f_l + m * f[k_deg] + m * f_l)
            if den <= 0.0:
                continue
            f_kprev = f[k_deg - 1] if ki > 0 else 0.0
            q_kprev = q[ki - 1] if ki > 0 else 0.0
            value = f_kprev * l_deg * r[l_deg] * q_kprev
            if li > 0:
                value += f_lprev * m2 * mat[li - 1, ki]
            if ki > 0:
                value += f_kprev * m2 * mat[li, ki - 1]
            mat[li, ki] = value / den
    return mat


def linear_edge_matrix(r: np.ndarray, u: int) -> np.ndarray:
    """Symmetric edge-degree matrix on [1, u]^2 of a linear-weight model with
    increment probabilities r (indexed by arc count), printed recurrence."""
    f = np.arange(u + 1, dtype=np.float64)
    m = float((np.arange(len(r)) * r).sum())
    q = linear_vdd(r, u)
    r_u = np.concatenate([r, np.zeros(max(0, u + 1 - len(r)))])
    arcs = arc_matrix(f, r_u, q, m, 1, u)
    return 0.5 * (arcs + arcs.T)


# ---------------------------------------------------------------------------
# simulate: generate, ingest, compare
# ---------------------------------------------------------------------------

def check_edge_file(path: Path, runs: dict, vdd_path: Path
                    ) -> tuple[int, np.ndarray, np.ndarray]:
    """Header counts match the file and runs.json, and the written VDD's
    degree sum is twice the edge count. Returns (nodes, pairs, degrees)."""
    nodes, edges, pairs = read_edge_list(path)
    rep = runs["replications"][0]
    require(len(pairs) == edges, f"{path}: header says {edges} edges, "
            f"the file lists {len(pairs)}")
    require(rep["vertices"] == nodes and rep["edges"] == edges,
            f"{path}: header ({nodes}, {edges}) disagrees with runs.json "
            f"({rep['vertices']}, {rep['edges']})")
    require(len(pairs) == 0 or (pairs.min() >= 0 and pairs.max() < nodes),
            f"{path}: vertex ids outside [0, {nodes})")
    lo, probs = read_vdd(vdd_path)
    degree_sum = float((np.arange(lo, lo + len(probs)) * probs).sum()) * nodes
    require(close(degree_sum, 2.0 * edges, rel=1e-9),
            f"{vdd_path}: degree sum {degree_sum!r} is not twice the "
            f"{edges} edges")
    return nodes, pairs, np.bincount(pairs.ravel(), minlength=nodes)


def check_vdd_recount(vdd_path: Path, degrees: np.ndarray) -> None:
    """The VDD CSV equals the degree histogram recounted from the edge list."""
    counts = np.bincount(degrees)
    lo = int(np.flatnonzero(counts)[0])
    expected = counts[lo:] / len(degrees)
    got_lo, got = read_vdd(vdd_path)
    require(got_lo == lo and len(got) == len(expected),
            f"{vdd_path}: degrees {got_lo}..{got_lo + len(got) - 1}, "
            f"recount gives {lo}..{lo + len(expected) - 1}")
    worst = float(np.abs(got - expected).max())
    require(worst <= 1e-12, f"{vdd_path}: differs from the recount by {worst:.3e}")


def edd_recount(pairs: np.ndarray, degrees: np.ndarray, u: int) -> np.ndarray:
    """Edge-endpoint degree shares on [1, u]^2: 1/(2E) per edge and order."""
    d1 = degrees[pairs[:, 0]]
    d2 = degrees[pairs[:, 1]]
    inside = (d1 <= u) & (d2 <= u)
    cells = np.concatenate([(d1[inside] - 1) * u + d2[inside] - 1,
                            (d2[inside] - 1) * u + d1[inside] - 1])
    return np.bincount(cells, minlength=u * u).reshape(u, u) / (2.0 * len(pairs))


def check_edd_recount(edd_path: Path, pairs: np.ndarray, degrees: np.ndarray,
                      u: int) -> None:
    lo, got = read_edd(edd_path)
    expected = edd_recount(pairs, degrees, u)
    require(lo == 1 and got.shape == expected.shape,
            f"{edd_path}: extent {lo}..{lo + len(got) - 1}, expected 1..{u}")
    worst = float(np.abs(got - expected).max())
    require(worst <= 1e-12, f"{edd_path}: differs from the recount by {worst:.3e}")


def check_growth_shares(degrees: np.ndarray, r: np.ndarray, k_hi: int = 10,
                        z_max: float = 5.0) -> float:
    """Share of the growth component's vertices at each degree 1..k_hi
    against the linear-weight recurrence, in binomial standard errors.
    Returns the largest |z|."""
    n = len(degrees)
    q = linear_vdd(r, k_hi)
    shares = np.bincount(degrees, minlength=k_hi + 1)[1:k_hi + 1] / n
    z = (shares - q) / np.sqrt(q * (1.0 - q) / n)
    worst = float(np.abs(z).max())
    require(worst <= z_max, f"growth component shares off the recurrence by "
            f"{worst:.2f} standard errors (limit {z_max}); z = {np.round(z, 2)}")
    return worst


def check_ingest(summary: dict, pairs: np.ndarray) -> None:
    """Node, edge, duplicate and self-loop counts equal a recount of the
    distinct unordered non-loop pairs."""
    loops = pairs[:, 0] == pairs[:, 1]
    kept = pairs[~loops]
    ids = np.unique(kept)
    lo = np.minimum(kept[:, 0], kept[:, 1])
    hi = np.maximum(kept[:, 0], kept[:, 1])
    distinct = len(np.unique(lo * np.int64(ids.max() + 1) + hi))
    expected = {"node_count": len(ids), "edge_count": distinct,
                "duplicates_collapsed": len(kept) - distinct,
                "self_loops_dropped": int(loops.sum())}
    for key, value in expected.items():
        require(summary.get(key) == value,
                f"ingest summary {key} = {summary.get(key)}, recount gives {value}")
    require(close(summary["mean_degree"], 2.0 * distinct / len(ids), rel=1e-12),
            f"ingest mean_degree {summary['mean_degree']} is not 2E/N")


def check_compare(printed: str, edd_a: Path, edd_b: Path,
                  g: int | None = None, u: int | None = None) -> None:
    """compare's printed distance equals the Frobenius norm of the difference
    of the two CSVs over the shared window (its default when g, u are None)."""
    lo_a, a = read_edd(edd_a)
    lo_b, b = read_edd(edd_b)
    g = max(lo_a, lo_b) if g is None else g
    u = min(lo_a + len(a) - 1, lo_b + len(b) - 1) if u is None else u
    expected = float(np.sqrt(((window(lo_a, a, g, u)
                               - window(lo_b, b, g, u)) ** 2).sum()))
    try:
        got = float(printed.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise CheckFailed(f"compare printed no distance: {printed!r}") from None
    require(close(got, expected, rel=1e-9, abs_=1e-15),
            f"compare printed {got!r}, the CSVs give {expected!r}")


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def _npa_increments(model: dict, where: str) -> np.ndarray:
    require(model.get("type") == "npa", f"{where}: expected an npa model")
    w = model["weights"]
    require(w["rule"] == "linear" and int(w["g"]) == 1 and w.get("M") is None
            and not w.get("table"), f"{where}: weights are not linear from g = 1")
    inc = model["increments"]
    probs = np.asarray(inc["probs"], dtype=np.float64)
    require(int(inc["min_arcs"]) >= 1 and probs.min() >= 0.0
            and abs(probs.sum() - 1.0) <= 1e-9,
            f"{where}: increment probabilities are not a distribution")
    return increments_upto(inc, int(inc["min_arcs"]) + len(probs) - 1)


def fit_edge_matrix(model: dict, u: int, where: str) -> tuple[np.ndarray, dict]:
    """Validate a written fit and rebuild its edge matrix on [1, u]^2.

    Returns the matrix and, for a composite, its rho, m1, m2 and gamma.
    """
    if model.get("type") == "npa":
        return linear_edge_matrix(_npa_increments(model, where), u), {}
    require(model.get("type") == "composite" and len(model["components"]) == 2,
            f"{where}: expected an npa model or a two-part composite")
    (first, rho), (second, rho2) = ((c["model"], float(c["rho"]))
                                    for c in model["components"])
    require(first.get("type") == "ba_tree", f"{where}: first part is not ba_tree")
    require(0.0 < rho < 1.0 and abs(rho + rho2 - 1.0) <= 1e-12,
            f"{where}: fractions {rho}, {rho2} are not convex")
    r2 = _npa_increments(second, where)
    m1, m2 = 1.0, float((np.arange(len(r2)) * r2).sum())
    m_mix = rho * m1 + (1.0 - rho) * m2
    gamma = rho * m1 / m_mix
    mixed = (gamma * linear_edge_matrix(np.array([0.0, 1.0]), u)
             + (1.0 - gamma) * linear_edge_matrix(r2, u))
    return mixed, {"rho": rho, "m1": m1, "m2": m2, "gamma": gamma}


def check_fit(fit_dir: Path, target_dir: Path) -> dict:
    """A written fit validates and its reported distance is the window norm
    between the target EDD and the edge matrix rebuilt from model.json."""
    model = read_json(fit_dir / "model.json")
    report = read_json(fit_dir / "report.json")
    u = int(read_json(target_dir / "summary.json")["selected_u"])
    g, u_rep = report["details"]["window"]
    require(u_rep == u, f"{fit_dir}: window ends at {u_rep}, target u = {u}")
    mixed, parts = fit_edge_matrix(model, u, str(fit_dir / "model.json"))
    lo, target = read_edd(target_dir / "edd.csv")
    expected = float(np.sqrt(((window(1, mixed, g, u)
                               - window(lo, target, g, u)) ** 2).sum()))
    require(close(report["distance"], expected, rel=1e-6, abs_=1e-7),
            f"{fit_dir}: reported distance {report['distance']!r}, "
            f"model.json gives {expected!r}")
    return {"model": model, "report": report, **parts}


def check_single_fit(fit_dir: Path, target_dir: Path, planted: np.ndarray,
                     tolerance: float = 0.05) -> None:
    """Planted r_k recovered within tolerance, distance below 1e-3."""
    fit = check_fit(fit_dir, target_dir)
    r = _npa_increments(fit["model"], str(fit_dir))
    n = max(len(r), len(planted))
    diff = np.abs(np.pad(r, (0, n - len(r))) - np.pad(planted, (0, n - len(planted))))
    require(float(diff.max()) <= tolerance,
            f"{fit_dir}: r_k off the planted values by {float(diff.max()):.3f}")
    require(fit["report"]["distance"] < 1e-3,
            f"{fit_dir}: distance {fit['report']['distance']} >= 1e-3")


def check_composite_fit(fit_dir: Path, target_dir: Path, rho_planted: float,
                        rho_tolerance: float, max_distance: float = 1e-4) -> None:
    """rho within rho_tolerance of the planted value at a distance below
    max_distance; the reported gamma is rho m1 / m_mix recomputed from
    model.json."""
    fit = check_fit(fit_dir, target_dir)
    details = fit["report"]["details"]
    require(close(details["rho"], fit["rho"], rel=0.0, abs_=1e-12),
            f"{fit_dir}: report rho {details['rho']} != model rho {fit['rho']}")
    require(abs(fit["rho"] - rho_planted) <= rho_tolerance + 1e-9,
            f"{fit_dir}: rho {fit['rho']} is more than {rho_tolerance} from "
            f"{rho_planted}")
    require(fit["report"]["distance"] < max_distance,
            f"{fit_dir}: distance {fit['report']['distance']} >= {max_distance}")
    for where, value in (("report", details["gamma"]),
                         ("model metadata", fit["model"]["metadata"]["gamma"])):
        require(close(value, fit["gamma"], rel=1e-9),
                f"{fit_dir}: {where} gamma {value!r}, rho m1 / m_mix gives "
                f"{fit['gamma']!r}")
