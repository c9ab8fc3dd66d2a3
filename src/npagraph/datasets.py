"""Empirical targets from an ingested network: its summary statistics and
optional smoothing of its degree distribution.

The network itself is read by `formats.load_edge_list`, as an undirected
simple graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InsufficientTail
from .models import DegreeDistribution, Graph

# Geometric ratio of consecutive bin edges in "log-bin" smoothing.
LOG_BIN_BASE = 2.0
# Least degree of the tail that "tail-powerlaw" smoothing fits and replaces.
TAIL_FIT_CUT = 20


@dataclass(frozen=True)
class DatasetSummary:
    """Headline statistics of an ingested network."""

    node_count: int
    edge_count: int
    mean_degree: float
    derived_m: float

    def to_dict(self) -> dict:
        return {"node_count": self.node_count, "edge_count": self.edge_count,
                "mean_degree": self.mean_degree, "derived_m": self.derived_m}


def summarize(graph: Graph) -> DatasetSummary:
    """Node/edge counts, mean degree, and the implied mean edges per node."""
    if graph.vertex_count == 0:
        raise EmptyInput("cannot summarize an empty graph")
    mean_degree = 2.0 * graph.edge_count / graph.vertex_count
    return DatasetSummary(node_count=graph.vertex_count,
                          edge_count=graph.edge_count,
                          mean_degree=mean_degree,
                          derived_m=mean_degree / 2.0)


# ---------------------------------------------------------------------------
# Smoothing
# ---------------------------------------------------------------------------

def smooth_vdd(q: DegreeDistribution, method: str = "none") -> DegreeDistribution:
    """Optional smoothing of an empirical degree distribution.

    "none" returns the input unchanged. "log-bin" spreads each geometric
    bin's mass uniformly over the degrees inside it; consecutive bin edges
    grow by the factor LOG_BIN_BASE. "tail-powerlaw" fits C * k**(-beta) by
    least squares on log-log to the nonzero tail at k >= TAIL_FIT_CUT and
    replaces the tail, rescaled so its mass is preserved exactly.
    """
    if method == "none":
        return q
    if method == "log-bin":
        return _smooth_log_bin(q)
    if method == "tail-powerlaw":
        return _smooth_tail_powerlaw(q)
    raise ValueError(f"unknown smoothing method {method!r}")


def _smooth_log_bin(q: DegreeDistribution) -> DegreeDistribution:
    probs = np.array(q.probs)
    out = np.empty_like(probs)
    start = q.min_degree
    edge = max(start, 1)
    while start <= q.max_degree:
        nxt = max(edge + 1, int(math.ceil(edge * LOG_BIN_BASE)))
        a = start - q.min_degree
        b = min(nxt - 1, q.max_degree) - q.min_degree
        width = b - a + 1
        out[a:b + 1] = probs[a:b + 1].sum() / width
        start = start + width
        edge = nxt
    return DegreeDistribution(min_degree=q.min_degree, probs=out,
                              truncation_mass=q.truncation_mass)


def _smooth_tail_powerlaw(q: DegreeDistribution) -> DegreeDistribution:
    degrees = q.degrees()
    probs = np.array(q.probs)
    tail = degrees >= TAIL_FIT_CUT
    fit_points = tail & (probs > 0.0)
    if np.count_nonzero(fit_points) < 5:
        raise InsufficientTail(
            f"only {np.count_nonzero(fit_points)} nonzero points beyond degree "
            f"{TAIL_FIT_CUT}; need at least 5")
    slope, intercept = np.polyfit(np.log(degrees[fit_points].astype(float)),
                                  np.log(probs[fit_points]), 1)
    fitted = np.exp(intercept) * np.power(degrees[tail].astype(float), slope)
    original_mass = probs[tail].sum()
    fitted *= original_mass / fitted.sum()
    out = probs.copy()
    out[tail] = fitted
    return DegreeDistribution(min_degree=q.min_degree, probs=out,
                              truncation_mass=q.truncation_mass)
