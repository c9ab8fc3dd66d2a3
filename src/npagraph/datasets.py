"""Ingestion of real network edge lists and empirical distribution targets.

Datasets are treated as undirected simple graphs: duplicate and reversed pairs
collapse to one edge, self-loops are dropped with a counted warning, and node
ids are remapped to a dense range with the original ids retained on the graph.
Both readers return the graph with those counts, as ParseStats.
"""

from __future__ import annotations

import gzip
import itertools
import logging
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from .errors import EmptyGraph, EmptyInput, InsufficientTail
from .growth import _edge_tokens, _is_header_line
from .models import DegreeDistribution, Graph
from .solver import _column_csv

log = logging.getLogger(__name__)


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


@dataclass(frozen=True)
class ParseStats:
    self_loops_dropped: int
    duplicates_collapsed: int


def parse_edge_list(lines: Iterable[str]) -> tuple[Graph, ParseStats]:
    """Parse node-id pairs into an undirected simple graph, with the counts
    of dropped self-loops and collapsed duplicates.

    The text follows the edge-list syntax of the growth module: two integer
    ids per line, separated by spaces or tabs; '#' and '%' start comments,
    blank lines are skipped, and any other line raises MalformedLine with
    its line number. Self-loops are dropped, ids are remapped to the dense
    range 0 .. n-1 in increasing order (kept as labels), and duplicate or
    reversed pairs collapse to one edge.
    """
    return _simple_graph(_edge_tokens(lines))


def load_edge_list(path: Union[str, Path]) -> tuple[Graph, ParseStats]:
    """Read an edge-list file, transparently handling gzip compression.

    Gives what parse_edge_list gives over the file's lines. np.loadtxt reads
    a path in C chunks, several times faster than it takes lines from a
    Python iterator, but strips only '#' comments on that route. So the
    leading comment block ('#' or KONECT's '%') is skipped by its line
    count, and a file that this read rejects, for example one with a '%'
    comment further down, goes through parse_edge_list's route, which
    names the bad line.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt") as fh:
        header = sum(1 for _ in itertools.takewhile(_is_header_line, fh))
        try:
            with warnings.catch_warnings():  # comment-only text is no error
                warnings.simplefilter("ignore", UserWarning)
                pairs = np.loadtxt(str(path), dtype=np.int64, comments="#",
                                   skiprows=header, ndmin=2)
        except ValueError:
            pairs = None
        if pairs is None or (pairs.shape[1] != 2 and pairs.size):
            fh.seek(0)
            pairs = _edge_tokens(fh)
    return _simple_graph(pairs.reshape(-1, 2))


def _simple_graph(raw: np.ndarray) -> tuple[Graph, ParseStats]:
    """The undirected simple graph of an (E, 2) array of id pairs, and its
    parse counts.

    Ids that already are the dense range 0 .. n-1, as `generate` writes
    them, are kept as they are; np.unique would only sort them to the same
    labels and the same dense ids. Each edge is kept once, as its (lower,
    higher) dense id pair, in increasing order.
    """
    is_loop = raw[:, 0] == raw[:, 1]
    kept = raw[~is_loop]
    if not len(kept):
        raise EmptyInput("edge list holds no usable edges")
    loops = int(np.count_nonzero(is_loop))
    if loops:
        log.warning("dropped %d self-loop(s)", loops)
    n = int(kept.max()) + 1
    if kept.min() == 0 and n <= kept.size and np.bincount(
            kept.ravel(), minlength=n).all():
        ids, dense = np.arange(n, dtype=np.int64), kept
    else:
        ids, dense = np.unique(kept, return_inverse=True)
        n = len(ids)
    a, b = dense.reshape(-1, 2).T
    # return_counts keeps np.unique on its sort path; NumPy >= 2.3 otherwise
    # hashes, which is many times slower on int64 keys.
    packed, _ = np.unique(np.minimum(a, b) * np.int64(n) + np.maximum(a, b),
                          return_counts=True)
    graph = Graph(n, np.column_stack([packed // n, packed % n]),
                  directed=False, labels=ids)
    return graph, ParseStats(self_loops_dropped=loops,
                             duplicates_collapsed=len(kept) - graph.edge_count)


def summarize(graph: Graph) -> DatasetSummary:
    """Node/edge counts, mean degree, and the implied mean edges per node."""
    if graph.vertex_count == 0:
        raise EmptyGraph("cannot summarize an empty graph")
    mean_degree = 2.0 * graph.edge_count / graph.vertex_count
    return DatasetSummary(node_count=graph.vertex_count,
                          edge_count=graph.edge_count,
                          mean_degree=mean_degree,
                          derived_m=mean_degree / 2.0)


def vdd_counts_csv(graph: Graph, smoothed: DegreeDistribution) -> str:
    """degree,count,probability rows: raw histogram counts next to the
    (possibly smoothed) probabilities used downstream."""
    counts = np.bincount(graph.degrees(),
                         minlength=smoothed.max_degree + 1)
    degrees = range(smoothed.min_degree, smoothed.max_degree + 1)
    return _column_csv("degree,count,probability", degrees,
                       counts[degrees.start:degrees.stop].tolist(),
                       smoothed.probs.tolist())


def id_map_csv(graph: Graph) -> str:
    """dense_id,original_id mapping retained from parsing."""
    labels = np.asarray([] if graph.labels is None else graph.labels,
                        dtype=np.int64)
    return _column_csv("dense_id,original_id", range(len(labels)),
                       labels.tolist())


# ---------------------------------------------------------------------------
# Smoothing
# ---------------------------------------------------------------------------

def smooth_vdd(q: DegreeDistribution, method: str = "none",
               base: float = 2.0, cut: int = 20) -> DegreeDistribution:
    """Optional smoothing of an empirical degree distribution.

    "none" returns the input unchanged. "log-bin" spreads each geometric
    bin's mass uniformly over the degrees inside it. "tail-powerlaw" fits
    C * k**(-beta) by least squares on log-log to the nonzero tail at k >= cut
    and replaces the tail, rescaled so its mass is preserved exactly.
    """
    if method == "none":
        return q
    if method == "log-bin":
        return _smooth_log_bin(q, base)
    if method == "tail-powerlaw":
        return _smooth_tail_powerlaw(q, cut)
    raise ValueError(f"unknown smoothing method {method!r}")


def _smooth_log_bin(q: DegreeDistribution, base: float) -> DegreeDistribution:
    if base <= 1.0:
        raise ValueError("log-bin base must exceed 1")
    probs = np.array(q.probs)
    out = np.empty_like(probs)
    start = q.min_degree
    edge = max(start, 1)
    while start <= q.max_degree:
        nxt = max(edge + 1, int(math.ceil(edge * base)))
        a = start - q.min_degree
        b = min(nxt - 1, q.max_degree) - q.min_degree
        width = b - a + 1
        out[a:b + 1] = probs[a:b + 1].sum() / width
        start = start + width
        edge = nxt
    return DegreeDistribution(min_degree=q.min_degree, probs=out,
                              truncation_mass=q.truncation_mass)


def _smooth_tail_powerlaw(q: DegreeDistribution, cut: int) -> DegreeDistribution:
    degrees = q.degrees()
    probs = np.array(q.probs)
    tail = degrees >= cut
    fit_points = tail & (probs > 0.0)
    if np.count_nonzero(fit_points) < 5:
        raise InsufficientTail(
            f"only {np.count_nonzero(fit_points)} nonzero points beyond degree "
            f"{cut}; need at least 5")
    slope, intercept = np.polyfit(np.log(degrees[fit_points].astype(float)),
                                  np.log(probs[fit_points]), 1)
    fitted = np.exp(intercept) * np.power(degrees[tail].astype(float), slope)
    original_mass = probs[tail].sum()
    fitted *= original_mass / fitted.sum()
    out = probs.copy()
    out[tail] = fitted
    return DegreeDistribution(min_degree=q.min_degree, probs=out,
                              truncation_mass=q.truncation_mass)
