"""Ingestion of real network edge lists and empirical distribution targets.

Datasets are treated as undirected simple graphs: duplicate and reversed pairs
collapse to one edge, self-loops are dropped with a counted warning, and node
ids are remapped to a dense range with the original ids retained on the graph.
`load_edge_list` is the one edge-list reader; it returns the graph with those
counts, as ParseStats.
"""

from __future__ import annotations

import gzip
import itertools
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO, Union

import numpy as np

from .errors import EmptyInput, InsufficientTail
from .models import DegreeDistribution, Graph
from .solver import _column_csv, _loadtxt, _read_blocks

log = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class ParseStats:
    self_loops_dropped: int
    duplicates_collapsed: int


def load_edge_list(path: Union[str, Path]) -> tuple[Graph, ParseStats]:
    """Read an edge-list file, transparently handling gzip compression, as
    an undirected simple graph with the counts of dropped self-loops and
    collapsed duplicates.

    Lines follow the syntax of _edge_tokens. Self-loops are dropped, ids are
    remapped to the dense range 0 .. n-1 in increasing order (kept as
    labels), and duplicate or reversed pairs collapse to one edge.
    np.loadtxt reads a path in C chunks, several times faster than it takes
    lines from a Python iterator, but strips only '#' comments on that
    route. So the leading comment block ('#' or KONECT's '%') is skipped by
    its line count, and a file that this read rejects, for example one with
    a '%' comment further down, is read again by _edge_tokens a block of
    lines at a time, and np.loadtxt's rejection of a block names its bad
    line.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt") as fh:
        header = sum(1 for _ in itertools.takewhile(  # blank or comment
            lambda ln: not ln.strip() or ln.lstrip()[0] in "#%", fh))
        pairs = _loadtxt(str(path), dtype=np.int64, comments="#",
                         skiprows=header, ndmin=2)
        if pairs is None or (pairs.shape[1] != 2 and pairs.size):
            fh.seek(0)
            pairs = _edge_tokens(fh)
    return _simple_graph(pairs.reshape(-1, 2))


def _edge_tokens(fh: TextIO) -> np.ndarray:
    """The (E, 2) int64 array of the id pairs in an edge-list text, in file
    order, read by _read_blocks with _edge_pairs.

    A data line holds two integer ids separated by spaces or tabs. Text from
    a '#' or '%' to the end of its line is a comment, so a pair may carry a
    trailing comment; blank lines are skipped, and CRLF line ends are
    accepted. Any other line, or an id outside int64, raises MalformedLine
    with its 1-based line number.
    """
    return _read_blocks(fh, _edge_pairs)


def _edge_pairs(lines: list[str]) -> np.ndarray | None:
    """The (E, 2) id pairs of the lines, or None when np.loadtxt rejects one.

    np.loadtxt strips comments in its C tokenizer only when given a single
    comment string; given two, it runs a Python function on every line. So
    each '%' is made a '#', which starts a comment just as '%' does, and
    only '#' is passed.
    """
    pairs = _loadtxt([s.replace("%", "#") for s in lines], dtype=np.int64,
                     comments="#", ndmin=2)
    if pairs is None or (pairs.shape[1] != 2 and pairs.size):
        return None
    return pairs.reshape(-1, 2)


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
        raise EmptyInput("cannot summarize an empty graph")
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
