"""Monte-Carlo growth of attachment graphs, and measurement of grown or
ingested graphs: their degree distributions and summary statistics.

`grow_npa` has two exact samplers for the same attachment law. Weights with
f_k = k at every degree (`WeightFunction.is_degree()` and g <= 1) take the
endpoint-list sampler: a draw proportional to degree is a uniform pick from
the list of arc endpoints (Batagelj & Brandes, PRE 71, 036113, 2005), so
the whole run is drawn up front and resolved with numpy.
Every other weight function takes the acceptance sampler: a proposal from
the vertices and the same endpoint list, accepted with a probability that
turns its 1 + k proposal weight into f_k, one Python draw per proposal.
`grow_aer` scans vertex pairs for the autocorrelated random graph and
prunes its one- and two-vertex components.
`grow` grows any spec to n vertices, a composite as the disjoint union of
its components, each grown at its budget; `formats.write_edge_list`
writes the grown graph as text.
Replications are independent given distinct RngStream ids and can be fanned
out by the caller. Identical spec and stream reproduce a bit-identical graph
within one version of the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyInput, ZeroTotalWeight
from .models import (AerModelSpec, CompositeSpec, DegreeDistribution,
                     EdgeDegreeMatrix, Graph, IncrementDistribution, ModelSpec,
                     NpaModelSpec)


@dataclass(frozen=True)
class RngStream:
    """Reproducible random source: (seed, stream_id) fixes the whole sequence."""

    seed: int
    stream_id: int = 0
    subpath: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed,
                                     spawn_key=(self.stream_id, *self.subpath))
        return np.random.Generator(np.random.PCG64(seq))

    def substream(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id, self.subpath + (index,))


# ---------------------------------------------------------------------------
# Preferential-attachment growth
# ---------------------------------------------------------------------------

_NO_TARGET = ("every existing vertex is outside the positive-weight degree "
              "range; no attachment target available")


def grow_npa(spec: NpaModelSpec, n: int, rng: RngStream) -> Graph:
    """Grow a graph to n vertices by repeated increments.

    Each increment adds one vertex with x ~ {r_k} outgoing arcs; every arc end
    picks an existing vertex with probability proportional to its degree
    weight, all x ends sampled with replacement against the degrees as they
    were before the increment. Duplicate targets yield parallel arcs.

    Weights with f_k = k at every degree (`is_degree()` and g <= 1) are
    grown by the endpoint-list sampler; all other weights by the
    acceptance sampler. The two draw differently from the same stream, so
    the same seed gives different graphs of the same law.
    """
    gen = rng.generator()
    seed = spec.seed_graph.build(spec.weights.g)
    if n < seed.vertex_count:
        raise ValueError(f"n = {n} is below the seed size {seed.vertex_count}")
    steps = n - seed.vertex_count
    if spec.weights.is_degree() and spec.weights.g <= 1:
        pairs = _grow_endpoint_list(seed, spec.increments, steps, gen)
    else:
        pairs = _grow_by_acceptance(seed, spec, steps, gen)
    return Graph(n, pairs, directed=True)


def _increment_counts(increments: IncrementDistribution, steps: int,
                      gen: np.random.Generator) -> np.ndarray:
    """Arc counts x ~ {r_k} of `steps` increments, drawn in one call."""
    r_cum = np.cumsum(increments.prob_array())
    idx = np.searchsorted(r_cum, gen.random(steps), side="right")
    # A draw above a cumulative sum that rounds below 1 takes the top count.
    return increments.min_arcs + np.minimum(idx, len(r_cum) - 1)


def _grow_endpoint_list(seed: Graph, increments: IncrementDistribution,
                        steps: int, gen: np.random.Generator) -> np.ndarray:
    """Arcs of a run with f_k = k, drawn up front from the endpoint list.

    Arc i contributes endpoint 2i (its source) and 2i + 1 (its target) to the
    list, so a vertex of degree d holds d entries. Each new arc picks a
    uniform entry among those of the arcs before its increment: an even entry
    is a known source, an odd one the target of a strictly earlier arc, which
    pointer jumping resolves.
    """
    x = _increment_counts(increments, steps, gen)
    e0 = seed.edge_count
    new_v = np.arange(seed.vertex_count, seed.vertex_count + steps, dtype=np.int64)
    src = np.concatenate([seed.pairs[:, 0], np.repeat(new_v, x)])
    if e0 == 0 and len(src):
        raise ZeroTotalWeight(_NO_TARGET)
    before = np.repeat(e0 + np.cumsum(x) - x, x)
    pos = gen.integers(0, 2 * before)
    arc = pos >> 1
    odd = (pos & 1).astype(bool)
    dst = np.concatenate([seed.pairs[:, 1], np.where(odd, -1, src[arc])])
    link = np.arange(len(src), dtype=np.int64)
    todo = e0 + np.flatnonzero(odd)
    link[todo] = arc[odd]
    # Invariant: an unresolved arc has the target of its link, and links
    # only point to earlier arcs, so the jumps end at resolved ones.
    while todo.size:
        nxt = link[todo]
        dst[todo] = dst[nxt]
        link[todo] = link[nxt]
        todo = todo[dst[todo] < 0]
    return np.column_stack([src, dst])


def _grow_by_acceptance(seed: Graph, spec: NpaModelSpec, steps: int,
                        gen: np.random.Generator) -> np.ndarray:
    """Arcs of a run with any weight function, by stochastic acceptance.

    A proposal is uniform over the N vertices and the 2E arc-endpoint entries
    before the increment, so a vertex of degree k is proposed in proportion
    to 1 + k; it is accepted with probability f_k / (c (1 + k)), else
    redrawn, where c is the largest f_d / (1 + d) over d up to the largest
    degree present. The accepted targets are proportional to f_k (Lipowski
    & Lipowska, Physica A 391, 2193, 2012).
    """
    x = _increment_counts(spec.increments, steps, gen).tolist()
    ends = seed.pairs.ravel().tolist()
    deg = seed.degrees().tolist()
    f: list[float] = []
    ratio: list[float] = []
    top, c = -1, 0.0
    # Uniforms in blocks of 64, 256, ... up to 16384, so short runs draw few.
    uniforms = (u for i in itertools.count()
                for u in gen.random(64 << min(2 * i, 8)).tolist())

    def admit(d: int) -> None:
        # Raise c to cover the degrees top + 1 .. d; tables grow by doubling.
        nonlocal f, ratio, top, c
        if d >= len(f):
            f = spec.weights.weights_upto(2 * d + 64).tolist()
            ratio = [w / (1 + k) for k, w in enumerate(f)]
        c = max(c, *ratio[top + 1:d + 1])
        top = d

    admit(max(deg, default=0))
    live = sum(f[d] > 0.0 for d in deg)  # vertices that can be accepted
    for v, xv in enumerate(x, start=len(deg)):
        if xv and not live:
            raise ZeroTotalWeight(_NO_TARGET)
        pool = v + len(ends)  # u < 1 keeps int(u * pool) below pool
        targets = []
        while len(targets) < xv:
            p = int(next(uniforms) * pool)
            t = p if p < v else ends[p - v]
            if next(uniforms) * c < ratio[deg[t]]:
                targets.append(t)
        # Degrees change only now, so all x ends saw the same degrees.
        if xv > top:
            admit(xv)
        deg.append(xv)
        live += f[xv] > 0.0
        for t in targets:
            d = deg[t] + 1
            if d > top:
                admit(d)
            live += (f[d] > 0.0) - (f[d - 1] > 0.0)
            deg[t] = d
            ends += (v, t)
    return np.array(ends, dtype=np.int64).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Autocorrelated random graph
# ---------------------------------------------------------------------------

# Most starter/run pairs drawn in one batch of the AER scan. A run cut at its
# row end drops the rest of its batch, so a small batch wastes little.
_AER_BATCH = 1 << 12


def grow_aer(spec: AerModelSpec, rng: RngStream) -> Graph:
    """Build the autocorrelated random graph and prune trivial components.

    Scans vertex pairs row by row; each draw succeeds with probability
    (p_a + z)/2 where z indicates whether the immediately preceding target in
    the same row received an edge. z starts at 0 for each row's first target
    (the first draw uses p_a / 2). After the scan, isolated vertices and
    two-vertex components joined by a single edge are removed.
    """
    full = grow_aer_unpruned(spec, rng)
    return full.induced(_prune_small_components(full))


def grow_aer_unpruned(spec: AerModelSpec, rng: RngStream) -> Graph:
    """The raw pair-scan graph before any pruning.

    z starts at 0 for each row's first target. Each slot in the flattened
    row-by-row scan succeeds with probability p_a / 2 after a failure and
    (p_a + 1) / 2 after a success, so successes arrive as isolated starters
    followed by geometric runs. The scan skips from one starter to the next
    by geometric gaps instead of drawing every slot (Batagelj & Brandes,
    PRE 71, 036113, 2005), which is the same two-state chain sampled
    sparsely, and draws the gaps and run lengths a numpy batch at a time:

    - gaps are Geometric(p_a / 2) and run lengths Geometric(1 - (p_a + 1)/2),
      so one cumsum places every starter and the failure that ends its run;
    - a run that reaches its row end is cut there, and the chain restarts
      in state 0 at that boundary without consuming a failure slot; the
      rest of the batch is dropped and a new one drawn from the boundary.
      Draws after the cut are independent of it, so dropping them leaves
      the law unchanged.
    """
    gen = rng.generator()
    n1 = spec.n1
    p_half = spec.p_a / 2.0
    p_stop = 1.0 - (spec.p_a + 1.0) / 2.0

    # Row r (0-based source i = r) covers flat slots [row_start[r], row_end[r]);
    # slot s in row r is the pair (r, r + 1 + s - row_start[r]).
    lengths = np.arange(n1 - 1, 0, -1, dtype=np.int64)
    row_end = np.cumsum(lengths)
    row_start = row_end - lengths
    total_slots = int(row_end[-1])
    # Expected slots per starter: its gap plus its run and the failure after.
    cycle = 1.0 / p_half + (1.0 / p_stop if p_stop > 0.0 else total_slots)

    run_starts: list[np.ndarray] = []
    run_lengths: list[np.ndarray] = []
    pos = 0  # next undetermined slot, chain state 0
    while pos < total_slots:
        size = int(min((total_slots - pos) / cycle * 1.05 + 64, _AER_BATCH))
        gaps = gen.geometric(p_half, size)
        runs = (gen.geometric(p_stop, size) if p_stop > 0.0
                else np.full(size, total_slots, dtype=np.int64))
        ends = pos - 1 + np.cumsum(gaps + runs)  # a run's first slot after it
        starts = ends - runs
        stop = int(np.searchsorted(starts, total_slots))
        starts, ends, runs = starts[:stop], ends[:stop], runs[:stop]
        limit = row_end[np.searchsorted(row_end, starts, side="right")]
        cut = np.flatnonzero(ends >= limit)
        if len(cut):
            k = int(cut[0])
            starts, runs = starts[:k + 1], runs[:k + 1].copy()
            runs[k] = limit[k] - starts[k]
            pos = int(limit[k])
        else:
            pos = total_slots if stop < size else int(ends[-1]) + 1
        run_starts.append(starts)
        run_lengths.append(runs)

    starts = np.concatenate(run_starts)
    runs = np.concatenate(run_lengths)
    first = np.cumsum(runs) - runs  # index of each run's first slot
    edge_total = int(runs.sum())
    slots = np.arange(edge_total) + np.repeat(starts - first, runs)
    rows = np.searchsorted(row_end, slots, side="right")
    targets = rows + 1 + (slots - row_start[rows])
    return Graph(n1, np.column_stack([rows, targets]), directed=False)


def _prune_small_components(graph: Graph) -> np.ndarray:
    """Mask of vertices in components of size >= 3.

    The graph must be simple, as the pair scan makes it: no self-loop and
    no parallel edge. Then a component of one vertex is a vertex of degree
    0, and one of two vertices is an edge whose ends both have degree 1.
    """
    deg = graph.degrees()
    a, b = graph.pairs[:, 0], graph.pairs[:, 1]
    lone = (deg[a] == 1) & (deg[b] == 1)
    in_pair = np.zeros(graph.vertex_count, dtype=bool)
    in_pair[a[lone]] = in_pair[b[lone]] = True
    return ~((deg == 0) | in_pair)


# ---------------------------------------------------------------------------
# Growth of any spec
# ---------------------------------------------------------------------------

def grow(spec: ModelSpec, n: int, rng: RngStream) -> Graph:
    """Grow any model spec to n vertices: a composite at total_n = n, an
    AER model scanned on n1 = n vertices and pruned, a growth model from its
    seed graph."""
    if isinstance(spec, CompositeSpec):
        return grow_composite(replace(spec, total_n=n), rng)
    if isinstance(spec, AerModelSpec):
        return grow_aer(replace(spec, n1=n), rng)
    return grow_npa(spec, n, rng)


def grow_composite(spec: CompositeSpec, rng: RngStream) -> Graph:
    """Grow each component at its vertex budget, component i from substream
    i, and take the disjoint union."""
    return Graph.disjoint_union([
        grow(model, budget, rng.substream(i))
        for i, ((model, _rho), budget) in enumerate(zip(spec.components,
                                                        spec.budgets()))])


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_vdd(graph: Graph) -> DegreeDistribution:
    """Histogram of degrees normalized by the vertex count."""
    if graph.vertex_count == 0:
        raise EmptyInput("cannot measure an empty graph")
    counts = np.bincount(graph.degrees(), minlength=1)
    lo = int(np.flatnonzero(counts)[0])
    probs = counts[lo:] / graph.vertex_count
    return DegreeDistribution(min_degree=lo, probs=probs, truncation_mass=0.0)


def measure_edd(graph: Graph, u: int) -> EdgeDegreeMatrix:
    """Symmetric endpoint-degree mass of the edges, truncated beyond degree u.

    Every edge puts 1/(2 E) at (d1, d2) and 1/(2 E) at (d2, d1), so each
    cell is its endpoint count / (2 E), divided once; the edges are counted
    in their stored orientation c, and a cell's count is c + c.T. Edges with
    an endpoint above u go to truncation_mass.
    """
    if graph.edge_count == 0:
        raise EmptyInput("graph has no edges to measure")
    deg = graph.degrees()
    d1 = deg[graph.pairs[:, 0]]
    d2 = deg[graph.pairs[:, 1]]
    inside = (d1 <= u) & (d2 <= u)
    counts = np.bincount((d1[inside] - 1) * u + (d2[inside] - 1),
                         minlength=u * u).reshape(u, u)
    entries = (counts + counts.T) / (2.0 * graph.edge_count)
    trunc = float(np.count_nonzero(~inside)) / graph.edge_count
    return EdgeDegreeMatrix(min_degree=1, entries=entries, kind="edge",
                            truncation_mass=trunc)


def summarize(graph: Graph) -> dict:
    """Node/edge counts, mean degree, and the implied mean edges per node,
    under the keys summary.json writes them."""
    if graph.vertex_count == 0:
        raise EmptyInput("cannot summarize an empty graph")
    mean_degree = 2.0 * graph.edge_count / graph.vertex_count
    return {"node_count": graph.vertex_count, "edge_count": graph.edge_count,
            "mean_degree": mean_degree, "derived_m": mean_degree / 2.0}
