"""Domain types for growing-graph models, and the two published presets.

Degree-indexed sequences always carry an explicit minimum degree instead of
assuming index 0 means degree 0; models with minimum degree 0 and 1 both occur.
All spec types are immutable after validation and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .constants import GOWALLA_AER_MEAN_DEGREE, PRESET_NAMES, TOTAL_N
from .errors import ValidationError, Violation, WindowExceedsMatrix

NORMALIZATION_TOL = 1e-12  # how far a sum of probabilities may miss 1
STORED_MASS_SLACK = 1e-9  # how far a VDD's stored mass may exceed 1


# ---------------------------------------------------------------------------
# Weight function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFunction:
    """Attachment weight f_k per vertex degree k.

    Weights are positive exactly on [g, M] and zero outside; M may be None
    (unbounded). The sequence is given by a named rule ("linear" for f_k = k,
    "power" for f_k = k**alpha, "constant" for f_k = value), optionally with a
    table of explicit overrides starting at degree g. Degrees beyond the table
    follow the rule; a pure table requires finite M inside the tabulated range.
    """

    g: int
    M: int | None = None
    rule: str | None = "linear"
    alpha: float = 1.0
    value: float = 1.0
    table: tuple[float, ...] = ()

    @classmethod
    def linear(cls, g: int = 1, M: int | None = None) -> "WeightFunction":
        return cls(g=g, M=M, rule="linear")

    @classmethod
    def power(cls, alpha: float, g: int = 1, M: int | None = None) -> "WeightFunction":
        return cls(g=g, M=M, rule="power", alpha=alpha)

    @classmethod
    def constant(cls, value: float = 1.0, g: int = 1, M: int | None = None) -> "WeightFunction":
        return cls(g=g, M=M, rule="constant", value=value)

    @classmethod
    def from_table(cls, g: int, values: Sequence[float], M: int | None = None,
                   rule: str | None = None, alpha: float = 1.0,
                   value: float = 1.0) -> "WeightFunction":
        if M is None and rule is None:
            M = g + len(values) - 1
        return cls(g=g, M=M, rule=rule, alpha=alpha, value=value,
                   table=tuple(float(v) for v in values))

    def weights_upto(self, k_top: int, lo: int = 0) -> np.ndarray:
        """Vector of f_k for k = lo .. k_top (index k - lo); zero outside
        [g, M]. A weight that overflows, like 10.0**400, is infinite, and a
        fractional power of a degree below 0 is NaN; violations names both."""
        f = np.zeros(k_top - lo + 1, dtype=np.float64)
        a = max(self.g, lo)
        hi = k_top if self.M is None else min(self.M, k_top)
        if hi < a:
            return f
        ks = np.arange(a, hi + 1)
        if self.rule == "linear":
            f[a - lo:hi - lo + 1] = ks
        elif self.rule == "power":
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                f[a - lo:hi - lo + 1] = np.power(ks, self.alpha, dtype=np.float64)
        elif self.rule == "constant":
            f[a - lo:hi - lo + 1] = self.value
        if self.table:
            t_hi = min(self.table_end(), hi)
            if t_hi >= a:
                f[a - lo:t_hi - lo + 1] = self.table[a - self.g:t_hi - self.g + 1]
        return f

    def asymptote(self) -> tuple:
        """Tail behaviour of f beyond any finite table.

        Returns ("finite", M), ("linear", coeff), ("constant", value) or
        ("power", alpha). Used by the solver to pick a tail-summation strategy.
        """
        if self.M is not None:
            return ("finite", self.M)
        if self.rule == "linear" or (self.rule == "power" and self.alpha == 1.0):
            return ("linear", 1.0)
        if self.rule == "constant":
            return ("constant", self.value)
        if self.rule == "power":
            return ("power", self.alpha)
        return ("finite", self.g + len(self.table) - 1)

    def is_degree(self) -> bool:
        """f_k = k at every degree from g on, table entries included."""
        return self.asymptote() == ("linear", 1.0) and all(
            v == k for k, v in enumerate(self.table, self.g))

    def table_end(self) -> int:
        """Last degree covered by explicit table values (g - 1 when no table)."""
        return self.g + len(self.table) - 1

    def violations(self) -> list[Violation]:
        """Each weight probed in [g, M] must be positive and finite; one
        that overflows, like 10.0**400, is infinite."""
        out = []
        if self.g < 0:
            out.append(Violation("EmptySupport", f"minimum degree g = {self.g} is negative"))
        if self.M is not None and self.M < self.g:
            out.append(Violation("EmptySupport", f"M = {self.M} < g = {self.g}"))
        if self.rule is None and (self.M is None or self.M > self.table_end()):
            out.append(Violation(
                "EmptySupport",
                "tabulated weights without a rule require finite M within the table"))
        if self.rule not in (None, "linear", "power", "constant"):
            out.append(Violation("EmptySupport", f"unknown weight rule {self.rule!r}"))
            return out
        # Probe inside the support: table entries plus rule values at the
        # edges; a rule-less table, whose end is named above, only up to it.
        hi = self.M if self.M is not None else max(self.g + 3, self.table_end() + 2)
        if self.rule is None:
            hi = min(hi, self.table_end())
        if hi < self.g:
            return out
        top = min(self.table_end() + 1, hi)
        probes = list(enumerate(self.weights_upto(top, self.g).tolist(), self.g))
        if hi > top:
            probes.append((hi, self.weights_upto(hi, hi).item()))
        for k, w in probes:
            if not (w > 0.0) or not math.isfinite(w):
                out.append(Violation(
                    "WeightSignViolation",
                    f"f_{k} = {w} is not positive and finite inside [g, M]"))
        return out

    def to_dict(self) -> dict:
        return {"g": self.g, "M": self.M, "rule": self.rule, "alpha": self.alpha,
                "value": self.value, "table": list(self.table)}

    @classmethod
    def from_dict(cls, d: Mapping) -> "WeightFunction":
        _known(d, "g", "M", "rule", "alpha", "value", "table")
        return cls(g=_read(d, "g", int), M=_read(d, "M", int, None),
                   rule=d.get("rule"), alpha=_read(d, "alpha", float, 1.0),
                   value=_read(d, "value", float, 1.0),
                   table=_read(d, "table", _floats, ()))


# ---------------------------------------------------------------------------
# Increment distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncrementDistribution:
    """Distribution {r_k} of the number of arcs a new vertex arrives with.

    Support is the contiguous integer range [min_arcs, min_arcs + len(probs) - 1].
    """

    min_arcs: int
    probs: tuple[float, ...]

    @property
    def max_arcs(self) -> int:
        return self.min_arcs + len(self.probs) - 1

    @property
    def mean(self) -> float:
        return float(sum((self.min_arcs + i) * p for i, p in enumerate(self.probs)))

    def prob_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=np.float64)

    def violations(self) -> list[Violation]:
        out = []
        if not self.probs or sum(self.probs) == 0.0:
            out.append(Violation("EmptySupport", "increment distribution has no mass"))
            return out
        if self.min_arcs < 0:
            out.append(Violation("EmptySupport", f"negative minimum arc count {self.min_arcs}"))
        for i, p in enumerate(self.probs):
            if p < 0.0 or not math.isfinite(p):
                out.append(Violation(
                    "NonNormalized", f"r_{self.min_arcs + i} = {p} is not a probability"))
        total = math.fsum(self.probs)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            out.append(Violation("NonNormalized", f"probabilities sum to {total!r}, not 1"))
        return out

    def to_dict(self) -> dict:
        return {"min_arcs": self.min_arcs, "probs": list(self.probs)}

    @classmethod
    def from_dict(cls, d: Mapping) -> "IncrementDistribution":
        _known(d, "min_arcs", "probs")
        return cls(min_arcs=_read(d, "min_arcs", int),
                   probs=_read(d, "probs", _floats))


# ---------------------------------------------------------------------------
# Degree distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DegreeDistribution:
    """Probabilities Q_k over vertex degrees k = min_degree .. min_degree + len - 1.

    truncation_mass is the probability mass beyond the stored range; it is
    tracked explicitly and never silently renormalized away.
    """

    min_degree: int
    probs: np.ndarray
    truncation_mass: float = 0.0

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.probs, dtype=np.float64))
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "truncation_mass", float(self.truncation_mass))

    @property
    def max_degree(self) -> int:
        return self.min_degree + len(self.probs) - 1

    def degrees(self) -> np.ndarray:
        return np.arange(self.min_degree, self.max_degree + 1)

    def stored_mass(self) -> float:
        return float(self.probs.sum())

    def mean(self) -> float:
        """Mean degree over the stored range (excludes truncated mass)."""
        return float((self.degrees() * self.probs).sum())

    def aligned(self, lo: int, hi: int) -> np.ndarray:
        """Probabilities re-indexed onto degrees lo..hi, zero-padded."""
        out = np.zeros(hi - lo + 1, dtype=np.float64)
        a = max(lo, self.min_degree)
        b = min(hi, self.max_degree)
        if a <= b:
            out[a - lo:b - lo + 1] = self.probs[a - self.min_degree:b - self.min_degree + 1]
        return out

    def tv_distance(self, other: "DegreeDistribution") -> float:
        """Total-variation distance, with truncated masses compared as one bucket."""
        lo = min(self.min_degree, other.min_degree)
        hi = max(self.max_degree, other.max_degree)
        diff = np.abs(self.aligned(lo, hi) - other.aligned(lo, hi)).sum()
        diff += abs(self.truncation_mass - other.truncation_mass)
        return 0.5 * float(diff)


# ---------------------------------------------------------------------------
# Edge / arc degree matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EdgeDegreeMatrix:
    """Joint degree probabilities of arc or edge endpoints.

    entries[i, j] is the probability for endpoint degrees
    (min_degree + i, min_degree + j). kind is "arc" for the directed
    (tail, head) law and "edge" for the symmetrized undirected law.
    truncation_mass is whatever falls outside the stored square; for the
    directed recurrence it may be negative when the recurrence variant does
    not conserve mass, which is reported rather than hidden.
    """

    min_degree: int
    entries: np.ndarray
    kind: str = "edge"
    truncation_mass: float = 0.0

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.entries, dtype=np.float64))
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("entries must be a square matrix")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "truncation_mass", float(self.truncation_mass))
        if self.kind not in ("arc", "edge"):
            raise ValueError(f"kind must be 'arc' or 'edge', got {self.kind!r}")

    @property
    def max_degree(self) -> int:
        return self.min_degree + self.entries.shape[0] - 1

    def stored_mass(self) -> float:
        return float(self.entries.sum())

    def window(self, g: int, u: int) -> np.ndarray:
        """Submatrix over degrees [g, u] in both axes."""
        if g < self.min_degree or u > self.max_degree or u < g:
            raise WindowExceedsMatrix(
                f"window [{g}, {u}] not covered by matrix over "
                f"[{self.min_degree}, {self.max_degree}]")
        a = g - self.min_degree
        b = u - self.min_degree + 1
        return self.entries[a:b, a:b]

    def aligned(self, lo: int, hi: int) -> np.ndarray:
        out = np.zeros((hi - lo + 1, hi - lo + 1), dtype=np.float64)
        a = max(lo, self.min_degree)
        b = min(hi, self.max_degree)
        if a <= b:
            sa = a - self.min_degree
            sb = b - self.min_degree + 1
            out[a - lo:b - lo + 1, a - lo:b - lo + 1] = self.entries[sa:sb, sa:sb]
        return out


def edd_distance(theta: EdgeDegreeMatrix, target: EdgeDegreeMatrix,
                 g: int, u: int) -> float:
    """Euclidean norm of entrywise differences over the window [g, u]^2."""
    a = theta.window(g, u)
    b = target.window(g, u)
    return float(np.sqrt(((a - b) ** 2).sum()))


def select_u(target_edd: EdgeDegreeMatrix, mass_fraction: float = 0.95) -> int:
    """Smallest extent whose square window holds the requested mass share.

    Falls back to the full matrix extent when the stored mass never reaches
    the share (heavy truncation).
    """
    prefix = np.cumsum(np.cumsum(target_edd.entries, axis=0), axis=1)
    total = target_edd.stored_mass() + target_edd.truncation_mass
    needed = mass_fraction * total
    diag = np.diagonal(prefix)
    hit = np.flatnonzero(diag >= needed - 1e-15)
    if len(hit):
        return target_edd.min_degree + int(hit[0])
    return target_edd.max_degree


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------

class Graph:
    """A grown or ingested graph: vertex count plus an array of endpoint pairs.

    Degrees count every incident arc or edge end, so for directed graphs the
    degree of a vertex is its in-degree plus out-degree, matching the degree
    notion the growth model uses. Parallel edges are allowed; self-loops are
    not created by any grower.
    """

    __slots__ = ("vertex_count", "pairs", "directed", "_degrees")

    def __init__(self, vertex_count: int, pairs, directed: bool = False):
        self.vertex_count = int(vertex_count)
        if self.vertex_count < 0:
            raise ValueError(f"vertex count {self.vertex_count} is negative")
        arr = np.asarray(pairs, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("pairs must be an (E, 2) array")
        if arr.size and (arr.min() < 0 or arr.max() >= self.vertex_count):
            raise ValueError(
                f"vertex ids must lie in [0, {self.vertex_count}), got "
                f"{arr.min()} .. {arr.max()}")
        self.pairs = arr
        self.directed = bool(directed)
        self._degrees = None

    @property
    def edge_count(self) -> int:
        return self.pairs.shape[0]

    def degrees(self) -> np.ndarray:
        """Each vertex's degree, counted on the first call and kept: the
        array is read-only, so a caller that writes into it fails."""
        if self._degrees is None:
            d = np.bincount(self.pairs.reshape(-1),
                            minlength=self.vertex_count)[:self.vertex_count]
            d.setflags(write=False)
            self._degrees = d
        return self._degrees

    def induced(self, keep: np.ndarray) -> "Graph":
        """Subgraph on the vertices flagged in the boolean mask, relabeled
        densely."""
        new_id = np.full(self.vertex_count, -1, dtype=np.int64)
        kept = np.flatnonzero(keep)
        new_id[kept] = np.arange(len(kept))
        if len(self.pairs):
            mask = keep[self.pairs[:, 0]] & keep[self.pairs[:, 1]]
            pairs = new_id[self.pairs[mask]]
        else:
            pairs = self.pairs
        return Graph(len(kept), pairs, directed=self.directed)

    @staticmethod
    def disjoint_union(graphs: Sequence["Graph"]) -> "Graph":
        """The graphs side by side as one undirected graph, each relabeled
        after the vertices of those before it."""
        offset = 0
        parts = []
        for gr in graphs:
            if len(gr.pairs):
                parts.append(gr.pairs + offset)
            offset += gr.vertex_count
        pairs = np.concatenate(parts) if parts else np.empty((0, 2), dtype=np.int64)
        return Graph(offset, pairs)


# ---------------------------------------------------------------------------
# Model specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedGraphSpec:
    """Starting graph for growth: the default, or an explicit edge list.

    The default is a complete undirected graph on max(g, 1) + 1 vertices, so
    every seed vertex has degree >= g and positive attachment weight; the
    stationary distributions do not depend on the seed.
    """

    vertices: int | None = None
    edges: tuple[tuple[int, int], ...] | None = None

    def _listed_vertex_count(self) -> int:
        if self.vertices is not None:
            return self.vertices
        return 1 + max(max(e) for e in self.edges) if self.edges else 0

    def build(self, g: int) -> Graph:
        if self.edges is not None:
            return Graph(self._listed_vertex_count(), list(self.edges),
                         directed=True)
        n = max(g, 1) + 1
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return Graph(n, pairs, directed=True)

    def violations(self) -> list[Violation]:
        """A negative vertex count, or an edge-list id outside [0,
        vertices); build needs neither."""
        if self.edges is None:
            return []
        n = self._listed_vertex_count()
        if n < 0:
            return [Violation("EmptySupport",
                              f"seed graph vertex count {n} is negative")]
        ids = [i for e in self.edges for i in e]
        if ids and not 0 <= min(ids) <= max(ids) < n:
            return [Violation("SeedIdOutOfRange", f"seed edge ids must lie in "
                              f"[0, {n}), got {min(ids)} .. {max(ids)}")]
        return []

    def to_dict(self) -> dict:
        if self.edges is not None:
            return {"vertices": self.vertices, "edges": [list(e) for e in self.edges]}
        return {"name": "default"}

    @classmethod
    def from_dict(cls, d: Mapping) -> "SeedGraphSpec":
        """An edge list, or the default, the one name there is."""
        edges = _read(d, "edges", lambda es: tuple((int(a), int(b))
                                                   for a, b in es), None)
        _known(d, *(("vertices", "edges") if edges is not None else ("name",)))
        if edges is not None:
            return cls(vertices=_read(d, "vertices", int, None), edges=edges)
        name = d.get("name", "default")
        if name != "default":
            raise ValidationError([Violation(
                "EmptySupport", f"unknown seed graph name {name!r}; give "
                "'default' or an explicit edge list")])
        return cls()


@dataclass(frozen=True)
class NpaModelSpec:
    """A growing-graph model: attachment weights plus the increment-arc law."""

    weights: WeightFunction
    increments: IncrementDistribution
    seed_graph: SeedGraphSpec = SeedGraphSpec()

    @property
    def g(self) -> int:
        return self.weights.g

    def violations(self) -> list[Violation]:
        out = self.weights.violations() + self.increments.violations()
        if self.increments.min_arcs != self.weights.g:
            out.append(Violation(
                "SupportMismatch",
                f"increment support starts at {self.increments.min_arcs} but the "
                f"weight support starts at g = {self.weights.g}; the model uses a "
                "single minimum degree for both"))
        bad_seed = self.seed_graph.violations()
        if bad_seed:
            return out + bad_seed
        w = self.weights
        if w.rule is None and (w.M is None or w.M > w.table_end()):
            return out  # no weight past the table, which w's violations name
        degrees = self.seed_graph.build(w.g).degrees()
        if not w.weights_upto(int(degrees.max(initial=0)))[degrees].sum() > 0.0:
            out.append(Violation(
                "SeedWeightZero",
                "seed graph has zero total attachment weight; the attachment rule "
                "is undefined at the first step"))
        return out

    def to_dict(self) -> dict:
        return {"type": "npa", "weights": self.weights.to_dict(),
                "increments": self.increments.to_dict(),
                "seed_graph": self.seed_graph.to_dict()}


@dataclass(frozen=True)
class BaTreeSpec(NpaModelSpec):
    """The growth model where every increment brings one arc and f_k = k.

    Its fields are fixed to that law; it serializes as {"type": "ba_tree"}.
    """

    weights: WeightFunction = field(default=WeightFunction.linear(g=1), init=False)
    increments: IncrementDistribution = field(
        default=IncrementDistribution(min_arcs=1, probs=(1.0,)), init=False)
    seed_graph: SeedGraphSpec = field(default=SeedGraphSpec(), init=False)

    def to_dict(self) -> dict:
        return {"type": "ba_tree"}


@dataclass(frozen=True)
class AerModelSpec:
    """Autocorrelated random-pairing graph: n1 vertices scanned row by row.

    Each potential edge is drawn with probability (p_a + z)/2 where z is 1
    when the immediately preceding target in the row received an edge.
    """

    n1: int
    a: float

    @property
    def p_a(self) -> float:
        return self.a / (self.n1 - 1)

    def violations(self) -> list[Violation]:
        out = []
        if self.n1 < 2:
            out.append(Violation("EmptySupport", f"n1 = {self.n1} leaves no vertex pairs"))
            return out
        if not (0.0 < self.p_a <= 1.0):
            out.append(Violation(
                "NonNormalized", f"base probability p_a = {self.p_a!r} outside (0, 1]"))
        return out

    def to_dict(self) -> dict:
        return {"type": "aer", "n1": self.n1, "a": self.a}


@dataclass(frozen=True)
class CompositeSpec:
    """Weighted combination of component models with vertex fractions rho_i;
    a component may itself be a composite."""

    components: tuple[tuple[ModelSpec, float], ...]
    total_n: int
    metadata: dict = field(default_factory=dict)

    def budgets(self) -> list[int]:
        """Vertex budget per component, apportioned by largest remainder so
        that the budgets add up to total_n: each quota rho_i * total_n
        rounded down, and one more vertex for each of the largest
        fractional parts, the earlier component first on a tie."""
        quotas = [rho * self.total_n for _, rho in self.components]
        out = [math.floor(q) for q in quotas]
        by_remainder = sorted(range(len(quotas)), key=lambda i: out[i] - quotas[i])
        for i in by_remainder[:max(self.total_n - sum(out), 0)]:
            out[i] += 1
        return out

    def violations(self) -> list[Violation]:
        """Each component's violations at its budget, and the fractions'
        sum. A component grows at its budget whatever total_n or n1 its own
        spec holds, so it is checked at that size alone."""
        if not self.components:
            return [Violation("EmptySupport", "composite has no components")]
        out = [Violation(v.code, f"component {i}: {v.message}")
               for i, ((model, _rho), budget)
               in enumerate(zip(self.components, self.budgets()))
               for v in size_violations(model, budget)]
        total = math.fsum(rho for _, rho in self.components)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            out.append(Violation(
                "NonNormalized", f"vertex fractions sum to {total!r}, not 1"))
        return out

    def to_dict(self) -> dict:
        return {"type": "composite", "total_n": self.total_n,
                "components": [{"rho": rho, "model": model.to_dict()}
                               for model, rho in self.components],
                "metadata": self.metadata}


ModelSpec = Union[NpaModelSpec, AerModelSpec, CompositeSpec]


def size_violations(spec: ModelSpec, n: int) -> list[Violation]:
    """What keeps a spec from growing to n vertices: its violations at that
    size.

    A composite grows each component at its budget of n, and an AER model
    is scanned on n1 = n vertices; a growth model starts from its seed
    graph, so n must cover it.
    """
    if isinstance(spec, CompositeSpec):
        return replace(spec, total_n=n).violations()
    if isinstance(spec, AerModelSpec):
        return replace(spec, n1=n).violations()
    out = spec.violations()
    if out:
        return out
    seed = spec.seed_graph.build(spec.g).vertex_count
    if n < seed:
        return [Violation("EmptySupport", f"n = {n} is below the seed "
                          f"graph's {seed} vertices")]
    return []


def validate_model(spec: ModelSpec) -> ModelSpec:
    """Return the spec unchanged if every invariant holds.

    Raises ValidationError listing all violated invariants otherwise.
    Idempotent: validating a validated spec returns the same object.
    """
    violations = spec.violations()
    if violations:
        raise ValidationError(violations)
    return spec


# ---------------------------------------------------------------------------
# Spec (de)serialization
# ---------------------------------------------------------------------------

def _read(d: Mapping, key: str, convert: Callable, *default):
    """convert(d[key]); the default instead, when one is given and d lacks
    the key or holds null there. A d that is not a JSON object, a missing
    key without a default, or a value that convert rejects raises
    ValidationError naming the key."""
    if not isinstance(d, Mapping):
        problem = f"expected a JSON object holding {key!r}, got {d!r}"
    elif default and d.get(key) is None:
        return default[0]
    elif key not in d:
        problem = f"missing key {key!r}"
    else:
        try:
            return convert(d[key])
        except (TypeError, ValueError):
            problem = f"key {key!r} holds {d[key]!r}"
    raise ValidationError([Violation("MalformedSpec", problem)])


def _known(d: Mapping, *keys: str) -> Mapping:
    """d; ValidationError naming each key of the object d not in keys."""
    unknown = [key for key in d if key not in keys] if isinstance(d, Mapping) else []
    if unknown:
        raise ValidationError([Violation(
            "MalformedSpec", f"unknown keys {unknown}; known keys {list(keys)}")])
    return d


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def model_from_dict(d: Mapping) -> ModelSpec:
    """The spec a JSON object describes. A malformed object (a missing or
    unknown key, a value of the wrong kind, not an object at all) raises
    ValidationError naming the key, as does an unknown type; the invariants
    are checked by validate_model. A composite's metadata is free-form."""
    kind = _read(d, "type", str, None)
    if kind == "npa":
        _known(d, "type", "weights", "increments", "seed_graph")
        return NpaModelSpec(
            weights=_read(d, "weights", WeightFunction.from_dict),
            increments=_read(d, "increments", IncrementDistribution.from_dict),
            seed_graph=_read(d, "seed_graph", SeedGraphSpec.from_dict,
                             SeedGraphSpec()))
    if kind == "ba_tree":
        _known(d, "type")
        return BaTreeSpec()
    if kind == "aer":
        _known(d, "type", "n1", "a")
        return AerModelSpec(n1=_read(d, "n1", int), a=_read(d, "a", float))
    if kind == "composite":
        _known(d, "type", "components", "total_n", "metadata")
        return CompositeSpec(
            components=_read(d, "components", lambda cs: tuple(
                (_read(_known(c, "model", "rho"), "model", model_from_dict),
                 _read(c, "rho", float)) for c in cs)),
            total_n=_read(d, "total_n", int),
            metadata=_read(d, "metadata", dict, {}))
    raise ValidationError([Violation("EmptySupport", f"unknown model type {kind!r}")])


def dump_model(spec: ModelSpec) -> str:
    return json.dumps(spec.to_dict(), indent=2, sort_keys=True)


def load_model(text: str) -> ModelSpec:
    return model_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Published presets
# ---------------------------------------------------------------------------

BRIGHTKITE_RHO = 0.225
BRIGHTKITE_MEAN_INCREMENT = 3.6765
BRIGHTKITE_COMPLEMENT_SUPPORT = 40
BRIGHTKITE_COMPLEMENT_MEAN = ((BRIGHTKITE_MEAN_INCREMENT - BRIGHTKITE_RHO)
                              / (1.0 - BRIGHTKITE_RHO))
GOWALLA_RHO = 0.35
GOWALLA_RK_COEFF = 0.3004
GOWALLA_RK_SHIFT = 0.1259
GOWALLA_RK_EXPONENT = -1.2562
GOWALLA_RK_SUPPORT = 50


def gowalla_increments() -> tuple[IncrementDistribution, float]:
    """Power-form increment table over 1..50, renormalized to sum exactly 1.

    Returns the distribution and the raw (pre-normalization) sum, which is
    recorded in preset metadata instead of altering the exponent.
    """
    ks = np.arange(1, GOWALLA_RK_SUPPORT + 1, dtype=float)
    raw = GOWALLA_RK_COEFF * np.power(ks - GOWALLA_RK_SHIFT, GOWALLA_RK_EXPONENT)
    raw_sum = float(raw.sum())
    return (IncrementDistribution(min_arcs=1, probs=tuple(raw / raw_sum)),
            raw_sum)


def preset_gowalla(total_n: int = TOTAL_N) -> CompositeSpec:
    """Autocorrelated component plus a linear-weight growth component."""
    n1 = int(round(GOWALLA_RHO * total_n))
    inc, raw_sum = gowalla_increments()
    complement = NpaModelSpec(weights=WeightFunction.linear(g=1), increments=inc)
    return CompositeSpec(
        components=((AerModelSpec(n1=n1, a=GOWALLA_AER_MEAN_DEGREE), GOWALLA_RHO),
                    (complement, 1.0 - GOWALLA_RHO)),
        total_n=total_n,
        metadata={"name": "gowalla", "increment_raw_sum": raw_sum})


def preset_brightkite(total_n: int = TOTAL_N) -> CompositeSpec:
    """Single-arc tree component plus a linear-weight complement.

    The complement's increment table is not published; the preset embeds a
    power-form stand-in over 1..40 whose mean is the complement's mean
    (m - rho) / (1 - rho) at the published m and rho, so the spec is growable
    as-is. Calibration against the real network refines it.
    """
    inc = _power_increments_with_mean(BRIGHTKITE_COMPLEMENT_SUPPORT,
                                      BRIGHTKITE_COMPLEMENT_MEAN)
    complement = NpaModelSpec(weights=WeightFunction.linear(g=1), increments=inc)
    return CompositeSpec(
        components=((BaTreeSpec(), BRIGHTKITE_RHO),
                    (complement, 1.0 - BRIGHTKITE_RHO)),
        total_n=total_n,
        metadata={"name": "brightkite",
                  "complement_mean": BRIGHTKITE_COMPLEMENT_MEAN,
                  "complement_increments": "power-form stand-in matched to the "
                                           "complement mean; refine by calibration"})


PRESETS = dict(zip(PRESET_NAMES, (preset_gowalla, preset_brightkite)))


def _power_increments_with_mean(support_hi: int, target_mean: float
                                ) -> IncrementDistribution:
    """r_k proportional to k**(-beta) on [1, support_hi] with the given mean."""
    ks = np.arange(1, support_hi + 1, dtype=float)

    def mean_at(beta: float) -> float:
        w = np.power(ks, -beta)
        w /= w.sum()
        return float((ks * w).sum())

    lo, hi = -5.0, 8.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_at(mid) > target_mean:
            lo = mid
        else:
            hi = mid
    beta = 0.5 * (lo + hi)
    w = np.power(ks, -beta)
    return IncrementDistribution(min_arcs=1, probs=tuple(w / w.sum()))
