import io
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from npagraph import (AerModelSpec, BaTreeSpec, CompositeSpec, Graph,
                      IncrementDistribution, NpaModelSpec, RngStream,
                      SeedGraphSpec, WeightFunction, ZeroTotalWeight, grow,
                      grow_aer, grow_aer_unpruned, grow_composite, grow_npa,
                      measure_edd, measure_vdd, write_edge_list)
from npagraph import formats, growth
from npagraph.errors import EmptyInput

from crosscheck import aer_lag1


def _components(graph: Graph) -> list[set[int]]:
    parent = list(range(graph.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in graph.pairs:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[rb] = ra
    groups: dict[int, set[int]] = {}
    for v in range(graph.vertex_count):
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


def _prune_by_labels(graph: Graph) -> np.ndarray:
    """What growth._prune_small_components gives, from component labels
    found by min-label hooking: every edge whose ends carry different
    labels hooks the larger root onto the smaller label, then pointer
    jumping flattens each tree back to its root. Holds for any graph."""
    label = np.arange(graph.vertex_count, dtype=np.int64)
    a, b = graph.pairs[:, 0], graph.pairs[:, 1]
    while True:
        la, lb = label[a], label[b]
        cross = la != lb
        if not cross.any():
            break
        la, lb = la[cross], lb[cross]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    return np.bincount(label, minlength=graph.vertex_count)[label] >= 3


# ---------------------------------------------------------------------------
# Preferential-attachment growth
# ---------------------------------------------------------------------------

_POWER = NpaModelSpec(
    weights=WeightFunction.power(0.5, g=1),
    increments=IncrementDistribution(min_arcs=1, probs=(0.5, 0.5)))
_AER = AerModelSpec(n1=200, a=2.75)


@pytest.mark.parametrize("grower", [
    lambda: grow_npa(_POWER, 200, RngStream(1)),
    lambda: grow_aer(_AER, RngStream(1)),
    lambda: grow_aer_unpruned(_AER, RngStream(1)),
    lambda: grow_composite(CompositeSpec(
        components=((_AER, 0.5), (_POWER, 0.5)), total_n=400), RngStream(1)),
    lambda: grow(_POWER, 200, RngStream(1)),
], ids=["grow_npa", "grow_aer", "grow_aer_unpruned", "grow_composite", "grow"])
def test_every_grower_returns_a_graph(grower):
    """Each grower returns the graph it grew, with no record to unwrap."""
    assert type(grower()) is Graph


class TestGrowNpa:
    @pytest.mark.parametrize("spec", [BaTreeSpec(), _POWER],
                             ids=["ba", "power"])
    def test_reproducible_bit_identical(self, spec):
        a = grow_npa(spec, 500, RngStream(123, 4))
        b = grow_npa(spec, 500, RngStream(123, 4))
        assert np.array_equal(a.pairs, b.pairs)

    def test_different_stream_differs(self):
        a = grow_npa(BaTreeSpec(), 500, RngStream(123, 0))
        b = grow_npa(BaTreeSpec(), 123, RngStream(123, 1))
        assert not np.array_equal(a.pairs[:100], b.pairs[:100])

    def test_tree_minimal(self):
        g = grow_npa(BaTreeSpec(), 2, RngStream(1))
        assert g.vertex_count == 2
        assert g.edge_count == 1

    def test_tree_edge_count_and_acyclic(self):
        g = grow_npa(BaTreeSpec(), 1000, RngStream(5))
        assert g.edge_count == g.vertex_count - 1
        comps = _components(g)
        assert len(comps) == 1  # connected with n - 1 edges: a tree

    def test_trace_conservation(self):
        model = NpaModelSpec(
            weights=WeightFunction.linear(g=1),
            increments=IncrementDistribution(min_arcs=1, probs=(0.5, 0.5)))
        g = grow_npa(model, 2000, RngStream(9))
        assert g.vertex_count == 2000
        # Past the one-arc, two-vertex seed every arc leaves a grown vertex.
        seed_edges = 1
        assert g.edge_count == seed_edges + int((g.pairs[:, 0] >= 2).sum())
        assert g.degrees().sum() == 2 * g.edge_count

    def test_no_self_loops(self):
        # Arc ends are drawn from the degrees before the increment, so a new
        # vertex can never receive its own arcs.
        model = NpaModelSpec(
            weights=WeightFunction.linear(g=1),
            increments=IncrementDistribution(min_arcs=1, probs=(0.2, 0.8)))
        g = grow_npa(model, 3000, RngStream(14))
        assert (g.pairs[:, 0] != g.pairs[:, 1]).all()

    def test_degree_cap_respected(self):
        model = NpaModelSpec(
            weights=WeightFunction.linear(g=1, M=5),
            increments=IncrementDistribution(min_arcs=1, probs=(1.0,)))
        g = grow_npa(model, 3000, RngStream(17))
        # Saturated vertices can be hit once at degree M but never beyond M+1.
        assert g.degrees().max() <= 6

    def test_ba_degree_distribution_close(self):
        g = grow_npa(BaTreeSpec(), 100000, RngStream(21))
        vdd = measure_vdd(g)
        assert vdd.aligned(1, 1)[0] == pytest.approx(2.0 / 3.0, abs=0.01)

    @pytest.mark.parametrize("weights", [
        WeightFunction.linear(g=1, M=1), WeightFunction.constant(g=1, M=1),
        WeightFunction.from_table(1, [2.0], M=1)],
        ids=["linear", "constant", "table"])
    def test_zero_total_weight(self, weights):
        # Arrivals with two arcs start saturated (degree 2 > M = 1), so the
        # pool of attachable degree-1 vertices only shrinks and runs dry.
        # Deliberately unvalidated: this exercises the dynamic growth error,
        # which must be raised, not spun on by rejecting every proposal.
        model = NpaModelSpec(
            weights=weights,
            increments=IncrementDistribution(min_arcs=2, probs=(1.0,)))
        with pytest.raises(ZeroTotalWeight):
            grow_npa(model, 50, RngStream(3))

    def test_n_below_seed_rejected(self):
        with pytest.raises(ValueError):
            grow_npa(BaTreeSpec(), 1, RngStream(0))


# ---------------------------------------------------------------------------
# The two samplers: endpoint list (f_k = k) and acceptance (any weights)
# ---------------------------------------------------------------------------

_DEGREE_WEIGHTS = {
    "endpoint_list": lambda g=1: WeightFunction.linear(g=g),
    "endpoint_list_power": lambda g=1: WeightFunction.power(1.0, g=g),
    "endpoint_list_table": lambda g=1: WeightFunction.from_table(
        g, range(g, g + 5), rule="linear"),
}


@pytest.fixture(params=[*_DEGREE_WEIGHTS, "acceptance"])
def linear_weights(request, monkeypatch):
    """f_k = k at every degree from g, grown by one sampler with the other
    disabled. The endpoint-list sampler takes every spelling of f_k = k:
    linear weights, power(1.0) and a table holding k. The acceptance
    sampler is reached through a cap M that no run of these tests can
    reach."""
    def disabled(*_args):
        raise AssertionError("the other sampler was taken")

    if request.param in _DEGREE_WEIGHTS:
        monkeypatch.setattr(growth, "_grow_by_acceptance", disabled)
        return _DEGREE_WEIGHTS[request.param]
    monkeypatch.setattr(growth, "_grow_endpoint_list", disabled)
    return lambda g=1: WeightFunction.linear(g=g, M=10**6)


def _arc_multiset_law(n: int, x: int, weight) -> dict[tuple, float]:
    """Probability of each final sorted arc list, enumerated increment by
    increment from the default two-vertex seed: each of the x arc ends picks
    vertex v with probability weight(deg v) / sum of weights, all against
    the degrees before the increment."""
    law = {((0, 1),): 1.0}
    for new in range(2, n):
        nxt: dict[tuple, float] = {}
        for arcs, p in law.items():
            deg = Counter(v for arc in arcs for v in arc)
            w = np.array([weight(deg[v]) for v in range(new)], dtype=float)
            probs = w / w.sum()
            for targets in np.ndindex(*(new,) * x):
                q = p * float(np.prod(probs[list(targets)]))
                if q > 0.0:
                    key = tuple(sorted(arcs + tuple((new, t) for t in targets)))
                    nxt[key] = nxt.get(key, 0.0) + q
        law = nxt
    return law


def _chi_square_p(observed: Counter, law: dict[tuple, float], reps: int) -> float:
    """Chi-square p-value, pooling outcomes expected fewer than 5 times."""
    assert set(observed) <= set(law)
    keys = sorted(law, key=law.get, reverse=True)
    big = [k for k in keys if law[k] * reps >= 5.0]
    small = [k for k in keys if law[k] * reps < 5.0]
    obs = [observed[k] for k in big]
    exp = [law[k] * reps for k in big]
    if small:
        obs.append(sum(observed[k] for k in small))
        exp.append(sum(law[k] for k in small) * reps)
    exp = np.array(exp) * reps / sum(exp)  # float rounding of the enumeration
    return float(chisquare(obs, exp).pvalue)


def _observed_arc_lists(model: NpaModelSpec, reps: int) -> Counter:
    """Sorted final arc lists of `reps` independent runs to n = 5."""
    return Counter(
        tuple(sorted(map(tuple, grow_npa(model, 5, RngStream(404, rep))
                         .pairs.tolist())))
        for rep in range(reps))


def _uniform_weight(d: int) -> float:
    return float(d > 0)


class TestLinearSamplers:
    @pytest.mark.parametrize("x, reps", [(1, 4000), (2, 6000)])
    def test_exact_law_at_n5(self, linear_weights, x, reps):
        model = NpaModelSpec(
            weights=linear_weights(),
            increments=IncrementDistribution(min_arcs=x, probs=(1.0,)))
        observed = _observed_arc_lists(model, reps)
        law = _arc_multiset_law(5, x, weight=float)
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        assert _chi_square_p(observed, law, reps) > 1e-3
        # The same counts against uniform attachment: the test has power.
        uniform = _arc_multiset_law(5, x, weight=_uniform_weight)
        assert _chi_square_p(observed, uniform, reps) < 1e-6

    def test_n_equal_to_seed_size(self, linear_weights):
        model = NpaModelSpec(
            weights=linear_weights(),
            increments=IncrementDistribution(min_arcs=1, probs=(1.0,)))
        g = grow_npa(model, 2, RngStream(1))
        assert g.vertex_count == 2
        assert g.pairs.tolist() == [[0, 1]]

    @pytest.mark.parametrize("g", [0, 1])
    def test_zero_arc_increments_are_never_targets(self, linear_weights, g):
        model = NpaModelSpec(
            weights=linear_weights(g),
            increments=IncrementDistribution(min_arcs=0, probs=(0.3, 0.3, 0.4)))
        g_ = grow_npa(model, 3000, RngStream(8))
        assert g_.vertex_count == 3000
        assert g_.edge_count == 1 + int((g_.pairs[:, 0] >= 2).sum())
        assert (g_.pairs[:, 0] != g_.pairs[:, 1]).all()
        # A vertex that arrived with no arcs has degree 0, hence weight 0.
        sources = np.unique(g_.pairs[:, 0])
        silent = np.setdiff1d(np.arange(2, 3000), sources)
        assert len(silent) > 500
        assert (g_.degrees()[silent] == 0).all()

    def test_isolated_seed_vertex_is_never_a_target(self, linear_weights):
        model = NpaModelSpec(
            weights=linear_weights(),
            increments=IncrementDistribution(min_arcs=1, probs=(0.5, 0.5)),
            seed_graph=SeedGraphSpec(vertices=3, edges=((0, 1),)))
        g_ = grow_npa(model, 500, RngStream(12))
        assert g_.vertex_count == 500
        assert g_.degrees()[2] == 0
        assert set(g_.pairs[:, 1].tolist()) >= {0, 1}

    def test_edgeless_seed_raises(self, linear_weights):
        model = NpaModelSpec(
            weights=linear_weights(),
            increments=IncrementDistribution(min_arcs=1, probs=(1.0,)),
            seed_graph=SeedGraphSpec(vertices=2, edges=()))
        with pytest.raises(ZeroTotalWeight):
            grow_npa(model, 10, RngStream(2))


class TestGeneralWeights:
    @pytest.mark.parametrize("weights", [
        WeightFunction.power(0.5),
        WeightFunction.power(1.5),  # uncapped: c rises with the top degree
        WeightFunction.linear(M=2),  # zero weight beyond M
        WeightFunction.constant(2.0),
        WeightFunction.from_table(1, [3.0, 0.5, 2.0], rule="linear")],
        ids=["power0.5", "power1.5", "linear_m2", "constant", "table"])
    def test_exact_law_at_n5(self, weights, monkeypatch):
        def disabled(*_args):
            raise AssertionError("the endpoint-list sampler was taken")

        monkeypatch.setattr(growth, "_grow_endpoint_list", disabled)
        model = NpaModelSpec(
            weights=weights,
            increments=IncrementDistribution(min_arcs=2, probs=(1.0,)))
        reps = 6000
        observed = _observed_arc_lists(model, reps)
        law = _arc_multiset_law(5, 2,
                                weight=lambda k: weights.weights_upto(k, k)[0])
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        assert _chi_square_p(observed, law, reps) > 1e-3
        uniform = _arc_multiset_law(5, 2, weight=_uniform_weight)
        if law != pytest.approx(uniform, abs=1e-12):
            assert _chi_square_p(observed, uniform, reps) < 1e-6

    def test_increment_count_clamped_at_the_top(self):
        # The probabilities sum to 1 by fsum, but their cumulative sum ends
        # at 0.9999999999999999, below the largest draw of random().
        increments = IncrementDistribution(1, (0.1,) * 10)

        class TopDraw:
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        x = growth._increment_counts(increments, 7, TopDraw())
        assert x.tolist() == [increments.max_arcs] * 7


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class TestMeasure:
    def test_triangle_vdd(self):
        tri = Graph(3, [(0, 1), (1, 2), (2, 0)])
        q = measure_vdd(tri)
        assert q.aligned(2, 2)[0] == 1.0

    def test_path_vdd(self):
        path = Graph(3, [(0, 1), (1, 2)])
        q = measure_vdd(path)
        assert q.aligned(1, 2) == pytest.approx([2.0 / 3.0, 1.0 / 3.0])

    def test_star_vdd(self):
        star = Graph(5, [(0, i) for i in range(1, 5)])
        q = measure_vdd(star)
        assert q.aligned(1, 1)[0] == pytest.approx(0.8)
        assert q.aligned(4, 4)[0] == pytest.approx(0.2)

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyInput):
            measure_vdd(Graph(0, []))

    def test_path_edd(self):
        path = Graph(3, [(0, 1), (1, 2)])
        theta = measure_edd(path, 5)
        assert theta.entries[0, 1] == pytest.approx(0.5)
        assert theta.entries[1, 0] == pytest.approx(0.5)
        assert np.array_equal(theta.entries, theta.entries.T)

    def test_triangle_edd(self):
        tri = Graph(3, [(0, 1), (1, 2), (2, 0)])
        theta = measure_edd(tri, 4)
        assert theta.entries[1, 1] == pytest.approx(1.0)

    def test_regular_graph_edd(self):
        cycle = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        theta = measure_edd(cycle, 3)
        assert theta.entries[1, 1] == pytest.approx(1.0)

    def test_edd_truncation(self):
        star = Graph(5, [(0, i) for i in range(1, 5)])
        theta = measure_edd(star, 3)  # hub degree 4 exceeds the extent
        assert theta.stored_mass() == 0.0
        assert theta.truncation_mass == pytest.approx(1.0)

    def test_edd_mass_accounting(self):
        g = grow_npa(BaTreeSpec(), 2000, RngStream(2))
        theta = measure_edd(g, 10)
        assert theta.stored_mass() + theta.truncation_mass == pytest.approx(
            1.0, abs=1e-12)

    def test_no_edges_rejected(self):
        with pytest.raises(EmptyInput):
            measure_edd(Graph(3, []), 5)

    def test_cells_are_exact_count_ratios(self):
        """Each cell is its count divided once by 2E, bit for bit, against
        counts taken one edge at a time."""
        g = grow_npa(BaTreeSpec(), 3000, RngStream(9))
        deg, u = g.degrees(), 12
        edge_counts = Counter()
        for a, b in g.pairs.tolist():
            l, k = int(deg[a]), int(deg[b])
            if l <= u and k <= u:
                edge_counts[l, k] += 1
                edge_counts[k, l] += 1
        expected = np.zeros((u, u))
        for (l, k), c in edge_counts.items():
            expected[l - 1, k - 1] = c / (2 * g.edge_count)
        assert measure_edd(g, u).entries.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Autocorrelated graphs
# ---------------------------------------------------------------------------

class TestBaTreeSpec:
    """The BA tree is an NpaModelSpec with fixed fields, not a separate kind."""

    def test_grows_like_its_npa_form(self):
        a = grow_npa(BaTreeSpec(), 3000, RngStream(17))
        b = grow_npa(BaTreeSpec(), 3000, RngStream(17))
        assert np.array_equal(a.pairs, b.pairs)

    def test_solves_like_its_npa_form(self):
        from npagraph import solve_vdd
        a = solve_vdd(BaTreeSpec()).q
        b = solve_vdd(BaTreeSpec()).q
        assert a.min_degree == b.min_degree
        assert np.array_equal(a.probs, b.probs)

    def test_serialized_kind_kept(self):
        from npagraph import dump_model, load_model
        assert isinstance(BaTreeSpec(), NpaModelSpec)
        assert load_model(dump_model(BaTreeSpec())) == BaTreeSpec()
        assert BaTreeSpec().to_dict() == {"type": "ba_tree"}


class TestGrowAer:
    def test_reproducible(self):
        spec = AerModelSpec(n1=2000, a=2.5)
        a = grow_aer(spec, RngStream(31))
        b = grow_aer(spec, RngStream(31))
        assert np.array_equal(a.pairs, b.pairs)

    def test_slot_accounting(self):
        # aer_lag1's counts from edge keys match a row-by-row walk of the
        # slot vector, and so does its r1.
        n1 = 100
        full = grow_aer_unpruned(AerModelSpec(n1=n1, a=2.0), RngStream(1))
        slots = _aer_slots(full, n1)
        rows = np.split(slots, np.cumsum(np.arange(n1 - 1, 1, -1)))
        pairs = sum(len(row) - 1 for row in rows)
        adjacent = sum(int(row[1:] @ row[:-1]) for row in rows)
        assert (len(slots), slots.sum(), pairs) == (4950, full.edge_count, 4851)
        keys = np.sort(full.pairs[:, 0] * n1 + full.pairs[:, 1])
        assert adjacent == np.count_nonzero(np.diff(keys) == 1) > 0
        p_hat = full.edge_count / len(slots)
        r1 = (adjacent / pairs - p_hat ** 2) / (p_hat * (1.0 - p_hat))
        assert aer_lag1(full)[0] == pytest.approx(r1, rel=1e-12)

    def test_mean_degree_near_target(self):
        spec = AerModelSpec(n1=20000, a=2.75)
        degs = []
        for rep in range(3):
            full = grow_aer_unpruned(spec, RngStream(77, rep))
            degs.append(2.0 * full.edge_count / spec.n1)
        assert np.mean(degs) == pytest.approx(2.75, rel=0.03)

    def test_positive_autocorrelation(self):
        spec = AerModelSpec(n1=20000, a=2.75)
        r1, z = aer_lag1(grow_aer_unpruned(spec, RngStream(78)))
        assert r1 > 0.3
        assert z > 10.0

    def test_pruning_removes_only_small_components(self):
        spec = AerModelSpec(n1=1500, a=2.2)
        full = grow_aer_unpruned(spec, RngStream(41))
        pruned = grow_aer(spec, RngStream(41))
        sizes_before = sorted(len(c) for c in _components(full))
        sizes_after = sorted(len(c) for c in _components(pruned))
        assert all(s >= 3 for s in sizes_after)
        # Multiset of large components is untouched.
        assert [s for s in sizes_before if s >= 3] == sizes_after
        assert pruned.vertex_count == sum(s for s in sizes_before if s >= 3)

    def test_no_self_loops_or_duplicates(self):
        spec = AerModelSpec(n1=3000, a=2.75)
        full = grow_aer_unpruned(spec, RngStream(55))
        assert (full.pairs[:, 0] < full.pairs[:, 1]).all()
        packed = full.pairs[:, 0] * 3000 + full.pairs[:, 1]
        assert len(np.unique(packed)) == len(packed)

    @pytest.mark.parametrize("n1, a, seed", [(400, 1.2, 1), (2000, 2.2, 2),
                                             (3000, 2.75, 3)])
    def test_prune_mask_matches_components(self, n1, a, seed):
        full = grow_aer_unpruned(AerModelSpec(n1=n1, a=a), RngStream(seed))
        keep = growth._prune_small_components(full)
        expected = np.zeros(n1, dtype=bool)
        for comp in _components(full):
            expected[list(comp)] = len(comp) >= 3
        assert np.array_equal(keep, expected)

    def test_prune_long_path_with_shuffled_ids(self):
        # A 20000-vertex path, 300 two-vertex components and 400 isolated
        # vertices, under one random relabelling.
        n = 20000 + 600 + 400
        perm = np.random.default_rng(5).permutation(n)
        path = np.column_stack([np.arange(19999), np.arange(1, 20000)])
        duos = np.arange(20000, 20600).reshape(-1, 2)
        graph = Graph(n, perm[np.concatenate([path, duos])])
        keep = growth._prune_small_components(graph)
        expected = np.zeros(n, dtype=bool)
        for comp in _components(graph):
            expected[list(comp)] = len(comp) >= 3
        assert np.array_equal(keep, expected)
        assert keep.sum() == 20000

    @given(st.integers(2, 400), st.floats(0.05, 6.0), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_prune_matches_labels_on_aer(self, n1, a, seed):
        full = grow_aer_unpruned(AerModelSpec(n1=n1, a=min(a, n1 - 1)),
                                 RngStream(seed))
        assert np.array_equal(growth._prune_small_components(full),
                              _prune_by_labels(full))

    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.tuples(st.integers(0, n - 1),
                                      st.integers(0, n - 1)), max_size=40))))
    @settings(max_examples=200, deadline=None)
    def test_prune_matches_labels_on_simple_graphs(self, case):
        n, drawn = case
        # One edge per unordered pair, in the drawn orientation.
        edges = {frozenset(e): e for e in drawn if e[0] != e[1]}
        graph = Graph(n, list(edges.values()))
        assert np.array_equal(growth._prune_small_components(graph),
                              _prune_by_labels(graph))

    def test_first_draw_uses_half_base_probability(self):
        # A two-vertex graph has exactly one slot, always a row start, so the
        # edge frequency across seeds estimates p_a / 2.
        spec = AerModelSpec(n1=2, a=0.8)  # p_a = 0.8, first draw at 0.4
        hits = sum(
            grow_aer_unpruned(spec, RngStream(900, rep)).edge_count
            for rep in range(4000))
        assert hits / 4000 == pytest.approx(0.4, abs=0.03)

    def test_exact_slot_law_at_n4(self):
        # n1 = 4 scans 6 slots in rows of 3, 2 and 1; p_a = 0.6 puts the
        # draws at 0.3 after a failure or a row start and 0.8 after a success.
        spec, reps = AerModelSpec(n1=4, a=1.8), 20_000
        observed = Counter()
        for rep in range(reps):
            full = grow_aer_unpruned(spec, RngStream(4040, rep))
            observed[tuple(_aer_slots(full, 4))] += 1
        law = _aer_slot_law(4, spec.p_a, carry=False)
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        assert _chi_square_p(observed, law, reps) > 1e-4
        # The same counts against a chain whose state carries across rows:
        # the test has power.
        other = _aer_slot_law(4, spec.p_a, carry=True)
        assert _chi_square_p(observed, other, reps) < 1e-6

    def test_run_to_row_end_keeps_next_row_start(self):
        # Without carry every row's first slot is drawn at p_a / 2 = 0.2,
        # also after a run that filled the previous row to its end; a scan
        # that spent that slot as the run's failure reads about 0.18.
        spec, reps = AerModelSpec(n1=5, a=1.6), 20_000
        hits = np.zeros(10)
        for rep in range(reps):
            hits += _aer_slots(grow_aer_unpruned(spec, RngStream(5050, rep)), 5)
        row_starts = [4, 7, 9]
        assert hits[row_starts].sum() / (3 * reps) == pytest.approx(0.2, abs=0.006)
        # Slot 3 ends row 0 and slot 6 row 1: both runs to a row end occur.
        assert hits[3] > 0 and hits[6] > 0


def _aer_slots(graph: Graph, n1: int) -> np.ndarray:
    """The 0/1 slot vector of an unpruned AER graph, in scan order."""
    row_start = np.concatenate([[0], np.cumsum(np.arange(n1 - 1, 0, -1))])
    i, j = graph.pairs[:, 0], graph.pairs[:, 1]
    slots = np.zeros(n1 * (n1 - 1) // 2, dtype=np.int64)
    slots[row_start[i] + j - i - 1] = 1
    return slots


def _aer_slot_law(n1: int, p_a: float, carry: bool) -> dict[tuple, float]:
    """Exact probability of every slot pattern under the two-state chain:
    a draw succeeds with p_a / 2 after a failure or a row start (unless
    carry) and (p_a + 1) / 2 after a success."""
    row_starts = set(np.cumsum([0] + list(range(n1 - 1, 1, -1))).tolist())
    count = n1 * (n1 - 1) // 2
    law = {}
    for code in range(2 ** count):
        pattern = tuple((code >> (count - 1 - s)) & 1 for s in range(count))
        prob, prev = 1.0, 0
        for s, x in enumerate(pattern):
            if s in row_starts and not carry:
                prev = 0
            p = (p_a + prev) / 2.0
            prob *= p if x else 1.0 - p
            prev = x
        law[pattern] = prob
    return law


# ---------------------------------------------------------------------------
# Composite growth
# ---------------------------------------------------------------------------

class TestGrowComposite:
    def _spec(self, total=4000):
        complement = NpaModelSpec(
            weights=WeightFunction.linear(g=1),
            increments=IncrementDistribution(min_arcs=1, probs=(0.5, 0.5)))
        return CompositeSpec(components=((BaTreeSpec(), 0.35),
                                         (complement, 0.65)),
                             total_n=total)

    def test_budgets_partition(self):
        spec = self._spec(100000)
        assert spec.budgets() == [35000, 65000]

    def test_disjoint_union_structure(self):
        spec = self._spec(4000)
        g = grow_composite(spec, RngStream(8))
        assert g.vertex_count == 4000
        comp_sizes = sorted(len(c) for c in _components(g))
        # Tree component is connected; complement is connected as well
        # (every increment attaches); expect exactly two components.
        assert len(comp_sizes) == 2
        assert comp_sizes == [1400, 2600]

    def test_edge_counts_sum(self):
        spec = self._spec(3000)
        g = grow_composite(spec, RngStream(9))
        tree = grow_npa(BaTreeSpec(), 1050, RngStream(9).substream(0))
        comp = grow_npa(spec.components[1][0], 1950, RngStream(9).substream(1))
        assert g.edge_count == tree.edge_count + comp.edge_count

    def test_single_component_matches_direct_growth(self):
        model = NpaModelSpec(
            weights=WeightFunction.linear(g=1),
            increments=IncrementDistribution(min_arcs=1, probs=(1.0,)))
        spec = CompositeSpec(components=((model, 1.0),), total_n=500)
        g = grow_composite(spec, RngStream(10))
        direct = grow_npa(model, 500, RngStream(10).substream(0))
        assert np.array_equal(g.pairs, direct.pairs)

    def test_aer_component_budget_override(self):
        spec = CompositeSpec(
            components=((AerModelSpec(n1=999, a=2.0), 0.5),
                        (BaTreeSpec(), 0.5)),
            total_n=1000)
        g = grow_composite(spec, RngStream(12))
        # AER pruning removes vertices, so the union is smaller than total_n.
        assert g.vertex_count <= 1000


# ---------------------------------------------------------------------------
# Edge-list output
# ---------------------------------------------------------------------------

def _read_back(text):
    """The graph write_edge_list wrote: the vertex count and direction of
    its header, and its pairs in file order."""
    nodes = int(re.search(r"^# Nodes: (\d+)", text, re.MULTILINE).group(1))
    directed = re.search(r"^# Directed: true$", text, re.MULTILINE)
    pairs = np.loadtxt(io.StringIO(text), dtype=np.int64, ndmin=2)
    return Graph(nodes, pairs.reshape(-1, 2), directed=directed is not None)


class TestEdgeListIo:
    def test_round_trip_exact(self):
        g = grow_npa(BaTreeSpec(), 200, RngStream(3))
        buf = io.StringIO()
        write_edge_list(g, buf)
        back = _read_back(buf.getvalue())
        assert back.vertex_count == g.vertex_count
        assert back.directed == g.directed
        assert np.array_equal(back.pairs, g.pairs)

    def test_written_text_exact(self):
        g = Graph(13, [(0, 1), (2, 0), (3, 12)], directed=True)
        buf = io.StringIO()
        write_edge_list(g, buf)
        assert buf.getvalue() == ("# Nodes: 13 Edges: 3\n"
                                  "# Directed: true\n"
                                  "0 1\n2 0\n3 12\n")

    def test_written_text_across_chunks(self, monkeypatch):
        monkeypatch.setattr(formats, "_WRITE_CHUNK_ROWS", 2)
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        buf = io.StringIO()
        write_edge_list(g, buf)
        assert buf.getvalue().splitlines()[2:] == [
            "0 1", "1 2", "2 3", "3 4", "4 5"]

    def test_isolated_vertices_preserved(self):
        g = Graph(10, [(0, 1)])
        buf = io.StringIO()
        write_edge_list(g, buf)
        back = _read_back(buf.getvalue())
        assert back.vertex_count == 10
        assert back.pairs.tolist() == [[0, 1]]

