import json
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from npagraph import (AerModelSpec, BaTreeSpec, CompositeSpec, DegreeDistribution,
                      EdgeDegreeMatrix, Graph, IncrementDistribution, NpaModelSpec,
                      RngStream, SeedGraphSpec, ValidationError, WeightFunction,
                      dump_model, grow_npa, load_model, solve_vdd, validate_model)

GOWALLA_M = 7.376292489902686  # frozen: mean of the normalized preset table


# ---------------------------------------------------------------------------
# WeightFunction
# ---------------------------------------------------------------------------

class TestWeightFunction:
    def test_linear_support(self):
        w = WeightFunction.linear(g=1)
        assert w.weights_upto(0, 0)[0] == 0.0
        assert w.weights_upto(1, 1)[0] == 1.0
        assert w.weights_upto(7, 7)[0] == 7.0

    def test_finite_m_zero_outside(self):
        w = WeightFunction.linear(g=2, M=5)
        assert w.weights_upto(1, 1)[0] == 0.0
        assert w.weights_upto(2, 2)[0] == 2.0
        assert w.weights_upto(5, 5)[0] == 5.0
        assert w.weights_upto(6, 6)[0] == 0.0

    def test_power_and_constant(self):
        assert WeightFunction.power(0.8).weights_upto(4, 4)[0] == pytest.approx(
            4 ** 0.8)
        assert WeightFunction.constant(3.5).weights_upto(9, 9)[0] == 3.5

    def test_table_overrides_then_rule(self):
        w = WeightFunction.from_table(g=1, values=[10.0, 20.0], rule="linear")
        assert w.weights_upto(1, 1)[0] == 10.0
        assert w.weights_upto(2, 2)[0] == 20.0
        assert w.weights_upto(3, 3)[0] == 3.0  # beyond the table the rule applies

    @given(g=st.integers(0, 6), extent=st.none() | st.integers(-2, 20),
           rule=st.sampled_from([None, "linear", "power", "constant"]),
           alpha=st.floats(-2.0, 400.0), value=st.floats(0.1, 10.0),
           table=st.lists(st.floats(0.0, 100.0), max_size=5),
           k_top=st.integers(0, 30), data=st.data())
    def test_offset_range_is_a_slice(self, g, extent, rule, alpha, value, table,
                                     k_top, data):
        # Bit for bit, infinite and zero weights included.
        w = WeightFunction(g=g, M=None if extent is None else g + extent,
                           rule=rule, alpha=alpha, value=value, table=tuple(table))
        lo = data.draw(st.integers(0, k_top))
        assert (w.weights_upto(k_top, lo).tobytes()
                == w.weights_upto(k_top)[lo:].tobytes())

    def test_zero_inside_support_is_violation(self):
        w = WeightFunction.from_table(g=1, values=[1.0, 2.0, 0.0], M=10,
                                      rule="linear")
        codes = [v.code for v in w.violations()]
        assert "WeightSignViolation" in codes

    @pytest.mark.parametrize("w", [WeightFunction.power(400.0, g=1, M=10),
                                   WeightFunction.power(-1.0, g=0, M=10)],
                             ids=["overflow", "zero-to-negative"])
    def test_infinite_weight_is_violation(self, w):
        # k**alpha overflows at k = 10 in the first, and is 1/0 at k = 0 in
        # the second; both are infinite weights, not a crash.
        assert [v.code for v in w.violations()] == ["WeightSignViolation"]
        assert math.inf in (w.weights_upto(w.g, w.g)[0],
                            w.weights_upto(w.M, w.M)[0])

    def test_pure_table_needs_finite_m(self):
        w = WeightFunction(g=1, M=None, rule=None, table=(1.0, 2.0))
        assert any(v.code == "EmptySupport" for v in w.violations())

    def test_asymptote(self):
        assert WeightFunction.linear().asymptote() == ("linear", 1.0)
        assert WeightFunction.power(1.0).asymptote() == ("linear", 1.0)
        assert WeightFunction.power(0.8).asymptote() == ("power", 0.8)
        assert WeightFunction.constant(2.0).asymptote() == ("constant", 2.0)
        assert WeightFunction.linear(M=50).asymptote() == ("finite", 50)


# ---------------------------------------------------------------------------
# IncrementDistribution
# ---------------------------------------------------------------------------

class TestIncrementDistribution:
    def test_point_mass_mean(self):
        d = IncrementDistribution(min_arcs=1, probs=(1.0,))
        assert d.mean == 1.0

    def test_two_point_mean(self):
        d = IncrementDistribution(min_arcs=1, probs=(0.5, 0.5))
        assert d.mean == 1.5

    def test_gowalla_table_mean_frozen(self):
        from npagraph import gowalla_increments
        inc, _raw = gowalla_increments()
        assert inc.mean == pytest.approx(GOWALLA_M, abs=1e-12)

    def test_non_normalized(self):
        d = IncrementDistribution(min_arcs=1, probs=(0.5, 0.4))
        assert any(v.code == "NonNormalized" for v in d.violations())

    def test_prob_outside_support(self):
        d = IncrementDistribution(min_arcs=2, probs=(1.0,))
        support = dict(enumerate(d.probs, d.min_arcs))
        assert support.get(1, 0.0) == 0.0
        assert support[2] == 1.0
        assert support.get(3, 0.0) == 0.0

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1,
                    max_size=12),
           st.integers(min_value=0, max_value=4))
    def test_serialization_keeps_mean_bitwise(self, raw, g):
        total = math.fsum(raw)
        probs = tuple(x / total for x in raw)
        d = IncrementDistribution(min_arcs=g, probs=probs)
        back = IncrementDistribution.from_dict(json.loads(json.dumps(d.to_dict())))
        assert back.mean == d.mean


# ---------------------------------------------------------------------------
# validate_model
# ---------------------------------------------------------------------------

class TestValidateModel:
    def test_ba_tree_valid_and_idempotent(self):
        spec = BaTreeSpec()
        assert validate_model(spec) is spec
        assert validate_model(validate_model(spec)) is spec

    def test_reports_all_violations(self):
        spec = NpaModelSpec(
            weights=WeightFunction.from_table(g=1, values=[1.0, 0.0], M=5,
                                              rule="linear"),
            increments=IncrementDistribution(min_arcs=1, probs=(0.5, 0.4)))
        with pytest.raises(ValidationError) as err:
            validate_model(spec)
        assert "NonNormalized" in err.value.codes()
        assert "WeightSignViolation" in err.value.codes()

    def test_support_mismatch(self):
        spec = NpaModelSpec(weights=WeightFunction.linear(g=1),
                            increments=IncrementDistribution(min_arcs=2,
                                                             probs=(1.0,)))
        with pytest.raises(ValidationError) as err:
            validate_model(spec)
        assert "SupportMismatch" in err.value.codes()

    def test_overflowing_weights_model_violation(self):
        # The default seed of g = 5 has degree 5, whose weight 5**400
        # overflows too: the seed total is infinite, not zero.
        for g in (1, 5):
            spec = NpaModelSpec(
                weights=WeightFunction.power(400.0, g=g, M=10),
                increments=IncrementDistribution(min_arcs=g, probs=(1.0,)))
            with pytest.raises(ValidationError) as err:
                validate_model(spec)
            assert err.value.codes() == ["WeightSignViolation"]

    def test_seed_weight_zero(self):
        spec = NpaModelSpec(
            weights=WeightFunction.linear(g=1),
            increments=IncrementDistribution(min_arcs=1, probs=(1.0,)),
            seed_graph=SeedGraphSpec(vertices=2, edges=()))
        with pytest.raises(ValidationError) as err:
            validate_model(spec)
        assert "SeedWeightZero" in err.value.codes()

    @pytest.mark.parametrize("vertices,edges", [
        (2, ((0, 5),)), (2, ((0, 1), (2, 1))), (3, ((-1, 2),)),
        (None, ((0, -1),)), (0, ((0, 0),))])
    def test_seed_id_out_of_range(self, vertices, edges):
        # The seed graph is never built: its ids would not index its vertices.
        spec = NpaModelSpec(
            weights=WeightFunction.linear(g=1),
            increments=IncrementDistribution(min_arcs=1, probs=(1.0,)),
            seed_graph=SeedGraphSpec(vertices=vertices, edges=edges))
        with pytest.raises(ValidationError) as err:
            validate_model(spec)
        assert err.value.codes() == ["SeedIdOutOfRange"]
        composite = CompositeSpec(components=((BaTreeSpec(), 0.5), (spec, 0.5)),
                                  total_n=1000)
        with pytest.raises(ValidationError) as err:
            validate_model(composite)
        assert err.value.codes() == ["SeedIdOutOfRange"]

    def test_negative_seed_vertex_count(self):
        # The seed graph is never built: no graph has a negative vertex count.
        spec = NpaModelSpec(
            weights=WeightFunction.linear(g=1),
            increments=IncrementDistribution(min_arcs=1, probs=(1.0,)),
            seed_graph=SeedGraphSpec(vertices=-1, edges=()))
        with pytest.raises(ValidationError) as err:
            validate_model(spec)
        assert err.value.codes() == ["EmptySupport"]
        composite = CompositeSpec(components=((BaTreeSpec(), 0.5), (spec, 0.5)),
                                  total_n=1000)
        with pytest.raises(ValidationError) as err:
            validate_model(composite)
        assert err.value.codes() == ["EmptySupport"]
        with pytest.raises(ValueError):
            Graph(-1, [])

    def test_seed_ids_in_range_build(self):
        seed = SeedGraphSpec(vertices=3, edges=((0, 2), (1, 2)))
        assert seed.violations() == []
        assert seed.build(1).vertex_count == 3

    def test_degenerate_empty_seed(self):
        spec = NpaModelSpec(
            weights=WeightFunction.linear(g=1),
            increments=IncrementDistribution(min_arcs=1, probs=(1.0,)),
            seed_graph=SeedGraphSpec(vertices=None, edges=()))
        with pytest.raises(ValidationError) as err:
            validate_model(spec)
        assert "SeedWeightZero" in err.value.codes()

    def test_weights_without_rule_at_seed_degree(self):
        # The seed's degree 1 has no table entry and no rule: the weights'
        # own violation, not a ValueError from the seed weight sum.
        spec = load_model(json.dumps({
            "type": "npa", "weights": {"g": 1},
            "increments": {"min_arcs": 1, "probs": [1.0]}}))
        with pytest.raises(ValidationError) as err:
            validate_model(spec)
        assert err.value.codes() == ["EmptySupport"]

    @pytest.mark.parametrize("name", ["star", None])
    def test_unknown_seed_graph_name(self, name):
        with pytest.raises(ValidationError) as err:
            load_model(json.dumps({
                "type": "npa", "weights": {"g": 1, "rule": "linear"},
                "increments": {"min_arcs": 1, "probs": [1.0]},
                "seed_graph": {"name": name}}))
        assert err.value.codes() == ["EmptySupport"]
        assert repr(name) in str(err.value)

    def test_aer_spec(self):
        spec = AerModelSpec(n1=35000, a=2.75)
        assert validate_model(spec) is spec
        assert spec.p_a == pytest.approx(2.75 / 34999)
        with pytest.raises(ValidationError) as err:
            validate_model(AerModelSpec(n1=3, a=10.0))  # p_a > 1
        assert err.value.codes() == ["NonNormalized"]

    def test_composite_fraction_sum(self):
        ba = BaTreeSpec()
        bad = CompositeSpec(components=((ba, 0.5), (ba, 0.4)), total_n=1000)
        with pytest.raises(ValidationError) as err:
            validate_model(bad)
        assert "NonNormalized" in err.value.codes()

    def test_composite_without_components(self):
        with pytest.raises(ValidationError, match="composite has no components"):
            validate_model(CompositeSpec(components=(), total_n=1000))

    def test_composite_small_budget(self):
        ba = BaTreeSpec()
        tiny = CompositeSpec(components=((ba, 0.999), (ba, 0.001)), total_n=100)
        with pytest.raises(ValidationError):
            validate_model(tiny)

    def test_composite_budget_below_seed(self):
        # g = 2 grows from a 3-vertex seed, so a budget of 2 cannot grow.
        g2 = NpaModelSpec(weights=WeightFunction.linear(g=2),
                          increments=IncrementDistribution(min_arcs=2,
                                                           probs=(1.0,)))
        spec = CompositeSpec(components=((BaTreeSpec(), 0.5), (g2, 0.5)),
                             total_n=4)
        with pytest.raises(ValidationError) as err:
            validate_model(spec)
        assert err.value.codes() == ["EmptySupport"]
        assert validate_model(replace(spec, total_n=6)) is not None

    def test_composite_budgets(self):
        spec = CompositeSpec(components=((BaTreeSpec(), 0.35),
                                         (BaTreeSpec(), 0.65)),
                             total_n=100000)
        assert spec.budgets() == [35000, 65000]

    @pytest.mark.parametrize("rhos,total_n,budgets", [
        ((0.5, 0.5), 1001, [501, 500]),
        ((1 / 3, 1 / 3, 1 / 3), 100, [34, 33, 33]),
        ((0.999, 0.001), 100, [100, 0]),
        ((0.225, 0.775), 5000, [1125, 3875]),
    ])
    def test_composite_budgets_by_largest_remainder(self, rhos, total_n,
                                                    budgets):
        spec = CompositeSpec(components=tuple((BaTreeSpec(), r) for r in rhos),
                             total_n=total_n)
        assert spec.budgets() == budgets

    @given(raw=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
           total_n=st.integers(0, 10**7))
    def test_composite_budgets_add_up_to_total_n(self, raw, total_n):
        rhos = [r / math.fsum(raw) for r in raw]
        spec = CompositeSpec(components=tuple((BaTreeSpec(), r) for r in rhos),
                             total_n=total_n)
        budgets = spec.budgets()
        assert sum(budgets) == total_n
        assert all(abs(b - r * total_n) < 1.0 + 1e-6 for b, r in zip(budgets, rhos))

    def test_component_checked_at_its_budget(self):
        # Growth ignores a component's own total_n or n1: an inner composite
        # of total_n 2 and an AER model of n1 = 1 both grow at budget 500.
        ba = BaTreeSpec()
        inner = CompositeSpec(components=((ba, 0.5), (ba, 0.5)), total_n=2)
        for part in (inner, AerModelSpec(n1=1, a=2.75)):
            outer = CompositeSpec(components=((ba, 0.5), (part, 0.5)),
                                  total_n=1000)
            assert validate_model(outer) is outer
        outer = CompositeSpec(components=((ba, 0.5), (inner, 0.5)), total_n=4)
        with pytest.raises(ValidationError) as err:
            validate_model(outer)
        assert [str(v) for v in err.value.violations] == [
            f"EmptySupport: component 1: component {i}: n = 1 is below the "
            "seed graph's 2 vertices" for i in (0, 1)]


# ---------------------------------------------------------------------------
# Distributions and matrices
# ---------------------------------------------------------------------------

class TestDegreeDistribution:
    def test_mass_accounting(self):
        q = DegreeDistribution(min_degree=1, probs=np.array([0.5, 0.3]),
                               truncation_mass=0.2)
        assert q.mean() == pytest.approx(0.5 + 0.6)

    def test_tv_distance(self):
        a = DegreeDistribution(1, np.array([1.0, 0.0]))
        b = DegreeDistribution(1, np.array([0.0, 1.0]))
        assert a.tv_distance(b) == 1.0
        assert a.tv_distance(a) == 0.0

    def test_tv_distance_align_offsets(self):
        a = DegreeDistribution(1, np.array([0.5, 0.5]))
        b = DegreeDistribution(2, np.array([0.5, 0.5]))
        assert a.tv_distance(b) == 0.5

    def test_probs_read_only(self):
        q = DegreeDistribution(1, np.array([1.0]))
        with pytest.raises(ValueError):
            q.probs[0] = 2.0


class TestEdgeDegreeMatrix:
    def test_window(self):
        m = EdgeDegreeMatrix(min_degree=1, entries=np.eye(4) / 4.0, kind="edge")
        w = m.window(2, 3)
        assert w.shape == (2, 2)
        assert w[0, 0] == 0.25

    def test_window_out_of_range(self):
        from npagraph import WindowExceedsMatrix
        m = EdgeDegreeMatrix(min_degree=2, entries=np.eye(3) / 3.0, kind="edge")
        with pytest.raises(WindowExceedsMatrix):
            m.window(1, 3)

    @pytest.mark.parametrize("entries,kind,match", [
        (np.ones((2, 3)) / 6.0, "edge", "square"),
        (np.eye(2) / 2.0, "vertex", "kind must be"),
    ])
    def test_malformed_rejected(self, entries, kind, match):
        with pytest.raises(ValueError, match=match):
            EdgeDegreeMatrix(min_degree=1, entries=entries, kind=kind)


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------

class TestGraph:
    def test_degrees(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert list(g.degrees()) == [1, 2, 1]
        assert g.edge_count == 2

    def test_degree_sum_is_twice_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.degrees().sum() == 2 * g.edge_count

    def test_degrees_counted_once_and_read_only(self):
        g = Graph(3, [(0, 1), (1, 2)])
        first = g.degrees()
        assert g.degrees() is first
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 5
        assert list(g.degrees()) == [1, 2, 1]

    def test_disjoint_union(self):
        a = Graph(2, [(0, 1)])
        b = Graph(3, [(0, 1), (1, 2)])
        u = Graph.disjoint_union([a, b])
        assert u.vertex_count == 5
        assert u.edge_count == 3
        assert (u.pairs[1:] >= 2).all()

    def test_induced(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        sub = g.induced(np.array([True, True, True, False]))
        assert sub.vertex_count == 3
        assert sub.edge_count == 2

    @pytest.mark.parametrize("pairs", [[(0, 5)], [(0, 2)], [(-1, 1)],
                                       [(0, 1), (1, -2)], [(0, 1, 1)]])
    def test_ids_outside_vertex_range_rejected(self, pairs):
        # Graph(2, [(0, 5)]).degrees() used to return [1, 0] silently. The
        # last ids are in range, but three to a row are no pair.
        with pytest.raises(ValueError):
            Graph(2, pairs)

    def test_ids_at_range_edges_accepted(self):
        assert list(Graph(2, [(0, 1)]).degrees()) == [1, 1]
        assert Graph(0, []).edge_count == 0


# ---------------------------------------------------------------------------
# Spec serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_npa_round_trip(self):
        spec = NpaModelSpec(
            weights=WeightFunction.power(0.8, g=1, M=100),
            increments=IncrementDistribution(min_arcs=1, probs=(0.6, 0.4)))
        back = load_model(dump_model(spec))
        assert back == spec

    def test_composite_round_trip(self):
        spec = CompositeSpec(
            components=((BaTreeSpec(), 0.225),
                        (NpaModelSpec(weights=WeightFunction.linear(),
                                      increments=IncrementDistribution(
                                          min_arcs=1, probs=(1.0,))), 0.775)),
            total_n=50000, metadata={"name": "demo"})
        back = load_model(dump_model(spec))
        assert back == spec

    def test_aer_round_trip(self):
        spec = AerModelSpec(n1=35000, a=2.75)
        assert load_model(dump_model(spec)) == spec

    def test_ba_tree_is_the_law_it_names(self):
        """BaTreeSpec holds the linear-weight single-arc law, solves and
        grows as that plain spec does, and differs from it in type alone."""
        ba = BaTreeSpec()
        npa = NpaModelSpec(WeightFunction.linear(g=1), IncrementDistribution(1, (1.0,)))
        assert astuple(ba) == astuple(npa)
        a, b = solve_vdd(ba), solve_vdd(npa)
        assert a.q.probs.tobytes() == b.q.probs.tobytes()
        assert a.mean_weight == b.mean_weight
        assert np.array_equal(grow_npa(ba, 3000, RngStream(11)).pairs,
                              grow_npa(npa, 3000, RngStream(11)).pairs)
        assert json.loads(dump_model(ba)) == {"type": "ba_tree"}
        assert json.loads(dump_model(npa))["type"] == "npa"
        assert type(load_model(dump_model(ba))) is BaTreeSpec
        assert type(load_model(dump_model(npa))) is NpaModelSpec

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            load_model('{"type": "mystery"}')
