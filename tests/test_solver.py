import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from npagraph import (BaTreeSpec, DegreeDistribution, EdgeDegreeMatrix,
                      EmptyInput, InfeasibleComplement, InputTooLarge,
                      IncrementDistribution, MalformedLine, NoConvergence,
                      NpaModelSpec, ValidationError, WeightFunction,
                      WeightsNotConvex, WindowExceedsMatrix,
                      complement_mean, complement_vdd, edge_share, mix_edd,
                      mix_vdd, solve_arc_dd, solve_vdd, symmetrize)
from npagraph import solver
from npagraph.solver import (_VddEngine, _matrix_csv, _read_csv, edd_from_csv,
                             edd_to_csv, vdd_from_csv, vdd_to_csv)
from npagraph.validation import reference_models


def ba_closed_form(k):
    k = np.asarray(k, dtype=float)
    return 4.0 / (k * (k + 1.0) * (k + 2.0))


@pytest.fixture(scope="module")
def ba_solution():
    return solve_vdd(BaTreeSpec().to_npa())


# ---------------------------------------------------------------------------
# Vertex distribution
# ---------------------------------------------------------------------------

def vdd_reference(model, phi, k_top):
    """Q_g..Q_{k_top} at mean weight phi, one degree at a time:
    Q_k = (r_k phi + m f_{k-1} Q_{k-1}) / (phi + m f_k), Q_{g-1} = 0."""
    g = model.g
    m = model.increments.mean
    f = [model.weights.weight(k) for k in range(k_top + 1)]
    q, prev = [], 0.0
    for k in range(g, k_top + 1):
        f_prev = f[k - 1] if k > g else 0.0
        prev = ((model.increments.prob(k) * phi + m * f_prev * prev)
                / (phi + m * f[k]))
        q.append(prev)
    return np.array(q)


@st.composite
def vdd_cases(draw):
    g = draw(st.integers(0, 2))
    rule = draw(st.sampled_from(["linear", "power", "constant", "table"]))
    # A cap may fall inside the increment support, so that vertices arrive
    # with degrees whose weight is 0; the seed's degree max(g, 1) keeps a
    # positive weight.
    M = draw(st.one_of(st.none(), st.integers(max(g, 1), g + 12)))
    if rule == "linear":
        weights = WeightFunction.linear(g=g, M=M)
    elif rule == "power":
        weights = WeightFunction.power(
            draw(st.sampled_from([0.5, 0.8, 1.0, 1.2])), g=g, M=M)
    elif rule == "constant":
        weights = WeightFunction.constant(
            draw(st.sampled_from([0.5, 1.0, 2.0])), g=g, M=M)
    else:
        values = draw(st.lists(st.floats(0.1, 20.0), min_size=1 + (g == 0),
                               max_size=6))
        weights = WeightFunction.from_table(g, values)
    if g == 0 and rule in ("linear", "power"):
        # f_0 = 0 under these rules; a table entry makes degree 0 a valid
        # attachment target.
        weights = WeightFunction.from_table(0, [0.5], M=M, rule=rule,
                                            alpha=weights.alpha)
    # At g = 0 a lone r_0 would mean no arcs at all (m = 0).
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=1 + (g == 0),
                        max_size=8))
    probs = tuple(p / sum(raw) for p in raw)
    model = NpaModelSpec(weights=weights,
                         increments=IncrementDistribution(min_arcs=g, probs=probs))
    return model, draw(st.floats(0.05, 50.0)), draw(st.integers(20, 2000))


class TestSolveVdd:
    def test_ba_hand_unrolled_head(self, ba_solution):
        q = ba_solution.q
        assert q.prob(1) == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert q.prob(2) == pytest.approx(1.0 / 6.0, abs=1e-10)
        assert q.prob(3) == pytest.approx(1.0 / 15.0, abs=1e-10)

    def test_ba_closed_form_oracle(self, ba_solution):
        ks = np.arange(1, 101)
        got = ba_solution.q.probs[:100]
        assert np.abs(got - ba_closed_form(ks)).max() < 1e-9

    def test_ba_mean_weight_and_control(self, ba_solution):
        assert ba_solution.mean_weight == pytest.approx(2.0, abs=1e-9)
        assert ba_solution.control_residual < 1e-9

    def test_normalization_with_truncation(self, ba_solution):
        q = ba_solution.q
        assert q.stored_mass() + q.truncation_mass == pytest.approx(1.0, abs=1e-12)
        assert q.truncation_mass >= 0.0

    @pytest.mark.parametrize("name", sorted(reference_models()))
    def test_control_equation_all_models(self, name):
        model = reference_models()[name]
        sol = solve_vdd(model, k_max=10000)
        assert sol.control_residual < 1e-6
        assert sol.q.stored_mass() + sol.q.truncation_mass == pytest.approx(
            1.0, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(reference_models()))
    def test_fixed_point_consistency(self, name):
        model = reference_models()[name]
        tol = 1e-10
        sol = solve_vdd(model, fp_tolerance=tol)
        f = model.weights.weights_upto(sol.q.max_degree)[sol.q.min_degree:]
        weighted = float((f * sol.q.probs).sum())
        # The stored part plus the analytic linear tail must return phi.
        if model.weights.asymptote()[0] == "linear":
            weighted += sol.tail_degree_mass
        assert abs(weighted - sol.mean_weight) < 100 * tol

    def test_finite_m_saturation_degree(self):
        model = reference_models()["superlinear_m200"]
        sol = solve_vdd(model)
        q = sol.q
        assert q.prob(201) > 0.0  # one final attachment at the last degree
        assert q.prob(202) == 0.0
        assert q.truncation_mass < 1e-12

    @pytest.mark.parametrize("v", [1.0, 0.37, 4.5])
    def test_constant_weights_mean_weight_closed_form(self, v):
        # f_k = v gives sum f_k Q_k = v sum Q_k = v at every phi, so the
        # mean weight is exactly v, found without a search.
        model = replace(reference_models()["constant"],
                        weights=WeightFunction.constant(v, g=1))
        sol = solve_vdd(model)
        assert sol.mean_weight == v
        assert sol.control_residual <= 1e-12

    def test_truncation_recorded_not_raised(self):
        # The Gowalla increments leave 1.7e-6 of vertex mass beyond degree
        # 10000; it is carried as truncation_mass rather than raised.
        from npagraph.calibrate import gowalla_increments
        inc, _ = gowalla_increments()
        heavy = NpaModelSpec(weights=WeightFunction.linear(g=1), increments=inc)
        short = solve_vdd(heavy, k_max=10000)
        long = solve_vdd(heavy, k_max=40000)
        assert np.array_equal(short.q.probs, long.q.probs[:10000])
        beyond = float(long.q.probs[10000:].sum()) + long.q.truncation_mass
        assert short.q.truncation_mass > 1e-6
        assert abs(short.q.truncation_mass - beyond) < 1e-12
        assert short.control_residual < 1e-6

    @given(g=st.integers(min_value=1, max_value=3),
           raw=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                        max_size=8).filter(lambda r: sum(r) > 0.01),
           form=st.sampled_from(["linear", "power", "table"]))
    @settings(max_examples=40, deadline=None)
    def test_linear_weights_mean_weight_closed_form(self, g, raw, form):
        # With f_k = k the weight is the degree, so phi = 2 m solves the
        # fixed point and solve_vdd returns it without a search.
        weights = {"linear": WeightFunction.linear(g=g),
                   "power": WeightFunction.power(1.0, g=g),
                   "table": WeightFunction.from_table(
                       g, range(g, g + 5), rule="linear")}[form]
        probs = tuple(p / sum(raw) for p in raw)
        model = NpaModelSpec(weights=weights,
                             increments=IncrementDistribution(min_arcs=g,
                                                              probs=probs))
        two_m = 2.0 * model.increments.mean
        engine = _VddEngine(model, 10000)
        assert abs(engine.weighted_sum(two_m) - two_m) <= 1e-9 * two_m
        assert solve_vdd(model).mean_weight == two_m

    def test_unbracketable_capped_linear_raises(self):
        # Capped at M = 3 with every increment bringing at least two arcs,
        # no phi has a positive residual.
        model = NpaModelSpec(
            weights=WeightFunction.linear(g=1, M=3),
            increments=IncrementDistribution(min_arcs=1, probs=(0.0, 0.5, 0.5)))
        with pytest.raises(NoConvergence):
            solve_vdd(model)

    @given(case=vdd_cases())
    @settings(max_examples=80, deadline=None)
    def test_distribution_matches_scalar_recurrence(self, case):
        model, phi, k_max = case
        assert model.violations() == []
        engine = _VddEngine(model, k_max)
        got = engine.distribution(phi)
        ref = vdd_reference(model, phi, engine.k_top)
        assert len(got) == len(ref) and not np.isnan(got).any()
        big = ref >= 1e-290
        assert np.all(np.abs(got[big] - ref[big]) <= 1e-12 * ref[big])
        # Past the cap and the increment support nothing arrives at degree
        # k: Q_k is an exact zero.
        M = model.weights.M
        if M is not None:
            top = max(M + 1, model.increments.max_arcs)
            assert np.all(got[top + 1 - model.g:] == 0.0)

    def test_g_zero_support(self):
        model = NpaModelSpec(
            weights=WeightFunction.constant(1.0, g=0),
            increments=IncrementDistribution(min_arcs=0, probs=(0.3, 0.7)))
        sol = solve_vdd(model)
        assert sol.q.min_degree == 0
        assert sol.q.prob(0) > 0.0
        assert sol.control_residual < 1e-6


# ---------------------------------------------------------------------------
# Tail beyond the computed range
# ---------------------------------------------------------------------------

def direct_tail_mass(f, phi, m, q_top, k_top):
    """sum_{k > k_top} Q_k of the pure-ratio recurrence, summed term by term
    in doubling chunks until a chunk adds less than 1e-17 of the total."""
    total, q, k, chunk = 0.0, q_top, k_top, 1 << 12
    while True:
        ks = np.arange(k + 1, k + 1 + chunk, dtype=np.float64)
        qs = q * np.cumprod(m * f(ks - 1.0) / (phi + m * f(ks)))
        part = float(qs.sum())
        total += part
        q, k, chunk = float(qs[-1]), k + chunk, min(2 * chunk, 1 << 22)
        if q == 0.0 or part < 1e-17 * total:
            return total


def three_arc_power(alpha, g=1):
    return NpaModelSpec(
        weights=WeightFunction.power(alpha, g=g),
        increments=IncrementDistribution(min_arcs=g, probs=(0.5, 0.3, 0.2)))


class TestTailSums:
    @pytest.mark.parametrize("alpha", [0.99, 0.999, 0.9999])
    @pytest.mark.parametrize("g", [1, 2])
    @pytest.mark.parametrize("k_max", [100, 4000, 10000])
    def test_near_linear_power_control(self, alpha, g, k_max):
        # The tail degree mass follows from the tail weight sum by the
        # summation identity, so the control identity holds to the bisection
        # tolerance whatever the accuracy of that numeric sum.
        sol = solve_vdd(three_arc_power(alpha, g), k_max=k_max)
        assert sol.control_residual < 1e-9

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 0.9])
    @pytest.mark.parametrize("k_max", [100, 4000, 10000])
    def test_power_tail_mass_matches_direct_sum(self, alpha, k_max):
        # k_max is the last computed degree here, so tail_mass is the sum
        # over k > k_max alone.
        model = three_arc_power(alpha)
        sol = solve_vdd(model, k_max=k_max)
        q_top = sol.q.probs[-1]
        assert q_top > 0.0
        expected = direct_tail_mass(lambda k: k ** alpha, sol.mean_weight,
                                    model.increments.mean, q_top, k_max)
        assert sol.tail_mass == pytest.approx(expected, rel=1e-11, abs=0.0)

    def test_power_tail_chunks_made_once_per_engine(self):
        # The tail chunks' degrees and weights depend on neither phi nor
        # Q_K, so every evaluation after the first reuses the same arrays.
        engine = _VddEngine(three_arc_power(0.5), 100)
        first = engine.weighted_sum(3.0)
        chunks = list(engine.tail_chunks)
        assert chunks
        for phi in (2.5, 4.0, 3.0):
            engine.weighted_sum(phi)
        assert all(a is b for a, b in zip(chunks, engine.tail_chunks))
        assert engine.weighted_sum(3.0) == first
        assert _VddEngine(three_arc_power(0.5), 100).weighted_sum(3.0) == first

    @pytest.mark.parametrize("v", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("k_max", [10, 100])
    def test_constant_tail_sums_match_direct_sum(self, v, k_max):
        model = NpaModelSpec(
            weights=WeightFunction.constant(v, g=1),
            increments=IncrementDistribution(min_arcs=1, probs=(0.5, 0.3, 0.2)))
        sol = solve_vdd(model, k_max=k_max)
        phi, m, q_top = sol.mean_weight, model.increments.mean, sol.q.probs[-1]
        expected = direct_tail_mass(lambda k: np.full_like(k, v), phi, m,
                                    q_top, k_max)
        assert sol.tail_mass == pytest.approx(expected, rel=1e-11, abs=0.0)
        ks = np.arange(k_max + 1, k_max + 4001, dtype=np.float64)
        qs = q_top * (m * v / (phi + m * v)) ** (ks - k_max)
        assert sol.tail_degree_mass == pytest.approx(float((ks * qs).sum()),
                                                     rel=1e-11)

    def test_upper_gamma_continued_fraction(self):
        from scipy.special import gammaincc, gammaln
        from npagraph.solver import _ln_upper_gamma_cf
        compared = 0
        for s in (1.5, 2.0, 5.0, 10.0, 100.0, 1000.0):
            for x in (s + 2.0, s + 10.0, 2.0 * s + 2.0, 5.0 * s + 10.0):
                reg = float(gammaincc(s, x))
                if reg == 0.0:
                    continue
                ref = math.log(reg) + float(gammaln(s)) - s * math.log(x) + x
                assert _ln_upper_gamma_cf(s, x) == pytest.approx(ref, rel=1e-12)
                compared += 1
        assert compared >= 20
        with pytest.raises(NoConvergence):
            _ln_upper_gamma_cf(10.0, 11.0)

    def test_power_0_9999_solves_through_continued_fraction(self, monkeypatch):
        import npagraph.solver as solver
        calls = []
        original = solver._ln_upper_gamma_cf

        def counted(s, x):
            calls.append(s)
            return original(s, x)

        monkeypatch.setattr(solver, "_ln_upper_gamma_cf", counted)
        sol = solve_vdd(three_arc_power(0.9999), k_max=4000)
        assert calls
        assert sol.control_residual < 1e-9
        assert 0.0 < sol.q.truncation_mass < 1e-6
        # The mean weight sits just below the linear value 2 m.
        assert 3.39 < sol.mean_weight < 2.0 * 1.7

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.9, 10.0, 1e2, 1e3, 1e4, 1e6, 1e8])
    def test_upper_gamma_matches_scipy(self, s):
        # x / s from 0.2 to 14, and a few sqrt(s) either side of
        # x = s + 2 + sqrt(s), where the series of the lower function hands
        # over to the continued fraction. The log is compared relative to
        # its size, or to 1 where it nears 0.
        from scipy.special import gammaincc, gammaln
        from npagraph.solver import _ln_upper_gamma
        crossover = s + 2.0 + math.sqrt(s)
        near = crossover + math.sqrt(s) * np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
        compared = below = 0
        for x in np.concatenate([s * np.linspace(0.2, 14.0, 70), near]):
            reg = float(gammaincc(s, x))
            if reg == 0.0:
                continue
            ref = float(gammaln(s)) + math.log(reg)
            assert abs(_ln_upper_gamma(s, x) - ref) <= 1e-12 * max(1.0, abs(ref))
            compared += 1
            below += x < crossover
        assert below >= 1 and compared - below >= 1

    def test_power_0_999_takes_both_gamma_routes(self, monkeypatch):
        import npagraph.solver as solver
        calls, fraction = [], []
        gamma, cf = solver._ln_upper_gamma, solver._ln_upper_gamma_cf

        def counted_gamma(s, x):
            calls.append(s)
            return gamma(s, x)

        def counted_cf(s, x):
            fraction.append(s)
            return cf(s, x)

        monkeypatch.setattr(solver, "_ln_upper_gamma", counted_gamma)
        monkeypatch.setattr(solver, "_ln_upper_gamma_cf", counted_cf)
        model = NpaModelSpec(
            weights=WeightFunction.power(0.999, g=1),
            increments=IncrementDistribution(min_arcs=1, probs=(0.6, 0.4)))
        sol = solve_vdd(model, k_max=4000)
        # Each gamma value not taken by the continued fraction summed the
        # series of the lower function.
        assert fraction and len(calls) > len(fraction)
        assert sol.control_residual < 1e-9


# ---------------------------------------------------------------------------
# Arc matrix
# ---------------------------------------------------------------------------

def arc_reference(model, vdd, u, variant):
    """The arc recurrence cell by cell, and each cell's source term.

    X[l, k] = (f_{k-1} l r_l Q_{k-1} + m^2 f_{l-1} X[l-1, k]
               + m^2 f_{k-1} X[l, k-1]) / den[l, k],
    den = m (A_l + m f_k + m f_l) with A_l = l f_l (printed) or phi
    (mean-weight); a cell whose den is not positive is 0, and terms at
    degree g - 1 are 0.
    """
    g = model.g
    m = model.increments.mean
    phi = vdd.mean_weight
    f = [model.weights.weight(k) for k in range(u + 2)]
    x = np.zeros((u - g + 1, u - g + 1))
    src = np.zeros_like(x)
    for l in range(g, u + 1):
        for k in range(g, u + 1):
            a = phi if variant == "mean-weight" else l * f[l]
            den = m * (a + m * f[k] + m * f[l])
            if den <= 0.0:
                continue
            f_k1 = f[k - 1] if k > g else 0.0
            f_l1 = f[l - 1] if l > g else 0.0
            up = x[l - g - 1, k - g] if l > g else 0.0
            left = x[l - g, k - g - 1] if k > g else 0.0
            s = f_k1 * l * model.increments.prob(l) * vdd.q.prob(k - 1) / den
            src[l - g, k - g] = s
            x[l - g, k - g] = s + m * m * (f_l1 * up + f_k1 * left) / den
    return x, src


@st.composite
def arc_cases(draw):
    g = draw(st.integers(0, 2))
    rule = draw(st.sampled_from(["linear", "power", "constant"]))
    # A cap below 2 g + 5 leaves some increments no stationary regime; a
    # cap below u makes the printed denominator vanish beyond it.
    M = draw(st.one_of(st.none(), st.integers(2 * g + 5, 30)))
    u = draw(st.integers(max(g, 1) if M is None else M + 1, 40))
    if rule == "linear":
        weights = WeightFunction.linear(g=g, M=M)
    elif rule == "power":
        weights = WeightFunction.power(draw(st.sampled_from([0.5, 0.8, 1.0])),
                                       g=g, M=M)
    else:
        weights = WeightFunction.constant(draw(st.sampled_from([0.5, 2.0])),
                                          g=g, M=M)
    if g == 0 and rule != "constant":
        # f_0 = 0 under the linear and power rules; a table entry makes
        # degree 0 a valid attachment target.
        weights = WeightFunction.from_table(0, [0.5], M=M, rule=rule,
                                            alpha=weights.alpha)
    # At g = 0 a lone r_0 would mean no arcs at all (m = 0).
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=1 + (g == 0),
                        max_size=3))
    probs = tuple(p / sum(raw) for p in raw)
    model = NpaModelSpec(weights=weights,
                         increments=IncrementDistribution(min_arcs=g, probs=probs))
    variant = draw(st.sampled_from(["printed", "mean-weight"]))
    return model, u, variant


class TestArcKernel:
    @given(case=arc_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_recurrence(self, case):
        model, u, variant = case
        assert model.violations() == []
        # The mass check is tested on its own; at small u it would reject
        # cases whose values are still worth comparing.
        vdd = solve_vdd(model, k_max=max(u, 400))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "EDD_MASS_TOLERANCE", 1.0)
            got = solve_arc_dd(model, vdd, u, variant).entries
        ref, src = arc_reference(model, vdd, u, variant)
        big = ref >= 1e-12
        assert np.all(np.abs(got[big] - ref[big]) <= 1e-12 * ref[big])
        assert np.all(got[ref == 0.0] == 0.0)
        # up and left terms are never negative; the source term is the
        # test's own, so allow its last-digit rounding.
        assert np.all(got >= src * (1.0 - 1e-15))

    def test_capped_printed_denominator_vanishes(self):
        # Beyond M both weights vanish, so the printed den is 0 there.
        model = NpaModelSpec(weights=WeightFunction.linear(g=1, M=6),
                             increments=IncrementDistribution(1, (0.5, 0.5)))
        vdd = solve_vdd(model, k_max=400)
        got = solve_arc_dd(model, vdd, 12).entries
        ref, _ = arc_reference(model, vdd, 12, "printed")
        assert np.all(got[6:, 6:] == 0.0)
        assert np.all(np.abs(got - ref) <= 1e-12 * ref)

    def test_ba_printed_u300_no_cell_flushed_to_zero(self, ba_solution):
        # A cumulative-product scan underflowed and zeroed about 20k of the
        # far cells (all below 1e-47) that the recurrence keeps positive.
        # Rows beyond l = 173 fall below the smallest normal double, where
        # values keep only a few bits, so the comparison stops there.
        model = BaTreeSpec().to_npa()
        got = solve_arc_dd(model, ba_solution, 300).entries
        ref, _ = arc_reference(model, ba_solution, 300, "printed")
        normal = ref >= np.finfo(np.float64).tiny
        assert np.count_nonzero(normal) > 40000
        assert np.all(got[normal] > 0.0)
        assert np.all(np.abs(got[normal] - ref[normal]) <= 1e-12 * ref[normal])
        assert np.all(got[~normal] < np.finfo(np.float64).tiny)


class TestSolveArcDd:
    def test_deterministic_bit_identical(self, ba_solution):
        model = BaTreeSpec().to_npa()
        a = solve_arc_dd(model, ba_solution, 20)
        b = solve_arc_dd(model, ba_solution, 20)
        assert np.array_equal(a.entries, b.entries)

    def test_entries_nonnegative(self, ba_solution):
        model = BaTreeSpec().to_npa()
        for variant in ("printed", "mean-weight"):
            mat = solve_arc_dd(model, ba_solution, 30, variant)
            assert (mat.entries >= 0.0).all()

    def test_head_degree_one_impossible(self, ba_solution):
        # An arc's head gains the arc itself on top of at least degree g.
        model = BaTreeSpec().to_npa()
        mat = solve_arc_dd(model, ba_solution, 15)
        assert np.all(mat.entries[:, 0] == 0.0)

    def test_printed_head_values(self, ba_solution):
        # Hand-unrolled from the printed recurrence at l = 1:
        # Q_{1,2} = f_1 * 1 * r_1 * Q_1 / (1*f_1 + f_2 + f_1) = (2/3)/4
        model = BaTreeSpec().to_npa()
        mat = solve_arc_dd(model, ba_solution, 10)
        assert mat.entries[0, 1] == pytest.approx((2.0 / 3.0) / 4.0, abs=1e-9)

    def test_mean_weight_variant_head_values(self, ba_solution):
        # Same cell under the mass-conserving denominator: (2/3)/5.
        model = BaTreeSpec().to_npa()
        mat = solve_arc_dd(model, ba_solution, 10, "mean-weight")
        assert mat.entries[0, 1] == pytest.approx((2.0 / 3.0) / 5.0, abs=1e-9)

    def test_row_tails_decay(self, ba_solution):
        model = BaTreeSpec().to_npa()
        mat = solve_arc_dd(model, ba_solution, 40, "mean-weight")
        for row in mat.entries[:5]:
            mode = int(row.argmax())
            tail = row[mode:]
            assert np.all(np.diff(tail) <= 1e-15)

    def test_mass_conservation_mean_weight_variant(self, ba_solution):
        model = BaTreeSpec().to_npa()
        mat = solve_arc_dd(model, ba_solution, 300, "mean-weight")
        # Missing mass is genuine truncation, bounded by the size-biased tail.
        assert 0.0 < mat.truncation_mass < 0.02

    @staticmethod
    def _krapivsky_redner(u):
        """The exact joint law N_kl of the BA tree (Krapivsky & Redner,
        PRE 63, 066123, 2001), k the new vertex's degree and l its
        target's, over k, l = 1 .. u."""
        k = np.arange(1, u + 1, dtype=float)[:, None]
        l = np.arange(1, u + 1, dtype=float)[None, :]
        return (4.0 * (l - 1.0) / (k * (k + 1.0) * (k + l) * (k + l + 1.0)
                                   * (k + l + 2.0))
                + 12.0 * (l - 1.0) / (k * (k + l - 1.0) * (k + l)
                                      * (k + l + 1.0) * (k + l + 2.0)))

    @pytest.mark.parametrize("variant", ["mean-weight", "printed"])
    def test_ba_exact_arc_law(self, variant):
        model = reference_models()["ba"]
        mat = solve_arc_dd(model, solve_vdd(model), 200, variant).entries
        exact = self._krapivsky_redner(200)
        nonzero = exact != 0.0
        assert np.all(mat[~nonzero] == 0.0)
        if variant == "mean-weight":
            np.testing.assert_allclose(mat[nonzero], exact[nonzero],
                                       rtol=1e-13, atol=0.0)
            assert mat.sum() == pytest.approx(exact.sum(), rel=1e-13)
        else:
            # The printed denominator is not the simulated law.
            assert np.abs(mat - exact).max() > 0.01

    def test_printed_variant_mass_excess_reported(self, ba_solution):
        model = BaTreeSpec().to_npa()
        mat = solve_arc_dd(model, ba_solution, 300)
        # The printed denominator does not conserve mass; the surplus shows
        # up as a negative truncation remainder instead of being hidden.
        assert mat.stored_mass() > 1.05
        assert mat.truncation_mass < 0.0

    def test_no_arcs_same_empty_matrix_under_both_variants(self):
        # r_0 = 1 gives mean increment 0: no arcs, so no arc law.
        model = NpaModelSpec(weights=WeightFunction.constant(1.0, g=0),
                             increments=IncrementDistribution(0, (1.0,)))
        vdd = solve_vdd(model, k_max=200)
        for variant in ("printed", "mean-weight"):
            mat = solve_arc_dd(model, vdd, 10, variant)
            assert mat.entries.shape == (11, 11)
            assert np.all(mat.entries == 0.0)
            assert mat.truncation_mass == 1.0

    def test_vdd_needs_no_arc_extent(self):
        sol = solve_vdd(reference_models()["linear"], k_max=100)
        assert sol.q.max_degree == 100
        assert sol.control_residual < 1e-6

    @pytest.mark.parametrize("k_max,fp_tolerance,error", [
        (0, 1e-10, ValidationError),  # no degree stored: a setting against g
        (100, 0.0, ValueError)])
    def test_vdd_settings_out_of_range(self, k_max, fp_tolerance, error):
        with pytest.raises(error):
            solve_vdd(reference_models()["linear"], k_max, fp_tolerance)

    @pytest.mark.parametrize("variant", ["printed", "mean-weight"])
    @pytest.mark.parametrize("u", [0, 101, 300])
    def test_extent_outside_stored_vdd_rejected(self, variant, u):
        # Degrees above 100 are not stored, so the matrix would read their
        # vertex probabilities as zeros; g = 1 bounds it from below.
        model = reference_models()["linear"]
        with pytest.raises(WindowExceedsMatrix, match="last stored vertex"):
            solve_arc_dd(model, solve_vdd(model, k_max=100), u, variant)

    def test_extent_at_stored_vdd_accepted(self):
        model = reference_models()["linear"]
        mat = solve_arc_dd(model, solve_vdd(model, k_max=100), 100)
        assert mat.max_degree == 100

    def test_unknown_variant_rejected(self, ba_solution):
        with pytest.raises(ValueError, match="unknown recurrence variant"):
            solve_arc_dd(BaTreeSpec().to_npa(), ba_solution, 20, "bogus")


class TestSymmetrize:
    def test_requires_arc_kind(self):
        m = EdgeDegreeMatrix(min_degree=1, entries=np.eye(2) / 2.0, kind="edge")
        with pytest.raises(ValueError):
            symmetrize(m)

    def test_symmetric_input_unchanged(self):
        e = np.array([[0.25, 0.25], [0.25, 0.25]])
        out = symmetrize(EdgeDegreeMatrix(min_degree=1, entries=e, kind="arc"))
        assert np.array_equal(out.entries, e)

    def test_half_sum(self):
        e = np.array([[0.0, 0.3], [0.1, 0.6]])
        out = symmetrize(EdgeDegreeMatrix(min_degree=1, entries=e, kind="arc"))
        assert out.entries[0, 1] == pytest.approx(0.2)
        assert out.entries[1, 0] == pytest.approx(0.2)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_mass_preserved_and_exactly_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.random((6, 6))
        raw /= raw.sum()
        arc = EdgeDegreeMatrix(min_degree=1, entries=raw, kind="arc")
        out = symmetrize(arc)
        assert out.is_symmetric()
        assert abs(out.stored_mass() - arc.stored_mass()) < 1e-15
        assert out.kind == "edge"


# ---------------------------------------------------------------------------
# Mixtures
# ---------------------------------------------------------------------------

def _rand_dist(rng, n=8, min_degree=1):
    p = rng.random(n)
    p /= p.sum()
    return DegreeDistribution(min_degree=min_degree, probs=p)


class TestMixVdd:
    def test_degenerate_keeps_first(self):
        rng = np.random.default_rng(0)
        a, b = _rand_dist(rng), _rand_dist(rng)
        out = mix_vdd([(a, 1.0), (b, 0.0)])
        assert np.array_equal(out.probs, a.probs)

    def test_idempotent_same_distribution(self):
        a = _rand_dist(np.random.default_rng(1))
        out = mix_vdd([(a, 0.4), (a, 0.6)])
        assert np.allclose(out.probs, a.probs, atol=1e-15)

    def test_pointwise_formula(self):
        rng = np.random.default_rng(2)
        a, b = _rand_dist(rng), _rand_dist(rng)
        rho = 0.225
        out = mix_vdd([(a, rho), (b, 1 - rho)])
        expected = rho * a.probs + (1 - rho) * b.probs
        assert np.allclose(out.probs, expected, atol=1e-16)

    def test_not_convex(self):
        a = _rand_dist(np.random.default_rng(3))
        with pytest.raises(WeightsNotConvex):
            mix_vdd([(a, 0.7), (a, 0.7)])


class TestComplementVdd:
    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_inverse(self, seed, rho):
        rng = np.random.default_rng(seed)
        q1, q2 = _rand_dist(rng), _rand_dist(rng)
        mixed = mix_vdd([(q1, rho), (q2, 1.0 - rho)])
        back = complement_vdd(mixed, q1, rho)
        assert np.abs(back.probs - q2.probs).max() < 1e-12

    def test_rho_to_zero_limit(self):
        rng = np.random.default_rng(5)
        q_total, q1 = _rand_dist(rng), _rand_dist(rng)
        out = complement_vdd(q_total, q1, 1e-9)
        assert np.abs(out.probs - q_total.probs).max() < 1e-8

    def test_negative_entries_kept(self):
        # Above the first component's share of degree 1 the complement goes
        # negative there; it is kept as it is, still of total mass 1, and
        # mixing it back gives the target exactly.
        q_total = DegreeDistribution(1, np.array([0.5, 0.4]), truncation_mass=0.1)
        q1 = DegreeDistribution(1, np.array([1.0, 0.0]))
        out = complement_vdd(q_total, q1, 0.9)
        assert out.prob(1) == pytest.approx(-4.0, abs=1e-12)
        assert out.stored_mass() + out.truncation_mass == pytest.approx(1.0,
                                                                        abs=1e-12)
        back = mix_vdd([(q1, 0.9), (out, 0.1)])
        assert np.allclose(back.probs, q_total.probs, rtol=0.0, atol=1e-12)
        assert back.truncation_mass == pytest.approx(0.1, abs=1e-12)

    def test_rho_bounds(self):
        q = DegreeDistribution(1, np.array([1.0]))
        with pytest.raises(ValueError):
            complement_vdd(q, q, 0.0)
        with pytest.raises(ValueError):
            complement_vdd(q, q, 1.0)


class TestComplementMean:
    def test_fixed_point(self):
        for rho in (0.1, 0.5, 0.9):
            assert complement_mean(2.5, 2.5, rho) == pytest.approx(2.5)

    def test_published_value(self):
        out = complement_mean(3.6765, 1.0, 0.225)
        assert out == pytest.approx(4.453548387096774, abs=1e-12)

    def test_simple_arithmetic(self):
        assert complement_mean(2.0, 3.0, 0.5) == pytest.approx(1.0)

    def test_non_positive(self):
        with pytest.raises(InfeasibleComplement):
            complement_mean(1.0, 3.0, 0.5)


class TestMixEdd:
    def _edge(self, entries):
        return EdgeDegreeMatrix(min_degree=1, entries=np.asarray(entries),
                                kind="edge")

    def test_single_component_identity(self):
        m = self._edge(np.full((3, 3), 1.0 / 9.0))
        out = mix_edd([(m, 2.0, 1.0)])
        assert np.allclose(out.entries, m.entries, atol=1e-16)

    def test_tree_share_published(self):
        assert edge_share(1.0, 0.225, 3.6765) == pytest.approx(
            0.061199510403917, abs=1e-12)

    def test_mixture_symmetric(self):
        rng = np.random.default_rng(7)
        raw = rng.random((4, 4))
        sym1 = (raw + raw.T) / raw.sum() / 2.0
        raw2 = rng.random((4, 4))
        sym2 = (raw2 + raw2.T) / raw2.sum() / 2.0
        a, b = self._edge(sym1), self._edge(sym2)
        out = mix_edd([(a, 1.0, 0.3), (b, 2.0, 0.7)])
        assert np.allclose(out.entries, out.entries.T, atol=0)

    def test_requires_edge_kind(self):
        arc = EdgeDegreeMatrix(min_degree=1, entries=np.full((2, 2), 0.25),
                               kind="arc")
        with pytest.raises(ValueError):
            mix_edd([(arc, 1.0, 1.0)])


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

class TestCsv:
    def test_vdd_round_trip(self):
        sol = solve_vdd(BaTreeSpec().to_npa(), k_max=50)
        back = vdd_from_csv(vdd_to_csv(sol.q))
        assert np.array_equal(back.probs, sol.q.probs)
        assert back.min_degree == sol.q.min_degree

    def test_edd_round_trip(self):
        rng = np.random.default_rng(11)
        raw = rng.random((5, 5))
        raw /= raw.sum()
        m = EdgeDegreeMatrix(min_degree=1, entries=raw, kind="arc")
        back = edd_from_csv(edd_to_csv(m))
        assert np.array_equal(back.entries, m.entries)

    @pytest.mark.parametrize("text,line_no", [
        ("degree,probability\n1,0.5\n2\n", 3),
        ("degree,probability\n1,0.5\ntwo,0.5\n", 3),
        ("1,0.5\n2,x\n", 2),
        ("degree,count,probability\n1,3,0.5\n2,1,0.2,0.3\n", 3),
        ("degree,probability\n-2,0.5\n1,0.5\n", 2),
    ])
    def test_vdd_malformed_row(self, text, line_no):
        with pytest.raises(MalformedLine) as err:
            vdd_from_csv(text)
        assert err.value.line_no == line_no
        assert err.value.content == text.splitlines()[line_no - 1]

    @pytest.mark.parametrize("text,line_no", [
        ("l,k,probability\n1,2\n", 2),
        ("l,k,probability\n1,1,0.5\n1,2,0.1,0.4\n", 3),
        ("l,k,probability\n1,1,0.5\n\n1,b,0.5\n", 4),
        ("l,k,probability\n-1,1,0.5\n1,1,0.5\n", 2),
    ])
    def test_edd_malformed_row(self, text, line_no):
        with pytest.raises(MalformedLine) as err:
            edd_from_csv(text)
        assert err.value.line_no == line_no

    def test_header_only_is_empty(self):
        with pytest.raises(EmptyInput):
            vdd_from_csv("degree,probability\n")
        with pytest.raises(EmptyInput):
            vdd_from_csv("")
        with pytest.raises(EmptyInput):
            edd_from_csv("l,k,probability\n")

    @pytest.mark.parametrize("read,text", [
        (vdd_from_csv, f"degree,probability\n1,0.5\n{2**62},0.5\n"),
        (vdd_from_csv, f"degree,probability\n1,0.5\n{2**63 - 1},0.5\n"),
        (edd_from_csv, f"l,k,probability\n1,1,0.5\n{10**12},1,0.5\n"),
    ])
    def test_span_beyond_numpy_is_input_too_large(self, read, text):
        # numpy refuses these shapes with a ValueError before it allocates
        # anything; 0.24.0 let that escape.
        with pytest.raises(InputTooLarge, match="does not fit in memory"):
            read(text)


def vdd_csv_060(q: DegreeDistribution) -> str:
    """The 0.6.0 writer, one f-string per row: the byte reference."""
    lines = ["degree,probability"]
    lines.extend(f"{q.min_degree + i},{float(p)!r}" for i, p in enumerate(q.probs))
    return "\n".join(lines) + "\n"


def edd_csv_060(mx: EdgeDegreeMatrix) -> str:
    n = mx.entries.shape[0]
    lines = ["l,k,probability"]
    lines.extend(f"{mx.min_degree + i},{mx.min_degree + j},{float(mx.entries[i, j])!r}"
                 for i in range(n) for j in range(n))
    return "\n".join(lines) + "\n"


cells = st.one_of(st.just(0.0), st.just(-0.0),
                  st.floats(5e-324, 2.2250738585072014e-308),  # subnormal
                  st.floats(1e-300, 1.0))


class TestCsvRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(lo=st.integers(0, 3),
           probs=arrays(np.float64, st.integers(0, 40), elements=cells))
    def test_vdd(self, lo, probs):
        probs = probs / max(len(probs), 1)  # a VDD file holds at most unit mass
        q = DegreeDistribution(min_degree=lo, probs=probs)
        text = vdd_to_csv(q)
        assert text == vdd_csv_060(q)
        if not len(probs):
            with pytest.raises(EmptyInput):
                vdd_from_csv(text)
            return
        back = vdd_from_csv(text)
        assert back.min_degree == lo
        assert back.probs.tobytes() == probs.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(lo=st.integers(0, 3), n=st.integers(0, 40), data=st.data())
    def test_edd(self, lo, n, data):
        entries = data.draw(arrays(np.float64, (n, n), elements=cells))
        mx = EdgeDegreeMatrix(min_degree=lo, entries=entries, kind="arc")
        text = edd_to_csv(mx)
        assert text == edd_csv_060(mx)
        if not n:
            with pytest.raises(EmptyInput):
                edd_from_csv(text)
            return
        back = edd_from_csv(text)
        assert back.min_degree == lo
        assert back.entries.tobytes() == entries.tobytes()


def matrix_csv_080(header: str, lo: int, *matrices: np.ndarray) -> str:
    """The cell format of 0.8.0, one f-string per line: the byte reference."""
    n = len(matrices[0])
    lines = [header]
    lines.extend(f"{lo + i},{lo + j}," + ",".join(f"{float(mx[i, j])!r}"
                                                  for mx in matrices)
                 for i in range(n) for j in range(n))
    return "\n".join(lines) + "\n"


# Signed zeros, NaNs of either sign and other payloads, infinities,
# subnormals and ordinary floats.
any_cell = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     -2.2250738585072009e-308, 1 / 3]),
    st.integers(0, 2**52 - 1).map(
        lambda p: np.array([0x7FF0000000000001 | p, -1 - p]).view(np.float64)[
            p % 2].item()),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


class TestMatrixCsv:
    """_matrix_csv formats each distinct value once; its bytes must still be
    one repr() per cell."""

    @settings(max_examples=150, deadline=None)
    @given(lo=st.sampled_from([0, 1, 4]), n=st.integers(0, 12),
           count=st.integers(1, 3), view=st.booleans(), data=st.data())
    def test_against_reference(self, lo, n, count, view, data):
        # A few values drawn once and repeated over the cells, as in a
        # measured EDD, or each cell drawn on its own.
        pool = data.draw(st.lists(any_cell, min_size=1, max_size=5))
        picks = st.sampled_from(pool) if data.draw(st.booleans()) else any_cell
        matrices = [data.draw(arrays(np.float64, (n + view, n + view),
                                     elements=picks))[view:, view:]
                    for _ in range(count)]
        header = ",".join(["l", "k"] + [f"v{j}" for j in range(count)])
        assert (_matrix_csv(header, lo, *matrices)
                == matrix_csv_080(header, lo, *matrices))

    def test_signed_zero_and_nan(self):
        mx = np.array([[0.0, -0.0], [math.nan, -math.inf]])
        assert _matrix_csv("l,k,p", 1, mx, mx[::-1]) == (
            "l,k,p\n1,1,0.0,nan\n1,2,-0.0,-inf\n"
            "2,1,nan,0.0\n2,2,-inf,-0.0\n")


class TestCsvSyntax:
    """Rows are read by np.loadtxt: fields may be padded with whitespace and
    signed with +, but must be ASCII numbers without '_' separators."""

    @pytest.mark.parametrize("text", [
        "l,k,probability\n 1 , 2 ,0.25 \n2,\t1,\xa00.75\n",
        "l,k,probability\n+1,+2,+0.25\n+2,1,0.75\n",
        "l,k,probability\r\n1,2,0.25\r\n2,1,0.75\r\n",
        "\nl,k,probability\n\n1,2,0.25\n\n2,1,0.75\n\n",
        "l,k,probability\n1,2,0.25\nl,k,probability\n2,1,0.75\n",
        "1,2,2.5e-1\n2,1,.75\n",
    ])
    def test_edd_accepted(self, text):
        mx = edd_from_csv(text)
        assert mx.min_degree == 1
        assert mx.entries.tolist() == [[0.0, 0.25], [0.75, 0.0]]

    @pytest.mark.parametrize("text", [
        "degree,probability\n 1 , 0.25 \n+2,+0.75\n",
        "degree,probability\r\n1,0.25\r\n\r\n2,0.75\r\n",
        "degree,count,probability\n1,1,0.25\ndegree,count,probability\n2,3,0.75\n",
    ])
    def test_vdd_accepted(self, text):
        q = vdd_from_csv(text)
        assert q.min_degree == 1
        assert q.probs.tolist() == [0.25, 0.75]

    @pytest.mark.parametrize("text,line_no", [
        ("l,k,probability\n1,1,0.5\n1_0,1,0.5\n", 3),
        ("l,k,probability\n1,1,1_0\n", 2),
        ("l,k,probability\n1,1,0.5\n\u0661,1,0.5\n", 3),
        ("l,k,probability\n1,1,0.\u0665\n", 2),
        ("l,k,probability\n1,1,0.5\n99999999999999999999,1,0.5\n", 3),
        ("l,k,probability\n1,1,0.5\n \n", 3),
    ])
    def test_edd_rejected(self, text, line_no):
        with pytest.raises(MalformedLine) as err:
            edd_from_csv(text)
        assert err.value.line_no == line_no
        assert err.value.content == text.splitlines()[line_no - 1]

    @pytest.mark.parametrize("text,line_no", [
        ("degree,probability\n1_0,0.5\n", 2),
        ("degree,probability\n1,0.5\n\u0662,0.5\n", 3),
        ("degree,probability\n1,0.5\n2,3,0.5\n", 3),
        ("degree,count,probability\n1,x,0.5\n", 2),
        ("degree,count,probability\n1,-3,0.5\n", 2),
    ])
    def test_vdd_rejected(self, text, line_no):
        with pytest.raises(MalformedLine) as err:
            vdd_from_csv(text)
        assert err.value.line_no == line_no
        assert err.value.content == text.splitlines()[line_no - 1]

    @pytest.mark.parametrize("value", ["-0.5", "nan", "-nan", "NaN", "inf",
                                       "-inf", "Infinity", "1e309", "-1e-300"])
    def test_bad_probability_rejected(self, value):
        with pytest.raises(MalformedLine) as err:
            vdd_from_csv(f"degree,probability\n1,0.5\n2,{value}\n")
        assert (err.value.line_no, err.value.content) == (3, f"2,{value}")
        with pytest.raises(MalformedLine) as err:
            edd_from_csv(f"l,k,probability\n1,1,{value}\n1,2,0.5\n")
        assert (err.value.line_no, err.value.content) == (2, f"1,1,{value}")

    def test_negative_and_too_large_probabilities(self):
        with pytest.raises(MalformedLine) as err:
            vdd_from_csv("degree,probability\n1,-0.5\n2,1.5\n")
        assert err.value.line_no == 2

    @pytest.mark.parametrize("value", ["0", "-0.0", "-0", "0.0", "1.5", "5e-324"])
    def test_good_probability_accepted(self, value):
        # The edge-matrix reader, since a VDD of mass 1.5 is rejected whole.
        mx = edd_from_csv(f"l,k,probability\n1,1,{value}\n")
        assert mx.entries.tobytes() == np.array([[float(value)]]).tobytes()

    @pytest.mark.parametrize("extra", ["1.5e-9", "0.5"])
    def test_vdd_above_unit_mass_rejected(self, extra):
        # solve_vdd's own bound: stored mass at most 1 + 1e-9.
        assert vdd_from_csv("degree,probability\n1,0.5\n2,0.5\n3,5e-10\n"
                            ).truncation_mass == 0.0
        with pytest.raises(ValidationError, match="stored mass .* exceeds 1"):
            vdd_from_csv(f"degree,probability\n1,0.5\n2,0.5\n3,{extra}\n")
        # An edge matrix may hold more: solve's printed variant writes one.
        assert edd_from_csv(f"l,k,probability\n1,1,0.5\n1,2,0.5\n"
                            f"2,1,{extra}\n").truncation_mass < 0.0

    @staticmethod
    def _check_bad_row_named(line, good_rows):
        """Whatever np.loadtxt rejects after the good rows, the reader names
        the row; a good row for a cell they hold is a repeated row."""
        cells = "".join(f"{i},1,0.5\n" for i in range(1, good_rows + 1))
        text = f"l,k,probability\n{cells}{line}\n"
        try:
            edd_from_csv(text)
        except MalformedLine as err:
            assert err.line_no == good_rows + 2
            assert err.content == line
        except ValidationError as err:
            assert err.codes() == ["DuplicateRow"]

    _any_row = st.text(alphabet="0123456789+-.eE_, \t\xa0\u0661infatyNA",
                       min_size=1, max_size=14)

    @settings(max_examples=300, deadline=None)
    @given(_any_row)
    def test_bad_row_is_named(self, line):
        """Whatever np.loadtxt rejects, the line scan names the row."""
        self._check_bad_row_named(line, 1)

    @settings(max_examples=300, deadline=None)
    @given(_any_row)
    def test_bad_row_is_named_in_small_blocks(self, line):
        """As above with blocks of 4 lines, the row in the second block."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_READ_BLOCK", 4)
            self._check_bad_row_named(line, 5)

    @pytest.mark.parametrize("sep", ["\x0c", "\u2028", "\x1c", "\x85"])
    @pytest.mark.parametrize("repeat", [False, True], ids=["once", "repeated"])
    def test_only_newline_and_return_end_a_line(self, sep, repeat):
        """A separator str.splitlines breaks at, such as a form feed or
        U+2028, leaves a row whole and bad, on the one-buffer read and after
        a repeated header."""
        head = "degree,probability\n" * (1 + repeat)
        with pytest.raises(MalformedLine) as err:
            vdd_from_csv(f"{head}1,0.5{sep}2,0.5\n")
        assert (err.value.line_no, err.value.content) == (
            2 + repeat, f"1,0.5{sep}2,0.5")
        head = "l,k,probability\n" * (1 + repeat)
        with pytest.raises(MalformedLine) as err:
            edd_from_csv(f"{head}1,1,0.5\n1,2,0.25{sep}2,1,0.25\n")
        assert (err.value.line_no, err.value.content) == (
            3 + repeat, f"1,2,0.25{sep}2,1,0.25")


class TestCsvReaderRoutes:
    """_read_csv reads the text in one buffer when at most a leading header
    holds the `skip` prefix, and a block of lines at a time otherwise; both
    give the rows np.loadtxt reads from the lines without the headers."""

    @staticmethod
    def _line_route(text, skip):
        lines = [ln for ln in text.splitlines() if not ln.startswith(skip)]
        width = next(filter(None, lines)).count(",") + 1
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=1,
                          dtype=",".join(["i8"] * (width - 1) + ["f8"]))

    @pytest.mark.parametrize("text, one_buffer", [
        ("1,0.25\n2,0.75\n", True),
        ("degree,probability\n1,0.25\n2,0.75", True),
        ("degree,count,probability\n1,4,0.25\n2,5,0.75\n", True),
        ("degree,probability\n\n1,0.25\n\n\n2,0.75\n\n", True),
        ("degree,probability\r\n1,0.25\r\n\r\n2,0.75\r\n", True),
        ("degree,probability\r1,0.25\r2,0.75\r", True),
        ("degree,probability\n1,0.25\ndegree,probability\n2,0.75\n", False),
        ("1,0.25\ndegree,probability\n2,0.75\n", False),
        ("\ndegree,probability\n1,0.25\n2,0.75\n", False),
    ])
    def test_vdd_routes_agree(self, monkeypatch, text, one_buffer):
        rows = _read_csv(text, "degree,probability", "degree", (2, 3))
        expected = self._line_route(text, "degree")
        assert rows.dtype == expected.dtype
        assert np.array_equal(rows, expected)

        def refuse(lines, read):
            raise AssertionError("block route taken")
        monkeypatch.setattr(solver, "_read_blocks", refuse)
        if one_buffer:
            buffered = _read_csv(text, "degree,probability", "degree", (2, 3))
            assert buffered.dtype == rows.dtype
            assert np.array_equal(buffered, rows)
        else:
            with pytest.raises(AssertionError, match="block route taken"):
                _read_csv(text, "degree,probability", "degree", (2, 3))

    @pytest.mark.parametrize("text", [
        "l,k,probability\n1,1,0.5\n1,2,0.25\n2,1,0.25\n",
        "1,1,0.5\n\n1,2,0.25\n2,1,0.25",
        "l,k,probability\nl,k,probability\n1,1,0.5\n",
        "l,k,probability\n1,1,0.5\nl,k,probability\n\n2,2,0.5\n",
    ])
    def test_edd_routes_agree(self, text):
        rows = _read_csv(text, "l,k,probability", "l,", (3,))
        assert np.array_equal(rows, self._line_route(text, "l,"))


class TestReadBlocks:
    """The CSV readers with blocks of 4 lines: a bad line is named wherever
    it falls, and a block without rows adds none."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(solver, "_READ_BLOCK", 4)

    @staticmethod
    def _rows(degrees):
        return "".join(f"{d},0.0625\n" for d in degrees)

    @pytest.mark.parametrize("line_no", [5, 6, 8, 9, 11])
    def test_bad_line_in_later_block(self, line_no):
        lines = ("degree,probability\n" + self._rows(range(1, 11))).splitlines()
        lines[line_no - 1] = "3,x"
        with pytest.raises(MalformedLine) as err:
            vdd_from_csv("\n".join(lines) + "\n")
        assert (err.value.line_no, err.value.content) == (line_no, "3,x")

    # Two bad lines in different blocks, then in one block.
    @pytest.mark.parametrize("first, second", [(3, 6), (4, 5), (7, 10),
                                               (2, 4), (5, 6), (9, 12)])
    def test_first_of_two_bad_lines_named(self, first, second):
        lines = ("l,k,probability\n" + "".join(
            f"{i},1,0.0625\n" for i in range(1, 12))).splitlines()
        lines[first - 1], lines[second - 1] = "1,1", "-2,1,0.0625"
        with pytest.raises(MalformedLine) as err:
            edd_from_csv("\n".join(lines) + "\n")
        assert (err.value.line_no, err.value.content) == (first, "1,1")

    @pytest.mark.parametrize("filler", [
        "\n" * 4, "degree,probability\n" * 4, "\n\ndegree,probability\n\n",
        "degree,probability\n" * 3 + "\n" * 6])
    def test_block_without_rows(self, filler):
        # The last header fails the one-buffer read.
        text = "degree,probability\n" + self._rows([1, 2]) + filler \
            + self._rows([3]) + filler + filler + self._rows([4, 5]) \
            + "degree,probability\n" + self._rows([6])
        q = vdd_from_csv(text)
        assert q.min_degree == 1 and q.probs.tolist() == [0.0625] * 6

    @pytest.mark.parametrize("at", [3, 4, 5, 8, 9])
    def test_repeated_header_on_block_boundary(self, at):
        lines = ("l,k,probability\n" + "".join(
            f"{i},2,0.0625\n" for i in range(1, 11))).splitlines()
        lines.insert(at - 1, "l,k,probability")
        rows = _read_csv("\n".join(lines), "l,k,probability", "l,", (3,))
        assert rows["f0"].tolist() == list(range(1, 11))
        lines[-1] = "10,2"
        with pytest.raises(MalformedLine) as err:
            edd_from_csv("\n".join(lines))
        assert (err.value.line_no, err.value.content) == (len(lines), "10,2")

    @pytest.mark.parametrize("count", [3, 4, 8])
    def test_whole_blocks(self, count):
        # A text of whole blocks ends with an empty one.
        text = "degree,probability\n" * 2 + self._rows(range(1, count - 1))
        assert len(text.splitlines()) == count
        assert vdd_from_csv(text).probs.tolist() == [0.0625] * (count - 2)

    def test_only_headers_and_blanks_is_empty(self):
        with pytest.raises(EmptyInput):
            vdd_from_csv("degree,probability\n\n" * 5)


class TestRepeatedRows:
    """A degree or cell given in two rows is an error; 0.25.0 kept the last
    row and lost the first one's mass."""

    @pytest.mark.parametrize("text, message", [
        ("degree,probability\n1,0.5\n1,0.25\n2,0.25\n", "degree 1 "),
        ("degree,count,probability\n3,1,0.5\n1,1,0.25\n3,1,0.25\n",
         "degree 3 "),
        ("degree,probability\n2,0.1\n1,0.1\n2,0.1\n1,0.1\n", "degree 2 "),
    ])
    def test_vdd(self, text, message):
        with pytest.raises(ValidationError) as err:
            vdd_from_csv(text)
        assert err.value.codes() == ["DuplicateRow"]
        assert message in str(err.value)

    @pytest.mark.parametrize("text, message", [
        ("l,k,probability\n1,2,0.5\n2,1,0.25\n1,2,0.25\n",
         "cell (l, k) = (1, 2) "),
        ("l,k,probability\n1,1,0.5\nl,k,probability\n2,3,0.1\n3,2,0.1\n"
         "2,3,0.1\n1,1,0.1\n", "cell (l, k) = (2, 3) "),
    ])
    def test_edd(self, text, message):
        with pytest.raises(ValidationError) as err:
            edd_from_csv(text)
        assert err.value.codes() == ["DuplicateRow"]
        assert message in str(err.value)

    def test_distinct_rows_kept(self):
        q = vdd_from_csv("degree,probability\n2,0.25\n1,0.5\n4,0.25\n")
        assert q.min_degree == 1 and q.probs.tolist() == [0.5, 0.25, 0.0, 0.25]
        mx = edd_from_csv("l,k,probability\n1,2,0.5\n2,1,0.5\n")
        assert mx.entries.tolist() == [[0.0, 0.5], [0.5, 0.0]]
