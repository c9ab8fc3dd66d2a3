import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from npagraph import (AerModelSpec, AllRhoInfeasible, BaTreeSpec,
                      CompositeSpec, DegreeDistribution, EdgeDegreeMatrix,
                      Graph, IncrementDistribution, InfeasibleComplement,
                      NoConvergence, NpaModelSpec, RngStream, SolverFailure,
                      TruncationTooSevere, WeightFunction,
                      WindowExceedsMatrix, complement_mean, grow, grow_aer,
                      grow_composite, grow_npa, measure_edd, measure_vdd,
                      mix_edd, mix_vdd, solve_arc_dd, solve_vdd, symmetrize,
                      validate_model)
from npagraph.formats import edd_to_csv, vdd_to_csv
from npagraph import calibrate
from npagraph.calibrate import (K_MAX, CalibrationResult, CalibrationTarget,
                                calibrate_composite, calibrate_single)
from npagraph.models import (edd_distance, gowalla_increments,
                             preset_brightkite, preset_gowalla, select_u)

GOWALLA_RAW_R1 = 0.3557221013019485
GOWALLA_RAW_SUM = 1.000024621589985
BRIGHTKITE_M2 = 4.453548387096774


def _model(probs, min_arcs=1, weights=None):
    return NpaModelSpec(weights=weights or WeightFunction.linear(g=min_arcs),
                        increments=IncrementDistribution(min_arcs=min_arcs,
                                                         probs=probs))


def _target_from(model, u=20):
    sol = solve_vdd(model, K_MAX)
    theta = symmetrize(solve_arc_dd(model, sol, u))
    return CalibrationTarget(vdd=sol.q, edd=theta, u=u,
                             mean_increment=model.increments.mean)


# ---------------------------------------------------------------------------
# Distance and window selection
# ---------------------------------------------------------------------------

class TestEddDistance:
    def _matrix(self, entries):
        return EdgeDegreeMatrix(min_degree=1, entries=np.asarray(entries),
                                kind="edge")

    def test_identity_zero(self):
        m = self._matrix(np.full((3, 3), 1 / 9))
        assert edd_distance(m, m, 1, 3) == 0.0

    def test_single_cell_difference(self):
        a = np.full((3, 3), 1 / 9)
        b = a.copy()
        b[0, 0] += 0.1
        assert edd_distance(self._matrix(a), self._matrix(b), 1, 3) == \
            pytest.approx(0.1)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        a = self._matrix(rng.random((4, 4)) / 16)
        b = self._matrix(rng.random((4, 4)) / 16)
        assert edd_distance(a, b, 1, 4) == edd_distance(b, a, 1, 4)

    def test_window_exceeds(self):
        m = self._matrix(np.full((3, 3), 1 / 9))
        with pytest.raises(WindowExceedsMatrix):
            edd_distance(m, m, 1, 10)


class TestSelectU:
    def test_point_mass(self):
        e = np.zeros((5, 5))
        e[1, 1] = 1.0  # degree pair (2, 2)
        m = EdgeDegreeMatrix(min_degree=1, entries=e, kind="edge")
        assert select_u(m) == 2

    def test_uniform_full_mass(self):
        m = EdgeDegreeMatrix(min_degree=1, entries=np.full((10, 10), 0.01),
                             kind="edge")
        assert select_u(m, mass_fraction=1.0) == 10

    def test_fallback_to_extent(self):
        m = EdgeDegreeMatrix(min_degree=1, entries=np.full((4, 4), 0.01),
                             kind="edge", truncation_mass=0.84)
        assert select_u(m, mass_fraction=0.99) == 4


# ---------------------------------------------------------------------------
# Inversion of the vertex degree recurrence
# ---------------------------------------------------------------------------

LINEAR = WeightFunction.linear(g=1)


def _noisy_vdd(probs, sigma, seed):
    """The solved vertex distribution of a linear-weight model, each
    probability times a log-normal factor, renormalised."""
    q = solve_vdd(_model(probs), K_MAX).q
    noisy = np.asarray(q.probs) * np.exp(
        np.random.default_rng(seed).normal(0.0, sigma, len(q.probs)))
    noisy *= (1.0 - q.truncation_mass) / noisy.sum()
    return DegreeDistribution(min_degree=q.min_degree, probs=noisy,
                              truncation_mass=q.truncation_mass)


def _l1(q, m, u, r_max, r):
    a, observed = calibrate._vdd_program(q, LINEAR, m, 2.0 * m, u, r_max)
    return float(np.abs(a @ r - observed).sum())


def _highs_increments(q, m, u, r_max):
    """The same L1 program solved by HiGHS, with the same final tilt."""
    a, observed = calibrate._vdd_program(q, LINEAR, m, 2.0 * m, u, r_max)
    ks = np.arange(calibrate.R_MIN, r_max + 1, dtype=float)
    n_cmp, n_r = a.shape
    unit, empty = np.eye(n_cmp), np.zeros((1, n_cmp))
    a_eq = np.block([[a, -unit, unit],
                     [np.ones((1, n_r)), empty, empty],
                     [ks[None, :], empty, empty]])
    res = linprog(np.concatenate([np.zeros(n_r), np.ones(2 * n_cmp)]),
                  A_eq=a_eq, b_eq=np.concatenate([observed, [1.0, m]]),
                  bounds=(0.0, None), method="highs")
    assert res.status == 0, res.message
    return calibrate._with_mean(res.x[:n_r], ks, m)


def _check_against_highs(q, m, u, r_max):
    ks = np.arange(1, r_max + 1)
    # The simplex's own basic solution, before _with_mean clips and tilts it.
    a, observed = calibrate._vdd_program(q, LINEAR, m, 2.0 * m, u, r_max)
    raw = calibrate._l1_fit(a, observed, ks.astype(float), m)
    assert raw.min() >= -1e-12
    assert abs(raw.sum() - 1.0) <= 1e-12
    assert abs(ks @ raw - m) <= 1e-12
    r = np.array(calibrate._invert_vdd(q, LINEAR, m, 2.0 * m, u, r_max).probs)
    assert abs(r.sum() - 1.0) <= 1e-12
    assert abs(ks @ r - m) <= 1e-12
    assert r.min() >= -1e-12
    # The true L1 at each r: HiGHS's own objective value is only as exact
    # as its feasibility tolerance. So is its mean when its r is one point,
    # which _with_mean cannot tilt; each column of A sums to 1, so moving
    # its mean onto m costs at most twice the miss in L1.
    highs = _highs_increments(q, m, u, r_max)
    slack = 1e-12 + 2.0 * abs(ks @ highs - m)
    assert _l1(q, m, u, r_max, r) <= _l1(q, m, u, r_max, highs) + slack


class TestInvertVdd:
    @pytest.mark.parametrize("probs", [(0.4, 0.3, 0.2, 0.1), (0.3, 0.7),
                                       (0.0, 0.0, 1.0)])
    @pytest.mark.parametrize("u", [10, 60, 500])
    def test_program_reproduces_the_solved_vdd(self, probs, u):
        # At the planted increments the compared rows are the solver's own
        # vertex distribution: the head, the doubling tail bins and the mass
        # beyond k_max.
        true = _model(probs)
        q = solve_vdd(true, K_MAX).q
        m = true.increments.mean
        a, observed = calibrate._vdd_program(q, LINEAR, m, 2.0 * m, u, 50)
        r = np.zeros(50)
        r[:len(probs)] = probs
        assert np.allclose(a @ r, observed, rtol=1e-10, atol=1e-15)

    @given(weights=st.lists(st.integers(0, 10), min_size=1, max_size=6)
           .filter(lambda w: w[-1] > 0),
           r_max=st.sampled_from([1, 3, 5, 20, 50]),
           sigma=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
           seed=st.integers(0, 2**32 - 1),
           u=st.sampled_from([10, 15, 20, 100, 300]),
           m_at=st.none() | st.floats(0.0, 1.0))
    @example(weights=[1], r_max=3, sigma=0.05, seed=0, u=10, m_at=1e-9)
    @settings(max_examples=100, deadline=None)
    def test_no_worse_than_highs(self, weights, r_max, sigma, seed, u, m_at):
        # m is the model's own mean, or anywhere in [1, r_max]: a mean the
        # target does not bear puts tiny entries into the tail rows, where
        # an unguarded pivot leaves the basis singular.
        probs = tuple(w / sum(weights) for w in weights)
        m = (min(_model(probs).increments.mean, float(r_max)) if m_at is None
             else 1.0 + m_at * (r_max - 1))
        _check_against_highs(_noisy_vdd(probs, sigma, seed), m, u, r_max)

    @pytest.mark.parametrize("probs, sigma, r_max, m, u", [
        ((0.4, 0.3, 0.2, 0.1), 0.3, 5, 1.0, 15),    # m == r_min
        ((0.4, 0.3, 0.2, 0.1), 0.3, 5, 5.0, 15),    # m == r_max
        ((0.4, 0.3, 0.2, 0.1), 0.3, 20, 3.0, 15),   # integer m
        ((0.4, 0.3, 0.2, 0.1), 0.3, 50, 50.0, 15),
        ((0.4, 0.3, 0.2, 0.1), 0.3, 3, 2.5, 15),
        # Exact targets at means they do not bear; without the pivot
        # tolerance these end suboptimal, singular or at the pivot cap.
        ((0.5, 0.5), 0.0, 20, 3.0, 15),
        ((0.3, 0.7), 0.0, 20, 10.5, 10),
        ((0.3, 0.7), 0.0, 50, 25.5, 15),
        # Long degenerate runs, which stall at the pivot cap unless a
        # value at 0 is carried from pivot to pivot rather than recomputed.
        ((7 / 29, 10 / 29, 3 / 29, 9 / 29), 0.0, 200, 68.5, 300),
    ])
    def test_edge_means_no_worse_than_highs(self, probs, sigma, r_max, m, u):
        _check_against_highs(_noisy_vdd(probs, sigma, 7), m, u, r_max)

    def test_one_point_support(self, monkeypatch):
        q = _noisy_vdd((0.0, 0.0, 1.0), 0.3, 8)
        monkeypatch.setattr(calibrate, "R_MIN", 3)
        weight = WeightFunction.linear(g=3)
        inc = calibrate._invert_vdd(q, weight, 3.0, 6.0, 12, 3)
        assert (inc.min_arcs, inc.probs) == (3, (1.0,))
        with pytest.raises(InfeasibleComplement):
            calibrate._invert_vdd(q, weight, 3.5, 7.0, 12, 3)

    def test_mean_outside_support_is_infeasible(self):
        q = _noisy_vdd((0.5, 0.5), 0.3, 9)
        for m in (0.999, 4.001):
            with pytest.raises(InfeasibleComplement):
                calibrate._invert_vdd(q, LINEAR, m, 2.0 * m, 12, 4)

    def test_pivot_cap_raises_no_convergence(self, monkeypatch):
        monkeypatch.setattr(calibrate, "SIMPLEX_PIVOTS_PER_COLUMN", 0)
        q = _noisy_vdd((0.5, 0.5), 0.3, 10)
        with pytest.raises(NoConvergence):
            calibrate._invert_vdd(q, LINEAR, 1.5, 3.0, 12, 4)


class TestFitCounts:
    def test_failures_counted_by_type(self):
        # Results and solver failures count; a complement that could not be
        # formed does not.
        solved = CalibrationResult(model=None, distance=0.0, vdd_tv_error=0.0)
        counts = calibrate._tally([
            solved, NoConvergence("x"), InfeasibleComplement("w"),
            NoConvergence("y"), solved, TruncationTooSevere("z")])
        res = replace(solved, **counts)
        assert (res.evaluations, res.solver_failures) == (5, 3)
        assert res.failure_types == {"NoConvergence": 2,
                                     "TruncationTooSevere": 1}

    def test_single_records_a_failed_increment_fit(self, monkeypatch):
        # A linear fit whose increment fit fails has no candidate left; the
        # error still names the failure by type, and chains it.
        def fails(*args):
            raise NoConvergence("cap")

        monkeypatch.setattr(calibrate, "_l1_fit", fails)
        target = _target_from(_model((0.4, 0.3, 0.2, 0.1)), u=15)
        with pytest.raises(SolverFailure,
                           match="; 1 failed with NoConvergence") as info:
            calibrate_single(target, "linear", r_max=5)
        assert isinstance(info.value.__cause__, NoConvergence)

    def test_phase2_skips_a_failed_exponent(self, monkeypatch):
        # The first exponent the golden-section search tries fails its
        # increment fit: it is counted and skipped, and the search still
        # finds the planted exponent.
        monkeypatch.setattr(calibrate, "PHASE2_THRESHOLD", 1e-4)
        real, calls = calibrate._l1_fit, []

        def fails_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise NoConvergence("cap")
            return real(*args)

        monkeypatch.setattr(calibrate, "_l1_fit", fails_second)
        true = _model((0.6, 0.4), weights=WeightFunction.power(0.8, g=1))
        res = calibrate_single(_target_from(true, u=15), "table-free", r_max=3)
        assert res.report["phase"] == 2
        assert res.report["weight_exponent"] == pytest.approx(0.8, abs=1e-4)
        assert (res.evaluations, res.solver_failures) == (len(calls), 1)
        assert res.failure_types == {"NoConvergence": 1}
        # The failed exponent, the first probed, is the log's only skipped
        # entry, named by its class; the winner has the least objective.
        grid = res.report["alpha_grid"]
        assert grid[0]["skipped"].startswith("NoConvergence:")
        assert [e for e in grid if "skipped" in e] == grid[:1]
        assert res.evaluations == 1 + len(grid)
        assert res.report["weight_exponent"] == min(
            grid[1:], key=lambda e: e["objective"])["alpha"]

    def test_composite_skips_a_rho_whose_increment_fit_fails(self, monkeypatch):
        # The increment fit fails at rho = 0.25 only: that rho is skipped,
        # logged by the failure's class and counted, and the planted rho of
        # 0.3 is still recovered.
        target = _composite_target()
        failing_mean = complement_mean(target.m, 1.0, 0.25)
        real = calibrate._l1_fit

        def fails_at_025(a, observed, ks, m):
            if m == failing_mean:
                raise NoConvergence("cap")
            return real(a, observed, ks, m)

        monkeypatch.setattr(calibrate, "_l1_fit", fails_at_025)
        # A step of 0.25 makes the lattice 0.25, 0.3 and 0.35: all are fitted.
        res = calibrate_composite(target, BaTreeSpec(), r_max=3, rho_min=0.25,
                                  rho_max=0.35, rho_step=0.25)
        assert res.report["rho"] == 0.3
        grid = {e["rho"]: e for e in res.report["grid"]}
        assert sorted(grid) == [0.25, 0.3, 0.35]
        assert grid[0.25]["skipped"] == "NoConvergence: cap"
        assert all("objective" in grid[rho] for rho in (0.3, 0.35))
        assert (res.evaluations, res.solver_failures) == (3, 1)
        assert res.failure_types == {"NoConvergence": 1}

    def test_composite_fails_when_every_increment_fit_fails(self, monkeypatch,
                                                            tmp_path):
        # Every rho is skipped: the fit raises AllRhoInfeasible naming the
        # failures it counted, and the command exits 4.
        def fails(*args):
            raise NoConvergence("cap")

        monkeypatch.setattr(calibrate, "_l1_fit", fails)
        target = _composite_target()
        with pytest.raises(AllRhoInfeasible, match="3 failed with NoConvergence"):
            calibrate_composite(target, BaTreeSpec(), r_max=3, rho_min=0.25,
                                rho_max=0.35, rho_step=0.25)

        from npagraph.cli import main
        target_dir = tmp_path / "target"
        target_dir.mkdir()
        (target_dir / "vdd.csv").write_text(vdd_to_csv(target.vdd))
        (target_dir / "edd.csv").write_text(edd_to_csv(target.edd))
        (target_dir / "summary.json").write_text(json.dumps(
            {"derived_m": target.m, "selected_u": target.u}))
        out = tmp_path / "fit"
        assert main(["calibrate", str(target_dir), "--mode", "composite",
                     "--rmax", "3", "--rho-min", "0.25", "--rho-max", "0.35",
                     "--rho-step", "0.05", "--out", str(out)]) == 4
        report = json.loads((out / "report.json").read_text())
        assert "NoConvergence" in report["error"]


# ---------------------------------------------------------------------------
# Single-component round trips
# ---------------------------------------------------------------------------

class TestCalibrateSingle:
    def test_round_trip_recovers_planted(self):
        true = _model((0.5, 0.5))
        target = _target_from(true, u=20)
        res = calibrate_single(target, "linear", r_max=4)
        assert res.distance < 1e-3
        recovered, planted = (
            dict(enumerate(inc.probs, inc.min_arcs))
            for inc in (res.model.increments, true.increments))
        for k in range(1, 5):
            assert recovered.get(k, 0.0) == pytest.approx(planted.get(k, 0.0),
                                                          abs=0.05)

    def test_distance_reproducible_from_model(self):
        target = _target_from(_model((0.6, 0.4)), u=15)
        res = calibrate_single(target, "linear", r_max=3)
        sol = solve_vdd(res.model, K_MAX)
        theta = symmetrize(solve_arc_dd(res.model, sol, target.u))
        again = edd_distance(theta, target.edd, 1, target.u)
        assert again == pytest.approx(res.distance, abs=1e-9)
        # The model's profile is that same matrix.
        edd = calibrate.component_profile(res.model, target.u).edd
        assert np.array_equal(edd.window(1, target.u), theta.window(1, target.u))
        assert edd_distance(edd, target.edd, 1, target.u) == res.distance

    def test_result_model_validates(self):
        target = _target_from(_model((0.5, 0.5)), u=12)
        res = calibrate_single(target, "linear", r_max=3)
        assert validate_model(res.model) is res.model

    def test_unknown_mode_rejected(self):
        target = _target_from(_model((1.0,)), u=10)
        with pytest.raises(ValueError):
            calibrate_single(target, "cubic-spline")

    def test_target_invariants(self):
        target = _target_from(_model((1.0,)), u=10)
        with pytest.raises(WindowExceedsMatrix):
            CalibrationTarget(vdd=target.vdd, edd=target.edd, u=1)
        with pytest.raises(WindowExceedsMatrix):
            CalibrationTarget(vdd=target.vdd, edd=target.edd,
                              u=target.edd.max_degree + 5)

    def test_empty_window_rejected_at_construction(self):
        # An edge matrix from degree 5 leaves [g, u] = [5, 4] empty. 0.24.0
        # took the target and failed only after a fit and a solve, naming
        # the model's matrix.
        target = _target_from(_model((1.0,)), u=10)
        edd = EdgeDegreeMatrix(min_degree=5, entries=target.edd.window(5, 10))
        with pytest.raises(WindowExceedsMatrix, match="starts at degree 5, "
                                                      "above u = 4"):
            CalibrationTarget(vdd=target.vdd, edd=edd, u=4)
        assert CalibrationTarget(vdd=target.vdd, edd=edd, u=5).g == 5
        assert target.g == 1

    def test_table_free_enters_second_phase(self, monkeypatch):
        # A sublinear-weight target cannot be matched by linear weights, so
        # the exponent search must engage and improve the fit.
        monkeypatch.setattr(calibrate, "PHASE2_THRESHOLD", 1e-4)
        true = _model((0.6, 0.4), weights=WeightFunction.power(0.8, g=1))
        target = _target_from(true, u=15)
        linear_only = calibrate_single(target, "linear", r_max=3)
        full = calibrate_single(target, "table-free", r_max=3)
        assert full.report["phase"] == 2
        assert full.report["weight_exponent"] == pytest.approx(0.8, abs=1e-4)
        assert full.evaluations <= 30
        # alpha_grid logs each exponent once, in probe order from the two
        # golden points of [ALPHA_MIN, 1], and the winner is the one of
        # least objective.
        grid = full.report["alpha_grid"]
        alphas = [e["alpha"] for e in grid]
        width = calibrate.GOLDEN * (1.0 - calibrate.ALPHA_MIN)
        assert alphas[:2] == [1.0 - width, calibrate.ALPHA_MIN + width]
        assert len(set(alphas)) == len(alphas)
        assert full.evaluations == 1 + len(grid)
        assert full.report["weight_exponent"] == min(
            grid, key=lambda e: e["objective"])["alpha"]
        obj_linear = linear_only.distance + linear_only.vdd_tv_error
        obj_full = full.distance + full.vdd_tv_error
        assert obj_full < obj_linear

    def test_trace_counts_solved_candidates(self):
        # A linear fit inverts the recurrence once and solves that one
        # candidate, and the result counts it.
        target = _target_from(_model((0.5, 0.5)), u=12)
        res = calibrate_single(target, "linear", r_max=3)
        assert (res.evaluations, res.solver_failures) == (1, 0)
        assert res.report["phase"] == 1
        assert res.report["objective"] == res.distance + res.vdd_tv_error

    def test_default_rmax_recovers_planted(self):
        # The planted model of the calibration round trip, at the default
        # r_max = 50, where a simplex search over the 49-dimensional
        # simplex stopped at r_1 = 0.28.
        true = _model((0.4, 0.3, 0.2, 0.1))
        res = calibrate_single(_target_from(true, u=20), "linear")
        assert res.distance < 1e-3
        fitted, planted = (dict(enumerate(inc.probs, inc.min_arcs))
                           for inc in (res.model.increments, true.increments))
        for k in range(1, 51):
            assert fitted.get(k, 0.0) == pytest.approx(planted.get(k, 0.0),
                                                       abs=0.05)

    @given(st.lists(st.integers(0, 10), min_size=1, max_size=6)
           .filter(lambda w: w[-1] > 0))
    @settings(max_examples=25, deadline=None)
    def test_exact_target_recovered(self, weights):
        probs = tuple(w / sum(weights) for w in weights)
        true = _model(probs)
        res = calibrate_single(_target_from(true, u=15), "linear", r_max=6)
        fitted, planted = (dict(enumerate(inc.probs, inc.min_arcs))
                           for inc in (res.model.increments, true.increments))
        for k in range(1, 7):
            assert abs(fitted.get(k, 0.0) - planted.get(k, 0.0)) <= 1e-6

    def test_mean_increment_is_the_target_mean(self):
        target = _target_from(_model((0.2, 0.5, 0.3)), u=15)
        res = calibrate_single(target, "linear", r_max=8)
        assert abs(res.model.increments.mean - target.m) <= 1e-9
        assert res.report["mean_increment_target"] == target.m

    def test_mean_increment_clamped_into_support(self):
        # A grown tree measures a mean increment just below 1, which no
        # increment law on [1, r_max] has: the fit takes the nearest, 1.
        tree = _target_from(_model((1.0,)), u=10)
        low = CalibrationTarget(vdd=tree.vdd, edd=tree.edd, u=10,
                                mean_increment=0.9998)
        res = calibrate_single(low, "linear", r_max=4)
        assert abs(res.model.increments.mean - 1.0) <= 1e-9
        assert res.report["mean_increment_target"] == 1.0
        high = CalibrationTarget(vdd=tree.vdd, edd=tree.edd, u=10,
                                 mean_increment=7.5)
        res = calibrate_single(high, "linear", r_max=4)
        assert abs(res.model.increments.mean - 4.0) <= 1e-9


# Objectives (EDD window distance plus VDD total variation) that the
# Nelder-Mead simplex search of version 0.4.0 reached on the targets below,
# by r_max. A fit may not do worse at r_max = 50; at r_max = 5, where the
# simplex searched only four free parameters, it may do at most 1 % worse.
NOISY_SIMPLEX_OBJECTIVES = {
    "r4": {50: 0.20953640026092385, 5: 0.032931521363501394},
    "r2": {50: 0.2643824917485511, 5: 0.027046227459259147},
    "pow10": {50: 0.06264777530585919},
}


def test_fits_solve_at_the_k_max_of_the_run(monkeypatch):
    """calibrate.K_MAX is read when a fit runs, by the inversion and by every
    solve: a patched value reaches each component_profile call of a single
    and a composite fit (0.36.0 solved them at the value bound on import)."""
    monkeypatch.setattr(calibrate, "K_MAX", 4500)
    seen, real = [], calibrate.component_profile

    def spy(*args, **kwargs):
        seen.append(args[2] if len(args) > 2 else kwargs.get("k_max"))
        return real(*args, **kwargs)
    monkeypatch.setattr(calibrate, "component_profile", spy)
    calibrate_single(_target_from(_model((0.5, 0.5))), "linear", r_max=4)
    single = len(seen)
    calibrate_composite(_composite_target(), BaTreeSpec(), r_max=3,
                        rho_min=0.25, rho_max=0.35, rho_step=0.25)
    assert 0 < single < len(seen)
    assert set(seen) == {4500}


def _noisy_target(probs, seed):
    graph = grow_npa(_model(probs), 100000, RngStream(seed))
    edd = measure_edd(graph, 100)
    return CalibrationTarget(vdd=measure_vdd(graph), edd=edd,
                             u=min(select_u(edd), 40))


@pytest.mark.parametrize("name, probs, seed", [
    ("r4", (0.4, 0.3, 0.2, 0.1), 4101),
    ("r2", (0.3, 0.7), 4102),
    ("pow10", tuple(np.arange(1, 11) ** -1.5 / (np.arange(1, 11) ** -1.5).sum()),
     4103),
])
def test_noisy_target_no_worse_than_simplex(name, probs, seed):
    target = _noisy_target(probs, seed)
    for r_max, simplex in NOISY_SIMPLEX_OBJECTIVES[name].items():
        res = calibrate_single(target, "linear", r_max=r_max)
        objective = res.distance + res.vdd_tv_error
        bound = simplex if r_max == 50 else 1.01 * simplex
        assert objective <= bound, (r_max, objective, simplex)


# ---------------------------------------------------------------------------
# Composite round trips
# ---------------------------------------------------------------------------

def _composite_target(rho=0.3, u=20):
    comp2 = _model((0.3, 0.7))
    ba = BaTreeSpec()
    sol1 = solve_vdd(ba, K_MAX)
    sol2 = solve_vdd(comp2, K_MAX)
    th1 = symmetrize(solve_arc_dd(ba, sol1, u))
    th2 = symmetrize(solve_arc_dd(comp2, sol2, u))
    m2 = comp2.increments.mean
    m_tot = rho * 1.0 + (1 - rho) * m2
    return CalibrationTarget(
        vdd=mix_vdd([(sol1.q, rho), (sol2.q, 1 - rho)]),
        edd=mix_edd([(th1, 1.0, rho), (th2, m2, 1 - rho)]),
        u=u, mean_increment=m_tot)


def _degree2_target(rho=0.1, u=15):
    """A BA tree at vertex share rho mixed with a complement of two-arc
    increments: the target's mean increment is rho + 2 (1 - rho), so above
    rho the complement's mean exceeds 2 and has no increment law at
    r_max = 2."""
    comp2 = _model((1.0,), min_arcs=2, weights=WeightFunction.linear(g=2))
    ba = BaTreeSpec()
    sol1 = solve_vdd(ba, K_MAX)
    sol2 = solve_vdd(comp2, K_MAX)
    th1 = symmetrize(solve_arc_dd(ba, sol1, u))
    th2 = symmetrize(solve_arc_dd(comp2, sol2, u))
    m2 = comp2.increments.mean
    return CalibrationTarget(
        vdd=mix_vdd([(sol1.q, rho), (sol2.q, 1 - rho)]),
        edd=mix_edd([(th1, 1.0, rho), (th2, m2, 1 - rho)]),
        u=u, mean_increment=rho + (1 - rho) * m2)


@pytest.fixture(scope="module")
def fitted():
    target = _composite_target(rho=0.3)
    return calibrate_composite(target, BaTreeSpec(), r_max=3, rho_min=0.225,
                               rho_max=0.375), target


class TestCalibrateComposite:
    def test_recovers_rho_within_grid_step(self, fitted):
        res, _ = fitted
        assert abs(res.report["rho"] - 0.3) <= 0.025 + 1e-9

    def test_distance_small(self, fitted):
        res, _ = fitted
        assert res.distance < 1e-3
        assert res.vdd_tv_error < 1e-3

    def test_gamma_recomputation_exact(self, fitted):
        res, _ = fitted
        rho = res.report["rho"]
        m1 = res.report["m_first"]
        m2 = res.model.components[1][0].increments.mean
        gamma = m1 * rho / (rho * m1 + (1 - rho) * m2)
        assert abs(gamma - res.report["gamma"]) < 1e-12

    def test_result_edd_is_the_scored_mixture(self, fitted):
        res, target = fitted
        m1 = res.report["m_first"]
        (first, rho), (second, rho2) = res.model.components
        m2 = second.increments.mean
        parts = [(symmetrize(solve_arc_dd(
                      spec, solve_vdd(spec, K_MAX), target.u)),
                  m, share)
                 for spec, m, share in ((first, m1, rho), (second, m2, rho2))]
        mixed = mix_edd(parts)
        edd = calibrate.component_profile(res.model, target.u).edd
        assert np.allclose(edd.window(1, target.u),
                           mixed.window(1, target.u), rtol=1e-12, atol=1e-15)
        assert edd_distance(edd, target.edd, *res.report["window"]) == res.distance

    def test_objective_best_at_reported_rho(self, fitted):
        res, _ = fitted
        evaluated = [e for e in res.report["grid"] if "objective" in e]
        best = min(e["objective"] for e in evaluated)
        assert res.distance + res.vdd_tv_error <= best + 1e-9

    def test_result_model_validates(self, fitted):
        res, _ = fitted
        assert validate_model(res.model) is res.model

    def test_grid_fits_each_rho_once(self, fitted):
        # The search's probes and the lattice points left in its final
        # bracket overlap; a rho already fitted is not fitted again, and
        # lattice values carry no float-step residue.
        res, _ = fitted
        rhos = [e["rho"] for e in res.report["grid"] if "objective" in e]
        assert len({round(r, 9) for r in rhos}) == len(rhos)
        assert all(r == round(r, 12) for r in rhos)

    def test_infeasible_rho_skipped_with_log(self):
        # Above rho = 0.1 the complement's mean exceeds r_max = 2, so the
        # search's probes there are skipped and the true rho is the best of
        # the rest.
        res = calibrate_composite(_degree2_target(), BaTreeSpec(), r_max=2,
                                  rho_min=0.05, rho_max=0.35)
        skipped = [e for e in res.report["grid"] if "skipped" in e]
        assert len(skipped) == 4
        assert all(e["rho"] > 0.1 for e in skipped)
        assert res.report["rho"] == 0.1

    def test_infeasible_rho_is_not_counted(self):
        # A rho whose complement cannot be formed is skipped before any
        # solve: the result counts only the rhos fitted, and the grid logs
        # the plain message, without a class name.
        res = calibrate_composite(_degree2_target(), BaTreeSpec(), r_max=2,
                                  rho_min=0.05, rho_max=0.35)
        grid = res.report["grid"]
        fitted = [e for e in grid if "objective" in e]
        skipped = [e["skipped"] for e in grid if "skipped" in e]
        assert (len(fitted), len(skipped)) == (5, 4)
        assert len(fitted) + len(skipped) == len(grid)
        assert (res.evaluations, res.solver_failures) == (len(fitted), 0)
        assert res.failure_types == {}
        assert not any(reason.startswith("InfeasibleComplement")
                       for reason in skipped)

    @pytest.mark.parametrize("first", [BaTreeSpec(), AerModelSpec(n1=400, a=2.0)],
                             ids=["ba_tree", "aer"])
    def test_profile_stops_at_target_u(self, first, monkeypatch):
        # The first component is profiled up to the target's u, not to its
        # edge matrix's extent, and each cell of [1, u] is the one a profile
        # up to that extent holds.
        monkeypatch.setattr(calibrate, "AER_REPS", 2)
        wide_target = _target_from(_model((0.5, 0.5)), u=30)
        target = CalibrationTarget(vdd=wide_target.vdd, edd=wide_target.edd,
                                   u=12, mean_increment=wide_target.m)
        profile = calibrate.component_profile(first, target.u)
        wide = calibrate.component_profile(first, wide_target.u)
        assert (profile.edd.max_degree, wide.edd.max_degree) == (12, 30)
        assert (profile.edd.window(1, 12).tobytes()
                == wide.edd.window(1, 12).tobytes())
        assert np.array_equal(profile.vdd.probs, wide.vdd.probs)
        assert profile.m == wide.m

    def test_aer_first_component(self):
        # The AER profile as the first component (rho = 0.3) plus a
        # linear-weight complement: the fit recovers rho and the
        # complement's increments, and writes the AER the growth budget
        # whose pruned graph holds the share rho.
        aer, u, rho = AerModelSpec(n1=400, a=2.0), 12, 0.3
        comp2 = _model((0.4, 0.6))
        sol2 = solve_vdd(comp2, K_MAX)
        th2 = symmetrize(solve_arc_dd(comp2, sol2, u))
        first = calibrate.component_profile(aer, u)
        m1, m2 = first.m, comp2.increments.mean
        m_tot = rho * m1 + (1 - rho) * m2
        target = CalibrationTarget(
            vdd=mix_vdd([(first.vdd, rho), (sol2.q, 1 - rho)]),
            edd=mix_edd([(first.edd, m1, rho), (th2, m2, 1 - rho)]),
            u=u, mean_increment=m_tot)
        res = calibrate_composite(target, aer, r_max=3, rho_min=0.2,
                                  rho_max=0.4, rho_step=0.05)
        assert res.report["rho"] == rho
        assert res.report["m_first"] == m1
        kept = sum(grow(aer, aer.n1, RngStream(calibrate.AER_SEED, rep)).vertex_count
                   for rep in range(calibrate.AER_REPS)) / (calibrate.AER_REPS * aer.n1)
        assert 0.5 < kept < 1.0
        written_aer, written_rho = res.model.components[0]
        assert written_aer == aer
        assert written_rho == pytest.approx(0.3 / (kept * 0.7 + 0.3), rel=1e-14)
        assert res.distance < 1e-12 and res.vdd_tv_error < 1e-12
        inc = res.model.components[1][0].increments
        fitted = dict(enumerate(inc.probs, inc.min_arcs))
        for k, p in ((1, 0.4), (2, 0.6), (3, 0.0)):
            assert fitted.get(k, 0.0) == pytest.approx(p, abs=1e-12)

    def test_complement_mean_achieved(self, fitted):
        res, _ = fitted
        assert abs(res.report["m_complement_achieved"]
                   - res.report["m_complement_target"]) <= 1e-9

    def test_all_rho_infeasible(self):
        comp2 = _model((1.0,), min_arcs=2, weights=WeightFunction.linear(g=2))
        target = _target_from(comp2, u=15)
        with pytest.raises(AllRhoInfeasible):
            calibrate_composite(target, BaTreeSpec(), r_max=2, rho_min=0.4,
                                rho_max=0.6)


def _grown_composite_target(seed):
    """A BA tree at vertex share 0.225 plus a linear complement, grown to
    1e5 vertices and measured, unsmoothed."""
    spec = CompositeSpec(
        components=((BaTreeSpec(), 0.225),
                    (_model((0.35, 0.3, 0.2, 0.1, 0.05)), 0.775)),
        total_n=100000)
    graph = grow_composite(spec, RngStream(seed))
    edd = measure_edd(graph, 100)
    return CalibrationTarget(vdd=measure_vdd(graph), edd=edd,
                             u=min(select_u(edd), 40))


def test_measured_composite_rho_set_by_the_fit():
    # A measured target has no vertices at its highest degrees, where the
    # BA tree's tail is still positive, so the complement's VDD goes
    # negative there well below the true share. The fit, not a tolerance
    # on that negativity, must set rho: every rho is fitted unless its
    # complement mean leaves [1, r_max], and the fitted rho is stable across
    # seeds. It lies above 0.225 by the bias of the printed arc law.
    rhos = []
    for seed in range(7700, 7704):
        res = calibrate_composite(_grown_composite_target(seed), BaTreeSpec(),
                                  r_max=50)
        rhos.append(res.report["rho"])
        assert all(e["skipped"].startswith(("mean increment", "complement mean"))
                   for e in res.report["grid"] if "skipped" in e), seed
    assert all(0.2 <= rho <= 0.3 for rho in rhos), rhos
    assert max(rhos) - min(rhos) <= 0.02, rhos


@pytest.mark.parametrize("make_target, r_max",
                         [(_composite_target, 3),
                          (lambda: _grown_composite_target(7700), 50)],
                         ids=["planted", "grown_7700"])
def test_rho_search_finds_the_lattice_argmin(make_target, r_max):
    # The reference is an exhaustive scan of the default lattice, 0.025 to
    # 0.975 in steps of 0.005: the search returns its best rho, bit for
    # bit, in at most 15 fits.
    target = make_target()
    profile = calibrate.component_profile(BaTreeSpec(), target.u)
    lattice = np.round(0.025 + 0.005 * np.arange(191), 12)
    scores = [calibrate._objective(calibrate._fit(
                  target, WeightFunction.linear(g=1), target.m, r_max,
                  profile, float(rho)))
              for rho in lattice]
    res = calibrate_composite(target, BaTreeSpec(), r_max=r_max)
    assert res.report["rho"] == lattice[int(np.argmin(scores))]
    assert res.objective == min(scores)
    assert len(res.report["grid"]) <= 15


@pytest.fixture(scope="module")
def planted_fit():
    """The planted composite target and its complement's fit at rho = 0.3."""
    target = _composite_target()
    profile = calibrate.component_profile(BaTreeSpec(), target.u)
    return target, calibrate._fit(target, WeightFunction.linear(g=1), target.m,
                                  3, profile, 0.3)


@settings(max_examples=200, deadline=None)
@given(last=st.integers(0, 190), where=st.floats(0.0, 1.0),
       top=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(last=190, where=0.0, top=0.0, seed=0)
@example(last=190, where=1.0, top=1.0, seed=0)
def test_rho_search_of_unimodal_profiles(planted_fit, last, where, top, seed):
    # The fits replaced by a strictly unimodal profile over the lattice
    # 0.025 + 0.005 i, i = 0..last, infinite from some point above its
    # minimum on (or nowhere): the search returns the profile's argmin and
    # fits each point at most once.
    target, fit = planted_fit
    best = int(where * last)
    block = best + 1 + int(top * (last - best))  # last + 1: no infinite block
    rise = np.cumsum(np.random.default_rng(seed).exponential(size=last + 1) + 1e-9)
    profile = np.abs(rise - rise[best])
    profile[block:] = np.inf
    calls = []

    def profiled(target, weight, m, r_max, first, rho):
        calls.append(i := round((rho - 0.025) / 0.005))
        if profile[i] == np.inf:
            return InfeasibleComplement("complement mean outside [1, 3]")
        return replace(fit, distance=float(profile[i]), vdd_tv_error=0.0,
                       report={**fit.report, "rho": rho})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calibrate, "_fit", profiled)
        res = calibrate_composite(target, BaTreeSpec(), r_max=3, rho_min=0.025,
                                  rho_max=0.025 + 0.005 * last)
    assert res.report["rho"] == round(0.025 + 0.005 * best, 12)
    assert len(calls) == len(set(calls))


def test_measured_aer_rho_is_the_written_share():
    # The gowalla preset grown to 1e5 vertices: its AER budget is 0.35, and
    # pruning leaves about 0.314 of the written vertices to it. The fitted
    # rho is that written share, and the fitted model, grown from another
    # seed, writes an AER share of rho again.
    spec = preset_gowalla(100000)
    for seed in (1, 2):
        graph = grow_composite(spec, RngStream(seed))
        edd = measure_edd(graph, 100)
        target = CalibrationTarget(vdd=measure_vdd(graph), edd=edd,
                                   u=min(select_u(edd), 40))
        res = calibrate_composite(target, AerModelSpec(n1=35000, a=2.75),
                                  r_max=50)
        rho = res.report["rho"]
        assert abs(rho - _first_share(spec, seed)) <= 0.01, (seed, rho)
        regrown = _first_share(res.model, 1000 + seed)
        assert abs(regrown - rho) <= 0.005, (seed, rho, regrown)


def _first_share(spec, seed):
    """The first component's vertex share of the composite grown from seed:
    grow_composite grows component i from substream i."""
    first, _ = spec.components[0]
    n1 = grow(first, spec.budgets()[0], RngStream(seed).substream(0)).vertex_count
    return n1 / grow_composite(spec, RngStream(seed)).vertex_count


# ---------------------------------------------------------------------------
# First-component profiles
# ---------------------------------------------------------------------------

class TestAerProfile:
    def test_cached_and_well_formed(self, monkeypatch):
        # The profile is measured on the pruned graph growth writes, pooled
        # over AER_REPS replicates from AER_SEED: m is its edges per vertex,
        # and no lone pair is left in its (1, 1) cell.
        monkeypatch.setattr(calibrate, "AER_SEED", 5)
        monkeypatch.setattr(calibrate, "AER_REPS", 2)
        spec = AerModelSpec(n1=800, a=2.0)
        target = _target_from(_model((0.5, 0.5)), u=20)
        profile = calibrate.component_profile(spec, target.u)
        again = calibrate.component_profile(spec, target.u)
        assert (profile.m, profile.kept) == (again.m, again.kept)
        assert np.array_equal(profile.vdd.probs, again.vdd.probs)
        assert np.array_equal(profile.edd.entries, again.edd.entries)
        assert profile.m == pytest.approx(profile.vdd.mean() / 2, rel=1e-12)
        assert profile.edd.min_degree == 1 and profile.edd.entries[0, 0] == 0.0
        pooled = Graph.disjoint_union([grow_aer(spec, RngStream(5, rep))
                                       for rep in range(2)])
        vdd = measure_vdd(pooled)
        assert (profile.vdd.min_degree, profile.vdd.truncation_mass) == (
            vdd.min_degree, vdd.truncation_mass)
        assert np.array_equal(profile.vdd.probs, vdd.probs)
        assert profile.kept == pooled.vertex_count / 1600
        assert profile.vdd.stored_mass() == pytest.approx(1.0, abs=1e-12)
        assert profile.edd.stored_mass() + profile.edd.truncation_mass == \
            pytest.approx(1.0, abs=1e-12)
        # Pruning removes isolated vertices: no degree-0 mass remains.
        assert profile.vdd.min_degree >= 1


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

class TestPresets:
    def test_gowalla_structure(self):
        spec = preset_gowalla(100000)
        assert validate_model(spec) is spec
        assert spec.budgets() == [35000, 65000]
        aer, rho = spec.components[0]
        assert isinstance(aer, AerModelSpec)
        assert rho == 0.35
        assert aer.a == 2.75
        assert aer.n1 == 35000
        assert aer.p_a == pytest.approx(2.75 / 34999, abs=1e-12)

    def test_gowalla_increment_table(self):
        inc, raw_sum = gowalla_increments()
        assert raw_sum == pytest.approx(GOWALLA_RAW_SUM, abs=1e-12)
        assert inc.probs[1 - inc.min_arcs] * raw_sum == pytest.approx(
            GOWALLA_RAW_R1, abs=1e-12)
        assert inc.max_arcs == 50
        assert sum(inc.probs) == pytest.approx(1.0, abs=1e-12)
        assert preset_gowalla().metadata["increment_raw_sum"] == pytest.approx(
            GOWALLA_RAW_SUM)

    def test_brightkite_structure(self):
        spec = preset_brightkite(100000)
        assert validate_model(spec) is spec
        first, rho = spec.components[0]
        assert isinstance(first, BaTreeSpec)
        assert rho == 0.225
        assert first.increments.probs[1 - first.increments.min_arcs] == 1.0
        assert first.weights.rule == "linear"

    def test_brightkite_complement_mean_matches(self):
        spec = preset_brightkite()
        complement = spec.components[1][0]
        assert complement.increments.mean == pytest.approx(BRIGHTKITE_M2,
                                                           abs=1e-9)
        assert complement.increments.max_arcs == 40
        assert spec.metadata["complement_mean"] == pytest.approx(BRIGHTKITE_M2)
