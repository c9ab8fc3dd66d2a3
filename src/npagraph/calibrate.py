"""Calibration of growth models against empirical degree distributions.

The driving objective is the Euclidean distance between the model's edge
degree matrix and the empirical one over a degree window, optionally combined
with the total-variation error of the vertex degree distribution. Natural
linear weights are tried first; a parametric power-weight family is only
brought in when the linear phase misses tolerance, and on ties the model with
fewer free parameters wins.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (AllRhoInfeasible, InfeasibleComplement, NonPositiveResult,
                     SolverFailure)
from .growth import RngStream, grow_aer_unpruned, measure_edd
from .models import (AerModelSpec, BaTreeSpec, CompositeSpec, DegreeDistribution,
                     EdgeDegreeMatrix, IncrementDistribution, NpaModelSpec,
                     WeightFunction)
from .solver import (SolverOptions, VddSolution, complement_mean, complement_vdd,
                     edge_share, mix_edd, mix_vdd, solve_arc_dd, solve_vdd,
                     symmetrize)

log = logging.getLogger(__name__)

BRIGHTKITE_RHO = 0.225
BRIGHTKITE_MEAN_INCREMENT = 3.6765
BRIGHTKITE_COMPLEMENT_SUPPORT = 40
GOWALLA_RHO = 0.35
GOWALLA_AER_MEAN_DEGREE = 2.75
GOWALLA_RK_COEFF = 0.3004
GOWALLA_RK_SHIFT = 0.1259
GOWALLA_RK_EXPONENT = -1.2562
GOWALLA_RK_SUPPORT = 50


# ---------------------------------------------------------------------------
# Target, options, results
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CalibrationTarget:
    """Empirical distributions a model should reproduce.

    u is the comparison extent: the distance is evaluated on the degree
    window [g, u] squared. mean_increment defaults to half the mean degree of
    the vertex distribution.
    """

    vdd: DegreeDistribution
    edd: EdgeDegreeMatrix
    u: int
    mean_increment: float | None = None
    source_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.u <= self.vdd.min_degree:
            raise ValueError(f"comparison extent u = {self.u} must exceed the "
                             f"minimum degree {self.vdd.min_degree}")
        if self.edd.max_degree < self.u:
            raise ValueError(f"edge matrix extent {self.edd.max_degree} is "
                             f"below u = {self.u}")

    @property
    def m(self) -> float:
        if self.mean_increment is not None:
            return self.mean_increment
        return self.vdd.mean() / 2.0


@dataclass
class OptimizerTrace:
    """Summary of a calibration's optimizer runs.

    Counts and best_history (non-increasing) cover every run; stalled is
    the flag of the fit that is reported.
    """

    evaluations: int = 0
    restarts: int = 0
    best_objective: float = math.inf
    best_history: list = field(default_factory=list)
    solver_failures: int = 0
    stalled: bool = False
    phase: int = 1


@dataclass
class CalibrationResult:
    model: Union[NpaModelSpec, CompositeSpec]
    distance: float
    vdd_tv_error: float
    iterations: OptimizerTrace
    report: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CalibrateOptions:
    """Knobs for the simplex search and composite refinement."""

    r_min: int = 1
    r_max: int = 50
    alpha_vdd: float = 1.0
    solver: SolverOptions = SolverOptions(k_max=4000, fp_tolerance=1e-9)
    restarts: int = 3
    max_evals_per_restart: int = 600
    patience: int = 120
    xatol: float = 1e-6
    fatol: float = 1e-10
    phase2_threshold: float = 1e-3
    rho_step: float = 0.025
    rho_min: float = 0.025
    rho_max: float = 0.975
    rho_refine_factor: int = 5
    outer_iterations: int = 2
    aer_reps: int = 10
    aer_seed: int = 987654321
    total_n: int = 100000


# ---------------------------------------------------------------------------
# Distance and window selection
# ---------------------------------------------------------------------------

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
# Simplex search over increment probabilities
# ---------------------------------------------------------------------------

def _softmax(theta: np.ndarray) -> np.ndarray:
    z = np.exp(theta - theta.max())
    return z / z.sum()


def _shaped_seed(values: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    v = np.maximum(values, floor)
    t = np.log(v)
    return t - t[0]


def _optimize(objective: Callable[[np.ndarray], float], x0s: Sequence[np.ndarray],
              opts: CalibrateOptions, trace: OptimizerTrace
              ) -> tuple[np.ndarray | None, float, bool]:
    """Derivative-free simplex minimization restarted from several seeds.

    Returns this run's best evaluated point (None when no evaluation was
    finite), its value, and whether every restart was cut off by patience.
    A restart is abandoned when this run's best value has not improved for
    opts.patience evaluations. The trace accumulates evaluations, restarts
    and the best value over all runs that share it.
    """
    # Imported here so that commands which never calibrate skip its cost.
    from scipy.optimize import minimize

    best_x = None
    best_f = math.inf
    patience_stops = 0
    for x0 in x0s:
        since_improve = 0
        aborted = False

        def wrapped(x: np.ndarray) -> float:
            nonlocal best_x, best_f, since_improve
            val = objective(x)
            trace.evaluations += 1
            if val < best_f:
                best_x, best_f = np.array(x), val
                since_improve = 0
            else:
                since_improve += 1
            if val < trace.best_objective:
                trace.best_objective = val
                trace.best_history.append(val)
            return val

        def callback(_xk) -> None:
            # The simplex loop treats StopIteration from a callback as a
            # clean early termination, so record the abort separately.
            nonlocal aborted
            if since_improve > opts.patience:
                aborted = True
                raise StopIteration

        minimize(wrapped, np.asarray(x0, dtype=np.float64),
                 method="Nelder-Mead",
                 callback=callback,
                 options={"maxfev": opts.max_evals_per_restart,
                          "xatol": opts.xatol, "fatol": opts.fatol,
                          "disp": False})
        patience_stops += aborted
        trace.restarts += 1
    return best_x, best_f, bool(x0s) and patience_stops == len(x0s)


# ---------------------------------------------------------------------------
# Single-component calibration
# ---------------------------------------------------------------------------

def _candidate_model(theta: np.ndarray, weight: WeightFunction,
                     opts: CalibrateOptions) -> NpaModelSpec:
    full = np.concatenate([[0.0], theta])
    r = _softmax(full)
    inc = IncrementDistribution(min_arcs=opts.r_min, probs=tuple(r))
    return NpaModelSpec(weights=weight, increments=inc)


def _model_quality(model: NpaModelSpec, target: CalibrationTarget,
                   opts: CalibrateOptions, g_cmp: int
                   ) -> tuple[float, float, VddSolution, EdgeDegreeMatrix]:
    sol = solve_vdd(model, opts.solver)
    tv = sol.q.tv_distance(target.vdd)
    theta = symmetrize(solve_arc_dd(model, sol, replace(opts.solver,
                                                        u_max=target.u)))
    dist = edd_distance(theta, target.edd, g_cmp, target.u)
    return tv, dist, sol, theta


def calibrate_single(target: CalibrationTarget, weight_mode: str = "linear",
                     opts: CalibrateOptions = CalibrateOptions()
                     ) -> CalibrationResult:
    """Fit the increment distribution (and optionally a power weight exponent).

    Phase 1 fixes natural linear weights and searches {r_k} on the simplex
    over [r_min, r_max]. Phase 2, entered only in "table-free" mode when
    phase 1 misses the threshold, additionally varies the weight exponent.
    """
    if weight_mode not in ("linear", "table-free"):
        raise ValueError(f"unknown weight mode {weight_mode!r}")
    g_cmp = max(opts.r_min, target.edd.min_degree)
    dim = opts.r_max - opts.r_min + 1
    trace = OptimizerTrace(phase=1)

    def phase1_raw(theta: np.ndarray) -> float:
        model = _candidate_model(theta, WeightFunction.linear(g=opts.r_min), opts)
        try:
            tv, dist, _, _ = _model_quality(model, target, opts, g_cmp)
        except SolverFailure:
            trace.solver_failures += 1
            return math.inf
        return opts.alpha_vdd * tv + dist

    seeds = _simplex_seeds(target, opts, dim)
    best_theta, best_obj, stalled = _optimize(phase1_raw, seeds, opts, trace)
    if best_theta is None:
        raise SolverFailure("every candidate model failed to solve")
    best_weight = WeightFunction.linear(g=opts.r_min)
    phase = 1

    if weight_mode == "table-free" and best_obj > opts.phase2_threshold:
        trace.phase = 2

        def phase2_raw(x: np.ndarray) -> float:
            theta, log_alpha = x[:-1], x[-1]
            alpha = math.exp(log_alpha)
            weight = WeightFunction.power(alpha, g=opts.r_min)
            model = _candidate_model(theta, weight, opts)
            try:
                tv, dist, _, _ = _model_quality(model, target, opts, g_cmp)
            except SolverFailure:
                trace.solver_failures += 1
                return math.inf
            return opts.alpha_vdd * tv + dist

        seeds2 = [np.concatenate([best_theta, [0.0]])]
        seeds2.extend(np.concatenate([s, [0.0]]) for s in seeds[:2])
        x2, f2, stalled2 = _optimize(phase2_raw, seeds2, opts, trace)
        # Strictly better only: on ties the model with fewer parameters wins.
        if x2 is not None and f2 < best_obj:
            best_theta = x2[:-1]
            best_weight = WeightFunction.power(math.exp(x2[-1]), g=opts.r_min)
            best_obj = f2
            stalled = stalled2
            phase = 2

    model = _candidate_model(best_theta, best_weight, opts)
    tv, dist, sol, theta = _model_quality(model, target, opts, g_cmp)
    trace.phase = phase
    trace.stalled = stalled
    report = {
        "weight_mode": weight_mode,
        "phase": phase,
        "objective": opts.alpha_vdd * tv + dist,
        "mean_increment": model.increments.mean,
        "mean_weight": sol.mean_weight,
        "control_residual": sol.control_residual,
        "window": [g_cmp, target.u],
        "target_meta": dict(target.source_meta),
    }
    if phase == 2:
        report["weight_exponent"] = best_weight.alpha
    return CalibrationResult(model=model, distance=dist, vdd_tv_error=tv,
                             iterations=trace, report=report)


def _simplex_seeds(target: CalibrationTarget, opts: CalibrateOptions,
                   dim: int) -> list[np.ndarray]:
    ks = np.arange(opts.r_min, opts.r_max + 1, dtype=float)
    uniform = np.zeros(dim - 1)
    shaped_full = _shaped_seed(target.vdd.aligned(opts.r_min, opts.r_max))
    power_full = _shaped_seed(np.power(ks, -2.0))
    seeds = [shaped_full[1:], uniform, power_full[1:]]
    return seeds[:opts.restarts]


# ---------------------------------------------------------------------------
# First-component characterization for composite calibration
# ---------------------------------------------------------------------------

_AER_CACHE: dict[tuple, dict] = {}


@dataclass(frozen=True, eq=False)
class ComponentProfile:
    """What composite mixing needs to know about a fixed first component."""

    spec: Union[NpaModelSpec, AerModelSpec]
    m: float
    vdd: DegreeDistribution
    edd: EdgeDegreeMatrix  # kind = edge, at least the target extent


def component_profile(spec, target: CalibrationTarget,
                      opts: CalibrateOptions) -> ComponentProfile:
    """Analytic profile for growth models; pooled Monte-Carlo for the
    autocorrelated graph, which has no distributional recurrence here.

    The Monte-Carlo estimate keeps both the pruned and unpruned variants;
    the unpruned edge matrix and the pruned vertex distribution feed the
    mixture, since pruning removes whole vertices but barely reshapes edges.
    """
    extent = max(target.u, target.edd.max_degree)
    if isinstance(spec, NpaModelSpec):
        sol = solve_vdd(spec, opts.solver)
        theta = symmetrize(solve_arc_dd(spec, sol,
                                        replace(opts.solver, u_max=extent)))
        return ComponentProfile(spec=spec, m=spec.increments.mean,
                                vdd=sol.q, edd=theta)
    if isinstance(spec, AerModelSpec):
        est = aer_component_estimate(spec, extent, reps=opts.aer_reps,
                                     seed=opts.aer_seed)
        return ComponentProfile(spec=spec, m=spec.a / 2.0,
                                vdd=est["pruned"]["vdd"],
                                edd=est["unpruned"]["edd"])
    raise TypeError(f"unsupported first component {type(spec).__name__}")


def aer_component_estimate(spec: AerModelSpec, u: int, reps: int = 10,
                           seed: int = 987654321) -> dict:
    """Pooled Monte-Carlo vertex and edge distributions, cached per spec.

    Returns {"pruned": {"vdd", "edd"}, "unpruned": {"vdd", "edd"}}.
    """
    key = (spec.n1, float(spec.a), u, reps, seed)
    if key in _AER_CACHE:
        return _AER_CACHE[key]
    from .growth import _prune_small_components  # shared pruning rule

    variants = {"pruned": {"counts": None, "edd": None, "edges": 0, "verts": 0},
                "unpruned": {"counts": None, "edd": None, "edges": 0, "verts": 0}}
    for rep in range(reps):
        full, _ = grow_aer_unpruned(spec, RngStream(seed, rep))
        keep, _, _ = _prune_small_components(full)
        for name, graph in (("unpruned", full), ("pruned", full.induced(keep))):
            acc = variants[name]
            counts = np.bincount(graph.degrees(), minlength=u + 1)
            acc["counts"] = counts if acc["counts"] is None else _pad_add(acc["counts"], counts)
            edd = measure_edd(graph, u)
            weighted = edd.entries * graph.edge_count
            acc["edd"] = weighted if acc["edd"] is None else acc["edd"] + weighted
            acc["edges"] += graph.edge_count
            acc["verts"] += graph.vertex_count
    out = {}
    for name, acc in variants.items():
        counts = acc["counts"]
        lo = int(np.flatnonzero(counts)[0]) if counts.any() else 0
        vdd = DegreeDistribution(min_degree=lo, probs=counts[lo:] / acc["verts"])
        entries = acc["edd"] / acc["edges"]
        edd = EdgeDegreeMatrix(min_degree=1, entries=entries, kind="edge",
                               truncation_mass=1.0 - float(entries.sum()))
        out[name] = {"vdd": vdd, "edd": edd}
    _AER_CACHE[key] = out
    return out


def _pad_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=a.dtype)
    out[:len(a)] += a
    out[:len(b)] += b
    return out


# ---------------------------------------------------------------------------
# Composite calibration
# ---------------------------------------------------------------------------

def calibrate_composite(target: CalibrationTarget, first_component,
                        opts: CalibrateOptions = CalibrateOptions()
                        ) -> CalibrationResult:
    """Two-component fit: a fixed first component plus a calibrated complement.

    For each candidate vertex fraction rho, the complement's target vertex
    distribution and mean are implied by the mixture equations; its increment
    probabilities are then fitted so the mixed edge matrix best matches the
    target. rho itself is refined on a grid that shrinks by rho_refine_factor
    around the best coarse value on each outer iteration; grid values are
    rounded to 12 decimals and each is fitted at most once. The trace's
    stalled flag is that of the reported fit.
    """
    profile = component_profile(first_component, target, opts)
    m_total = target.m
    g_cmp = max(opts.r_min, target.edd.min_degree)

    grid = np.arange(opts.rho_min, opts.rho_max + 1e-12, opts.rho_step)
    grid_log: list[dict] = []
    tried: set[float] = set()
    best: dict | None = None
    trace = OptimizerTrace()
    step = opts.rho_step
    for outer in range(opts.outer_iterations):
        for rho in grid:
            rho = round(float(rho), 12)
            if rho in tried:
                continue
            tried.add(rho)
            entry = {"rho": rho, "outer": outer}
            try:
                result = _fit_complement(target, profile, rho, m_total,
                                         g_cmp, opts, trace)
            except (InfeasibleComplement, NonPositiveResult) as exc:
                entry["skipped"] = str(exc)
                log.info("rho = %.4f skipped: %s", rho, exc)
                grid_log.append(entry)
                continue
            entry["objective"] = result["objective"]
            grid_log.append(entry)
            if best is None or result["objective"] < best["objective"]:
                best = result
        if best is None:
            raise AllRhoInfeasible(
                "no vertex fraction on the grid admitted a feasible complement")
        step = step / opts.rho_refine_factor
        lo = max(opts.rho_min, best["rho"] - opts.rho_refine_factor * step)
        hi = min(opts.rho_max, best["rho"] + opts.rho_refine_factor * step)
        grid = np.arange(lo, hi + 1e-12, step)

    rho = best["rho"]
    trace.stalled = best["stalled"]
    complement: NpaModelSpec = best["model"]
    m2 = complement.increments.mean
    m_mix = rho * profile.m + (1.0 - rho) * m2
    gamma = edge_share(profile.m, rho, m_mix)
    composite = CompositeSpec(
        components=((profile.spec, rho), (complement, 1.0 - rho)),
        total_n=opts.total_n,
        metadata={"gamma": gamma, "m_first": profile.m, "m_complement": m2})
    report = {
        "rho": rho,
        "gamma": gamma,
        "m_first": profile.m,
        "m_total_target": m_total,
        "m_complement_target": best["m2_target"],
        "m_complement_achieved": m2,
        "grid": grid_log,
        "window": [g_cmp, target.u],
        "target_meta": dict(target.source_meta),
    }
    return CalibrationResult(model=composite, distance=best["distance"],
                             vdd_tv_error=best["tv"], iterations=trace,
                             report=report)


def _fit_complement(target: CalibrationTarget, profile: ComponentProfile,
                    rho: float, m_total: float, g_cmp: int,
                    opts: CalibrateOptions, trace: OptimizerTrace) -> dict:
    m2_target = complement_mean(m_total, profile.m, rho)
    q2_target = complement_vdd(target.vdd, profile.vdd, rho)
    dim = opts.r_max - opts.r_min + 1

    def mixed_quality(model: NpaModelSpec) -> tuple[float, float]:
        sol = solve_vdd(model, opts.solver)
        theta2 = symmetrize(solve_arc_dd(model, sol,
                                         replace(opts.solver, u_max=target.u)))
        m2 = model.increments.mean
        m_mix = rho * profile.m + (1.0 - rho) * m2
        mixed_edd = mix_edd([(profile.edd, profile.m, rho),
                             (theta2, m2, 1.0 - rho)], m_mix)
        mixed_vdd = mix_vdd([(profile.vdd, rho), (sol.q, 1.0 - rho)])
        tv = mixed_vdd.tv_distance(target.vdd)
        dist = edd_distance(mixed_edd, target.edd, g_cmp, target.u)
        return tv, dist

    def raw(theta: np.ndarray) -> float:
        model = _candidate_model(theta, WeightFunction.linear(g=opts.r_min), opts)
        try:
            tv, dist = mixed_quality(model)
        except SolverFailure:
            trace.solver_failures += 1
            return math.inf
        return opts.alpha_vdd * tv + dist

    ks = np.arange(opts.r_min, opts.r_max + 1, dtype=float)
    seeds = [_shaped_seed(q2_target.aligned(opts.r_min, opts.r_max))[1:],
             np.zeros(dim - 1),
             _shaped_seed(np.power(ks, -2.0))[1:]][:opts.restarts]
    best_x, _, stalled = _optimize(raw, seeds, opts, trace)
    if best_x is None:
        raise InfeasibleComplement(f"no complement model solved at rho = {rho}")
    model = _candidate_model(best_x, WeightFunction.linear(g=opts.r_min), opts)
    tv, dist = mixed_quality(model)
    return {"rho": rho, "model": model, "objective": opts.alpha_vdd * tv + dist,
            "tv": tv, "distance": dist, "m2_target": m2_target,
            "stalled": stalled}


# ---------------------------------------------------------------------------
# Published presets
# ---------------------------------------------------------------------------

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


def preset_gowalla(total_n: int = 100000) -> CompositeSpec:
    """Autocorrelated component plus a linear-weight growth component."""
    n1 = int(round(GOWALLA_RHO * total_n))
    inc, raw_sum = gowalla_increments()
    complement = NpaModelSpec(weights=WeightFunction.linear(g=1), increments=inc)
    return CompositeSpec(
        components=((AerModelSpec(n1=n1, a=GOWALLA_AER_MEAN_DEGREE), GOWALLA_RHO),
                    (complement, 1.0 - GOWALLA_RHO)),
        total_n=total_n,
        metadata={"name": "gowalla", "increment_raw_sum": raw_sum})


def preset_brightkite(total_n: int = 100000) -> CompositeSpec:
    """Single-arc tree component plus a linear-weight complement.

    The complement's increment table is not published; the preset embeds a
    power-form stand-in over 1..40 matched to the published complement mean,
    so the spec is growable as-is. Calibration against the real network
    refines it.
    """
    m2 = complement_mean(BRIGHTKITE_MEAN_INCREMENT, 1.0, BRIGHTKITE_RHO)
    inc = _power_increments_with_mean(BRIGHTKITE_COMPLEMENT_SUPPORT, m2)
    complement = NpaModelSpec(weights=WeightFunction.linear(g=1), increments=inc)
    return CompositeSpec(
        components=((BaTreeSpec(), BRIGHTKITE_RHO),
                    (complement, 1.0 - BRIGHTKITE_RHO)),
        total_n=total_n,
        metadata={"name": "brightkite",
                  "complement_mean": m2,
                  "complement_increments": "power-form stand-in matched to the "
                                           "complement mean; refine by calibration"})


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
