"""Calibration of growth models against empirical degree distributions.

The increment law of a candidate is not searched for: for fixed weights the
stationary vertex degree recurrence is linear in it, so it follows from the
target's vertex distribution by one small L1 program, solved exactly by a
simplex in numpy. Each candidate is scored by the Euclidean distance
between the model's edge degree matrix and the empirical one over the
target's degree window [g, u], plus the total-variation error of the vertex
degree distribution.
One function, fit, calibrates a growth model alone or mixed with a fixed
first component, whose vertex share it then searches at each weight tried.
Natural linear weights are tried first; table-free mode then searches a
power exponent, which must beat them strictly, so on ties the model with
fewer free parameters wins. One driver, _search, searches every
calibrated parameter, the power exponent and a composite's vertex share, by
golden sections; a search counts what its candidates counted.
Nothing here needs more than numpy. Settings that no workflow varies are
the module constants below; the others are arguments of the function that
reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .constants import R_MIN, RHO_REFINE_FACTOR, TOTAL_N, VARIANTS
from .errors import (AllRhoInfeasible, InfeasibleComplement, NoConvergence,
                     NpaGraphError, SolverFailure, WindowExceedsMatrix)
from .models import (AerModelSpec, CompositeSpec, DegreeDistribution,
                     EdgeDegreeMatrix, Graph, IncrementDistribution,
                     NpaModelSpec, WeightFunction, edd_distance)
from .solver import (complement_mean, complement_vdd, edge_share, mix_edd,
                     mix_vdd, solve_arc_dd, solve_vdd, symmetrize)


K_MAX = 4000  # last vertex degree each candidate's solve stores
ALPHA_MIN = 0.01  # lower end of the table-free search over f_k = k**alpha
ALPHA_XATOL = 1e-5
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # share of a bracket kept per section
AER_REPS = 10  # replicates pooled into the profile of an AER first component
AER_SEED = 987654321
# The increment fit took at most 139 pivots, 0.27 per column, on 900 random
# noisy and exact targets with r_max up to 200 and u up to 500.
SIMPLEX_PIVOTS_PER_COLUMN = 10
PIVOT_RTOL = 1e-9
REDUCED_COST_TOL = 1e-12
FEASIBILITY_TOL = 1e-9


# ---------------------------------------------------------------------------
# Target and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CalibrationTarget:
    """Empirical distributions a model should reproduce.

    u is the comparison extent: the distance is evaluated on the degree
    window [g, u] squared, g the least degree of both the fits and the edge
    matrix; an empty window raises WindowExceedsMatrix. mean_increment
    defaults to half the mean degree of the vertex distribution.
    """

    vdd: DegreeDistribution
    edd: EdgeDegreeMatrix
    u: int
    mean_increment: float | None = None

    def __post_init__(self):
        if self.u <= self.vdd.min_degree:
            raise WindowExceedsMatrix(
                f"comparison extent u = {self.u} must exceed the minimum "
                f"degree {self.vdd.min_degree}")
        if self.edd.max_degree < self.u:
            raise WindowExceedsMatrix(f"edge matrix extent {self.edd.max_degree} "
                                      f"is below u = {self.u}")
        if self.g > self.u:
            raise WindowExceedsMatrix(f"the edge matrix starts at degree {self.g}, "
                                      f"above u = {self.u}")

    @property
    def g(self) -> int:
        return max(R_MIN, self.edd.min_degree)

    @property
    def m(self) -> float:
        if self.mean_increment is not None:
            return self.mean_increment
        return self.vdd.mean() / 2.0


@dataclass
class CalibrationResult:
    """The fitted model and its scores; component_profile(model, u) gives
    back the edge matrix its distance was taken from. A candidate counts one
    evaluation, a search the sum of those it tried (_tally); solver_failures
    sums failure_types."""

    model: Union[NpaModelSpec, CompositeSpec]
    distance: float
    vdd_tv_error: float
    report: dict = field(default_factory=dict)
    evaluations: int = 1
    failure_types: dict = field(default_factory=dict)

    @property
    def objective(self) -> float:
        """What calibration minimises: the VDD error plus the edge-matrix
        distance."""
        return self.vdd_tv_error + self.distance

    @property
    def solver_failures(self) -> int:
        return sum(self.failure_types.values())


# ---------------------------------------------------------------------------
# Inversion of the vertex degree recurrence
# ---------------------------------------------------------------------------

def _invert_vdd(q: DegreeDistribution, weight: WeightFunction, m: float,
                phi: float, u: int, r_max: int) -> IncrementDistribution:
    """Increments on [R_MIN, r_max] with mean m whose stationary vertex
    distribution under weights f and mean weight phi is closest to q in
    total variation.

    For fixed m and phi the recurrence
        (phi + m f_k) Q_k - m f_{k-1} Q_{k-1} = phi r_k
    is linear in r (Krapivsky, Redner & Leyvraz, PRL 85, 4629, 2000), so
    Q_g..Q_D = B r for D = max(r_max, u), and the fit is the L1 program of
    _l1_fit over the rows of B and its tail (see _vdd_program). Raises
    InfeasibleComplement when m lies outside [R_MIN, r_max], where no
    increment law has mean m. Inside it the program is always feasible: the
    two-point law on floor(m) and floor(m) + 1, clamped into the support,
    has sum 1 and mean m, and the slack of each compared row absorbs its
    residual. Its objective is bounded below by 0, so the simplex ends at an
    optimum unless it hits its pivot cap (NoConvergence).
    """
    if not R_MIN <= m <= r_max:
        raise InfeasibleComplement(
            f"mean increment {m!r} lies outside [{R_MIN}, {r_max}]")
    ks = np.arange(R_MIN, r_max + 1, dtype=np.float64)
    a, observed = _vdd_program(q, weight, m, phi, u, r_max)
    r = _with_mean(_l1_fit(a, observed, ks, m), ks, m)
    return IncrementDistribution(min_arcs=R_MIN, probs=tuple(r.tolist()))


def _vdd_program(q: DegreeDistribution, weight: WeightFunction, m: float,
                 phi: float, u: int, r_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, observed): the compared vertex probabilities of the model with
    increments r are A r, and observed are the target's.

    Rows are Q_g..Q_D, the lower-bidiagonal recurrence solved in closed
    form; then the tail beyond D, where no increment starts, so Q_k = c_k Q_D
    with c_k fixed, compared in bins that double in width up to k_max; then
    one bucket for the mass beyond k_max. The bins keep the program small
    whatever k_max is.
    """
    g = weight.g
    d = max(r_max, u)
    k_max = max(K_MAX, 2 * d)  # at least one tail bin
    f = weight.weights_upto(k_max)
    # An increment r_j, j >= g, enters Q_j with the factor phi / (phi + m f_j)
    # and reaches each k > j damped by m f_{k-1} / (phi + m f_k); the damping
    # from g is summed in logs, so that no product underflows.
    log_damp = np.concatenate([[0.0], np.cumsum(np.log(
        m * f[g:d] / (phi + m * f[g + 1:d + 1])))])
    js = np.arange(R_MIN, r_max + 1)
    from_j = np.minimum(log_damp[:, None] - log_damp[np.maximum(js - g, 0)], 0.0)
    b = np.tril(phi / (phi + m * f[js]) * np.exp(from_j), g - R_MIN)
    b[:, js < g] = 0.0
    c = np.cumprod(m * f[d:k_max] / (phi + m * f[d + 1:]))
    starts = (d + 1) * (2 ** np.arange(int(math.log2(k_max / (d + 1))) + 1) - 1)
    # Summing the recurrence over k > k_max: phi sum Q_k = m f_kmax Q_kmax.
    c_beyond = float(c[-1]) * f[k_max] / (phi / m)
    q_beyond = q.truncation_mass + float(q.probs[max(0, k_max + 1 - q.min_degree):].sum())
    observed = np.concatenate([q.aligned(g, d),
                               np.add.reduceat(q.aligned(d + 1, k_max), starts),
                               [q_beyond]])
    tail = np.append(np.add.reduceat(c, starts), c_beyond)
    return np.vstack([b, np.outer(tail, b[-1])]), observed


def _l1_fit(a: np.ndarray, observed: np.ndarray, ks: np.ndarray, m: float
            ) -> np.ndarray:
    """r >= 0 with sum 1 and mean m that minimises |A r - observed|_1.

    A revised simplex over the columns r, p and s, with A r - p + s =
    observed and p, s >= 0, and the sum and mean rows. The start is feasible
    in closed form: the two-point law on floor(m) and floor(m) + 1, clamped
    into the support, with p_i or s_i basic by the sign of row i's residual.

    A basic p_i or s_i is a signed unit column, so a basis is its basic r
    columns and as many tight rows: the sum and mean rows and each compared
    row whose slacks are both nonbasic. Each pivot inverts only the square
    block of those columns on those rows, at most r_max - R_MIN + 1 wide
    whatever the number of compared rows. The block is formed afresh at
    every pivot; the values are carried from pivot to pivot, so that a
    degenerate value stays exactly 0.

    The entering column has the most negative reduced cost (Dantzig's rule).
    Along its ray a basic slack that reaches 0 flips to its partner for as
    long as the objective still falls (Barrodale & Roberts, SIAM J. Numer.
    Anal. 10(5), 1973), so that one pivot passes many vertices. While pivots
    stall at one vertex, the smallest index enters and no slack flips
    (Bland's rule, Math. Oper. Res. 2(2), 1977). Ties in the ratio test go
    to the smallest index. A leaving entry must exceed PIVOT_RTOL times the
    largest entry of its direction, so that the basis stays well
    conditioned. A skipped entry voids Bland's guarantee against cycling and
    can leave a basic value slightly negative. So the pivot cap is what ends
    the loop, and the optimum's values are recomputed from the block: the
    cap, and a value below -FEASIBILITY_TOL, raise NoConvergence.
    """
    n_cmp, n_r = a.shape
    if n_r == 1:  # the sum and mean rows coincide; r = (1,) is the only law
        return np.ones(1)
    cols = np.hstack([a.T, np.ones((n_r, 1)), ks[:, None]])
    rhs = np.concatenate([observed, [1.0, m]])
    lo = min(math.floor(m) - int(ks[0]), n_r - 2)
    start = np.zeros(n_r)
    start[lo + 1] = m - ks[lo]
    start[lo] = 1.0 - start[lo + 1]
    basic_r, tight = [lo, lo + 1], [n_cmp, n_cmp + 1]
    # Per row, the basic slack: +1 for s_i, -1 for p_i, 0 on a tight row.
    residual = observed - a @ start
    sign = np.concatenate([np.where(residual >= 0.0, 1.0, -1.0), [0.0, 0.0]])
    # The value of every column, carried from pivot to pivot so that a
    # degenerate value stays exactly 0.
    x = np.concatenate([start, np.maximum(-residual, 0.0),
                        np.maximum(residual, 0.0)])
    cap = SIMPLEX_PIVOTS_PER_COLUMN * (n_r + 2 * n_cmp)
    stalled = False
    for _ in range(cap):
        on_r = cols[basic_r]
        inv = np.linalg.inv(on_r[:, tight].T)
        loose = np.flatnonzero(sign)
        y = sign.copy()
        y[tight] = -(on_r @ sign) @ inv
        # Reduced costs of the r columns, then of the better slack of each
        # tight compared row; the nonbasic slack of a loose row costs 2.
        y_t = y[tight[2:]]
        reduced = np.concatenate([-(cols @ y), 1.0 - np.abs(y_t)])
        reduced[basic_r] = 0.0
        index = np.concatenate([np.arange(n_r), n_r + np.array(tight[2:], dtype=int)
                                + n_cmp * (y_t > 0.0)])
        entering = np.flatnonzero(reduced < -REDUCED_COST_TOL)
        if not len(entering):
            x_r = inv @ rhs[tight]
            if min(x_r.min(), (sign * (rhs - x_r @ on_r)).min()) < -FEASIBILITY_TOL:
                raise NoConvergence("increment fit: the optimal basis is "
                                    "infeasible beyond rounding")
            r = np.zeros(n_r)
            r[basic_r] = x_r
            return r
        enter = int(entering[np.argmin(index[entering])] if stalled
                    else np.argmin(reduced))
        if enter < n_r:
            column = cols[enter]
        else:
            row_in = tight[2 + enter - n_r]
            column = np.zeros(n_cmp + 2)
            column[row_in] = enter_sign = 1.0 if y[row_in] > 0.0 else -1.0
        w_r = inv @ column[tight]
        w = np.concatenate([w_r, (sign * (column - w_r @ on_r))[loose]])
        n_b = len(basic_r)
        var = np.concatenate([basic_r, n_r + loose + n_cmp * (sign[loose] > 0.0)])
        # Basic values that fall along the ray, in the order they reach 0,
        # ties by index. A slack that reaches 0 may flip to its partner,
        # which adds twice its rate to the objective's slope; the first
        # r column, or slack whose flip would end the descent, leaves.
        sound = w > PIVOT_RTOL * np.abs(w).max()
        if stalled:  # Bland's rule: no slack may flip
            falling = np.flatnonzero(sound)
        else:
            falling = np.flatnonzero(sound | ((w > 0.0) & (np.arange(len(w)) >= n_b)))
        value = np.maximum(x[var], 0.0)
        falling = falling[np.lexsort((var[falling], value[falling] / w[falling]))]
        slope = reduced[enter] + 2.0 * np.cumsum(
            np.where(falling >= n_b, w[falling], 0.0))
        stops = np.flatnonzero(sound[falling] & ((falling < n_b) | (slope >= 0.0)
                                                 | stalled))
        if not len(stops):
            raise NoConvergence("increment fit: the L1 program is unbounded")
        out = int(falling[stops[0]])
        step = value[out] / w[out]
        x[var] -= step * w
        flipped = falling[:stops[0]]
        partner = var[flipped] + np.where(sign[loose[flipped - n_b]] > 0.0,
                                          -n_cmp, n_cmp)
        x[partner] = -x[var[flipped]]
        x[var[flipped]] = 0.0
        sign[loose[flipped - n_b]] *= -1.0
        x[var[out]] = 0.0
        x[index[enter]] = step
        stalled = step == 0.0
        if out < n_b:  # an r column leaves
            if enter < n_r:
                basic_r[out] = enter
                continue
            del basic_r[out]
        else:  # the slack of a compared row leaves, and the row turns tight
            row_out = int(loose[out - n_b])
            sign[row_out] = 0.0
            tight.append(row_out)
            if enter < n_r:
                basic_r.append(enter)
                continue
        tight.remove(row_in)
        sign[row_in] = enter_sign
    raise NoConvergence(
        f"increment fit: no optimum within {cap} simplex pivots")


def _with_mean(r: np.ndarray, ks: np.ndarray, m: float) -> np.ndarray:
    """r made a distribution with mean exactly m.

    The simplex meets its equality rows only to rounding, and a basic entry
    may come out below 0, by no more than FEASIBILITY_TOL. Tilting r_k by 1 + t (k - mean)
    keeps the sum at 1 and moves the mean by t times the variance, so one
    step lands on m.
    """
    r = np.maximum(r, 0.0)
    r = r / r.sum()
    mean = float(ks @ r)
    var = float(((ks - mean) ** 2) @ r)
    if var > 0.0:
        r = np.maximum(r * (1.0 + (m - mean) / var * (ks - mean)), 0.0)
        r = r / r.sum()
    return r


def _mean_weight(q: DegreeDistribution, weight: WeightFunction) -> float:
    """sum_k f_k Q_k over the stored degrees of q."""
    return float((weight.weights_upto(q.max_degree, q.min_degree) * q.probs).sum())


# ---------------------------------------------------------------------------
# Scoring a candidate
# ---------------------------------------------------------------------------

def _candidate(target: CalibrationTarget, weight: WeightFunction, m: float,
               r_max: int, first: ComponentProfile | None = None,
               rho: float = 0.0) -> CalibrationResult | NpaGraphError:
    """The candidate with these weights whose increments, of mean m, invert
    the target's VDD, solved, mixed at vertex share rho with the first
    component when one is given, and scored on the target's window; or the
    error that skipped it. The report holds the solve's mean weight and
    control residual.

    With a first component, the mean and VDD inverted are the complement's,
    implied by the mixture equations. The complement VDD is the exact
    inverse of the mixture, negative entries kept, so the L1 fit weighs
    them like any other misfit. The mean weight phi is 2m for f_k = k
    (the control identity), otherwise the inverted VDD's sum f_k Q_k.

    One failure rule for every candidate: one that cannot be formed, its
    mean outside [R_MIN, r_max] (InfeasibleComplement), is skipped before
    any solve; one whose increment fit or solve fails returns that
    SolverFailure and is skipped. The search that tried it counts it by
    _tally, which leaves out the first kind.
    """
    q = target.vdd
    try:
        if first is not None:
            m = complement_mean(m, first.m, rho)
            q = complement_vdd(q, first.vdd, rho)
        phi = 2.0 * m if weight.is_degree() else _mean_weight(q, weight)
        model = NpaModelSpec(weights=weight, increments=_invert_vdd(
            q, weight, m, phi, target.u, r_max))
        solved = component_profile(model, target.u, K_MAX)
    except (InfeasibleComplement, SolverFailure) as exc:
        return exc
    scored = solved if first is None else _mix([(first, rho), (solved, 1.0 - rho)])
    return CalibrationResult(
        model=model, distance=edd_distance(scored.edd, target.edd, target.g, target.u),
        vdd_tv_error=scored.vdd.tv_distance(target.vdd),
        report={"mean_weight": solved.record["mean_weight"],
                "control_residual": solved.record["control_residual"]})


def _objective(candidate: CalibrationResult | NpaGraphError) -> float:
    """A candidate's objective; infinite for one that was skipped."""
    if isinstance(candidate, CalibrationResult):
        return candidate.objective
    return math.inf


def _tally(tried) -> dict:
    """A search's counts, the sums of those of what it tried: a result's
    own, one evaluation failed by its class for a SolverFailure, and none
    for a candidate that could not be formed (InfeasibleComplement)."""
    evaluations, failures = 0, {}
    for c in tried:
        if isinstance(c, SolverFailure):
            c = CalibrationResult(None, 0.0, 0.0, failure_types={type(c).__name__: 1})
        if isinstance(c, CalibrationResult):
            evaluations += c.evaluations
            for name, count in c.failure_types.items():
                failures[name] = failures.get(name, 0) + count
    return {"evaluations": evaluations, "failure_types": failures}


def _failed(message: str, counts: dict) -> str:
    """message, then "; N failed with <Class>" for each class of failure."""
    return message + "".join(f"; {count} failed with {name}"
                             for name, count in counts["failure_types"].items())


def _search(fit_at, lo: float, hi: float, xatol: float, name: str, point=None):
    """(parameter, fits, grid): golden sections narrow [lo, hi] around a
    minimum of the objective to a bracket at most xatol wide, one new probe
    per step (Kiefer, Proc. AMS 4, 502 (1953)); the parameter is that of the
    least objective fitted, the lowest on ties, and fits maps each parameter
    fitted to its candidate, in fit order.

    Without point, probe x is the parameter. With it, x indexes the lattice
    point(i): each probe is snapped to the nearest i, and every point left
    in the final bracket is then fitted. Probes in a wider bracket lie over
    a point apart, so this finds the lattice's best if it has one local
    minimum, as every measured target has. A skipped candidate scores
    infinity, so a tie of two skipped probes moves the bracket down.
    fit_at(p) runs once per parameter p, and grid logs each fit in order:
    {name: p} with its "objective", or the reason it was "skipped", a
    solver failure's by its class and message.
    """
    fits, grid = {}, []

    def at(x: float) -> float:
        p = x if point is None else point(int(round(x)))
        if p not in fits:
            fits[p] = candidate = fit_at(p)
            entry = {name: p}
            if isinstance(candidate, CalibrationResult):
                entry["objective"] = candidate.objective
            else:
                entry["skipped"] = (f"{type(candidate).__name__}: {candidate}"
                                    if isinstance(candidate, SolverFailure)
                                    else str(candidate))
                import logging
                logging.getLogger(__name__).info(
                    "%s = %.4f skipped: %s", name, p, entry["skipped"])
            grid.append(entry)
        return _objective(fits[p])

    a, b = lo, hi
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = at(c), at(d)
    while b - a > xatol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = at(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = at(d)
    if point is not None:
        for i in range(math.ceil(a), math.floor(b) + 1):
            at(i)
    return min(fits, key=lambda p: (_objective(fits[p]), p)), fits, grid


# ---------------------------------------------------------------------------
# Profiles of specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ComponentProfile:
    """What mixing needs to know about a spec; kept is the share of its grown
    vertices that its written graph keeps, and record what solution.json
    writes for the spec."""

    m: float  # edges per written vertex
    vdd: DegreeDistribution
    edd: EdgeDegreeMatrix  # kind = edge, up to the extent u it was made for
    kept: float
    record: dict


def _profile(m: float, vdd, edd, record: dict, kept: float = 1.0) -> ComponentProfile:
    """The profile; its record adds m and the truncated masses to `record`."""
    return ComponentProfile(m, vdd, edd, kept, {
        "mean_increment": m, "vdd_truncation_mass": vdd.truncation_mass,
        "edd_truncation_mass": edd.truncation_mass, **record})


def component_profile(spec, u: int, k_max: int = K_MAX,
                      variant: str = VARIANTS[0]) -> ComponentProfile:
    """The profile of any spec, its edge matrix up to u (no cell of [g, u]
    depends on a larger extent). A growth model keeps every vertex and is
    solved with these settings; its record holds the solve's mean weight,
    mean degree and control residual. An AER model has no distributional
    recurrence here: it is measured on the pruned graph growth writes for
    it at its own n1, pooled over AER_REPS replicates from seed AER_SEED,
    which its record holds with its kept share. A composite mixes its
    components at their vertex shares of the written graph: each
    growth-budget fraction times its kept share, renormalised, which undoes
    the budget fit gives a first component."""
    if isinstance(spec, NpaModelSpec):
        sol = solve_vdd(spec, k_max)
        return _profile(spec.increments.mean, sol.q,
                        symmetrize(solve_arc_dd(spec, sol, u, variant)),
                        {"mean_weight": sol.mean_weight, "mean_degree": sol.mean_degree,
                         "control_residual": sol.control_residual})
    if isinstance(spec, AerModelSpec):
        from .growth import RngStream, grow, measure_edd, measure_vdd
        graph = Graph.disjoint_union([grow(spec, spec.n1, RngStream(AER_SEED, rep))
                                      for rep in range(AER_REPS)])
        vdd = measure_vdd(graph)  # first: EmptyInput for no vertex
        kept = graph.vertex_count / (AER_REPS * spec.n1)
        return _profile(graph.edge_count / graph.vertex_count, vdd,
                        measure_edd(graph, u), {"kept": kept, "aer_seed": AER_SEED,
                                                "aer_replicates": AER_REPS}, kept)
    parts = [component_profile(model, u, k_max, variant)
             for model, _ in spec.components]
    written = [part.kept * budget for part, (_, budget) in zip(parts, spec.components)]
    kept = sum(written)
    return _mix([(part, w / kept) for part, w in zip(parts, written)], kept)


def _mix(parts, kept: float = 1.0) -> ComponentProfile:
    """The profile of a graph whose vertices are split among the graphs of
    (profile, vertex share) parts; m is their mean, edges mixed by mix_edd,
    and its record lists each part's with its kept and vertex shares."""
    return _profile(
        sum(part.m * share for part, share in parts),
        mix_vdd([(part.vdd, share) for part, share in parts]),
        mix_edd([(part.edd, part.m, share) for part, share in parts]),
        {"kept": kept, "components": [
            {**part.record, "kept": part.kept, "vertex_share": share}
            for part, share in parts]}, kept)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def fit(target: CalibrationTarget, first=None, weights: str = "linear",
        r_max: int = 50, rho_min: float = 0.025, rho_max: float = 0.975,
        rho_step: float = 0.025) -> CalibrationResult:
    """Fit the increments (and optionally a power weight exponent) of a
    growth model, alone or as the complement of the spec first.

    At given weights the candidate is a _candidate of mean increment the
    target's, clamped into [R_MIN, r_max], or with first the best composite
    over its vertex share (_rho_search). Phase 1 fixes natural linear
    weights, whose mean weight is phi = 2m by the control identity. Phase
    2, under "table-free" weights, searches the exponent alpha of f_k =
    k**alpha over (0, 1] by _search, logged in alpha_grid; at each alpha,
    phi is the inverted VDD's sum f_k Q_k. It wins only by a strictly lower
    objective: on ties the model with fewer parameters wins. Uncapped
    superlinear weights have no stationary distribution, so the range loses
    nothing. When every candidate fails, SolverFailure names the failures
    by class. The result counts every candidate tried, nested ones included.
    """
    if weights not in ("linear", "table-free"):
        raise ValueError(f"unknown weight mode {weights!r}")
    if first is None:
        m = min(max(target.m, float(R_MIN)), float(r_max))
        at = lambda weight: _candidate(target, weight, m, r_max)
    else:
        profile = component_profile(first, target.u, K_MAX)
        at = lambda weight: _rho_search(
            target, first, profile, weight, r_max, rho_min, rho_max, rho_step)
    tried = [at(WeightFunction.linear(g=R_MIN))]
    best, phase, searched = tried[0], 1, {}
    if weights == "table-free":
        alpha, fits, searched["alpha_grid"] = _search(
            lambda alpha: at(WeightFunction.power(alpha, g=R_MIN)),
            ALPHA_MIN, 1.0, ALPHA_XATOL, "alpha")
        tried += fits.values()
        if _objective(fits[alpha]) < _objective(best):
            best, phase, searched["weight_exponent"] = fits[alpha], 2, alpha
    if not isinstance(best, CalibrationResult):
        raise SolverFailure(_failed("every candidate model failed to solve",
                                    _tally(tried))) from best
    best = replace(best, **_tally(tried))
    if first is None:
        best.report.update(weight_mode=weights, phase=phase, objective=best.objective,
                           mean_increment=best.model.increments.mean,
                           mean_increment_target=m)
    best.report.update({"window": [target.g, target.u],
                        "recurrence_variant": VARIANTS[0], **searched})
    return best


def _rho_search(target: CalibrationTarget, first, profile: ComponentProfile,
                weight: WeightFunction, r_max: int, rho_min: float,
                rho_max: float, rho_step: float) -> CalibrationResult:
    """The composite of first (of the given profile) and a complement with
    these weights at the best vertex fraction rho.

    For each candidate rho, _candidate forms the complement's target vertex
    distribution and mean from the mixture equations, inverts them for its
    increments and scores the mixed model. _search tries the lattice
    rho_min + i h <= rho_max, h = rho_step / RHO_REFINE_FACTOR, rounded to
    12 decimals, to a bracket at most rho_step wide; the grid logs each rho.
    The complement mean (m - rho m1) / (1 - rho) is monotone in rho and m at
    rho = 0, so the rhos skipped for it form one block at the top, which
    the search leaves downwards. When every rho is skipped, AllRhoInfeasible
    names the failures by class. rho is the first component's vertex share
    of the written graph; the composite, written for TOTAL_N vertices,
    gives it the growth budget rho / (kept (1 - rho) + rho) whose pruned
    graph holds that share.
    """
    h = rho_step / RHO_REFINE_FACTOR
    rho, fits, grid = _search(
        lambda rho: _candidate(target, weight, target.m, r_max, profile, rho),
        0, int((rho_max - rho_min) / h + 1e-9), RHO_REFINE_FACTOR, "rho",
        lambda i: round(rho_min + i * h, 12))
    best, counts = fits[rho], _tally(fits.values())
    if not isinstance(best, CalibrationResult):
        raise AllRhoInfeasible(_failed(
            "no vertex fraction searched admitted a feasible complement", counts))

    complement: NpaModelSpec = best.model
    m2 = complement.increments.mean
    m_mix = rho * profile.m + (1.0 - rho) * m2
    gamma = edge_share(profile.m, rho, m_mix)
    fraction = rho / (profile.kept + rho * (1.0 - profile.kept))  # rho at kept = 1
    composite = CompositeSpec(
        components=((first, fraction), (complement, 1.0 - fraction)),
        total_n=TOTAL_N,
        metadata={"gamma": gamma, "m_first": profile.m, "m_complement": m2})
    report = {
        "rho": rho,
        "gamma": gamma,
        "m_first": profile.m,
        "m_total_target": target.m,
        "m_complement_target": complement_mean(target.m, profile.m, rho),
        "m_complement_achieved": m2,
        "grid": grid,
    }
    return replace(best, model=composite, report=report, **counts)
