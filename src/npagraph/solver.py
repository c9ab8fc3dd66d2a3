"""Stationary degree-distribution solver and mixture algebra.

The vertex degree recurrence
    Q_k = (r_k * phi + m * f_{k-1} * Q_{k-1}) / (phi + m * f_k)
is solved for the mean weight phi as a fixed point of
    phi -> sum_k f_k * Q_k(phi);
when f_k = k the weight is the degree and phi = 2 m in closed form, and
when f_k = v it is phi = v, since sum_k Q_k = 1 at every phi. At a given
phi the recurrence runs step by step over the increment support; beyond it
no increment starts, so each Q_k is the last of those times one cumulative
product of the dampings m f_{k-1} / (phi + m f_k).
The control quantity mean_degree = sum_k k * Q_k must equal twice the
mean increment arc count, and the residual is always reported.

Moments include the tail beyond the computed range k <= K, otherwise
power-law tails would bias the fixed point and the control residual far
above the advertised tolerances. Summing the recurrence over k > K, once
as it stands and once times k, gives the tail exactly:
    phi sum_{k>K} Q_k = m f_K Q_K,
    phi sum_{k>K} k Q_k = m ((K + 1) f_K Q_K + sum_{k>K} f_k Q_k),
where the last sum is the tail degree mass for linear weights and v times
the tail mass for constant ones; power weights sum it numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import VARIANTS
from .errors import (InfeasibleComplement, NoConvergence, TruncationTooSevere,
                     ValidationError, Violation, WindowExceedsMatrix)
from .models import (NORMALIZATION_TOL, STORED_MASS_SLACK, DegreeDistribution,
                     EdgeDegreeMatrix, NpaModelSpec)

# Most arc-matrix mass a mass-conserving variant may miss beyond what
# truncation at the extent u explains.
EDD_MASS_TOLERANCE = 1e-3
FP_TOLERANCE = 1e-10  # relative bracket width of the mean-weight bisection


@dataclass(frozen=True, eq=False)
class VddSolution:
    """Solved vertex degree distribution with its consistency diagnostics.

    mean_degree and mean_weight include the tail beyond the stored range;
    control_residual = |mean_degree - 2 m| is reported, never dropped.
    """

    q: DegreeDistribution
    mean_weight: float
    mean_degree: float
    control_residual: float
    tail_mass: float = 0.0
    tail_degree_mass: float = 0.0


# ---------------------------------------------------------------------------
# Tail sums beyond the computed range
# ---------------------------------------------------------------------------

def _tail_sums(asym: tuple, phi: float, m: float, q_top: float, k_top: int,
               f_top: float, chunks: list) -> tuple[float, float, float]:
    """(sum Q_k, sum k Q_k, sum f_k Q_k) over k > K = k_top, where r_k = 0.

    The first two follow from the third by the summation identities in the
    module docstring, given Q_K = q_top and f_K = f_top. Returns infinities
    when the tail mean diverges, which the fixed-point bracketing interprets
    as "phi too small". chunks caches the power tail's weights (see
    _power_tail_weight) across calls at the same asym and k_top.
    """
    kind = asym[0]
    if kind == "finite" or q_top <= 0.0:
        return 0.0, 0.0, 0.0
    rate = phi / m
    head = q_top * f_top
    t_mass = head / rate
    if kind == "linear":
        if rate <= 1.0 + 1e-12:
            return math.inf, math.inf, math.inf
        t_kmass = head * (k_top + 1) / (rate - 1.0)
        return t_mass, t_kmass, t_kmass
    if kind == "constant":
        t_fmass = asym[1] * t_mass
    else:
        t_fmass = _power_tail_weight(asym[1], phi, m, q_top, k_top, chunks)
        if math.isinf(t_fmass):
            return math.inf, math.inf, math.inf
    return t_mass, (head * (k_top + 1) + t_fmass) / rate, t_fmass


def _power_tail_weight(alpha: float, phi: float, m: float, q_top: float,
                       k_top: int, chunks: list) -> float:
    """sum f_k Q_k over k > k_top for f_k = k**alpha with alpha < 1.

    Up to eight exact chunks settle fast-decaying tails and expose
    divergence; a slow remainder closes in one incomplete-gamma step. The
    chunks stop once the geometric estimate of the remaining sum k Q_k falls
    below 1e-13. Chunk i's degrees and weights depend on neither phi nor
    q_top, so they are made on first use and kept in chunks.
    """
    size = 4096
    t_fmass = 0.0
    q_prev = q_top
    prev_sk = None
    for i in range(8):
        if i == len(chunks):
            ks = np.arange(k_top + 1 + i * size, k_top + 1 + (i + 1) * size,
                           dtype=np.float64)
            chunks.append((ks, np.power(ks, alpha), np.power(ks - 1.0, alpha)))
        ks, f_now, f_prev = chunks[i]
        qs = q_prev * np.cumprod(m * f_prev / (phi + m * f_now))
        s_k = float((ks * qs).sum())
        t_fmass += float((f_now * qs).sum())
        q_prev = float(qs[-1])
        if q_prev == 0.0 or s_k == 0.0:
            return t_fmass
        if prev_sk is not None:
            if s_k >= prev_sk:
                # Contributions are not shrinking: the tail diverges (this is
                # how a too-small phi presents during bracketing).
                return math.inf
            ratio = s_k / prev_sk
            if s_k * ratio / (1.0 - ratio) < 1e-13:
                return t_fmass
        prev_sk = s_k
    return t_fmass + _stretched_tail_moment(alpha, phi / m, int(ks[-1]), q_prev)


def _stretched_tail_moment(alpha: float, rate: float, k0: int, q0: float) -> float:
    """sum_{k > k0} k^alpha Q_k for Q_k ~ q0 (k0/k)^alpha exp(-rate (k^b - k0^b)/b),
    b = 1 - alpha.

    The continuous form telescopes to an upper incomplete gamma function of
    order s = 1/b, taken in log space; relative accuracy is O(1/k0).
    """
    b = 1.0 - alpha
    cb = rate / b
    s = 1.0 / b
    t0 = cb * k0 ** b
    ln = (math.log(q0) + alpha * math.log(k0) + t0 - math.log(b)
          - s * math.log(cb) + _ln_upper_gamma(s, t0))
    if ln > 700.0:
        return math.inf
    return math.exp(ln)


def _ln_upper_gamma(s: float, x: float) -> float:
    """log Gamma(s, x) for s, x > 0.

    Below x = s + 2 + sqrt(s) it is Gamma(s) less the series of the lower
    function, gamma(s, x) = x^s e^-x / s * sum_n prod_{j <= n} x / (s + j),
    whose terms peak near n = x - s and fade within a few sqrt(s) more; at
    and above it the continued fraction (Press et al., Numerical Recipes,
    section 6.2).
    """
    if x >= s + 2.0 + math.sqrt(s):
        return s * math.log(x) - x + _ln_upper_gamma_cf(s, x)
    terms = np.cumprod(x / (s + np.arange(1.0, 65.0 + 16.0 * math.sqrt(s))))
    ln_lower = s * math.log(x) - x - math.log(s) + math.log1p(float(terms.sum()))
    ln_full = math.lgamma(s)
    return ln_full + math.log1p(-math.exp(ln_lower - ln_full))


def _ln_upper_gamma_cf(s: float, x: float) -> float:
    """log of the continued-fraction factor h in Gamma(s, x) = x^s e^-x h.

    Lentz evaluation; converges for x well above s, which is exactly the
    regime where the regularized gamma underflows. Raises NoConvergence
    outside that regime or when 400 terms do not settle.
    """
    if x < s + 2.0:
        raise NoConvergence(f"continued fraction of Gamma({s!r}, {x!r}) "
                            "needs x >= s + 2")
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 400):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return math.log(h)
    raise NoConvergence(f"continued fraction of Gamma({s!r}, {x!r}) did not "
                        "settle in 400 terms")


# ---------------------------------------------------------------------------
# Vertex degree distribution
# ---------------------------------------------------------------------------

class _VddEngine:
    """Caches the degree-indexed vectors for repeated evaluations at many phi."""

    def __init__(self, model: NpaModelSpec, k_max: int):
        w = model.weights
        inc = model.increments
        self.g = w.g
        self.m = inc.mean
        # The stored range is k_max; the computation range additionally covers
        # the increment support, the weight table, and the saturation degree
        # M + 1 so tail formulas start in pure-rule territory.
        k_need = max(k_max, inc.max_arcs + 1, w.table_end() + 2)
        if w.M is not None:
            k_need = max(k_need, w.M + 1)
        self.k_top = k_need
        self.k_store = k_max
        self.f = w.weights_upto(self.k_top, self.g)
        self.r = inc.prob_array()
        self.r_start = inc.min_arcs - self.g
        self.ks = np.arange(self.g, self.k_top + 1, dtype=np.float64)
        self.asym = w.asymptote()
        self.tail_chunks: list = []

    def distribution(self, phi: float) -> np.ndarray:
        """Q_g..Q_K at mean weight phi, by the recurrence over the increment
        support and one damping product beyond it; Q_k = 0 below min_arcs."""
        den = phi + self.m * self.f
        damp = self.m * self.f[:-1] / den[1:]  # carries Q_{k-1} to Q_k
        lo, hi = self.r_start, self.r_start + len(self.r)
        head = (phi * self.r / den[lo:hi]).tolist()
        for i, d in enumerate(damp[lo:hi - 1].tolist(), 1):
            head[i] += d * head[i - 1]
        q = np.zeros(len(self.f))
        q[lo:hi] = head
        q[hi:] = head[-1] * np.cumprod(damp[hi - 1:])
        return q

    def tails(self, phi: float, q: np.ndarray) -> tuple[float, float, float]:
        return _tail_sums(self.asym, phi, self.m, float(q[-1]), self.k_top,
                          float(self.f[-1]), self.tail_chunks)

    def weighted_sum(self, phi: float) -> float:
        q = self.distribution(phi)
        _, _, t_f = self.tails(phi, q)
        s = float((self.f * q).sum())
        return s + t_f


def _fixed_point(engine: _VddEngine) -> float:
    """The mean weight phi solving phi = sum f_k Q_k(phi).

    When the weight is the degree at every computed degree and in the tail,
    sum f_k Q_k(phi) is the mean degree m phi / (phi - m), whose only fixed
    point is phi = 2 m, returned exactly. When it is a constant v there,
    sum f_k Q_k(phi) = v sum Q_k = v at every phi, so phi = v. Other weights
    are bracketed by doubling phi from 1 and bisected until the bracket is
    narrower than FP_TOLERANCE relative to phi, or cannot shrink
    further. A residual that is not positive at phi = 1e-9, or still
    positive after 200 doublings, means there is no stationary regime to
    bracket.
    """
    if engine.asym == ("linear", 1.0) and np.array_equal(engine.f, engine.ks):
        return 2.0 * engine.m
    if engine.asym[0] == "constant" and (engine.f == engine.asym[1]).all():
        return engine.asym[1]

    def residual(phi: float) -> float:
        s = engine.weighted_sum(phi)
        return math.inf if math.isinf(s) else s - phi

    lo = 1e-9
    if residual(lo) <= 0.0:
        raise NoConvergence("no positive residual at phi = 1e-9; cannot bracket")
    hi = 1.0
    for _ in range(200):
        if residual(hi) <= 0.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise NoConvergence("mean weight diverges; no stationary regime")
    while hi - lo > FP_TOLERANCE * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_vdd(model: NpaModelSpec, k_max: int = 10000) -> VddSolution:
    """Solve the stationary vertex degree distribution of a growth model.

    Returns the distribution up to the last stored degree k_max, the mean
    weight, the mean degree (tail-corrected; for finite M the summation
    naturally extends to the saturation degree M + 1), and the control
    residual against twice the mean increment arc count. The mass beyond
    k_max is recorded as q.truncation_mass, whatever its size; the mean
    weight already accounts for it through the same tail sums, and is
    bisected to FP_TOLERANCE; weights f_k = k or f_k = v need no search. A
    k_max below g, or uncapped superlinear weights, raise ValidationError.
    """
    if k_max < model.g:
        raise ValidationError([Violation(
            "EmptySupport", f"need k_max >= g, got {k_max} and {model.g}")])
    engine = _VddEngine(model, k_max)
    if engine.asym[0] == "power" and engine.asym[1] > 1.0:
        raise ValidationError([Violation("NoStationaryLaw", (
            "superlinear weights without a degree cap concentrate attachment "
            "on one vertex; no stationary distribution exists"))])
    phi = _fixed_point(engine)
    q_full = engine.distribution(phi)
    t_mass, t_kmass, _ = engine.tails(phi, q_full)
    if math.isinf(t_mass):
        raise NoConvergence("tail diverges at the solved fixed point")

    stored = q_full[:engine.k_store - engine.g + 1]
    beyond = q_full[engine.k_store - engine.g + 1:]
    tail_mass = t_mass + float(beyond.sum())
    tail_kmass = t_kmass + float((engine.ks[engine.k_store - engine.g + 1:] * beyond).sum())

    truncation = 1.0 - float(stored.sum())
    if truncation < 0.0 and truncation > -STORED_MASS_SLACK:
        truncation = 0.0
    if truncation < 0.0:
        raise NoConvergence(f"stored mass exceeds 1 by {-truncation!r}")

    mean_degree = float((engine.ks[:len(stored)] * stored).sum()) + tail_kmass
    q = DegreeDistribution(min_degree=engine.g, probs=stored,
                           truncation_mass=truncation)
    return VddSolution(q=q, mean_weight=phi, mean_degree=mean_degree,
                       control_residual=abs(mean_degree - 2.0 * engine.m),
                       tail_mass=tail_mass, tail_degree_mass=tail_kmass)


# ---------------------------------------------------------------------------
# Directed (arc) degree matrix
# ---------------------------------------------------------------------------

def solve_arc_dd(model: NpaModelSpec, vdd: VddSolution, u: int,
                 variant: str = VARIANTS[0]) -> EdgeDegreeMatrix:
    """Joint (tail degree, head degree) arc probabilities on [g, u]^2.

    Each cell obeys X[l, k] = src[l, k] + up[l, k] X[l-1, k]
    + left[l, k] X[l, k-1] (Krapivsky & Redner, PRE 63, 066123, 2001).
    Both neighbours of a cell lie on the anti-diagonal before its own, so
    the matrix is swept by anti-diagonals, each in one vectorised step.
    Any term that refers to degree g - 1 contributes zero.
    Deterministic: equal inputs give bit-identical matrices.

    vdd is the model's solved vertex distribution; it must store every
    degree up to u, otherwise WindowExceedsMatrix is raised.

    variant selects the directed-recurrence form, VARIANTS[0] by default.
    "printed" is the denominator m*(l*f_l + m*f_k + m*f_l); "mean-weight"
    replaces the l*f_l term with the mean weight, which makes the recurrence
    conserve probability mass. The printed form's systematic discrepancy is
    not silently corrected: the simulation cross-check surfaces it. The
    mean-weight form raises TruncationTooSevere when its matrix misses more
    than EDD_MASS_TOLERANCE of mass beyond what truncation explains.

    Increments that bring no arcs (mean 0) leave no arc law: every variant
    returns the empty matrix with all of its mass truncated.
    """
    g = model.g
    if not g <= u <= vdd.q.max_degree:
        raise WindowExceedsMatrix(
            f"need g <= u <= the last stored vertex degree, got {g}, {u}, "
            f"{vdd.q.max_degree}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown recurrence variant {variant!r}")
    # The printed form does not conserve probability mass, so truncation
    # cannot be told apart from its imbalance and the strict mass check only
    # applies to the mean-weight form.
    conserves_mass = variant == "mean-weight"
    m = model.increments.mean
    n = u - g + 1
    if m == 0.0:
        return EdgeDegreeMatrix(min_degree=g, entries=np.zeros((n, n)),
                                kind="arc", truncation_mass=1.0)

    f_all = model.weights.weights_upto(u + 1)
    f = f_all[g:u + 1]
    f_prev = np.zeros(n)
    f_prev[1:] = f_all[g:u]
    q_vdd_prev = np.zeros(n)
    q_vdd_prev[1:] = vdd.q.aligned(g, u)[:-1]
    inc = model.increments
    r = np.zeros(n)
    r_arr = inc.prob_array()[:max(0, u + 1 - inc.min_arcs)]
    r[inc.min_arcs - g:inc.min_arcs - g + len(r_arr)] = r_arr
    ls = np.arange(g, u + 1, dtype=np.float64)

    # Coefficients of every cell, laid out like the grid below. Where the
    # variant's denominator vanishes (saturated degrees under the printed
    # form) it is set to infinity, so all three coefficients, and with them
    # the cell's stationary share, are 0.
    a_l = np.full(n, vdd.mean_weight) if conserves_mass else ls * f
    den = m * (a_l[:, None] + m * f + m * f[:, None])
    den[den <= 0.0] = np.inf
    m2 = m * m
    src, up, left = np.zeros((3, n + 1, n + 1))
    src[1:, 1:] = np.outer(ls * r, f_prev * q_vdd_prev) / den
    up[1:, 1:] = (f_prev * m2)[:, None] / den
    left[1:, 1:] = (f_prev * m2) / den

    # Cell (i, j) of the matrix sits at (i + 1, j + 1) of a zero-bordered
    # grid of width w = n + 1. In the flat grid, anti-diagonal d is a slice of
    # stride w - 1 = n, and its upper and left neighbours are the same slice
    # shifted back by w and by 1.
    w = n + 1
    grid = np.zeros((w, w))
    x, s_f, u_f, l_f = (a.reshape(-1) for a in (grid, src, up, left))
    for d in range(2 * n - 1):
        i_lo = max(0, d - n + 1)
        i_hi = min(d, n - 1)
        first = (i_lo + 1) * w + d - i_lo + 1
        stop = (i_hi + 1) * w + d - i_hi + 2
        cells = slice(first, stop, n)
        x[cells] = (s_f[cells] + u_f[cells] * x[first - w:stop - w:n]
                    + l_f[cells] * x[first - 1:stop - 1:n])
    mat = grid[1:, 1:].copy()

    total = float(mat.sum())
    deficit = 1.0 - total
    if conserves_mass:
        bound = _arc_truncation_bound(model, vdd, u)
        if deficit - bound > EDD_MASS_TOLERANCE:
            raise TruncationTooSevere(
                f"arc matrix misses {deficit:.3e} of mass at u = {u} but at "
                f"most {bound:.3e} is attributable to truncation; raise u")
    return EdgeDegreeMatrix(min_degree=g, entries=mat, kind="arc",
                            truncation_mass=deficit)


def _arc_truncation_bound(model: NpaModelSpec, vdd: VddSolution, u: int) -> float:
    """Upper bound on arc mass outside [g, u]^2 from the vertex distribution.

    A vertex of degree j carries at most j incoming and min(j, h) outgoing
    arc ends, so the truncated arc mass is at most
    sum_{j > u} (j + min(j, h)) Q_j / m.
    """
    m = model.increments.mean
    h = model.increments.max_arcs
    q = vdd.q
    ks = np.arange(u + 1, q.max_degree + 1, dtype=np.float64)
    probs = q.probs[u + 1 - q.min_degree:]
    stored = float(((ks + np.minimum(ks, h)) * probs).sum())
    beyond = vdd.tail_degree_mass + h * vdd.tail_mass
    return (stored + beyond) / m


def symmetrize(q: EdgeDegreeMatrix) -> EdgeDegreeMatrix:
    """Edge matrix from an arc matrix: half the sum with its transpose."""
    if q.kind != "arc":
        raise ValueError("symmetrize expects an arc matrix")
    theta = 0.5 * (q.entries + q.entries.T)
    return EdgeDegreeMatrix(min_degree=q.min_degree, entries=theta, kind="edge",
                            truncation_mass=q.truncation_mass)


# ---------------------------------------------------------------------------
# Mixtures and complements
# ---------------------------------------------------------------------------

def mix_vdd(parts: Sequence[tuple[DegreeDistribution, float]]) -> DegreeDistribution:
    """Pointwise convex combination of degree distributions."""
    weights = [rho for _, rho in parts]
    if (any(rho < 0.0 for rho in weights)
            or abs(math.fsum(weights) - 1.0) > NORMALIZATION_TOL):
        raise ValueError(f"fractions {weights} are not a convex combination")
    lo = min(q.min_degree for q, _ in parts)
    hi = max(q.max_degree for q, _ in parts)
    probs = np.zeros(hi - lo + 1, dtype=np.float64)
    trunc = 0.0
    for q, rho in parts:
        probs += rho * q.aligned(lo, hi)
        trunc += rho * q.truncation_mass
    return DegreeDistribution(min_degree=lo, probs=probs, truncation_mass=trunc)


def complement_vdd(q_total: DegreeDistribution, q_first: DegreeDistribution,
                   rho: float) -> DegreeDistribution:
    """Second component implied by a two-part mixture: (Q - rho Q') / (1 - rho).

    The exact inverse of mix_vdd, entry by entry and in the truncated mass,
    so mixing the result with q_first at rho gives q_total back. Negative
    entries are kept: where rho exceeds the first component's share of a
    degree the result is no distribution, and a fit that takes it as its
    observations, not a tolerance here, decides whether that rho is any good.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho = {rho!r} must lie strictly inside (0, 1)")
    lo = min(q_total.min_degree, q_first.min_degree)
    hi = max(q_total.max_degree, q_first.max_degree)
    vals = (q_total.aligned(lo, hi) - rho * q_first.aligned(lo, hi)) / (1.0 - rho)
    trunc = (q_total.truncation_mass - rho * q_first.truncation_mass) / (1.0 - rho)
    return DegreeDistribution(min_degree=lo, probs=vals, truncation_mass=trunc)


def complement_mean(m: float, m_first: float, rho: float) -> float:
    """Mean increment count of the complement: (m - rho m') / (1 - rho)."""
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho = {rho!r} must lie strictly inside (0, 1)")
    result = (m - rho * m_first) / (1.0 - rho)
    if result <= 0.0:
        raise InfeasibleComplement(
            f"complement mean {result!r} is not positive; rho = {rho} infeasible")
    return result


def edge_share(m_i: float, rho_i: float, m_total: float) -> float:
    """Fraction of all edges contributed by a component: m_i rho_i / m."""
    return m_i * rho_i / m_total


def mix_edd(parts: Sequence[tuple[EdgeDegreeMatrix, float, float]]
            ) -> EdgeDegreeMatrix:
    """Combine component edge matrices with edge-share weights.

    parts holds (matrix, m_i, rho_i); the weight of each component is
    gamma_i = m_i rho_i / m with the mixture's mean increment
    m = sum_i m_i rho_i, summed left to right, so the shares sum to one.
    When no part brings arcs (m = 0), each is weighted by its vertex share
    rho_i instead, which mixes empty matrices to one with all mass truncated.
    """
    m_total = 0.0
    for _, m_i, rho_i in parts:
        m_total += m_i * rho_i
    gammas = [edge_share(m_i, rho_i, m_total) if m_total else rho_i
              for _, m_i, rho_i in parts]
    for matrix, _, _ in parts:
        if matrix.kind != "edge":
            raise ValueError("mix_edd expects edge matrices; symmetrize arcs first")
    lo = min(mx.min_degree for mx, _, _ in parts)
    hi = max(mx.max_degree for mx, _, _ in parts)
    size = hi - lo + 1
    entries = np.zeros((size, size), dtype=np.float64)
    trunc = 0.0
    for (mx, _, _), gamma in zip(parts, gammas):
        entries += gamma * mx.aligned(lo, hi)
        trunc += gamma * mx.truncation_mass
    return EdgeDegreeMatrix(min_degree=lo, entries=entries, kind="edge",
                            truncation_mass=trunc)

