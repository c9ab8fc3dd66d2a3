"""Cross-checks between the analytic solver and Monte-Carlo growth, for
the test suite.

The directed-recurrence cross-check report is the deliverable for the edge
matrix: it records per-cell deviations against pooled simulation for every
registered recurrence variant, so a systematic discrepancy of one variant is
documented next to the agreement of another instead of being patched over.
`aer_lag1` reads the lag-1 autocorrelation of the AER pair scan off its
unpruned graph.

pytest imports this file as a top-level module, since tests/ has no
__init__.py; outside pytest, put src and tests on PYTHONPATH.
"""

from __future__ import annotations

import math

import numpy as np

from npagraph.growth import RngStream, grow_npa, measure_edd, measure_vdd
from npagraph.models import (Graph, IncrementDistribution, NpaModelSpec,
                             WeightFunction)
from npagraph.solver import VARIANTS, solve_arc_dd, solve_vdd, symmetrize


def reference_models() -> dict[str, NpaModelSpec]:
    """Bundled test models spanning the weight regimes the solver supports."""
    return {
        "ba": NpaModelSpec(
            weights=WeightFunction.linear(g=1),
            increments=IncrementDistribution(min_arcs=1, probs=(1.0,))),
        "linear": NpaModelSpec(
            weights=WeightFunction.linear(g=1),
            increments=IncrementDistribution(min_arcs=1, probs=(0.5, 0.3, 0.2))),
        "sublinear": NpaModelSpec(
            weights=WeightFunction.power(0.8, g=1),
            increments=IncrementDistribution(min_arcs=1, probs=(0.6, 0.4))),
        "superlinear_m200": NpaModelSpec(
            weights=WeightFunction.power(1.2, g=2, M=200),
            increments=IncrementDistribution(min_arcs=2, probs=(1.0,))),
        "constant": NpaModelSpec(
            weights=WeightFunction.constant(1.0, g=1),
            increments=IncrementDistribution(min_arcs=1, probs=(0.7, 0.3))),
    }


def vdd_agreement(model: NpaModelSpec, n: int = 100000, reps: int = 5,
                  rng: RngStream = RngStream(7100)) -> dict:
    """Total-variation distance between simulated and solved distributions.

    The simulated distribution is pooled over reps independent replications:
    the one measured on their disjoint union.
    """
    solved = solve_vdd(model)
    measured = measure_vdd(Graph.disjoint_union(
        [grow_npa(model, n, rng.substream(rep))
         for rep in range(reps)]))
    return {
        "n": n,
        "reps": reps,
        "tv_distance": measured.tv_distance(solved.q),
        "mean_degree_analytic": solved.mean_degree,
        "mean_degree_simulated": measured.mean(),
        "control_residual": solved.control_residual,
    }


def edd_crosscheck(model: NpaModelSpec, n: int = 100000, reps: int = 20,
                   window_u: int = 15, rng: RngStream = RngStream(7200)
                   ) -> dict:
    """Compare analytic edge matrices against pooled simulation per cell.

    Per recurrence variant of solver.VARIANTS: max absolute deviation on the window, the fraction of cells
    within three Monte-Carlo standard errors, and a flag for a systematic
    discrepancy (fraction below 0.95). The pooled estimate and its standard
    errors come from reps >= 2 independent grown graphs. The edges of one
    graph are correlated, so a cell's standard error is the spread of its
    per-replicate values (sample deviation over sqrt(reps)), never below
    sqrt(1e-12 / (2 E)) for the E pooled edges.
    """
    if reps < 2:
        raise ValueError(f"need reps >= 2 for a standard error, got {reps}")
    g = model.g
    per_rep = []
    entries = 0.0
    total_edges = 0
    for rep in range(reps):
        graph = grow_npa(model, n, rng.substream(rep))
        per_rep.append(measure_edd(graph, window_u).entries)
        entries = entries + per_rep[-1] * graph.edge_count
        total_edges += graph.edge_count
    mc = entries / total_edges
    se = np.maximum(np.std(per_rep, axis=0, ddof=1) / np.sqrt(reps),
                    np.sqrt(1e-12 / (2.0 * total_edges)))
    report = {
        "model_g": g,
        "n": n,
        "reps": reps,
        "window_u": window_u,
        "pooled_edges": total_edges,
        "variants": {},
    }
    sol = solve_vdd(model)
    for variant in VARIANTS:
        theta = symmetrize(solve_arc_dd(model, sol, window_u, variant))
        dev = np.abs(theta.aligned(1, window_u) - mc)  # measured from degree 1
        z = dev / se
        within = float((z <= 3.0).mean())
        worst = np.unravel_index(int(dev.argmax()), dev.shape)
        report["variants"][variant] = {
            "max_abs_deviation": float(dev.max()),
            "max_abs_deviation_cell": [int(worst[0]) + 1, int(worst[1]) + 1],
            "max_z": float(z.max()),
            "fraction_within_3se": within,
            "systematic_discrepancy": within < 0.95,
            "stored_mass": theta.stored_mass(),
            "truncation_mass": theta.truncation_mass,
        }
    return report


def aer_lag1(full: Graph) -> tuple[float, float]:
    """Lag-1 autocorrelation r1 of the slot sequence of an unpruned AER
    graph, over the pairs of successive slots in one row, and its z-score
    r1 sqrt(pairs) against independent slots.

    A slot (a, b), a < b, has key a n1 + b, so two slots follow each other
    in a row exactly when their keys differ by 1; keys of successive rows
    differ by at least 3.
    """
    n1 = full.vertex_count
    slots = n1 * (n1 - 1) // 2
    pairs = slots - (n1 - 1)
    keys = np.sort(full.pairs[:, 0] * n1 + full.pairs[:, 1])
    p_hat = full.edge_count / slots
    p11 = np.count_nonzero(np.diff(keys) == 1) / pairs if pairs else 0.0
    denom = p_hat * (1.0 - p_hat)
    r1 = (p11 - p_hat * p_hat) / denom if denom > 0.0 else 0.0
    return r1, (r1 * math.sqrt(pairs) if pairs else 0.0)
