"""Layer benchmarks of the solver (pytest-benchmark).

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest benchmarks/test_solver_layers.py \
        --benchmark-json=layers.json

This directory sits outside the test paths in pyproject.toml, so the
ordinary test run does not collect it. The inputs use only the public API,
so the same file times any version of the solver from 0.16.0 on, where
solve_vdd and solve_arc_dd take their settings as arguments.

To time another version, copy this file into that version's checkout and
run the same command from its root: pyproject.toml's pythonpath = ["src"]
puts the checkout's own src ahead of PYTHONPATH, so a PYTHONPATH that
points at another tree still times this one.
"""

import pytest

from npagraph import (BaTreeSpec, IncrementDistribution, NpaModelSpec,
                      WeightFunction, solve_arc_dd, solve_vdd)
from npagraph.calibrate import K_MAX

# A candidate of the kind the calibration search solves thousands of times:
# linear weights, four increment sizes, the 20 x 20 window of its targets.
CANDIDATE = NpaModelSpec(
    weights=WeightFunction.linear(g=1),
    increments=IncrementDistribution(min_arcs=1, probs=(0.4, 0.3, 0.2, 0.1)))


def test_arc_dd_calibration_candidate(benchmark):
    vdd = solve_vdd(CANDIDATE, K_MAX)
    mat = benchmark(solve_arc_dd, CANDIDATE, vdd, 20)
    assert mat.entries.shape == (20, 20)


@pytest.mark.parametrize("variant", ["printed", "mean-weight"])
def test_arc_dd_ba_u300(benchmark, variant):
    model = BaTreeSpec()
    vdd = solve_vdd(model)
    mat = benchmark(solve_arc_dd, model, vdd, 300, variant)
    assert mat.entries.shape == (300, 300)


def test_vdd_calibration_candidate(benchmark):
    sol = benchmark(solve_vdd, CANDIDATE, K_MAX)
    assert sol.control_residual < 1e-6


# Power weights bisect the mean weight, and every step sums the tail beyond
# k_max: power(0.8) settles it in the exact chunks, power(0.999) and
# power(0.9999) need the incomplete-gamma remainder, the first by the series
# of the lower function as well as the continued fraction, the second by the
# continued fraction alone.
@pytest.mark.parametrize("model", [
    NpaModelSpec(weights=WeightFunction.power(0.8, g=1),
                 increments=IncrementDistribution(min_arcs=1, probs=(0.6, 0.4))),
    NpaModelSpec(weights=WeightFunction.power(0.999, g=1),
                 increments=IncrementDistribution(min_arcs=1, probs=(0.6, 0.4))),
    NpaModelSpec(weights=WeightFunction.power(0.9999, g=1),
                 increments=IncrementDistribution(min_arcs=1,
                                                  probs=(0.5, 0.3, 0.2))),
], ids=["sublinear", "power_0_999", "power_0_9999"])
def test_vdd_power_weights(benchmark, model):
    sol = benchmark(solve_vdd, model, K_MAX)
    assert sol.control_residual < 1e-6


# At the default k_max: a cap whose saturation degree M + 1 = 201 lies far
# below k_max, constant weights, and a power weight whose increment support
# is 300 degrees wide (r_k proportional to k**-2.5), over which the
# recurrence runs degree by degree.
WIDE_SUPPORT = NpaModelSpec(
    weights=WeightFunction.power(0.8, g=1),
    increments=IncrementDistribution(min_arcs=1, probs=tuple(
        k ** -2.5 / sum(j ** -2.5 for j in range(1, 301))
        for k in range(1, 301))))


@pytest.mark.parametrize("model", [
    NpaModelSpec(weights=WeightFunction.power(1.2, g=2, M=200),
                 increments=IncrementDistribution(min_arcs=2, probs=(1.0,))),
    NpaModelSpec(weights=WeightFunction.constant(1.0, g=1),
                 increments=IncrementDistribution(min_arcs=1, probs=(0.7, 0.3))),
    WIDE_SUPPORT,
], ids=["superlinear_m200", "constant", "power_support_300"])
def test_vdd_default_options(benchmark, model):
    sol = benchmark(solve_vdd, model)
    assert sol.control_residual < 1e-6
