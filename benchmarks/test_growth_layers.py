"""Layer benchmarks of preferential-attachment growth (pytest-benchmark).

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest benchmarks/test_growth_layers.py \
        --benchmark-json=growth_layers.json

This directory sits outside the test paths in pyproject.toml, so the
ordinary test run does not collect it. Each benchmark grows one of the
reference models of tests/crosscheck.py, built here through the public API
only, to 1e5 vertices with grow_npa, so the same file times any version of
the samplers: "ba" (f_k = k) takes the endpoint-list sampler, the three
others every other weight function's. "power_1" is f_k = k spelt as
k**1.0, which the acceptance sampler grew before 0.43.0 and the
endpoint-list sampler grows since. The AER pair scan is timed at the
size of the gowalla preset's AER component at n = 1e5; it returns the graph
alone from 0.35.0 on.

To time another version, copy this file into that version's checkout and
run the same command from its root: pyproject.toml's pythonpath = ["src"]
puts the checkout's own src ahead of PYTHONPATH, so a PYTHONPATH that
points at another tree still times this one.
"""

import pytest

from npagraph import (AerModelSpec, IncrementDistribution, NpaModelSpec,
                      RngStream, WeightFunction, grow_aer_unpruned, grow_npa)

N = 100_000

MODELS = {
    "sublinear": NpaModelSpec(
        weights=WeightFunction.power(0.8, g=1),
        increments=IncrementDistribution(min_arcs=1, probs=(0.6, 0.4))),
    "constant": NpaModelSpec(
        weights=WeightFunction.constant(1.0, g=1),
        increments=IncrementDistribution(min_arcs=1, probs=(0.7, 0.3))),
    "superlinear_m200": NpaModelSpec(
        weights=WeightFunction.power(1.2, g=2, M=200),
        increments=IncrementDistribution(min_arcs=2, probs=(1.0,))),
    "ba": NpaModelSpec(
        weights=WeightFunction.linear(g=1),
        increments=IncrementDistribution(min_arcs=1, probs=(1.0,))),
    "power_1": NpaModelSpec(
        weights=WeightFunction.power(1.0, g=1),
        increments=IncrementDistribution(min_arcs=1, probs=(0.6, 0.4))),
}


@pytest.mark.parametrize("name", list(MODELS))
def test_grow_npa(benchmark, name):
    graph = benchmark.pedantic(grow_npa, args=(MODELS[name], N, RngStream(11)),
                               rounds=5, iterations=1)
    assert graph.vertex_count == N


def test_grow_aer_unpruned(benchmark):
    spec = AerModelSpec(n1=35_000, a=2.75)
    full = benchmark.pedantic(
        grow_aer_unpruned, args=(spec, RngStream(11)),
        rounds=5, iterations=1)
    assert full.vertex_count == 35_000
    assert full.edge_count > 0
