"""Layer benchmarks of preferential-attachment growth (pytest-benchmark).

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest benchmarks/test_growth_layers.py \
        --benchmark-json=growth_layers.json

This directory sits outside the test paths in pyproject.toml, so the
ordinary test run does not collect it. Each benchmark grows one reference
model to 1e5 vertices with grow_npa, through the public API only, so the
same file times any version of the samplers: "ba" (f_k = k) takes the
endpoint-list sampler, the three others every other weight function's.
The AER pair scan is timed at the size of the gowalla preset's AER
component at n = 1e5.

To time another version, copy this file into that version's checkout and
run the same command from its root: pyproject.toml's pythonpath = ["src"]
puts the checkout's own src ahead of PYTHONPATH, so a PYTHONPATH that
points at another tree still times this one.
"""

import pytest

from npagraph import AerModelSpec, RngStream, grow_aer_unpruned, grow_npa
from npagraph.validation import reference_models

N = 100_000


@pytest.mark.parametrize("name", ["sublinear", "constant",
                                  "superlinear_m200", "ba"])
def test_grow_npa(benchmark, name):
    model = reference_models()[name]
    trace = benchmark.pedantic(grow_npa, args=(model, N, RngStream(11)),
                               rounds=5, iterations=1)
    assert trace.final_graph.vertex_count == N


def test_grow_aer_unpruned(benchmark):
    spec = AerModelSpec(n1=35_000, a=2.75)
    full, stats = benchmark.pedantic(
        grow_aer_unpruned, args=(spec, RngStream(11)),
        rounds=5, iterations=1)
    assert full.vertex_count == 35_000
    assert stats.pre_prune_edge_count > 0
