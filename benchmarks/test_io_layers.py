"""Layer benchmarks of the CSV interchange (pytest-benchmark).

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest benchmarks/test_io_layers.py \
        --benchmark-json=io_layers.json

This directory sits outside the test paths in pyproject.toml, so the
ordinary test run does not collect it. The inputs use only the public API,
so the same file times any version of the writers and readers.
"""

import numpy as np
import pytest

from npagraph import EdgeDegreeMatrix, Graph
from npagraph.datasets import id_map_csv
from npagraph.solver import edd_from_csv, edd_to_csv


@pytest.fixture(scope="module")
def matrix():
    """A 500 x 500 edge matrix, the extent `ingest` writes by default, with
    about 30 % of its cells nonzero, as in a measured one."""
    rng = np.random.default_rng(5)
    upper = np.triu(rng.random((500, 500)) < 0.3)
    values = rng.random((500, 500))
    entries = np.where(upper | upper.T, values + values.T, 0.0)
    return EdgeDegreeMatrix(min_degree=1, entries=entries / entries.sum())


def test_edd_to_csv(benchmark, matrix):
    text = benchmark(edd_to_csv, matrix)
    assert text.count("\n") == 1 + 500 * 500


def test_edd_from_csv(benchmark, matrix):
    back = benchmark(edd_from_csv, edd_to_csv(matrix))
    assert np.array_equal(back.entries, matrix.entries)


def test_id_map_csv(benchmark):
    labels = np.arange(100_000, dtype=np.int64) * 7 + 3
    graph = Graph(len(labels), np.array([[0, 1]]), labels=labels)
    text = benchmark(id_map_csv, graph)
    assert text.count("\n") == 1 + len(labels)
