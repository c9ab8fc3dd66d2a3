"""Layer benchmarks of the edge-list reader and the CSV interchange
(pytest-benchmark).

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest benchmarks/test_io_layers.py \
        --benchmark-json=io_layers.json

This directory sits outside the test paths in pyproject.toml, so the
ordinary test run does not collect it. The inputs use only the public API,
so the same file times any version of the writers and readers.
"""

import numpy as np
import pytest

from npagraph import (EdgeDegreeMatrix, Graph, MalformedLine, RngStream,
                      grow_composite, load_edge_list, measure_edd,
                      preset_gowalla, write_edge_list)
from npagraph.datasets import id_map_csv
from npagraph.solver import edd_from_csv, edd_to_csv


@pytest.fixture(scope="module")
def grown():
    """The graph `generate --preset gowalla --n 100000` grows at seed 7."""
    return grow_composite(preset_gowalla(100_000), RngStream(7))


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


def test_edd_to_csv_measured(benchmark, grown):
    """A measured EDD at the extent `ingest` writes: a few hundred distinct
    values (counts / 2E) among its 250000 cells."""
    measured = measure_edd(grown, 500)
    text = benchmark(edd_to_csv, measured)
    assert text.count("\n") == 1 + 500 * 500


def test_load_edge_list_plain(benchmark, grown, tmp_path_factory):
    """The edge list as `generate` writes it: a '#' header, then dense ids."""
    path = tmp_path_factory.mktemp("edges") / "edges.txt"
    with open(path, "w") as fh:
        write_edge_list(grown, fh)
    graph, _ = benchmark(load_edge_list, path)
    assert graph.vertex_count == grown.vertex_count


def test_load_edge_list(benchmark, grown, tmp_path_factory):
    """The written edge list of a grown graph behind a KONECT-style '%'
    header, as `ingest` reads it."""
    path = tmp_path_factory.mktemp("edges") / "out.gowalla"
    with open(path, "w") as fh:
        fh.write("% sym unweighted\n% generated by npagraph\n")
        write_edge_list(grown, fh)
    graph, _ = benchmark(load_edge_list, path)
    assert graph.edge_count > 0


@pytest.fixture(scope="module")
def commented_lines(grown, tmp_path_factory):
    """The lines of the grown graph's edge list, with a '%' comment after
    its first half of pairs: load_edge_list's read by path rejects it."""
    path = tmp_path_factory.mktemp("edges") / "edges.txt"
    with open(path, "w") as fh:
        write_edge_list(grown, fh)
    lines = path.read_text().splitlines(keepends=True)
    middle = len(lines) // 2
    return lines[:middle] + ["% mid-file comment\n"] + lines[middle:]


def test_load_edge_list_commented(benchmark, commented_lines, tmp_path):
    """A '%' comment past the header: the text is read a block of lines at
    a time."""
    path = tmp_path / "out.gowalla"
    path.write_text("".join(commented_lines))
    graph, _ = benchmark(load_edge_list, path)
    assert graph.edge_count > 0


def test_load_edge_list_bad_last_line(benchmark, commented_lines, tmp_path):
    """That list with a bad last line, which the block reader names."""
    path = tmp_path / "out.gowalla"
    path.write_text("".join(commented_lines) + "1 x\n")

    def read():
        with pytest.raises(MalformedLine) as err:
            load_edge_list(path)
        return err.value
    assert benchmark(read).line_no == len(commented_lines) + 1


def test_edd_from_csv(benchmark, matrix):
    back = benchmark(edd_from_csv, edd_to_csv(matrix))
    assert np.array_equal(back.entries, matrix.entries)


def test_edd_from_csv_repeated_header(benchmark, matrix):
    """The header repeated in the middle: the text is read a block of lines
    at a time."""
    lines = edd_to_csv(matrix).splitlines(keepends=True)
    middle = len(lines) // 2
    text = "".join(lines[:middle] + [lines[0]] + lines[middle:])
    back = benchmark(edd_from_csv, text)
    assert np.array_equal(back.entries, matrix.entries)


def test_id_map_csv(benchmark):
    labels = np.arange(100_000, dtype=np.int64) * 7 + 3
    graph = Graph(len(labels), np.array([[0, 1]]), labels=labels)
    text = benchmark(id_map_csv, graph)
    assert text.count("\n") == 1 + len(labels)
