import gzip
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npagraph import (EmptyInput, Graph, InsufficientTail, MalformedLine,
                      ParseStats, load_edge_list, measure_edd, measure_vdd,
                      smooth_vdd, summarize, write_edge_list)
from npagraph import datasets, solver
from npagraph.datasets import id_map_csv, vdd_counts_csv
from npagraph.models import DegreeDistribution


def _load_text(text, gz=False):
    """load_edge_list of a file that holds the text as it stands, gzipped
    if gz.

    A temporary directory of its own, not tmp_path, so that hypothesis
    examples do not share one file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("net.txt.gz" if gz else "net.txt")
        path.write_bytes(gzip.compress(text.encode()) if gz
                         else text.encode())
        return load_edge_list(path)


def _load_lines(lines):
    """load_edge_list of a file with one line per item."""
    return _load_text("".join(f"{line}\n" for line in lines))


class TestLoadEdgeList:
    def test_comments_skipped(self):
        g, _ = _load_lines(["# comment", "0 1", "1 2"])
        assert g.vertex_count == 3
        assert g.edge_count == 2

    def test_duplicates_and_reversals_collapse(self):
        g, stats = _load_lines(["0 1", "1 0", "0 1"])
        assert g.vertex_count == 2
        assert g.edge_count == 1
        assert stats.duplicates_collapsed == 2

    def test_self_loops_dropped_counted(self):
        g, stats = _load_lines(["0 0", "0 1"])
        assert g.edge_count == 1
        assert stats.self_loops_dropped == 1

    def test_malformed_line_number(self):
        with pytest.raises(MalformedLine) as err:
            _load_lines(["0 1", "zero one", "2 3"])
        assert err.value.line_no == 2

    def test_three_tokens_malformed(self):
        with pytest.raises(MalformedLine):
            _load_lines(["0 1 7"])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            _load_lines(["# nothing here"])

    def test_sparse_ids_remapped_with_labels(self):
        g, _ = _load_lines(["100 5", "5 9"])
        assert g.vertex_count == 3
        assert list(g.labels) == [5, 9, 100]
        # Edge endpoints refer to dense ids consistent with the labels.
        back = {(g.labels[a], g.labels[b]) for a, b in g.pairs}
        assert back == {(5, 100), (5, 9)}

    def test_negative_labels_relabeled(self):
        g, _ = _load_lines(["-5 3", "3 7"])
        assert list(g.labels) == [-5, 3, 7]
        assert sorted(map(sorted, g.pairs.tolist())) == [[0, 1], [1, 2]]

    def test_minus_zero_is_id_zero(self):
        g, _ = _load_lines(["-0 1"])
        assert list(g.labels) == [0, 1]
        assert datasets._edge_tokens(io.StringIO("-0 1\n")).tolist() == [[0, 1]]

    def test_gzip_file(self, tmp_path):
        path = tmp_path / "net.txt.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("# demo\n0 1\n1 2\n")
        g, _ = load_edge_list(path)
        assert g.edge_count == 2

    def test_gzip_file_with_percent_comments(self, tmp_path):
        path = tmp_path / "out.konect.gz"
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("% sym unweighted\r\n% 3 4 4\r\n10 20 % a\r\n"
                     "20 30\r\n30 10 # b % c\r\n30 40\r\n")
        g, _ = load_edge_list(path)
        assert list(g.labels) == [10, 20, 30, 40]
        assert _edges(g) == [(10, 20), (10, 30), (20, 30), (30, 40)]

    def test_gzip_file_malformed_line(self, tmp_path):
        path = tmp_path / "net.txt.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("% c\n0 1 % ok\n1 2 % ok\n2 % 3\n3 4\n")
        with pytest.raises(MalformedLine) as err:
            load_edge_list(path)
        assert err.value.line_no == 4
        assert err.value.content == "2 % 3"

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                    min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_load_export_load_degree_multiset(self, raw_pairs):
        try:
            g1, _ = _load_lines(f"{a} {b}" for a, b in raw_pairs)
        except EmptyInput:
            return  # all self-loops
        buf = io.StringIO()
        write_edge_list(g1, buf)
        g2, _ = _load_text(buf.getvalue())
        assert sorted(g1.degrees()[g1.degrees() > 0]) == sorted(
            g2.degrees()[g2.degrees() > 0])


# ---------------------------------------------------------------------------
# Edge-list syntax, on both routes of the one reader, plain and gzipped
# ---------------------------------------------------------------------------

def _edges(graph):
    """Edges in original ids, each as a sorted pair, in a sorted list."""
    ids = graph.labels if graph.labels is not None else np.arange(
        graph.vertex_count)
    return sorted(tuple(sorted((int(ids[a]), int(ids[b]))))
                  for a, b in graph.pairs)


def _path_edges(text):
    """Edges of load_edge_list on a file holding the text."""
    return _edges(_load_text(text)[0])


def _gz_path_edges(text):
    """Edges of load_edge_list on a gzipped file holding the text."""
    return _edges(_load_text(text, gz=True)[0])


def _line_edges(text):
    """Edges of the line route, _edge_tokens over a text stream."""
    pairs = datasets._edge_tokens(io.StringIO(text))
    return sorted(tuple(sorted(p)) for p in pairs.tolist())


ROUTES = [pytest.param(_path_edges, id="load_edge_list"),
          pytest.param(_gz_path_edges, id="load_edge_list_gz"),
          pytest.param(_line_edges, id="edge_tokens")]


# The text as it stands, and without the line end of its last line.
FORMS = [pytest.param(lambda text: text, id="terminated"),
         pytest.param(lambda text: re.sub(r"\r?\n\Z", "", text),
                      id="unterminated")]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("read", ROUTES)
class TestEdgeListSyntax:
    @pytest.mark.parametrize("text, line_no", [
        ("# c\n\n0 1\n% c\n \t \n0 x\n1 2\n", 6),
        ("0 1\n7\n", 2),
        ("7\n", 1),
        ("0 1\n1 2 3\n", 2),
        ("0 1\n0 x y\n", 2),
        ("1 2 3\n", 1),
        ("0 1\r\n1 2.5\r\n", 2),
        ("# Nodes: 3\n0 1\n99999999999999999999 1\n", 3),
        ("-9223372036854775809 1\n", 1),
    ])
    def test_malformed_line_number(self, read, form, text, line_no):
        with pytest.raises(MalformedLine) as err:
            read(form(text))
        assert err.value.line_no == line_no
        assert err.value.content == text.splitlines()[line_no - 1]

    def test_accepted_syntax(self, read, form):
        text = ("% konect\r\n# snap\r\n0\t1\r\n\r\n1   2 # note\r\n"
                "  2 3  \r\n+3 4\r\n")
        assert read(form(text)) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_percent_and_hash_comments(self, read, form, end):
        # '%' and '#' each start a comment wherever they stand, also inside
        # a comment the other one started.
        text = end.join([
            "% konect header", "0 1 % trailing", "1 2%", "% a # inside",
            "2 3 # b % inside", "#%", "3 4\t%", "%#% 9 9", "4 5"]) + end
        assert read(form(text)) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    @pytest.mark.parametrize("lines, line_no", [
        (["% c", "0 1 % ok", "1 % 2"], 3),
        (["# a % b", "0 1", "2 x # c % d"], 3),
        (["0 1 # x", "% 1 2", "3 % 4 5"], 3),
        (["%", "#", "0 1 2 % three ids"], 3),
    ])
    def test_malformed_after_comments(self, read, form, end, lines,
                                      line_no):
        with pytest.raises(MalformedLine) as err:
            read(form(end.join(lines) + end))
        assert err.value.line_no == line_no
        assert err.value.content == lines[line_no - 1]

    def test_header_only(self, read, form):
        text = form("# Nodes: 5 Edges: 0\n# Directed: true\n")
        if read is not _line_edges:
            with pytest.raises(EmptyInput):
                read(text)
            return
        assert read(text) == []


def _reference_tokens(lines):
    """The edge-list syntax spelled out line by line: the pairs, or the
    1-based number of the first line that is neither a pair nor blank."""
    pairs = []
    for ln_no, raw in enumerate(lines, 1):
        tokens = re.split("[#%]", raw, maxsplit=1)[0].split()
        if not tokens:
            continue
        if len(tokens) != 2 or not all(re.fullmatch(r"[+-]?[0-9]+", t)
                                       for t in tokens):
            return ln_no
        pairs.append([int(t) for t in tokens])
    return pairs


# Lines of ids, comment characters, blanks and stray tokens, in any order.
_piece = st.sampled_from(["0", "17", "-3", "+4", "x", "1.5", "#", "%", "#%",
                          "%#", " ", "\t", "  "])
_line = st.lists(_piece, max_size=6).map("".join) | st.tuples(
    st.integers(-2**63, 2**63 - 1), st.integers(0, 9), st.sampled_from(
        ["", " # c", "% c", "\t%#x", " #%y"])).map(
    lambda t: f"{t[0]} {t[1]}{t[2]}")


class TestEdgeTokens:
    """_edge_tokens against the syntax spelled out line by line, and against
    the np.loadtxt call of 0.8.0, which passed both comment strings."""

    @given(st.lists(_line, max_size=12), st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=300, deadline=None)
    def test_against_reference(self, lines, end):
        self._check_against_reference(lines, end)

    @given(st.lists(_line, max_size=12), st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=300, deadline=None)
    def test_against_reference_in_small_blocks(self, lines, end):
        """As above, read 4 lines at a time."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_READ_BLOCK", 4)
            self._check_against_reference(lines, end)

    @staticmethod
    def _check_against_reference(lines, end):
        lines = [ln + end for ln in lines]
        expected = _reference_tokens(lines)
        if isinstance(expected, int):
            with pytest.raises(MalformedLine) as err:
                datasets._edge_tokens(io.StringIO("".join(lines)))
            assert err.value.line_no == expected
            return
        pairs = datasets._edge_tokens(io.StringIO("".join(lines)))
        assert pairs.dtype == np.int64 and pairs.shape == (len(expected), 2)
        assert pairs.tolist() == expected
        if expected:
            old = np.loadtxt(lines, dtype=np.int64, comments=("#", "%"),
                             ndmin=2)
            assert old.tolist() == expected


class TestEdgeTokensInSmallBlocks:
    """_edge_tokens and load_edge_list's fallback to it, with blocks of 4
    lines: a bad line is named wherever it falls, and a block without pairs
    adds none."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(solver, "_READ_BLOCK", 4)

    # A '%' comment past the header sends load_edge_list to _edge_tokens.
    LINES = ["% c", "0 1", "% mid", "1 2", "2 3", "3 4", "4 5", "5 6", "6 7",
             "7 8", "8 9"]

    @pytest.mark.parametrize("read", ROUTES)
    @pytest.mark.parametrize("line_no", [5, 6, 8, 9, 11])
    def test_bad_line_in_later_block(self, read, line_no):
        lines = list(self.LINES)
        lines[line_no - 1] = "4 x"
        with pytest.raises(MalformedLine) as err:
            read("".join(f"{ln}\n" for ln in lines))
        assert (err.value.line_no, err.value.content) == (line_no, "4 x")

    @pytest.mark.parametrize("read", ROUTES)
    # Two bad lines in different blocks, then in one block.
    @pytest.mark.parametrize("first, second", [(2, 6), (4, 5), (7, 10),
                                               (2, 4), (5, 6), (9, 11)])
    def test_first_of_two_bad_lines_named(self, read, first, second):
        lines = list(self.LINES)
        lines[first - 1], lines[second - 1] = "1 2 3", "x"
        with pytest.raises(MalformedLine) as err:
            read("".join(f"{ln}\n" for ln in lines))
        assert (err.value.line_no, err.value.content) == (first, "1 2 3")

    @pytest.mark.parametrize("read", ROUTES)
    @pytest.mark.parametrize("filler", [["", "", "", ""], ["% c"] * 4,
                                        ["# a", "", "% b", " \t"] * 2])
    def test_block_without_pairs(self, read, filler):
        lines = ["0 1", "% mid"] + filler + ["1 2"] + filler * 2 + ["2 3"]
        assert read("".join(f"{ln}\n" for ln in lines)) == [
            (0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("text", ["", "\n" * 8, "% a\n# b\n" * 4,
                                      "% a\n\n# b\n\n"])
    def test_empty_or_comment_only(self, text):
        pairs = datasets._edge_tokens(io.StringIO(text))
        assert pairs.dtype == np.int64 and pairs.shape == (0, 2)
        with pytest.raises(EmptyInput):
            _load_text(text)


class TestLoadEdgeListRoutes:
    """load_edge_list reads a file by path, its leading comment block skipped
    by count, and falls back to the line route for what that read rejects;
    either way it gives the simple graph of _edge_tokens over the same
    file."""

    TEXTS = [
        # the format `generate` writes: '#' header, dense ids
        "# Nodes: 5 Edges: 4\n# Directed: false\n0 1\n1 2\n2 3\n3 4\n",
        # KONECT '%' header, tabs, sparse ids
        "% sym unweighted\n% 4 5 5\n10\t20\n20\t30\n30 10\n30 40\n",
        # a '%' comment further down, on its own line and trailing a pair
        "% c\n0 1\n% mid-file\n1 2\n2 3 % trailing\n",
        # CRLF, blank lines, whitespace-only and indented comment lines
        "\r\n# c\r\n  % indented\r\n \t \r\n0\t1\r\n\r\n1 2\r\n2 0\r\n",
        # dense ids with duplicates, reversals and self-loops
        "0 1\n1 0\n1 1\n2 1\n0 1\n3 2\n3 3\n",
        # sparse ids with duplicates and self-loops
        "5 9\n9 5\n100 5\n7 7\n100 9\n",
        # ids 0 .. n-1 with a hole, and negative ids
        "0 1\n1 3\n",
        "-1 2\n2 3\n3 -1\n",
        # '#' comments after the data starts
        "0 1 # a\n# b\n1 2\n",
        # malformed lines, before and after a '%' comment further down
        "% c\n0 1\n1 x\n",
        "# c\n0 1\n% m\n2 % 3\n",
        "0 1\n1 2 3\n",
        "1\n2\n",
        "0 1\n99999999999999999999 1\n",
        # no usable edge
        "% only\n# comments\n",
        "",
        "4 4\n",
    ]

    @staticmethod
    def _outcome(read):
        try:
            graph, stats = read()
        except (MalformedLine, EmptyInput) as err:
            return type(err), getattr(err, "line_no", None), getattr(
                err, "content", None)
        return (graph.vertex_count, graph.pairs.tolist(),
                np.asarray(graph.labels).tolist(), stats)

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
    @pytest.mark.parametrize("text", TEXTS)
    def test_same_as_line_route(self, tmp_path, text, gz):
        path = tmp_path / ("net.txt.gz" if gz else "net.txt")
        opener = gzip.open if gz else open
        with opener(path, "wt", newline="") as fh:
            fh.write(text)

        def line_route():
            with opener(path, "rt") as fh:
                return datasets._simple_graph(datasets._edge_tokens(fh))
        assert self._outcome(lambda: load_edge_list(path)) \
            == self._outcome(line_route)

    @pytest.mark.parametrize("index", [0, 1, 3, 4, 5, 8])
    def test_header_blocks_read_by_path(self, tmp_path, monkeypatch, index):
        """Without a '%' past the leading comment block, the line route is
        never taken."""
        path = tmp_path / "net.txt"
        path.write_bytes(self.TEXTS[index].encode())
        expected = self._outcome(
            lambda: load_edge_list(path))

        def refuse(fh):
            raise AssertionError("line route taken")
        monkeypatch.setattr(datasets, "_edge_tokens", refuse)
        assert self._outcome(
            lambda: load_edge_list(path)) == expected

    def test_written_graph_keeps_dense_ids(self, tmp_path):
        """A written graph reads back with the labels and pairs np.unique's
        remapping would give: the ids themselves."""
        pairs = np.random.default_rng(3).integers(0, 400, size=(3000, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        graph = Graph(400, pairs)
        path = tmp_path / "out.txt"
        with open(path, "w") as fh:
            write_edge_list(graph, fh)
        back, _ = load_edge_list(path)
        ids, dense = np.unique(pairs, return_inverse=True)
        assert ids.tolist() == list(range(400))
        assert np.asarray(back.labels).tolist() == ids.tolist()
        edges = {tuple(sorted(p)) for p in dense.reshape(-1, 2).tolist()}
        assert back.pairs.tolist() == [list(p) for p in sorted(edges)]


class TestLoadAgainstSets:
    """load_edge_list against the same simple graph built with Python sets."""

    ids = st.integers(-2**63, 2**63 - 1) | st.integers(0, 6)

    @given(st.lists(st.tuples(ids, ids) | st.sampled_from(["# c", "", "%"]),
                    max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_simple_graph(self, items):
        lines = [f"{x[0]} {x[1]}" if isinstance(x, tuple) else x
                 for x in items]
        pairs = [x for x in items if isinstance(x, tuple)]
        kept = [(a, b) for a, b in pairs if a != b]
        edges = {frozenset(p) for p in kept}
        if not edges:
            with pytest.raises(EmptyInput):
                _load_lines(lines)
            return
        graph, stats = _load_lines(lines)
        labels = sorted(set().union(*edges))
        assert [int(v) for v in graph.labels] == labels
        assert graph.vertex_count == len(labels)
        assert graph.edge_count == len(edges)
        assert {frozenset((int(graph.labels[a]), int(graph.labels[b])))
                for a, b in graph.pairs} == edges
        assert stats == ParseStats(
            self_loops_dropped=len(pairs) - len(kept),
            duplicates_collapsed=len(kept) - len(edges))


class TestDatasetCsv:
    """The ingest CSVs keep the bytes of the 0.6.0 writers, one f-string per
    row, reproduced here as the reference."""

    def _graph(self):
        ids = np.array([[10, 3], [3, 7], [7, 10], [10, 42], [42, 5]])
        return _load_lines(f"{a} {b}" for a, b in ids)[0]

    @pytest.mark.parametrize("smooth", ["none", "log-bin"])
    def test_vdd_counts_bytes(self, smooth):
        graph = self._graph()
        q = smooth_vdd(measure_vdd(graph), smooth)
        counts = np.bincount(graph.degrees(), minlength=q.max_degree + 1)
        lines = ["degree,count,probability"]
        lines.extend(f"{q.min_degree + i},{int(counts[q.min_degree + i])},{float(p)!r}"
                     for i, p in enumerate(q.probs))
        assert vdd_counts_csv(graph, q) == "\n".join(lines) + "\n"

    def test_id_map_bytes(self):
        graph = self._graph()
        lines = ["dense_id,original_id"]
        lines.extend(f"{i},{int(orig)}" for i, orig in enumerate(graph.labels))
        assert id_map_csv(graph) == "\n".join(lines) + "\n"
        assert id_map_csv(graph).splitlines()[1:3] == ["0,3", "1,5"]

    def test_id_map_without_labels(self):
        assert id_map_csv(Graph(3, np.array([[0, 1]]))) == "dense_id,original_id\n"


class TestSummarize:
    def test_triangle(self):
        s = summarize(Graph(3, [(0, 1), (1, 2), (2, 0)]))
        assert s.mean_degree == pytest.approx(2.0)
        assert s.derived_m == pytest.approx(1.0)

    def test_single_edge(self):
        s = summarize(Graph(2, [(0, 1)]))
        assert s.mean_degree == pytest.approx(1.0)

    def test_consistent_with_vdd_mean(self):
        g, _ = _load_lines(["0 1", "1 2", "2 3", "3 0", "0 2"])
        s = summarize(g)
        assert s.mean_degree == pytest.approx(measure_vdd(g).mean(), abs=1e-12)

    def test_edd_mass_complete(self):
        g, _ = _load_lines(["0 1", "1 2", "2 3", "0 2"])
        theta = measure_edd(g, 2)
        assert theta.stored_mass() + theta.truncation_mass == pytest.approx(
            1.0, abs=1e-12)


class TestSmoothVdd:
    def _power_law(self, beta=2.5, kmax=200):
        ks = np.arange(1, kmax + 1, dtype=float)
        p = ks ** -beta
        p /= p.sum()
        return DegreeDistribution(min_degree=1, probs=p)

    def test_none_is_identity(self):
        q = self._power_law()
        assert smooth_vdd(q, "none") is q

    def test_tail_powerlaw_self_consistency(self, monkeypatch):
        monkeypatch.setattr(datasets, "TAIL_FIT_CUT", 10)
        q = self._power_law()
        out = smooth_vdd(q, "tail-powerlaw")
        assert np.abs(out.probs - q.probs).max() < 1e-6

    def test_tail_powerlaw_fills_gaps(self, monkeypatch):
        monkeypatch.setattr(datasets, "TAIL_FIT_CUT", 10)
        q = self._power_law()
        probs = np.array(q.probs)
        probs[50] = 0.0  # a noisy empirical zero inside the tail
        noisy = DegreeDistribution(1, probs / probs.sum())
        out = smooth_vdd(noisy, "tail-powerlaw")
        assert out.prob(51) > 0.0

    def test_mass_preserved(self, monkeypatch):
        monkeypatch.setattr(datasets, "TAIL_FIT_CUT", 10)
        q = self._power_law()
        for method in ("log-bin", "tail-powerlaw"):
            out = smooth_vdd(q, method)
            assert out.stored_mass() == pytest.approx(q.stored_mass(), abs=1e-9)

    def test_log_bin_levels(self):
        q = DegreeDistribution(1, np.array([0.4, 0.3, 0.2, 0.1]))
        out = smooth_vdd(q, "log-bin")
        # Bins at LOG_BIN_BASE = 2 from degree 1: {1}, {2, 3}, {4}.
        assert datasets.LOG_BIN_BASE == 2.0
        assert out.prob(1) == pytest.approx(0.4)
        assert out.prob(2) == pytest.approx(0.25)
        assert out.prob(3) == pytest.approx(0.25)
        assert out.prob(4) == pytest.approx(0.1)

    def test_insufficient_tail(self, monkeypatch):
        monkeypatch.setattr(datasets, "TAIL_FIT_CUT", 3)
        q = DegreeDistribution(1, np.array([0.7, 0.1, 0.1, 0.05, 0.05]))
        with pytest.raises(InsufficientTail):
            smooth_vdd(q, "tail-powerlaw")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            smooth_vdd(self._power_law(), "boxcar")
