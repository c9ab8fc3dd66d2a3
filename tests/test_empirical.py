import gzip
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npagraph import (EmptyInput, Graph, MalformedLine, load_edge_list,
                      measure_edd, measure_vdd, summarize, write_edge_list)
from npagraph import formats
from npagraph.formats import id_map_csv, vdd_counts_csv


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


def _line_pairs(source):
    """The (E, 2) id pairs load_edge_list hands _simple_graph from its line
    route: np.loadtxt refuses the file's path, so _read_blocks reads every
    line. `source` is a file's path, or a text written as it stands to a
    file of its own."""
    real, pairs = np.loadtxt, []

    def lines_only(lines, **kwargs):
        if isinstance(lines, str):
            raise ValueError("read by path refused")
        return real(lines, **kwargs)

    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        path = source
        if isinstance(source, str):
            path = Path(tmp) / "net.txt"
            path.write_bytes(source.encode())
        mp.setattr(np, "loadtxt", lines_only)
        mp.setattr(formats, "_simple_graph", pairs.append)
        load_edge_list(path)
    return pairs[0]


class TestLoadEdgeList:
    def test_comments_skipped(self):
        g, _, _ = _load_lines(["# comment", "0 1", "1 2"])
        assert g.vertex_count == 3
        assert g.edge_count == 2

    def test_duplicates_and_reversals_collapse(self):
        g, _, stats = _load_lines(["0 1", "1 0", "0 1"])
        assert g.vertex_count == 2
        assert g.edge_count == 1
        assert stats["duplicates_collapsed"] == 2

    def test_self_loops_dropped_counted(self):
        g, _, stats = _load_lines(["0 0", "0 1"])
        assert g.edge_count == 1
        assert stats["self_loops_dropped"] == 1

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
        g, ids, _ = _load_lines(["100 5", "5 9"])
        assert g.vertex_count == 3
        assert list(ids) == [5, 9, 100]
        # Edge endpoints refer to dense ids consistent with the original ids.
        back = {(ids[a], ids[b]) for a, b in g.pairs}
        assert back == {(5, 100), (5, 9)}

    def test_negative_labels_relabeled(self):
        g, ids, _ = _load_lines(["-5 3", "3 7"])
        assert list(ids) == [-5, 3, 7]
        assert sorted(map(sorted, g.pairs.tolist())) == [[0, 1], [1, 2]]

    def test_minus_zero_is_id_zero(self):
        _, ids, _ = _load_lines(["-0 1"])
        assert list(ids) == [0, 1]
        assert _line_pairs("-0 1\n").tolist() == [[0, 1]]

    def test_gzip_file(self, tmp_path):
        path = tmp_path / "net.txt.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("# demo\n0 1\n1 2\n")
        g, _, _ = load_edge_list(path)
        assert g.edge_count == 2

    def test_gzip_file_with_percent_comments(self, tmp_path):
        path = tmp_path / "out.konect.gz"
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("% sym unweighted\r\n% 3 4 4\r\n10 20 % a\r\n"
                     "20 30\r\n30 10 # b % c\r\n30 40\r\n")
        g, ids, _ = load_edge_list(path)
        assert list(ids) == [10, 20, 30, 40]
        assert _edges(g, ids) == [(10, 20), (10, 30), (20, 30), (30, 40)]

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
            g1, _, _ = _load_lines(f"{a} {b}" for a, b in raw_pairs)
        except EmptyInput:
            return  # all self-loops
        buf = io.StringIO()
        write_edge_list(g1, buf)
        g2, _, _ = _load_text(buf.getvalue())
        assert sorted(g1.degrees()[g1.degrees() > 0]) == sorted(
            g2.degrees()[g2.degrees() > 0])


# ---------------------------------------------------------------------------
# Edge-list syntax, on both routes of the one reader, plain and gzipped
# ---------------------------------------------------------------------------

def _edges(graph, ids):
    """Edges in the original ids, each as a sorted pair, in a sorted list."""
    return sorted(tuple(sorted((int(ids[a]), int(ids[b]))))
                  for a, b in graph.pairs)


def _path_edges(text):
    """Edges of load_edge_list on a file holding the text."""
    return _edges(*_load_text(text)[:2])


def _gz_path_edges(text):
    """Edges of load_edge_list on a gzipped file holding the text."""
    return _edges(*_load_text(text, gz=True)[:2])


def _line_edges(text):
    """Edges of load_edge_list's line route over a file holding the text,
    before _simple_graph."""
    pairs = _line_pairs(text)
    return sorted(tuple(sorted(p)) for p in pairs.tolist())


ROUTES = [pytest.param(_path_edges, id="load_edge_list"),
          pytest.param(_gz_path_edges, id="load_edge_list_gz"),
          pytest.param(_line_edges, id="line_route")]


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
    """load_edge_list's line route against the syntax spelled out line by
    line, and against the np.loadtxt call of 0.8.0, which passed both
    comment strings."""

    @given(st.lists(_line, max_size=12), st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=300, deadline=None)
    def test_against_reference(self, lines, end):
        self._check_against_reference(lines, end)

    @given(st.lists(_line, max_size=12), st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=300, deadline=None)
    def test_against_reference_in_small_blocks(self, lines, end):
        """As above, read 4 lines at a time."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_READ_BLOCK", 4)
            self._check_against_reference(lines, end)

    @staticmethod
    def _check_against_reference(lines, end):
        lines = [ln + end for ln in lines]
        expected = _reference_tokens(lines)
        if isinstance(expected, int):
            with pytest.raises(MalformedLine) as err:
                _line_pairs("".join(lines))
            assert err.value.line_no == expected
            return
        pairs = _line_pairs("".join(lines))
        assert pairs.dtype == np.int64 and pairs.shape == (len(expected), 2)
        assert pairs.tolist() == expected
        if expected:
            old = np.loadtxt(lines, dtype=np.int64, comments=("#", "%"),
                             ndmin=2)
            assert old.tolist() == expected


class TestEdgeTokensInSmallBlocks:
    """load_edge_list's line route, alone and as the fallback of its read by
    path, with blocks of 4 lines: a bad line is named wherever it falls,
    and a block without pairs adds none."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(formats, "_READ_BLOCK", 4)

    # A '%' comment past the header sends load_edge_list to its line route.
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
        pairs = _line_pairs(text)
        assert pairs.dtype == np.int64 and pairs.shape == (0, 2)
        with pytest.raises(EmptyInput):
            _load_text(text)


class TestLoadEdgeListRoutes:
    """load_edge_list reads a file by path, its leading comment block skipped
    by count, and falls back to the line route for what that read rejects;
    either way it gives the simple graph of the line route's pairs from the
    same file."""

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
            graph, ids, stats = read()
        except (MalformedLine, EmptyInput) as err:
            return type(err), getattr(err, "line_no", None), getattr(
                err, "content", None)
        return graph.vertex_count, graph.pairs.tolist(), ids.tolist(), stats

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
    @pytest.mark.parametrize("text", TEXTS)
    def test_same_as_line_route(self, tmp_path, text, gz):
        path = tmp_path / ("net.txt.gz" if gz else "net.txt")
        opener = gzip.open if gz else open
        with opener(path, "wt", newline="") as fh:
            fh.write(text)

        def line_route():
            return formats._simple_graph(_line_pairs(path))
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

        def refuse(lines, read):
            raise AssertionError("line route taken")
        monkeypatch.setattr(formats, "_read_blocks", refuse)
        assert self._outcome(
            lambda: load_edge_list(path)) == expected

    def test_clean_file_read_once_by_path(self, tmp_path, monkeypatch):
        """One np.loadtxt call, on the path, reads a clean file; a bad last
        line is still named."""
        calls, real = [], np.loadtxt

        def spy(source, *args, **kwargs):
            calls.append(source)
            return real(source, *args, **kwargs)
        monkeypatch.setattr(np, "loadtxt", spy)
        path = tmp_path / "net.txt"
        text = "% konect\n# snap\n0 1\n1 2 # a\n2 0\n"
        path.write_text(text)
        graph, _, _ = load_edge_list(path)
        assert calls == [str(path)]
        assert graph.edge_count == 3
        path.write_text(text + "2 x\n")
        with pytest.raises(MalformedLine) as err:
            load_edge_list(path)
        assert (err.value.line_no, err.value.content) == (6, "2 x")

    def test_written_graph_keeps_dense_ids(self, tmp_path):
        """A written graph reads back with the original ids and pairs
        np.unique's remapping would give: the ids themselves."""
        pairs = np.random.default_rng(3).integers(0, 400, size=(3000, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        graph = Graph(400, pairs)
        path = tmp_path / "out.txt"
        with open(path, "w") as fh:
            write_edge_list(graph, fh)
        back, back_ids, _ = load_edge_list(path)
        ids, dense = np.unique(pairs, return_inverse=True)
        assert ids.tolist() == list(range(400))
        assert back_ids.tolist() == ids.tolist()
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
        graph, ids, stats = _load_lines(lines)
        labels = sorted(set().union(*edges))
        assert [int(v) for v in ids] == labels
        assert graph.vertex_count == len(labels)
        assert graph.edge_count == len(edges)
        assert {frozenset((int(ids[a]), int(ids[b])))
                for a, b in graph.pairs} == edges
        assert stats == {"self_loops_dropped": len(pairs) - len(kept),
                         "duplicates_collapsed": len(kept) - len(edges)}


class TestDatasetCsv:
    """The ingest CSVs keep the bytes of the 0.6.0 writers, one f-string per
    row, reproduced here as the reference."""

    def _ingested(self):
        """The graph of a small edge list, and its original ids."""
        ids = np.array([[10, 3], [3, 7], [7, 10], [10, 42], [42, 5]])
        return _load_lines(f"{a} {b}" for a, b in ids)[:2]

    def test_vdd_counts_bytes(self):
        graph, _ = self._ingested()
        q = measure_vdd(graph)
        counts = np.bincount(graph.degrees(), minlength=q.max_degree + 1)
        lines = ["degree,count,probability"]
        lines.extend(f"{q.min_degree + i},{int(counts[q.min_degree + i])},{float(p)!r}"
                     for i, p in enumerate(q.probs))
        assert vdd_counts_csv(q, graph.vertex_count) == "\n".join(lines) + "\n"

    def test_vdd_counts_span_gaps_and_isolated_vertices(self):
        # Vertex 4 is isolated and no vertex has degree 2: both rows are
        # written, counts sum to n and each probability is count / n.
        graph = Graph(5, np.array([[0, 1], [0, 2], [0, 3]]))
        rows = [row.split(",") for row in
                vdd_counts_csv(measure_vdd(graph), 5).splitlines()[1:]]
        assert [(int(d), int(c)) for d, c, _ in rows] == [
            (0, 1), (1, 3), (2, 0), (3, 1)]
        assert [float(p) for _, _, p in rows] == [0.2, 0.6, 0.0, 0.2]

    def test_vdd_counts_probabilities_are_measured_vdd(self):
        graph, _ = self._ingested()
        q = measure_vdd(graph)
        rows = [row.split(",") for row in
                vdd_counts_csv(q, graph.vertex_count).splitlines()[1:]]
        assert int(rows[0][0]) == q.min_degree
        assert int(rows[-1][0]) == q.max_degree
        assert [float(p) for _, _, p in rows] == list(q.probs)
        assert sum(int(c) for _, c, _ in rows) == graph.vertex_count

    def test_vdd_counts_of_empty_graph(self):
        # The writer formats a measured VDD; an empty graph has none.
        with pytest.raises(EmptyInput, match="cannot measure an empty graph"):
            measure_vdd(Graph(0, []))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2**40).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n), min_size=1))))
    def test_counts_are_exact(self, n_counts):
        # Each probability is count / n rounded once, so probability * n
        # rounds back to the count the writer prints.
        n, counts = n_counts
        counts = np.array(counts, dtype=np.int64)
        assert (np.rint((counts / n) * n).astype(np.int64) == counts).all()

    def test_id_map_bytes(self):
        _, ids = self._ingested()
        lines = ["dense_id,original_id"]
        lines.extend(f"{i},{int(orig)}" for i, orig in enumerate(ids))
        assert id_map_csv(ids) == "\n".join(lines) + "\n"
        assert id_map_csv(ids).splitlines()[1:3] == ["0,3", "1,5"]


class TestSummarize:
    def test_triangle(self):
        s = summarize(Graph(3, [(0, 1), (1, 2), (2, 0)]))
        assert s["mean_degree"] == pytest.approx(2.0)
        assert s["derived_m"] == pytest.approx(1.0)

    def test_single_edge(self):
        s = summarize(Graph(2, [(0, 1)]))
        assert s["mean_degree"] == pytest.approx(1.0)

    def test_consistent_with_vdd_mean(self):
        g, _, _ = _load_lines(["0 1", "1 2", "2 3", "3 0", "0 2"])
        s = summarize(g)
        assert s["mean_degree"] == pytest.approx(measure_vdd(g).mean(), abs=1e-12)

    def test_empty_graph(self):
        with pytest.raises(EmptyInput):
            summarize(Graph(0, []))

    def test_to_dict(self):
        # summary.json's four headline keys, as summarize returns them.
        assert summarize(Graph(4, [(0, 1), (1, 2), (2, 3)])) == {
            "node_count": 4, "edge_count": 3, "mean_degree": 1.5,
            "derived_m": 0.75}

    def test_exported_from_growth(self):
        # 0.32.0 deleted the datasets module; its summary lives in growth.
        import importlib

        import npagraph
        from npagraph import growth
        assert npagraph.summarize is growth.summarize
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("npagraph.datasets")

    def test_edd_mass_complete(self):
        g, _, _ = _load_lines(["0 1", "1 2", "2 3", "0 2"])
        theta = measure_edd(g, 2)
        assert theta.stored_mass() + theta.truncation_mass == pytest.approx(
            1.0, abs=1e-12)
