"""Every CSV and edge-list file npagraph reads or writes, and nothing else.

A degree-distribution file (VDD, EDD, the ingested counts and id map, and
the CLI's comparison matrices) is a header line, then one line per cell:
integer fields, then the cell's values as repr() writes them. An edge list
is two header comments, then one "a b" line per pair of dense vertex ids;
its reader also takes SNAP and KONECT files with any ids and comments.
Model specs are JSON, read and written by `models.load_model` and
`models.dump_model`.
"""

from __future__ import annotations

import itertools
import logging
import warnings
from pathlib import Path
from typing import Callable, Iterable, Sequence, TextIO, Union

import numpy as np

from .errors import (EmptyInput, InputTooLarge, MalformedLine, ValidationError,
                     Violation)
from .models import (STORED_MASS_SLACK, DegreeDistribution, EdgeDegreeMatrix,
                     Graph)

log = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# Degree-distribution CSVs
# ---------------------------------------------------------------------------

# The column writer formats many lines in one % operation. The matrix writer
# formats each distinct value of a matrix once, since a measured EDD holds a
# few hundred (counts / 2E) among its u^2 cells, and joins each row from
# those strings. The readers, these and the edge-list reader, hand
# np.loadtxt the file's path, its leading header lines skipped by count;
# only a file that read rejects is read again a block of its lines at a
# time, by _read_blocks.

# Lines per np.loadtxt call once a reader's read of the whole file has failed.
_READ_BLOCK = 1 << 14


def _column_csv(header: str, *columns: Sequence) -> str:
    """The header, then one line per position of the equally long columns of
    Python ints and floats: the values comma separated as repr() writes
    them."""
    line = ",".join(["%r"] * len(columns)) + "\n"
    return header + "\n" + (line * len(columns[0])) % tuple(
        itertools.chain.from_iterable(zip(*columns)))


def matrix_csv(header: str, lo: int, mx: np.ndarray) -> str:
    """One l,k,value line per cell of a square matrix over degrees lo,
    lo + 1, ..., in row-major order, each value as repr() writes it. Each
    distinct bit pattern is formatted once, so -0.0 and 0.0 keep their own
    strings; the lines are joined a matrix row at a time from "l,", "k,"
    and the cells' strings."""
    n = len(mx)
    keys = [f"{k}," for k in range(lo, lo + n)]
    bits, inv = np.unique(np.ascontiguousarray(mx, dtype=np.float64)
                          .view(np.int64), return_inverse=True)
    strings = np.array([f"{v!r}\n" for v in bits.view(np.float64).tolist()],
                       dtype=object)
    cells = strings[inv.reshape(mx.shape)]
    return header + "\n" + "".join([
        "".join(itertools.chain.from_iterable(zip(
            itertools.repeat(keys[i], n), keys, cells[i].tolist())))
        for i in range(n)])


def _read_csv(path: Union[str, Path], header: str, skip: str,
              columns: tuple[int, ...]) -> np.ndarray:
    """The rows of a degree-distribution file as a structured array with
    integer fields f0, f1, ... and a float last field.

    Lines starting with `skip` (the header, however often it repeats) and
    empty lines are skipped; only \n, \r\n and \r end a line. Every row
    has as many fields as the first one, one of `columns`. A row that
    np.loadtxt rejects, that has a negative integer field, or whose last
    field (the probability) is not a finite number >= 0, raises
    MalformedLine with its 1-based line number; no row at all raises
    EmptyInput.

    The file is read by _read_file: its leading headers and empty lines are
    skipped by count, and a repeated header or a bad row fails that read,
    so the file is read again a block of lines at a time, each header line
    passed as an empty line.
    """
    def reader(first):
        if first is None:
            raise EmptyInput(f"no {header} rows")
        width = first.count(",") + 1
        width = width if width in columns else columns[0]
        dtype = np.dtype(",".join(["i8"] * (width - 1) + ["f8"]))

        def read(source, skiprows=0):
            rows = _loadtxt(source, dtype=dtype, delimiter=",", comments=None,
                            skiprows=skiprows, ndmin=1)
            if rows is None:
                return None
            prob = rows[dtype.names[-1]]
            valid = (all((rows[f] >= 0).all() for f in dtype.names[:-1])
                     and ((prob >= 0.0) & (prob < np.inf)).all())
            return rows if valid else None
        return read

    return _read_file(path, lambda ln: ln == "\n" or ln.startswith(skip),
                      lambda ln: "\n" if ln.startswith(skip) else ln, reader)


def _read_file(path: Union[str, Path], is_head: Callable[[str], bool],
               mend: Callable[[str], str],
               reader: Callable[[str | None], Callable]) -> np.ndarray:
    """The rows of the text file at `path` (gzip-compressed when its name
    ends in .gz), read by np.loadtxt by its path, in C chunks.

    The leading lines `is_head` holds for are counted; reader(first), given
    the first line after them or None, returns read(source, skiprows=0):
    the rows np.loadtxt reads from a path or a list of lines, or None when
    it rejects one. A file read rejects is read again by _read_blocks over
    its own lines, each passed through `mend` before read takes it, so a
    bad line is named as written.
    """
    path = Path(path)
    if path.suffix == ".gz":
        import gzip  # loaded only for a compressed file
        opener = gzip.open
    else:
        opener = open
    with opener(path, "rt") as fh:
        head, first = 0, None
        for line in fh:
            if not is_head(line):
                first = line
                break
            head += 1
        read = reader(first)
        rows = read(str(path), head)
        if rows is None:
            fh.seek(0)
            rows = _read_blocks(fh, lambda block: read(list(map(mend, block))))
    return rows


def _loadtxt(source, **kwargs) -> np.ndarray | None:
    """np.loadtxt of a path or a list of lines, or None where it raises
    ValueError. A source without data gives no rows, without a warning."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(source, **kwargs)
    except ValueError:
        return None


def _read_blocks(lines: Iterable[str],
                 read: Callable[[list[str]], np.ndarray | None]) -> np.ndarray:
    """The rows `read` gives for the lines, _READ_BLOCK lines at a time, in
    order. `read` takes a list of lines and returns their rows, or None when
    it rejects one of them. No row spans lines, so a rejected block is
    halved down to the first line `read` rejects, which raises MalformedLine
    with its 1-based line number."""
    lines = iter(lines)
    parts = []
    for start in itertools.count(0, _READ_BLOCK):
        block = list(itertools.islice(lines, _READ_BLOCK))
        rows = read(block)
        if rows is None:
            while len(block) > 1:
                half = len(block) // 2
                if read(block[:half]) is None:
                    block = block[:half]
                else:
                    start, block = start + half, block[half:]
            raise MalformedLine(start + 1, block[0].rstrip("\r\n"))
        parts.append(rows)
        if len(block) < _READ_BLOCK:
            return np.concatenate(parts)


def _dense(name: str, values: np.ndarray, *keys: np.ndarray
           ) -> tuple[int, np.ndarray]:
    """The least degree lo of the keys, and an array over degrees lo..hi
    along each key axis with each row's value at its keys' cell.
    InputTooLarge when that does not fit in memory, or is more than numpy
    can index (a ValueError). ValidationError when two rows share a cell,
    found by a boolean mark in O(rows), with no sort; `name` formatted with
    the keys names the first repeated row."""
    lo = int(min(k.min() for k in keys))
    hi = int(max(k.max() for k in keys))
    shape = (hi - lo + 1,) * len(keys)
    try:
        out, mark = np.zeros(shape), np.zeros(shape, dtype=bool)
    except (MemoryError, ValueError):
        raise InputTooLarge(
            f"degrees {lo} to {hi} span {hi - lo + 1}: a dense "
            f"{' x '.join(map(str, shape))} array does not fit in memory"
        ) from None
    cell = keys[0] - lo  # each row's index into the flattened array
    for k in keys[1:]:
        cell = cell * shape[0] + (k - lo)
    mark.reshape(-1)[cell] = True
    if np.count_nonzero(mark) < len(values):
        _, first = np.unique(cell, return_index=True)
        at = np.setdiff1d(np.arange(len(values)), first)[0]
        raise ValidationError([Violation("DuplicateRow", name.format(
            *(int(k[at]) for k in keys)) + " has more than one row")])
    out.reshape(-1)[cell] = values
    return lo, out


def vdd_to_csv(q: DegreeDistribution) -> str:
    return _column_csv("degree,probability",
                       range(q.min_degree, q.max_degree + 1), q.probs.tolist())


def vdd_from_csv(path: Union[str, Path]) -> DegreeDistribution:
    """Read the degree,probability rows of the file at `path`; a middle
    count column is accepted too, in every row or in none.

    Raises MalformedLine for a row that does not parse or has a negative
    degree, EmptyInput when there is no row, InputTooLarge when the
    degrees span more than memory holds, and ValidationError when a degree
    has more than one row or the stored mass exceeds 1 by more than
    STORED_MASS_SLACK, which solve_vdd allows its own.
    """
    rows = _read_csv(path, "degree,probability", "degree", (2, 3))
    lo, arr = _dense("degree {}", rows[rows.dtype.names[-1]], rows["f0"])
    mass = float(arr.sum())
    if mass > 1.0 + STORED_MASS_SLACK:
        raise ValidationError([Violation(
            "NonNormalized", f"the VDD's stored mass {mass!r} exceeds 1")])
    return DegreeDistribution(min_degree=lo, probs=arr,
                              truncation_mass=max(0.0, 1.0 - mass))


def edd_to_csv(mx: EdgeDegreeMatrix) -> str:
    return matrix_csv("l,k,probability", mx.min_degree, mx.entries)


def edd_from_csv(path: Union[str, Path]) -> EdgeDegreeMatrix:
    """Read the l,k,probability rows of the file at `path` as an edge
    matrix. Raises MalformedLine for a row that does not parse or has a
    negative degree, EmptyInput when there is no row, InputTooLarge when the
    degrees span more than memory holds, and ValidationError when a cell
    has more than one row."""
    rows = _read_csv(path, "l,k,probability", "l,", (3,))
    lo, entries = _dense("cell (l, k) = ({}, {})", rows["f2"], rows["f0"],
                         rows["f1"])
    return EdgeDegreeMatrix(min_degree=lo, entries=entries,
                            truncation_mass=1.0 - float(entries.sum()))


def vdd_counts_csv(q: DegreeDistribution, n: int) -> str:
    """degree,count,probability rows of the VDD `growth.measure_vdd` measured
    on n vertices; a count is probability * n, exact for any n below 2**51."""
    return _column_csv("degree,count,probability",
                       range(q.min_degree, q.max_degree + 1),
                       np.rint(q.probs * n).astype(np.int64).tolist(),
                       q.probs.tolist())


def id_map_csv(ids: np.ndarray) -> str:
    """dense_id,original_id rows of the original ids load_edge_list returns."""
    return _column_csv("dense_id,original_id", range(len(ids)), ids.tolist())


# ---------------------------------------------------------------------------
# Edge lists
# ---------------------------------------------------------------------------

# Pairs formatted per write of the edge-list writer.
_WRITE_CHUNK_ROWS = 1 << 16


def write_edge_list(graph: Graph, out: TextIO) -> None:
    """Header lines, then one "a b" line per pair.

    Each vertex id is formatted once, into a table of NUL-padded decimal
    strings. A chunk of pairs is laid out from that table as records of
    (a, " ", b, "\n") and written with the padding removed.
    """
    out.write(f"# Nodes: {graph.vertex_count} Edges: {graph.edge_count}\n")
    out.write(f"# Directed: {'true' if graph.directed else 'false'}\n")
    width = f"S{len(str(max(graph.vertex_count - 1, 0)))}"
    ids = np.arange(graph.vertex_count).astype(width)
    line = np.dtype([("a", width), ("space", "S1"), ("b", width),
                     ("end", "S1")])
    for lo in range(0, graph.edge_count, _WRITE_CHUNK_ROWS):
        chunk = graph.pairs[lo:lo + _WRITE_CHUNK_ROWS]
        rows = np.empty(len(chunk), dtype=line)
        rows["a"], rows["space"] = ids[chunk[:, 0]], b" "
        rows["b"], rows["end"] = ids[chunk[:, 1]], b"\n"
        out.write(rows.tobytes().replace(b"\0", b"").decode("ascii"))


def load_edge_list(path: Union[str, Path]) -> tuple[Graph, np.ndarray, dict]:
    """Read an edge-list file, transparently handling gzip compression, as
    an undirected simple graph, the original id of each of its vertices, and
    the counts of dropped self-loops and collapsed duplicates under the keys
    summary.json writes them.

    A data line holds two integer ids separated by spaces or tabs. Text from
    a '#' or '%' to the end of its line is a comment, so a pair may carry a
    trailing comment; blank lines are skipped, and CRLF line ends are
    accepted. Any other line, or an id outside int64, raises MalformedLine
    with its 1-based line number. Self-loops are dropped with a counted
    warning, ids are remapped to the dense range 0 .. n-1 in increasing
    order (the ids returned), and duplicate or reversed pairs collapse to one
    edge.

    The file is read by _read_file, its leading blank and comment lines
    skipped by count. np.loadtxt strips comments in its C tokenizer only
    when given a single comment string, so only '#' is passed; a file that
    read rejects, for example one with a '%' comment further down, is read
    again with each '%' made a '#', which starts a comment just as '%' does.
    """
    def read(source, skiprows=0):
        pairs = _loadtxt(source, dtype=np.int64, comments="#",
                         skiprows=skiprows, ndmin=2)
        if pairs is None or (pairs.shape[1] != 2 and pairs.size):
            return None
        return pairs.reshape(-1, 2)

    return _simple_graph(_read_file(
        path, lambda ln: not ln.strip() or ln.lstrip()[0] in "#%",
        lambda ln: ln.replace("%", "#"), lambda first: read))


def _simple_graph(raw: np.ndarray) -> tuple[Graph, np.ndarray, dict]:
    """The undirected simple graph of an (E, 2) array of id pairs, the
    original id of each of its vertices, and its parse counts.

    Ids that already are the dense range 0 .. n-1, as `generate` writes
    them, are kept as they are; np.unique would only sort them to the same
    original and dense ids. Each edge is kept once, as its (lower,
    higher) dense id pair, in increasing order.
    """
    is_loop = raw[:, 0] == raw[:, 1]
    loops = int(np.count_nonzero(is_loop))
    kept = raw[~is_loop] if loops else raw
    if not len(kept):
        raise EmptyInput("edge list holds no usable edges")
    if loops:
        log.warning("dropped %d self-loop(s)", loops)
    n = int(kept.max()) + 1
    if kept.min() == 0 and n <= kept.size and np.bincount(
            kept.ravel(), minlength=n).all():
        ids, dense = np.arange(n, dtype=np.int64), kept
    else:
        ids, dense = np.unique(kept, return_inverse=True)
        n = len(ids)
    a, b = dense.reshape(-1, 2).T
    keys = np.minimum(a, b) * np.int64(n) + np.maximum(a, b)
    keys.sort()
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    pairs = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, n, out=(pairs[:, 0], pairs[:, 1]))
    graph = Graph(n, pairs, directed=False)
    return graph, ids, {"self_loops_dropped": loops,
                        "duplicates_collapsed": len(kept) - graph.edge_count}
