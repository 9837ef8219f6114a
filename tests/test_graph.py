import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy.sparse import csgraph

from jwprop import (
    BIDIRECTIONAL,
    EdgeWeights,
    Graph,
    InputError,
    directed_sample,
    gen_pa,
    load_edge_list,
    mutual_projection_lcc,
    read_labels,
    read_scores,
    write_edge_list,
)

from jwprop import graph
from jwprop.graph import MAX_NODE_COUNT, UNI_INCOMING, UNI_OUTGOING

from _oracles import (
    dense_slot_adjacency,
    random_directed_graph,
    random_undirected_graph,
    reference_graph_arrays,
)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestLoadEdgeList:
    def test_directed_reciprocal_pair(self, tmp_path):
        f = tmp_path / "g.tsv"
        write_lines(f, ["0\t1", "1\t0"])
        g = load_edge_list(f, directed=True)
        assert g.node_count == 2
        assert sorted(map(tuple, g.slot_ends.tolist())) == [(0, 1), (1, 0)]
        assert list(g.pair_class) == [BIDIRECTIONAL, BIDIRECTIONAL]

    def test_undirected_dedup(self, tmp_path):
        f = tmp_path / "g.tsv"
        write_lines(f, ["0\t1", "0\t1", "1\t0"])
        g = load_edge_list(f, directed=False)
        assert g.edge_count == 1
        assert g.slot_count == 1

    def test_triangle(self, tmp_path):
        f = tmp_path / "g.tsv"
        write_lines(f, ["0\t1", "1\t2", "2\t0"])
        g = load_edge_list(f, directed=False)
        assert g.node_count == 3
        assert g.slot_count == 3
        assert np.bincount(g.slot_ends.ravel()).tolist() == [2, 2, 2]

    def test_comments_and_blank_lines(self, tmp_path):
        f = tmp_path / "g.tsv"
        write_lines(f, ["# header", "", "0\t1"])
        g = load_edge_list(f, directed=False)
        assert g.edge_count == 1

    def test_malformed_line_reports_number(self, tmp_path):
        f = tmp_path / "g.tsv"
        write_lines(f, ["0\t1", "0\t1\t7"])
        with pytest.raises(InputError, match=":2:"):
            load_edge_list(f, directed=False)

    def test_non_integer_id(self, tmp_path):
        f = tmp_path / "g.tsv"
        write_lines(f, ["a\tb"])
        with pytest.raises(InputError, match=":1:"):
            load_edge_list(f, directed=False)

    def test_negative_id(self, tmp_path):
        f = tmp_path / "g.tsv"
        write_lines(f, ["-1\t2"])
        with pytest.raises(InputError):
            load_edge_list(f, directed=False)

    def test_empty_graph(self, tmp_path):
        f = tmp_path / "g.tsv"
        write_lines(f, ["# nothing"])
        with pytest.raises(InputError, match="empty"):
            load_edge_list(f, directed=False)

    def test_self_loops_dropped_with_count(self, tmp_path):
        f = tmp_path / "g.tsv"
        write_lines(f, ["0\t0", "1\t1", "0\t1"])
        g = load_edge_list(f, directed=False)
        assert g.self_loops_dropped == 2
        assert g.edge_count == 1

    def test_node_count_is_max_id_plus_one(self, tmp_path):
        f = tmp_path / "g.tsv"
        write_lines(f, ["0\t7"])
        g = load_edge_list(f, directed=False)
        assert g.node_count == 8


# (case, file bytes, parsed in bulk, error raised or None).  Every case must
# give the same graph or the same line-numbered error on both parsers.
PARSER_CASES = [
    ("snap_header", b"# Directed graph\n# Nodes: 3 Edges: 2\n0\t1\n1\t2\n", True, None),
    ("header_then_blank", b"# h\n\n  # h2\n0\t1\n", True, None),
    ("comment_after_edges", b"0\t1\n# later\n1\t2\n", False, None),
    ("trailing_comment", b"0\t1 # x\n", False, ":1: expected"),
    ("crlf_and_blank_lines", b"0\t1\r\n\r\n  \r\n1\t2\r\n", True, None),
    ("spaces_as_separator", b"  0   1  \n1 2\n", True, None),
    ("one_token", b"0\t1\n2\n", False, ":2: expected"),
    ("one_token_only", b"2\n", False, ":1: expected"),
    ("three_tokens", b"0\t1\t2\n", False, ":1: expected"),
    ("float_id", b"0\t2.5\n", False, ":1: node ids must be base-10"),
    ("underscore_id", b"0\t1_0\n", False, None),
    ("plus_sign", b"0\t+1\n", True, None),
    ("leading_zeros", b"0\t007\n", True, None),
    ("negative_zero", b"1\t-0\n", True, None),
    ("negative_id", b"0\t1\n2\t-3\n", False, ":2: node ids must be nonnegative"),
    ("int64_overflow", b"0\t1\n0\t99999999999999999999\n", False, ":2: node ids must be below"),
    ("int64_max", b"0\t9223372036854775807\n", True, "node count"),
    ("non_utf8", b"0\t1\n1\t\xff2\n", False, ":2: not valid UTF-8"),
    ("non_utf8_comment", b"# caf\xe9\n0\t1\n", False, ":1: not valid UTF-8"),
    ("utf8_comment", "# café\n0\t1\n".encode(), True, None),
    ("empty_file", b"", False, "empty graph"),
    ("only_comments", b"# a\n# b\n", False, "empty graph"),
    ("single_line", b"3\t4\n", True, None),
    ("no_final_newline", b"0\t1\n1\t2", True, None),
    ("only_self_loops", b"1\t1\n", True, "no edges left"),
]


def _open_text(path):
    return open(path, encoding="utf-8", errors="surrogateescape")


def _bulk(path):
    # as load_edge_list calls it for a file that can seek
    with _open_text(path) as fh:
        return graph._load_edges_bulk(fh, graph._loadtxt_name(path))


def _lines(path):
    with _open_text(path) as fh:
        return graph._parse_edge_lines(fh, path)


def _graph_or_error(build):
    try:
        return build()
    except InputError as exc:
        return str(exc)


class TestParserEquivalence:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("case,data,bulk,error", PARSER_CASES,
                             ids=[c[0] for c in PARSER_CASES])
    def test_bulk_and_line_parsers_agree(self, tmp_path, case, data, bulk, error,
                                         directed):
        f = tmp_path / "g.tsv"
        f.write_bytes(data)
        fast = _bulk(f)
        assert (fast is not None) == bulk
        lines = _graph_or_error(lambda: _lines(f))
        if fast is not None:
            assert np.array_equal(fast, lines) and fast.dtype == lines.dtype
        loaded = _graph_or_error(lambda: load_edge_list(f, directed))
        by_lines = (lines if isinstance(lines, str)
                    else _graph_or_error(lambda: Graph.from_edges(lines, directed)))
        if error is None:
            assert isinstance(loaded, Graph) and isinstance(by_lines, Graph)
            names = ("edges", "slot_ends", "_csr_indptr", "_csr_indices")
            if directed:
                names += ("pair_class",)
            for name in names:
                assert np.array_equal(getattr(loaded, name), getattr(by_lines, name))
            assert loaded.node_count == by_lines.node_count
            assert loaded.self_loops_dropped == by_lines.self_loops_dropped
        else:
            assert loaded == by_lines
            assert error in loaded

    def test_random_token_files(self, tmp_path):
        # Whatever the bulk parser accepts, the line parser accepts with the
        # same ids.
        ids = ["0", "1", "42", "+3", "007", "-0"]
        odd = ["-2", "1_0", "2.5", "1e3", "0x1", "#", "#c", "\u0663", "\ufeff1",
               "9" * 20, ""]
        seps = [" ", "\t", "  \t", "\x0b", "\xa0", "\u2028"]
        ends = ["\n", "\r\n", "\r", "\n\n", " \n"]
        rng = np.random.default_rng(5)
        f = tmp_path / "g.tsv"
        bulk_files = 0
        for _ in range(300):
            lines = []
            for _ in range(int(rng.integers(1, 5))):
                k = 2 if rng.random() < 0.9 else int(rng.choice([1, 3]))
                picks = [odd[int(rng.integers(len(odd)))] if rng.random() < 0.03
                         else ids[int(rng.integers(len(ids)))] for _ in range(k)]
                sep = seps[int(rng.integers(len(seps)))]
                lines.append(sep.join(picks) + ends[int(rng.integers(len(ends)))])
            f.write_text("".join(lines), encoding="utf-8", newline="")
            fast = _bulk(f)
            if fast is not None:
                bulk_files += 1
                assert np.array_equal(fast, _lines(f)), lines
        assert bulk_files > 100

    def test_well_formed_file_skips_line_parser(self, tmp_path, monkeypatch):
        def refuse(fh, path):
            raise AssertionError("line parser reached")

        monkeypatch.setattr(graph, "_parse_edge_lines", refuse)
        rng = np.random.default_rng(3)
        g = random_undirected_graph(rng, 60)
        f = tmp_path / "g.tsv"
        f.write_text("# FromNodeId\tToNodeId\n\n" + "".join(
            f"{v}\t{u}\r\n" for u, v in g.edges.tolist()), encoding="utf-8")
        loaded = load_edge_list(f, directed=False)
        assert np.array_equal(loaded.edges, g.edges)

    def test_well_formed_file_is_read_by_name(self, tmp_path, monkeypatch):
        # np.loadtxt iterates a handle line by line in Python, but reads a
        # named file in chunks
        received = []
        loadtxt = np.loadtxt

        def spy(fname, *args, **kwargs):
            received.append(fname)
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        f = tmp_path / "g.tsv"
        f.write_bytes(b"# FromNodeId\tToNodeId\r\n0\t1\r\n1\t2\r\n")
        g = load_edge_list(f, directed=True)
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert received == [str(f)]

    def test_path_types_give_one_graph(self, tmp_path):
        rng = np.random.default_rng(8)
        g = random_directed_graph(rng, 40)
        f = tmp_path / "g.tsv"
        f.write_text("# h\n" + "".join(f"{u}\t{v}\n" for u, v in g.edges.tolist()),
                     encoding="utf-8")
        fd = os.open(f, os.O_RDONLY)  # load_edge_list closes it
        graphs = [load_edge_list(path, directed=True)
                  for path in (str(f), f, os.fsencode(f), fd)]
        for other in graphs[1:]:
            for name in ("slot_ends", "pair_class", "_csr_indptr", "_csr_indices"):
                assert np.array_equal(getattr(other, name), getattr(graphs[0], name))
            assert other.node_count == graphs[0].node_count == g.node_count
        assert np.array_equal(graphs[0].edges, g.edges)

    @pytest.mark.parametrize("path,name", [
        ("g.tsv", "g.tsv"),
        (b"g.tsv", "g.tsv"),
        (3, None),
        ("g.tsv.gz", None),
        ("g.xz", None),
        ("http://host/g.tsv", None),
    ], ids=["str", "bytes", "fd", "gz", "xz", "url"])
    def test_loadtxt_name(self, path, name):
        assert graph._loadtxt_name(path) == name

    def test_compressed_name_is_not_decompressed(self, tmp_path):
        # numpy would gunzip a file named *.gz; the line parser reads bytes
        import gzip

        f = tmp_path / "g.tsv.gz"
        f.write_bytes(gzip.compress(b"0\t1\n1\t2\n"))
        with pytest.raises(InputError, match="not valid UTF-8"):
            load_edge_list(f, directed=False)


    @pytest.mark.parametrize("data,edges,error", [
        (b"# h\n0\t1\n1\t2\n", [(0, 1), (1, 2)], None),
        (b"0\t1\n# mid\n1\t2\n", [(0, 1), (1, 2)], None),
        (b"0\t1\n1\t2\t3\n", None, ":2: expected"),
    ], ids=["bulk", "line_parser", "error"])
    def test_pipe_input(self, data, edges, error):
        # a pipe cannot seek back for the line parser
        if not os.path.isdir("/dev/fd"):
            pytest.skip("no /dev/fd")
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            path = f"/dev/fd/{r}"
            if error is None:
                g = load_edge_list(path, directed=False)
                assert g.edges.tolist() == [list(e) for e in edges]
            else:
                with pytest.raises(InputError, match=error):
                    load_edge_list(path, directed=False)
        finally:
            os.close(r)


# The PARSER_CASES that the canonical reader takes.
CANONICAL_CASES = {"snap_header", "header_then_blank", "leading_zeros", "utf8_comment",
                   "single_line", "only_self_loops"}

# One line each that a canonical file cannot hold; each makes the canonical
# reader refuse the file, whatever the line parser makes of it.
CANONICAL_FAULTS = [
    b"1\t\n", b"\t5\n", b"1\t2\t3\n", b"1\t2\r\n", b"1 2\n", b"+3\t1\n", b"1\t-0\n",
    b"9" * 20 + b"\t1\n", b"%d\t1\n" % MAX_NODE_COUNT, b"1\t\xff2\n", b"# later\n", b"\n",
]


def _canonical(path):
    return graph._load_canonical_edges(path)


class TestCanonicalReader:
    """``_load_canonical_edges`` returns None or the line parser's ids."""

    @pytest.mark.parametrize("case,data", [c[:2] for c in PARSER_CASES],
                             ids=[c[0] for c in PARSER_CASES])
    def test_parser_cases(self, tmp_path, case, data):
        f = tmp_path / "g.tsv"
        f.write_bytes(data)
        got = _canonical(f)
        assert (got is not None) == (case in CANONICAL_CASES)
        if got is not None:
            want = _lines(f)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("data,read", [
        (b"# a\r5\t6\n7\t8\n", False),  # text mode reads "5\t6" as a line
        (b"# caf\xe9\n0\t1\n", False),
        (b"\x1c\n\t \x0b\n0\t1\n", True),  # str.strip blanks both lines
        (b"\xef\xbb\xbf# bom\n0\t1\n", False),
        (b"# h\n" * 5000 + b"0\t1\n", True),
    ], ids=["cr", "non_utf8", "unicode_blank", "bom", "long_header"])
    def test_header_lines(self, tmp_path, data, read):
        f = tmp_path / "g.tsv"
        f.write_bytes(data)
        got = _canonical(f)
        assert (got is not None) == read
        if read:
            assert np.array_equal(got, _lines(f))

    @pytest.mark.parametrize("chunk", [1, 3, 7, 16, 1 << 17])
    def test_random_files_with_rare_faults(self, tmp_path, monkeypatch, chunk):
        # Chunks of a few bytes hold one line each, so every line end is a
        # chunk boundary, and the worker thread parses every other line.
        monkeypatch.setattr(graph, "_CHUNK_BYTES", chunk)
        rng = np.random.default_rng([9, chunk])
        widths = [1, 2, 3, 10]  # digits per id, 10 up to MAX_NODE_COUNT - 1
        f = tmp_path / "g.tsv"
        read = 0
        for _ in range(150):
            lines = []
            for _ in range(int(rng.integers(1, 30))):
                u, v = (int(rng.integers(10 ** (w - 1) if w > 1 else 0,
                                         min(10 ** w, MAX_NODE_COUNT)))
                        for w in rng.choice(widths, 2))
                lines.append(b"%s%d\t%d\n" % (b"0" * int(rng.random() < 0.05), u, v))
            faulty = rng.random() < 0.4
            if faulty:
                fault = CANONICAL_FAULTS[int(rng.integers(len(CANONICAL_FAULTS)))]
                lines.insert(int(rng.integers(1, len(lines) + 1)), fault)
            if rng.random() < 0.3:
                lines.insert(0, b"# FromNodeId\tToNodeId\n\n  # c\xc3\xa9\n")
            data = b"".join(lines)
            if not faulty and rng.random() < 0.1:
                data, faulty = data[:-1], True  # no final newline
            f.write_bytes(data)
            got = _canonical(f)
            assert (got is None) == faulty, data
            if got is not None:
                read += 1
                want = _lines(f)
                assert got.dtype == want.dtype and np.array_equal(got, want), data
        assert read > 50

    def test_canonical_file_skips_other_readers(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("another reader reached")

        monkeypatch.setattr(np, "loadtxt", refuse)
        monkeypatch.setattr(graph, "_parse_edge_lines", refuse)
        g = random_undirected_graph(np.random.default_rng(4), 60)
        f = tmp_path / "g.tsv"
        f.write_text("# FromNodeId\tToNodeId\n\n" + "".join(
            f"{v}\t{u}\n" for u, v in g.edges.tolist()), encoding="utf-8")
        assert np.array_equal(load_edge_list(f, directed=False).edges, g.edges)

    @pytest.mark.parametrize("data", [b"0\t1\n" * 300, b"0\t1\n" * 299 + b"0\t1\r\n"],
                             ids=["canonical", "refused"])
    def test_no_thread_left(self, tmp_path, monkeypatch, data):
        monkeypatch.setattr(graph, "_CHUNK_BYTES", 64)
        f = tmp_path / "g.tsv"
        f.write_bytes(data)
        before = threading.active_count()
        assert (_canonical(f) is None) == data.endswith(b"\r\n")
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", [0, 1], ids=["caller", "worker"])
    def test_error_in_a_chunk_reaches_the_caller(self, tmp_path, monkeypatch, failing):
        # 10-byte lines and 100-byte chunks: chunk k starts at line 10 * k,
        # and the worker thread parses the odd chunks.
        monkeypatch.setattr(graph, "_CHUNK_BYTES", 100)
        lines = [b"%04d\t%04d\n" % (i, i + 1) for i in range(100)]
        f = tmp_path / "g.tsv"
        f.write_bytes(b"".join(lines))
        fromstring = np.fromstring

        def fail_one_chunk(chunk, *args, **kwargs):
            if chunk.startswith(lines[10 * failing]):
                raise MemoryError("chunk %d" % failing)
            return fromstring(chunk, *args, **kwargs)

        monkeypatch.setattr(np, "fromstring", fail_one_chunk)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="chunk %d" % failing):
            load_edge_list(f, directed=False)
        assert threading.active_count() == before

    def test_special_files_are_not_opened(self, tmp_path, monkeypatch):
        # A descriptor, a FIFO, a directory and a missing name are left to
        # the other readers.  A FIFO is not even opened: that waits for a
        # writer, and closing it unread could leave the writer without a
        # reader.
        f = tmp_path / "g.tsv"
        f.write_bytes(b"0\t1\n")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        fd = os.open(f, os.O_RDONLY)
        held = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)  # so that no open waits
        opened, os_open = [], os.open
        monkeypatch.setattr(os, "open", lambda path, *args: opened.append(path)
                            or os_open(path, *args))
        try:
            for path in (fd, fifo, tmp_path, tmp_path / "missing"):
                assert _canonical(path) is None
        finally:
            os.close(fd)
            os.close(held)
        assert opened == []
        assert _canonical(f).tolist() == [[0, 1]] and opened == [f]

    def test_descriptor_checked_before_reading(self, tmp_path, monkeypatch):
        # a FIFO that its name reports as a regular file, as if swapped in
        # after the check by name
        f = tmp_path / "g.tsv"
        f.write_bytes(b"0\t1\n")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        held = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)  # a reader and a writer
        try:
            os.write(held, b"0\t1\n")
            os_stat = os.stat
            monkeypatch.setattr(os, "stat", lambda path, *args, **kwargs:
                                os_stat(f if path == fifo else path, *args, **kwargs))
            assert _canonical(fifo) is None
            assert os.read(held, 16) == b"0\t1\n"  # nothing was read
        finally:
            os.close(held)


# Each text reader as a row count, with one valid row and one row with the
# wrong number of fields.  The edge list goes through its line parser.
TEXT_READERS = {
    "edges": (lambda path: len(_lines(path)), b"0\t1", b"0\t1\t2"),
    "labels": (lambda path: len(read_labels(path)), b"0\t1", b"0\t1\t1"),
    "scores": (lambda path: len(read_scores(path)[0]), b"0\t0.5\t1", b"0\t0.5"),
}


@pytest.mark.parametrize("reader", TEXT_READERS)
def test_text_readers_share_row_rules(tmp_path, reader):
    # Blank and '#' lines are skipped but counted; a line that is not UTF-8
    # is refused, a comment line too; a field-count error names the line's
    # text, which the label and score readers once left out.
    read, row, wrong = TEXT_READERS[reader]
    path = tmp_path / "f.tsv"
    head = b"# header\n\n  \n" + row + b"\n\n"
    path.write_bytes(head + b"# note\n\n")
    assert read(path) == 1
    for bad, error in ((b"# caf\xe9", "not valid UTF-8"),
                       (row + b"\xff", "not valid UTF-8"),
                       (wrong, "expected '[^']+', got " + re.escape(repr(wrong.decode())))):
        path.write_bytes(head + bad + b"\n" + row + b"\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}:6: {error}$"):
            read(path)


class TestBuildMatchesReference:
    ARRAYS = ("edges", "slot_ends", "_csr_indptr", "_csr_indices")
    DIRECTED_ARRAYS = ("pair_class",)
    # Every array a graph stores, in both directions; edges, slot_ends and
    # pair_class are derived.
    STORED = {"_csr_indptr", "_csr_indices"}

    @pytest.mark.parametrize("directed", [False, True])
    def test_random_graphs(self, directed):
        rng = np.random.default_rng(11)
        classes = set()
        empty_rows = 0
        for trial in range(200):
            n = int(rng.integers(2, 30))
            raw = rng.integers(0, n, size=(int(rng.integers(1, 80)), 2))
            # duplicate rows and reversed copies of some rows; self-loops
            # come from the draws
            extra = raw[rng.random(raw.shape[0]) < 0.3]
            raw = np.concatenate([raw, extra, extra[:, ::-1]])
            if np.all(raw[:, 0] == raw[:, 1]):
                continue
            node_count = None if trial % 2 else n + int(rng.integers(0, 4))
            g = Graph.from_edges(raw, directed, node_count)
            ref = reference_graph_arrays(raw, directed, node_count)
            names = self.ARRAYS + (self.DIRECTED_ARRAYS if directed else ())
            for name in names:
                got, want = getattr(g, name), ref[name]
                assert got.dtype == want.dtype, name
                assert np.array_equal(got, want), (trial, name)
            assert g.self_loops_dropped == int(np.sum(raw[:, 0] == raw[:, 1]))
            stored = {k for k, x in vars(g).items() if isinstance(x, np.ndarray)}
            assert stored == self.STORED
            if directed:
                classes.update(g.pair_class.tolist())
            # edge_slot over every ordered node pair: each slot in both
            # orders when undirected, KeyError on absent pairs, including
            # every pair from a row with no slots.
            slot_of = {(int(u), int(v)): s for s, (u, v) in enumerate(ref["slot_ends"])}
            if not directed:
                slot_of.update({(v, u): s for (u, v), s in slot_of.items()})
            for u in range(g.node_count):
                if not np.any(ref["slot_ends"][:, 0] == u):
                    empty_rows += 1
                for v in range(g.node_count):
                    if (u, v) in slot_of:
                        assert g.edge_slot(u, v) == slot_of[(u, v)], (trial, u, v)
                    else:
                        with pytest.raises(KeyError):
                            g.edge_slot(u, v)
        assert empty_rows > 0
        if directed:
            assert classes == {BIDIRECTIONAL, UNI_INCOMING, UNI_OUTGOING}

    @pytest.mark.parametrize("explicit_count", [False, True])
    def test_directed_sample_at_scale(self, explicit_count):
        # a directed sample of a 3000-node graph, thousands of slots in each
        # pair class, plus duplicated and reversed rows
        base = gen_pa(3000, 4, seed=5)
        arcs = directed_sample(base, 0.6, seed=5).edges
        rng = np.random.default_rng(5)
        dup = arcs[rng.random(arcs.shape[0]) < 0.1]
        rev = arcs[rng.random(arcs.shape[0]) < 0.1][:, ::-1]
        raw = np.concatenate([arcs, dup, rev, dup[:50]])
        raw = raw[rng.permutation(raw.shape[0])]
        node_count = 3010 if explicit_count else None
        g = Graph.from_edges(raw, True, node_count)
        ref = reference_graph_arrays(raw, True, node_count)
        for name in self.ARRAYS + self.DIRECTED_ARRAYS:
            got, want = getattr(g, name), ref[name]
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        stored = {k for k, x in vars(g).items() if isinstance(x, np.ndarray)}
        assert stored == self.STORED
        assert g.node_count == (3010 if explicit_count else 3000)
        assert g.self_loops_dropped == 0
        counts = np.bincount(g.pair_class, minlength=3)
        assert counts.min() > 1000, counts


SHAPE_ERROR = r"edges must be \(u, v\) pairs of integers"


class TestFromEdgesInput:
    # Every case below was once cast to int64 and reshaped to (-1, 2):
    # floats were truncated, strings parsed, bools read as ids 0 and 1, a
    # (2, 3) array read as three edges, and ragged rows, NaN and ids of
    # 2**63 and above raised errors other than InputError.
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("edges,error", [
        ([[0, 1.5], [1, 2]], SHAPE_ERROR),
        (np.array([[0, 1.9], [1, 2.2]]), SHAPE_ERROR),
        ([["0", "1"], ["1", "2"]], SHAPE_ERROR),
        ([[True, False], [False, True]], SHAPE_ERROR),
        (np.array([[0, 1, 2], [3, 4, 5]]), SHAPE_ERROR),
        ([0, 1, 2, 3], SHAPE_ERROR),
        ([[0, 1], [1]], SHAPE_ERROR),
        ([[0, float("nan")], [1, 2]], SHAPE_ERROR),
        ([[0, 2 ** 63]], SHAPE_ERROR),
        ([[0, 2 ** 64]], SHAPE_ERROR),
        (np.array([[0, 2 ** 63]], dtype=np.uint64), r"node ids must be below 2\*\*63"),
    ], ids=["float-list", "float-array", "strings", "bools", "2x3", "flat", "ragged",
            "nan", "2**63", "2**64", "uint64-2**63"])
    def test_only_integer_pairs(self, edges, error, directed):
        with pytest.raises(InputError, match=error):
            Graph.from_edges(edges, directed=directed)

    @pytest.mark.parametrize("edges", [[], np.empty((0, 2), dtype=np.int64)])
    def test_empty_input_is_an_empty_graph(self, edges):
        with pytest.raises(InputError, match="empty graph"):
            Graph.from_edges(edges, directed=False)

    @pytest.mark.parametrize("directed", [False, True])
    def test_any_integer_dtype_and_numpy_node_count(self, directed):
        # a numpy node_count once crashed in the key build
        edges = [(0, 1), (1, 2), (2, 0)]
        want = Graph.from_edges(np.array(edges, dtype=np.int64), directed, node_count=6)
        for dtype in (np.int32, np.uint8):
            for count in (6, np.int64(6), np.uint8(6)):
                g = Graph.from_edges(np.array(edges, dtype=dtype), directed, node_count=count)
                assert type(g.node_count) is int and g.node_count == 6
                for name in ("_csr_indptr", "_csr_indices"):
                    got, ref = getattr(g, name), getattr(want, name)
                    assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("count", [4.0, np.float64(6.0), True, np.True_, "6"],
                             ids=["float", "numpy-float", "bool", "numpy-bool", "str"])
    def test_non_integer_node_count(self, count):
        with pytest.raises(InputError, match="node_count must be an integer, got"):
            Graph.from_edges([(0, 1), (1, 2)], directed=False, node_count=count)


class TestNodeCountLimit:
    # Each case must fail before any array sized by the node count exists:
    # at 4e9 nodes one such array takes 32 GB.

    @pytest.mark.parametrize("directed", [False, True])
    def test_inferred_count_above_limit(self, directed):
        with pytest.raises(InputError, match="node count"):
            Graph.from_edges([(0, MAX_NODE_COUNT)], directed=directed)

    @pytest.mark.parametrize("directed", [False, True])
    def test_explicit_count_above_limit(self, directed):
        with pytest.raises(InputError, match="node count"):
            Graph.from_edges([(0, 1)], directed=directed,
                             node_count=MAX_NODE_COUNT + 1)

    def test_limit_keeps_slot_keys_in_int64(self):
        assert MAX_NODE_COUNT ** 2 - 1 <= np.iinfo(np.int64).max
        assert (MAX_NODE_COUNT + 1) ** 2 - 1 > np.iinfo(np.int64).max

    def test_edge_list_with_huge_id(self, tmp_path):
        f = tmp_path / "g.tsv"
        write_lines(f, ["0\t4000000000"])
        with pytest.raises(InputError, match="node count"):
            load_edge_list(f, directed=False)


def crawled_list(g, rng, extra=0.0):
    """``g``'s edges as a crawled edge list would hold them: in shuffled
    order, undirected ones in random orientation, plus an ``extra`` share of
    duplicated rows, reversed rows and self-loops."""
    raw = g.edges
    if not g.directed:
        flip = rng.random(raw.shape[0]) < 0.5
        raw[flip] = raw[flip, ::-1]
    k = int(extra * raw.shape[0])
    loops = rng.integers(0, g.node_count, size=k)
    raw = np.concatenate([raw, raw[rng.integers(0, raw.shape[0], size=k)],
                          raw[rng.integers(0, raw.shape[0], size=k), ::-1],
                          np.stack([loops, loops], axis=1)])
    return np.ascontiguousarray(raw[rng.permutation(raw.shape[0])])


class TestKeyWidth:
    # The largest node counts whose sort keys and row bounds fit in 32 bits:
    # n * n < 2**32 undirected, 2 * n * n <= 2**32 directed (tagged keys).
    LARGEST_32 = {False: 65535, True: 46340}

    @pytest.mark.parametrize("directed", [False, True])
    def test_threshold(self, directed):
        n = self.LARGEST_32[directed]
        assert graph._key_dtype(n, directed) == np.uint32
        assert graph._key_dtype(n + 1, directed) == np.uint64
        top = 2 * n * n - 1 if directed else n * n
        assert top <= np.iinfo(np.uint32).max
        top = 2 * (n + 1) ** 2 - 1 if directed else (n + 1) ** 2
        assert top > np.iinfo(np.uint32).max

    @pytest.mark.parametrize("directed", [False, True])
    def test_same_graph_on_both_sides(self, directed):
        # ids up to n - 1 reach the largest 32-bit keys; the list holds
        # duplicates, reversed pairs and self-loops
        n = self.LARGEST_32[directed]
        rng = np.random.default_rng(13)
        ids = np.concatenate([rng.integers(0, n, size=400), np.arange(n - 40, n)])
        raw = rng.choice(ids, size=(3000, 2))
        raw = np.concatenate([raw, raw[:300], raw[300:600, ::-1],
                              [[n - 1, n - 2], [n - 2, n - 1], [0, n - 1],
                               [n - 1, n - 1], [5, 5]]])
        below = Graph.from_edges(raw, directed, node_count=n)
        above = Graph.from_edges(raw, directed, node_count=n + 1)
        ref = reference_graph_arrays(raw, directed, n)
        for name in ("slot_ends", "pair_class", "edges"):
            got = getattr(below, name)
            assert np.array_equal(got, getattr(above, name)), name
            if got is not None:
                assert np.array_equal(got, ref[name]), name
        assert below.self_loops_dropped == above.self_loops_dropped
        assert below.self_loops_dropped == int(np.sum(raw[:, 0] == raw[:, 1]))

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("n", [10 ** 8, graph.MAX_NODE_COUNT])
    def test_wide_keys_exact(self, directed, n):
        # uint64 keys above 2**53, where float64 arithmetic would round off
        # their low bits; formed by the key helper alone, so that no array
        # sized by the node count is built
        pairs = [(n - 2, n - 1), (n - 1, n - 2), (n - 1, 0), (5, n - 3), (0, 1)]
        ids = np.array(pairs, dtype=np.int64)
        key = graph._pair_keys(ids[:, 0], ids[:, 1], n, directed)
        assert key.dtype == np.uint64
        if directed:
            want = ([(a * n + b) * 2 + 1 for a, b in pairs]
                    + [(b * n + a) * 2 for a, b in pairs])
        else:
            want = [min(a, b) * n + max(a, b) for a, b in pairs]
        assert [int(k) for k in key] == want


class TestBuildMemory:
    # Traced peak of Graph.from_edges beyond its input, in bytes per input
    # edge, on a crawled list of 150 000 edges (120 000 arcs directed).  With
    # int64 keys built from min, max and product copies of both columns, it
    # peaked at 32-34 B undirected and 51-60 B directed on these lists.
    BUDGET = {False: 16.0, True: 36.0}

    @pytest.mark.parametrize("extra", [0.0, 0.05])
    @pytest.mark.parametrize("directed", [False, True])
    def test_peak_per_edge(self, directed, extra):
        import tracemalloc

        base = gen_pa(15000, 10, seed=11)
        rng = np.random.default_rng(11)
        raw = crawled_list(directed_sample(base, 0.4, seed=11) if directed else base,
                           rng, extra)
        assert raw.shape[0] >= 100_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            g = Graph.from_edges(raw, directed)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert g.slot_count > 0
        assert peak / raw.shape[0] <= self.BUDGET[directed], peak / raw.shape[0]

    # Traced peak of a directed load_edge_list, in bytes per input arc, on
    # the same arcs written as a file.  np.loadtxt alone peaks near 19 B and
    # the build near 30 B beyond its input: the load stays within this
    # budget only if the parsed 16 B per arc are freed before the build's
    # peak.  Kept through the build, they took the load to 46-54 B.
    LOAD_BUDGET = 40.0

    def test_directed_load_peak_per_edge(self, tmp_path):
        import tracemalloc

        base = gen_pa(15000, 10, seed=11)
        raw = crawled_list(directed_sample(base, 0.4, seed=11), np.random.default_rng(11))
        f = tmp_path / "g.tsv"
        write_lines(f, [f"{u}\t{v}" for u, v in raw.tolist()])
        tracemalloc.start()
        try:
            g = load_edge_list(f, directed=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edge_count == raw.shape[0]
        assert peak / raw.shape[0] <= self.LOAD_BUDGET, peak / raw.shape[0]


class TestRoundTrip:
    @pytest.mark.parametrize("directed", [False, True])
    def test_load_write_load(self, tmp_path, directed):
        rng = np.random.default_rng(7)
        g = (random_directed_graph(rng, 20) if directed
             else random_undirected_graph(rng, 20))
        f = tmp_path / "g.tsv"
        write_edge_list(g, f)
        g2 = load_edge_list(f, directed=directed)
        assert np.array_equal(g.edges, g2.edges)
        assert g2.node_count == g.node_count  # max id matches by construction


class TestDirectedSlots:
    def test_one_way_edge_yields_two_slots(self):
        g = Graph.from_edges([(0, 1)], directed=True)
        assert g.slot_count == 2
        assert g.pair_class[g.edge_slot(0, 1)] == UNI_OUTGOING
        assert g.pair_class[g.edge_slot(1, 0)] == UNI_INCOMING

    def test_pair_class_partition(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_directed_graph(rng, 15, density=0.2)
            present = {(int(u), int(v)) for u, v in g.edges}
            for s, (u, v) in enumerate(map(tuple, g.slot_ends.tolist())):
                fwd = (u, v) in present
                bwd = (v, u) in present
                assert fwd or bwd
                expected = (BIDIRECTIONAL if fwd and bwd
                            else UNI_OUTGOING if fwd else UNI_INCOMING)
                assert g.pair_class[s] == expected
            # bidirectional classification is symmetric
            for s, (u, v) in enumerate(map(tuple, g.slot_ends.tolist())):
                if g.pair_class[s] == BIDIRECTIONAL:
                    assert g.pair_class[g.edge_slot(v, u)] == BIDIRECTIONAL

    @pytest.mark.parametrize("directed", [False, True])
    def test_edge_slot_ids_outside_graph(self, directed):
        # ids one below and one above [0, n) for either endpoint, against
        # every id inside it; each node holds a slot in some row
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 1)], directed=directed)
        n = g.node_count
        for x in range(n):
            for u, v in ((-1, x), (n, x), (x, -1), (x, n)):
                with pytest.raises(KeyError):
                    g.edge_slot(u, v)
        assert g.edge_slot(2, 0) == (4 if directed else 1)

    def test_undirected_shared_slot(self):
        g = Graph.from_edges([(2, 5), (1, 2)], directed=False)
        assert g.edge_slot(2, 5) == g.edge_slot(5, 2)
        assert g.edge_slot(1, 2) != g.edge_slot(2, 5)


class TestAverageDegree:
    def test_triangle(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)], directed=False)
        assert g.average_degree() == 2.0

    def test_single_edge(self):
        g = Graph.from_edges([(0, 1)], directed=False)
        assert g.average_degree() == 1.0

    def test_star(self):
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (0, 4)], directed=False)
        assert g.average_degree() == pytest.approx(1.6)

    def test_directed_counts_stored_pairs(self):
        g = Graph.from_edges([(0, 1)], directed=True)
        assert g.average_degree() == 1.0  # two stored pairs over two nodes
        tri = Graph.from_edges([(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)],
                               directed=True)
        assert tri.average_degree() == 2.0


class TestEdgeWeightsValues:
    @pytest.mark.parametrize("values, named", [
        (np.array([0.5 + 1j, 0.5]), "dtype complex128"),
        (np.array(["0.5", "0.5"]), "dtype <U3"),
        (np.array([0.5, None], dtype=object), "dtype object"),
        ([True, False], "dtype bool"),
        (np.full((2, 1), 0.5), r"shape \(2, 1\)"),
        ([[1], [1, 2]], "ragged rows"),
    ], ids=["complex", "string", "object", "bool", "2-D", "ragged"])
    def test_rejected_when_built(self, values, named):
        # bool weights once ran as 1/0, complex and ragged ones raised a
        # bare ValueError, and a (2, 1) array on a 2-slot graph was
        # reported as "weight array has 2 slots, graph has 2"
        with pytest.raises(InputError, match=f"^weights must be .*{named}$"):
            EdgeWeights(values)

    def test_sequence_converted_once(self):
        # a list once raised AttributeError in `check`
        g = Graph.from_edges([(0, 1), (1, 2)], directed=False)
        w = EdgeWeights([1, 0.5])
        assert isinstance(w.values, np.ndarray) and w.values.dtype == np.float64
        assert w.values.tolist() == [1.0, 0.5]
        w.check(g)

    def test_float64_array_held_as_is(self):
        values = np.zeros(3)
        assert EdgeWeights(values).values is values
        strided = EdgeWeights(np.zeros(6)[::2]).values
        assert strided.flags.c_contiguous and strided.dtype == np.float64


class TestSpectralRadiusBound:
    def test_bounds_dense_spectrum_and_max_degree(self):
        # sparse draws leave some graphs disconnected or with isolated nodes
        rng = np.random.default_rng(31)
        shapes = {"disconnected": 0, "isolated": 0}
        for i in range(200):
            n = int(rng.integers(2, 41))
            density = float(rng.choice([0.03, 0.08, 0.2, 0.5]))
            g = (random_directed_graph(rng, n, density) if i % 2
                 else random_undirected_graph(rng, n, density))
            A = dense_slot_adjacency(g)
            deg = A.sum(axis=1)
            components, _ = csgraph.connected_components(A, directed=False)
            shapes["disconnected"] += components > 1
            shapes["isolated"] += bool(np.any(deg == 0))
            rho = float(np.max(np.abs(np.linalg.eigvalsh(A))))
            bound = g.spectral_radius_bound()
            assert bound >= rho * (1.0 - 1e-12), f"graph {i}: {bound} < {rho}"
            assert bound <= deg.max(), f"graph {i}: {bound} > max degree"
        assert shapes["disconnected"] > 20 and shapes["isolated"] > 20

    def test_exact_on_regular_graphs(self):
        tri = Graph.from_edges([(0, 1), (1, 2), (0, 2)], directed=False)
        assert tri.spectral_radius_bound() == 2.0
        one_way = Graph.from_edges([(0, 1)], directed=True)
        assert one_way.spectral_radius_bound() == 1.0

    def test_star_reaches_sqrt_degree(self):
        # rho of a star with k leaves is sqrt(k), well below its max degree
        # k; the steps stop within 1% of the Rayleigh quotient, itself <= rho
        g = Graph.from_edges([(0, i) for i in range(1, 17)], directed=False)
        assert 4.0 <= g.spectral_radius_bound() <= 4.0 / 0.99

    def test_cached_per_graph(self):
        g = Graph.from_edges([(0, 1), (1, 2)], directed=False)
        assert g.spectral_radius_bound() is g.spectral_radius_bound()


class TestMutualProjection:
    def test_basic(self):
        g = Graph.from_edges([(0, 1), (1, 0), (0, 2)], directed=True)
        sub, remap = mutual_projection_lcc(g)
        assert sub.node_count == 2
        assert sub.slot_count == 1
        assert list(remap) == [0, 1]

    def test_fully_bidirectional_triangle(self):
        g = Graph.from_edges([(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)],
                             directed=True)
        sub, remap = mutual_projection_lcc(g)
        assert sub.node_count == 3
        assert sub.slot_count == 3
        assert list(remap) == [0, 1, 2]

    def test_tie_break_smallest_original_id(self):
        edges = [(0, 1), (1, 0), (2, 3), (3, 2), (4, 2)]
        sub, remap = mutual_projection_lcc(Graph.from_edges(edges, directed=True))
        assert list(remap) == [0, 1]
        # relabel so the other component holds the smaller ids
        relabeled = [(4, 3), (3, 4), (0, 1), (1, 0), (2, 0)]
        sub2, remap2 = mutual_projection_lcc(Graph.from_edges(relabeled, directed=True))
        assert list(remap2) == [0, 1]

    def test_no_mutual_edges(self):
        g = Graph.from_edges([(0, 1), (1, 2)], directed=True)
        with pytest.raises(InputError, match="no mutual"):
            mutual_projection_lcc(g)

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(11)
        g = random_directed_graph(rng, 25, density=0.15)
        try:
            sub, _ = mutual_projection_lcc(g)
        except InputError:
            pytest.skip("random draw had no mutual edges")
        as_directed = Graph.from_edges(
            np.concatenate([sub.edges, sub.edges[:, ::-1]]), directed=True,
            node_count=sub.node_count)
        sub2, remap2 = mutual_projection_lcc(as_directed)
        assert np.array_equal(sub.edges, sub2.edges)
        assert list(remap2) == list(range(sub.node_count))


# Runs ``python -m jwprop run`` in one fresh process after ``import jwprop``
# and prints the scipy.sparse modules it loaded, then which of the modules
# no run uses (scipy's package init, numpy.random, statistics, numpy.ma) it
# loaded.
_RUN_AND_LIST_MODULES = """
import runpy, sys
import jwprop
from jwprop import graph
sys.argv = ["jwprop", "run", "--graph", sys.argv[1], "--undirected", "--train",
            sys.argv[2], "--method", "lbp-jwp", "--out", sys.argv[3]]
try:
    runpy.run_module("jwprop", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(sorted(m for m in sys.modules if m.startswith("scipy.sparse")))
print([m for m in ("scipy", "numpy.random", "statistics", "numpy.ma") if m in sys.modules])
from scipy.sparse import _sparsetools, csgraph
print(_sparsetools is graph._sparsetools, graph._sparsetools.__name__)
"""


class TestSparsetoolsLoader:
    def test_run_skips_scipy_sparse_package(self, tmp_path):
        g = tmp_path / "g.tsv"
        write_lines(g, [f"{u}\t{v}" for u, v in gen_pa(40, 3, 0).edges.tolist()])
        train = tmp_path / "t.tsv"
        write_lines(train, ["0\t1", "1\t1", "38\t-1", "39\t-1"])
        out = tmp_path / "s.tsv"
        src = os.path.dirname(os.path.dirname(graph.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _RUN_AND_LIST_MODULES, str(g),
                               str(train), str(out)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded, unused, same = proc.stdout.splitlines()[-3:]  # after the run's report
        # only the kernel extension: no package init, no csgraph
        assert loaded == "['scipy.sparse._sparsetools']"
        # no scipy package init, neither synth's numpy.random nor scaling's
        # statistics, and no numpy.ma, which np.unique imports
        assert unused == "[]"
        # a later import of scipy.sparse reuses the loaded extension
        assert same == "True scipy.sparse._sparsetools"
        assert len(out.read_text().splitlines()) == 40

    def test_loaded_module_is_the_registered_one(self):
        assert graph._sparsetools is sys.modules["scipy.sparse._sparsetools"]
        folder = os.path.dirname(graph._sparsetools.__file__)
        assert graph._load_sparsetools(folder) is graph._sparsetools

    def test_both_loaders_expose_every_kernel_called(self, tmp_path):
        # The kernels the package calls, read from its source, so that a
        # scipy without one fails here rather than in the middle of a run.
        src = os.path.dirname(graph.__file__)
        called = set()
        for name in os.listdir(src):
            if name.endswith(".py"):
                with open(os.path.join(src, name), encoding="utf-8") as fh:
                    called |= set(re.findall(r"_sparsetools\.(\w+)\(", fh.read()))
        assert called == {"csr_matvec", "csc_matvec", "csr_scale_rows",
                          "csr_scale_columns"}
        # the file loader, in a process where scipy.sparse's package is not
        # imported, and the fallback to the normal import
        probe = ("import sys; from jwprop import graph; "
                 "print('scipy.sparse' in sys.modules, sorted(k for k in sys.argv[1:] "
                 "if not callable(getattr(graph._sparsetools, k, None))))")
        proc = subprocess.run([sys.executable, "-c", probe, *sorted(called)],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=os.path.dirname(src)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "[]"]
        fallback = graph._load_sparsetools(tmp_path)
        assert all(callable(getattr(fallback, k, None)) for k in called)

    def test_only_graph_reads_the_step_csr(self):
        # The graph owns its step CSR's layout: other modules reach it only
        # through its slot products, tile no vector by pair class and build
        # no pair-class step input (the negative and positive parts).
        src = os.path.dirname(graph.__file__)
        readers = set()
        for name in os.listdir(src):
            if name.endswith(".py"):
                with open(os.path.join(src, name), encoding="utf-8") as fh:
                    if re.search(r"_csr_indptr|_csr_indices|_sparsetools|np\.tile\("
                                 r"|np\.minimum\(|np\.maximum\(", fh.read()):
                        readers.add(name)
        assert readers == {"graph.py"}

    def test_folder_without_extension_falls_back_to_import(self, tmp_path):
        (tmp_path / "_sparsetools.txt").write_text("not an extension")
        kernels = graph._load_sparsetools(tmp_path)
        assert kernels is graph._sparsetools
        y = np.array([1.0])
        kernels.csr_matvec(1, 2, np.array([0, 2], dtype=np.int32),
                           np.array([0, 1], dtype=np.int32), np.array([2.0, 3.0]),
                           np.array([10.0, 100.0]), y)
        assert y.tolist() == [321.0]
