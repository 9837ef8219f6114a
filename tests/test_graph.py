import os

import numpy as np
import pytest
from scipy.sparse import csgraph

from jwprop import (
    BIDIRECTIONAL,
    UNI_INCOMING,
    UNI_OUTGOING,
    Graph,
    InputError,
    directed_sample,
    gen_pa,
    load_edge_list,
    mutual_projection_lcc,
    write_edge_list,
)

from jwprop import graph
from jwprop.graph import MAX_NODE_COUNT

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
            names = ("edges", "slot_ends", "_slot_u", "_slot_v", "_csr_indptr",
                     "_csr_indices")
            if directed:
                names += ("pair_class", "_indptr")
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
            for name in ("_slot_u", "_slot_v", "pair_class", "_indptr",
                         "_csr_indptr", "_csr_indices"):
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


class TestBuildMatchesReference:
    ARRAYS = ("edges", "slot_ends", "_slot_u", "_slot_v", "_csr_indptr",
              "_csr_indices")
    DIRECTED_ARRAYS = ("pair_class", "_indptr")
    # Every array a graph stores; edges and slot_ends are derived.
    STORED = {"_slot_u", "_slot_v", "_csr_indptr", "_csr_indices"}
    DIRECTED_STORED = {"pair_class", "_indptr"}

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
            assert stored == self.STORED | (self.DIRECTED_STORED if directed else set())
            for col in (g._slot_u, g._slot_v):
                assert col.dtype == np.int64 and col.flags.c_contiguous
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
        assert stored == self.STORED | self.DIRECTED_STORED
        assert g.node_count == (3010 if explicit_count else 3000)
        assert g.self_loops_dropped == 0
        counts = np.bincount(g.pair_class, minlength=3)
        assert counts.min() > 1000, counts


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
