import numpy as np
import pytest
from scipy.sparse import csgraph

from jwprop import (
    BIDIRECTIONAL,
    UNI_INCOMING,
    UNI_OUTGOING,
    Graph,
    InputError,
    load_edge_list,
    mutual_projection_lcc,
    write_edge_list,
)

from jwprop.graph import MAX_NODE_COUNT

from _oracles import dense_slot_adjacency, random_directed_graph, random_undirected_graph


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
        assert list(g.degrees) == [2, 2, 2]

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
