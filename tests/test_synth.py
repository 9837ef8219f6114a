import numpy as np
import pytest
from scipy.sparse import csgraph, csr_matrix

from jwprop import (
    Graph,
    InputError,
    LabelSet,
    SynthSpec,
    directed_sample,
    gen_pa,
    inject_noise,
    sample_training,
    synth_sybil_replicate,
)
from jwprop import synth

from _oracles import loop_attack_codes, loop_gen_pa


def connected_component_count(g: Graph) -> int:
    adj = csr_matrix((np.ones(g.edge_count), (g.edges[:, 0], g.edges[:, 1])),
                     shape=(g.node_count, g.node_count))
    n, _ = csgraph.connected_components(adj, directed=False)
    return n


class TestGenPa:
    def test_edge_count_formula(self):
        g = gen_pa(5, 2, seed=0)
        assert g.node_count == 5
        assert g.edge_count == 1 + 3 * 2  # 2-clique then 3 nodes x 2 edges

    def test_m1_gives_connected_tree(self):
        g = gen_pa(50, 1, seed=4)
        assert g.edge_count == 49
        assert connected_component_count(g) == 1

    def test_determinism(self):
        a = gen_pa(100, 3, seed=42)
        b = gen_pa(100, 3, seed=42)
        assert np.array_equal(a.edges, b.edges)
        c = gen_pa(100, 3, seed=43)
        assert not np.array_equal(a.edges, c.edges)

    def test_no_duplicate_attachments(self):
        g = gen_pa(200, 5, seed=1)
        assert g.edge_count == 10 + 195 * 5  # dedup never removed anything

    def test_heavy_tail_max_degree_grows(self):
        small = gen_pa(200, 3, seed=7)
        large = gen_pa(5000, 3, seed=7)
        deg = lambda g: np.bincount(g.edges.ravel()).max()
        assert deg(large) > deg(small)

    def test_invalid_parameters(self):
        with pytest.raises(InputError):
            gen_pa(5, 0, seed=0)
        with pytest.raises(InputError):
            gen_pa(5, 5, seed=0)


class TestDirectedSample:
    def test_keep_all_is_fully_bidirectional(self):
        g = gen_pa(30, 2, seed=0)
        d = directed_sample(g, 1.0, seed=0)
        assert d.edge_count == 2 * g.edge_count
        assert np.all(d.pair_class == 0)

    def test_exact_half_count(self):
        g = gen_pa(120, 5, seed=3)  # 10 + 115*5 = 585 edges
        d = directed_sample(g, 0.5, seed=3)
        assert d.edge_count == g.edge_count  # exactly half of 2|E|

    def test_determinism(self):
        g = gen_pa(60, 3, seed=1)
        a = directed_sample(g, 0.5, seed=9)
        b = directed_sample(g, 0.5, seed=9)
        assert np.array_equal(a.edges, b.edges)

    def test_preserves_node_count(self):
        g = gen_pa(40, 2, seed=5)
        d = directed_sample(g, 0.3, seed=5)
        assert d.node_count == g.node_count

    def test_invalid_fraction(self):
        g = gen_pa(10, 2, seed=0)
        with pytest.raises(InputError):
            directed_sample(g, 0.0, seed=0)


class TestSybilReplicate:
    def test_triangle_with_one_attack_edge(self):
        tri = Graph.from_edges([(0, 1), (1, 2), (0, 2)], directed=False)
        g, truth = synth_sybil_replicate(tri, 1, seed=0)
        assert g.node_count == 6
        assert g.edge_count == 7
        u, v = g.slot_ends[:, 0], g.slot_ends[:, 1]
        hetero = (u < 3) != (v < 3)
        assert int(hetero.sum()) == 1
        assert truth.negatives == {0, 1, 2}
        assert truth.positives == {3, 4, 5}

    def test_zero_attack_edges_disconnected_mirror(self):
        tri = Graph.from_edges([(0, 1), (1, 2), (0, 2)], directed=False)
        g, _ = synth_sybil_replicate(tri, 0, seed=0)
        assert g.edge_count == 6
        assert connected_component_count(g) == 2
        mirrored = {(u + 3, v + 3) for u, v in [(0, 1), (0, 2), (1, 2)]}
        stored = {tuple(e) for e in g.edges.tolist()}
        assert mirrored <= stored

    def test_reference_scale_counts(self):
        # a 4,039-node / 88,234-edge base must replicate to 8,078 nodes and
        # 186,468 edges once 10k attack edges are added
        rng = np.random.default_rng(0)
        n, m = 4039, 88234
        seen = set()
        while len(seen) < m:
            u, v = rng.integers(0, n, size=2)
            if u != v:
                seen.add((min(u, v), max(u, v)))
        base = Graph.from_edges(np.array(sorted(seen)), directed=False, node_count=n)
        g, truth = synth_sybil_replicate(base, 10_000, seed=1)
        assert g.node_count == 8078
        assert g.edge_count == 186_468
        u, v = g.slot_ends[:, 0], g.slot_ends[:, 1]
        hetero = (u < n) != (v < n)
        assert int(hetero.sum()) == 10_000
        assert len(truth.positives) == len(truth.negatives) == n

    def test_attack_count_exact_and_deduplicated(self):
        base = gen_pa(50, 2, seed=2)
        g, _ = synth_sybil_replicate(base, 500, seed=2)
        assert g.edge_count == 2 * base.edge_count + 500

    def test_too_many_attack_edges(self):
        tri = Graph.from_edges([(0, 1), (1, 2), (0, 2)], directed=False)
        with pytest.raises(InputError):
            synth_sybil_replicate(tri, 10, seed=0)

    def test_determinism(self):
        base = gen_pa(40, 2, seed=0)
        a, _ = synth_sybil_replicate(base, 30, seed=5)
        b, _ = synth_sybil_replicate(base, 30, seed=5)
        assert np.array_equal(a.edges, b.edges)


class CapturedEdges:
    """Stands in for ``Graph`` inside ``synth`` and keeps the raw edge list
    each generator passes to ``from_edges``."""

    def __init__(self, monkeypatch):
        self.edges = []
        monkeypatch.setattr(synth, "Graph", self)

    def from_edges(self, edges, directed, node_count=None):
        self.edges.append(np.array(edges))
        return Graph.from_edges(edges, directed, node_count)


class TestSameStreamAsLoops:
    """The vectorized generators give exactly the edge lists of the
    one-draw-at-a-time loops, from the same random stream."""

    @pytest.mark.parametrize("n,m,seed", [
        (2000, 10, 11), (1000, 10, 0), (300, 3, 7), (50, 1, 3), (30, 2, 5),
        (2, 1, 0), (12, 11, 4), (40, 39, 1), (25, 24, 9)])
    def test_gen_pa(self, monkeypatch, n, m, seed):
        captured = CapturedEdges(monkeypatch)
        g = gen_pa(n, m, seed)
        want = loop_gen_pa(n, m, seed)
        assert np.array_equal(captured.edges[0], want)
        assert g.node_count == n

    def test_gen_pa_many_seeds(self, monkeypatch):
        captured = CapturedEdges(monkeypatch)
        rng = np.random.default_rng(3)
        for seed in range(40):
            n = int(rng.integers(2, 60))
            m = int(rng.integers(1, n))
            gen_pa(n, m, seed)
            assert np.array_equal(captured.edges[-1], loop_gen_pa(n, m, seed))

    @pytest.mark.parametrize("n,k", [(6, 0), (6, 1), (6, 30), (6, 35), (6, 36),
                                     (2, 3), (2, 4), (40, 1500), (300, 2000)])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_attack_edges(self, monkeypatch, n, k, seed):
        base = gen_pa(n, 1, seed)
        captured = CapturedEdges(monkeypatch)
        g, _ = synth_sybil_replicate(base, k, seed)
        codes = loop_attack_codes(n, k, seed)
        assert codes.size == k
        attack = np.stack([codes // n, codes % n + n], axis=1).reshape(-1, 2)
        want = np.concatenate([base.slot_ends, base.slot_ends + n, attack])
        assert np.array_equal(captured.edges[0], want)
        assert g.edge_count == base.edge_count * 2 + k


class TestSampleTraining:
    def test_all_positives(self):
        truth = LabelSet.of(range(10), range(10, 15))
        train = sample_training(truth, 10, 2, seed=0)
        assert train.positives == truth.positives

    def test_disjoint_subset(self):
        truth = LabelSet.of(range(100), range(100, 200))
        train = sample_training(truth, 30, 30, seed=1)
        assert len(train) == 60
        assert train.positives <= truth.positives
        assert train.negatives <= truth.negatives

    def test_determinism(self):
        truth = LabelSet.of(range(100), range(100, 200))
        a = sample_training(truth, 10, 10, seed=3)
        b = sample_training(truth, 10, 10, seed=3)
        assert a == b

    def test_insufficient_labels(self):
        truth = LabelSet.of([0], [1])
        with pytest.raises(InputError):
            sample_training(truth, 2, 1, seed=0)


class TestInjectNoise:
    def test_zero_alpha_unchanged(self):
        train = LabelSet.of(range(10), range(10, 20))
        assert inject_noise(train, 0.0, seed=0) == train

    def test_half_flip_counts(self):
        train = LabelSet.of(range(10), range(10, 20))
        noisy = inject_noise(train, 50.0, seed=0)
        assert len(noisy.positives) == len(noisy.negatives) == 10
        assert len(train.positives - noisy.positives) == 5
        assert len(train.negatives - noisy.negatives) == 5

    def test_full_swap(self):
        train = LabelSet.of(range(5), range(5, 12))
        noisy = inject_noise(train, 100.0, seed=0)
        assert noisy.positives == train.negatives
        assert noisy.negatives == train.positives

    def test_preserves_total(self):
        train = LabelSet.of(range(7), range(7, 20))
        for alpha in (10.0, 30.0, 70.0):
            noisy = inject_noise(train, alpha, seed=1)
            assert len(noisy) == len(train)

    def test_bad_alpha(self):
        with pytest.raises(InputError):
            inject_noise(LabelSet.of([0], [1]), 150.0, seed=0)


class TestSynthSpec:
    def test_validation(self):
        with pytest.raises(InputError):
            SynthSpec(node_count=10, attachment=10)
        with pytest.raises(InputError):
            SynthSpec(node_count=10, attachment=2, attack_edges=-1)

    def test_build_pipeline_deterministic(self):
        spec = SynthSpec(node_count=100, attachment=3, seed=0, attack_edges=50,
                         train_pos=10, train_neg=10)
        g1, t1, l1 = __import__("jwprop").build_sybil_benchmark(spec)
        g2, t2, l2 = __import__("jwprop").build_sybil_benchmark(spec)
        assert np.array_equal(g1.edges, g2.edges)
        assert t1 == t2 and l1 == l2
