import itertools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
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
        with pytest.raises(InputError):
            gen_pa(10, 2, seed=-1)

    def test_node_count_limit_checked_before_allocating(self, monkeypatch):
        # the endpoint array holds 2 * (n - 1) int64 entries at m = 1; a node
        # count above the limit is rejected, with Graph.from_edges's
        # message, before it is built
        monkeypatch.setattr(synth, "MAX_NODE_COUNT", 1000)
        assert gen_pa(1000, 1, seed=0).node_count == 1000
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="^node count 100000 exceeds the limit "
                                                 "of 1000 nodes"):
                gen_pa(100_000, 1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


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


# Builds the method-sweep benchmark (seed 11, 6000 base nodes, 15 000
# attack edges, 100 training labels a class) and its test set in a fresh
# process, and prints whether numpy.ma was loaded.
_SWEEP_LABELS_MODULES = """
import sys
from jwprop import synth
g, truth, train = synth.build_sybil_benchmark(synth.SynthSpec(
    6000, 10, 11, attack_edges=15000, train_pos=100, train_neg=100))
test = truth.exclude(train)
print(len(truth), len(test), 'numpy.ma' in sys.modules)
"""

# Plants 200 000 attack edges on a 3000-node base in a fresh process: the
# dedupe needs a second batch of draws, checked against the kept codes.
_MANY_ATTACK_EDGES_MODULES = """
import sys
from jwprop import synth
g, truth = synth.synth_sybil_replicate(synth.gen_pa(3000, 2, 0), 200000, 0)
print(g.edge_count, 'numpy.ma' in sys.modules)
"""


def _fresh_process_output(script: str) -> list[str]:
    src = os.path.dirname(os.path.dirname(synth.__file__))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestSybilReplicate:
    def test_sweep_labels_skip_numpy_ma(self):
        # np.unique and its kin import numpy.ma on first use; a label set
        # sorts and tests membership without them
        assert _fresh_process_output(_SWEEP_LABELS_MODULES) == ["12000", "11800", "False"]

    def test_many_attack_edges_skip_numpy_ma(self):
        # np.isin picks its sort kind, which imports numpy.ma, on a large
        # second batch
        assert _fresh_process_output(_MANY_ATTACK_EDGES_MODULES) == ["211994", "False"]

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


def assert_pa_contract(g: Graph, n: int, m: int) -> None:
    """Nodes [0, m) form a clique and each later node has exactly m edges,
    to distinct nodes below it; nothing was dropped or merged."""
    assert g.node_count == n
    assert g.self_loops_dropped == 0
    assert g.edge_count == m * (m - 1) // 2 + (n - m) * m
    lo, hi = g.edges[:, 0], g.edges[:, 1]
    assert np.all(lo < hi)
    lower = np.bincount(hi, minlength=n)  # edges to lower nodes, per node
    assert np.array_equal(lower, np.minimum(np.arange(n), m))


def attachments(g: Graph, m: int) -> tuple:
    """Each new node's sorted tuple of lower neighbours, in node order."""
    e = g.edges[np.lexsort((g.edges[:, 0], g.edges[:, 1]))]
    return tuple(tuple(row) for row in e[e[:, 1] >= m, 0].reshape(-1, m).tolist())


def exact_pa_distribution(n: int, m: int) -> dict:
    """Probability of every outcome of ``attachments`` when each new node
    takes the first m distinct nodes of a sequence of draws proportional to
    degree, enumerated exactly."""
    clique = [(i, j) for i in range(m) for j in range(i + 1, m)]
    states = {(): Fraction(1)}
    for t in range(m, n):
        nxt = {}
        for outcome, prob in states.items():
            deg = [0] * t
            for i, j in clique + [(a, s) for a, row in enumerate(outcome, m)
                                  for s in row]:
                deg[i] += 1
                deg[j] += 1
            total = sum(deg)
            for subset in itertools.combinations(range(t), m):
                if total == 0:  # m == 1, node 1: node 0 is the only choice
                    p = Fraction(1)
                else:
                    p = Fraction(0)
                    for order in itertools.permutations(subset):
                        left, q = total, Fraction(1)
                        for node in order:
                            q *= Fraction(deg[node], left)
                            left -= deg[node]
                        p += q
                if p:
                    nxt[outcome + (subset,)] = prob * p
        states = nxt
    return states


class TestGenPaContract:
    CHUNK = synth.PA_CHUNK

    @pytest.mark.parametrize("n,m,seed", [
        (2000, 10, 11), (1000, 10, 0), (300, 3, 7), (50, 1, 3), (30, 2, 5),
        (2, 1, 0), (12, 11, 4), (40, 39, 1), (25, 24, 9),
        # chunk boundaries: n, and the n - m new nodes, at B - 1, B, B + 1
        (CHUNK - 1, 3, 2), (CHUNK, 3, 2), (CHUNK + 1, 3, 2),
        (CHUNK + 2, 3, 2), (CHUNK + 3, 3, 2), (CHUNK + 4, 3, 2),
        (CHUNK + 1, 1, 6), (CHUNK + 2, 1, 6), (CHUNK + 3, 1, 6),
        (4 * CHUNK + 7, 5, 8), (3 * CHUNK, 1, 8)])
    def test_contract(self, n, m, seed):
        g = gen_pa(n, m, seed)
        assert_pa_contract(g, n, m)
        assert connected_component_count(g) == 1
        assert np.array_equal(gen_pa(n, m, seed).edges, g.edges)

    def test_contract_many_seeds(self):
        rng = np.random.default_rng(3)
        for seed in range(40):
            n = int(rng.integers(2, 60))
            m = int(rng.integers(1, n))
            assert_pa_contract(gen_pa(n, m, seed), n, m)

    @pytest.mark.parametrize("n,m", [(300, 3), (2 * CHUNK + 9, 1)])
    def test_other_seed_differs(self, n, m):
        assert not np.array_equal(gen_pa(n, m, seed=1).edges,
                                  gen_pa(n, m, seed=2).edges)


class TestGenPaDistribution:
    """The chunked draws have the distribution of drawing one entry at a
    time.  Seeds, sample sizes and thresholds were fixed before the first
    run."""

    @pytest.mark.parametrize("generator", ["gen_pa", "chunk_2", "loop"])
    def test_exact_small_case(self, monkeypatch, generator):
        # n = 5, m = 2 has 18 outcomes, the rarest of probability 1/30;
        # 1500 seeds give every cell an expectation of at least 50.
        n, m, draws = 5, 2, 1500
        if generator.startswith("chunk_"):
            monkeypatch.setattr(synth, "PA_CHUNK", int(generator[-1]))
        make = ((lambda seed: Graph.from_edges(loop_gen_pa(n, m, seed), False, n))
                if generator == "loop" else (lambda seed: gen_pa(n, m, seed)))
        exact = exact_pa_distribution(n, m)
        assert sum(exact.values()) == 1 and len(exact) == 18
        counts = dict.fromkeys(exact, 0)
        for seed in range(draws):
            outcome = attachments(make(seed), m)
            assert outcome in counts
            counts[outcome] += 1
        observed = np.array([counts[k] for k in exact])
        expected = np.array([float(p) * draws for p in exact.values()])
        stat = float(np.sum((observed - expected) ** 2 / expected))
        assert stats.chi2.sf(stat, len(exact) - 1) > 1e-3

    def test_degrees_match_loop_at_scale(self):
        # Mean max degree and mean degree of node 0 over 50 seeds at
        # (2000, 5); each difference of means must lie within 4 standard
        # errors.
        n, m, seeds = 2000, 5, range(50)

        def degree_stats(edges):
            deg = np.bincount(np.asarray(edges).ravel(), minlength=n)
            return deg.max(), deg[0]

        new = np.array([degree_stats(gen_pa(n, m, s).edges) for s in seeds], float)
        old = np.array([degree_stats(loop_gen_pa(n, m, s)) for s in seeds], float)
        se = np.sqrt(new.var(axis=0, ddof=1) / len(new)
                     + old.var(axis=0, ddof=1) / len(old))
        z = np.abs(new.mean(axis=0) - old.mean(axis=0)) / se
        assert np.all(z < 4.0), (new.mean(axis=0), old.mean(axis=0), z)


class TestSameStreamAsLoops:
    """The vectorized generators give exactly the edge lists of the
    one-draw-at-a-time loops, from the same random stream.  ``gen_pa`` does
    so with one-row chunks: each node then draws its m pointers in one call
    and redraws its repeats in one call per pass, as the loop does."""

    @pytest.mark.parametrize("n,m,seed", [
        (2000, 10, 11), (1000, 10, 0), (300, 3, 7), (50, 1, 3), (30, 2, 5),
        (2, 1, 0), (12, 11, 4), (40, 39, 1), (25, 24, 9)])
    def test_gen_pa(self, monkeypatch, n, m, seed):
        monkeypatch.setattr(synth, "PA_CHUNK", 1)
        captured = CapturedEdges(monkeypatch)
        g = gen_pa(n, m, seed)
        want = loop_gen_pa(n, m, seed)
        assert np.array_equal(captured.edges[0], want)
        assert g.node_count == n

    def test_gen_pa_many_seeds(self, monkeypatch):
        monkeypatch.setattr(synth, "PA_CHUNK", 1)
        captured = CapturedEdges(monkeypatch)
        rng = np.random.default_rng(3)
        for seed in range(40):
            n = int(rng.integers(2, 60))
            m = int(rng.integers(1, n))
            gen_pa(n, m, seed)
            assert np.array_equal(captured.edges[-1], loop_gen_pa(n, m, seed))

    @pytest.mark.parametrize("n,k", [(6, 0), (6, 1), (6, 30), (6, 35), (6, 36),
                                     (2, 3), (2, 4), (40, 1500), (300, 2000),
                                     (32767, 5), (32768, 5)])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_attack_edges(self, n, k, seed):
        # The output equals the graph of the loop's edge list.  Its 2n
        # nodes take uint32 sort keys up to n = 32767, uint64 from 32768.
        base = gen_pa(n, 1, seed)
        g, _ = synth_sybil_replicate(base, k, seed)
        codes = loop_attack_codes(n, k, seed)
        assert codes.size == k
        attack = np.stack([codes // n, codes % n + n], axis=1).reshape(-1, 2)
        want = Graph.from_edges(
            np.concatenate([base.slot_ends, base.slot_ends + n, attack]), False, 2 * n)
        assert g.node_count == want.node_count == 2 * n
        for name in ("_csr_indptr", "_csr_indices"):
            got, expected = getattr(g, name), getattr(want, name)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
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

    @pytest.mark.parametrize("seed", range(4))
    def test_flips_are_draws_over_the_sorted_ids(self, seed):
        # the stream of a set-based version: rng.choice over each sorted
        # class, the positives first
        rng = np.random.default_rng(seed + 50)
        ids = rng.permutation(400)
        train = LabelSet.of(ids[:30], ids[30:47])
        pos, neg = sorted(train.positives), sorted(train.negatives)
        for alpha in (10.0, 35.0, 100.0):
            draw = np.random.default_rng(seed)
            flip_p = set(draw.choice(pos, size=round(alpha / 100 * 30), replace=False).tolist())
            flip_n = set(draw.choice(neg, size=round(alpha / 100 * 17), replace=False).tolist())
            want = LabelSet((set(pos) - flip_p) | flip_n, (set(neg) - flip_n) | flip_p)
            assert inject_noise(train, alpha, seed) == want


class TestSynthSpec:
    def test_validation(self):
        with pytest.raises(InputError):
            SynthSpec(node_count=10, attachment=10)
        with pytest.raises(InputError):
            SynthSpec(node_count=10, attachment=2, attack_edges=-1)
        with pytest.raises(InputError):
            SynthSpec(node_count=10, attachment=2, seed=-1)
        with pytest.raises(InputError):
            SynthSpec(node_count=10, attachment=2, train_pos=-1)
        with pytest.raises(InputError):
            SynthSpec(node_count=10, attachment=2, train_neg=-1)

    def test_build_pipeline_deterministic(self):
        spec = SynthSpec(node_count=100, attachment=3, seed=0, attack_edges=50,
                         train_pos=10, train_neg=10)
        g1, t1, l1 = __import__("jwprop").build_sybil_benchmark(spec)
        g2, t2, l2 = __import__("jwprop").build_sybil_benchmark(spec)
        assert np.array_equal(g1.edges, g2.edges)
        assert t1 == t2 and l1 == l2
