"""Synthetic benchmark generators: preferential-attachment graphs, directed
subsampling, planted two-community graphs by replication, training-set
sampling, and label noise.

Every generator is a pure function of its arguments and seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import Graph
from .propagation import LabelSet


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the planted-community benchmark."""

    node_count: int
    attachment: int  # edges added per new node
    seed: int = 0
    attack_edges: int = 0
    train_pos: int = 0
    train_neg: int = 0

    def __post_init__(self):
        if self.attachment < 1 or self.attachment >= self.node_count:
            raise InputError("attachment parameter must satisfy 1 <= m < n")
        if self.attack_edges < 0:
            raise InputError("attack edge count must be nonnegative")


def gen_pa(n: int, m: int, seed: int) -> Graph:
    """Preferential-attachment graph: an m-clique seed, then each new node
    attaches m edges to distinct existing nodes drawn proportionally to
    current degree."""
    if m < 1 or m >= n:
        raise InputError("gen_pa needs 1 <= m < n")
    rng = np.random.default_rng(seed)
    clique = m * (m - 1) // 2
    total = clique + (n - m) * m
    # Flattened endpoint list, edge by edge: sampling an entry uniformly is
    # sampling a node proportionally to its degree.  Each edge's first entry
    # is known up front (the seed clique's rows, then each new node m
    # times); the targets fill the second entries as they are drawn.
    ends = np.empty(2 * total, dtype=np.int64)
    ends[0:2 * clique:2], ends[1:2 * clique:2] = np.triu_indices(m, k=1)
    ends[2 * clique::2] = np.repeat(np.arange(m, n, dtype=np.int64), m)
    fill = 2 * clique
    for _ in range(m, n):
        if fill == 0:
            # m == 1: the single seed node still has degree zero.
            targets = [0]
        else:
            drawn: set[int] = set()
            while len(drawn) < m:
                drawn.update(ends[rng.integers(0, fill, size=m - len(drawn))].tolist())
            targets = sorted(drawn)
        ends[fill + 1:fill + 2 * m:2] = targets
        fill += 2 * m
    return Graph.from_edges(ends.reshape(-1, 2), directed=False, node_count=n)


def directed_sample(g: Graph, keep_fraction: float, seed: int) -> Graph:
    """Directed graph from an undirected one: expand every edge into both
    ordered pairs, then keep an exact-count uniform sample of the pairs."""
    if g.directed:
        raise InputError("directed_sample expects an undirected source graph")
    if not 0.0 < keep_fraction <= 1.0:
        raise InputError("keep_fraction must lie in (0, 1]")
    und = g.slot_ends
    pairs = np.concatenate([und, und[:, ::-1]], axis=0)
    k = int(round(keep_fraction * pairs.shape[0]))
    rng = np.random.default_rng(seed)
    idx = rng.choice(pairs.shape[0], size=k, replace=False)
    idx.sort()
    return Graph.from_edges(pairs[idx], directed=True, node_count=g.node_count)


def synth_sybil_replicate(g: Graph, k: int, seed: int) -> tuple[Graph, LabelSet]:
    """Plant a positive community by mirroring the graph.

    The output has 2n nodes: the originals (ground-truth negative) and a
    replica i+n per original i (ground-truth positive), with replica edges
    mirroring the original edges.  k attack edges then connect uniformly
    random (original, replica) pairs, deduplicated.
    """
    if g.directed:
        raise InputError("synth_sybil_replicate expects an undirected graph")
    if k < 0:
        raise InputError("attack edge count must be nonnegative")
    n = g.node_count
    if k > n * n:
        raise InputError(f"cannot place {k} distinct attack edges between {n}x{n} pairs")
    base = g.slot_ends
    mirrored = base + n
    rng = np.random.default_rng(seed)
    # Codes u * n + v in the order first drawn, skipping repeats; each batch
    # draws 16 more than are still missing.
    codes = np.empty(k, dtype=np.int64)
    count = 0
    while count < k:
        batch = rng.integers(0, n * n, size=k - count + 16)
        _, first = np.unique(batch, return_index=True)
        first.sort()
        fresh = batch[first]
        fresh = fresh[~np.isin(fresh, codes[:count])][:k - count]
        codes[count:count + fresh.size] = fresh
        count += fresh.size
    attack = np.stack([codes // n, codes % n + n], axis=1)
    all_edges = np.concatenate([base, mirrored, attack], axis=0)
    truth = LabelSet(frozenset(range(n, 2 * n)), frozenset(range(n)))
    return Graph.from_edges(all_edges, directed=False, node_count=2 * n), truth


def sample_training(truth: LabelSet, n_pos: int, n_neg: int, seed: int) -> LabelSet:
    """Uniform without-replacement sample of labeled nodes per class."""
    pos = truth.positive_array()
    neg = truth.negative_array()
    if n_pos > pos.size or n_neg > neg.size:
        raise InputError(
            f"requested {n_pos}+{n_neg} training nodes, only "
            f"{pos.size}+{neg.size} labeled")
    rng = np.random.default_rng(seed)
    take_p = rng.choice(pos, size=n_pos, replace=False)
    take_n = rng.choice(neg, size=n_neg, replace=False)
    return LabelSet.of(take_p, take_n)


def inject_noise(train: LabelSet, alpha_percent: float, seed: int) -> LabelSet:
    """Flip round(alpha% * class size) labels in each direction, sampled
    uniformly; class totals are preserved."""
    if not 0.0 <= alpha_percent <= 100.0:
        raise InputError("alpha must lie in [0, 100]")
    pos = train.positive_array()
    neg = train.negative_array()
    frac = alpha_percent / 100.0
    n_flip_pos = int(round(frac * pos.size))
    n_flip_neg = int(round(frac * neg.size))
    rng = np.random.default_rng(seed)
    flip_p = set(int(i) for i in rng.choice(pos, size=n_flip_pos, replace=False))
    flip_n = set(int(i) for i in rng.choice(neg, size=n_flip_neg, replace=False))
    new_pos = (train.positives - flip_p) | flip_n
    new_neg = (train.negatives - flip_n) | flip_p
    return LabelSet(frozenset(new_pos), frozenset(new_neg))


def build_sybil_benchmark(spec: SynthSpec) -> tuple[Graph, LabelSet, LabelSet]:
    """Full benchmark: replicated PA graph, ground truth, and a training
    sample.  Sub-seeds are derived as seed+1 / +2 for replication and
    training sampling."""
    base = gen_pa(spec.node_count, spec.attachment, spec.seed)
    g, truth = synth_sybil_replicate(base, spec.attack_edges, spec.seed + 1)
    train = sample_training(truth, spec.train_pos, spec.train_neg, spec.seed + 2)
    return g, truth, train
