"""Synthetic benchmark generators: preferential-attachment graphs, directed
subsampling, planted two-community graphs by replication, training-set
sampling, and label noise.

Every generator is a pure function of its arguments and seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# Every generator draws from numpy.random.  NumPy 2 imports it lazily, on
# first attribute access, so without this import the first default_rng call
# would pay for the import inside whatever its caller times.
import numpy.random  # noqa: F401

from .errors import InputError
from .graph import MAX_NODE_COUNT, Graph, _first_of_runs, _in_sorted, _pair_keys
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
        _check_seed(self.seed)
        _check_counts(self.train_pos, self.train_neg)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")


def _check_node_count(n: int) -> None:
    # Graph.from_edges's limit, checked before any array sized by n is built
    if n > MAX_NODE_COUNT:
        raise InputError(f"node count {n} exceeds the limit of "
                         f"{MAX_NODE_COUNT} nodes (int64 slot keys)")


def _check_counts(n_pos: int, n_neg: int) -> None:
    if n_pos < 0 or n_neg < 0:
        raise InputError(f"training counts must be nonnegative, got {n_pos}+{n_neg}")


# New nodes whose targets gen_pa draws together.  The value is part of the
# random stream: another value gives other graphs from the same seed.
PA_CHUNK = 256


def gen_pa(n: int, m: int, seed: int) -> Graph:
    """Preferential-attachment graph: an m-clique seed on nodes [0, m), then
    each new node t attaches m edges to distinct nodes below t, drawn
    proportionally to their degree before t arrives.  The graph has
    m(m-1)/2 + (n-m)m edges.

    The draws use the endpoint list of Batagelj & Brandes (Phys. Rev. E 71,
    036113, 2005): entry 2k holds edge k's source and entry 2k+1 its
    target, so an entry drawn uniformly from the F_t entries before node
    t's own edges is a node drawn proportionally to its degree.  Node t
    takes the first m distinct values of a sequence of such draws.

    New nodes are drawn in chunks of ``PA_CHUNK`` rows.  One call draws m
    entry pointers for every row of the chunk.  A pointer may name the
    target entry of an earlier row of the same chunk, whose value is not
    known yet; passes over the chunk then settle the rows in dependency
    order.  A row is ready once every entry it points to holds a final
    value.  A ready row whose m values are distinct is final, and its
    values are written, sorted, to its target entries.  A ready row with
    repeats keeps each value's first position and redraws the others, in
    one call per pass for all such rows.  Redraws are made only against
    final values, so each node's targets have the distribution of drawing
    one entry at a time.  ``PA_CHUNK`` fixes the order of the draws, so
    the graph of a seed depends on it; with one-row chunks, each node draws
    m pointers and then its missing targets in one call at a time.  For
    m = 1, node 1 attaches to node 0, the only node before it.
    """
    if m < 1 or m >= n:
        raise InputError("gen_pa needs 1 <= m < n")
    _check_node_count(n)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    clique = m * (m - 1) // 2
    total = clique + (n - m) * m
    ends = np.empty(2 * total, dtype=np.int64)
    ends[0:2 * clique:2], ends[1:2 * clique:2] = np.triu_indices(m, k=1)
    ends[2 * clique::2] = np.repeat(np.arange(m, n, dtype=np.int64), m)
    ends[2 * clique + 1::2] = -1
    first = m
    if m == 1:
        ends[1] = 0
        first = 2
    for lo in range(first, n, PA_CHUNK):
        _attach_chunk(ends, rng, m, lo, min(lo + PA_CHUNK, n))
    return Graph.from_edges(ends.reshape(-1, 2), directed=False, node_count=n)


def _attach_chunk(ends: np.ndarray, rng: np.random.Generator, m: int,
                  lo: int, hi: int) -> None:
    """Fill the target entries of new nodes [lo, hi), which hold -1 until
    their row is final (see ``gen_pa``)."""
    row_width = 2 * m
    fill = m * (m - 1) + row_width * (np.arange(lo, hi) - m)  # F_t per row
    targets = fill[0] + 1 + 2 * np.arange(m)  # row 0's target entries
    position = np.arange(m)
    ptr = rng.integers(0, fill[:, None], size=(hi - lo, m))
    final = np.zeros(hi - lo, dtype=bool)
    rows = np.arange(hi - lo)  # rows not yet final
    while rows.size:
        vals = ends[ptr[rows]]
        ok = vals.min(axis=1) >= 0
        ready = rows[ok]
        # Each row's values with their positions, sorted by value, then by
        # position: a value equal to its left neighbour is a repeat.
        keyed = np.sort(vals[ok] * m + position, axis=1)
        vals = keyed // m
        repeat = vals[:, 1:] == vals[:, :-1]
        clean = ~repeat.any(axis=1)
        done = ready[clean]
        ends[targets + row_width * done[:, None]] = vals[clean]
        final[done] = True
        at_row, at_col = np.nonzero(repeat)
        if at_row.size:
            redo = ready[at_row]
            ptr[redo, keyed[at_row, at_col + 1] % m] = rng.integers(0, fill[redo])
        rows = rows[~final[rows]]


def directed_sample(g: Graph, keep_fraction: float, seed: int) -> Graph:
    """Directed graph from an undirected one: expand every edge into both
    ordered pairs, then keep an exact-count uniform sample of the pairs."""
    if g.directed:
        raise InputError("directed_sample expects an undirected source graph")
    if not 0.0 < keep_fraction <= 1.0:
        raise InputError("keep_fraction must lie in (0, 1]")
    _check_seed(seed)
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

    The output is built from its sort keys u * 2n + v (``Graph.__init__``),
    put in ascending order without sorting them all.  The base graph's
    slots, read in slot order, give its keys in ascending order.  The
    attack edge of code u * n + v joins u to replica v + n, so its key lies
    after those of row u's base slots: the codes come out of
    ``_attack_codes`` sorted and are merged into the base block.  The
    replica of slot (u, v) has key (u + n) * 2n + v + n, the base key plus
    n * 2n + n, above every base and attack key.  Nothing is validated,
    sorted or deduplicated again: the keys are distinct by construction.
    """
    if g.directed:
        raise InputError("synth_sybil_replicate expects an undirected graph")
    if k < 0:
        raise InputError("attack edge count must be nonnegative")
    n = g.node_count
    if k > n * n:
        raise InputError(f"cannot place {k} distinct attack edges between {n}x{n} pairs")
    _check_node_count(2 * n)
    _check_seed(seed)
    codes = _attack_codes(n, k, np.random.default_rng(seed))
    ids = np.arange(n)
    rows = g._at_rows(ids)
    base = _pair_keys(rows, g._at_columns(ids), 2 * n, False)
    u, v = np.divmod(codes, n)
    v += n
    keys = np.empty(2 * base.size + k, dtype=base.dtype)
    # the attack edge (u, v) goes after the base slots of rows up to u
    row_ends = np.cumsum(np.bincount(rows, minlength=n))
    _merge(base, _pair_keys(u, v, 2 * n, False), row_ends[u], out=keys[:base.size + k])
    np.add(base, 2 * n * n + n, out=keys[base.size + k:])
    truth = LabelSet(np.arange(n, 2 * n), np.arange(n))
    return Graph(2 * n, keys, False), truth


def _attack_codes(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """The k distinct attack codes u * n + v in [0, n * n), ascending.

    The codes are those first drawn, skipping repeats: each batch draws 16
    more than are still missing, and its codes not drawn before, in the
    order drawn, are kept until k are.  A batch's repeats are found by one
    sort (``_first_draws``).  The kept codes stay sorted between batches:
    a batch's codes are looked up in them by one ``searchsorted``, not by
    np.isin, which may import numpy.ma, and its few fresh codes are sorted
    and merged in.  Re-sorting every kept code per batch would take time
    quartic in n for k near n * n, where the last codes take thousands of
    batches."""
    kept = np.empty(0, dtype=np.int64)
    while kept.size < k:
        batch = rng.integers(0, n * n, size=k - kept.size + 16)
        fresh = batch[_first_draws(batch) & ~_in_sorted(kept, batch)][:k - kept.size]
        if fresh.size:
            fresh.sort()
            kept = _merge(kept, fresh, np.searchsorted(kept, fresh),
                          out=np.empty(kept.size + fresh.size, dtype=np.int64))
    return kept


def _first_draws(batch: np.ndarray) -> np.ndarray:
    """Mask of the first draw of each value in ``batch``.  A batch usually
    holds a few repeats, so one sort finds the values drawn more than once,
    and a stable sort of just their draws finds each one's first."""
    first = np.ones(batch.size, dtype=bool)
    ordered = np.sort(batch)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        at = np.flatnonzero(_in_sorted(repeated, batch))
        at = at[np.argsort(batch[at], kind="stable")]
        first[at[~_first_of_runs(batch[at])]] = False
    return first


def _merge(a: np.ndarray, b: np.ndarray, at: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out``, holding the ascending arrays a and b merged, where b[j]
    goes after the first at[j] entries of a (``np.searchsorted(a, b)``)."""
    at = at + np.arange(b.size)
    out[at] = b
    rest = np.ones(out.size, dtype=bool)
    rest[at] = False
    out[rest] = a
    return out


def sample_training(truth: LabelSet, n_pos: int, n_neg: int, seed: int) -> LabelSet:
    """Uniform without-replacement sample of labeled nodes per class."""
    _check_counts(n_pos, n_neg)
    _check_seed(seed)
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
    _check_seed(seed)
    pos = train.positive_array()
    neg = train.negative_array()
    frac = alpha_percent / 100.0
    n_flip_pos = int(round(frac * pos.size))
    n_flip_neg = int(round(frac * neg.size))
    rng = np.random.default_rng(seed)
    # choice over an array draws as over the indices of that array
    flip_p = np.zeros(pos.size, dtype=bool)
    flip_p[rng.choice(pos.size, size=n_flip_pos, replace=False)] = True
    flip_n = np.zeros(neg.size, dtype=bool)
    flip_n[rng.choice(neg.size, size=n_flip_neg, replace=False)] = True
    return LabelSet(np.concatenate([pos[~flip_p], neg[flip_n]]),
                    np.concatenate([neg[~flip_n], pos[flip_p]]))


def build_sybil_benchmark(spec: SynthSpec) -> tuple[Graph, LabelSet, LabelSet]:
    """Full benchmark: replicated PA graph, ground truth, and a training
    sample.  Sub-seeds are derived as seed+1 / +2 for replication and
    training sampling."""
    base = gen_pa(spec.node_count, spec.attachment, spec.seed)
    g, truth = synth_sybil_replicate(base, spec.attack_edges, spec.seed + 1)
    train = sample_training(truth, spec.train_pos, spec.train_neg, spec.seed + 2)
    return g, truth, train
