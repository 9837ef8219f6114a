"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: dense matrices, python loops, and
direct formula transcriptions, kept separate from the sparse code paths
they validate.
"""

import math

import numpy as np
from scipy import sparse

from jwprop import EdgeWeights, Graph, LabelSet, RegularizerKind


def dense_undirected_matrix(g: Graph, w: EdgeWeights) -> np.ndarray:
    n = g.node_count
    W = np.zeros((n, n))
    for s, (u, v) in enumerate(g.slot_ends):
        W[u, v] = W[v, u] = w.values[s]
    return W


def scipy_symmetric_matrix(g: Graph, data) -> sparse.csr_matrix:
    """Full symmetric CSR with ``data[s]`` at (u, v) and (v, u) for every
    undirected slot s, built from ``slot_ends`` by public scipy alone.  Its
    rows come out with ascending columns, so ``@`` adds each row's terms in
    ascending column order."""
    u, v = g.slot_ends[:, 0], g.slot_ends[:, 1]
    return sparse.csr_matrix(
        (np.concatenate([data, data]),
         (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(g.node_count, g.node_count))


def scipy_undirected_step(g, w, q, p):
    return q + scipy_symmetric_matrix(g, w.values) @ p


def scipy_rw_step(g, w, q, p, variant, restart):
    """Random-walk step over ``scipy_symmetric_matrix``; weighted degrees
    are |W| times the ones vector."""
    W = scipy_symmetric_matrix(g, w.values)
    d = scipy_symmetric_matrix(g, np.abs(w.values)) @ np.ones(g.node_count)
    inv = np.zeros_like(d)
    inv[d > 0] = 1.0 / d[d > 0]
    moved = (W @ p) * inv if variant == "rw-b" else W @ (p * inv)
    return (1.0 - restart) * moved + restart * q


def scipy_directed_step(g, w, q, p):
    """The directed step as one ``csr_matrix`` product: row u holds slot
    (u, v) at column ``pair_class * n + v``, in slot order, and the input
    is p, its negative part and its positive part."""
    n = g.node_count
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(g.slot_ends[:, 0], minlength=n), out=indptr[1:])
    cols = g.pair_class.astype(np.int64) * n + g.slot_ends[:, 1]
    m = sparse.csr_matrix((w.values, cols, indptr), shape=(n, 3 * n))
    return q + m @ np.concatenate([p, np.minimum(p, 0.0), np.maximum(p, 0.0)])


def scipy_slot_adjacency(g: Graph) -> sparse.csr_matrix:
    """0/1 CSR with a 1 at (u, v) for every stored slot, and at (v, u) too
    for an undirected one."""
    if not g.directed:
        return scipy_symmetric_matrix(g, np.ones(g.slot_count))
    return sparse.csr_matrix(
        (np.ones(g.slot_count), (g.slot_ends[:, 0], g.slot_ends[:, 1])),
        shape=(g.node_count, g.node_count))


def scipy_spectral_radius_bound(g: Graph, rtol=1e-2, max_steps=30) -> float:
    """``Graph.spectral_radius_bound``'s iteration over
    ``scipy_slot_adjacency``."""
    A = scipy_slot_adjacency(g)
    x = np.ones(g.node_count)
    best = np.inf
    for _ in range(max_steps + 1):
        ax = A @ x
        best = min(best, float(np.max(ax / x)))
        rayleigh = float(np.sum(x * ax)) / float(np.sum(x * x))
        if best - rayleigh <= rtol * best:
            break
        x = ax + x
        x /= x.max()
    return best


def dense_slot_adjacency(g: Graph) -> np.ndarray:
    """0/1 matrix with a 1 at (u, v) and (v, u) for every stored slot."""
    A = np.zeros((g.node_count, g.node_count))
    for u, v in g.slot_ends:
        A[u, v] = A[v, u] = 1.0
    return A


def dense_undirected_step(g, w, q, p):
    return q + dense_undirected_matrix(g, w) @ p


def dense_directed_step(g, w, q, p):
    """Directed step evaluated densely, with the pair masks rebuilt from the
    raw input edge set rather than the graph's slot classification."""
    n = g.node_count
    present = {(int(u), int(v)) for u, v in g.edges}
    W = np.zeros((n, n))
    for s, (u, v) in enumerate(g.slot_ends):
        W[u, v] = w.values[s]
    Ab = np.zeros((n, n))
    Ai = np.zeros((n, n))
    Ao = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            fwd = (u, v) in present
            bwd = (v, u) in present
            if fwd and bwd:
                Ab[u, v] = 1.0
            elif bwd:
                Ai[u, v] = 1.0
            elif fwd:
                Ao[u, v] = 1.0
    return (q + (W * Ab) @ p + (W * Ai) @ np.minimum(p, 0.0)
            + (W * Ao) @ np.maximum(p, 0.0))


def random_undirected_graph(rng, n, density=0.15) -> Graph:
    mask = rng.random((n, n)) < density
    iu = np.triu_indices(n, k=1)
    edges = [(int(a), int(b)) for a, b in zip(*iu) if mask[a, b]]
    if not edges:
        edges = [(0, 1)]
    return Graph.from_edges(np.asarray(edges), directed=False, node_count=n)


def random_directed_graph(rng, n, density=0.15) -> Graph:
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    edges = [(int(a), int(b)) for a, b in zip(*np.nonzero(mask))]
    if not edges:
        edges = [(0, 1)]
    return Graph.from_edges(np.asarray(edges), directed=True, node_count=n)


def random_labels(rng, n, k_pos, k_neg) -> LabelSet:
    picks = rng.permutation(n)[: k_pos + k_neg]
    return LabelSet.of(picks[:k_pos], picks[k_pos:])


def random_weights(rng, g, lo=-0.5, hi=0.5, min_abs=0.0) -> EdgeWeights:
    vals = rng.uniform(lo, hi, g.slot_count)
    if min_abs > 0.0:
        mags = rng.uniform(min_abs, max(abs(lo), abs(hi)), g.slot_count)
        vals = mags * np.where(rng.random(g.slot_count) < 0.5, -1.0, 1.0)
    return EdgeWeights(vals)


def objective(g, q, p_t, labels, lam, regularizer, directed):
    """Scalar per-alternation objective as a function of the weight vector,
    evaluated through the dense oracle step."""

    pos = labels.positive_array()
    neg = labels.negative_array()

    def fn(vals):
        w = EdgeWeights(np.asarray(vals, dtype=float))
        p_next = (dense_directed_step(g, w, q, p_t) if directed
                  else dense_undirected_step(g, w, q, p_t))
        loss = 0.5 * (np.sum((p_next[pos] - 1.0) ** 2)
                      + np.sum((p_next[neg] + 1.0) ** 2))
        u = g.slot_ends[:, 0]
        v = g.slot_ends[:, 1]
        if regularizer is RegularizerKind.CONSISTENCY:
            reg = -lam * np.sum(p_t[u] * p_t[v] * np.asarray(vals))
        elif regularizer is RegularizerKind.L1:
            reg = lam * np.sum(np.abs(vals))
        elif regularizer is RegularizerKind.L2:
            reg = lam * np.sum(np.asarray(vals) ** 2)
        else:
            reg = 0.0
        return float(loss + reg)

    return fn


def finite_difference_gradient(fn, vals, h=1e-5):
    vals = np.asarray(vals, dtype=float)
    grad = np.empty_like(vals)
    for i in range(vals.size):
        up = vals.copy()
        dn = vals.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return grad


def brute_force_auc_counts(pos_scores, neg_scores):
    """Exact pairwise counts of positive-above-negative and tied pairs."""
    diff = np.asarray(pos_scores)[:, None] - np.asarray(neg_scores)[None, :]
    return int(np.count_nonzero(diff > 0)), int(np.count_nonzero(diff == 0))


def brute_force_auc(pos_scores, neg_scores):
    greater, ties = brute_force_auc_counts(pos_scores, neg_scores)
    return (greater + 0.5 * ties) / (len(pos_scores) * len(neg_scores))


def directed_graph_with_isolated_tail() -> Graph:
    """Directed graph holding all three pair classes, built with an explicit
    node count three above max id + 1, so nodes 4-6 are isolated."""
    edges = [(0, 1), (1, 0), (1, 2), (3, 0), (2, 3), (3, 2), (0, 2)]
    return Graph.from_edges(np.asarray(edges), directed=True, node_count=7)


def reference_graph_arrays(edges, directed, node_count=None) -> dict:
    """Graph arrays by the original construction: np.unique over rows and
    over the directed ordered pairs, with CSR row pointers from bincounts.
    The step's CSR (``_csr_indptr``, ``_csr_indices``) holds slot k as entry
    k, with int32 indices (every graph here is far below 2**31 entries).
    ``class_col`` holds each directed slot's int64 column in the n x 3n
    step matrix."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    e = e[e[:, 0] != e[:, 1]]
    if not directed:
        e = np.sort(e, axis=1)
    e = np.unique(e, axis=0)
    n = int(e.max()) + 1 if node_count is None else node_count
    out = {"edges": e}

    def row_pointers(rows):
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return indptr

    if directed:
        key_sorted = np.sort(e[:, 0] * n + e[:, 1])
        pairs = np.unique(np.concatenate([e, e[:, ::-1]], axis=0), axis=0)

        def contains(keys):
            idx = np.minimum(np.searchsorted(key_sorted, keys), len(key_sorted) - 1)
            return key_sorted[idx] == keys

        fwd = contains(pairs[:, 0] * n + pairs[:, 1])
        bwd = contains(pairs[:, 1] * n + pairs[:, 0])
        pair_class = np.where(fwd & bwd, 0, np.where(fwd, 2, 1)).astype(np.uint8)
        class_col = pair_class.astype(np.int64) * n + pairs[:, 1]
        out.update(slot_ends=pairs, pair_class=pair_class, class_col=class_col)
        rows, cols = pairs[:, 0], class_col
    else:
        # upper triangle only: row u holds slot (u, v) at column v
        out["slot_ends"] = e
        rows, cols = e[:, 0], e[:, 1]
    out["_csr_indptr"] = row_pointers(rows).astype(np.int32)
    out["_csr_indices"] = cols.astype(np.int32)
    return out


# -- full-slot gradients --------------------------------------------------------
# The gradient formulas evaluated over every slot, each operation in the
# order the package applies it on the slots that carry loss signal.  They
# differ from the package only where the loss term is zero: there these
# add (+/-0) to the regularizer term, so a zero entry may differ in sign.


def residuals(p_next, labels, n):
    err = np.zeros(n)
    pos = labels.positive_array()
    neg = labels.negative_array()
    err[pos] = p_next[pos] - 1.0
    err[neg] = p_next[neg] + 1.0
    return err


def regularizer_term(g, w, p_t, kind, lam):
    u, v = g.slot_ends[:, 0], g.slot_ends[:, 1]
    if kind is RegularizerKind.CONSISTENCY:
        return p_t[u] * -lam * p_t[v]
    if kind is RegularizerKind.L1:
        return np.sign(w.values) * lam
    if kind is RegularizerKind.L2:
        return w.values * (2.0 * lam)
    return 0.0


def full_slot_grad_undirected(g, w, p_t, p_next, labels, lam, kind):
    err = residuals(p_next, labels, g.node_count)
    u, v = g.slot_ends[:, 0], g.slot_ends[:, 1]
    loss = err[u] * p_t[v] + err[v] * p_t[u]
    return loss + regularizer_term(g, w, p_t, kind, lam)


def full_slot_grad_directed(g, w, p_t, p_next, labels, lam, kind):
    n = g.node_count
    err = residuals(p_next, labels, n)
    u, v = g.slot_ends[:, 0], g.slot_ends[:, 1]
    parts = np.concatenate([p_t, np.minimum(p_t, 0.0), np.maximum(p_t, 0.0)])
    loss = err[u] * parts[g.pair_class.astype(np.int64) * n + v]
    return loss + regularizer_term(g, w, p_t, kind, lam)


def full_slot_grad_rw_undirected(g, w, p_t, p_next, labels, lam, kind, restart, inv):
    err = residuals(p_next, labels, g.node_count)
    u, v = g.slot_ends[:, 0], g.slot_ends[:, 1]
    loss = (err[u] * p_t[v] * inv[u] + err[v] * p_t[u] * inv[v]) * (1.0 - restart)
    return loss + regularizer_term(g, w, p_t, kind, lam)


def bincount_weighted_degrees(g, w):
    """Per-node sum of |w| over incident slots, as a bincount over the
    flattened slot endpoints."""
    return np.bincount(g.slot_ends.ravel(), weights=np.repeat(np.abs(w.values), 2),
                       minlength=g.node_count)


# -- synthetic generators, one python step per draw ------------------------------


def loop_gen_pa(n, m, seed) -> np.ndarray:
    """The preferential-attachment edge list, one edge and draw at a time."""
    rng = np.random.default_rng(seed)
    total = m * (m - 1) // 2 + (n - m) * m
    edges = np.empty((total, 2), dtype=np.int64)
    ends = np.empty(2 * total, dtype=np.int64)
    cnt = 0
    fill = 0
    for i in range(m):
        for j in range(i + 1, m):
            edges[cnt] = (i, j)
            ends[fill] = i
            ends[fill + 1] = j
            cnt += 1
            fill += 2
    for new in range(m, n):
        if fill == 0:
            targets = {0}
        else:
            targets = set()
            while len(targets) < m:
                draw = ends[rng.integers(0, fill, size=m - len(targets))]
                targets.update(int(t) for t in draw)
        for t in sorted(targets):
            edges[cnt] = (new, t)
            ends[fill] = new
            ends[fill + 1] = t
            cnt += 1
            fill += 2
    return edges[:cnt]


def loop_attack_codes(n, k, seed) -> np.ndarray:
    """``synth_sybil_replicate``'s attack-edge codes u * n + v, deduplicated
    one draw at a time through a set."""
    rng = np.random.default_rng(seed)
    chosen: list[int] = []
    seen: set[int] = set()
    while len(chosen) < k:
        batch = rng.integers(0, n * n, size=max(k - len(chosen), 1) + 16)
        for code in batch:
            code = int(code)
            if code not in seen:
                seen.add(code)
                chosen.append(code)
                if len(chosen) == k:
                    break
    return np.asarray(chosen, dtype=np.int64)


# A float sum of S slot terms, accumulated in any order, differs from
# math.fsum of the same terms by at most ROUNDING_C * S * 2**-53 times the
# sum of their absolute values: each of the at most 2S additions and
# subtractions and the few products per term rounds once.  c = 8 was fixed
# before the first test that uses it ran.
ROUNDING_C = 8


def fsum_bound(terms, slots: int) -> float:
    return ROUNDING_C * slots * 2.0 ** -53 * math.fsum(abs(float(t)) for t in terms)


def fsum_consistency(g: Graph, w: EdgeWeights, p) -> tuple[float, float]:
    """math.fsum of the per-slot terms p_u * p_v * w, and the bound on a
    float sum of them."""
    terms = [float(p[u]) * float(p[v]) * float(x)
             for (u, v), x in zip(g.slot_ends, w.values)]
    return math.fsum(terms), fsum_bound(terms, g.slot_count)


def slot_classes(g: Graph, truth: LabelSet) -> tuple[np.ndarray, ...]:
    """Indices of the homogeneous, the heterogeneous and the remaining slots
    under ground truth, by a loop over ``slot_ends``: both endpoints labeled
    alike, labeled unlike, or an endpoint unlabeled."""
    label = {i: 1 for i in truth.positives} | {i: -1 for i in truth.negatives}
    classes = ([], [], [])
    for s, (u, v) in enumerate(g.slot_ends):
        lu, lv = label.get(int(u)), label.get(int(v))
        classes[2 if lu is None or lv is None else 0 if lu == lv else 1].append(s)
    return tuple(np.array(c, dtype=np.int64) for c in classes)


def fsum_class_means(g: Graph, w: EdgeWeights, truth: LabelSet):
    """Homogeneous and heterogeneous mean weights as math.fsum over each
    class's slots divided by its size (NaN when empty), each with the bound
    on a mean whose class sum may be the total of all weights minus other
    class sums: ``fsum_bound`` over every weight, over the class size."""
    label = {i: 1 for i in truth.positives} | {i: -1 for i in truth.negatives}
    homo, hetero = [], []
    for (u, v), x in zip(g.slot_ends, w.values):
        lu, lv = label.get(int(u)), label.get(int(v))
        if lu is not None and lv is not None:
            (homo if lu == lv else hetero).append(float(x))
    total = fsum_bound(w.values, g.slot_count)
    return tuple((math.fsum(c) / len(c), total / len(c)) if c else (math.nan, 0.0)
                 for c in (homo, hetero))


def within_bound(got: float, want: float, bound: float) -> bool:
    """Both NaN, or |got - want| <= bound."""
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= bound
