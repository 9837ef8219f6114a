"""Sparse graph storage with per-edge weight slots.

Undirected graphs keep one weight slot per edge; both adjacency rows of an
edge reference the same slot, so the weight is a single shared parameter.
Directed graphs keep one slot per ordered pair of *connected* nodes: a
one-way edge u->v yields the slot (u, v), classified as outgoing-only from
u's side, and the slot (v, u), classified as incoming-only from v's side.
A reciprocated pair yields two bidirectional slots.  The pair class decides
how a neighbor's score enters the directed propagation step.

Graphs are immutable once built; only the weight values bound to a graph
change between propagation passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import InputError

# Pair classes for directed graphs, stored per ordered slot (u, v).
BIDIRECTIONAL = 0  # both (u,v) and (v,u) are input edges
UNI_INCOMING = 1  # only (v,u) is an input edge: v reaches u, u does not reach v
UNI_OUTGOING = 2  # only (u,v) is an input edge

# Stopping rule of Graph.spectral_radius_bound: relative gap between its
# upper and lower bound, and a cap on the number of power steps.
_RHO_BOUND_RTOL = 1e-2
_RHO_BOUND_MAX_STEPS = 30

# Largest node count n whose slot keys u * n + v (at most n * n - 1) fit
# in int64.
MAX_NODE_COUNT = math.isqrt(2 ** 63)


def _contains_sorted(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(haystack, needles)
    idx_c = np.minimum(idx, len(haystack) - 1)
    return (idx < len(haystack)) & (haystack[idx_c] == needles)


class Graph:
    """Immutable sparse graph over dense node ids [0, node_count).

    Attributes
    ----------
    node_count : int
    directed : bool
    edges : (E, 2) int64 array
        Deduplicated input edges.  Undirected rows are canonical (u < v).
    slot_ends : (S, 2) int64 array
        Endpoints per weight slot.  Undirected: one row per edge (S == E).
        Directed: one row per ordered connected pair, lexicographically
        sorted, so a one-way input edge contributes two slots.
    pair_class : (S,) uint8 array or None
        BIDIRECTIONAL / UNI_INCOMING / UNI_OUTGOING per slot (directed only).
        The values 0, 1, 2 number the column blocks of the n x 3n directed
        step matrix (full score, negative part, positive part): slot (u, v)
        sits in row u, column ``pair_class * node_count + v``.
    self_loops_dropped : int
        Count of self-loop lines discarded during construction.
    """

    def __init__(self, node_count: int, edges: np.ndarray, directed: bool,
                 self_loops_dropped: int = 0):
        self.node_count = int(node_count)
        self.directed = bool(directed)
        self.edges = edges
        self.self_loops_dropped = int(self_loops_dropped)
        if directed:
            self._build_directed()
        else:
            self._build_undirected()
        # Contiguous copies of the two slot_ends columns: the gradients
        # gather per-slot endpoint scores through them every alternation,
        # and a strided column view reads twice the index memory.
        self._slot_u = np.ascontiguousarray(self.slot_ends[:, 0])
        self._slot_v = np.ascontiguousarray(self.slot_ends[:, 1])
        key = self._slot_u * self.node_count + self._slot_v
        self._slot_key = key  # lex-sorted by construction
        self._rho_bound: float | None = None

    @classmethod
    def from_edges(cls, edges, directed: bool, node_count: int | None = None) -> "Graph":
        """Build a graph from raw (u, v) pairs.

        Drops self-loops (counted), deduplicates pairs, and for undirected
        graphs collapses (u, v) and (v, u) onto one edge.  Node count
        defaults to max id + 1; pass it explicitly to keep trailing
        isolated nodes.  Node counts above ``MAX_NODE_COUNT`` are rejected
        before any array sized by the node count is built.
        """
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if e.size and int(e.min()) < 0:
            raise InputError("node ids must be nonnegative")
        loops = e[:, 0] == e[:, 1]
        dropped = int(np.count_nonzero(loops))
        e = e[~loops]
        if not directed:
            e = np.sort(e, axis=1)
        if e.shape[0]:
            e = np.unique(e, axis=0)
        if e.shape[0] == 0:
            raise InputError("empty graph: no edges left after dropping self-loops")
        max_id = int(e.max())
        if node_count is None:
            node_count = max_id + 1
        elif node_count <= max_id:
            raise InputError(f"node_count {node_count} too small for node id {max_id}")
        if node_count > MAX_NODE_COUNT:
            raise InputError(f"node count {node_count} exceeds the limit of "
                             f"{MAX_NODE_COUNT} nodes (int64 slot keys)")
        return cls(node_count, e, directed, dropped)

    # -- derived structure ------------------------------------------------

    def _build_undirected(self):
        n = self.node_count
        e = self.edges  # lex sorted unique rows, u < v
        self.slot_ends = e
        self.pair_class = None
        s = np.arange(e.shape[0], dtype=np.int64)
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        slot = np.concatenate([s, s])
        order = np.lexsort((cols, rows))
        rows, cols, slot = rows[order], cols[order], slot[order]
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=self._indptr[1:])
        self._indices = cols
        self._entry_slot = slot

    def _build_directed(self):
        n = self.node_count
        e = self.edges
        key_sorted = np.sort(e[:, 0] * n + e[:, 1])
        pairs = np.unique(np.concatenate([e, e[:, ::-1]], axis=0), axis=0)
        fwd = _contains_sorted(key_sorted, pairs[:, 0] * n + pairs[:, 1])
        bwd = _contains_sorted(key_sorted, pairs[:, 1] * n + pairs[:, 0])
        self.slot_ends = pairs
        self.pair_class = np.where(
            fwd & bwd, BIDIRECTIONAL, np.where(fwd, UNI_OUTGOING, UNI_INCOMING)
        ).astype(np.uint8)
        # Row-major sorted pairs double as the full CSR adjacency: entry k of
        # the concatenated rows is exactly slot k, so the weight values are
        # the CSR data as they stand.
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(pairs[:, 0], minlength=n), out=self._indptr[1:])
        self._indices = pairs[:, 1]
        # Column of slot (u, v) in the n x 3n directed step matrix.
        self._class_col = self.pair_class.astype(np.int64) * n + pairs[:, 1]

    # -- queries -----------------------------------------------------------

    @property
    def edge_count(self) -> int:
        """Number of stored input edges (undirected edges or directed arcs)."""
        return self.edges.shape[0]

    @property
    def slot_count(self) -> int:
        return self.slot_ends.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        """Adjacency-row lengths (connected-neighbor counts for directed)."""
        return np.diff(self._indptr)

    def edge_slot(self, u: int, v: int) -> int:
        """Weight-slot index of the ordered pair (u, v); undirected pairs
        resolve to the same slot in either order."""
        if not self.directed and u > v:
            u, v = v, u
        key = u * self.node_count + v
        idx = int(np.searchsorted(self._slot_key, key))
        if idx >= self.slot_count or self._slot_key[idx] != key:
            raise KeyError(f"no edge slot for pair ({u}, {v})")
        return idx

    def spectral_radius_bound(self) -> float:
        """Upper bound on the spectral radius of the unweighted slot adjacency.

        The slot adjacency A holds a 1 at (u, v) for every stored slot, in
        both orders for an undirected edge, so it is symmetric and every
        weight vector bounded by ``c`` gives |W| <= c * A entrywise.  For
        any positive x, the Collatz-Wielandt value max_i (A x)_i / x_i is at
        least rho(A), also when A is reducible (disconnected graphs,
        isolated nodes).  x starts at the ones vector, whose value is the
        maximum degree, and takes shifted power steps x <- (A x + x) / max,
        which keep x positive; the smallest value seen is returned, so the
        bound never exceeds the maximum degree.  The steps stop once it is
        within 1% of the Rayleigh quotient x'Ax / x'x, a lower bound on
        rho(A) since A is symmetric, or after 30 steps.  Computed once per
        graph.
        """
        if self._rho_bound is None:
            n = self.node_count
            adj = sparse.csr_matrix(
                (np.ones(self._indices.size), self._indices, self._indptr),
                shape=(n, n), copy=False)
            x = np.ones(n)
            best = math.inf
            for _ in range(_RHO_BOUND_MAX_STEPS + 1):
                ax = adj @ x
                best = min(best, float(np.max(ax / x)))
                # NumPy reductions rather than a BLAS dot, which hands long
                # vectors to a thread pool that stalls for milliseconds per
                # call whenever another process holds the other cores.
                rayleigh = float(np.sum(x * ax)) / float(np.sum(x * x))
                if best - rayleigh <= _RHO_BOUND_RTOL * best:
                    break
                x = ax + x
                x /= x.max()
            self._rho_bound = best
        return self._rho_bound

    def average_degree(self) -> float:
        """2|E|/|V| for undirected graphs; stored ordered pairs over |V|
        for directed graphs (each connected pair counts once per order)."""
        if self.node_count == 0:
            raise InputError("average degree of an empty graph")
        slots = self.slot_count
        return (2.0 * slots if not self.directed else float(slots)) / self.node_count


@dataclass(frozen=True)
class EdgeWeights:
    """One learnable weight per graph slot, bounded by ``clamp_bound``."""

    values: np.ndarray
    clamp_bound: float = 0.5

    @classmethod
    def uniform(cls, g: Graph, value: float, clamp_bound: float = 0.5) -> "EdgeWeights":
        return cls(np.full(g.slot_count, float(value)), clamp_bound)

    def check(self, g: Graph):
        if self.values.shape != (g.slot_count,):
            raise InputError(
                f"weight array has {self.values.shape[0]} slots, graph has {g.slot_count}"
            )


# -- file format ------------------------------------------------------------


def load_edge_list(path, directed: bool) -> Graph:
    """Parse a tab-separated edge list ("u<TAB>v" per line) into a Graph.

    Lines starting with '#' are ignored.  Self-loops are dropped and counted
    on the returned graph; duplicate pairs collapse to one edge.  Node ids
    must be nonnegative base-10 integers; node_count becomes max id + 1.
    """
    edges = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: expected 'u<TAB>v', got {text!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputError(
                    f"{path}:{lineno}: node ids must be base-10 integers"
                ) from None
            if u < 0 or v < 0:
                raise InputError(f"{path}:{lineno}: node ids must be nonnegative")
            edges.append((u, v))
    if not edges:
        raise InputError(f"{path}: empty graph")
    return Graph.from_edges(np.asarray(edges, dtype=np.int64), directed)


def write_edge_list(g: Graph, path):
    """Serialize the stored input edges, one "u<TAB>v" line per edge."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in g.edges:
            fh.write(f"{u}\t{v}\n")


def mutual_projection_lcc(g: Graph) -> tuple[Graph, np.ndarray]:
    """Undirected projection keeping only reciprocated pairs, restricted to
    the largest connected component.

    Returns the projected graph with compacted node ids and a remap array
    mapping new id -> original id.  Ties between equal-size components go to
    the one containing the smallest original node id.
    """
    if not g.directed:
        raise InputError("mutual projection expects a directed graph")
    mutual = g.slot_ends[g.pair_class == BIDIRECTIONAL]
    mutual = mutual[mutual[:, 0] < mutual[:, 1]]
    if mutual.shape[0] == 0:
        raise InputError("no mutual edges: projection result is empty")
    n = g.node_count
    adj = sparse.csr_matrix(
        (np.ones(mutual.shape[0]), (mutual[:, 0], mutual[:, 1])), shape=(n, n)
    )
    ncomp, labels = csgraph.connected_components(adj, directed=False)
    sizes = np.bincount(labels, minlength=ncomp)
    candidates = np.flatnonzero(sizes == sizes.max())
    first_node = np.full(ncomp, n, dtype=np.int64)
    np.minimum.at(first_node, labels, np.arange(n, dtype=np.int64))
    chosen = candidates[np.argmin(first_node[candidates])]
    keep = np.flatnonzero(labels == chosen)  # ascending original ids
    new_id = np.full(n, -1, dtype=np.int64)
    new_id[keep] = np.arange(keep.size, dtype=np.int64)
    in_lcc = labels[mutual[:, 0]] == chosen
    sub_edges = new_id[mutual[in_lcc]]
    sub = Graph.from_edges(sub_edges, directed=False, node_count=keep.size)
    return sub, keep
