"""Sparse graph storage with per-edge weight slots.

Undirected graphs keep one weight slot per edge; both adjacency rows of an
edge reference the same slot, so the weight is a single shared parameter.
Directed graphs keep one slot per ordered pair of *connected* nodes: a
one-way edge u->v yields the slot (u, v), classified as outgoing-only from
u's side, and the slot (v, u), classified as incoming-only from v's side.
A reciprocated pair yields two bidirectional slots.  The pair class decides
how a neighbor's score enters the directed propagation step: in full, its
negative part or its positive part, the step input's column blocks in that
order (``Graph._step_input``).  No other module knows the order.

Graphs are immutable once built; only the weight values bound to a graph
change between propagation passes.

No other module reads a graph's step CSR: the propagation steps, the
gradients and the diagnostics go through its private slot products, which
run on compiled kernels of scipy's private ``scipy.sparse._sparsetools``
extension: ``csr_matvec`` and ``csc_matvec``, which add into a caller's
output array in a known order, and ``csr_scale_rows`` and
``csr_scale_columns``, which scale a CSR's data in place by a factor per
row or per column.  The extension is loaded straight from its file
(``_load_sparsetools``), in the folder that ``importlib.util.find_spec``
locates for the ``scipy`` package without importing it.  No run path needs
a package init: importing ``scipy.sparse`` to reach the extension cost a
``jwprop run`` process about 0.2 s and 25 MiB of resident memory, and a
bare ``import scipy`` still 10 ms and 1.3 MiB (2-core x86_64 VM).
``find_spec("scipy.sparse")`` would import ``scipy`` to search it.
``scipy.sparse`` and ``csgraph`` are imported only by
``mutual_projection_lcc``.

``load_edge_list`` reads an edge-list file with the first of three readers
that takes it, and all three give the same ids: ``_load_canonical_edges``
takes regular files of plain "u<TAB>v" lines and parses them in chunks on
two threads; ``_load_edges_bulk`` takes any other whitespace-separated
pairs of int64 ids through ``np.loadtxt``; ``_parse_edge_lines`` reads
everything else line by line and names the first bad line.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import io
import math
import operator
import os
import stat
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, data_rows, is_utf8

# Pair classes for directed graphs, one per ordered slot (u, v).
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
_MAX_INT64 = 2 ** 63 - 1


def _load_sparsetools(folder):
    """The compiled extension ``scipy.sparse._sparsetools``, loaded from its
    file in ``folder`` without running ``scipy.sparse``'s package init.

    The module gets its full dotted name in ``sys.modules``, so a later
    ``import scipy.sparse`` in the same process uses this module rather
    than loading the extension again.  Where ``folder`` holds no such
    extension (scipy moved it), the module comes from the normal import.
    """
    name = "scipy.sparse._sparsetools"
    found = importlib.machinery.PathFinder.find_spec("_sparsetools", [os.fspath(folder)])
    if found is None:
        from scipy.sparse import _sparsetools
        return _sparsetools
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, found.origin)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_sparsetools = _load_sparsetools(os.path.join(
    importlib.util.find_spec("scipy").submodule_search_locations[0], "sparse"))


def _first_of_runs(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values."""
    first = np.empty(sorted_keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def _in_sorted(sorted_values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mask of the entries of x that occur in the ascending array
    ``sorted_values``, by one ``searchsorted``.  Unlike ``np.isin``, which
    may call ``np.unique``, it imports no ``numpy.ma``."""
    if not sorted_values.size:
        return np.zeros(x.shape, dtype=bool)
    at = np.searchsorted(sorted_values, x)
    np.minimum(at, sorted_values.size - 1, out=at)
    return sorted_values[at] == x


def _key_dtype(node_count: int, directed: bool) -> type:
    """Dtype of ``Graph.from_edges``'s sort keys for ``node_count`` nodes:
    uint32 where every key and every row bound fits in 32 bits, else
    uint64.  The row bounds r * n reach n * n; the keys reach n * n - 1
    undirected and, tagged with the arc they come from, 2 * n * n - 1
    directed.  Below ``MAX_NODE_COUNT`` both fit in uint64."""
    top = 2 * node_count * node_count - 1 if directed else node_count * node_count
    return np.uint32 if top < 2 ** 32 else np.uint64


def _row_starts(sorted_keys: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers of sorted keys row * n + col: the count of keys
    below r * n for r = 0..n.  The needles r * n take the keys' dtype
    (``_key_dtype`` makes n * n fit in it): a uint64 array searched with
    int64 needles would compare both as float64."""
    needles = np.arange(n + 1, dtype=sorted_keys.dtype)
    needles *= n
    return np.searchsorted(sorted_keys, needles)


def _pair_keys(u: np.ndarray, v: np.ndarray, n: int, directed: bool) -> np.ndarray:
    """Sort keys (``Graph.__init__``) of the pairs (u[i], v[i]), in one new
    array of ``_key_dtype(n, directed)``, written in place with no copies
    of the id columns.  Undirected: min(u, v) * n + max(u, v), formed as
    min(u, v) * (n - 1) + u + v.  Directed: the arc u->v makes the slots
    (u, v) and (v, u), so the first half holds the keys u * n + v tagged
    with origin 1, the second v * n + u tagged with origin 0.

    ``u`` and ``v`` are nonnegative int64 ids, read here as uint64: numpy
    picks a ufunc's loop from its inputs, not from ``out``, and it adds
    int64 to uint64 in float64, which rounds keys above 2**53.  On uint64
    ids every step is integer arithmetic.  The keys of ids of n or more
    wrap and are meaningless."""
    u, v, m = u.view(np.uint64), v.view(np.uint64), u.size
    key = np.empty(2 * m if directed else m, dtype=_key_dtype(n, directed))
    if directed:
        for half, a, b in ((key[:m], u, v), (key[m:], v, u)):
            np.multiply(a, n, out=half, casting="unsafe")
            np.add(half, b, out=half, casting="unsafe")
        key <<= 1
        key[:m] |= 1
    else:
        np.minimum(u, v, out=key, casting="unsafe")
        key *= n - 1
        np.add(key, u, out=key, casting="unsafe")
        np.add(key, v, out=key, casting="unsafe")
    return key


def _columns(keys: np.ndarray, n: int) -> np.ndarray:
    """Column col of each key row * n + col, written over ``keys``.  numpy
    divides by a scalar without a hardware divide, and np.remainder does
    not: keys - (keys // n) * n takes 0.4 ms on 358 000 uint32 keys, the
    remainder 1.0 ms."""
    rows = keys // n
    rows *= n
    keys -= rows
    return keys


def _as_index(values: np.ndarray, idx: type) -> np.ndarray:
    """``values``, nonnegative and in ``idx``'s range, as an ``idx`` array:
    a view where the item sizes match (uint32 as int32, uint64 as int64),
    else a copy."""
    return values.view(idx) if values.itemsize == np.dtype(idx).itemsize else values.astype(idx)


def csr_index_dtype(nnz: int, n_cols: int) -> type:
    """Index type of a CSR with ``nnz`` entries and ``n_cols`` columns:
    int32 while both are below 2**31, as scipy picks, else int64."""
    return np.int32 if max(nnz, n_cols) < 2 ** 31 else np.int64


class Graph:
    """Immutable sparse graph over dense node ids [0, node_count).

    Stored arrays
    -------------
    ``_csr_indptr``, ``_csr_indices``
        The propagation step's CSR, the only per-slot storage.  Its entry
        k is weight slot k, in (u, v) order, so the weight values are its
        data as they stand; its indices are int32 while the entry and
        column counts are below 2**31, else int64 (``csr_index_dtype``).
        Undirected: one slot per edge, u < v, in the strictly upper
        triangular CSR U, row u holding slot (u, v) at column v, with
        W = U + U^T.  Directed: one slot per ordered connected pair (a
        one-way input arc makes two), in the n x 3n step matrix whose row
        u holds slot (u, v) at column ``pair_class * node_count + v``.

    Derived on access: ``slot_count``; ``pair_class``, the uint8 pair class
    per slot (None when undirected), numbering the step matrix's column
    blocks (full score, negative part, positive part); ``slot_ends``, the
    (S, 2) int64 endpoints; ``edges``, the deduplicated input edges (the
    slots whose pair class is not UNI_INCOMING); and ``edge_count``.
    ``self_loops_dropped`` counts the self-loop lines dropped in the build.
    """

    def __init__(self, node_count: int, keys: np.ndarray, directed: bool,
                 self_loops_dropped: int = 0):
        """Build from sort keys, which two callers form: ``from_edges``,
        from pairs it validates, sorts and deduplicates, and
        ``synth.synth_sybil_replicate``, which puts the keys of a base
        graph, its replica and the attack edges in order without a sort.
        Nothing here checks the contract: ``keys`` are sorted ascending and
        distinct, of dtype ``_key_dtype(node_count, directed)``: uint32
        where every key and every row bound n * n fits in 32 bits, else
        uint64.  Undirected: one key u * node_count + v per input pair,
        u < v.  Directed: one key (u * node_count + v) * 2 + origin per
        slot (u, v) and arc it comes from, origin 1 for the input arc u->v
        and 0 for the input arc v->u.  The build overwrites ``keys``, and
        the graph may keep it as its CSR indices."""
        self.node_count = int(node_count)
        self.directed = bool(directed)
        self.self_loops_dropped = int(self_loops_dropped)
        if directed:
            self._build_directed(keys)
        else:
            self._build_undirected(keys)
        self._rho_bound: float | None = None
        self._label_memo: dict = {}

    @classmethod
    def from_edges(cls, edges, directed: bool, node_count: int | None = None) -> "Graph":
        """Build a graph from raw (u, v) pairs: an integer array or
        sequence shaped (E, 2), and an integer ``node_count`` if given.

        Drops self-loops (counted), deduplicates pairs, and for undirected
        graphs collapses (u, v) and (v, u) onto one edge.  Node count
        defaults to max id + 1; pass it explicitly to keep trailing
        isolated nodes.  Node counts above ``MAX_NODE_COUNT`` are rejected
        before any array sized by the node count is built.

        The pairs become sort keys (``__init__``) written in place into one
        array of ``_key_dtype``, whose sorted distinct values are the
        lexicographically sorted distinct pairs; self-loop and repeated
        keys are dropped only where there are any.  1-D np.unique
        costs far more than np.sort plus a neighbour mask on NumPy 2.x.
        """
        try:
            e = np.asarray(edges)
        except ValueError:  # ragged rows
            raise InputError("edges must be (u, v) pairs of integers: ragged rows") from None
        if e.size and (e.dtype.kind not in "iu" or e.ndim != 2 or e.shape[1] != 2):
            raise InputError("edges must be (u, v) pairs of integers, shaped (E, 2); "
                             f"got {e.dtype} of shape {e.shape}")
        if e.dtype.kind == "u" and e.size and int(e.max()) > _MAX_INT64:
            raise InputError("node ids must be below 2**63")
        e = e.astype(np.int64, copy=False).reshape(-1, 2)
        if e.size and int(e.min()) < 0:
            raise InputError("node ids must be nonnegative")
        u, v = e[:, 0], e[:, 1]
        keep = u != v
        dropped = e.shape[0] - int(np.count_nonzero(keep))
        if dropped == e.shape[0]:
            raise InputError("empty graph: no edges left after dropping self-loops")
        if dropped:
            max_id = int(max(np.max(u, initial=0, where=keep),
                             np.max(v, initial=0, where=keep)))
        else:
            max_id = int(e.max())
        if node_count is None:
            node_count = max_id + 1
        elif isinstance(node_count, bool) or not hasattr(node_count, "__index__"):
            raise InputError(f"node_count must be an integer, got {node_count!r}")
        n = operator.index(node_count)
        if n <= max_id:
            raise InputError(f"node_count {n} too small for node id {max_id}")
        if n > MAX_NODE_COUNT:
            raise InputError(f"node count {n} exceeds the limit of "
                             f"{MAX_NODE_COUNT} nodes (int64 slot keys)")
        # Keys of self-loop rows are formed too, then dropped: their ids
        # may exceed n, but their keys are never read.
        key = _pair_keys(u, v, n, directed)
        del edges, e, u, v  # frees the ids where the caller keeps none (load_edge_list)
        # Self-loops and repeated pairs are rare, so the masks below are
        # almost all True: there boolean indexing beats np.compress, which
        # also builds an int64 index per kept entry.
        if dropped:
            key = key[np.tile(keep, 2) if directed else keep]
        del keep
        key.sort()
        first = _first_of_runs(key)
        if not first.all():
            key = key[first]
        del first
        return cls(n, key, directed, dropped)

    # -- derived structure ------------------------------------------------

    def _build_undirected(self, keys: np.ndarray):
        n = self.node_count
        # Upper-triangular slot CSR: row u holds slot (u, v) at column v.
        # The slots are sorted row-major, so entry k is slot k and the
        # weight values are this CSR's data as they stand.
        idx = csr_index_dtype(keys.size, n)
        self._csr_indptr = _row_starts(keys, n).astype(idx)
        self._csr_indices = _as_index(_columns(keys, n), idx)

    def _build_directed(self, tagged: np.ndarray):
        n = self.node_count
        # A pair's tagged keys differ in the origin bit alone, so once the
        # bit is shifted out, each run of equal pair keys holds one key, or
        # two when both arcs are input edges: origin 0, then origin 1.  The
        # pair class is the first key's origin bit, plus 1 when the run
        # holds that key alone: BIDIRECTIONAL == 0, and a lone key's bit
        # tells which arc it comes from, UNI_INCOMING + 1 == UNI_OUTGOING.
        pair_class = np.bitwise_and(tagged, 1, out=np.empty(tagged.size, np.uint8),
                                    casting="unsafe")
        pairs = np.right_shift(tagged, 1, out=tagged)
        first = _first_of_runs(pairs)
        pair_class[:-1] += first[1:]
        pair_class[-1] += 1
        if not first.all():
            # a third or so of the entries are second keys: one index
            # array beats boolean indexing on such a mask
            at = np.flatnonzero(first)
            pair_class, pairs = pair_class[at], pairs[at]
            del at
        del first
        # Row-major sorted pairs: CSR entry k is slot k, at column pair_class * n + v.
        idx = csr_index_dtype(pairs.size, 3 * n)
        self._csr_indptr = _row_starts(pairs, n).astype(idx)
        cols = np.multiply(pair_class, n, dtype=idx)
        cols += _as_index(_columns(pairs, n), idx)
        self._csr_indices = cols

    # -- queries -----------------------------------------------------------

    @property
    def slot_count(self) -> int:
        return self._csr_indices.size

    @property
    def pair_class(self) -> np.ndarray | None:
        """(S,) uint8 pair classes, built on each access; None when undirected."""
        return self._classes_and_nodes()[0].astype(np.uint8) if self.directed else None

    @property
    def slot_ends(self) -> np.ndarray:
        """(S, 2) int64 endpoints per weight slot, built on each access."""
        return self._ends(keep_incoming=True)

    @property
    def edges(self) -> np.ndarray:
        """(E, 2) int64 deduplicated input edges, lexicographically sorted,
        built on each access.  Undirected rows are canonical (u < v)."""
        return self._ends(keep_incoming=False)

    def _classes_and_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """A directed graph's step CSR columns pair_class * n + v, split
        into pair classes and nodes v."""
        return np.divmod(self._csr_indices, self.node_count)

    def _ends(self, keep_incoming: bool) -> np.ndarray:
        """(S, 2) int64 slot endpoints, without a directed graph's
        UNI_INCOMING slots unless ``keep_incoming``."""
        cols = self._csr_indices
        rows = self._at_rows(np.arange(self.node_count))
        if self.directed:
            classes, cols = self._classes_and_nodes()
            if not keep_incoming:
                keep = classes != UNI_INCOMING
                rows, cols = np.compress(keep, rows), np.compress(keep, cols)
        return np.stack([rows, cols], axis=1)

    @property
    def edge_count(self) -> int:
        """Number of deduplicated input edges (undirected edges or directed
        arcs)."""
        if not self.directed:
            return self.slot_count
        return int(np.count_nonzero(self.pair_class != UNI_INCOMING))

    def edge_slot(self, u: int, v: int) -> int:
        """Weight-slot index of the ordered pair (u, v); undirected pairs
        resolve to the same slot in either order.  KeyError when the graph
        holds no such slot, also for ids outside [0, node_count)."""
        if not self.directed and u > v:
            u, v = v, u
        lo, hi = self._csr_indptr[u:u + 2] if 0 <= u < self.node_count else (0, 0)
        # A row's slots are sorted by v, whatever their pair classes.
        cols = self._csr_indices[lo:hi] % self.node_count
        k = int(np.searchsorted(cols, v))
        if k == cols.size or cols[k] != v:
            raise KeyError(f"no edge slot for pair ({u}, {v})")
        return int(lo) + k

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
        rho(A) since A is symmetric, or after 30 steps.  A x is the step
        product ``_matvec`` with unit slot values.  Computed once per graph.
        """
        if self._rho_bound is None:
            ones = np.ones(self.slot_count)
            x = np.ones(self.node_count)
            best = math.inf
            for _ in range(_RHO_BOUND_MAX_STEPS + 1):
                ax = self._matvec(ones, x)
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

    def _step_input(self, p: np.ndarray) -> np.ndarray:
        """The step matrix's input for scores p: p when undirected; directed,
        p, min(p, 0) and max(p, 0) stacked in pair-class order, so entry
        ``c * n + v`` is what a class-c pair lets through of p_v."""
        if not self.directed:
            return p
        return np.concatenate([p, np.minimum(p, 0.0), np.maximum(p, 0.0)])

    # -- slot products: the only readers of the step CSR -------------------
    # No bounds checks: ``data`` has one value per slot, and a per-node
    # vector one entry per node.

    def _per_column(self, x: np.ndarray) -> np.ndarray:
        """x per column of the step CSR: directed, column pair_class * n + v
        reads x[v] from x tiled by pair class, unless x has 3n entries."""
        return np.tile(x, 3) if self.directed and x.size == self.node_count else x

    def _matvec(self, data: np.ndarray, x: np.ndarray) -> np.ndarray:
        """W x for the step matrix W with slot values ``data`` (x per node,
        or per column when directed).

        Undirected, ``csc_matvec`` reads U's CSR as the CSC of U^T and
        scatters U^T x into zeros, then ``csr_matvec`` adds U x on top.
        Row i thus sums its columns below i, then those above it, each in
        ascending order: the order of a full symmetric CSR of W, so the
        result equals ``csr_matrix(W) @ x`` bit for bit.
        """
        n, cols = self.node_count, self._per_column(x)
        ptr, ind, y = self._csr_indptr, self._csr_indices, np.zeros(n)
        if not self.directed:
            _sparsetools.csc_matvec(n, n, ptr, ind, data, x, y)
        _sparsetools.csr_matvec(n, cols.size, ptr, ind, data, cols, y)
        return y

    def _slot_sum(self, data: np.ndarray, x: np.ndarray) -> float:
        """The sum of data[k] * x[u] * x[v] over the slots k = (u, v), as
        x . (U x) for the step CSR U with slot values ``data``: exact to
        rounding, not to the bit, as it sums per row, then over rows."""
        n, cols = self.node_count, self._per_column(x)
        ux = np.zeros(n)
        _sparsetools.csr_matvec(n, cols.size, self._csr_indptr, self._csr_indices, data, cols, ux)
        ux *= x
        return float(ux.sum())

    def _scale_slots(self, data: np.ndarray, x: np.ndarray):
        """data[k] = (data[k] * x[u]) * x[v] in place, for each slot
        k = (u, v): ``csr_scale_rows``, then ``csr_scale_columns``."""
        n, cols = self.node_count, self._per_column(x)
        ptr, ind = self._csr_indptr, self._csr_indices
        _sparsetools.csr_scale_rows(n, cols.size, ptr, ind, data, x)
        _sparsetools.csr_scale_columns(n, cols.size, ptr, ind, data, cols)

    def _at_rows(self, x: np.ndarray) -> np.ndarray:
        """x[u] for each slot (u, v), in slot order."""
        return np.repeat(x, np.diff(self._csr_indptr))

    def _at_columns(self, x: np.ndarray) -> np.ndarray:
        """x[v] for each slot (u, v), in slot order.  Indexing, not
        ``np.take``, which first copies int32 indices to a slot-sized int64
        array."""
        return self._per_column(x)[self._csr_indices]

    def _row_slots(self, rows: np.ndarray) -> np.ndarray:
        """int64 indices of the slots of the ascending rows ``rows``, in
        slot order, read off the CSR row pointers."""
        starts = self._csr_indptr[rows].astype(np.int64)
        counts = self._csr_indptr[rows + 1] - starts
        slots = np.arange(int(counts.sum()), dtype=np.int64)
        # row j's slots are starts[j], starts[j] + 1, ...: shift its run
        slots += np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return slots

    def _rows_and_columns(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row owner u and int64 step column (v, or pair_class * n + v when
        directed) of each slot in ``idx``."""
        rows = np.searchsorted(self._csr_indptr, idx, side="right") - 1
        # int64: numpy casts a narrower index array on every gather
        return rows, self._csr_indices[idx].astype(np.int64)

    def _per_labels(self, build, labels):
        """``build(self, labels)``, kept with the graph: for each ``build``
        the latest label set and what it built, so runs on one graph and
        one label set build it once.  What is returned is shared, and no
        caller may modify it."""
        kept = self._label_memo.get(build)
        if kept is None or kept[0] != labels:
            kept = self._label_memo[build] = (labels, build(self, labels))
        return kept[1]

    def average_degree(self) -> float:
        """2|E|/|V| for undirected graphs; stored ordered pairs over |V|
        for directed graphs (each connected pair counts once per order)."""
        if self.node_count == 0:
            raise InputError("average degree of an empty graph")
        slots = self.slot_count
        return (2.0 * slots if not self.directed else float(slots)) / self.node_count


@dataclass(frozen=True)
class EdgeWeights:
    """One learnable weight per graph slot, bounded by ``clamp_bound``,
    which must be nonnegative and finite.  ``values`` is a 1-D array or
    sequence of reals, held as a contiguous float64 array; one that is
    already so is held as it is.  ``learning.apply_gradient_step`` updates
    ``values`` in place, the only way the weights change during a run.
    The check reads the dtype and shape, not the values."""

    values: np.ndarray
    clamp_bound: float = 0.5

    def __post_init__(self):
        try:
            values = np.asarray(self.values)
        except ValueError:  # ragged rows
            raise InputError("weights must be a 1-D array, got ragged rows") from None
        if values.dtype.kind not in "iuf":
            raise InputError(f"weights must be real numbers, got dtype {values.dtype}")
        if values.ndim != 1:
            raise InputError(f"weights must be a 1-D array, got shape {values.shape}")
        object.__setattr__(self, "values", np.ascontiguousarray(values, dtype=np.float64))
        if not 0 <= self.clamp_bound < math.inf:
            raise InputError(f"clamp_bound must be nonnegative and finite, "
                             f"got {self.clamp_bound}")

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
    """Parse an edge list ("u<TAB>v" per line) into a Graph.

    ``path`` is anything ``open`` takes: a str, bytes or path-like name, or
    an integer file descriptor.  Lines that are blank or start with '#' are
    ignored.  Self-loops are dropped and counted on the returned graph;
    duplicate pairs collapse to one edge.  Node ids must be nonnegative
    base-10 integers; node_count becomes max id + 1, so no id may exceed
    ``MAX_NODE_COUNT - 1`` (3 037 000 498).

    Three readers, tried in turn, give the same ids for every file that
    each accepts:

    - ``_load_canonical_edges`` takes a regular file named by ``path``
      whose lines after the leading blank and '#' ones are all two ASCII
      digit runs joined by one tab and ended by a newline, with ids below
      ``MAX_NODE_COUNT``: the form ``write_edge_list`` writes.  It parses
      the file in chunks on two threads.
    - ``_load_edges_bulk`` skips the same leading lines (SNAP-style
      headers) and parses the rest in bulk with ``np.loadtxt``, which gets
      the file's name rather than the open handle where it can: numpy
      iterates a handle one line at a time in Python.  It also takes CRLF
      line ends, other blanks between ids, signs and a missing final
      newline.
    - ``_parse_edge_lines`` reads any file that neither took -- a comment
      after the first edge, a line without exactly two ids, an id that is
      not a plain decimal int64 (such as ``1_0``, which ``int`` accepts),
      a negative id, bytes that are not UTF-8, or no edges at all -- again
      from the start, line by line.  It accepts ids as ``int`` does and
      raises an ``InputError`` naming the first bad line.  Input from a
      pipe is read into memory first, so that it can be read twice.
    """
    # a helper, so that no local here keeps the parsed ids through the build
    return Graph.from_edges(_read_edges(path), directed)


def _read_edges(path) -> np.ndarray:
    """(E, 2) int64 ids of the edge list at ``path`` (``load_edge_list``)."""
    edges = _load_canonical_edges(path)
    if edges is not None:
        return edges
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        if fh.seekable():
            name = _loadtxt_name(path)
        else:  # a pipe: keep a copy the line parser can reread
            fh, name = io.StringIO(fh.read()), None
        edges = _load_edges_bulk(fh, name)
        if edges is None:
            fh.seek(0)
            edges = _parse_edge_lines(fh, path)
    return edges


# Target body bytes per chunk of ``_load_canonical_edges``; a chunk ends at
# the last line end within it.  Each thread holds about five chunk-sized
# temporaries at a time: with 512 KiB chunks, a directed load peaked above
# tests/test_graph.py's TestBuildMemory load budget.
_CHUNK_BYTES = 1 << 17


def _load_canonical_edges(path) -> np.ndarray | None:
    """(E, 2) int64 ids of a canonical edge list (``load_edge_list``), or
    None where ``path`` names no regular file or the file is not canonical.

    The leading blank and '#' lines are skipped as ``_load_edges_bulk``
    skips them.  The body is read with ``os.pread`` in chunks of about
    ``_CHUNK_BYTES`` that end at line ends, twice: once to count each
    chunk's lines, so that the result is allocated once, then to parse
    them.  The caller parses the even chunks and one worker thread the odd
    ones, each straight into its rows: ``np.fromstring`` and the numpy
    checks of ``_canonical_ids`` release the GIL, and ``np.loadtxt`` does
    not.  The worker calls no package function, since perfbench's span
    recorder, which wraps them, keeps one stack for one thread; it is
    joined before this returns, and what it raises is raised here.
    """
    if isinstance(path, int):
        return None
    try:
        # A FIFO is never opened here: opening one waits for a writer, and
        # closing it unread could leave the writer without a reader.
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        fd = os.open(path, os.O_RDONLY)
    except (OSError, ValueError):  # the other readers raise their own errors
        return None
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            return None
        chunks = _body_chunks(fd)
        return _parse_chunks(fd, chunks) if chunks else None
    finally:
        os.close(fd)


def _body_chunks(fd: int) -> list[tuple[int, int, int, int]] | None:
    """(offset, size, first row, line count) of each chunk of the body of
    the file ``fd``; None where a leading blank or '#' line is not UTF-8
    or holds a carriage return, which text mode reads as a line end, or
    where the last line has no newline.  A line longer than
    ``_CHUNK_BYTES`` makes a longer chunk."""
    offset = 0
    with open(fd, "rb", closefd=False) as fh:
        for line in fh:
            if b"\r" in line:
                return None
            try:
                text = line.decode("utf-8").strip()
            except UnicodeDecodeError:
                return None
            if text and not text.startswith("#"):
                break
            offset += len(line)
    chunks, row = [], 0
    while True:
        size = _CHUNK_BYTES
        while True:
            data = os.pread(fd, size, offset)
            end = data.rfind(b"\n") + 1
            if end or len(data) < size:
                break
            size *= 2
        if not data:
            return chunks
        if not end:
            return None
        lines = int(np.count_nonzero(np.frombuffer(data, np.uint8, end) == ord("\n")))
        chunks.append((offset, end, row, lines))
        offset, row = offset + end, row + lines


def _canonical_ids(chunk: bytes, lines: int) -> np.ndarray | None:
    """The 2 * ``lines`` ids in ``chunk``, or None unless its ``lines``
    lines are each two digit runs joined by a tab, with ids below
    ``MAX_NODE_COUNT``.  ``np.fromstring`` reads no line structure, so the
    bytes that are not digits are checked first: none lies above '9', and
    those below '0' are a tab, then a newline, once per line.  An empty
    field leaves ``fromstring`` an id short, and an id of 2**63 or more
    reads as 2**63 - 1.  ``fromstring`` gets no ``count=``, with which it
    pads short text with uninitialized ids."""
    a = np.frombuffer(chunk, dtype=np.uint8)
    if a.max() > ord("9"):
        return None
    seps = a[np.flatnonzero(a < ord("0"))]
    # "\t\n" read as a little-endian uint16
    if seps.size != 2 * lines or not (seps.view("<u2") == 0x0A09).all():
        return None
    ids = np.fromstring(chunk, dtype=np.int64, sep=" ")
    if ids.size != 2 * lines or ids.max() >= MAX_NODE_COUNT:
        return None
    return ids


def _parse_chunks(fd: int, chunks: list[tuple[int, int, int, int]]) -> np.ndarray | None:
    """The ids of the file ``fd``'s ``chunks`` (``_body_chunks``): the even
    chunks parsed on the caller's thread, the odd ones on one worker
    thread; None where a chunk is not canonical.  Pinned to one CPU of a
    2-core x86_64 VM, the two threads still parsed a 358 348-line file
    faster than ``np.loadtxt``."""
    last = chunks[-1]
    edges = np.empty((last[2] + last[3], 2), dtype=np.int64)
    refused = threading.Event()
    raised = []

    def parse(first: int):
        for offset, size, row, lines in chunks[first::2]:
            if refused.is_set():
                return
            ids = _canonical_ids(os.pread(fd, size, offset), lines)
            if ids is None:
                refused.set()
                return
            edges[row:row + lines] = ids.reshape(lines, 2)

    def parse_odd():
        try:
            parse(1)
        except BaseException as exc:  # raised again by the caller
            raised.append(exc)
            refused.set()

    worker = threading.Thread(target=parse_odd, name="jwprop-parse")
    worker.start()
    try:
        parse(0)
    except BaseException:
        refused.set()
        raise
    finally:
        worker.join()
    if raised:
        raise raised[0]
    return None if refused.is_set() else edges


# File name endings that np.loadtxt opens through a decompressor.
_DECOMPRESSED_BY_NUMPY = (".bz2", ".gz", ".lzma", ".xz")


def _loadtxt_name(path) -> str | None:
    """``path`` as the str name ``np.loadtxt`` reopens the file by, or None
    where it must read the open handle instead: for a file descriptor, and
    for a name that numpy would take for a URL or decompress."""
    if isinstance(path, int):
        return None
    name = os.fsdecode(path)
    if "://" in name or name.endswith(_DECOMPRESSED_BY_NUMPY):
        return None
    return name


def _load_edges_bulk(fh, name: str | None) -> np.ndarray | None:
    """(E, 2) int64 ids parsed by ``np.loadtxt``, or None where the line
    parser must decide.

    ``fh`` is a seekable text handle at the start of the input; the leading
    blank and '#' lines are scanned on it.  ``np.loadtxt`` skips the same
    lines and reads the rest from ``name``, the same file by name, when one
    is given (``_loadtxt_name``), else from ``fh``.  Given a handle, numpy
    iterates it one line at a time in Python; given a name, it reads the
    file in chunks straight into its C tokenizer, in about half the time
    on large files.  A byte that is not UTF-8 then raises ``UnicodeDecodeError``,
    a ``ValueError`` like every parse failure here.
    """
    header, start = 0, 0
    while True:
        text = fh.readline()
        stripped = text.strip()
        if not text or (stripped and not stripped.startswith("#")):
            break
        if not is_utf8(text):
            return None
        header, start = header + 1, fh.tell()
    source, skip = name, header
    if name is None:
        fh.seek(start)
        source, skip = fh, 0
    try:
        with warnings.catch_warnings():
            # an empty remainder warns "input contained no data"
            warnings.simplefilter("ignore", UserWarning)
            edges = np.loadtxt(source, dtype=np.int64, ndmin=2, comments=None,
                               skiprows=skip, encoding="utf-8")
    except ValueError:
        return None
    if edges.shape[1] != 2 or edges.size == 0 or int(edges.min()) < 0:
        return None
    return edges


def _parse_edge_lines(fh, path) -> np.ndarray:
    """(E, 2) int64 ids, one line at a time, with line-numbered errors."""
    edges = []
    for lineno, (a, b) in data_rows(fh, path, 2, "'u<TAB>v'"):
        try:
            u, v = int(a), int(b)
        except ValueError:
            raise InputError(
                f"{path}:{lineno}: node ids must be base-10 integers"
            ) from None
        if u < 0 or v < 0:
            raise InputError(f"{path}:{lineno}: node ids must be nonnegative")
        if u > _MAX_INT64 or v > _MAX_INT64:
            raise InputError(f"{path}:{lineno}: node ids must be below 2**63")
        edges.append((u, v))
    if not edges:
        raise InputError(f"{path}: empty graph")
    return np.asarray(edges, dtype=np.int64)


def write_edge_list(g: Graph, path):
    """Serialize the deduplicated input edges, one "u<TAB>v" line per edge."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{u}\t{v}\n" for u, v in g.edges.tolist()))


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
    from scipy import sparse  # the only user of scipy.sparse's package
    from scipy.sparse import csgraph

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
