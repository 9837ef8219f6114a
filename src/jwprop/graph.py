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

import io
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools, csgraph

from .errors import InputError, is_utf8, numbered_lines

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
_MAX_INT64 = 2 ** 63 - 1


def _first_of_runs(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values."""
    first = np.empty(sorted_keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def _classify_pairs(tagged: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int64 pair keys u * n + v and uint8 pair classes of the directed
    slots, from their sorted distinct tagged keys (``Graph.__init__``).

    A pair's keys differ in the origin bit alone, so each run of equal pair
    keys holds one key, or two when both arcs are input edges.  A lone
    key's origin bit tells which arc it comes from:
    UNI_INCOMING + 1 == UNI_OUTGOING.
    """
    start = np.flatnonzero(_first_of_runs(tagged >> 1))
    pairs = tagged[start]
    pair_class = (pairs & 1).astype(np.uint8)
    pair_class += UNI_INCOMING
    pair_class[np.diff(start, append=tagged.size) == 2] = BIDIRECTIONAL
    pairs >>= 1
    return pairs.view(np.int64), pair_class


def _row_starts(sorted_keys: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers of sorted keys row * n + col: the count of keys
    below r * n for r = 0..n (n * n fits in int64 below MAX_NODE_COUNT)."""
    return np.searchsorted(sorted_keys, np.arange(n + 1, dtype=np.int64) * n)


def csr_index_dtype(nnz: int, n_cols: int) -> type:
    """Index type of a CSR with ``nnz`` entries and ``n_cols`` columns:
    int32 while both are below 2**31, as scipy picks, else int64."""
    return np.int32 if max(nnz, n_cols) < 2 ** 31 else np.int64


def _csr_matvec(indptr, indices, data, x, y):
    """y += A x for the CSR matrix A = (data, indices, indptr), with one row
    per entry of y and one column per entry of x.

    scipy's ``csr_matvec`` kernel adds row i's terms onto y[i] in entry
    order, as ``csr_matrix @ x`` does onto zeros.  It checks no bounds:
    the caller checks the lengths of data, x and y.
    """
    _sparsetools.csr_matvec(y.size, x.size, indptr, indices, data, x, y)


def _symmetric_matvec(indptr, indices, data, x) -> np.ndarray:
    """S x for S = U + U^T, where U is the strictly upper triangular CSR
    (data, indices, indptr) of a square matrix.

    ``csc_matvec`` reads U's CSR as the CSC of U^T and scatters U^T x into
    zeros, then ``csr_matvec`` adds U x on top.  Row i thus sums its
    columns below i first and then those above it, each in ascending
    order: the terms and order of a full symmetric CSR of S, so the result
    equals ``csr_matrix(S) @ x`` bit for bit.  No bounds checks.
    """
    y = np.zeros(x.size)
    _sparsetools.csc_matvec(x.size, x.size, indptr, indices, data, x, y)
    _sparsetools.csr_matvec(x.size, x.size, indptr, indices, data, x, y)
    return y


class Graph:
    """Immutable sparse graph over dense node ids [0, node_count).

    Stored arrays
    -------------
    ``_slot_u``, ``_slot_v`` : (S,) C-contiguous int64 arrays
        Endpoints per weight slot, lexicographically sorted.  Undirected:
        one slot per edge, u < v.  Directed: one slot per ordered connected
        pair, so a one-way input arc contributes two slots.  The gradients
        gather per-slot endpoint scores through them.
    ``pair_class`` : (S,) uint8 array or None
        BIDIRECTIONAL / UNI_INCOMING / UNI_OUTGOING per slot (directed only).
        The values 0, 1, 2 number the column blocks of the n x 3n directed
        step matrix (full score, negative part, positive part): slot (u, v)
        sits in row u, column ``pair_class * node_count + v``.
    ``_csr_indptr``, ``_csr_indices``
        The propagation step's CSR.  Its entry k is slot k, so the weight
        values are its data as they stand, and its indices are int32 while
        the entry and column counts are below 2**31, else int64
        (``csr_index_dtype``).  Undirected: the strictly upper triangular
        slot CSR U, row u holding slot (u, v) at column v, with
        W = U + U^T.  Directed: the n x 3n step matrix above.
    ``_indptr`` : (n + 1,) int64 array (directed only)
        The same row pointers with ``_slot_v``'s dtype, for the
        spectral-radius bound's matvec: sparsetools wants matching index
        types, and ``np.take`` wants ``_slot_v`` as intp.

    Derived on access: ``slot_ends`` (the two endpoint columns as one
    (S, 2) array) and ``edges`` (the deduplicated input edges as an (E, 2)
    array; undirected rows are canonical, u < v, and directed rows are the
    slots whose pair class is not UNI_INCOMING).  ``self_loops_dropped``
    counts the self-loop lines discarded during construction.
    """

    def __init__(self, node_count: int, keys: np.ndarray, directed: bool,
                 self_loops_dropped: int = 0):
        """``keys`` are sorted and distinct (``from_edges``).  Undirected:
        one int64 key u * node_count + v per input pair, u < v.  Directed:
        one uint64 key (u * node_count + v) * 2 + origin per slot (u, v)
        and arc it comes from, origin 1 for the input arc u->v and 0 for
        the input arc v->u."""
        self.node_count = int(node_count)
        self.directed = bool(directed)
        self.self_loops_dropped = int(self_loops_dropped)
        if directed:
            self._build_directed(keys)
        else:
            self._build_undirected(keys)
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
        u, v = e[:, 0], e[:, 1]
        keep = u != v
        dropped = e.shape[0] - int(np.count_nonzero(keep))
        if dropped:
            u, v = u[keep], v[keep]
        if u.size == 0:
            raise InputError("empty graph: no edges left after dropping self-loops")
        if not directed:
            u, v = np.minimum(u, v), np.maximum(u, v)
        max_id = int(max(u.max(), v.max()))
        if node_count is None:
            node_count = max_id + 1
        elif node_count <= max_id:
            raise InputError(f"node_count {node_count} too small for node id {max_id}")
        if node_count > MAX_NODE_COUNT:
            raise InputError(f"node count {node_count} exceeds the limit of "
                             f"{MAX_NODE_COUNT} nodes (int64 slot keys)")
        # Sorted distinct keys u * n + v are the lexicographically sorted
        # distinct pairs.  1-D np.unique costs far more than np.sort plus a
        # neighbour mask on NumPy 2.x.
        if directed:
            # Arc u->v makes the slots (u, v) and (v, u): one sort orders
            # both, each key tagged with the arc it comes from (__init__).
            key = np.concatenate([u * node_count + v, v * node_count + u])
            key = key.view(np.uint64)
            key <<= 1
            key[:u.size] |= 1
        else:
            key = u * node_count + v
        key.sort()
        key = key[_first_of_runs(key)]  # frees the sorted copy before the build
        return cls(node_count, key, directed, dropped)

    # -- derived structure ------------------------------------------------

    def _build_undirected(self, keys: np.ndarray):
        n = self.node_count
        self.pair_class = None
        self._slot_u, self._slot_v = np.divmod(keys, n)
        # Upper-triangular slot CSR: row u holds slot (u, v) at column v.
        # The slots are sorted row-major, so entry k is slot k and the
        # weight values are this CSR's data as they stand.
        idx = csr_index_dtype(self.slot_count, n)
        self._csr_indptr = _row_starts(keys, n).astype(idx)
        self._csr_indices = self._slot_v.astype(idx)

    def _build_directed(self, tagged: np.ndarray):
        n = self.node_count
        # Headroom: below MAX_NODE_COUNT a pair key u * n + v is at most
        # n * n - 1 < 2**63, so its tagged key 2 * (u * n + v) + origin fits
        # in uint64, and shifting the tag out leaves a valid int64 key.
        pairs, self.pair_class = _classify_pairs(tagged)
        self._slot_u, self._slot_v = np.divmod(pairs, n)
        # Row-major sorted pairs double as the full CSR adjacency: entry k of
        # the concatenated rows is exactly slot k, so the weight values are
        # the CSR data as they stand.
        self._indptr = _row_starts(pairs, n)
        # The step's CSR: the same rows with the class columns
        # pair_class * n + v, in the narrowest index type sparsetools takes.
        idx = csr_index_dtype(self.slot_count, 3 * n)
        self._csr_indptr = self._indptr.astype(idx)
        self._csr_indices = self.pair_class.astype(idx) * n
        self._csr_indices += self._slot_v

    # -- queries -----------------------------------------------------------

    @property
    def slot_ends(self) -> np.ndarray:
        """(S, 2) int64 endpoints per weight slot, built on each access."""
        return np.stack([self._slot_u, self._slot_v], axis=1)

    @property
    def edges(self) -> np.ndarray:
        """(E, 2) int64 deduplicated input edges, lexicographically sorted,
        built on each access.  Undirected rows are canonical (u < v)."""
        if not self.directed:
            return self.slot_ends
        arc = self.pair_class != UNI_INCOMING
        return np.stack([self._slot_u[arc], self._slot_v[arc]], axis=1)

    @property
    def edge_count(self) -> int:
        """Number of deduplicated input edges (undirected edges or directed
        arcs)."""
        if not self.directed:
            return self.slot_count
        return int(np.count_nonzero(self.pair_class != UNI_INCOMING))

    @property
    def slot_count(self) -> int:
        return self._slot_u.size

    def edge_slot(self, u: int, v: int) -> int:
        """Weight-slot index of the ordered pair (u, v); undirected pairs
        resolve to the same slot in either order."""
        if not self.directed and u > v:
            u, v = v, u
        lo, hi = (int(i) for i in np.searchsorted(self._slot_u, [u, u + 1]))
        idx = lo + int(np.searchsorted(self._slot_v[lo:hi], v))
        if idx == hi or self._slot_v[idx] != v:
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
            ones = np.ones(self.slot_count)
            x = np.ones(self.node_count)
            best = math.inf
            for _ in range(_RHO_BOUND_MAX_STEPS + 1):
                if self.directed:
                    ax = np.zeros(x.size)
                    _csr_matvec(self._indptr, self._slot_v, ones, x, ax)
                else:
                    ax = _symmetric_matvec(self._csr_indptr, self._csr_indices, ones, x)
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
    """Parse an edge list ("u<TAB>v" per line) into a Graph.

    ``path`` is anything ``open`` takes: a str, bytes or path-like name, or
    an integer file descriptor.  Lines that are blank or start with '#' are
    ignored.  Self-loops are dropped and counted on the returned graph;
    duplicate pairs collapse to one edge.  Node ids must be nonnegative
    base-10 integers below 2**63; node_count becomes max id + 1.

    The fast path (``_load_edges_bulk``) skips the leading '#' lines
    (SNAP-style headers) and parses the rest in bulk with ``np.loadtxt``,
    which gets the file's name rather than the open handle where it can:
    numpy iterates a handle one line at a time in Python.  Any file it does
    not accept as it stands -- a comment after the first edge, a line
    without exactly two ids, an id that is not a plain decimal int64 (such
    as ``1_0``, which ``int`` accepts), a negative id, bytes that are not
    UTF-8, or no edges at all -- is read again from the start and parsed
    line by line.  That slow path accepts ids as ``int`` does
    and raises an ``InputError`` naming the first bad line.  Input from a
    pipe is read into memory first, so that it can be read twice.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        if fh.seekable():
            name = _loadtxt_name(path)
        else:  # a pipe: keep a copy the line parser can reread
            fh, name = io.StringIO(fh.read()), None
        edges = _load_edges_bulk(fh, name)
        if edges is None:
            fh.seek(0)
            edges = _parse_edge_lines(fh, path)
    return Graph.from_edges(edges, directed)


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
    for lineno, line in numbered_lines(fh, path):
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
