"""Prior assignment and synchronous one-step propagation kernels.

All steps are Jacobi-style: the next score vector is computed entirely from
the previous one, so a step is a data-parallel map over adjacency rows.
Each step is one product of the graph's step matrix (``Graph._matvec``)
with the weight vector as its slot values: nothing is gathered, cast or
constructed per call.  The product checks no bounds, so every step checks
its vector lengths first.  The two LBP steps share one body, q + W x: the
graph builds the step input x from the scores (``Graph._step_input``), the
scores themselves when undirected and their pair-class parts when directed.

Training and ground-truth labels are ``LabelSet``s: two sorted int64 id
arrays, which index the prior and score vectors directly.  The random
walk's weighted degrees take |w| per slot; a run passes a free slot-sized
array to hold it (``_inverse_degrees``).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, numbered_lines
from .graph import MAX_NODE_COUNT, EdgeWeights, Graph, _first_of_runs, _in_sorted

RW_VARIANTS = ("rw-n", "rw-p", "rw-b")


def _id_array(ids) -> np.ndarray:
    """``ids``, an integer array or an iterable of integers, as a sorted,
    distinct, read-only int64 array of its own.  An id that is not a
    Python or numpy integer (a bool, a float, a string) or lies outside
    int64 raises ``InputError``."""
    if isinstance(ids, np.ndarray) and ids.dtype.kind in "iu":
        if ids.dtype.kind == "u" and ids.size and ids.max() >= 2 ** 63:
            raise InputError("label node ids must be below 2**63")
        arr = np.array(ids, dtype=np.int64).reshape(-1)
    else:
        ints = []
        for i in ids:
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                raise InputError(f"label node id {i!r} is not an integer")
            ints.append(int(i))
        try:
            arr = np.array(ints, dtype=np.int64)
        except OverflowError:
            raise InputError("label node ids must be nonnegative" if min(ints) < 0
                             else "label node ids must be below 2**63") from None
    if not (arr[1:] > arr[:-1]).all():
        arr.sort()
        arr = arr[_first_of_runs(arr)]
    arr.flags.writeable = False
    return arr


class LabelSet:
    """Training labels: disjoint sets of positive and negative node ids,
    each nonnegative and below 2**63.

    Each class is held as a sorted, distinct, read-only int64 array, 8 B
    per id where a set of Python ints takes about 110 B.  The
    constructor and ``of`` take integer arrays or iterables of integers, in
    any order and with repeats; ids already strictly increasing are not
    sorted again.  Membership is tested by ``searchsorted`` on the sorted
    arrays, never through ``np.unique`` and its kin, which import
    ``numpy.ma`` on first use.  Label sets compare and hash by their ids.
    ``positives`` and ``negatives`` are set views built on each access,
    for callers outside the package.
    """

    __slots__ = ("_pos", "_neg")

    def __init__(self, positives, negatives):
        pos, neg = _id_array(positives), _id_array(negatives)
        small, large = (pos, neg) if pos.size <= neg.size else (neg, pos)
        overlap = small[_in_sorted(large, small)]
        if overlap.size:
            raise InputError(f"labels overlap on nodes {overlap[:5].tolist()}")
        if (pos.size and pos[0] < 0) or (neg.size and neg[0] < 0):
            raise InputError("label node ids must be nonnegative")
        self._pos, self._neg = pos, neg

    @classmethod
    def of(cls, positives, negatives) -> "LabelSet":
        return cls(positives, negatives)

    def __eq__(self, other):
        if not isinstance(other, LabelSet):
            return NotImplemented
        return self is other or (np.array_equal(self._pos, other._pos)
                                 and np.array_equal(self._neg, other._neg))

    def __hash__(self) -> int:
        return hash((self._pos.tobytes(), self._neg.tobytes()))

    def __repr__(self) -> str:
        return f"LabelSet({self._pos.tolist()}, {self._neg.tolist()})"

    def __len__(self) -> int:
        return self._pos.size + self._neg.size

    @property
    def positives(self) -> frozenset[int]:
        """The positive ids as a set, built on each access."""
        return frozenset(self._pos.tolist())

    @property
    def negatives(self) -> frozenset[int]:
        """The negative ids as a set, built on each access."""
        return frozenset(self._neg.tolist())

    def positive_array(self) -> np.ndarray:
        """The positive ids in ascending order, read-only."""
        return self._pos

    def negative_array(self) -> np.ndarray:
        """The negative ids in ascending order, read-only."""
        return self._neg

    def exclude(self, other: "LabelSet") -> "LabelSet":
        """The ids of this set that are in neither class of ``other``."""
        def kept(ids):
            return ids[~(_in_sorted(other._pos, ids) | _in_sorted(other._neg, ids))]
        return LabelSet(kept(self._pos), kept(self._neg))

    def check_bounds(self, n: int):
        top = max((int(ids[-1]) for ids in (self._pos, self._neg) if ids.size), default=-1)
        if top >= n:
            raise InputError(f"label node id {top} out of range for {n} nodes")


def assign_priors(labels: LabelSet, theta: float, n: int) -> np.ndarray:
    """Prior score vector: +theta on positives, -theta on negatives, 0 else.
    theta must be positive and finite."""
    if not 0 < theta < np.inf:
        raise InputError(f"theta must be positive and finite, got {theta}")
    labels.check_bounds(n)
    q = np.zeros(n)
    q[labels.positive_array()] = theta
    q[labels.negative_array()] = -theta
    return q


def _check_vectors(g: Graph, w: EdgeWeights, *vecs):
    w.check(g)
    for v in vecs:
        if v.shape != (g.node_count,):
            raise InputError(
                f"score vector has length {v.shape[0]}, graph has {g.node_count} nodes"
            )


def _check_direction(name: str, directed: bool, g: Graph):
    if g.directed != directed:
        raise InputError(f"{name} expects {'a ' if directed else 'an un'}directed graph")


def _lbp_step(name: str, directed: bool, g: Graph, w: EdgeWeights, q: np.ndarray,
              p: np.ndarray) -> np.ndarray:
    # q + W x for the step matrix W and its input x = g._step_input(p)
    _check_direction(name, directed, g)
    _check_vectors(g, w, q, p)
    y = g._matvec(w.values, g._step_input(p))
    return np.add(q, y, out=y)


def lbp_step_undirected(g: Graph, w: EdgeWeights, q: np.ndarray,
                        p: np.ndarray) -> np.ndarray:
    """One additive propagation step q + W p on an undirected graph."""
    return _lbp_step("lbp_step_undirected", False, g, w, q, p)


def lbp_step_directed(g: Graph, w: EdgeWeights, q: np.ndarray,
                      p: np.ndarray) -> np.ndarray:
    """One directed propagation step.

    A bidirectional neighbor contributes its full score, an incoming-only
    neighbor contributes only its negative part, and an outgoing-only
    neighbor only its positive part, each scaled by the pair's weight: q
    plus one matvec of the graph's n x 3n step matrix with the input that
    ``Graph._step_input`` stacks from p.
    """
    return _lbp_step("lbp_step_directed", True, g, w, q, p)


def weighted_degrees(g: Graph, w: EdgeWeights) -> np.ndarray:
    """Per-node sum of |weight| over incident edges (undirected graphs).

    |W| times the ones vector: each node adds the weights of its lower
    neighbors and then of its upper ones, in ascending order.  That is the
    slot order a weighted ``bincount`` over the interleaved slot endpoints
    (u0, v0, u1, v1, ...) adds them in.  Weights with no negative entry
    are their own |w|, and are read as they are.
    """
    _check_direction("weighted_degrees", False, g)
    w.check(g)
    values = w.values
    if values.size and values.min() < 0:
        values = np.abs(values)
    return g._matvec(values, np.ones(g.node_count))


def _inverse_degrees(g: Graph, w: EdgeWeights,
                     scratch: np.ndarray | None = None) -> np.ndarray:
    """1 / weighted degree per node, 0 where the weighted degree is 0.
    |w| is written into ``scratch`` when given, a free float64 array with
    one entry per slot, instead of a new array."""
    d = weighted_degrees(g, EdgeWeights(np.abs(w.values, out=scratch), w.clamp_bound))
    inv = np.zeros_like(d)
    nz = d > 0
    inv[nz] = 1.0 / d[nz]
    return inv


def _check_restart(restart: float):
    if not 0.0 <= restart <= 1.0:
        raise InputError("restart probability must lie in [0, 1]")


def rw_step(g: Graph, w: EdgeWeights, q: np.ndarray, p: np.ndarray,
            variant: str, restart: float,
            inv_degrees: np.ndarray | None = None) -> np.ndarray:
    """One random-walk propagation step on an undirected graph.

    Each node collects degree-normalized score from its neighbors and mixes
    it with its prior via the restart probability.  The both-label variant
    ("rw-b") normalizes by the receiver's weighted degree; the single-label
    variants ("rw-n", "rw-p") normalize by the sender's.  Learned weights may
    be negative, so degrees sum |w|; a node with zero weighted degree keeps
    restart * q.  ``inv_degrees`` passes in the inverse weighted degrees of
    ``w`` when the caller already has them.
    """
    if g.directed:
        raise InputError("random-walk propagation supports undirected graphs only")
    if variant not in RW_VARIANTS:
        raise InputError(f"unknown random-walk variant {variant!r}")
    _check_restart(restart)
    _check_vectors(g, w, q, p)
    inv = _inverse_degrees(g, w) if inv_degrees is None else inv_degrees
    _check_vectors(g, w, inv)
    if variant == "rw-b":
        moved = g._matvec(w.values, p)
        moved *= inv
    else:
        moved = g._matvec(w.values, p * inv)
    moved *= 1.0 - restart
    moved += restart * q
    return moved


# -- label files --------------------------------------------------------------


def read_labels(path) -> LabelSet:
    """Parse a "node_id<TAB>label" file with labels +1 / -1.  Node ids must
    be nonnegative and below ``MAX_NODE_COUNT``, the node-count limit of
    every graph."""
    pos, neg = [], []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in numbered_lines(fh, path):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: expected 'node<TAB>label'")
            try:
                node = int(parts[0])
                label = int(parts[1])
            except ValueError:
                raise InputError(f"{path}:{lineno}: ids and labels must be integers") from None
            if not 0 <= node < MAX_NODE_COUNT:
                raise InputError(f"{path}:{lineno}: node id {node} is outside "
                                 f"[0, {MAX_NODE_COUNT})")
            if label == 1:
                pos.append(node)
            elif label == -1:
                neg.append(node)
            else:
                raise InputError(f"{path}:{lineno}: label must be +1 or -1, got {label}")
    return LabelSet.of(pos, neg)


def write_labels(labels: LabelSet, path):
    with open(path, "w", encoding="utf-8") as fh:
        for node in labels.positive_array().tolist():
            fh.write(f"{node}\t1\n")
        for node in labels.negative_array().tolist():
            fh.write(f"{node}\t-1\n")
