"""Prior assignment and synchronous one-step propagation kernels.

All steps are Jacobi-style: the next score vector is computed entirely from
the previous one, so a step is a data-parallel map over adjacency rows.
Each step multiplies through the graph's prebuilt CSR (``Graph._csr_*``),
whose data array is the weight vector itself: nothing is gathered, cast or
constructed per call.  The undirected steps apply W = U + U^T from the
upper-triangular slot CSR U in two passes that add each row's terms in the
order a full symmetric CSR would.  The raw kernels check no bounds, so every
step checks its vector lengths first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, numbered_lines
from .graph import EdgeWeights, Graph, _csr_matvec, _symmetric_matvec

RW_VARIANTS = ("rw-n", "rw-p", "rw-b")


@dataclass(frozen=True)
class LabelSet:
    """Training labels: disjoint sets of positive and negative node ids."""

    positives: frozenset[int]
    negatives: frozenset[int]

    def __post_init__(self):
        overlap = self.positives & self.negatives
        if overlap:
            raise InputError(f"labels overlap on nodes {sorted(overlap)[:5]}")
        if any(i < 0 for i in self.positives) or any(i < 0 for i in self.negatives):
            raise InputError("label node ids must be nonnegative")

    @classmethod
    def of(cls, positives, negatives) -> "LabelSet":
        return cls(frozenset(int(i) for i in positives),
                   frozenset(int(i) for i in negatives))

    def __len__(self) -> int:
        return len(self.positives) + len(self.negatives)

    def positive_array(self) -> np.ndarray:
        """The positive ids in ascending order, built once per label set
        and read-only."""
        return self._sorted_ids[0]

    def negative_array(self) -> np.ndarray:
        """The negative ids in ascending order, built once per label set
        and read-only."""
        return self._sorted_ids[1]

    @cached_property
    def _sorted_ids(self) -> tuple[np.ndarray, np.ndarray]:
        # cached_property writes the instance __dict__ directly, which the
        # frozen dataclass allows; equality and hashing see only the fields.
        arrays = tuple(np.fromiter(sorted(ids), dtype=np.int64, count=len(ids))
                       for ids in (self.positives, self.negatives))
        for arr in arrays:
            arr.flags.writeable = False
        return arrays

    def exclude(self, other: "LabelSet") -> "LabelSet":
        drop = other.positives | other.negatives
        return LabelSet(self.positives - drop, self.negatives - drop)

    def check_bounds(self, n: int):
        ids = self.positives | self.negatives
        if ids and max(ids) >= n:
            raise InputError(f"label node id {max(ids)} out of range for {n} nodes")


def assign_priors(labels: LabelSet, theta: float, n: int) -> np.ndarray:
    """Prior score vector: +theta on positives, -theta on negatives, 0 else."""
    if theta <= 0:
        raise InputError("theta must be positive")
    labels.check_bounds(n)
    q = np.zeros(n)
    q[labels.positive_array()] = theta
    q[labels.negative_array()] = -theta
    return q


def half_neg(p: np.ndarray) -> np.ndarray:
    """Zero out positive entries, keeping the negative part."""
    return np.minimum(p, 0.0)


def half_pos(p: np.ndarray) -> np.ndarray:
    """Zero out negative entries, keeping the positive part."""
    return np.maximum(p, 0.0)


def _check_vectors(g: Graph, w: EdgeWeights, *vecs):
    w.check(g)
    for v in vecs:
        if v.shape != (g.node_count,):
            raise InputError(
                f"score vector has length {v.shape[0]}, graph has {g.node_count} nodes"
            )


def lbp_step_undirected(g: Graph, w: EdgeWeights, q: np.ndarray,
                        p: np.ndarray) -> np.ndarray:
    """One additive propagation step q + W p on an undirected graph."""
    if g.directed:
        raise InputError("lbp_step_undirected expects an undirected graph")
    _check_vectors(g, w, q, p)
    y = _symmetric_matvec(g._csr_indptr, g._csr_indices, w.values, p)
    return np.add(q, y, out=y)


def _class_parts(p: np.ndarray) -> np.ndarray:
    """p, its negative part and its positive part, stacked in pair-class
    order: entry ``c * n + v`` is what a class-c pair lets through of p_v."""
    return np.concatenate([p, half_neg(p), half_pos(p)])


def lbp_step_directed(g: Graph, w: EdgeWeights, q: np.ndarray,
                      p: np.ndarray) -> np.ndarray:
    """One directed propagation step.

    A bidirectional neighbor contributes its full score, an incoming-only
    neighbor contributes only its negative part, and an outgoing-only
    neighbor only its positive part, each scaled by the pair's weight.
    The step is q plus one matvec of the n x 3n matrix whose row u holds
    slot (u, v)'s weight in column ``pair_class * n + v``, applied to
    ``_class_parts(p)``.
    """
    if not g.directed:
        raise InputError("lbp_step_directed expects a directed graph")
    _check_vectors(g, w, q, p)
    y = np.zeros(g.node_count)
    _csr_matvec(g._csr_indptr, g._csr_indices, w.values, _class_parts(p), y)
    return np.add(q, y, out=y)


def weighted_degrees(g: Graph, w: EdgeWeights) -> np.ndarray:
    """Per-node sum of |weight| over incident edges (undirected graphs).

    |W| times the ones vector: each node adds the weights of its lower
    neighbors and then of its upper ones, in ascending order.  That is the
    slot order a weighted ``bincount`` over the interleaved slot endpoints
    (u0, v0, u1, v1, ...) adds them in.
    """
    if g.directed:
        raise InputError("weighted_degrees expects an undirected graph")
    w.check(g)
    return _symmetric_matvec(g._csr_indptr, g._csr_indices, np.abs(w.values),
                             np.ones(g.node_count))


def _inverse_degrees(g: Graph, w: EdgeWeights) -> np.ndarray:
    """1 / weighted degree per node, 0 where the weighted degree is 0."""
    d = weighted_degrees(g, w)
    inv = np.zeros_like(d)
    nz = d > 0
    inv[nz] = 1.0 / d[nz]
    return inv


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
    if not 0.0 <= restart <= 1.0:
        raise InputError("restart probability must lie in [0, 1]")
    _check_vectors(g, w, q, p)
    inv = _inverse_degrees(g, w) if inv_degrees is None else inv_degrees
    _check_vectors(g, w, inv)
    if variant == "rw-b":
        moved = _symmetric_matvec(g._csr_indptr, g._csr_indices, w.values, p)
        moved *= inv
    else:
        moved = _symmetric_matvec(g._csr_indptr, g._csr_indices, w.values, p * inv)
    moved *= 1.0 - restart
    moved += restart * q
    return moved


def classify(p: np.ndarray) -> np.ndarray:
    """Predicted labels from posteriors: +1 where p > 0, else -1."""
    return np.where(p > 0, 1, -1).astype(np.int64)


# -- label files --------------------------------------------------------------


def read_labels(path) -> LabelSet:
    """Parse a "node_id<TAB>label" file with labels +1 / -1."""
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
            if label == 1:
                pos.append(node)
            elif label == -1:
                neg.append(node)
            else:
                raise InputError(f"{path}:{lineno}: label must be +1 or -1, got {label}")
    return LabelSet.of(pos, neg)


def write_labels(labels: LabelSet, path):
    with open(path, "w", encoding="utf-8") as fh:
        for node in sorted(labels.positives):
            fh.write(f"{node}\t1\n")
        for node in sorted(labels.negatives):
            fh.write(f"{node}\t-1\n")
