"""Per-alternation training objective and gradient step for edge weights.

The objective combines a squared-error loss over the labeled nodes' next
scores with a regularizer on the weights.  The consistency regularizer
rewards weights whose sign agrees with the product of the endpoint scores;
l1/l2 are the conventional penalties; "none" drops the term.  Gradients are
closed-form because the current score vector is held fixed while the next
one is linear in the weights.

Each gradient writes the regularizer's term over every slot, then adds the
loss term on the labeled slots only (``LabeledSlots``): the residual
p_next - y is zero off the labeled nodes, so the loss term is zero on every
other slot.

Nothing here gathers a score per slot through the slot endpoints.
The propagation step's CSR has one entry per slot, in slot order, so the
consistency gradient -lam * p_u * p_v is -lam scaled in place by p_u per
row and then by p_v per column, bit for bit the per-slot product.  And
``consistency_value`` is p . (U_w p), one product of that CSR, whose data
is the weight vector, with p.  Its terms are summed per row and then over
nodes, not per slot in slot order, so it equals the per-slot sum to
rounding, not to the bit.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import InputError, NumericalError
from .graph import EdgeWeights, Graph, _csr_matvec, _csr_scale
from .propagation import (
    LabelSet,
    _check_vectors,
    _class_parts,
    _inverse_degrees,
    lbp_step_directed,
    lbp_step_undirected,
    rw_step,
)


class RegularizerKind(str, Enum):
    CONSISTENCY = "consistency"
    L1 = "l1"
    L2 = "l2"
    NONE = "none"


def training_loss(p: np.ndarray, labels: LabelSet) -> float:
    """Half the squared error between labeled nodes' scores and +/-1."""
    if len(labels) == 0:
        raise InputError("training loss needs at least one labeled node")
    pos = labels.positive_array()
    neg = labels.negative_array()
    return 0.5 * (float(np.sum((p[pos] - 1.0) ** 2)) +
                  float(np.sum((p[neg] + 1.0) ** 2)))


class SlotWork:
    """The slot-sized work array of the gradients and
    ``apply_gradient_step``, allocated once per run and reused by every
    alternation.

    ``grad`` receives the gradient; ``apply_gradient_step``, given the work
    array, writes its scaled step there, over the gradient.

    Fresh slot-sized temporaries on every call cost page faults: glibc
    serves blocks above its mmap threshold by mmap and returns them on
    free, so each one is faulted in again.  A gradient written here stays
    valid only until the next call that is given the same work array.
    """

    def __init__(self, slot_count: int):
        self.grad = np.empty(slot_count)


class LabeledSlots:
    """The slots whose loss term can be nonzero, found once per run.

    Undirected: the slots with a labeled endpoint.  Directed: the slots
    whose row owner is labeled, the only endpoint whose next score the
    slot's weight moves.  ``idx`` holds the slot indices in ascending
    order, ``u`` and ``v`` their endpoints and, for a directed graph,
    ``col`` their columns in the step's n x 3n matrix, all read off the
    step CSR's row pointers and columns without building ``slot_ends``.
    """

    def __init__(self, g: Graph, labels: LabelSet):
        is_labeled = np.zeros(g.node_count, dtype=bool)
        is_labeled[labels.positive_array()] = True
        is_labeled[labels.negative_array()] = True
        mask = np.repeat(is_labeled, np.diff(g._csr_indptr))
        if not g.directed:
            mask |= np.take(is_labeled, g._csr_indices)  # the column is the node
        self.idx = np.flatnonzero(mask)
        self.u = np.searchsorted(g._csr_indptr, self.idx, side="right") - 1
        # int64: numpy casts a narrower index array on every gather
        cols = g._csr_indices[self.idx].astype(np.int64)
        self.v = cols % g.node_count
        self.col = cols if g.directed else None


def consistency_value(g: Graph, w: EdgeWeights, p: np.ndarray) -> float:
    """Sum of p_u * p_v * w over stored slots (per edge when undirected,
    per ordered pair when directed).

    Computed as p . (U_w p) with U_w the propagation step's CSR and the
    weights as its data: row u of U_w p sums w * p_v over u's slots.  A
    directed graph's columns pair_class * n + v read p_v from p tiled three
    times, as in ``Graph.spectral_radius_bound``.  Exact to rounding: the
    terms are summed per row, then over the rows.
    """
    _check_vectors(g, w, p)
    up = np.zeros(g.node_count)
    _csr_matvec(g._csr_indptr, g._csr_indices, w.values,
                np.tile(p, 3) if g.directed else p, up)
    up *= p
    return float(np.sum(up))


def _residuals(p_next: np.ndarray, labels: LabelSet, n: int) -> np.ndarray:
    # (p - y) on labeled nodes, zero elsewhere: doubles as the membership
    # indicator in the gradient formulas.
    err = np.zeros(n)
    pos = labels.positive_array()
    neg = labels.negative_array()
    err[pos] = p_next[pos] - 1.0
    err[neg] = p_next[neg] + 1.0
    return err


def _regularizer_grad(g: Graph, w: EdgeWeights, p_t: np.ndarray,
                      kind: RegularizerKind, lam: float, work: SlotWork) -> np.ndarray:
    # Writes the regularizer's gradient over every slot into work.grad.
    grad = work.grad
    if kind is RegularizerKind.CONSISTENCY:
        # (-lam * p_u) * p_v: slot (u, v) is the step CSR's entry in row u
        # and column v, or pair_class * n + v when directed.
        grad.fill(-lam)
        _csr_scale(g._csr_indptr, g._csr_indices, grad, p_t,
                   np.tile(p_t, 3) if g.directed else p_t)
    elif kind is RegularizerKind.L1:
        # subgradient 0 at w == 0
        np.sign(w.values, out=grad)
        grad *= lam
    elif kind is RegularizerKind.L2:
        np.multiply(w.values, 2.0 * lam, out=grad)
    else:
        grad.fill(0.0)
    return grad


def grad_undirected(g: Graph, w: EdgeWeights, q: np.ndarray, p_t: np.ndarray,
                    labels: LabelSet, lam: float,
                    regularizer: RegularizerKind = RegularizerKind.CONSISTENCY,
                    p_next: np.ndarray | None = None,
                    work: SlotWork | None = None, *,
                    labeled: LabeledSlots | None = None) -> np.ndarray:
    """Objective gradient per undirected weight slot.

    Both labeled endpoints of an edge contribute to the shared slot:
    (p_next_u - y_u) * p_t_v when u is labeled, and symmetrically for v,
    plus the regularizer term.  ``p_next`` defaults to one propagation step
    from ``p_t`` under the current weights.  ``labeled`` passes in the
    ``LabeledSlots(g, labels)``.
    """
    if g.directed:
        raise InputError("grad_undirected expects an undirected graph")
    _check_vectors(g, w, q, p_t)
    if p_next is None:
        p_next = lbp_step_undirected(g, w, q, p_t)
    work = work or SlotWork(g.slot_count)
    labeled = labeled or LabeledSlots(g, labels)
    err = _residuals(p_next, labels, g.node_count)
    u, v = labeled.u, labeled.v
    # err_u * p_t_v + err_v * p_t_u on the labeled slots
    loss = err[u]
    loss *= p_t[v]
    term = err[v]
    term *= p_t[u]
    loss += term
    grad = _regularizer_grad(g, w, p_t, regularizer, lam, work)
    grad[labeled.idx] = loss + grad[labeled.idx]
    return grad


def grad_directed(g: Graph, w: EdgeWeights, q: np.ndarray, p_t: np.ndarray,
                  labels: LabelSet, lam: float,
                  regularizer: RegularizerKind = RegularizerKind.CONSISTENCY,
                  p_next: np.ndarray | None = None,
                  work: SlotWork | None = None, *,
                  labeled: LabeledSlots | None = None) -> np.ndarray:
    """Objective gradient per ordered-pair slot of a directed graph.

    Only the row owner u of slot (u, v) contributes loss signal, scaled by
    the part of p_t_v that the pair class lets through (full score for
    bidirectional pairs, negative part for incoming-only, positive part for
    outgoing-only): the entry of the step's input vector in slot (u, v)'s
    column.  ``labeled`` is as for ``grad_undirected``.
    """
    if not g.directed:
        raise InputError("grad_directed expects a directed graph")
    _check_vectors(g, w, q, p_t)
    if p_next is None:
        p_next = lbp_step_directed(g, w, q, p_t)
    work = work or SlotWork(g.slot_count)
    labeled = labeled or LabeledSlots(g, labels)
    err = _residuals(p_next, labels, g.node_count)
    loss = err[labeled.u]
    loss *= _class_parts(p_t)[labeled.col]
    grad = _regularizer_grad(g, w, p_t, regularizer, lam, work)
    grad[labeled.idx] = loss + grad[labeled.idx]
    return grad


def grad_rw_undirected(g: Graph, w: EdgeWeights, q: np.ndarray, p_t: np.ndarray,
                       labels: LabelSet, lam: float,
                       regularizer: RegularizerKind = RegularizerKind.CONSISTENCY,
                       restart: float = 0.0,
                       p_next: np.ndarray | None = None,
                       work: SlotWork | None = None,
                       inv_degrees: np.ndarray | None = None, *,
                       labeled: LabeledSlots | None = None) -> np.ndarray:
    """Gradient for the both-label random walk ("rw-b").

    The degree normalization is treated as constant within the alternation,
    so a slot's loss contribution is the plain undirected one scaled by the
    receiving labeled node's inverse weighted degree and the non-restart
    mass.  ``p_next`` defaults to one "rw-b" step from ``p_t``.
    ``inv_degrees`` passes in the inverse weighted degrees of ``w``, as the
    step that made ``p_next`` used them.  ``labeled`` is as for
    ``grad_undirected``.
    """
    if g.directed:
        raise InputError("grad_rw_undirected expects an undirected graph")
    _check_vectors(g, w, q, p_t)
    inv = _inverse_degrees(g, w) if inv_degrees is None else inv_degrees
    _check_vectors(g, w, inv)
    if p_next is None:
        p_next = rw_step(g, w, q, p_t, "rw-b", restart, inv)
    work = work or SlotWork(g.slot_count)
    labeled = labeled or LabeledSlots(g, labels)
    err = _residuals(p_next, labels, g.node_count)
    u, v = labeled.u, labeled.v
    # (1 - restart) * (err_u * pv * inv_u + err_v * pu * inv_v) on the
    # labeled slots
    loss = err[u]
    loss *= p_t[v]
    loss *= inv[u]
    term = err[v]
    term *= p_t[u]
    term *= inv[v]
    loss += term
    loss *= 1.0 - restart
    grad = _regularizer_grad(g, w, p_t, regularizer, lam, work)
    grad[labeled.idx] = loss + grad[labeled.idx]
    return grad


def gradient_inf_norm(grad: np.ndarray) -> float:
    """max |grad|, from one max and one min pass, 0 for an empty gradient.
    A non-finite entry raises ``NumericalError`` naming its slot: the max
    and min are both finite exactly when every entry is, since NaN
    propagates through them."""
    if not grad.size:
        return 0.0
    hi, lo = grad.max(), grad.min()
    if not (math.isfinite(hi) and math.isfinite(lo)):
        bad = int(np.flatnonzero(~np.isfinite(grad))[0])
        raise NumericalError(f"non-finite gradient entry at slot {bad}")
    return float(abs(max(hi, -lo)))


def apply_gradient_step(w: EdgeWeights, grad: np.ndarray, gamma: float,
                        work: SlotWork | None = None,
                        out: np.ndarray | None = None, *,
                        checked: bool = False) -> EdgeWeights:
    """One descent step, then each weight is clipped into
    [-w.clamp_bound, w.clamp_bound].

    The new values go to ``out`` when given, which may be ``w.values``
    itself to update the weights in place.  The scaled step goes to
    ``work.grad`` when ``work`` is given, so a gradient held there is
    consumed.  A non-finite entry raises ``NumericalError`` naming its
    slot (``gradient_inf_norm``); ``checked`` says that the caller has
    already taken ``gradient_inf_norm`` of this gradient, and skips it.
    """
    if gamma < 0:
        raise InputError("learning rate must be nonnegative")
    grad = np.asarray(grad, dtype=float)
    if grad.shape != w.values.shape:
        raise InputError("gradient shape does not match the weight array")
    if not checked:
        gradient_inf_norm(grad)
    bound = w.clamp_bound
    step = np.multiply(grad, gamma, out=None if work is None else work.grad)
    vals = np.subtract(w.values, step, out=out)
    np.clip(vals, -bound, bound, out=vals)
    return EdgeWeights(vals, bound)
