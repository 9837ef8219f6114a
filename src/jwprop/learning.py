"""Per-alternation training objective and gradient step for edge weights.

The objective combines a squared-error loss over the labeled nodes' next
scores with a regularizer on the weights.  The consistency regularizer
rewards weights whose sign agrees with the product of the endpoint scores;
l1/l2 are the conventional penalties; "none" drops the term.  Gradients are
closed-form because the current score vector is held fixed while the next
one is linear in the weights.

The three gradients share one body and one loss term.  The body writes
the regularizer's term over every slot, then adds the loss term on the
labeled slots only (``LabeledSlots``, kept with the graph per label set):
the residual p_next - y is zero off the labeled nodes, so the loss term is
zero on every other slot.  The loss term reads the step's input
(``Graph._step_input``) in each slot's step column; the random walk scales
it by the inverse degrees and the non-restart mass.

Nothing here gathers a score per slot through the slot endpoints.  The
consistency gradient -lam * p_u * p_v is -lam scaled in place by p_u and
then by p_v (``Graph._scale_slots``), bit for bit the per-slot product, and
``consistency_value`` is one ``Graph._slot_sum``, exact to rounding.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np

from .errors import InputError, NumericalError, enum_member
from .graph import EdgeWeights, Graph
from .propagation import (
    LabelSet,
    _check_direction,
    _check_restart,
    _check_vectors,
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
    labels.check_bounds(p.shape[0])
    pos = labels.positive_array()
    neg = labels.negative_array()
    return 0.5 * (float(((p[pos] - 1.0) ** 2).sum()) +
                  float(((p[neg] + 1.0) ** 2).sum()))


class LabeledSlots:
    """The slots whose loss term can be nonzero, found once per graph and
    label set.

    Undirected: the slots with a labeled endpoint.  Directed: the slots
    whose row owner is labeled, the only endpoint whose next score the
    slot's weight moves.  ``idx`` holds the slot indices in ascending
    order, ``u`` their row owners and ``col`` their int64 columns in the
    step matrix (v, or ``pair_class * n + v`` when directed), all read off
    the graph's step CSR without building ``slot_ends``.  The labeled rows'
    slots come from the row pointers, so the build's one slot-sized
    temporary is the undirected column mask.
    """

    def __init__(self, g: Graph, labels: LabelSet):
        labels.check_bounds(g.node_count)
        is_labeled = np.zeros(g.node_count, dtype=bool)
        is_labeled[labels.positive_array()] = True
        is_labeled[labels.negative_array()] = True
        own = g._row_slots(np.flatnonzero(is_labeled))
        if g.directed:
            self.idx = own
        else:
            mask = g._at_columns(is_labeled)
            mask[own] = True
            self.idx = np.flatnonzero(mask)
        self.u, self.col = g._rows_and_columns(self.idx)


def consistency_value(g: Graph, w: EdgeWeights, p: np.ndarray) -> float:
    """Sum of p_u * p_v * w over stored slots (per edge when undirected,
    per ordered pair when directed), exact to rounding (``Graph._slot_sum``)."""
    _check_vectors(g, w, p)
    return g._slot_sum(w.values, p)


def _regularizer_grad(g: Graph, w: EdgeWeights, p_t: np.ndarray,
                      kind: RegularizerKind, lam: float, grad: np.ndarray) -> np.ndarray:
    # Writes the regularizer's gradient over every slot into grad.
    if kind is RegularizerKind.CONSISTENCY:
        # (-lam * p_u) * p_v for each slot (u, v)
        grad.fill(-lam)
        g._scale_slots(grad, p_t)
    elif kind is RegularizerKind.L1:
        # subgradient 0 at w == 0
        np.sign(w.values, out=grad)
        grad *= lam
    elif kind is RegularizerKind.L2:
        np.multiply(w.values, 2.0 * lam, out=grad)
    elif kind is RegularizerKind.NONE:
        grad.fill(0.0)
    return grad


def _check_slot_array(name: str, a, w: EdgeWeights):
    if not (isinstance(a, np.ndarray) and a.shape == w.values.shape
            and a.dtype == np.float64 and a.flags.c_contiguous):
        raise InputError(f"{name} must be a contiguous float64 array with one entry per slot")


def _gradient(name: str, directed: bool, step, g: Graph, w: EdgeWeights,
              q: np.ndarray, p_t: np.ndarray, labels: LabelSet, lam: float,
              regularizer: RegularizerKind, p_next: np.ndarray | None,
              out: np.ndarray | None, inv: np.ndarray | None = None,
              keep: float | None = None) -> np.ndarray:
    # The part the gradients share.  ``step(g, w, q, p_t)`` is the family's
    # step, for the default p_next; ``inv`` and ``keep`` are the walk's.
    _check_direction(name, directed, g)
    regularizer = enum_member(RegularizerKind, regularizer, "regularizer")
    _check_vectors(g, w, q, p_t, *(v for v in (inv, p_next) if v is not None))
    if not 0 <= lam < math.inf:
        raise InputError(f"lam must be nonnegative and finite, got {lam}")
    if p_next is None:
        p_next = step(g, w, q, p_t)
    if out is None:
        out = np.empty(g.slot_count)
    else:
        _check_slot_array("out", out, w)
    labeled = g._per_labels(LabeledSlots, labels)
    err = np.zeros(g.node_count)
    pos, neg = labels.positive_array(), labels.negative_array()
    err[pos] = p_next[pos] - 1.0
    err[neg] = p_next[neg] + 1.0
    loss = _loss_term(g, p_t, err, labeled, inv, keep)
    grad = _regularizer_grad(g, w, p_t, regularizer, lam, out)
    grad[labeled.idx] = loss + grad[labeled.idx]
    return grad


def _loss_term(g: Graph, p_t: np.ndarray, err: np.ndarray, labeled: LabeledSlots,
               inv: np.ndarray | None, keep: float | None) -> np.ndarray:
    # err_u * x_col on each labeled slot (u, v), for the residuals
    # err = p_next - y, the step input x = g._step_input(p_t) and the slot's
    # step column col, plus err_v * p_t_u when undirected, where x is p_t and
    # col is v; the walk scales each part by its receiver's inv, the sum by keep
    u, col = labeled.u, labeled.col
    loss = err[u]
    loss *= g._step_input(p_t)[col]
    if inv is not None:
        loss *= inv[u]
    if not g.directed:
        term = err[col]
        term *= p_t[u]
        if inv is not None:
            term *= inv[col]
        loss += term
    if keep is not None:
        loss *= keep
    return loss


def grad_undirected(g: Graph, w: EdgeWeights, q: np.ndarray, p_t: np.ndarray,
                    labels: LabelSet, lam: float,
                    regularizer: RegularizerKind = RegularizerKind.CONSISTENCY,
                    p_next: np.ndarray | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Objective gradient per undirected weight slot.

    Both labeled endpoints of an edge contribute to the shared slot:
    (p_next_u - y_u) * p_t_v when u is labeled, and symmetrically for v,
    plus the regularizer term.  ``p_next`` defaults to one propagation step
    from ``p_t`` under the current weights.  The gradient is written into
    ``out`` when given, a float64 array with one entry per slot.
    ``regularizer`` is a ``RegularizerKind`` or its value; ``lam`` must be
    nonnegative and finite.
    """
    return _gradient("grad_undirected", False, lbp_step_undirected, g, w, q, p_t,
                     labels, lam, regularizer, p_next, out)


def grad_directed(g: Graph, w: EdgeWeights, q: np.ndarray, p_t: np.ndarray,
                  labels: LabelSet, lam: float,
                  regularizer: RegularizerKind = RegularizerKind.CONSISTENCY,
                  p_next: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Objective gradient per ordered-pair slot of a directed graph.

    Only the row owner u of slot (u, v) contributes loss signal, scaled by
    the part of p_t_v that the pair class lets through (full score for
    bidirectional pairs, negative part for incoming-only, positive part for
    outgoing-only): the entry of the step's input vector in slot (u, v)'s
    column.  ``lam``, ``regularizer``, ``p_next`` and ``out`` are as for
    ``grad_undirected``.
    """
    return _gradient("grad_directed", True, lbp_step_directed, g, w, q, p_t,
                     labels, lam, regularizer, p_next, out)


def grad_rw_undirected(g: Graph, w: EdgeWeights, q: np.ndarray, p_t: np.ndarray,
                       labels: LabelSet, lam: float,
                       regularizer: RegularizerKind = RegularizerKind.CONSISTENCY,
                       restart: float = 0.0,
                       p_next: np.ndarray | None = None,
                       out: np.ndarray | None = None,
                       inv_degrees: np.ndarray | None = None) -> np.ndarray:
    """Gradient for the both-label random walk ("rw-b").

    The degree normalization is treated as constant within the alternation,
    so a slot's loss contribution is the plain undirected one scaled by the
    receiving labeled node's inverse weighted degree and the non-restart
    mass.  ``p_next`` defaults to one "rw-b" step from ``p_t``.
    ``inv_degrees`` passes in the inverse weighted degrees of ``w``, as the
    step that made ``p_next`` used them.  ``lam``, ``regularizer`` and ``out``
    are as for ``grad_undirected``.
    """
    # A directed graph is left to the direction check of ``_gradient``.
    _check_restart(restart)
    inv = _inverse_degrees(g, w) if inv_degrees is None and not g.directed else inv_degrees
    step = functools.partial(rw_step, variant="rw-b", restart=restart, inv_degrees=inv)
    return _gradient("grad_rw_undirected", False, step, g, w, q, p_t, labels, lam,
                     regularizer, p_next, out, inv, 1.0 - restart)


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


def apply_gradient_step(w: EdgeWeights, grad: np.ndarray, gamma: float) -> float:
    """One descent step of nonnegative, finite size ``gamma`` on ``w.values``,
    in place, each weight then clipped into [-w.clamp_bound, w.clamp_bound].
    Returns max |grad| (``gradient_inf_norm``).

    ``grad`` is a contiguous float64 slot array apart from the weights,
    which must be writeable; the step scales it by ``gamma`` in place.  All
    checks run first: a non-finite entry raises ``NumericalError`` naming
    its slot, with nothing written.
    """
    if not 0 <= gamma < math.inf:
        raise InputError(f"learning rate must be nonnegative and finite, got {gamma}")
    _check_slot_array("grad", grad, w)
    if not w.values.flags.writeable:
        raise InputError("weights must be writeable to be updated in place")
    if np.shares_memory(w.values, grad):
        raise InputError("grad must not share memory with the weights")
    norm = gradient_inf_norm(grad)
    grad *= gamma
    np.subtract(w.values, grad, out=w.values)
    np.clip(w.values, -w.clamp_bound, w.clamp_bound, out=w.values)
    return norm
