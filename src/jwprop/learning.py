"""Per-alternation training objective and gradient step for edge weights.

The objective combines a squared-error loss over the labeled nodes' next
scores with a regularizer on the weights.  The consistency regularizer
rewards weights whose sign agrees with the product of the endpoint scores;
l1/l2 are the conventional penalties; "none" drops the term.  Gradients are
closed-form because the current score vector is held fixed while the next
one is linear in the weights.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import InputError, NumericalError
from .graph import EdgeWeights, Graph
from .propagation import (
    LabelSet,
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


def consistency_value(g: Graph, w: EdgeWeights, p: np.ndarray) -> float:
    """Sum of p_u * p_v * w over stored slots (per edge when undirected,
    per ordered pair when directed)."""
    return float(np.sum(p[g._slot_u] * p[g._slot_v] * w.values))


def _residuals(p_next: np.ndarray, labels: LabelSet, n: int) -> np.ndarray:
    # (p - y) on labeled nodes, zero elsewhere: doubles as the membership
    # indicator in the gradient formulas.
    err = np.zeros(n)
    pos = labels.positive_array()
    neg = labels.negative_array()
    err[pos] = p_next[pos] - 1.0
    err[neg] = p_next[neg] + 1.0
    return err


def _regularizer_grad(kind: RegularizerKind, lam: float, w_vals: np.ndarray,
                      pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
    if kind is RegularizerKind.CONSISTENCY:
        return -lam * pu * pv
    if kind is RegularizerKind.L1:
        # subgradient 0 at w == 0
        return lam * np.sign(w_vals)
    if kind is RegularizerKind.L2:
        return 2.0 * lam * w_vals
    return np.zeros_like(w_vals)


def grad_undirected(g: Graph, w: EdgeWeights, q: np.ndarray, p_t: np.ndarray,
                    labels: LabelSet, lam: float,
                    regularizer: RegularizerKind = RegularizerKind.CONSISTENCY,
                    p_next: np.ndarray | None = None) -> np.ndarray:
    """Objective gradient per undirected weight slot.

    Both labeled endpoints of an edge contribute to the shared slot:
    (p_next_u - y_u) * p_t_v when u is labeled, and symmetrically for v,
    plus the regularizer term.  ``p_next`` defaults to one propagation step
    from ``p_t`` under the current weights.
    """
    if g.directed:
        raise InputError("grad_undirected expects an undirected graph")
    if p_next is None:
        p_next = lbp_step_undirected(g, w, q, p_t)
    err = _residuals(p_next, labels, g.node_count)
    u, v = g._slot_u, g._slot_v
    pu, pv = p_t[u], p_t[v]
    grad = err[u] * pv + err[v] * pu
    grad += _regularizer_grad(regularizer, lam, w.values, pu, pv)
    return grad


def grad_directed(g: Graph, w: EdgeWeights, q: np.ndarray, p_t: np.ndarray,
                  labels: LabelSet, lam: float,
                  regularizer: RegularizerKind = RegularizerKind.CONSISTENCY,
                  p_next: np.ndarray | None = None) -> np.ndarray:
    """Objective gradient per ordered-pair slot of a directed graph.

    Only the row owner u of slot (u, v) contributes loss signal, scaled by
    the part of p_t_v that the pair class lets through (full score for
    bidirectional pairs, negative part for incoming-only, positive part for
    outgoing-only): the entry of the step's input vector in slot (u, v)'s
    column.
    """
    if not g.directed:
        raise InputError("grad_directed expects a directed graph")
    if p_next is None:
        p_next = lbp_step_directed(g, w, q, p_t)
    err = _residuals(p_next, labels, g.node_count)
    src = g._slot_u
    grad = err[src] * _class_parts(p_t)[g._class_col]
    grad += _regularizer_grad(regularizer, lam, w.values, p_t[src], p_t[g._slot_v])
    return grad


def grad_rw_undirected(g: Graph, w: EdgeWeights, q: np.ndarray, p_t: np.ndarray,
                       labels: LabelSet, lam: float,
                       regularizer: RegularizerKind = RegularizerKind.CONSISTENCY,
                       restart: float = 0.0,
                       p_next: np.ndarray | None = None) -> np.ndarray:
    """Gradient for the both-label random walk ("rw-b").

    The degree normalization is treated as constant within the alternation,
    so a slot's loss contribution is the plain undirected one scaled by the
    receiving labeled node's inverse weighted degree and the non-restart
    mass.  ``p_next`` defaults to one "rw-b" step from ``p_t``.
    """
    if g.directed:
        raise InputError("grad_rw_undirected expects an undirected graph")
    if p_next is None:
        p_next = rw_step(g, w, q, p_t, "rw-b", restart)
    err = _residuals(p_next, labels, g.node_count)
    inv = _inverse_degrees(g, w)
    u, v = g._slot_u, g._slot_v
    pu, pv = p_t[u], p_t[v]
    grad = (1.0 - restart) * (err[u] * pv * inv[u] + err[v] * pu * inv[v])
    grad += _regularizer_grad(regularizer, lam, w.values, pu, pv)
    return grad


def apply_gradient_step(w: EdgeWeights, grad: np.ndarray,
                        gamma: float) -> EdgeWeights:
    """One descent step, then each weight is clipped into
    [-w.clamp_bound, w.clamp_bound]."""
    if gamma < 0:
        raise InputError("learning rate must be nonnegative")
    grad = np.asarray(grad, dtype=float)
    if grad.shape != w.values.shape:
        raise InputError("gradient shape does not match the weight array")
    if not np.all(np.isfinite(grad)):
        bad = int(np.flatnonzero(~np.isfinite(grad))[0])
        raise NumericalError(f"non-finite gradient entry at slot {bad}")
    bound = w.clamp_bound
    vals = np.clip(w.values - gamma * grad, -bound, bound)
    return EdgeWeights(vals, bound)
