"""Alternating propagate / learn driver.

Each alternation propagates the score vector once, checks convergence on
the relative L1 change, and (for the weight-learning methods) takes one
gradient step on the edge weights using the scores just computed.  The
convergence test runs after the propagation half-step and before weight
learning; the learning half-step is skipped once the run is stopping, since
it could no longer influence any posterior.

Every method belongs to one propagation family, named in ``METHOD_TABLE``
with its direction: LBP, whose two directions differ only in the graph's
step input, or a random walk, named by its step variant.  ``run`` resolves
the family's priors, default weights, step and gradient once, before the
loop; the steps live in ``propagation`` and their gradients in ``learning``.
The random walk's inverse weighted degrees are computed before the loop
and passed in, recomputed only after a weight update, and shared by the
step and the gradient.  The ground-truth slot classes come from
``_class_mean_slots`` alone: the three class sizes and the indices of the
two smaller classes, not of the largest.  They and the labeled slots that
carry the gradient's loss term are kept with the graph for their label set
(``Graph._per_labels``) by the functions that read them, so runs that
share a graph and a label set build them once.

One alternation runs: step, convergence check, the loss and consistency
diagnostics under the weights just propagated with, one update block (the
gradient into the run's one scratch array, then ``apply_gradient_step``,
which updates the run's one ``EdgeWeights`` in place, and the walk's
inverse degrees), and the class means, which are recomputed only when the
weights changed.
Every run collects these diagnostics.  No alternation gathers a score per
slot: the consistency gradient and diagnostic both go through the graph's
slot products (``learning``), and the class means gather only the two
smaller truth classes.  The consistency diagnostic and the class means are
exact to rounding, not to the bit.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .errors import InputError, NumericalError, enum_member
from .graph import EdgeWeights, Graph
from .learning import (
    RegularizerKind,
    apply_gradient_step,
    consistency_value,
    grad_directed,
    grad_rw_undirected,
    grad_undirected,
    training_loss,
)
from .propagation import (
    LabelSet,
    _inverse_degrees,
    assign_priors,
    lbp_step_directed,
    lbp_step_undirected,
    rw_step,
)


class Method(str, Enum):
    LBP_U = "lbp-u"
    LBP_D = "lbp-d"
    LBP_JWP_U = "lbp-jwp-u"
    LBP_JWP_D = "lbp-jwp-d"
    RW_N = "rw-n"
    RW_P = "rw-p"
    RW_B = "rw-b"
    RW_JWP_U = "rw-jwp-u"


# Method -> (CLI name, propagation family, learns weights, directed).  The
# families are LBP ("lbp") and the random walks, named by step variant
# ("rw-n", "rw-p", "rw-b"); only LBP runs on directed graphs, so a CLI name
# selects its method by the graph's direction.
METHOD_TABLE = {
    Method.LBP_U: ("lbp", "lbp", False, False),
    Method.LBP_D: ("lbp", "lbp", False, True),
    Method.LBP_JWP_U: ("lbp-jwp", "lbp", True, False),
    Method.LBP_JWP_D: ("lbp-jwp", "lbp", True, True),
    Method.RW_N: ("rw-n", "rw-n", False, False),
    Method.RW_P: ("rw-p", "rw-p", False, False),
    Method.RW_B: ("rw-b", "rw-b", False, False),
    Method.RW_JWP_U: ("rw-jwp", "rw-b", True, False),
}
METHOD_NAMES = tuple(dict.fromkeys(row[0] for row in METHOD_TABLE.values()))


def method_for(name: str, directed: bool) -> Method:
    """The method a CLI name selects on a directed or undirected graph."""
    for method, (cli_name, _, _, on_directed) in METHOD_TABLE.items():
        if cli_name == name and on_directed == directed:
            return method
    if name in METHOD_NAMES:
        raise InputError(f"method {name!r} does not support directed graphs")
    raise InputError(f"unknown method {name!r}")


# Default weight init and clamp of the LBP methods, as fractions of 1/rho,
# where rho bounds the spectral radius of the unweighted slot adjacency A.
# Weights bounded by c give |W| <= c * A entrywise, so rho(W) <= c * rho < 1
# and p = q + W p has a unique fixed point that the steps contract towards.
LBP_W0_FACTOR = 0.9
LBP_CLAMP_FACTOR = 0.99
# Random-walk defaults: the step normalizes by weighted degree, so the scale
# of the weights drops out, and the restart makes it contract.
RW_CLAMP_BOUND = 0.5


@dataclass(frozen=True)
class JwpConfig:
    """Run parameters.

    ``lam``, ``w0`` and ``clamp_bound`` default to graph-dependent values
    resolved at run time.  lam = min(1, 10 / average degree), a smooth
    stand-in for the usual sparse/dense settings.  For the LBP methods,
    w0 = 0.9 / rho and clamp_bound = 0.99 / rho, with rho from
    ``Graph.spectral_radius_bound``: every weight vector the run can reach
    then has spectral radius below 1, the convergence condition of linearized
    belief propagation, so the scores approach the fixed point of
    p = q + W p instead of growing along the dominant eigenvector.  For the
    random-walk methods, w0 = 1 / average degree and clamp_bound = 0.5.
    A given w0 must satisfy |w0| <= clamp_bound; a default w0 may exceed
    it (RW's does below average degree 2).  Every float field must be a
    finite real number, not a bool, and a given lam or clamp_bound
    nonnegative.  ``method`` and ``regularizer`` may be given as their
    string values.
    """

    method: Method = Method.LBP_JWP_U
    regularizer: RegularizerKind = RegularizerKind.CONSISTENCY
    theta: float = 1.0
    lam: float | None = None
    gamma: float = 1.0
    w0: float | None = None
    clamp_bound: float | None = None
    max_alternations: int = 15
    tolerance: float = 1e-3
    restart: float = 0.15

    def __post_init__(self):
        # frozen: the members are set through object.__setattr__
        object.__setattr__(self, "method", enum_member(Method, self.method, "method"))
        object.__setattr__(self, "regularizer",
                           enum_member(RegularizerKind, self.regularizer, "regularizer"))
        for name in ("theta", "lam", "gamma", "w0", "clamp_bound", "tolerance", "restart"):
            value = getattr(self, name)
            if value is None and name in ("lam", "w0", "clamp_bound"):
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InputError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value}")
        if self.theta <= 0:
            raise InputError("theta must be positive")
        if self.lam is not None and self.lam < 0:
            raise InputError("lam must be nonnegative")
        if self.clamp_bound is not None and self.clamp_bound < 0:
            raise InputError("clamp_bound must be nonnegative")
        if self.gamma < 0:
            raise InputError("gamma must be nonnegative")
        if self.tolerance <= 0:
            raise InputError("tolerance must be positive")
        count = self.max_alternations
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
            raise InputError("max_alternations must be an integer of at least 1, "
                             f"got {count!r}")
        if not 0.0 <= self.restart <= 1.0:
            raise InputError("restart must lie in [0, 1]")


@dataclass(frozen=True)
class AlternationDiag:
    """Per-alternation diagnostics, collected on every run.

    ``consistency`` is evaluated with the weights used for this
    alternation's propagation; the weight means describe the weights after
    this alternation's learning step (NaN without ground-truth labels, or
    for a class with no slot).  ``consistency`` and the weight means are
    exact to rounding, not to the bit: they are summed in another order
    than slot by slot (``learning.consistency_value``,
    ``weight_class_means``).
    """

    t: int
    conv_metric: float
    loss: float
    consistency: float
    grad_inf: float
    mean_homo_weight: float
    mean_hetero_weight: float
    wall_ms: float


@dataclass(frozen=True)
class RunResult:
    posteriors: np.ndarray
    weights: EdgeWeights
    alternations: int
    converged: bool
    diagnostics: list[AlternationDiag] = field(repr=False)
    w0: float
    lam: float
    method: Method


def convergence_metric(p_new: np.ndarray, p_old: np.ndarray) -> float:
    """Relative L1 change; +inf when the new vector is identically zero."""
    denom = float(np.abs(p_new).sum())
    if denom == 0.0:
        return math.inf
    return float(np.abs(p_new - p_old).sum()) / denom


def _class_mean_slots(g: Graph, truth: LabelSet
                      ) -> tuple[tuple[np.ndarray | None, ...], tuple[int, ...]]:
    """The ground-truth slot classes as ``weight_class_means`` keeps them:
    the indices of the homogeneous, the heterogeneous and the remaining
    slots, with None in place of the largest class, which is never gathered
    or built, and the three class sizes.  A slot is homogeneous when both
    endpoints are labeled alike, heterogeneous when they are labeled unlike,
    and remaining when an endpoint is unlabeled; the three partition the
    slots.  Labels are read per slot (``Graph._at_rows``, ``_at_columns``),
    not off ``slot_ends``."""
    truth.check_bounds(g.node_count)
    y = np.zeros(g.node_count, dtype=np.int8)
    y[truth.positive_array()] = 1
    y[truth.negative_array()] = -1
    # int8 labels in {-1, 0, 1}: the product is 1 for a homogeneous slot,
    # -1 for a heterogeneous one and 0 when an endpoint is unlabeled.
    same = g._at_rows(y)
    same *= g._at_columns(y)
    masks = same > 0, same < 0, same == 0
    sizes = tuple(int(np.count_nonzero(mask)) for mask in masks)
    largest = max(range(3), key=sizes.__getitem__)
    return (tuple(None if i == largest else np.flatnonzero(mask)
                  for i, mask in enumerate(masks)), sizes)


def weight_class_means(g: Graph, w: EdgeWeights, truth: LabelSet) -> tuple[float, float]:
    """Mean weight over homogeneous and heterogeneous slots under ground
    truth; NaN for classes with no member slots.  The slot classes come
    from ``_class_mean_slots(g, truth)`` alone, which is kept with the graph
    per label set.

    Only the two smaller of the three slot classes are gathered; the sum of
    the largest is the sum of all weights minus theirs.  A mean is thus
    exact to rounding, not to the bit, and the largest class's error is
    bounded relative to the sum of all |w|, not that class's alone.
    """
    w.check(g)
    kept, sizes = g._per_labels(_class_mean_slots, truth)
    sums = [0.0 if idx is None else float(w.values[idx].sum()) for idx in kept]
    largest = next(i for i, idx in enumerate(kept) if idx is None)
    sums[largest] = float(w.values.sum()) - sum(sums)
    return tuple(s / size if size else math.nan for s, size in zip(sums[:2], sizes[:2]))


def run(g: Graph, labels: LabelSet, cfg: JwpConfig,
        truth: LabelSet | None = None) -> RunResult:
    """Run a propagation method, optionally learning edge weights.

    Scores start at the priors and weights at w0.  The loop stops when the
    relative L1 change of the scores drops below the tolerance or the
    alternation budget is exhausted; in the latter case the result is
    returned with converged=False.  Under the default w0 and clamp of the
    LBP methods every step is a contraction (see ``JwpConfig``).  Every
    alternation appends an ``AlternationDiag``; pass ``truth`` to track
    per-class mean weights in them.
    """
    method = cfg.method
    _, family, learn, directed = METHOD_TABLE[method]
    if directed != g.directed:
        kind = "directed" if directed else "undirected"
        raise InputError(f"method {method.value} needs a {kind} graph")
    if len(labels) == 0:
        raise InputError("a nonempty training label set is required")
    labels.check_bounds(g.node_count)
    if truth is not None:
        truth.check_bounds(g.node_count)
    lam = cfg.lam if cfg.lam is not None else min(1.0, 10.0 / g.average_degree())

    # Resolve the family once: its priors (one class for the single-label
    # walks), default w0 and clamp, step and gradient.  Steps and gradients
    # are looked up by module name here, so wrappers bound to them apply.
    prior_labels = labels
    if family != "lbp":
        if family == "rw-n":
            if not labels.negative_array().size:
                raise InputError("rw-n needs labeled negative nodes")
            prior_labels = LabelSet((), labels.negative_array())
        elif family == "rw-p":
            if not labels.positive_array().size:
                raise InputError("rw-p needs labeled positive nodes")
            prior_labels = LabelSet(labels.positive_array(), ())
        w0 = cfg.w0 if cfg.w0 is not None else 1.0 / g.average_degree()
        clamp = cfg.clamp_bound if cfg.clamp_bound is not None else RW_CLAMP_BOUND
        step = functools.partial(rw_step, variant=family, restart=cfg.restart)
        gradient = functools.partial(grad_rw_undirected, restart=cfg.restart)
    else:
        w0, clamp = cfg.w0, cfg.clamp_bound
        if w0 is None:
            w0 = LBP_W0_FACTOR / g.spectral_radius_bound()
        if clamp is None:
            clamp = LBP_CLAMP_FACTOR / g.spectral_radius_bound()
        step, gradient = ((lbp_step_directed, grad_directed) if g.directed
                          else (lbp_step_undirected, grad_undirected))
    # A given w0 outside the clamp is rejected: no step would pull plain
    # LBP's weights back inside it.  A default w0 is left as resolved: RW's
    # 1/average degree only sets a scale, and LBP's keeps every step a
    # contraction.
    if cfg.w0 is not None and abs(cfg.w0) > clamp:
        raise InputError(f"w0 {w0:g} exceeds the clamp bound {clamp:g}")

    q = assign_priors(prior_labels, cfg.theta, g.node_count)
    w = EdgeWeights.uniform(g, w0, clamp)
    p_prev = q  # no kernel writes into a score vector it is given
    diags: list[AlternationDiag] = []

    # One slot-sized gradient array for the whole run, which the update
    # scales in place: a fresh one per alternation would be faulted in
    # again each time, since glibc serves blocks above its mmap threshold
    # by mmap and returns them on free.
    work = np.empty(g.slot_count)
    # The random walk's inverse weighted degrees, for the step and the
    # gradient of the weights they were computed from.  Their |w| pass runs
    # in ``work``, which is free before the loop and after each update.
    rw_degrees = {"inv_degrees": _inverse_degrees(g, w, work)} if family != "lbp" else {}
    # Mean weights per truth class, recomputed only after a weight update.
    class_means = None
    for t in range(1, cfg.max_alternations + 1):
        tic = time.perf_counter()
        p = step(g, w, q, p_prev, **rw_degrees)
        if not np.isfinite(p).all():
            raise NumericalError(f"non-finite posteriors at alternation {t}")
        metric = convergence_metric(p, p_prev)
        converged = metric < cfg.tolerance
        with np.errstate(over="ignore"):  # inf diagnostics on divergence
            loss_val = training_loss(p, labels)
            cons_val = consistency_value(g, w, p)
        grad_inf = math.nan
        if learn and not converged and t < cfg.max_alternations:
            grad_inf = apply_gradient_step(
                w, gradient(g, w, q, p_prev, labels, lam, cfg.regularizer,
                            p_next=p, out=work, **rw_degrees), cfg.gamma)
            if rw_degrees:
                rw_degrees["inv_degrees"] = _inverse_degrees(g, w, work)
            class_means = None
        if class_means is None:
            class_means = (weight_class_means(g, w, truth)
                           if truth is not None else (math.nan, math.nan))
        hm, ht = class_means
        diags.append(AlternationDiag(
            t=t,
            conv_metric=metric,
            loss=loss_val,
            consistency=cons_val,
            grad_inf=grad_inf,
            mean_homo_weight=hm,
            mean_hetero_weight=ht,
            wall_ms=(time.perf_counter() - tic) * 1e3,
        ))
        p_prev = p
        if converged:
            break

    return RunResult(posteriors=p, weights=w, alternations=t, converged=converged,
                     diagnostics=diags, w0=w0, lam=lam, method=method)


DIAG_COLUMNS = tuple(f.name for f in fields(AlternationDiag))


def write_diagnostics(diags: list[AlternationDiag], path):
    """Write the per-alternation diagnostics as a TSV with a header row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(DIAG_COLUMNS) + "\n")
        for d in diags:
            row = (getattr(d, name) for name in DIAG_COLUMNS)
            fh.write("\t".join(f"{x:.10g}" if isinstance(x, float) else str(x)
                               for x in row) + "\n")
