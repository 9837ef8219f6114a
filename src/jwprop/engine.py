"""Alternating propagate / learn driver.

Each alternation propagates the score vector once, checks convergence on
the relative L1 change, and (for the weight-learning methods) takes one
gradient step on the edge weights using the scores just computed.  The
convergence test runs after the propagation half-step and before weight
learning; the learning half-step is skipped once the run is stopping, since
it could no longer influence any posterior.

Every method belongs to one propagation family (undirected LBP, directed
LBP, random walk), named in ``METHOD_TABLE``.  ``run`` resolves the
family's priors, default weights, step and gradient once, before the loop;
the steps live in ``propagation`` and their gradients in ``learning``.
The random walk's inverse weighted degrees are computed before the loop
and passed in, recomputed only after a weight update, and shared by the
step and the gradient.  The ground-truth slot classes behind
``weight_class_means`` and the labeled slots that carry the gradient's loss
term are kept with the graph for their label set (``Graph._per_labels``)
by the functions that read them, so runs that share a graph and a label
set build them once.

One alternation runs: step, convergence check, gradient, the loss and
consistency diagnostics under the weights just propagated with, the weight
update in place, and the class means, which are recomputed only when the
weights changed.  Every run collects these diagnostics.  No alternation
gathers a score per slot: the consistency gradient and diagnostic both go
through the step's CSR (``learning``), and the class means gather only the
two smaller truth classes.  The consistency diagnostic and the class means
are exact to rounding, not to the bit.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .errors import InputError, NumericalError
from .graph import EdgeWeights, Graph
from .learning import (
    RegularizerKind,
    apply_gradient_step,
    consistency_value,
    grad_directed,
    grad_rw_undirected,
    grad_undirected,
    gradient_inf_norm,
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


# Method -> (CLI name, propagation family, learns weights).  The families
# are undirected LBP ("lbp-u"), directed LBP ("lbp-d") and the random walk
# ("rw"); only "lbp-d" runs on directed graphs, so a CLI name selects its
# method by the graph's direction.
METHOD_TABLE = {
    Method.LBP_U: ("lbp", "lbp-u", False),
    Method.LBP_D: ("lbp", "lbp-d", False),
    Method.LBP_JWP_U: ("lbp-jwp", "lbp-u", True),
    Method.LBP_JWP_D: ("lbp-jwp", "lbp-d", True),
    Method.RW_N: ("rw-n", "rw", False),
    Method.RW_P: ("rw-p", "rw", False),
    Method.RW_B: ("rw-b", "rw", False),
    Method.RW_JWP_U: ("rw-jwp", "rw", True),
}
METHOD_NAMES = tuple(dict.fromkeys(name for name, _, _ in METHOD_TABLE.values()))


def method_for(name: str, directed: bool) -> Method:
    """The method a CLI name selects on a directed or undirected graph."""
    for method, (cli_name, family, _) in METHOD_TABLE.items():
        if cli_name == name and (family == "lbp-d") == directed:
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
    A given or resolved w0 must satisfy |w0| <= clamp_bound.  Every float
    field must be finite, and a given lam or clamp_bound nonnegative.
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
        for name in ("theta", "lam", "gamma", "w0", "clamp_bound", "tolerance"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
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
        if not isinstance(self.max_alternations, numbers.Integral) or self.max_alternations < 1:
            raise InputError("max_alternations must be an integer of at least 1, "
                             f"got {self.max_alternations!r}")
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
    priors: np.ndarray
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
    denom = float(np.sum(np.abs(p_new)))
    if denom == 0.0:
        return math.inf
    return float(np.sum(np.abs(p_new - p_old))) / denom


def truth_class_slots(g: Graph, truth: LabelSet
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices of the homogeneous, the heterogeneous and the remaining
    slots under ground truth.  A slot is homogeneous when both endpoints
    are labeled alike, heterogeneous when they are labeled unlike, and
    remaining when an endpoint is unlabeled; the three partition the
    slots.  Labels are read per slot off the step CSR, not ``slot_ends``."""
    truth.check_bounds(g.node_count)
    y = np.zeros(g.node_count, dtype=np.int8)
    y[truth.positive_array()] = 1
    y[truth.negative_array()] = -1
    # int8 labels in {-1, 0, 1}: the product is 1 for a homogeneous slot,
    # -1 for a heterogeneous one and 0 when an endpoint is unlabeled.
    same = np.repeat(y, np.diff(g._csr_indptr))
    same *= np.take(np.tile(y, 3) if g.directed else y, g._csr_indices)
    return np.flatnonzero(same > 0), np.flatnonzero(same < 0), np.flatnonzero(same == 0)


def weight_class_means(g: Graph, w: EdgeWeights, truth: LabelSet) -> tuple[float, float]:
    """Mean weight over homogeneous and heterogeneous slots under ground
    truth; NaN for classes with no member slots.  The slot classes,
    ``truth_class_slots(g, truth)``, are kept with the graph per label set.

    Only the two smaller of the three slot classes are gathered; the sum of
    the largest is the sum of all weights minus theirs.  A mean is thus
    exact to rounding, not to the bit, and the largest class's error is
    bounded relative to the sum of all |w|, not that class's alone.
    """
    classes = g._per_labels(truth_class_slots, truth)
    largest = max(range(3), key=lambda i: classes[i].size)
    sums = [0.0 if i == largest else float(np.sum(w.values[idx]))
            for i, idx in enumerate(classes)]
    sums[largest] = float(np.sum(w.values)) - sum(sums)
    return tuple(s / idx.size if idx.size else math.nan
                 for s, idx in zip(sums[:2], classes[:2]))


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
    _, family, learn = METHOD_TABLE[method]
    if (family == "lbp-d") != g.directed:
        kind = "directed" if family == "lbp-d" else "undirected"
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
    if family == "rw":
        variant = method.value if method in (Method.RW_N, Method.RW_P) else "rw-b"
        if variant == "rw-n":
            if not labels.negatives:
                raise InputError("rw-n needs labeled negative nodes")
            prior_labels = LabelSet(frozenset(), labels.negatives)
        elif variant == "rw-p":
            if not labels.positives:
                raise InputError("rw-p needs labeled positive nodes")
            prior_labels = LabelSet(labels.positives, frozenset())
        w0 = cfg.w0 if cfg.w0 is not None else 1.0 / g.average_degree()
        clamp = cfg.clamp_bound if cfg.clamp_bound is not None else RW_CLAMP_BOUND
        step = functools.partial(rw_step, variant=variant, restart=cfg.restart)
        gradient = functools.partial(grad_rw_undirected, restart=cfg.restart)
    else:
        w0, clamp = cfg.w0, cfg.clamp_bound
        if w0 is None:
            w0 = LBP_W0_FACTOR / g.spectral_radius_bound()
        if clamp is None:
            clamp = LBP_CLAMP_FACTOR / g.spectral_radius_bound()
        if family == "lbp-d":
            step, gradient = lbp_step_directed, grad_directed
        else:
            step, gradient = lbp_step_undirected, grad_undirected
    # A given w0 outside the clamp is rejected: no step would pull plain
    # LBP's weights back inside it.  A default w0 is left as resolved: RW's
    # 1/average degree only sets a scale, and LBP's keeps every step a
    # contraction.
    if cfg.w0 is not None and abs(cfg.w0) > clamp:
        raise InputError(f"w0 {w0:g} exceeds the clamp bound {clamp:g}")

    q = assign_priors(prior_labels, cfg.theta, g.node_count)
    w = EdgeWeights.uniform(g, w0, clamp)
    p_prev = q.copy()

    diags: list[AlternationDiag] = []
    converged = False
    alternations = 0
    p = p_prev

    # One slot-sized gradient array for the whole run, which the update
    # scales in place: a fresh one per alternation would be faulted in
    # again each time, since glibc serves blocks above its mmap threshold
    # by mmap and returns them on free.  The weights are updated in place,
    # after the diagnostics that read the weights this alternation
    # propagated with.
    work = np.empty(g.slot_count)
    # The random walk's inverse weighted degrees, for the step and the
    # gradient of the weights they were computed from.
    rw_degrees = {"inv_degrees": _inverse_degrees(g, w)} if family == "rw" else {}
    # Mean weights per truth class, recomputed only after a weight update.
    class_means = None
    for t in range(1, cfg.max_alternations + 1):
        tic = time.perf_counter()
        p = step(g, w, q, p_prev, **rw_degrees)
        if not np.all(np.isfinite(p)):
            raise NumericalError(f"non-finite posteriors at alternation {t}")
        metric = convergence_metric(p, p_prev)
        alternations = t
        converged = metric < cfg.tolerance
        update = learn and not converged and t < cfg.max_alternations
        grad_inf = math.nan
        if update:
            grad = gradient(g, w, q, p_prev, labels, lam, cfg.regularizer,
                            p_next=p, out=work, **rw_degrees)
            grad_inf = gradient_inf_norm(grad)
        with np.errstate(over="ignore"):  # inf diagnostics on divergence
            loss_val = training_loss(p, labels)
            cons_val = consistency_value(g, w, p)
        if update:
            w = apply_gradient_step(w, grad, cfg.gamma, work, out=w.values, checked=True)
            if rw_degrees:
                rw_degrees["inv_degrees"] = _inverse_degrees(g, w)
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

    return RunResult(priors=q, posteriors=p, weights=w, alternations=alternations,
                     converged=converged, diagnostics=diags, w0=w0, lam=lam,
                     method=method)


DIAG_COLUMNS = tuple(f.name for f in fields(AlternationDiag))


def write_diagnostics(diags: list[AlternationDiag], path):
    """Write the per-alternation diagnostics as a TSV with a header row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(DIAG_COLUMNS) + "\n")
        for d in diags:
            row = (getattr(d, name) for name in DIAG_COLUMNS)
            fh.write("\t".join(f"{x:.10g}" if isinstance(x, float) else str(x)
                               for x in row) + "\n")
