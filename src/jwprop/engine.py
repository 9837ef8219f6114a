"""Alternating propagate / learn driver.

Each alternation propagates the score vector once, checks convergence on
the relative L1 change, and (for the weight-learning methods) takes one
gradient step on the edge weights using the scores just computed.  The
convergence test runs after the propagation half-step and before weight
learning; the learning half-step is skipped once the run is stopping, since
it could no longer influence any posterior.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
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
    training_loss,
)
from .propagation import (
    LabelSet,
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


JWP_METHODS = frozenset({Method.LBP_JWP_U, Method.LBP_JWP_D, Method.RW_JWP_U})
DIRECTED_METHODS = frozenset({Method.LBP_D, Method.LBP_JWP_D})
RW_METHODS = frozenset({Method.RW_N, Method.RW_P, Method.RW_B, Method.RW_JWP_U})

# CLI method name and graph direction -> method.  The random-walk methods
# exist for undirected graphs only.
METHOD_TABLE = {
    ("lbp", False): Method.LBP_U,
    ("lbp", True): Method.LBP_D,
    ("lbp-jwp", False): Method.LBP_JWP_U,
    ("lbp-jwp", True): Method.LBP_JWP_D,
    ("rw-n", False): Method.RW_N,
    ("rw-p", False): Method.RW_P,
    ("rw-b", False): Method.RW_B,
    ("rw-jwp", False): Method.RW_JWP_U,
}
METHOD_NAMES = tuple(dict.fromkeys(name for name, _ in METHOD_TABLE))


def method_for(name: str, directed: bool) -> Method:
    """The method a CLI name selects on a directed or undirected graph."""
    try:
        return METHOD_TABLE[(name, directed)]
    except KeyError:
        if name in METHOD_NAMES:
            raise InputError(f"method {name!r} does not support directed graphs") from None
        raise InputError(f"unknown method {name!r}") from None


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
    A given or resolved w0 must satisfy |w0| <= clamp_bound.
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
        if self.theta <= 0:
            raise InputError("theta must be positive")
        if self.gamma < 0:
            raise InputError("gamma must be nonnegative")
        if self.tolerance <= 0:
            raise InputError("tolerance must be positive")
        if self.max_alternations < 1:
            raise InputError("max_alternations must be at least 1")
        if not 0.0 <= self.restart <= 1.0:
            raise InputError("restart must lie in [0, 1]")


@dataclass(frozen=True)
class AlternationDiag:
    """Per-alternation diagnostics.

    ``consistency`` is evaluated with the weights used for this
    alternation's propagation; the weight means describe the weights after
    this alternation's learning step (NaN without ground-truth labels).
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


def weight_class_means(g: Graph, w: EdgeWeights, truth: LabelSet) -> tuple[float, float]:
    """Mean weight over homogeneous and heterogeneous slots under ground
    truth; NaN for classes with no member slots."""
    y = np.zeros(g.node_count, dtype=np.int8)
    y[truth.positive_array()] = 1
    y[truth.negative_array()] = -1
    u = g.slot_ends[:, 0]
    v = g.slot_ends[:, 1]
    known = (y[u] != 0) & (y[v] != 0)
    homo = known & (y[u] == y[v])
    hetero = known & (y[u] != y[v])
    hm = float(np.mean(w.values[homo])) if homo.any() else math.nan
    ht = float(np.mean(w.values[hetero])) if hetero.any() else math.nan
    return hm, ht


def _resolve_priors(method: Method, labels: LabelSet, theta: float, n: int) -> np.ndarray:
    if method is Method.RW_N:
        if not labels.negatives:
            raise InputError("rw-n needs labeled negative nodes")
        labels = LabelSet(frozenset(), labels.negatives)
    elif method is Method.RW_P:
        if not labels.positives:
            raise InputError("rw-p needs labeled positive nodes")
        labels = LabelSet(labels.positives, frozenset())
    return assign_priors(labels, theta, n)


def _resolve_weights(method: Method, g: Graph, cfg: JwpConfig) -> tuple[float, float]:
    """Initial weight and clamp bound, filling in the defaults.  A given w0
    outside the clamp is rejected: no step would pull plain LBP's weights
    back inside it.  A default w0 is left as resolved: RW's 1/average degree
    only sets a scale, and LBP's keeps every step a contraction."""
    if method in RW_METHODS:
        w0 = cfg.w0 if cfg.w0 is not None else 1.0 / g.average_degree()
        clamp = cfg.clamp_bound if cfg.clamp_bound is not None else RW_CLAMP_BOUND
    else:
        w0, clamp = cfg.w0, cfg.clamp_bound
        if w0 is None:
            w0 = LBP_W0_FACTOR / g.spectral_radius_bound()
        if clamp is None:
            clamp = LBP_CLAMP_FACTOR / g.spectral_radius_bound()
    if cfg.w0 is not None and abs(cfg.w0) > clamp:
        raise InputError(f"w0 {w0:g} exceeds the clamp bound {clamp:g}")
    return w0, clamp


def run(g: Graph, labels: LabelSet, cfg: JwpConfig,
        truth: LabelSet | None = None, collect_diagnostics: bool = True) -> RunResult:
    """Run a propagation method, optionally learning edge weights.

    Scores start at the priors and weights at w0.  The loop stops when the
    relative L1 change of the scores drops below the tolerance or the
    alternation budget is exhausted; in the latter case the result is
    returned with converged=False.  Under the default w0 and clamp of the
    LBP methods every step is a contraction (see ``JwpConfig``).  Pass
    ``truth`` to track per-class mean weights in the diagnostics.
    """
    method = cfg.method
    if (method in DIRECTED_METHODS) != g.directed:
        kind = "directed" if method in DIRECTED_METHODS else "undirected"
        raise InputError(f"method {method.value} needs a {kind} graph")
    if len(labels) == 0:
        raise InputError("a nonempty training label set is required")
    labels.check_bounds(g.node_count)

    w0, clamp = _resolve_weights(method, g, cfg)
    lam = cfg.lam if cfg.lam is not None else min(1.0, 10.0 / g.average_degree())
    learn = method in JWP_METHODS

    q = _resolve_priors(method, labels, cfg.theta, g.node_count)
    w = EdgeWeights.uniform(g, w0, clamp)
    p_prev = q.copy()

    def propagate(weights, vec):
        if method in (Method.LBP_U, Method.LBP_JWP_U):
            return lbp_step_undirected(g, weights, q, vec)
        if method in (Method.LBP_D, Method.LBP_JWP_D):
            return lbp_step_directed(g, weights, q, vec)
        variant = {Method.RW_N: "rw-n", Method.RW_P: "rw-p"}.get(method, "rw-b")
        return rw_step(g, weights, q, vec, variant, cfg.restart)

    def gradient(weights, p_t, p_next):
        if method is Method.LBP_JWP_U:
            return grad_undirected(g, weights, q, p_t, labels, lam,
                                   cfg.regularizer, p_next=p_next)
        if method is Method.LBP_JWP_D:
            return grad_directed(g, weights, q, p_t, labels, lam,
                                 cfg.regularizer, p_next=p_next)
        return grad_rw_undirected(g, weights, q, p_t, labels, lam,
                                  cfg.regularizer, restart=cfg.restart,
                                  p_next=p_next)

    diags: list[AlternationDiag] = []
    converged = False
    alternations = 0
    p = p_prev

    for t in range(1, cfg.max_alternations + 1):
        tic = time.perf_counter()
        w_used = w
        p = propagate(w_used, p_prev)
        if not np.all(np.isfinite(p)):
            raise NumericalError(f"non-finite posteriors at alternation {t}")
        metric = convergence_metric(p, p_prev)
        alternations = t
        converged = metric < cfg.tolerance
        grad_inf = math.nan
        if learn and not converged and t < cfg.max_alternations:
            grad = gradient(w, p_prev, p)
            grad_inf = float(np.max(np.abs(grad))) if grad.size else 0.0
            w = apply_gradient_step(w, grad, cfg.gamma)
        if collect_diagnostics:
            hm, ht = weight_class_means(g, w, truth) if truth is not None \
                else (math.nan, math.nan)
            with np.errstate(over="ignore"):  # inf diagnostics on divergence
                loss_val = training_loss(p, labels)
                cons_val = consistency_value(g, w_used, p)
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


DIAG_COLUMNS = ("t", "conv_metric", "loss", "consistency", "grad_inf",
                "mean_homo_weight", "mean_hetero_weight", "wall_ms")


def write_diagnostics(diags: list[AlternationDiag], path):
    """Write the per-alternation diagnostics as a TSV with a header row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(DIAG_COLUMNS) + "\n")
        for d in diags:
            row = (d.t, d.conv_metric, d.loss, d.consistency, d.grad_inf,
                   d.mean_homo_weight, d.mean_hetero_weight, d.wall_ms)
            fh.write("\t".join(f"{x:.10g}" if isinstance(x, float) else str(x)
                               for x in row) + "\n")
