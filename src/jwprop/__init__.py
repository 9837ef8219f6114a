"""Collective node classification on sparse graphs with jointly learned
edge weights.

The package propagates reputation scores over a weighted graph and, for the
*-jwp methods, alternates each propagation step with one gradient step on
the per-edge weights, so that weights grow where endpoint scores agree and
shrink where they conflict.

The generators of ``synth`` and the timing harness of ``scaling`` load on
first use, through the module ``__getattr__`` below: a ``jwprop run``
process calls neither, and importing them pulls in ``numpy.random``
(6 MiB resident) and ``statistics``.
"""

import importlib

from .engine import (
    AlternationDiag,
    JwpConfig,
    Method,
    RunResult,
    run,
    weight_class_means,
    write_diagnostics,
)
from .errors import InputError, NumericalError
from .graph import (
    BIDIRECTIONAL,
    EdgeWeights,
    Graph,
    load_edge_list,
    mutual_projection_lcc,
    write_edge_list,
)
from .learning import (
    RegularizerKind,
    apply_gradient_step,
    consistency_value,
    grad_directed,
    grad_rw_undirected,
    grad_undirected,
    training_loss,
)
from .metrics import auc, auc_of_rows, rank_and_write, read_scores
from .propagation import (
    LabelSet,
    assign_priors,
    lbp_step_directed,
    lbp_step_undirected,
    read_labels,
    rw_step,
    write_labels,
)

__version__ = "0.1.0"

_ON_FIRST_USE = dict.fromkeys(["bench", "loglog_slope"], "scaling") | dict.fromkeys(
    ["SynthSpec", "build_sybil_benchmark", "directed_sample", "gen_pa",
     "inject_noise", "sample_training", "synth_sybil_replicate"], "synth")


def __getattr__(name):
    if name not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ON_FIRST_USE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _ON_FIRST_USE.keys())

