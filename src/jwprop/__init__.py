"""Collective node classification on sparse graphs with jointly learned
edge weights.

The package propagates reputation scores over a weighted graph and, for the
*-jwp methods, alternates each propagation step with one gradient step on
the per-edge weights, so that weights grow where endpoint scores agree and
shrink where they conflict.
"""

from .bench import bench, loglog_slope
from .engine import (
    AlternationDiag,
    JwpConfig,
    Method,
    RunResult,
    convergence_metric,
    run,
    truth_class_slots,
    weight_class_means,
    write_diagnostics,
)
from .errors import InputError, NumericalError
from .graph import (
    BIDIRECTIONAL,
    UNI_INCOMING,
    UNI_OUTGOING,
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
from .metrics import AucReport, auc, auc_of_rows, rank_and_write, read_scores
from .propagation import (
    LabelSet,
    assign_priors,
    classify,
    half_neg,
    half_pos,
    lbp_step_directed,
    lbp_step_undirected,
    read_labels,
    rw_step,
    weighted_degrees,
    write_labels,
)
from .synth import (
    SynthSpec,
    build_sybil_benchmark,
    directed_sample,
    gen_pa,
    inject_noise,
    sample_training,
    synth_sybil_replicate,
)

__version__ = "0.1.0"
