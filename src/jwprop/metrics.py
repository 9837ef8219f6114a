"""Ranking evaluation (AUC) and score-file output.

AUC pairs are counted per class: both classes' scores are sorted, and the
positive ones are looked up among the negative ones; no joint ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, data_rows
from .graph import MAX_NODE_COUNT, _in_sorted
from .propagation import LabelSet


@dataclass(frozen=True)
class AucReport:
    auc: float
    tie_pairs: int


def auc(scores: np.ndarray, truth: LabelSet) -> AucReport:
    """Probability that a random positive outranks a random negative, with
    half credit for ties.

    ``truth`` must cover test nodes only (exclude training nodes first);
    ``scores`` is indexed by node id.  For each positive score, two
    ``searchsorted`` passes over the sorted negative scores count the
    negatives below it and tied with it.  These pair counts are exact
    integers, so the result matches brute-force pairwise counting bit for
    bit.  Infinite scores rank as such and -0.0 ties +0.0; a NaN score on a
    node of ``truth`` raises InputError, as it has no rank.
    """
    truth.check_bounds(scores.shape[0])
    pos, neg = truth.positive_array(), truth.negative_array()
    return _ranked_pairs(pos, scores[pos], neg, scores[neg])


def auc_of_rows(ids: np.ndarray, vals: np.ndarray, truth: LabelSet) -> AucReport:
    """``auc`` of score rows as ``read_scores`` returns them: node ``ids[i]``
    scored ``vals[i]``, each id at most once.  Every node of ``truth`` needs
    a row, and no such row a NaN score.  Scores are looked up among the
    sorted ids, so no array is sized by a node id."""
    order = np.argsort(ids)
    sorted_ids = ids[order]
    pos, neg = truth.positive_array(), truth.negative_array()
    nodes = np.concatenate([pos, neg])
    missing = nodes[~_in_sorted(sorted_ids, nodes)]
    if missing.size:
        raise InputError(f"score file is missing {missing.size} labeled nodes "
                         f"(e.g. node {missing.min()})")
    s = vals[order[np.searchsorted(sorted_ids, nodes)]]
    return _ranked_pairs(pos, s[:pos.size], neg, s[pos.size:])


def _ranked_pairs(pos: np.ndarray, s_pos: np.ndarray,
                  neg: np.ndarray, s_neg: np.ndarray) -> AucReport:
    """AUC of the positive nodes ``pos``, scored ``s_pos``, against the
    negative nodes ``neg``, scored ``s_neg``."""
    if not pos.size or not neg.size:
        raise InputError("AUC needs at least one positive and one negative test node")
    for nodes, s in ((pos, s_pos), (neg, s_neg)):
        nan = np.isnan(s)
        if nan.any():
            raise InputError(f"node {nodes[nan.argmax()]} has a NaN score")
    # ascending keys narrow numpy's binary searches; the counts are sums
    s_pos, s_neg = np.sort(s_pos), np.sort(s_neg)
    greater = int(np.searchsorted(s_neg, s_pos, side="left").sum())
    ties = int(np.searchsorted(s_neg, s_pos, side="right").sum()) - greater
    return AucReport(auc=(greater + 0.5 * ties) / (pos.size * neg.size), tie_pairs=ties)


def rank_and_write(p: np.ndarray, remap: np.ndarray | None, path):
    """Write "node<TAB>posterior<TAB>predicted_label" rows sorted by
    descending posterior, ties broken by ascending node id.  The predicted
    label is 1 where the posterior is > 0, else -1 (also for -0.0 and NaN).

    ``remap`` translates dense ids back to original ids when given.
    Posteriors are printed with full round-trip precision so re-reading and
    re-sorting reproduces the file.  The sort puts NaN last, so the rows
    labeled 1 are a leading block and each block is written with its label.
    NaN rows are written as ``nan``; ``auc_of_rows`` rejects one on a truth
    node.
    """
    ids = np.arange(p.shape[0], dtype=np.int64) if remap is None \
        else np.asarray(remap, dtype=np.int64)
    if ids.shape != p.shape:
        raise InputError("remap length does not match the score vector")
    order = np.lexsort((ids, -p))
    ids, vals = ids[order].tolist(), p[order].tolist()
    k = int(np.count_nonzero(p > 0))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{i}\t{x!r}\t1\n" for i, x in zip(ids[:k], vals[:k])))
        fh.write("".join(f"{i}\t{x!r}\t-1\n" for i, x in zip(ids[k:], vals[k:])))


def read_scores(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a score file back as (ids, posteriors, predicted labels).

    Node ids must be distinct, nonnegative and below ``MAX_NODE_COUNT``,
    the node-count limit of every graph.
    """
    ids, vals, preds = [], [], []
    line_of = {}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, (a, b, c) in data_rows(fh, path, 3, "'node<TAB>score<TAB>label'",
                                           sep="\t"):
            try:
                node, val, pred = int(a), float(b), int(c)
            except ValueError:
                raise InputError(f"{path}:{lineno}: malformed score row") from None
            if not 0 <= node < MAX_NODE_COUNT:
                raise InputError(f"{path}:{lineno}: node id {node} is outside "
                                 f"[0, {MAX_NODE_COUNT})")
            first = line_of.setdefault(node, lineno)
            if first != lineno:
                raise InputError(f"{path}:{lineno}: node {node} was already "
                                 f"scored on line {first}")
            ids.append(node)
            vals.append(val)
            preds.append(pred)
    return (np.asarray(ids, dtype=np.int64), np.asarray(vals),
            np.asarray(preds, dtype=np.int64))
