"""Ranking evaluation (AUC) and score-file output."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, numbered_lines
from .graph import MAX_NODE_COUNT
from .propagation import LabelSet, classify


@dataclass(frozen=True)
class AucReport:
    auc: float
    positive_count: int
    negative_count: int
    tie_pairs: int


def auc(scores: np.ndarray, truth: LabelSet) -> AucReport:
    """Probability that a random positive outranks a random negative, with
    half credit for ties.

    ``truth`` must cover test nodes only (exclude training nodes first);
    ``scores`` is indexed by node id.  Pair counts are exact integers from
    a sort-and-group pass, so the result matches brute-force pairwise
    counting bit for bit.
    """
    return _ranked_pairs(scores[truth.positive_array()],
                         scores[truth.negative_array()])


def auc_of_rows(ids: np.ndarray, vals: np.ndarray, truth: LabelSet) -> AucReport:
    """``auc`` of score rows as ``read_scores`` returns them: node ``ids[i]``
    scored ``vals[i]``, each id at most once.  Every node of ``truth`` needs
    a row.  Scores are looked up among the sorted ids, so no array is sized
    by a node id."""
    order = np.argsort(ids)
    sorted_ids = ids[order]
    pos, neg = truth.positive_array(), truth.negative_array()
    nodes = np.concatenate([pos, neg])
    missing = nodes[~np.isin(nodes, sorted_ids, kind="sort")]
    if missing.size:
        raise InputError(f"score file is missing {missing.size} labeled nodes "
                         f"(e.g. node {missing.min()})")
    scores = vals[order[np.searchsorted(sorted_ids, nodes)]]
    return _ranked_pairs(scores[:pos.size], scores[pos.size:])


def _ranked_pairs(pos: np.ndarray, neg: np.ndarray) -> AucReport:
    """AUC of the positives' scores ``pos`` against the negatives' ``neg``."""
    if pos.size == 0 or neg.size == 0:
        raise InputError("AUC needs at least one positive and one negative test node")
    s = np.concatenate([pos, neg])
    is_pos = np.zeros(s.size, dtype=bool)
    is_pos[:pos.size] = True
    order = np.argsort(s, kind="stable")
    s = s[order]
    is_pos = is_pos[order]

    boundaries = np.flatnonzero(s[1:] != s[:-1]) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [s.size]])
    pos_cum = np.concatenate([[0], np.cumsum(is_pos)])
    pos_in = pos_cum[ends] - pos_cum[starts]
    neg_in = (ends - starts) - pos_in
    neg_below = np.concatenate([[0], np.cumsum(neg_in)])[:-1]
    greater = int(np.sum(pos_in * neg_below))
    ties = int(np.sum(pos_in * neg_in))
    value = (greater + 0.5 * ties) / (pos.size * neg.size)
    return AucReport(auc=value, positive_count=int(pos.size),
                     negative_count=int(neg.size), tie_pairs=ties)


def rank_and_write(p: np.ndarray, remap: np.ndarray | None, path):
    """Write "node<TAB>posterior<TAB>predicted_label" rows sorted by
    descending posterior, ties broken by ascending node id.

    ``remap`` translates dense ids back to original ids when given.
    Posteriors are printed with full round-trip precision so re-reading and
    re-sorting reproduces the file.
    """
    ids = np.arange(p.shape[0], dtype=np.int64) if remap is None \
        else np.asarray(remap, dtype=np.int64)
    if ids.shape != p.shape:
        raise InputError("remap length does not match the score vector")
    pred = classify(p)
    order = np.lexsort((ids, -p))
    rows = zip(ids[order].tolist(), p[order].tolist(), pred[order].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{i}\t{x!r}\t{c}\n" for i, x, c in rows))


def read_scores(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a score file back as (ids, posteriors, predicted labels).

    Node ids must be distinct, nonnegative and below ``MAX_NODE_COUNT``,
    the node-count limit of every graph.
    """
    ids, vals, preds = [], [], []
    line_of = {}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in numbered_lines(fh, path):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split("\t")
            if len(parts) != 3:
                raise InputError(f"{path}:{lineno}: expected 'node<TAB>score<TAB>label'")
            try:
                node, val, pred = int(parts[0]), float(parts[1]), int(parts[2])
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
