"""One repetition of a workload, run in a fresh single-threaded process.

    python3 perfbench/rep.py '<request JSON>'

The request comes from ``run.py``.  The process imports the package from
``src/``, runs the timed phase once, checks its outputs outside the timed
phase and prints one JSON line with the phase times, peak RSS, output hash
and check results.  With ``"trace": true`` it also records spans around the
package's public functions, probes the layers the timed phase does not
reach, writes the spans to ``request["trace_out"]`` and reports per-layer
metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from jwprop import engine, graph, learning, metrics, propagation, synth  # noqa: E402
from jwprop.errors import InputError, NumericalError  # noqa: E402

import spans  # noqa: E402

AUC_FLOOR = 0.9  # sanity floor for the JWP method's held-out AUC
PROBE_CALLS = 7  # repeated calls per layer probe; the median is reported


def own_auc(scores: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> float:
    """Mann-Whitney AUC with half credit for ties, independent of the
    package's implementation."""
    s = np.concatenate([scores[pos], scores[neg]])
    _, inv, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inv]  # average ranks
    u = ranks[:pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def check_score_file(path: Path, p: np.ndarray) -> list[str]:
    """Problems with a score file written for posteriors ``p``."""
    rows = path.read_text(encoding="utf-8").split()
    if len(rows) != 3 * p.size:
        return [f"score file has {len(rows) // 3} rows for {p.size} nodes"]
    table = np.array(rows).reshape(-1, 3)
    ids = table[:, 0].astype(np.int64)
    vals = table[:, 1].astype(np.float64)
    preds = table[:, 2].astype(np.int64)
    bad = []
    if not np.array_equal(np.sort(ids), np.arange(p.size)):
        bad.append("score file ids are not one row per node")
        return bad
    if not np.all(np.isfinite(vals)):
        bad.append("non-finite posterior in score file")
    if not np.array_equal(vals, p[ids]):
        bad.append("score file posteriors differ from the run's")
    order = np.lexsort((ids, -vals))
    if not np.array_equal(order, np.arange(ids.size)):
        bad.append("score file not sorted by descending posterior, ascending id")
    if not np.array_equal(preds, np.where(vals > 0, 1, -1)):
        bad.append("predicted labels disagree with posterior signs")
    return bad


def _config(name: str, reg: str, lam: float, gamma: float) -> engine.JwpConfig:
    return engine.JwpConfig(method=engine.Method(name),
                            regularizer=learning.RegularizerKind(reg),
                            lam=lam, gamma=gamma)


# -- workloads ----------------------------------------------------------------


def file_rep(req: dict, out: dict) -> tuple:
    """``jwprop run`` as library calls: load, read labels, run, write."""
    out_path = Path(req["out"])
    cfg = _config(req["method"], "consistency", req["lam"], req["gamma"])
    t0 = time.perf_counter()
    g = graph.load_edge_list(req["graph"], req["directed"])
    labels = propagation.read_labels(req["train"])
    t1 = time.perf_counter()
    result = engine.run(g, labels, cfg)
    metrics.rank_and_write(result.posteriors, None, out_path)
    t2 = time.perf_counter()
    out.update(setup_s=t1 - t0, solve_s=t2 - t1, total_s=t2 - t0)

    p = result.posteriors
    base = req["base"]
    train_ids = np.array(sorted(labels.positives | labels.negatives), dtype=np.int64)
    test = np.setdiff1d(np.arange(p.size), train_ids)
    out["auc"] = own_auc(p, test[test >= base], test[test < base])
    out["problems"] += check_score_file(out_path, p)
    out["sha256"] = hashlib.sha256(out_path.read_bytes()).hexdigest()
    out["out_bytes"] = out_path.stat().st_size
    out["runs"] = [{"method": cfg.method.value, "alternations": result.alternations,
                    "converged": result.converged}]
    return g, labels, p


def sweep_rep(req: dict, out: dict) -> tuple:
    """The planted-Sybil method grid with ground-truth diagnostics on."""
    spec = synth.SynthSpec(node_count=req["base"], attachment=req["attach"],
                           seed=req["seed"], attack_edges=req["attack_edges"],
                           train_pos=req["train_per_class"],
                           train_neg=req["train_per_class"])
    t0 = time.perf_counter()
    g, truth, train = synth.build_sybil_benchmark(spec)
    t1 = time.perf_counter()
    test = truth.exclude(train)
    results = []
    for name, method, reg, gamma in req["grid"]:
        result = engine.run(g, train, _config(method, reg, req["lam"], gamma),
                            truth=truth)
        results.append((name, result, metrics.auc(result.posteriors, test).auc))
    t2 = time.perf_counter()
    out.update(setup_s=t1 - t0, solve_s=t2 - t1, total_s=t2 - t0)

    pos, neg = test.positive_array(), test.negative_array()
    digest = hashlib.sha256()
    out["runs"] = []
    for name, result, value in results:
        p = result.posteriors
        digest.update(p.tobytes())
        if not np.all(np.isfinite(p)):
            out["problems"].append(f"{name}: non-finite posteriors")
        mine = own_auc(p, pos, neg)
        if abs(mine - value) > 1e-12:
            out["problems"].append(f"{name}: metrics.auc {value!r} != {mine!r}")
        if name == req["auc_method"]:
            out["auc"] = mine
        out["runs"].append({"method": name, "alternations": result.alternations,
                            "converged": result.converged, "auc": mine})
    out["sha256"] = digest.hexdigest()
    jwp = next(r for n, r, _ in results if n == req["auc_method"])
    return g, train, jwp.posteriors


# -- traced run: probes and per-layer metrics ----------------------------------


def _views(g):
    """The workload graph in both directions: undirected view for the
    undirected steps, directed view (stored edges as arcs) for the
    directed step."""
    n = g.node_count
    if g.directed:
        return graph.Graph.from_edges(g.edges, directed=False, node_count=n), g
    return g, graph.Graph.from_edges(g.edges, directed=True, node_count=n)


def probe(rec, name: str, fn, calls: int = PROBE_CALLS) -> int:
    with rec.span(f"probe.{name}") as idx:
        for _ in range(calls):
            fn()
    return idx


def layer_metrics(rec, rep_idx: int, req: dict, out: dict, g, labels, p) -> dict:
    """Per-layer metrics from the traced repetition plus probes of every layer
    it does not reach, so each workload reports every metric."""
    m = {}
    work = Path(req["out"]).parent
    if req["kind"] == "sweep":
        # No file in the timed phase: load the generated graph from a file.
        path = work / f"probe-{req['workload']}.tsv"
        e = g.edges
        path.write_text("".join(f"{u}\t{v}\n" for u, v in e.tolist()), encoding="utf-8")
        scope = probe(rec, "load", lambda: graph.load_edge_list(path, g.directed), 1)
        path.unlink()
    else:
        scope = rep_idx
    loads = rec.find("graph.load_edge_list", scope)
    m["graph.load_s"] = sum(rec.duration(i) for i in loads)
    m["graph.build_s"] = sum(rec.duration(j) for j in rec.find("graph.Graph.from_edges", scope)
                             if rec.spans[j][3] in loads)
    m["graph.parse_s"] = m["graph.load_s"] - m["graph.build_s"]
    m["graph.nodes"] = g.node_count
    m["graph.edges"] = g.edge_count
    m["graph.slots"] = g.slot_count

    und, dirg = _views(g)
    q = propagation.assign_priors(labels, 1.0, g.node_count)
    for view, key, fn, extra in (
        (und, "lbp_u_step", "lbp_step_undirected", ()),
        (dirg, "lbp_d_step", "lbp_step_directed", ()),
        (und, "rw_step", "rw_step", ("rw-b", 0.15)),
    ):
        w0 = graph.EdgeWeights.uniform(view, 1.0 / view.average_degree())
        step = getattr(propagation, fn)
        idx = probe(rec, key, lambda: step(view, w0, q, q, *extra))
        m[f"propagation.{key}_ms"] = rec.median_ms(f"propagation.{fn}", idx)
    # Entries one step reads through a CSR (both directions of an undirected
    # edge; one per ordered slot of a directed graph) and the smallest
    # working set of that step: column index and weight per entry, row
    # pointers, and the prior, input and output vectors.
    nnz = g.slot_count if g.directed else 2 * g.slot_count
    m["propagation.step_nnz"] = nnz
    m["propagation.step_bytes"] = 16 * nnz + 8 * (g.node_count + 1) + 24 * g.node_count

    grads = [i for n in ("grad_undirected", "grad_directed", "grad_rw_undirected")
             for i in rec.find(f"learning.{n}", rep_idx)]
    m["learning.grad_ms"] = statistics.median(rec.duration(i) for i in grads) * 1e3
    m["learning.update_ms"] = rec.median_ms("learning.apply_gradient_step", rep_idx)
    m["learning.loss_ms"] = (rec.median_ms("learning.training_loss", rep_idx)
                             + rec.median_ms("learning.consistency_value", rep_idx))

    truth_lab = propagation.LabelSet.of(np.arange(req["base"], 2 * req["base"]),
                                        np.arange(req["base"]))
    w0 = graph.EdgeWeights.uniform(g, 1.0 / g.average_degree())
    idx = probe(rec, "class_means", lambda: engine.weight_class_means(g, w0, truth_lab))
    m["engine.class_means_ms"] = rec.median_ms("engine.weight_class_means", idx)

    runs = rec.find("engine.run", rep_idx)
    alts = sum(r["alternations"] for r in out["runs"])
    m["engine.run_s"] = sum(rec.duration(i) for i in runs)
    m["engine.alternations"] = alts
    m["engine.converged_runs"] = sum(1 for r in out["runs"] if r["converged"])
    m["engine.self_ms"] = sum(rec.self_time(i) for i in runs) / alts * 1e3

    if req["kind"] == "sweep":
        score_path = work / f"probe-{req['workload']}-scores.tsv"
        idx = probe(rec, "rank_write", lambda: metrics.rank_and_write(p, None, score_path), 1)
        m["metrics.out_bytes"] = score_path.stat().st_size
        score_path.unlink()
        m["metrics.rank_write_s"] = rec.total("metrics.rank_and_write", idx)
        m["metrics.auc_ms"] = rec.median_ms("metrics.auc", rep_idx)
    else:
        m["metrics.out_bytes"] = out["out_bytes"]
        m["metrics.rank_write_s"] = rec.total("metrics.rank_and_write", rep_idx)
        test = truth_lab.exclude(labels)
        idx = probe(rec, "auc", lambda: metrics.auc(p, test))
        m["metrics.auc_ms"] = rec.median_ms("metrics.auc", idx)

    if req["kind"] == "sweep":
        scope = rep_idx
    else:
        # The file inputs come from the benchmark's own generator; time the
        # package's generators at the same parameters.
        with rec.span("probe.synth") as scope:
            base = synth.gen_pa(req["base"], req["attach"], req["seed"])
            _, truth = synth.synth_sybil_replicate(
                base, int(round(req["attack_per_node"] * req["base"])), req["seed"] + 1)
            synth.sample_training(truth, req["train_per_class"],
                                  req["train_per_class"], req["seed"] + 2)
    m["synth.gen_pa_s"] = rec.total("synth.gen_pa", scope)
    m["synth.replicate_s"] = rec.total("synth.synth_sybil_replicate", scope)
    m["synth.sample_s"] = rec.total("synth.sample_training", scope)
    return m


def main(argv: list[str]) -> int:
    req = json.loads(argv[1])
    out = {"ok": False, "problems": []}
    rec = None
    if req["trace"]:
        rec = spans.Recorder()
        spans.install(rec)
    rep = file_rep if req["kind"] == "file" else sweep_rep
    try:
        if rec is None:
            g, labels, p = rep(req, out)
        else:
            with rec.span("bench.rep") as rep_idx:
                g, labels, p = rep(req, out)
    except (InputError, NumericalError) as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
        print(json.dumps(out))
        return 0
    if not math.isfinite(out.get("auc", math.nan)) or out["auc"] < AUC_FLOOR:
        out["problems"].append(f"JWP AUC {out.get('auc')!r} below floor {AUC_FLOOR}")
    out["graph"] = {"nodes": g.node_count, "edges": g.edge_count, "slots": g.slot_count}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        out["layers"] = layer_metrics(rec, rep_idx, req, out, g, labels, p)
        rec.write(req["trace_out"])
    out["ok"] = True
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
