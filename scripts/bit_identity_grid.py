#!/usr/bin/env python3
"""sha256 hashes over the results of a fixed grid of runs, for checking
that a change to the kernels leaves every bit of every result where it was.

The grid is every method x every regularizer x gamma in {0.01, 1} x seeds
0-2 (192 runs) on the planted-Sybil benchmark, with ground-truth
diagnostics, at lam = 1 by default.  The undirected methods run on the
benchmark graph, the directed ones on a 0.6-keep ``directed_sample`` of it.

The results hash covers each run's posteriors, weights, alternation count
and converged flag, and the diagnostic columns ``t``, ``conv_metric``,
``loss`` and ``grad_inf``, bit for bit, in grid order.  The consistency
sum and the class means are exact to rounding, not to the bit, so the
diagnostics hash covers them as ``write_diagnostics`` writes them, at 10
significant digits: the text it emits for each run without the
``wall_ms`` column.

A third hash covers the edge-list reader.  Each grid graph (the benchmark
graph and its directed sample) is written with ``write_edge_list``, once as
it is and once with a '#' header line and CRLF line ends, and read back
with ``load_edge_list`` in its direction.  The hash covers the graph's
slot layout, with names and dtypes (``graph_arrays``), and the node and
dropped self-loop counts.  A graph stores only its step CSR; the slot
endpoints and pair classes are hashed as derived from it, under the names
and dtypes the graph once stored them with (C-contiguous int64
``_slot_u``/``_slot_v``, uint8 ``pair_class``), so hashes taken before
and after that change compare.

A fourth hash covers the generators: the same arrays of each grid graph as
``build_sybil_benchmark`` and ``directed_sample`` make it.  A change to a
generator moves every hash, a change to the reader the load hash alone,
and a change to the kernels the run hashes alone.

A fifth hash covers the graph build's dropping of self-loops and repeated
pairs, which the written grid graphs never hold.  Each grid graph's edge
list is written shuffled, with a tenth of its rows repeated, a tenth
reversed and self-loops added, one of them on an id above every other, and
read back once undirected and once directed.  It hashes the same graph
arrays as the load hash.

A sixth hash covers the evaluation: ``auc`` of each run's posteriors on
the test nodes (the ground truth without the training nodes), its AUC and
tie-pair count packed bit for bit, in grid order.

A seventh hash covers the three text readers.  For each seed and method,
at the first regularizer and gamma, it hashes the ground-truth labels
written with ``write_labels``, a '#' header, a blank line and CRLF line
ends, and read back with ``read_labels``; the method's graph written with a
'#' line after its first edge, which only the line parser accepts, and
read back with ``load_edge_list``; and the run's score file from
``rank_and_write``, as bytes and as ``read_scores`` returns it.

    PYTHONPATH=src python scripts/bit_identity_grid.py

Run it on two checkouts (point PYTHONPATH at each ``src``) and compare the
printed hashes; ``--per-run`` prints one results hash per run to find the
first that differs.  At lam = 1 the factor -lam of the consistency
gradient is exact, so a reordering of (-lam * p_u) * p_v goes unseen;
``--lam auto`` runs the grid at each graph's default lam = min(1, 10 /
average degree).
"""

import argparse
import hashlib
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from jwprop import (
    JwpConfig,
    Method,
    RegularizerKind,
    SynthSpec,
    auc,
    build_sybil_benchmark,
    directed_sample,
    load_edge_list,
    rank_and_write,
    read_labels,
    read_scores,
    run,
    write_diagnostics,
    write_edge_list,
    write_labels,
)

GAMMAS = (0.01, 1.0)
SEEDS = (0, 1, 2)
DIRECTED_KEEP = 0.6
# AlternationDiag fields in the results hash, bit for bit.
DIAG_FIELDS = ("t", "conv_metric", "loss", "grad_inf")


def run_digest(result) -> bytes:
    h = hashlib.sha256()
    h.update(result.posteriors.tobytes())
    h.update(result.weights.values.tobytes())
    h.update(struct.pack("<q?", result.alternations, result.converged))
    for d in result.diagnostics:
        h.update(np.array([float(getattr(d, f)) for f in DIAG_FIELDS]).tobytes())
    return h.digest()


def written_diagnostics(result, path: Path) -> bytes:
    """The text ``write_diagnostics`` emits for ``result``, without its
    ``wall_ms`` column."""
    write_diagnostics(result.diagnostics, path)
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    wall = rows[0].index("wall_ms")
    return "".join("\t".join(r[:wall] + r[wall + 1:]) + "\n" for r in rows).encode()


def graph_arrays(g) -> dict:
    """The arrays of the load and generator hashes, by name: the slot
    endpoints, the directed pair classes and the step CSR."""
    ends = g.slot_ends
    return {"_slot_u": np.ascontiguousarray(ends[:, 0]),
            "_slot_v": np.ascontiguousarray(ends[:, 1]),
            "pair_class": g.pair_class,
            "_csr_indptr": g._csr_indptr,
            "_csr_indices": g._csr_indices}


def graph_digest(g) -> bytes:
    h = hashlib.sha256()
    for name, value in graph_arrays(g).items():
        if value is not None:
            h.update(f"{name}:{value.dtype.str}:".encode())
            h.update(value.tobytes())
    h.update(struct.pack("<qq", g.node_count, g.self_loops_dropped))
    return h.digest()


def load_digest(g) -> bytes:
    """Hash of ``g`` written and read back, plain and with a header and
    CRLF line ends."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        plain = Path(workdir) / "plain.tsv"
        write_edge_list(g, plain)
        crlf = Path(workdir) / "crlf.tsv"
        crlf.write_bytes(b"# FromNodeId\tToNodeId\r\n"
                         + plain.read_bytes().replace(b"\n", b"\r\n"))
        for path in (plain, crlf):
            h.update(graph_digest(load_edge_list(path, g.directed)))
    return h.digest()


def messy_load_digest(g, seed: int) -> bytes:
    """Hash of ``g``'s edges written with repeated and reversed rows and
    self-loops, in shuffled order, and read back in both directions."""
    rng = np.random.default_rng([seed, 7])
    edges = g.edges
    k = edges.shape[0] // 10
    loops = np.append(rng.integers(0, g.node_count, size=k), g.node_count + 5)
    rows = np.concatenate([edges,
                           edges[rng.integers(0, edges.shape[0], size=k)],
                           edges[rng.integers(0, edges.shape[0], size=k), ::-1],
                           np.stack([loops, loops], axis=1)])
    rows = rows[rng.permutation(rows.shape[0])]
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "messy.tsv"
        path.write_text("".join(f"{u}\t{v}\n" for u, v in rows.tolist()), encoding="utf-8")
        for directed in (False, True):
            h.update(graph_digest(load_edge_list(path, directed)))
    return h.digest()


def text_formats_digest(graph, labels, result, workdir: Path) -> bytes:
    """Hash of ``labels``, ``graph`` and ``result``'s score file, each
    written and read back through its text reader."""
    h = hashlib.sha256()
    path = workdir / "labels.tsv"
    write_labels(labels, path)
    path.write_bytes(b"# node\tlabel\r\n\r\n" + path.read_bytes().replace(b"\n", b"\r\n"))
    read = read_labels(path)
    h.update(read.positive_array().tobytes())
    h.update(read.negative_array().tobytes())
    path = workdir / "edges.tsv"
    write_edge_list(graph, path)
    first, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(first + b"\n# after the first edge\n" + rest)
    h.update(graph_digest(load_edge_list(path, graph.directed)))
    path = workdir / "scores.tsv"
    rank_and_write(result.posteriors, None, path)
    h.update(path.read_bytes())
    for column in read_scores(path):
        h.update(column.tobytes())
    return h.digest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--nodes", type=int, default=1000)
    ap.add_argument("--m", type=int, default=10)
    ap.add_argument("--attack-edges", type=int, default=2500)
    ap.add_argument("--train-per-class", type=int, default=50)
    ap.add_argument("--lam", choices=("1.0", "auto"), default="1.0",
                    help="weight of the regularizer; auto resolves it per graph")
    ap.add_argument("--per-run", action="store_true",
                    help="also print one hash per run")
    args = ap.parse_args()
    lam = None if args.lam == "auto" else float(args.lam)

    results = hashlib.sha256()
    written = hashlib.sha256()
    loads = hashlib.sha256()
    graphs = hashlib.sha256()
    messy = hashlib.sha256()
    aucs = hashlib.sha256()
    formats = hashlib.sha256()
    first = (next(iter(RegularizerKind)), GAMMAS[0])
    count = formats_count = 0
    with tempfile.TemporaryDirectory() as workdir:
        diag_path = Path(workdir) / "diag.tsv"
        for seed in SEEDS:
            spec = SynthSpec(node_count=args.nodes, attachment=args.m, seed=seed,
                             attack_edges=args.attack_edges,
                             train_pos=args.train_per_class,
                             train_neg=args.train_per_class)
            g, truth, train = build_sybil_benchmark(spec)
            gd = directed_sample(g, DIRECTED_KEEP, seed)
            test = truth.exclude(train)
            for graph in (g, gd):
                graphs.update(graph_digest(graph))
                loads.update(load_digest(graph))
                messy.update(messy_load_digest(graph, seed))
            for method in Method:
                graph = gd if method in (Method.LBP_D, Method.LBP_JWP_D) else g
                for reg in RegularizerKind:
                    for gamma in GAMMAS:
                        cfg = JwpConfig(method=method, regularizer=reg, lam=lam,
                                        gamma=gamma)
                        result = run(graph, train, cfg, truth=truth)
                        digest = run_digest(result)
                        results.update(digest)
                        written.update(written_diagnostics(result, diag_path))
                        report = auc(result.posteriors, test)
                        aucs.update(struct.pack("<dq", report.auc, report.tie_pairs))
                        count += 1
                        if (reg, gamma) == first:
                            formats.update(text_formats_digest(graph, truth, result,
                                                               Path(workdir)))
                            formats_count += 1
                        if args.per_run:
                            print(f"{seed}\t{method.value}\t{reg.value}\t{gamma:g}\t"
                                  f"{digest.hex()}")
    print(f"{count} runs  results sha256 {results.hexdigest()}")
    print(f"{count} runs  written diagnostics sha256 {written.hexdigest()}")
    print(f"{2 * len(SEEDS)} graphs loaded  sha256 {loads.hexdigest()}")
    print(f"{2 * len(SEEDS)} graphs generated  sha256 {graphs.hexdigest()}")
    print(f"{4 * len(SEEDS)} loads with repeats and self-loops  sha256 {messy.hexdigest()}")
    print(f"{count} runs  test AUC sha256 {aucs.hexdigest()}")
    print(f"{formats_count} runs  text formats sha256 {formats.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
