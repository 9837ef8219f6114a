"""Command-line interface.

Exit codes: 0 success, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .engine import METHOD_NAMES, JwpConfig, RunResult, method_for, run, write_diagnostics
from .errors import InputError, NumericalError
from .graph import load_edge_list, mutual_projection_lcc, write_edge_list
from .learning import RegularizerKind
from .metrics import auc_of_rows, rank_and_write, read_scores
from .propagation import read_labels, write_labels
from .synth import (
    directed_sample,
    gen_pa,
    inject_noise,
    sample_training,
    synth_sybil_replicate,
)

def _parse_auto(flag: str, text: str) -> float | None:
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise InputError(f"{flag} expects a number or 'auto', got {text!r}") from None


def _cmd_run(args) -> int:
    g = load_edge_list(args.graph, args.directed)
    if g.self_loops_dropped:
        print(f"dropped {g.self_loops_dropped} self-loop(s)", file=sys.stderr)
    labels = read_labels(args.train)
    cfg = JwpConfig(
        method=method_for(args.method, args.directed),
        regularizer=RegularizerKind(args.reg),
        theta=args.theta,
        lam=args.lam,
        gamma=args.gamma,
        w0=_parse_auto("--w0", args.w0),
        clamp_bound=_parse_auto("--clamp", args.clamp),
        max_alternations=args.max_alt,
        tolerance=args.tol,
        restart=args.restart,
    )
    result: RunResult = run(g, labels, cfg)
    rank_and_write(result.posteriors, None, args.out)
    if args.log:
        write_diagnostics(result.diagnostics, args.log)
    print(f"method={cfg.method.value} alternations={result.alternations} "
          f"converged={str(result.converged).lower()} w0={result.w0:.6g} "
          f"clamp={result.weights.clamp_bound:.6g} "
          f"lambda={result.lam:.6g} out={args.out}")
    return 0


def _cmd_gen_pa(args) -> int:
    if (args.directed_keep is None) != (args.out_directed is None):
        raise InputError("--directed-keep and --out-directed must be given together")
    g = gen_pa(args.nodes, args.m, args.seed)
    # Both graphs are made before either is written, so a bad
    # --directed-keep leaves no file behind.
    d = None
    if args.directed_keep is not None:
        d = directed_sample(g, args.directed_keep, args.seed)
    write_edge_list(g, args.out)
    print(f"nodes={g.node_count} edges={g.edge_count} out={args.out}")
    if d is not None:
        write_edge_list(d, args.out_directed)
        print(f"directed edges={d.edge_count} out={args.out_directed}")
    return 0


def _cmd_synth_sybil(args) -> int:
    g = load_edge_list(args.graph, directed=False)
    out, truth = synth_sybil_replicate(g, args.attack_edges, args.seed)
    write_edge_list(out, args.out_graph)
    write_labels(truth, args.out_truth)
    print(f"nodes={out.node_count} edges={out.edge_count} "
          f"attack_edges={args.attack_edges}")
    return 0


def _cmd_sample_train(args) -> int:
    truth = read_labels(args.truth)
    train = sample_training(truth, args.pos, args.neg, args.seed)
    write_labels(train, args.out)
    print(f"sampled {args.pos}+{args.neg} training nodes -> {args.out}")
    return 0


def _cmd_noise(args) -> int:
    train = read_labels(args.train)
    noisy = inject_noise(train, args.alpha, args.seed)
    write_labels(noisy, args.out)
    print(f"alpha={args.alpha}% -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    ids, vals, _ = read_scores(args.scores)
    truth = read_labels(args.truth)
    if args.exclude:
        truth = truth.exclude(read_labels(args.exclude))
    report = auc_of_rows(ids, vals, truth)
    print(f"AUC\t{report.auc:.6f}")
    return 0


def _cmd_project_mutual(args) -> int:
    g = load_edge_list(args.graph, directed=True)
    sub, remap = mutual_projection_lcc(g)
    write_edge_list(sub, args.out)
    if args.out_remap:
        with open(args.out_remap, "w", encoding="utf-8") as fh:
            for new, orig in enumerate(remap):
                fh.write(f"{new}\t{orig}\n")
    print(f"nodes={sub.node_count} edges={sub.edge_count} out={args.out}")
    return 0


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="jwprop",
        description="Collective classification on sparse graphs with jointly "
                    "learned edge weights.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="propagate scores, optionally learning weights")
    p.add_argument("--graph", required=True)
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--directed", action="store_true")
    direction.add_argument("--undirected", dest="directed", action="store_false")
    p.add_argument("--train", required=True)
    p.add_argument("--method", required=True, choices=METHOD_NAMES)
    p.add_argument("--reg", default="consistency",
                   choices=["consistency", "l1", "l2", "none"])
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="regularization strength (default: min(1, 10/avg degree))")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--w0", default="auto",
                   help="initial edge weight, or 'auto': 0.9/rho for lbp and "
                        "lbp-jwp, where rho bounds the adjacency's spectral "
                        "radius; 1/avg degree for the rw methods")
    p.add_argument("--clamp", default="auto",
                   help="bound on |edge weight|, or 'auto': 0.99/rho for lbp "
                        "and lbp-jwp; 0.5 for the rw methods")
    p.add_argument("--max-alt", type=int, default=15)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--restart", type=float, default=0.15)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("gen-pa", help="generate a preferential-attachment graph")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--directed-keep", type=float, default=None)
    p.add_argument("--out-directed", default=None)
    p.set_defaults(func=_cmd_gen_pa)

    p = sub.add_parser("synth-sybil", help="replicate a graph into a planted benchmark")
    p.add_argument("--graph", required=True)
    p.add_argument("--attack-edges", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-truth", required=True)
    p.set_defaults(func=_cmd_synth_sybil)

    p = sub.add_parser("sample-train", help="sample a training set from ground truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--pos", type=int, required=True)
    p.add_argument("--neg", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample_train)

    p = sub.add_parser("noise", help="flip a fraction of training labels")
    p.add_argument("--train", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_noise)

    p = sub.add_parser("eval", help="AUC of a score file against ground truth")
    p.add_argument("--scores", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--exclude", default=None,
                   help="labels file of nodes to exclude (e.g. the training set)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("project-mutual",
                       help="undirected projection of reciprocated pairs, LCC only")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--out-remap", default=None)
    p.set_defaults(func=_cmd_project_mutual)

    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
