#!/usr/bin/env python3
"""Planted-community benchmark: method and regularizer comparison.

Builds the replicated preferential-attachment benchmark over several seeds,
runs the fixed-weight baselines and the weight-learning variants, and prints
AUC tables plus the learned-weight class means and a label-noise sweep.
"""

import argparse
import sys

import numpy as np

from jwprop import (
    JwpConfig,
    Method,
    RegularizerKind,
    SynthSpec,
    auc,
    build_sybil_benchmark,
    inject_noise,
    run,
)

METHOD_GRID = [
    ("lbp-u", Method.LBP_U, RegularizerKind.CONSISTENCY),
    ("lbp-jwp-u", Method.LBP_JWP_U, RegularizerKind.CONSISTENCY),
    ("lbp-jwp-w/o-u", Method.LBP_JWP_U, RegularizerKind.NONE),
    ("lbp-jwp-l1-u", Method.LBP_JWP_U, RegularizerKind.L1),
    ("lbp-jwp-l2-u", Method.LBP_JWP_U, RegularizerKind.L2),
    ("rw-b-u", Method.RW_B, RegularizerKind.CONSISTENCY),
    ("rw-jwp-u", Method.RW_JWP_U, RegularizerKind.CONSISTENCY),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=4000)
    ap.add_argument("--m", type=int, default=10)
    ap.add_argument("--attack-edges", type=int, default=10_000)
    ap.add_argument("--train-per-class", type=int, default=100)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    ap.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ap.add_argument("--gamma", type=float, default=0.01)
    ap.add_argument("--rw-gamma", type=float, default=0.1,
                    help="learning rate for the random-walk variant")
    ap.add_argument("--noise-grid", type=float, nargs="+",
                    default=[0.0, 10.0, 20.0, 30.0])
    args = ap.parse_args()

    aucs = {name: [] for name, _, _ in METHOD_GRID}
    trends = []
    noise_aucs = {alpha: [] for alpha in args.noise_grid}

    for seed in args.seeds:
        spec = SynthSpec(node_count=args.nodes, attachment=args.m, seed=seed,
                         attack_edges=args.attack_edges,
                         train_pos=args.train_per_class,
                         train_neg=args.train_per_class)
        g, truth, train = build_sybil_benchmark(spec)
        test = truth.exclude(train)

        for name, method, reg in METHOD_GRID:
            gamma = args.rw_gamma if method is Method.RW_JWP_U else args.gamma
            cfg = JwpConfig(method=method, regularizer=reg, lam=args.lam,
                            gamma=gamma)
            result = run(g, train, cfg, truth=truth)
            aucs[name].append(auc(result.posteriors, test).auc)
            if name == "lbp-jwp-u":
                last = result.diagnostics[-1]
                trends.append((seed, result.w0, last.mean_homo_weight,
                               last.mean_hetero_weight))

        for alpha in args.noise_grid:
            labels = (train if alpha == 0.0
                      else inject_noise(train, alpha, seed + 1000))
            cfg = JwpConfig(method=Method.LBP_JWP_U,
                            regularizer=RegularizerKind.CONSISTENCY,
                            lam=args.lam, gamma=args.gamma)
            result = run(g, labels, cfg)
            noise_aucs[alpha].append(auc(result.posteriors, test).auc)

    print(f"\nbenchmark: {args.nodes}x2 nodes, m={args.m}, "
          f"{args.attack_edges} attack edges, "
          f"{args.train_per_class}+{args.train_per_class} training, "
          f"{len(args.seeds)} seeds")
    print(f"lambda={args.lam} gamma={args.gamma} (rw: {args.rw_gamma})\n")
    print(f"{'method':<16}{'mean AUC':>10}{'min':>9}{'max':>9}")
    for name, _, _ in METHOD_GRID:
        vals = aucs[name]
        print(f"{name:<16}{np.mean(vals):>10.4f}{min(vals):>9.4f}{max(vals):>9.4f}")

    print("\nlearned weight means (lbp-jwp-u):")
    print(f"{'seed':>5}{'w0':>9}{'homogeneous':>13}{'heterogeneous':>15}")
    for seed, w0, homo, hetero in trends:
        print(f"{seed:>5}{w0:>9.4f}{homo:>13.4f}{hetero:>15.4f}")

    print("\nlabel-noise sweep (lbp-jwp-u):")
    print(f"{'alpha %':>8}{'mean AUC':>10}")
    for alpha in args.noise_grid:
        print(f"{alpha:>8.0f}{np.mean(noise_aucs[alpha]):>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
