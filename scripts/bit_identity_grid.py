#!/usr/bin/env python3
"""One sha256 over the results of a fixed grid of runs, for checking that a
change to the kernels leaves every bit of every result where it was.

The grid is every method x every regularizer x gamma in {0.01, 1} x seeds
0-2 (192 runs) on the planted-Sybil benchmark, with ground-truth
diagnostics on, at lam = 1 by default.  The undirected methods run on the
benchmark graph, the directed ones on a 0.6-keep ``directed_sample`` of it.
The hash covers each run's posteriors, weights and diagnostics except
``wall_ms``, in grid order.

    PYTHONPATH=src python scripts/bit_identity_grid.py

Run it on two checkouts (point PYTHONPATH at each ``src``) and compare the
printed hashes; ``--per-run`` prints one hash per run to find the first
that differs.  At lam = 1 the factor -lam of the consistency gradient is
exact, so a reordering of (-lam * p_u) * p_v goes unseen; ``--lam auto``
runs the grid at each graph's default lam = min(1, 10 / average degree).
"""

import argparse
import hashlib
import struct
import sys

import numpy as np

from jwprop import (
    JwpConfig,
    Method,
    RegularizerKind,
    SynthSpec,
    build_sybil_benchmark,
    directed_sample,
    run,
)

GAMMAS = (0.01, 1.0)
SEEDS = (0, 1, 2)
DIRECTED_KEEP = 0.6
# AlternationDiag fields in the hash: all but the wall-clock time.
DIAG_FIELDS = ("t", "conv_metric", "loss", "consistency", "grad_inf",
               "mean_homo_weight", "mean_hetero_weight")


def run_digest(result) -> bytes:
    h = hashlib.sha256()
    h.update(result.posteriors.tobytes())
    h.update(result.weights.values.tobytes())
    h.update(struct.pack("<q?", result.alternations, result.converged))
    for d in result.diagnostics:
        h.update(np.array([float(getattr(d, f)) for f in DIAG_FIELDS]).tobytes())
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

    total = hashlib.sha256()
    count = 0
    for seed in SEEDS:
        spec = SynthSpec(node_count=args.nodes, attachment=args.m, seed=seed,
                         attack_edges=args.attack_edges,
                         train_pos=args.train_per_class,
                         train_neg=args.train_per_class)
        g, truth, train = build_sybil_benchmark(spec)
        gd = directed_sample(g, DIRECTED_KEEP, seed)
        for method in Method:
            graph = gd if method in (Method.LBP_D, Method.LBP_JWP_D) else g
            for reg in RegularizerKind:
                for gamma in GAMMAS:
                    cfg = JwpConfig(method=method, regularizer=reg, lam=lam,
                                    gamma=gamma)
                    digest = run_digest(run(graph, train, cfg, truth=truth))
                    total.update(digest)
                    count += 1
                    if args.per_run:
                        print(f"{seed}\t{method.value}\t{reg.value}\t{gamma:g}\t"
                              f"{digest.hex()}")
    print(f"{count} runs  sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
