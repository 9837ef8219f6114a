"""Timing harness over synthetic graphs of increasing size.

Every method in a cell runs on the same graph with the same fixed
alternation budget (the tolerance is set low enough that early convergence
cannot shorten a run), so per-cell times are directly comparable.  Cell
times are medians over seeds to resist timer noise.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .engine import JwpConfig, method_for, run
from .errors import InputError
from .propagation import LabelSet
from .synth import gen_pa

# Effectively unreachable convergence threshold: forces the full budget.
_NO_EARLY_STOP = 1e-300


@dataclass(frozen=True)
class BenchRecord:
    method: str
    nodes: int
    edges: int
    alternations: int
    wall_ms_total: float
    wall_ms_per_alt: float


def pa_nodes_for_edges(target_edges: int, m: int = 10) -> int:
    """Node count whose PA graph has roughly ``target_edges`` edges."""
    clique = m * (m - 1) // 2
    return max(m + 1, round((target_edges - clique) / m) + m)


def _bench_labels(n: int, seed: int, per_class: int = 100) -> LabelSet:
    # Arbitrary disjoint label sets; only the traversal cost is measured.
    per_class = min(per_class, n // 2)
    picks = np.random.default_rng(seed).permutation(n)[: 2 * per_class]
    return LabelSet.of(picks[:per_class], picks[per_class:])


def bench(methods: list[str], edge_targets: list[int], seeds: list[int],
          alternations: int, m: int = 10) -> list[BenchRecord]:
    """Run the method grid over PA graphs sized to the edge targets and
    report per-cell median wall time."""
    if alternations < 1:
        raise InputError("alternation budget must be at least 1")
    resolved = {name: method_for(name, directed=False) for name in methods}
    records = []
    for target in edge_targets:
        n = pa_nodes_for_edges(int(target), m)
        times: dict[str, list[float]] = {name: [] for name in methods}
        edges = 0
        alts = alternations
        for seed in seeds:
            g = gen_pa(n, m, int(seed))
            edges = g.edge_count
            labels = _bench_labels(n, int(seed))
            for name in methods:
                cfg = JwpConfig(method=resolved[name],
                                max_alternations=alternations,
                                tolerance=_NO_EARLY_STOP)
                tic = time.perf_counter()
                result = run(g, labels, cfg)
                times[name].append((time.perf_counter() - tic) * 1e3)
                alts = result.alternations
        for name in methods:
            total = statistics.median(times[name])
            records.append(BenchRecord(method=name, nodes=n, edges=edges,
                                       alternations=alts, wall_ms_total=total,
                                       wall_ms_per_alt=total / alts))
    return records


def loglog_slope(records: list[BenchRecord]) -> float:
    """Least-squares slope of log wall time against log edge count."""
    if len(records) < 2:
        raise InputError("slope needs at least two sizes")
    x = np.log([r.edges for r in records])
    y = np.log([r.wall_ms_total for r in records])
    return float(np.polyfit(x, y, 1)[0])
