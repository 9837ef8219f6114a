"""Seeded inputs for the file workloads.

The generator is self-contained on purpose: it does not import
``jwprop.synth``, so a change to the package's own generators (for example
a new random stream in ``gen_pa``) leaves the benchmark's inputs
byte-identical between the parent commit and the change.

A planted-Sybil graph is a heavy-tailed preferential-attachment graph over
``base`` benign nodes (ids ``[0, base)``, ground-truth negative), a mirrored
replica of it (ids ``[base, 2*base)``, ground-truth positive) and
``attack_per_node * base`` distinct attack edges between the two halves.
The directed variant expands every undirected edge into both arcs and keeps
an exact-count uniform sample of them.  Edge lines are written in a
shuffled order with shuffled orientation, as a crawled edge list would be.

Inputs are cached under ``perfbench/.cache`` keyed by their parameters and
seed; ``meta.json`` in each entry records both.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

CACHE = Path(__file__).resolve().parent / ".cache"
KEEP_ENTRIES = 4  # cached input sets kept per workload; older ones are pruned


@dataclass(frozen=True)
class FileSpec:
    """Parameters of one file workload's input."""

    base: int  # benign nodes; the graph has 2*base nodes
    attach: int  # preferential-attachment edges per new node
    attack_per_node: float  # attack edges per benign node
    train_per_class: int
    directed_keep: float | None  # None: undirected edge list

    @property
    def directed(self) -> bool:
        return self.directed_keep is not None


def pa_edges(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Undirected preferential-attachment edges, canonical (u < v) and unique.

    Batagelj & Brandes' endpoint-list method: edge k starts at node k // m
    and ends at a uniformly drawn earlier endpoint entry, which is a node
    drawn proportionally to its degree so far.  The draw chains are resolved
    with vectorized pointer chasing instead of a per-edge loop.  Self-loops
    and repeated pairs that the method produces are dropped.
    """
    k = np.arange(n * m, dtype=np.int64)
    target = rng.integers(0, 2 * k + 1)  # endpoint entry, inclusive of 2k
    # Entry 2j holds edge j's source; entry 2j+1 holds whatever its own draw
    # holds.  Follow odd entries until every chain reaches a source entry.
    odd = np.flatnonzero(target & 1)
    while odd.size:
        target[odd] = target[(target[odd] - 1) // 2]
        odd = odd[target[odd] & 1 == 1]
    src = k // m
    dst = target // 2 // m
    keep = src != dst
    lo = np.minimum(src[keep], dst[keep])
    hi = np.maximum(src[keep], dst[keep])
    key = np.unique(lo * n + hi)
    return np.stack([key // n, key % n], axis=1)


def attack_edges(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` distinct (benign, replica) pairs, by oversample-and-unique."""
    codes = np.empty(0, dtype=np.int64)
    while codes.size < count:
        draw = rng.integers(0, n * n, size=count - codes.size + count // 10 + 16)
        merged = np.concatenate([codes, draw])
        _, first = np.unique(merged, return_index=True)
        codes = merged[np.sort(first)]
    codes = codes[:count]
    return np.stack([codes // n, codes % n + n], axis=1)


def sybil_edges(spec: FileSpec, seed: int) -> np.ndarray:
    """Edge (or arc) rows of the planted graph, shuffled, before writing."""
    rng = np.random.default_rng([seed, 1])
    n = spec.base
    base = pa_edges(n, spec.attach, rng)
    attack = attack_edges(n, int(round(spec.attack_per_node * n)), rng)
    edges = np.concatenate([base, base + n, attack])
    if spec.directed:
        arcs = np.concatenate([edges, edges[:, ::-1]])
        k = int(round(spec.directed_keep * arcs.shape[0]))
        edges = arcs[rng.choice(arcs.shape[0], size=k, replace=False)]
    else:
        flip = rng.random(edges.shape[0]) < 0.5
        edges[flip] = edges[flip, ::-1]
    return edges[rng.permutation(edges.shape[0])]


def training_labels(spec: FileSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform training sample: (positive ids, negative ids)."""
    rng = np.random.default_rng([seed, 2])
    n = spec.base
    pos = np.sort(rng.choice(np.arange(n, 2 * n), spec.train_per_class, replace=False))
    neg = np.sort(rng.choice(n, spec.train_per_class, replace=False))
    return pos, neg


def _write_pairs(path: Path, left: np.ndarray, right: np.ndarray):
    text = "\n".join(map("%d\t%d".__mod__, zip(left.tolist(), right.tolist())))
    path.write_text(text + "\n", encoding="utf-8")


def materialize(name: str, spec: FileSpec, seed: int) -> Path:
    """Return the cache directory holding ``graph.tsv``, ``train.tsv`` and
    ``meta.json`` for these parameters and seed, generating it if absent."""
    params = asdict(spec)
    key = hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()[:12]
    entry = CACHE / f"{name}-{key}-seed{seed}"
    if (entry / "meta.json").is_file():
        os.utime(entry)
        return entry
    tmp = CACHE / f".tmp-{name}-{key}-seed{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    edges = sybil_edges(spec, seed)
    _write_pairs(tmp / "graph.tsv", edges[:, 0], edges[:, 1])
    pos, neg = training_labels(spec, seed)
    labels = np.concatenate([np.ones(pos.size, np.int64), -np.ones(neg.size, np.int64)])
    _write_pairs(tmp / "train.tsv", np.concatenate([pos, neg]), labels)
    meta = {"workload": name, "seed": seed, "params": params,
            "lines": int(edges.shape[0]),
            "truth": f"ids >= {spec.base} positive, ids < {spec.base} negative"}
    (tmp / "meta.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(entry, ignore_errors=True)
    tmp.rename(entry)
    _prune(name)
    return entry


def _prune(name: str):
    entries = sorted(CACHE.glob(f"{name}-*"), key=lambda p: p.stat().st_mtime)
    for old in entries[:-KEEP_ENTRIES]:
        shutil.rmtree(old, ignore_errors=True)
