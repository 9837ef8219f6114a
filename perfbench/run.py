#!/usr/bin/env python3
"""End-to-end benchmark of ``jwprop``, with per-layer timings.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``; there
is nothing to build.  Each repetition runs in a fresh single-threaded
process (``perfbench/rep.py``), one at a time, and repetitions continue
until ``--seconds`` of measuring is used up (at least three).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, as medians over the repetitions:

    total_s      wall time of the timed phase, first call to last result
    setup_s      time until propagation can start
    solve_s      total_s - setup_s
    peak_rss_mb  peak resident memory of a repetition's process
    auc          held-out AUC of the JWP method's scores (deterministic)

With ``--trace 1`` one more repetition runs with spans recorded around the
calls into every layer module, and the metrics are the per-layer ones (see
``rep.layer_metrics``); the spans go to ``perfbench/.results``.

Workloads (``WORKLOADS`` below):

    sybil-u-file  ``jwprop run --undirected --method lbp-jwp`` on a generated
                  planted-Sybil edge-list file (32k nodes, ~360k edges):
                  parsing and graph build take about 70% of the time.
    sybil-d-file  ``--directed`` on a 0.6-keep arc sample of the same kind of
                  graph (20k nodes, ~270k arcs): directed build, three masked
                  matvecs per step and the per-slot directed gradient.
    method-sweep  the planted-Sybil method grid in one process (12k nodes,
                  ~135k edges), with ground-truth diagnostics: propagation and
                  learning dominate, no file parsing; setup is
                  ``synth.build_sybil_benchmark``.

Every repetition's outputs are checked: the score file has one finite row
per node, sorted by descending posterior then ascending id; the JWP AUC is
at least a sanity floor; output hashes agree across repetitions; and once
per invocation the score file must be byte-identical to the one
``python -m jwprop run`` writes for the same arguments.  An ``InputError``,
``NumericalError`` or failed check counts as a failed operation.

``--scale tiny`` shrinks every workload to run in seconds, for the smoke
tests in ``perfbench/test_smoke.py``.  Inputs of the file workloads are
cached in ``perfbench/.cache``; results with run metadata are written to
``perfbench/.results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gen import FileSpec, materialize  # noqa: E402

# Metric names and units, as the benchmark is declared.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

LAMBDA = 1.0  # the acceptance fixture's weight-learning settings
GAMMA = 0.01
RW_GAMMA = 0.1  # the experiment script's learning rate for the random walk

# The experiment script's method grid: (name, method, regularizer, gamma).
SWEEP_GRID = [
    ("lbp-u", "lbp-u", "consistency", GAMMA),
    ("lbp-jwp-u", "lbp-jwp-u", "consistency", GAMMA),
    ("lbp-jwp-w/o-u", "lbp-jwp-u", "none", GAMMA),
    ("lbp-jwp-l1-u", "lbp-jwp-u", "l1", GAMMA),
    ("lbp-jwp-l2-u", "lbp-jwp-u", "l2", GAMMA),
    ("rw-b-u", "rw-b", "consistency", GAMMA),
    ("rw-jwp-u", "rw-jwp-u", "consistency", RW_GAMMA),
]

# Sizes give each repetition 1.5-2.5 s of timed work on a 2-core x86 VM, so
# a 30-second run holds about ten repetitions.  Every step's working set
# (at most ~13 MB) fits the last-level cache, as it does at the 1.1M-edge
# scale, so the layers' shares of the time match that scale.
WORKLOADS = {
    "sybil-u-file": {
        "kind": "file", "method": "lbp-jwp-u", "cli_method": "lbp-jwp",
        "spec": FileSpec(base=16_000, attach=10, attack_per_node=2.5,
                         train_per_class=100, directed_keep=None),
    },
    "sybil-d-file": {
        "kind": "file", "method": "lbp-jwp-d", "cli_method": "lbp-jwp",
        "spec": FileSpec(base=10_000, attach=10, attack_per_node=2.5,
                         train_per_class=100, directed_keep=0.6),
    },
    "method-sweep": {
        "kind": "sweep",
        "spec": FileSpec(base=6_000, attach=10, attack_per_node=2.5,
                         train_per_class=100, directed_keep=None),
    },
}
TINY_BASE = {"sybil-u-file": 800, "sybil-d-file": 800, "method-sweep": 600}

MIN_REPS = 3
BUDGET_S = 170  # every child process is stopped by then, to end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def time_left(began: float) -> float:
    return max(1.0, BUDGET_S - (time.perf_counter() - began))


def run_child(request: dict, began: float) -> dict:
    """One repetition in a fresh process; its last stdout line is JSON."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "rep.py"), json.dumps(request)],
                              capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=time_left(began))
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "repetition ran out of the time budget"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def failures(rep: dict) -> list[str]:
    """Why a repetition counts as a failed operation; empty if it passed."""
    if not rep.get("ok"):
        return [rep.get("error", "repetition failed")]
    return rep["problems"]


def cli_hash(request: dict, out: Path, began: float) -> tuple[str | None, str]:
    """sha256 of the score file ``python -m jwprop run`` writes, or None
    and the reason."""
    env = child_env()
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "jwprop", "run", "--graph", request["graph"],
           "--directed" if request["directed"] else "--undirected",
           "--train", request["train"], "--method", request["cli_method"],
           "--lambda", repr(request["lam"]), "--gamma", repr(request["gamma"]),
           "--out", str(out)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=time_left(began))
    except subprocess.TimeoutExpired:
        return None, "jwprop run ran out of the time budget"
    if proc.returncode != 0:
        return None, f"jwprop run exited {proc.returncode}: {proc.stderr.strip()}"
    return hashlib.sha256(out.read_bytes()).hexdigest(), ""


def llc_bytes() -> int | None:
    try:
        text = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                              text=True, timeout=10).stdout.strip()
        return int(text) or None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=10)
    return proc.stdout.strip() or None


def metadata(args, request: dict, reps: list[dict]) -> dict:
    import numpy
    import scipy

    sizes = next((r["graph"] for r in reps if "graph" in r), None)
    return {
        "git_revision": git_revision(), "nproc": os.cpu_count(),
        "llc_bytes": llc_bytes(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "machine": platform.machine(), "workload": args.workload,
        "scale": args.scale, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "graph": sizes,
        "params": {k: os.path.relpath(v, ROOT) if k in ("graph", "train") else v
                   for k, v in request.items()
                   if k not in ("out", "trace_out", "trace")},
    }


def build_request(args, work: Path) -> dict:
    wl = WORKLOADS[args.workload]
    spec = wl["spec"]
    if args.scale == "tiny":
        spec = replace(spec, base=TINY_BASE[args.workload], train_per_class=20)
    req = {"workload": args.workload, "kind": wl["kind"], "seed": args.seed,
           "lam": LAMBDA, "gamma": GAMMA, **asdict(spec),
           "out": str(work / "scores.tsv"), "trace_out": "", "trace": False}
    if wl["kind"] == "file":
        entry = materialize(f"{args.workload}-{args.scale}", spec, args.seed)
        req.update(method=wl["method"], cli_method=wl["cli_method"],
                   directed=spec.directed, graph=str(entry / "graph.tsv"),
                   train=str(entry / "train.tsv"))
    else:
        req.update(grid=SWEEP_GRID, auc_method="lbp-jwp-u",
                   attack_edges=int(round(spec.attack_per_node * spec.base)))
    return req


def measure(request: dict, seconds: float, began: float) -> list[dict]:
    """Repetitions, one at a time, until ``seconds`` of measuring is used up
    (at least ``MIN_REPS``).  A repetition whose output differs from the
    first good one's gets a problem recorded."""
    reps = []
    start = time.perf_counter()
    while True:
        tic = time.perf_counter()
        rep = run_child(request, began)
        rep["wall_s"] = time.perf_counter() - tic
        first = next((r for r in reps if not failures(r)), None)
        if not failures(rep) and first and rep["sha256"] != first["sha256"]:
            rep["problems"].append("output differs from the first repetition's")
        reps.append(rep)
        now = time.perf_counter()
        typical = statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= MIN_REPS and now - start + typical > seconds:
            return reps
        if now - began + 3 * typical > BUDGET_S:  # room for the checks after
            return reps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="jwprop end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "jwprop" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'jwprop'}", file=sys.stderr)
        return 2

    began = time.perf_counter()
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results = HERE / ".results"
    results.mkdir(exist_ok=True)
    try:
        request = build_request(args, work)
        reps = measure(request, args.seconds, began)
        good = [r for r in reps if not failures(r)]
        attempted, failed = len(reps), len(reps) - len(good)
        problems = [p for r in reps for p in failures(r)]
        if request["kind"] == "file" and good:
            attempted += 1
            digest, why = cli_hash(request, work / "cli-scores.tsv", began)
            if digest != good[0]["sha256"]:
                failed += 1
                problems.append(why or "jwprop run's score file differs from the benchmark's")
        for p in problems:
            print(f"failed: {p}", file=sys.stderr)
        if not good:
            return 1

        values = {m["name"]: statistics.median(r[m["name"]] for r in good)
                  for m in SPEC["end_to_end"]}
        listed = "end_to_end"
        if args.trace:
            trace_out = results / f"spans-{args.workload}-{args.scale}-seed{args.seed}.json"
            traced = run_child({**request, "trace": True, "trace_out": str(trace_out)},
                               began)
            if failures(traced):
                print(f"failed: traced run: {failures(traced)}", file=sys.stderr)
                return 1
            attempted += 1
            values = dict(traced["layers"],
                          **{"trace.overhead_s": traced["total_s"] - values["total_s"]})
            listed = "per_layer"
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC[listed]}
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}

        meta = metadata(args, request, reps)
        kept = ("total_s", "setup_s", "solve_s", "peak_rss_mb", "auc", "wall_s",
                "sha256", "runs", "error", "problems")
        record = {"meta": meta, "result": result,
                  "reps": [{k: r[k] for k in kept if k in r} for r in reps]}
        name = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
        (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(json.dumps({"meta": meta}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
