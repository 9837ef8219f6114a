#!/usr/bin/env python3
"""Whole-process start-up benchmark: ``python -m jwprop run`` from two
source trees, in alternating pairs.

    python scripts/startup_bench.py --parent-src OTHER/src [--change-src src]
        [--pairs 10] [--work DIR] [--out BENCH_startup.json]

The input is the seed-11 ``sybil-u-file`` workload of ``perfbench/run.py``
(``jwprop run --undirected --method lbp-jwp`` at the benchmark's lam and
gamma).  A child process builds it with ``perfbench/gen.py`` into
``--work`` rather than into ``perfbench/.cache``, so the files are the ones
the benchmark caches and nothing is written under ``perfbench/``.

Each pair runs one ``jwprop run`` process per tree, alternating which tree
goes first, and reports per process:

    run_wall_s        wall time from spawn to exit
    run_peak_rss_mb   peak resident set of the child (``os.wait4``)
    import_cli_ms     ``python -X importtime`` cumulative time of
                      ``import jwprop.cli``, from a separate process

and medians with quartiles per tree.  The score files of the two trees must
be byte-identical; the script exits 1 if they are not or a run fails.

This process imports no numpy and generates nothing itself: on Linux a
child spawned with vfork carries its parent's peak resident set into its
own ``ru_maxrss``, so a large parent would floor every child's figure.
Each tree gets one untimed run first, so both read compiled bytecode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 11
WORKLOAD = "sybil-u-file"

# Runs in a child: builds the workload's inputs in the work directory and
# prints the ``jwprop run`` arguments with the library versions.
_MATERIALIZE = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import gen, run
import numpy, scipy
gen.CACHE = Path(sys.argv[2])
wl = run.WORKLOADS[sys.argv[3]]
entry = gen.materialize(sys.argv[3] + "-full", wl["spec"], int(sys.argv[4]))
print(json.dumps({
    "graph": str(entry / "graph.tsv"), "train": str(entry / "train.tsv"),
    "directed": wl["spec"].directed, "method": wl["cli_method"],
    "lam": run.LAMBDA, "gamma": run.GAMMA,
    "numpy": numpy.__version__, "scipy": scipy.__version__,
}))
"""


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def spawn(cmd: list[str], env: dict, stderr=subprocess.DEVNULL) -> tuple[float, float, int, str]:
    """Wall seconds, peak RSS in MiB, exit code and standard error of one
    child process."""
    tic = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=stderr, text=True)
    err = proc.stderr.read() if proc.stderr else ""
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - tic
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stderr:
        proc.stderr.close()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, err


def run_cmd(inputs: dict, out: Path) -> list[str]:
    return [sys.executable, "-m", "jwprop", "run", "--graph", inputs["graph"],
            "--directed" if inputs["directed"] else "--undirected",
            "--train", inputs["train"], "--method", inputs["method"],
            "--lambda", repr(inputs["lam"]), "--gamma", repr(inputs["gamma"]),
            "--out", str(out)]


def import_cli_ms(src: Path) -> float:
    cmd = [sys.executable, "-X", "importtime", "-c", "import jwprop.cli"]
    _, _, code, err = spawn(cmd, child_env(src), stderr=subprocess.PIPE)
    if code != 0:
        raise RuntimeError(f"import jwprop.cli failed in {src}: {err.strip()}")
    for line in err.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "jwprop.cli":
            return int(fields[1]) / 1000.0
    raise RuntimeError("no jwprop.cli line in the -X importtime output")


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent-src", type=Path, required=True)
    ap.add_argument("--change-src", type=Path, default=ROOT / "src")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--work", type=Path, default=None,
                    help="directory for the inputs and score files (default: a "
                         "temporary one, removed at the end)")
    ap.add_argument("--out", type=Path, default=None, help="write the JSON here too")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    trees = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}

    with tempfile.TemporaryDirectory() as tmp:
        work = (args.work or Path(tmp)).resolve()
        work.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-B", "-c", _MATERIALIZE, str(ROOT / "perfbench"),
             str(work / "inputs"), WORKLOAD, str(SEED)],
            capture_output=True, text=True, check=True, cwd=ROOT)
        inputs = json.loads(proc.stdout.strip().splitlines()[-1])

        outs = {side: work / f"scores-{side}.tsv" for side in trees}
        for side, src in trees.items():  # untimed: bytecode, page cache
            _, _, code, _ = spawn(run_cmd(inputs, outs[side]), child_env(src))
            if code != 0:
                print(f"{side}: jwprop run exited {code}", file=sys.stderr)
                return 1

        runs = {side: {"run_wall_s": [], "run_peak_rss_mb": [], "import_cli_ms": []}
                for side in trees}
        failed = 0
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                wall, rss, code, _ = spawn(run_cmd(inputs, outs[side]),
                                           child_env(trees[side]))
                failed += code != 0
                runs[side]["run_wall_s"].append(wall)
                runs[side]["run_peak_rss_mb"].append(rss)
            for side in order:
                runs[side]["import_cli_ms"].append(import_cli_ms(trees[side]))
        digests = {side: hashlib.sha256(out.read_bytes()).hexdigest()
                   for side, out in outs.items()}
    identical = digests["parent"] == digests["change"]

    wins = {metric: sum(c < p for p, c in zip(runs["parent"][metric],
                                              runs["change"][metric]))
            for metric in runs["parent"]}
    report = {
        "command": "python scripts/startup_bench.py --parent-src PARENT/src "
                   f"--pairs {args.pairs}",
        "workload": {"name": WORKLOAD, "seed": SEED, "method": inputs["method"],
                     "directed": inputs["directed"], "lam": inputs["lam"],
                     "gamma": inputs["gamma"]},
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": inputs["numpy"],
                    "scipy": inputs["scipy"]},
        "pairs": args.pairs,
        "order": "parent first in even pairs (0-based), change first in odd ones",
        "failed_runs": failed,
        "score_sha256": digests,
        "score_files_identical": identical,
        "change_wins": {m: f"{k} of {args.pairs}" for m, k in wins.items()},
        "summary": {side: {m: summary(v) for m, v in r.items()}
                    for side, r in runs.items()},
        "runs": runs,
    }
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    return 0 if identical and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
