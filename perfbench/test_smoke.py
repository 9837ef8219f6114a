"""Smoke tests of the benchmark at tiny scale (a few seconds in all).

    python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import rep  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd, workload, trace, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 3
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert np.isfinite(value["value"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".*", "__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_repeat_per_seed():
    spec = gen.FileSpec(base=300, attach=4, attack_per_node=2.5, train_per_class=10,
                        directed_keep=0.6)
    a, b = gen.sybil_edges(spec, 5), gen.sybil_edges(spec, 5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, gen.sybil_edges(spec, 6))
    assert np.all(a[:, 0] != a[:, 1])
    assert np.unique(a, axis=0).shape == a.shape


def test_pa_edges_are_canonical_and_heavy_tailed():
    e = gen.pa_edges(5000, 5, np.random.default_rng(0))
    assert np.all(e[:, 0] < e[:, 1])
    assert np.unique(e, axis=0).shape == e.shape
    deg = np.bincount(e.ravel(), minlength=5000)
    assert deg.min() >= 1 and deg.max() > 20 * np.median(deg)


def test_own_auc_matches_pair_count():
    rng = np.random.default_rng(1)
    scores = rng.integers(0, 5, 60).astype(float)  # many ties
    pos, neg = np.arange(0, 25), np.arange(25, 60)
    diff = scores[pos][:, None] - scores[neg][None, :]
    expect = (np.sum(diff > 0) + 0.5 * np.sum(diff == 0)) / diff.size
    assert rep.own_auc(scores, pos, neg) == pytest.approx(expect, abs=1e-15)


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    with rec.span("outer") as outer:
        with rec.span("inner"):
            sum(range(10000))
    inner = rec.find("inner", outer)
    assert len(inner) == 1 and rec.spans[inner[0]][3] == outer
    assert rec.self_time(outer) == pytest.approx(
        rec.duration(outer) - rec.duration(inner[0]), abs=1e-12)
