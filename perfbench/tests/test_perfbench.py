"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest -q perfbench/tests

Each workload runs three times with the shortest run length (one checked
pass plus one timed pass): untraced, then traced twice.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("intmat.matmul_mults", "tilings.tilings_enumerated", "diagonals.traced", "exact_ldu.steps")


def _run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    args = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=600)


@functools.lru_cache(maxsize=None)
def result(workload: str, trace: int, repeat: int = 0) -> dict:
    """The record and the final result line of one run with seed 1."""
    proc = _run(ROOT, workload, 1, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(line for line in lines if line.startswith("record "))[len("record ") :])
    return {"record": record, "final": json.loads(lines[-1])}


def _names(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    final = result(workload, 0)["final"]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    assert {k: v["unit"] for k, v in final["metrics"].items()} == _names("end_to_end")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    final = result(workload, 1)["final"]
    assert final["correct"] and final["failed"] == 0
    assert {k: v["unit"] for k, v in final["metrics"].items()} == _names("per_layer")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_agree(workload):
    untraced, traced = result(workload, 0)["record"], result(workload, 1)["record"]
    assert untraced["input_sha256"] == traced["input_sha256"]
    assert untraced["output_sha256"] == traced["output_sha256"]
    for key in ("python", "nproc", "git_sha", "seed", "workload"):
        assert untraced[key] == traced[key]
    assert (untraced["traced"], traced["traced"]) == (False, True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_traced_runs(workload):
    first = result(workload, 1)["final"]["metrics"]
    second = result(workload, 1, repeat=1)["final"]["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_decides_the_inputs(workload, tmp_path):
    sys.path.insert(0, str(BENCH))
    try:
        import run
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    sys.path.insert(0, str(run.SRC))
    try:
        q = run.import_qdisk()
    finally:
        sys.path.remove(str(run.SRC))
    w = workloads.WORKLOADS[workload]
    digests = []
    for i, seed in enumerate((1, 1, 2)):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        digests.append(run.sha256_lines(inp.text for inp in w.build(q, seed, str(workdir))))
    assert digests[0] == digests[1] != digests[2]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".run", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
