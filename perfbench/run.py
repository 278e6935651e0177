"""Closed-loop benchmark of qdisk: one client, one op at a time, seeded inputs.

    python3 perfbench/run.py --workload crosscheck-small --seed 1 --seconds 20 --trace 0

Run from the repository root; qdisk is imported from ``src/`` next to this
directory.  A run sets the workload up ``SETUP_REPS`` times from the seed,
runs one untimed pass over the inputs that checks every answer against an
oracle, then runs timed passes until ``--seconds`` of op time have passed.
Every later answer must be byte-identical to the checked one.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics of ``spans.py``.  Lines before it give each metric with its
unit, the attempted and failed op counts, the input and output digests and a
record with the run's metadata, which is also appended to
``perfbench/.run/results.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = BENCH / ".run"
# Setup runs at least SETUP_REPS times and until SETUP_SECONDS have passed
# (at most SETUP_REPS_MAX times), so that a cheap setup is still timed steadily.
SETUP_REPS = 3
SETUP_SECONDS = 2.0
SETUP_REPS_MAX = 20
QDISK_MODULES = (
    "corpus",
    "disk_core",
    "diagonals",
    "cutpaste",
    "adjacency",
    "exact_ldu",
    "intmat",
    "tilings",
    "oracles",
    "cli",
    "errors",
)


def import_qdisk() -> SimpleNamespace:
    """Import qdisk afresh from ``src/``, so that each setup repetition pays the import."""
    for name in [n for n in sys.modules if n == "qdisk" or n.startswith("qdisk.")]:
        del sys.modules[name]
    q = SimpleNamespace(**{m: importlib.import_module(f"qdisk.{m}") for m in QDISK_MODULES})
    origin = Path(sys.modules["qdisk"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"qdisk was imported from {origin}, not from {SRC}")
    return q


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def sha256_lines(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item if isinstance(item, bytes) else item.encode())
        h.update(b"\n")
    return h.hexdigest()


def setup(workload, seed: int, tracer=None):
    """Import qdisk and build the inputs, repeatedly unless traced; keep the last build."""
    times, digests = [], set()
    q = inputs = workdir = None
    while not times or (
        tracer is None
        and len(times) < SETUP_REPS_MAX
        and (len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS)
    ):
        if workdir is not None:
            shutil.rmtree(workdir)
        start = perf_counter()
        q = import_qdisk()
        workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUN_DIR)
        if tracer is not None:
            tracer.install()
            tracer.op = "setup"
        try:
            inputs = workload.build(q, seed, workdir)
        except BaseException:
            shutil.rmtree(workdir)
            raise
        finally:
            if tracer is not None:
                tracer.op = None
                tracer.uninstall()
        times.append(perf_counter() - start)
        digests.add(sha256_lines(inp.text for inp in inputs))
    if len(digests) != 1:
        raise RuntimeError("the same seed built different inputs")
    return q, inputs, workdir, statistics.median(times), digests.pop()


class Checker:
    """Checks the first answer for each input by oracle, later ones by equality with it."""

    def __init__(self, workload, q, inputs):
        self.workload, self.q, self.inputs = workload, q, inputs
        self.hashes: dict[int, str] = {}
        self.wrong: set[int] = set()  # inputs whose checked answer failed its oracle
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, idx: int, answer, error) -> None:
        self.attempted += 1
        if error is not None:
            self._fail(idx, f"raised {type(error).__name__}: {error}")
            return
        digest = hashlib.sha256(self.workload.serialize(answer)).hexdigest()
        if idx not in self.hashes:
            self.hashes[idx] = digest
            problems = self.workload.check(self.q, self.inputs[idx], answer)
            if problems:
                self.wrong.add(idx)
                self._fail(idx, "; ".join(problems))
        elif self.hashes[idx] != digest:
            self._fail(idx, "answer differs from the checked one")
        elif idx in self.wrong:
            self.failed += 1

    def _fail(self, idx: int, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"input {idx}: {problem}")

    def output_digest(self) -> str:
        return sha256_lines(self.hashes.get(i, "missing") for i in range(len(self.inputs)))


def run_pass(workload, q, inputs, order, checker, tracer=None) -> list[float]:
    """One op per input, in ``order``; returns each op's wall time."""
    gc.collect()
    times = []
    for idx in order:
        arg = workload.fresh(q, inputs[idx])
        if tracer is not None:
            tracer.op = idx
        error = answer = None
        start = perf_counter()
        try:
            answer = workload.run(q, arg)
        except Exception as exc:  # a failed op is counted, and the run goes on
            error = exc
        times.append(perf_counter() - start)
        if tracer is not None:
            tracer.op = None
            if isinstance(answer, bytes):
                tracer.counts["cli.bytes_out"] += len(answer)
        checker.record(idx, answer, error)
    return times


def end_to_end(pass_times, setup_s, checker) -> dict:
    times = [t for p in pass_times for t in p]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(len(p) / sum(p) for p in pass_times), "1/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "ok_ratio": ((checker.attempted - checker.failed) / checker.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(setup_tracer, traced, overhead_ratio, input_tilings) -> dict:
    """Counts of the first traced pass; seconds are medians over traced passes."""
    c = traced[0].counts

    def seconds(layer):
        return statistics.median(t.self_s[layer] for t in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    s = setup_tracer.counts
    return {
        "corpus.self_s": (setup_tracer.self_s["corpus"], "s"),
        "corpus.boards_built": (s["corpus.boards_built"], "count"),
        "corpus.accept_ratio": (ratio(s["corpus.boards_built"], s["corpus.board_attempts"]), "ratio"),
        "disk_core.disks_built": (c["disk_core.disks_built"], "count"),
        "disk_core.self_s": (seconds("disk_core"), "s"),
        "diagonals.selections": (c["diagonals.selections"], "count"),
        "diagonals.traced": (c["diagonals.traced"], "count"),
        "diagonals.traced_per_selection": (ratio(c["diagonals.traced"], c["diagonals.selections"]), "ratio"),
        "diagonals.self_s": (seconds("diagonals"), "s"),
        "cutpaste.cuts": (c["cutpaste.cuts"], "count"),
        "cutpaste.components_per_cut": (ratio(c["cutpaste.components"], c["cutpaste.cuts"]), "ratio"),
        "cutpaste.self_s": (seconds("cutpaste"), "s"),
        "adjacency.matrices": (c["adjacency.matrices"], "count"),
        "adjacency.entries": (c["adjacency.entries"], "count"),
        "adjacency.self_s": (seconds("adjacency"), "s"),
        "exact_ldu.factorizations": (c["exact_ldu.factorizations"], "count"),
        "exact_ldu.steps": (c["exact_ldu.steps"], "count"),
        "exact_ldu.depth_max": (c["exact_ldu.depth_max"], "count"),
        "exact_ldu.step_s": (statistics.median(t.step_s for t in traced), "s"),
        "exact_ldu.self_s": (seconds("exact_ldu"), "s"),
        "intmat.matmul_calls": (c["intmat.matmul_calls"], "count"),
        "intmat.matmul_mults": (c["intmat.matmul_mults"], "count"),
        "intmat.self_s": (seconds("intmat"), "s"),
        "tilings.enumerations": (c["tilings.enumerations"], "count"),
        "tilings.tilings_enumerated": (c["tilings.tilings_enumerated"], "count"),
        "tilings.reenumeration_ratio": (ratio(c["tilings.tilings_enumerated"], input_tilings), "ratio"),
        "tilings.parities": (c["tilings.parities"], "count"),
        "tilings.self_s": (seconds("tilings"), "s"),
        "oracles.calls": (c["oracles.calls"], "count"),
        "oracles.self_s": (seconds("oracles"), "s"),
        "cli.self_s": (seconds("cli"), "s"),
        "cli.bytes_out": (c["cli.bytes_out"], "bytes"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qdisk").is_dir():
        print(f"no qdisk sources at {SRC}; run from the repository root", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    traced_run = bool(args.trace)
    RUN_DIR.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    setup_tracer = Tracer(keep_spans=False) if traced_run else None
    q, inputs, workdir, setup_s, input_digest = setup(workload, args.seed, setup_tracer)
    try:
        order = list(range(len(inputs)))
        random.Random(args.seed).shuffle(order)
        checker = Checker(workload, q, inputs)
        run_pass(workload, q, inputs, range(len(inputs)), checker)  # the checked, untimed pass
        untraced, traced = [], []
        while True:
            untraced.append(run_pass(workload, q, inputs, order, checker))
            if traced_run:
                tracer = Tracer(keep_spans=not traced)
                tracer.install()
                try:
                    traced.append((tracer, run_pass(workload, q, inputs, order, checker, tracer)))
                finally:
                    tracer.uninstall()
            busy = sum(map(sum, untraced)) + sum(sum(p) for _, p in traced)
            if busy >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir)

    correct = checker.failed == 0
    if traced_run:
        tracers = [t for t, _ in traced]
        if any(t.counts != tracers[0].counts for t in tracers):
            correct = False
            checker.problems.append("exact counts differ between traced passes")
        input_tilings = sum(workload.count_tilings(q, inp) for inp in inputs)
        overhead = statistics.median(map(sum, untraced)) / statistics.median(sum(p) for _, p in traced)
        metrics = per_layer(setup_tracer, tracers, overhead, input_tilings)
        spans_path = RUN_DIR / f"spans-{workload.name}.jsonl"
        tracers[0].write_spans(spans_path)
        print(f"spans {spans_path.relative_to(ROOT)} ({len(tracers[0].spans)} spans of the first traced pass)")
    else:
        metrics = end_to_end(untraced, setup_s, checker)

    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(f"failed_ratio {checker.failed / checker.attempted} ({checker.failed} of {checker.attempted} ops attempted)")
    for problem in checker.problems:
        print(f"problem {problem}")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": traced_run,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "inputs": len(inputs),
        "timed_passes": len(untraced) + len(traced),
        "input_sha256": input_digest,
        "output_sha256": checker.output_digest(),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(RUN_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print("record " + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
