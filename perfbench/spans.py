"""Span tracing of qdisk layers, driven entirely from the benchmark's side.

A traced pass rebinds each layer's entry points wherever a ``qdisk`` module
holds a reference to them (``qdisk.exact_ldu.canonical_good_diagonal``,
``qdisk.cli.ldu_factorize``, ...) and the ``Board``/``QuadDisk``
constructors, records one span per call, and restores the originals when the
pass ends.  Nothing under ``src/`` is edited.  A layer is a ``qdisk`` module;
its self time is the time of its spans minus the time their child spans
cover.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

LAYERS = (
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
)

# (module, function) entry points wrapped in a traced pass.  These are the
# names qdisk modules import from each other, the functions the workloads
# call, and intmat.matmul; small helpers (cell_key, intmat.zeros, ...) stay
# unwrapped so that tracing does not swamp them.
ENTRY_POINTS = (
    ("corpus", "all_boards"),
    ("corpus", "random_board"),
    ("corpus", "random_glued_disks"),
    ("disk_core", "parse_board"),
    ("disk_core", "render_board"),
    ("disk_core", "render_glue"),
    ("diagonals", "canonical_good_diagonal"),
    ("diagonals", "all_diagonals"),
    ("diagonals", "trace_diagonal"),
    ("cutpaste", "cut_and_paste"),
    ("adjacency", "black_to_white"),
    ("adjacency", "cutpaste_labeling"),
    ("exact_ldu", "ldu_factorize"),
    ("exact_ldu", "ldu_step"),
    ("exact_ldu", "rank_det"),
    ("exact_ldu", "det_canonical"),
    ("intmat", "matmul"),
    ("tilings", "enumerate_tilings"),
    ("tilings", "quasi_perfect_matching"),
    ("tilings", "signed_count"),
    ("tilings", "tiling_parity"),
    ("oracles", "det_bareiss"),
    ("oracles", "rank_rational"),
    ("oracles", "rank_mod2"),
    ("cli", "main"),
)
CONSTRUCTORS = (("disk_core", "Board"), ("disk_core", "QuadDisk"))

# Counters that must repeat exactly between two traced passes over the same inputs.
COUNTERS = (
    "corpus.boards_built",
    "corpus.board_attempts",
    "disk_core.disks_built",
    "diagonals.selections",
    "diagonals.traced",
    "cutpaste.cuts",
    "cutpaste.components",
    "adjacency.matrices",
    "adjacency.entries",
    "exact_ldu.factorizations",
    "exact_ldu.steps",
    "exact_ldu.depth_max",
    "intmat.matmul_calls",
    "intmat.matmul_mults",
    "tilings.enumerations",
    "tilings.tilings_enumerated",
    "tilings.parities",
    "oracles.calls",
    "cli.bytes_out",
)


def _trace_depth(trace: dict) -> int:
    """Levels of the recursion tree recorded in a factorization trace."""
    depth, level = 0, [trace]
    while level:
        depth += 1
        level = [c for t in level for c in t.get("components", ())]
    return depth


def _observe_matmul(counts, args, result):
    a, b = args[0], args[1]
    counts["intmat.matmul_calls"] += 1
    counts["intmat.matmul_mults"] += len(a) * len(b) * (len(b[0]) if b else 0)


def _observe_black_to_white(counts, args, result):
    counts["adjacency.matrices"] += 1
    counts["adjacency.entries"] += result.rows * result.cols


def _observe_cut(counts, args, result):
    counts["cutpaste.cuts"] += 1
    counts["cutpaste.components"] += len(result.components)


def _observe_factorize(counts, args, result):
    counts["exact_ldu.factorizations"] += 1
    counts["exact_ldu.depth_max"] = max(counts["exact_ldu.depth_max"], _trace_depth(result.trace))


def _observe_enumerate(counts, args, result):
    counts["tilings.enumerations"] += 1
    counts["tilings.tilings_enumerated"] += len(result)


def _bump(key):
    def observe(counts, args, result):
        counts[key] += 1

    return observe


OBSERVERS = {
    ("intmat", "matmul"): _observe_matmul,
    ("adjacency", "black_to_white"): _observe_black_to_white,
    ("cutpaste", "cut_and_paste"): _observe_cut,
    ("exact_ldu", "ldu_factorize"): _observe_factorize,
    ("exact_ldu", "ldu_step"): _bump("exact_ldu.steps"),
    ("diagonals", "canonical_good_diagonal"): _bump("diagonals.selections"),
    ("diagonals", "trace_diagonal"): _bump("diagonals.traced"),
    ("tilings", "enumerate_tilings"): _observe_enumerate,
    ("tilings", "tiling_parity"): _bump("tilings.parities"),
    ("oracles", "det_bareiss"): _bump("oracles.calls"),
    ("oracles", "rank_rational"): _bump("oracles.calls"),
    ("oracles", "rank_mod2"): _bump("oracles.calls"),
}


class Tracer:
    """Records spans of the current op while installed; inert otherwise.

    ``op`` is the id of the op in progress, or None between ops; calls made
    outside an op (input copies, oracle checks) record nothing.
    """

    def __init__(self, keep_spans: bool):
        self.keep_spans = keep_spans
        self.spans: list[list] = []
        self.op = None
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.step_s = 0.0
        self._stack: list[list] = []  # [span index, start, child seconds, layer]
        self._corpus_open = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        index = -1
        start = perf_counter()
        if self.keep_spans:
            index = len(self.spans)
            self.spans.append([name, start, None, parent, self.op])
        frame = [index, start, 0.0, layer]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = perf_counter()
        self._stack.pop()
        index, start, child, layer = frame
        duration = end - start
        if index >= 0:
            self.spans[index][2] = end
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        observe = OBSERVERS.get((layer, name))
        label = f"{layer}.{name}"
        is_corpus = layer == "corpus"
        is_step = (layer, name) == ("exact_ldu", "ldu_step")

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            frame = tracer._enter(label, layer)
            tracer._corpus_open += is_corpus
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._corpus_open -= is_corpus
                duration = tracer._exit(frame)
            if is_step:
                tracer.step_s += duration
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return traced

    def _wrap_init(self, cls):
        tracer = self
        init = cls.__init__
        label = f"disk_core.{cls.__name__}"
        is_board = cls.__name__ == "Board"

        def traced_init(obj, *args, **kwargs):
            if tracer.op is None:
                return init(obj, *args, **kwargs)
            in_corpus = is_board and tracer._corpus_open > 0
            if in_corpus:
                tracer.counts["corpus.board_attempts"] += 1
            frame = tracer._enter(label, "disk_core")
            try:
                init(obj, *args, **kwargs)
            finally:
                tracer._exit(frame)
            tracer.counts["disk_core.disks_built"] += 1
            if in_corpus:
                tracer.counts["corpus.boards_built"] += 1

        return init, traced_init

    def install(self) -> None:
        """Rebind every entry point in every loaded qdisk module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "qdisk" or n.startswith("qdisk.")]
        for layer, name in ENTRY_POINTS:
            fn = getattr(sys.modules[f"qdisk.{layer}"], name)
            wrapper = self._wrap(layer, name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        for layer, name in CONSTRUCTORS:
            cls = getattr(sys.modules[f"qdisk.{layer}"], name)
            init, traced_init = self._wrap_init(cls)
            self._patched.append((cls, "__init__", init))
            cls.__init__ = traced_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
