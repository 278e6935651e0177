"""The three workloads: seeded inputs, one op per input, and its oracle check.

Each workload builds a list of inputs from the seed, runs one op per input
through the library (``crosscheck-small``) or the CLI in-process
(``factor-large``, ``match-tilings``), serializes the op's answer to bytes
for the output digest, and checks the answer outside the timed window.

Ops look every qdisk function up on its module at call time, so that a
traced pass sees them through the rebound names.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import checks


class Input:
    """One op's input: the disk or the board file, and its text for the input digest."""

    __slots__ = ("text", "disk", "path")

    def __init__(self, text: str, disk=None, path: str | None = None):
        self.text = text
        self.disk = disk
        self.path = path


def _rectangle(q, w: int, h: int):
    return q.disk_core.Board([(x, y) for x in range(w) for y in range(h)])


def _write_boards(q, boards, workdir: str) -> list[Input]:
    inputs = []
    for i, board in enumerate(boards):
        text = q.disk_core.render_board(board)
        path = os.path.join(workdir, f"{i:03d}.board")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        inputs.append(Input(text, path=path))
    return inputs


class CliWorkload:
    """An op is ``qdisk <command> FILE`` run in-process; its answer is the stdout bytes."""

    command = ""

    def fresh(self, q, inp: Input) -> str:
        return inp.path

    def run(self, q, path: str) -> bytes:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = q.cli.main([self.command, path])
        if code != 0:
            raise RuntimeError(f"qdisk {self.command} exited with {code}: {buf.getvalue().strip()}")
        return buf.getvalue().encode()

    def serialize(self, answer: bytes) -> bytes:
        return answer


# -- crosscheck-small -----------------------------------------------------


class CrosscheckSmall:
    """The per-disk body of ``qdisk crosscheck`` on thousands of tiny disks."""

    name = "crosscheck-small"
    ALL_BOARDS_MAX_CELLS = 9
    RANDOM_BOARDS = 200
    RANDOM_MAX_CELLS = 24
    GLUED_DISKS = 50
    GLUED_MAX_CELLS = 20

    def build(self, q, seed: int, workdir: str) -> list[Input]:
        corpus = q.corpus
        disks = list(corpus.all_boards(self.ALL_BOARDS_MAX_CELLS))
        rng = random.Random(seed)
        balanced = []
        while len(balanced) < self.RANDOM_BOARDS:
            board = corpus.random_board(rng, rng.randrange(2, self.RANDOM_MAX_CELLS + 1))
            b, w = board.color_counts()
            if b == w:
                balanced.append(board)
        disks += balanced
        disks += corpus.random_glued_disks(seed, self.GLUED_DISKS, self.GLUED_MAX_CELLS)
        inputs = []
        for disk in disks:
            if 0 in disk.color_counts():
                continue  # crosscheck skips one-color disks
            if isinstance(disk, q.disk_core.Board):
                text = q.disk_core.render_board(disk)
            else:
                text = q.disk_core.render_glue(disk)
            inputs.append(Input(text, disk=disk))
        return inputs

    def fresh(self, q, inp: Input):
        """A copy with empty caches, as ``qdisk crosscheck`` sees each disk once."""
        d = inp.disk
        if isinstance(d, q.disk_core.Board):
            return q.disk_core.Board(d.cells, black_parity=d.black_parity, validate=False)
        return q.disk_core.QuadDisk(d.n, d.gluing_list(), colors=d.colors, validate=False)

    def run(self, q, disk):
        b, w = disk.color_counts()
        matrix = q.adjacency.black_to_white(disk)
        f = q.exact_ldu.ldu_factorize(disk)
        rank, _ = q.exact_ldu.rank_det(f)
        result = {
            "rank": rank,
            "rank_rational": q.oracles.rank_rational(matrix.as_lists()),
            "rank_mod2": q.oracles.rank_mod2(matrix.as_lists()),
        }
        if b == w:
            result["det"] = q.exact_ldu.det_canonical(disk, f)
            result["signed_count"] = q.tilings.signed_count(disk)
            result["det_bareiss"] = q.oracles.det_bareiss(matrix.as_lists())
        return result, f

    def serialize(self, answer) -> bytes:
        result, f = answer
        record = dict(result, L=f.lower, U=f.upper, D=f.middle.ones, labeling=f.labeling)
        return json.dumps(record, sort_keys=True).encode()

    def check(self, q, inp: Input, answer) -> list[str]:
        return checks.check_crosscheck(answer[0])

    def count_tilings(self, q, inp: Input) -> int:
        d = inp.disk
        if isinstance(d, q.disk_core.Board):
            return checks.board_tilings(d.cells)
        return checks.count_tilings(list(d.squares), d.neighbors)


# -- factor-large ---------------------------------------------------------


class FactorLarge(CliWorkload):
    """``qdisk ldu FILE`` on boards of 60-160 cells, fat and thin.

    Strips stay at or below 160 cells: today a 1x1200 strip raises
    RecursionError in ldu_factorize, which would be a failed op, and once the
    recursion is gone it would be O(n^4) dense work that reads as a slowdown.
    The change that removes the recursion adds such strips as a benchmark
    change of its own.
    """

    name = "factor-large"
    command = "ldu"
    # (width, height): fat shapes, then thin strips that add recursion depth
    FAT = ((8, 8), (10, 10), (12, 12), (14, 14), (9, 12), (10, 16))
    THIN = ((1, 60), (1, 100), (1, 140), (1, 160), (2, 30), (2, 50), (2, 70), (2, 80), (3, 30), (3, 50), (4, 40))
    RANDOM_SIZES = (60, 72, 84, 96, 108, 120)

    def build(self, q, seed: int, workdir: str) -> list[Input]:
        rng = random.Random(seed)
        boards = [_rectangle(q, w, h) for w, h in self.FAT + self.THIN]
        boards += [q.corpus.random_board(rng, n) for n in self.RANDOM_SIZES]
        return _write_boards(q, boards, workdir)

    def check(self, q, inp: Input, answer: bytes) -> list[str]:
        return checks.check_ldu(inp.text, answer.decode(), q.oracles.det_bareiss)

    def count_tilings(self, q, inp: Input) -> int:
        return 0  # no op here enumerates tilings; the ratio reads 0


# -- match-tilings --------------------------------------------------------


def domino_board(q, rng: random.Random, n_cells: int):
    """A seeded random board grown one domino at a time, so it has a tiling.

    ``corpus.random_board`` grows cell by cell, and about half of its
    color-balanced boards of 24-36 cells have no tiling at all, which leaves
    the matching nothing to do.
    """
    Board, NotADiskError = q.disk_core.Board, q.errors.NotADiskError
    steps = ((0, 1), (1, 0), (0, -1), (-1, 0))
    cells = {(0, 0), (1, 0)}
    while len(cells) < n_cells:
        frontier = sorted({(x + dx, y + dy) for x, y in cells for dx, dy in steps} - cells)
        rng.shuffle(frontier)
        grown = None
        for x, y in frontier:
            for dx, dy in rng.sample(steps, len(steps)):
                other = (x + dx, y + dy)
                if other in cells:
                    continue
                try:
                    Board(cells | {(x, y), other})
                except NotADiskError:
                    continue
                grown = {(x, y), other}
                break
            if grown:
                break
        cells |= grown
    return Board(cells)


class MatchTilings(CliWorkload):
    """``qdisk match FILE`` on color-balanced boards with many tilings."""

    name = "match-tilings"
    command = "match"
    # Rectangles (width, height) with 34 to 6,728 tilings, in both orientations
    # where they differ; the fixed shapes are most of the ops, so the work mix
    # changes little from seed to seed.  2xN strips stay at N <= 14: the 2x30
    # strip has 1.3 million tilings and does not finish.
    RECTANGLES = (
        (4, 4), (6, 3), (3, 6), (8, 2), (2, 8), (9, 2), (2, 9), (5, 4), (4, 5), (8, 3), (3, 8), (10, 2), (2, 10),
        (11, 2), (2, 11), (12, 2), (2, 12), (6, 4), (4, 6), (13, 2), (2, 13), (10, 3), (3, 10), (14, 2), (2, 14),
        (7, 4), (4, 7), (6, 5), (5, 6), (8, 4), (4, 8), (6, 6),
    )
    # Random boards keep only draws with 64 to 127 tilings.  Matching time
    # grows with the tiling count, so these ops sit in the middle of the
    # rectangles' range, and the median op does not jump from seed to seed.
    # Between 13% and 24% of the domino-grown boards of each size qualify;
    # DRAWS boards are always drawn per size, so that setup does the same
    # work for every seed, and more only when too few of them qualify.
    RANDOM_SIZES = (28, 30, 32, 34, 36)
    BOARDS_PER_SIZE = 4
    DRAWS = 60
    TILINGS = range(64, 128)

    def build(self, q, seed: int, workdir: str) -> list[Input]:
        rng = random.Random(seed)
        boards = [_rectangle(q, w, h) for w, h in self.RECTANGLES]
        for n in self.RANDOM_SIZES:
            kept, draws = [], 0
            while draws < self.DRAWS or len(kept) < self.BOARDS_PER_SIZE:
                board = domino_board(q, rng, n)
                draws += 1
                if checks.board_tilings(board.cells) in self.TILINGS:
                    kept.append(board)
            boards += kept[: self.BOARDS_PER_SIZE]
        return _write_boards(q, boards, workdir)

    def check(self, q, inp: Input, answer: bytes) -> list[str]:
        tilings = self.count_tilings(q, inp)
        return checks.check_match(inp.text, answer.decode(), q.oracles.det_bareiss, tilings)

    def count_tilings(self, q, inp: Input) -> int:
        return checks.board_tilings(checks.board_cells(inp.text))


WORKLOADS = {w.name: w for w in (CrosscheckSmall(), FactorLarge(), MatchTilings())}
