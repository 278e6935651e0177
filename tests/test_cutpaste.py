"""Cut-and-paste surgery: removals, merges, sides, detaching, board closure."""

from __future__ import annotations

import subprocess
import sys
import textwrap

import pytest

from qdisk import (
    Board,
    QuadDisk,
    all_diagonals,
    canonical_good_diagonal,
    cut_and_paste,
    detach,
    parse_board,
    side_classification,
    trace_diagonal,
    validate,
)
from qdisk.corpus import all_boards
from qdisk.cutpaste import surgery_fold
from qdisk.errors import NotGoodDiagonalError


def test_domino_empties():
    b = parse_board("##")
    cp = cut_and_paste(b, trace_diagonal(b, (0, 0)))
    assert cp.components == ()
    assert cp.removed_diagonal == ((0, 0),)
    assert cp.removed_flanks == ((1, 0),)
    assert cp.balanced


def test_single_square_empties():
    b = parse_board("#")
    cp = cut_and_paste(b, trace_diagonal(b, (0, 0)))
    assert cp.components == ()
    assert cp.removed_flanks == ()
    assert not cp.balanced


def test_staircase_detaches_three(staircase10):
    d = trace_diagonal(staircase10, (0, 0))
    assert d.good and not d.balanced and d.length == 4
    cp = cut_and_paste(staircase10, d)
    assert len(cp.components) == 3
    assert all(len(c) == 1 for c in cp.components)


def test_bad_diagonal_rejected(hexomino):
    bad = next(d for d in all_diagonals(hexomino) if not d.good)
    with pytest.raises(NotGoodDiagonalError):
        cut_and_paste(hexomino, bad)


def test_side_classification_2x2():
    b = parse_board("##\n##")
    d = trace_diagonal(b, (0, 0))
    side = side_classification(b, d)
    assert side == {(0, 1): "left", (1, 0): "right"}


def test_side_classification_rect45(rect45):
    board, labeling = rect45
    d = trace_diagonal(board, (0, 0))
    side = side_classification(board, d)
    rights = {s for s, v in side.items() if v == "right"}
    blacks, whites = labeling
    assert {blacks[i] for i in (4, 5, 6, 9)} <= rights
    assert {blacks[i] for i in (7, 8)}.isdisjoint(rights)
    assert {whites[i] for i in (7, 8)} <= rights
    assert {whites[i] for i in (4, 5, 6, 9)}.isdisjoint(rights)


def test_rect45_single_component(rect45):
    board, _ = rect45
    d = trace_diagonal(board, (0, 0))
    cp = cut_and_paste(board, d)
    assert cp.deleted_side == "right"
    assert len(cp.components) == 1
    assert cp.components[0].color_counts() == (6, 6)
    assert len(cp.removed_black) == 4 and len(cp.removed_white) == 4


def test_square_count_bookkeeping():
    for b in all_boards(8):
        if len(b) < 2:
            continue
        for d in all_diagonals(b):
            if not d.good:
                continue
            cp = cut_and_paste(b, d)
            k = d.length
            total = sum(len(c) for c in cp.components)
            assert total == len(b) - len(cp.removed_diagonal) - len(cp.removed_flanks)
            assert len(cp.removed_diagonal) == k
            assert len(cp.removed_flanks) == (k if d.balanced else k - 1)


def test_components_validate():
    for b in all_boards(7):
        if len(b) < 2:
            continue
        d = canonical_good_diagonal(b)
        for comp in cut_and_paste(b, d).components:
            validate(comp)


def test_board_closure_under_excellent_diagonals():
    for b in all_boards(8):
        if len(b) < 2:
            continue
        d = canonical_good_diagonal(b)
        assert d.excellent
        for comp in cut_and_paste(b, d).components:
            assert isinstance(comp, Board)


def test_unbalanced_side_choice_isomorphic():
    checked = 0
    for b in all_boards(7):
        for d in all_diagonals(b):
            if not d.good or d.balanced or d.length < 2:
                continue
            left = cut_and_paste(b, d, delete_side="left")
            right = cut_and_paste(b, d, delete_side="right")
            sig_l = sorted(
                (c.to_complex() if isinstance(c, Board) else c).canonical_signature()
                for c in left.components
            )
            sig_r = sorted(
                (c.to_complex() if isinstance(c, Board) else c).canonical_signature()
                for c in right.components
            )
            assert sig_l == sig_r
            checked += 1
    assert checked > 20


def test_ambiguous_side_is_detected():
    from dataclasses import replace

    from qdisk.errors import AmbiguousSideError

    b = parse_board("##\n##")
    d = trace_diagonal(b, (0, 0))
    doctored = replace(d, right_flanks=d.left_flanks)  # same flank on both sides
    with pytest.raises(AmbiguousSideError):
        side_classification(b, doctored)


def test_balanced_side_is_forced():
    b = parse_board("##")
    d = trace_diagonal(b, (0, 0))
    assert d.balanced
    with pytest.raises(ValueError):
        cut_and_paste(b, d, delete_side="left")  # the terminal flank sits right


def test_merges_record_survivor(rect45):
    board, _ = rect45
    d = trace_diagonal(board, (0, 0))
    cp = cut_and_paste(board, d)
    assert len(cp.merges) == 3
    for left, right, survivor in cp.merges:
        assert survivor == left  # right side deleted here
        assert survivor in cp.square_map
        assert right in cp.removed_flanks


def test_detach_cases(staircase10):
    single = parse_board("###\n###")
    parts = detach(single)
    assert len(parts) == 1 and parts[0] == single
    assert detach(None) == []
    assert detach(QuadDisk(0, [], colors=(), validate=False)) == []
    d = trace_diagonal(staircase10, (0, 0))
    cp = cut_and_paste(staircase10, d)
    assert len(cp.components) == 3


def test_board_and_abstract_surgery_agree():
    from qdisk.cutpaste import _complex_cutpaste_via_board

    checked = 0
    for b in all_boards(7):
        if len(b) < 2:
            continue
        for d in all_diagonals(b):
            if not d.good:
                continue
            side = side_classification(b, d)
            board_cp = cut_and_paste(b, d)
            abstract_cp = _complex_cutpaste_via_board(b, d, board_cp.deleted_side, side)
            assert board_cp.removed_flanks == abstract_cp.removed_flanks
            assert len(board_cp.components) == len(abstract_cp.components)
            for cb, ca in zip(board_cp.components, abstract_cp.components):
                view = cb.to_complex() if isinstance(cb, Board) else cb
                assert view.canonical_signature() == ca.canonical_signature()
            checked += 1
    assert checked > 500


def test_abstract_surgery_on_glued_disks(glued_corpus):
    for disk in glued_corpus[:10]:
        d = canonical_good_diagonal(disk)
        cp = cut_and_paste(disk, d)
        for comp in cp.components:
            validate(comp)
        total = sum(len(c) for c in cp.components)
        assert total == len(disk) - len(cp.removed_diagonal) - len(cp.removed_flanks)


def _recursive_fold(disk, node):
    gen = node(disk)
    try:
        next(gen)
    except StopIteration as leaf:
        return leaf.value
    d = canonical_good_diagonal(disk)
    cp = cut_and_paste(disk, d)
    values = [_recursive_fold(comp, node) for comp in cp.components]
    with pytest.raises(StopIteration) as done:
        gen.send((d, cp, values))
    return done.value.value


def test_surgery_fold_matches_a_recursive_walk():
    def logging_node(log):
        def node(disk):
            log.append(disk.squares)
            if 0 in disk.color_counts():
                return disk.squares
            d, cp, values = yield
            return (disk.squares, d.corner, len(cp.components), values)

        return node

    for b in all_boards(7) + [parse_board("#.\n##\n#.")]:  # the last cut leaves two squares
        fold_log, walk_log = [], []
        assert surgery_fold(b, logging_node(fold_log)) == _recursive_fold(b, logging_node(walk_log))
        assert fold_log == walk_log


def test_surgery_node_that_yields_twice_is_rejected():
    def node(disk):
        yield
        yield

    with pytest.raises(RuntimeError):
        surgery_fold(parse_board("##\n##"), node)


def test_surgery_depth_does_not_grow_the_python_stack():
    # a 1x400 strip is cut 200 times; at a recursion limit of 100 any
    # per-level Python recursion would raise RecursionError
    script = textwrap.dedent(
        """
        import sys
        from qdisk import Board, ldu_factorize, quasi_perfect_matching
        strip = Board([(0, y) for y in range(400)])
        sys.setrecursionlimit(100)
        f = ldu_factorize(strip)
        m = quasi_perfect_matching(strip)
        print(f.middle.rank, len(m.pairs), m.loner is not None)
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["200", "0", "True"]
