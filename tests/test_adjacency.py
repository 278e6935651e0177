"""Black-to-white matrices and the removed-squares-first labeling."""

from __future__ import annotations

import random

import pytest

from qdisk import (
    black_to_white,
    cut_and_paste,
    cutpaste_labeling,
    parse_board,
    parse_glued,
    trace_diagonal,
    union_labeling,
)
from qdisk.errors import BadLabelingError, InconsistentMapError
from tests.conftest import RECT45_MATRIX, SLIT13_MATRIX


def test_domino_matrix():
    d = parse_glued("squares 2\nglue 0 1 1 3\n")
    assert black_to_white(d).as_lists() == [[1]]


def test_slit13_matrix_is_exact(slit13):
    assert black_to_white(slit13).as_lists() == SLIT13_MATRIX


def test_rect45_matrix_is_exact(rect45):
    board, labeling = rect45
    assert black_to_white(board, labeling).as_lists() == RECT45_MATRIX


def test_rect45_cutpaste_labeling_blocks(rect45):
    board, labeling = rect45
    d = trace_diagonal(board, (0, 0))
    cp = cut_and_paste(board, d)
    inner = (labeling[0][4:], labeling[1][4:])
    lab = cutpaste_labeling(board, d, cp, inner)
    assert lab == labeling  # removed squares already come first in the fixture


def test_cutpaste_labeling_domino():
    b = parse_board("##")
    d = trace_diagonal(b, (0, 0))
    cp = cut_and_paste(b, d)
    lab = cutpaste_labeling(b, d, cp)
    assert lab == (((0, 0),), ((1, 0),))


def test_cutpaste_labeling_2x2():
    b = parse_board("##\n##")
    d = trace_diagonal(b, (0, 0))
    cp = cut_and_paste(b, d)
    lab = cutpaste_labeling(b, d, cp)
    # two diagonal blacks first; the deleted left flank white first, then the
    # surviving right flank
    assert lab[0] == ((0, 0), (1, 1))
    assert lab[1] == ((0, 1), (1, 0))


def test_union_labeling_runs_component_by_component(staircase10):
    d = trace_diagonal(staircase10, (0, 0))
    cp = cut_and_paste(staircase10, d)
    blacks, whites = union_labeling(cp)
    order = [cp.square_map[s][0] for s in blacks + whites]
    assert order == sorted(order)


def test_block_diagonal_matrix_of_components(staircase10):
    d = trace_diagonal(staircase10, (0, 0))
    cp = cut_and_paste(staircase10, d)
    m = black_to_white(list(cp.components))
    # three detached single squares: no adjacencies at all
    assert all(all(x == 0 for x in row) for row in m.as_lists())


def test_labeling_permutation_conjugates(rect45):
    board, labeling = rect45
    rng = random.Random(5)
    blacks = list(labeling[0])
    whites = list(labeling[1])
    rng.shuffle(blacks)
    rng.shuffle(whites)
    base = black_to_white(board, labeling)
    shuffled = black_to_white(board, (tuple(blacks), tuple(whites)))
    bpos = {s: i for i, s in enumerate(labeling[0])}
    wpos = {s: i for i, s in enumerate(labeling[1])}
    for i, bs in enumerate(blacks):
        for j, ws in enumerate(whites):
            assert shuffled.entries[i][j] == base.entries[bpos[bs]][wpos[ws]]


def test_bad_labeling_rejected(rect45):
    board, labeling = rect45
    with pytest.raises(BadLabelingError):
        black_to_white(board, (labeling[0][:-1], labeling[1]))
    with pytest.raises(BadLabelingError):
        black_to_white(board, (labeling[1], labeling[0]))  # colors swapped


def test_inner_labeling_must_match_map(rect45):
    board, labeling = rect45
    d = trace_diagonal(board, (0, 0))
    cp = cut_and_paste(board, d)
    with pytest.raises(InconsistentMapError):
        cutpaste_labeling(board, d, cp, (labeling[0], labeling[1]))  # removed squares included
