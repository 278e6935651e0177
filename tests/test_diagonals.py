"""Diagonal tracing, classification, and the canonical excellent choice."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from qdisk import (
    all_diagonals,
    canonical_good_diagonal,
    classify_diagonal,
    minimal_arc_excellent,
    parse_board,
    trace_diagonal,
)
from qdisk.corpus import all_boards, random_board
from qdisk.disk_core import cell_key
from qdisk import diagonals
from qdisk.errors import NotACornerError, NotGoodDiagonalError


def test_trace_1x2():
    b = parse_board("##")
    d = trace_diagonal(b, (0, 0))
    assert d.length == 1
    assert d.squares == ((0, 0),)
    assert d.vertices == ((0, 0), (1, 1))
    # one terminal edge is interior (toward the second cell): good and balanced
    assert d.good and d.balanced
    assert d.terminal_right == (1, 0) and d.terminal_left is None


def test_trace_2x2():
    b = parse_board("##\n##")
    d = trace_diagonal(b, (0, 0))
    assert d.length == 2
    assert d.vertices == ((0, 0), (1, 1), (2, 2))
    assert d.squares == ((0, 0), (1, 1))
    assert d.left_flanks == ((0, 1), None)
    assert d.right_flanks == ((1, 0), None)
    assert d.good and not d.balanced


def test_trace_not_a_corner():
    b = parse_board("##\n##")
    with pytest.raises(NotACornerError):
        trace_diagonal(b, (1, 0))
    with pytest.raises(NotACornerError):
        trace_diagonal(b, (1, 1))


def test_hexomino_first_corner_diagonal(hexomino):
    d = trace_diagonal(hexomino, (0, 0))
    assert d.length == 2
    assert len(d.vertices) == 3
    assert d.squares == ((0, 0), (1, 1))
    assert d.good and d.balanced


def test_hexomino_census_of_diagonals(hexomino):
    diags = all_diagonals(hexomino)
    assert len(diags) == 6
    bad = [d for d in diags if not d.good]
    balanced = [d for d in diags if d.balanced]
    unbalanced_good = [d for d in diags if d.good and not d.balanced]
    assert len(bad) == 1
    assert len(balanced) == 3
    assert len(unbalanced_good) == 2
    # the two unbalanced diagonals run corner to corner (each others' reverses)
    for d in unbalanced_good:
        assert d.vertices[-1] in [x.corner for x in diags]


def test_hexomino_glued_view_agrees(hexomino, hexomino_glued):
    board_flags = sorted(
        (d.length, d.good, d.balanced) for d in all_diagonals(hexomino)
    )
    glued_flags = sorted(
        (d.length, d.good, d.balanced) for d in all_diagonals(hexomino_glued)
    )
    assert board_flags == glued_flags


def test_unit_square_diagonals_all_good():
    diags = all_diagonals(parse_board("#"))
    assert len(diags) == 4
    assert all(d.good and not d.balanced for d in diags)


def test_classify_2x2_unbalanced_by_terminal_enumeration():
    # oracle: enumerate the terminal edges by hand; both flank cells beyond
    # the far corner are outside the board, so both terminal edges lie on the
    # boundary: good, unbalanced
    b = parse_board("##\n##")
    d = classify_diagonal(b, trace_diagonal(b, (0, 0)))
    far = d.squares[-1]
    outside = [(far[0], far[1] + 1), (far[0] + 1, far[1])]
    assert all(c not in b for c in outside)
    assert d.good and not d.balanced and d.excellent


def test_every_good_length1_diagonal_is_excellent():
    for b in all_boards(7):
        for d in all_diagonals(b):
            if d.length == 1:
                assert d.excellent == d.good


def test_minimal_arc_unit_square():
    d = minimal_arc_excellent(parse_board("#"))
    assert d.corner == (0, 0)
    assert d.excellent


def _reference_arcs(board, d):
    """Both boundary arcs of a diagonal, as frozensets of boundary edges."""
    circuit = board.boundary_circuit()
    pos = {p: i for i, p in enumerate(circuit)}
    i0, ik = pos[d.vertices[0]], pos[d.vertices[-1]]
    m = len(circuit)

    def arc_edges(a, b):
        edges = set()
        while a != b:
            nxt = (a + 1) % m
            edges.add(frozenset((circuit[a], circuit[nxt])))
            a = nxt
        return frozenset(edges)

    return arc_edges(i0, ik), arc_edges(ik, i0)


def reference_minimal_arc_excellent(board):
    """The set-algebra selector: every classified diagonal contributes both of
    its edge-set arcs; sorted by (row-major corner, arc length) with the
    v0 -> vk arc first, the first arc strictly containing no other wins."""
    candidates = []
    for d in all_diagonals(board):
        for arc in _reference_arcs(board, d):
            candidates.append((cell_key(d.corner), len(arc), arc, d))
    candidates.sort(key=lambda t: (t[0], t[1]))
    for _, _, arc, d in candidates:
        if not any(other < arc for _, _, other, _ in candidates):
            return d
    raise AssertionError("inclusion orders always have minimal elements")


def test_minimal_arc_2x3_brute_force():
    # oracle: collect both boundary arcs of all four diagonals and check the
    # minimal ones by inclusion directly
    b = parse_board("###\n###")
    d = minimal_arc_excellent(b)
    assert d.excellent and d.good
    assert d.length == 2
    assert d.corner == (0, 0)
    # oracle: no boundary arc of any diagonal is strictly contained in an arc
    # of the chosen one
    arcs = [arc for dd in all_diagonals(b) for arc in _reference_arcs(b, dd)]
    chosen = min(_reference_arcs(b, d), key=len)
    assert not any(other < chosen for other in arcs)


def _assert_selector_matches_reference(boards):
    for b in boards:
        got = canonical_good_diagonal(b)
        want = reference_minimal_arc_excellent(b)
        assert got == want, b.render()
        assert want.good and want.excellent


def test_selector_matches_reference_on_small_boards(boards_corpus):
    _assert_selector_matches_reference(boards_corpus)


def test_selector_matches_reference_on_random_boards(random_boards_corpus):
    _assert_selector_matches_reference(random_boards_corpus)


def test_selector_matches_reference_on_large_boards():
    rng = random.Random(606)
    _assert_selector_matches_reference(random_board(rng, rng.randrange(100, 401)) for _ in range(20))


def test_minimal_arc_avoids_non_excellent_diagonal(bent_hexomino):
    bad = classify_diagonal(bent_hexomino, trace_diagonal(bent_hexomino, (0, 0)))
    assert bad.good and bad.balanced and not bad.excellent
    chosen = minimal_arc_excellent(bent_hexomino)
    assert chosen.excellent
    assert chosen.corner != bad.corner


def test_canonical_good_diagonal_choices(hexomino_glued):
    b22 = parse_board("##\n##")
    assert canonical_good_diagonal(b22).corner == (0, 0)
    domino = parse_board("##")
    d = canonical_good_diagonal(domino)
    assert d.length == 1 and d.balanced
    # glued disks: good diagonal with the smallest starting corner
    diags = all_diagonals(hexomino_glued)
    first_good = next(d for d in diags if d.good)
    assert canonical_good_diagonal(hexomino_glued).corner == first_good.corner


def test_diagonal_invariants_on_corpus():
    for b in all_boards(7):
        corners = b.corners()
        diags = all_diagonals(b)
        assert len(diags) == len(corners)
        assert sum(1 for d in diags if d.good) >= 4
        for d in diags:
            assert not b.is_interior_vertex(d.vertices[-1])
            assert all(b.is_interior_vertex(v) for v in d.vertices[1:-1])
            assert len(set(d.vertices)) == len(d.vertices)
            assert len(set(d.squares)) == len(d.squares)
            # diagonal squares share a color, flanks carry the other one
            diag_black = b.is_black(d.squares[0])
            assert all(b.is_black(s) == diag_black for s in d.squares)
            flanks = [s for s in d.left_flanks + d.right_flanks if s is not None]
            assert all(b.is_black(s) != diag_black for s in flanks)


def test_board_and_complex_traces_agree():
    for b in all_boards(6):
        cx = b.to_complex()
        cells = b.cells
        board_chains = sorted(
            tuple(d.squares) + (d.good, d.balanced) for d in all_diagonals(b)
        )
        glued_chains = sorted(
            tuple(cells[s] for s in d.squares) + (d.good, d.balanced)
            for d in all_diagonals(cx)
        )
        assert board_chains == glued_chains


def test_fewer_than_four_good_diagonals_is_typed(monkeypatch, hexomino, hexomino_glued):
    # doctored traces: every diagonal reports itself bad
    real = diagonals.trace_diagonal
    monkeypatch.setattr(diagonals, "trace_diagonal", lambda disk, c: replace(real(disk, c), good=False))
    for disk in (hexomino, hexomino_glued):
        with pytest.raises(NotGoodDiagonalError):
            all_diagonals(disk)
        with pytest.raises(NotGoodDiagonalError):
            canonical_good_diagonal(disk)


def test_minimal_arc_winner_must_be_good_and_excellent(monkeypatch, hexomino):
    monkeypatch.setattr(diagonals, "is_excellent", lambda board, d: False)
    with pytest.raises(NotGoodDiagonalError):
        minimal_arc_excellent(hexomino)
    monkeypatch.undo()
    real = diagonals.trace_diagonal
    winner = minimal_arc_excellent(hexomino).corner

    def doctored(disk, c):
        d = real(disk, c)
        return replace(d, good=False) if c == winner else d

    monkeypatch.setattr(diagonals, "trace_diagonal", doctored)
    with pytest.raises(NotGoodDiagonalError):
        minimal_arc_excellent(hexomino)


def test_winner_check_survives_optimized_python():
    script = textwrap.dedent(
        """
        import sys
        from qdisk import diagonals, parse_board
        from qdisk.errors import NotGoodDiagonalError
        assert False  # stripped under -O, so reaching the next line proves -O
        diagonals.is_excellent = lambda board, d: False
        try:
            diagonals.minimal_arc_excellent(parse_board("###\\n###"))
        except NotGoodDiagonalError:
            sys.exit(0)
        sys.exit(3)
        """
    )
    src = str(Path(diagonals.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
