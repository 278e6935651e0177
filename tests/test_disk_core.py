"""Boards, glued complexes, parsing, validation, and census identities."""

from __future__ import annotations

import pytest

from qdisk import (
    Board,
    QuadDisk,
    parse_board,
    parse_glued,
    render_board,
    render_glue,
    validate,
)
from qdisk.corpus import all_boards
from qdisk.disk_core import cell_key
from qdisk.errors import (
    CensusViolation,
    DoubleGluingError,
    EmptyBoardError,
    FormatError,
    InteriorDegreeViolation,
    NonDiskError,
    NotADiskError,
    NotBipartiteError,
)


def test_parse_board_2x2():
    b = parse_board("##\n##")
    assert len(b) == 4
    assert b.color_counts() == (2, 2)


def test_parse_board_l_tromino_is_valid():
    b = parse_board("##\n#.")
    assert len(b) == 3
    assert b.cells == ((0, 0), (0, 1), (1, 1))


def test_parse_board_vertex_contact_rejected():
    with pytest.raises(NotADiskError):
        parse_board("#.\n.#")


def test_parse_board_empty():
    with pytest.raises(EmptyBoardError):
        parse_board("...\n...")


def test_parse_board_bad_character():
    with pytest.raises(FormatError):
        parse_board("#x\n##")


def test_board_with_hole_rejected():
    ring = [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)]
    with pytest.raises(NotADiskError):
        Board(ring)


def _reference_has_hole(cells) -> bool:
    """Flood the complement inside a padded bounding box from its corner."""
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    x0, x1, y0, y1 = min(xs) - 1, max(xs) + 1, min(ys) - 1, max(ys) + 1
    reached = {(x0, y0)}
    stack = [(x0, y0)]
    while stack:
        x, y = stack.pop()
        for n in ((x, y - 1), (x + 1, y), (x, y + 1), (x - 1, y)):
            if x0 <= n[0] <= x1 and y0 <= n[1] <= y1 and n not in cells and n not in reached:
                reached.add(n)
                stack.append(n)
    return len(reached) != (x1 - x0 + 1) * (y1 - y0 + 1) - len(cells)


def test_hole_check_matches_a_flood_on_every_subset_of_a_4x4_grid():
    grid = [(x, y) for y in range(4) for x in range(4)]
    holes = 0
    for mask in range(1, 1 << len(grid)):
        cells = {c for i, c in enumerate(grid) if mask >> i & 1}
        try:
            Board(cells)
            message = None
        except NotADiskError as exc:
            message = str(exc)
        if message == "cells are not edge-connected":
            continue
        hole = _reference_has_hole(cells)
        assert message == ("cell set encloses a hole" if hole else None), sorted(cells)
        holes += hole
    assert holes > 0


def test_board_disconnected_rejected():
    with pytest.raises(NotADiskError):
        Board([(0, 0), (2, 0)])


def test_parse_glued_domino():
    d = parse_glued("squares 2\nglue 0 1 1 3\n")
    assert d.n == 2
    assert d.color_counts() == (1, 1)
    assert d.neighbors(0) == (1,)


def test_parse_glued_comments_and_errors():
    with pytest.raises(FormatError):
        parse_glued("glue 0 1 1 3\n")  # no header
    with pytest.raises(FormatError):
        parse_glued("squares 2\nfrobnicate\n")
    with pytest.raises(DoubleGluingError):
        parse_glued("squares 3\nglue 0 1 1 3\nglue 0 1 2 3\n")


def test_square_glued_to_itself_rejected():
    with pytest.raises(NonDiskError):
        parse_glued("squares 1\nglue 0 0 0 2\n")


def test_slit13_fixture_parses(slit13):
    assert slit13.n == 13
    assert slit13.color_counts() == (6, 7)
    census = validate(slit13)
    # one boundary vertex lies in four squares: this disk is not a board
    assert census.v(4) == 1


def test_interior_degree_violation():
    # four squares glued in a cycle of length 3 around one vertex is impossible;
    # three squares pairwise glued fan onto a vertex of degree 3 with no boundary
    gluings = [(0, 1, 1, 3), (1, 1, 2, 3), (2, 1, 0, 3)]
    with pytest.raises((InteriorDegreeViolation, NonDiskError, NotBipartiteError)):
        QuadDisk(3, gluings)


def test_census_unit_square():
    census = validate(parse_board("#"))
    assert census.v(1) == 4
    assert census.boundary_vertex_squares == ((1, 4),)
    assert census.corner_defect_lhs() == 4


def test_census_2x3():
    census = validate(parse_board("###\n###"))
    assert census.v(1) == 4
    assert census.v(2) == 6
    assert census.interior_vertices == 2
    assert census.corner_defect_lhs() == 4


def test_census_hexomino(hexomino):
    census = validate(hexomino)
    assert census.v(1) == 6
    assert sum((r - 2) * c for r, c in census.boundary_vertex_squares if r >= 3) == 2


def test_census_identities_on_small_corpus():
    for b in all_boards(7):
        census = validate(b)
        assert census.corner_defect_lhs() == 4
        assert 4 * census.faces == 2 * census.edges - census.boundary_edges
        assert census.positive - census.negative == 2


def test_validate_reports_identity_failure():
    from qdisk.disk_core import BoundaryCensus

    class Broken:
        def census(self):
            return BoundaryCensus(
                faces=1,
                vertices=4,
                edges=4,
                interior_edges=0,
                boundary_edges=4,
                interior_vertices=0,
                boundary_vertex_squares=((1, 3),),
            )

    with pytest.raises(CensusViolation):
        validate(Broken())


def test_render_parse_roundtrip():
    for b in all_boards(6):
        assert parse_board(render_board(b)) == b.normalized()


def test_render_glue_roundtrip(slit13):
    again = parse_glued(render_glue(slit13))
    assert again.gluing_list() == slit13.gluing_list()
    assert again.canonical_signature() == slit13.canonical_signature()


def test_board_complex_views_agree():
    for b in all_boards(6):
        cx = b.to_complex()
        bc, cc = b.census(), cx.census()
        assert (bc.faces, bc.vertices, bc.edges) == (cc.faces, cc.vertices, cc.edges)
        assert bc.boundary_vertex_squares == cc.boundary_vertex_squares
        assert len(b.corners()) == len(cx.corners())


def test_board_boundary_circuit_is_counterclockwise():
    b = parse_board("##\n##")
    circuit = b.boundary_circuit()
    assert circuit[0] == (0, 0)
    # shoelace area of the circuit is positive for counterclockwise orientation
    area = sum(
        circuit[i][0] * circuit[(i + 1) % len(circuit)][1]
        - circuit[(i + 1) % len(circuit)][0] * circuit[i][1]
        for i in range(len(circuit))
    )
    assert area > 0


def test_boundary_circuit_starts_at_the_smallest_point():
    for b in all_boards(8):
        circuit = b.boundary_circuit()
        assert circuit[0] == min(circuit, key=cell_key)
