"""Diagonals of quadriculated disks: tracing, classification, canonical choice.

A diagonal starts at a corner and hops through opposite corners of squares;
at every interior vertex it continues into the unique square that meets the
current one only at that vertex.  It stops at the first boundary vertex.
The two edges of the last square at the endpoint are the terminal edges:
the diagonal is good when at least one of them lies on the boundary and
balanced when exactly one does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .disk_core import Board, QuadDisk, cell_key
from .errors import NotACornerError, NotGoodDiagonalError, RepeatDetectedError


@dataclass(frozen=True)
class Diagonal:
    """A traced diagonal with its flank squares.

    ``vertices`` is v0..vk; ``squares`` the k squares the diagonal passes
    through.  ``left_flanks[i]`` / ``right_flanks[i]`` sit at vertices[i+1];
    the entries at index k-1 are the terminal flanks and may be None when
    the matching terminal edge lies on the boundary.
    """

    corner: object
    vertices: tuple
    squares: tuple
    left_flanks: tuple
    right_flanks: tuple
    good: bool
    balanced: bool
    excellent: bool | None = None

    @property
    def length(self) -> int:
        return len(self.squares)

    @property
    def terminal_left(self):
        return self.left_flanks[-1]

    @property
    def terminal_right(self):
        return self.right_flanks[-1]

    def merge_pairs(self) -> tuple[tuple[object, object], ...]:
        """Opposite flank pairs at interior vertices, in diagonal order."""
        return tuple(zip(self.left_flanks[:-1], self.right_flanks[:-1]))


# Flank offsets for a board diagonal with direction d = (dx, dy): the left
# flank of a diagonal cell c is c + left_offset(d), the right flank the other.
def _board_offsets(d):
    dx, dy = d
    if dx * dy > 0:
        return (0, dy), (dx, 0)
    return (dx, 0), (0, dy)


def _board_trace(board: Board, corner) -> Diagonal:
    at = board.cells_at_point(corner)
    if len(at) != 1:
        raise NotACornerError(f"vertex {corner} lies in {len(at)} squares")
    cell = at[0]
    d = (1 if cell[0] == corner[0] else -1, 1 if cell[1] == corner[1] else -1)
    left_off, right_off = _board_offsets(d)
    vertices = [corner]
    squares = []
    lefts = []
    rights = []
    v = corner
    while True:
        squares.append(cell)
        v = (v[0] + d[0], v[1] + d[1])
        vertices.append(v)
        if not board.is_interior_vertex(v):
            break
        lefts.append((cell[0] + left_off[0], cell[1] + left_off[1]))
        rights.append((cell[0] + right_off[0], cell[1] + right_off[1]))
        cell = (cell[0] + d[0], cell[1] + d[1])
    last = squares[-1]
    term_l = (last[0] + left_off[0], last[1] + left_off[1])
    term_r = (last[0] + right_off[0], last[1] + right_off[1])
    lefts.append(term_l if term_l in board else None)
    rights.append(term_r if term_r in board else None)
    return _finish(board, corner, vertices, squares, lefts, rights)


def _quad_trace(disk: QuadDisk, corner) -> Diagonal:
    if not 0 <= corner < disk.vertex_count():
        raise NotACornerError(f"vertex {corner} is not a vertex id in 0..{disk.vertex_count() - 1}")
    members = disk.vertex_members(corner)
    if len(members) != 1:
        raise NotACornerError(f"vertex {corner} lies in {len(members)} squares")
    s, c = members[0]
    vertices = [corner]
    squares = []
    lefts = []
    rights = []
    seen_squares = set()
    seen_vertices = {corner}
    while True:
        if s in seen_squares:
            raise RepeatDetectedError(f"diagonal revisits square {s}")
        seen_squares.add(s)
        squares.append(s)
        c = (c + 2) % 4  # opposite corner of the current square
        v = disk.vertex_of(s, c)
        if v in seen_vertices:
            raise RepeatDetectedError(f"diagonal revisits vertex {v}")
        seen_vertices.add(v)
        vertices.append(v)
        if not disk.is_interior_vertex(v):
            break
        lefts.append(disk.cw_step(s, c)[0])
        rights.append(disk.ccw_step(s, c)[0])
        s, c = disk.cw_step(*disk.cw_step(s, c))  # opposite square across v
    tl = disk.cw_step(s, c)
    tr = disk.ccw_step(s, c)
    lefts.append(None if tl is None else tl[0])
    rights.append(None if tr is None else tr[0])
    return _finish(disk, corner, vertices, squares, lefts, rights)


def _finish(disk, corner, vertices, squares, lefts, rights) -> Diagonal:
    term_l, term_r = lefts[-1], rights[-1]
    good = term_l is None or term_r is None
    balanced = (term_l is None) != (term_r is None)
    diag_black = disk.is_black(squares[0])
    ok = all(disk.is_black(s) == diag_black for s in squares) and all(
        disk.is_black(s) != diag_black for s in lefts + rights if s is not None
    )
    if not ok:
        raise RepeatDetectedError("diagonal color pattern broken; complex is not a valid disk")
    return Diagonal(
        corner=corner,
        vertices=tuple(vertices),
        squares=tuple(squares),
        left_flanks=tuple(lefts),
        right_flanks=tuple(rights),
        good=good,
        balanced=balanced,
    )


def trace_diagonal(disk, corner) -> Diagonal:
    """The unique diagonal starting at the given corner."""
    if isinstance(disk, Board):
        return _board_trace(disk, corner)
    return _quad_trace(disk, corner)


def is_excellent(board: Board, d: Diagonal) -> bool:
    """Boards only: some boundary arc between v0 and vk is monotone in x and y."""
    circuit = board.boundary_circuit()
    pos = board.circuit_positions()
    i0, ik = pos[d.vertices[0]], pos[d.vertices[-1]]
    m = len(circuit)

    def arc(a, b):
        out = [circuit[a]]
        while a != b:
            a = (a + 1) % m
            out.append(circuit[a])
        return out

    return _monotone(arc(i0, ik)) or _monotone(arc(ik, i0))


def _monotone(points) -> bool:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]

    def mono(seq):
        incr = all(a <= b for a, b in zip(seq, seq[1:]))
        decr = all(a >= b for a, b in zip(seq, seq[1:]))
        return incr or decr

    return mono(xs) and mono(ys)


def classify_diagonal(disk, d: Diagonal) -> Diagonal:
    """Fill in classification flags; the excellent flag only applies to boards."""
    if isinstance(disk, Board):
        return replace(d, excellent=d.good and is_excellent(disk, d))
    return replace(d, excellent=None)


def _traced_diagonals(disk) -> list[Diagonal]:
    """One traced, unclassified diagonal per corner, in canonical corner order.

    Tracing checks each diagonal's colour pattern; a valid disk has at least
    four good diagonals.
    """
    diags = [trace_diagonal(disk, c) for c in disk.corners()]
    good = sum(1 for d in diags if d.good)
    if good < 4:
        raise NotGoodDiagonalError(f"valid disks have at least four good diagonals; found {good}")
    return diags


def all_diagonals(disk) -> list[Diagonal]:
    """One classified diagonal per corner, in canonical corner order."""
    return [classify_diagonal(disk, d) for d in _traced_diagonals(disk)]


def minimal_arc_excellent(board: Board) -> Diagonal:
    """An excellent diagonal, found as one whose boundary arc is inclusion-minimal.

    Each diagonal splits the boundary circuit (m edges) into two arcs, held
    as cyclic intervals ``(start, length)`` of circuit positions.  Arcs are
    ordered by the row-major key of the starting corner, then by length, the
    v0 -> vk arc before the vk -> v0 one; the first arc that strictly contains
    no other arc wins.  Only the winner is classified.
    """
    pos = board.circuit_positions()
    m = len(pos)
    arcs = []
    for d in _traced_diagonals(board):
        i0, ik = pos[d.vertices[0]], pos[d.vertices[-1]]
        key = cell_key(d.corner)
        length = (ik - i0) % m
        arcs.append((key, length, i0, d))
        arcs.append((key, m - length, ik, d))
    arcs.sort(key=lambda t: (t[0], t[1]))
    # (so, lo) lies strictly inside (s, l) exactly when it is shorter and
    # starts at an offset from s that leaves it room to end inside (s, l).
    # A finite inclusion order always has a minimal element.
    result = next(
        d
        for _, l, s, d in arcs
        if not any(lo < l and (so - s) % m + lo <= l for _, lo, so, _ in arcs)
    )
    if not (result.good and is_excellent(board, result)):
        raise NotGoodDiagonalError(f"minimal-arc diagonal from {result.corner} is not good and excellent")
    return replace(result, excellent=True)


def canonical_good_diagonal(disk) -> Diagonal:
    """Deterministic good diagonal driving every surgery.

    Boards use the minimal-arc excellent diagonal so that surgery stays in
    the board world; glued disks take the good diagonal with the smallest
    starting corner, which exists because every valid disk has four.
    """
    if isinstance(disk, Board):
        return minimal_arc_excellent(disk)
    return next(d for d in _traced_diagonals(disk) if d.good)
