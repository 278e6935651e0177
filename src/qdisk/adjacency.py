"""Black-to-white adjacency matrices under explicit square labelings."""

from __future__ import annotations

from dataclasses import dataclass

from .cutpaste import CutPasteResult
from .diagonals import Diagonal
from .disk_core import json_square
from .errors import BadLabelingError, InconsistentMapError


@dataclass(frozen=True)
class BWMatrix:
    """Exact 0/1 matrix of black-to-white edge adjacencies.

    Row i belongs to row_squares[i], column j to col_squares[j]; entry (i, j)
    is 1 exactly when the two squares share a glued edge.
    """

    entries: tuple[tuple[int, ...], ...]
    row_squares: tuple
    col_squares: tuple

    @property
    def rows(self) -> int:
        return len(self.row_squares)

    @property
    def cols(self) -> int:
        return len(self.col_squares)

    def as_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    @property
    def nonzeros(self) -> tuple[dict[int, int], ...]:
        """Row i as {column: entry} over its nonzero entries, as in SparseBW."""
        return tuple({j: x for j, x in enumerate(row) if x} for row in self.entries)

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": self.as_lists(),
            "row_squares": [json_square(s) for s in self.row_squares],
            "col_squares": [json_square(s) for s in self.col_squares],
        }


@dataclass(frozen=True)
class SparseBW:
    """The same matrix stored by its nonzeros: ``nonzeros[i]`` maps the
    column of each white neighbor of row_squares[i] to 1."""

    nonzeros: tuple[dict[int, int], ...]
    row_squares: tuple
    col_squares: tuple


Labeling = tuple[tuple, tuple]  # (black squares in order, white squares in order)


def _check_labeling(disks: list, labeling: Labeling) -> None:
    blacks, whites = labeling
    all_blacks = [s for d in disks for s in d.blacks()]
    all_whites = [s for d in disks for s in d.whites()]
    if len(blacks) != len(all_blacks) or set(blacks) != set(all_blacks):
        raise BadLabelingError("black labeling is not a bijection onto the black squares")
    if len(whites) != len(all_whites) or set(whites) != set(all_whites):
        raise BadLabelingError("white labeling is not a bijection onto the white squares")


def black_to_white(disk_or_union, labeling: Labeling | None = None) -> BWMatrix:
    """Adjacency matrix of a disk or a disjoint union of disks.

    A union is given as a sequence of disks; its squares are pairs
    (component index, square) and the default labeling runs block by block,
    producing a block-diagonal matrix.
    """
    if isinstance(disk_or_union, (list, tuple)):
        disks = list(disk_or_union)
        if labeling is None:
            blacks = tuple((i, s) for i, d in enumerate(disks) for s in d.blacks())
            whites = tuple((i, s) for i, d in enumerate(disks) for s in d.whites())
            labeling = (blacks, whites)
        col_index = {s: j for j, s in enumerate(labeling[1])}
        rows = []
        for bi, bsq in enumerate(labeling[0]):
            comp, sq = bsq
            row = [0] * len(labeling[1])
            for n in disks[comp].neighbors(sq):
                row[col_index[(comp, n)]] = 1
            rows.append(tuple(row))
        return BWMatrix(tuple(rows), tuple(labeling[0]), tuple(labeling[1]))
    disk = disk_or_union
    if labeling is None:
        labeling = disk.canonical_labeling()
    sparse = sparse_black_to_white(disk, labeling)
    rows = []
    for nonzeros in sparse.nonzeros:
        row = [0] * len(sparse.col_squares)
        for j in nonzeros:
            row[j] = 1
        rows.append(tuple(row))
    return BWMatrix(tuple(rows), sparse.row_squares, sparse.col_squares)


def sparse_black_to_white(disk, labeling: Labeling) -> SparseBW:
    """Adjacency matrix of one disk under a labeling, stored by its nonzeros."""
    _check_labeling([disk], labeling)
    blacks, whites = labeling
    col_index = {s: j for j, s in enumerate(whites)}
    nonzeros = tuple({col_index[n]: 1 for n in disk.neighbors(bsq)} for bsq in blacks)
    return SparseBW(nonzeros, tuple(blacks), tuple(whites))


def union_labeling(cp: CutPasteResult) -> Labeling:
    """Canonical labeling of the pasted disks, pulled back to parent squares.

    Component squares are listed in each component's own canonical order and
    renamed to the retained parent square they came from (merged squares keep
    the surviving flank's name), so the result can serve as an inner labeling.
    """
    back = {loc: parent for parent, loc in cp.square_map.items()}
    blacks = []
    whites = []
    for ci, comp in enumerate(cp.components):
        for s in comp.blacks():
            blacks.append(back[(ci, s)])
        for s in comp.whites():
            whites.append(back[(ci, s)])
    return tuple(blacks), tuple(whites)


def cutpaste_labeling(
    disk,
    d: Diagonal,
    cp: CutPasteResult,
    inner_labeling: Labeling | None = None,
) -> Labeling:
    """Labeling of the parent disk with removed squares first.

    The removed squares come first in diagonal order; the retained squares
    follow in the inner labeling's order, which must list them component by
    component in the cut-and-paste component order.
    """
    if inner_labeling is None:
        inner_labeling = union_labeling(cp)
    inner_blacks, inner_whites = inner_labeling
    retained = set(cp.square_map)
    if set(inner_blacks) | set(inner_whites) != retained or len(inner_blacks) + len(
        inner_whites
    ) != len(retained):
        raise InconsistentMapError("inner labeling must list exactly the retained squares")
    comp_order = [cp.square_map[s][0] for s in inner_blacks] + [
        cp.square_map[s][0] for s in inner_whites
    ]
    for seq in (comp_order[: len(inner_blacks)], comp_order[len(inner_blacks) :]):
        if any(a > b for a, b in zip(seq, seq[1:])):
            raise InconsistentMapError("inner labeling must run component by component")
    rem_black, rem_white = cp.removed_black, cp.removed_white
    for s in inner_blacks:
        if not disk.is_black(s):
            raise InconsistentMapError(f"square {s} is not black")
    for s in inner_whites:
        if disk.is_black(s):
            raise InconsistentMapError(f"square {s} is not white")
    blacks = tuple(rem_black) + tuple(inner_blacks)
    whites = tuple(rem_white) + tuple(inner_whites)
    return blacks, whites
