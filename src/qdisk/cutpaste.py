"""Cut-and-paste surgery along a good diagonal.

The surgery removes the diagonal squares and the flank squares on one side
(all of them when the diagonal is balanced, all but the terminal one when it
is not), identifies opposite flanks pairwise, and splits the result at
point-joins.  Boards are pasted by translating the right-hand region one
diagonal step so the result stays in Z^2; when that embedding fails the
general gluing surgery takes over and the components come back as abstract
complexes.  ``surgery_fold`` repeats the surgery down to the leaves; the
factorization and the matching are folds over it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagonals import Diagonal, _board_offsets, canonical_good_diagonal
from .disk_core import Board, QuadDisk, cell_neighbors, connected_components
from .errors import AmbiguousSideError, NotADiskError, NotGoodDiagonalError


@dataclass(frozen=True)
class CutPasteResult:
    """Outcome of one surgery: smaller disks plus the bookkeeping to map back."""

    diagonal: Diagonal
    balanced: bool
    deleted_side: str
    diag_black: bool
    removed_diagonal: tuple  # diagonal squares, in diagonal order
    removed_flanks: tuple  # deleted-side flanks, in diagonal order
    merges: tuple  # (left flank, right flank, survivor) per interior vertex
    components: tuple
    square_map: dict  # retained parent square -> (component index, component square)
    side_of: dict  # every non-diagonal parent square -> "left" | "right"

    @property
    def removed_black(self) -> tuple:
        return self.removed_diagonal if self.diag_black else self.removed_flanks

    @property
    def removed_white(self) -> tuple:
        return self.removed_flanks if self.diag_black else self.removed_diagonal

    def removed_squares(self) -> set:
        return set(self.removed_diagonal) | set(self.removed_flanks)

    def survivor_of_deleted(self) -> dict:
        """Deleted flank -> surviving merge partner."""
        out = {}
        for left, right, survivor in self.merges:
            deleted = left if survivor == right else right
            out[deleted] = survivor
        return out


def side_classification(disk, d: Diagonal) -> dict:
    """Assign left/right to every non-diagonal square by flooding from the flanks."""
    diag = set(d.squares)
    side: dict = {}
    queue = []
    for flank, name in [(f, "left") for f in d.left_flanks] + [
        (f, "right") for f in d.right_flanks
    ]:
        if flank is None:
            continue
        if side.get(flank, name) != name:
            raise AmbiguousSideError(f"square {flank} flanks the diagonal on both sides")
        if flank not in side:
            side[flank] = name
            queue.append(flank)
    while queue:
        s = queue.pop()
        for t in disk.neighbors(s):
            if t in diag:
                continue
            if t in side:
                if side[t] != side[s]:
                    raise AmbiguousSideError(f"square {t} is reachable from both sides")
            else:
                side[t] = side[s]
                queue.append(t)
    missing = [s for s in disk.squares if s not in diag and s not in side]
    if missing:
        raise AmbiguousSideError(f"squares {missing} are attached to no flank")
    return side


def _deleted_side(d: Diagonal, delete_side: str | None) -> str:
    if not d.good:
        raise NotGoodDiagonalError("cut-and-paste needs a good diagonal")
    if d.balanced:
        forced = "left" if d.terminal_left is not None else "right"
        if delete_side not in (None, forced):
            raise ValueError(f"balanced diagonal forces deleting the {forced} side")
        return forced
    if delete_side is None:
        return "left"
    if delete_side not in ("left", "right"):
        raise ValueError("delete_side must be 'left' or 'right'")
    return delete_side


def _removed_flanks(d: Diagonal, deleted: str) -> list:
    flanks = d.left_flanks if deleted == "left" else d.right_flanks
    removed = list(flanks[:-1])
    if d.balanced:
        removed.append(flanks[-1])  # the terminal flank sits on the deleted side
    return removed


def cut_and_paste(disk, d: Diagonal, delete_side: str | None = None) -> CutPasteResult:
    """Perform the surgery; components come out validated and canonically ordered."""
    deleted = _deleted_side(d, delete_side)
    side = side_classification(disk, d)
    if isinstance(disk, Board):
        result = _board_cutpaste(disk, d, deleted, side)
        if result is not None:
            return result
        return _complex_cutpaste_via_board(disk, d, deleted, side)
    return _quad_cutpaste(disk, d, deleted, side)


def surgery_fold(disk, node):
    """Fold ``node`` over the surgery tree of ``disk``, on an explicit stack.

    ``node(d)`` is a generator.  At a leaf it returns its value at once.
    Otherwise it yields once and is sent ``(diagonal, cut, child_values)``:
    the canonical good diagonal of ``d``, the cut along it and the values of
    the pasted components, in component order; it then returns its own value.
    The tree is walked depth first, so no disk is cut twice and the Python
    stack does not grow with the depth of the surgery.
    """
    stack = []  # (generator, diagonal, cut, child values) per open node
    current = disk
    while True:
        gen = node(current)
        try:
            next(gen)
        except StopIteration as leaf:
            if not stack:
                return leaf.value
            stack[-1][3].append(leaf.value)
        else:
            d = canonical_good_diagonal(current)
            stack.append((gen, d, cut_and_paste(current, d), []))
        while True:
            gen, d, cp, values = stack[-1]
            if len(values) < len(cp.components):
                break
            stack.pop()
            try:
                gen.send((d, cp, values))
            except StopIteration as done:
                if not stack:
                    return done.value
                stack[-1][3].append(done.value)
            else:
                raise RuntimeError("a surgery node must yield exactly once")
        current = cp.components[len(values)]


# -- board path ---------------------------------------------------------------


def _board_cutpaste(board: Board, d: Diagonal, deleted: str, side: dict):
    k = d.length
    removed_flanks = _removed_flanks(d, deleted)
    removed = set(d.squares) | set(removed_flanks)
    retained = [c for c in board.cells if c not in removed]
    v0, v1 = d.vertices[0], d.vertices[1]
    direction = (v1[0] - v0[0], v1[1] - v0[1])
    left_off, right_off = _board_offsets(direction)
    shift = (left_off[0] - right_off[0], left_off[1] - right_off[1])

    def new_pos(c):
        if side[c] == "left":
            return c
        return (c[0] + shift[0], c[1] + shift[1])

    pos = {c: new_pos(c) for c in retained}
    if len(set(pos.values())) != len(retained):
        return None  # translated sides collide; fall back to the gluing surgery

    merges = []
    for left, right in d.merge_pairs():
        survivor = right if deleted == "left" else left
        merges.append((left, right, survivor))

    # expected dual edges of the pasted region, in new coordinates
    expected = set()
    retained_set = set(retained)
    for c in retained:
        for n in board.neighbors(c):
            if n in retained_set:
                expected.add(frozenset((pos[c], pos[n])))
    for left, right, survivor in merges:
        gone = left if survivor == right else right
        for n in board.neighbors(gone):
            if n in retained_set:
                expected.add(frozenset((pos[survivor], pos[n])))
    actual = set()
    new_cells = set(pos.values())
    for c in new_cells:
        for n in ((c[0] + 1, c[1]), (c[0], c[1] + 1)):
            if n in new_cells:
                actual.add(frozenset((c, n)))
    if actual != expected:
        return None  # superimposed boundary segments would reglue a slit

    comp_cells = connected_components(new_cells, cell_neighbors)
    inv = {p: c for c, p in pos.items()}
    comps = []
    for cells in comp_cells:
        order = min(board.index(inv[p]) for p in cells)
        comps.append((order, cells))
    comps.sort(key=lambda t: t[0])
    components = []
    square_map = {}
    try:
        for ci, (_, cells) in enumerate(comps):
            components.append(Board(cells, black_parity=board.black_parity))
            for p in cells:
                square_map[inv[p]] = (ci, p)
    except NotADiskError:
        return None
    return CutPasteResult(
        diagonal=d,
        balanced=d.balanced,
        deleted_side=deleted,
        diag_black=board.is_black(d.squares[0]),
        removed_diagonal=tuple(d.squares),
        removed_flanks=tuple(removed_flanks),
        merges=tuple(merges),
        components=tuple(components),
        square_map=square_map,
        side_of=side,
    )


# -- gluing surgery -----------------------------------------------------------


def _quad_cutpaste(disk: QuadDisk, d: Diagonal, deleted: str, side: dict) -> CutPasteResult:
    removed_flanks = _removed_flanks(d, deleted)
    removed = set(d.squares) | set(removed_flanks)
    merges = []
    for left, right in d.merge_pairs():
        survivor = right if deleted == "left" else left
        merges.append((left, right, survivor))

    # slot map: old (square, slot) -> (frame square, slot).  Merged squares
    # borrow the left flank's frame; the right flank's free slots rotate in.
    slot_map: dict = {}
    identity_of: dict = {}  # frame square -> retained identity
    for s in disk.squares:
        if s in removed and all(s not in (l, r) for l, r, _ in merges):
            continue
        if all(s not in (l, r) for l, r, _ in merges):
            for e in range(4):
                slot_map[(s, e)] = (s, e)
            identity_of[s] = s
    for idx, (left, right, survivor) in enumerate(merges):
        d_cur, d_nxt = d.squares[idx], d.squares[idx + 1]
        l_to_cur = disk.slot_between(left, d_cur)
        l_to_nxt = disk.slot_between(left, d_nxt)
        r_to_cur = disk.slot_between(right, d_cur)
        r_to_nxt = disk.slot_between(right, d_nxt)
        for e in range(4):
            if e not in (l_to_cur, l_to_nxt):
                slot_map[(left, e)] = (left, e)
        slot_map[(right, (r_to_nxt + 2) % 4)] = (left, l_to_cur)
        slot_map[(right, (r_to_cur + 2) % 4)] = (left, l_to_nxt)
        identity_of[left] = survivor

    new_pairs = []
    for a, e, b, f in disk.gluing_list():
        ma, mb = slot_map.get((a, e)), slot_map.get((b, f))
        if ma is not None and mb is not None:
            new_pairs.append((ma, mb) if ma <= mb else (mb, ma))

    frames = sorted(identity_of, key=disk.index)
    adj: dict = {s: [] for s in frames}
    for (a, _), (b, _) in new_pairs:
        adj[a].append(b)
        adj[b].append(a)
    comps = connected_components(frames, adj.__getitem__)
    comps.sort(key=lambda members: min(disk.index(identity_of[s]) for s in members))

    components = []
    square_map = {}
    for ci, members in enumerate(comps):
        members = sorted(members, key=lambda s: disk.index(identity_of[s]))
        local = {s: i for i, s in enumerate(members)}
        gluings = []
        for (a, e), (b, f) in new_pairs:
            if a in local:
                gluings.append((local[a], e, local[b], f))
        colors = tuple(disk.is_black(identity_of[s]) for s in members)
        components.append(QuadDisk(len(members), gluings, colors=colors, validate=True))
        for s in members:
            square_map[identity_of[s]] = (ci, local[s])

    return CutPasteResult(
        diagonal=d,
        balanced=d.balanced,
        deleted_side=deleted,
        diag_black=disk.is_black(d.squares[0]),
        removed_diagonal=tuple(d.squares),
        removed_flanks=tuple(removed_flanks),
        merges=tuple(merges),
        components=tuple(components),
        square_map=square_map,
        side_of=side,
    )


def _complex_cutpaste_via_board(board: Board, d: Diagonal, deleted: str, side: dict) -> CutPasteResult:
    """Run the gluing surgery on the complex view of a board, keyed by cells."""
    complex_disk = board.to_complex()
    idx = board.index
    d_idx = Diagonal(
        corner=d.corner,
        vertices=d.vertices,
        squares=tuple(idx(s) for s in d.squares),
        left_flanks=tuple(None if s is None else idx(s) for s in d.left_flanks),
        right_flanks=tuple(None if s is None else idx(s) for s in d.right_flanks),
        good=d.good,
        balanced=d.balanced,
        excellent=d.excellent,
    )
    side_idx = {idx(s): v for s, v in side.items()}
    raw = _quad_cutpaste(complex_disk, d_idx, deleted, side_idx)
    cells = board.cells
    return CutPasteResult(
        diagonal=d,
        balanced=raw.balanced,
        deleted_side=raw.deleted_side,
        diag_black=raw.diag_black,
        removed_diagonal=tuple(cells[s] for s in raw.removed_diagonal),
        removed_flanks=tuple(cells[s] for s in raw.removed_flanks),
        merges=tuple((cells[l], cells[r], cells[v]) for l, r, v in raw.merges),
        components=raw.components,
        square_map={cells[s]: loc for s, loc in raw.square_map.items()},
        side_of=side,
    )


def detach(region) -> list:
    """Split a region into validated disks: components joined at points separate.

    Accepts a Board, a QuadDisk (possibly built with ``validate=False`` and
    representing a disjoint union), or None for the empty region.
    """
    if region is None:
        return []
    if isinstance(region, Board):
        comps = connected_components(region.cells, cell_neighbors)
        return [Board(cells, black_parity=region.black_parity) for cells in comps]
    if region.n == 0:
        return []
    out = []
    for members in connected_components(range(region.n), region.neighbors):
        members.sort()
        local = {s: i for i, s in enumerate(members)}
        gluings = [
            (local[a], e, local[b], f)
            for a, e, b, f in region.gluing_list()
            if a in local
        ]
        colors = tuple(region.is_black(s) for s in members)
        out.append(QuadDisk(len(members), gluings, colors=colors, validate=True))
    return out
