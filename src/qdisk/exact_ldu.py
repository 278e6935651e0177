"""Block elimination and the {0,+1,-1} triangular factorization.

The factorization writes a black-to-white matrix as L * D * U where L and U
are invertible triangular matrices, D is an identity matrix padded with zero
rows and columns, and every entry of every factor is 0, 1 or -1.  One
elimination step peels off the squares removed by cut-and-paste along a good
diagonal; a fold over the surgery tree of the pasted components
(``cutpaste.surgery_fold``) collects the steps, and the root writes the full
factors once.

A step factor is the signed identity except on its touched rows: the
removed diagonal squares, and the retained squares of the diagonal's color
next to a removed flank or a merge survivor.  So each level reads, checks
and keeps only those rows, and its own work is proportional to its cut.  The
assembled L * D * U == B is checked once, at the root, against a matrix
built from the disk.  Everything is sparse rows, one ``{column: nonzero
entry}`` dict per row; dense matrices are made only at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import NamedTuple

from . import intmat
from .adjacency import BWMatrix, Labeling, black_to_white, sparse_black_to_white
from .cutpaste import CutPasteResult, surgery_fold
from .diagonals import Diagonal
from .disk_core import Board, QuadDisk, json_square
from .errors import (
    BadLabelingError,
    EntryOutOfRangeError,
    MiddleMismatchError,
    NonSquareError,
    NoRationalSolution,
    NotTriangularError,
    QdiskError,
    SingleSquareError,
    WitnessInvalidError,
)
from .intmat import Matrix, perm_sign

Rows = list[dict[int, int]]  # one {column: nonzero entry} dict per row


def _rows_of(m: Matrix) -> Rows:
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def _dense(rows: Rows, cols: int) -> Matrix:
    out = []
    for row in rows:
        dense = [0] * cols
        for j, x in row.items():
            dense[j] = x
        out.append(dense)
    return out


def _transpose(rows: Rows, cols: int) -> Rows:
    out: Rows = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def _mul_row(row: dict[int, int], b: Rows) -> dict[int, int]:
    if len(row) == 1:  # most rows: one nonzero, so nothing can cancel
        ((j, x),) = row.items()
        return {c: x * y for c, y in b[j].items()}
    acc: dict[int, int] = {}
    get = acc.get
    for j, x in row.items():
        for c, y in b[j].items():
            acc[c] = get(c, 0) + x * y
    if 0 in acc.values():
        return {c: v for c, v in acc.items() if v}
    return acc


def _mul(a: Rows, b: Rows) -> Rows:
    return [_mul_row(row, b) for row in a]


def _within(*matrices: Rows) -> bool:
    return {x for rows in matrices for row in rows for x in row.values()} <= {-1, 0, 1}


@dataclass(frozen=True)
class DefectiveIdentity:
    """Identity matrix padded with zero rows and columns.

    ``ones`` lists the unit positions; both coordinates are strictly
    increasing, which is exactly the padded-identity staircase shape.
    """

    rows: int
    cols: int
    ones: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for (r1, c1), (r2, c2) in zip(self.ones, self.ones[1:]):
            if not (r1 < r2 and c1 < c2):
                raise ValueError("unit positions must increase in rows and columns")
        for r, c in self.ones:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError("unit position out of range")

    @property
    def rank(self) -> int:
        return len(self.ones)

    def is_identity(self) -> bool:
        return self.rows == self.cols == self.rank

    def to_matrix(self) -> Matrix:
        m = intmat.zeros(self.rows, self.cols)
        for r, c in self.ones:
            m[r][c] = 1
        return m

    def zero_rows(self) -> list[int]:
        used = {r for r, _ in self.ones}
        return [r for r in range(self.rows) if r not in used]


def _ldu_rows(lower: Rows, middle: DefectiveIdentity, upper: Rows) -> Rows:
    """Sparse rows of L * D * U."""
    du: Rows = [{} for _ in range(middle.rows)]
    for r, c in middle.ones:
        du[r] = upper[c]
    return _mul(lower, du)


@dataclass(frozen=True)
class LDUFactorization:
    """Exact triangular factorization of a black-to-white matrix."""

    lower: tuple[tuple[int, ...], ...]
    middle: DefectiveIdentity
    upper: tuple[tuple[int, ...], ...]
    labeling: Labeling
    trace: dict

    @property
    def black_count(self) -> int:
        return len(self.labeling[0])

    @property
    def white_count(self) -> int:
        return len(self.labeling[1])

    def lower_list(self) -> Matrix:
        return [list(r) for r in self.lower]

    def upper_list(self) -> Matrix:
        return [list(r) for r in self.upper]

    def product(self) -> Matrix:
        return _dense(_ldu_rows(_rows_of(self.lower), self.middle, _rows_of(self.upper)), self.middle.cols)


def block_eliminate(m: Matrix, witness: Matrix, split: tuple[int, int]):
    """One two-sided block elimination.

    ``split`` = (n, n') cuts m into blocks with m11 of shape n x n', n' <= n.
    The witness N satisfies m11 N = m12 and the left factor absorbs the first
    columns.  Returns (left, middle, right) with left * middle * right == m
    exactly.
    """
    n, np_ = split
    rows, cols = intmat.shape(m)
    if rows < n or cols < np_:
        raise ValueError("split larger than the matrix")
    if np_ > n:
        raise ValueError("block elimination needs n' <= n")
    if intmat.shape(witness) != (np_, cols - np_) and not (np_ == 0 and not witness):
        raise WitnessInvalidError("witness has wrong shape")
    left, middle, right = _eliminate(_rows_of(m), cols, _rows_of(witness), n, np_)
    return _dense(left, rows), _dense(middle, cols), _dense(right, cols)


def _eliminate(m: Rows, cols: int, witness: Rows, n: int, np_: int) -> tuple[Rows, Rows, Rows]:
    """Block elimination on sparse rows.

    With R the n' x n rectangular identity, the factors are
    left = [[m11 R, 0], [m21 R, I]], middle = [[R^T, 0], [0, m22 - m21 N]]
    and right = [[I, N], [0, I]].  ``block_eliminate`` runs it on the whole
    matrix; an elimination step runs it on the touched rows alone.
    """
    mp = cols - np_
    left: Rows = []
    middle: Rows = []
    for i, row in enumerate(m):
        head, tail = {}, {}
        for j, x in row.items():
            if j < np_:
                head[j] = x
            else:
                tail[j - np_] = x
        corr = _mul_row(head, witness)
        if i < n:
            if corr != tail:
                raise WitnessInvalidError("m11 @ witness != m12")
            middle.append({i: 1} if i < np_ else {})
        else:
            for j, x in corr.items():
                tail[j] = tail.get(j, 0) - x
            middle.append({np_ + j: x for j, x in tail.items() if x})
            head[i] = 1
        left.append(head)
    right = [{i: 1, **{np_ + j: x for j, x in witness[i].items()}} for i in range(np_)]
    right += [{np_ + j: 1} for j in range(mp)]
    if _mul(left, _mul(middle, right)) != m:
        raise WitnessInvalidError("elimination does not reproduce the matrix")
    return left, middle, right


@dataclass(frozen=True)
class StepFactors:
    """One elimination step: B == left @ middle @ right, middle carrying B'.

    The factors are stored as sparse rows; ``left``, ``middle``, ``right``,
    ``middle_block`` and ``witness`` are dense views of them.
    """

    left_rows: Rows
    middle_rows: Rows
    right_rows: Rows
    removed: tuple[int, int]  # removed black and white squares
    s_b_prime: tuple[int, ...]
    s_w_prime: tuple[int, ...]
    witness_rows: Rows  # N of the elimination, diagonal squares on the rows
    witness_cols: int

    @property
    def left(self) -> Matrix:
        return _dense(self.left_rows, len(self.left_rows))

    @property
    def middle(self) -> Matrix:
        return _dense(self.middle_rows, len(self.right_rows))

    @property
    def right(self) -> Matrix:
        return _dense(self.right_rows, len(self.right_rows))

    @property
    def middle_block(self) -> Matrix:
        """Adjacency of the pasted disks, black rows."""
        rb, rw = self.removed
        block = [{j - rw: x for j, x in row.items()} for row in self.middle_rows[rb:]]
        return _dense(block, len(self.right_rows) - rw)

    @property
    def witness(self) -> Matrix:
        return _dense(self.witness_rows, self.witness_cols)


class LocalStep(NamedTuple):
    """One elimination step on its touched rows, diagonal squares on the rows.

    ``rows`` are the touched row squares, the removed diagonal squares first
    in diagonal order; ``cols`` are the column squares their entries reach,
    the removed flanks first.  ``left``, ``middle`` and ``right`` are the step
    factors' rows over those local indices, signs undone, and ``witness`` is
    the N of the elimination.  Every other row r is the signed identity: its
    left row is s(r) on the diagonal and its middle row the signed row of B,
    which is its pasted adjacency; the right row of a retained column c is
    s(c) on the diagonal.
    """

    rows: list
    cols: list
    left: Rows
    middle: Rows
    right: Rows
    witness: Rows


def _side_sign(cp: CutPasteResult, square) -> int:
    return -1 if cp.side_of[square] == "right" else 1


def ldu_step(b_matrix, d: Diagonal, cp: CutPasteResult):
    """Eliminate the removed squares of one cut-and-paste from the matrix.

    ``b_matrix`` is a BWMatrix or a SparseBW whose labeling puts the removed
    squares first, in diagonal order.  Every row of it is checked, and the
    full StepFactors come back; when the diagonal squares are white the
    factors are transposed back.  Given the disk itself instead, the step
    reads its touched rows from ``disk.neighbors``, checks only those and
    returns the LocalStep: the rows it does not read are right by the
    cut-and-paste's own checks, and the root of the factorization checks the
    assembled product.
    """
    if isinstance(b_matrix, (Board, QuadDisk)):
        neighbors = b_matrix.neighbors
        return _step_core(lambda s: dict.fromkeys(neighbors(s), 1), cp, lambda r, c: f"at squares {r}, {c}")
    blacks, whites = b_matrix.row_squares, b_matrix.col_squares
    entries_of: dict = {s: {} for s in (*blacks, *whites)}  # square -> {neighbor: entry}
    for r, row in zip(blacks, b_matrix.nonzeros):
        for j, x in row.items():
            entries_of[r][whites[j]] = x
            entries_of[whites[j]][r] = x
    row_squares, col_squares = (blacks, whites) if cp.diag_black else (whites, blacks)
    k, nc = len(cp.removed_diagonal), len(cp.removed_flanks)
    if tuple(row_squares[:k]) != cp.removed_diagonal:
        raise BadLabelingError("removed diagonal squares must label the first rows in order")
    if tuple(col_squares[:nc]) != cp.removed_flanks:
        raise BadLabelingError("removed flank squares must label the first columns in order")
    row_at = {s: i for i, s in enumerate(row_squares)}
    col_at = {s: j for j, s in enumerate(col_squares)}

    def where(r, c):
        return row_at[r] - k, col_at[c] - nc

    # every row counts as touched, so every row gets every check, and the
    # local indices are the matrix's own
    step = _step_core(entries_of.__getitem__, cp, where, list(row_squares), list(col_squares))
    removed = (len(cp.removed_black), len(cp.removed_white))
    s_rows = tuple(_side_sign(cp, r) for r in row_squares[k:])
    s_cols = tuple(_side_sign(cp, c) for c in col_squares[nc:])
    n_rows, n_cols = len(row_squares), len(col_squares)
    if cp.diag_black:
        return StepFactors(step.left, step.middle, step.right, removed, s_rows, s_cols, step.witness, n_cols - nc)
    return StepFactors(
        left_rows=_transpose(step.right, n_cols),
        middle_rows=_transpose(step.middle, n_cols),
        right_rows=_transpose(step.left, n_rows),
        removed=removed,
        s_b_prime=s_cols,
        s_w_prime=s_rows,
        witness_rows=step.witness,
        witness_cols=n_cols - nc,
    )


def _step_core(entries_of, cp: CutPasteResult, where, rows=None, cols=None) -> LocalStep:
    """Elimination on the touched rows, with the diagonal squares on the rows.

    ``entries_of(square)`` is the square's row of B, or its column for a
    square of the other color, as {square: entry}.  The touched rows are the
    removed diagonal squares and every retained square of their color next to
    a removed flank or a merge survivor, unless ``rows`` lists them; ``cols``
    may fix the order of the first columns.  ``where(row, column)`` names a
    middle entry in an error message.
    """
    rm_rows, rm_cols = cp.removed_diagonal, cp.removed_flanks
    k, nc = len(rm_rows), len(rm_cols)
    survivors = [survivor for _, _, survivor in cp.merges]
    if rows is None:
        diag = set(rm_rows)
        touched = dict.fromkeys(r for f in (*rm_cols, *survivors) for r in entries_of(f) if r not in diag)
        rows = [*rm_rows, *touched]
    cols = list(rm_cols) if cols is None else cols
    col_pos = {c: j for j, c in enumerate(cols)}

    def col(c) -> int:
        j = col_pos.get(c)
        if j is None:
            j = col_pos[c] = len(cols)
            cols.append(c)
        return j

    entries: Rows = [{col(c): x for c, x in entries_of(r).items()} for r in rows]
    # the removed block is lower bidiagonal: flank j touches diagonal squares j and j+1
    top: dict[int, dict[int, int]] = {}  # column -> its nonzeros in the removed rows
    for i in range(k):
        strip = {}
        for j, x in entries[i].items():
            top.setdefault(j, {})[i] = x
            if j < nc:
                strip[j] = x
        if strip != {j: 1 for j in (i - 1, i) if 0 <= j < nc}:
            raise MiddleMismatchError("removed block is not the bidiagonal strip")
    witness: Rows = [{} for _ in range(nc)]
    for i, survivor in enumerate(survivors):
        j = col(survivor)
        if j < nc:
            raise BadLabelingError("surviving flank labeled among the removed squares")
        # the survivor column repeats column i of the removed block, up to sign
        if top.get(j, {}) != {r: 1 for r in (i, i + 1) if r < k}:
            raise MiddleMismatchError("surviving flank column does not match the strip")
        witness[i][j - nc] = _side_sign(cp, survivor)
    s_rows = [_side_sign(cp, r) for r in rows[k:]]
    s_cols = [_side_sign(cp, c) for c in cols[nc:]]
    row_sign = [1] * k + s_rows
    col_sign = [1] * nc + s_cols
    signed = [{j: x * s * col_sign[j] for j, x in row.items()} for row, s in zip(entries, row_sign)]
    left, middle, right = _eliminate(signed, len(cols), witness, k, nc)
    for i in range(k, len(rows)):
        _check_middle_row(cp, rows[i], {cols[j]: x for j, x in middle[i].items()}, where)
    # undo the signs: left absorbs S_b', right absorbs S_w'
    for i, s in enumerate(s_rows, start=k):
        left[i] = {j: x * s for j, x in left[i].items()}
    for i in range(nc):
        right[i] = {j: x * col_sign[j] for j, x in right[i].items()}
    for i, s in enumerate(s_cols, start=nc):
        right[i][i] = s
    if k and nc == k - 1:
        left[k - 1][k - 1] = 1  # unbalanced strip leaves a zero column; repair the pivot
    if not _within(left, right, middle):
        raise EntryOutOfRangeError("factor entry outside {-1, 0, 1}")
    if _mul(left, _mul(middle, right)) != entries:
        raise WitnessInvalidError("step factors do not reproduce the matrix")
    return LocalStep(rows, cols, left, middle, right, witness)


def _check_middle_row(cp: CutPasteResult, r, got: dict, where) -> None:
    """The middle row of retained square r, {column square: entry}, must be its pasted adjacency."""
    square_map = cp.square_map
    ci, s = square_map[r]
    nbrs = cp.components[ci].neighbors(s)
    if {square_map[c]: x for c, x in got.items()} == dict.fromkeys(((ci, t) for t in nbrs), 1):
        return
    back = {loc: q for q, loc in square_map.items()}
    want = dict.fromkeys((back[(ci, t)] for t in nbrs), 1)
    c = min((c for c in got.keys() | want.keys() if got.get(c, 0) != want.get(c, 0)), key=lambda c: where(r, c))
    raise MiddleMismatchError(
        f"middle block entry {where(r, c)} is {got.get(c, 0)}, adjacency says {want.get(c, 0)}"
    )


def check_triangular(lower: Rows, upper: Rows) -> None:
    """Every stored nonzero of L is on or below the diagonal, every one of U on or above it."""
    for i, row in enumerate(lower):
        if row and max(row) > i:
            raise NotTriangularError(f"lower factor has a nonzero above the diagonal in row {i}")
    for i, row in enumerate(upper):
        if row and min(row) < i:
            raise NotTriangularError(f"upper factor has a nonzero below the diagonal in row {i}")


class _Level(NamedTuple):
    """What one surgery level adds to the factors, with squares named by token.

    ``blacks`` and ``whites`` are the tokens of the level's removed squares
    (of its one square at a leaf) in label order, and ``ones`` counts the
    unit entries of D it starts.  ``lower`` and ``upper`` are its own
    (row, column, entry) entries of L and U.  An entry of L is stored times
    the level's lazy sign of its row, an entry of U times that of its
    column; the root multiplies by its own lazy sign, which leaves each entry
    times the side signs of the levels above this one.
    """

    blacks: tuple
    whites: tuple
    ones: int
    lower: list
    upper: list
    children: tuple
    trace: dict


def ldu_factorize(disk) -> LDUFactorization:
    """Full factorization of the disk's black-to-white matrix.

    The fold collects one ``_Level`` per surgery level.  The final labeling
    lists each level's removed squares, then its components' labelings in
    component order, so one pre-order walk writes L, D and U in final
    coordinates; the entry bound, triangularity and ``L D U == B`` are then
    checked once, against a matrix built from the disk itself.
    """
    b, w = disk.color_counts()
    if b == 0 or w == 0:
        raise SingleSquareError("factorization needs both colors; got a degenerate matrix")
    root, tokens = surgery_fold(disk, partial(_factorize, count(1).__next__))
    n = len(tokens)
    names: list = [None] * (n + 1)
    signs = [0] * (n + 1)
    for q, t in tokens.items():
        names[abs(t)] = q
        signs[abs(t)] = 1 if t > 0 else -1
    blacks: list = []
    whites: list = []
    ones: list = []
    levels = []
    stack = [root]
    while stack:
        level = stack.pop()
        ones += ((len(blacks) + i, len(whites) + i) for i in range(level.ones))
        blacks += level.blacks
        whites += level.whites
        levels.append(level)
        stack += reversed(level.children)
    pos = [0] * (n + 1)
    for seq in (blacks, whites):
        for i, t in enumerate(seq):
            pos[t] = i
    lower: Rows = [{} for _ in blacks]
    upper: Rows = [{} for _ in whites]
    # an entry of L belongs to the level that removes its column's square,
    # one of U to the level that removes its row's, so none is written twice
    for level in levels:
        for r, c, x in level.lower:
            lower[pos[r]][pos[c]] = x * signs[r]
        for r, c, x in level.upper:
            upper[pos[r]][pos[c]] = x * signs[c]
    labeling = (tuple(names[t] for t in blacks), tuple(names[t] for t in whites))
    matrix = sparse_black_to_white(disk, labeling)
    middle = DefectiveIdentity(b, w, tuple(ones))
    if not _within(lower, upper):
        raise EntryOutOfRangeError("assembled factor entry outside {-1, 0, 1}")
    check_triangular(lower, upper)
    if _ldu_rows(lower, middle, upper) != list(matrix.nonzeros):
        raise WitnessInvalidError("assembled factorization does not reproduce the matrix")
    return LDUFactorization(
        lower=_freeze(_dense(lower, b)),
        middle=middle,
        upper=_freeze(_dense(upper, w)),
        labeling=labeling,
        trace=root.trace,
    )


def _factorize(new_token, disk):
    """Surgery node of the factorization: a single square is a leaf.

    Its value is the level's ``_Level`` and ``tokens``, which maps each square
    of the disk to its token times its lazy sign: the product of the side
    signs the square takes from this level down to the level that removes it.
    """
    if len(disk) == 1:  # a disk of two or more squares has both colors
        (s,) = disk.squares
        t = new_token()
        black = disk.is_black(s)
        own = [(t, t, 1)]
        trace = {"squares": 1, "black": int(black), "white": int(not black), "base": True}
        if black:
            return _Level((t,), (), 0, own, [], (), trace), {s: t}
        return _Level((), (t,), 0, [], own, (), trace), {s: t}
    d, cp, subs = yield
    side = cp.side_of
    tokens = {}
    for q, (ci, s) in cp.square_map.items():
        t = subs[ci][1][s]
        tokens[q] = -t if side[q] == "right" else t
    removed_black = tuple(new_token() for _ in cp.removed_black)
    removed_white = tuple(new_token() for _ in cp.removed_white)
    tokens.update(zip(cp.removed_black, removed_black))
    tokens.update(zip(cp.removed_white, removed_white))

    # The step factors are left = [[X, 0], [Y, S_b]] and right = [[P, Q], [0, S_w]]
    # with S_b and S_w diagonal signs, so L = left * diag(I, SubL) is
    # [[X, 0], [Y, S_b SubL]] and U = diag(I, SubU) * right is
    # [[P, Q], [0, SubU S_w]].  This level owns X, Y, P and Q, which lie on the
    # touched rows; S_b and S_w go into the lazy signs of ``tokens``.
    step = ldu_step(disk, d, cp)
    k, nc = len(cp.removed_diagonal), len(cp.removed_flanks)
    rt = [tokens[r] for r in step.rows]
    ct = [tokens[c] for c in step.cols]
    left = [
        (abs(rt[i]), abs(rt[j]), x if rt[i] > 0 else -x)
        for i, row in enumerate(step.left)
        for j, x in row.items()
        if i < k or j != i
    ]
    right = [(abs(ct[i]), abs(ct[j]), x if ct[j] > 0 else -x) for i in range(nc) for j, x in step.right[i].items()]
    if cp.diag_black:
        lower, upper = left, right
    else:  # the step ran on the transpose: left is U's, right is L's
        lower, upper = [(c, r, x) for r, c, x in right], [(c, r, x) for r, c, x in left]
    traces = [level.trace for level, _ in subs]
    trace = {
        "squares": len(disk),
        "black": len(removed_black) + sum(t["black"] for t in traces),
        "white": len(removed_white) + sum(t["white"] for t in traces),
        "corner": json_square(d.corner),
        "length": d.length,
        "balanced": d.balanced,
        "deleted_side": cp.deleted_side,
        "components": traces,
    }
    ones = min(len(removed_black), len(removed_white))
    children = tuple(level for level, _ in subs)
    return _Level(removed_black, removed_white, ones, lower, upper, children, trace), tokens


def _freeze(m: Matrix) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(row) for row in m)


def rank_det(f: LDUFactorization) -> tuple[int, int | None]:
    """Rank of the matrix and, when it is square, its determinant."""
    rank = f.middle.rank
    if f.black_count != f.white_count:
        return rank, None
    if not f.middle.is_identity():
        return rank, 0
    det = intmat.diag_product(f.lower_list()) * intmat.diag_product(f.upper_list())
    return rank, det


def det_exact(f: LDUFactorization) -> int:
    if f.black_count != f.white_count:
        raise NonSquareError("determinant of a rectangular matrix is undefined")
    return rank_det(f)[1]


def det_for_labeling(f: LDUFactorization, labeling: Labeling) -> int:
    """Determinant of the same matrix written under another labeling.

    Relabeling permutes rows and columns, so the determinant only moves by
    the signs of the two permutations.
    """
    det = det_exact(f)
    if det == 0:
        return 0
    signs = 1
    for src, dst in zip(f.labeling, labeling):
        pos = {s: i for i, s in enumerate(src)}
        signs *= perm_sign([pos[s] for s in dst])
    return det * signs


def det_canonical(disk, f: LDUFactorization | None = None) -> int:
    """Determinant under the disk's canonical labeling, computed via the factorization."""
    if f is None:
        f = ldu_factorize(disk)
    return det_for_labeling(f, disk.canonical_labeling())


def solve_integer(f, v: list[int]) -> list[int]:
    """Integer solution x of B x = v under the factorization's labeling.

    Accepts a factorization or a disk (which gets factorized).  Free
    coordinates are set to zero, and the returned vector is checked against
    the system exactly.  When forward substitution leaves a nonzero on a
    zero row of D, no rational solution exists and NoRationalSolution is
    raised; its message names that row but carries no certificate (ROADMAP
    item 5 adds one).
    """
    if not isinstance(f, LDUFactorization):
        f = ldu_factorize(f)
    b, w = f.black_count, f.white_count
    if len(v) != b:
        raise ValueError("right-hand side length mismatch")
    z = intmat.solve_lower_unit(f.lower_list(), list(v))
    y = [0] * w
    used = set()
    for r, c in f.middle.ones:
        y[c] = z[r]
        used.add(r)
    for r in range(b):
        if r not in used and z[r] != 0:
            raise NoRationalSolution(f"inconsistent coordinate {r} after forward substitution")
    x = intmat.solve_upper_unit(f.upper_list(), y)
    product = _ldu_rows(_rows_of(f.lower), f.middle, _rows_of(f.upper))
    if [sum(a * x[j] for j, a in row.items()) for row in product] != list(v):
        raise QdiskError("solution verification failed: L D U x != v")
    return x


def factorize_matrix_for(disk) -> tuple[BWMatrix, LDUFactorization]:
    """Convenience: the matrix under the factorization's labeling plus the factorization."""
    f = ldu_factorize(disk)
    return black_to_white(disk, f.labeling), f
