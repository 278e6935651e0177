"""Block elimination and the {0,+1,-1} triangular factorization.

The factorization writes a black-to-white matrix as L * D * U where L and U
are invertible triangular matrices, D is an identity matrix padded with zero
rows and columns, and every entry of every factor is 0, 1 or -1.  One
elimination step peels off the squares removed by cut-and-paste along a good
diagonal; a fold over the surgery tree of the pasted components
(``cutpaste.surgery_fold``) assembles the full factors.

Every factor is very sparse (a step factor is the identity plus the removed
strip, one witness entry per surviving flank and signs), so the whole
fold works on sparse rows: one ``{column: nonzero entry}`` dict per row.
Each check costs time proportional to the nonzeros it reads; dense matrices
are made only at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import intmat
from .adjacency import BWMatrix, Labeling, black_to_white, cutpaste_labeling, sparse_black_to_white
from .cutpaste import CutPasteResult, surgery_fold
from .diagonals import Diagonal
from .disk_core import json_square
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


def _identity_rows(n: int) -> Rows:
    return [{i: 1} for i in range(n)]


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
    and right = [[I, N], [0, I]].
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


def ldu_step(b_matrix, d: Diagonal, cp: CutPasteResult) -> StepFactors:
    """Eliminate the removed squares of one cut-and-paste from the matrix.

    ``b_matrix`` is a BWMatrix or a SparseBW.  Its labeling must put the
    removed squares first, in diagonal order.  When the diagonal squares are
    white the computation runs on the transpose and the factors are
    transposed back.
    """
    b, w = len(b_matrix.row_squares), len(b_matrix.col_squares)
    removed = (len(cp.removed_black), len(cp.removed_white))
    if cp.diag_black:
        left, middle, right, s_rows, s_cols, witness = _step_core(
            list(b_matrix.nonzeros), b_matrix.row_squares, b_matrix.col_squares, cp
        )
        return StepFactors(left, middle, right, removed, tuple(s_rows), tuple(s_cols), witness, w - removed[1])
    left_t, middle_t, right_t, s_rows, s_cols, witness = _step_core(
        _transpose(b_matrix.nonzeros, w), b_matrix.col_squares, b_matrix.row_squares, cp
    )
    return StepFactors(
        left_rows=_transpose(right_t, b),
        middle_rows=_transpose(middle_t, b),
        right_rows=_transpose(left_t, w),
        removed=removed,
        s_b_prime=tuple(s_cols),
        s_w_prime=tuple(s_rows),
        witness_rows=witness,
        witness_cols=b - removed[0],
    )


def _step_core(entries: Rows, row_squares: tuple, col_squares: tuple, cp: CutPasteResult):
    """Elimination with the diagonal squares on the rows."""
    rm_rows = list(cp.removed_diagonal)
    rm_cols = list(cp.removed_flanks)
    k = len(rm_rows)
    nc = len(rm_cols)
    if list(row_squares[:k]) != rm_rows:
        raise BadLabelingError("removed diagonal squares must label the first rows in order")
    if list(col_squares[:nc]) != rm_cols:
        raise BadLabelingError("removed flank squares must label the first columns in order")
    rp, cpn = len(row_squares) - k, len(col_squares) - nc
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
    s_rows = [-1 if cp.side_of[sq] == "right" else 1 for sq in row_squares[k:]]
    s_cols = [-1 if cp.side_of[sq] == "right" else 1 for sq in col_squares[nc:]]
    col_pos = {sq: j for j, sq in enumerate(col_squares)}
    witness: Rows = [{} for _ in range(nc)]
    for i, (_, _, survivor) in enumerate(cp.merges):
        j = col_pos[survivor]
        if j < nc:
            raise BadLabelingError("surviving flank labeled among the removed squares")
        # the survivor column repeats column i of the removed block, up to sign
        if top.get(j, {}) != {r: 1 for r in (i, i + 1) if r < k}:
            raise MiddleMismatchError("surviving flank column does not match the strip")
        witness[i][j - nc] = s_cols[j - nc]
    row_sign = [1] * k + s_rows
    col_sign = [1] * nc + s_cols
    signed = [{j: x * s * col_sign[j] for j, x in row.items()} for row, s in zip(entries, row_sign)]
    left, middle, right = _eliminate(signed, nc + cpn, witness, k, nc)
    _check_middle(row_squares, col_squares, cp, k, nc, middle)
    # undo the signs: left absorbs S_b', right absorbs S_w'
    for i in range(rp):
        left[k + i] = {j: x * s_rows[i] for j, x in left[k + i].items()}
    for i in range(nc):
        right[i] = {j: x * col_sign[j] for j, x in right[i].items()}
    for i in range(cpn):
        right[nc + i][nc + i] = s_cols[i]
    if k and nc == k - 1:
        left[k - 1][k - 1] = 1  # unbalanced strip leaves a zero column; repair the pivot
    if not _within(left, right, middle):
        raise EntryOutOfRangeError("factor entry outside {-1, 0, 1}")
    if _mul(left, _mul(middle, right)) != entries:
        raise WitnessInvalidError("step factors do not reproduce the matrix")
    return left, middle, right, s_rows, s_cols, witness


def _check_middle(row_squares, col_squares, cp: CutPasteResult, k: int, nc: int, middle: Rows) -> None:
    """The eliminated middle must be the adjacency of the pasted components."""
    col_at = {cp.square_map[sq]: j for j, sq in enumerate(col_squares[nc:], start=nc)}
    for i, rsq in enumerate(row_squares[k:]):
        ci, s = cp.square_map[rsq]
        got = middle[k + i]
        want = {col_at[(ci, t)]: 1 for t in cp.components[ci].neighbors(s) if (ci, t) in col_at}
        if got != want:
            j = min(j for j in got.keys() | want.keys() if got.get(j, 0) != want.get(j, 0))
            raise MiddleMismatchError(
                f"middle block entry ({i}, {j - nc}) is {got.get(j, 0)}, adjacency says {want.get(j, 0)}"
            )


def check_triangular(lower: Rows, upper: Rows) -> None:
    """Every stored nonzero of L is on or below the diagonal, every one of U on or above it."""
    for i, row in enumerate(lower):
        if row and max(row) > i:
            raise NotTriangularError(f"lower factor has a nonzero above the diagonal in row {i}")
    for i, row in enumerate(upper):
        if row and min(row) < i:
            raise NotTriangularError(f"upper factor has a nonzero below the diagonal in row {i}")


class _SparseLDU(NamedTuple):
    lower: Rows
    middle: DefectiveIdentity
    upper: Rows
    labeling: Labeling
    trace: dict


def ldu_factorize(disk) -> LDUFactorization:
    """Full factorization of the disk's black-to-white matrix."""
    b, w = disk.color_counts()
    if b == 0 or w == 0:
        raise SingleSquareError("factorization needs both colors; got a degenerate matrix")
    f = surgery_fold(disk, _factorize)
    return LDUFactorization(
        lower=_freeze(_dense(f.lower, b)),
        middle=f.middle,
        upper=_freeze(_dense(f.upper, w)),
        labeling=f.labeling,
        trace=f.trace,
    )


def _factorize(disk):
    """Surgery node of the factorization: a leaf when one color is missing."""
    b, w = disk.color_counts()
    if b == 0 or w == 0:
        return _SparseLDU(
            lower=_identity_rows(b),
            middle=DefectiveIdentity(b, w, ()),
            upper=_identity_rows(w),
            labeling=disk.canonical_labeling(),
            trace={"squares": len(disk), "black": b, "white": w, "base": True},
        )
    d, cp, subs = yield
    back = {loc: parent for parent, loc in cp.square_map.items()}
    inner_blacks = tuple(back[(ci, s)] for ci, sub in enumerate(subs) for s in sub.labeling[0])
    inner_whites = tuple(back[(ci, s)] for ci, sub in enumerate(subs) for s in sub.labeling[1])
    labeling = cutpaste_labeling(disk, d, cp, (inner_blacks, inner_whites))
    matrix = sparse_black_to_white(disk, labeling)
    step = ldu_step(matrix, d, cp)

    bb = b - len(inner_blacks)  # removed rows
    ww = w - len(inner_whites)
    # The step factors are left = [[X, 0], [Y, S_b]] and right = [[P, Q], [0, S_w]]
    # with S_b and S_w diagonal signs, so L = left * diag(I, SubL) is
    # [[X, 0], [Y, S_b SubL]] and U = diag(I, SubU) * right is
    # [[P, Q], [0, SubU S_w]]: each sub factor row moves by its block offset and
    # takes a sign.  The L D U == B check below verifies the assembly.
    s_b, s_w = step.s_b_prime, step.s_w_prime
    lower = step.left_rows[:bb]
    upper = step.right_rows[:ww]
    ones = [(i, i) for i in range(min(bb, ww))]
    row_at, col_at = bb, ww
    for sub in subs:
        for row in sub.lower:
            i = len(lower)
            lower_row = {j: x for j, x in step.left_rows[i].items() if j < bb}
            lower_row.update((row_at + j, s_b[i - bb] * x) for j, x in row.items())
            lower.append(lower_row)
        upper += [{col_at + j: x * s_w[col_at - ww + j] for j, x in row.items()} for row in sub.upper]
        ones.extend((row_at + r, col_at + c) for r, c in sub.middle.ones)
        row_at += sub.middle.rows
        col_at += sub.middle.cols
    middle = DefectiveIdentity(b, w, tuple(ones))

    if not _within(lower, upper):
        raise EntryOutOfRangeError("assembled factor entry outside {-1, 0, 1}")
    check_triangular(lower, upper)
    if _ldu_rows(lower, middle, upper) != list(matrix.nonzeros):
        raise WitnessInvalidError("assembled factorization does not reproduce the matrix")
    trace = {
        "squares": len(disk),
        "black": b,
        "white": w,
        "corner": json_square(d.corner),
        "length": d.length,
        "balanced": d.balanced,
        "deleted_side": cp.deleted_side,
        "components": [s.trace for s in subs],
    }
    return _SparseLDU(lower, middle, upper, labeling, trace)


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
    """Integer solution x of B x = v, or a certified NoRationalSolution.

    Accepts a factorization or a disk (which gets factorized).  Free
    coordinates are set to zero; the returned vector satisfies the system
    exactly under the factorization's labeling.
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
