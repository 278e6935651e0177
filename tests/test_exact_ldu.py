"""Block elimination, the factorization recursion, rank/det, and solving."""

from __future__ import annotations

import random

import pytest

from qdisk import (
    black_to_white,
    block_eliminate,
    canonical_good_diagonal,
    cut_and_paste,
    ldu_factorize,
    ldu_step,
    parse_board,
    rank_det,
    solve_integer,
    trace_diagonal,
)
from qdisk import intmat
from qdisk.exact_ldu import DefectiveIdentity, det_canonical, det_exact, factorize_matrix_for
from qdisk.errors import (
    NonSquareError,
    NoRationalSolution,
    SingleSquareError,
    WitnessInvalidError,
)
from qdisk.oracles import det_bareiss, rank_rational
from tests.conftest import (
    RECT45_MATRIX,
    RECT45_MIDDLE,
    RECT45_MIDDLE_TILDE,
    RECT45_S_B_PRIME,
    RECT45_S_W_PRIME,
    RECT45_XTILDE,
    RECT45_YTILDE,
    SLIT13_LOWER,
    SLIT13_MATRIX,
    SLIT13_MIDDLE_ONES,
    SLIT13_UPPER,
)


def test_defective_identity_shape_rules():
    d = DefectiveIdentity(3, 4, ((0, 0), (2, 3)))
    assert d.rank == 2
    assert d.zero_rows() == [1]
    with pytest.raises(ValueError):
        DefectiveIdentity(3, 3, ((0, 1), (1, 0)))  # not increasing in both coordinates


def test_block_eliminate_identity_case():
    m = intmat.identity(2)
    left, middle, right = block_eliminate(m, [[0]], (1, 1))
    assert left == [[1, 0], [0, 1]]
    assert middle == [[1, 0], [0, 1]]
    assert right == [[1, 0], [0, 1]]


def test_block_eliminate_random_column_and_row():
    rng = random.Random(9)
    for _ in range(25):
        n, np_, mm, mp = (rng.randint(1, 3) for _ in range(4))
        n = max(n, np_)
        m11 = [[rng.randint(-2, 2) for _ in range(np_)] for _ in range(n)]
        witness = [[rng.randint(-2, 2) for _ in range(mp)] for _ in range(np_)]
        m12 = intmat.matmul(m11, witness)
        m21 = [[rng.randint(-2, 2) for _ in range(np_)] for _ in range(mm)]
        m22 = [[rng.randint(-2, 2) for _ in range(mp)] for _ in range(mm)]
        m = [m11[i] + m12[i] for i in range(n)] + [m21[i] + m22[i] for i in range(mm)]
        left, middle, right = block_eliminate(m, witness, (n, np_))
        assert intmat.matmul(left, intmat.matmul(middle, right)) == m


def test_block_eliminate_bad_witness():
    with pytest.raises(WitnessInvalidError):
        block_eliminate([[1, 1], [0, 1]], [[0]], (1, 1))


def _rect45_step(rect45):
    board, labeling = rect45
    d = trace_diagonal(board, (0, 0))
    cp = cut_and_paste(board, d)
    matrix = black_to_white(board, labeling)
    return matrix, d, cp, ldu_step(matrix, d, cp)


def test_rect45_step_signs_and_middle(rect45):
    matrix, d, cp, step = _rect45_step(rect45)
    assert step.s_b_prime == RECT45_S_B_PRIME
    assert step.s_w_prime == RECT45_S_W_PRIME
    assert step.middle_block == RECT45_MIDDLE
    product = intmat.matmul(step.left, intmat.matmul(step.middle, step.right))
    assert product == RECT45_MATRIX
    for factor in (step.left, step.middle, step.right):
        assert intmat.entries_within(factor)


def test_rect45_signed_middle_relation():
    # the signed middle equals the plain middle conjugated by the sign matrices
    conj = [
        [RECT45_S_B_PRIME[i] * RECT45_MIDDLE[i][j] * RECT45_S_W_PRIME[j] for j in range(6)]
        for i in range(6)
    ]
    assert conj == RECT45_MIDDLE_TILDE


def test_rect45_elementary_operation_display():
    # the unsigned elimination of the same example:
    # B = (I 0; X I) (B11 0; 0 Btilde) (I Y; 0 I) with the frozen X, Y
    b11 = [row[:4] for row in RECT45_MATRIX[:4]]
    left = intmat.identity(10)
    for i in range(6):
        for j in range(4):
            left[4 + i][j] = RECT45_XTILDE[i][j]
    right = intmat.identity(10)
    for i in range(4):
        for j in range(6):
            right[i][4 + j] = RECT45_YTILDE[i][j]
    middle = intmat.zeros(10, 10)
    for i in range(4):
        for j in range(4):
            middle[i][j] = b11[i][j]
    for i in range(6):
        for j in range(6):
            middle[4 + i][4 + j] = RECT45_MIDDLE_TILDE[i][j]
    assert intmat.matmul(left, intmat.matmul(middle, right)) == RECT45_MATRIX


def test_step_detects_corrupted_middle(rect45):
    from dataclasses import replace

    from qdisk.errors import BadLabelingError, MiddleMismatchError

    board, labeling = rect45
    d = trace_diagonal(board, (0, 0))
    cp = cut_and_paste(board, d)
    matrix = black_to_white(board, labeling)
    rows = [list(r) for r in matrix.entries]
    rows[7][9] ^= 1  # corrupt one retained-block adjacency
    bad = replace(matrix, entries=tuple(tuple(r) for r in rows))
    with pytest.raises(MiddleMismatchError):
        ldu_step(bad, d, cp)
    # a row far from the cut: row 9 is square (4, 0), column 7 square (3, 0);
    # neither of row 9's neighbors is a flank or a survivor
    survivors = {s for _, _, s in cp.merges}
    assert not set(board.neighbors(labeling[0][9])) & (set(cp.removed_flanks) | survivors)
    rows = [list(r) for r in matrix.entries]
    rows[9][7] = 0
    bad = replace(matrix, entries=tuple(tuple(r) for r in rows))
    with pytest.raises(MiddleMismatchError, match=r"entry \(5, 3\) is 0, adjacency says 1"):
        ldu_step(bad, d, cp)
    # a labeling that does not put the removed squares first is rejected
    shuffled = (labeling[0][::-1], labeling[1])
    with pytest.raises(BadLabelingError):
        ldu_step(black_to_white(board, shuffled), d, cp)


def test_domino_degenerate_step():
    b = parse_board("##")
    f = ldu_factorize(b)
    assert f.lower == ((1,),)
    assert f.upper == ((1,),)
    assert f.middle.ones == ((0, 0),)


def test_slit13_factorization_properties(slit13):
    assert black_to_white(slit13).as_lists() == SLIT13_MATRIX
    matrix, f = factorize_matrix_for(slit13)  # matrix under the factorization labeling
    assert f.product() == matrix.as_lists()
    assert intmat.entries_within(f.lower_list())
    assert intmat.entries_within(f.upper_list())
    rank, det = rank_det(f)
    assert rank == 6 and det is None
    with pytest.raises(NonSquareError):
        det_exact(f)
    # the middle has no zero rows and exactly one zero column
    assert f.middle.zero_rows() == []
    used_cols = {c for _, c in f.middle.ones}
    assert len(set(range(7)) - used_cols) == 1


def test_slit13_frozen_factorization_is_valid():
    # an explicit factorization with entries in {-1, 0, 1} multiplies back
    middle = DefectiveIdentity(6, 7, tuple(SLIT13_MIDDLE_ONES)).to_matrix()
    assert intmat.matmul(SLIT13_LOWER, intmat.matmul(middle, SLIT13_UPPER)) == SLIT13_MATRIX
    assert intmat.entries_within(SLIT13_LOWER) and intmat.entries_within(SLIT13_UPPER)


def test_2x2_and_2x3_factorizations():
    b22 = parse_board("##\n##")
    _, f22 = factorize_matrix_for(b22)
    assert rank_det(f22) == (1, 0)
    b23 = parse_board("###\n###")
    _, f23 = factorize_matrix_for(b23)
    rank, det = rank_det(f23)
    assert rank == 3 and det in (-1, 1)
    assert f23.middle.rows == f23.middle.cols == f23.middle.rank == 3


def test_det_for_labeling_matches_oracle_on_sample():
    from qdisk.corpus import all_boards

    for b in all_boards(8, square_only=True):
        if len(b) < 2:
            continue
        matrix, f = factorize_matrix_for(b)
        _, det = rank_det(f)
        assert det == det_bareiss(matrix.as_lists())
        canonical = black_to_white(b)
        assert det_canonical(b, f) == det_bareiss(canonical.as_lists())


def test_single_square_rejected():
    with pytest.raises(SingleSquareError):
        ldu_factorize(parse_board("#"))


def test_white_diagonal_step_transposes(bent_hexomino):
    # the canonical diagonal of this board runs through white squares, so the
    # elimination happens on the transpose and is folded back
    d = canonical_good_diagonal(bent_hexomino)
    cp = cut_and_paste(bent_hexomino, d)
    assert not cp.diag_black
    assert cp.removed_white == cp.removed_diagonal
    matrix, f = factorize_matrix_for(bent_hexomino)
    assert f.product() == matrix.as_lists()
    assert intmat.is_lower_triangular(f.lower_list())
    assert intmat.is_upper_triangular(f.upper_list())


def test_solve_accepts_a_disk():
    b = parse_board("##\n##")
    assert solve_integer(b, [1, 1]) == [1, 0]


def test_solve_2x2_examples():
    b = parse_board("##\n##")
    _, f = factorize_matrix_for(b)
    assert solve_integer(f, [1, 1]) == [1, 0]
    with pytest.raises(NoRationalSolution):
        solve_integer(f, [1, 0])


def test_solve_2x3_constructed():
    b = parse_board("###\n###")
    matrix, f = factorize_matrix_for(b)
    v = intmat.matvec(matrix.as_lists(), [1, -2, 3])
    x = solve_integer(f, v)
    assert intmat.matvec(matrix.as_lists(), x) == v


def test_solve_agrees_with_rational_oracle():
    from qdisk.corpus import all_boards
    from qdisk.oracles import solve_rational

    rng = random.Random(12)
    for b in all_boards(7):
        bb, ww = b.color_counts()
        if bb == 0 or ww == 0:
            continue
        matrix, f = factorize_matrix_for(b)
        for _ in range(3):
            v = [rng.randint(-2, 2) for _ in range(bb)]
            rational = solve_rational(matrix.as_lists(), v)
            try:
                x = solve_integer(f, v)
            except NoRationalSolution:
                assert rational is None
            else:
                assert rational is not None
                assert intmat.matvec(matrix.as_lists(), x) == v


def test_rank_equals_rational_rank_on_glued(glued_corpus):
    for disk in glued_corpus[:8]:
        matrix, f = factorize_matrix_for(disk)
        assert rank_det(f)[0] == rank_rational(matrix.as_lists())


def test_triangularity_check_rejects_a_doctored_factor():
    from qdisk.errors import NotTriangularError
    from qdisk.exact_ldu import check_triangular

    f = ldu_factorize(parse_board("###\n###"))
    lower = [{j: x for j, x in enumerate(row) if x} for row in f.lower]
    upper = [{j: x for j, x in enumerate(row) if x} for row in f.upper]
    check_triangular(lower, upper)
    lower[0][2] = 1
    with pytest.raises(NotTriangularError) as exc:
        check_triangular(lower, upper)
    assert exc.value.code == "not_triangular"
    lower[0].pop(2)
    upper[2][0] = -1
    with pytest.raises(NotTriangularError):
        check_triangular(lower, upper)


def test_solve_verification_failure_is_a_structured_error():
    from dataclasses import replace

    from qdisk.errors import QdiskError

    f = ldu_factorize(parse_board("##"))
    assert solve_integer(f, [3]) == [3]
    doctored = replace(f, lower=((2,),))  # a non-unit pivot breaks substitution
    with pytest.raises(QdiskError, match="verification"):
        solve_integer(doctored, [3])


def test_white_diagonal_step_views_multiply_back(bent_hexomino):
    from qdisk import cutpaste_labeling

    d = canonical_good_diagonal(bent_hexomino)
    cp = cut_and_paste(bent_hexomino, d)
    matrix = black_to_white(bent_hexomino, cutpaste_labeling(bent_hexomino, d, cp))
    step = ldu_step(matrix, d, cp)
    assert intmat.matmul(step.left, intmat.matmul(step.middle, step.right)) == matrix.as_lists()
    assert intmat.is_lower_triangular(step.left) and intmat.is_upper_triangular(step.right)
    rb, rw = len(cp.removed_black), len(cp.removed_white)
    assert step.middle_block == [row[rw:] for row in step.middle[rb:]]


# -- doctored cuts deep in the surgery tree -------------------------------------

BOARD65 = [(x, y) for x in range(6) for y in range(5)]


def _doctor_second_cut(monkeypatch, square):
    """Make the fold's second cut report ``square`` on the wrong side.

    Returns the list of cuts whose elimination step raised.
    """
    from dataclasses import replace

    from qdisk import cutpaste, exact_ldu
    from qdisk.errors import QdiskError

    real_cut, real_step = cutpaste.cut_and_paste, exact_ldu.ldu_step
    cuts, failed = [], []

    def doctored(disk, d, *args):
        cp = real_cut(disk, d, *args)
        cuts.append(cp)
        if len(cuts) == 2:
            near = set(cp.removed_diagonal) | set(cp.removed_flanks) | {s for _, _, s in cp.merges}
            doctored.near = near | {t for s in near for t in disk.neighbors(s)}
            flipped = "left" if cp.side_of[square] == "right" else "right"
            cp = replace(cp, side_of={**cp.side_of, square: flipped})
            doctored.cut = cp
        return cp

    def step(matrix, d, cp):
        try:
            return real_step(matrix, d, cp)
        except QdiskError:
            failed.append(cp)
            raise

    monkeypatch.setattr(cutpaste, "cut_and_paste", doctored)
    monkeypatch.setattr(exact_ldu, "ldu_step", step)
    return doctored, failed


def test_doctored_side_far_from_the_strip_is_caught(monkeypatch):
    from qdisk import Board
    from qdisk.errors import MiddleMismatchError

    doctored, _ = _doctor_second_cut(monkeypatch, (0, 4))  # a black square
    with pytest.raises((MiddleMismatchError, WitnessInvalidError)):
        ldu_factorize(Board(BOARD65))
    assert (0, 4) not in doctored.near  # no flank or survivor is at or next to it


def test_doctored_side_seen_only_by_the_root_check(monkeypatch):
    # no touched row meets white square (4, 1) at the second cut, so only the
    # assembled L D U == B at the root can see its sign
    from qdisk import Board

    doctored, failed = _doctor_second_cut(monkeypatch, (4, 1))
    with pytest.raises(WitnessInvalidError, match="assembled factorization"):
        ldu_factorize(Board(BOARD65))
    assert failed == []


def test_doctored_touched_square_fails_at_its_level(monkeypatch):
    # white square (2, 1) flanks removed black squares (1, 1) and (2, 2)
    from qdisk import Board
    from qdisk.errors import MiddleMismatchError

    doctored, failed = _doctor_second_cut(monkeypatch, (2, 1))
    with pytest.raises((MiddleMismatchError, WitnessInvalidError)):
        ldu_factorize(Board(BOARD65))
    assert (2, 1) in doctored.near
    assert failed == [doctored.cut]


def test_root_check_survives_python_O():
    import subprocess
    import sys

    code = """
from dataclasses import replace
from qdisk import Board, cutpaste, ldu_factorize
from qdisk.errors import QdiskError

real, cuts = cutpaste.cut_and_paste, []

def doctored(disk, d, *args):
    cp = real(disk, d, *args)
    cuts.append(cp)
    if len(cuts) == 2:
        flipped = "left" if cp.side_of[(4, 1)] == "right" else "right"
        cp = replace(cp, side_of={**cp.side_of, (4, 1): flipped})
    return cp

cutpaste.cut_and_paste = doctored
try:
    ldu_factorize(Board([(x, y) for x in range(6) for y in range(5)]))
except QdiskError as exc:
    print(exc.code)
"""
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "witness_invalid", out.stderr
