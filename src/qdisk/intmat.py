"""Dense exact-integer matrices as nested lists, sized for desk-scale algebra.

A matrix with zero rows is the empty list; a matrix with zero columns has
empty rows.  All arithmetic is plain Python int, so results are exact.
"""

from __future__ import annotations

Matrix = list[list[int]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def rect_identity(rows: int, cols: int) -> Matrix:
    """Rectangular identity: ones on the main diagonal, zeros elsewhere."""
    m = zeros(rows, cols)
    for i in range(min(rows, cols)):
        m[i][i] = 1
    return m


def shape(a: Matrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def copy(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def transpose(a: Matrix, cols: int | None = None) -> Matrix:
    # cols is needed to transpose a 0-row matrix into an n x 0 one
    if not a:
        return [[] for _ in range(cols)] if cols else []
    return [[row[j] for row in a] for j in range(len(a[0]))]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    rb = len(b)
    cb = len(b[0]) if rb else 0
    out = []
    for row in a:
        if len(row) != rb:
            raise ValueError("matmul dimension mismatch")
        acc = [0] * cb
        for j, x in enumerate(row):
            if x:
                brow = b[j]
                for c in range(cb):
                    acc[c] += x * brow[c]
        out.append(acc)
    return out


def matvec(a: Matrix, v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def entries_within(a: Matrix, allowed=(-1, 0, 1)) -> bool:
    return all(x in allowed for row in a for x in row)


def is_lower_triangular(a: Matrix) -> bool:
    return all(a[i][j] == 0 for i in range(len(a)) for j in range(i + 1, len(a[i])))


def is_upper_triangular(a: Matrix) -> bool:
    return all(a[i][j] == 0 for i in range(len(a)) for j in range(min(i, len(a[i]))))


def diag_product(a: Matrix) -> int:
    p = 1
    for i in range(len(a)):
        p *= a[i][i]
    return p


def solve_lower_unit(l: Matrix, v: list[int]) -> list[int]:
    """Forward substitution for lower-triangular l with diagonal entries +-1."""
    n = len(l)
    x = [0] * n
    for i in range(n):
        s = v[i] - sum(l[i][j] * x[j] for j in range(i) if l[i][j])
        x[i] = s * l[i][i]  # diagonal is +-1, so division is multiplication
    return x


def solve_upper_unit(u: Matrix, v: list[int]) -> list[int]:
    """Back substitution for upper-triangular u with diagonal entries +-1."""
    n = len(u)
    x = [0] * n
    for i in range(n - 1, -1, -1):
        s = v[i] - sum(u[i][j] * x[j] for j in range(i + 1, n) if u[i][j])
        x[i] = s * u[i][i]
    return x


def perm_sign(perm) -> int:
    """Sign of a permutation of range(n), given as the list of images."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
