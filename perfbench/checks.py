"""Oracle checks on op outputs, written apart from the factorization path.

Board cells, adjacency matrices and tiling counts are recomputed here from
the board text; determinants come from the Bareiss oracle in
``qdisk.oracles``, which shares no code with the factorization.  Every check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json


def board_cells(text: str) -> list[tuple[int, int]]:
    """Cells of a board file: row r of R non-blank lines, column c is (c, R - 1 - r)."""
    lines = [line for line in text.splitlines() if line.strip()]
    rows = len(lines)
    return [(c, rows - 1 - r) for r, line in enumerate(lines) for c, ch in enumerate(line) if ch == "#"]


def _adjacent(a, b) -> bool:
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def adjacency(blacks, whites) -> list[list[int]]:
    return [[1 if _adjacent(b, w) else 0 for w in whites] for b in blacks]


def count_tilings(squares, neighbors) -> int:
    """Number of perfect matchings of the dual graph, memoized on the covered set."""
    index = {s: i for i, s in enumerate(squares)}
    nbr_bits = [[1 << index[t] for t in neighbors(s)] for s in squares]
    full = (1 << len(squares)) - 1
    memo = {full: 1}

    def count(covered: int) -> int:
        if covered in memo:
            return memo[covered]
        free = ~covered & full
        i = (free & -free).bit_length() - 1
        total = 0
        for bit in nbr_bits[i]:
            if not covered & bit:
                total += count(covered | (1 << i) | bit)
        memo[covered] = total
        return total

    return count(0) if len(squares) % 2 == 0 else 0


def board_tilings(cells) -> int:
    cellset = set(cells)
    order = sorted(cellset, key=lambda c: (c[1], c[0]))

    def neighbors(c):
        x, y = c
        return [n for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)) if n in cellset]

    return count_tilings(order, neighbors)


def _labeled_squares(labeling, cells) -> tuple[list, list, list[str]]:
    problems = []
    blacks = [tuple(s) for s in labeling["blacks"]]
    whites = [tuple(s) for s in labeling["whites"]]
    if sorted(blacks + whites) != sorted(cells):
        problems.append("labeling is not a partition of the board's cells")
    if len({(x + y) % 2 for x, y in blacks}) > 1 or len({(x + y) % 2 for x, y in whites}) > 1:
        problems.append("labeling mixes colors")
    return blacks, whites, problems


def _sparse_rows(m):
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


def check_ldu(text: str, stdout: str, det_bareiss) -> list[str]:
    """``qdisk ldu``: L * D * U rebuilds the adjacency matrix under the emitted labeling."""
    out = json.loads(stdout)
    blacks, whites, problems = _labeled_squares(out["labeling"], board_cells(text))
    if problems:
        return problems
    b, w = len(blacks), len(whites)
    lower, upper = out["L"], out["U"]
    ones = [tuple(rc) for rc in out["D_ones"]]
    if out["D_shape"] != [b, w] or len(lower) != b or len(upper) != w:
        return ["factor shapes do not match the labeling"]
    if any(len(row) != b for row in lower) or any(len(row) != w for row in upper):
        return ["factor shapes do not match the labeling"]
    for name, m in (("L", lower), ("U", upper)):
        if any(x not in (-1, 0, 1) for row in m for x in row):
            problems.append(f"{name} has an entry outside {{-1, 0, 1}}")
        if any(m[i][i] not in (-1, 1) for i in range(len(m))):
            problems.append(f"{name} has a zero on its diagonal")
    if any(lower[i][j] for i in range(b) for j in range(i + 1, b)):
        problems.append("L is not lower triangular")
    if any(upper[i][j] for i in range(w) for j in range(i)):
        problems.append("U is not upper triangular")
    if any(not (r1 < r2 and c1 < c2) for (r1, c1), (r2, c2) in zip(ones, ones[1:])):
        problems.append("D is not a padded identity")
    # (L D)[i][c] = L[i][r] for every unit (r, c) of D; then multiply by sparse U rows.
    col_of = dict(ones)
    u_rows = _sparse_rows(upper)
    product = []
    for row in lower:
        acc = [0] * w
        for r, x in enumerate(row):
            if x and r in col_of:
                for j, y in u_rows[col_of[r]]:
                    acc[j] += x * y
        product.append(acc)
    matrix = adjacency(blacks, whites)
    if product != matrix:
        problems.append("L * D * U differs from the adjacency matrix")
    if b == w:
        det = 0
        if len(ones) == b:
            det = 1
            for i in range(b):
                det *= lower[i][i] * upper[i][i]
        if det != det_bareiss(matrix):
            problems.append("determinant of the factors differs from Bareiss")
    return problems


def check_match(text: str, stdout: str, det_bareiss, tilings: int) -> list[str]:
    """``qdisk match``: the pairs and the loner cover every tiling exactly once."""
    out = json.loads(stdout)
    problems = []
    pairs, loner = out["pairs"], out["loner"]
    if 2 * len(pairs) + (loner is not None) != tilings:
        problems.append(f"2*|pairs| + loner != {tilings} tilings")
    ids = [i for pair in pairs for i in pair] + ([] if loner is None else [loner])
    if sorted(ids) != list(range(tilings)):
        problems.append("pairs and loner do not index every tiling exactly once")
    cells = board_cells(text)
    parity = (cells[0][0] + cells[0][1]) % 2
    blacks = [c for c in cells if (c[0] + c[1]) % 2 == parity]
    whites = [c for c in cells if (c[0] + c[1]) % 2 != parity]
    det = det_bareiss(adjacency(blacks, whites)) if len(blacks) == len(whites) else 0
    if (loner is not None) != (abs(det) == 1):
        problems.append("a loner must exist exactly when |det| = 1")
    return problems


def check_crosscheck(result: dict) -> list[str]:
    """The per-disk comparisons of ``qdisk crosscheck``."""
    problems = []
    if not result["rank"] == result["rank_rational"] == result["rank_mod2"]:
        problems.append("rank differs from the rational or mod-2 rank")
    if "det" in result:
        if result["det"] not in (-1, 0, 1):
            problems.append("determinant outside {-1, 0, 1}")
        if result["det"] != result["signed_count"]:
            problems.append("determinant differs from the signed tiling count")
        if result["det"] != result["det_bareiss"]:
            problems.append("determinant differs from Bareiss elimination")
    return problems
