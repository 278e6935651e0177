"""Exact integer machinery for quadriculated disks.

Boards and glued square complexes, their diagonals and cut-and-paste
surgery, domino tilings with the parity-inverting quasi-perfect matching,
and the {0, +1, -1} triangular factorization of black-to-white adjacency
matrices, with brute-force oracles for cross-checking.
"""

from .adjacency import BWMatrix, black_to_white, cutpaste_labeling, union_labeling
from .cutpaste import CutPasteResult, cut_and_paste, detach, side_classification
from .diagonals import (
    Diagonal,
    all_diagonals,
    canonical_good_diagonal,
    classify_diagonal,
    minimal_arc_excellent,
    trace_diagonal,
)
from .disk_core import (
    Board,
    BoundaryCensus,
    QuadDisk,
    parse_board,
    parse_glued,
    render_board,
    render_glue,
    validate,
)
from .errors import QdiskError
from .exact_ldu import (
    DefectiveIdentity,
    LDUFactorization,
    block_eliminate,
    det_exact,
    ldu_factorize,
    ldu_step,
    rank_det,
    solve_integer,
)
from .tilings import (
    MatchingResult,
    SuperpositionCurve,
    Tiling,
    compatible,
    enumerate_tilings,
    lift_tiling,
    project_tiling,
    quasi_perfect_matching,
    signed_count,
    superposition,
    tiling_parity,
    wedge_partition,
)

__all__ = [
    "BWMatrix",
    "Board",
    "BoundaryCensus",
    "CutPasteResult",
    "DefectiveIdentity",
    "Diagonal",
    "LDUFactorization",
    "MatchingResult",
    "QdiskError",
    "QuadDisk",
    "SuperpositionCurve",
    "Tiling",
    "all_diagonals",
    "black_to_white",
    "block_eliminate",
    "canonical_good_diagonal",
    "classify_diagonal",
    "compatible",
    "cut_and_paste",
    "cutpaste_labeling",
    "det_exact",
    "detach",
    "enumerate_tilings",
    "ldu_factorize",
    "ldu_step",
    "lift_tiling",
    "minimal_arc_excellent",
    "parse_board",
    "parse_glued",
    "project_tiling",
    "quasi_perfect_matching",
    "rank_det",
    "render_board",
    "render_glue",
    "side_classification",
    "signed_count",
    "solve_integer",
    "superposition",
    "tiling_parity",
    "trace_diagonal",
    "union_labeling",
    "validate",
    "wedge_partition",
]

__version__ = "0.1.0"
