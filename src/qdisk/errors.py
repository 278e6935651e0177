"""Exception hierarchy for qdisk; every structured failure derives from QdiskError."""

from __future__ import annotations


class QdiskError(Exception):
    """Base class for all qdisk failures."""

    code = "error"


class FormatError(QdiskError):
    """Input text does not conform to the board or glue file format."""

    code = "format"


class EmptyBoardError(QdiskError):
    """Board input contains no cells."""

    code = "empty_board"


class NotADiskError(QdiskError):
    """Cell set is not a topological disk (disconnected, enclosed hole, or pinch)."""

    code = "not_a_disk"


class DoubleGluingError(QdiskError):
    """An edge slot appears in more than one gluing."""

    code = "double_gluing"


class NonDiskError(QdiskError):
    """Glued complex fails a disk condition (Euler, boundary circuit, connectivity)."""

    code = "non_disk"


class InteriorDegreeViolation(NonDiskError):
    """An interior vertex is surrounded by a number of squares other than four."""

    code = "interior_degree"


class NotBipartiteError(NonDiskError):
    """Dual graph admits no proper two-coloring."""

    code = "not_bipartite"


class CensusViolation(QdiskError):
    """A counting identity that holds on every valid disk failed."""

    code = "census_violation"


class NotACornerError(QdiskError):
    """Diagonal tracing must start at a vertex belonging to exactly one square."""

    code = "not_a_corner"


class RepeatDetectedError(QdiskError):
    """A diagonal revisited a vertex or square; the complex cannot be a valid disk."""

    code = "repeat_detected"


class NotGoodDiagonalError(QdiskError):
    """Cut-and-paste requires a good diagonal."""

    code = "not_good_diagonal"


class AmbiguousSideError(QdiskError):
    """A region of the disk is reachable from flanks on both sides of a diagonal."""

    code = "ambiguous_side"


class BadLabelingError(QdiskError):
    """Square labeling is not a bijection per color class."""

    code = "bad_labeling"


class InconsistentMapError(QdiskError):
    """Inner labeling does not agree with the cut-and-paste square map."""

    code = "inconsistent_map"


class WitnessInvalidError(QdiskError):
    """Block elimination witness identity fails."""

    code = "witness_invalid"


class MiddleMismatchError(QdiskError):
    """Eliminated middle block differs from the adjacency of the pasted disks."""

    code = "middle_mismatch"


class EntryOutOfRangeError(QdiskError):
    """A factor entry fell outside {-1, 0, 1}."""

    code = "entry_out_of_range"


class NotTriangularError(QdiskError):
    """An assembled factor has a nonzero on the wrong side of its diagonal."""

    code = "not_triangular"


class NonSquareError(QdiskError):
    """Determinant requested for a rectangular matrix."""

    code = "non_square"


class SingleSquareError(QdiskError):
    """Factorization input has an empty color class."""

    code = "single_square"


class NoRationalSolution(QdiskError):
    """Certified negative: the linear system has no rational solution."""

    code = "no_rational_solution"


class NonSquareDiskError(QdiskError):
    """Operation requires equally many black and white squares."""

    code = "non_square_disk"


class NotInRError(QdiskError):
    """Tiling does not respect every wedge of the diagonal."""

    code = "not_in_r"


class InconsistentTilingError(QdiskError):
    """Tiling transfer across cut-and-paste failed a structural check."""

    code = "inconsistent_tiling"
