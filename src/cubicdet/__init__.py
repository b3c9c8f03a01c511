"""Exact determinants of cubic (n x n x n) matrices of orders 1 to 3.

Closed-form expansions, a double-permutation oracle, minors and
cofactors under two sign conventions, layer expansions along all three
index directions with per-term traces, seeded random generation, and a
cross-checking harness.  All arithmetic is exact rational; every
comparison in the package is exact equality.
"""

from .core3d import (
    NOT_CUBIC_MESSAGE,
    ONE,
    ORDER_TOO_HIGH_MESSAGE,
    ZERO,
    Axis,
    CubicMatrix,
    Index3,
    Scalar,
    ScalarOverflowError,
    ShapeError,
)
from .determinant import (
    SignedTerm,
    det_closed,
    det_permutation,
    perm_terms,
    sign_expansion,
    sign_paper_def,
    signed_terms,
)
from .io import ParseError, parse_json, parse_text, serialize_json, serialize_text
from .laplace import (
    ExpansionTrace,
    SignConvention,
    TraceTerm,
    cofactor,
    det_laplace,
    expand,
    expand_all,
    minor,
)
from .verify import (
    BatchSummary,
    GenSpec,
    SplitMix64,
    VerifyReport,
    batch_verify,
    build_report,
    cross_check,
    matrix_digest,
    random_cubic,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "BatchSummary",
    "CubicMatrix",
    "ExpansionTrace",
    "GenSpec",
    "Index3",
    "NOT_CUBIC_MESSAGE",
    "ONE",
    "ORDER_TOO_HIGH_MESSAGE",
    "ParseError",
    "Scalar",
    "ScalarOverflowError",
    "ShapeError",
    "SignConvention",
    "SignedTerm",
    "SplitMix64",
    "TraceTerm",
    "VerifyReport",
    "ZERO",
    "batch_verify",
    "build_report",
    "cofactor",
    "cross_check",
    "det_closed",
    "det_laplace",
    "det_permutation",
    "expand",
    "expand_all",
    "matrix_digest",
    "minor",
    "parse_json",
    "parse_text",
    "perm_terms",
    "random_cubic",
    "serialize_json",
    "serialize_text",
    "sign_expansion",
    "sign_paper_def",
    "signed_terms",
    "__version__",
]
