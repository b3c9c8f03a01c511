"""Exact determinants of cubic (n x n x n) matrices of orders 1 to 3.

Closed-form expansions, a double-permutation oracle, minors and
cofactors under two sign conventions, layer expansions along all three
index directions with per-term traces, seeded random generation, and a
cross-checking harness.  All arithmetic is exact rational; every
comparison in the package is exact equality.

Names load on first use: ``import cubicdet`` imports no submodule, and
the first lookup of a public name or submodule imports the module that
defines it (PEP 562), so a process pays only for the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The one list of public names: each submodule's, in order.  Each
# submodule reads its __all__ from here; _HOME maps a name to its module.
_EXPORTS = {
    "core3d": (
        "NOT_CUBIC_MESSAGE", "ORDER_TOO_HIGH_MESSAGE", "ShapeError", "ScalarOverflowError", "Scalar",
        "ZERO", "ONE", "Index3", "Axis", "CubicMatrix", "SplitMix64", "GenSpec", "random_cubic",
    ),
    "determinant": ("det_closed", "det_permutation", "perm_terms", "sign_expansion", "sign_paper_def"),
    "io": ("ParseError", "parse_text", "serialize_text", "parse_json", "serialize_json"),
    "laplace": (
        "SignConvention", "TraceTerm", "ExpansionTrace", "minor", "cofactor", "expand", "det_laplace", "expand_all",
    ),
    "verify": ("VerifyReport", "BatchSummary", "matrix_digest", "build_report", "cross_check", "batch_verify"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups are plain attribute reads
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
