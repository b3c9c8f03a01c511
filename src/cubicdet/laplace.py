"""Minors, cofactors, and layer expansions of cubic determinants.

A layer expansion fixes one layer (any axis, any index), multiplies each
of its order**2 entries by a sign and by the minor of that entry, and
sums.  With the sign (-1)**(j+k) from :func:`sign_expansion`, every one
of the 3n expansions of an order-n matrix reproduces the determinant;
that invariance is what the verify module cross-checks.

Cofactors come in two conventions, selected by :class:`SignConvention`:

* ``EXPANSION``: sign (-1)**(j+k), the one under which the expansions
  above hold.  Default everywhere.
* ``PAPER_DEF``: the definitional sign (-1)**(i+j+k).  A fixed-i
  expansion built from these cofactors comes out to (-1)**i times the
  determinant, so this convention is exposed for cofactor values only
  and never drives a determinant.

A trace lists its layer's cells in flat order (k, then i, then j).
core3d answers every address question (which cells a layer holds and a
minor keeps, whether a layer is valid); this module only signs and sums.

The sums run as determinant's kernels, each compiled on its second use:
``_MINORS`` per order (all n**3 minors in one call) from
``_MINOR_ROWS``, the Laplace recursion one order down
(``_expansion_rows``) read through each cell's kept cells, built at
import: the one minor formula here; and ``_TOTALS`` per order (all 3n
layer sums of the per-cell terms in one call) from the layer geometry
alone.  The recursion is built from the layer geometry and
sign_expansion alone, never from the closed-form or permutation tables,
so det_laplace, the minors and the totals stay independent of the other
two routes.  The minor kernel holds no expansion sign.  det_laplace,
expand and the cross-check's totals read each entry's sign from
``_signs(n)``, the order's n**3 signs in flat order: built by calling
whatever sign_expansion this module names at call time, kept with that
function object, and rebuilt when the name is bound to another one, so
a patched sign shows in the next call at the cost of one identity check
per call, not one sign_expansion call per entry.

One _MINORS call fills a matrix's per-cell memo (see _memo), which
every sum here reads.  An entry's term sign * entry * minor is the same
in the three expansions through it, so expand keeps each term there
too, reused only while the sign read at call time is the term's sign:
the 3n expansions build n**3 terms.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .core3d import _CELLS, _DEN_MAX, _LAYER_FLAT, _NUM_MAX, _NUM_MIN, _PATHS
from .core3d import Axis, CubicMatrix, Index3, Scalar, ShapeError
from .determinant import _Kernels, det_closed, sign_expansion, sign_paper_def

__all__ = [
    "SignConvention",
    "TraceTerm",
    "ExpansionTrace",
    "minor",
    "cofactor",
    "expand",
    "det_laplace",
    "expand_all",
]


class SignConvention(Enum):
    """Which sign multiplies a minor to make a cofactor."""

    EXPANSION = "expansion"
    PAPER_DEF = "paper-def"


class TraceTerm(namedtuple("TraceTerm", "at entry sign minor_value contribution")):
    """One contribution of a layer expansion: sign * entry * minor."""

    __slots__ = ()
    at: Index3
    entry: Scalar
    sign: int
    minor_value: Scalar
    contribution: Scalar


class ExpansionTrace(namedtuple("ExpansionTrace", "axis index terms total")):
    """All order**2 terms of one layer expansion, plus their sum."""

    __slots__ = ()
    axis: Axis
    index: int
    terms: tuple[TraceTerm, ...]
    total: Scalar


# Per order, each flat cell's minor in flat order, as (sign, g1, ...,
# g(n-1)) rows over the order-n matrix's own flat cells.
_MINOR_ROWS = {}


def _expansion_rows(order: int) -> tuple:
    """The order-n determinant as (sign, f1, ..., fn) rows, by the
    recursion det_laplace sums: along h:1, each cell's sign_expansion
    times that cell's _MINOR_ROWS (an order-0 determinant is 1)."""
    if order == 0:
        return ((1,),)
    table = _CELLS[order]
    return tuple(
        (sign_expansion(table[f][0]) * sign, f, *cells)
        for f in _LAYER_FLAT[(order, Axis.HORIZONTAL_LAYER, 1)]
        for sign, *cells in _MINOR_ROWS[order][f]
    )


def _fill_minor_rows() -> None:
    """Orders ascending, each cell's minor: the order-(n-1) _expansion_rows
    read through its kept cells, signs read once, at import."""
    for order in (1, 2, 3):
        rows = _expansion_rows(order - 1)
        _MINOR_ROWS[order] = tuple(
            tuple((sign, *[kept[g] for g in cells]) for sign, *cells in rows) for _, kept in _CELLS[order]
        )


_fill_minor_rows()

# Per order, every flat cell's minor in flat order, as one kernel over
# A._ints that returns them as a tuple of ints over A._scale**(n-1).
_MINORS = _Kernels(_MINOR_ROWS.__getitem__, many=True)

# Per order, the 3n layer sums in _PATHS order, as one kernel over a list
# of n**3 per-cell values: each layer's rows are (1, f) for its cells.
_TOTALS = _Kernels(
    lambda order: tuple(tuple((1, f) for f in _LAYER_FLAT[(order, *path)]) for path in _PATHS[order]), many=True
)


# Per order: (the sign_expansion the signs were read from, the n**3 signs
# in flat order); see _signs.
_SIGNS = {}


def _signs(n: int) -> tuple:
    """The order-n expansion signs in flat order, from whatever
    sign_expansion this module names now: kept with that function, and
    rebuilt when the name is bound to another (a patched sign shows in
    the next call).  cofactor reads its one sign directly."""
    sign = sign_expansion
    held = _SIGNS.get(n)
    if held is None or held[0] is not sign:
        held = _SIGNS[n] = (sign, tuple([sign(at) for at, _ in _CELLS[n]]))
    return held[1]


def _memo(A: CubicMatrix) -> tuple:
    """A's per-cell memo (minors, terms), filled on first request: the
    n**3 minors from one _MINORS call, as ints, which never overflow (a
    Scalar is built only where a value is reported), and per flat cell
    the TraceTerm that expand last built for it, or None."""
    memo = A._cell_memo
    if memo is None:
        memo = A._cell_memo = (_MINORS[A.order](A._ints), [None] * len(A._ints))
    return memo


def minor(A: CubicMatrix, at: Index3) -> Scalar:
    """det of the sub-matrix left after deleting the three layers through at.

    Computed by that definition on every call, not read from the memo
    that expand and cofactor share: the benchmark's traced reference pass
    (bench/run.py) reaches CubicMatrix.delete_sub only through this
    function and fails when nothing calls it.  Once that pass calls
    delete_sub itself, this should read _memo too (ROADMAP item 4.B).
    """
    return det_closed(A.delete_sub(at))


def cofactor(A: CubicMatrix, at: Index3, convention: SignConvention = SignConvention.EXPANSION) -> Scalar:
    """Signed minor of the entry at ``at`` under the chosen convention,
    the minor read from A's per-cell memo (see _memo): the minor_value of
    the cell's kept term, whatever its sign, or else built from the int."""
    f = A._minor_flat(at)
    if not isinstance(convention, SignConvention):
        raise TypeError(f"convention must be a SignConvention, got {convention!r}")
    minors, kept = _memo(A)
    value = Scalar(minors[f], A._scale ** (A.order - 1)) if kept[f] is None else kept[f].minor_value
    at = _CELLS[A.order][f][0]
    sign = sign_expansion(at) if convention is SignConvention.EXPANSION else sign_paper_def(at)
    return value if sign > 0 else -value


def expand(A: CubicMatrix, axis: Axis, index: int) -> ExpansionTrace:
    """One layer expansion with a full per-term trace.

    Every term records sign * entry * minor; the total equals the
    determinant of A.  The signs are read at call time (see _signs).
    The minors come from A's per-cell memo (see _memo), and so does each
    term when the memo holds one with that sign; otherwise the term is
    built, and kept there, its entry read as CubicMatrix.get reads it
    (the Scalar a parsed or constructed matrix keeps).  A term whose
    minor or contribution leaves 64 bits raises and is never kept.
    """
    n = A.order
    if n == 1:
        raise ShapeError("an order-1 matrix has no layers to expand along")
    cells = A._layer_cells(axis, index)
    minors, kept = _memo(A)
    ints = A._ints
    table = _CELLS[n]
    signs = _signs(n)
    minor_den = A._scale ** (n - 1)
    den = A._scale**n
    terms = []
    total = 0
    for f in cells:
        sign = signs[f]
        contribution = sign * ints[f] * minors[f]
        total += contribution
        term = kept[f]
        if term is None or term.sign != sign:
            minor_value = Scalar(minors[f], minor_den)
            term = kept[f] = TraceTerm(table[f][0], A._entry(f), sign, minor_value, Scalar(contribution, den))
        terms.append(term)
    return ExpansionTrace(axis, index, tuple(terms), Scalar(total, den))


def _expansion_totals(A: CubicMatrix) -> list[Scalar]:
    """``[t.total for t in expand_all(A)]`` without building the traces.

    An entry's term sign * entry * minor is the same in the three
    expansions through it, so each of the n**3 terms is computed once,
    over _CELLS, and one _TOTALS call sums every expansion's cells.  As ints
    over A._ints, a minor is scaled by _scale**(n-1) and a contribution
    by _scale**n.  The minors are the ones expand and cofactor read,
    from A's per-cell memo (see _memo).  The signs are read at call
    time, from the table expand reads (see _signs).

    The one fallback: if _scale**n or any minor or contribution leaves
    64 bits, return expand_all's totals.  Otherwise only a total can
    overflow, as the same Scalar expand builds, so this raises exactly
    as expand_all.
    """
    n = A.order
    den = A._scale**n
    if den <= _DEN_MAX:
        ints = A._ints
        minors = _memo(A)[0]
        terms = [sign * v * m for sign, v, m in zip(_signs(n), ints, minors)]
        if _NUM_MIN <= min(minors) and max(minors) <= _NUM_MAX and _NUM_MIN <= min(terms) and max(terms) <= _NUM_MAX:
            return [Scalar(total, den) for total in _TOTALS[n](terms)]
    return [trace.total for trace in expand_all(A)]


def det_laplace(A: CubicMatrix, axis: Axis = Axis.HORIZONTAL_LAYER, index: int = 1) -> Scalar:
    """Determinant by recursive layer expansion.

    The fixed layer's entries are summed as sign * entry * minor, the
    signs read at call time (see _signs), each minor the order-(n-1)
    determinant by the same recursion along horizontal layer 1 (any
    fixed choice is valid since the expansions agree), from A's per-cell
    memo (see _memo).  An order-1 matrix is its own determinant (the base case).
    """
    cells = A._layer_cells(axis, index)  # validates the layer
    n, ints, signs = A.order, A._ints, _signs(A.order)
    minors = _memo(A)[0] if n > 1 else (1,)  # _MINORS has no order-1 kernel: its rows name no cell
    return Scalar(sum([signs[f] * ints[f] * minors[f] for f in cells]), A._scale**n)


def expand_all(A: CubicMatrix) -> list[ExpansionTrace]:
    """Every (axis, index) expansion: 3 * order traces, equal totals."""
    return [expand(A, axis, index) for axis, index in _PATHS[A.order]]
