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

Term order inside a trace follows the reading order of a fixed layer
when the vertical layers are displayed side by side: fixed i or fixed j
enumerates the free pair with k outermost; fixed k enumerates row-major
(i outermost, j innermost).  core3d answers every address question
(which cells a layer holds and a minor keeps, whether a layer is valid);
this module only signs and sums.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .core3d import _CELLS, _DEN_MAX, _LAYER_FLAT, _NUM_MAX, _NUM_MIN, _PATHS
from .core3d import Axis, CubicMatrix, Index3, Scalar, ShapeError
from .determinant import _FLAT, _table_sum, det_closed, sign_expansion, sign_paper_def

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


def minor(A: CubicMatrix, at: Index3) -> Scalar:
    """det of the sub-matrix left after deleting the three layers through at."""
    return det_closed(A.delete_sub(at))


def cofactor(A: CubicMatrix, at: Index3, convention: SignConvention = SignConvention.EXPANSION) -> Scalar:
    """Signed minor of the entry at ``at`` under the chosen convention."""
    value = minor(A, at)
    sign = sign_expansion(at) if convention is SignConvention.EXPANSION else sign_paper_def(at)
    return value if sign > 0 else -value


def _contributions(A: CubicMatrix, cells):
    """Yield (at, f, sign, minor, contribution) per flat index f of cells,
    in their order, as ints over A._ints: the minor is scaled by
    _scale**(n-1), the contribution by _scale**n."""
    n = A.order
    ints = A._ints
    minor_table = _FLAT[n - 1]
    for f in cells:
        at, kept = _CELLS[n][f]
        sign = sign_expansion(at)
        minor_value = _table_sum(n - 1, minor_table, [ints[g] for g in kept])
        yield at, f, sign, minor_value, sign * ints[f] * minor_value


def expand(A: CubicMatrix, axis: Axis, index: int) -> ExpansionTrace:
    """One layer expansion with a full per-term trace.

    Every term records sign * entry * minor; the total equals the
    determinant of A.  Each minor is the closed form of the entries left
    after deleting the term's three layers.
    """
    if A.order == 1:
        raise ShapeError("an order-1 matrix has no layers to expand along")
    cells = A._layer_cells(axis, index)
    minor_den = A._scale ** (A.order - 1)
    den = minor_den * A._scale
    terms = []
    total = 0
    for at, f, sign, minor_value, contribution in _contributions(A, cells):
        total += contribution
        entry = Scalar(A._ints[f], A._scale)
        terms.append(TraceTerm(at, entry, sign, Scalar(minor_value, minor_den), Scalar(contribution, den)))
    return ExpansionTrace(axis, index, tuple(terms), Scalar(total, den))


def _expansion_totals(A: CubicMatrix) -> list[Scalar]:
    """``[t.total for t in expand_all(A)]`` without building the traces.

    An entry's term sign * entry * minor is the same in the three
    expansions through it, so each of the n**3 terms is computed once,
    over _CELLS, and every expansion sums its _LAYER_FLAT cells.  The one
    fallback: if _scale**n or any minor or contribution leaves 64 bits,
    return expand_all's totals.  Otherwise only a total can overflow, as
    the same Scalar expand builds, so this raises exactly as expand_all.
    """
    n = A.order
    den = A._scale**n
    if den <= _DEN_MAX:
        terms = []
        for _, _, _, minor_value, contribution in _contributions(A, range(n**3)):
            if not (_NUM_MIN <= minor_value <= _NUM_MAX and _NUM_MIN <= contribution <= _NUM_MAX):
                break
            terms.append(contribution)
        else:
            layers = [_LAYER_FLAT[(n, axis, index)] for axis, index in _PATHS[n]]
            return [Scalar(sum([terms[f] for f in layer]), den) for layer in layers]
    return [trace.total for trace in expand_all(A)]


def _laplace_table() -> dict:
    """det_laplace's recursion, unrolled over flat indices into the
    (order!)**2 rows (sign, f1, ..., fn) it sums per (order, axis, index).

    Built from _LAYER_FLAT, _CELLS and sign_expansion alone, never from
    _FLAT or perm_terms, so the routes stay independent; built at import,
    so no later patch of sign_expansion is captured.
    """
    table = {}
    for (order, axis, index), layer in _LAYER_FLAT.items():  # orders ascending
        minor_rows = table.get((order - 1, axis, 1), ((1,),))  # an order-0 minor is 1: sign 1, no cells
        rows = []
        for f in layer:
            at, kept = _CELLS[order][f]
            s = sign_expansion(at)
            rows += [(s * sign, f, *[kept[g] for g in cells]) for sign, *cells in minor_rows]
        table[(order, axis, index)] = tuple(rows)
    return table


_LAPLACE_FLAT = _laplace_table()


def det_laplace(A: CubicMatrix, axis: Axis = Axis.HORIZONTAL_LAYER, index: int = 1) -> Scalar:
    """Determinant by recursive layer expansion.

    An order-1 matrix is its own determinant (the base case).  Otherwise
    the fixed layer's entries are summed as sign * entry * det of the
    deleted sub-matrix, recursing along the same axis at layer 1 (any
    fixed choice is valid since the expansions agree).  The recursion
    runs once, at import: this sums the signed monomials it reaches.
    """
    A._layer_cells(axis, index)  # validates the layer
    return Scalar(_table_sum(A.order, _LAPLACE_FLAT[(A.order, axis, index)], A._ints), A._scale**A.order)


def expand_all(A: CubicMatrix) -> list[ExpansionTrace]:
    """Every (axis, index) expansion: 3 * order traces, equal totals."""
    return [expand(A, axis, index) for axis, index in _PATHS[A.order]]
