"""Exact scalars, the dense cubic (n x n x n) matrix container, and the
seeded generator that names a matrix by (order, seed, range).

Entries are addressed by three 1-based indices (i, j, k):

* ``i`` picks the horizontal layer (the row direction),
* ``j`` picks the vertical page (the column direction),
* ``k`` picks the vertical layer (the depth slice; layers are displayed
  side by side, left to right, in the text format).

Internally the entries live in one flat tuple in k-major order (k, then
i, then j).  That layout is also the canonical serialization order used
by the io module and the consumption order of the random generator.

``_flat`` is the one definition of that order.  The layer geometry is
derived from it here alone, in three tables: ``_CELLS`` (the addresses
sorted by ``_flat``, each with the cells its minor keeps: those that
share no coordinate with it), ``_LAYER_FLAT`` (each layer's cells: those
whose fixed coordinate equals the index) and ``_PATHS`` (the h, p, l
order of the 3n expansions).  ``_nested`` turns flat cells back into
nested layers.  ``CubicMatrix._layer_cells`` checks every layer.  The
tables are keyed by ``Axis``, which hashes by identity: its members are
singletons, and Enum's own hash is a Python method each lookup calls.

A matrix holds its entries as ints over one common denominator.  One
built by the constructor also keeps, in ``_entries``, the entry Scalars
it was given (see CubicMatrix), so a parsed matrix's Scalars are not
built a second time, with a second gcd, when they are read out.

Every value here is immutable after construction and every operation
is pure: methods return new objects and never change the value of their
inputs, so values can be shared freely between threads or tasks.  The
one stateful object is the generator ``SplitMix64``: ``outputs(k)``
yields k outputs and advances it, and ``next`` takes one; a stream
belongs to one caller.  ``_mix(state, count)`` is the one function that
writes the mix: one pass of up to 64 outputs, each in its own 128-bit
lane of one int, whose lane constants are built per count on first use,
not at import.  ``outputs`` runs it pass by pass, and ``random_cubic``
runs it once, over a fresh state, with no generator object.

``swap_layers`` permutes ``_ints`` through one ``operator.itemgetter``
per (order, axis, a, b), built on first use from ``_LAYER_FLAT`` and kept
in ``_SWAPS``: the cell order of the swapped matrix, in one C call.

The one private mutable slot is a
matrix's per-cell memo (``_cell_memo``), which the laplace module fills
on first read, in one call, with every cell's minor, which depends on
the matrix value alone, and a slot per cell for its last trace term,
which expand reuses only while the sign it reads at call time is the
term's; so a value read from the memo is the value a fresh, equal
matrix would give.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from enum import Enum
from functools import lru_cache
from itertools import product
from operator import itemgetter

__all__ = [
    "NOT_CUBIC_MESSAGE",
    "ORDER_TOO_HIGH_MESSAGE",
    "ShapeError",
    "ScalarOverflowError",
    "Scalar",
    "ZERO",
    "ONE",
    "Index3",
    "Axis",
    "CubicMatrix",
    "SplitMix64",
    "GenSpec",
    "random_cubic",
]

# Wording used when input dimensions cannot form a cubic matrix or the
# order exceeds what the determinant formulas cover.
NOT_CUBIC_MESSAGE = "A is not square, cannot calculate the determinant"
ORDER_TOO_HIGH_MESSAGE = "A is higher than the third order, hence can not be calculated."


class ShapeError(ValueError):
    """Input dimensions cannot form (or index into) a cubic matrix."""


class ScalarOverflowError(OverflowError):
    """A scalar's reduced components left the 64-bit range."""


_NUM_MIN = -(2**63)
_NUM_MAX = 2**63 - 1
_DEN_MAX = 2**64 - 1


class Scalar:
    """An exact rational with bounded components.

    The value is always in canonical form: gcd(|num|, den) == 1 and
    den >= 1.  The numerator must fit a signed 64-bit integer and the
    denominator an unsigned one; any arithmetic whose reduced result
    leaves that range raises :class:`ScalarOverflowError` instead of
    wrapping.  (Values are computed exactly first, so "overflow" means
    the true result is unrepresentable, never that a wrong value was
    produced.)

    Instances are immutable by convention: nothing in this package
    assigns to ``num``/``den`` after construction.

    >>> Scalar(2, 4)
    Scalar(1, 2)
    >>> Scalar(3, -6)
    Scalar(-1, 2)
    >>> print(Scalar(7) * Scalar(1, 7))
    1
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if type(num) is not int or type(den) is not int:  # fast path for plain ints
            if isinstance(num, bool) or isinstance(den, bool) or not isinstance(num, int) or not isinstance(den, int):
                raise TypeError(f"Scalar components must be int, got {num!r}/{den!r}")
        if den == 0:
            raise ZeroDivisionError("Scalar denominator is zero")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        if not _NUM_MIN <= num <= _NUM_MAX:
            raise ScalarOverflowError(f"numerator {num} outside the signed 64-bit range")
        if den > _DEN_MAX:
            raise ScalarOverflowError(f"denominator {den} outside the unsigned 64-bit range")
        self.num = num
        self.den = den

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(self.num * other.num, self.den * other.den)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.num, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return self.num != 0

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        if self.den == 1:
            return f"Scalar({self.num})"
        return f"Scalar({self.num}, {self.den})"


ZERO = Scalar(0)
ONE = Scalar(1)


def _to_scalar(value: object) -> Scalar:
    """Coerce an entry given as int or Scalar; reject everything else."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Scalar(value)
    raise TypeError(f"matrix entries must be Scalar or int, got {value!r}")


class Index3(namedtuple("Index3", "i j k")):
    """A 1-based entry address (horizontal layer i, vertical page j, vertical layer k)."""

    __slots__ = ()
    i: int
    j: int
    k: int

    def __new__(cls, i: int, j: int, k: int):
        if any(isinstance(x, bool) or not isinstance(x, int) for x in (i, j, k)):
            raise TypeError(f"entry index components must be ints, got ({i!r},{j!r},{k!r})")
        if i < 1 or j < 1 or k < 1:
            raise IndexError(f"entry index ({i},{j},{k}) must be 1-based (components >= 1)")
        return tuple.__new__(cls, (i, j, k))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # namedtuple's _make and _replace skip __new__

    def __str__(self) -> str:
        return f"({self.i},{self.j},{self.k})"


class Axis(Enum):
    """One of the three index directions of a cubic matrix.

    The single-letter values are the CLI spellings: h fixes i (a
    horizontal layer), p fixes j (a vertical page), l fixes k (a
    vertical layer).
    """

    HORIZONTAL_LAYER = "h"
    VERTICAL_PAGE = "p"
    VERTICAL_LAYER = "l"

    __hash__ = object.__hash__

    @classmethod
    def from_letter(cls, letter: str) -> "Axis":
        try:
            return cls(letter)
        except ValueError:
            raise ValueError(f"unknown axis {letter!r}, expected one of h, p, l") from None

    @property
    def letter(self) -> str:
        return self.value


def _index3(at) -> Index3:
    """The entry address ``at`` as an Index3: an Index3, or any three
    components, which are checked as an Index3 is.  No order bounds it."""
    if type(at) is not Index3:
        try:
            i, j, k = at
        except (TypeError, ValueError):
            raise TypeError(f"entry address must be an Index3 or three ints, got {at!r}") from None
        at = Index3(i, j, k)
    return at


def _flat(order: int, i: int, j: int, k: int) -> int:
    """The flat index of the entry at (i, j, k): k-major, then i, then j."""
    return (k - 1) * order * order + (i - 1) * order + (j - 1)


def _cell_table(n: int) -> tuple:
    """Per flat index of order n: the cell's address and the flat indices
    its minor keeps.  Those are the cells that share no coordinate with
    it; in flat order they are the minor's own flat order."""
    ats = sorted(product(range(1, n + 1), repeat=3), key=lambda at: _flat(n, *at))
    return tuple(
        (Index3(i, j, k), tuple(g for g, (si, sj, sk) in enumerate(ats) if si != i and sj != j and sk != k))
        for i, j, k in ats
    )


# Axis iterates h, p, l, the coordinate order i, j, k; hot loops iterate
# this tuple, not the slower Enum.
_AXES = tuple(Axis)

# Per order, indexed by flat index: (address, kept cells).  Signs are the caller's.
_CELLS = {n: _cell_table(n) for n in (1, 2, 3)}

# The 3n (axis, index) layer expansions of each order, in expand_all order.
_PATHS = {order: tuple((axis, index) for axis in _AXES for index in range(1, order + 1)) for order in (1, 2, 3)}

# Per (order, axis, index), orders ascending: a layer's flat indices, the
# cells whose fixed coordinate equals index, in flat order (its trace
# order).  Layers a and b of one axis list their cells in the same order
# of the two free coordinates, so zipping them pairs each cell with its
# image under the swap.
_LAYER_FLAT = {
    (n, axis, index): tuple(f for f, (at, _) in enumerate(_CELLS[n]) if at[_AXES.index(axis)] == index)
    for n, paths in _PATHS.items()
    for axis, index in paths
}


# Per (order, axis, a, b) with int a != b: the itemgetter that reads
# _ints in the swapped matrix's flat order.  Filled by swap_layers.
_SWAPS = {}


def _nested(n: int, cells: list) -> list:
    """An order-n matrix's cells, given in flat order, as nested lists
    indexed [k-1][i-1][j-1]."""
    rows = [cells[f : f + n] for f in range(0, n**3, n)]
    return [rows[r : r + n] for r in range(0, n * n, n)]


class CubicMatrix:
    """A dense order-n cubic matrix (n in {1, 2, 3}) of exact scalars.

    Construct from vertical-layer blocks: ``layers[k-1][i-1][j-1]`` is
    the entry at (i, j, k).  Plain ints are accepted and coerced to
    :class:`Scalar`.

    >>> A = CubicMatrix(2, [[[4, -3], [-1, 5]], [[-2, 4], [-7, 3]]])
    >>> print(A.get(Index3(2, 1, 2)))
    -7

    The entries are held as integers over one common denominator:
    ``_ints[f] / _scale`` is the entry at flat index f, in lowest terms
    ``gcd(_scale, *_ints) == 1``, so ``_scale`` is the lcm of the
    reduced denominators and equal matrices have equal fields.  Every
    determinant monomial is a product of exactly ``order`` entries, so
    the determinant is the one of ``_ints`` divided by
    ``_scale**order``, and the determinant routes run on plain ints.

    The constructor also keeps the entries it was given, as Scalars in
    flat order, in ``_entries``; a Scalar entry is read as it is, and
    only other entries are coerced.  ``_reduced`` sets ``_entries`` to
    None.  ``get``, ``layers`` and ``expand`` read an entry from
    ``_entries`` when it is set, and otherwise build it from the ints,
    so either way it equals ``Scalar(_ints[f], _scale)``.  ``==``,
    ``hash`` and the memo read only the ints.

    >>> B = A.scale_layer(Axis.VERTICAL_LAYER, 2, Scalar(1, 2))
    >>> B._scale, B._ints
    (2, (8, -6, -2, 10, -2, 4, -7, 3))
    >>> print(B[2, 1, 2])
    -7/2
    """

    __slots__ = ("order", "_scale", "_ints", "_entries", "_cell_memo")

    def __init__(self, order: int, layers):
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise ShapeError(f"order must be a positive integer, got {order!r}")
        if order > 3:
            raise ShapeError(f"order {order} not supported: {ORDER_TOO_HIGH_MESSAGE}")
        blocks = list(layers)
        if len(blocks) != order:
            raise ShapeError(
                f"expected {order} vertical layers, got {len(blocks)}: {NOT_CUBIC_MESSAGE}"
            )
        cells = []
        for k, block in enumerate(blocks, start=1):
            rows = list(block)
            if len(rows) != order:
                raise ShapeError(
                    f"vertical layer {k} has {len(rows)} rows, expected {order}: {NOT_CUBIC_MESSAGE}"
                )
            for i, row in enumerate(rows, start=1):
                values = list(row)
                if len(values) != order:
                    raise ShapeError(
                        f"vertical layer {k} row {i} has {len(values)} entries, "
                        f"expected {order}: {NOT_CUBIC_MESSAGE}"
                    )
                cells.extend([v if type(v) is Scalar else _to_scalar(v) for v in values])
        # The lcm of reduced denominators leaves no common factor to divide out.
        self.order = order
        self._scale = scale = math.lcm(*[c.den for c in cells])
        self._ints = tuple([c.num * (scale // c.den) for c in cells])
        self._entries = tuple(cells)
        self._cell_memo = None

    @classmethod
    def _reduced(cls, order: int, scale: int, ints, changed=()) -> "CubicMatrix":
        """The matrix of entries ``ints[f] / scale`` in lowest terms.  The
        first entry of ``changed``, in order, whose reduced value leaves
        the bounds raises ScalarOverflowError as Scalar does; an entry
        whose int and ``scale`` are in bounds cannot, and is skipped.
        At ``scale == 1`` (an integer matrix, as every generated matrix
        and its layer transforms are) the ints are already in lowest
        terms, so no gcd is taken."""
        if scale != 1:
            g = math.gcd(scale, *ints)
            if g > 1:
                scale //= g
                ints = [v // g for v in ints]
        wide = scale > _DEN_MAX
        for f in changed:
            if wide or not _NUM_MIN <= ints[f] <= _NUM_MAX:
                Scalar(ints[f], scale)
        m = object.__new__(cls)
        m.order = order
        m._scale = scale
        m._ints = tuple(ints)
        m._entries = None
        m._cell_memo = None
        return m

    def _entry_flat(self, at) -> int:
        """The flat index of the entry address ``at`` (see _index3)."""
        at = at if type(at) is Index3 else _index3(at)
        n = self.order
        if at.i > n or at.j > n or at.k > n:
            raise IndexError(f"entry index {at} out of range for an order-{n} matrix")
        return _flat(n, *at)

    def _minor_flat(self, at) -> int:
        """``_entry_flat(at)`` for an entry that has a minor (order >= 2)."""
        if self.order == 1:
            raise ShapeError("an order-1 matrix has no sub-matrices to delete down to")
        return self._entry_flat(at)

    def _entry(self, f: int) -> Scalar:
        """The entry at flat index f: the kept Scalar, or one built from the int."""
        entries = self._entries
        return entries[f] if entries is not None else Scalar(self._ints[f], self._scale)

    def get(self, at: Index3) -> Scalar:
        return self._entry(self._entry_flat(at))

    __getitem__ = get

    def layers(self) -> list[list[list[Scalar]]]:
        """Entries as nested lists indexed [k-1][i-1][j-1]."""
        entries = self._entries
        cells = list(entries) if entries is not None else [Scalar(v, self._scale) for v in self._ints]
        return _nested(self.order, cells)

    def scale(self, c) -> "CubicMatrix":
        """Entrywise scalar multiple."""
        c = _to_scalar(c)
        ints = [c.num * v for v in self._ints]
        return CubicMatrix._reduced(self.order, c.den * self._scale, ints, range(len(ints)))

    def _layer_cells(self, axis: Axis, index: int) -> tuple[int, ...]:
        """The flat indices of layer ``index`` along ``axis``, in trace order."""
        if type(index) is not int and (isinstance(index, bool) or not isinstance(index, int)):
            raise TypeError(f"layer index must be an int, got {index!r}")
        cells = _LAYER_FLAT.get((self.order, axis, index))
        if cells is None:
            if not isinstance(axis, Axis):
                raise TypeError(f"axis must be an Axis, got {axis!r}")
            raise IndexError(f"{axis.letter}-layer index {index} out of range for an order-{self.order} matrix")
        return cells

    def delete_sub(self, at: Index3) -> "CubicMatrix":
        """The order-(n-1) matrix left after removing horizontal layer
        at.i, vertical page at.j, and vertical layer at.k.  Residual
        layers keep their relative order."""
        _, kept = _CELLS[self.order][self._minor_flat(at)]
        ints = self._ints
        return CubicMatrix._reduced(self.order - 1, self._scale, [ints[f] for f in kept])

    def scale_layer(self, axis: Axis, index: int, c) -> "CubicMatrix":
        """Multiply every entry whose axis-coordinate equals index by c."""
        layer = self._layer_cells(axis, index)
        c = _to_scalar(c)
        # Over the common denominator scale * c.den, the layer's entries
        # gain the factor c.num and the others c.den.
        ints = list(self._ints) if c.den == 1 else [c.den * v for v in self._ints]
        for f in layer:
            ints[f] = c.num * self._ints[f]
        # The factors 0 and 1 cannot grow an entry, so no bound is checked;
        # -1 can: -(-2**63) leaves them.
        changed = () if c.den == 1 and 0 <= c.num <= 1 else layer
        return CubicMatrix._reduced(self.order, c.den * self._scale, ints, changed)

    def swap_layers(self, axis: Axis, a: int, b: int) -> "CubicMatrix":
        """Exchange layers a and b along the given axis."""
        key = (self.order, axis, a, b)
        swap = _SWAPS.get(key) if type(a) is int and type(b) is int else None  # True == 1 would find 1's map
        if swap is None:
            cells_a, cells_b = self._layer_cells(axis, a), self._layer_cells(axis, b)
            if a == b:
                return self
            source = list(range(len(self._ints)))
            for fa, fb in zip(cells_a, cells_b):
                source[fa], source[fb] = fb, fa
            swap = _SWAPS[key] = itemgetter(*source)
        return CubicMatrix._reduced(self.order, self._scale, swap(self._ints))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CubicMatrix):
            return NotImplemented
        return (self.order, self._scale, self._ints) == (other.order, other._scale, other._ints)

    def __hash__(self) -> int:
        return hash((self.order, self._scale, self._ints))

    def __repr__(self) -> str:
        layers = self.layers()
        body = "; ".join(
            " | ".join(" ".join(str(v) for v in block[i]) for block in layers)
            for i in range(self.order)
        )
        return f"<CubicMatrix order={self.order}: {body}>"


class SplitMix64:
    """The splitmix64 sequence: a 64-bit counter mixed through two
    multiply-xorshift rounds.  Tiny, dependency-free, and stable across
    languages, which is all the golden files need."""

    _MASK = (1 << 64) - 1
    _GAMMA = 0x9E3779B97F4A7C15
    _MIX1 = 0xBF58476D1CE4E5B9
    _MIX2 = 0x94D049BB133111EB

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next(self) -> int:
        return next(self.outputs(1))

    def outputs(self, k: int):
        """Yield the next k outputs, advancing the state before each:
        one _mix pass per 64 outputs, so outputs(10**6) builds no
        million-lane int."""
        state = self.state
        while k > 0:
            count = min(k, 64)
            states, outs = _mix(state, count)
            for self.state, out in zip(states, outs):
                yield out
            state = states[-1]
            k -= count


def _mix(state: int, count: int) -> tuple:
    """The next ``count`` (1 to 64) states after ``state`` and their
    outputs, as two tuples, from one pass.

    The pass mixes every output at once, SIMD within a register: output
    i lives in bits 128i to 128i+127 (its lane) of one int, and each
    multiply or xorshift works on every lane.  A product of two 64-bit
    values fits its lane, but a right shift pulls bits down from the
    lane above, so every xorshift is masked back to each lane's low 64
    bits before it is multiplied."""
    ones, mask, steps, unpack = _lanes(count)
    s = (state * ones + steps) & mask
    z = ((s ^ (s >> 30)) & mask) * SplitMix64._MIX1 & mask
    z = ((z ^ (z >> 27)) & mask) * SplitMix64._MIX2 & mask
    size = 16 * count
    return unpack(s.to_bytes(size, "little")), unpack((z ^ (z >> 31)).to_bytes(size, "little"))


@lru_cache(maxsize=None)
def _lanes(count: int) -> tuple:
    """The constants of a pass over ``count`` lanes, built on first use
    (every CLI command imports this module): 1 in each lane, 2**64 - 1 in
    each lane, lane i's step (i + 1) * gamma mod 2**64, and the unpacker
    of each lane's low 64 bits from the int's 16 * count little-endian
    bytes."""
    ones = sum([1 << 128 * i for i in range(count)])
    steps = sum([((i + 1) * SplitMix64._GAMMA & SplitMix64._MASK) << 128 * i for i in range(count)])
    return ones, ones * SplitMix64._MASK, steps, struct.Struct("<" + "Q8x" * count).unpack


class GenSpec(namedtuple("GenSpec", "order seed range")):
    """Recipe for one reproducible random matrix.

    Entries are drawn uniformly (up to modulo bias, which is irrelevant
    for identity checks) from the integers in [-range, range].
    """

    __slots__ = ()
    order: int
    seed: int
    range: int

    def __new__(cls, order: int, seed: int, range: int):
        if not (type(order) is type(seed) is type(range) is int) and any(
            isinstance(x, bool) or not isinstance(x, int) for x in (order, seed, range)
        ):
            raise TypeError(f"order, seed and range must be ints, got ({order!r},{seed!r},{range!r})")
        if order not in (1, 2, 3):
            raise ValueError(f"order must be 1, 2, or 3, got {order!r}")
        if not 0 <= seed <= SplitMix64._MASK:
            raise ValueError(f"seed must fit in 64 bits, got {seed!r}")
        if range < 1:
            raise ValueError(f"range must be >= 1, got {range!r}")
        return tuple.__new__(cls, (order, seed, range))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # namedtuple's _make and _replace skip __new__

    def __str__(self) -> str:
        """The options of ``cubicdet gen`` that reproduce this matrix."""
        return f"--order {self.order} --seed {self.seed} --range {self.range}"


def random_cubic(spec: GenSpec) -> CubicMatrix:
    """The matrix named by spec: the first order**3 splitmix64 outputs
    of spec.seed (one _mix pass), consumed in canonical (k-major) cell
    order, each mapped to (x mod (2R+1)) - R.

    Entries lie in [-R, R], so while R fits a signed 64-bit integer none
    can leave the bounds and no cell is checked; past that, every cell
    is, in order, and the first that leaves them raises Scalar's error."""
    span, r = 2 * spec.range + 1, spec.range
    ints = [x % span - r for x in _mix(spec.seed, spec.order**3)[1]]
    return CubicMatrix._reduced(spec.order, 1, ints, () if r <= _NUM_MAX else range(len(ints)))
