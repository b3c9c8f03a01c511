"""Closed-form cubic determinants and the double-permutation oracle.

Two independent evaluation routes live here:

* :func:`det_closed` evaluates hard-coded term tables (1, 4, and 36
  terms for orders 1, 2, 3) transcribed literally, term for term, from
  the defining expansions.
* :func:`det_permutation` enumerates all pairs of permutations (sigma,
  tau) of {1..n} at run time and sums parity-signed products of the
  entries a[i, sigma(i), tau(i)].  Nothing is shared with the tables,
  so agreement between the two routes is a real check, not a tautology.
  The cross-check's law checks compare the same sum with a prediction
  on ints (``_permutation_equals``), without building a Scalar.

Kernels
-------
Every table of (sign, f1, ..., fn) rows over flat cells is evaluated by
a kernel, a function of ``a``, the matrix's ``_ints``.  A
:class:`_Kernels` cache chooses the kernel by how often this process
has looked its key up:

* The first time, a plain loop over the rows: a one-shot CLI command
  evaluates most of its kernels once, and compiling one costs far more
  than one loop over its rows.
* The second time, the table written out as one straight-line
  expression ``+a1*a5*a9-a2*...`` over local names, one per flat cell,
  compiled with ``exec`` and kept.  It binds the names by one tuple
  unpack (``a0, a1, ..., aM, = a[:M+1]``, aM the highest cell the rows
  name, so ``a`` may run past it): Python compiles plain names faster
  than ``a[f]`` subscripts, and a key used twice is likely used often.

Both sum exactly their table: a sign other than +1 or -1 is a literal
coefficient.  Nothing compiles at import.  Each route's kernel is built
from that route's own table alone (``_FLAT`` here, ``perm_terms`` for
the oracle, the recursion's minor rows in laplace), so sharing the
kernels couples the routes no more than sharing ``+`` and ``*`` does.

Sign functions
--------------
Both layer-expansion sign conventions are defined here so the rest of
the package can reconcile them:

* :func:`sign_expansion` returns (-1)**(j+k).  This is the intrinsic
  coefficient sign of the entry at (i, j, k) in the closed forms: the
  row permutation contributes (-1)**(i+j), the depth permutation
  (-1)**(i+k), and the i-parities cancel.  Every determinant-valued
  expansion in this package uses it.
* :func:`sign_paper_def` returns (-1)**(i+j+k), the definitional
  cofactor sign.  A fixed-i layer expansion built on it yields
  (-1)**i times the determinant, so it is exposed for cofactors only.

The identity sign_expansion(at) == sign_paper_def(at) * (-1)**at.i
holds for every index triple.

A third convention floating around, (-1)**(1 + x1 + i + j) with x1 the
fixed layer, is deliberately not implemented: it contradicts the worked
expansions whenever the fixed layer index is even.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .core3d import CubicMatrix, Index3, Scalar, _flat, _index3

__all__ = [
    "det_closed",
    "det_permutation",
    "perm_terms",
    "sign_expansion",
    "sign_paper_def",
]

# Term tables, written as the paper writes the closed forms: each term
# a sign and its entries a<i><j><k>, i ascending.  Transcribed literally;
# _terms reads them into (sign, ((i, j, k), ...)) rows and derives nothing.


def _terms(text: str) -> tuple:
    sign, index = {"+": 1, "-": -1}, {"1": 1, "2": 2, "3": 3}
    return tuple(
        (sign[term[0]], tuple([(index[at[0]], index[at[1]], index[at[2]]) for at in term[2:].split("a")]))
        for term in text.split()
    )


_TERMS_1 = _terms("+a111")

_TERMS_2 = _terms("+a111a222 -a112a221 -a121a212 +a122a211")

_TERMS_3 = _terms(
    """
    +a111a222a333 -a111a232a323 -a111a223a332 +a111a233a322
    -a112a221a333 +a112a223a331 +a112a231a323 -a112a233a321
    +a113a221a332 -a113a222a331 -a113a231a322 +a113a232a321
    -a121a212a333 +a121a213a332 +a121a232a313 -a121a233a312
    +a122a211a333 -a122a213a331 -a122a231a313 +a122a233a311
    -a123a211a332 +a123a212a331 +a123a231a312 -a123a232a311
    +a131a212a323 -a131a213a322 -a131a222a313 +a131a223a312
    -a132a211a323 +a132a213a321 +a132a221a313 -a132a223a311
    +a133a211a322 -a133a212a321 -a133a221a312 +a133a222a311
    """
)

_TERMS = {1: _TERMS_1, 2: _TERMS_2, 3: _TERMS_3}


def _flatten(order: int, terms) -> tuple:
    return tuple((sign, *[_flat(order, *at) for at in positions]) for sign, positions in terms)


_FLAT = {order: _flatten(order, terms) for order, terms in _TERMS.items()}


def _expression(table) -> str:
    """The sum of sign * a[f1] * ... * a[fn] over a (sign, f1, ..., fn)
    table, written out as one Python expression in the names ``a<f>``."""
    coefficients = {1: "+", -1: "-"}
    return "".join(
        coefficients.get(sign, f"{sign:+d}*") + "*".join([f"a{f}" for f in cells]) for sign, *cells in table
    )


def _loop(table, a) -> int:
    """The same sum as _expression's, by a loop over the table's rows."""
    total = 0
    for sign, *cells in table:
        term = sign
        for f in cells:
            term *= a[f]
        total += term
    return total


class _Kernels(dict):
    """Kernels by key, each compiled on its second use.

    ``rows(key)`` gives the key's (sign, f1, ..., fn) table, built only
    from the package's own tables, or with ``many`` a tuple of tables.
    The key's kernel, a function of ``a``, a matrix's flat ints, returns
    the table's sum, or the tuple of the tables' sums.  The first lookup
    of a key returns a loop over the rows; the second compiles the
    straight-line kernel (see source) and keeps it.
    """

    def __init__(self, rows, many=False):
        super().__init__()
        self.rows = rows
        self.many = many
        self.first = {}  # key -> rows(key), for the keys looked up once

    def source(self, rows) -> str:
        """The kernel of these rows as Python source: it binds a<f> to
        a[f] for every f up to the highest cell named, and sums."""
        tables = rows if self.many else (rows,)
        size = 1 + max(f for table in tables for _, *cells in table for f in cells)
        names = "".join(f"a{f}," for f in range(size))
        sums = ",".join(map(_expression, tables)) + ("," if self.many else "")
        return f"def kernel(a):\n    {names} = a[:{size}]\n    return {sums}"

    def __missing__(self, key):
        rows = self.first.pop(key, None)
        if rows is None:
            rows = self.first[key] = self.rows(key)
            if self.many:
                return lambda a: tuple([_loop(table, a) for table in rows])
            return lambda a: _loop(rows, a)
        namespace = {"__builtins__": {}}
        exec(self.source(rows), namespace)
        kernel = self[key] = namespace["kernel"]
        return kernel


# The closed form of each order, as a kernel over the flat ints.
_CLOSED = _Kernels(_FLAT.__getitem__)


def det_closed(A: CubicMatrix) -> Scalar:
    """Determinant by the hard-coded closed-form table for A's order.

    Order 1 is the single entry; order 2 sums 4 signed products of 2
    entries; order 3 sums 36 signed products of 3 entries.
    """
    return Scalar(_CLOSED[A.order](A._ints), A._scale**A.order)


def _parity(perm: tuple[int, ...]) -> int:
    inversions = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                inversions += 1
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def perm_terms(order: int) -> tuple:
    """All (order!)**2 templates (sign, positions) with positions[i-1] =
    (i, sigma(i), tau(i)) and sign = parity(sigma) * parity(tau)."""
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2, or 3, got {order!r}")
    perms = list(itertools.permutations(range(1, order + 1)))
    parities = [_parity(p) for p in perms]
    return tuple(
        (
            ps * pt,
            tuple((i, sigma[i - 1], tau[i - 1]) for i in range(1, order + 1)),
        )
        for sigma, ps in zip(perms, parities)
        for tau, pt in zip(perms, parities)
    )


# The permutation sum of each order, as a kernel over the flat ints.
# Derived from the permutations, never from the closed-form tables, so
# that the cross-check compares two independent routes.
_PERM = _Kernels(lambda order: _flatten(order, perm_terms(order)))


def det_permutation(A: CubicMatrix) -> Scalar:
    """Determinant by direct double-permutation summation.

    Independent of the closed-form tables; used as the oracle by the
    verification harness.
    """
    return Scalar(_PERM[A.order](A._ints), A._scale**A.order)


def _permutation_equals(M: CubicMatrix, value: Scalar) -> bool:
    """Whether ``det_permutation(M) == value``, decided on ints: the
    oracle's sum over ``M._ints`` is the determinant times
    ``M._scale**n``, so it is cross-multiplied with value's num and den.
    It builds no Scalar, so it checks no bounds."""
    n = M.order
    return _PERM[n](M._ints) * value.den == value.num * M._scale**n


def sign_expansion(at: Index3) -> int:
    """The layer-expansion sign (-1)**(j+k); independent of i.  ``at`` is
    an entry address as CubicMatrix.get takes it, with no order bound."""
    at = at if type(at) is Index3 else _index3(at)
    return -1 if (at.j + at.k) % 2 else 1


def sign_paper_def(at: Index3) -> int:
    """The definitional cofactor sign (-1)**(i+j+k), of any entry address."""
    at = at if type(at) is Index3 else _index3(at)
    return -1 if (at.i + at.j + at.k) % 2 else 1
