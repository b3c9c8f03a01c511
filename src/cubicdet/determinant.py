"""Closed-form cubic determinants and the double-permutation oracle.

Two independent evaluation routes live here:

* :func:`det_closed` evaluates hard-coded term tables (1, 4, and 36
  terms for orders 1, 2, 3) transcribed literally, term for term, from
  the defining expansions.
* :func:`det_permutation` enumerates all pairs of permutations (sigma,
  tau) of {1..n} at run time and sums parity-signed products of the
  entries a[i, sigma(i), tau(i)].  Nothing is shared with the tables,
  so agreement between the two routes is a real check, not a tautology.

Kernels
-------
Every table of (sign, f1, ..., fn) rows over flat cells is evaluated by
a kernel: the table written out as one straight-line expression
``+a1*a5*a9-a2*...`` over local names, one per flat cell, and compiled
with ``exec`` into a function of ``a``, the matrix's ``_ints``, that
binds the names by one tuple unpack (``a0, a1, ..., aM, = a[:M+1]``,
aM the highest cell named, so ``a`` may run past it): Python compiles
plain names faster than ``a[f]`` subscripts.  A sign other than +1
or -1 is written as a literal coefficient, so the kernel computes
exactly its table, whatever the table says.  Compiling costs far more
than one evaluation, so a :class:`_Kernels` cache compiles each kernel
on its first use, per key, and never at import: a CLI command pays only
for the kernels it runs.  Each route's kernel is built from that
route's own table alone (``_FLAT`` here, ``perm_terms`` for the oracle,
the unrolled recursion in laplace), so sharing the compiler couples the
routes no more than sharing ``+`` and ``*`` does.

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
import re
from functools import lru_cache

from .core3d import CubicMatrix, Index3, Scalar, _flat, _index3

__all__ = [
    "det_closed",
    "det_permutation",
    "perm_terms",
    "sign_expansion",
    "sign_paper_def",
]

# Term tables: (sign, ((i, j, k), ...)) with the position triples listed
# with i ascending.  Transcribed literally; never derived at run time.

_TERMS_1 = ((1, ((1, 1, 1),)),)

_TERMS_2 = (
    (1, ((1, 1, 1), (2, 2, 2))),
    (-1, ((1, 1, 2), (2, 2, 1))),
    (-1, ((1, 2, 1), (2, 1, 2))),
    (1, ((1, 2, 2), (2, 1, 1))),
)

_TERMS_3 = (
    (1, ((1, 1, 1), (2, 2, 2), (3, 3, 3))),
    (-1, ((1, 1, 1), (2, 3, 2), (3, 2, 3))),
    (-1, ((1, 1, 1), (2, 2, 3), (3, 3, 2))),
    (1, ((1, 1, 1), (2, 3, 3), (3, 2, 2))),
    (-1, ((1, 1, 2), (2, 2, 1), (3, 3, 3))),
    (1, ((1, 1, 2), (2, 2, 3), (3, 3, 1))),
    (1, ((1, 1, 2), (2, 3, 1), (3, 2, 3))),
    (-1, ((1, 1, 2), (2, 3, 3), (3, 2, 1))),
    (1, ((1, 1, 3), (2, 2, 1), (3, 3, 2))),
    (-1, ((1, 1, 3), (2, 2, 2), (3, 3, 1))),
    (-1, ((1, 1, 3), (2, 3, 1), (3, 2, 2))),
    (1, ((1, 1, 3), (2, 3, 2), (3, 2, 1))),
    (-1, ((1, 2, 1), (2, 1, 2), (3, 3, 3))),
    (1, ((1, 2, 1), (2, 1, 3), (3, 3, 2))),
    (1, ((1, 2, 1), (2, 3, 2), (3, 1, 3))),
    (-1, ((1, 2, 1), (2, 3, 3), (3, 1, 2))),
    (1, ((1, 2, 2), (2, 1, 1), (3, 3, 3))),
    (-1, ((1, 2, 2), (2, 1, 3), (3, 3, 1))),
    (-1, ((1, 2, 2), (2, 3, 1), (3, 1, 3))),
    (1, ((1, 2, 2), (2, 3, 3), (3, 1, 1))),
    (-1, ((1, 2, 3), (2, 1, 1), (3, 3, 2))),
    (1, ((1, 2, 3), (2, 1, 2), (3, 3, 1))),
    (1, ((1, 2, 3), (2, 3, 1), (3, 1, 2))),
    (-1, ((1, 2, 3), (2, 3, 2), (3, 1, 1))),
    (1, ((1, 3, 1), (2, 1, 2), (3, 2, 3))),
    (-1, ((1, 3, 1), (2, 1, 3), (3, 2, 2))),
    (-1, ((1, 3, 1), (2, 2, 2), (3, 1, 3))),
    (1, ((1, 3, 1), (2, 2, 3), (3, 1, 2))),
    (-1, ((1, 3, 2), (2, 1, 1), (3, 2, 3))),
    (1, ((1, 3, 2), (2, 1, 3), (3, 2, 1))),
    (1, ((1, 3, 2), (2, 2, 1), (3, 1, 3))),
    (-1, ((1, 3, 2), (2, 2, 3), (3, 1, 1))),
    (1, ((1, 3, 3), (2, 1, 1), (3, 2, 2))),
    (-1, ((1, 3, 3), (2, 1, 2), (3, 2, 1))),
    (-1, ((1, 3, 3), (2, 2, 1), (3, 1, 2))),
    (1, ((1, 3, 3), (2, 2, 2), (3, 1, 1))),
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


class _Kernels(dict):
    """Compiled kernels by key, each compiled on its first use.

    ``source(key)`` gives the kernel's expression in the names ``a<f>``,
    built only from the package's own tables; the kernel is that
    expression as a function of ``a``, which binds ``a<f>`` to ``a[f]``,
    with no builtins in reach.
    """

    def __init__(self, source):
        super().__init__()
        self.source = source

    def __missing__(self, key):
        source = self.source(key)
        size = 1 + max(map(int, re.findall(r"a([0-9]+)", source)))
        names = "".join(f"a{f}," for f in range(size))
        namespace = {"__builtins__": {}}
        exec(f"def kernel(a):\n    {names} = a[:{size}]\n    return {source}", namespace)
        kernel = self[key] = namespace["kernel"]
        return kernel


# The closed form of each order, as a kernel over the flat ints.
_CLOSED = _Kernels(lambda order: _expression(_FLAT[order]))


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
_PERM = _Kernels(lambda order: _expression(_flatten(order, perm_terms(order))))


def det_permutation(A: CubicMatrix) -> Scalar:
    """Determinant by direct double-permutation summation.

    Independent of the closed-form tables; used as the oracle by the
    verification harness.
    """
    return Scalar(_PERM[A.order](A._ints), A._scale**A.order)


def sign_expansion(at: Index3) -> int:
    """The layer-expansion sign (-1)**(j+k); independent of i.  ``at`` is
    an entry address as CubicMatrix.get takes it, with no order bound."""
    at = _index3(at)
    return -1 if (at.j + at.k) % 2 else 1


def sign_paper_def(at: Index3) -> int:
    """The definitional cofactor sign (-1)**(i+j+k), of any entry address."""
    at = _index3(at)
    return -1 if (at.i + at.j + at.k) % 2 else 1
