"""Closed-form cubic determinants and the double-permutation oracle.

Two independent evaluation routes live here:

* :func:`det_closed` evaluates hard-coded term tables (1, 4, and 36
  terms for orders 1, 2, 3) transcribed literally, term for term, from
  the defining expansions.
* :func:`det_permutation` enumerates all pairs of permutations (sigma,
  tau) of {1..n} at run time and sums parity-signed products of the
  entries a[i, sigma(i), tau(i)].  Nothing is shared with the tables,
  so agreement between the two routes is a real check, not a tautology.

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
from collections import namedtuple
from functools import lru_cache

from .core3d import CubicMatrix, Index3, Scalar, _flat

__all__ = [
    "SignedTerm",
    "det_closed",
    "det_permutation",
    "perm_terms",
    "signed_terms",
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


class SignedTerm(namedtuple("SignedTerm", "sign positions value")):
    """One monomial of a determinant expansion.

    positions lists one Index3 per horizontal layer, i ascending; as a
    pair of bijections they hit every i, every j, and every k exactly
    once.  value == sign * product of the addressed entries.
    """

    __slots__ = ()
    sign: int
    positions: tuple[Index3, ...]
    value: Scalar


def _table_sum(order: int, table, ints) -> int:
    """Sum of sign * ints[f1] * ... * ints[fn] over a (sign, f1, ..., fn) table."""
    acc = 0
    if order == 3:
        for sign, f1, f2, f3 in table:
            acc += sign * ints[f1] * ints[f2] * ints[f3]
    elif order == 2:
        for sign, f1, f2 in table:
            acc += sign * ints[f1] * ints[f2]
    else:
        for sign, f1 in table:
            acc += sign * ints[f1]
    return acc


def det_closed(A: CubicMatrix) -> Scalar:
    """Determinant by the hard-coded closed-form table for A's order.

    Order 1 is the single entry; order 2 sums 4 signed products of 2
    entries; order 3 sums 36 signed products of 3 entries.
    """
    return Scalar(_table_sum(A.order, _FLAT[A.order], A._ints), A._scale**A.order)


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


@lru_cache(maxsize=None)
def _perm_flat(order: int) -> tuple:
    """perm_terms(order) as (sign, f1, ..., fn) over flat k-major cells.

    Derived from the permutations, never from the closed-form tables.
    """
    return _flatten(order, perm_terms(order))


def det_permutation(A: CubicMatrix) -> Scalar:
    """Determinant by direct double-permutation summation.

    Independent of the closed-form tables; used as the oracle by the
    verification harness.
    """
    return Scalar(_table_sum(A.order, _perm_flat(A.order), A._ints), A._scale**A.order)


def signed_terms(A: CubicMatrix) -> list[SignedTerm]:
    """The evaluated permutation-expansion monomials of A, in template order."""
    n = A.order
    den = A._scale**n
    return [
        SignedTerm(
            sign, tuple(Index3(i, j, k) for i, j, k in positions), Scalar(_table_sum(n, (row,), A._ints), den)
        )
        for (sign, positions), row in zip(perm_terms(n), _perm_flat(n))
    ]


def sign_expansion(at: Index3) -> int:
    """The layer-expansion sign (-1)**(j+k); independent of i."""
    return -1 if (at.j + at.k) % 2 else 1


def sign_paper_def(at: Index3) -> int:
    """The definitional cofactor sign (-1)**(i+j+k)."""
    return -1 if (at.i + at.j + at.k) % 2 else 1
