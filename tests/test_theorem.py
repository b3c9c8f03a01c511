"""The paper's theorem, proved from the tables the kernels compile.

For orders 2 and 3, the Laplace expansion along any layer equals the
permutation expansion.  The properties and ``verify --random`` sample
that claim on numbers; this module proves it as exact polynomial
identities in the n**3 entries, for every input at once.

A polynomial is a Counter from a monomial (its flat cells, sorted) to a
nonzero integer coefficient.  The reference is built here alone, by
Leibniz's double sum over ``itertools.permutations``, with its own
parity and its own flat index: it shares nothing with ``perm_terms``,
``_FLAT`` or the layer geometry.  What it is compared with is read from
the production tables: ``_FLAT`` (the paper's closed forms) and, per
layer, ``_LAYER_FLAT``, ``_MINOR_ROWS`` and the sign table ``_signs``.
"""

import itertools
from collections import Counter

import pytest

from cubicdet import Axis
from cubicdet.core3d import _LAYER_FLAT
from cubicdet.determinant import _FLAT
from cubicdet.laplace import _MINOR_ROWS, _signs

ORDERS = (2, 3)


def flat(n, i, j, k):
    """The flat cell of the 1-based entry (i, j, k): k-major, then i, then j."""
    return ((k - 1) * n + (i - 1)) * n + (j - 1)


def parity(perm):
    inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    return -1 if inversions % 2 else 1


def polynomial(rows):
    """The sum of coefficient * x_f1 * ... * x_fm over (coefficient, f1, ..., fm) rows."""
    total = Counter()
    for coefficient, *cells in rows:
        total[tuple(sorted(cells))] += coefficient
    return Counter({monomial: c for monomial, c in total.items() if c})  # no monomial that cancelled


def leibniz(n):
    """det = sum over (sigma, tau) of parity(sigma) * parity(tau) * prod_i a[i, sigma(i), tau(i)]."""
    perms = list(itertools.permutations(range(1, n + 1)))
    return polynomial(
        (parity(sigma) * parity(tau), *[flat(n, i, sigma[i - 1], tau[i - 1]) for i in range(1, n + 1)])
        for sigma in perms
        for tau in perms
    )


@pytest.mark.parametrize("n", ORDERS)
def test_the_reference_is_a_determinant(n):
    # (n!)**2 signed monomials, none cancelling, each meeting every
    # layer of every axis exactly once.
    reference = leibniz(n)
    assert len(reference) == len(list(itertools.permutations(range(n)))) ** 2
    assert set(reference.values()) == {1, -1}
    cells = {flat(n, i, j, k): (i, j, k) for i, j, k in itertools.product(range(1, n + 1), repeat=3)}
    for monomial in reference:
        for axis in range(3):
            assert sorted(cells[f][axis] for f in monomial) == list(range(1, n + 1))


@pytest.mark.parametrize("n", ORDERS)
def test_the_closed_forms_are_the_determinant(n):
    assert polynomial(_FLAT[n]) == leibniz(n)


@pytest.mark.parametrize("n", ORDERS)
def test_every_layer_expansion_is_the_determinant(n):
    # For each of the 3n layers: sum over its cells f of
    # sign(f) * x_f * minor(f), minor(f) read from _MINOR_ROWS[n][f] as
    # (sign, g1, ..., g(n-1)) rows over the order-n cells.
    reference = leibniz(n)
    signs = _signs(n)
    assert len(signs) == n**3
    for position, axis in enumerate(Axis):
        for index in range(1, n + 1):
            layer = _LAYER_FLAT[(n, axis, index)]
            coordinates = itertools.product(range(1, n + 1), repeat=3)
            assert sorted(layer) == sorted(flat(n, *at) for at in coordinates if at[position] == index)
            expansion = polynomial(
                (signs[f] * sign, f, *cells) for f in layer for sign, *cells in _MINOR_ROWS[n][f]
            )
            assert expansion == reference, f"{axis.letter}:{index}"
