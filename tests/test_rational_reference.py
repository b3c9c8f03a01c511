"""Every route on rational input against a Fraction Leibniz reference.

The routes all run on the lcm-scaled integer view of a matrix, so a
fault in that scaling would make them agree on a wrong value and the
cross-check could not see it.  The reference here shares no code with
cubicdet: a plain double sum over permutation pairs in Fractions.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubicdet import (
    Axis,
    CubicMatrix,
    Index3,
    Scalar,
    ScalarOverflowError,
    SignConvention,
    cofactor,
    cross_check,
    det_closed,
    det_laplace,
    det_permutation,
    expand,
    minor,
)


def parity(perm):
    inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    return -1 if inversions % 2 else 1


def leibniz(a, n):
    """det of a[(i, j, k)] (0-based keys) by the double permutation sum."""
    total = Fraction(0)
    for sigma in itertools.permutations(range(n)):
        for tau in itertools.permutations(range(n)):
            prod = Fraction(parity(sigma) * parity(tau))
            for i in range(n):
                prod *= a[(i, sigma[i], tau[i])]
            total += prod
    return total


def reference_sub(a, n, i, j, k):
    """The cells left after deleting layer i, page j and slice k (0-based)."""
    xs, ys, zs = ([v for v in range(n) if v != drop] for drop in (i, j, k))
    return {
        (si, sj, sk): a[(x, y, z)]
        for si, x in enumerate(xs)
        for sj, y in enumerate(ys)
        for sk, z in enumerate(zs)
    }


def reference_minor(a, n, i, j, k):
    """det after deleting layer i, page j and slice k (0-based)."""
    return leibniz(reference_sub(a, n, i, j, k), n - 1)


def frac(s):
    return Fraction(s.num, s.den)


def scalar(f):
    return Scalar(f.numerator, f.denominator)


def matrix(n, a):
    return CubicMatrix(n, [[[scalar(a[(i, j, k)]) for j in range(n)] for i in range(n)] for k in range(n)])


def entries(A):
    """A's entries as Fractions, keyed by 0-based (i, j, k)."""
    return {
        (i, j, k): frac(v)
        for k, block in enumerate(A.layers())
        for i, row in enumerate(block)
        for j, v in enumerate(row)
    }


# Mixed p/q entries: denominators 1..12 so that cells of one matrix have
# distinct denominators, and zeros often enough that some survive.
ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
)


@st.composite
def rational_cubics(draw):
    n = draw(st.sampled_from((2, 3)))
    cells = iter(draw(st.lists(ENTRY, min_size=n**3, max_size=n**3)))
    return n, {(i, j, k): next(cells) for k in range(n) for i in range(n) for j in range(n)}


@given(rational_cubics())
def test_every_route_matches_the_reference(subject):
    n, a = subject
    A = matrix(n, a)
    det = leibniz(a, n)
    minors = {(i, j, k): reference_minor(a, n, i, j, k) for (i, j, k) in a}

    assert frac(det_closed(A)) == det
    assert frac(det_permutation(A)) == det
    assert {frac(v) for v in cross_check(A).paths.values()} == {det}
    for axis in Axis:
        for index in range(1, n + 1):
            assert frac(det_laplace(A, axis, index)) == det
            trace = expand(A, axis, index)
            assert frac(trace.total) == det
            for t in trace.terms:
                i, j, k = t.at.i - 1, t.at.j - 1, t.at.k - 1
                sign = (-1) ** (j + k)
                assert frac(t.entry) == a[(i, j, k)]
                assert t.sign == sign
                assert frac(t.minor_value) == minors[(i, j, k)]
                assert frac(t.contribution) == sign * a[(i, j, k)] * minors[(i, j, k)]
    for (i, j, k), m in minors.items():
        at = Index3(i + 1, j + 1, k + 1)
        assert frac(minor(A, at)) == m
        assert frac(cofactor(A, at, SignConvention.EXPANSION)) == (-1) ** (j + k) * m
        assert frac(cofactor(A, at, SignConvention.PAPER_DEF)) == (-1) ** (i + j + k + 1) * m


NUM_MIN, NUM_MAX, DEN_MAX = -(2**63), 2**63 - 1, 2**64 - 1

# Components up to the 64-bit bounds, the bounds themselves often.
EDGE_NUM = st.one_of(st.sampled_from((NUM_MIN, NUM_MAX, 2**62, -(2**62), 3)), st.integers(NUM_MIN, NUM_MAX))
EDGE = st.builds(Fraction, EDGE_NUM, st.one_of(st.sampled_from((1, 2, 2**63, DEN_MAX)), st.integers(1, DEN_MAX)))


@st.composite
def edge_cubics(draw):
    # Integer matrices too, whose products can land just past a bound
    # while the common denominator stays 1.
    n = draw(st.sampled_from((2, 3)))
    entry = draw(st.sampled_from((EDGE_NUM.map(Fraction), st.one_of(ENTRY, EDGE))))
    cells = iter(draw(st.lists(entry, min_size=n**3, max_size=n**3)))
    return n, {(i, j, k): next(cells) for k in range(n) for i in range(n) for j in range(n)}


def bound_error(x):
    """Scalar's message for a value outside the 64-bit bounds, else None."""
    if not NUM_MIN <= x.numerator <= NUM_MAX:
        return f"numerator {x.numerator} outside the signed 64-bit range"
    if x.denominator > DEN_MAX:
        return f"denominator {x.denominator} outside the unsigned 64-bit range"
    return None


def check(run, expected, changed):
    """run() equals ``expected`` entrywise, or, exactly when an entry of
    ``changed`` leaves the bounds, raises Scalar's message for the first."""
    errors = [e for e in (bound_error(expected[at]) for at in changed) if e]
    if errors:
        with pytest.raises(ScalarOverflowError) as info:
            run()
        assert str(info.value) == errors[0]
    else:
        assert entries(run()) == expected


def layer_cells(n, axis, index):
    """A layer's cells in trace order: the free pair k outermost for a
    fixed i or j, i outermost for a fixed k."""
    x, r = index - 1, range(n)
    if axis is Axis.HORIZONTAL_LAYER:
        return [(x, j, k) for k in r for j in r]
    if axis is Axis.VERTICAL_PAGE:
        return [(i, x, k) for k in r for i in r]
    return [(i, j, x) for i in r for j in r]


@given(edge_cubics())
def test_every_route_raises_exactly_past_the_bounds(subject):
    # det_closed, det_permutation and det_laplace on each of the 3n
    # layers (one matrix object, so det_laplace fills and then reads the
    # memo) each return the reference determinant, or raise Scalar's
    # message for it exactly when it leaves the bounds.
    n, a = subject
    det = leibniz(a, n)
    error = bound_error(det)
    A = matrix(n, a)
    routes = {"closed": lambda: det_closed(A), "permutation": lambda: det_permutation(A)}
    for axis in Axis:
        for index in range(1, n + 1):
            routes[f"laplace:{axis.letter}:{index}"] = lambda axis=axis, index=index: det_laplace(A, axis, index)
    for name, route in routes.items():
        if error:
            with pytest.raises(ScalarOverflowError) as info:
                route()
            assert str(info.value) == error, name
        else:
            assert frac(route()) == det, name


@given(edge_cubics())
def test_cross_check_raises_exactly_past_the_bounds(subject):
    # cross_check reports det, -det and 2 * det, doubles layer 1 on each
    # axis and builds every cell's minor and trace contribution: it
    # raises exactly when one of those leaves the bounds, and otherwise
    # every path is the reference determinant.
    n, a = subject
    det = leibniz(a, n)
    minors = {(i, j, k): reference_minor(a, n, i, j, k) for (i, j, k) in a}
    values = [det, -det, 2 * det, *minors.values()]
    values += [2 * a[at] for axis in Axis for at in layer_cells(n, axis, 1)]
    values += [(-1) ** (j + k) * a[(i, j, k)] * m for (i, j, k), m in minors.items()]
    A = matrix(n, a)
    errors = {bound_error(v) for v in values} - {None}
    if errors:
        with pytest.raises(ScalarOverflowError) as info:
            cross_check(A)
        assert str(info.value) in errors
    else:
        report = cross_check(A)
        assert {frac(v) for v in report.paths.values()} == {det}
        assert report.overall


@pytest.mark.parametrize(
    "cells, message",
    [
        # det = -2**63: -det and 2 * det both leave the bounds, and the h
        # scale law's oracle value 2 * det, checked first, names the error.
        ({(0, 0, 0): -(2**62), (1, 1, 1): 2}, f"numerator {-(2**64)} outside the signed 64-bit range"),
        # det = 2**62 + 1: doubling layer h:1 makes the entry 2**63 before
        # any law's value, 2 * det = 2**63 + 2, is built.
        (
            {(0, 0, 0): 2**62, (1, 1, 1): 1, (0, 0, 1): 1, (1, 1, 0): -1},
            f"numerator {2**63} outside the signed 64-bit range",
        ),
    ],
)
def test_cross_check_names_the_first_value_past_the_bounds(cells, message):
    a = {(i, j, k): Fraction(cells.get((i, j, k), 0)) for i in range(2) for j in range(2) for k in range(2)}
    with pytest.raises(ScalarOverflowError) as info:
        cross_check(matrix(2, a))
    assert str(info.value) == message


@given(edge_cubics(), EDGE)
def test_transforms_match_the_reference_up_to_the_bounds(subject, c):
    n, a = subject
    A = matrix(n, a)
    for factor in (Fraction(0), Fraction(2), c):
        check(lambda: A.scale(scalar(factor)), {at: factor * v for at, v in a.items()}, list(a))
        for axis in Axis:
            for index in range(1, n + 1):
                layer = layer_cells(n, axis, index)
                expected = {at: factor * v if at in layer else v for at, v in a.items()}
                check(lambda: A.scale_layer(axis, index, scalar(factor)), expected, layer)
    # Every (a, b) pair, both orders of each and a == b: swap_layers
    # keeps one map per (order, axis, a, b).
    for axis in Axis:
        for one, other in itertools.product(range(1, n + 1), repeat=2):
            cells_one, cells_other = layer_cells(n, axis, one), layer_cells(n, axis, other)
            source = {**dict(zip(cells_one, cells_other)), **dict(zip(cells_other, cells_one))}
            check(lambda: A.swap_layers(axis, one, other), {at: a[source.get(at, at)] for at in a}, [])
    for i, j, k in a:
        check(lambda: A.delete_sub(Index3(i + 1, j + 1, k + 1)), reference_sub(a, n, i, j, k), [])
