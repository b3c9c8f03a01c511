"""Every route on rational input against a Fraction Leibniz reference.

The routes all run on the lcm-scaled integer view of a matrix, so a
fault in that scaling would make them agree on a wrong value and the
cross-check could not see it.  The reference here shares no code with
cubicdet: a plain double sum over permutation pairs in Fractions.
"""

import itertools
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from cubicdet import (
    Axis,
    CubicMatrix,
    Index3,
    Scalar,
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


def reference_minor(a, n, i, j, k):
    """det after deleting layer i, page j and slice k (0-based)."""
    xs, ys, zs = ([v for v in range(n) if v != drop] for drop in (i, j, k))
    sub = {
        (si, sj, sk): a[(x, y, z)]
        for si, x in enumerate(xs)
        for sj, y in enumerate(ys)
        for sk, z in enumerate(zs)
    }
    return leibniz(sub, n - 1)


def frac(s):
    return Fraction(s.num, s.den)


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
    cells = {at: Scalar(f.numerator, f.denominator) for at, f in a.items()}
    A = CubicMatrix(n, [[[cells[(i, j, k)] for j in range(n)] for i in range(n)] for k in range(n)])
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
