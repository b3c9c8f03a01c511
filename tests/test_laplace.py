import math
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubicdet import (
    ZERO,
    Axis,
    CubicMatrix,
    GenSpec,
    Index3,
    Scalar,
    ScalarOverflowError,
    ShapeError,
    SignConvention,
    cofactor,
    det_laplace,
    det_permutation,
    expand,
    expand_all,
    minor,
    random_cubic,
)
from cubicdet.determinant import _perm_flat
from cubicdet.laplace import _LAPLACE_FLAT, _expansion_totals


class TestMinor:
    def test_golden_minors(self, example2):
        assert minor(example2, Index3(1, 1, 1)) == Scalar(-13)
        assert minor(example2, Index3(1, 2, 3)) == Scalar(1)
        assert minor(example2, Index3(1, 3, 1)) == Scalar(-21)

    def test_order2_minor_is_opposite_entry(self, example1):
        assert minor(example1, Index3(1, 1, 1)) == Scalar(3)
        assert minor(example1, Index3(2, 2, 2)) == Scalar(4)

    def test_order1_has_no_minors(self):
        with pytest.raises(ShapeError):
            minor(CubicMatrix(1, [[[9]]]), Index3(1, 1, 1))


class TestCofactor:
    def test_golden_cofactors(self, example2):
        at = Index3(1, 1, 1)
        assert cofactor(example2, at) == Scalar(-13)
        assert cofactor(example2, at, SignConvention.PAPER_DEF) == Scalar(13)
        at = Index3(1, 2, 3)
        assert cofactor(example2, at, SignConvention.EXPANSION) == Scalar(-1)
        assert cofactor(example2, at, SignConvention.PAPER_DEF) == Scalar(1)

    def test_conventions_differ_by_layer_parity(self, example2):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    at = Index3(i, j, k)
                    a = cofactor(example2, at, SignConvention.EXPANSION)
                    b = cofactor(example2, at, SignConvention.PAPER_DEF)
                    assert a == (b if i % 2 == 0 else -b)


class TestExpand:
    def test_order2_fixed_i1_trace(self, example1):
        trace = expand(example1, Axis.HORIZONTAL_LAYER, 1)
        assert trace.axis is Axis.HORIZONTAL_LAYER
        assert trace.index == 1
        ats = [t.at for t in trace.terms]
        assert ats == [Index3(1, 1, 1), Index3(1, 2, 1), Index3(1, 1, 2), Index3(1, 2, 2)]
        assert [t.sign for t in trace.terms] == [1, -1, -1, 1]
        assert [t.minor_value for t in trace.terms] == [
            Scalar(3),
            Scalar(-7),
            Scalar(5),
            Scalar(-1),
        ]
        assert trace.total == Scalar(-3)
        with pytest.raises(AttributeError):
            trace.terms[0].sign = -1

    def test_trace_order_per_axis(self, example1):
        # Fixed i or j: k outermost; fixed k: row-major, i outermost.
        def ats(axis):
            return [tuple(t.at) for t in expand(example1, axis, 2).terms]

        assert ats(Axis.HORIZONTAL_LAYER) == [(2, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2)]
        assert ats(Axis.VERTICAL_PAGE) == [(1, 2, 1), (2, 2, 1), (1, 2, 2), (2, 2, 2)]
        assert ats(Axis.VERTICAL_LAYER) == [(1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 2)]

    def test_order3_fixed_i1_contributions(self, example2):
        trace = expand(example2, Axis.HORIZONTAL_LAYER, 1)
        got = [t.contribution for t in trace.terms]
        assert got == [Scalar(v) for v in (-39, 0, 84, 54, 48, 0, 180, -1, 0)]
        assert trace.total == Scalar(326)

    def test_order3_fixed_j2_contributions(self, example2):
        trace = expand(example2, Axis.VERTICAL_PAGE, 2)
        got = [t.contribution for t in trace.terms]
        assert got == [Scalar(v) for v in (0, 155, 57, 48, 0, 46, -1, 1, 20)]
        assert trace.total == Scalar(326)

    def test_term_arithmetic_is_consistent(self, example2):
        for axis in Axis:
            for index in (1, 2, 3):
                trace = expand(example2, axis, index)
                total = ZERO
                for t in trace.terms:
                    recomputed = t.entry * t.minor_value
                    if t.sign < 0:
                        recomputed = -recomputed
                    assert t.contribution == recomputed
                    assert t.entry == example2.get(t.at)
                    assert t.minor_value == minor(example2, t.at)
                    total = total + t.contribution
                assert trace.total == total

    def test_every_path_agrees_with_oracle(self):
        for order in (2, 3):
            for seed in range(30):
                m = random_cubic(GenSpec(order, seed, 9))
                want = det_permutation(m)
                for axis in Axis:
                    for index in range(1, order + 1):
                        assert expand(m, axis, index).total == want

    def test_zero_layer_gives_zero_trace(self):
        m = random_cubic(GenSpec(3, 5, 9)).scale_layer(Axis.VERTICAL_LAYER, 2, 0)
        trace = expand(m, Axis.VERTICAL_LAYER, 2)
        assert trace.total == ZERO
        assert all(t.contribution == ZERO for t in trace.terms)

    def test_order1_rejected(self):
        with pytest.raises(ShapeError):
            expand(CubicMatrix(1, [[[3]]]), Axis.HORIZONTAL_LAYER, 1)

    def test_index_out_of_range(self, example1):
        with pytest.raises(IndexError, match="h-layer index 3 out of range"):
            expand(example1, Axis.HORIZONTAL_LAYER, 3)
        with pytest.raises(IndexError):
            expand(example1, Axis.VERTICAL_PAGE, 0)

    def test_index_must_be_int(self, example1):
        with pytest.raises(TypeError):
            expand(example1, Axis.HORIZONTAL_LAYER, "1")


def test_layer_index_contract(example1, example2):
    # Every function that takes a layer checks it the same way: an int
    # index (bool rejected) in 1..n and an Axis, else TypeError or
    # IndexError, never a KeyError or AttributeError from a lookup.
    calls = {
        "scale_layer": lambda A, axis, index: A.scale_layer(axis, index, 2),
        "swap_layers a": lambda A, axis, index: A.swap_layers(axis, index, 1),
        "swap_layers b": lambda A, axis, index: A.swap_layers(axis, 1, index),
        "expand": expand,
        "det_laplace": det_laplace,
    }
    for name, call in calls.items():
        for A in (example1, example2):
            n = A.order
            for axis in Axis:
                for bad in (1.5, 2.0, True, "1"):
                    message = f"^layer index must be an int, got {re.escape(repr(bad))}$"
                    with pytest.raises(TypeError, match=message):
                        call(A, axis, bad)
                for bad in (0, n + 1):
                    message = f"^{axis.letter}-layer index {bad} out of range for an order-{n} matrix$"
                    with pytest.raises(IndexError, match=message):
                        call(A, axis, bad)
            for index in (1, 0, n + 1, 2**70, 1.5):
                with pytest.raises(TypeError):
                    call(A, "h", index)
            for axis in (None, 1, "p", Axis, [Axis.VERTICAL_PAGE]):
                for index in (None, -1, 1, 2**70, "x", 2.5, False):
                    try:
                        call(A, axis, index)
                    except (TypeError, IndexError):
                        pass
                    else:
                        pytest.fail(f"{name} accepted axis {axis!r} index {index!r}")


class TestPaperDefRelation:
    def test_fixed_i_paper_def_sum(self, example2):
        # Summing entry * paper-def cofactor over a fixed-i layer gives
        # (-1)^i det, since the conventions differ by (-1)^i there.
        want = Scalar(326)
        for i in (1, 2, 3):
            total = ZERO
            for k in (1, 2, 3):
                for j in (1, 2, 3):
                    at = Index3(i, j, k)
                    total = total + example2.get(at) * cofactor(
                        example2, at, SignConvention.PAPER_DEF
                    )
            assert total == (want if i % 2 == 0 else -want)


class TestDetLaplace:
    def test_golden_all_paths(self, example1, example2):
        for m, want in ((example1, Scalar(-3)), (example2, Scalar(326))):
            for axis in Axis:
                for index in range(1, m.order + 1):
                    assert det_laplace(m, axis, index) == want

    def test_defaults(self, example2):
        assert det_laplace(example2) == Scalar(326)

    def test_order1_base_case(self):
        assert det_laplace(CubicMatrix(1, [[[5]]])) == Scalar(5)

    def test_matches_oracle_seeded(self):
        for order in (2, 3):
            for seed in range(30):
                m = random_cubic(GenSpec(order, 500 + seed, 9))
                want = det_permutation(m)
                for axis in Axis:
                    for index in range(1, order + 1):
                        assert det_laplace(m, axis, index) == want

    def test_index_out_of_range(self, example2):
        with pytest.raises(IndexError, match="l-layer index 4 out of range"):
            det_laplace(example2, Axis.VERTICAL_LAYER, 4)

    def test_table_has_the_permutation_monomials(self):
        # The table is derived from the layer structure alone; its rows
        # list the layer entry first, so compare them as sorted cells.
        def monomials(rows):
            return Counter((sign, *sorted(cells)) for sign, *cells in rows)

        assert len(_LAPLACE_FLAT) == 18
        for (order, axis, index), rows in _LAPLACE_FLAT.items():
            assert len(rows) == math.factorial(order) ** 2
            assert monomials(rows) == monomials(_perm_flat(order)), (order, axis, index)


class TestExpandAll:
    def test_counts(self, example1, example2):
        assert len(expand_all(example1)) == 6
        assert len(expand_all(example2)) == 9

    def test_covers_every_layer_once(self, example2):
        seen = [(t.axis, t.index) for t in expand_all(example2)]
        assert len(seen) == len(set(seen))
        assert set(seen) == {(axis, index) for axis in Axis for index in (1, 2, 3)}

    def test_all_totals_agree(self, example2):
        for trace in expand_all(example2):
            assert trace.total == Scalar(326)


# Per matrix, numerators up to a bound (30, or one at which order-2
# terms |a|**2 or order-3 terms 4 * |a|**3 cross 2**63), mixed with
# small ones in varying shares, over denominators that are 1, small, or
# up to the 64-bit bound.
@st.composite
def edge_cubics(draw):
    n = draw(st.sampled_from((2, 3)))
    bound = draw(st.sampled_from((30, 2**20, 2**21, 2**31, 2**32, 2**63 - 1)))
    edge = st.one_of(st.sampled_from((-bound - 1, bound)), st.integers(-bound - 1, bound))
    dens = draw(st.sampled_from((st.just(1), st.integers(1, 12), st.integers(1, 2**64 - 1))))
    small = st.integers(-3, 3)
    nums = draw(st.sampled_from((edge, st.one_of(small, edge), st.one_of(small, small, small, edge))))
    entry = st.builds(Scalar, nums, dens)
    cells = iter(draw(st.lists(entry, min_size=n**3, max_size=n**3)))
    return CubicMatrix(n, [[[next(cells) for _ in range(n)] for _ in range(n)] for _ in range(n)])


@given(edge_cubics())
def test_expansion_totals_are_the_traced_totals(A):
    # The shared-term sums agree with expand_all, overflow included: the
    # first trace that raises decides the message.
    try:
        want = [trace.total for trace in expand_all(A)]
    except ScalarOverflowError as err:
        with pytest.raises(ScalarOverflowError) as info:
            _expansion_totals(A)
        assert str(info.value) == str(err)
    else:
        assert _expansion_totals(A) == want
