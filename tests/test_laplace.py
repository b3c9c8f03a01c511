import math
import re
import sys
import threading
from collections import Counter
from itertools import product

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
    cross_check,
    det_laplace,
    det_permutation,
    expand,
    expand_all,
    minor,
    random_cubic,
    sign_expansion,
    sign_paper_def,
)
from cubicdet import laplace
from cubicdet.core3d import _CELLS
from cubicdet.determinant import _flatten, perm_terms
from cubicdet.laplace import _expansion_totals


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
        # Only a SignConvention names a convention, not its value or a falsy stand-in.
        for bad in ("expansion", "paper-def", None, 0):
            message = f"^convention must be a SignConvention, got {re.escape(repr(bad))}$"
            with pytest.raises(TypeError, match=message):
                cofactor(example2, Index3(1, 1, 2), bad)

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


def test_entry_address_contract(example1, example2):
    # Every function that takes an entry address checks it the same way:
    # an Index3 or any three components, checked as an Index3 is, in
    # range for the order, else TypeError or IndexError, never a KeyError
    # or AttributeError from a lookup.  The sign functions take no
    # matrix, so no order bounds their addresses.
    calls = {
        "get": lambda A, at: A.get(at),
        "[]": lambda A, at: A[at],
        "delete_sub": lambda A, at: A.delete_sub(at),
        "minor": minor,
        "cofactor": cofactor,
        "cofactor paper-def": lambda A, at: cofactor(A, at, SignConvention.PAPER_DEF),
        "sign_expansion": lambda A, at: sign_expansion(at),
        "sign_paper_def": lambda A, at: sign_paper_def(at),
    }
    unbounded = {"sign_expansion", "sign_paper_def"}
    for name, call in calls.items():
        for A in (example1, example2):
            n = A.order
            for at in ((1, 2, n), (n, 1, 1)):
                want = call(A, Index3(*at))
                assert call(A, at) == call(A, list(at)) == call(A, iter(at)) == want, (name, at)
            for bad in ((1, 1), (1, 1, 1, 1), [], "12", None, 5, 1.5, Index3):
                message = f"^entry address must be an Index3 or three ints, got {re.escape(repr(bad))}$"
                with pytest.raises(TypeError, match=message):
                    call(A, bad)
            for bad in ((True, 1, 1), (1, 1.0, 1), (1, 1, "1"), "111", [2.5, 1, 1]):
                with pytest.raises(TypeError, match="^entry index components must be ints, got "):
                    call(A, bad)
            for bad in ((0, 1, 1), [1, -1, 1], (1, 1, -(2**70))):
                with pytest.raises(IndexError, match=r"^entry index \(.*\) must be 1-based"):
                    call(A, bad)
            for bad in ((n + 1, 1, 1), Index3(1, n + 1, 1), [1, 1, 2**70]):
                if name in unbounded:
                    assert call(A, bad) == call(A, Index3(*bad)), (name, bad)
                    continue
                message = rf"^entry index \(.*\) out of range for an order-{n} matrix$"
                with pytest.raises(IndexError, match=message):
                    call(A, bad)
    # An order-1 matrix has its one entry, but no minors at any address.
    A = CubicMatrix(1, [[[9]]])
    assert A.get((1, 1, 1)) == A[1, 1, 1] == Scalar(9)
    for name in ("delete_sub", "minor", "cofactor", "cofactor paper-def"):
        for at in (Index3(1, 1, 1), (1, 1, 1), (2, 1, 1), None):
            with pytest.raises(ShapeError, match="^an order-1 matrix has no sub-matrices to delete down to$"):
                calls[name](A, at)


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
        # An order-1 matrix is its entry along every layer, on every call
        # and for every matrix: it never reaches _MINORS, which cannot
        # compile rows that name no cell.
        for entry in (Scalar(5), Scalar(-7, 2), Scalar(2**63 - 1, 2**64 - 1)):
            for axis in Axis:
                assert det_laplace(CubicMatrix(1, [[[entry]]]), axis, 1) == entry

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
        # Each order's recursion along h:1 is derived from the layer
        # structure alone; its rows list the layer entry first, so
        # compare them as sorted cells.
        def monomials(rows):
            return Counter((sign, *sorted(cells)) for sign, *cells in rows)

        for order in (1, 2, 3):
            rows = laplace._expansion_rows(order)
            assert len(rows) == math.factorial(order) ** 2
            assert monomials(rows) == monomials(_flatten(order, perm_terms(order))), order

    def test_minors_are_the_recursion_not_the_closed_form(self):
        # Each cell's minor rows hold the permutation sum of order n-1
        # over the cell's kept cells, and come from the recursion: laplace
        # binds neither the closed-form tables nor the permutation terms.
        def monomials(rows):
            return Counter((sign, *sorted(cells)) for sign, *cells in rows)

        for n in (2, 3):
            reference = _flatten(n - 1, perm_terms(n - 1))
            for f, (_, kept) in enumerate(_CELLS[n]):
                through_kept = [(sign, *[kept[g] for g in cells]) for sign, *cells in reference]
                assert monomials(laplace._MINOR_ROWS[n][f]) == monomials(through_kept), (n, f)
        assert not [name for name in vars(laplace) if name in ("_FLAT", "perm_terms") or name.startswith("_TERMS")]


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


def _outcome(call, *args):
    """A call's value, or the message of the ScalarOverflowError it raises."""
    try:
        return call(*args)
    except ScalarOverflowError as err:
        return f"ScalarOverflowError: {err}"


@given(edge_cubics())
def test_memo_answers_as_a_fresh_matrix(A):
    # det_laplace, expand and cofactor share one per-cell memo on the
    # matrix object: in either call order, each call answers, or raises,
    # exactly as the same call on a fresh equal matrix, whose memo is empty.
    n = A.order
    expansions = [(call, axis, index) for call in (det_laplace, expand) for axis in Axis for index in range(1, n + 1)]
    cells = [
        (call, Index3(i, j, k), *convention)
        for k, i, j in product(range(1, n + 1), repeat=3)
        for call, *convention in ((minor,), (cofactor,), (cofactor, SignConvention.PAPER_DEF))
    ]

    def copy():  # an equal matrix with an empty memo
        return CubicMatrix._reduced(n, A._scale, A._ints)

    fresh = {(call, *args): _outcome(call, copy(), *args) for call, *args in expansions + cells}
    for calls in (expansions + cells, cells + expansions):
        shared = copy()
        for call, *args in calls:
            assert _outcome(call, shared, *args) == fresh[(call, *args)], (call, args)


def test_expand_reads_the_sign_at_call_time(example1, example2, monkeypatch):
    # The memo holds entries and minors, never signs, and the sign table
    # is rebuilt when sign_expansion is rebound: a sign patched after an
    # expansion (which fills both) shows in the next expansion of the
    # same object, in the next det_laplace and in cross_check's totals;
    # undoing the patch brings the true signs back.
    before = expand(example2, Axis.HORIZONTAL_LAYER, 1)
    assert example2._cell_memo is not None
    assert det_laplace(example2, Axis.VERTICAL_PAGE, 2) == Scalar(326)
    assert det_laplace(example1, Axis.VERTICAL_LAYER, 2) == Scalar(-3)
    true_totals = {m.order: _expansion_totals(m) for m in (example1, example2)}
    monkeypatch.setattr(laplace, "sign_expansion", lambda at: -sign_expansion(at))
    assert det_laplace(example2, Axis.VERTICAL_PAGE, 2) == det_laplace(example2) == Scalar(-326)
    assert det_laplace(example1, Axis.VERTICAL_LAYER, 2) == Scalar(3)
    after = expand(example2, Axis.HORIZONTAL_LAYER, 1)
    assert [t.sign for t in after.terms] == [-t.sign for t in before.terms]
    assert [t.contribution for t in after.terms] == [-t.contribution for t in before.terms]
    assert [t.minor_value for t in after.terms] == [t.minor_value for t in before.terms]
    assert after.total == -before.total == Scalar(-326)
    for m in (example1, example2):
        paths = cross_check(m).paths
        laplace_paths = [value for name, value in paths.items() if name.startswith("laplace:")]
        assert laplace_paths == [-paths["permutation"]] * 3 * m.order
    # So does a cofactor read from the memo: sign -1 is patched to +1.
    assert cofactor(example2, Index3(1, 2, 3)) == minor(example2, Index3(1, 2, 3)) == Scalar(1)
    monkeypatch.undo()
    assert laplace.sign_expansion is sign_expansion
    assert expand(example2, Axis.HORIZONTAL_LAYER, 1).terms == before.terms
    assert det_laplace(example2, Axis.VERTICAL_PAGE, 2) == Scalar(326)
    assert det_laplace(example1, Axis.VERTICAL_LAYER, 2) == Scalar(-3)
    for m in (example1, example2):
        assert _expansion_totals(m) == true_totals[m.order]
        assert cross_check(m).overall


def test_cofactor_reads_the_kept_minor(example2):
    # After an expansion, a cofactor through one of its cells signs the
    # kept term's minor_value, whatever that term's sign, and builds none.
    terms = expand(example2, Axis.HORIZONTAL_LAYER, 1).terms
    assert (terms[0].at, terms[0].sign, terms[1].sign) == (Index3(1, 1, 1), 1, -1)
    assert cofactor(example2, terms[0].at) is terms[0].minor_value
    assert cofactor(example2, terms[1].at, SignConvention.PAPER_DEF) is terms[1].minor_value


def test_an_overflowing_term_is_never_kept():
    # Every entry 2**40: each contribution is 2**80, past the bounds, and
    # each minor 2**40, inside them.  No term is kept, so every expansion
    # raises as on a fresh matrix, on a repeat call and after the other
    # layers were expanded, while the minors stay readable.
    def big():
        return CubicMatrix(2, [[[2**40] * 2] * 2] * 2)

    paths = [(axis, index) for axis in Axis for index in (1, 2)]
    want = {path: _outcome(expand, big(), *path) for path in paths}
    assert all(isinstance(message, str) for message in want.values())
    shared = big()
    for path in paths + paths[::-1]:
        assert _outcome(expand, shared, *path) == want[path], path
    assert cofactor(shared, Index3(1, 1, 1)) == Scalar(2**40)
    assert cofactor(shared, Index3(1, 1, 2)) == Scalar(-(2**40))


@given(edge_cubics())
def test_repeated_expansions_answer_as_a_fresh_matrix(A):
    # expand keeps each cell's term in the memo and reuses it in the
    # other expansions through the cell and on a repeat call: run twice
    # on one matrix, every expansion answers, or raises, exactly as the
    # same expansion of a fresh equal matrix.
    n = A.order
    paths = [(axis, index) for axis in Axis for index in range(1, n + 1)]

    def copy():  # an equal matrix with an empty memo
        return CubicMatrix._reduced(n, A._scale, A._ints)

    fresh = {path: _outcome(expand, copy(), *path) for path in paths}
    shared = copy()
    for path in paths + paths:
        assert _outcome(expand, shared, *path) == fresh[path], path


def test_memo_leaves_equality_and_hash(example2):
    fresh = CubicMatrix(3, example2.layers())
    expand_all(example2)
    cofactor(example2, Index3(2, 2, 2))
    assert example2._cell_memo is not None and fresh._cell_memo is None
    assert example2 == fresh and hash(example2) == hash(fresh)
    assert {fresh: "found"}[example2] == "found"


def test_memo_is_shared_safely_between_threads():
    # Two threads may each compute a matrix's minors and install their
    # own whole memo tuple, losing the terms the other kept there; that
    # only repeats work, so every answer is still the fresh one.
    def answers(A):
        at_cells = [Index3(i, j, k) for i, j, k in product((1, 2, 3), repeat=3)]
        return expand_all(A) + [cofactor(A, at) for at in at_cells]

    def copies():
        return [random_cubic(GenSpec(3, seed, 9)).scale(Scalar(1, 3)) for seed in range(40)]

    want = [answers(A) for A in copies()]
    shared = copies()
    errors = []

    def work(offset):
        try:
            for step in range(len(shared)):
                s = (step + offset) % len(shared)
                if answers(shared[s]) != want[s]:
                    errors.append(f"matrix {s} answered differently")
        except Exception as err:  # reported below, in the test's thread
            errors.append(repr(err))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in (0, 0, 1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
