import copy
import doctest
import pickle

import pytest

from cubicdet import (
    ONE,
    ZERO,
    Axis,
    BatchSummary,
    CubicMatrix,
    ExpansionTrace,
    GenSpec,
    Index3,
    Scalar,
    ScalarOverflowError,
    ShapeError,
    TraceTerm,
    VerifyReport,
    det_laplace,
    expand,
)
from cubicdet.core3d import _CELLS, _LAYER_FLAT, _PATHS

NUM_MAX = 2**63 - 1
NUM_MIN = -(2**63)
DEN_MAX = 2**64 - 1


class TestScalar:
    def test_canonical_form(self):
        s = Scalar(2, 4)
        assert (s.num, s.den) == (1, 2)
        s = Scalar(-6, 9)
        assert (s.num, s.den) == (-2, 3)
        s = Scalar(3, -6)
        assert (s.num, s.den) == (-1, 2)
        s = Scalar(0, 5)
        assert (s.num, s.den) == (0, 1)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            Scalar(1, 0)

    def test_arithmetic_exact(self):
        assert Scalar(1, 2) + Scalar(1, 3) == Scalar(5, 6)
        assert Scalar(1, 2) - Scalar(1, 3) == Scalar(1, 6)
        assert Scalar(2, 3) * Scalar(3, 4) == Scalar(1, 2)
        assert -Scalar(5, 7) == Scalar(-5, 7)

    def test_arithmetic_stays_canonical(self):
        # Sums/products whose raw cross-multiplied forms are reducible.
        cases = [
            (Scalar(1, 6), Scalar(1, 6)),
            (Scalar(3, 4), Scalar(1, 4)),
            (Scalar(-2, 9), Scalar(5, 9)),
            (Scalar(7), Scalar(-7)),
        ]
        import math

        for a, b in cases:
            for r in (a + b, a - b, a * b):
                assert math.gcd(abs(r.num), r.den) == 1
                assert r.den >= 1

    def test_equality_and_hash(self):
        assert Scalar(2, 4) == Scalar(1, 2)
        assert hash(Scalar(2, 4)) == hash(Scalar(1, 2))
        assert Scalar(1, 2) != Scalar(1, 3)
        assert Scalar(3) != 3  # no silent cross-type equality

    def test_overflow_reported_not_wrapped(self):
        top = Scalar(NUM_MAX)
        with pytest.raises(ScalarOverflowError):
            top + ONE
        with pytest.raises(ScalarOverflowError):
            Scalar(NUM_MIN) - ONE
        with pytest.raises(ScalarOverflowError):
            top * Scalar(2)
        with pytest.raises(ScalarOverflowError):
            Scalar(1, NUM_MAX) * Scalar(1, 3)  # denominator blows past 64 bits
        with pytest.raises(ScalarOverflowError):
            -Scalar(NUM_MIN)
        with pytest.raises(ScalarOverflowError, match=r"^denominator 18446744073709551616 outside"):
            Scalar(1, DEN_MAX + 1)
        # Boundary values themselves are fine.
        assert (Scalar(NUM_MIN) + ONE).num == NUM_MIN + 1
        assert Scalar(1, DEN_MAX).den == DEN_MAX

    def test_str(self):
        assert str(Scalar(-3)) == "-3"
        assert str(Scalar(1, 2)) == "1/2"
        assert str(Scalar(-2, 4)) == "-1/2"

    def test_rejects_non_int_components(self):
        with pytest.raises(TypeError):
            Scalar(0.5)  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            Scalar(1, 2.0)  # type: ignore[arg-type]
        # bool is an int subclass, but not a component.
        with pytest.raises(TypeError, match=r"^Scalar components must be int, got True/1$"):
            Scalar(True)
        with pytest.raises(TypeError, match=r"^Scalar components must be int, got 1/False$"):
            Scalar(1, False)


class TestIndex3:
    def test_one_based(self):
        at = Index3(1, 2, 3)
        assert (at.i, at.j, at.k) == (1, 2, 3)
        assert str(at) == "(1,2,3)"
        assert repr(at) == "Index3(i=1, j=2, k=3)"
        with pytest.raises(IndexError):
            Index3(0, 1, 1)
        with pytest.raises(IndexError):
            Index3(1, -1, 1)
        with pytest.raises(IndexError, match=r"^entry index \(1,1,0\) must be 1-based"):
            Index3(i=1, j=1, k=0)
        # An immutable named tuple.
        i, j, k = at
        assert (i, j, k) == at == (1, 2, 3)
        assert Index3(k=3, i=1, j=2) == at
        with pytest.raises(AttributeError):
            at.i = 2
        # namedtuple's _make and _replace validate like the constructor.
        assert Index3._make([1, 2, 3]) == at._replace(k=3) == at
        with pytest.raises(IndexError, match=r"^entry index \(0,1,1\) must be 1-based"):
            Index3._make((0, 1, 1))
        with pytest.raises(IndexError, match=r"^entry index \(1,2,0\) must be 1-based"):
            at._replace(k=0)
        # Components are ints: bool, float and str are rejected, not looked up.
        with pytest.raises(TypeError, match=r"^entry index components must be ints, got \(True,1,1\)$"):
            Index3(True, 1, 1)
        with pytest.raises(TypeError, match=r"^entry index components must be ints, got \(2,2\.5,1\)$"):
            Index3(2, 2.5, 1)
        with pytest.raises(TypeError, match=r"^entry index components must be ints, got \(1,1,'3'\)$"):
            Index3(1, 1, "3")
        with pytest.raises(TypeError, match=r"^entry index components must be ints, got \(1,2,3\.0\)$"):
            at._replace(k=3.0)
        with pytest.raises(TypeError, match=r"^entry index components must be ints, got \(1\.5,2,3\)$"):
            Index3._make((1.5, 2, 3))

    def test_records_annotate_their_fields(self):
        # Each record names its fields twice: to namedtuple and as annotations.
        for record in (Index3, TraceTerm, ExpansionTrace, GenSpec, VerifyReport, BatchSummary):
            assert tuple(record.__annotations__) == record._fields


class TestAxis:
    @pytest.mark.parametrize("axis", list(Axis))
    def test_a_copied_member_is_the_member(self, axis, example2):
        # Axis hashes by identity, so a copy must be the member itself.
        for copied in (pickle.loads(pickle.dumps(axis)), copy.copy(axis), copy.deepcopy(axis)):
            assert copied is axis
            assert {axis: 1}[copied] == 1 and {copied: 1}[axis] == 1
            assert hash(copied) == hash(axis)
            assert example2.scale_layer(copied, 2, 3) == example2.scale_layer(axis, 2, 3)
            assert example2.swap_layers(copied, 1, 3) == example2.swap_layers(axis, 1, 3)
            assert expand(example2, copied, 2) == expand(example2, axis, 2)
            assert det_laplace(example2, copied, 3) == det_laplace(example2, axis, 3) == Scalar(326)

    def test_letters(self):
        assert Axis.from_letter("h") is Axis.HORIZONTAL_LAYER
        assert Axis.from_letter("p") is Axis.VERTICAL_PAGE
        assert Axis.from_letter("l") is Axis.VERTICAL_LAYER
        assert Axis.VERTICAL_PAGE.letter == "p"
        with pytest.raises(ValueError):
            Axis.from_letter("x")


class TestConstruction:
    def test_from_layers_order2(self, example1):
        assert example1.get(Index3(1, 1, 1)) == Scalar(4)
        assert example1.get(Index3(2, 1, 2)) == Scalar(-7)
        assert example1.get(Index3(1, 2, 1)) == Scalar(-3)

    def test_from_layers_order3(self, example2):
        assert example2.get(Index3(1, 1, 1)) == Scalar(3)
        assert example2.get(Index3(1, 3, 1)) == Scalar(-4)
        assert example2.get(Index3(3, 2, 2)) == Scalar(2)
        assert example2.get(Index3(2, 1, 3)) == Scalar(3)
        assert example2.get(Index3(1, 2, 3)) == Scalar(1)

    def test_from_layers_order1(self):
        m = CubicMatrix(1, [[[7]]])
        assert m.get(Index3(1, 1, 1)) == Scalar(7)

    def test_order_must_be_a_positive_integer(self):
        for order in (0, True, 2.0):
            with pytest.raises(ShapeError, match=rf"^order must be a positive integer, got {order!r}$"):
                CubicMatrix(order, [])

    def test_wrong_block_count(self):
        with pytest.raises(ShapeError, match="not square"):
            CubicMatrix(2, [[[1, 2], [3, 4]]])

    def test_ragged_block_named(self):
        with pytest.raises(ShapeError, match="vertical layer 2 row 2"):
            CubicMatrix(2, [[[1, 2], [3, 4]], [[5, 6], [7]]])
        with pytest.raises(ShapeError, match=r"^vertical layer 2 has 1 rows, expected 2: A is not square"):
            CubicMatrix(2, [[[1, 2], [3, 4]], [[5, 6]]])
        with pytest.raises(ShapeError, match=r"^vertical layer 1 has 3 rows, expected 2: A is not square"):
            CubicMatrix(2, [[[1, 2], [3, 4], [5, 6]], [[7, 8], [9, 0]]])

    def test_non_cubic_rejected(self):
        # 2x2x3: three blocks for a declared order of 2.
        with pytest.raises(ShapeError, match="not square"):
            CubicMatrix(2, [[[1, 2], [3, 4]], [[5, 6], [7, 8]], [[9, 0], [1, 2]]])

    def test_order_above_three(self):
        with pytest.raises(ShapeError, match="higher than the third order"):
            CubicMatrix(4, [[[0] * 4] * 4] * 4)

    def test_entry_types(self):
        # bool is an int subclass, but not an entry.
        for value in (True, 1.5):
            with pytest.raises(TypeError, match=rf"^matrix entries must be Scalar or int, got {value!r}$"):
                CubicMatrix(1, [[[value]]])

    def test_get_out_of_range(self, example1):
        with pytest.raises(IndexError, match=r"\(1,3,1\)"):
            example1.get(Index3(1, 3, 1))

    def test_getitem(self, example1):
        assert example1[1, 1, 2] == Scalar(-2)
        assert example1[Index3(2, 2, 2)] == Scalar(3)


class TestDeleteSub:
    def test_golden_minor_submatrices(self, example2):
        sub = example2.delete_sub(Index3(1, 1, 1))
        assert sub == CubicMatrix(2, [[[0, 3], [2, 5]], [[1, 2], [4, 3]]])
        sub = example2.delete_sub(Index3(1, 2, 3))
        assert sub == CubicMatrix(2, [[[2, -1], [0, -2]], [[-3, 3], [-3, 5]]])

    def test_order1_survivor(self, example1):
        sub = example1.delete_sub(Index3(1, 1, 1))
        assert sub == CubicMatrix(1, [[[3]]])  # only a_222 survives

    def test_underflow(self):
        with pytest.raises(ShapeError):
            CubicMatrix(1, [[[7]]]).delete_sub(Index3(1, 1, 1))

    def test_entry_multiset(self, example2):
        for at in (Index3(2, 3, 1), Index3(3, 1, 2)):
            sub = example2.delete_sub(at)
            assert sub.order == example2.order - 1
            survivors = [
                example2.get(Index3(i, j, k))
                for k in range(1, 4)
                for i in range(1, 4)
                for j in range(1, 4)
                if i != at.i and j != at.j and k != at.k
            ]
            assert sorted(str(v) for v in survivors) == sorted(
                str(v) for block in sub.layers() for row in block for v in row
            )


class TestLayerTransforms:
    def test_scale_by_one_and_zero(self, example1):
        assert example1.scale_layer(Axis.HORIZONTAL_LAYER, 1, 1) == example1
        zeroed = example1.scale_layer(Axis.HORIZONTAL_LAYER, 1, 0)
        for j in (1, 2):
            for k in (1, 2):
                assert zeroed.get(Index3(1, j, k)) == ZERO
                assert zeroed.get(Index3(2, j, k)) == example1.get(Index3(2, j, k))

    def test_scale_page(self, example1):
        scaled = example1.scale_layer(Axis.VERTICAL_PAGE, 2, 2)
        assert scaled.get(Index3(1, 2, 1)) == Scalar(-6)
        assert scaled.get(Index3(1, 1, 1)) == Scalar(4)

    def test_scale_then_inverse_restores(self, example2):
        c = Scalar(3, 7)
        for axis in Axis:
            m = example2.scale_layer(axis, 2, c).scale_layer(axis, 2, Scalar(c.den, c.num))
            assert m == example2

    def test_swap_identity_and_involution(self, example2):
        for axis in Axis:
            assert example2.swap_layers(axis, 2, 2) == example2
            assert example2.swap_layers(axis, 1, 3).swap_layers(axis, 1, 3) == example2

    def test_swap_moves_entries(self, example1):
        swapped = example1.swap_layers(Axis.HORIZONTAL_LAYER, 1, 2)
        assert swapped.get(Index3(1, 1, 1)) == Scalar(-1)
        assert swapped.get(Index3(2, 1, 1)) == Scalar(4)

    def test_results_keep_the_integer_view(self, example1, example2):
        # Each result's (_scale, _ints) is what its constructor computes.
        subjects = [
            example1,
            example2,
            example2.scale(Scalar(1, 3)),
            example2.scale_layer(Axis.VERTICAL_PAGE, 1, Scalar(1, 3)).scale_layer(Axis.VERTICAL_LAYER, 3, Scalar(5, 4)),
        ]
        for A in subjects:
            n = A.order
            results = [A.scale(Scalar(-2, 3)), A.delete_sub(Index3(1, 2, n))]
            for axis in Axis:
                results += [
                    A.scale_layer(axis, n, Scalar(3, 2)),
                    A.scale_layer(axis, 1, 0),
                    A.swap_layers(axis, 1, n),
                ]
            for m in results:
                fresh = CubicMatrix(m.order, m.layers())
                assert (m._scale, m._ints) == (fresh._scale, fresh._ints)

    def test_range_errors(self, example1):
        with pytest.raises(IndexError):
            example1.scale_layer(Axis.VERTICAL_LAYER, 3, 2)
        with pytest.raises(IndexError):
            example1.swap_layers(Axis.VERTICAL_PAGE, 1, 0)

    def test_swap_checks_its_indices_after_its_map_is_kept(self, example1):
        # True == 1 and 1.0 == 1 hash alike, so a lookup of the kept map
        # for (1, 2) must not stand in for the index check.
        swapped = example1.swap_layers(Axis.VERTICAL_PAGE, 1, 2)
        assert example1.swap_layers(Axis.VERTICAL_PAGE, 1, 2) == swapped
        for a, b in ((True, 2), (1, 2.0), (1.0, 2)):
            with pytest.raises(TypeError, match="^layer index must be an int"):
                example1.swap_layers(Axis.VERTICAL_PAGE, a, b)

    def test_scale_by_minus_one_checks_the_bounds(self):
        # -1 can push an entry past the bounds (-(-2**63)); 0 and 1 cannot.
        A = CubicMatrix(2, [[[-(2**63), 1], [2, 3]], [[4, 5], [6, 7]]])
        for axis in Axis:
            with pytest.raises(ScalarOverflowError, match=f"^numerator {2**63} outside the signed 64-bit range$"):
                A.scale_layer(axis, 1, -1)
            assert A.scale_layer(axis, 1, 1) == A
            assert A.scale_layer(axis, 1, 0).get(Index3(1, 1, 1)) == ZERO
            assert A.scale_layer(axis, 2, -1).get(Index3(1, 1, 1)) == Scalar(-(2**63))


class TestValueSemantics:
    def test_equality_and_hash(self, example1):
        twin = CubicMatrix(2, [[[4, -3], [-1, 5]], [[-2, 4], [-7, 3]]])
        assert example1 == twin
        assert hash(example1) == hash(twin)
        assert example1 != CubicMatrix(2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])

    def test_operations_leave_input_alone(self, example2):
        before = example2.layers()
        example2.swap_layers(Axis.VERTICAL_PAGE, 1, 2)
        example2.scale_layer(Axis.VERTICAL_LAYER, 1, 0)
        example2.delete_sub(Index3(2, 2, 2))
        assert example2.layers() == before

    def test_repr(self, example1):
        assert repr(example1) == "<CubicMatrix order=2: 4 -3 | -2 4; -1 5 | -7 3>"
        half = example1.scale_layer(Axis.VERTICAL_LAYER, 2, Scalar(1, 2))
        assert repr(half) == "<CubicMatrix order=2: 4 -3 | -1 2; -1 5 | -7/2 3/2>"

    def test_entries_stay_canonical(self):
        m = CubicMatrix(1, [[[Scalar(2, 4)]]]).scale(Scalar(2, 6))
        v = m.get(Index3(1, 1, 1))
        assert (v.num, v.den) == (1, 6)


def test_docstring_examples_run():
    # The examples document the Scalar and CubicMatrix representations.
    from cubicdet import core3d

    assert doctest.testmod(core3d) == (0, 8)


def test_geometry_tables_follow_the_coordinate_definitions():
    # Rebuilt from the coordinates alone: cells k-major, then i, then j;
    # a minor keeps the remaining layers in that order; a layer fixes one
    # coordinate and reads the other two in the cell order.
    H, P, L = Axis.HORIZONTAL_LAYER, Axis.VERTICAL_PAGE, Axis.VERTICAL_LAYER
    layer_keys = []
    for n in (1, 2, 3):
        rng = range(1, n + 1)
        cells = [(i, j, k) for k in rng for i in rng for j in rng]
        flat = {at: f for f, at in enumerate(cells)}
        kept = []
        for i, j, k in cells:
            rest_i, rest_j, rest_k = ([x for x in rng if x != fixed] for fixed in (i, j, k))
            kept.append(tuple(flat[si, sj, sk] for sk in rest_k for si in rest_i for sj in rest_j))
        assert _CELLS[n] == tuple(zip(cells, kept)), n
        assert all(type(at) is Index3 for at, _ in _CELLS[n])
        assert _PATHS[n] == tuple((axis, index) for axis in (H, P, L) for index in rng)
        for index in rng:
            layers = {
                H: [(index, j, k) for k in rng for j in rng],
                P: [(i, index, k) for k in rng for i in rng],
                L: [(i, j, index) for i in rng for j in rng],
            }
            for axis, positions in layers.items():
                assert _LAYER_FLAT[(n, axis, index)] == tuple(flat[at] for at in positions)
        layer_keys += [(n, axis, index) for axis in (H, P, L) for index in rng]
    assert list(_LAYER_FLAT) == layer_keys
