import pytest

from cubicdet import (
    ZERO,
    Axis,
    CubicMatrix,
    GenSpec,
    Index3,
    Scalar,
    ScalarOverflowError,
    SignConvention,
    cofactor,
    cross_check,
    det_laplace,
    expand,
    det_closed,
    det_permutation,
    minor,
    perm_terms,
    random_cubic,
    sign_expansion,
    sign_paper_def,
)
from cubicdet.determinant import _TERMS_1, _TERMS_2, _TERMS_3, _terms


class TestGoldenDeterminants:
    def test_order2_example(self, example1):
        assert det_closed(example1) == Scalar(-3)
        assert det_permutation(example1) == Scalar(-3)

    def test_order3_example(self, example2):
        assert det_closed(example2) == Scalar(326)
        assert det_permutation(example2) == Scalar(326)

    def test_order1_is_the_entry(self):
        assert det_closed(CubicMatrix(1, [[[7]]])) == Scalar(7)
        assert det_permutation(CubicMatrix(1, [[[-5]]])) == Scalar(-5)

    def test_diagonal_monomial(self):
        m = CubicMatrix(3, [[[0] * 3 for _ in range(3)] for _ in range(3)])
        layers = m.layers()
        for d in (1, 2, 3):
            layers[d - 1][d - 1][d - 1] = Scalar(1)
        diag = CubicMatrix(3, layers)
        assert det_closed(diag) == Scalar(1)

    def test_all_zero(self):
        for order in (1, 2, 3):
            zeros = [[[0] * order for _ in range(order)] for _ in range(order)]
            assert det_closed(CubicMatrix(order, zeros)) == ZERO

    def test_rational_entries(self):
        m = CubicMatrix(2, [[[Scalar(1, 2), 0], [0, 1]], [[0, 0], [0, Scalar(2, 3)]]])
        # a_111 * a_222 is the only surviving monomial.
        expected = Scalar(1, 2) * Scalar(2, 3)
        assert det_closed(m) == expected
        assert det_permutation(m) == expected


class TestPermTerms:
    def test_counts(self):
        assert len(perm_terms(1)) == 1
        assert len(perm_terms(2)) == 4
        assert len(perm_terms(3)) == 36

    def test_order1_template(self):
        assert perm_terms(1) == ((1, ((1, 1, 1),)),)

    def test_matches_closed_form_tables(self):
        # (n!)**2 distinct terms each, the permutation terms and no others.
        for order, table, count in ((1, _TERMS_1, 1), (2, _TERMS_2, 4), (3, _TERMS_3, 36)):
            assert len(table) == len(set(table)) == count, order
            assert set(table) == set(perm_terms(order)), order

    def test_closed_form_rows_list_i_ascending(self):
        for order, table in ((1, _TERMS_1), (2, _TERMS_2), (3, _TERMS_3)):
            for _, positions in table:
                assert [i for i, _, _ in positions] == list(range(1, order + 1)), positions

    def test_notation_reads_as_the_paper_writes_it(self):
        assert _terms("+a111a222 -a112a221") == ((1, ((1, 1, 1), (2, 2, 2))), (-1, ((1, 1, 2), (2, 2, 1))))
        assert _terms("\n  -a123\n") == ((-1, ((1, 2, 3),)),)

    def test_positions_are_bijections(self):
        for order in (1, 2, 3):
            for _, positions in perm_terms(order):
                want = set(range(1, order + 1))
                assert {i for i, _, _ in positions} == want
                assert {j for _, j, _ in positions} == want
                assert {k for _, _, k in positions} == want

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            perm_terms(4)


class TestSigns:
    def test_expansion_sign_values(self):
        assert sign_expansion(Index3(1, 1, 1)) == 1
        assert sign_expansion(Index3(2, 1, 1)) == 1  # independent of i
        assert sign_expansion(Index3(1, 2, 3)) == -1

    def test_paper_def_sign_values(self):
        assert sign_paper_def(Index3(1, 1, 1)) == -1
        assert sign_paper_def(Index3(1, 2, 3)) == 1
        assert sign_paper_def(Index3(2, 1, 1)) == 1

    def test_paper_def_checkerboard(self):
        # The k=1 face alternates starting from "-" at (1,1,1).
        grid = [[sign_paper_def(Index3(i, j, 1)) for j in (1, 2, 3)] for i in (1, 2, 3)]
        assert grid == [[-1, 1, -1], [1, -1, 1], [-1, 1, -1]]

    def test_sign_identity_exhaustive(self):
        # sign_expansion = sign_paper_def * (-1)^i over all order-2/3 triples.
        for n in (2, 3):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for k in range(1, n + 1):
                        at = Index3(i, j, k)
                        assert sign_expansion(at) == sign_paper_def(at) * (-1) ** i

    def test_expansion_sign_matches_coefficient(self, example2):
        # The coefficient of a_ijk in the closed form is
        # sign_expansion(i,j,k) * M_ijk: bump one entry and difference.
        from cubicdet import minor

        for at in (Index3(1, 2, 3), Index3(2, 1, 1), Index3(3, 3, 2)):
            layers = example2.layers()
            layers[at.k - 1][at.i - 1][at.j - 1] += Scalar(1)
            bumped = CubicMatrix(3, layers)
            delta = det_closed(bumped) - det_closed(example2)
            expected = minor(example2, at)
            if sign_expansion(at) < 0:
                expected = -expected
            assert delta == expected


class TestOracleAgreement:
    def test_seeded_random(self):
        for order in (1, 2, 3):
            for seed in range(300):
                m = random_cubic(GenSpec(order, seed, 9))
                assert det_closed(m) == det_permutation(m)


class TestDerivedLaws:
    # Small seeded samples here; the full 1e3-per-order run lives in the
    # acceptance suite.
    def test_layer_scaling(self):
        c = Scalar(3)
        for order in (2, 3):
            for seed in range(40):
                m = random_cubic(GenSpec(order, seed, 9))
                base = det_permutation(m)
                for axis in Axis:
                    for index in range(1, order + 1):
                        assert det_permutation(m.scale_layer(axis, index, c)) == c * base

    def test_swap_symmetries(self):
        for order in (2, 3):
            for seed in range(40):
                m = random_cubic(GenSpec(order, 1000 + seed, 9))
                base = det_permutation(m)
                assert det_permutation(m.swap_layers(Axis.HORIZONTAL_LAYER, 1, 2)) == base
                assert det_permutation(m.swap_layers(Axis.VERTICAL_PAGE, 1, 2)) == -base
                assert det_permutation(m.swap_layers(Axis.VERTICAL_LAYER, 1, 2)) == -base

    def test_zero_layer(self):
        for order in (2, 3):
            for seed in range(40):
                m = random_cubic(GenSpec(order, 2000 + seed, 9))
                for axis in Axis:
                    assert det_permutation(m.scale_layer(axis, order, 0)) == ZERO


class TestOverflowAgreement:
    # Every monomial is 2**80, outside the 64-bit bounds, but they cancel
    # to 0.  A route raises only when a value it reports leaves the bounds.
    BIG = CubicMatrix(2, [[[2**40] * 2] * 2] * 2)
    # Every entry 1/2**33: each trace contribution is +-1/2**66, past the
    # denominator bound, although the determinant is 0.
    WIDE_DEN = CubicMatrix(2, [[[Scalar(1, 2**33)] * 2] * 2] * 2)
    # a_111 is 0 and its minor 2**64: the contribution fits, the minor not.
    ZERO_TIMES_WIDE_MINOR = CubicMatrix(
        3, [[[0, 0, 0]] * 3, [[0, 0, 0], [0, 2**32, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 2**32]]]
    )
    # a_221 is 2**62 and a_333 is 2: the minor at (1, 1, 2) is 2**63, one
    # past the bounds, while its expansion cofactor -2**63 would fit.
    MINOR_2_63 = CubicMatrix(3, [[[0, 0, 0], [0, 2**62, 0], [0, 0, 0]], [[0, 0, 0]] * 3, [[0, 0, 0], [0, 0, 0], [0, 0, 2]]])

    def test_routes_agree_past_an_unrepresentable_intermediate(self):
        assert det_closed(self.BIG) == ZERO
        assert det_permutation(self.BIG) == ZERO
        for axis in Axis:
            for index in (1, 2):
                assert det_laplace(self.BIG, axis, index) == ZERO

    def test_unrepresentable_trace_values_raise(self):
        # In BIG each trace contribution is 2**80.
        for m in (self.BIG, self.WIDE_DEN, self.ZERO_TIMES_WIDE_MINOR, self.MINOR_2_63):
            assert det_permutation(m) == ZERO
            with pytest.raises(ScalarOverflowError):
                expand(m, Axis.HORIZONTAL_LAYER, 1)
            with pytest.raises(ScalarOverflowError):
                cross_check(m)
        # A cofactor is its minor's bounds check, then the sign.
        at = Index3(1, 1, 2)
        for call in (minor, cofactor, lambda m, at: cofactor(m, at, SignConvention.PAPER_DEF)):
            with pytest.raises(ScalarOverflowError, match=r"^numerator 9223372036854775808 outside"):
                call(self.MINOR_2_63, at)

    # In order 2 each trace contribution is one signed monomial, so it is
    # the same in all six expansions.  AT_MIN has the monomials 2**63-1
    # (7 times (2**63-1)/7) and -2**63; PAST_MAX has 2**63 and -2**63.
    AT_MIN = CubicMatrix(2, [[[7, 0], [0, 2**31]], [[2**32, 0], [0, (2**63 - 1) // 7]]])
    PAST_MAX = CubicMatrix(2, [[[2**32, 0], [0, 2**31]], [[2**32, 0], [0, 2**31]]])

    def test_a_contribution_of_minus_2_63_is_reported(self):
        det = det_permutation(self.AT_MIN)
        assert det == Scalar(-1)
        for axis in Axis:
            for index in (1, 2):
                trace = expand(self.AT_MIN, axis, index)
                assert trace.total == det
                assert Scalar(-(2**63)) in [t.contribution for t in trace.terms]
        report = cross_check(self.AT_MIN)
        assert report.overall
        assert set(report.paths.values()) == {det}

    def test_a_contribution_of_2_63_raises(self):
        assert det_permutation(self.PAST_MAX) == ZERO
        for axis in Axis:
            for index in (1, 2):
                with pytest.raises(ScalarOverflowError):
                    expand(self.PAST_MAX, axis, index)
        with pytest.raises(ScalarOverflowError):
            cross_check(self.PAST_MAX)

    # Over the common denominator 2**10, a_111 is the int 2**71, so every
    # expansion has a term past 64 bits and is summed by expand itself,
    # whose reduced values all fit.  (With 2**62 the scale law overflows.)
    WIDE_INTS = CubicMatrix(2, [[[2**61, 1], [1, 1]], [[1, 1], [1, Scalar(1, 2**10)]]])

    def test_unreduced_ints_past_64_bits_with_a_reduced_trace(self, monkeypatch):
        import cubicdet.laplace as laplace_mod

        det = Scalar(2**51 - 1)
        assert self.WIDE_INTS._ints[0] == 2**71
        assert det_permutation(self.WIDE_INTS) == det
        fallbacks = []
        real = laplace_mod.expand

        def spy(A, axis, index):
            fallbacks.append((axis, index))
            return real(A, axis, index)

        monkeypatch.setattr(laplace_mod, "expand", spy)
        report = cross_check(self.WIDE_INTS)
        assert report.overall
        assert set(report.paths.values()) == {det}
        assert len(fallbacks) == 6
