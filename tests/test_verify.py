import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cubicdet import (
    Axis,
    CubicMatrix,
    GenSpec,
    Scalar,
    ScalarOverflowError,
    ShapeError,
    SplitMix64,
    batch_verify,
    build_report,
    cross_check,
    expand,
    matrix_digest,
    random_cubic,
    serialize_text,
)


class TestSplitMix64:
    # Reference outputs for the standard splitmix64 constants.
    VECTORS = {
        0: (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F),
        42: (0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52),
        0x123456789ABCDEF0: (0x161922C645CE50E8, 0xAD760CAFA1697B60, 0x3501FF44902CA50D),
    }

    def test_reference_vectors(self):
        for seed, want in self.VECTORS.items():
            rng = SplitMix64(seed)
            assert tuple(rng.next() for _ in want) == want

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(1 << 64).next() == SplitMix64(0).next()

    # A pass mixes at most 64 outputs, in lanes of one int: 63 to 65,
    # 128 and 129 cross or end at a pass boundary.
    @example(0, 63)
    @example(0, 64)
    @example(2**64 - 1, 64)
    @example(2**64 - 1, 65)
    @example(1, 128)
    @example(2**64 - 1, 129)
    @example(2**64 - 1, 0)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 200))
    def test_outputs_are_the_successive_next_values(self, seed, count):
        stream, stepped = SplitMix64(seed), SplitMix64(seed)
        got = 0
        for out in stream.outputs(count):
            assert out == stepped.next()
            assert stream.state == stepped.state
            got += 1
            # After i outputs the state is seed + i * gamma, by definition.
            assert stream.state == (seed + got * 0x9E3779B97F4A7C15) % 2**64
        assert got == count
        assert stream.state == stepped.state
        assert stream.next() == stepped.next()


def reference_splitmix64(state):
    """The splitmix64 stream written out from its definition: add the
    golden-ratio increment mod 2**64, then two xorshift-multiply rounds
    and a final xorshift."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        yield z ^ (z >> 31)


def test_random_cubic_follows_the_reference_stream():
    # Cell order k, then i, then j; each output x becomes x mod (2R+1) - R.
    # Past R = 2**63 - 1 an entry can leave the signed 64-bit bounds, and
    # then the first such entry, in cell order, names the error.
    ranges = (1, 9, 2**62, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1)
    seeds = reference_splitmix64(2101)
    for t, seed in enumerate([0, 2**64 - 1] + [next(seeds) for _ in range(698)]):
        order, r = t % 3 + 1, ranges[t // 3 % len(ranges)]
        stream = reference_splitmix64(seed)
        want = [next(stream) % (2 * r + 1) - r for _ in range(order**3)]
        outside = [v for v in want if not -(2**63) <= v <= 2**63 - 1]
        if outside:
            with pytest.raises(ScalarOverflowError, match=rf"^numerator {outside[0]} outside the signed 64-bit range$"):
                random_cubic(GenSpec(order, seed, r))
        else:
            got = random_cubic(GenSpec(order, seed, r)).layers()
            assert [v for block in got for row in block for v in row] == list(map(Scalar, want)), (order, seed, r)


def test_batch_trials_follow_the_reference_stream(monkeypatch):
    # Every trial's seed is the next output of the master seed's stream,
    # across orders, and batch_verify builds each trial through the
    # verify module's random_cubic.
    import cubicdet.verify as verify_mod

    specs = []
    real = verify_mod.random_cubic
    monkeypatch.setattr(verify_mod, "random_cubic", lambda spec: specs.append(spec) or real(spec))
    stream = reference_splitmix64(2**64 - 1)
    assert batch_verify((3, 2), 4, 2**64 - 1, 9).trials == 8
    assert specs == [GenSpec(order, next(stream), 9) for order in (3, 3, 3, 3, 2, 2, 2, 2)]


class TestRandomCubic:
    def test_deterministic(self):
        spec = GenSpec(3, 7, 9)
        assert random_cubic(spec) == random_cubic(spec)
        assert random_cubic(spec) != random_cubic(GenSpec(3, 8, 9))

    def test_range_bound(self):
        m = random_cubic(GenSpec(3, 123, 1))
        allowed = {Scalar(-1), Scalar(0), Scalar(1)}
        for layer in m.layers():
            for row in layer:
                assert set(row) <= allowed

    def test_entries_follow_the_stream(self):
        m = random_cubic(GenSpec(2, 11, 4))
        rng = SplitMix64(11)
        want = [Scalar(rng.next() % 9 - 4) for _ in range(8)]
        got = [m[i, j, k] for k in (1, 2) for i in (1, 2) for j in (1, 2)]
        assert got == want

    def test_matches_frozen_golden_file(self, data_dir):
        frozen = (data_dir / "gen_order3_seed42_range9.txt").read_text()
        assert serialize_text(random_cubic(GenSpec(3, 42, 9))) == frozen

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="order"):
            GenSpec(4, 0, 9)
        with pytest.raises(ValueError, match="order"):
            GenSpec(0, 0, 9)
        with pytest.raises(ValueError, match="seed"):
            GenSpec(2, -1, 9)
        with pytest.raises(ValueError, match="seed"):
            GenSpec(2, 1 << 64, 9)
        assert GenSpec(2, (1 << 64) - 1, 9).seed == (1 << 64) - 1
        with pytest.raises(ValueError, match="range"):
            GenSpec(2, 0, 0)
        spec = GenSpec(order=3, seed=42, range=9)
        assert spec == GenSpec(3, 42, 9) == (3, 42, 9)
        assert repr(spec) == "GenSpec(order=3, seed=42, range=9)"
        with pytest.raises(ValueError, match="^seed must fit in 64 bits, got -1$"):
            GenSpec(order=3, seed=-1, range=9)
        # namedtuple's _make and _replace validate like the constructor.
        assert GenSpec._make([3, 42, 9]) == spec._replace(seed=42) == spec
        with pytest.raises(ValueError, match="^seed must fit in 64 bits, got -1$"):
            spec._replace(seed=-1)
        with pytest.raises(ValueError, match="^order must be 1, 2, or 3, got 4$"):
            GenSpec._make((4, 0, 9))
        # Components are ints, bool rejected, checked before their ranges.
        for bad in ((True, 0, 9), (2, 1.5, 9), (2, 0, 1.5), (2.0, 0, 9), (3, False, 9), (2, 0, True), (2, -1.0, 9)):
            message = rf"^order, seed and range must be ints, got \({','.join(map(re.escape, map(repr, bad)))}\)$"
            with pytest.raises(TypeError, match=message):
                GenSpec(*bad)
            with pytest.raises(TypeError, match=message):
                spec._replace(order=bad[0], seed=bad[1], range=bad[2])

        class Seed(int):
            pass

        assert GenSpec(3, Seed(42), 9) == spec


class TestMatrixDigest:
    def test_shape_and_stability(self, example1, example2):
        d1 = matrix_digest(example1)
        assert re.fullmatch(r"order2:[0-9a-f]{16}", d1)
        assert matrix_digest(example1) == d1
        assert matrix_digest(example2).startswith("order3:")
        assert d1 != matrix_digest(example2)

    def test_pinned_rational_digest(self):
        # The hash of "2\n1/2 -2/3\n5 0\n\n7/11 -1\n9/4 1/6\n": cells reduced
        # over their own denominators, not over the common one (132).
        m = CubicMatrix(
            2,
            [
                [[Scalar(1, 2), Scalar(-2, 3)], [5, 0]],
                [[Scalar(7, 11), -1], [Scalar(9, 4), Scalar(1, 6)]],
            ],
        )
        assert matrix_digest(m) == "order2:8acd18a58f311f58"


class TestCrossCheck:
    def test_order2_report(self, example1):
        report = cross_check(example1)
        assert report.overall is True
        assert report.det_value == Scalar(-3)
        assert set(report.paths) == {
            "closed",
            "permutation",
            "laplace:h:1",
            "laplace:h:2",
            "laplace:p:1",
            "laplace:p:2",
            "laplace:l:1",
            "laplace:l:2",
        }
        assert all(report.agreements.values())
        assert [name for name, _ in report.derived_laws] == [
            "scale:h",
            "swap:h",
            "zero:h",
            "scale:p",
            "swap:p",
            "zero:p",
            "scale:l",
            "swap:l",
            "zero:l",
        ]
        assert all(ok for _, ok in report.derived_laws)
        assert report.subject == matrix_digest(example1)
        with pytest.raises(AttributeError):
            report.overall = False

    def test_order3_report(self, example2):
        report = cross_check(example2)
        assert report.overall is True
        assert report.det_value == Scalar(326)
        assert len(report.paths) == 11
        assert all(report.agreements.values())
        assert len(report.derived_laws) == 9

    def test_order1_rejected(self):
        with pytest.raises(ShapeError):
            cross_check(CubicMatrix(1, [[[1]]]))

    def test_perturbed_path_is_flagged(self, example2):
        report = cross_check(example2)
        paths = dict(report.paths)
        paths["laplace:p:2"] = paths["laplace:p:2"] + Scalar(1)
        bad = build_report(report.subject, report.det_value, paths, report.derived_laws)
        assert bad.overall is False
        assert bad.agreements["laplace:p:2"] is False
        assert all(ok for name, ok in bad.agreements.items() if name != "laplace:p:2")

    def test_failed_law_is_flagged(self, example2):
        report = cross_check(example2)
        laws = tuple(
            (name, False if name == "swap:l" else ok) for name, ok in report.derived_laws
        )
        bad = build_report(report.subject, report.det_value, report.paths, laws)
        assert bad.overall is False
        assert all(report.agreements.values())

    def test_sign_bug_is_caught(self, example1, example2, monkeypatch):
        # Flip the expansion sign as laplace sees it: every expansion path
        # must disagree while the closed form, the oracle, and the laws
        # (which never touch laplace) stay green.
        import cubicdet.laplace as laplace_mod

        real = laplace_mod.sign_expansion
        monkeypatch.setattr(laplace_mod, "sign_expansion", lambda at: -real(at))
        for m in (example1, example2):
            report = cross_check(m)
            assert report.overall is False
            for name, ok in report.agreements.items():
                assert ok is (not name.startswith("laplace:"))
            assert all(ok for _, ok in report.derived_laws)

    def test_one_entry_sign_fault_is_localized(self, example1, example2, monkeypatch):
        # A wrong sign on one entry with a nonzero term must fail exactly
        # the three expansions whose layers hold that entry.
        import cubicdet.laplace as laplace_mod

        real = laplace_mod.sign_expansion
        for m in (example1, example2):
            bad_entries = [
                t.at
                for index in range(1, m.order + 1)
                for t in expand(m, Axis.HORIZONTAL_LAYER, index).terms
                if t.contribution
            ]
            assert len(bad_entries) > m.order
            for bad in bad_entries:
                monkeypatch.setattr(laplace_mod, "sign_expansion", lambda at: -real(at) if at == bad else real(at))
                report = cross_check(m)
                failed = {name for name, ok in report.agreements.items() if not ok}
                assert failed == {f"laplace:h:{bad.i}", f"laplace:p:{bad.j}", f"laplace:l:{bad.k}"}
                assert all(ok for _, ok in report.derived_laws)

    def test_laws_fail_when_the_transforms_do_nothing(self, example2, monkeypatch):
        # A swap that leaves the matrix as it is and a scale that ignores
        # its factor must fail exactly the laws whose prediction differs
        # from det: swap:p, swap:l, every scale law and every zero law.
        # On an integer and on a rational matrix (_scale 3), so the law
        # comparison runs over a common denominator too.
        subjects = (example2, example2.scale(Scalar(1, 3)))
        assert [m._scale for m in subjects] == [1, 3]
        real = CubicMatrix.scale_layer
        monkeypatch.setattr(CubicMatrix, "swap_layers", lambda self, axis, a, b: self)
        monkeypatch.setattr(CubicMatrix, "scale_layer", lambda self, axis, index, c: real(self, axis, index, 1))
        expected = {f"{law}:{axis}" for law in ("scale", "zero") for axis in "hpl"} | {"swap:p", "swap:l"}
        for m in subjects:
            report = cross_check(m)
            assert report.det_value != Scalar(0)
            assert {name for name, ok in report.derived_laws if not ok} == expected
            assert all(report.agreements.values())
            assert report.overall is False

    def test_law_transform_that_changes_the_common_denominator(self):
        # h:1 holds the four halves, so doubling it leaves _scale 1: the
        # scale law's matrix has another common denominator than A's.
        h = Scalar
        A = CubicMatrix(2, [[[h(1, 2), h(3, 2)], [5, -7]], [[h(-5, 2), h(1, 2)], [2, 3]]])
        assert A._scale == 2
        assert A.scale_layer(Axis.HORIZONTAL_LAYER, 1, Scalar(2))._scale == 1
        report = cross_check(A)
        assert report.det_value == Scalar(-33, 2)
        assert all(ok for _, ok in report.derived_laws)
        assert report.overall is True


class TestBatchVerify:
    def test_clean_run(self):
        summary = batch_verify((2, 3), trials=5, seed=2026, range=9)
        assert summary.trials == 10
        assert summary.failures == 0
        assert summary.first_failure is None

    def test_deterministic(self):
        a = batch_verify((2,), trials=4, seed=17, range=5)
        b = batch_verify((2,), trials=4, seed=17, range=5)
        assert a == b

    def test_single_trial(self):
        summary = batch_verify((2,), trials=1, seed=0, range=9)
        assert summary.trials == 1
        # The largest 64-bit master seed is a seed.
        summary = batch_verify((2,), trials=1, seed=(1 << 64) - 1, range=9)
        assert (summary.trials, summary.failures) == (1, 0)

    def test_first_failure_is_the_first_trial_spec(self, monkeypatch):
        import cubicdet.verify as verify_mod

        real = verify_mod.cross_check

        def always_fail(m):
            report = real(m)
            broken = {"closed": report.det_value + Scalar(1)}
            return build_report(report.subject, report.det_value, broken, ())

        monkeypatch.setattr(verify_mod, "cross_check", always_fail)
        summary = verify_mod.batch_verify((2,), trials=3, seed=99, range=9)
        assert summary.failures == 3
        assert summary.first_failure == GenSpec(2, SplitMix64(99).next(), 9)

        # Over orders (2, 3) the trial seeds are one stream, trials per
        # order in turn: a failure on order 3 alone names output trials + 1.
        def fail_order_3(m):
            return always_fail(m) if m.order == 3 else real(m)

        monkeypatch.setattr(verify_mod, "cross_check", fail_order_3)
        trials = 3
        stream = list(SplitMix64(99).outputs(2 * trials))
        summary = verify_mod.batch_verify((2, 3), trials=trials, seed=99, range=9)
        assert (summary.trials, summary.failures) == (2 * trials, trials)
        assert summary.first_failure == GenSpec(3, stream[trials], 9)

    def test_validation(self):
        with pytest.raises(ValueError, match="orders"):
            batch_verify((1,), trials=1, seed=0, range=9)
        with pytest.raises(ValueError, match="trials"):
            batch_verify((2,), trials=0, seed=0, range=9)
        for seed in (-5, 1 << 64):
            with pytest.raises(ValueError, match=f"^seed must fit in 64 bits, got {seed}$"):
                batch_verify((2,), trials=1, seed=seed, range=9)
        # trials and seed are ints, bool rejected, checked before their ranges.
        for trials, seed, bad in ((True, 0, "trials"), (1.0, 0, "trials"), (0.5, 0, "trials"), (1, True, "seed"),
                                  (1, 1.0, "seed"), (1, -1.5, "seed"), (False, -1.0, "trials")):
            value = repr(trials if bad == "trials" else seed)
            with pytest.raises(TypeError, match=rf"^{bad} must be an int, got {re.escape(value)}$"):
                batch_verify((2,), trials=trials, seed=seed, range=9)

        # Each order and the range too, an order's type before its value.
        for orders, value in (((2.0,), 2.0), ((True,), True), ((3, 2.5), 2.5), (("2",), "2")):
            with pytest.raises(TypeError, match=rf"^order must be an int, got {re.escape(repr(value))}$"):
                batch_verify(orders, trials=1, seed=0, range=9)
        for range_ in (9.0, True, "9"):
            with pytest.raises(TypeError, match=rf"^range must be an int, got {re.escape(repr(range_))}$"):
                batch_verify((2,), trials=1, seed=0, range=range_)

        class Count(int):
            pass

        assert batch_verify((2,), Count(1), Count(7), 9) == batch_verify((2,), 1, 7, 9)
        assert batch_verify((Count(2),), 1, 7, Count(9)) == batch_verify((2,), 1, 7, 9)
