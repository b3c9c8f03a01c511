"""Acceptance gate: one test per contract criterion.

Each test prints a single ``criterion N: PASS|FAIL - ...`` line (pass
``-s`` to see the lines on success) and then asserts.  The seeded loops
here are the heavy ones; the per-module test files stay fast.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from cubicdet import (
    NOT_CUBIC_MESSAGE,
    ORDER_TOO_HIGH_MESSAGE,
    ZERO,
    Axis,
    GenSpec,
    Index3,
    Scalar,
    SignConvention,
    SplitMix64,
    build_report,
    cofactor,
    cross_check,
    det_closed,
    det_laplace,
    det_permutation,
    expand,
    expand_all,
    minor,
    parse_json,
    parse_text,
    perm_terms,
    random_cubic,
    serialize_json,
    serialize_text,
)
from cubicdet.cli import main as cli_main
from cubicdet.determinant import _TERMS_2, _TERMS_3


def _report(num: int, ok: bool, description: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num}: {description}"


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_criterion_1_golden_values(example1, example2):
    checks = [
        det_closed(example1) == Scalar(-3),
        det_closed(example2) == Scalar(326),
        minor(example2, Index3(1, 1, 1)) == Scalar(-13),
        minor(example2, Index3(1, 2, 3)) == Scalar(1),
        cofactor(example2, Index3(1, 1, 1), SignConvention.PAPER_DEF) == Scalar(13),
        cofactor(example2, Index3(1, 2, 3), SignConvention.PAPER_DEF) == Scalar(1),
    ]
    _report(1, all(checks), "golden dets, minors, and paper-def cofactors, exact")


def test_criterion_2_expansion_invariance(example1, example2):
    checks = []
    for m, want in ((example1, Scalar(-3)), (example2, Scalar(326))):
        traces = expand_all(m)
        checks.append(len(traces) == 3 * m.order)
        checks.append(all(t.total == want for t in traces))
        checks.append(
            all(
                det_laplace(m, axis, index) == want
                for axis in Axis
                for index in range(1, m.order + 1)
            )
        )
    t1 = expand(example1, Axis.HORIZONTAL_LAYER, 1)
    checks.append([t.at for t in t1.terms] == [
        Index3(1, 1, 1), Index3(1, 2, 1), Index3(1, 1, 2), Index3(1, 2, 2),
    ])
    checks.append([t.sign for t in t1.terms] == [1, -1, -1, 1])
    checks.append([t.minor_value for t in t1.terms] == [
        Scalar(3), Scalar(-7), Scalar(5), Scalar(-1),
    ])
    checks.append([t.contribution for t in t1.terms] == [
        Scalar(12), Scalar(-21), Scalar(10), Scalar(-4),
    ])
    t2 = expand(example2, Axis.HORIZONTAL_LAYER, 1)
    checks.append([t.contribution for t in t2.terms] == [
        Scalar(v) for v in (-39, 0, 84, 54, 48, 0, 180, -1, 0)
    ])
    _report(2, all(checks), "all 6+9 layer expansions invariant; golden traces term-exact")


def test_criterion_3_oracle_equivalence():
    trials = 10_000
    rng = SplitMix64(7)
    failures = 0
    for order in (2, 3):
        indices = tuple(range(1, order + 1))
        for _ in range(trials):
            m = random_cubic(GenSpec(order, rng.next(), 9))
            want = det_permutation(m)
            agreed = det_closed(m) == want
            for axis in Axis:
                for index in indices:
                    agreed = (
                        agreed
                        and expand(m, axis, index).total == want
                        and det_laplace(m, axis, index) == want
                    )
            if not agreed:
                failures += 1
    _report(
        3,
        failures == 0,
        f"closed = permutation = every expansion path on {trials} matrices "
        f"per order 2 and 3 ({failures} failures)",
    )


def test_criterion_4_term_table_identity():
    ok = set(perm_terms(2)) == set(_TERMS_2) and set(perm_terms(3)) == set(_TERMS_3)
    ok = ok and len(perm_terms(2)) == 4 and len(perm_terms(3)) == 36
    _report(4, ok, "permutation templates equal the hard-coded 4- and 36-term tables")


def test_criterion_5_derived_laws():
    trials = 1_000
    rng = SplitMix64(11)
    c = Scalar(-5, 3)
    failures = 0
    for order in (2, 3):
        for t in range(trials):
            m = random_cubic(GenSpec(order, rng.next(), 9))
            base = det_permutation(m)
            index = t % order + 1
            ok = True
            for axis in Axis:
                ok = ok and det_permutation(m.scale_layer(axis, index, c)) == c * base
                swap_want = base if axis is Axis.HORIZONTAL_LAYER else -base
                ok = ok and det_permutation(m.swap_layers(axis, 1, 2)) == swap_want
                ok = ok and det_permutation(m.scale_layer(axis, index, ZERO)) == ZERO
            if not ok:
                failures += 1
    _report(
        5,
        failures == 0,
        f"scaling, swap parity, and zero-layer laws on {trials} matrices "
        f"per order 2 and 3 ({failures} failures)",
    )


def test_criterion_6_sign_convention_ledger():
    # Expanding a fixed-i layer with the definitional (-1)^(i+j+k) sign
    # yields (-1)^i * det: for odd i that is -det, so the definitional
    # sign cannot be the one the layer expansions run on.
    trials = 1_000
    rng = SplitMix64(13)
    failures = 0
    for order in (2, 3):
        for _ in range(trials):
            m = random_cubic(GenSpec(order, rng.next(), 9))
            det = det_permutation(m)
            for i in range(1, order + 1):
                total = ZERO
                for k in range(1, order + 1):
                    for j in range(1, order + 1):
                        at = Index3(i, j, k)
                        total = total + m[at] * cofactor(m, at, SignConvention.PAPER_DEF)
                if total != (det if i % 2 == 0 else -det):
                    failures += 1
    _report(
        6,
        failures == 0,
        f"paper-def fixed-i expansion equals (-1)^i * det on {trials} matrices "
        f"per order 2 and 3 ({failures} failures)",
    )


def test_criterion_7_io_and_cli_contracts(data_dir, tmp_path):
    checks = []
    e1_file = data_dir / "example1.txt"
    e1 = parse_text(e1_file.read_text())
    e2 = parse_text((data_dir / "example2.txt").read_text())
    for m in (e1, e2):
        checks.append(parse_text(serialize_text(m)) == m)
        checks.append(parse_json(serialize_json(m)) == m)
    rng = SplitMix64(17)
    round_trips = True
    for t in range(1_000):
        m = random_cubic(GenSpec(t % 3 + 1, rng.next(), 99))
        round_trips = (
            round_trips
            and parse_text(serialize_text(m)) == m
            and parse_json(serialize_json(m)) == m
        )
    checks.append(round_trips)

    code, out, _ = _run_cli(["det", str(e1_file)])
    checks.append(code == 0 and out == "-3\n")
    code, out, _ = _run_cli(["verify", str(e1_file)])
    checks.append(code == 0 and out.splitlines()[-1] == "PASS")

    # Exit 1 is the verification-failure path; it needs an injected fault
    # because the shipped paths genuinely agree.
    with pytest.MonkeyPatch.context() as mp:
        real = cross_check(e1)
        paths = dict(real.paths)
        paths["closed"] = paths["closed"] + Scalar(1)
        fake = build_report(real.subject, real.det_value, paths, real.derived_laws)
        mp.setattr("cubicdet.verify.cross_check", lambda A: fake)
        code, out, _ = _run_cli(["verify", str(e1_file)])
        checks.append(code == 1 and out.splitlines()[-1] == "FAIL")

    not_cubic = tmp_path / "notcubic.txt"
    not_cubic.write_text("2\n1 2\n3 4\n")
    code, _, err = _run_cli(["det", str(not_cubic)])
    checks.append(code == 2 and NOT_CUBIC_MESSAGE in err)

    order4 = tmp_path / "order4.txt"
    order4.write_text("4\n")
    code, _, err = _run_cli(["det", str(order4)])
    checks.append(code == 2 and ORDER_TOO_HIGH_MESSAGE in err)

    code, _, err = _run_cli(["det"])  # usage error
    checks.append(code == 2)

    _report(
        7,
        all(checks),
        "round-trip identity on golden and 1000 random matrices; "
        "CLI exit codes 0/1/2 with the required rejection messages",
    )
