import ast
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cubicdet import GenSpec, Scalar, build_report, cross_check, random_cubic, serialize_json, serialize_text
from cubicdet.cli import _integer, main
from cubicdet.io import _INTEGER

E1_TRACE = """\
axis h index 1
(1,1,1) entry=4 sign=+1 minor=3 contribution=12
(1,2,1) entry=-3 sign=-1 minor=-7 contribution=-21
(1,1,2) entry=-2 sign=-1 minor=5 contribution=10
(1,2,2) entry=4 sign=+1 minor=-1 contribution=-4
total=-3
"""


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse handles usage errors by exiting
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def e1_path(data_dir):
    return str(data_dir / "example1.txt")


@pytest.fixture
def e2_path(data_dir):
    return str(data_dir / "example2.txt")


class TestDet:
    def test_default_method(self, capsys, e1_path, e2_path):
        assert run_cli(capsys, ["det", e1_path]) == (0, "-3\n", "")
        assert run_cli(capsys, ["det", e2_path]) == (0, "326\n", "")

    def test_all_methods_agree(self, capsys, e2_path):
        for argv in (
            ["det", e2_path, "--method", "perm"],
            ["det", e2_path, "--method", "laplace"],
            ["det", e2_path, "--method", "laplace", "--axis", "p", "--index", "2"],
            ["det", e2_path, "--method", "laplace", "--axis", "l", "--index", "3"],
        ):
            assert run_cli(capsys, argv) == (0, "326\n", "")

    def test_json_output(self, capsys, e2_path):
        code, out, err = run_cli(capsys, ["det", e2_path, "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out) == {"det": 326}

    def test_rational_result(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n1/2\n"))
        assert run_cli(capsys, ["det", "-"]) == (0, "1/2\n", "")

    def test_trace_text(self, capsys, e1_path):
        code, out, err = run_cli(capsys, ["det", e1_path, "--method", "laplace", "--trace"])
        assert (code, out, err) == (0, E1_TRACE, "")

    def test_trace_json(self, capsys, e1_path):
        code, out, err = run_cli(
            capsys, ["det", e1_path, "--method", "laplace", "--trace", "--json"]
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["det"] == -3
        trace = doc["trace"]
        assert (trace["axis"], trace["index"], trace["total"]) == ("h", 1, -3)
        assert trace["terms"][0] == {
            "i": 1, "j": 1, "k": 1, "entry": 4, "sign": 1, "minor": 3, "contribution": 12,
        }
        assert [t["contribution"] for t in trace["terms"]] == [12, -21, 10, -4]

    def test_trace_needs_laplace(self, capsys, e1_path):
        code, _, err = run_cli(capsys, ["det", e1_path, "--trace"])
        assert code == 2
        assert "--trace requires --method laplace" in err
        code, _, err = run_cli(capsys, ["det", e1_path, "--method", "perm", "--trace"])
        assert code == 2

    def test_axis_and_index_need_laplace(self, capsys, e1_path):
        for flags in (["--index", "9", "--axis", "p"], ["--index", "1"], ["--method", "perm", "--axis", "h"]):
            code, out, err = run_cli(capsys, ["det", e1_path, *flags])
            assert (code, out) == (2, "")
            assert err.endswith("cubicdet det: error: --axis and --index require --method laplace\n")

    def test_stdin_both_formats(self, capsys, monkeypatch, e1_path):
        text = open(e1_path, encoding="utf-8").read()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run_cli(capsys, ["det", "-"]) == (0, "-3\n", "")
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO('{"order": 2, "layers": [[[4, -3], [-1, 5]], [[-2, 4], [-7, 3]]]}'),
        )
        assert run_cli(capsys, ["det", "-"]) == (0, "-3\n", "")


class TestMinorCofactor:
    def test_minor(self, capsys, e2_path):
        assert run_cli(capsys, ["minor", e2_path, "1", "2", "3"]) == (0, "1\n", "")
        assert run_cli(capsys, ["minor", e2_path, "1", "1", "1"]) == (0, "-13\n", "")

    def test_cofactor_default_convention(self, capsys, e2_path):
        assert run_cli(capsys, ["cofactor", e2_path, "1", "2", "3"]) == (0, "-1\n", "")

    def test_cofactor_paper_def_notes_on_stderr(self, capsys, e2_path):
        code, out, err = run_cli(
            capsys, ["cofactor", e2_path, "1", "2", "3", "--convention", "paper-def"]
        )
        assert (code, out) == (0, "1\n")
        assert "paper-def signs the minor" in err

    def test_minor_order1_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n7\n"))
        code, out, err = run_cli(capsys, ["minor", "-", "1", "1", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_entry_out_of_range(self, capsys, e1_path):
        code, _, err = run_cli(capsys, ["minor", e1_path, "3", "1", "1"])
        assert code == 2
        assert "out of range" in err


class TestExpand:
    def test_trace_output(self, capsys, e1_path):
        code, out, err = run_cli(capsys, ["expand", e1_path, "--axis", "h", "--index", "1"])
        assert (code, out, err) == (0, E1_TRACE, "")

    def test_order3_shape(self, capsys, e2_path):
        code, out, _ = run_cli(capsys, ["expand", e2_path, "--axis", "p", "--index", "2"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "axis p index 2"
        assert lines[-1] == "total=326"
        assert len(lines) == 11

    def test_axis_flags_required(self, capsys, e2_path):
        code, _, err = run_cli(capsys, ["expand", e2_path, "--axis", "h"])
        assert code == 2
        assert "--index" in err

    def test_index_out_of_range(self, capsys, e2_path):
        code, _, err = run_cli(capsys, ["expand", e2_path, "--axis", "h", "--index", "4"])
        assert code == 2
        assert "out of range" in err


class TestVerify:
    def test_file_pass(self, capsys, e1_path):
        code, out, err = run_cli(capsys, ["verify", e1_path])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0].startswith("matrix order2:")
        assert lines[1] == "det=-3"
        assert sum(1 for l in lines if l.startswith("path ") and l.endswith(" ok")) == 8
        assert sum(1 for l in lines if l.startswith("law ") and l.endswith(" ok")) == 9
        assert lines[-1] == "PASS"

    def test_matches_frozen_golden_file(self, capsys, data_dir, e2_path):
        # Every line, the digest of the canonical text included.
        frozen = (data_dir / "verify_example2.txt").read_text()
        assert run_cli(capsys, ["verify", e2_path]) == (0, frozen, "")

    def test_file_failure_exit_code(self, capsys, e1_path, example1, monkeypatch):
        real = cross_check(example1)
        paths = dict(real.paths)
        paths["closed"] = paths["closed"] + Scalar(1)
        fake = build_report(real.subject, real.det_value, paths, real.derived_laws)
        monkeypatch.setattr("cubicdet.verify.cross_check", lambda A: fake)
        code, out, _ = run_cli(capsys, ["verify", e1_path])
        assert code == 1
        assert "path closed = -2 MISMATCH" in out
        assert out.splitlines()[-1] == "FAIL"

    def test_random_pass(self, capsys):
        code, out, err = run_cli(
            capsys, ["verify", "--random", "--orders", "2", "--trials", "3", "--seed", "5"]
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "orders=2 trials=3 seed=5 range=9"
        assert "trials run: 3" in lines
        assert "failures: 0" in lines
        assert lines[-1] == "PASS"

    def test_random_defaults(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--random"])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[:2] == ["orders=2,3 trials=100 seed=0 range=9", "trials run: 200"]
        assert lines[-1] == "PASS"

    def test_random_failure_prints_repro(self, capsys, monkeypatch):
        def broken(m):
            real = cross_check(m)
            paths = dict(real.paths)
            paths["closed"] = paths["closed"] + Scalar(1)
            return build_report(real.subject, real.det_value, paths, real.derived_laws)

        monkeypatch.setattr("cubicdet.verify.cross_check", broken)
        code, out, _ = run_cli(
            capsys, ["verify", "--random", "--orders", "2", "--trials", "2", "--seed", "5"]
        )
        assert code == 1
        lines = out.splitlines()
        assert "failures: 2" in lines
        assert any(l.startswith("first failure: --order 2 --seed ") for l in lines)
        assert lines[-1] == "FAIL"

    def test_random_overflow_prints_repro(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, ["verify", "--random", "--orders", "3", "--range", "10000000"]
        )
        assert (code, out) == (2, "")
        match = re.fullmatch(r"error: (--order 3 --seed (\d+) --range 10000000): (numerator .*)\n", err)
        assert match is not None, err
        spec, seed, cause = match.groups()
        # The printed spec regenerates the matrix that overflowed.
        code, text, _ = run_cli(capsys, ["gen", *spec.split()])
        assert code == 0
        path = tmp_path / f"seed{seed}.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, ["verify", str(path)])
        assert (code, out, err) == (2, "", f"error: {cause}\n")

    def test_scale_law_overflow(self, capsys, tmp_path):
        # det is 2**62, and the x2 scale law doubles a_111 past the numerator bound.
        path = tmp_path / "m.txt"
        path.write_text(f"2\n{2**62} 0\n0 0\n\n0 0\n0 1\n")
        cause = "numerator 9223372036854775808 outside the signed 64-bit range"
        assert run_cli(capsys, ["verify", str(path)]) == (2, "", f"error: {cause}\n")

    def test_needs_file_or_random(self, capsys):
        code, _, err = run_cli(capsys, ["verify"])
        assert code == 2
        assert "matrix file or --random" in err

    def test_options_of_the_other_mode_are_rejected(self, capsys, e1_path):
        # Each would otherwise be ignored, and the run exit 0.
        for argv, message in (
            (["verify", "--random", e1_path, "--trials", "2"], "--random takes no matrix file"),
            (["verify", e1_path, "--trials", "5", "--seed", "3"],
             "--orders, --trials, --seed and --range require --random"),
            (["verify", e1_path, "--orders", "2,3"], "--orders, --trials, --seed and --range require --random"),
            (["verify", e1_path, "--range", "9"], "--orders, --trials, --seed and --range require --random"),
        ):
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (2, "")
            assert err.startswith("usage: cubicdet verify [-h]")
            assert err.endswith(f"\ncubicdet verify: error: {message}\n")

    def test_bad_orders_flag(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--random", "--orders", "2;3"])
        assert code == 2
        assert "--orders" in err
        code, _, err = run_cli(capsys, ["verify", "--random", "--orders", "1"])
        assert code == 2

    def test_seed_outside_64_bits(self, capsys):
        # SplitMix64 would mask these onto other seeds while the header echoed them.
        for seed in ("-5", str(1 << 64)):
            code, out, err = run_cli(capsys, ["verify", "--random", "--seed", seed])
            assert (code, out) == (2, "")
            assert err.endswith(f"error: seed must fit in 64 bits, got {seed}\n")


class TestGen:
    def test_matches_frozen_golden_file(self, capsys, data_dir):
        frozen = (data_dir / "gen_order3_seed42_range9.txt").read_text()
        code, out, err = run_cli(capsys, ["gen", "--order", "3", "--seed", "42", "--range", "9"])
        assert (code, out, err) == (0, frozen, "")

    def test_defaults(self, capsys):
        explicit = run_cli(capsys, ["gen", "--order", "2", "--seed", "0", "--range", "9"])
        assert explicit[0] == 0
        assert run_cli(capsys, ["gen", "--order", "2"]) == explicit

    def test_output_feeds_back_in(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, ["gen", "--order", "2", "--seed", "9"])
        assert code == 0
        path = tmp_path / "m.txt"
        path.write_text(out)
        code, det_out, _ = run_cli(capsys, ["verify", str(path)])
        assert code == 0
        assert det_out.splitlines()[-1] == "PASS"

    def test_spec_text_is_the_reproducer(self, capsys):
        # str(GenSpec) is the options that regenerate its matrix.
        for spec in (GenSpec(1, 0, 1), GenSpec(2, 3, 9), GenSpec(3, (1 << 64) - 1, 10**6)):
            assert run_cli(capsys, ["gen", *str(spec).split()]) == (0, serialize_text(random_cubic(spec)), "")

    def test_bad_order(self, capsys):
        code, _, err = run_cli(capsys, ["gen", "--order", "4"])
        assert code == 2
        assert "order" in err

    def test_entry_overflow(self, capsys):
        # The message names the options that reproduce it.
        cause = "numerator -97907210574996860947 outside the signed 64-bit range"
        argv = ["gen", "--order", "2", "--seed", "3", "--range", str(10**20)]
        assert run_cli(capsys, argv) == (2, "", f"error: --order 2 --seed 3 --range {10**20}: {cause}\n")
        cause = "numerator -99983705791583341392465 outside the signed 64-bit range"
        argv = ["gen", "--order", "3", "--range", str(10**23)]
        assert run_cli(capsys, argv) == (2, "", f"error: --order 3 --seed 0 --range {10**23}: {cause}\n")


class TestErrorHandling:
    def test_not_cubic_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 2\n3 4\n")
        code, out, err = run_cli(capsys, ["det", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert "not square" in err

    def test_order_too_high_file(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("4\n")
        code, _, err = run_cli(capsys, ["det", str(path)])
        assert code == 2
        assert "higher than the third order" in err

    def test_undecodable_bytes_are_located(self, tmp_path):
        # A byte that is not UTF-8 fails as a bad literal with its location,
        # read from a file as from stdin (which decodes with surrogateescape
        # in UTF-8 mode).
        data = b"2\n4 -3\n-1 5\n\n-2 4\n7 \xe9\n"
        path = tmp_path / "latin1.txt"
        path.write_bytes(data)
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUTF8": "1"}
        error = b"error: line 6: vertical layer 2 row 2 column 2: bad scalar '\\udce9' (expected an integer or p/q)\n"
        for source, stdin in ((str(path), b""), ("-", data)):
            done = subprocess.run(
                [sys.executable, "-m", "cubicdet", "det", source],
                input=stdin,
                env=env,
                capture_output=True,
                timeout=60,
            )
            assert (done.returncode, done.stdout, done.stderr) == (2, b"", error), source

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_ends_quietly(self, unbuffered):
        # A reader that closes the pipe first, as `| head -c0` does: the
        # write fails in print when unbuffered, else in the final flush.
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "cubicdet", "gen", "--order", "3"],
                stdout=write,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, b"")

    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, ["det", "/nonexistent/matrix.txt"])
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_unknown_flag(self, capsys, e1_path):
        code, _, err = run_cli(capsys, ["det", e1_path, "--bogus"])
        assert code == 2

    def test_no_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, [])
        assert code == 2

    def test_huge_literal_is_located(self, capsys, tmp_path):
        huge = "9" * 5000
        for name, text, where in (
            ("huge.txt", f"1\n{huge}\n", "line 2: vertical layer 1 row 1 column 1"),
            ("huge.json", f'{{"order": 1, "layers": [[[{huge}]]]}}', "vertical layer 1 row 1 column 1"),
            ("huge_order.txt", f"{huge}\n1\n", "line 1"),
        ):
            path = tmp_path / name
            path.write_text(text)
            code, out, err = run_cli(capsys, ["det", str(path)])
            assert (code, out) == (2, "")
            assert err == f"error: {where}: scalar literal of 5000 characters is too long\n"

    def test_order_outside_the_grammar(self, capsys, monkeypatch, e2_path):
        for token in ("0_2", "\u0662"):
            monkeypatch.setattr("sys.stdin", io.StringIO(f"{token}\n1 2\n3 4\n\n5 6\n7 8\n"))
            code, out, err = run_cli(capsys, ["det", "-"])
            assert (code, out) == (2, "")
            assert err == f"error: line 1: order must be an integer, got '{token}'\n"
        # Integer options follow the same grammar.
        for argv, message in (
            (["gen", "--order", "\u0662"], "argument --order: invalid int value: '\u0662'"),
            (["gen", "--order", "2", "--seed", "0_5"], "argument --seed: invalid int value: '0_5'"),
            (["minor", e2_path, "1", "\u0662", "1"], "argument j: invalid int value: '\u0662'"),
            (["verify", "--random", "--orders", "\u0662"],
             "--orders must be comma-separated integers, got '\u0662'"),
        ):
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (2, "")
            assert err.endswith(f" error: {message}\n")

    def test_deep_json_nesting_is_located(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"order": 2, "layers": ' + "[" * 100000))
        assert run_cli(capsys, ["det", "-"]) == (2, "", "error: line 1: JSON nested too deeply\n")

    def test_value_errors_name_the_subcommand(self, capsys):
        for argv, message in (
            (["gen", "--order", "0"], "order must be 1, 2, or 3, got 0"),
            (["verify", "--random", "--trials", "0"], "trials must be >= 1, got 0"),
        ):
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (2, "")
            assert err.startswith(f"usage: cubicdet {argv[0]} [-h]")
            assert err.endswith(f"\ncubicdet {argv[0]}: error: {message}\n")

    def test_laplace_index_out_of_range(self, capsys, e1_path):
        code, _, err = run_cli(
            capsys, ["det", e1_path, "--method", "laplace", "--index", "5"]
        )
        assert code == 2
        assert "out of range" in err


@given(st.one_of(st.text(), st.text(alphabet="+-_ \t0123456789\u0662"), st.integers().map(str)))
def test_integer_options_follow_the_grammar(token):
    if _INTEGER.match(token) is None:
        with pytest.raises(ValueError):
            _integer(token)
    else:
        assert _integer(token) == int(token)


# Option values at the edges of the integer grammar: zero, ±1, the signed
# and unsigned 64-bit limits, a literal past int()'s digit limit, and
# tokens int() takes but the grammar does not.
EDGES = ("0", "1", "-1", str(2**63), str(2**64), "9" * 5000, "0_5", " 5", "٣")


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    """One text, one JSON and one non-UTF-8 matrix file."""
    root = tmp_path_factory.mktemp("matrices")
    text, as_json, undecodable = root / "m.txt", root / "m.json", root / "bad.txt"
    text.write_text("3\n3 0 -4\n2 5 -1\n0 3 -2\n\n-2 4 0\n-3 0 3\n-3 2 5\n\n5 1 0\n3 1 2\n0 4 3\n", encoding="utf-8")
    as_json.write_text('{"order": 2, "layers": [[[1, 2], [3, 4]], [[5, "6/7"], [7, 8]]]}', encoding="utf-8")
    undecodable.write_bytes(b"2\n4 -3\n-1 5\n\n-2 4\n-7 \xff3\n")
    return tuple(str(p) for p in (text, as_json, undecodable))


@st.composite
def cli_argv(draw, files):
    """An argv for one of the six subcommands, its values drawn from EDGES
    or, so that commands also succeed, from the indices 1 to 3."""
    edge = st.sampled_from(("1", "2", "3")) | st.sampled_from(EDGES)
    file = draw(st.sampled_from(files))

    def maybe(*argv):
        return [a if isinstance(a, str) else draw(a) for a in argv] if draw(st.booleans()) else []

    command = draw(st.sampled_from(("det", "minor", "cofactor", "expand", "verify", "gen")))
    if command == "det":
        method = st.sampled_from(("closed", "perm", "laplace"))
        return ["det", file, *maybe("--method", method), *maybe("--axis", st.sampled_from("hpl")),
                *maybe("--index", edge), *maybe("--trace"), *maybe("--json")]
    if command in ("minor", "cofactor"):
        argv = [command, file, draw(edge), draw(edge), draw(edge)]
        if command == "cofactor":
            argv += maybe("--convention", st.sampled_from(("expansion", "paper-def")))
        return argv
    if command == "expand":
        return ["expand", file, *maybe("--axis", st.sampled_from("hpl")), *maybe("--index", edge)]
    if command == "gen":
        return ["gen", *maybe("--order", edge), *maybe("--seed", edge), *maybe("--range", edge)]
    if draw(st.booleans()):
        return ["verify", file, *maybe("--seed", edge)]
    orders = st.lists(st.sampled_from(("2", "3", *EDGES)), min_size=1, max_size=2).map(",".join)
    trials = st.sampled_from(("-1", "0", "1", "2"))  # keeps each batch small
    return ["verify", "--random", "--trials", draw(trials), *maybe("--orders", orders),
            *maybe("--seed", edge), *maybe("--range", edge)]


# argparse's usage (its continuation lines indented) then its error line,
# or the one error line that main prints.
USAGE_ERROR = re.compile(r"usage: cubicdet[^\n]*\n(?: [^\n]*\n)*cubicdet(?: \w+)?: error: [^\n]*\n")
MAIN_ERROR = re.compile(r"error: [^\n]*\n")


# run_cli reads capsys out after every call, so one capsys serves every example.
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_invocation_exits_cleanly(capsys, matrix_files, data):
    argv = data.draw(cli_argv(matrix_files))
    code, out, err = run_cli(capsys, argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert USAGE_ERROR.fullmatch(err) or MAIN_ERROR.fullmatch(err), err
    assert run_cli(capsys, argv) == (code, out, err)


def test_the_transcript_replays_byte_for_byte(tmp_path, monkeypatch, capsys, data_dir):
    # tests/data/cli_transcript.json, written by tools/cli_transcript.py:
    # its input files, and per invocation the argv (paths relative to the
    # directory holding those files), stdin, exit code, stdout and stderr.
    # A change that alters output on purpose rewrites it with that tool.
    transcript = json.loads((data_dir / "cli_transcript.json").read_text(encoding="utf-8"))
    for name, text in transcript["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8", errors="surrogateescape")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to it
    for number, record in enumerate(transcript["records"]):
        if record["stdin"] is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(record["stdin"]))
        want = (record["code"], record["stdout"], record["stderr"])
        assert run_cli(capsys, record["argv"]) == want, f"record {number}: {record['argv']} stdin={record['stdin']!r}"


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys, e2_path):
        first = run_cli(capsys, ["verify", e2_path])
        second = run_cli(capsys, ["verify", e2_path])
        assert first == second
        a = run_cli(capsys, ["det", e2_path, "--method", "laplace", "--trace"])
        b = run_cli(capsys, ["det", e2_path, "--method", "laplace", "--trace"])
        assert a == b


# Run in a fresh interpreter: the pytest process has long since imported
# everything.  Prints the start-up-costly modules `import cubicdet.cli`
# pulled in, then whether matrix_digest loaded hashlib.
STARTUP_PROBE = """
import sys
before = set(sys.modules)
import cubicdet.cli
print(sorted({"dataclasses", "inspect", "hashlib"} & (set(sys.modules) - before)))
from cubicdet import GenSpec, matrix_digest, random_cubic
matrix_digest(random_cubic(GenSpec(2, 0, 9)))
print("hashlib" in sys.modules)
"""


# Runs cubicdet.cli.main(argv[1:]) with stdout captured and prints, per
# kernel cache, the keys compiled after the import, then the exit code,
# stdout, the keys compiled after the command, and the keys it looked up
# only once.
KERNEL_PROBE = """
import contextlib, io, sys
import cubicdet.cli
from cubicdet import determinant, laplace
modules = (determinant, laplace)
caches = {n: c for m in modules for n, c in vars(m).items() if isinstance(c, determinant._Kernels)}
def keys(of):
    return {name: sorted(of(cache)) for name, cache in caches.items()}
before = keys(dict.keys)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cubicdet.cli.main(sys.argv[1:])
print((before, code, out.getvalue(), keys(dict.keys), keys(lambda cache: cache.first)))
"""


# Runs cubicdet.cli.main(argv[1:]) with stdout captured and prints, of the
# modules the import and the command loaded, the cubicdet ones and
# whether json was one of them.
IMPORT_PROBE = """
import contextlib, io, sys
before = set(sys.modules)
import cubicdet.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cubicdet.cli.main(sys.argv[1:])
loaded = set(sys.modules) - before
print((code, sorted(m for m in loaded if m.partition(".")[0] == "cubicdet"), "json" in loaded))
"""

# Each command loads only the modules it runs: core3d and io always (gen,
# whose generator lives in core3d, needs nothing more), determinant for a
# determinant, laplace for an expansion, minor or cofactor, and verify
# (which needs all the others) for verify.
PARSE = ["cubicdet", "cubicdet.cli", "cubicdet.core3d", "cubicdet.io"]
DETERMINANT = sorted(PARSE + ["cubicdet.determinant"])
LAPLACE = sorted(DETERMINANT + ["cubicdet.laplace"])
EVERYTHING = sorted(LAPLACE + ["cubicdet.verify"])
COMMAND_MODULES = {
    "det": (["det", "{file}"], DETERMINANT),
    "det-perm": (["det", "{file}", "--method", "perm"], DETERMINANT),
    "det-laplace": (["det", "{file}", "--method", "laplace", "--trace"], LAPLACE),
    "expand": (["expand", "{file}", "--axis", "p", "--index", "2"], LAPLACE),
    "minor": (["minor", "{file}", "1", "2", "3"], LAPLACE),
    "cofactor": (["cofactor", "{file}", "1", "2", "3"], LAPLACE),
    "verify": (["verify", "{file}"], EVERYTHING),
    "gen": (["gen", "--order", "3"], PARSE),
}


class TestStartup:
    @staticmethod
    def probe_imports(argv):
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, *argv],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        return ast.literal_eval(done.stdout)

    @pytest.mark.parametrize("command", COMMAND_MODULES)
    def test_command_loads_only_what_it_runs(self, command, e2_path):
        argv, want = COMMAND_MODULES[command]
        assert self.probe_imports([e2_path if a == "{file}" else a for a in argv]) == (0, want, False)

    def test_json_input_or_output_loads_the_same_modules(self, example2, tmp_path, e2_path):
        # The module set does not change; json itself may already be
        # loaded at start-up on some installs, so only its absence is pinned.
        matrix = tmp_path / "m.json"
        matrix.write_text(serialize_json(example2), encoding="utf-8")
        assert self.probe_imports(["det", str(matrix)])[:2] == (0, DETERMINANT)
        assert self.probe_imports(["det", e2_path, "--json"])[:2] == (0, DETERMINANT)

    def test_cli_import_defers_costly_modules(self):
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "[]\nTrue\n"

    def test_kernels_compile_on_first_use(self, e2_path):
        # Compiling a kernel costs far more than one loop over its rows:
        # the import compiles none, and a command only the kernels it
        # runs twice.  verify evaluates the permutation sum on the matrix
        # and on its nine transforms, and each other kernel once.  A traced
        # det --method laplace looks up the minors once: det_laplace fills
        # the memo that the trace reads.
        src = Path(__file__).resolve().parents[1] / "src"

        def probe(*argv):
            done = subprocess.run(
                [sys.executable, "-c", KERNEL_PROBE, *argv],
                env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert (done.returncode, done.stderr) == (0, "")
            return ast.literal_eval(done.stdout)

        none = {"_CLOSED": [], "_PERM": [], "_MINORS": [], "_TOTALS": []}
        minors = {**none, "_MINORS": [3]}
        assert probe("det", e2_path, "--method", "closed") == (none, 0, "326\n", none, {**none, "_CLOSED": [3]})
        expand, traced = ["expand", e2_path, "--axis", "h", "--index", "1"], ["det", e2_path, "--method", "laplace", "--trace"]
        for argv in (expand, traced):
            before, code, out, after, once = probe(*argv)
            assert (before, code, out.splitlines()[-1], after, once) == (none, 0, "total=326", none, minors), argv
        before, code, out, after, once = probe("verify", e2_path)
        once_each = {**none, "_CLOSED": [3], "_MINORS": [3], "_TOTALS": [3]}
        assert (before, code, out.splitlines()[-1], after, once) == (none, 0, "PASS", {**none, "_PERM": [3]}, once_each)
