"""Command-line front end.

Subcommands: det, minor, cofactor, expand, verify, gen.  Matrix files
may be in the text or JSON format (detected by the first non-space
character); "-" reads stdin.  Axis flags are h (horizontal layer,
fixes i), p (vertical page, fixes j), l (vertical layer, fixes k).

Exit codes: 0 success (or verification pass), 1 verification failure,
2 usage or input error, 141 stdout closed by its reader (the code a
shell reports for a process that SIGPIPE ends).  Identical invocations
print identical bytes.

Start-up is scoped to the command: this module imports only core3d and
io, which every command uses (gen needs nothing more), and each command
imports what it runs when it runs; json loads only for JSON input or
--json output.  What a command imports that way stays out of this
module's globals, so a rebinding of the name in its own module (a patch
of cubicdet.verify.cross_check, say) reaches every call.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core3d import Axis, CubicMatrix, GenSpec, Index3, ScalarOverflowError, random_cubic
from .io import _INTEGER, _json_scalar, parse_json, parse_text, serialize_text

__all__ = ["main"]


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    # Undecodable bytes pass through as lone surrogates, as they do on
    # stdin, so the parser rejects them with a location.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        return handle.read()


def _load_matrix(path: str) -> CubicMatrix:
    text = _read_source(path)
    if text.lstrip()[:1] == "{":
        return parse_json(text)
    return parse_text(text)


def _integer(token: str) -> int:
    """An integer option in the grammar of a file's order: an optional sign and
    ASCII digits (int() alone also takes "0_5", " 5" and other digits)."""
    if _INTEGER.match(token) is None:
        raise ValueError(f"invalid literal for int(): {token!r}")
    return int(token)


_integer.__name__ = "int"  # argparse names the type in "invalid int value: ..."


def _print_trace(trace) -> None:
    print(f"axis {trace.axis.letter} index {trace.index}")
    for t in trace.terms:
        print(
            f"{t.at} entry={t.entry} sign={t.sign:+d} "
            f"minor={t.minor_value} contribution={t.contribution}"
        )
    print(f"total={trace.total}")


def _trace_json(trace) -> dict:
    return {
        "axis": trace.axis.letter,
        "index": trace.index,
        "terms": [
            {
                "i": t.at.i,
                "j": t.at.j,
                "k": t.at.k,
                "entry": _json_scalar(t.entry),
                "sign": t.sign,
                "minor": _json_scalar(t.minor_value),
                "contribution": _json_scalar(t.contribution),
            }
            for t in trace.terms
        ],
        "total": _json_scalar(trace.total),
    }


def _print_json(doc) -> None:
    import json

    print(json.dumps(doc))


def _cmd_det(args, parser) -> int:
    if args.method != "laplace":
        if args.trace:
            parser.error("--trace requires --method laplace")
        if args.axis is not None or args.index is not None:
            parser.error("--axis and --index require --method laplace")
    A = _load_matrix(args.file)
    if args.method == "closed":
        from .determinant import det_closed

        value = det_closed(A)
    elif args.method == "perm":
        from .determinant import det_permutation

        value = det_permutation(A)
    else:
        from .laplace import det_laplace, expand

        axis = Axis.from_letter(args.axis or "h")
        index = 1 if args.index is None else args.index
        value = det_laplace(A, axis, index)
    if args.trace:
        trace = expand(A, axis, index)
        if args.json:
            _print_json({"det": _json_scalar(value), "trace": _trace_json(trace)})
        else:
            _print_trace(trace)
        return 0
    if args.json:
        _print_json({"det": _json_scalar(value)})
    else:
        print(value)
    return 0


def _cmd_minor(args, parser) -> int:
    from .laplace import minor

    A = _load_matrix(args.file)
    print(minor(A, Index3(args.i, args.j, args.k)))
    return 0


def _cmd_cofactor(args, parser) -> int:
    from .laplace import SignConvention, cofactor

    A = _load_matrix(args.file)
    convention = SignConvention(args.convention)
    value = cofactor(A, Index3(args.i, args.j, args.k), convention)
    if convention is SignConvention.PAPER_DEF:  # after the entry is checked: an error prints only itself
        print(
            "note: paper-def signs the minor with (-1)^(i+j+k); "
            "layer expansions use the expansion sign (-1)^(j+k)",
            file=sys.stderr,
        )
    print(value)
    return 0


def _cmd_expand(args, parser) -> int:
    from .laplace import expand

    A = _load_matrix(args.file)
    _print_trace(expand(A, Axis.from_letter(args.axis), args.index))
    return 0


def _cmd_verify(args, parser) -> int:
    if args.random:
        if args.file is not None:
            parser.error("--random takes no matrix file")
        # The batch options default to None so that a file check can reject them.
        orders_text = "2,3" if args.orders is None else args.orders
        trials = 100 if args.trials is None else args.trials
        seed = 0 if args.seed is None else args.seed
        range_ = 9 if args.range is None else args.range
        try:
            orders = tuple(_integer(tok) for tok in orders_text.split(","))
        except ValueError:
            parser.error(f"--orders must be comma-separated integers, got {orders_text!r}")
        from .verify import batch_verify

        try:
            summary = batch_verify(orders, trials, seed, range_)
        except ValueError as err:
            parser.error(str(err))
        print(f"orders={orders_text} trials={trials} seed={seed} range={range_}")
        print(f"trials run: {summary.trials}")
        print(f"failures: {summary.failures}")
        if summary.failures:
            print(f"first failure: {summary.first_failure}")
            print("FAIL")
            return 1
        print("PASS")
        return 0
    if (args.orders, args.trials, args.seed, args.range) != (None,) * 4:
        parser.error("--orders, --trials, --seed and --range require --random")
    if args.file is None:
        parser.error("verify needs a matrix file or --random")
    from .verify import cross_check

    report = cross_check(_load_matrix(args.file))
    print(f"matrix {report.subject}")
    print(f"det={report.det_value}")
    for name, value in report.paths.items():
        status = "ok" if report.agreements[name] else "MISMATCH"
        print(f"path {name} = {value} {status}")
    for name, ok in report.derived_laws:
        print(f"law {name} {'ok' if ok else 'FAIL'}")
    print("PASS" if report.overall else "FAIL")
    return 0 if report.overall else 1


def _cmd_gen(args, parser) -> int:
    try:
        spec = GenSpec(args.order, args.seed, args.range)
    except ValueError as err:
        parser.error(str(err))
    try:
        matrix = random_cubic(spec)
    except ScalarOverflowError as err:  # named by its reproducer, as verify --random names one
        raise ScalarOverflowError(f"{spec}: {err}") from err
    sys.stdout.write(serialize_text(matrix))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, with every subcommand and its arguments.  A
    command gets its own subparser as args.parser, so a usage error it
    raises prints that subcommand's usage."""
    parser = argparse.ArgumentParser(
        prog="cubicdet",
        description="Exact determinants of cubic (n x n x n) matrices of orders 1-3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, summary, func):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, parser=p)
        return p

    def add_axis_flags(p, required: bool):
        p.add_argument("--axis", choices=("h", "p", "l"), required=required,
                       help="expansion direction: h fixes i, p fixes j, l fixes k")
        p.add_argument("--index", type=_integer, required=required,
                       help="1-based layer index along the axis")

    def add_entry(p):
        p.add_argument("file")
        p.add_argument("i", type=_integer)
        p.add_argument("j", type=_integer)
        p.add_argument("k", type=_integer)

    p_det = subcommand("det", "determinant of a matrix file", _cmd_det)
    p_det.add_argument("file", help="matrix file (text or JSON), or - for stdin")
    p_det.add_argument("--method", choices=("closed", "perm", "laplace"), default="closed",
                       help="closed-form table (default), permutation sum, or recursive expansion")
    add_axis_flags(p_det, required=False)
    p_det.add_argument("--trace", action="store_true",
                       help="print the per-term expansion trace (laplace method only)")
    p_det.add_argument("--json", action="store_true", help="machine-readable output")

    p_minor = subcommand("minor", "minor of one entry", _cmd_minor)
    add_entry(p_minor)

    p_cof = subcommand("cofactor", "signed minor of one entry", _cmd_cofactor)
    add_entry(p_cof)
    p_cof.add_argument("--convention", choices=("expansion", "paper-def"), default="expansion",
                       help="sign convention: (-1)^(j+k) (default) or (-1)^(i+j+k)")

    p_exp = subcommand("expand", "full single-layer expansion trace", _cmd_expand)
    p_exp.add_argument("file")
    add_axis_flags(p_exp, required=True)

    p_ver = subcommand("verify", "cross-check all determinant paths and laws", _cmd_verify)
    p_ver.add_argument("file", nargs="?", help="matrix file to cross-check (omit with --random)")
    p_ver.add_argument("--random", action="store_true",
                       help="batch-verify seeded random matrices instead of a file")
    p_ver.add_argument("--orders", help="comma-separated orders (default 2,3)")
    p_ver.add_argument("--trials", type=_integer, help="trials per order (default 100)")
    p_ver.add_argument("--seed", type=_integer, help="master seed (default 0)")
    p_ver.add_argument("--range", type=_integer, help="entries drawn from [-range, range] (default 9)")

    p_gen = subcommand("gen", "emit a seeded random matrix in canonical text form", _cmd_gen)
    p_gen.add_argument("--order", type=_integer, required=True, help="matrix order (1, 2, or 3)")
    p_gen.add_argument("--seed", type=_integer, default=0, help="generator seed (default 0)")
    p_gen.add_argument("--range", type=_integer, default=9,
                       help="entries drawn from [-range, range] (default 9)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args, args.parser)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader went away (`cubicdet gen --order 3 | head -c0`): stop
        # quietly, and point stdout at devnull for Python's final flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, IndexError, ScalarOverflowError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
