"""The three workloads: how each builds an input, runs one operation and
checks the result against the reference in :mod:`oracle`.

Each workload has ``make(rng, k)``, which builds the k-th input of a run
from the run's seeded generator (reference values included, so none of
that work is timed); ``run(inp)``, the timed operation; and
``check(inp, out)``, which raises :class:`Mismatch` on any wrong value.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

import oracle
from spans import Rebinding


class Mismatch(Exception):
    """A program output that differs from the reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def frac(scalar) -> Fraction:
    return Fraction(scalar.num, scalar.den)


def check_trace(truth, axis: str, index: int, terms, total) -> None:
    """One layer expansion, given as (i, j, k, entry, sign, minor,
    contribution) rows: every entry, sign, minor and contribution, and a
    total equal to the determinant."""
    where = f"expansion {axis}:{index}"
    positions = oracle.layer_positions(truth.order, axis, index)
    expect([t[:3] for t in terms] == positions, f"{where}: terms at {[t[:3] for t in terms]}")
    for i, j, k, entry, sign, minor, contribution in terms:
        at = (i, j, k)
        expect(entry == truth.at(*at), f"{where}: entry at {at} is {entry}")
        expect(sign == oracle.expansion_sign(*at), f"{where}: sign at {at} is {sign}")
        expect(minor == truth.minors[at], f"{where}: minor at {at} is {minor}, expected {truth.minors[at]}")
        expect(contribution == sign * entry * minor, f"{where}: contribution at {at} is {contribution}")
    expect(total == truth.det, f"{where}: total {total}, expected {truth.det}")


_REFERENCE_CELLS = oracle.rational_cells(random.Random(0), 3)


def in_process_reference() -> None:
    """The in-process workloads' reference: about 1.5 ms of pure-Python
    Fraction arithmetic (a fixed matrix's determinant and 27 minors) on
    the machine that made the baseline.  It shares no code with cubicdet,
    so no change to the package can move it."""
    oracle.Truth(3, _REFERENCE_CELLS)


def trace_rows(trace):
    return [
        (t.at.i, t.at.j, t.at.k, frac(t.entry), t.sign, frac(t.minor_value), frac(t.contribution))
        for t in trace.terms
    ]


class VerifyRandom:
    """One operation: ``batch_verify((2, 3), 1, seed_i, 9)``.

    The batch returns only pass/fail counts, so :meth:`hooks` records the
    report of each ``cross_check`` the batch makes (one extra call per
    trial) and the check compares every path value with the reference.
    """

    name = "verify_random"
    tail = 99

    def __init__(self, cd):
        self.cd = cd
        self.reports = []

    def hooks(self):
        def recording(_, cross_check):
            def recorded(A):
                report = cross_check(A)
                self.reports.append(report)
                return report

            return recorded

        return [Rebinding(self.cd, [("verify.cross_check", "pkg", "cross_check")], recording)]

    reference = staticmethod(in_process_reference)

    def make(self, rng, k):
        seed = rng.getrandbits(64)
        stream = oracle.splitmix64(seed)
        self.reports.clear()
        return SimpleNamespace(seed=seed, truths=[oracle.generated(order, next(stream), 9) for order in (2, 3)])

    def run(self, inp):
        return self.cd.batch_verify((2, 3), 1, inp.seed, 9)

    def check(self, inp, summary):
        expect(
            (summary.trials, summary.failures, summary.first_failure) == (2, 0, None),
            f"batch seed {inp.seed}: {summary}",
        )
        expect(len(self.reports) == 2, f"batch seed {inp.seed}: {len(self.reports)} cross-checks, expected 2")
        for truth, report in zip(inp.truths, self.reports):
            where = f"batch seed {inp.seed} order {truth.order}"
            expect(report.subject == truth.digest(), f"{where}: digest {report.subject}, expected {truth.digest()}")
            expect(frac(report.det_value) == truth.det, f"{where}: det {report.det_value}, expected {truth.det}")
            names = ["closed", "permutation"] + [
                f"laplace:{a}:{i}" for a in "hpl" for i in range(1, truth.order + 1)
            ]
            expect(sorted(report.paths) == sorted(names), f"{where}: paths {sorted(report.paths)}")
            for name, value in report.paths.items():
                expect(frac(value) == truth.det, f"{where}: path {name} = {value}, expected {truth.det}")
            laws = dict(report.derived_laws)
            expect(len(laws) == 9 and all(laws.values()), f"{where}: laws {report.derived_laws}")
            expect(report.overall, f"{where}: report not overall")


class RoutesRational:
    """One operation on an order-3 matrix with p/q entries, given as text
    or JSON (alternately): parse it; det_closed, det_permutation and
    det_laplace along each axis; expand along all nine layers; minor and
    cofactor under both conventions for the nine entries of one
    horizontal layer."""

    name = "routes_rational"
    tail = 99

    def __init__(self, cd):
        self.cd = cd
        self.axes = (cd.Axis.HORIZONTAL_LAYER, cd.Axis.VERTICAL_PAGE, cd.Axis.VERTICAL_LAYER)
        self.conventions = (cd.SignConvention.EXPANSION, cd.SignConvention.PAPER_DEF)

    def hooks(self):
        return []

    reference = staticmethod(in_process_reference)

    def make(self, rng, k):
        truth = oracle.Truth(3, oracle.rational_cells(rng, 3))
        layer = rng.randint(1, 3)
        return SimpleNamespace(
            truth=truth,
            fmt="json" if k % 2 else "text",
            text=truth.json() if k % 2 else truth.text(),
            layer=layer,
            entries=[self.cd.Index3(*at) for at in oracle.layer_positions(3, "h", layer)],
        )

    def run(self, inp):
        cd = self.cd
        A = cd.parse_json(inp.text) if inp.fmt == "json" else cd.parse_text(inp.text)
        dets = [cd.det_closed(A), cd.det_permutation(A)]
        dets += [cd.det_laplace(A, axis, inp.layer) for axis in self.axes]
        traces = [cd.expand(A, axis, index) for axis in self.axes for index in (1, 2, 3)]
        exp, paper = self.conventions
        layer = [(cd.minor(A, at), cd.cofactor(A, at, exp), cd.cofactor(A, at, paper)) for at in inp.entries]
        return A, dets, traces, layer

    def check(self, inp, out):
        A, dets, traces, layer = out
        truth = inp.truth
        cells = [frac(v) for block in A.layers() for row in block for v in row]
        expect(A.order == 3 and cells == truth.cells, f"parse_{inp.fmt} gave {A!r}")
        for route, value in zip(("closed", "permutation", "laplace:h", "laplace:p", "laplace:l"), dets):
            expect(frac(value) == truth.det, f"{route}: {value}, expected {truth.det}")
        for trace in traces:
            check_trace(truth, trace.axis.letter, trace.index, trace_rows(trace), frac(trace.total))
        i = inp.layer
        by_expansion = by_paper = Fraction(0)
        for at, (minor, cof_exp, cof_paper) in zip(inp.entries, layer):
            at = (at.i, at.j, at.k)
            m = truth.minors[at]
            expect(frac(minor) == m, f"minor {at}: {minor}, expected {m}")
            expect(frac(cof_exp) == oracle.expansion_sign(*at) * m, f"cofactor {at} expansion: {cof_exp}")
            expect(frac(cof_paper) == oracle.paper_def_sign(*at) * m, f"cofactor {at} paper-def: {cof_paper}")
            by_expansion += truth.at(*at) * frac(cof_exp)
            by_paper += truth.at(*at) * frac(cof_paper)
        expect(by_expansion == truth.det, f"h:{i} expansion-cofactor sum {by_expansion}, expected {truth.det}")
        expect(by_paper == (-1) ** i * truth.det, f"h:{i} paper-def sum {by_paper}, expected (-1)^{i} det")


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


CHILD_TIMEOUT_S = 60


def child_env(src) -> dict:
    """This process's environment with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_child(argv, env):
    """Run one subprocess to completion: (seconds, exit code, stdout,
    stderr, peak RSS in KiB).

    The clock stops when a blocking wait4 reaps the child (a wait with a
    timeout would poll, in steps of up to 50 ms).  Outputs here are a few
    KiB, well inside a pipe buffer, so the child never blocks on a full
    pipe and can be reaped before its output is read.  A child still
    running after CHILD_TIMEOUT_S is killed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except _Timeout:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with proc.stdout, proc.stderr:
        out, err = proc.stdout.read().decode(), proc.stderr.read().decode()
    return elapsed, proc.returncode, out, err, usage.ru_maxrss


def timed_subprocess(argv, env) -> tuple[float, str]:
    """(seconds, stdout) of a subprocess that must succeed."""
    elapsed, code, out, err, _ = run_child(argv, env)
    if code != 0:
        raise RuntimeError(f"{argv[:3]} exited {code}: {err.strip()}")
    return elapsed, out


_TERM_LINE = re.compile(r"\((\d),(\d),(\d)\) entry=(\S+) sign=([+-]1) minor=(\S+) contribution=(\S+)\Z")


class CliOneshot:
    """One operation: one ``python -m cubicdet`` subprocess from a fixed
    mix of eight commands, cycling.  Input files are written before the
    clock starts; every eighth operation switches between text and JSON,
    every sixteenth between integer and p/q entries.

    With ``inprocess`` set (the traced run), the same command goes to
    ``cubicdet.cli.main`` in this process instead.
    """

    name = "cli_oneshot"
    tail = 90
    MIX = ("det-closed", "det-perm", "det-laplace", "expand", "minor", "cofactor", "verify", "gen")

    def __init__(self, cd, workdir, src, alter_output=False):
        self.cd = cd
        self.workdir = workdir
        self.alter_output = alter_output
        self.inprocess = False
        self.peak_rss_kb = 0
        self.env = child_env(src)

    def hooks(self):
        return []

    def reference(self):
        """A bare interpreter start, ``python -c pass``: the machine's
        floor under every operation of this workload."""
        timed_subprocess([sys.executable, "-c", "pass"], self.env)

    def make(self, rng, k):
        command = self.MIX[k % len(self.MIX)]
        fmt = ("text", "json")[(k // len(self.MIX)) % 2]
        cells = (oracle.integer_cells, oracle.rational_cells)[(k // (2 * len(self.MIX))) % 2](rng, 3)
        truth = oracle.Truth(3, cells)
        path = self.workdir / f"matrix.{'json' if fmt == 'json' else 'txt'}"
        path.write_text(truth.json() if fmt == "json" else truth.text(), encoding="utf-8")
        file = str(path)
        axis, index = rng.choice("hpl"), rng.randint(1, 3)
        at = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        inp = SimpleNamespace(command=command, truth=truth, axis=axis, index=index, at=at)
        if command.startswith("det-"):
            method = command[4:]
            argv = ["det", file, "--method", method, "--json"]
            if method == "laplace":
                argv += ["--axis", axis, "--index", str(index), "--trace"]
        elif command == "expand":
            argv = ["expand", file, "--axis", axis, "--index", str(index)]
        elif command in ("minor", "cofactor"):
            argv = [command, file, *map(str, at)]
            if command == "cofactor":
                argv += ["--convention", "paper-def"]
        elif command == "verify":
            argv = ["verify", file]
        else:
            inp.seed = rng.getrandbits(64)
            inp.truth = oracle.generated(3, inp.seed, 9)
            argv = ["gen", "--order", "3", "--seed", str(inp.seed), "--range", "9"]
        inp.argv = argv
        return inp

    def run(self, inp):
        if self.inprocess:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = self.cd.cli.main(inp.argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()
        _, code, out, err, peak_rss_kb = run_child([sys.executable, "-m", "cubicdet", *inp.argv], self.env)
        self.peak_rss_kb = max(self.peak_rss_kb, peak_rss_kb)
        if self.alter_output:
            lines = out.splitlines(keepends=True)
            lines[-1:] = [line.rstrip("\n") + "1\n" for line in lines[-1:]]
            out = "".join(lines)
        return code, out, err

    def check(self, inp, out):
        code, stdout, stderr = out
        where = " ".join(inp.argv[:1] + inp.argv[2:])
        expect(code == 0, f"{where}: exit {code}: {stderr.strip()}")
        truth = inp.truth
        lines = stdout.splitlines()
        command = inp.command
        if command.startswith("det-"):
            doc = json.loads(stdout)
            expect(Fraction(str(doc["det"])) == truth.det, f"{where}: det {doc['det']}, expected {truth.det}")
            if command == "det-laplace":
                trace = doc["trace"]
                expect((trace["axis"], trace["index"]) == (inp.axis, inp.index), f"{where}: trace of {trace['axis']}")
                rows = [
                    (t["i"], t["j"], t["k"], Fraction(str(t["entry"])), t["sign"], Fraction(str(t["minor"])),
                     Fraction(str(t["contribution"])))
                    for t in trace["terms"]
                ]
                check_trace(truth, inp.axis, inp.index, rows, Fraction(str(trace["total"])))
            else:
                expect(set(doc) == {"det"}, f"{where}: keys {sorted(doc)}")
        elif command == "expand":
            expect(lines[0] == f"axis {inp.axis} index {inp.index}", f"{where}: header {lines[0]!r}")
            rows = []
            for line in lines[1:-1]:
                m = _TERM_LINE.match(line)
                expect(m is not None, f"{where}: term line {line!r}")
                i, j, k, entry, sign, minor, contribution = m.groups()
                rows.append((int(i), int(j), int(k), Fraction(entry), int(sign), Fraction(minor), Fraction(contribution)))
            expect(lines[-1].startswith("total="), f"{where}: last line {lines[-1]!r}")
            check_trace(truth, inp.axis, inp.index, rows, Fraction(lines[-1][len("total="):]))
        elif command in ("minor", "cofactor"):
            expected = truth.minors[inp.at]
            if command == "cofactor":
                expected *= oracle.paper_def_sign(*inp.at)
            expect(lines == [str(expected)], f"{where}: printed {stdout!r}, expected {expected}")
        elif command == "verify":
            det = truth.det
            expected = [f"matrix {truth.digest()}", f"det={det}"]
            expected += [f"path {name} = {det} ok" for name in ("closed", "permutation")]
            expected += [f"path laplace:{a}:{i} = {det} ok" for a in "hpl" for i in (1, 2, 3)]
            expected += [f"law {law}:{a} ok" for a in "hpl" for law in ("scale", "swap", "zero")]
            expected.append("PASS")
            expect(lines == expected, f"{where}: printed {stdout!r}")
        else:
            expect(stdout == truth.text(), f"{where}: printed {stdout!r}, expected {truth.text()!r}")
