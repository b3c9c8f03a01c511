"""Write the CLI transcript that tests/test_cli.py replays, or check it.

    PYTHONPATH=src python3 tools/cli_transcript.py
    PYTHONPATH=src python3 tools/cli_transcript.py --check

Runs every invocation of the corpus below in process, through
``cubicdet.cli.main``, and writes ``tests/data/cli_transcript.json``:
the corpus's input files, then one record per invocation with its argv,
its stdin (or null), exit code, stdout and stderr.  The invocations run
in a fresh temporary directory holding only the input files, and every
path in an argv is relative to it, so no record depends on where the
repository lives.  COLUMNS is fixed at 80, the width argparse wraps
help and usage to; argparse's wording is the running interpreter's.

A change that alters output on purpose rewrites the transcript with
this tool and lists every changed record; a change that alters no
output leaves the transcript as it is, and the replay is its proof.
Exit code 141 (a closed stdout) needs a real pipe, so it is not here.

``--check`` writes nothing: it replays the committed transcript, its
own input files and argvs, as the tier-1 test does but without pytest,
so any interpreter that can import cubicdet can run it.  It names the
first record that differs, with the bytes expected and got, lists the
numbers of all that differ (0-based, as the test numbers them), and
exits 1 if any does, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
OUT = DATA / "cli_transcript.json"

# Input files by name, as text (a byte that is not UTF-8 as its
# surrogateescape character, so JSON can hold it).
FILES = {
    "e1.txt": (DATA / "example1.txt").read_text(encoding="utf-8"),
    "e2.txt": (DATA / "example2.txt").read_text(encoding="utf-8"),
    "gen3.txt": (DATA / "gen_order3_seed42_range9.txt").read_text(encoding="utf-8"),
    "e1.json": '{"order": 2, "layers": [[[4, -3], [-1, 5]], [[-2, 4], [-7, 3]]]}\n',
    "e2.json": '{"order": 3, "layers": [[[3, 0, -4], [2, 5, -1], [0, 3, -2]],'
    ' [[-2, 4, 0], [-3, 0, 3], [-3, 2, 5]], [[5, 1, 0], [3, 1, 2], [0, 4, 3]]]}\n',
    "pq2.txt": "2\n1/2 -3\n2/3 5/4\n\n-7/6 4\n1 3/8\n",
    "pq3.txt": "3\n1/2 0 -4/3\n2 5/7 -1\n0 3 -2/5\n\n-2 4/9 0\n-3 0 3/2\n-3/4 2 5\n\n5/6 1 0\n3 1/3 2\n0 -4/11 3\n",
    "pq3.json": '{"order": 3, "layers": [[["1/2", 0, "-4/3"], [2, "5/7", -1], [0, 3, "-2/5"]],'
    ' [[-2, "4/9", 0], [-3, 0, "3/2"], ["-3/4", 2, 5]], [["5/6", 1, 0], [3, "1/3", 2], [0, "-4/11", 3]]]}\n',
    # Every entry 2**40: each monomial is 2**80, and an order-2
    # determinant of equal entries is 0, so the routes agree while every
    # trace contribution overflows.
    "big2.txt": "2\n{0} {0}\n{0} {0}\n\n{0} {0}\n{0} {0}\n".format(2**40),
    # Entries of 2**21 with signs: an order-3 determinant near 36 * 2**63.
    "big3.txt": "3\n{0} -{0} {0}\n{0} {0} -{0}\n-{0} {0} {0}\n\n{0} {0} {0}\n-{0} {0} {0}\n{0} -{0} {0}\n\n"
    "{0} {0} -{0}\n{0} -{0} {0}\n{0} {0} {0}\n".format(2**21),
    "order1.txt": "1\n-7/2\n",
    "order1.json": '{"order": 1, "layers": [[["5/3"]]]}\n',
    "malformed.txt": "3\n1 2 3\n4 5\n",
    "float.json": '{"order": 2, "layers": [[[1.5, 2], [3, 4]], [[5, 6], [7, 8]]]}\n',
    "notsquare.json": '{"order": 2, "layers": [[[1, 2], [3, 4]], [[5, 6], [7]]]}\n',
    "order4.txt": "4\n",
    "empty.txt": "",
    "latin1.txt": b"2\n4 -3\n-1 5\n\n-2 4\n7 \xe9\n".decode("utf-8", "surrogateescape"),
}

MATRICES = ("e1.txt", "e2.txt", "gen3.txt", "e1.json", "e2.json", "pq2.txt", "pq3.txt", "pq3.json", "big2.txt",
            "big3.txt", "order1.txt", "order1.json")
# Every layer of det --method laplace, with and without --trace and --json,
# on these: text, JSON, p/q text and p/q JSON, an overflowing trace, order 1.
LAYER_GRID = ("e1.txt", "e2.txt", "e2.json", "pq3.txt", "pq3.json", "big2.txt", "order1.txt")
BAD = ("malformed.txt", "float.json", "notsquare.json", "order4.txt", "empty.txt", "latin1.txt", "missing.txt")
COMMANDS = ("det", "minor", "cofactor", "expand", "verify", "gen")
LAYERS = [(axis, index) for axis in "hpl" for index in ("1", "2", "3", "4")]


def corpus():
    """(argv, stdin) per invocation."""
    runs = [([], None), (["--help"], None), (["-h", "det"], None), (["bogus", "e2.txt"], None),
            (["--json", "det", "e2.txt"], None), (["--method", "perm", "det", "e2.txt"], None),
            (["--", "det", "e2.txt"], None)]
    runs += [([command, "--help"], None) for command in COMMANDS]
    runs += [([command], None) for command in COMMANDS]
    for name in MATRICES:
        runs += [(["det", name, *flags], None) for flags in ([], ["--json"], ["--method", "perm"],
                                                             ["--method", "perm", "--json"], ["--method", "closed"])]
        grid = ([], ["--trace"], ["--json"], ["--trace", "--json"]) if name in LAYER_GRID else ([],)
        for axis, index in LAYERS:
            layer = ["--method", "laplace", "--axis", axis, "--index", index]
            runs += [(["det", name, *layer, *flags], None) for flags in grid]
            runs.append((["expand", name, "--axis", axis, "--index", index], None))
        runs.append((["verify", name], None))
        for at in (("1", "1", "1"), ("1", "2", "3"), ("2", "1", "2"), ("4", "1", "1"), ("0", "1", "1")):
            runs += [(["minor", name, *at], None), (["cofactor", name, *at], None),
                     (["cofactor", name, *at, "--convention", "paper-def"], None)]
    for name in BAD:
        runs += [(["det", name], None), (["det", name, "--method", "laplace", "--trace"], None),
                 (["expand", name, "--axis", "h", "--index", "1"], None), (["verify", name], None),
                 (["minor", name, "1", "1", "1"], None),
                 (["cofactor", name, "1", "1", "1", "--convention", "paper-def"], None)]
    for name in ("e1.txt", "e2.json", "pq3.txt", "latin1.txt"):
        runs += [(["det", "-"], FILES[name]), (["det", "-", "--method", "laplace", "--trace"], FILES[name])]
    runs += [
        (["det", "e2.txt", "--trace"], None),
        (["det", "e2.txt", "--method", "perm", "--axis", "h"], None),
        (["det", "e2.txt", "--index", "2"], None),
        (["det", "e2.txt", "--method", "laplace"], None),
        (["det", "e2.txt", "--method", "laplace", "--index", "2"], None),
        (["det", "e2.txt", "--method", "laplace", "--axis", "p"], None),
        (["det", "e2.txt", "--method", "laplace", "--axis", "x"], None),
        (["det", "e2.txt", "--method", "laplace", "--index", "+2"], None),
        (["det", "e2.txt", "--method", "laplace", "--index", "0_2"], None),
        (["det", "e2.txt", "--method", "bogus"], None),
        (["expand", "e2.txt"], None),
        (["expand", "e2.txt", "--axis", "h"], None),
        (["minor", "e2.txt", "1", "1"], None),
        (["minor", "e2.txt", "a", "1", "1"], None),
        (["cofactor", "e2.txt", "1", "2", "3", "--convention", "bogus"], None),
        (["verify"], None),
        (["verify", "e2.txt", "--seed", "1"], None),
        (["verify", "e2.txt", "--random"], None),
        (["verify", "--random", "--trials", "0"], None),
        (["verify", "--random", "--trials", "-1"], None),
        (["verify", "--random", "--orders", "1", "--trials", "2"], None),
        (["verify", "--random", "--orders", "2,x", "--trials", "2"], None),
        (["verify", "--random", "--seed", "-1", "--trials", "2"], None),
        (["verify", "--random", "--seed", str(2**64), "--trials", "2"], None),
        (["verify", "--random", "--range", "-1", "--trials", "2"], None),
    ]
    for orders in ("2", "3", "2,3", "3,2"):
        for seed in ("0", "7", str(2**64 - 1)):
            runs.append((["verify", "--random", "--orders", orders, "--trials", "3", "--seed", seed], None))
    for range_ in ("0", "1", "504102", str(2**20), str(2**40), str(2**62)):
        runs.append((["verify", "--random", "--trials", "3", "--range", range_], None))
    for order in ("0", "1", "2", "3", "4"):
        for seed in ("0", "42", str(2**64)):
            for range_ in ("0", "9", str(2**62), str(2**64)):
                runs.append((["gen", "--order", order, "--seed", seed, "--range", range_], None))
    return runs


def run(argv, stdin):
    """(exit code, stdout, stderr) of cubicdet.cli.main(argv) in process."""
    from cubicdet.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse ends usage errors and --help so
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def replay(files, invocations):
    """(exit code, stdout, stderr) per (argv, stdin), each run by ``run``
    in one fresh temporary directory holding ``files``, at COLUMNS=80."""
    os.environ["COLUMNS"] = "80"
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="cli-transcript-") as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8", errors="surrogateescape")
        os.chdir(tmp)
        try:
            results = [run(argv, stdin) for argv, stdin in invocations]
        finally:
            os.chdir(here)
    return results


def check() -> int:
    """Replay the committed transcript; 1 if any record differs."""
    transcript = json.loads(OUT.read_text(encoding="utf-8"))
    records = transcript["records"]
    got = replay(transcript["files"], [(record["argv"], record["stdin"]) for record in records])
    differ = [
        number
        for number, (record, result) in enumerate(zip(records, got))
        if result != (record["code"], record["stdout"], record["stderr"])
    ]
    if differ:
        record, (code, out, err) = records[differ[0]], got[differ[0]]
        print(f"first difference: record {differ[0]}: {record['argv']} stdin={record['stdin']!r}")
        for name, want, have in (("code", record["code"], code), ("stdout", record["stdout"], out),
                                 ("stderr", record["stderr"], err)):
            if want != have:
                print(f"  {name} expected {want!r}\n  {name} got      {have!r}")
    print(f"{len(records)} records replayed on Python {platform.python_version()}: {len(differ)} differ"
          + (f" (records {', '.join(map(str, differ))})" if differ else ""))
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="replay the committed transcript, write nothing")
    if parser.parse_args(argv).check:
        return check()
    invocations = corpus()
    results = replay(FILES, invocations)
    records = [
        {"argv": argv, "stdin": stdin, "code": code, "stdout": out, "stderr": err}
        for (argv, stdin), (code, out, err) in zip(invocations, results)
    ]
    lines = ",\n".join(json.dumps(record) for record in records)
    OUT.write_text(f'{{"files": {json.dumps(FILES)},\n"records": [\n{lines}\n]}}\n', encoding="utf-8")
    print(f"{len(records)} records written to {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
