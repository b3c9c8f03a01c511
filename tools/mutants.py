"""Mutation catalogue: deliberate faults that the test suite must catch.

    python3 tools/mutants.py

Each mutant replaces one piece of text in one file under ``src/``.  The
script copies ``src/`` and ``tests/`` into a fresh temporary directory,
applies the change there (the repository is never edited) and runs the
whole tier-1 suite once with pytest ``-x`` and
``PYTHONDONTWRITEBYTECODE=1``: the mutated module's own test file
first (``src/cubicdet/X.py`` has ``tests/test_X.py``, and
``__init__.py`` has ``tests/test_package.py``), then every other
``tests/test_*.py`` in sorted order, stopping at the first failure.  A
mutant is killed when a test fails or the suite no longer collects, and
the script prints the first failing test id; it survives when the whole
suite passes.

Before any mutant runs, every mutant's old text must occur exactly once
in its file, and the same command over every test file must pass on the
unchanged copy.  Either failure means the catalogue no longer matches
the code: the script says which entry and exits with code 2, as it does
for a pytest exit other than 0, 1 or 2.  It exits with code 1 if a
mutant survives, and 0 when all are killed.

After that check the mutants run on ``os.cpu_count()`` worker threads,
each in its own copy with its own pytest process, and their results
print in catalogue order.

A change that adds a guard adds the mutant that removes it.  This is
not part of the tier-1 suite: it runs the suite once per mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name path old new")

MUTANTS = (
    Mutant(
        "lcm-as-max",
        "src/cubicdet/core3d.py",
        "self._scale = scale = math.lcm(*[c.den for c in cells])",
        "self._scale = scale = max([c.den for c in cells])",
    ),
    Mutant(
        "expand-minor-denominator",
        "src/cubicdet/laplace.py",
        "minor_den = A._scale ** (n - 1)",
        "minor_den = A._scale**n",
    ),
    Mutant(
        "memo-ignores-the-cell",
        "src/cubicdet/laplace.py",
        "term = kept[f]\n",
        "term = kept[0]\n",
    ),
    Mutant(
        "cofactor-signs-before-the-bound",
        "src/cubicdet/laplace.py",
        """    value = Scalar(minors[f], A._scale ** (A.order - 1)) if kept[f] is None else kept[f].minor_value
    at = _CELLS[A.order][f][0]
    sign = sign_expansion(at) if convention is SignConvention.EXPANSION else sign_paper_def(at)
    return value if sign > 0 else -value
""",
        """    at = _CELLS[A.order][f][0]
    sign = sign_expansion(at) if convention is SignConvention.EXPANSION else sign_paper_def(at)
    return Scalar(sign * minors[f], A._scale ** (A.order - 1))
""",
    ),
    Mutant(
        "cofactor-reads-any-convention-as-paper-def",
        "src/cubicdet/laplace.py",
        """    if not isinstance(convention, SignConvention):
        raise TypeError(f"convention must be a SignConvention, got {convention!r}")
""",
        "",
    ),
    Mutant(
        "term-memo-ignores-the-sign",
        "src/cubicdet/laplace.py",
        "if term is None or term.sign != sign:",
        "if term is None:",
    ),
    Mutant(
        "det-laplace-denominator",
        "src/cubicdet/laplace.py",
        "for f in cells]), A._scale**n)",
        "for f in cells]), A._scale ** (n - 1))",
    ),
    Mutant(
        "det-laplace-no-order-1-base-case",
        "src/cubicdet/laplace.py",
        "minors = _memo(A)[0] if n > 1 else (1,)",
        "minors = _memo(A)[0]",
    ),
    Mutant(
        "det-laplace-reads-cell-0s-minor",
        "src/cubicdet/laplace.py",
        "* ints[f] * minors[f] for f in cells]",
        "* ints[f] * minors[0] for f in cells]",
    ),
    Mutant(
        "det-laplace-unsigned",
        "src/cubicdet/laplace.py",
        "sum([signs[f] * ints[f] * minors[f]",
        "sum([ints[f] * minors[f]",
    ),
    Mutant(
        "sign-table-never-rebuilt",
        "src/cubicdet/laplace.py",
        "if held is None or held[0] is not sign:",
        "if held is None:",
    ),
    Mutant(
        "order-0-minor-negated",
        "src/cubicdet/laplace.py",
        "        return ((1,),)",
        "        return ((-1,),)",
    ),
    Mutant(
        "minor-rows-read-cell-0",
        "src/cubicdet/laplace.py",
        "for sign, *cells in rows) for _, kept in _CELLS[order]",
        "for sign, *cells in rows) for _, kept in [_CELLS[order][0]] * order**3",
    ),
    Mutant(
        "totals-no-bound-check",
        "src/cubicdet/laplace.py",
        "if _NUM_MIN <= min(minors) and max(minors) <= _NUM_MAX and _NUM_MIN <= min(terms) and max(terms) <= _NUM_MAX:",
        "if True:",
    ),
    Mutant(
        "totals-no-den-max-guard",
        "src/cubicdet/laplace.py",
        "if den <= _DEN_MAX:",
        "if True:",
    ),
    Mutant(
        "swap-zips-a-layer-with-itself",
        "src/cubicdet/core3d.py",
        "for fa, fb in zip(cells_a, cells_b):",
        "for fa, fb in zip(cells_a, cells_a):",
    ),
    Mutant(
        "swap-map-pairs-a-layer-with-itself",
        "src/cubicdet/core3d.py",
        "source[fa], source[fb] = fb, fa",
        "source[fa], source[fb] = fa, fa",
    ),
    Mutant(
        "swap-map-found-for-a-bool-index",
        "src/cubicdet/core3d.py",
        "swap = _SWAPS.get(key) if type(a) is int and type(b) is int else None",
        "swap = _SWAPS.get(key)",
    ),
    Mutant(
        "terms3-flipped-sign",
        "src/cubicdet/determinant.py",
        "+a111a222a333",
        "-a111a222a333",
    ),
    Mutant(
        "kernel-drops-a-minus",
        "src/cubicdet/determinant.py",
        'coefficients = {1: "+", -1: "-"}',
        'coefficients = {1: "+", -1: "+"}',
    ),
    Mutant(
        "first-use-sum-drops-sign",
        "src/cubicdet/determinant.py",
        "        term = sign\n",
        "        term = 1\n",
    ),
    Mutant(
        "sign-expansion-paper-def",
        "src/cubicdet/determinant.py",
        "return -1 if (at.j + at.k) % 2 else 1",
        "return -1 if (at.i + at.j + at.k) % 2 else 1",
    ),
    Mutant(
        "integer-grammar-unicode-digits",
        "src/cubicdet/io.py",
        r'_INTEGER = re.compile(r"[+-]?[0-9]+\Z")',
        r'_INTEGER = re.compile(r"[+-]?\d+\Z")',
    ),
    Mutant(
        "kept-cells-share-a-depth",
        "src/cubicdet/core3d.py",
        "if si != i and sj != j and sk != k)",
        "if si != i and sj != j)",
    ),
    Mutant(
        "layer-reads-the-wrong-coordinate",
        "src/cubicdet/core3d.py",
        "if at[_AXES.index(axis)] == index)",
        "if at[2 - _AXES.index(axis)] == index)",
    ),
    Mutant(
        "paths-in-l-p-h-order",
        "src/cubicdet/core3d.py",
        "_PATHS = {order: tuple((axis, index) for axis in _AXES for",
        "_PATHS = {order: tuple((axis, index) for axis in _AXES[::-1] for",
    ),
    Mutant(
        "cells-print-a-rational-matrix-as-ints",
        "src/cubicdet/io.py",
        "if A._scale == 1:",
        "if A._scale >= 1:",
    ),
    Mutant(
        "layer-cells-accepts-a-float",
        "src/cubicdet/core3d.py",
        "(isinstance(index, bool) or not isinstance(index, int))",
        "(isinstance(index, bool) or not isinstance(index, (int, float)))",
    ),
    Mutant(
        "entry-address-trusts-a-tuple",
        "src/cubicdet/core3d.py",
        "if type(at) is not Index3:",
        "if not isinstance(at, tuple):",
    ),
    Mutant(
        "scalar-accepts-a-bool",
        "src/cubicdet/core3d.py",
        "if isinstance(num, bool) or isinstance(den, bool) or not isinstance(num, int)",
        "if not isinstance(num, int)",
    ),
    Mutant(
        "index3-accepts-a-float",
        "src/cubicdet/core3d.py",
        "not isinstance(x, int) for x in (i, j, k)",
        "not isinstance(x, (int, float)) for x in (i, j, k)",
    ),
    Mutant(
        "den-max-admits-2-64",
        "src/cubicdet/core3d.py",
        "_DEN_MAX = 2**64 - 1",
        "_DEN_MAX = 2**64 + 1",
    ),
    Mutant(
        "entry-check-or",
        "src/cubicdet/core3d.py",
        "if isinstance(value, int) and not isinstance(value, bool):",
        "if isinstance(value, int) or not isinstance(value, bool):",
    ),
    Mutant(
        "order-check-and",
        "src/cubicdet/core3d.py",
        "if not isinstance(order, int) or isinstance(order, bool) or order < 1:",
        "if not isinstance(order, int) and isinstance(order, bool) and order < 1:",
    ),
    Mutant(
        "row-count-check-misses-short-blocks",
        "src/cubicdet/core3d.py",
        "if len(rows) != order:",
        "if len(rows) > order:",
    ),
    Mutant(
        "repr-lists-layers-right-to-left",
        "src/cubicdet/core3d.py",
        "for block in layers)",
        "for block in layers[::-1])",
    ),
    Mutant(
        "gen-spec-rejects-the-top-seed",
        "src/cubicdet/core3d.py",
        "        if not 0 <= seed <= SplitMix64._MASK:",
        "        if not 0 <= seed < SplitMix64._MASK:",
    ),
    Mutant(
        "gen-spec-accepts-a-bool",
        "src/cubicdet/core3d.py",
        "isinstance(x, bool) or not isinstance(x, int) for x in (order, seed, range)",
        "not isinstance(x, int) for x in (order, seed, range)",
    ),
    Mutant(
        "batch-rejects-the-top-seed",
        "src/cubicdet/verify.py",
        "    if not 0 <= seed <= SplitMix64._MASK:\n        raise",
        "    if not 0 <= seed < SplitMix64._MASK:\n        raise",
    ),
    Mutant(
        "batch-accepts-a-bool",
        "src/cubicdet/verify.py",
        "type(value) is not int and (isinstance(value, bool) or not isinstance(value, int))",
        "type(value) is not int and not isinstance(value, int)",
    ),
    Mutant(
        "batch-order-accepts-a-float",
        "src/cubicdet/verify.py",
        "if isinstance(order, bool) or not isinstance(order, int):",
        "if isinstance(order, bool) or not isinstance(order, (int, float)):",
    ),
    Mutant(
        "batch-range-unchecked",
        "src/cubicdet/verify.py",
        '(("trials", trials), ("seed", seed), ("range", range))',
        '(("trials", trials), ("seed", seed))',
    ),
    Mutant(
        "reduced-skips-the-gcd-when-it-matters",
        "src/cubicdet/core3d.py",
        "        if scale != 1:\n            g = math.gcd(scale, *ints)",
        "        if scale == 1:\n            g = math.gcd(scale, *ints)",
    ),
    Mutant(
        "random-cubic-checks-only-past-den-max",
        "src/cubicdet/core3d.py",
        "() if r <= _NUM_MAX else range(len(ints))",
        "() if r <= _DEN_MAX else range(len(ints))",
    ),
    Mutant(
        "negated-det-built-before-the-loop",
        "src/cubicdet/verify.py",
        "    doubled = None\n",
        "    doubled, negated = None, -det_value\n",
    ),
    Mutant(
        "law-predictions-built-before-the-loop",
        "src/cubicdet/verify.py",
        "    doubled = None\n",
        "    doubled, negated = _LAW_SCALE * det_value, -det_value\n",
    ),
    Mutant(
        "text-layout-without-blank-lines",
        "src/cubicdet/io.py",
        '"\\n\\n".join(["\\n".join(',
        '"\\n".join(["\\n".join(',
    ),
    Mutant(
        "totals-drop-a-row",
        "src/cubicdet/laplace.py",
        "tuple((1, f) for f in _LAYER_FLAT[(order, *path)])",
        "tuple((1, f) for f in _LAYER_FLAT[(order, *path)][1:])",
    ),
    Mutant(
        "totals-cell-in-the-wrong-layer",
        "src/cubicdet/laplace.py",
        "tuple((1, f) for f in _LAYER_FLAT[(order, *path)])",
        "tuple((1, f or 1) for f in _LAYER_FLAT[(order, *path)])",
    ),
    Mutant(
        "totals-layers-in-reverse-order",
        "src/cubicdet/laplace.py",
        "for path in _PATHS[order]), many=True",
        "for path in _PATHS[order][::-1]), many=True",
    ),
    Mutant(
        "scale-layer-skips-the-denominator-when-it-matters",
        "src/cubicdet/core3d.py",
        "list(self._ints) if c.den == 1 else",
        "list(self._ints) if c.den != 1 else",
    ),
    Mutant(
        "stream-first-shift-31",
        "src/cubicdet/core3d.py",
        "z = ((s ^ (s >> 30)) & mask) * SplitMix64._MIX1 & mask",
        "z = ((s ^ (s >> 31)) & mask) * SplitMix64._MIX1 & mask",
    ),
    Mutant(
        "stream-lanes-unmasked-after-the-first-xorshift",
        "src/cubicdet/core3d.py",
        "z = ((s ^ (s >> 30)) & mask) * SplitMix64._MIX1 & mask",
        "z = (s ^ (s >> 30)) * SplitMix64._MIX1 & mask",
    ),
    Mutant(
        "stream-state-advanced-once-per-pass",
        "src/cubicdet/core3d.py",
        """            for out in _mix(self.state, count):
                self.state = (self.state + self._GAMMA) & self._MASK
                yield out
""",
        """            outs = _mix(self.state, count)
            self.state = (self.state + count * self._GAMMA) & self._MASK
            yield from outs
""",
    ),
    Mutant(
        "exports-drop-an-io-name",
        "src/cubicdet/__init__.py",
        '"io": ("ParseError", "parse_text", "serialize_text", "parse_json", "serialize_json"),',
        '"io": ("ParseError", "parse_text", "serialize_text", "parse_json"),',
    ),
    Mutant(
        "batch-count-is-trials",
        "src/cubicdet/verify.py",
        "return BatchSummary(trials * len(orders), failures, first_failure)",
        "return BatchSummary(trials, failures, first_failure)",
    ),
    Mutant(
        "scale-layer-skips-the-bounds-for-minus-one",
        "src/cubicdet/core3d.py",
        "changed = () if c.den == 1 and 0 <= c.num <= 1 else layer",
        "changed = () if c.den == 1 and -1 <= c.num <= 1 else layer",
    ),
    Mutant(
        "batch-seeds-restart-per-order",
        "src/cubicdet/verify.py",
        """    seeds = SplitMix64(seed).outputs(trials * len(orders))
    failures = 0
    first_failure = None
    for order in orders:
""",
        """    failures = 0
    first_failure = None
    for order in orders:
        seeds = SplitMix64(seed).outputs(trials * len(orders))
""",
    ),
    Mutant(
        "scale-law-always-holds",
        "src/cubicdet/verify.py",
        "laws.append((scale_name, _permutation_equals(scaled, doubled)))",
        "laws.append((scale_name, True))",
    ),
    Mutant(
        "swap-law-always-holds",
        "src/cubicdet/verify.py",
        "laws.append((swap_name, _permutation_equals(swapped, expected)))",
        "laws.append((swap_name, True))",
    ),
    Mutant(
        "zero-law-always-holds",
        "src/cubicdet/verify.py",
        "laws.append((zero_name, _permutation_equals(zeroed, ZERO)))",
        "laws.append((zero_name, True))",
    ),
    Mutant(
        "law-comparison-drops-the-common-denominator",
        "src/cubicdet/determinant.py",
        "== value.num * M._scale**n",
        "== value.num",
    ),
    Mutant(
        "law-names-swapped",
        "src/cubicdet/verify.py",
        '(axis, f"scale:{axis.letter}", f"swap:{axis.letter}", f"zero:{axis.letter}")',
        '(axis, f"swap:{axis.letter}", f"scale:{axis.letter}", f"zero:{axis.letter}")',
    ),
    Mutant(
        "kept-entry-off-by-one",
        "src/cubicdet/core3d.py",
        "return entries[f] if entries is not None",
        "return entries[f - 1] if entries is not None",
    ),
    Mutant(
        "kept-entries-in-reverse-order",
        "src/cubicdet/core3d.py",
        "self._entries = tuple(cells)",
        "self._entries = tuple(cells[::-1])",
    ),
    Mutant(
        "text-literal-location-column-plus-one",
        "src/cubicdet/io.py",
        'f"line {lineno}: vertical layer {k} row {i} column {j}: {err}"',
        'f"line {lineno}: vertical layer {k} row {i} column {j + 1}: {err}"',
    ),
    Mutant(
        "json-literal-location-column-plus-one",
        "src/cubicdet/io.py",
        'f"vertical layer {k} row {i} column {j}: {err}"',
        'f"vertical layer {k} row {i} column {j + 1}: {err}"',
    ),
    Mutant(
        "trailing-blank-lines-step-by-2",
        "src/cubicdet/io.py",
        "        pos += 1\n    if pos < len(rows):",
        "        pos += 2\n    if pos < len(rows):",
    ),
    Mutant(
        "more-content-line-number",
        "src/cubicdet/io.py",
        'f"line {rows[pos][0]}: expected {order} vertical layers',
        'f"line {rows[pos][1]}: expected {order} vertical layers',
    ),
    Mutant(
        "missing-row-line-number",
        "src/cubicdet/io.py",
        'where = f"line {rows[pos][0]}" if pos < len(rows)',
        'where = f"line {rows[pos][1]}" if pos < len(rows)',
    ),
    Mutant(
        "verify-default-trials",
        "src/cubicdet/cli.py",
        "trials = 100 if args.trials is None",
        "trials = 101 if args.trials is None",
    ),
    Mutant(
        "verify-default-seed",
        "src/cubicdet/cli.py",
        "seed = 0 if args.seed is None",
        "seed = 1 if args.seed is None",
    ),
    Mutant(
        "gen-overflow-names-no-reproducer",
        "src/cubicdet/cli.py",
        'raise ScalarOverflowError(f"{spec}: {err}") from err',
        "raise",
    ),
    Mutant(
        "broken-pipe-unguarded",
        "src/cubicdet/cli.py",
        """    except BrokenPipeError:
        # The reader went away (`cubicdet gen --order 3 | head -c0`): stop
        # quietly, and point stdout at devnull for Python's final flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
""",
        "",
    ),
    Mutant(
        "broken-pipe-found-at-exit",
        "src/cubicdet/cli.py",
        "        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit\n",
        "",
    ),
    Mutant(
        "gen-default-seed",
        "src/cubicdet/cli.py",
        'default=0, help="generator seed',
        'default=1, help="generator seed',
    ),
    Mutant(
        "gen-default-range",
        "src/cubicdet/cli.py",
        'p_gen.add_argument("--range", type=_integer, default=9,',
        'p_gen.add_argument("--range", type=_integer, default=10,',
    ),
    Mutant(
        "cli-imports-every-module",
        "src/cubicdet/cli.py",
        "from .io import _INTEGER, _json_scalar, parse_json, parse_text, serialize_text\n",
        "from .io import _INTEGER, _json_scalar, parse_json, parse_text, serialize_text\n"
        "from . import laplace, verify\n",
    ),
    Mutant(
        "subcommand-errors-print-the-top-usage",
        "src/cubicdet/cli.py",
        "p.set_defaults(func=func, parser=p)",
        "p.set_defaults(func=func, parser=parser)",
    ),
    Mutant(
        "gen-loads-the-cross-check",
        "src/cubicdet/cli.py",
        "def _cmd_gen(args, parser) -> int:\n",
        "def _cmd_gen(args, parser) -> int:\n    from . import verify  # noqa: F401\n",
    ),
    Mutant(
        "paper-def-note-before-the-entry-check",
        "src/cubicdet/cli.py",
        """    value = cofactor(A, Index3(args.i, args.j, args.k), convention)
    if convention is SignConvention.PAPER_DEF:  # after the entry is checked: an error prints only itself
        print(
            "note: paper-def signs the minor with (-1)^(i+j+k); "
            "layer expansions use the expansion sign (-1)^(j+k)",
            file=sys.stderr,
        )
    print(value)
""",
        """    if convention is SignConvention.PAPER_DEF:
        print(
            "note: paper-def signs the minor with (-1)^(i+j+k); "
            "layer expansions use the expansion sign (-1)^(j+k)",
            file=sys.stderr,
        )
    print(cofactor(A, Index3(args.i, args.j, args.k), convention))
""",
    ),
)


class StaleCatalogue(Exception):
    """The catalogue no longer matches the code or the tests."""


TEST_FILES = sorted(f"tests/{test.name}" for test in (ROOT / "tests").glob("test_*.py"))


def _suite(path: str) -> list[str]:
    """Every tier-1 test file, the one for the module at `path` first.
    Each is named: pytest would put a file given before its own
    directory back in directory order."""
    stem = Path(path).stem
    own = "tests/test_package.py" if stem == "__init__" else f"tests/test_{stem}.py"
    return sorted(TEST_FILES, key=lambda name: name != own)


def _copy_tree(dest: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))


def _mutated(text: str, mutant: Mutant) -> str:
    count = text.count(mutant.old)
    if count != 1:
        raise StaleCatalogue(f"{mutant.name}: old text occurs {count} times in {mutant.path}, expected once")
    return text.replace(mutant.old, mutant.new)


def _pytest(dest: Path, files) -> subprocess.CompletedProcess:
    """The suite over `files` in order, stopping at the first failure."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(dest / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *files]
    return subprocess.run(command, cwd=dest, env=env, capture_output=True, text=True)


def _first_failure(result: subprocess.CompletedProcess) -> str:
    """The first FAILED or ERROR id in pytest's short summary."""
    for line in result.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ", 1)[0].split(" ", 1)[1]
    return f"pytest exit {result.returncode}"


def _check_baseline(mutants) -> None:
    """Every old text occurs once and the suite passes unmutated."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        dest = Path(tmp)
        _copy_tree(dest)
        for mutant in mutants:
            _mutated((dest / mutant.path).read_text(encoding="utf-8"), mutant)
        result = _pytest(dest, TEST_FILES)
    if result.returncode != 0:
        raise StaleCatalogue(f"the suite fails unmutated at {_first_failure(result)}:\n{result.stdout}{result.stderr}")


def run_mutant(mutant: Mutant) -> str | None:
    """The first test that fails with the mutation applied, or None
    when the whole suite passes."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        dest = Path(tmp)
        _copy_tree(dest)
        target = dest / mutant.path
        target.write_text(_mutated(target.read_text(encoding="utf-8"), mutant), encoding="utf-8")
        result = _pytest(dest, _suite(mutant.path))
    if result.returncode == 0:
        return None
    if result.returncode in (1, 2):  # a test failed, or the mutant broke collection
        return _first_failure(result)
    raise StaleCatalogue(f"{mutant.name}: pytest exit {result.returncode}:\n{result.stdout}{result.stderr}")


def main() -> int:
    survivors = 0
    try:
        _check_baseline(MUTANTS)
        with ThreadPoolExecutor(os.cpu_count()) as pool:
            # map yields in catalogue order, and cancels the mutants not yet
            # started if one raises StaleCatalogue.
            for mutant, failed in zip(MUTANTS, pool.map(run_mutant, MUTANTS)):
                if failed:
                    print(f"killed    {mutant.name} by {failed}", flush=True)
                else:
                    survivors += 1
                    print(f"SURVIVED  {mutant.name}: the whole suite passed", flush=True)
    except StaleCatalogue as err:
        print(f"stale catalogue: {err}", file=sys.stderr)
        return 2
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
