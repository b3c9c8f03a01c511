"""Mutation catalogue: deliberate faults that the test suite must catch.

    python3 tools/mutants.py

Each mutant replaces one piece of text in one file under ``src/``.  The
script copies ``src/`` and ``tests/`` into a fresh temporary directory,
applies the change there (the repository is never edited) and runs the
mutant's test ids with pytest, one after another, with
``PYTHONDONTWRITEBYTECODE=1``.  A mutant is killed when at least one of
its tests fails; it survives when all of them pass.

Before any mutant runs, every named test must pass on the unchanged
copy, and every mutant's old text must occur exactly once in its file.
Either failure means the catalogue no longer matches the code: the
script says which entry and exits with code 2.  It exits with code 1 if
a mutant survives, and 0 when all are killed.

A change that adds a guard adds the mutant that removes it.  This is
not part of the tier-1 suite: it runs pytest once per named test.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name path old new tests")

MUTANTS = (
    Mutant(
        "lcm-as-max",
        "src/cubicdet/core3d.py",
        "self._scale = scale = math.lcm(*[c.den for c in cells])",
        "self._scale = scale = max([c.den for c in cells])",
        (
            "tests/test_core3d.py::TestLayerTransforms::test_results_keep_the_integer_view",
            "tests/test_determinant.py::TestGoldenDeterminants::test_rational_entries",
            "tests/test_rational_reference.py::test_every_route_matches_the_reference",
        ),
    ),
    Mutant(
        "expand-minor-denominator",
        "src/cubicdet/laplace.py",
        "minor_den = A._scale ** (n - 1)",
        "minor_den = A._scale**n",
        (
            "tests/test_rational_reference.py::test_every_route_matches_the_reference",
            "tests/test_laplace.py::test_expansion_totals_are_the_traced_totals",
        ),
    ),
    Mutant(
        "memo-ignores-the-cell",
        "src/cubicdet/laplace.py",
        "term = kept[f]\n",
        "term = kept[0]\n",
        (
            "tests/test_laplace.py::test_memo_answers_as_a_fresh_matrix",
            "tests/test_laplace.py::test_expand_reads_the_sign_at_call_time",
        ),
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
        ("tests/test_determinant.py::TestOverflowAgreement::test_unrepresentable_trace_values_raise",),
    ),
    Mutant(
        "cofactor-reads-any-convention-as-paper-def",
        "src/cubicdet/laplace.py",
        """    if not isinstance(convention, SignConvention):
        raise TypeError(f"convention must be a SignConvention, got {convention!r}")
""",
        "",
        ("tests/test_laplace.py::TestCofactor::test_golden_cofactors",),
    ),
    Mutant(
        "term-memo-ignores-the-sign",
        "src/cubicdet/laplace.py",
        "if term is None or term.sign != sign:",
        "if term is None:",
        ("tests/test_laplace.py::test_expand_reads_the_sign_at_call_time",),
    ),
    Mutant(
        "det-laplace-denominator",
        "src/cubicdet/laplace.py",
        "for f in cells]), A._scale**n)",
        "for f in cells]), A._scale ** (n - 1))",
        (
            "tests/test_rational_reference.py::test_every_route_matches_the_reference",
            "tests/test_rational_reference.py::test_every_route_raises_exactly_past_the_bounds",
        ),
    ),
    Mutant(
        "det-laplace-no-order-1-base-case",
        "src/cubicdet/laplace.py",
        "minors = _memo(A)[0] if n > 1 else (1,)",
        "minors = _memo(A)[0]",
        ("tests/test_laplace.py::TestDetLaplace::test_order1_base_case",),
    ),
    Mutant(
        "det-laplace-reads-cell-0s-minor",
        "src/cubicdet/laplace.py",
        "* ints[f] * minors[f] for f in cells]",
        "* ints[f] * minors[0] for f in cells]",
        (
            "tests/test_laplace.py::TestDetLaplace::test_golden_all_paths",
            "tests/test_rational_reference.py::test_every_route_raises_exactly_past_the_bounds",
        ),
    ),
    Mutant(
        "det-laplace-unsigned",
        "src/cubicdet/laplace.py",
        "sum([sign_expansion(table[f][0]) * ints[f] * minors[f]",
        "sum([ints[f] * minors[f]",
        (
            "tests/test_laplace.py::TestDetLaplace::test_golden_all_paths",
            "tests/test_laplace.py::TestDetLaplace::test_matches_oracle_seeded",
        ),
    ),
    Mutant(
        "det-laplace-sign-read-at-import",
        "src/cubicdet/laplace.py",
        "index: int = 1) -> Scalar:",
        "index: int = 1, sign_expansion=sign_expansion) -> Scalar:",
        ("tests/test_laplace.py::test_expand_reads_the_sign_at_call_time",),
    ),
    Mutant(
        "order-0-minor-negated",
        "src/cubicdet/laplace.py",
        "        return ((1,),)",
        "        return ((-1,),)",
        (
            "tests/test_kernels.py::test_every_kernel_is_its_table",
            "tests/test_laplace.py::TestDetLaplace::test_golden_all_paths",
            "tests/test_laplace.py::TestDetLaplace::test_minors_are_the_recursion_not_the_closed_form",
            "tests/test_rational_reference.py::test_every_route_matches_the_reference",
        ),
    ),
    Mutant(
        "minor-rows-read-cell-0",
        "src/cubicdet/laplace.py",
        "for sign, *cells in rows) for _, kept in _CELLS[order]",
        "for sign, *cells in rows) for _, kept in [_CELLS[order][0]] * order**3",
        (
            "tests/test_kernels.py::test_every_kernel_is_its_table",
            "tests/test_laplace.py::TestDetLaplace::test_table_has_the_permutation_monomials",
            "tests/test_laplace.py::TestDetLaplace::test_minors_are_the_recursion_not_the_closed_form",
        ),
    ),
    Mutant(
        "totals-no-bound-check",
        "src/cubicdet/laplace.py",
        "if _NUM_MIN <= min(minors) and max(minors) <= _NUM_MAX and _NUM_MIN <= min(terms) and max(terms) <= _NUM_MAX:",
        "if True:",
        (
            "tests/test_determinant.py::TestOverflowAgreement::test_unrepresentable_trace_values_raise",
            "tests/test_determinant.py::TestOverflowAgreement::test_a_contribution_of_2_63_raises",
            "tests/test_determinant.py::TestOverflowAgreement::test_unreduced_ints_past_64_bits_with_a_reduced_trace",
            "tests/test_laplace.py::test_expansion_totals_are_the_traced_totals",
        ),
    ),
    Mutant(
        "totals-no-den-max-guard",
        "src/cubicdet/laplace.py",
        "if den <= _DEN_MAX:",
        "if True:",
        ("tests/test_determinant.py::TestOverflowAgreement::test_unrepresentable_trace_values_raise",),
    ),
    Mutant(
        "swap-zips-a-layer-with-itself",
        "src/cubicdet/core3d.py",
        "pairs = zip(self._layer_cells(axis, a), self._layer_cells(axis, b))",
        "pairs = zip(self._layer_cells(axis, a), self._layer_cells(axis, a))",
        (
            "tests/test_core3d.py::TestLayerTransforms::test_swap_moves_entries",
            "tests/test_determinant.py::TestDerivedLaws::test_swap_symmetries",
            "tests/test_acceptance.py::test_criterion_5_derived_laws",
        ),
    ),
    Mutant(
        "terms3-flipped-sign",
        "src/cubicdet/determinant.py",
        "+a111a222a333",
        "-a111a222a333",
        (
            "tests/test_determinant.py::TestPermTerms::test_matches_closed_form_tables",
            "tests/test_determinant.py::TestOracleAgreement::test_seeded_random",
            "tests/test_acceptance.py::test_criterion_4_term_table_identity",
        ),
    ),
    Mutant(
        "kernel-drops-a-minus",
        "src/cubicdet/determinant.py",
        'coefficients = {1: "+", -1: "-"}',
        'coefficients = {1: "+", -1: "+"}',
        (
            "tests/test_kernels.py::test_every_kernel_is_its_table",
            "tests/test_kernels.py::test_any_sign_is_a_literal_coefficient",
            "tests/test_rational_reference.py::test_every_route_matches_the_reference",
        ),
    ),
    Mutant(
        "first-use-sum-drops-sign",
        "src/cubicdet/determinant.py",
        "        term = sign\n",
        "        term = 1\n",
        (
            "tests/test_kernels.py::test_every_kernel_is_its_table",
            "tests/test_kernels.py::test_any_sign_is_a_literal_coefficient",
            "tests/test_cli.py::TestDet::test_default_method",
        ),
    ),
    Mutant(
        "sign-expansion-paper-def",
        "src/cubicdet/determinant.py",
        "return -1 if (at.j + at.k) % 2 else 1",
        "return -1 if (at.i + at.j + at.k) % 2 else 1",
        (
            "tests/test_determinant.py::TestSigns::test_expansion_sign_values",
            "tests/test_laplace.py::TestExpand::test_order2_fixed_i1_trace",
            "tests/test_laplace.py::TestDetLaplace::test_golden_all_paths",
        ),
    ),
    Mutant(
        "integer-grammar-unicode-digits",
        "src/cubicdet/io.py",
        r'_INTEGER = re.compile(r"[+-]?[0-9]+\Z")',
        r'_INTEGER = re.compile(r"[+-]?\d+\Z")',
        (
            "tests/test_io.py::TestTextFormat::test_order_line_errors",
            "tests/test_cli.py::TestErrorHandling::test_order_outside_the_grammar",
        ),
    ),
    Mutant(
        "kept-cells-share-a-depth",
        "src/cubicdet/core3d.py",
        "if si != i and sj != j and sk != k)",
        "if si != i and sj != j)",
        (
            "tests/test_core3d.py::test_geometry_tables_follow_the_coordinate_definitions",
            "tests/test_core3d.py::TestDeleteSub::test_golden_minor_submatrices",
            "tests/test_laplace.py::TestMinor::test_golden_minors",
        ),
    ),
    Mutant(
        "layer-reads-the-wrong-coordinate",
        "src/cubicdet/core3d.py",
        "if at[_AXES.index(axis)] == index)",
        "if at[2 - _AXES.index(axis)] == index)",
        (
            "tests/test_core3d.py::test_geometry_tables_follow_the_coordinate_definitions",
            "tests/test_laplace.py::TestExpand::test_trace_order_per_axis",
            "tests/test_rational_reference.py::test_transforms_match_the_reference_up_to_the_bounds",
        ),
    ),
    Mutant(
        "paths-in-l-p-h-order",
        "src/cubicdet/core3d.py",
        "_PATHS = {order: tuple((axis, index) for axis in _AXES for",
        "_PATHS = {order: tuple((axis, index) for axis in _AXES[::-1] for",
        ("tests/test_cli.py::TestVerify::test_matches_frozen_golden_file",),
    ),
    Mutant(
        "reduced-cells-not-reducing",
        "src/cubicdet/io.py",
        "g = math.gcd(v, scale)\n",
        "g = 1\n",
        (
            "tests/test_io.py::test_serialize_text_prints_each_reduced_entry",
            "tests/test_verify.py::TestMatrixDigest::test_pinned_rational_digest",
        ),
    ),
    Mutant(
        "layer-cells-accepts-a-float",
        "src/cubicdet/core3d.py",
        "(isinstance(index, bool) or not isinstance(index, int))",
        "(isinstance(index, bool) or not isinstance(index, (int, float)))",
        ("tests/test_laplace.py::test_layer_index_contract",),
    ),
    Mutant(
        "entry-address-trusts-a-tuple",
        "src/cubicdet/core3d.py",
        "if type(at) is not Index3:",
        "if not isinstance(at, tuple):",
        ("tests/test_laplace.py::test_entry_address_contract",),
    ),
    Mutant(
        "scalar-accepts-a-bool",
        "src/cubicdet/core3d.py",
        "if isinstance(num, bool) or isinstance(den, bool) or not isinstance(num, int)",
        "if not isinstance(num, int)",
        ("tests/test_core3d.py::TestScalar::test_rejects_non_int_components",),
    ),
    Mutant(
        "index3-accepts-a-float",
        "src/cubicdet/core3d.py",
        "not isinstance(x, int) for x in (i, j, k)",
        "not isinstance(x, (int, float)) for x in (i, j, k)",
        ("tests/test_core3d.py::TestIndex3::test_one_based",),
    ),
    Mutant(
        "den-max-admits-2-64",
        "src/cubicdet/core3d.py",
        "_DEN_MAX = 2**64 - 1",
        "_DEN_MAX = 2**64 + 1",
        ("tests/test_core3d.py::TestScalar::test_overflow_reported_not_wrapped",),
    ),
    Mutant(
        "entry-check-or",
        "src/cubicdet/core3d.py",
        "if isinstance(value, int) and not isinstance(value, bool):",
        "if isinstance(value, int) or not isinstance(value, bool):",
        ("tests/test_core3d.py::TestConstruction::test_entry_types",),
    ),
    Mutant(
        "order-check-and",
        "src/cubicdet/core3d.py",
        "if not isinstance(order, int) or isinstance(order, bool) or order < 1:",
        "if not isinstance(order, int) and isinstance(order, bool) and order < 1:",
        ("tests/test_core3d.py::TestConstruction::test_order_must_be_a_positive_integer",),
    ),
    Mutant(
        "row-count-check-misses-short-blocks",
        "src/cubicdet/core3d.py",
        "if len(rows) != order:",
        "if len(rows) > order:",
        ("tests/test_core3d.py::TestConstruction::test_ragged_block_named",),
    ),
    Mutant(
        "repr-lists-layers-right-to-left",
        "src/cubicdet/core3d.py",
        "for block in layers)",
        "for block in layers[::-1])",
        ("tests/test_core3d.py::TestValueSemantics::test_repr",),
    ),
    Mutant(
        "gen-spec-rejects-the-top-seed",
        "src/cubicdet/core3d.py",
        "        if not 0 <= seed <= SplitMix64._MASK:",
        "        if not 0 <= seed < SplitMix64._MASK:",
        ("tests/test_verify.py::TestRandomCubic::test_spec_validation",),
    ),
    Mutant(
        "gen-spec-accepts-a-bool",
        "src/cubicdet/core3d.py",
        "isinstance(x, bool) or not isinstance(x, int) for x in (order, seed, range)",
        "not isinstance(x, int) for x in (order, seed, range)",
        ("tests/test_verify.py::TestRandomCubic::test_spec_validation",),
    ),
    Mutant(
        "batch-rejects-the-top-seed",
        "src/cubicdet/verify.py",
        "    if not 0 <= seed <= SplitMix64._MASK:\n        raise",
        "    if not 0 <= seed < SplitMix64._MASK:\n        raise",
        ("tests/test_verify.py::TestBatchVerify::test_single_trial",),
    ),
    Mutant(
        "batch-accepts-a-bool",
        "src/cubicdet/verify.py",
        "type(value) is not int and (isinstance(value, bool) or not isinstance(value, int))",
        "type(value) is not int and not isinstance(value, int)",
        ("tests/test_verify.py::TestBatchVerify::test_validation",),
    ),
    Mutant(
        "reduced-skips-the-gcd-when-it-matters",
        "src/cubicdet/core3d.py",
        "        if scale != 1:\n            g = math.gcd(scale, *ints)",
        "        if scale == 1:\n            g = math.gcd(scale, *ints)",
        (
            "tests/test_core3d.py::TestLayerTransforms::test_scale_then_inverse_restores",
            "tests/test_core3d.py::TestLayerTransforms::test_results_keep_the_integer_view",
        ),
    ),
    Mutant(
        "random-cubic-checks-only-past-den-max",
        "src/cubicdet/core3d.py",
        "() if r <= _NUM_MAX else range(len(ints))",
        "() if r <= _DEN_MAX else range(len(ints))",
        ("tests/test_verify.py::test_random_cubic_follows_the_reference_stream",),
    ),
    Mutant(
        "negated-det-built-before-the-loop",
        "src/cubicdet/verify.py",
        "    doubled = None\n",
        "    doubled, negated = None, -det_value\n",
        ("tests/test_rational_reference.py::test_cross_check_names_the_first_value_past_the_bounds",),
    ),
    Mutant(
        "law-predictions-built-before-the-loop",
        "src/cubicdet/verify.py",
        "    doubled = None\n",
        "    doubled, negated = _LAW_SCALE * det_value, -det_value\n",
        ("tests/test_rational_reference.py::test_cross_check_names_the_first_value_past_the_bounds",),
    ),
    Mutant(
        "text-layout-without-blank-lines",
        "src/cubicdet/io.py",
        '"\\n\\n".join(["\\n".join(',
        '"\\n".join(["\\n".join(',
        (
            "tests/test_io.py::test_serialize_text_is_the_reference_text",
            "tests/test_verify.py::TestRandomCubic::test_matches_frozen_golden_file",
        ),
    ),
    Mutant(
        "totals-drop-a-row",
        "src/cubicdet/laplace.py",
        "tuple((1, f) for f in _LAYER_FLAT[(order, *path)])",
        "tuple((1, f) for f in _LAYER_FLAT[(order, *path)][1:])",
        (
            "tests/test_kernels.py::test_every_kernel_is_its_table",
            "tests/test_laplace.py::test_expansion_totals_are_the_traced_totals",
        ),
    ),
    Mutant(
        "totals-cell-in-the-wrong-layer",
        "src/cubicdet/laplace.py",
        "tuple((1, f) for f in _LAYER_FLAT[(order, *path)])",
        "tuple((1, f or 1) for f in _LAYER_FLAT[(order, *path)])",
        (
            "tests/test_kernels.py::test_every_kernel_is_its_table",
            "tests/test_laplace.py::test_expansion_totals_are_the_traced_totals",
        ),
    ),
    Mutant(
        "totals-layers-in-reverse-order",
        "src/cubicdet/laplace.py",
        "for path in _PATHS[order]), many=True",
        "for path in _PATHS[order][::-1]), many=True",
        (
            "tests/test_kernels.py::test_every_kernel_is_its_table",
            "tests/test_verify.py::TestCrossCheck::test_one_entry_sign_fault_is_localized",
        ),
    ),
    Mutant(
        "scale-layer-skips-the-denominator-when-it-matters",
        "src/cubicdet/core3d.py",
        "list(self._ints) if c.den == 1 else",
        "list(self._ints) if c.den != 1 else",
        (
            "tests/test_core3d.py::TestLayerTransforms::test_scale_then_inverse_restores",
            "tests/test_rational_reference.py::test_transforms_match_the_reference_up_to_the_bounds",
        ),
    ),
    Mutant(
        "stream-first-shift-31",
        "src/cubicdet/core3d.py",
        "z = ((state ^ (state >> 30)) * mix1) & mask",
        "z = ((state ^ (state >> 31)) * mix1) & mask",
        (
            "tests/test_verify.py::TestSplitMix64::test_reference_vectors",
            "tests/test_verify.py::test_random_cubic_follows_the_reference_stream",
        ),
    ),
    Mutant(
        "law-names-swapped",
        "src/cubicdet/verify.py",
        '(axis, f"scale:{axis.letter}", f"swap:{axis.letter}", f"zero:{axis.letter}")',
        '(axis, f"swap:{axis.letter}", f"scale:{axis.letter}", f"zero:{axis.letter}")',
        ("tests/test_verify.py::TestCrossCheck::test_order2_report",),
    ),
    Mutant(
        "kept-entry-off-by-one",
        "src/cubicdet/core3d.py",
        "return entries[f] if entries is not None",
        "return entries[f - 1] if entries is not None",
        (
            "tests/test_io.py::test_a_built_matrix_keeps_its_entries",
            "tests/test_io.py::test_a_parsed_matrix_keeps_its_entries",
        ),
    ),
    Mutant(
        "kept-entries-in-reverse-order",
        "src/cubicdet/core3d.py",
        "self._entries = tuple(cells)",
        "self._entries = tuple(cells[::-1])",
        (
            "tests/test_io.py::test_a_built_matrix_keeps_its_entries",
            "tests/test_io.py::test_a_parsed_matrix_keeps_its_entries",
        ),
    ),
    Mutant(
        "text-literal-location-column-plus-one",
        "src/cubicdet/io.py",
        'f"line {lineno}: vertical layer {k} row {i} column {j}: {err}"',
        'f"line {lineno}: vertical layer {k} row {i} column {j + 1}: {err}"',
        ("tests/test_io.py::TestLiteralErrorLocations::test_text[denominator-overflow]",),
    ),
    Mutant(
        "json-literal-location-column-plus-one",
        "src/cubicdet/io.py",
        'f"vertical layer {k} row {i} column {j}: {err}"',
        'f"vertical layer {k} row {i} column {j + 1}: {err}"',
        ("tests/test_io.py::TestLiteralErrorLocations::test_json[float]",),
    ),
    Mutant(
        "trailing-blank-lines-step-by-2",
        "src/cubicdet/io.py",
        "        pos += 1\n    if pos < len(rows):",
        "        pos += 2\n    if pos < len(rows):",
        ("tests/test_io.py::TestTextFormat::test_extra_content",),
    ),
    Mutant(
        "more-content-line-number",
        "src/cubicdet/io.py",
        'f"line {rows[pos][0]}: expected {order} vertical layers',
        'f"line {rows[pos][1]}: expected {order} vertical layers',
        ("tests/test_io.py::TestTextFormat::test_extra_content",),
    ),
    Mutant(
        "missing-row-line-number",
        "src/cubicdet/io.py",
        'where = f"line {rows[pos][0]}" if pos < len(rows)',
        'where = f"line {rows[pos][1]}" if pos < len(rows)',
        ("tests/test_io.py::TestTextFormat::test_missing_row",),
    ),
    Mutant(
        "verify-default-trials",
        "src/cubicdet/cli.py",
        "trials = 100 if args.trials is None",
        "trials = 101 if args.trials is None",
        ("tests/test_cli.py::TestVerify::test_random_defaults",),
    ),
    Mutant(
        "verify-default-seed",
        "src/cubicdet/cli.py",
        "seed = 0 if args.seed is None",
        "seed = 1 if args.seed is None",
        ("tests/test_cli.py::TestVerify::test_random_defaults",),
    ),
    Mutant(
        "gen-overflow-names-no-reproducer",
        "src/cubicdet/cli.py",
        'raise ScalarOverflowError(f"{spec}: {err}") from err',
        "raise",
        ("tests/test_cli.py::TestGen::test_entry_overflow",),
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
        (
            "tests/test_cli.py::TestErrorHandling::test_closed_stdout_ends_quietly[False]",
            "tests/test_cli.py::TestErrorHandling::test_closed_stdout_ends_quietly[True]",
        ),
    ),
    Mutant(
        "broken-pipe-found-at-exit",
        "src/cubicdet/cli.py",
        "        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit\n",
        "",
        ("tests/test_cli.py::TestErrorHandling::test_closed_stdout_ends_quietly[False]",),
    ),
    Mutant(
        "gen-default-seed",
        "src/cubicdet/cli.py",
        'default=0, help="generator seed',
        'default=1, help="generator seed',
        ("tests/test_cli.py::TestGen::test_defaults",),
    ),
    Mutant(
        "gen-default-range",
        "src/cubicdet/cli.py",
        'p_gen.add_argument("--range", type=_integer, default=9,',
        'p_gen.add_argument("--range", type=_integer, default=10,',
        ("tests/test_cli.py::TestGen::test_defaults",),
    ),
    Mutant(
        "cli-imports-every-module",
        "src/cubicdet/cli.py",
        "from .io import _INTEGER, _json_scalar, parse_json, parse_text, serialize_text\n",
        "from .io import _INTEGER, _json_scalar, parse_json, parse_text, serialize_text\n"
        "from . import laplace, verify\n",
        ("tests/test_cli.py::TestStartup::test_command_loads_only_what_it_runs[det]",),
    ),
    Mutant(
        "subcommand-errors-print-the-top-usage",
        "src/cubicdet/cli.py",
        "p.set_defaults(func=func, parser=p)",
        "p.set_defaults(func=func, parser=parser)",
        ("tests/test_cli.py::test_the_transcript_replays_byte_for_byte",),
    ),
    Mutant(
        "gen-loads-the-cross-check",
        "src/cubicdet/cli.py",
        "def _cmd_gen(args, parser) -> int:\n",
        "def _cmd_gen(args, parser) -> int:\n    from . import verify  # noqa: F401\n",
        ("tests/test_cli.py::TestStartup::test_command_loads_only_what_it_runs[gen]",),
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
        ("tests/test_cli.py::test_every_invocation_exits_cleanly",),
    ),
)


class StaleCatalogue(Exception):
    """The catalogue no longer matches the code or the tests."""


def _copy_tree(dest: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))


def _mutated(text: str, mutant: Mutant) -> str:
    count = text.count(mutant.old)
    if count != 1:
        raise StaleCatalogue(f"{mutant.name}: old text occurs {count} times in {mutant.path}, expected once")
    return text.replace(mutant.old, mutant.new)


def _pytest(dest: Path, test_ids) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(dest / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *test_ids]
    return subprocess.run(command, cwd=dest, env=env, capture_output=True, text=True)


def _check_baseline(mutants) -> None:
    """Every old text occurs once and every named test passes unmutated."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        dest = Path(tmp)
        _copy_tree(dest)
        for mutant in mutants:
            _mutated((dest / mutant.path).read_text(encoding="utf-8"), mutant)
        test_ids = sorted({test_id for mutant in mutants for test_id in mutant.tests})
        result = _pytest(dest, test_ids)
        if result.returncode != 0:
            raise StaleCatalogue(f"the named tests do not all pass unmutated:\n{result.stdout}{result.stderr}")


def run_mutant(mutant: Mutant) -> list[str]:
    """The mutant's tests that fail with the mutation applied."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        dest = Path(tmp)
        _copy_tree(dest)
        target = dest / mutant.path
        target.write_text(_mutated(target.read_text(encoding="utf-8"), mutant), encoding="utf-8")
        failed = []
        for test_id in mutant.tests:
            result = _pytest(dest, [test_id])
            if result.returncode in (1, 2):  # a test failed, or the mutant broke collection
                failed.append(test_id)
            elif result.returncode != 0:
                raise StaleCatalogue(f"{mutant.name}: pytest exit {result.returncode} on {test_id}:\n{result.stdout}")
        return failed


def main() -> int:
    survivors = 0
    try:
        _check_baseline(MUTANTS)
        for mutant in MUTANTS:
            failed = run_mutant(mutant)
            if failed:
                print(f"killed    {mutant.name}: {len(failed)}/{len(mutant.tests)} tests failed", flush=True)
            else:
                survivors += 1
                print(f"SURVIVED  {mutant.name}: all {len(mutant.tests)} tests passed", flush=True)
    except StaleCatalogue as err:
        print(f"stale catalogue: {err}", file=sys.stderr)
        return 2
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
