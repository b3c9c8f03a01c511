import hashlib
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubicdet import (
    CubicMatrix,
    GenSpec,
    ParseError,
    Scalar,
    ScalarOverflowError,
    expand,
    matrix_digest,
    parse_json,
    parse_text,
    random_cubic,
    serialize_json,
    serialize_text,
)
from cubicdet.core3d import _PATHS
from cubicdet.io import _json_scalar

EXAMPLE1_TEXT = "2\n4 -3\n-1 5\n\n-2 4\n-7 3\n"
EXAMPLE1_JSON = '{"order": 2, "layers": [[[4, -3], [-1, 5]], [[-2, 4], [-7, 3]]]}'

RATIONAL = CubicMatrix(
    2,
    [
        [[Scalar(1, 2), Scalar(-2, 3)], [Scalar(5), Scalar(0)]],
        [[Scalar(7, 11), Scalar(-1)], [Scalar(9, 4), Scalar(1, 6)]],
    ],
)


class TestTextFormat:
    def test_parse_golden_files(self, data_dir, example1, example2):
        assert parse_text((data_dir / "example1.txt").read_text()) == example1
        assert parse_text((data_dir / "example2.txt").read_text()) == example2

    def test_serialize_is_byte_exact(self, example1):
        assert serialize_text(example1) == EXAMPLE1_TEXT

    def test_round_trip(self, example1, example2):
        for m in (example1, example2, RATIONAL):
            assert parse_text(serialize_text(m)) == m
        for order in (1, 2, 3):
            for seed in range(20):
                m = random_cubic(GenSpec(order, seed, 99))
                assert parse_text(serialize_text(m)) == m

    def test_rational_literals_canonicalize(self):
        m = parse_text("1\n2/4\n")
        assert m[1, 1, 1] == Scalar(1, 2)
        assert serialize_text(m) == "1\n1/2\n"
        assert parse_text("1\n-3/6\n")[1, 1, 1] == Scalar(-1, 2)
        assert parse_text("1\n+7\n")[1, 1, 1] == Scalar(7)

    def test_crlf_accepted(self, example1):
        crlf = EXAMPLE1_TEXT.replace("\n", "\r\n")
        assert parse_text(crlf) == example1

    def test_extra_blank_lines_accepted(self, example1):
        padded = "\n\n2\n\n\n4 -3\n-1 5\n\n\n\n-2 4\n-7 3\n\n\n"
        assert parse_text(padded) == example1

    def test_no_trailing_newline_accepted(self):
        assert parse_text("1\n7")[1, 1, 1] == Scalar(7)

    def test_empty_input(self):
        with pytest.raises(ParseError, match="line 1: empty input"):
            parse_text("")
        with pytest.raises(ParseError, match="empty input"):
            parse_text("\n  \n\n")

    def test_order_line_errors(self):
        with pytest.raises(ParseError, match="line 1: expected a single order token"):
            parse_text("2 2\n")
        with pytest.raises(ParseError, match="order must be an integer"):
            parse_text("two\n")
        with pytest.raises(ParseError, match="higher than the third order"):
            parse_text("4\n")
        with pytest.raises(ParseError, match="order must be at least 1"):
            parse_text("0\n")
        with pytest.raises(ParseError, match="order must be at least 1"):
            parse_text("-2\n")
        # int() also reads underscores and non-ASCII digits; the grammar does not.
        for token in ("0_2", "\u0662"):
            with pytest.raises(ParseError, match=f"^line 1: order must be an integer, got '{token}'$"):
                parse_text(f"{token}\n1 2\n3 4\n\n5 6\n7 8\n")

    def test_missing_row(self):
        with pytest.raises(
            ParseError, match="line 3: vertical layer 1 is missing row 2.*not square"
        ):
            parse_text("2\n4 -3\n")
        # A blank line inside a block reads as a truncated layer.
        with pytest.raises(ParseError, match="^line 3: vertical layer 1 is missing row 2"):
            parse_text("2\n4 -3\n\n-1 5\n\n-2 4\n-7 3\n")

    def test_wrong_entry_count(self):
        with pytest.raises(
            ParseError, match="line 2: vertical layer 1 row 1 has 3 entries.*not square"
        ):
            parse_text("2\n4 -3 7\n-1 5\n\n-2 4\n-7 3\n")
        with pytest.raises(ParseError, match="line 3: .*has 1 entries"):
            parse_text("2\n4 -3\n-1\n\n-2 4\n-7 3\n")

    def test_extra_content(self):
        with pytest.raises(ParseError, match="found more content.*not square"):
            parse_text(EXAMPLE1_TEXT + "\n9 9\n8 8\n")
        # One blank line, then one row: the row is line 8.
        with pytest.raises(ParseError, match="^line 8: expected 2 vertical layers but found more content"):
            parse_text(EXAMPLE1_TEXT + "\n9 9\n")

    def test_bad_literals(self):
        with pytest.raises(
            ParseError, match="line 2: vertical layer 1 row 1 column 1: bad scalar 'x'"
        ):
            parse_text("1\nx\n")
        with pytest.raises(ParseError, match="bad scalar '1.5'"):
            parse_text("1\n1.5\n")
        with pytest.raises(ParseError, match="bad scalar '1/-2'"):
            parse_text("1\n1/-2\n")
        with pytest.raises(ParseError, match="zero denominator in '3/0'"):
            parse_text("1\n3/0\n")
        with pytest.raises(ParseError, match="column 2: bad scalar '\u0668'"):
            parse_text("2\n1 \u0668\n3 4\n\n5 6\n7 8\n")
        with pytest.raises(ParseError, match="bad scalar '1/\u0662'"):
            parse_text("1\n1/\u0662\n")

    def test_overflow_is_a_parse_error(self):
        ok = parse_text(f"1\n{2**63 - 1}\n")
        assert ok[1, 1, 1] == Scalar(2**63 - 1)
        with pytest.raises(ParseError, match="column 1: numerator .* signed 64-bit"):
            parse_text(f"1\n{2**63}\n")

    def test_huge_literal_is_a_located_parse_error(self):
        # Past Python's int-conversion digit limit (4300 by default).
        huge = "7" * 5000
        with pytest.raises(
            ParseError,
            match="^line 3: vertical layer 1 row 2 column 1: scalar literal of 5000 characters is too long$",
        ):
            parse_text(f"2\n1 2\n{huge} 4\n\n5 6\n7 8\n")
        with pytest.raises(ParseError, match="^line 2: .* scalar literal of 5002 characters is too long$"):
            parse_text(f"1\n1/{huge}\n")
        # Literals that reduce into range stay accepted.
        assert parse_text(f"1\n{10**100}/{10**99}\n")[1, 1, 1] == Scalar(10)

    def test_huge_order_token_is_a_located_parse_error(self):
        huge = "7" * 5000
        with pytest.raises(ParseError, match="^line 1: scalar literal of 5000 characters is too long$"):
            parse_text(f"{huge}\n1\n")
        with pytest.raises(ParseError, match="^line 2: scalar literal of 5001 characters is too long$"):
            parse_text(f"\n-{huge}\n1\n")
        # A token that is not an integer keeps its message.
        with pytest.raises(ParseError, match="^line 1: order must be an integer, got '7x'$"):
            parse_text("7x\n")


class TestJsonFormat:
    def test_serialize_is_byte_exact(self, example1):
        assert serialize_json(example1) == EXAMPLE1_JSON

    def test_parse_golden(self, example1):
        assert parse_json(EXAMPLE1_JSON) == example1

    def test_round_trip(self, example1, example2):
        for m in (example1, example2, RATIONAL):
            assert parse_json(serialize_json(m)) == m
        for order in (1, 2, 3):
            for seed in range(20):
                m = random_cubic(GenSpec(order, seed, 99))
                assert parse_json(serialize_json(m)) == m

    def test_rational_entries_as_strings(self):
        m = parse_json('{"order": 1, "layers": [[["2/4"]]]}')
        assert m[1, 1, 1] == Scalar(1, 2)
        assert serialize_json(m) == '{"order": 1, "layers": [[["1/2"]]]}'

    def test_whitespace_shape_is_free(self, example1):
        spread = '{\n  "order": 2,\n  "layers": [[[4, -3], [-1, 5]],\n    [[-2, 4], [-7, 3]]]\n}'
        assert parse_json(spread) == example1

    def test_decode_error_carries_location(self):
        with pytest.raises(ParseError, match=r"line 1 column \d+"):
            parse_json('{"order": 2,')
        with pytest.raises(ParseError, match=r"line 2 column \d+"):
            parse_json('{"order": 2,\n "layers": }')

    def test_deep_nesting_is_a_located_parse_error(self):
        # json.loads recurses once per bracket.
        with pytest.raises(ParseError, match="^line 1: JSON nested too deeply$"):
            parse_json('{"order": 2, "layers": ' + "[" * 100000)

    def test_top_level_shape(self):
        with pytest.raises(ParseError, match="expected a JSON object, got list"):
            parse_json("[1, 2]")
        with pytest.raises(ParseError, match='missing "order"'):
            parse_json('{"layers": []}')
        with pytest.raises(ParseError, match='missing "layers"'):
            parse_json('{"order": 1}')

    def test_order_value_errors(self):
        with pytest.raises(ParseError, match='"order": float literal not permitted'):
            parse_json('{"order": 2.0, "layers": []}')
        with pytest.raises(ParseError, match='"order": expected an integer, got True'):
            parse_json('{"order": true, "layers": []}')
        with pytest.raises(ParseError, match="expected an integer, got '2'"):
            parse_json('{"order": "2", "layers": []}')
        with pytest.raises(ParseError, match="higher than the third order"):
            parse_json('{"order": 4, "layers": []}')
        with pytest.raises(ParseError, match="order must be at least 1"):
            parse_json('{"order": 0, "layers": []}')

    def test_layer_shape_errors(self):
        with pytest.raises(ParseError, match='"layers": expected a list'):
            parse_json('{"order": 1, "layers": 3}')
        with pytest.raises(ParseError, match="got 1 vertical layers, expected 2.*not square"):
            parse_json('{"order": 2, "layers": [[[1, 2], [3, 4]]]}')
        with pytest.raises(ParseError, match="vertical layer 2: got 1 rows.*not square"):
            parse_json('{"order": 2, "layers": [[[1, 2], [3, 4]], [[5, 6]]]}')
        with pytest.raises(ParseError, match="vertical layer 1: got str rows"):
            parse_json('{"order": 1, "layers": ["x"]}')
        with pytest.raises(
            ParseError, match="vertical layer 1 row 2: got 3 entries, expected 2"
        ):
            parse_json('{"order": 2, "layers": [[[1, 2], [3, 4, 5]], [[5, 6], [7, 8]]]}')

    def test_entry_value_errors(self):
        with pytest.raises(
            ParseError,
            match="vertical layer 1 row 1 column 2: float literal not permitted, got '2.5'",
        ):
            parse_json('{"order": 2, "layers": [[[1, 2.5], [3, 4]], [[5, 6], [7, 8]]]}')
        with pytest.raises(ParseError, match="float literal not permitted, got 'NaN'"):
            parse_json('{"order": 1, "layers": [[[NaN]]]}')
        with pytest.raises(ParseError, match="column 1: expected an integer or 'p/q' string, got True"):
            parse_json('{"order": 1, "layers": [[[true]]]}')
        with pytest.raises(ParseError, match="got None"):
            parse_json('{"order": 1, "layers": [[[null]]]}')
        with pytest.raises(ParseError, match="bad scalar 'x'"):
            parse_json('{"order": 1, "layers": [[["x"]]]}')
        with pytest.raises(ParseError, match="zero denominator"):
            parse_json('{"order": 1, "layers": [[["1/0"]]]}')
        with pytest.raises(ParseError, match="column 1: bad scalar '\u0662/\u0668'"):
            parse_json('{"order": 1, "layers": [[["\u0662/\u0668"]]]}')
        with pytest.raises(ParseError, match="numerator .* signed 64-bit"):
            parse_json(f'{{"order": 1, "layers": [[[{2**63}]]]}}')

    def test_huge_literal_is_a_located_parse_error(self):
        huge = "7" * 5000
        with pytest.raises(
            ParseError,
            match="^vertical layer 2 row 1 column 2: scalar literal of 5001 characters is too long$",
        ):
            parse_json(f'{{"order": 2, "layers": [[[1, 2], [3, 4]], [[5, -{huge}], [7, 8]]]}}')
        with pytest.raises(ParseError, match='^"order": scalar literal of 5000 characters is too long$'):
            parse_json(f'{{"order": {huge}, "layers": []}}')
        with pytest.raises(ParseError, match="^vertical layer 1 row 1 column 1: scalar literal of 5002"):
            parse_json(f'{{"order": 1, "layers": [[["{huge}/3"]]]}}')


# One bad literal per kind, with the message that follows its location.
BAD_LITERALS = (
    pytest.param("x", "bad scalar 'x' (expected an integer or p/q)", id="bad-scalar"),
    pytest.param("3/0", "zero denominator in '3/0'", id="zero-denominator"),
    pytest.param("7" * 5000, "scalar literal of 5000 characters is too long", id="too-long"),
    pytest.param(str(2**63), f"numerator {2**63} outside the signed 64-bit range", id="numerator-overflow"),
    pytest.param(f"1/{2**64}", f"denominator {2**64} outside the unsigned 64-bit range", id="denominator-overflow"),
)

# Cells (k, i, j) other than the first, whose coordinates together tell
# the three loop variables apart.
BAD_CELLS = ((2, 3, 2), (3, 1, 2))


def order3_layers(k, i, j, literal):
    """An order-3 matrix's layers of literals: 1 everywhere but (i, j, k)."""
    layers = [[["1"] * 3 for _ in range(3)] for _ in range(3)]
    layers[k - 1][i - 1][j - 1] = literal
    return layers


class TestLiteralErrorLocations:
    @pytest.mark.parametrize("literal, message", BAD_LITERALS)
    def test_text(self, literal, message):
        for k, i, j in BAD_CELLS:
            blocks = ["\n".join(" ".join(row) for row in block) for block in order3_layers(k, i, j, literal)]
            # Line 1 is the order; each block is 3 lines and one blank.
            line = 1 + 4 * (k - 1) + i
            with pytest.raises(ParseError) as err:
                parse_text("3\n" + "\n\n".join(blocks) + "\n")
            assert str(err.value) == f"line {line}: vertical layer {k} row {i} column {j}: {message}"

    @pytest.mark.parametrize(
        "literal, message",
        BAD_LITERALS
        + (
            pytest.param("2.5", "float literal not permitted, got '2.5'", id="float"),
            pytest.param("true", "expected an integer or 'p/q' string, got True", id="not-a-string"),
        ),
    )
    def test_json(self, literal, message):
        for k, i, j in BAD_CELLS:
            # Bare where JSON allows it (an integer of any length, 2.5,
            # true), else a string.
            bare = literal.isdigit() or literal in ("2.5", "true")
            layers = order3_layers(k, i, j, literal if bare else json.dumps(literal))
            text = '{"order": 3, "layers": ' + str(layers).replace("'", "") + "}"
            with pytest.raises(ParseError) as err:
                parse_json(text)
            assert str(err.value) == f"vertical layer {k} row {i} column {j}: {message}"


class TestAcceptedForms:
    """Inputs outside the canonical layout that README §File formats
    states are accepted."""

    def test_blocks_need_no_blank_line_between_them(self, example1):
        assert parse_text("2\n4 -3\n-1 5\n-2 4\n-7 3\n") == example1

    @pytest.mark.parametrize("space", ["\u00a0", "\u2028", "\u3000", "\v", "\x1c", "\r"])
    def test_any_python_whitespace_separates_literals(self, space, example1):
        assert parse_text(f"2\n4{space}-3\n-1{space}{space}5\n\n-2 4\n-7 3\n") == example1

    def test_a_form_feed_line_is_a_blank_line(self, example1):
        assert parse_text("2\n4 -3\n-1 5\n\f\n-2 4\n-7 3\n") == example1
        # Inside a block it reads as a blank line does: a missing row.
        with pytest.raises(ParseError, match="^line 3: vertical layer 1 is missing row 2"):
            parse_text("2\n4 -3\n\f\n-1 5\n\n-2 4\n-7 3\n")

    def test_a_json_entry_may_be_an_integer_string(self):
        assert parse_json('{"order": 1, "layers": [[["5"]]]}') == CubicMatrix(1, [[[5]]])

    def test_json_ignores_other_keys_and_takes_a_duplicate_key_last(self, example1):
        doc = '{"order": 1, "note": [1.5], "layers": [[[1]]], "order": 2, "layers": ' + EXAMPLE1_JSON[23:]
        assert parse_json(doc) == example1


class TestCrossFormat:
    def test_formats_agree(self, example2):
        assert parse_json(serialize_json(example2)) == parse_text(serialize_text(example2))

    def test_canonical_output_is_stable(self, example2):
        once = serialize_text(parse_json(serialize_json(example2)))
        assert once == serialize_text(example2)


# Text-format tokens: integers, p/q literals, the 64-bit edges, literals
# past the int-conversion digit limit, and characters the grammar rejects.
TOKENS = st.one_of(
    st.integers().map(str),
    st.builds("{}/{}".format, st.integers(), st.integers()),
    st.sampled_from(("-0", "+7", str(2**63), str(-(2**63) - 1), "7" * 5000, "1/" + "7" * 5000)),
    st.text(alphabet="0123456789+-/_.x \u0662", min_size=1),
)


@st.composite
def text_documents(draw):
    n = draw(st.integers(1, 3))
    # Mostly the order that matches the layout, so that entries get read.
    order = str(n) if draw(st.integers(0, 3)) else draw(TOKENS)
    rows = [" ".join(draw(st.lists(TOKENS, min_size=n, max_size=n))) for _ in range(n * n)]
    blocks = ["\n".join(rows[k * n:(k + 1) * n]) for k in range(n)]
    return order + "\n" + "\n\n".join(blocks) + "\n"


@given(st.one_of(st.text(), text_documents()))
def test_parse_text_raises_only_parse_errors(text):
    try:
        parse_text(text)
    except ParseError:
        pass


# JSON values as source text: ints of any size, floats, bools, null,
# strings (some of them p/q) and nested lists of all of these.
JSON_SCALARS = st.one_of(
    st.integers().map(str),
    st.sampled_from(("-0", str(2**63), str(-(2**63) - 1), "7" * 5000, "-" + "7" * 5000)),
    st.floats().map(json.dumps),
    st.sampled_from(("true", "false", "null")),
    st.text().map(json.dumps),
    st.builds("{}/{}".format, st.integers(), st.integers()).map(json.dumps),
)


def json_arrays(items):
    return st.lists(items, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]")


JSON_VALUES = st.one_of(JSON_SCALARS, json_arrays(JSON_SCALARS), json_arrays(json_arrays(JSON_SCALARS)))


@st.composite
def json_documents(draw):
    n = draw(st.integers(1, 3))
    order = str(n) if draw(st.integers(0, 3)) else draw(JSON_VALUES)
    entries = st.one_of(st.integers().map(str), JSON_VALUES)
    cells = iter(draw(st.lists(entries, min_size=n**3, max_size=n**3)))

    def nest(depth):
        items = [next(cells) if depth == 1 else nest(depth - 1) for _ in range(n)]
        return "[" + ", ".join(items) + "]"

    layers = nest(3) if draw(st.integers(0, 3)) else draw(JSON_VALUES)
    return f'{{"order": {order}, "layers": {layers}}}'


@given(json_documents())
def test_parse_json_raises_only_parse_errors(text):
    try:
        parse_json(text)
    except ParseError:
        pass


# Entries at the edges of the 64-bit ranges, and anywhere between.
ENTRIES = st.builds(
    Scalar,
    st.one_of(st.sampled_from((-(2**63), 2**63 - 1, 0)), st.integers(-(2**63), 2**63 - 1)),
    st.one_of(st.sampled_from((1, 2**64 - 1)), st.integers(1, 2**64 - 1)),
)


@st.composite
def cubics(draw):
    n = draw(st.integers(1, 3))
    cells = iter(draw(st.lists(ENTRIES, min_size=n**3, max_size=n**3)))
    return CubicMatrix(n, [[[next(cells) for _ in range(n)] for _ in range(n)] for _ in range(n)])


@given(cubics())
def test_round_trip_at_the_64_bit_edges(A):
    assert parse_text(serialize_text(A)) == A
    assert parse_json(serialize_json(A)) == A


# Integer-only matrices, small p/q cells that reduce against a shared
# denominator, and the 64-bit edges.
FORMAT_ENTRIES = st.sampled_from(
    (
        st.integers(-(2**63), 2**63 - 1).map(Scalar),
        st.builds(Scalar, st.integers(-30, 30), st.integers(1, 12)),
        st.one_of(st.integers(-3, 3).map(Scalar), ENTRIES),
        ENTRIES,
    )
)


@given(st.integers(1, 3), st.data())
def test_serialize_text_prints_each_reduced_entry(n, data):
    entries = data.draw(FORMAT_ENTRIES)
    cells = iter(data.draw(st.lists(entries, min_size=n**3, max_size=n**3)))
    A = CubicMatrix(n, [[[next(cells) for _ in range(n)] for _ in range(n)] for _ in range(n)])
    # The text as printed from A's Scalars, one str() per entry.
    blocks = ["\n".join(" ".join(str(v) for v in row) for row in block) for block in A.layers()]
    assert serialize_text(A) == f"{n}\n" + "\n\n".join(blocks) + "\n"
    # And the JSON as built from the same Scalars, one _json_scalar() per entry.
    layers = [[[_json_scalar(v) for v in row] for row in block] for block in A.layers()]
    assert serialize_json(A) == json.dumps({"order": n, "layers": layers})
    # A matrix built through _reduced keeps no Scalars and prints the same.
    twin = A.scale(Scalar(1))
    assert twin._entries is None
    assert serialize_text(twin) == serialize_text(A)
    assert serialize_json(twin) == serialize_json(A)


def reference_text(n, cells):
    """The canonical text of the order-n matrix whose Fractions ``cells``
    lists in (k, i, j) order, written out from README's format without
    cubicdet: the order line, then each vertical layer's n rows of n
    literals joined by single spaces, a blank line between layers."""
    rows = [" ".join(str(cells[r * n + j]) for j in range(n)) for r in range(n * n)]
    layers = ["".join(row + "\n" for row in rows[k * n : (k + 1) * n]) for k in range(n)]
    return f"{n}\n" + "\n".join(layers)


# Small integers, p/q cells that reduce against a shared denominator,
# and components at the 64-bit edges, as Fractions.
EDGE_NUMERATORS = st.one_of(st.sampled_from((-(2**63), 2**63 - 1, 0)), st.integers(-(2**63), 2**63 - 1))
REFERENCE_ENTRIES = st.sampled_from(
    (
        st.integers(-9, 9).map(Fraction),
        EDGE_NUMERATORS.map(Fraction),
        st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
        st.builds(Fraction, EDGE_NUMERATORS, st.one_of(st.sampled_from((1, 2**64 - 1)), st.integers(1, 2**64 - 1))),
    )
)


@given(st.integers(1, 3), st.data())
def test_serialize_text_is_the_reference_text(n, data):
    cells = data.draw(st.lists(data.draw(REFERENCE_ENTRIES), min_size=n**3, max_size=n**3))
    flat = iter([Scalar(c.numerator, c.denominator) for c in cells])
    A = CubicMatrix(n, [[[next(flat) for _ in range(n)] for _ in range(n)] for _ in range(n)])
    text = reference_text(n, cells)
    digest = f"order{n}:" + hashlib.sha256(text.encode()).hexdigest()[:16]
    # Read out from the kept Scalars, and from a twin built through
    # _reduced, which keeps none.
    twin = A.scale(Scalar(1))
    assert twin._entries is None
    for B in (A, twin):
        assert serialize_text(B) == text
        assert matrix_digest(B) == digest


def outcome(call, *args):
    """call(*args), or the overflow it raises, as a comparable value."""
    try:
        return call(*args)
    except ScalarOverflowError as err:
        return ("overflow", str(err))


def assert_kept_entries_are_the_matrix(A):
    """A keeps one Scalar per flat cell, each the value its ints give, and
    reads out as an equal matrix built through _reduced, which keeps none."""
    assert list(A._entries) == [Scalar(v, A._scale) for v in A._ints]
    B = CubicMatrix._reduced(A.order, A._scale, A._ints)
    assert B == A and B._entries is None
    assert A.layers() == B.layers()
    cells = [(i, j, k) for k in range(1, A.order + 1) for i in range(1, A.order + 1) for j in range(1, A.order + 1)]
    assert [A.get(at) for at in cells] == [B.get(at) for at in cells]
    if A.order > 1:
        for axis, index in _PATHS[A.order]:
            assert outcome(expand, A, axis, index) == outcome(expand, B, axis, index)


@given(cubics())
def test_a_built_matrix_keeps_its_entries(A):
    assert_kept_entries_are_the_matrix(A)


@st.composite
def literals(draw):
    """(literal, value): a p/q or integer literal of a representable value,
    often written out of canonical form: a common factor, leading zeros, a
    plus sign, or a denominator of 1."""
    value = draw(ENTRIES)
    factor = draw(st.sampled_from((1, 1, 2, 3, 10**99)))
    num, den = value.num * factor, value.den * factor
    sign = "-" if num < 0 else draw(st.sampled_from(("", "+")))
    zeros = st.sampled_from(("", "", "0", "00"))
    literal = sign + draw(zeros) + str(abs(num))
    if den != 1 or draw(st.booleans()):
        literal += "/" + draw(zeros) + str(den)
    return literal, value


PINNED_LITERALS = (
    ("2/4", Scalar(1, 2)),
    ("-3/006", Scalar(-1, 2)),
    ("0/5", Scalar(0)),
    ("+7", Scalar(7)),
    (f"{10**100}/{10**99}", Scalar(10)),
)


def json_literal(literal):
    """The literal as JSON source: bare if JSON reads it as an integer, else a string."""
    return literal if re.fullmatch(r"-?(0|[1-9][0-9]*)", literal) else json.dumps(literal)


@given(st.integers(1, 3), st.data())
def test_a_parsed_matrix_keeps_its_entries(n, data):
    cells = data.draw(st.lists(st.one_of(literals(), st.sampled_from(PINNED_LITERALS)), min_size=n**3, max_size=n**3))
    layers = [[[cells[(k * n + i) * n + j][0] for j in range(n)] for i in range(n)] for k in range(n)]
    text = f"{n}\n" + "\n\n".join("\n".join(" ".join(row) for row in block) for block in layers) + "\n"
    nested = str([[[json_literal(literal) for literal in row] for row in block] for block in layers]).replace("'", "")
    doc = f'{{"order": {n}, "layers": {nested}}}'
    for A in (parse_text(text), parse_json(doc)):
        assert list(A._entries) == [value for _, value in cells]
        assert_kept_entries_are_the_matrix(A)
