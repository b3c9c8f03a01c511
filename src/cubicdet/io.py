"""Bit-exact text and JSON serialization of cubic matrices.

Text format (mirrors how the vertical layers read side by side)::

    2
    4 -3
    -1 5

    -2 4
    -7 3

First non-blank line: the order n (1, 2, or 3).  Then n blocks, one per
vertical layer k, each n lines of n whitespace-separated scalar
literals; blank lines between blocks are optional and may repeat.
Lines end at LF (a CR before it is dropped); whitespace and "blank" are
``str.split``'s and ``str.strip``'s, so a lone CR, a form feed or a
non-ASCII space such as U+3000 separates literals, and a line of them
is blank.  A literal is an optionally signed integer, or ``p/q`` with
positive q.  Floats do not exist in this format.

JSON format::

    {"order": 2, "layers": [[[4, -3], [-1, 5]], [[-2, 4], [-7, 3]]]}

``layers[k-1][i-1][j-1]`` is the entry at (i, j, k); values are JSON
integers or strings holding a text-format literal (``"p/q"``, or
``"5"``).  Floats are rejected outright (silent rounding would break
exactness).  Other keys are ignored, and of duplicate keys the last
one counts.

Serialization is canonical for both formats (equal matrices always
produce byte-identical output) and ``parse(serialize(A)) == A`` holds
exactly.  Both writers read one list of cells: an integer matrix's
ints, taken as they are, or else each entry's Scalar, which prints
itself in lowest terms.  The text writer fills a per-order layout,
built at import, with one ``str.format`` call over them; the JSON
writer maps each Scalar through ``_json_scalar``.  Every parse error
names a 1-based location.  A literal's location is formatted only
when the literal is rejected: _parse_literal raises _BadLiteral with
the rest of the message, and the parser's loop, which knows the cell,
prefixes it.  The parsers hand their Scalars to CubicMatrix, which
keeps them (see core3d).
"""

from __future__ import annotations

import re

from . import _EXPORTS
from .core3d import (
    NOT_CUBIC_MESSAGE,
    ORDER_TOO_HIGH_MESSAGE,
    CubicMatrix,
    Scalar,
    ScalarOverflowError,
    _nested,
)

__all__ = list(_EXPORTS["io"])


class ParseError(ValueError):
    """Malformed matrix input; the message carries a 1-based location."""


# [0-9], not \d: \d and int() also take non-ASCII digits, which the
# grammar does not allow.
_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")
_INTEGER = re.compile(r"[+-]?[0-9]+\Z")


def _too_long(token: str) -> str:
    return f"scalar literal of {len(token)} characters is too long"


class _BadLiteral(Exception):
    """A literal the grammar or the 64-bit bounds reject.  The message
    lacks the location, which the caller prefixes, so that a literal
    that parses never formats one."""


def _parse_literal(token: str) -> Scalar:
    match = _LITERAL.match(token)
    if match is None:
        raise _BadLiteral(f"bad scalar {token!r} (expected an integer or p/q)")
    num, den = match.groups()
    try:
        num = int(num)
        den = 1 if den is None else int(den)
    except ValueError:
        # Past the interpreter's int-conversion digit limit.
        raise _BadLiteral(_too_long(token)) from None
    if den == 0:
        raise _BadLiteral(f"zero denominator in {token!r}")
    try:
        return Scalar(num, den)
    except ScalarOverflowError as err:
        raise _BadLiteral(str(err)) from None


def _parse_order_token(token: str, where: str) -> int:
    if _INTEGER.match(token) is None:
        raise ParseError(f"{where}: order must be an integer, got {token!r}")
    try:
        order = int(token)
    except ValueError:
        # Past the interpreter's int-conversion digit limit.
        raise ParseError(f"{where}: {_too_long(token)}") from None
    if order > 3:
        raise ParseError(f"{where}: order {order} not supported: {ORDER_TOO_HIGH_MESSAGE}")
    if order < 1:
        raise ParseError(f"{where}: order must be at least 1, got {order}")
    return order


def parse_text(text: str) -> CubicMatrix:
    """Parse the text format.  Accepts LF or CRLF; blank lines between
    blocks may repeat; leading/trailing blank lines are ignored."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    rows = [(number, line.rstrip("\r")) for number, line in enumerate(lines, start=1)]

    pos = 0
    while pos < len(rows) and rows[pos][1].strip() == "":
        pos += 1
    if pos == len(rows):
        raise ParseError("line 1: empty input, expected an order line")
    lineno, line = rows[pos]
    tokens = line.split()
    if len(tokens) != 1:
        raise ParseError(f"line {lineno}: expected a single order token, got {len(tokens)}")
    order = _parse_order_token(tokens[0], f"line {lineno}")
    pos += 1

    layers = []
    for k in range(1, order + 1):
        while pos < len(rows) and rows[pos][1].strip() == "":
            pos += 1
        block = []
        for i in range(1, order + 1):
            if pos >= len(rows) or rows[pos][1].strip() == "":
                where = f"line {rows[pos][0]}" if pos < len(rows) else f"line {len(rows) + 1}"
                raise ParseError(
                    f"{where}: vertical layer {k} is missing row {i} of {order}: {NOT_CUBIC_MESSAGE}"
                )
            lineno, line = rows[pos]
            tokens = line.split()
            if len(tokens) != order:
                raise ParseError(
                    f"line {lineno}: vertical layer {k} row {i} has {len(tokens)} entries, "
                    f"expected {order}: {NOT_CUBIC_MESSAGE}"
                )
            row = []
            for j, tok in enumerate(tokens, start=1):
                try:
                    row.append(_parse_literal(tok))
                except _BadLiteral as err:
                    raise ParseError(f"line {lineno}: vertical layer {k} row {i} column {j}: {err}") from None
            block.append(row)
            pos += 1
        layers.append(block)

    while pos < len(rows) and rows[pos][1].strip() == "":
        pos += 1
    if pos < len(rows):
        raise ParseError(
            f"line {rows[pos][0]}: expected {order} vertical layers but found more content: "
            f"{NOT_CUBIC_MESSAGE}"
        )
    return CubicMatrix(order, layers)


def _cells(A: CubicMatrix):
    """Each entry of A in flat (k-major) order: its int if A is an
    integer matrix, as every random_cubic is, else its Scalar."""
    if A._scale == 1:
        return A._ints
    return [A._entry(f) for f in range(len(A._ints))]


# Per order, the canonical text with one "{}" per entry in flat order:
# the order line, then n blocks of n rows of n entries, single spaces,
# one blank line between blocks, LF endings, one trailing newline.
_TEXT_LAYOUT = {n: f"{n}\n" + "\n\n".join(["\n".join([" ".join(["{}"] * n)] * n)] * n) + "\n" for n in (1, 2, 3)}


def serialize_text(A: CubicMatrix) -> str:
    """Canonical text form: single spaces, one blank line between
    blocks, reduced p/q literals, LF endings, one trailing newline.
    One format call fills the order's layout with the cells."""
    return _TEXT_LAYOUT[A.order].format(*_cells(A))


class _Float(str):
    # Marker for floating-point literals met during JSON parsing; kept
    # as text so the rejection error can point at the exact entry.
    pass


class _Int(str):
    # Marker for JSON integer literals, kept as source text: they are read by
    # the text format's grammar, and an error showing a container shows them as written.
    __repr__ = str.__str__


def parse_json(text: str) -> CubicMatrix:
    """Parse the JSON format; floats are rejected wherever they appear."""
    import json  # here, not at the top: a process that reads only text never loads it

    try:
        doc = json.loads(text, parse_float=_Float, parse_int=_Int, parse_constant=_Float)
    except json.JSONDecodeError as err:
        raise ParseError(f"line {err.lineno} column {err.colno}: {err.msg}") from None
    except RecursionError:
        raise ParseError("line 1: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError(f"line 1: expected a JSON object, got {type(doc).__name__}")
    if "order" not in doc:
        raise ParseError('line 1: missing "order"')
    if "layers" not in doc:
        raise ParseError('line 1: missing "layers"')
    raw_order = doc["order"]
    if isinstance(raw_order, _Float):
        raise ParseError(f'"order": float literal not permitted, got {str.__str__(raw_order)!r}')
    if not isinstance(raw_order, _Int):
        raise ParseError(f'"order": expected an integer, got {raw_order!r}')
    order = _parse_order_token(raw_order, '"order"')

    raw_layers = doc["layers"]
    if not isinstance(raw_layers, list):
        raise ParseError('"layers": expected a list of vertical layers')
    if len(raw_layers) != order:
        raise ParseError(
            f'"layers": got {len(raw_layers)} vertical layers, expected {order}: {NOT_CUBIC_MESSAGE}'
        )
    layers = []
    for k, raw_block in enumerate(raw_layers, start=1):
        if not isinstance(raw_block, list) or len(raw_block) != order:
            got = len(raw_block) if isinstance(raw_block, list) else type(raw_block).__name__
            raise ParseError(
                f"vertical layer {k}: got {got} rows, expected {order}: {NOT_CUBIC_MESSAGE}"
            )
        block = []
        for i, raw_row in enumerate(raw_block, start=1):
            if not isinstance(raw_row, list) or len(raw_row) != order:
                got = len(raw_row) if isinstance(raw_row, list) else type(raw_row).__name__
                raise ParseError(
                    f"vertical layer {k} row {i}: got {got} entries, expected {order}: "
                    f"{NOT_CUBIC_MESSAGE}"
                )
            row = []
            for j, raw in enumerate(raw_row, start=1):
                try:
                    if isinstance(raw, _Float):
                        raise _BadLiteral(f"float literal not permitted, got {str.__str__(raw)!r}")
                    if not isinstance(raw, str):
                        raise _BadLiteral(f"expected an integer or 'p/q' string, got {raw!r}")
                    row.append(_parse_literal(raw))
                except _BadLiteral as err:
                    raise ParseError(f"vertical layer {k} row {i} column {j}: {err}") from None
            block.append(row)
        layers.append(block)
    return CubicMatrix(order, layers)


def _json_scalar(value: Scalar):
    """A scalar as JSON data: an integer, or a "p/q" string."""
    return value.num if value.den == 1 else str(value)


def serialize_json(A: CubicMatrix) -> str:
    """Canonical JSON form: {"order": n, "layers": [...]} on one line,
    integer entries as JSON integers, others as "p/q" strings."""
    import json

    cells = _cells(A)
    if A._scale != 1:
        cells = [_json_scalar(c) for c in cells]
    return json.dumps({"order": A.order, "layers": _nested(A.order, cells)})
