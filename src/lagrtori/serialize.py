"""Versioned JSON serialization helpers shared by the modules and the CLI.

Complex numbers are [re, im] pairs and exact rationals are [numerator,
denominator] pairs.

Byte contract: a report is the text of the stdlib encoder with fixed
settings, ``json.JSONEncoder(sort_keys=True, indent=2, separators=(",",
": "), allow_nan=False)``: keys sorted, two-space indent, floats through
``float.__repr__`` (shortest round-trip), strings ASCII-escaped.  NaN and
infinities raise ValueError, a circular container raises ValueError, and
any other type raises TypeError, as in :mod:`json`.  The encoder's
per-call closures refer to each other; their cells are cleared once the
text is written, so an encoding leaves no reference cycle (and no garbage
for the cyclic collector).  :func:`stable_dumps` returns that text;
:func:`stable_dump` passes it to ``write`` in pieces of about
``_PIECE_CHARS`` characters (like :func:`json.dump`, a call that raises
may have written a prefix), so no string of a report's size is built.

The one exception is the long list of a row-list report (``bs-count``
``fibers``, ``enc-report`` ``rows``): it holds one item per line, each in
the one-line text of ``json.dumps(item, sort_keys=True)``, such as
``[[1, 240], [1, 120]]``.  Only whitespace differs from the indented text,
so the parsed JSON is the same.  These reports are written from
:func:`pieces`: the encoded text of a payload that holds :data:`GAP`
placeholders, cut at the gaps, where the encoder renders each gap as a
quoted tag unique to the call.  The envelope is cut once, at its long
list; each row shape is cut in one-line text at its values.  A row is the
concatenation of its shape's pieces and the value texts between them: the
caller renders each distinct value text (an [n, d] pair, a swap, a float's
``repr``, by :func:`row_text`) once.  :func:`dump_rows` takes the rows in
blocks, lists of row texts, joins each block at once and writes the
envelope with the rows spliced in, one per line, in pieces of about
``_PIECE_CHARS`` characters; the whole payload is never built.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain
from json.encoder import _make_iterencode
from json.encoder import encode_basestring_ascii as _quote

_INDENT = "  "
_PIECE = 2048
_PIECE_CHARS = 16 * _PIECE
_UNSUPPORTED = json.JSONEncoder().default  # raises TypeError
GAP = object()  # a placeholder that pieces() cuts the text at


def complex_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def rational_pair(x: Fraction) -> list[int]:
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return [x.numerator, x.denominator]


def _float_text(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("Out of range float values are not JSON compliant: " + repr(value))
    return float.__repr__(value)


def _chunks(payload, default=_UNSUPPORTED, indent=_INDENT):
    """The chunks of ``json.JSONEncoder(sort_keys=True, indent=indent,
    allow_nan=False, default=default)`` for ``payload``, item separator
    ``","`` when indented and ``", "`` when not, with the encoder's closure
    cycle cut when they end."""
    encode = _make_iterencode({}, default, _quote, indent, _float_text, ": ",
                              "," if indent else ", ", True, False, False)
    try:
        yield from encode(payload, 0)
    finally:
        for cell in encode.__closure__:
            cell.cell_contents = None


def stable_dumps(payload, indent=_INDENT) -> str:
    """Deterministic JSON text; see the module docstring for the contract.
    ``indent=None`` gives the one-line text of a report row."""
    return "".join(_chunks(payload, indent=indent))


def stable_dump(payload, write) -> None:
    """Passes the text of :func:`stable_dumps` to ``write`` in pieces."""
    write_pieces(_chunks(payload), write)


def write_pieces(texts, write) -> None:
    """Passes the concatenation of ``texts`` to ``write`` in pieces of about
    ``_PIECE_CHARS`` characters."""
    buf: list[str] = []
    size = 0
    for text in texts:
        buf.append(text)
        size += len(text)
        if size >= _PIECE_CHARS:
            write("".join(buf))
            buf.clear()
            size = 0
    write("".join(buf))


def pieces(payload, indent=_INDENT) -> list[str]:
    """The text of ``payload`` cut at each :data:`GAP` in it: the
    :func:`stable_dumps` text, or the one-line text when ``indent`` is None.
    A payload with k gaps gives k + 1 pieces."""
    gaps = []
    mark = f"\x00gap{id(gaps)}\x00"

    def tag(o):
        if o is not GAP:
            return _UNSUPPORTED(o)
        gaps.append(o)
        return mark

    cut = "".join(_chunks(payload, tag, indent)).split(_quote(mark))
    if len(cut) != len(gaps) + 1:
        raise ValueError(f"text holds {len(cut) - 1} gap tags for {len(gaps)} gaps")
    return cut


def row_text(value) -> str:
    """The one-line text of ``value``, as it stands in a row."""
    if type(value) is float:  # the per-row value of a report
        return _float_text(value)
    return stable_dumps(value, None)


def dump_rows(envelope, blocks, write) -> None:
    """Writes the text whose :func:`pieces` are ``envelope`` (one gap), with
    a list of rows in place of the gap, one row per line; ``blocks`` holds
    lists of row texts, each list joined at once.  The text goes to
    ``write`` in pieces of about ``_PIECE_CHARS`` characters, or one block
    when a block is longer."""
    head, tail = envelope
    line = head.rpartition("\n")[2]
    newline = "\n" + line[:len(line) - len(line.lstrip(" "))]
    write_pieces(chain((head,), _list_texts(blocks, newline), (tail,)), write)


def _list_texts(blocks, newline: str):
    """The text of a list whose items have the texts in ``blocks`` (lists of
    texts, empty ones allowed), one item per line; ``newline`` is the line
    break and indent of the list's own line."""
    inner = newline + _INDENT
    sep = "," + inner
    texts = (sep.join(block) for block in blocks if block)
    first = next(texts, None)
    if first is None:
        yield "[]"
        return
    yield "[" + inner
    yield first
    for text in texts:
        yield sep
        yield text
    yield newline + "]"
