"""Versioned JSON serialization helpers shared by the modules and the CLI.

Complex numbers are [re, im] pairs and exact rationals are [numerator,
denominator] pairs.

Byte contract: every report is the text of the stdlib encoder with fixed
settings, ``json.JSONEncoder(sort_keys=True, indent=2, separators=(",",
": "), allow_nan=False)``: keys sorted, two-space indent, floats through
``float.__repr__`` (shortest round-trip), strings ASCII-escaped.  NaN and
infinities raise ValueError, a circular container raises ValueError, and
any other type raises TypeError, as in :mod:`json`.  The encoder's
per-call closures refer to each other; their cells are cleared once the
text is written, so an encoding leaves no reference cycle (and no garbage
for the cyclic collector).  :func:`stable_dumps`
returns that text; :func:`stable_dump` passes it to ``write`` in pieces of
about ``_PIECE_CHARS`` characters (like :func:`json.dump`, a call that
raises may have written a prefix), so no string of a report's size is
built.

Long reports of one row shape (``bs-count``, ``enc-report``) are written
through a :class:`Template` instead of a payload.  A template is the
encoded text of a payload that holds named :class:`Gap` placeholders,
cut at the gaps: the encoder renders each gap as a quoted tag unique to
the template, and the depth of the value that fills a gap is the indent
of the line the tag sits on.  The report envelope is one template, with a
gap in place of its long list; each row shape is another, rendered at that
list's item depth.  A row is its template filled with value texts: the
caller renders each distinct int list (an [n, d] pair, a swap) once and
reuses it, and a float is its ``repr``.  :meth:`Template.dump` writes the
envelope with the rows spliced in, in pieces of about ``_PIECE_CHARS``
characters.  The bytes are those of :func:`stable_dumps` on the whole
payload, which is never built.
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


class Gap:
    """Placeholder in a :class:`Template` payload for a value written later;
    ``name`` is an identifier, used once per template.  Only templates
    render gaps."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


def complex_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def rational_pair(x: Fraction) -> list[int]:
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return [x.numerator, x.denominator]


def number_or_rational(x):
    """Exact rationals as [num, den]; everything else as a float."""
    if isinstance(x, Fraction):
        return rational_pair(x)
    return float(x)


def _float_text(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("Out of range float values are not JSON compliant: " + repr(value))
    return float.__repr__(value)


def _chunks(payload, default=_UNSUPPORTED):
    """The chunks of ``json.JSONEncoder(sort_keys=True, indent="  ",
    separators=(",", ": "), allow_nan=False, default=default)`` for
    ``payload``, with the encoder's closure cycle cut when they end."""
    encode = _make_iterencode({}, default, _quote, _INDENT, _float_text, ": ", ",",
                              True, False, False)
    try:
        yield from encode(payload, 0)
    finally:
        for cell in encode.__closure__:
            cell.cell_contents = None


def stable_dumps(payload) -> str:
    """Deterministic JSON text; see the module docstring for the contract."""
    return "".join(_chunks(payload))


def stable_dump(payload, write) -> None:
    """Passes the text of :func:`stable_dumps` to ``write`` in pieces."""
    write_pieces(_chunks(payload), write)


def _render(payload, depth: int) -> str:
    """The :func:`stable_dumps` text of ``payload`` as it stands at ``depth``;
    JSON strings hold no raw newline, so every newline is a line break."""
    return stable_dumps(payload).replace("\n", "\n" + _INDENT * depth)


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


class Template:
    """The :func:`stable_dumps` text of ``payload`` at ``depth``, cut at its
    :class:`Gap` placeholders.

    ``pieces`` holds the texts between the gaps, ``depths`` maps each gap
    name to the depth of its value, and ``fill(**texts)`` returns the text
    with each gap replaced by the text of the same name.
    """

    def __init__(self, payload, depth: int = 0):
        mark = f"\x00gap{id(self)}\x00"
        seen: list[str] = []

        def tag(o):
            if not isinstance(o, Gap):
                return _UNSUPPORTED(o)
            seen.append(o.name)
            return mark + o.name

        text = "".join(_chunks(payload, tag))
        # The tag is quoted as "\u0000gap<id>\u0000<name>": split at its
        # opening and cut each name at its closing quote.
        self.pieces = text.replace("\n", "\n" + _INDENT * depth).split(_quote(mark)[:-1])
        if len(self.pieces) != len(seen) + 1:
            raise ValueError(f"template text holds {len(self.pieces) - 1} gap tags "
                             f"for {len(seen)} gaps")
        self.depths = {}
        for k in range(1, len(self.pieces)):
            _, newline, line = self.pieces[k - 1].rpartition("\n")
            name, self.pieces[k] = self.pieces[k].split('"', 1)
            indent = len(line) - len(line.lstrip(" ")) if newline else len(_INDENT) * depth
            self.depths[name] = indent // len(_INDENT)
        fields = [f"{{{name}}}" for name in self.depths] + [""]
        self.fill = "".join(p.replace("{", "{{").replace("}", "}}") + field
                            for p, field in zip(self.pieces, fields)).format

    def text(self, value, gap: str) -> str:
        """The text of ``value`` as it stands in the gap named ``gap``."""
        if type(value) is float:  # the per-row value of a report; no depth
            return _float_text(value)
        return _render(value, self.depths[gap])

    def item(self, payload) -> "Template":
        """The template of one item of the list that fills the only gap."""
        (depth,) = self.depths.values()
        return Template(payload, depth + 1)

    def dump(self, items, write) -> None:
        """Writes the text with the only gap filled by a list of ``items``,
        each a text rendered by an :meth:`item` template, in pieces."""
        head, tail = self.pieces
        (depth,) = self.depths.values()
        write_pieces(chain((head,), _list_texts(items, depth), (tail,)), write)


def _list_texts(items, depth: int):
    """The text of a list at ``depth`` whose items have the texts ``items``."""
    items = iter(items)
    first = next(items, None)
    if first is None:
        yield "[]"
        return
    inner = "\n" + _INDENT * (depth + 1)
    yield "[" + inner
    yield first
    sep = "," + inner
    for item in items:
        yield sep
        yield item
    yield "\n" + _INDENT * depth + "]"
