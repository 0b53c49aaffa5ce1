"""Versioned JSON serialization helpers shared by the modules and the CLI.

Complex numbers are [re, im] pairs and exact rationals are [numerator,
denominator] pairs.

Byte contract: :func:`stable_dumps` returns exactly the text of
``json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": "),
allow_nan=False)``: keys sorted, two-space indent, floats through
``float.__repr__`` (shortest round-trip), strings ASCII-escaped.  NaN and
infinities raise ValueError, a circular container raises ValueError, and
any other type raises TypeError, as in :mod:`json`.  It differs only in
speed.  ``json`` (CPython 3.11) uses its C encoder only when ``indent`` is
None and its pure-Python one otherwise; this writer renders each list
whose items are all exactly ``int`` (the [num, den] pairs, swap indices)
once per indent depth and reuses the text.  That memo lives for one call
and keys on the item tuple, holding ints only (``type(x) is int``):
bools, and floats equal to an int, never share an entry.

:func:`stable_dump` passes the same text to ``write`` in pieces of about
``_PIECE`` chunks (like :func:`json.dump`, a call that raises may have
written a prefix): one string per report, plus the list of its chunks,
fragments the heap, so peak memory grows with the number of reports run.

Long reports of one row shape (``bs-count``, ``enc-report``) are written
through a :class:`Template` instead of a payload.  A template is the
:func:`stable_dumps` text of a payload that holds named :class:`Gap`
placeholders, rendered once and cut at the gaps; each gap knows the depth
of the value that fills it.  The report envelope is one template, with a
gap in place of its long list; each row shape is another, rendered at that
list's item depth.  A row is its template filled with value texts: the
caller renders each distinct int list (an [n, d] pair, a swap) once and
reuses it, and a float is its ``repr``.  :meth:`Template.dump` writes the
envelope with the rows spliced in, in pieces of about ``_PIECE_CHARS``
characters.  The bytes are those of :func:`stable_dumps` on the whole
payload, which is never built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

_INDENT = "  "
_PIECE = 2048
_PIECE_CHARS = 16 * _PIECE
# A gap renders as its name and depth between NULs, which JSON text never
# holds raw: the quoting escapes every control character.
_GAP_MARK = "\x00"


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


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("Out of range float values are not JSON compliant: " + repr(x))
    return float.__repr__(x)


def _key_text(key) -> str:
    """Dict keys as ``json`` converts them, before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def stable_dumps(payload) -> str:
    """Deterministic JSON text; see the module docstring for the contract."""
    return _render(payload, 0)


def stable_dump(payload, write) -> None:
    """Passes the text of :func:`stable_dumps` to ``write`` in pieces."""
    chunks: list[str] = []
    # The writers are module functions, not closures: nested functions that
    # call each other form a reference cycle, which would keep every chunk
    # alive after return until the cyclic collector runs.  The two state
    # arguments are the int-list memo, (depth, items) -> text, and the ids
    # of the containers being written, for cycle detection.
    _write(payload, 0, chunks, write, {}, set())
    write("".join(chunks))


def _write(o, depth: int, chunks: list, write, int_lists: dict, open_ids: set) -> None:
    if isinstance(o, str):
        chunks.append(_quote(o))
    elif o is None:
        chunks.append("null")
    elif o is True:
        chunks.append("true")
    elif o is False:
        chunks.append("false")
    elif isinstance(o, int):
        chunks.append(int.__repr__(o))
    elif isinstance(o, float):
        chunks.append(_float_text(o))
    elif isinstance(o, (list, tuple)):
        _write_list(o, depth, chunks, write, int_lists, open_ids)
    elif isinstance(o, dict):
        _write_dict(o, depth, chunks, write, int_lists, open_ids)
    elif isinstance(o, Gap):
        chunks.append(f"{_GAP_MARK}{o.name}{_GAP_MARK}{depth}{_GAP_MARK}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} "
                        f"is not JSON serializable")


def _enter(o, open_ids: set) -> None:
    if id(o) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(o))


def _write_list(o, depth: int, chunks: list, write, int_lists: dict, open_ids: set) -> None:
    if not o:
        chunks.append("[]")
        return
    for x in o:
        if type(x) is not int:
            break
    else:
        key = (depth, tuple(o))
        text = int_lists.get(key)
        if text is None:
            sep = ",\n" + _INDENT * (depth + 1)
            text = int_lists[key] = (
                "[" + sep[1:] + sep.join(map(int.__repr__, o))
                + "\n" + _INDENT * depth + "]")
        chunks.append(text)
        return
    _enter(o, open_ids)
    inner = "\n" + _INDENT * (depth + 1)
    sep = "[" + inner
    for x in o:
        chunks.append(sep)
        sep = "," + inner
        _write(x, depth + 1, chunks, write, int_lists, open_ids)
        if len(chunks) >= _PIECE:  # a list is where a large report is long
            write("".join(chunks))
            chunks.clear()
    chunks.append("\n" + _INDENT * depth + "]")
    open_ids.discard(id(o))


def _write_dict(o, depth: int, chunks: list, write, int_lists: dict, open_ids: set) -> None:
    if not o:
        chunks.append("{}")
        return
    _enter(o, open_ids)
    inner = "\n" + _INDENT * (depth + 1)
    sep = "{" + inner
    for k, v in sorted(o.items()):
        chunks.append(sep + _quote(_key_text(k)) + ": ")
        sep = "," + inner
        _write(v, depth + 1, chunks, write, int_lists, open_ids)
    chunks.append("\n" + _INDENT * depth + "}")
    open_ids.discard(id(o))


def _render(payload, depth: int) -> str:
    """The :func:`stable_dumps` text of ``payload`` as it stands at ``depth``."""
    pieces: list[str] = []
    chunks: list[str] = []
    _write(payload, depth, chunks, pieces.append, {}, set())
    pieces.extend(chunks)
    return "".join(pieces)


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
        parts = _render(payload, depth).split(_GAP_MARK)
        names = parts[1::3]
        self.pieces = parts[0::3]
        self.depths = dict(zip(names, map(int, parts[2::3])))
        fields = [f"{{{name}}}" for name in names] + [""]
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
