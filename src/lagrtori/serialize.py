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
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

_INDENT = "  "
_PIECE = 2048


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
    pieces: list[str] = []
    stable_dump(payload, pieces.append)
    return "".join(pieces)


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
