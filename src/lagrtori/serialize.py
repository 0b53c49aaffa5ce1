"""Versioned JSON serialization helpers shared by the modules and the CLI.

Complex numbers are [re, im] pairs and exact rationals are [numerator,
denominator] pairs.  Dumps are byte-stable: keys sorted, fixed separators,
floats through repr (shortest round-trip).
"""

from __future__ import annotations

import json
from fractions import Fraction

SCHEMA_VERSION = "1.0.0"


def complex_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def rational_pair(x: Fraction) -> list[int]:
    x = Fraction(x)
    return [x.numerator, x.denominator]


def number_or_rational(x):
    """Exact rationals as [num, den]; everything else as a float."""
    if isinstance(x, Fraction):
        return rational_pair(x)
    return float(x)


def stable_dumps(payload) -> str:
    """Deterministic JSON text: sorted keys, no trailing whitespace drift."""
    return json.dumps(payload, sort_keys=True, separators=(",", ": "),
                      indent=2, allow_nan=False)
