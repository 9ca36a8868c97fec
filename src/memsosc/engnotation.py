"""SPICE-style engineering notation for component values and frequencies.

Suffixes are case-insensitive; ``meg`` is mega, a bare ``m`` is milli.
Plain and exponent forms (``1.6e-18``) parse as well.
"""

from __future__ import annotations

import math
import re

SUFFIX_SCALE = {
    "t": 1e12,
    "g": 1e9,
    "meg": 1e6,
    "k": 1e3,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
}

# `meg` must be tried before the single-letter `m`.
_VALUE_RE = re.compile(
    r"^(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(?P<suffix>meg|[tgkmunpf])?$",
    re.IGNORECASE,
)

_FORMAT_SUFFIX = {12: "t", 9: "g", 6: "meg", 3: "k", 0: "",
                  -3: "m", -6: "u", -9: "n", -12: "p", -15: "f"}


class EngNotationError(ValueError):
    """Raised for text that is not a valid engineering-notation number."""


def parse_eng(text: str) -> float:
    m = _VALUE_RE.match(text.strip())
    if m is None:
        raise EngNotationError(f"malformed numeric value: {text!r}")
    value = float(m.group("num"))
    suffix = m.group("suffix")
    if suffix:
        value *= SUFFIX_SCALE[suffix.lower()]
    if not math.isfinite(value):
        raise EngNotationError(f"numeric value out of range: {text!r}")
    return value


def format_eng(value: float, digits: int = 6) -> str:
    """Render a float with an engineering suffix where one exists.

    The output always reparses to a value within one ULP-ish rounding of
    the input at the requested precision; exact round-tripping uses
    :func:`repr` via ``digits=17``.
    """
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    mag = abs(value)
    exp = 0
    while mag < 1 and exp > -15:
        mag *= 1000.0
        exp -= 3
    while mag >= 1000 and exp < 12:
        mag /= 1000.0
        exp += 3
    if exp in _FORMAT_SUFFIX and 1e-3 <= mag < 1e4:
        return f"{sign}{mag:.{digits}g}{_FORMAT_SUFFIX[exp]}"
    return f"{value:.{digits}g}"
