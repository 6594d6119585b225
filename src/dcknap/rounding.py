"""Exact rational helpers and the 2-decimal display rounding used in tables.

All published table values are round-half-up renderings of exact rationals.
A value is printed from an exact Fraction or int, or from `bounds.Bounds`
on it whose two ends render alike; bounds that straddle a rounding edge
raise `bounds.Undecided`, so a caller can print the exact value instead.
"""

from __future__ import annotations

import re
from fractions import Fraction
from numbers import Rational

from .bounds import Bounds, decided

#: Largest decimal exponent magnitude accepted in text such as "1e-3";
#: Fraction would compute 10**exponent, which stalls on a huge one.
MAX_DECIMAL_EXPONENT = 1000

_EXPONENT_DIGITS = re.compile(r"e[-+]?([\d_]+)", re.IGNORECASE)


def as_fraction(value) -> Fraction:
    """Convert user-facing numbers to an exact Fraction.

    Floats go through their shortest decimal repr, so values typed as 0.35
    become exactly 7/20 instead of the nearest binary double.  Text with a
    decimal exponent beyond MAX_DECIMAL_EXPONENT raises ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        match = _EXPONENT_DIGITS.search(value)
        if match:
            digits = match.group(1).replace("_", "").lstrip("0")
            # Five significant digits already exceed the limit.
            if int(digits[:5] or 0) > MAX_DECIMAL_EXPONENT:
                raise ValueError(f"exponent too large in {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact fraction")


def round_half_up(value, digits: int = 2) -> Fraction:
    """Round to `digits` decimals, ties away from zero, exactly."""
    x = as_fraction(value)
    scale = 10**digits
    scaled = x * scale
    if scaled >= 0:
        n = (scaled + Fraction(1, 2)).__floor__()
    else:
        n = -((-scaled + Fraction(1, 2)).__floor__())
    return Fraction(n, scale)


def format_2dec(value) -> str:
    """Render a number the way the result tables print it: 2 decimals,
    rounded as `round_half_up` rounds, in integers.

    `Bounds` render when both ends, each an exact ratio of ints, round to
    the same hundredths: rounding is monotone, so every value between them
    renders so too.  Otherwise they raise `Undecided`.
    """
    if isinstance(value, Bounds):
        n, d = value.lo.as_integer_ratio()
        q = _hundredths(n, d * value.count)
        if value.hi != value.lo:
            n, d = value.hi.as_integer_ratio()
            q = decided(q, _hundredths(n, d * value.count))
    else:
        x = value if isinstance(value, Rational) else as_fraction(value)
        q = _hundredths(x.numerator, x.denominator)
    return f"{'-' if q < 0 else ''}{abs(q) // 100}.{abs(q) % 100:02d}"


def _hundredths(n: int, d: int) -> int:
    """round(100 * n / d) for d > 0, halves away from 0: round(|x| * 100)
    half up is floor((200 * |n| + d) / (2 * d)) for x = n / d, so the sign
    is printed only when that is not 0."""
    q = (abs(n) * 200 + d) // (2 * d)
    return -q if n < 0 else q
