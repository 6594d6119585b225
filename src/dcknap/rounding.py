"""Exact rational helpers and the 2-decimal display rounding used in tables.

All published table values are round-half-up renderings of exact rationals,
so every quantity that can be fractional is kept as a Fraction until the
moment it is printed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from numbers import Rational

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

    round(|x| * 100) half up is floor((200 * |n| + d) / (2 * d)) for
    x = n / d, and the sign is printed only when that is not 0.
    """
    x = value if isinstance(value, Rational) else as_fraction(value)
    n, d = x.numerator, x.denominator
    q = (abs(n) * 200 + d) // (2 * d)
    sign = "-" if n < 0 and q else ""
    return f"{sign}{q // 100}.{q % 100:02d}"
