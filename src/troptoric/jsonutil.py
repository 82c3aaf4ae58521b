"""JSON conventions shared by the CLI and the serializable types.

Rationals serialize as 'p/q' strings so nothing is lost to floats;
integers stay plain JSON numbers.
"""

from __future__ import annotations

from fractions import Fraction


class ParseError(ValueError):
    """Input that decodes as JSON but does not have the documented shape.

    A ValueError, so library callers that catch ValueError still see it;
    the CLI tests for it first and exits 1 (parse error), not 2.
    """


def format_rational(q):
    q = Fraction(q)
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(v) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise ValueError(f"expected an exact rational, got {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {v!r}") from None
    raise ValueError(f"expected an exact rational, got {v!r}")
