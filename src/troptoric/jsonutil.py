"""JSON conventions shared by the CLI and the serializable types.

Rationals serialize as 'p/q' strings so nothing is lost to floats;
integers stay plain JSON numbers.
"""

from __future__ import annotations

import contextlib
import json
import re
import sys
from math import gcd

# Fraction appears in annotations only, which stay unevaluated strings: a
# sweep never loads fractions


class ParseError(ValueError):
    """Malformed input: a file that is not UTF-8 JSON, or JSON without the
    documented shape.  A ValueError, so library callers that catch
    ValueError still see it; the CLI tests for it first and exits 1 (parse
    error), not 2, and reports no other error as a parse error."""


def load_json(path: str):
    """The JSON value in the file at ``path``; ParseError when the file
    cannot be opened or read (missing, a directory, unreadable), is not
    valid UTF-8 or is not JSON, or holds an integer longer than Python's
    digit limit or arrays and objects nested deeper than its recursion
    limit.  UnicodeDecodeError and JSONDecodeError are ValueErrors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from exc


@contextlib.contextmanager
def full_int_text():
    """A context in which an int of any length converts to decimal text.

    Python limits that conversion to 4300 digits by default, both ways.
    The limit guards the parsing of input (`load_json`, `parse_rational`),
    which keeps it; output written from input within it can be longer, as
    a pairing term and an h0 are quadratic in the coefficients.  So the
    CLI writes its output here: the limit is lifted for the body and put
    back after it.
    """
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:  # an interpreter without the limit
        yield
        return
    limit = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def format_ratio(p: int, q: int):
    """The JSON value of the rational p/q, for ints p and q > 0: the int
    when q divides p, else the string 'p/q' in lowest terms.  The one
    writer of a rational, for `format_rational` and for interpolation
    coefficients, which are ints over one common denominator."""
    g = gcd(p, q)
    if g == q:
        return p // q
    return f"{p // g}/{q // g}"


def format_rational(q):
    # `import fractions` loads the module on first use, as a sweep writes no
    # rational; `from fractions import Fraction` here would cost about 1 us
    # a call on Python 3.11, for the failed lookup of a package __path__
    import fractions

    q = fractions.Fraction(q)
    return format_ratio(q.numerator, q.denominator)


def parse_rational(v) -> Fraction:
    """An exact rational from a JSON int or a 'p' or 'p/q' string: an
    optional sign, ASCII digits, and optionally '/' and ASCII digits.
    ParseError for anything else ('1e5', '1.5', '1_000', a bool, a float),
    a zero denominator or digits past Python's digit limit."""
    import fractions  # on first use, as in format_rational

    if isinstance(v, int) and not isinstance(v, bool):
        return fractions.Fraction(v)
    if isinstance(v, str) and re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", v):
        p, _, q = v.partition("/")
        try:
            return fractions.Fraction(int(p), int(q or 1))
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(f"expected an exact rational, got {v!r}")
