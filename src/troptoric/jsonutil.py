"""JSON conventions shared by the CLI and the serializable types.

Rationals serialize as 'p/q' strings so nothing is lost to floats;
integers stay plain JSON numbers.
"""

from __future__ import annotations

import functools
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
    limit.  UnicodeDecodeError and JSONDecodeError are ValueErrors.

    The file is read as bytes by one unbuffered ``FileIO.readall``, which
    reads to the end of the file (of a pipe too) with no ``BufferedReader``
    and no ``isatty`` probe, and decoded as UTF-8, which is what text mode
    does on a whole-file read.  Text mode's universal newlines are kept: CR
    LF and a lone CR read as LF, so a decode error's byte position and a
    syntax error's line and column are the ones a text-mode read reports.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from exc


class full_int_text:
    """A context in which an int of any length converts to decimal text.

    Python limits that conversion to 4300 digits by default, both ways.
    The limit guards the parsing of input (`load_json`, `parse_ratio`),
    which keeps it; output written from input within it can be longer, as
    a pairing term and an h0 are quadratic in the coefficients.  So the
    CLI writes its output here: the limit is lifted for the body and put
    back after it, also when the body raises.  On an interpreter without
    the limit (before Python 3.10.7) the context does nothing.  A plain
    class, not a generator context, as every CLI command enters one.
    """

    __slots__ = ("limit",)

    def __enter__(self):
        get = getattr(sys, "get_int_max_str_digits", None)
        self.limit = None if get is None else get()
        if self.limit is not None:
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc_info):
        if self.limit is not None:
            sys.set_int_max_str_digits(self.limit)


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
    """The JSON value of an int or a Fraction q, as `format_ratio` writes it."""
    return format_ratio(q.numerator, q.denominator)


def format_point(p) -> list:
    """The JSON value of a plane point: [format_rational(x), format_rational(y)]."""
    return [format_rational(p[0]), format_rational(p[1])]


@functools.cache  # compiled on first use: a sweep parses no rational
def _rational_pattern():
    # ASCII digits only: \d takes any Unicode digit
    return re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_ratio(v) -> tuple[int, int]:
    """The rational of a JSON int or a 'p' or 'p/q' string as ints (p, q)
    in lowest terms with q > 0: an optional sign, ASCII digits, and
    optionally '/' and ASCII digits.  ParseError for anything else ('1e5',
    '1.5', '1_000', a bool, a float), a zero denominator or digits past
    Python's digit limit.  The one reader of a rational, for
    `parse_rational` and for the points of an interpolation, which are
    scaled to ints by their common denominator."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v, 1
    if isinstance(v, str) and _rational_pattern().fullmatch(v):
        p, _, q = v.partition("/")
        try:
            p, q = int(p), int(q or 1)
        except ValueError:  # past the digit limit
            pass
        else:
            if q:
                g = gcd(p, q)
                return p // g, q // g
    raise ParseError(f"expected an exact rational, got {v!r}")


def parse_rational(v) -> Fraction:
    """`parse_ratio` as a Fraction: the same grammar and the same errors."""
    import fractions  # on first use: a sweep reads no rational

    return fractions.Fraction(*parse_ratio(v))
