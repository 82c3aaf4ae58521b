import json
import os
import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from oracles import text_mode_load_json
from troptoric.jsonutil import ParseError, full_int_text, load_json, parse_ratio, parse_rational

NO_DIGIT_LIMIT = not hasattr(sys, "get_int_max_str_digits")

# name -> file bytes; each either loads or raises ParseError
JSON_FILES = {
    "crlf": b'{\r\n  "rays": [[1, 0], [0, 1]],\r\n  "max_cones": [[0, 1]]\r\n}\r\n',
    "crlf_syntax_error_line_3": b'{\r\n  "a": 1,\r\n  "b": ]\r\n}\r\n',
    "lone_cr_syntax_error_line_3": b'{\r  "a": 1,\r  "b": ]\r}\r',
    "mixed_newlines_syntax_error": b'[1,\r\r\n2,\n\r3,,\r\n4]',
    "raw_cr_in_string": b'["a\rb"]',
    "lf": b'{"a": [1, "2/3"]}\n',
    "bom": b'\xef\xbb\xbf{"a": 1}',
    "invalid_byte_past_8_kib": b"[" + b"1, " * 3000 + b"\xff]",
    "utf16": '{"a": 1}'.encode("utf-16"),
    "5000_digit_int": b"[" + b"7" * 5000 + b"]",
    "100000_deep": b"[" * 100_000 + b"]" * 100_000,
    "empty": b"",
}


def read_both(path):
    """(value or None, ParseError text or None) of each reader."""
    results = []
    for reader in (load_json, text_mode_load_json):
        try:
            results.append((reader(path), None))
        except ParseError as exc:
            results.append((None, str(exc)))
    return results


@pytest.mark.parametrize("name", sorted(JSON_FILES))
def test_load_json_matches_text_mode_read(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(JSON_FILES[name])
    binary, text_mode = read_both(str(path))
    assert binary == text_mode
    if name in ("crlf", "lf"):
        assert binary[1] is None
    elif name == "empty":
        assert binary[1] == "Expecting value: line 1 column 1 (char 0)"
    elif name != "5000_digit_int" or not NO_DIGIT_LIMIT:
        assert binary[1] is not None


def test_load_json_newlines_place_errors_as_text_mode_does(tmp_path):
    # a syntax error on line 3 reads line 3 whatever the newlines
    for name in ("crlf_syntax_error_line_3", "lone_cr_syntax_error_line_3"):
        path = tmp_path / f"{name}.json"
        path.write_bytes(JSON_FILES[name])
        with pytest.raises(ParseError, match="line 3 column 8"):
            load_json(str(path))


def test_load_json_directory_and_missing_path(tmp_path):
    for path in (str(tmp_path), str(tmp_path / "missing.json")):
        binary, text_mode = read_both(path)
        assert binary == text_mode and binary[1] is not None
        # the message names the file
        assert binary[1].endswith(f": {path!r}")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_load_json_reads_a_pipe_to_its_end(tmp_path):
    # an unbuffered read of a pipe returns what the writer has put in so
    # far; load_json must keep reading until the writer closes it.  The
    # value is past a pipe's 64 KiB buffer and arrives in several writes
    path = tmp_path / "pipe.json"
    os.mkfifo(path)
    value = list(range(30_000))
    data = json.dumps(value).encode()
    assert len(data) > 3 * 2**16

    def writer():
        with open(path, "wb") as fh:
            for start in range(0, len(data), 20_000):
                fh.write(data[start : start + 20_000])
                fh.flush()
                time.sleep(0.01)

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    assert load_json(str(path)) == value
    thread.join(10)
    assert not thread.is_alive()


@pytest.mark.skipif(NO_DIGIT_LIMIT, reason="the interpreter has no digit limit")
def test_full_int_text_restores_the_limit():
    before = sys.get_int_max_str_digits()
    assert before != 0
    with pytest.raises(RuntimeError):
        with full_int_text():
            assert sys.get_int_max_str_digits() == 0
            raise RuntimeError("body")
    assert sys.get_int_max_str_digits() == before
    with full_int_text():
        with full_int_text():
            assert len(str(10**5000)) == 5001
        assert sys.get_int_max_str_digits() == 0
    assert sys.get_int_max_str_digits() == before


def test_full_int_text_is_a_no_op_without_the_limit(monkeypatch):
    # an interpreter without the limit, as Python 3.10
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    monkeypatch.setattr(sys, "set_int_max_str_digits", lambda n: pytest.fail("limit set"), raising=False)
    with full_int_text() as value:
        assert value is None
    with pytest.raises(RuntimeError):
        with full_int_text():
            raise RuntimeError("body")


def test_parse_ratio_reduces_every_spelling():
    # a sign, leading zeros and a common factor: (p, q) in lowest terms
    # with q > 0, the numerator and denominator of parse_rational's value
    rng = random.Random(17)
    for _ in range(2000):
        p, q = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
        sign = "-" if p < 0 else rng.choice(["", "+"])
        zeros = "0" * rng.randint(0, 2)
        text = f"{sign}{zeros}{abs(p)}" + (f"/{zeros}{q}" if q > 1 or rng.random() < 0.5 else "")
        want = Fraction(p, q)
        assert parse_ratio(text) == (want.numerator, want.denominator), text
        got = parse_rational(text)
        assert type(got) is Fraction and got == want
    assert parse_ratio(-7) == (-7, 1) and parse_rational(-7) == -7


@pytest.mark.parametrize("value", [True, 1.5, "1/0", "0/0", "1e5", "1_000", "", "+", "/3", " 1", "1/-2", "\u0661", None, [1]])
def test_parse_ratio_and_parse_rational_reject_alike(value):
    messages = []
    for reader in (parse_ratio, parse_rational):
        with pytest.raises(ParseError) as err:
            reader(value)
        messages.append(str(err.value))
    assert messages == [f"expected an exact rational, got {value!r}"] * 2


@pytest.mark.skipif(NO_DIGIT_LIMIT, reason="the interpreter has no digit limit")
def test_parse_ratio_keeps_the_digit_limit():
    for text in ("7" * 5000, "1/" + "7" * 5000):
        with pytest.raises(ParseError, match="expected an exact rational"):
            parse_ratio(text)
