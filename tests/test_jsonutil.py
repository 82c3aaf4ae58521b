import sys

import pytest

from oracles import text_mode_load_json
from troptoric.jsonutil import ParseError, full_int_text, load_json

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
