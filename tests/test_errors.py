"""errors.naming, the one way an error names its input, and the file
boundary: read_text, split_lines and json_object."""

import json

import pytest

from msfser.errors import (BadSetting, DimMismatch, MalformedRecord,
                           UnfitSignal, json_object, naming, read_text,
                           split_lines)


class TestNaming:
    def test_keeps_the_error_its_class_and_cause(self):
        cause = KeyError("k")
        with pytest.raises(UnfitSignal) as info:
            with naming("a.wav", BadSetting):
                raise UnfitSignal("too short") from cause
        exc = info.value
        assert type(exc) is UnfitSignal and str(exc) == "a.wav: too short"
        assert exc.__cause__ is cause

    def test_re_raises_the_same_object(self):
        err = MalformedRecord("bad")
        with pytest.raises(MalformedRecord) as info:
            with naming("x.csv", MalformedRecord):
                raise err
        assert info.value is err and err.args == ("x.csv: bad",)

    def test_plain_value_error(self):
        with pytest.raises(ValueError, match=r"^x\.wav: not a RIFF/WAVE file$"):
            with naming("x.wav", ValueError):
                raise ValueError("not a RIFF/WAVE file")

    def test_only_the_listed_types_get_the_prefix(self):
        with pytest.raises(DimMismatch) as info:
            with naming("x.jsonl", MalformedRecord, BadSetting):
                raise DimMismatch("16-dim, got 8")
        assert str(info.value) == "16-dim, got 8"
        with pytest.raises(KeyError):
            with naming("x.jsonl", MalformedRecord):
                raise KeyError("k")

    def test_nested_blocks_put_the_outermost_where_first(self):
        with pytest.raises(MalformedRecord) as info:
            with naming("outer", MalformedRecord):
                with naming("middle", DimMismatch):
                    with naming("inner", MalformedRecord):
                        raise MalformedRecord("bad")
        assert str(info.value) == "outer: inner: bad"

    def test_a_block_that_raises_nothing_returns_its_value(self):
        with naming("x", ValueError):
            value = 3
        assert value == 3


class TestJsonObject:
    def test_parses_as_json_loads_does(self):
        text = '{"a": [1, 2.5, "x"], "b": null, "c": {"d": 3}}'
        assert json_object(text) == json.loads(text)
        got = json_object('{"v": [1, 2]}', parse_int=float)
        assert got == {"v": [1.0, 2.0]}
        assert all(type(v) is float for v in got["v"])

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                      '{"a":' * 100_000 + "1" + "}" * 100_000])
    def test_too_deep_is_not_valid_json(self, text):
        with pytest.raises(MalformedRecord) as info:
            json_object(text)
        assert str(info.value) == "not valid JSON: nested too deeply"

    def test_other_bad_text_names_the_decode_error(self):
        with pytest.raises(MalformedRecord) as info:
            json_object("{nope")
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads("{nope")
        assert str(info.value) == f"not valid JSON: {want.value}"
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    @pytest.mark.parametrize("text", ["[1]", '"x"', "3", "null"])
    def test_json_of_another_type_is_refused(self, text):
        with pytest.raises(MalformedRecord) as info:
            json_object(text)
        assert str(info.value) == "expected a JSON object"


class TestLines:
    def test_lines_end_only_at_newlines(self):
        # str.splitlines would also end a line at \f, \x85 and U+2028
        assert split_lines("a\x0cb\r\nc\rd\x85e\u2028f\n") == [
            "a\x0cb", "c", "d\x85e\u2028f", ""]

    def test_non_utf8_names_the_file_and_line(self, tmp_path):
        # line 2 ends at \r\n, line 3 at \r, as split_lines ends them
        path = tmp_path / "in.txt"
        path.write_bytes(b"a\n\r\n\rw\xe1rld\n")
        with pytest.raises(MalformedRecord,
                           match=f"^{path}: not valid UTF-8 at line 4: "):
            read_text(path)
