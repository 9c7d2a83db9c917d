"""Trace records, value summarization, and trace-file round trips."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedtrace.errors import InvalidInput, ParseError
from fedtrace.traces import (
    FP_TYPES,
    LONG_STRING_THRESHOLD,
    MAX_ARGS,
    ApiCallRecord,
    LabeledScript,
    LongString,
    ScriptTrace,
    api_call,
    canonical_script_id,
    parse_trace_file,
    scalar_from_json,
    scalar_to_json,
    summarize_value,
    trace_to_json_line,
    types_to_bitmask,
)


class TestSummarize:
    def test_passthrough_scalars(self):
        assert summarize_value(None) is None
        assert summarize_value(True) is True
        assert summarize_value(False) is False
        assert summarize_value("abc") == "abc"

    def test_numbers_become_floats(self):
        assert summarize_value(3) == 3.0
        assert isinstance(summarize_value(3), float)
        assert summarize_value(2.5) == 2.5

    def test_threshold_string_kept_verbatim(self):
        s = "x" * LONG_STRING_THRESHOLD
        assert summarize_value(s) == s

    def test_long_string_summarized(self):
        s = "y" * (LONG_STRING_THRESHOLD + 1)
        out = summarize_value(s)
        assert isinstance(out, LongString)
        assert out.length == LONG_STRING_THRESHOLD + 1
        assert len(out.digest) == 16
        # same content, same digest; different content, different digest
        assert summarize_value(s) == out
        assert summarize_value("z" * (LONG_STRING_THRESHOLD + 1)) != out

    def test_unsupported_type_rejected(self):
        with pytest.raises(InvalidInput):
            summarize_value([1, 2])


class TestApiCall:
    def test_args_summarized(self):
        call = api_call("A.b", (1, "s", None, True))
        assert call.args == (1.0, "s", None, True)

    def test_truncation_records_dropped_count(self):
        call = api_call("A.b", tuple(range(MAX_ARGS + 3)))
        assert len(call.args) == MAX_ARGS
        assert call.dropped_args == 3

    def test_direct_record_rejects_excess_args(self):
        with pytest.raises(InvalidInput):
            ApiCallRecord("A.b", tuple(range(MAX_ARGS + 1)))

    def test_bad_api_names(self):
        with pytest.raises(InvalidInput):
            api_call("")
        with pytest.raises(InvalidInput):
            api_call("A.b.c")


class TestTypeBitmask:
    def test_round_trip_all_masks(self):
        for mask in range(16):
            types = {t for bit, t in enumerate(FP_TYPES) if mask >> bit & 1}
            assert types_to_bitmask(types) == mask

    def test_known_assignments(self):
        assert types_to_bitmask(["canvas"]) == 1
        assert types_to_bitmask(["canvas_font"]) == 2
        assert types_to_bitmask(["webrtc"]) == 4
        assert types_to_bitmask(["audio"]) == 8
        assert types_to_bitmask(FP_TYPES) == 15

    def test_unknown_type_rejected(self):
        with pytest.raises(InvalidInput):
            types_to_bitmask(["battery"])


class TestLabeledScript:
    def test_label_must_match_types(self):
        trace = ScriptTrace("u#ab", "d.example")
        with pytest.raises(InvalidInput):
            LabeledScript(trace, True, frozenset())
        with pytest.raises(InvalidInput):
            LabeledScript(trace, False, frozenset({"canvas"}))

    def test_unknown_type_rejected(self):
        trace = ScriptTrace("u#ab", "d.example")
        with pytest.raises(InvalidInput):
            LabeledScript(trace, True, frozenset({"battery"}))


class TestCanonicalId:
    def test_format(self):
        assert canonical_script_id("https://a.example/s.js", "00ff") == \
            "https://a.example/s.js#00ff"

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInput):
            canonical_script_id("", "00ff")
        with pytest.raises(InvalidInput):
            canonical_script_id("https://a.example/s.js", "")
        with pytest.raises(InvalidInput):
            canonical_script_id("https://a.example/s.js", "xyz")


def _example_trace() -> ScriptTrace:
    return ScriptTrace(
        "https://a.example/s.js#00ff",
        "a.example",
        (
            api_call("Navigator.userAgent", (), "Mozilla/5.0"),
            api_call("CanvasRenderingContext2D.fillText", ("hello", 2.0, 15.0)),
            api_call("HTMLCanvasElement.toDataURL", (), "d" * 6146),
            api_call("A.b", tuple(range(12)), None),
        ),
    )


def _write_traces(traces, path) -> None:
    path.write_text("".join(trace_to_json_line(t) + "\n" for t in traces), encoding="utf-8")


class TestTraceFile:
    def test_round_trip(self, tmp_path):
        traces = [_example_trace(),
                  ScriptTrace("https://b.example/t.js#11aa", "b.example")]
        path = tmp_path / "traces.jsonl"
        _write_traces(traces, path)
        assert parse_trace_file(path) == traces

    def test_writes_are_byte_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_traces([_example_trace()], p1)
        _write_traces([_example_trace()], p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        line = trace_to_json_line(_example_trace())
        path.write_text(f"\n{line}\n\n{line}\n", encoding="utf-8")
        assert len(parse_trace_file(path)) == 2

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        good = trace_to_json_line(_example_trace())
        path.write_text(f"{good}\n{{not json}}\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc_info:
            parse_trace_file(path)
        assert exc_info.value.line == 2

    def test_a_byte_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        good = trace_to_json_line(_example_trace()).encode("utf-8")
        bad = trace_to_json_line(ScriptTrace("https://b.example/t.js#11aa", "b.example"))
        bad = bad.encode("utf-8").replace(b"b.example", b"b.\xe9xample")
        path.write_bytes(good + b"\n\n" + bad + b"\n")
        with pytest.raises(ParseError) as exc_info:
            parse_trace_file(path)
        assert exc_info.value.line == 3 and "utf-8" in str(exc_info.value)

    def test_parse_rejects_malformed_call_shape(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        obj = json.loads(trace_to_json_line(_example_trace()))
        obj["calls"][0] = ["OnlyName.here"]
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_trace_file(path)

    def test_parse_rejects_an_unsummarized_long_string(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        good = trace_to_json_line(_example_trace())
        obj = json.loads(good)
        obj["calls"][0][1] = ["x" * (LONG_STRING_THRESHOLD + 1)]
        path.write_text(good + "\n" + json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc_info:
            parse_trace_file(path)
        assert exc_info.value.line == 2

    def _parse_with_edit(self, tmp_path, edit):
        """Parse a good line, then the same line after edit(obj) changed its object."""
        path = tmp_path / "traces.jsonl"
        good = trace_to_json_line(_example_trace())
        obj = json.loads(good)
        edit(obj)
        path.write_text(good + "\n" + json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc_info:
            parse_trace_file(path)
        assert exc_info.value.line == 2
        return exc_info.value

    def _parse_with_summary(self, tmp_path, summary):
        """Parse a good line, then one whose first argument is the given summary."""
        return self._parse_with_edit(tmp_path,
                                     lambda obj: obj["calls"][0].__setitem__(1, [summary]))

    @pytest.mark.parametrize("length", [300.0, "300", None, True])
    def test_parse_rejects_a_summary_length_that_is_not_an_int(self, tmp_path, length):
        error = self._parse_with_summary(tmp_path, {"len": length, "hash": "0123456789abcdef"})
        assert "len must be an integer" in str(error)

    @pytest.mark.parametrize("length", [-4, 0, 5, LONG_STRING_THRESHOLD])
    def test_parse_rejects_a_summary_length_a_string_would_keep(self, tmp_path, length):
        error = self._parse_with_summary(tmp_path, {"len": length, "hash": "0123456789abcdef"})
        assert "len must be an integer" in str(error)

    @pytest.mark.parametrize("digest", ["zz", "ab", "0123456789ABCDEF", "0123456789abcdeg",
                                        "0123456789abcdef0", "0123456789abcdef\n", 12, None])
    def test_parse_rejects_a_summary_hash_that_is_not_16_hex_digits(self, tmp_path, digest):
        error = self._parse_with_summary(tmp_path, {"len": LONG_STRING_THRESHOLD + 1,
                                                    "hash": digest})
        assert "hash must be 16" in str(error)

    def test_parse_reads_a_summary_summarize_value_writes(self, tmp_path):
        long = summarize_value("x" * (LONG_STRING_THRESHOLD + 1))
        path = tmp_path / "traces.jsonl"
        trace = ScriptTrace("https://a.example/s.js#00", "a.example",
                            (api_call("A.b", (long,), long),))
        _write_traces([trace], path)
        assert parse_trace_file(path) == [trace]

    # api_call writes an argument list as an array, a dropped count as an
    # integer and every name as a string; the parser converts none of them
    def test_parse_rejects_an_argument_list_given_as_a_string(self, tmp_path):
        error = self._parse_with_edit(tmp_path, lambda obj: obj["calls"][1].__setitem__(1, "abc"))
        assert "argument list must be a JSON array" in str(error)

    def test_parse_rejects_an_argument_list_given_as_a_dict(self, tmp_path):
        error = self._parse_with_edit(tmp_path,
                                      lambda obj: obj["calls"][1].__setitem__(1, {"hello": 2.0}))
        assert "argument list must be a JSON array" in str(error)

    @pytest.mark.parametrize("dropped", [1.5, True, "2"])
    def test_parse_rejects_a_dropped_count_that_is_not_an_int(self, tmp_path, dropped):
        error = self._parse_with_edit(tmp_path,
                                      lambda obj: obj["calls"][3].__setitem__(3, dropped))
        assert "dropped-argument count must be a non-negative integer" in str(error)

    @pytest.mark.parametrize("field", ["script_id", "source_domain", "api name"])
    def test_parse_rejects_a_numeric_script_id_or_api_name(self, tmp_path, field):
        def edit(obj):
            if field == "api name":
                obj["calls"][0][0] = 7
            else:
                obj[field] = 7
        error = self._parse_with_edit(tmp_path, edit)
        assert f"{field} must be a string" in str(error)

    def test_parse_rejects_a_call_given_as_a_string(self, tmp_path):
        error = self._parse_with_edit(tmp_path, lambda obj: obj["calls"].__setitem__(0, "ab12"))
        assert "a call must be a JSON array" in str(error)

    def test_parse_rejects_a_negative_dropped_count(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        obj = json.loads(trace_to_json_line(_example_trace()))
        obj["calls"][0][3] = -3
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc_info:
            parse_trace_file(path)
        assert exc_info.value.line == 1


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-2**40, max_value=2**40),
    st.text(max_size=300),
)

_calls = st.builds(
    api_call,
    st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,12}(\.[A-Za-z][A-Za-z0-9]{0,12})?", fullmatch=True),
    st.lists(_scalars, max_size=MAX_ARGS + 2).map(tuple),
    _scalars,
)

_traces = st.builds(
    ScriptTrace,
    st.from_regex(r"https://[a-z]{1,8}\.example/[a-z0-9]{1,8}\.js#[0-9a-f]{4}", fullmatch=True),
    st.from_regex(r"[a-z]{1,8}\.example", fullmatch=True),
    st.lists(_calls, max_size=6).map(tuple),
)


def _reference_line(trace: ScriptTrace) -> str:
    """The whole trace as one json.dumps, the format's definition."""
    def scalar(v):
        return {"len": v.length, "hash": v.digest} if isinstance(v, LongString) else v
    return json.dumps({"script_id": trace.script_id, "source_domain": trace.source_domain,
                       "calls": [[c.api_name, [scalar(a) for a in c.args],
                                  scalar(c.return_value), c.dropped_args]
                                 for c in trace.calls]},
                      sort_keys=True, separators=(",", ":"))


@settings(max_examples=200, deadline=None)
@given(trace=_traces)
def test_line_is_one_json_dumps_property(trace):
    assert trace_to_json_line(trace) == _reference_line(trace)


def test_line_writes_non_finite_floats_as_json_dumps_does():
    trace = ScriptTrace("https://\u00e9.example/s.js#00", "\u00e9.example",
                        (api_call("A.b", (float("nan"), float("-inf"), "\u2603"), float("inf")),))
    assert trace_to_json_line(trace) == _reference_line(trace)


@settings(max_examples=200, deadline=None)
@given(trace=_traces)
def test_serialization_round_trip_property(trace, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "round_trip_property.jsonl"
    _write_traces([trace], path)
    (back,) = parse_trace_file(path)
    assert back == trace


_summaries = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.integers(min_value=-2**40, max_value=2**40),
    st.text(max_size=LONG_STRING_THRESHOLD),
    st.text(min_size=LONG_STRING_THRESHOLD + 1, max_size=LONG_STRING_THRESHOLD + 40),
).map(summarize_value)


@settings(max_examples=300, deadline=None)
@given(value=_summaries)
@example(value=True)
@example(value=1.0)
@example(value=summarize_value("x" * (LONG_STRING_THRESHOLD + 1)))
def test_scalar_codec_round_trip_property(value):
    # type, not only equality: True == 1.0, yet each must come back as itself
    back = scalar_from_json(json.loads(json.dumps(scalar_to_json(value))))
    assert back == value and type(back) is type(value)
