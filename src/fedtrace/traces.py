"""Execution-trace data model and line-oriented trace file I/O.

A script trace is the sequence of instrumented browser API calls one
script performed on one page load. Property reads/writes are recorded
as calls too: a write carries the written value as the single argument,
a read carries no arguments. Argument and return values are reduced to
scalar summaries at record-construction time so traces stay compact and
hashable.

Trace file format (one JSON object per line, UTF-8, '\n' terminated):

    {"script_id": "<url>#<hex>", "source_domain": "news.example",
     "calls": [["Interface.member", [<arg>, ...], <ret>, <dropped>], ...]}

where <arg>/<ret> are null, a bool, a float, a string (<= 256 chars), or
{"len": L, "hash": "<16 hex>"} for a summarized long string, with L an
integer over 256 and the hash 16 lowercase hex digits. <dropped> is the
count of arguments elided beyond MAX_ARGS, a non-negative integer. The
parser refuses a longer string, any other summary, a dropped count of
any other type or sign, a non-array call or argument list, and a
non-string script id, domain or API name, as api_call never writes them.
scalar_to_json and scalar_from_json are the one codec of a summary; the
feature catalog writes and reads its match values through them too.
Blank lines are ignored. Writes are byte-deterministic (sorted keys,
fixed separators).

A trace line is its calls' JSON fragments joined in order.
call_fragment keeps each record's fragment on the record object (its
fragment field), so a record shared by many traces is encoded once, and
only if a trace holding it is written. The fragment travels with the
object, never with its content: records that compare equal can
serialize differently (api_call("X.y", (True,)) == api_call("X.y",
(1.0,)), as True == 1.0 and both hash alike, yet they write [true] and
[1.0]), so the field takes no part in equality, and
dataclasses.replace gives a record with no fragment yet.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

from .errors import InvalidInput, ParseError

MAX_ARGS = 8
LONG_STRING_THRESHOLD = 256

# Fixed order; bit i of a type bitmask refers to FP_TYPES[i].
FP_TYPES = ("canvas", "canvas_font", "webrtc", "audio")
_TYPE_BIT = {name: 1 << i for i, name in enumerate(FP_TYPES)}
_FP_TYPE_SET = frozenset(FP_TYPES)
# what summarize_value writes as a long string's hash: blake2b's 8-byte hexdigest
_DIGEST = re.compile("[0-9a-f]{16}")


@dataclass(frozen=True, slots=True)
class LongString:
    """Summary of a string longer than LONG_STRING_THRESHOLD."""

    length: int
    digest: str  # 16 hex chars (64-bit blake2b)


Scalar = None | bool | float | str | LongString


def summarize_value(value) -> Scalar:
    """Canonical scalar summary of a raw argument/return value."""
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        if len(value) <= LONG_STRING_THRESHOLD:
            return value
        digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).hexdigest()
        return LongString(len(value), digest)
    if isinstance(value, LongString):
        return value
    raise InvalidInput(f"unsupported trace value type: {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class ApiCallRecord:
    """One instrumented call. args must already be canonical summaries."""

    api_name: str
    args: tuple = ()
    return_value: Scalar = None
    dropped_args: int = 0
    # call_fragment's result, set on first use (module docstring)
    fragment: str | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.api_name:
            raise InvalidInput("api_name must be non-empty")
        if self.api_name.count(".") > 1:
            raise InvalidInput(f"api_name has more than one dot: {self.api_name!r}")
        if len(self.args) > MAX_ARGS:
            raise InvalidInput(f"args exceed MAX_ARGS={MAX_ARGS}; truncate via api_call()")


def api_call(api_name: str, args=(), return_value=None) -> ApiCallRecord:
    """Build a record from raw values: summarize scalars, truncate args."""
    summarized = tuple(summarize_value(a) for a in args)
    dropped = 0
    if len(summarized) > MAX_ARGS:
        dropped = len(summarized) - MAX_ARGS
        summarized = summarized[:MAX_ARGS]
    return ApiCallRecord(api_name, summarized, summarize_value(return_value), dropped)


@dataclass(frozen=True, slots=True)
class ScriptTrace:
    script_id: str
    source_domain: str
    calls: tuple[ApiCallRecord, ...] = ()

    def __post_init__(self):
        if not self.script_id:
            raise InvalidInput("script_id must be non-empty")
        if not self.source_domain:
            raise InvalidInput("source_domain must be non-empty")


@dataclass(frozen=True, slots=True)
class LabeledScript:
    trace: ScriptTrace
    label: bool
    fp_types: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        bad = self.fp_types - _FP_TYPE_SET
        if bad:
            raise InvalidInput(f"unknown fingerprinting types: {sorted(bad)}")
        if self.label != bool(self.fp_types):
            raise InvalidInput("label must equal bool(fp_types)")


def types_to_bitmask(types) -> int:
    mask = 0
    for t in types:
        try:
            mask |= _TYPE_BIT[t]
        except KeyError:
            raise InvalidInput(f"unknown fingerprinting type: {t!r}") from None
    return mask


_HEX = set("0123456789abcdefABCDEF")


def canonical_script_id(url: str, content_hash: str) -> str:
    """Stable identity: same URL serving different bytes stays distinct."""
    if not url:
        raise InvalidInput("url must be non-empty")
    if not content_hash or not set(content_hash) <= _HEX:
        raise InvalidInput(f"content_hash must be a non-empty hex digest: {content_hash!r}")
    return f"{url}#{content_hash}"


def scalar_to_json(v: Scalar):
    """The JSON value a scalar summary is written as: a LongString as its summary dict."""
    if isinstance(v, LongString):
        return {"len": v.length, "hash": v.digest}
    return v


def scalar_from_json(v) -> Scalar:
    """The scalar summary scalar_to_json wrote; ValueError for any value it never writes."""
    if isinstance(v, dict):
        length, digest = v.get("len"), v.get("hash")
        if not isinstance(length, int) or isinstance(length, bool) \
                or length <= LONG_STRING_THRESHOLD:
            raise ValueError(f"bad long-string summary: {v!r}: len must be an integer "
                             f"over LONG_STRING_THRESHOLD={LONG_STRING_THRESHOLD}")
        if not isinstance(digest, str) or not _DIGEST.fullmatch(digest):
            raise ValueError(f"bad long-string summary: {v!r}: hash must be 16 "
                             f"lowercase hex digits")
        return LongString(length, digest)
    if isinstance(v, str):
        if len(v) > LONG_STRING_THRESHOLD:
            raise ValueError(f"a string of {len(v)} chars, over LONG_STRING_THRESHOLD="
                             f"{LONG_STRING_THRESHOLD}, must be written as its summary")
        return v
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, (int, float)):
        return float(v)
    raise ValueError(f"bad scalar: {v!r}")


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def call_fragment(call: ApiCallRecord) -> str:
    """One call's JSON array, as it appears in its trace's line.

    Encoded on the first call for this record object and kept on it.
    """
    fragment = call.fragment
    if fragment is None:
        fragment = _ENCODE([call.api_name, [scalar_to_json(a) for a in call.args],
                            scalar_to_json(call.return_value), call.dropped_args])
        object.__setattr__(call, "fragment", fragment)
    return fragment


def trace_to_json_line(trace: ScriptTrace) -> str:
    """The trace's line, byte for byte as json.dumps(sort_keys=True) writes it."""
    # a set fragment is read inline, saving a function call per call; it is
    # never empty, so `or` falls through only for a record without one
    fragments = ",".join([c.fragment or call_fragment(c) for c in trace.calls])
    return (f'{{"calls":[{fragments}],"script_id":{_ENCODE(trace.script_id)},'
            f'"source_domain":{_ENCODE(trace.source_domain)}}}')


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array: {value!r}")
    return value


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string: {value!r}")
    return value


def _trace_from_obj(obj) -> ScriptTrace:
    # only the shapes api_call writes: a string or dict never stands in for
    # an array, and no field is converted by str() or int()
    calls = []
    for raw in _array(obj["calls"], "calls"):
        api, args, ret, dropped = _array(raw, "a call")
        if not isinstance(dropped, int) or isinstance(dropped, bool) or dropped < 0:
            raise ValueError(f"dropped-argument count must be a non-negative integer: "
                             f"{dropped!r}")
        calls.append(ApiCallRecord(
            _text(api, "api name"),
            tuple(scalar_from_json(a) for a in _array(args, "an argument list")),
            scalar_from_json(ret),
            dropped,
        ))
    return ScriptTrace(_text(obj["script_id"], "script_id"),
                       _text(obj["source_domain"], "source_domain"), tuple(calls))


def parse_trace_file(path) -> list[ScriptTrace]:
    """Read a trace file; raises ParseError with the offending line number."""
    traces = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                traces.append(_trace_from_obj(obj))
            except (ValueError, KeyError, TypeError, IndexError, InvalidInput) as exc:
                raise ParseError(str(exc), line=lineno, path=str(path)) from exc
    return traces

