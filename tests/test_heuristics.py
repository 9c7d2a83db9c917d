"""Rule-based detector suite: one case per conjunct plus boundaries.

HEURISTIC_CASES is the canonical 24-case table (full match, each
condition removed, and the 20-vs-21 threshold boundary for the font
probe); the acceptance suite replays it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtrace import heuristics
from fedtrace.heuristics import (
    AUDIO_INTERFACES,
    CANVAS_INTERFACES,
    FONT_THRESHOLD,
    RTC_INTERFACE,
    LabelSet,
    label,
)
from fedtrace.traces import ScriptTrace, api_call, types_to_bitmask


def _trace(*calls) -> ScriptTrace:
    return ScriptTrace("https://t.example/s.js#00", "t.example", tuple(calls))


def _canvas_calls(text=True, style=True, extract=True):
    calls = []
    if text:
        calls.append(api_call("CanvasRenderingContext2D.fillText", ("hi", 2.0, 15.0)))
    if style:
        calls.append(api_call("CanvasRenderingContext2D.fillStyle", ("#ff6600",)))
    if extract:
        calls.append(api_call("HTMLCanvasElement.toDataURL", (), "data:image/png"))
    return calls


def _font_calls(n_fonts, n_measure, distinct_fonts=None):
    if distinct_fonts is None:
        distinct_fonts = n_fonts
    calls = [api_call("CanvasRenderingContext2D.font",
                      (f"{10 + (i % distinct_fonts)}px probe{i % distinct_fonts}",))
             for i in range(n_fonts)]
    calls += [api_call("CanvasRenderingContext2D.measureText", ("gM",), 42.0)
              for _ in range(n_measure)]
    return calls


def _labels(**true_types) -> LabelSet:
    return LabelSet(**true_types)


T = FONT_THRESHOLD

# (name, trace, expected LabelSet) — four detectors x {full match,
# each condition removed, threshold boundary}.
HEURISTIC_CASES = [
    # canvas: text AND style-write AND extraction AND no evasion call
    ("canvas_full_fill",
     _trace(*_canvas_calls()),
     _labels(canvas=True)),
    ("canvas_full_stroke",
     _trace(api_call("CanvasRenderingContext2D.strokeText", ("hi", 0.0, 0.0)),
            api_call("CanvasRenderingContext2D.strokeStyle", ("#ff6600",)),
            api_call("HTMLCanvasElement.toDataURL", (), "data:")),
     _labels(canvas=True)),
    ("canvas_no_text",
     _trace(*_canvas_calls(text=False)),
     _labels()),
    ("canvas_no_style",
     _trace(*_canvas_calls(style=False)),
     _labels()),
    ("canvas_no_extract",
     _trace(*_canvas_calls(extract=False)),
     _labels()),
    ("canvas_evasion_save",
     _trace(*_canvas_calls(), api_call("CanvasRenderingContext2D.save")),
     _labels()),
    ("canvas_evasion_listener",
     _trace(*_canvas_calls(), api_call("HTMLCanvasElement.addEventListener", ("click",))),
     _labels()),
    # canvas_font: > T distinct font writes AND > T measureText calls
    ("font_above_both",
     _trace(*_font_calls(T + 1, T + 1)),
     _labels(canvas_font=True)),
    ("font_boundary_fonts",
     _trace(*_font_calls(T, T + 1)),
     _labels()),
    ("font_boundary_measure",
     _trace(*_font_calls(T + 1, T)),
     _labels()),
    ("font_at_threshold_many_measures",
     _trace(*_font_calls(T, 50)),
     _labels()),
    ("font_repeated_values_not_distinct",
     _trace(*_font_calls(30, T + 1, distinct_fonts=T)),
     _labels()),
    # webrtc: (createDataChannel OR createOffer) AND (onicecandidate OR localDescription)
    ("rtc_channel_plus_ice",
     _trace(api_call("RTCPeerConnection.createDataChannel", ("probe",)),
            api_call("RTCPeerConnection.onicecandidate", ("handler",))),
     _labels(webrtc=True)),
    ("rtc_offer_plus_local_description",
     _trace(api_call("RTCPeerConnection.createOffer"),
            api_call("RTCPeerConnection.localDescription", (), "v=0")),
     _labels(webrtc=True)),
    ("rtc_offer_plus_ice",
     _trace(api_call("RTCPeerConnection.createOffer"),
            api_call("RTCPeerConnection.onicecandidate", ("handler",))),
     _labels(webrtc=True)),
    ("rtc_setup_only",
     _trace(api_call("RTCPeerConnection.createDataChannel", ("probe",))),
     _labels()),
    ("rtc_ice_only",
     _trace(api_call("RTCPeerConnection.onicecandidate", ("handler",))),
     _labels()),
    ("rtc_local_description_only",
     _trace(api_call("RTCPeerConnection.localDescription", (), "v=0")),
     _labels()),
    # audio: any probe member on an audio-context interface
    ("audio_oscillator",
     _trace(api_call("AudioContext.createOscillator")),
     _labels(audio=True)),
    ("audio_compressor",
     _trace(api_call("AudioContext.createDynamicsCompressor")),
     _labels(audio=True)),
    ("audio_start_rendering",
     _trace(api_call("OfflineAudioContext.startRendering")),
     _labels(audio=True)),
    ("audio_destination",
     _trace(api_call("BaseAudioContext.destination")),
     _labels(audio=True)),
    ("audio_oncomplete",
     _trace(api_call("OfflineAudioContext.oncomplete", ("cb",))),
     _labels(audio=True)),
    ("audio_absent",
     _trace(api_call("Navigator.userAgent", (), "Mozilla/5.0")),
     _labels()),
]


def test_case_table_shape():
    assert len(HEURISTIC_CASES) == 24
    assert len({name for name, _, _ in HEURISTIC_CASES}) == 24


@pytest.mark.parametrize("name,trace,expected",
                         HEURISTIC_CASES, ids=[c[0] for c in HEURISTIC_CASES])
def test_crafted_cases(name, trace, expected):
    assert label(trace) == expected


def test_empty_trace_all_false():
    got = label(_trace())
    assert got == LabelSet()
    assert not got.is_fingerprinting()
    assert got.types() == frozenset()
    assert types_to_bitmask(got.types()) == 0


def test_multiple_types_reported_together():
    trace = _trace(*_canvas_calls(), api_call("AudioContext.createOscillator"))
    got = label(trace)
    assert got == LabelSet(canvas=True, audio=True)
    assert got.types() == {"canvas", "audio"}
    assert types_to_bitmask(got.types()) == 0b1001


def test_order_insensitive():
    calls = (_canvas_calls() + _font_calls(T + 1, T + 1)
             + [api_call("RTCPeerConnection.createOffer"),
                api_call("RTCPeerConnection.localDescription", (), "v=0"),
                api_call("OfflineAudioContext.startRendering")])
    expected = label(_trace(*calls))
    assert expected.types() == frozenset({"canvas", "canvas_font", "webrtc", "audio"})
    assert label(_trace(*reversed(calls))) == expected


def test_restore_is_also_evasion():
    trace = _trace(*_canvas_calls(), api_call("CanvasRenderingContext2D.restore"))
    assert not label(trace).canvas


def test_style_read_without_value_does_not_count():
    # a property read carries no arguments, so it is not a style write
    trace = _trace(api_call("CanvasRenderingContext2D.fillText", ("hi",)),
                   api_call("CanvasRenderingContext2D.fillStyle"),
                   api_call("HTMLCanvasElement.toDataURL", (), "data:"))
    assert not label(trace).canvas


def test_audio_members_on_other_interfaces_do_not_count():
    trace = _trace(api_call("OscillatorNode.frequency", (440.0,)),
                   api_call("Document.createOscillator"))
    assert not label(trace).audio


_INERT_CALLS = st.lists(
    st.builds(api_call,
              st.sampled_from(["Navigator.userAgent", "Screen.width",
                               "Window.devicePixelRatio", "Document.cookie",
                               "Performance.now", "Storage.getItem"]),
              st.just(()),
              st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False),
                        st.text(max_size=20))),
    max_size=8)


@settings(max_examples=100, deadline=None)
@given(base=st.sampled_from(HEURISTIC_CASES), extra=_INERT_CALLS)
def test_inert_calls_never_change_labels(base, extra):
    _, trace, expected = base
    widened = ScriptTrace(trace.script_id, trace.source_domain,
                          trace.calls + tuple(extra))
    assert label(widened) == expected


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([c for c in HEURISTIC_CASES if c[2].canvas]))
def test_adding_save_flips_canvas_off(case):
    _, trace, _ = case
    widened = ScriptTrace(trace.script_id, trace.source_domain,
                          trace.calls + (api_call("CanvasRenderingContext2D.save"),))
    assert not label(widened).canvas


# The detectors as a per-call if-chain over (interface, member): the
# reference the name table is checked against.
_TEXT = {"fillText", "strokeText"}
_STYLE = {"fillStyle", "strokeStyle"}
_EVASION = {"save", "restore", "addEventListener"}
_RTC_SETUP = {"createDataChannel", "createOffer"}
_RTC_GATHER = {"onicecandidate", "localDescription"}
_AUDIO = {"createOscillator", "createDynamicsCompressor", "destination",
          "startRendering", "oncomplete"}


def reference_label(trace: ScriptTrace) -> LabelSet:
    text = style = extract = evasion = rtc_setup = rtc_gather = audio = False
    fonts, measure = set(), 0
    for call in trace.calls:
        iface, _, member = call.api_name.partition(".")
        member = member or iface
        if iface in CANVAS_INTERFACES:
            if member in _TEXT:
                text = True
            elif member in _STYLE and call.args:
                style = True
            elif member == "toDataURL" and iface == "HTMLCanvasElement":
                extract = True
            elif member in _EVASION:
                evasion = True
            elif member == "font" and call.args:
                fonts.add(call.args[0])
            elif member == "measureText":
                measure += 1
        elif iface == RTC_INTERFACE:
            if member in _RTC_SETUP:
                rtc_setup = True
            elif member in _RTC_GATHER:
                rtc_gather = True
        elif iface in AUDIO_INTERFACES:
            if member in _AUDIO:
                audio = True
    return LabelSet(
        canvas=text and style and extract and not evasion,
        canvas_font=len(fonts) > FONT_THRESHOLD and measure > FONT_THRESHOLD,
        webrtc=rtc_setup and rtc_gather,
        audio=audio,
    )


_INTERFACES = sorted(CANVAS_INTERFACES | AUDIO_INTERFACES | {RTC_INTERFACE, "Navigator"})
_MEMBERS = sorted(_TEXT | _STYLE | _EVASION | _RTC_SETUP | _RTC_GATHER | _AUDIO
                  | {"toDataURL", "font", "measureText"})
_NAMES = [f"{i}.{m}" for i in _INTERFACES for m in _MEMBERS] + ["measureText"]
_CALLS = st.builds(api_call, st.sampled_from(_NAMES),
                   st.sampled_from([(), ("#ff6600",), ("10px f",)]))


_BASES = [
    _canvas_calls(),
    _font_calls(T + 1, T + 1),
    [api_call("RTCPeerConnection.createOffer"),
     api_call("RTCPeerConnection.onicecandidate", ("handler",))],
    [api_call("OfflineAudioContext.startRendering")],
]


@st.composite
def _traces(draw):
    # whole detector bases, a few of whose calls are swapped for random
    # ones (any name, args or none), plus random calls, in any order
    calls = [call for base in _BASES if draw(st.booleans()) for call in base]
    for _ in range(draw(st.integers(0, 4)) if calls else 0):
        calls[draw(st.integers(0, len(calls) - 1))] = draw(_CALLS)
    calls += draw(st.lists(_CALLS, max_size=20))
    return _trace(*draw(st.permutations(calls)))


def test_every_role_key_is_one_interface_member_name():
    assert heuristics._ROLES
    assert all(name.count(".") == 1 for name in heuristics._ROLES)
    assert set(heuristics._ROLES) <= set(_NAMES)


def test_pairs_the_case_table_does_not_name():
    fonts = _font_calls(T + 1, 0)
    traces_and_labels = [
        # extraction counts only on HTMLCanvasElement
        (_trace(*_canvas_calls(extract=False),
                api_call("CanvasRenderingContext2D.toDataURL", (), "data:")), LabelSet()),
        # measureText counts on either canvas interface, a bare name on none
        (_trace(*fonts, *[api_call("HTMLCanvasElement.measureText", ("gM",))] * (T + 1)),
         LabelSet(canvas_font=True)),
        (_trace(*fonts, *[api_call("measureText", ("gM",))] * (T + 1)), LabelSet()),
        # a font read carries no value
        (_trace(*_font_calls(T, T + 1), api_call("CanvasRenderingContext2D.font")),
         LabelSet()),
        # audio members count only on audio-context interfaces
        (_trace(api_call("RTCPeerConnection.createOscillator")), LabelSet()),
    ]
    for trace, expected in traces_and_labels:
        assert label(trace) == reference_label(trace) == expected


@settings(max_examples=300, deadline=None)
@given(trace=_traces())
def test_table_equals_the_if_chain(trace):
    assert label(trace) == reference_label(trace)


@pytest.mark.parametrize("name,trace,expected",
                         HEURISTIC_CASES, ids=[c[0] for c in HEURISTIC_CASES])
def test_reference_agrees_with_the_case_table(name, trace, expected):
    assert reference_label(trace) == expected
