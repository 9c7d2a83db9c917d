"""Rule-based fingerprinting labels.

Four detectors over a script trace, each a conjunction/disjunction of
member-level conditions. They define ground truth for the whole
pipeline, so thresholds are strict and interfaces are scoped narrowly:
member names are only consulted on the interfaces the technique
actually touches (canvas conditions on canvas interfaces, audio on
audio-context interfaces, WebRTC on RTCPeerConnection). Condition order
within a trace is irrelevant, so a trace's scan is the merge of its
calls' scans: a record that carries compiled work (see fedtrace.traces)
is read from its call_facts, that call's scan made once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .traces import FP_TYPES, ApiCallRecord, ScriptTrace

CANVAS_INTERFACES = frozenset({"HTMLCanvasElement", "CanvasRenderingContext2D"})
AUDIO_INTERFACES = frozenset({"AudioContext", "OfflineAudioContext", "BaseAudioContext"})
RTC_INTERFACE = "RTCPeerConnection"

_TEXT_MEMBERS = frozenset({"fillText", "strokeText"})
_STYLE_MEMBERS = frozenset({"fillStyle", "strokeStyle"})
_EVASION_MEMBERS = frozenset({"save", "restore", "addEventListener"})
_RTC_SETUP_MEMBERS = frozenset({"createDataChannel", "createOffer"})
_RTC_GATHER_MEMBERS = frozenset({"onicecandidate", "localDescription"})
_AUDIO_MEMBERS = frozenset({
    "createOscillator", "createDynamicsCompressor", "destination",
    "startRendering", "oncomplete",
})

FONT_THRESHOLD = 20  # strictly more than 20 distinct fonts / measureText calls


@dataclass(frozen=True, slots=True)
class LabelSet:
    canvas: bool = False
    canvas_font: bool = False
    webrtc: bool = False
    audio: bool = False

    def is_fingerprinting(self) -> bool:
        return self.canvas or self.canvas_font or self.webrtc or self.audio

    def types(self) -> frozenset[str]:
        return frozenset(t for t in FP_TYPES if getattr(self, t))


class _Scan:
    """Single pass over the calls, accumulating what the detectors need."""

    __slots__ = ("text", "style", "extract", "evasion", "fonts", "measure",
                 "rtc_setup", "rtc_gather", "audio")

    def __init__(self, calls):
        self.text = False
        self.style = False
        self.extract = False
        self.evasion = False
        self.fonts: set = set()
        self.measure = 0
        self.rtc_setup = False
        self.rtc_gather = False
        self.audio = False
        for call in calls:
            c = call.compiled
            if c is not None:
                if c.facts is not None:
                    self.absorb(c.facts)
                continue
            # one split per call; same values as call.interface / call.member
            iface, _, member = call.api_name.partition(".")
            member = member or iface
            if iface in CANVAS_INTERFACES:
                if member in _TEXT_MEMBERS:
                    self.text = True
                elif member in _STYLE_MEMBERS and call.args:
                    self.style = True  # a write carries the value as args[0]
                elif member == "toDataURL" and iface == "HTMLCanvasElement":
                    self.extract = True
                elif member in _EVASION_MEMBERS:
                    self.evasion = True
                elif member == "font" and call.args:
                    self.fonts.add(call.args[0])
                elif member == "measureText":
                    self.measure += 1
            elif iface == RTC_INTERFACE:
                if member in _RTC_SETUP_MEMBERS:
                    self.rtc_setup = True
                elif member in _RTC_GATHER_MEMBERS:
                    self.rtc_gather = True
            elif iface in AUDIO_INTERFACES:
                if member in _AUDIO_MEMBERS:
                    self.audio = True

    def reads_anything(self) -> bool:
        return bool(self.text or self.style or self.extract or self.evasion or self.fonts
                    or self.measure or self.rtc_setup or self.rtc_gather or self.audio)

    def absorb(self, other: "_Scan") -> None:
        """Merge in the scan of other calls of the same trace."""
        self.text |= other.text
        self.style |= other.style
        self.extract |= other.extract
        self.evasion |= other.evasion
        self.fonts |= other.fonts
        self.measure += other.measure
        self.rtc_setup |= other.rtc_setup
        self.rtc_gather |= other.rtc_gather
        self.audio |= other.audio


def call_facts(call: ApiCallRecord) -> _Scan | None:
    """What the detectors read from this one call; None when they read nothing."""
    s = _Scan((call,))
    return s if s.reads_anything() else None


def label(trace: ScriptTrace) -> LabelSet:
    """The trace's labels, one per detector."""
    s = _Scan(trace.calls)
    return LabelSet(
        canvas=s.text and s.style and s.extract and not s.evasion,
        canvas_font=len(s.fonts) > FONT_THRESHOLD and s.measure > FONT_THRESHOLD,
        webrtc=s.rtc_setup and s.rtc_gather,
        audio=s.audio,
    )
