"""Rule-based fingerprinting labels.

Four detectors over a script trace, each a conjunction/disjunction of
member-level conditions. They define ground truth for the whole
pipeline, so thresholds are strict and interfaces are scoped narrowly:
member names are only consulted on the interfaces the technique
actually touches (canvas conditions on canvas interfaces, audio on
audio-context interfaces, WebRTC on RTCPeerConnection). One table,
_ROLES, maps every "Interface.member" name a detector reads to what a
call of it records, so labelling is one lookup per call. Condition order
within a trace is irrelevant, and every trace, generated or parsed, is
labelled by the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .traces import FP_TYPES, ScriptTrace

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

_ROLES = {
    f"{iface}.{member}": role
    for ifaces, members, role in (
        (CANVAS_INTERFACES, _TEXT_MEMBERS, "text"),
        (CANVAS_INTERFACES, _STYLE_MEMBERS, "style"),
        (("HTMLCanvasElement",), ("toDataURL",), "extract"),
        (CANVAS_INTERFACES, _EVASION_MEMBERS, "evasion"),
        (CANVAS_INTERFACES, ("font",), "font"),
        (CANVAS_INTERFACES, ("measureText",), "measure"),
        ((RTC_INTERFACE,), _RTC_SETUP_MEMBERS, "rtc_setup"),
        ((RTC_INTERFACE,), _RTC_GATHER_MEMBERS, "rtc_gather"),
        (AUDIO_INTERFACES, _AUDIO_MEMBERS, "audio"),
    )
    for iface in ifaces
    for member in members
}
# a write carries the value as args[0]; a read of these properties records nothing
_WRITES = frozenset({"style", "font"})


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


def label(trace: ScriptTrace) -> LabelSet:
    """The trace's labels, one per detector."""
    seen = set()
    fonts = set()
    measure = 0
    for call in trace.calls:
        role = _ROLES.get(call.api_name)
        if role is None or (role in _WRITES and not call.args):
            continue
        if role == "font":
            fonts.add(call.args[0])
        elif role == "measure":
            measure += 1
        else:
            seen.add(role)
    return LabelSet(
        canvas="text" in seen and "style" in seen and "extract" in seen
        and "evasion" not in seen,
        canvas_font=len(fonts) > FONT_THRESHOLD and measure > FONT_THRESHOLD,
        webrtc="rtc_setup" in seen and "rtc_gather" in seen,
        audio="audio" in seen,
    )
