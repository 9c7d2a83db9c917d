"""Feature catalog, extraction, masks, and importance ranking.

A catalog defines the feature space: API call-count slots first, then
binary custom-feature slots. Custom features are equality predicates on
one argument position or on the return value of a named API; long
strings compare via their (length, hash) summary, and a dedicated
"strlen" matcher targets exact string lengths.

Filling a feature row never tests the specs one by one. On first use,
each catalog compiles them into one lookup table keyed by API name: the
call's count slot, and one probe per argument position (or the return
value) that its specs read, holding the equals specs there keyed by
(is-bool, value) and the strlen specs keyed by string length. A call then
costs one lookup for its API and, per probe, one read of its value and
at most two lookups. CustomFeatureSpec.matches states the same semantics
one spec at a time. Every call record, shared by generated traces or
parsed from a file, takes this one path.

The default catalog (default_catalog()) is synthetic but honors the reference
cardinalities: 684 counted APIs + 830 custom features (1514 slots), and
named sets All=1514, FPInspector=1330 (500+830), JShelter=588 (96+492),
HighEntropy=109 (counts only), ExtHighEntropy=149 (HighEntropy + 17
counts + 23 customs).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import heuristics
from .artifacts import atomic_write
from .config import check_keys, read_value
from .errors import CardinalityError, FieldError, InvalidInput, InvalidMask, ParseError
from .traces import MAX_ARGS, LongString, Scalar, ScriptTrace, scalar_from_json, scalar_to_json

REQUIRED_SET_NAMES = ("All", "FPInspector", "JShelter", "HighEntropy", "ExtHighEntropy")


def _scalar_eq(a, b) -> bool:
    # bool is an int subclass; keep True distinct from 1.0
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    return a == b


@dataclass(frozen=True, slots=True)
class CustomFeatureSpec:
    """Binary predicate over a single API call."""

    api_name: str
    target: str  # "argument" | "return"
    arg_index: int | None = None
    match_kind: str = "equals"  # "equals" | "strlen"
    match_value: Scalar | int = None

    def __post_init__(self):
        if self.target not in ("argument", "return"):
            raise InvalidInput(f"bad custom target: {self.target!r}")
        if self.target == "argument":
            if self.arg_index is None or not 0 <= self.arg_index < MAX_ARGS:
                raise InvalidInput(f"arg_index must be in [0, {MAX_ARGS}): {self.arg_index!r}")
        elif self.arg_index is not None:
            raise InvalidInput("return-target custom must not set arg_index")
        if self.match_kind not in ("equals", "strlen"):
            raise InvalidInput(f"bad match_kind: {self.match_kind!r}")
        if self.match_kind == "strlen" and (not isinstance(self.match_value, int)
                                            or isinstance(self.match_value, bool)):
            raise InvalidInput("strlen matcher needs an int length")

    def matches(self, call) -> bool:
        if self.target == "argument":
            if self.arg_index >= len(call.args):
                return False
            value = call.args[self.arg_index]
        else:
            value = call.return_value
        if self.match_kind == "equals":
            return _scalar_eq(value, self.match_value)
        if isinstance(value, str):
            return len(value) == self.match_value
        if isinstance(value, LongString):
            return value.length == self.match_value
        return False


@dataclass(frozen=True, eq=True)
class FeatureCatalog:
    api_count_entries: tuple[str, ...]
    custom_entries: tuple[CustomFeatureSpec, ...]
    named_sets: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        names = self.api_count_entries
        if len(set(names)) != len(names):
            dup = next(name for i, name in enumerate(names) if name in names[:i])
            raise CardinalityError(f"duplicate api_name in catalog: {dup!r}")
        n = self.slot_count
        sets = dict(self.named_sets)
        sets.setdefault("All", tuple(range(n)))
        for name, slots in sets.items():
            arr = tuple(slots)
            if len(arr) == 0:
                raise InvalidMask(f"named set {name!r} is empty")
            if len(set(arr)) != len(arr) or list(arr) != sorted(arr):
                raise InvalidInput(f"named set {name!r} must be sorted and unique")
            if arr[0] < 0 or arr[-1] >= n:
                raise InvalidMask(f"named set {name!r} indexes outside [0, {n})")
            sets[name] = arr
        object.__setattr__(self, "named_sets", sets)

    @property
    def n_api(self) -> int:
        return len(self.api_count_entries)

    @property
    def n_custom(self) -> int:
        return len(self.custom_entries)

    @property
    def slot_count(self) -> int:
        return self.n_api + self.n_custom

    @cached_property
    def _api_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.api_count_entries)}

    @cached_property
    def _fill_table(self) -> dict[str, tuple[int | None, tuple]]:
        """fill_feature_row's lookup table, compiled on first use.

        Maps an api_name to (count slot or None, probes). A probe is
        (position, equals, lengths): position is an argument index, or
        None for the return value; equals maps (is-bool, value) to the
        slots of every equals spec at that position, the bool flag keeping
        True apart from 1.0; lengths maps a string length to the slots of
        every strlen spec there. Either dict may be empty.
        """
        at: dict[str, dict] = {name: {} for name in self.api_count_entries}
        for i, spec in enumerate(self.custom_entries):
            slot, value = self.n_api + i, spec.match_value
            if spec.match_kind == "equals" and value != value:
                continue  # a NaN spec equals nothing
            equals, lengths = at.setdefault(spec.api_name, {}).setdefault(
                spec.arg_index, ({}, {}))
            if spec.match_kind == "strlen":
                lengths[value] = lengths.get(value, ()) + (slot,)
            else:
                key = (isinstance(value, bool), value)
                equals[key] = equals.get(key, ()) + (slot,)
        return {name: (self._api_index.get(name),
                       tuple((position, *probe) for position, probe in probes.items()))
                for name, probes in at.items()}

    def mask(self, name: str) -> np.ndarray:
        try:
            return np.asarray(self.named_sets[name], dtype=np.intp)
        except KeyError:
            raise InvalidMask(f"unknown named set: {name!r}") from None


_FILL_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def fill_feature_row(trace: ScriptTrace, catalog: FeatureCatalog, row: np.ndarray) -> None:
    """Accumulate api-call counts and custom indicators for one trace into row.

    row is a 1-d float32 or float64 array in native byte order, strided
    or not; any other row raises InvalidInput. The writes go through
    memoryview(row), which costs a fraction of a numpy scalar operation
    per write, and store the same values.

    Works from the catalog's compiled table: one dict lookup per call
    finds its count slot and the probes its custom features need, and
    each probe reads the call's value once and looks it up among the
    equals specs and, for a string, the strlen specs at that position,
    so the cost is O(calls) however many specs an API carries. The
    result equals testing every spec of the call's API with
    CustomFeatureSpec.matches.
    """
    if not isinstance(row, np.ndarray) or row.ndim != 1 or row.dtype not in _FILL_DTYPES:
        raise InvalidInput("a feature row must be a 1-d float32 or float64 array")
    row = memoryview(row)
    table = catalog._fill_table
    for call in trace.calls:
        entry = table.get(call.api_name)
        if entry is None:
            continue
        slot, probes = entry
        if slot is not None:
            row[slot] += 1.0
        for position, equals, lengths in probes:
            if position is None:
                value = call.return_value
            elif position < len(call.args):
                value = call.args[position]
            else:
                continue
            if equals:
                slots = equals.get((isinstance(value, bool), value))
                if slots:
                    for cslot in slots:
                        row[cslot] = 1.0
            if lengths:
                if isinstance(value, str):
                    slots = lengths.get(len(value))
                elif isinstance(value, LongString):
                    slots = lengths.get(value.length)
                else:
                    continue
                if slots:
                    for cslot in slots:
                        row[cslot] = 1.0


def take_nonzeros(row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A filled row's int32 column indices (ascending) and their values.

    The entries are reset to zero, so the row can take the next script.
    """
    cols = (row != 0.0).nonzero()[0]  # ~3x faster than flatnonzero on floats
    vals = row[cols]
    row[cols] = 0.0
    return cols.astype(np.int32), vals


def validate_mask(mask, slot_count: int) -> np.ndarray:
    arr = np.asarray(mask, dtype=np.intp)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidMask("mask must be a non-empty 1-d index array")
    if arr.min() < 0 or arr.max() >= slot_count:
        raise InvalidMask(f"mask indexes outside [0, {slot_count})")
    return arr


def feature_importance(weights: np.ndarray) -> np.ndarray:
    """Slot indices sorted by |weight| descending; ties broken by slot ascending."""
    return np.argsort(-np.abs(np.asarray(weights, dtype=float)), kind="stable")


def build_ext_high_entropy(catalog: FeatureCatalog, ranking, k: int) -> np.ndarray:
    """HighEntropy plus the top-k ranked slots (ranking must exclude them)."""
    base = catalog.mask("HighEntropy")
    ranking = np.asarray(ranking, dtype=np.intp)
    if k < 0 or k > ranking.size:
        raise InvalidInput(f"k={k} exceeds available ranked slots ({ranking.size})")
    if np.intersect1d(ranking, base).size:
        raise InvalidInput("ranking must exclude slots already in HighEntropy")
    merged = np.union1d(base, ranking[:k])
    return validate_mask(merged, catalog.slot_count)


# ---------------------------------------------------------------------------
# catalog file format

def _custom_to_json(spec: CustomFeatureSpec) -> dict:
    obj = {"api": spec.api_name, "target": spec.target, "match": spec.match_kind,
           "value": scalar_to_json(spec.match_value)}
    if spec.target == "argument":
        obj["index"] = spec.arg_index
    return obj


def _custom_from_json(obj, i: int) -> CustomFeatureSpec:
    """catalog.json's custom[i]; its path is formatted only for an error."""
    # a strlen length stays the JSON integer, which CustomFeatureSpec checks;
    # an equals value is a trace scalar, read by the trace parser's decoder
    try:
        check_keys(obj, ("api", "target", "match", "value"), ("index",))
        return CustomFeatureSpec(
            api_name=read_value(str, obj["api"], "api"),
            target=read_value(str, obj["target"], "target"),
            arg_index=read_value(int, obj["index"], "index") if "index" in obj else None,
            match_kind=read_value(str, obj["match"], "match"),
            match_value=(obj["value"] if obj["match"] == "strlen"
                         else scalar_from_json(obj["value"])),
        )
    except FieldError as exc:
        where = f"custom[{i}]"
        raise FieldError(f"{where}.{exc.field}" if exc.field else where, exc.message) from None


def catalog_to_json(catalog: FeatureCatalog) -> str:
    obj = {
        "api_counts": list(catalog.api_count_entries),
        "custom": [_custom_to_json(c) for c in catalog.custom_entries],
        "sets": {name: list(slots) for name, slots in sorted(catalog.named_sets.items())},
        "declared_sizes": {name: len(slots) for name, slots in sorted(catalog.named_sets.items())},
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def catalog_hash(catalog: FeatureCatalog) -> str:
    return hashlib.blake2b(catalog_to_json(catalog).encode("utf-8"), digest_size=16).hexdigest()


def save_catalog(catalog: FeatureCatalog, path) -> None:
    with atomic_write(path) as fh:
        fh.write(catalog_to_json(catalog))
        fh.write("\n")


def parse_catalog(data: bytes, path=None) -> FeatureCatalog:
    """The catalog that a catalog file's bytes hold; path names the file in errors.

    Declared sizes must match the actual named-set sizes and all required
    set names must be present (CardinalityError otherwise).
    """
    try:
        obj = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ParseError(str(exc), path=path) from exc
    try:
        check_keys(obj, ("api_counts", "custom", "sets"), ("declared_sizes",))
        catalog = FeatureCatalog(
            api_count_entries=read_value(tuple[str, ...], obj["api_counts"], "api_counts"),
            custom_entries=tuple(_custom_from_json(c, i) for i, c in enumerate(obj["custom"])),
            named_sets=read_value(dict[str, tuple[int, ...]], obj["sets"], "sets"),
        )
        declared = read_value(dict[str, int], obj.get("declared_sizes", {}), "declared_sizes")
    except (TypeError, ValueError) as exc:  # FieldError, the catalog classes' checks
        raise ParseError(f"bad catalog structure: {exc}", path=path) from exc
    for name in REQUIRED_SET_NAMES:
        if name not in catalog.named_sets:
            raise CardinalityError(f"catalog missing required named set {name!r}")
    for name, size in declared.items():
        actual = len(catalog.named_sets.get(name, ()))
        if actual != size:
            raise CardinalityError(
                f"named set {name!r} has {actual} slots, declared {size}")
    return catalog


# ---------------------------------------------------------------------------
# default synthetic catalog

N_API_CORE = 500        # widely instrumented surface (FPInspector counts)
N_API_EXTENDED = 184    # additional browser-only surface
N_HIGH_ENTROPY = 109    # flagged high-entropy counts (within the extended block)
N_EXT_SIGNAL_API = 17   # extension count slots beyond HighEntropy
N_CUSTOM = 830
N_EXT_SIGNAL_CUSTOM = 23
N_JSHELTER_API = 96
N_JSHELTER_CUSTOM = 492

# Interfaces the four detectors read, plus commonly probed surface.
_CORE_REAL_APIS = [
    "CanvasRenderingContext2D.fillText",
    "CanvasRenderingContext2D.strokeText",
    "CanvasRenderingContext2D.fillStyle",
    "CanvasRenderingContext2D.strokeStyle",
    "CanvasRenderingContext2D.font",
    "CanvasRenderingContext2D.measureText",
    "CanvasRenderingContext2D.save",
    "CanvasRenderingContext2D.restore",
    "CanvasRenderingContext2D.getImageData",
    "CanvasRenderingContext2D.fillRect",
    "CanvasRenderingContext2D.beginPath",
    "CanvasRenderingContext2D.arc",
    "CanvasRenderingContext2D.textBaseline",
    "CanvasRenderingContext2D.globalCompositeOperation",
    "HTMLCanvasElement.toDataURL",
    "HTMLCanvasElement.getContext",
    "HTMLCanvasElement.addEventListener",
    "HTMLCanvasElement.width",
    "HTMLCanvasElement.height",
    "RTCPeerConnection.createDataChannel",
    "RTCPeerConnection.createOffer",
    "RTCPeerConnection.onicecandidate",
    "RTCPeerConnection.localDescription",
    "RTCPeerConnection.setLocalDescription",
    "RTCPeerConnection.close",
    "AudioContext.createOscillator",
    "AudioContext.createDynamicsCompressor",
    "AudioContext.createAnalyser",
    "AudioContext.destination",
    "AudioContext.close",
    "OfflineAudioContext.startRendering",
    "OfflineAudioContext.oncomplete",
    "OfflineAudioContext.destination",
    "BaseAudioContext.sampleRate",
    "OscillatorNode.frequency",
    "OscillatorNode.type",
    "OscillatorNode.connect",
    "OscillatorNode.start",
    "DynamicsCompressorNode.threshold",
    "DynamicsCompressorNode.knee",
    "DynamicsCompressorNode.ratio",
    "DynamicsCompressorNode.connect",
    "AnalyserNode.getFloatFrequencyData",
    "Navigator.userAgent",
    "Navigator.platform",
    "Navigator.language",
    "Navigator.languages",
    "Navigator.plugins",
    "Navigator.mimeTypes",
    "Navigator.hardwareConcurrency",
    "Navigator.deviceMemory",
    "Navigator.doNotTrack",
    "Navigator.cookieEnabled",
    "Navigator.maxTouchPoints",
    "Navigator.vendor",
    "Navigator.webdriver",
    "Navigator.getBattery",
    "Screen.width",
    "Screen.height",
    "Screen.availWidth",
    "Screen.availHeight",
    "Screen.colorDepth",
    "Screen.pixelDepth",
    "Window.devicePixelRatio",
    "Window.innerWidth",
    "Window.innerHeight",
    "Window.localStorage",
    "Window.sessionStorage",
    "Window.indexedDB",
    "Window.openDatabase",
    "Document.createElement",
    "Document.getElementById",
    "Document.cookie",
    "Document.referrer",
    "WebGLRenderingContext.getParameter",
    "WebGLRenderingContext.getExtension",
    "WebGLRenderingContext.getSupportedExtensions",
    "WebGLRenderingContext.pixelStorei",
    "WebGLRenderingContext.createBuffer",
    "WebGLRenderingContext.drawArrays",
    "WebGLRenderingContext.readPixels",
    "Date.getTimezoneOffset",
    "Intl.DateTimeFormat",
    "Element.getBoundingClientRect",
    "MediaDevices.enumerateDevices",
    "Permissions.query",
    "History.length",
    "XMLHttpRequest.open",
    "Performance.now",
    "CSSStyleDeclaration.setProperty",
    "FontFaceSet.check",
    "SpeechSynthesis.getVoices",
    "Storage.getItem",
    "Storage.setItem",
    "WebSocket.send",
    "Worker.postMessage",
]

_EXTENDED_REAL_APIS = [
    "BatteryManager.level",
    "BatteryManager.charging",
    "BatteryManager.chargingTime",
    "BatteryManager.dischargingTime",
    "NetworkInformation.downlink",
    "NetworkInformation.effectiveType",
    "NetworkInformation.rtt",
    "NetworkInformation.saveData",
    "Gamepad.id",
    "Gamepad.buttons",
    "Bluetooth.getAvailability",
    "USB.getDevices",
    "Serial.getPorts",
    "HID.getDevices",
    "MediaCapabilities.decodingInfo",
    "Keyboard.getLayoutMap",
    "UserActivation.hasBeenActive",
    "WakeLock.request",
    "PresentationRequest.start",
    "DeviceMotionEvent.acceleration",
    "DeviceOrientationEvent.alpha",
    "AmbientLightSensor.illuminance",
    "Magnetometer.x",
    "Gyroscope.x",
]

# Classic probe payloads reused by the synthetic generator.
CANVAS_PANGRAM = "Cwm fjordbank glyphs vext quiz, \U0001f603"
FONT_PROBE_TEXT = "mmmmmmmmmmlli"
DATA_URL_LENGTH = 6146
SDP_LENGTH = 1024


def _signal_customs() -> list[CustomFeatureSpec]:
    """23 designated informative custom features (grouped by technique)."""
    C = CustomFeatureSpec
    canvas = [
        C("CanvasRenderingContext2D.fillText", "argument", 0, "equals", CANVAS_PANGRAM),
        C("CanvasRenderingContext2D.textBaseline", "argument", 0, "equals", "alphabetic"),
        C("CanvasRenderingContext2D.fillStyle", "argument", 0, "equals", "#f60"),
        C("CanvasRenderingContext2D.globalCompositeOperation", "argument", 0, "equals", "multiply"),
        C("HTMLCanvasElement.toDataURL", "return", None, "strlen", DATA_URL_LENGTH),
        C("HTMLCanvasElement.width", "argument", 0, "equals", 280.0),
    ]
    canvas_font = [
        C("CanvasRenderingContext2D.measureText", "argument", 0, "equals", FONT_PROBE_TEXT),
        C("CanvasRenderingContext2D.font", "argument", 0, "equals", "72px monospace"),
        C("CanvasRenderingContext2D.measureText", "return", None, "equals", 441.0),
        C("CanvasRenderingContext2D.font", "argument", 0, "strlen", 34),
        C("FontFaceSet.check", "argument", 0, "equals", "12px 'NonexistentProbeFont'"),
    ]
    webrtc = [
        C("RTCPeerConnection.createDataChannel", "argument", 0, "equals", "probe"),
        C("RTCPeerConnection.createOffer", "argument", 0, "equals", True),
        C("RTCPeerConnection.localDescription", "return", None, "strlen", SDP_LENGTH),
        C("RTCPeerConnection.setLocalDescription", "argument", 0, "strlen", SDP_LENGTH),
        C("RTCPeerConnection.createDataChannel", "argument", 1, "equals", False),
        C("RTCPeerConnection.onicecandidate", "argument", 0, "equals", "handler"),
    ]
    audio = [
        C("OscillatorNode.frequency", "argument", 0, "equals", 10000.0),
        C("OscillatorNode.type", "argument", 0, "equals", "triangle"),
        C("DynamicsCompressorNode.threshold", "argument", 0, "equals", -50.0),
        C("DynamicsCompressorNode.knee", "argument", 0, "equals", 40.0),
        C("DynamicsCompressorNode.ratio", "argument", 0, "equals", 12.0),
        C("AnalyserNode.getFloatFrequencyData", "argument", 0, "equals", 2048.0),
    ]
    out = canvas + canvas_font + webrtc + audio
    assert len(out) == N_EXT_SIGNAL_CUSTOM
    return out


def _flavor_customs() -> list[CustomFeatureSpec]:
    """Hand-written predicates in the style of mined equality features."""
    C = CustomFeatureSpec
    return [
        C("WebGLRenderingContext.getExtension", "argument", 0, "equals", "WEBGL_lose_context"),
        C("WebGLRenderingContext.getExtension", "argument", 0, "equals", "WEBGL_debug_renderer_info"),
        C("WebGLRenderingContext.pixelStorei", "argument", 1, "equals", 4.0),
        C("WebGLRenderingContext.getParameter", "argument", 0, "equals", 37445.0),
        C("Document.createElement", "argument", 0, "equals", "canvas"),
        C("HTMLCanvasElement.getContext", "argument", 0, "equals", "2d"),
        C("HTMLCanvasElement.getContext", "argument", 0, "equals", "webgl"),
        C("Navigator.plugins", "return", None, "strlen", 512),
        C("Permissions.query", "argument", 0, "equals", "notifications"),
        C("Storage.getItem", "argument", 0, "equals", "_fp_vid"),
        C("Storage.setItem", "argument", 0, "equals", "_fp_vid"),
        C("Date.getTimezoneOffset", "return", None, "equals", -300.0),
        C("Navigator.userAgent", "return", None, "strlen", 115),
        C("Screen.width", "return", None, "equals", 1920.0),
        C("Screen.height", "return", None, "equals", 1080.0),
        C("Window.devicePixelRatio", "return", None, "equals", 2.0),
        C("Element.getBoundingClientRect", "return", None, "equals", 0.0),
    ]


_FILLER_VALUE_POOL = ("#000000", "2d", "anonymous", "none", "hidden", "auto",
                      "default", "en-US", "src", "uuid", "landscape", "dense")


def default_catalog() -> FeatureCatalog:
    core = list(_CORE_REAL_APIS)
    core += [f"TrackedApi{i:03d}.call" for i in range(N_API_CORE - len(core))]
    assert len(core) == N_API_CORE

    extended = [f"EntropyApi{i:03d}.read" for i in range(N_HIGH_ENTROPY)]
    tail = list(_EXTENDED_REAL_APIS)
    tail += [f"ExtendedApi{i:03d}.call" for i in range(N_API_EXTENDED - N_HIGH_ENTROPY - len(tail))]
    extended += tail
    assert len(extended) == N_API_EXTENDED

    api_counts = tuple(core + extended)
    n_api = len(api_counts)

    jshelter_apis = set(core[:N_JSHELTER_API])

    fixed = _signal_customs() + _flavor_customs()
    js_fixed = sum(1 for c in fixed if c.api_name in jshelter_apis)
    n_filler = N_CUSTOM - len(fixed)
    need_js = N_JSHELTER_CUSTOM - js_fixed

    js_pool = sorted(jshelter_apis)
    other_pool = core[N_JSHELTER_API:] + extended
    filler: list[CustomFeatureSpec] = []
    for i in range(n_filler):
        api = js_pool[i % len(js_pool)] if i < need_js else other_pool[i % len(other_pool)]
        variant = i % 5
        if variant == 0:
            spec = CustomFeatureSpec(api, "argument", 0, "equals",
                                     _FILLER_VALUE_POOL[i % len(_FILLER_VALUE_POOL)])
        elif variant == 1:
            spec = CustomFeatureSpec(api, "argument", i % 3, "equals", float(i % 17))
        elif variant == 2:
            spec = CustomFeatureSpec(api, "return", None, "equals", float(i % 23))
        elif variant == 3:
            spec = CustomFeatureSpec(api, "argument", 0, "strlen", 300 + (i % 40))
        else:
            spec = CustomFeatureSpec(api, "return", None, "strlen", 280 + (i % 60))
        filler.append(spec)
    custom = tuple(fixed + filler)
    assert len(custom) == N_CUSTOM
    assert sum(1 for c in custom if c.api_name in jshelter_apis) == N_JSHELTER_CUSTOM

    n_slots = n_api + N_CUSTOM
    high_entropy = tuple(range(N_API_CORE, N_API_CORE + N_HIGH_ENTROPY))
    ext_api = tuple(range(N_API_CORE + N_HIGH_ENTROPY,
                          N_API_CORE + N_HIGH_ENTROPY + N_EXT_SIGNAL_API))
    ext_custom = tuple(range(n_api, n_api + N_EXT_SIGNAL_CUSTOM))
    js_api_slots = tuple(range(N_JSHELTER_API))
    js_custom_slots = tuple(n_api + i for i, c in enumerate(custom)
                            if c.api_name in jshelter_apis)
    assert len(js_custom_slots) == N_JSHELTER_CUSTOM

    named_sets = {
        "All": tuple(range(n_slots)),
        "FPInspector": tuple(range(N_API_CORE)) + tuple(range(n_api, n_slots)),
        "JShelter": tuple(sorted(js_api_slots + js_custom_slots)),
        "HighEntropy": high_entropy,
        "ExtHighEntropy": tuple(sorted(high_entropy + ext_api + ext_custom)),
    }
    return FeatureCatalog(api_counts, custom, named_sets)


def signal_slots(catalog: FeatureCatalog) -> tuple[np.ndarray, np.ndarray]:
    """(api slots, custom slots) of the ExtHighEntropy extension block.

    Derived from the catalog masks so custom-built catalogs work too:
    the extension is everything in ExtHighEntropy but not HighEntropy.
    """
    ext = np.setdiff1d(catalog.mask("ExtHighEntropy"), catalog.mask("HighEntropy"))
    return ext[ext < catalog.n_api], ext[ext >= catalog.n_api]


def classify_custom(spec: CustomFeatureSpec) -> str:
    """Technique bucket for a custom feature, by interface."""
    iface = spec.api_name.partition(".")[0]
    member = spec.api_name.partition(".")[2]
    if iface in heuristics.CANVAS_INTERFACES or iface == "FontFaceSet":
        if member in ("font", "measureText") or iface == "FontFaceSet":
            return "canvas_font"
        return "canvas"
    if iface == heuristics.RTC_INTERFACE:
        return "webrtc"
    if iface in heuristics.AUDIO_INTERFACES or iface in (
            "OscillatorNode", "DynamicsCompressorNode", "AnalyserNode"):
        return "audio"
    return "shared"
