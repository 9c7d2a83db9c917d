"""Feature catalog structure, extraction semantics, and masks."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtrace import heuristics
from fedtrace.errors import CardinalityError, InvalidInput, InvalidMask, ParseError
from fedtrace.features import (
    REQUIRED_SET_NAMES,
    CustomFeatureSpec,
    FeatureCatalog,
    build_ext_high_entropy,
    catalog_hash,
    catalog_to_json,
    default_catalog,
    feature_importance,
    fill_feature_row,
    parse_catalog,
    save_catalog,
    signal_slots,
    validate_mask,
)
from fedtrace.synth import GeneratorConfig
from fedtrace.traces import (LONG_STRING_THRESHOLD, MAX_ARGS, ApiCallRecord, LongString,
                             ScriptTrace, api_call, summarize_value)
from generated import generate_scripts


@pytest.fixture(scope="module")
def catalog():
    return default_catalog()


def custom_slot(catalog: FeatureCatalog, i: int) -> int:
    return catalog.n_api + i


def _trace(*calls) -> ScriptTrace:
    return ScriptTrace("https://t.example/s.js#00", "t.example", tuple(calls))


class TestCatalogStructure:
    def test_slot_budget(self, catalog):
        assert catalog.n_api == 684
        assert catalog.n_custom == 830
        assert catalog.slot_count == 1514

    def test_named_set_sizes(self, catalog):
        sizes = {name: len(slots) for name, slots in catalog.named_sets.items()}
        assert sizes == {"All": 1514, "FPInspector": 1330, "JShelter": 588,
                         "HighEntropy": 109, "ExtHighEntropy": 149}

    def test_masks_sorted_unique_in_range(self, catalog):
        for name in catalog.named_sets:
            mask = catalog.mask(name)
            assert (np.diff(mask) > 0).all()
            assert 0 <= mask[0] and mask[-1] < catalog.slot_count

    def test_extension_block_split(self, catalog):
        api_slots, custom_slots = signal_slots(catalog)
        assert api_slots.size == 17
        assert custom_slots.size == 23
        assert (custom_slots >= catalog.n_api).all()

    def test_default_catalog_content_is_pinned(self, catalog):
        assert catalog_hash(catalog) == "1f4c40f666782bed1614c9ea5c2fd41e"

    def test_duplicate_api_rejected(self):
        with pytest.raises(CardinalityError):
            FeatureCatalog(("A.b", "A.b"), ())

    def test_unknown_mask_name(self, catalog):
        with pytest.raises(InvalidMask):
            catalog.mask("NoSuchSet")


class TestExtraction:
    def test_counts_accumulate(self, catalog):
        trace = _trace(api_call("Navigator.userAgent"),
                       api_call("Navigator.userAgent"),
                       api_call("Navigator.userAgent"))
        slot = catalog.api_count_entries.index("Navigator.userAgent")
        vec = _fill(trace, catalog)
        assert vec[slot] == 3.0
        assert vec.sum() == 3.0

    def test_unknown_api_ignored(self, catalog):
        vec = _fill(_trace(api_call("Nonexistent.api")), catalog)
        assert vec.sum() == 0.0

    def test_custom_is_binary_indicator(self, catalog):
        spec = CustomFeatureSpec("WebGLRenderingContext.getExtension",
                                 "argument", 0, "equals", "WEBGL_lose_context")
        cslot = custom_slot(catalog, catalog.custom_entries.index(spec))
        call = api_call("WebGLRenderingContext.getExtension", ("WEBGL_lose_context",))
        vec = _fill(_trace(call, call), catalog)
        assert vec[cslot] == 1.0  # fired twice, still 1
        api_slot = catalog.api_count_entries.index("WebGLRenderingContext.getExtension")
        assert vec[api_slot] == 2.0

    def test_custom_requires_exact_argument(self, catalog):
        spec = CustomFeatureSpec("WebGLRenderingContext.getExtension",
                                 "argument", 0, "equals", "WEBGL_lose_context")
        cslot = custom_slot(catalog, catalog.custom_entries.index(spec))
        vec = _fill(_trace(api_call("WebGLRenderingContext.getExtension",
                                    ("OES_texture_float",))), catalog)
        assert vec[cslot] == 0.0

    def test_return_strlen_matches_long_string_summary(self, catalog):
        spec = CustomFeatureSpec("HTMLCanvasElement.toDataURL",
                                 "return", None, "strlen", 6146)
        cslot = custom_slot(catalog, catalog.custom_entries.index(spec))
        hit = _fill(_trace(api_call("HTMLCanvasElement.toDataURL", (), "x" * 6146)), catalog)
        miss = _fill(_trace(api_call("HTMLCanvasElement.toDataURL", (), "x" * 6145)), catalog)
        assert hit[cslot] == 1.0
        assert miss[cslot] == 0.0

    def test_argument_index_beyond_args_is_no_match(self, catalog):
        spec = CustomFeatureSpec("RTCPeerConnection.createDataChannel",
                                 "argument", 1, "equals", False)
        cslot = custom_slot(catalog, catalog.custom_entries.index(spec))
        vec = _fill(_trace(api_call("RTCPeerConnection.createDataChannel",
                                    ("probe",))), catalog)
        assert vec[cslot] == 0.0

    def test_int_arguments_match_float_specs(self, catalog):
        spec = CustomFeatureSpec("HTMLCanvasElement.width",
                                 "argument", 0, "equals", 280.0)
        cslot = custom_slot(catalog, catalog.custom_entries.index(spec))
        vec = _fill(_trace(api_call("HTMLCanvasElement.width", (280,))), catalog)
        assert vec[cslot] == 1.0

    def test_labels_attached(self):
        labels = heuristics.label(_trace(api_call("AudioContext.createOscillator")))
        assert labels.is_fingerprinting() and labels.types() == {"audio"}

    def test_fill_row_matches_extract(self, catalog):
        # a float32 row, as the corpus stores it, holds the float64 oracle row
        trace = _trace(api_call("Navigator.userAgent"),
                       api_call("WebGLRenderingContext.getExtension",
                                ("WEBGL_lose_context",)))
        row = np.zeros(catalog.slot_count, dtype=np.float32)
        fill_feature_row(trace, catalog, row)
        assert np.array_equal(row, _oracle_row(trace, catalog).astype(np.float32))


def _oracle_row(trace: ScriptTrace, catalog: FeatureCatalog) -> np.ndarray:
    """The per-spec fill: every spec of the call's API tested with matches()."""
    row = np.zeros(catalog.slot_count)
    for call in trace.calls:
        if call.api_name in catalog.api_count_entries:
            row[catalog.api_count_entries.index(call.api_name)] += 1.0
        for i, spec in enumerate(catalog.custom_entries):
            if spec.api_name == call.api_name and spec.matches(call):
                row[custom_slot(catalog, i)] = 1.0
    return row


def _fill(trace: ScriptTrace, catalog: FeatureCatalog) -> np.ndarray:
    row = np.zeros(catalog.slot_count)
    fill_feature_row(trace, catalog, row)
    return row


LONG = LongString(300, "0123456789abcdef")
NAN = float("nan")
C = CustomFeatureSpec
CRAFTED = FeatureCatalog(
    ("X.a", "X.b"),
    (
        C("X.a", "argument", 0, "equals", True),         # 0
        C("X.a", "argument", 0, "equals", 1.0),          # 1
        C("X.a", "argument", 0, "equals", 0.0),          # 2
        C("X.a", "argument", 0, "equals", NAN),          # 3
        C("X.a", "argument", 3, "equals", "far"),        # 4
        C("X.a", "return", None, "equals", 2.0),         # 5
        C("X.a", "argument", 1, "equals", "dup"),        # 6: shares its key with 7
        C("X.a", "argument", 1, "equals", "dup"),        # 7
        C("X.b", "return", None, "equals", LONG),        # 8
        C("X.b", "return", None, "strlen", 300),         # 9
        C("X.c", "argument", 0, "strlen", 5),            # 10: X.c has no count slot
        C("X.c", "argument", 0, "equals", "hello"),      # 11: same position as 10
        C("X.c", "argument", 0, "equals", False),        # 12
    ),
)
CRAFTED_CASES = {
    "bool True is not 1.0": (ApiCallRecord("X.a", (True,)), {0}),
    "1.0 is not bool True": (api_call("X.a", (1.0,)), {1}),
    "int argument matches a float spec": (ApiCallRecord("X.a", (1,)), {1}),
    "-0.0 equals 0.0": (api_call("X.a", (-0.0,)), {2}),
    "bool False is not 0.0": (ApiCallRecord("X.a", (False,)), set()),
    "NaN never matches": (api_call("X.a", (float("nan"),)), set()),
    "NaN never matches, not even the same object": (ApiCallRecord("X.a", (NAN,)), set()),
    "position past the arguments": (api_call("X.a", ("a", "b")), set()),
    "position inside the arguments": (api_call("X.a", (0.5, "x", "y", "far")), {4}),
    "return target": (api_call("X.a", (), 2.0), {5}),
    "argument is not the return": (api_call("X.a", (2.0,)), set()),
    "two specs share one key": (api_call("X.a", (3.0, "dup")), {6, 7}),
    "long-string equals and strlen": (api_call("X.b", (), LONG), {8, 9}),
    "other long string of that length": (api_call("X.b", (), "y" * 300), {9}),
    "strlen on a short string": (api_call("X.c", ("abcde",)), {10}),
    "equals and strlen at one position": (api_call("X.c", ("hello",)), {10, 11}),
    "strlen against a non-string": (api_call("X.c", (5.0,)), set()),
    "strlen against a long string summary": (ApiCallRecord("X.c", (LongString(5, "ab"),)),
                                             {10}),
    "bool False: equals False, no strlen": (ApiCallRecord("X.c", (False,)), {12}),
}


class TestCompiledFill:
    """fill_feature_row's compiled table against the per-spec predicates."""

    @pytest.mark.parametrize("case", sorted(CRAFTED_CASES))
    def test_crafted_case(self, case):
        call, fired = CRAFTED_CASES[case]
        row = _fill(_trace(call), CRAFTED)
        assert np.array_equal(row, _oracle_row(_trace(call), CRAFTED))
        assert {i for i in range(CRAFTED.n_custom) if row[custom_slot(CRAFTED, i)]} == fired

    def test_all_crafted_calls_in_one_trace(self):
        trace = _trace(*(call for call, _ in CRAFTED_CASES.values()))
        row = _fill(trace, CRAFTED)
        assert np.array_equal(row, _oracle_row(trace, CRAFTED))
        calls = [call.api_name for call, _ in CRAFTED_CASES.values()]
        assert row[:CRAFTED.n_api].tolist() == [calls.count("X.a"), calls.count("X.b")]

    def test_row_accumulates_onto_existing_values(self, catalog):
        trace = _trace(api_call("Navigator.userAgent"))
        row = _fill(trace, catalog)
        fill_feature_row(trace, catalog, row)
        assert row[catalog.api_count_entries.index("Navigator.userAgent")] == 2.0

    @pytest.mark.parametrize("dtype", [np.int64, np.float16])
    def test_other_row_dtypes_are_refused(self, catalog, dtype):
        row = np.zeros(catalog.slot_count, dtype=dtype)
        with pytest.raises(InvalidInput):
            fill_feature_row(_trace(api_call("Navigator.userAgent")), catalog, row)
        assert not row.any()

    def test_strided_row_matches_a_contiguous_row(self):
        trace = _trace(*(call for call, _ in CRAFTED_CASES.values()))
        wide = np.zeros((CRAFTED.slot_count, 3))
        fill_feature_row(trace, CRAFTED, wide[:, 1])
        assert np.array_equal(wide[:, 1], _fill(trace, CRAFTED))
        assert not wide[:, [0, 2]].any()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_generated_row_matches_the_oracle(self, catalog, seed):
        scripts = generate_scripts(
            GeneratorConfig(n_scripts=400, fp_prevalence=0.05, seed=seed), catalog).scripts
        assert any(s.label for s in scripts)
        fired = 0
        for script in scripts:
            row = _fill(script.trace, catalog)
            assert np.array_equal(row, _oracle_row(script.trace, catalog)), \
                script.trace.script_id
            fired += int(row[catalog.n_api:].sum())
        assert fired > 0


class TestCustomSpecValidation:
    def test_target_must_be_argument_or_return(self):
        with pytest.raises(InvalidInput):
            CustomFeatureSpec("A.b", "value", 0, "equals", 1.0)

    def test_argument_needs_index(self):
        with pytest.raises(InvalidInput):
            CustomFeatureSpec("A.b", "argument", None, "equals", 1.0)

    def test_return_rejects_index(self):
        with pytest.raises(InvalidInput):
            CustomFeatureSpec("A.b", "return", 0, "equals", 1.0)

    def test_strlen_needs_int(self):
        with pytest.raises(InvalidInput):
            CustomFeatureSpec("A.b", "return", None, "strlen", "long")


class TestMasks:
    def test_validate_mask_rejects_out_of_range(self):
        with pytest.raises(InvalidMask):
            validate_mask([0, 5], 5)
        with pytest.raises(InvalidMask):
            validate_mask([-1], 5)
        with pytest.raises(InvalidMask):
            validate_mask([], 5)

    def test_apply_mask_projects_values(self, catalog):
        row = _fill(_trace(api_call("Navigator.userAgent")), catalog)
        slot = catalog.api_count_entries.index("Navigator.userAgent")
        small = row[validate_mask([slot, slot + 1], catalog.slot_count)]
        assert small.tolist() == [1.0, 0.0]

    def test_feature_importance_orders_by_magnitude(self):
        order = feature_importance(np.array([0.1, -3.0, 2.0, 0.0]))
        assert order.tolist() == [1, 2, 0, 3]

    def test_feature_importance_tie_broken_by_slot(self):
        order = feature_importance(np.array([1.0, -2.0, -1.0, 2.0, 1.0]))
        assert order.tolist() == [1, 3, 0, 2, 4]

    def test_build_ext_high_entropy_unions_top_k(self, catalog):
        base = catalog.mask("HighEntropy")
        extra_api, extra_custom = signal_slots(catalog)
        ranked = np.concatenate([extra_api, extra_custom])
        merged = build_ext_high_entropy(catalog, ranked, k=ranked.size)
        assert np.array_equal(merged, catalog.mask("ExtHighEntropy"))
        assert np.array_equal(build_ext_high_entropy(catalog, ranked, k=0), base)

    def test_build_ext_high_entropy_rejects_overlap(self, catalog):
        base = catalog.mask("HighEntropy")
        with pytest.raises(InvalidInput):
            build_ext_high_entropy(catalog, base[:3], k=2)


def _small_catalog(*custom: CustomFeatureSpec) -> FeatureCatalog:
    api = ("HTMLCanvasElement.toDataURL", "Navigator.userAgent")
    slots = tuple(range(len(api) + len(custom)))
    return FeatureCatalog(api, custom, {name: slots for name in REQUIRED_SET_NAMES})


def _write(tmp_path, obj):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(obj))
    return path


def _parse(path):
    return parse_catalog(path.read_bytes(), path)


class TestCatalogFile:
    def test_round_trip_preserves_hash(self, catalog, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(catalog, path)
        back = _parse(path)
        assert back == catalog
        assert catalog_hash(back) == catalog_hash(catalog)

    def test_serialization_is_byte_deterministic(self, catalog):
        assert catalog_to_json(catalog) == catalog_to_json(default_catalog())

    def test_hash_changes_with_content(self, catalog):
        altered = FeatureCatalog(catalog.api_count_entries[:-1],
                                 catalog.custom_entries)
        assert catalog_hash(altered) != catalog_hash(catalog)

    def test_long_string_spec_round_trips(self, tmp_path):
        long_value = "data:image/png;base64," + "A" * 6000
        spec = CustomFeatureSpec("HTMLCanvasElement.toDataURL", "return", None,
                                 "equals", summarize_value(long_value))
        catalog = _small_catalog(spec)
        path = tmp_path / "catalog.json"
        save_catalog(catalog, path)
        back = _parse(path)
        assert back == catalog
        assert catalog_hash(back) == catalog_hash(catalog)
        assert isinstance(back.custom_entries[0].match_value, LongString)
        row = _fill(_trace(api_call("HTMLCanvasElement.toDataURL", (), long_value)), back)
        assert row[back.n_api] == 1.0

    # an equals value is read by the trace parser's decoder, so a value no
    # trace can hold is refused rather than loaded as a feature that never fires
    @pytest.mark.parametrize("value", [{"len": 5, "hash": "zz"}, {"len": "300", "hash": "ab"},
                                       "x" * 300], ids=["short-len", "text-len", "raw-long"])
    def test_a_match_value_no_trace_holds_is_refused(self, tmp_path, value):
        obj = json.loads(catalog_to_json(_small_catalog(
            CustomFeatureSpec("HTMLCanvasElement.toDataURL", "return", None, "equals", "x"))))
        obj["custom"][0]["value"] = value
        with pytest.raises(ParseError, match="bad catalog structure"):
            _parse(_write(tmp_path, obj))

    @pytest.mark.parametrize("length", [300.0, True, "300"])
    def test_a_strlen_length_must_be_an_integer(self, tmp_path, length):
        obj = json.loads(catalog_to_json(_small_catalog(
            CustomFeatureSpec("HTMLCanvasElement.toDataURL", "return", None, "strlen", 300))))
        obj["custom"][0]["value"] = length
        with pytest.raises(ParseError, match="strlen matcher needs an int length"):
            _parse(_write(tmp_path, obj))

    # every value is read by the one typed reader, with no int() or str() and
    # no key ignored; a slot of 500.7, a declared size of "149" and an unknown
    # key used to reload with the default catalog's hash, so load_corpus's
    # hash check let them through
    @pytest.mark.parametrize("edit, where", [
        (lambda obj, arg: obj["custom"][arg].__setitem__("index", 1.5), "custom[{arg}].index"),
        (lambda obj, arg: obj["custom"][arg].__setitem__("index", True), "custom[{arg}].index"),
        (lambda obj, arg: obj["api_counts"].__setitem__(0, 5), "api_counts[0]"),
        (lambda obj, arg: obj.__setitem__("declared_sizes", [1514, 149]), "declared_sizes"),
        (lambda obj, arg: obj["sets"]["All"].__setitem__(500, 500.7), "sets.All[500]"),
        (lambda obj, arg: obj["declared_sizes"].__setitem__("ExtHighEntropy", "149"),
         "declared_sizes.ExtHighEntropy"),
        (lambda obj, arg: obj.__setitem__("notes", "x"), "notes"),
        (lambda obj, arg: obj["custom"][arg].__setitem__("notes", "x"), "custom[{arg}].notes"),
    ], ids=["fractional-index", "bool-index", "numeric-api-name", "declared-sizes-as-list",
            "fractional-slot", "declared-size-as-string", "unknown-key", "unknown-custom-key"])
    def test_a_mistyped_value_or_unknown_key_is_refused(self, catalog, tmp_path, edit, where):
        obj = json.loads(catalog_to_json(catalog))
        arg = next(i for i, c in enumerate(obj["custom"]) if c["target"] == "argument")
        edit(obj, arg)
        match = re.escape(f"bad catalog structure: {where.format(arg=arg)}: ")
        with pytest.raises(ParseError, match=match):
            _parse(_write(tmp_path, obj))

    def test_bad_json_is_a_parse_error(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text('{"api_counts": [')
        with pytest.raises(ParseError):
            _parse(path)

    def test_bad_structure_is_a_parse_error(self, tmp_path):
        obj = json.loads(catalog_to_json(_small_catalog()))
        del obj["custom"]
        with pytest.raises(ParseError, match="bad catalog structure"):
            _parse(_write(tmp_path, obj))

    def test_missing_required_set_is_refused(self, tmp_path):
        obj = json.loads(catalog_to_json(_small_catalog()))
        del obj["sets"]["JShelter"], obj["declared_sizes"]["JShelter"]
        with pytest.raises(CardinalityError, match="JShelter"):
            _parse(_write(tmp_path, obj))

    def test_declared_size_mismatch_is_refused(self, tmp_path):
        obj = json.loads(catalog_to_json(_small_catalog()))
        obj["declared_sizes"]["HighEntropy"] += 1
        with pytest.raises(CardinalityError, match="declared"):
            _parse(_write(tmp_path, obj))


@settings(max_examples=50, deadline=None)
@given(short=st.text(max_size=LONG_STRING_THRESHOLD),
       long=st.text(min_size=LONG_STRING_THRESHOLD + 1, max_size=LONG_STRING_THRESHOLD + 40),
       number=st.floats(allow_nan=False), flag=st.booleans(),
       length=st.integers(min_value=0, max_value=10_000),
       index=st.integers(min_value=0, max_value=MAX_ARGS - 1),
       api=st.text(min_size=1), drawn=st.sets(st.integers(min_value=0, max_value=8), min_size=1))
def test_catalog_round_trips_every_match_value_kind(tmp_path_factory, short, long, number,
                                                     flag, length, index, api, drawn):
    C = CustomFeatureSpec
    catalog = _small_catalog(
        C("A.b", "argument", 0, "equals", summarize_value(short)),
        C("A.b", "argument", 1, "equals", summarize_value(long)),
        C("A.b", "argument", 2, "equals", summarize_value(number)),
        C("A.b", "argument", 3, "equals", flag),
        C("A.b", "return", None, "equals", None),
        C("A.b", "return", None, "strlen", length),
        C(api, "argument", index, "equals", "x"),
    )
    # every key and value of the file goes through the reader: a drawn set of slots too
    catalog = FeatureCatalog(catalog.api_count_entries, catalog.custom_entries,
                             {**catalog.named_sets, "Drawn": tuple(sorted(drawn))})
    path = tmp_path_factory.getbasetemp() / "kinds_catalog.json"
    save_catalog(catalog, path)
    back = _parse(path)
    assert back == catalog and catalog_hash(back) == catalog_hash(catalog)
    # equality alone would let True stand for 1.0
    assert [type(c.match_value) for c in back.custom_entries] \
        == [str, LongString, float, bool, type(None), int, str]
