"""Synthetic corpus generator checked against the rule-based labeler."""

import dataclasses

import numpy as np
import pytest

from fedtrace import heuristics
from fedtrace.csr import CSRMatrix
from fedtrace.errors import InvalidInput
from fedtrace.features import (
    FeatureCatalog,
    default_catalog,
    fill_feature_row,
    signal_slots,
)
from fedtrace.fedavg import centralized_fit
from fedtrace.fednorm import normalize_matrix
from fedtrace.metrics import average_precision
from fedtrace.synth import (
    DEFAULT_POOL_SIZE,
    DEFAULT_TYPE_MIX,
    GeneratorConfig,
    SplitSpec,
    _CallBuilder,
    call_matching,
    generate_corpus,
    generate_stream,
)
from fedtrace.traces import (
    ApiCallRecord,
    ScriptTrace,
    api_call,
    call_fragment,
    trace_to_json_line,
    types_to_bitmask,
)
from generated import generate_scripts
from oracle_stats import exact_stats

CATALOG = default_catalog()
SHUFFLED = FeatureCatalog(tuple(reversed(CATALOG.api_count_entries)),
                          tuple(reversed(CATALOG.custom_entries)))


@pytest.fixture(scope="module")
def corpus():
    return generate_scripts(GeneratorConfig(n_scripts=4000, seed=3), CATALOG)


class TestLabelAgreement:
    def test_exact_agreement_across_seeds(self):
        for seed in (0, 1, 2):
            out = generate_scripts(GeneratorConfig(n_scripts=1200, seed=seed), CATALOG)
            for script in out.scripts:
                got = heuristics.label(script.trace)
                assert got.types() == script.fp_types
                assert got.is_fingerprinting() == script.label

    def test_intended_combination_is_exact(self):
        # all mass on the four-technique combination
        mix = tuple(0.0 if i < 14 else 1.0 for i in range(15))
        cfg = GeneratorConfig(n_scripts=300, fp_prevalence=0.3, fp_type_mix=mix, seed=5)
        out = generate_scripts(cfg, CATALOG)
        fp = [s for s in out.scripts if s.label]
        assert len(fp) > 50
        for script in fp:
            assert script.fp_types == {"canvas", "canvas_font", "webrtc", "audio"}

    def test_single_technique_mix(self):
        mix = tuple(1.0 if i == 3 else 0.0 for i in range(15))  # webrtc only
        cfg = GeneratorConfig(n_scripts=300, fp_prevalence=0.3, fp_type_mix=mix, seed=6)
        out = generate_scripts(cfg, CATALOG)
        fp = [s for s in out.scripts if s.label]
        assert len(fp) > 50
        assert all(s.fp_types == {"webrtc"} for s in fp)


class TestPrevalence:
    def test_fingerprinting_count_within_binomial_3_sigma(self):
        n, p = 20_000, 0.0041
        out = generate_scripts(GeneratorConfig(n_scripts=n, seed=9), CATALOG)
        count = sum(s.label for s in out.scripts)
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(count - n * p) <= 3 * sigma
        assert out.manifest["n_fingerprinting"] == count


class TestNearMisses:
    def test_all_three_patterns_present_and_benign(self, corpus):
        saves = fonts_at_threshold = channel_no_gather = 0
        for script in corpus.scripts:
            if script.label:
                continue
            members = {c.api_name for c in script.trace.calls}
            if "CanvasRenderingContext2D.save" in members:
                saves += 1
            if "RTCPeerConnection.close" in members:
                channel_no_gather += 1
                assert "RTCPeerConnection.createDataChannel" in members
                assert "RTCPeerConnection.onicecandidate" not in members
                assert "RTCPeerConnection.localDescription" not in members
            font_args = {c.args[0] for c in script.trace.calls
                         if c.api_name == "CanvasRenderingContext2D.font" and c.args}
            measures = sum(c.api_name == "CanvasRenderingContext2D.measureText"
                           for c in script.trace.calls)
            if len(font_args) == heuristics.FONT_THRESHOLD and \
                    measures >= heuristics.FONT_THRESHOLD:
                fonts_at_threshold += 1
        assert saves >= 10
        assert fonts_at_threshold >= 10
        assert channel_no_gather >= 10

    def test_save_scripts_satisfy_other_canvas_conditions(self, corpus):
        # the evasion pattern is one call away from a full canvas match
        found = 0
        for script in corpus.scripts:
            members = {c.api_name for c in script.trace.calls}
            if script.label or "CanvasRenderingContext2D.save" not in members:
                continue
            assert "CanvasRenderingContext2D.fillText" in members
            assert "HTMLCanvasElement.toDataURL" in members
            found += 1
        assert found >= 10


class TestSplit:
    def test_disjoint_and_exhaustive(self, corpus):
        train, test = set(corpus.split.train_domains), set(corpus.split.test_domains)
        assert not train & test
        assert train | test == set(corpus.ranking.domains)

    def test_positives_on_both_sides(self, corpus):
        fp_domains = {s.trace.source_domain for s in corpus.scripts if s.label}
        assert fp_domains & set(corpus.split.train_domains)
        assert fp_domains & set(corpus.split.test_domains)

    def test_shared_scripts_stay_in_training_domains(self, corpus):
        train = set(corpus.split.train_domains)
        home = {s.trace.script_id: s.trace.source_domain for s in corpus.scripts}
        shared = 0
        for domain, sids in corpus.placements.items():
            for sid in sids:
                if home[sid] != domain:
                    shared += 1
                    assert domain in train and home[sid] in train
        # a script may gain up to two extra placements
        assert shared >= corpus.manifest["n_shared"] > 0

    def test_split_spec_round_trip(self, corpus):
        back = SplitSpec.from_dict(corpus.split.to_dict())
        assert back == corpus.split

    @pytest.mark.parametrize("split", [
        {"train_domains": "ab", "test_domains": ["c.example"]},
        {"train_domains": ["a.example"], "test_domains": "cd"},
        {"train_domains": ["a.example", 7], "test_domains": ["c.example"]},
    ], ids=["train-string", "test-string", "non-string-domain"])
    def test_split_from_dict_refuses_what_is_not_a_list_of_domains(self, split):
        with pytest.raises(InvalidInput):
            SplitSpec.from_dict(split)

    @pytest.mark.parametrize("split, reason", [
        ({"train_domains": []}, "test_domains: required field missing"),
        ({"test_domains": ["c.example"]}, "train_domains: required field missing"),
        ({"train_domains": ["a.example"], "test_domains": [], "holdout": []},
         "holdout: unknown field"),
    ], ids=["no-test-side", "no-train-side", "unknown-side"])
    def test_split_from_dict_refuses_a_missing_or_unknown_side(self, split, reason):
        # a missing side used to raise a bare KeyError, which the CLI does not catch
        with pytest.raises(InvalidInput, match=f"^{reason}$"):
            SplitSpec.from_dict(split)

    def test_split_rejects_overlap(self):
        with pytest.raises(InvalidInput):
            SplitSpec(("a.example",), ("a.example",))


class TestDeterminismAndConfig:
    def test_identical_config_identical_corpus(self):
        cfg = GeneratorConfig(n_scripts=800, seed=21)
        a = generate_scripts(cfg, CATALOG)
        b = generate_scripts(cfg, CATALOG)
        assert [s.trace for s in a.scripts] == [s.trace for s in b.scripts]
        assert a.placements == b.placements
        assert a.split == b.split
        assert a.manifest == b.manifest

    def test_seed_changes_corpus(self):
        a = generate_scripts(GeneratorConfig(n_scripts=800, seed=21), CATALOG)
        b = generate_scripts(GeneratorConfig(n_scripts=800, seed=22), CATALOG)
        assert [s.trace for s in a.scripts] != [s.trace for s in b.scripts]

    def test_config_round_trip(self):
        cfg = GeneratorConfig(n_scripts=10, fp_prevalence=0.1, seed=4, n_domains=3)
        assert GeneratorConfig.from_dict(cfg.to_dict()) == cfg

    def test_mix_must_sum_to_one(self):
        bad = tuple(0.5 if i < 2 else 0.1 for i in range(15))
        with pytest.raises(InvalidInput):
            GeneratorConfig(n_scripts=10, fp_type_mix=bad)

    def test_mix_must_have_15_entries(self):
        with pytest.raises(InvalidInput):
            GeneratorConfig(n_scripts=10, fp_type_mix=(1.0,))

    def test_mix_must_be_non_negative(self):
        bad = (1.5, -0.5) + (0.0,) * 13
        with pytest.raises(InvalidInput):
            GeneratorConfig(n_scripts=10, fp_type_mix=bad)

    def test_prevalence_range(self):
        with pytest.raises(InvalidInput):
            GeneratorConfig(n_scripts=10, fp_prevalence=0.0)
        with pytest.raises(InvalidInput):
            GeneratorConfig(n_scripts=10, fp_prevalence=1.0)

    def test_fixed_domain_count_is_exact(self):
        out = generate_scripts(GeneratorConfig(n_scripts=500, n_domains=7, seed=2), CATALOG)
        assert len(out.ranking.domains) == 7
        assert sum(len(v) for v in out.placements.values()) >= 500


class TestStreamingPath:
    def test_matches_full_generation(self):
        cfg = GeneratorConfig(n_scripts=1000, seed=13)
        full = generate_scripts(cfg, CATALOG)
        corpus, ranking, split, manifest = generate_corpus(cfg, CATALOG)
        assert manifest == full.manifest
        assert ranking.domains == full.ranking.domains
        assert split == full.split
        assert corpus.script_ids == tuple(s.trace.script_id for s in full.scripts)
        assert np.array_equal(corpus.labels,
                              np.array([s.label for s in full.scripts]))
        for i in (0, 99, 999):
            assert corpus.fp_bitmasks[i] == types_to_bitmask(full.scripts[i].fp_types)
        for domain, sids in full.placements.items():
            rows = corpus.domain_rows[domain]
            assert [corpus.script_ids[r] for r in rows] == sids

    def test_default_dtype_is_float32(self):
        corpus, *_ = generate_corpus(GeneratorConfig(n_scripts=50, seed=1), CATALOG)
        assert isinstance(corpus.X, CSRMatrix)
        assert corpus.X.data.dtype == np.float32
        assert corpus.X.indices.dtype == np.int32

    def test_columns_equal_dense_columns_for_every_feature_set(self):
        catalog = default_catalog()
        corpus, *_ = generate_corpus(GeneratorConfig(n_scripts=400, seed=2), catalog)
        dense = corpus.X.toarray()
        for name in catalog.named_sets:
            mask = catalog.mask(name)
            got, want = corpus.columns(mask), dense[:, mask]
            assert got.dtype == np.float32 and got.flags.c_contiguous, name
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_call_matching_satisfies_every_signal_custom():
    _, custom_slots = signal_slots(CATALOG)
    for slot in custom_slots:
        spec = CATALOG.custom_entries[slot - CATALOG.n_api]
        assert spec.matches(call_matching(spec))


def test_planted_signal_separates_classes():
    # the designated features alone should let a plain linear model
    # rank positives far above prevalence
    cfg = GeneratorConfig(n_scripts=6000, fp_prevalence=0.05, seed=17)
    corpus, _, _, _ = generate_corpus(cfg, CATALOG)
    mask = CATALOG.mask("ExtHighEntropy")
    x = corpus.columns(mask).astype(np.float64)
    x = normalize_matrix(x, exact_stats(x))
    model = centralized_fit(x, corpus.labels)
    ap = average_precision(model.decision_scores(x), corpus.labels)
    assert ap > 0.9, ap


def _plain(record: ApiCallRecord) -> ApiCallRecord:
    """An equal record with no cached fragment."""
    return ApiCallRecord(record.api_name, record.args, record.return_value,
                         record.dropped_args)


def _plain_trace(trace: ScriptTrace) -> ScriptTrace:
    return ScriptTrace(trace.script_id, trace.source_domain,
                       tuple(_plain(c) for c in trace.calls))


class TestCallTable:
    """Each shared record against a plain copy that has no cached fragment."""

    @pytest.fixture(scope="class")
    def records(self):
        builder = _CallBuilder(CATALOG, DEFAULT_POOL_SIZE)
        found = []

        def walk(value):
            if isinstance(value, ApiCallRecord):
                found.append(value)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    walk(item)

        for value in vars(builder).values():
            walk(value)
        return found

    @staticmethod
    def _filled(trace, catalog=CATALOG) -> np.ndarray:
        row = np.zeros(catalog.slot_count, dtype=np.float32)
        fill_feature_row(trace, catalog, row)
        return row

    def _assert_same_as_plain(self, trace, catalog=CATALOG):
        plain = _plain_trace(trace)
        assert all(c.fragment is None for c in plain.calls)
        assert trace_to_json_line(trace) == trace_to_json_line(plain)
        assert heuristics.label(trace) == heuristics.label(plain)
        np.testing.assert_array_equal(self._filled(trace, catalog),
                                      self._filled(plain, catalog))

    def test_every_entry_equals_the_per_call_code(self, records):
        assert len(records) > 2900
        for record in records:
            fragment = call_fragment(record)
            assert record.fragment is fragment and call_fragment(record) is fragment
            assert fragment == call_fragment(_plain(record))
            one = ScriptTrace("s#00", "d.example", (record,))
            assert trace_to_json_line(one).startswith(f'{{"calls":[{fragment}],')
            self._assert_same_as_plain(one)

    def test_traces_of_table_records_only(self, records):
        rng = np.random.default_rng(0)
        traces = [ScriptTrace("s#00", "d.example", tuple(records))]
        for _ in range(50):
            picks = rng.choice(len(records), size=int(rng.integers(1, 80)))
            traces.append(ScriptTrace("s#00", "d.example", tuple(records[i] for i in picks)))
        assert heuristics.label(traces[0]).types() == {"canvas_font", "webrtc", "audio"}
        for trace in traces:
            self._assert_same_as_plain(trace)

    def test_generated_scripts_miss_only_drawn_records(self, records):
        cfg = GeneratorConfig(n_scripts=1500, fp_prevalence=0.1, near_miss_rate=0.3, seed=8)
        stream, *_ = generate_stream(cfg, CATALOG)
        table = set(records)
        missed = set()
        for script, _, _ in stream:
            trace = script.trace
            missed |= {c.api_name for c in trace.calls if c not in table}
            self._assert_same_as_plain(trace)
            self._assert_same_as_plain(trace, SHUFFLED)
        assert missed == {"CanvasRenderingContext2D.fillText",
                          "CanvasRenderingContext2D.fillStyle"}

    def test_keyed_by_object_not_by_equal_content(self, records):
        # the signal custom RTCPeerConnection.createOffer(true) is planted as (True,)
        owned = next(r for r in records if any(a is True for a in r.args))
        owned_trace = ScriptTrace("s#00", "d.example", (owned,))
        assert "[true]" in trace_to_json_line(owned_trace) and "[true]" in owned.fragment
        equal = api_call(owned.api_name, (1.0,))
        assert equal == owned and hash(equal) == hash(owned) and equal is not owned
        assert equal.fragment is None
        equal_trace = ScriptTrace("s#00", "d.example", (equal,))
        assert "[1.0]" in trace_to_json_line(equal_trace)
        assert "[true]" in trace_to_json_line(owned_trace)
        self._assert_same_as_plain(owned_trace)
        self._assert_same_as_plain(equal_trace)

    def test_another_catalog_takes_the_per_call_code(self, records):
        trace = ScriptTrace("s#00", "d.example", tuple(records))
        assert not np.array_equal(self._filled(trace, SHUFFLED), self._filled(trace))
        self._assert_same_as_plain(trace, SHUFFLED)
        self._assert_same_as_plain(trace, default_catalog())  # equal, but another object

    def test_replace_gives_a_record_without_compiled_work(self, records):
        owned = next(r for r in records if r.args and self._filled(
            ScriptTrace("s#00", "d.example", (r,)))[CATALOG.n_api:].any())
        call_fragment(owned)
        changed = dataclasses.replace(owned, args=("other",) + owned.args[1:])
        assert owned.fragment is not None and changed.fragment is None
        self._assert_same_as_plain(ScriptTrace("s#00", "d.example", (changed,)))
