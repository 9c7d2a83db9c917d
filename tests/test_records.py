"""The artifact records and the one typed reader behind them (fedtrace.config).

Each record a stage reads round-trips through to_dict -> JSON -> from_dict,
and the reader's two shapes beyond the config fields (a fixed-length tuple
and dict[str, X]) refuse what they do not hold, naming the dotted path.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtrace.config import check_keys, read_value
from fedtrace.errors import ConfigError, FieldError
from fedtrace.experiment import Checkpoint, ExperimentConfig, LedgerRecord
from fedtrace.fednorm import NormStats
from fedtrace.partition import LimitedKnowledgeSpec
from fedtrace.synth import GeneratorConfig, SplitSpec
from fedtrace.traces import FP_TYPES

finite = st.floats(allow_nan=False, allow_infinity=False)


def _through_json(record):
    return type(record).from_dict(json.loads(json.dumps(record.to_dict(), allow_nan=False)))


@settings(max_examples=50, deadline=None)
@given(domains=st.lists(st.text(), unique=True), cut=st.integers(min_value=0))
def test_split_round_trips(domains, cut):
    cut %= len(domains) + 1
    split = SplitSpec(tuple(domains[:cut]), tuple(domains[cut:]))
    assert _through_json(split) == split


@settings(max_examples=50, deadline=None)
@given(fraction=st.floats(min_value=0.0, max_value=1.0),
       assignments=st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(FP_TYPES))))
def test_limited_knowledge_round_trips(fraction, assignments):
    spec = LimitedKnowledgeSpec(fraction, tuple(assignments))
    assert _through_json(spec) == spec


# a ledger's delta lies in (0, 1) and each entry's q in (0, 1], z >= 0 and count >= 1
@settings(max_examples=50, deadline=None)
@given(delta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
       entries=st.lists(st.tuples(
           st.text(), st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
           st.floats(min_value=0.0, allow_infinity=False), st.integers(min_value=1))))
def test_ledger_round_trips(delta, entries):
    ledger = LedgerRecord(delta, tuple(entries))
    assert _through_json(ledger) == ledger


@pytest.mark.parametrize("delta, entry, where", [
    (0.0, ("m", 0.5, 1.0, 1), "delta"), (2.0, ("m", 0.5, 1.0, 1), "delta"),
    (1e-5, ("m", 0.0, 1.0, 1), "entries[1][1]"), (1e-5, ("m", 1.5, 1.0, 1), "entries[1][1]"),
    (1e-5, ("m", 0.5, -1.0, 1), "entries[1][2]"), (1e-5, ("m", 0.5, 1.0, 0), "entries[1][3]"),
])
def test_ledger_range_errors_name_the_field(delta, entry, where):
    entries = [["m", 1.0, 0.0, 3], list(entry)]
    with pytest.raises(FieldError) as err:
        LedgerRecord.from_dict({"delta": delta, "entries": entries})
    assert type(err.value) is FieldError and err.value.field == where


@settings(max_examples=30, deadline=None)
@given(weights=st.lists(finite, max_size=40), bias=finite, text=st.text(),
       normalize=st.booleans(), z=st.tuples(finite, finite),
       normstats_sha256=st.none() | st.text(),
       epsilon=st.floats(min_value=0.01, max_value=100.0) | st.just(math.inf),
       rounds=st.integers(min_value=1, max_value=100),
       n_scripts=st.integers(min_value=1, max_value=10**6), seed=st.integers(min_value=0))
def test_checkpoint_round_trips(weights, bias, text, normalize, z, normstats_sha256, epsilon,
                                rounds, n_scripts, seed):
    config = ExperimentConfig(generator=GeneratorConfig(n_scripts=n_scripts), epsilon=epsilon,
                              rounds=rounds, normalize=normalize, seed=seed)
    checkpoint = Checkpoint(
        weights=tuple(weights), bias=bias, feature_set=text, catalog_hash=text,
        normalize=normalize, norm_mode=text, z_norm=z[0], z_train=z[1],
        normstats_sha256=normstats_sha256, partition_sha256=text, ledger_sha256=text,
        config=config)
    assert _through_json(checkpoint) == checkpoint


@settings(max_examples=50, deadline=None)
@given(moments=st.lists(st.tuples(finite, st.floats(min_value=1e-300, max_value=1e300))),
       clip_mu=finite, clip_var=finite)
def test_norm_stats_round_trips(moments, clip_mu, clip_var):
    mu, s = (np.array([m[i] for m in moments], dtype=float) for i in (0, 1))
    stats = NormStats(mu, s, clip_mu, clip_var)
    back = _through_json(stats)  # NormStats compares by identity: compare its fields
    assert np.array_equal(back.mu, stats.mu) and np.array_equal(back.s, stats.s)
    assert (back.clip_mu, back.clip_var) == (stats.clip_mu, stats.clip_var)


class TestReader:
    def test_fixed_length_tuple_reads_each_position_as_its_type(self):
        assert read_value(tuple[int, str], [3, "canvas"]) == (3, "canvas")
        assert read_value(tuple[int, str], (3.0, "canvas")) == (3, "canvas")
        for value, where, reason in (([3], "x", "must be a list of 2 values"),
                                     ([3, "a", "b"], "x", "must be a list of 2 values"),
                                     ({"0": 3, "1": "a"}, "x", "must be a list"),
                                     (["3", "a"], "x[0]", "must be an integer"),
                                     ([3, 4], "x[1]", "must be a string")):
            with pytest.raises(FieldError, match=f"^{re.escape(where)}: {reason}"):
                read_value(tuple[int, str], value, "x")

    def test_dict_reads_each_value_under_its_key(self):
        assert read_value(dict[str, tuple[int, ...]], {"a": [1, 2], "b": []}) \
            == {"a": (1, 2), "b": ()}
        for value, where, reason in (([["a", [1]]], "sets", "must be an object"),
                                     ({"a": [1, 2.5]}, "sets.a[1]", "must be an integer"),
                                     ({"a": "12"}, "sets.a", "must be a list")):
            with pytest.raises(FieldError, match=f"^{re.escape(where)}: {reason}"):
                read_value(dict[str, tuple[int, ...]], value, "sets")

    def test_a_record_raises_field_errors_and_a_nested_config_config_errors(self):
        # the CLI exits 1 for a malformed artifact and 2 for a config at fault
        good = Checkpoint((), 0.0, "f", "h", True, "std", 0.0, 0.0, None, "p", "l",
                          ExperimentConfig()).to_dict()
        with pytest.raises(FieldError) as err:
            Checkpoint.from_dict({**good, "bias": "0.25"})
        assert type(err.value) is FieldError and err.value.field == "bias"
        with pytest.raises(ConfigError) as err:
            Checkpoint.from_dict({**good, "config": {"rounds": 2.5}})
        assert err.value.field == "config.rounds"

    def test_check_keys_refuses_a_missing_or_unknown_key(self):
        check_keys({"a": 1}, ("a",), ("b",))
        for obj, where, reason in (({}, "o.a", "required field missing"),
                                   ({"a": 1, "c": 2}, "o.c", "unknown field"),
                                   ([1], "o", "must be an object")):
            with pytest.raises(FieldError, match=f"^{re.escape(where)}: {reason}"):
                check_keys(obj, ("a",), ("b",), "o")

    def test_a_float_must_be_finite_and_a_bool_is_no_number(self):
        for value in (math.nan, math.inf, True, "1.5"):
            with pytest.raises(FieldError):
                read_value(float, value)
        assert read_value(tuple[float, ...], [1, 2.5]) == (1.0, 2.5)
