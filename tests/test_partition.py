"""Partitioning tests.

Oracles:
- sequential_wor_probability: closed-form probability of an ordered
  without-replacement draw where weights renormalize after each pick;
  checked against empirical frequencies of the production sampler.
- two_distribution_symkl: direct smoothed symmetric-KL formula for two
  participants, evaluated with plain Python floats.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from scipy import stats

from fedtrace.errors import InsufficientData, InvalidInput, ParseError
from fedtrace.features import default_catalog
from fedtrace.partition import (
    DomainRanking,
    KL_SMOOTHING,
    NON_IID_SAMPLE_SIZE,
    N_TYPE_COMBINATIONS,
    LimitedKnowledgeSpec,
    ParticipantDataset,
    ScriptCorpus,
    build_partition,
    draw_domains,
    make_limited_knowledge,
    non_iidness_score,
    parse_ranking,
    save_ranking,
    zipf_sample_domains,
)
from fedtrace.traces import FP_TYPES, LabeledScript, ScriptTrace, api_call


# ---------------------------------------------------------------- oracles

def sequential_wor_probability(weights, order):
    """P(draw exactly this ordered tuple) under renormalized sampling."""
    total = float(sum(weights))
    prob = 1.0
    for i in order:
        prob *= weights[i] / total
        total -= weights[i]
    return prob


def two_distribution_symkl(counts_a, counts_b, alpha=KL_SMOOTHING):
    cells = len(counts_a)
    pa = [(c + alpha) / (sum(counts_a) + alpha * cells) for c in counts_a]
    pb = [(c + alpha) / (sum(counts_b) + alpha * cells) for c in counts_b]
    kl_ab = sum(a * math.log(a / b) for a, b in zip(pa, pb))
    kl_ba = sum(b * math.log(b / a) for a, b in zip(pa, pb))
    return 0.5 * (kl_ab + kl_ba)


# ---------------------------------------------------------------- fixtures

CATALOG = default_catalog()
NO_LIMITS = LimitedKnowledgeSpec(0.0, ())


def _script(sid: str, domain: str, fp_types=()) -> LabeledScript:
    calls = (api_call("Document.createElement", ("div",)),)
    trace = ScriptTrace(script_id=sid, source_domain=domain, calls=calls)
    return LabeledScript(trace=trace, label=bool(fp_types), fp_types=frozenset(fp_types))


def _corpus(scripts, placements=None) -> ScriptCorpus:
    """The scripts' corpus; placements default to each trace's source domain."""
    if placements is None:
        placements = {}
        for item in scripts:
            placements.setdefault(item.trace.source_domain, []).append(item.trace.script_id)
    return ScriptCorpus.from_scripts(scripts, CATALOG, placements)


def _ids(corpus: ScriptCorpus, view: ParticipantDataset) -> tuple[str, ...]:
    """The script ids of a view's rows."""
    return tuple(corpus.script_ids[i] for i in view.rows)


def _participant(pid, per_combo_counts, corpus_domain="d0",
                 spec=NO_LIMITS) -> ParticipantDataset:
    """Participant whose FP scripts realize the given combo -> count map.

    The view is participant pid's of a partition where every participant
    visits corpus_domain, so spec's limit for pid applies to it.
    """
    scripts = []
    k = 0
    for combo, count in per_combo_counts.items():
        names = tuple(FP_TYPES[i] for i in range(4) if combo >> i & 1)
        for _ in range(count):
            scripts.append(_script(f"s{pid}-{k}#00", corpus_domain, names))
            k += 1
    scripts.append(_script(f"s{pid}-benign#00", corpus_domain))
    corpus = _corpus(scripts)
    return build_partition(corpus, [[corpus_domain]] * (pid + 1), spec)[pid]


# ---------------------------------------------------------------- ranking

def test_ranking_validates_and_round_trips(tmp_path):
    ranking = DomainRanking(("a.com", "b.com", "c.com"))
    assert ranking.pairs() == [("a.com", 1), ("b.com", 2), ("c.com", 3)]
    path = tmp_path / "ranking.txt"
    save_ranking(ranking, path)
    assert parse_ranking(path.read_bytes(), path).domains == ranking.domains

    with pytest.raises(InvalidInput):
        DomainRanking(("a.com", "a.com"))
    with pytest.raises(InvalidInput):
        DomainRanking.from_pairs([("a.com", 1), ("b.com", 3)])


def test_ranking_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1\ta.com\nnot-a-rank\tb.com\n")
    with pytest.raises(ParseError) as err:
        parse_ranking(bad.read_bytes(), bad)
    assert err.value.line == 2

    non_contiguous = tmp_path / "gap.txt"
    non_contiguous.write_text("1\ta.com\n3\tb.com\n")
    with pytest.raises(ParseError):
        parse_ranking(non_contiguous.read_bytes(), non_contiguous)


# ---------------------------------------------------------------- zipf draws

def test_zipf_exhaustion_and_errors():
    ranking = DomainRanking(tuple(f"d{i}" for i in range(6)))
    rng = np.random.default_rng(0)
    drawn = zipf_sample_domains(ranking, 6, 1.0, rng)
    assert sorted(drawn) == sorted(ranking.domains)
    assert len(set(drawn)) == 6

    with pytest.raises(InvalidInput):
        zipf_sample_domains(ranking, 7, 1.0, rng)
    with pytest.raises(InvalidInput):
        zipf_sample_domains(ranking, 0, 1.0, rng)
    with pytest.raises(InvalidInput):
        zipf_sample_domains(ranking, 2, 0.0, rng)
    with pytest.raises(InvalidInput):
        zipf_sample_domains(ranking, 2, 1.0, None)


def test_zipf_two_domain_first_draw_probability():
    # ranks {1, 2}, exponent 1: P(first draw is rank 1) = 1 / (1 + 1/2) = 2/3
    ranking = DomainRanking(("top", "second"))
    rng = np.random.default_rng(7)
    n = 100_000
    hits = sum(zipf_sample_domains(ranking, 1, 1.0, rng)[0] == "top" for _ in range(n))
    sigma = math.sqrt(n * (2 / 3) * (1 / 3))
    assert abs(hits - n * 2 / 3) < 3 * sigma


def test_zipf_first_draw_chi_squared():
    n_domains, n_draws = 20, 100_000
    ranking = DomainRanking(tuple(f"d{i}" for i in range(n_domains)))
    weights = ranking.weights(1.0)
    expected = n_draws * weights / weights.sum()
    rng = np.random.default_rng(123)
    counts = np.zeros(n_domains)
    for _ in range(n_draws):
        counts[int(zipf_sample_domains(ranking, 1, 1.0, rng)[0][1:])] += 1
    # per-cell 3-sigma band plus an overall goodness-of-fit bound
    p = weights / weights.sum()
    sigma = np.sqrt(n_draws * p * (1 - p))
    assert (np.abs(counts - expected) <= 3 * sigma).all()
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(0.999, df=n_domains - 1)


def test_zipf_matches_sequential_renormalized_oracle():
    # joint ordered-draw frequencies vs the closed-form product, 3 domains pick 2
    ranking = DomainRanking(("d0", "d1", "d2"))
    weights = ranking.weights(1.0)
    rng = np.random.default_rng(42)
    n = 200_000
    outcomes = {perm: 0 for perm in itertools.permutations(range(3), 2)}
    for _ in range(n):
        got = zipf_sample_domains(ranking, 2, 1.0, rng)
        outcomes[(int(got[0][1]), int(got[1][1]))] += 1
    chi2 = 0.0
    for perm, observed in outcomes.items():
        expected = n * sequential_wor_probability(weights, perm)
        chi2 += (observed - expected) ** 2 / expected
    assert chi2 < stats.chi2.ppf(0.999, df=len(outcomes) - 1)


def test_zipf_draws_are_scheduling_independent():
    ranking = DomainRanking(tuple(f"d{i}" for i in range(30)))
    a = zipf_sample_domains(ranking, 10, 1.0, np.random.default_rng(5))
    b = zipf_sample_domains(ranking, 10, 1.0, np.random.default_rng(5))
    assert a == b


# ---------------------------------------------------------------- assignment

def test_assign_scripts_dedups_and_keeps_order():
    shared = _script("shared#00", "a.com")
    scripts = [
        _script("a1#00", "a.com"),
        shared,
        _script("b1#00", "b.com", ("canvas",)),
        LabeledScript(trace=ScriptTrace("shared#00", "b.com", shared.trace.calls),
                      label=False, fp_types=frozenset()),
    ]
    corpus = _corpus(scripts)
    other, ds = build_partition(corpus, [["b.com"], ["a.com", "b.com"]], NO_LIMITS)
    assert _ids(corpus, ds) == ("a1#00", "shared#00", "b1#00")
    assert ds.participant_id == 1
    assert ds.urls == ("a.com", "b.com")
    assert ds.labels.tolist() == [False, False, True]
    assert (other.participant_id, _ids(corpus, other)) == (0, ("b1#00", "shared#00"))

    with pytest.raises(InvalidInput):
        build_partition(corpus, [["a.com"], ["missing.com"]], NO_LIMITS)


def test_assign_scripts_empty_domains_yield_empty_dataset():
    corpus = _corpus([_script("s#00", "a.com")], placements={"a.com": ["s#00"], "b.com": []})
    limited = LimitedKnowledgeSpec(1.0, ((0, "canvas"), (1, "audio")))
    for spec in (NO_LIMITS, limited):
        empty_domain, no_domains = build_partition(corpus, [["b.com"], []], spec)
        for ds in (empty_domain, no_domains):
            assert ds.n_scripts == 0
            assert ds.features.shape == (0, CATALOG.slot_count)
    assert build_partition(corpus, [], NO_LIMITS) == []


def test_view_over_another_matrix_keeps_rows_and_labels():
    scripts = [_script("a1#00", "a.com"), _script("b1#00", "b.com", ("canvas",)),
               _script("b2#00", "b.com")]
    corpus = _corpus(scripts)
    ds = build_partition(corpus, [["b.com"]] * 5, NO_LIMITS)[4]
    x = np.arange(corpus.n_scripts * 2, dtype=float).reshape(corpus.n_scripts, 2)
    view = ds.over(x)
    assert np.array_equal(view.features, x[ds.rows])
    assert view.labels.tolist() == ds.labels.tolist() == [True, False]
    assert (view.participant_id, view.urls, _ids(corpus, view)) \
        == (4, ds.urls, _ids(corpus, ds))
    assert np.array_equal(ds.features, corpus.X.toarray()[ds.rows])  # the original is unchanged
    with pytest.raises(InvalidInput):
        ds.over(x[:-1])


def test_corpus_placements_validate_script_ids():
    with pytest.raises(InvalidInput):
        _corpus([_script("s#00", "a.com")], placements={"a.com": ["ghost#00"]})


def test_corpus_keeps_first_trace_per_script_id():
    first = _script("dup#00", "a.com", ("audio",))
    second = _script("dup#00", "b.com")
    corpus = _corpus([first, second])
    assert corpus.n_scripts == 1
    assert corpus.labels[0]
    # both observations still count as placements
    assert corpus.rows_for_domain("a.com").tolist() == [0]
    assert corpus.rows_for_domain("b.com").tolist() == [0]


def test_partition_datasets_are_subsets_of_corpus():
    rng = np.random.default_rng(11)
    scripts, domains = [], []
    for d in range(40):
        domain = f"site{d}.com"
        domains.append(domain)
        for s in range(int(rng.integers(0, 5))):
            fp = ("webrtc",) if rng.random() < 0.2 else ()
            scripts.append(_script(f"s{d}-{s}#00", domain, fp))
    ranking = DomainRanking(tuple(domains))
    corpus = _corpus(scripts, placements={
        **{d: [] for d in domains},
        **{d: [s.trace.script_id for s in scripts if s.trace.source_domain == d]
           for d in domains},
    })
    draws = draw_domains(ranking, 8, urls_per_participant=12, master_seed=99)
    parts = build_partition(corpus, draws, NO_LIMITS)
    assert [p.participant_id for p in parts] == list(range(8))
    all_ids = set(corpus.script_ids)
    for p in parts:
        assert len(p.urls) == 12
        assert set(_ids(corpus, p)) <= all_ids
        assert len(set(_ids(corpus, p))) == p.n_scripts

    spec = make_limited_knowledge(range(8), 0.5, master_seed=99)
    limited = build_partition(corpus, draw_domains(ranking, 8, 12, master_seed=99), spec)
    again = build_partition(corpus, draw_domains(ranking, 8, 12, master_seed=99), spec)
    allowed = dict(spec.assignments)
    for full, a, b in zip(parts, limited, again):
        assert a.urls == b.urls == full.urls and np.array_equal(a.rows, b.rows)
        if full.participant_id in allowed:
            assert set(a.rows.tolist()) <= set(full.rows.tolist())
        else:
            assert np.array_equal(a.rows, full.rows)

    with pytest.raises(InvalidInput):
        build_partition(corpus, [["nowhere.com"]], NO_LIMITS)


# ---------------------------------------------------------------- limited knowledge

def test_apply_limited_knowledge_filters_and_is_idempotent():
    combos = {0b0001: 3, 0b0100: 2, 0b0101: 1}
    ds = _participant(1, combos)
    out = _participant(1, combos, spec=LimitedKnowledgeSpec(1.0, ((1, "canvas"),)))
    masks = out.fp_bitmasks
    # every kept row passes the rule, so limiting the view again would keep it whole
    assert ((masks == 0) | (masks & 0b0001 != 0)).all()
    # benign script plus 3 pure canvas plus 1 canvas+webrtc, in the unlimited order
    assert out.n_scripts == 5
    keep = (ds.fp_bitmasks == 0) | (ds.fp_bitmasks & 0b0001 != 0)
    assert np.array_equal(out.rows, ds.rows[keep])
    # a limit on another participant leaves this one whole
    other = _participant(1, combos, spec=LimitedKnowledgeSpec(1.0, ((0, "canvas"),)))
    assert np.array_equal(other.rows, ds.rows)

    with pytest.raises(InvalidInput):
        LimitedKnowledgeSpec(1.0, ((1, "fonts"),))


def test_apply_limited_knowledge_trivial_cases():
    only_webrtc = _participant(2, {0b0100: 4}, spec=LimitedKnowledgeSpec(1.0, ((2, "canvas"),)))
    assert (only_webrtc.fp_bitmasks == 0).all() and only_webrtc.n_scripts == 1

    benign = _participant(3, {})
    same = _participant(3, {}, spec=LimitedKnowledgeSpec(1.0, ((3, "audio"),)))
    assert np.array_equal(same.rows, benign.rows)


def test_make_limited_knowledge_spec():
    spec = make_limited_knowledge(range(100), 0.5, master_seed=4)
    assert len(spec.assignments) == 50
    assert all(t in FP_TYPES for _, t in spec.assignments)
    again = make_limited_knowledge(range(100), 0.5, master_seed=4)
    assert spec == again
    assert make_limited_knowledge(range(100), 0.0, master_seed=4).assignments == ()

    everyone = make_limited_knowledge([7], 1.0, master_seed=1)
    assert [pid for pid, _ in everyone.assignments] == [7]

    with pytest.raises(InvalidInput):
        make_limited_knowledge(range(4), 1.5)


def test_limited_knowledge_spec_json_round_trips():
    spec = make_limited_knowledge(range(10), 0.3, master_seed=2)
    encoded = json.loads(json.dumps(spec.to_dict()))
    assert encoded == {"fraction": 0.3,
                       "assignments": [[pid, t] for pid, t in spec.assignments]}
    assert LimitedKnowledgeSpec.from_dict(encoded) == spec
    for bad in ({"assignments": []}, {"fraction": 0.1}, {"fraction": 0.1, "assignments": 3},
                {"fraction": 0.1, "assignments": [[0, "fonts"]]}):
        with pytest.raises(InvalidInput):
            LimitedKnowledgeSpec.from_dict(bad)


@pytest.mark.parametrize("fraction", [True, "0.5"], ids=["bool", "string"])
def test_limited_knowledge_from_dict_refuses_a_fraction_that_is_not_a_number(fraction):
    with pytest.raises(InvalidInput, match="must be a number"):
        LimitedKnowledgeSpec.from_dict({"fraction": fraction, "assignments": []})


@pytest.mark.parametrize("assignments, reason", [
    ([[1.5, "canvas"]], "must be an integer"),   # a fractional participant id
    ([["2", "audio"]], "must be an integer"),    # a participant id as a string
    ([[True, "canvas"]], "must be an integer"),  # a bool is not a participant id
    ([[0, 3]], "must be a string"),              # refused as a type, not read as "3"
], ids=["float-id", "string-id", "bool-id", "int-type"])
def test_limited_knowledge_from_dict_refuses_a_mistyped_assignment(assignments, reason):
    with pytest.raises(InvalidInput, match=reason):
        LimitedKnowledgeSpec.from_dict({"fraction": 0.1, "assignments": assignments})


# ---------------------------------------------------------------- non-iidness

def test_non_iidness_identical_distributions_near_zero():
    parts = [_participant(i, {0b0001: 4, 0b1000: 2}) for i in range(6)]
    assert non_iidness_score(parts) < 1e-6


def test_non_iidness_two_participant_closed_form():
    a = _participant(0, {0b0001: 5})
    b = _participant(1, {0b0100: 3})
    counts_a = [0.0] * N_TYPE_COMBINATIONS
    counts_a[0b0001 - 1] = 5.0
    counts_b = [0.0] * N_TYPE_COMBINATIONS
    counts_b[0b0100 - 1] = 3.0
    expected = two_distribution_symkl(counts_a, counts_b)
    got = non_iidness_score([a, b])
    assert got == pytest.approx(expected, abs=1e-9)


def test_non_iidness_symmetric_and_excludes_fp_free():
    parts = [
        _participant(0, {0b0001: 5, 0b0010: 1}),
        _participant(1, {0b0100: 3}),
        _participant(2, {0b1000: 2, 0b1100: 2}),
        _participant(3, {}),  # no fingerprinting scripts: excluded
    ]
    forward = non_iidness_score(parts)
    backward = non_iidness_score(list(reversed(parts)))
    assert forward == pytest.approx(backward, rel=1e-12)

    relabeled = [dataclasses.replace(p, participant_id=90 + i)
                 for i, p in enumerate(parts)]
    assert non_iidness_score(relabeled) == pytest.approx(forward, rel=1e-12)


def test_non_iidness_requires_two_eligible():
    with pytest.raises(InsufficientData):
        non_iidness_score([_participant(0, {0b0001: 1}), _participant(1, {})])


def test_non_iidness_sampling_is_seeded():
    kinds = [_participant(0, {combo: 3}) for combo in range(1, 16)]
    parts = [dataclasses.replace(kinds[i % 15], participant_id=i)
             for i in range(NON_IID_SAMPLE_SIZE + 12)]
    a = non_iidness_score(parts, rng=np.random.default_rng(3))
    b = non_iidness_score(parts, rng=np.random.default_rng(3))
    assert a == b
    with pytest.raises(InvalidInput):
        non_iidness_score(parts, rng=None)
    # up to NON_IID_SAMPLE_SIZE eligible participants are all scored, no rng needed
    assert non_iidness_score(parts[:NON_IID_SAMPLE_SIZE]) > 0
