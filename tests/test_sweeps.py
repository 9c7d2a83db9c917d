"""Sweep recipe tests on a miniature grid."""

import dataclasses
import math

import numpy as np
import pytest

import fedtrace.sweeps as sweeps
from fedtrace.errors import ConfigError
from fedtrace.experiment import ExperimentConfig
from fedtrace.features import default_catalog
from fedtrace.sweeps import DEFAULT_SEEDS, RECIPES, run_sweep
from fedtrace.synth import GeneratorConfig
from tables import read_metrics


@pytest.fixture(scope="module")
def base() -> ExperimentConfig:
    return ExperimentConfig(
        generator=GeneratorConfig(n_scripts=2500, fp_prevalence=0.02),
        n_participants=20,
        urls_per_participant=8,
        rounds=2,
        epsilon=5.0,
        local_iterations=6,
    )


def test_registry():
    assert set(RECIPES) == {"participants", "epsilon", "feature_sets",
                            "ext_high_entropy", "feat_norm_ablation", "non_iid"}
    assert DEFAULT_SEEDS == (0, 1, 2, 3, 4)


def test_unknown_recipe(tmp_path):
    with pytest.raises(ConfigError):
        run_sweep("warp", tmp_path)


def test_empty_seeds(tmp_path, base):
    with pytest.raises(ConfigError):
        run_sweep("feature_sets", tmp_path, base=base, seeds=())


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_recipe_configs_round_trip(recipe, base, monkeypatch):
    """Every config a recipe builds reads back from its to_dict (no training run)."""
    built = []
    weights = np.zeros(default_catalog().slot_count)

    def run_one(base, spec, seed, cache, extra_fn=None, prepared=None):
        config = sweeps._run_config(base, spec, seed)
        built.append(config)
        return sweeps.SweepRun(config, spec.series, spec.x, 1.0, 1.0, {"_weights": weights})

    monkeypatch.setattr(sweeps, "_run_one", run_one)
    small = dataclasses.replace(base, generator=GeneratorConfig(n_scripts=300,
                                                                fp_prevalence=0.05))
    RECIPES[recipe](small, (0, 1))
    assert built
    for config in built:
        assert ExperimentConfig.from_dict(config.to_dict()) == config


@pytest.fixture(scope="module")
def feature_sets_result(base, tmp_path_factory):
    return run_sweep("feature_sets", tmp_path_factory.mktemp("sweep_fs"),
                     base=base, seeds=(0, 1))


@pytest.fixture(scope="module")
def non_iid_result(base, tmp_path_factory):
    return run_sweep("non_iid", tmp_path_factory.mktemp("sweep_lk"),
                     base=base, seeds=(0, 1))


class TestFeatureSetsRecipe:
    @pytest.fixture
    def result(self, feature_sets_result):
        return feature_sets_result

    def test_grid(self, result):
        assert len(result.runs) == 10
        names = {r.config.feature_set for r in result.runs}
        assert names == {"All", "FPInspector", "JShelter", "HighEntropy",
                         "ExtHighEntropy"}
        assert all(r.config.epsilon == math.inf for r in result.runs)
        assert all(0.0 <= r.auprc <= 1.0 for r in result.runs)

    def test_summary_groups(self, result):
        assert len(result.summary) == 5
        assert all(row["seeds"] == 2 for row in result.summary)
        assert all(row["auprc_std"] >= 0.0 for row in result.summary)

    def test_output_files(self, result, base):
        assert set(result.files) == {"runs", "summary", "series"}
        for path in result.files.values():
            assert path.exists()
        snapshot, rows = read_metrics(result.files["runs"])
        assert snapshot == base.to_dict()
        assert len(rows) == 10
        assert rows[0]["series"] == "feature_set"
        snapshot, rows = read_metrics(result.files["series"])
        assert snapshot == base.to_dict()
        assert len(rows) == 5  # one per feature set, seeds aggregated
        assert {r["x"] for r in rows} == {"All", "FPInspector", "JShelter",
                                          "HighEntropy", "ExtHighEntropy"}

    def test_corpus_built_once_per_seed(self, base, tmp_path, monkeypatch):
        calls = []
        original = sweeps.prepare_data

        def counting(config):
            calls.append(config.seed)
            return original(config)

        monkeypatch.setattr(sweeps, "prepare_data", counting)
        run_sweep("feature_sets", tmp_path, base=base, seeds=(3, 3, 4))
        assert sorted(calls) == [3, 4]  # deduped seeds, one corpus each


def _count_calls(monkeypatch, *names) -> dict:
    """Count calls of sweeps' module-level names, each still doing its work."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _original=getattr(sweeps, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(sweeps, name, counting)
    return counts


@pytest.mark.parametrize("recipe,corpora,moments",
                         [("feat_norm_ablation", 2, 2), ("ext_high_entropy", 2, 8)])
def test_memo_builds_each_corpus_and_moments_once(recipe, corpora, moments, base,
                                                  tmp_path, monkeypatch):
    counts = _count_calls(monkeypatch, "prepare_data", "participant_moments")
    small = dataclasses.replace(base, generator=GeneratorConfig(n_scripts=1500,
                                                                fp_prevalence=0.02))
    run_sweep(recipe, tmp_path, base=small, seeds=(0, 1))
    assert counts == {"prepare_data": corpora, "participant_moments": moments}


class TestParticipantsRecipe:
    def test_grid(self, base, tmp_path):
        result = run_sweep("participants", tmp_path, base=base, seeds=(0,))
        assert [r.x for r in result.runs] == [1, 10, 100, 1000]
        assert all(r.config.epsilon == math.inf for r in result.runs)
        assert all(r.series == base.feature_set for r in result.runs)
        # every W resolves q to roughly 100 sampled per round
        assert result.runs[-1].config.resolved_q == pytest.approx(0.1)


class TestNormAblationRecipe:
    def test_grid(self, base, tmp_path):
        result = run_sweep("feat_norm_ablation", tmp_path, base=base, seeds=(0,))
        assert len(result.runs) == 6
        by_series = {}
        for r in result.runs:
            by_series.setdefault(r.series, []).append(r)
        assert set(by_series) == {"norm-on", "norm-off"}
        for series, runs in by_series.items():
            assert sorted(r.x for r in runs) == [1.0, 5.0, math.inf]
            assert all(r.config.normalize == (series == "norm-on") for r in runs)


class TestNonIidRecipe:
    @pytest.fixture
    def result(self, non_iid_result):
        return non_iid_result

    def test_grid_and_extras(self, result):
        assert len(result.runs) == 12
        for r in result.runs:
            assert r.series == "limited-knowledge"
            assert r.extra["non_iidness"] >= 0.0
            assert r.extra["iid_ratio"] > 0.0
            if r.config.limited_knowledge_fraction == 0.0:
                assert r.extra["iid_ratio"] == 1.0

    def test_knowledge_limit_raises_non_iidness(self, result):
        def mean_at(fraction):
            vals = [r.extra["non_iidness"] for r in result.runs
                    if r.config.limited_knowledge_fraction == fraction]
            return sum(vals) / len(vals)

        assert mean_at(1.0) > mean_at(0.0)

    def test_extras_reach_the_csv(self, result):
        _, rows = read_metrics(result.files["runs"])
        assert "non_iidness" in rows[0] and "iid_ratio" in rows[0]
        assert all(float(row["non_iidness"]) >= 0.0 for row in rows)


class TestExtHighEntropyRecipe:
    def test_probe_and_rebuild(self, base, tmp_path):
        result = run_sweep("ext_high_entropy", tmp_path, base=base, seeds=(0,))
        names = [r.config.feature_set for r in result.runs]
        assert names == ["All", "HighEntropy", "ExtHighEntropyRebuilt",
                         "ExtHighEntropy"]
        probe = result.runs[0]
        assert probe.config.epsilon == math.inf
        assert "_weights" not in probe.extra  # internal stash never leaks
        for r in result.runs[1:]:
            assert r.config.epsilon == base.epsilon

    def test_rebuilt_set_is_scored_on_the_probe_corpus(self, base, tmp_path, monkeypatch):
        scored = []
        original = sweeps.score_splits

        def recording(prepared, config, model, stats):
            scored.append((config.seed, config.feature_set, prepared.corpus))
            return original(prepared, config, model, stats)

        monkeypatch.setattr(sweeps, "score_splits", recording)
        run_sweep("ext_high_entropy", tmp_path, base=base, seeds=(0, 1))
        for seed in (0, 1):
            corpora = [(name, corpus) for s, name, corpus in scored if s == seed]
            assert [name for name, _ in corpora] == ["All", "HighEntropy",
                                                     "ExtHighEntropyRebuilt",
                                                     "ExtHighEntropy"]
            probe = corpora[0][1]
            assert "ExtHighEntropyRebuilt" not in probe.catalog.named_sets
            for _, corpus in corpora[1:]:
                assert corpus.X is probe.X
                assert "ExtHighEntropyRebuilt" in corpus.catalog.named_sets
