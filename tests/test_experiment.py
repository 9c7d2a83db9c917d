"""Pipeline stage tests: config handling, calibration split, artifacts."""

import dataclasses
import hashlib
import json
import math
import shutil
import tracemalloc
import zipfile

import numpy as np
import pytest

from fedtrace import experiment
from fedtrace.artifacts import ZIP_EPOCH, read_npz
from fedtrace.cli import apply_overrides
from fedtrace.csr import CSRMatrix
from fedtrace.errors import (CalibrationError, ConfigError, FieldError, InvalidInput,
                             StageDependencyError)
from fedtrace.experiment import (CATALOG_FILE, CHECKPOINT_FILE, FEATURES_FILE, LEDGER_FILE,
                                 METRICS_FILE, NORM_STATS_FILE, PARTITION_FILE,
                                 PLACEMENTS_FILE, PRESETS, RANKING_FILE, ROUND_RECORDS_FILE,
                                 SPLIT_FILE, TRACES_FILE, ExperimentConfig, NoiseBudget,
                                 build_participants, calibrate_budget,
                                 config_snapshot_line, corpus_from_traces, load_corpus,
                                 participants_from_manifest, prepare_data, preset_config,
                                 read_config_file,
                                 resolve_mask, run_pipeline, smoke_preset,
                                 stage_account, stage_evaluate, stage_generate,
                                 stage_partition, stage_train, train_in_memory,
                                 training_ranking, write_csv)
from fedtrace.features import default_catalog
from fedtrace.fednorm import normalize_matrix, participant_moments
from fedtrace.partition import DomainRanking, LimitedKnowledgeSpec, build_partition, parse_ranking
from fedtrace.privacy import PlannedQuery, PrivacyLedger, plan_epsilon
from fedtrace.synth import DEFAULT_TYPE_MIX, GeneratorConfig, SplitSpec, generate_corpus
from tables import read_metrics


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        generator=GeneratorConfig(n_scripts=2500, fp_prevalence=0.02),
        n_participants=20,
        urls_per_participant=8,
        rounds=3,
        epsilon=5.0,
        local_iterations=8,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ----------------------------------------------------------------- config

class TestConfig:
    def test_round_trip_defaults(self):
        cfg = ExperimentConfig()
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_infinite_epsilon(self):
        cfg = ExperimentConfig(epsilon=math.inf)
        encoded = cfg.to_dict()
        assert encoded["epsilon"] == "inf"
        assert ExperimentConfig.from_dict(encoded).epsilon == math.inf
        assert ExperimentConfig.from_dict({"epsilon": "Infinity"}).epsilon == math.inf

    def test_partial_dict_takes_defaults(self):
        cfg = ExperimentConfig.from_dict({"rounds": 5})
        assert cfg.rounds == 5
        assert cfg.n_participants == ExperimentConfig().n_participants

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"optimizer_kind": "sgd"})
        assert err.value.field == "optimizer_kind"

    def test_unknown_generator_field_rejected(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"generator": {"n_scripts": 100, "nope": 1}})
        assert err.value.field == "generator.nope"

    @pytest.mark.parametrize("field,value", [
        ("epsilon", -1.0),
        ("epsilon", 0.0),
        ("delta", 0.0),
        ("delta", 1.0),
        ("norm_fraction", 0.0),
        ("norm_fraction", 1.0),
        ("norm_mode", "raw"),
        ("q", 0.0),
        ("q", 1.5),
        ("norm_q", -0.1),
        ("rounds", 0),
        ("n_participants", 0),
        ("urls_per_participant", 0),
        ("zipf_exponent", 0.0),
        ("limited_knowledge_fraction", 1.5),
        ("clip_norm", 0.0),
        ("local_epochs", 0),
        ("local_iterations", 0),
        ("eval_every", -1),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field", ["clip_mu", "clip_var"])
    def test_clip_bound_error_names_its_field(self, field):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**{field: 0.0})
        assert err.value.field == field

    def test_non_integer_int_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"rounds": 2.5})

    def test_bool_field_requires_bool(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"normalize": "yes"})

    @pytest.mark.parametrize("field,value", [
        ("epsilon", math.nan),
        ("clip_norm", math.nan),
        ("zipf_exponent", math.nan),
        ("variance_floor", math.inf),
        ("clip_var", 10 ** 400),
    ])
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({field: value})
        assert err.value.field == field

    @pytest.mark.parametrize("field,value", [
        ("clip_var", math.inf),
        ("clip_norm", math.nan),
        ("epsilon", math.nan),
        ("variance_floor", -math.inf),
    ])
    def test_non_finite_float_rejected_at_construction(self, field, value):
        for build in (lambda: ExperimentConfig(**{field: value}),
                      lambda: dataclasses.replace(ExperimentConfig(), **{field: value})):
            with pytest.raises(ConfigError) as err:
                build()
            assert err.value.field == field

    @pytest.mark.parametrize("field,value", [
        ("feature_set", 5),
        ("normalize", "no"),
        ("n_participants", 2.5),
        ("clip_var", 10 ** 400),
        ("rounds", "5"),
    ], ids=["int-as-str", "str-as-bool", "fraction-as-int", "int-beyond-float",
            "str-as-int"])
    def test_wrongly_typed_value_rejected_at_construction(self, field, value):
        for build in (lambda: ExperimentConfig(**{field: value}),
                      lambda: dataclasses.replace(ExperimentConfig(), **{field: value})):
            with pytest.raises(ConfigError) as err:
                build()
            assert err.value.field == field

    @pytest.mark.parametrize("cls,base", [
        (ExperimentConfig, {}),
        (GeneratorConfig, {"n_scripts": 10}),
    ], ids=["experiment", "generator"])
    def test_negative_seed_rejected(self, cls, base):
        # SeedSequence refuses a negative entropy; the config refuses it first
        for build in (lambda: cls.from_dict({**base, "seed": -1}),
                      lambda: cls(**base, seed=-1),
                      lambda: dataclasses.replace(cls(**base), seed=-1)):
            with pytest.raises(ConfigError) as err:
                build()
            assert err.value.field == "seed"

    def test_construction_stores_what_from_dict_reads(self):
        cfg = ExperimentConfig(rounds=4.0, epsilon=5, q=1,
                               generator=GeneratorConfig(n_scripts=5e3))
        assert (type(cfg.rounds), type(cfg.epsilon), type(cfg.q)) == (int, float, float)
        assert type(cfg.generator.n_scripts) is int
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        listed = GeneratorConfig(n_scripts=10, fp_type_mix=list(DEFAULT_TYPE_MIX))
        assert listed.fp_type_mix == DEFAULT_TYPE_MIX
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(generator={"n_scripts": 10, "nope": 1})
        assert err.value.field == "generator.nope"

    def test_non_finite_generator_float_rejected_at_construction(self):
        with pytest.raises(ConfigError) as err:
            GeneratorConfig(n_scripts=10, fp_prevalence=math.inf)
        assert err.value.field == "fp_prevalence"
        with pytest.raises(ConfigError) as err:
            GeneratorConfig(n_scripts=10, fp_type_mix=(math.nan,) + DEFAULT_TYPE_MIX[1:])
        assert err.value.field == "fp_type_mix[0]"

    @pytest.mark.parametrize("name", ["defaults", *sorted(PRESETS)])
    def test_to_dict_round_trips(self, name):
        config = ExperimentConfig() if name == "defaults" else PRESETS[name]()
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_generator_range_error_names_the_field_path(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"generator": {"n_scripts": 10, "fp_prevalence": 2}})
        assert err.value.field == "generator.fp_prevalence"

    def test_integral_float_reads_as_int(self):
        cfg = ExperimentConfig.from_dict({"rounds": 4.0, "generator": {"n_scripts": 5e3}})
        assert (cfg.rounds, cfg.generator.n_scripts) == (4, 5000)
        assert type(cfg.rounds) is int and type(cfg.generator.n_scripts) is int

    @pytest.mark.parametrize("generator,field", [
        ({"n_scripts": 500.5}, "generator.n_scripts"),
        ({"n_scripts": "500"}, "generator.n_scripts"),
        ({"n_scripts": 500, "fp_type_mix": 3}, "generator.fp_type_mix"),
        ({"n_scripts": 500, "fp_prevalence": math.nan}, "generator.fp_prevalence"),
        ({"n_scripts": 500, "near_miss_rate": True}, "generator.near_miss_rate"),
        ({"fp_prevalence": 0.1}, "generator.n_scripts"),
    ], ids=["int-as-fraction", "int-as-string", "mix-as-scalar", "nan-prevalence",
            "bool-as-float", "missing-n_scripts"])
    def test_generator_fields_are_typed(self, generator, field):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"generator": generator})
        assert err.value.field == field

    def test_resolved_q_targets_hundred_sampled(self):
        assert ExperimentConfig(n_participants=10_000).resolved_q == pytest.approx(0.01)
        assert ExperimentConfig(n_participants=50).resolved_q == 1.0
        assert ExperimentConfig(q=0.25).resolved_q == 0.25

    def test_resolved_norm_q_follows_q(self):
        cfg = ExperimentConfig(n_participants=1000)
        assert cfg.resolved_norm_q == cfg.resolved_q
        assert ExperimentConfig(norm_q=0.5).resolved_norm_q == 0.5

    def test_master_seed_overrides_generator_seed(self):
        cfg = ExperimentConfig(generator=GeneratorConfig(n_scripts=100, seed=3), seed=9)
        assert cfg.resolved_generator.seed == 9
        assert cfg.generator.seed == 3  # stored config unchanged

    def test_optimizer_budget(self):
        assert ExperimentConfig(local_iterations=7).optimizer.max_iterations == 7


def overridden(assignments) -> ExperimentConfig:
    data = ExperimentConfig().to_dict()
    apply_overrides(data, assignments)
    return ExperimentConfig.from_dict(data)


class TestOverridesAndFiles:
    def test_dotted_overrides(self):
        cfg = overridden([
            "generator.n_scripts=5000",
            "feature_set=HighEntropy",   # bare string falls back to str
            "epsilon=inf",
            "q=0.5",
        ])
        assert cfg.generator.n_scripts == 5000
        assert cfg.feature_set == "HighEntropy"
        assert cfg.epsilon == math.inf
        assert cfg.q == 0.5

    def test_override_requires_assignment(self):
        with pytest.raises(ConfigError):
            overridden(["rounds"])

    def test_override_through_scalar_rejected(self):
        with pytest.raises(ConfigError):
            overridden(["rounds.inner=1"])

    def test_override_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            overridden(["nope=1"])

    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rounds": 4, "generator": {"n_scripts": 123}}))
        cfg = ExperimentConfig.from_dict(read_config_file(path))
        assert cfg.rounds == 4
        assert cfg.generator.n_scripts == 123

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            read_config_file(path)

    def test_load_config_non_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            read_config_file(path)

    def test_presets(self):
        smoke = preset_config("smoke")
        assert smoke.generator.n_scripts == 20_000
        assert smoke.n_participants == 100
        trend = preset_config("paper-trend")
        assert trend.generator.n_scripts == 100_000
        assert trend.n_participants == 1000
        with pytest.raises(ConfigError):
            preset_config("warp")

    def test_write_csv_and_read_metrics(self, tmp_path):
        path = tmp_path / "table.csv"
        cfg = smoke_preset()
        write_csv(path, ("a", "b", "c"), [(1, 0.5, None), ("x", math.inf, 2)],
                  snapshot=config_snapshot_line(cfg))
        snapshot, rows = read_metrics(path)
        assert snapshot == cfg.to_dict()
        assert rows == [{"a": "1", "b": "0.5", "c": ""},
                        {"a": "x", "b": "inf", "c": "2"}]


# ------------------------------------------------------------ calibration

class TestCalibrateBudget:
    def test_infinite_epsilon_means_no_noise(self):
        assert calibrate_budget(tiny_config(epsilon=math.inf), 149) == NoiseBudget(0.0, 0.0)

    def test_norm_off_spends_everything_on_training(self):
        cfg = tiny_config(normalize=False, epsilon=2.0, rounds=5)
        budget = calibrate_budget(cfg, 149)
        assert budget.z_norm == 0.0
        replay = plan_epsilon([PlannedQuery(cfg.resolved_q, cfg.rounds)],
                              budget.z_train, cfg.delta)
        assert 0.99 * cfg.epsilon <= replay <= cfg.epsilon

    def test_two_stage_split(self):
        cfg = tiny_config(epsilon=2.0, rounds=5, norm_fraction=0.1)
        budget = calibrate_budget(cfg, 149)
        norm_alone = plan_epsilon([PlannedQuery(cfg.resolved_norm_q, 2 * 149)],
                                  budget.z_norm, cfg.delta)
        assert norm_alone <= 0.1 * cfg.epsilon
        total = plan_epsilon(
            [PlannedQuery(cfg.resolved_norm_q, 2 * 149, z=budget.z_norm),
             PlannedQuery(cfg.resolved_q, cfg.rounds)],
            budget.z_train, cfg.delta)
        assert 0.99 * cfg.epsilon <= total <= cfg.epsilon

    def test_larger_norm_share_lowers_norm_noise(self):
        lean = calibrate_budget(tiny_config(epsilon=2.0, norm_fraction=0.05), 149)
        rich = calibrate_budget(tiny_config(epsilon=2.0, norm_fraction=0.4), 149)
        assert rich.z_norm < lean.z_norm
        assert rich.z_train > lean.z_train

    def test_small_epsilon_error_says_why(self):
        # 0.1 * 0.3 lies above the order grid's floor log(1/delta)/4095,
        # but 20 participants cannot reach it at z=1000
        with pytest.raises(CalibrationError) as exc_info:
            calibrate_budget(tiny_config(epsilon=0.3, norm_fraction=0.1), 149)
        message = str(exc_info.value)
        assert "smallest epsilon at z=1000.0 is" in message
        assert "log(1/delta)/(alpha_max - 1) = 0.002811" in message
        assert "norm_fraction*epsilon = 0.1*0.3" in message


# ------------------------------------------------------------- the stages

@pytest.fixture(scope="module")
def run_cfg() -> ExperimentConfig:
    return tiny_config(eval_every=2)


@pytest.fixture(scope="module")
def run_dir(run_cfg, tmp_path_factory):
    path = tmp_path_factory.mktemp("staged_run")
    stage_generate(run_cfg, path)
    stage_partition(run_cfg, path)
    stage_train(run_cfg, path)
    stage_evaluate(path)
    stage_account(path)
    return path


@pytest.fixture(scope="module")
def memory_result(run_cfg):
    return run_pipeline(run_cfg)


class TestStages:
    def test_in_memory_matches_staged(self, run_cfg, run_dir, memory_result):
        checkpoint = json.loads((run_dir / CHECKPOINT_FILE).read_text())
        assert np.array_equal(np.asarray(checkpoint["weights"]),
                              memory_result.outcome.model.weights)
        assert checkpoint["bias"] == memory_result.outcome.model.bias
        _, rows = read_metrics(run_dir / METRICS_FILE)
        by_split = {r["split"]: r for r in rows}
        for rec in memory_result.metrics:
            assert float(by_split[rec["split"]]["auprc"]) == rec["auprc"]

    def test_load_corpus_equals_prepare_data(self, run_cfg, run_dir, memory_result):
        loaded = load_corpus(run_dir)
        prepared = memory_result.prepared
        assert loaded.corpus.script_ids == prepared.corpus.script_ids
        assert np.array_equal(loaded.corpus.X.toarray(), prepared.corpus.X.toarray())
        assert loaded.ranking == prepared.ranking
        assert loaded.split == prepared.split
        assert np.array_equal(loaded.train_rows, prepared.train_rows)
        assert np.array_equal(loaded.test_rows, prepared.test_rows)
        assert loaded.manifest["experiment_config"] == run_cfg.to_dict()

    def test_split_rows_partition_the_corpus(self, memory_result):
        prepared = memory_result.prepared
        train, test = prepared.train_rows, prepared.test_rows
        assert np.intersect1d(train, test).size == 0
        assert train.size + test.size == prepared.corpus.n_scripts

    def test_checkpoint_contents(self, run_cfg, run_dir):
        checkpoint = json.loads((run_dir / CHECKPOINT_FILE).read_text())
        assert checkpoint["feature_set"] == run_cfg.feature_set
        assert checkpoint["config"] == run_cfg.to_dict()
        assert len(checkpoint["weights"]) == 149
        assert checkpoint["z_train"] > 0 and checkpoint["z_norm"] > 0

    def test_round_records_eval_cadence(self, run_cfg, run_dir):
        snapshot, rows = read_metrics(run_dir / ROUND_RECORDS_FILE)
        assert snapshot == run_cfg.to_dict()
        assert len(rows) == run_cfg.rounds
        for row in rows:
            r = int(row["round"])
            scored = r % run_cfg.eval_every == 0 or r == run_cfg.rounds
            assert (row["auprc"] != "") == scored

    def test_ledger_entries(self, run_cfg, run_dir):
        stored = json.loads((run_dir / LEDGER_FILE).read_text())
        assert stored["delta"] == run_cfg.delta
        by_mechanism = {}
        for mechanism, q, z, count in stored["entries"]:
            by_mechanism.setdefault(mechanism, 0)
            by_mechanism[mechanism] += count
        assert by_mechanism == {"norm-mean": 149, "norm-var": 149,
                                "fedavg-round": run_cfg.rounds}

    def test_ledger_at_q_below_one_follows_the_calibration_plan(self, run_dir, tmp_path):
        # tiny_config's W=20 resolves q to 1; sample half the participants instead
        cfg = tiny_config(eval_every=2, q=0.5)
        assert cfg.resolved_q == 0.5
        shutil.copytree(run_dir, tmp_path, dirs_exist_ok=True)
        stage_train(cfg, tmp_path)
        budget = calibrate_budget(cfg, 149)
        stored = json.loads((tmp_path / LEDGER_FILE).read_text())
        q_norm = cfg.resolved_norm_q
        assert stored["entries"] == (
            [["norm-mean", q_norm, budget.z_norm, 149], ["norm-var", q_norm, budget.z_norm, 149]]
            + [["fedavg-round", 0.5, budget.z_train, 1]] * cfg.rounds)
        report = stage_account(tmp_path)
        assert 0.99 * cfg.epsilon <= report["epsilon"] <= cfg.epsilon

    def test_last_round_auprc_scores_the_test_rows(self):
        # seed 0 is one where the two splits' AUPRCs differ
        result = run_pipeline(tiny_config(eval_every=1, seed=0))
        by_split = {m["split"]: m["auprc"] for m in result.metrics}
        assert by_split["train"] != by_split["test"]
        records = result.outcome.records
        assert all(r.auprc is not None for r in records)
        assert records[-1].auprc == by_split["test"]

    def test_partition_manifest_counts_match_rebuilt_views(self, run_cfg, run_dir,
                                                           memory_result):
        manifest = json.loads((run_dir / PARTITION_FILE).read_text())
        rebuilt = participants_from_manifest(manifest, memory_result.prepared.corpus)
        assert len(rebuilt) == run_cfg.n_participants
        for entry, part, direct in zip(manifest["participants"], rebuilt,
                                       memory_result.participants):
            assert entry["n_scripts"] == part.n_scripts
            assert np.array_equal(part.rows, direct.rows)

    def test_privacy_report(self, run_cfg, run_dir):
        report = json.loads((run_dir / "privacy_report.json").read_text())
        assert 0.99 * run_cfg.epsilon <= report["epsilon"] <= run_cfg.epsilon
        phases = {p["mechanism"]: p for p in report["phases"]}
        assert set(phases) == {"norm-mean", "norm-var", "fedavg-round"}
        assert all(p["rdp"] is not None for p in phases.values())
        total = np.zeros(len(report["orders"]))
        for p in phases.values():
            total += np.asarray(p["rdp"])
        assert np.allclose(total, report["total_rdp"], rtol=1e-12, atol=1e-15)

    def test_rerun_is_byte_identical(self, run_cfg, run_dir):
        digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in run_dir.iterdir()}
        stage_generate(run_cfg, run_dir)
        stage_partition(run_cfg, run_dir)
        stage_train(run_cfg, run_dir)
        stage_evaluate(run_dir)
        stage_account(run_dir)
        after = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in run_dir.iterdir()}
        assert digest == after

    def test_metrics_identity_comes_from_checkpoint(self, run_cfg, run_dir):
        snapshot, rows = read_metrics(run_dir / METRICS_FILE)
        assert snapshot == run_cfg.to_dict()
        assert {r["split"] for r in rows} == {"train", "test"}
        for row in rows:
            assert row["feature_set"] == run_cfg.feature_set
            assert int(row["participants"]) == run_cfg.n_participants
            assert int(row["n_positive"]) > 0


def swap_after_check(monkeypatch, name: str, source) -> None:
    """Overwrite name with source's copy right after its sha256 check returns."""
    checked_bytes = experiment._recorded_bytes

    def swapping(run_dir, checked_name, recorded, rerun):
        data = checked_bytes(run_dir, checked_name, recorded, rerun)
        if checked_name == name:
            shutil.copyfile(source / name, run_dir / name)
        return data

    monkeypatch.setattr(experiment, "_recorded_bytes", swapping)


class TestStageGuards:
    def test_stages_demand_their_inputs(self, tmp_path):
        cfg = tiny_config()
        with pytest.raises(StageDependencyError):
            stage_partition(cfg, tmp_path / "empty")
        with pytest.raises(StageDependencyError):
            stage_train(cfg, tmp_path / "empty")
        with pytest.raises(StageDependencyError):
            stage_evaluate(tmp_path / "empty")
        with pytest.raises(StageDependencyError):
            stage_account(tmp_path / "empty")

    def test_train_requires_partition(self, tmp_path):
        cfg = tiny_config()
        stage_generate(cfg, tmp_path)
        with pytest.raises(StageDependencyError):
            stage_train(cfg, tmp_path)

    def test_partition_rejects_foreign_traces(self, tmp_path):
        stage_generate(tiny_config(seed=7), tmp_path)
        with pytest.raises(StageDependencyError):
            stage_partition(tiny_config(seed=8), tmp_path)

    def test_train_rejects_foreign_partition(self, tmp_path):
        cfg = tiny_config()
        stage_generate(cfg, tmp_path)
        stage_partition(cfg, tmp_path)
        with pytest.raises(StageDependencyError):
            stage_train(dataclasses.replace(cfg, n_participants=21), tmp_path)

    def test_evaluate_rejects_foreign_catalog(self, tmp_path):
        cfg = tiny_config()
        stage_generate(cfg, tmp_path)
        stage_partition(cfg, tmp_path)
        stage_train(cfg, tmp_path)
        checkpoint = json.loads((tmp_path / CHECKPOINT_FILE).read_text())
        checkpoint["catalog_hash"] = "0" * 32
        (tmp_path / CHECKPOINT_FILE).write_text(json.dumps(checkpoint))
        with pytest.raises(StageDependencyError):
            stage_evaluate(tmp_path)

    def test_too_few_training_domains(self, tmp_path):
        cfg = tiny_config(
            generator=GeneratorConfig(n_scripts=60, fp_prevalence=0.05, n_domains=10),
            urls_per_participant=50)
        stage_generate(cfg, tmp_path)
        with pytest.raises(ConfigError) as err:
            stage_partition(cfg, tmp_path)
        assert err.value.field == "urls_per_participant"


    def test_load_corpus_refuses_missing_features(self, tmp_path):
        stage_generate(tiny_config(), tmp_path)
        (tmp_path / FEATURES_FILE).unlink()
        with pytest.raises(StageDependencyError):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("name", [CATALOG_FILE, RANKING_FILE])
    def test_load_corpus_refuses_missing_catalog_or_ranking(self, tmp_path, name):
        stage_generate(tiny_config(), tmp_path)
        (tmp_path / name).unlink()
        with pytest.raises(StageDependencyError, match=name):
            load_corpus(tmp_path)

    def test_load_corpus_refuses_an_edited_catalog(self, tmp_path):
        cfg = tiny_config(feature_set="HighEntropy")
        stage_generate(cfg, tmp_path)
        stage_partition(cfg, tmp_path)
        stage_train(cfg, tmp_path)
        catalog = json.loads((tmp_path / CATALOG_FILE).read_text())
        catalog["sets"]["HighEntropy"] = catalog["sets"]["HighEntropy"][:50]
        catalog["declared_sizes"]["HighEntropy"] = 50  # a catalog load_catalog accepts
        (tmp_path / CATALOG_FILE).write_text(json.dumps(catalog))
        for stage in (lambda: stage_train(cfg, tmp_path), lambda: stage_evaluate(tmp_path),
                      lambda: load_corpus(tmp_path)):
            with pytest.raises(StageDependencyError, match=CATALOG_FILE):
                stage()

    def test_evaluate_refuses_a_regenerated_corpus(self, tmp_path):
        cfg = tiny_config()
        stage_generate(cfg, tmp_path)
        stage_partition(cfg, tmp_path)
        stage_train(cfg, tmp_path)
        stage_generate(tiny_config(seed=8), tmp_path)
        with pytest.raises(StageDependencyError, match="seed"):
            stage_evaluate(tmp_path)

    def test_features_from_another_seed_are_refused(self, tmp_path):
        cfg = tiny_config()
        stage_generate(cfg, tmp_path / "a")
        stage_partition(cfg, tmp_path / "a")
        stage_generate(tiny_config(seed=8), tmp_path / "b")
        shutil.copyfile(tmp_path / "b" / FEATURES_FILE, tmp_path / "a" / FEATURES_FILE)
        with pytest.raises(StageDependencyError, match=FEATURES_FILE):
            stage_train(cfg, tmp_path / "a")

    def test_normstats_from_another_run_are_refused(self, tmp_path):
        for name, epsilon in (("a", 5.0), ("b", 2.0)):
            cfg = tiny_config(epsilon=epsilon)
            stage_generate(cfg, tmp_path / name)
            stage_partition(cfg, tmp_path / name)
            stage_train(cfg, tmp_path / name)
        shutil.copyfile(tmp_path / "b" / NORM_STATS_FILE, tmp_path / "a" / NORM_STATS_FILE)
        with pytest.raises(StageDependencyError, match=NORM_STATS_FILE):
            stage_evaluate(tmp_path / "a")

    def test_placements_from_another_seed_are_refused(self, tmp_path):
        stage_generate(tiny_config(), tmp_path / "a")
        stage_generate(tiny_config(seed=8), tmp_path / "b")
        shutil.copyfile(tmp_path / "b" / PLACEMENTS_FILE, tmp_path / "a" / PLACEMENTS_FILE)
        with pytest.raises(StageDependencyError, match=PLACEMENTS_FILE):
            stage_partition(tiny_config(), tmp_path / "a")

    def test_split_from_another_seed_is_refused(self, tmp_path):
        cfg = tiny_config()
        stage_generate(cfg, tmp_path / "a")
        stage_partition(cfg, tmp_path / "a")
        stage_generate(tiny_config(seed=8), tmp_path / "b")
        shutil.copyfile(tmp_path / "b" / SPLIT_FILE, tmp_path / "a" / SPLIT_FILE)
        with pytest.raises(StageDependencyError, match=SPLIT_FILE):
            stage_train(cfg, tmp_path / "a")

    def test_ranking_from_another_seed_is_refused(self, tmp_path):
        cfg = tiny_config()
        stage_generate(cfg, tmp_path / "a")
        stage_partition(cfg, tmp_path / "a")
        stage_generate(tiny_config(seed=8), tmp_path / "b")
        shutil.copyfile(tmp_path / "b" / RANKING_FILE, tmp_path / "a" / RANKING_FILE)
        for stage in (lambda: stage_partition(cfg, tmp_path / "a"),
                      lambda: stage_train(cfg, tmp_path / "a"),
                      lambda: load_corpus(tmp_path / "a")):
            with pytest.raises(StageDependencyError, match=RANKING_FILE):
                stage()

    def test_ranking_is_parsed_from_the_checked_bytes(self, tmp_path, monkeypatch):
        stage_generate(tiny_config(), tmp_path / "a")
        stage_generate(tiny_config(seed=8), tmp_path / "b")
        checked = parse_ranking((tmp_path / "a" / RANKING_FILE).read_bytes())
        assert checked != parse_ranking((tmp_path / "b" / RANKING_FILE).read_bytes())
        swap_after_check(monkeypatch, RANKING_FILE, tmp_path / "b")
        assert load_corpus(tmp_path / "a").ranking == checked

    def test_normstats_are_parsed_from_the_checked_bytes(self, tmp_path, monkeypatch):
        # at epsilon 1 the other seed's statistics move the train AUPRC
        for name, seed in (("a", 7), ("b", 8)):
            cfg = tiny_config(epsilon=1.0, seed=seed)
            stage_generate(cfg, tmp_path / name)
            stage_partition(cfg, tmp_path / name)
            stage_train(cfg, tmp_path / name)
        shutil.copytree(tmp_path / "a", tmp_path / "untouched")
        stage_evaluate(tmp_path / "untouched")
        swap_after_check(monkeypatch, NORM_STATS_FILE, tmp_path / "b")
        stage_evaluate(tmp_path / "a")
        assert ((tmp_path / "a" / METRICS_FILE).read_bytes()
                == (tmp_path / "untouched" / METRICS_FILE).read_bytes())

    def test_partition_from_another_run_is_refused(self, tmp_path):
        for name, participants in (("a", 20), ("b", 21)):
            cfg = tiny_config(n_participants=participants)
            stage_generate(cfg, tmp_path / name)
            stage_partition(cfg, tmp_path / name)
        stage_train(tiny_config(), tmp_path / "a")
        shutil.copyfile(tmp_path / "b" / PARTITION_FILE, tmp_path / "a" / PARTITION_FILE)
        with pytest.raises(StageDependencyError, match=PARTITION_FILE):
            stage_evaluate(tmp_path / "a")

    def test_ledger_from_another_run_is_refused(self, tmp_path):
        for name, epsilon in (("a", 5.0), ("b", 2.0)):
            cfg = tiny_config(epsilon=epsilon)
            stage_generate(cfg, tmp_path / name)
            stage_partition(cfg, tmp_path / name)
            stage_train(cfg, tmp_path / name)
        stage_account(tmp_path / "a")
        shutil.copyfile(tmp_path / "b" / LEDGER_FILE, tmp_path / "a" / LEDGER_FILE)
        with pytest.raises(StageDependencyError, match=LEDGER_FILE):
            stage_account(tmp_path / "a")


class TestPinnedGenerate:
    """generate's artifacts at fixed configs, pinned by sha256.

    Any change to the generator's random draws, their order, the
    feature fill or the artifact encoding moves these hashes.
    """

    PINNED = {
        1: ("705f59a23010231d50b2ab51529536701b8d24d53d1cb0473db6ae1025822ced",
            "8423f7bf9229026eba3a779f83665728243024f75f984070afb4da8b0bb02527"),
        2: ("bca77176138308654badae05e840327572b53b89b90e8158be7fbc2222dd6f3d",
            "dc1086e2c67e09feed1b899ab66e79a159789ae4bbdfc3e2232aed452ac17645"),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_artifact_hashes(self, tmp_path, seed):
        cfg = ExperimentConfig(generator=GeneratorConfig(n_scripts=400, fp_prevalence=0.02),
                               seed=seed)
        stage_generate(cfg, tmp_path)
        got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in (TRACES_FILE, FEATURES_FILE))
        assert got == self.PINNED[seed]


class TestPinnedPartition:
    """partition.json from generate + partition at fixed configs, pinned by sha256.

    The file holds only domain draws, knowledge assignments and integer
    counts, so any change to the draw order or the manifest encoding
    moves these hashes; the BLAS library cannot.
    """

    PINNED = {
        1: "70044cb3c1e33e7b74cb44225093c4ca5e41e969dc8c3f85abc11cd9bac73066",
        2: "b98e06a0c29c91466e5d55c61333fc8d4cfa742f5a5dbca8094546613d1f167b",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_partition_hash(self, tmp_path, seed):
        cfg = ExperimentConfig(generator=GeneratorConfig(n_scripts=400, fp_prevalence=0.02),
                               n_participants=12, urls_per_participant=5,
                               limited_knowledge_fraction=0.5, seed=seed)
        stage_generate(cfg, tmp_path)
        manifest = stage_partition(cfg, tmp_path)
        assert len(manifest["limited_knowledge"]["assignments"]) == 6
        got = hashlib.sha256((tmp_path / PARTITION_FILE).read_bytes()).hexdigest()
        assert got == self.PINNED[seed]


class TestPinnedTrain:
    """train's and evaluate's artifacts at fixed configs, pinned by sha256.

    Normalization is on and every round scores the test rows, so these
    hashes move with any change in the moments, the normalized matrix,
    the local solver, the aggregation, the scores or the encoding.
    """

    FILES = (NORM_STATS_FILE, ROUND_RECORDS_FILE, CHECKPOINT_FILE, LEDGER_FILE, METRICS_FILE)
    PINNED = {
        1: ("54e846722ce65631a61d452863f9f5f4b5317699ada5a9e117ae8d4687193415",
            "1175f54194a5f444743039fc3870f139a46ab8d1805a1cc46e9a26b4b68c84bd",
            "e1a418e225b29fa4c26d78f62fd73f23f4206ab348384baa023a784cfd9b1214",
            "133e9fe72e8035c683ef5f6d5569670bc948a719baf7dc31495dcc56cb8bd030",
            "4fc154922054d32ce65fec770a0bbcbc1b4f73039d298024cfe9b18f1d729600"),
        2: ("3a99c4bd05979576899fe7932dde402e5327d040b589e3bdde543792b9c34db6",
            "724a7dbf7fc71fc82a359fc1d7c53880724d85e3ccbcc50df0b0600c1330cc42",
            "04a89fc845dec00c3c2129645a72548d7fbdb8a3d7dae7741d5692be3baa3b35",
            "133e9fe72e8035c683ef5f6d5569670bc948a719baf7dc31495dcc56cb8bd030",
            "c7bb53797b0cf627c7295645a27f3f48cc7761ef627b5ffe9484e4ca49c60238"),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_artifact_hashes(self, tmp_path, seed):
        cfg = ExperimentConfig(generator=GeneratorConfig(n_scripts=400, fp_prevalence=0.02),
                               n_participants=12, urls_per_participant=5, rounds=3,
                               local_iterations=8, epsilon=5.0, eval_every=1, seed=seed)
        stage_generate(cfg, tmp_path)
        stage_partition(cfg, tmp_path)
        stage_train(cfg, tmp_path)
        stage_evaluate(tmp_path)
        got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in self.FILES)
        assert got == self.PINNED[seed]


class TestPinnedCalibration:
    """calibrate_budget's (z_norm, z_train), pinned to the last bit.

    Keyed by (W, q, rounds, epsilon, normalize) over the default
    ExtHighEntropy mask (149 features); q None resolves to 100/W. The
    rows cover q in {0.01, 0.1, 0.5}, the on-device benchmark's budget
    (W=1000, q=0.1, 3 rounds, epsilon 5) and criterion 7's trend-grid
    cells. Any change in the RDP evaluation that moves one bisection
    decision moves a z here.
    """

    PINNED = {
        (1000, 0.1, 30, 1.0, True): (83.58322818453935, 3.1423417670822382),
        (10000, 0.01, 30, 1.0, True): (8.52320682773584, 1.1982632668806383),
        (100, 0.5, 30, 1.0, True): (417.21635842901355, 13.71535430985907),
        (1000, 0.1, 30, 5.0, True): (16.886477376214867, 1.0655844901943579),
        (10000, 0.01, 30, 5.0, True): (2.007018009443483, 0.5967849619976324),
        (100, 0.5, 30, 5.0, True): (83.81849213227495, 3.1247265083109057),
        (1000, 0.1, 30, 10.0, True): (8.613519952526575, 0.7446432244452208),
        (10000, 0.01, 30, 10.0, True): (1.3389674499780642, 0.4483439648715307),
        (100, 0.5, 30, 10.0, True): (42.395458449913086, 1.778529344572722),
        (1000, 0.1, 3, 5.0, True): (16.886477376214867, 0.7899198143619963),
        (1000, None, 25, 1.0, True): (83.58322818453935, 2.9435544262203712),
        (1000, None, 25, 5.0, True): (16.886477376214867, 1.033142330923201),
        (1000, None, 25, 10.0, True): (8.613519952526575, 0.7234958347134158),
        (1000, None, 25, 1.0, False): (0.0, 2.9332304947677286),
        (1000, None, 25, 5.0, False): (0.0, 1.0309666786668767),
        (10000, None, 25, 1.0, True): (8.52320682773584, 1.1932218333617999),
        (10000, None, 25, 5.0, True): (2.007018009443483, 0.5913581491485401),
        (10000, None, 25, 10.0, True): (1.3389674499780642, 0.44333142378227325),
        (10000, None, 25, 1.0, False): (0.0, 1.192383659012057),
        (10000, None, 25, 5.0, False): (0.0, 0.5901128321646342),
    }

    @pytest.mark.parametrize("key", sorted(PINNED, key=repr), ids=repr)
    def test_budget_is_bit_identical(self, key):
        w, q, rounds, epsilon, normalize = key
        cfg = ExperimentConfig(n_participants=w, q=q, rounds=rounds, epsilon=epsilon,
                               normalize=normalize)
        n_features = len(resolve_mask(default_catalog(), cfg.feature_set))
        assert n_features == 149
        budget = calibrate_budget(cfg, n_features)
        assert (budget.z_norm, budget.z_train) == self.PINNED[key]


class TestPartitionPaths:
    def test_staged_and_in_memory_views_match_under_knowledge_limits(self, tmp_path):
        cfg = ExperimentConfig(generator=GeneratorConfig(n_scripts=3000, fp_prevalence=0.05),
                               n_participants=12, urls_per_participant=5,
                               limited_knowledge_fraction=0.5, seed=4)
        stage_generate(cfg, tmp_path)
        manifest = stage_partition(cfg, tmp_path)
        corpus = load_corpus(tmp_path).corpus
        staged = participants_from_manifest(manifest, corpus)
        direct = build_participants(prepare_data(cfg), cfg)
        assert len(staged) == len(direct) == cfg.n_participants
        for entry, part, same in zip(manifest["participants"], staged, direct):
            assert (part.participant_id, part.urls) == (same.participant_id, same.urls) \
                == (entry["participant_id"], tuple(entry["urls"]))
            assert np.array_equal(part.rows, same.rows)
            # partition.json counts the scripts before the knowledge limit
            whole = build_partition(corpus, [entry["urls"]], LimitedKnowledgeSpec(0.0, ()))[0]
            assert entry["n_scripts"] == whole.n_scripts >= part.n_scripts
        assert (manifest["participants"][0]["n_scripts"], staged[0].n_scripts) == (76, 72)


class TestPersistedFeatures:
    def test_persisted_corpus_equals_the_one_rebuilt_from_traces(self, run_cfg, run_dir):
        stored = load_corpus(run_dir).corpus
        rebuilt = corpus_from_traces(run_dir)
        manifest = json.loads((run_dir / "generate_manifest.json").read_text())
        assert manifest["n_shared"] > 0
        assert stored.script_ids == rebuilt.script_ids
        assert stored.X.data.dtype == rebuilt.X.data.dtype == np.float32
        assert np.array_equal(stored.X.toarray(), rebuilt.X.toarray())
        assert np.array_equal(stored.labels, rebuilt.labels)
        assert np.array_equal(stored.fp_bitmasks, rebuilt.fp_bitmasks)
        assert list(stored.domain_rows) == list(rebuilt.domain_rows)
        for domain, rows in rebuilt.domain_rows.items():
            assert np.array_equal(stored.domain_rows[domain], rows)

    def test_a_bad_id_deep_in_placements_is_named_by_its_path(self, run_dir, tmp_path):
        # placements.json is read whole by the typed reader, which formats an
        # element's path only for an error; the path is the one it always was
        for name in (TRACES_FILE, CATALOG_FILE):
            shutil.copy(run_dir / name, tmp_path / name)
        placements = json.loads((run_dir / PLACEMENTS_FILE).read_text())
        domain = list(placements)[-1]
        placements[domain].append(5)
        (tmp_path / PLACEMENTS_FILE).write_text(json.dumps(placements))
        where = f"{tmp_path / PLACEMENTS_FILE}: {domain}[{len(placements[domain]) - 1}]"
        with pytest.raises(FieldError) as err:
            corpus_from_traces(tmp_path)
        assert str(err.value) == f"{where}: must be a string: 5"

    def test_corpus_matrix_stays_sparse(self, run_cfg, run_dir):
        stored = read_npz((run_dir / FEATURES_FILE).read_bytes())
        loaded = load_corpus(run_dir).corpus
        generated, *_ = generate_corpus(run_cfg.resolved_generator, default_catalog())
        for corpus in (loaded, generated):
            assert isinstance(corpus.X, CSRMatrix)
            assert corpus.X.data.dtype == np.float32
            assert corpus.X.indices.dtype == np.int32
            assert corpus.X.data.size == stored["data"].size

    def test_moments_over_corpus_views_equal_dense_moments(self, run_cfg, memory_result):
        # the call shape of the reference trend grid: views straight from
        # build_participants, over the sparse corpus matrix
        prepared = memory_result.prepared
        mask = resolve_mask(prepared.corpus.catalog, run_cfg.feature_set)
        parts = build_participants(prepared, run_cfg)
        dense = prepared.corpus.X.toarray()
        got = participant_moments(parts, mask)
        want = participant_moments([p.over(dense) for p in parts], mask)
        assert got.counts.sum() > 0
        # and bit for bit the moments train_in_memory takes over the masked block
        block = participant_moments([p.over(prepared.corpus.columns(mask)) for p in parts])
        for other in (want, block):
            assert np.array_equal(got.counts, other.counts)
            assert np.array_equal(got.means, other.means)
            assert np.array_equal(got.variances, other.variances)
        with pytest.raises(InvalidInput):
            participant_moments([parts[0], *(p.over(dense) for p in parts[1:])], mask)

    def test_features_zip_members_carry_the_fixed_date(self, tmp_path):
        # zip members carry a time with 2 s resolution; a fixed date keeps
        # the bytes of two runs in different windows equal
        cfg = tiny_config(generator=GeneratorConfig(n_scripts=300, fp_prevalence=0.02))
        stage_generate(cfg, tmp_path)
        with zipfile.ZipFile(tmp_path / FEATURES_FILE) as zf:
            assert all(info.date_time == ZIP_EPOCH for info in zf.infolist())

    def test_train_and_evaluate_do_not_read_traces(self, run_cfg, run_dir, tmp_path):
        stage_generate(run_cfg, tmp_path)
        stage_partition(run_cfg, tmp_path)
        (tmp_path / TRACES_FILE).unlink()
        stage_train(run_cfg, tmp_path)
        stage_evaluate(tmp_path)
        for name in (CHECKPOINT_FILE, METRICS_FILE, NORM_STATS_FILE):
            assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes()


class TestAccount:
    def test_mixed_ledger_reports_one_phase_per_setting(self, tmp_path):
        entries = [["fedavg-round", 0.1, 1.2, 1], ["fedavg-round", 0.1, 1.2, 1],
                   ["fedavg-round", 0.2, 2.5, 3], ["norm-mean", 0.1, 4.0, 10]]
        (tmp_path / LEDGER_FILE).write_text(json.dumps({"delta": 1e-5, "entries": entries}))
        report = stage_account(tmp_path)
        got = [(p["mechanism"], p["q"], p["z"], p["n_queries"]) for p in report["phases"]]
        assert got == [("fedavg-round", 0.1, 1.2, 2), ("fedavg-round", 0.2, 2.5, 3),
                       ("norm-mean", 0.1, 4.0, 10)]
        for phase in report["phases"]:
            alone = PrivacyLedger()
            alone.record(phase["mechanism"], phase["q"], phase["z"], phase["n_queries"])
            assert phase["epsilon_alone"] == pytest.approx(alone.epsilon(1e-5), rel=1e-12)
        total = PrivacyLedger()
        for entry in entries:
            total.record(*entry)
        assert report["epsilon"] == pytest.approx(total.epsilon(1e-5), rel=1e-12)
        assert report["n_queries"] == 15


class TestNormalizationToggle:
    def test_norm_off_run(self, tmp_path):
        cfg = tiny_config(normalize=False, epsilon=2.0)
        stage_generate(cfg, tmp_path)
        stage_partition(cfg, tmp_path)
        outcome = stage_train(cfg, tmp_path)
        assert outcome.norm_stats is None
        assert not (tmp_path / NORM_STATS_FILE).exists()
        stored = json.loads((tmp_path / LEDGER_FILE).read_text())
        assert [e[0] for e in stored["entries"]] == ["fedavg-round"] * cfg.rounds
        rows = stage_evaluate(tmp_path)
        assert {r["split"] for r in rows} == {"train", "test"}

    def test_norm_off_cleans_stale_stats(self, tmp_path):
        cfg_on = tiny_config()
        stage_generate(cfg_on, tmp_path)
        stage_partition(cfg_on, tmp_path)
        stage_train(cfg_on, tmp_path)
        assert (tmp_path / NORM_STATS_FILE).exists()
        stage_train(dataclasses.replace(cfg_on, normalize=False), tmp_path)
        assert not (tmp_path / NORM_STATS_FILE).exists()

    def test_no_noise_run_reports_infinite_epsilon(self, tmp_path):
        cfg = tiny_config(epsilon=math.inf)
        stage_generate(cfg, tmp_path)
        stage_partition(cfg, tmp_path)
        outcome = stage_train(cfg, tmp_path)
        assert outcome.budget == NoiseBudget(0.0, 0.0)
        report = stage_account(tmp_path)
        assert report["epsilon"] == "inf"
        assert report["total_rdp"] is None


def traced_peak(call) -> int:
    """The peak bytes tracemalloc sees while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFoldedScoring:
    @pytest.mark.parametrize("normalize", [True, False])
    def test_trained_matrix_is_the_normalized_block(self, run_cfg, memory_result, normalize):
        cfg = dataclasses.replace(run_cfg, normalize=normalize)
        prepared = memory_result.prepared
        corpus = prepared.corpus
        mask = resolve_mask(corpus.catalog, cfg.feature_set)
        parts = build_participants(prepared, cfg)
        moments = participant_moments(parts, mask)
        held = [a.copy() for a in (moments.counts, moments.means, moments.variances)]
        x_held = [a.copy() for a in (corpus.X.data, corpus.X.indices, corpus.X.indptr)]
        outcome = train_in_memory(prepared, parts, cfg, moments=moments)
        want = corpus.columns(mask)
        if normalize:
            want = normalize_matrix(want, outcome.norm_stats, cfg.norm_mode,
                                    variance_floor=cfg.variance_floor)
        assert outcome.matrix.dtype == want.dtype == np.float32
        assert outcome.matrix.flags.c_contiguous
        assert outcome.matrix.tobytes() == want.tobytes()
        for before, after in zip(held, (moments.counts, moments.means, moments.variances)):
            assert before.tobytes() == after.tobytes()
        for before, after in zip(x_held, (corpus.X.data, corpus.X.indices, corpus.X.indptr)):
            assert before.tobytes() == after.tobytes()

    def test_evaluate_holds_no_dense_block(self, tmp_path):
        # about 5k scripts: the dense masked block is 3 MB; evaluate used to
        # hold it and a normalized copy beyond what loading the corpus peaks at
        cfg = tiny_config(generator=GeneratorConfig(n_scripts=5000, fp_prevalence=0.02),
                          rounds=2, local_iterations=6)
        stage_generate(cfg, tmp_path)
        stage_partition(cfg, tmp_path)
        stage_train(cfg, tmp_path)
        corpus = load_corpus(tmp_path).corpus
        block = corpus.columns(resolve_mask(corpus.catalog, cfg.feature_set)).nbytes
        del corpus
        load_peak = traced_peak(lambda: load_corpus(tmp_path))
        evaluate_peak = traced_peak(lambda: stage_evaluate(tmp_path))
        assert evaluate_peak - load_peak < block


class TestTrainingRanking:
    def test_restricts_and_preserves_order(self):
        ranking = DomainRanking(("a.com", "b.com", "c.com", "d.com"))
        split = SplitSpec(("d.com", "b.com"), ("a.com", "c.com"))
        reduced = training_ranking(ranking, split)
        assert reduced.domains == ("b.com", "d.com")
