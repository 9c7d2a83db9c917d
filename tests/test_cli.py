"""Command-line interface tests, driven in-process through main()."""

import dataclasses
import json
import re
import shutil

import pytest

from fedtrace.cli import (EXIT_CONFIG, EXIT_DEPENDENCY, EXIT_FAILURE, EXIT_OK, _parse_seeds,
                          build_parser, main, resolve_config)
from fedtrace.errors import ConfigError
from fedtrace.experiment import preset_config
from fedtrace.sweeps import DEFAULT_SEEDS

TINY = [
    "--set", "generator.n_scripts=2000",
    "--set", "generator.fp_prevalence=0.02",
    "--set", "n_participants=15",
    "--set", "urls_per_participant=8",
    "--set", "rounds=2",
    "--set", "local_iterations=6",
    "--set", "epsilon=1",
]


def run_pipeline_dir(out):
    out = str(out)
    assert main(["generate", *TINY, "--out", out]) == EXIT_OK
    assert main(["partition", *TINY, "--out", out]) == EXIT_OK
    assert main(["train", *TINY, "--out", out]) == EXIT_OK
    assert main(["evaluate", "--out", out]) == EXIT_OK
    assert main(["account", "--out", out]) == EXIT_OK


class TestPipelineCommands:
    def test_five_stage_walkthrough(self, tmp_path, capsys):
        run_pipeline_dir(tmp_path)
        out = capsys.readouterr().out
        assert "wrote 2000 scripts" in out
        assert "partitioned" in out and "15 participants" in out
        assert "trained 2 rounds" in out
        assert re.search(r"train: auprc=\d", out)
        assert re.search(r"test: auprc=\d", out)
        match = re.search(r"epsilon = ([0-9.]+) at delta = 1e-05", out)
        assert match, out
        assert 0.99 <= float(match.group(1)) <= 1.0

    def test_runs_are_reproducible_across_directories(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_pipeline_dir(a)
        run_pipeline_dir(b)
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_sweep_command(self, tmp_path, capsys):
        code = main(["sweep", "feature_sets", *TINY,
                     "--out", str(tmp_path), "--seeds", "0"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "auprc" in out and "wrote" in out
        for name in ("feature_sets_runs.csv", "feature_sets_summary.csv",
                     "feature_sets_series.csv"):
            assert (tmp_path / name).exists()


class TestConfigResolution:
    def test_layering(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"rounds": 3, "epsilon": 2.0}))
        args = build_parser().parse_args([
            "generate", "--preset", "smoke", "--config", str(cfg_file),
            "--set", "epsilon=4", "--seed", "9", "--out", "x"])
        config = resolve_config(args)
        assert config.generator.n_scripts == 20_000  # from the preset
        assert config.rounds == 3                    # file overrides preset
        assert config.epsilon == 4.0                 # --set overrides file
        assert config.seed == 9                      # --seed wins last

    def test_config_file_sets_only_its_own_fields_over_the_preset(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"epsilon": 2, "generator": {"n_scripts": 5000}}))
        args = build_parser().parse_args([
            "train", "--preset", "smoke", "--config", str(cfg_file), "--out", "x"])
        config = resolve_config(args)
        assert config.epsilon == 2.0
        assert config.generator.n_scripts == 5000
        # every field the file leaves out keeps the preset's value
        smoke = preset_config("smoke")
        assert (config.rounds, config.q, config.local_iterations) == (10, 1.0, 10)
        assert config == dataclasses.replace(
            smoke, epsilon=2.0,
            generator=dataclasses.replace(smoke.generator, n_scripts=5000))

    def test_only_the_merged_value_is_checked(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"rounds": 0}))
        args = build_parser().parse_args([
            "train", "--config", str(cfg_file), "--set", "rounds=3", "--out", "x"])
        assert resolve_config(args).rounds == 3

    def test_integral_float_sets_an_int_generator_field(self):
        args = build_parser().parse_args([
            "generate", "--set", "generator.n_scripts=5e3", "--out", "x"])
        n_scripts = resolve_config(args).generator.n_scripts
        assert n_scripts == 5000 and type(n_scripts) is int

    def test_missing_config_file(self, tmp_path):
        args = build_parser().parse_args(
            ["generate", "--config", str(tmp_path / "nope.json"), "--out", "x"])
        with pytest.raises(ConfigError):
            resolve_config(args)

    def test_parse_seeds(self):
        assert _parse_seeds(None) == DEFAULT_SEEDS
        assert _parse_seeds("3,1,2") == (3, 1, 2)
        with pytest.raises(ConfigError):
            _parse_seeds("a,b")
        with pytest.raises(ConfigError):
            _parse_seeds(",")


class TestExitCodes:
    def test_missing_artifacts(self, tmp_path, capsys):
        assert main(["train", "--out", str(tmp_path / "none")]) == EXIT_DEPENDENCY
        assert main(["account", "--out", str(tmp_path / "none")]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "run the earlier stages first" in err

    def test_checkpoint_weight_count_mismatch(self, tmp_path, capsys):
        out = str(tmp_path)
        for command in ("generate", "partition", "train"):
            assert main([command, *TINY, "--out", out]) == EXIT_OK
        path = tmp_path / "checkpoint.json"
        checkpoint = json.loads(path.read_text())
        checkpoint["weights"].pop()
        path.write_text(json.dumps(checkpoint))
        assert main(["evaluate", "--out", out]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "weights but the feature set has" in err and "Traceback" not in err

    def test_bad_config_values(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["generate", "--set", "epsilon=-1", "--out", out]) == EXIT_CONFIG
        assert main(["generate", "--set", "nope=1", "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "epsilon" in err and "nope" in err

    @pytest.mark.parametrize("override,field", [
        ("generator.n_scripts=500.5", "generator.n_scripts"),
        ('generator.n_scripts="500"', "generator.n_scripts"),
        ("generator.fp_type_mix=3", "generator.fp_type_mix"),
        ("clip_norm=NaN", "clip_norm"),
        ("generator.fp_prevalence=2", "generator.fp_prevalence"),
    ])
    def test_mistyped_value_is_a_config_error(self, tmp_path, capsys, override, field):
        assert main(["generate", "--set", override, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and "Traceback" not in err

    def test_bad_seed_list(self, tmp_path):
        assert main(["sweep", "feature_sets", *TINY,
                     "--out", str(tmp_path), "--seeds", "x"]) == EXIT_CONFIG

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["generate", "--set", "generator.n_scripts=200", "--seed", "-1",
                     "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: seed: ") and "Traceback" not in err
        assert not (tmp_path / "traces.jsonl").exists()

    def test_negative_sweep_seed_is_a_config_error(self, tmp_path, capsys):
        assert main(["sweep", "participants", *TINY,
                     "--out", str(tmp_path), "--seeds", "-2"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: seed: ") and "Traceback" not in err

    def test_unknown_recipe_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "warp", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    """A TINY run directory after generate, partition and train."""
    out = tmp_path_factory.mktemp("trained")
    for command in ("generate", "partition", "train"):
        assert main([command, *TINY, "--out", str(out)]) == EXIT_OK
    return out


class TestMalformedArtifacts:
    """An artifact a stage reads goes through the one typed reader: a value of the
    wrong type or shape exits 1 with an error line naming the file and the dotted
    field path, and never ends in a traceback or a cast."""

    # a bare ledger.json has no checkpoint beside it, so no hash check guards it
    @pytest.mark.parametrize("ledger, where", [
        ({"entries": []}, "delta"),
        ({"delta": 1e-5, "entries": [["fedavg-round", 0.1, 1.2]]}, "entries[0]"),
        ({"delta": 1e-5, "entries": {"fedavg-round": [0.1, 1.2, 1]}}, "entries"),
        ({"delta": 1e-5, "entries": [["fedavg-round", 0.1, 1.2, 2.7]]}, "entries[0][3]"),
        ({"delta": 1e-5, "entries": [["fedavg-round", 0.1, 1.2, True]]}, "entries[0][3]"),
        ({"delta": "1e-5", "entries": [["fedavg-round", 0.1, 1.2, 1]]}, "delta"),
        ({"delta": 1e-5, "entries": [[5, 0.1, 1.2, 1]]}, "entries[0][0]"),
    ], ids=["missing-delta", "three-value-entry", "entries-as-object", "fractional-count",
            "bool-count", "delta-as-string", "numeric-mechanism"])
    def test_account_refuses_a_malformed_bare_ledger(self, tmp_path, capsys, ledger, where):
        (tmp_path / "ledger.json").write_text(json.dumps(ledger))
        assert main(["account", "--out", str(tmp_path)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"ledger.json: {where}: " in err
        assert not (tmp_path / "privacy_report.json").exists()

    # evaluate reads checkpoint.json, which no stage hash-checks
    @pytest.mark.parametrize("edit, where", [
        (lambda c: c.__setitem__("weights", [str(w) for w in c["weights"]]), "weights[0]"),
        (lambda c: c["weights"].__setitem__(3, True), "weights[3]"),
        (lambda c: c.__setitem__("bias", "0.25"), "bias"),
        (lambda c: c.pop("bias"), "bias"),
    ], ids=["weights-as-strings", "bool-weight", "bias-as-string", "missing-bias"])
    def test_evaluate_refuses_a_malformed_checkpoint(self, trained_dir, tmp_path, capsys,
                                                     edit, where):
        run = tmp_path / "run"
        shutil.copytree(trained_dir, run)
        checkpoint = json.loads((run / "checkpoint.json").read_text())
        edit(checkpoint)
        (run / "checkpoint.json").write_text(json.dumps(checkpoint))
        assert main(["evaluate", "--out", str(run)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"checkpoint.json: {where}: " in err
        assert not (run / "metrics.csv").exists()


class TestUncheckedRunFiles:
    """generate_manifest.json and partition.json, which no recorded hash guards
    when a stage reads them, go through the typed reader too: a broken file
    exits 1 with an error line naming it, never a traceback."""

    @pytest.mark.parametrize("command", ["partition", "train", "evaluate"])
    @pytest.mark.parametrize("text, reason", [
        ('{"n_scripts": 500,', "not a JSON document"),
        ("[1]", "must be an object"),
        ('{"experiment_config": [1]}', "experiment_config: must be an object"),
        ('{"experiment_config": null}', "experiment_config: must be an object"),
        ('{"features_sha256": 5}', "features_sha256: must be a string"),
    ], ids=["truncated", "list", "config-as-list", "null-config", "numeric-hash"])
    def test_a_broken_generate_manifest_is_refused(self, trained_dir, tmp_path, capsys,
                                                  command, text, reason):
        run = tmp_path / "run"
        shutil.copytree(trained_dir, run)
        (run / "generate_manifest.json").write_text(text)
        argv = [command, *TINY] if command != "evaluate" else [command]
        assert main([*argv, "--out", str(run)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"generate_manifest.json: {reason}" in err

    @pytest.mark.parametrize("edit, where", [
        (lambda p: p.pop("participants"), "participants: required field missing"),
        (lambda p: p.pop("limited_knowledge"), "limited_knowledge: required field missing"),
        (lambda p: p.__setitem__("config", [1]), "config: must be an object"),
        (lambda p: p["participants"][2].__setitem__("urls", "a.example"),
         "participants[2].urls: must be a list"),
        (lambda p: p["participants"][1].pop("urls"), "participants[1].urls: required field"),
        (lambda p: p["limited_knowledge"].__setitem__("fraction", "0"),
         "limited_knowledge.fraction: must be a number"),
    ], ids=["no-participants", "no-limits", "config-as-list", "urls-as-string", "no-urls",
            "fraction-as-string"])
    def test_train_refuses_a_malformed_partition(self, trained_dir, tmp_path, capsys,
                                                 edit, where):
        run = tmp_path / "run"
        shutil.copytree(trained_dir, run)
        partition = json.loads((run / "partition.json").read_text())
        edit(partition)
        (run / "partition.json").write_text(json.dumps(partition))
        assert main(["train", *TINY, "--out", str(run)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"partition.json: {where}" in err
