"""Each check passes on the program's real output and fails on a corrupted one.

Tiny sizes throughout; run with
    PYTHONPATH=src python -m pytest -q bench/tests
"""

import copy
import json
import math

import numpy as np
import pytest

import checks
from fedtrace import cli, features, metrics, model, privacy
from fedtrace.synth import GeneratorConfig, generate
from fedtrace.traces import LongString, ScriptTrace, api_call


@pytest.fixture(scope="module")
def corpus():
    catalog = features.default_catalog()
    return catalog, generate(GeneratorConfig(n_scripts=80, fp_prevalence=0.2, seed=3), catalog)


def test_naive_rows_match_program_and_catch_a_wrong_slot(corpus):
    catalog, generated = corpus
    naive = checks.NaiveFeaturizer(catalog)
    for script in generated.scripts:
        row = np.zeros(catalog.slot_count)
        features.fill_feature_row(script.trace, catalog, row)
        assert checks.check_row(row, naive.row(script.trace)) == []
    row[catalog.n_api + 3] = 1.0 - row[catalog.n_api + 3]
    assert checks.check_row(row, naive.row(generated.scripts[-1].trace))


def test_predicates_keep_booleans_apart_and_read_long_strings():
    spec_bool = features.CustomFeatureSpec("A.b", "argument", 0, "equals", True)
    assert checks.predicate_holds(spec_bool, api_call("A.b", (True,)))
    assert not checks.predicate_holds(spec_bool, api_call("A.b", (1.0,)))
    spec_len = features.CustomFeatureSpec("A.b", "return", None, "strlen", 300)
    assert checks.predicate_holds(spec_len, api_call("A.b", (), "x" * 300))
    assert isinstance(api_call("A.b", (), "x" * 300).return_value, LongString)
    assert not checks.predicate_holds(spec_len, api_call("A.b", (), "x" * 299))
    spec_arg = features.CustomFeatureSpec("A.b", "argument", 2, "equals", "v")
    assert not checks.predicate_holds(spec_arg, api_call("A.b", ("v",)))
    trace = ScriptTrace("s#0", "d.example", (api_call("A.b", (True,)),))
    catalog = features.FeatureCatalog(("A.b",), (spec_bool, spec_len))
    assert checks.NaiveFeaturizer(catalog).row(trace).tolist() == [1.0, 1.0, 0.0]


def test_brute_force_ap_matches_and_catches_a_wrong_ap():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 5, size=200).astype(float)  # many ties
    labels = rng.random(200) < 0.3
    ap = metrics.average_precision(scores, labels)
    assert checks.brute_force_ap(scores, labels) == pytest.approx(ap, abs=1e-12)
    assert checks.check_ap(ap + 1e-6, scores, labels)


def test_ap_check_wants_a_high_ap():
    labels = np.array([True, True, False, False])
    scores = np.array([0.9, 0.8, 0.7, 0.6])
    assert checks.check_ap(metrics.average_precision(scores, labels), scores, labels) == []
    low = np.array([0.1, 0.8, 0.7, 0.6])  # AP 0.75
    assert checks.check_ap(metrics.average_precision(low, labels), low, labels)


def test_closed_form_epsilon_matches_the_accountant_at_q1():
    ledger = privacy.PrivacyLedger()
    entries = [("norm-mean", 1.0, 40.0, 30), ("norm-var", 1.0, 40.0, 30),
               ("fedavg-round", 1.0, 1.7, 3)]
    for mechanism, q, z, count in entries:
        ledger.record(mechanism, q, z, count)
    got = checks.closed_form_epsilon(entries, ledger.orders, 1e-5)
    assert got == pytest.approx(ledger.epsilon(1e-5), rel=1e-12)
    with pytest.raises(ValueError):
        checks.closed_form_epsilon([("x", 0.5, 1.0, 1)], ledger.orders, 1e-5)


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    run = tmp_path_factory.mktemp("staged")
    flags = ["--set", "generator.n_scripts=400", "--set", "generator.fp_prevalence=0.05",
             "--set", "n_participants=5", "--set", "urls_per_participant=5",
             "--set", "q=1", "--set", "rounds=2", "--set", "local_iterations=5",
             "--set", "epsilon=5", "--seed", "1"]
    for command in ("generate", "partition", "train"):
        assert cli.main([command, *flags, "--out", str(run)]) == 0
    for command in ("evaluate", "account"):
        assert cli.main([command, "--out", str(run)]) == 0

    def read(name):
        with open(run / name) as fh:
            return json.load(fh)

    catalog, checkpoint = read("catalog.json"), read("checkpoint.json")
    return {"ledger": read("ledger.json"), "report": read("privacy_report.json"),
            "metrics": checks.read_table(run / "metrics.csv"),
            "n_features": len(catalog["sets"][checkpoint["feature_set"]]),
            "rounds": 2, "target_epsilon": 5.0, "corpus_size": 400}


def test_staged_check_passes_on_real_output(staged):
    assert checks.check_staged(**staged) == []


@pytest.mark.parametrize("corrupt", ["ledger_count", "epsilon", "over_target", "n_scripts"])
def test_staged_check_catches_corruption(staged, corrupt):
    bad = copy.deepcopy(staged)
    if corrupt == "ledger_count":
        bad["ledger"]["entries"][0][3] += 1
    elif corrupt == "epsilon":
        bad["report"]["epsilon"] *= 1 + 1e-6
    elif corrupt == "over_target":
        bad["target_epsilon"] = bad["report"]["epsilon"] * 0.99
    else:
        bad["metrics"][0]["n_scripts"] = str(int(bad["metrics"][0]["n_scripts"]) - 1)
    assert checks.check_staged(**bad)


def test_loss_matches_program_and_update_check_catches_bad_updates():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 6)).astype(np.float32)
    y = rng.random(40) < 0.4
    theta = rng.normal(size=7) * 0.1
    want, _ = model.logistic_loss_and_grad(theta, X.astype(np.float64), y, 1e-4)
    assert checks.logistic_loss(theta, X, y, 1e-4) == pytest.approx(want, rel=1e-12)
    cfg = model.LocalUpdateConfig(clip_norm=0.5)
    delta = model.local_update(theta, X, y, cfg)
    before = checks.logistic_loss(theta, X, y, 1e-4)
    after = checks.logistic_loss(theta + delta, X, y, 1e-4)
    assert checks.check_update(delta, 0.5, before, after) == []
    assert checks.check_update(delta * 2.0, 0.5, before, after)  # outside the clip ball
    worse = checks.logistic_loss(theta - delta, X, y, 1e-4)
    assert checks.check_update(-delta, 0.5, before, worse)  # raises the loss


def _sweep_tables():
    runs, summary = [], []
    for flag in ("norm-on", "norm-off"):
        for eps, auprc in (("1.0", 0.93), ("5.0", 0.97), ("inf", 1.0)):
            runs.append({"series": flag, "feature_set": "ExtHighEntropy",
                         "participants": "1000", "epsilon": eps, "auprc": repr(auprc)})
    for eps, auprc in (("1.0", 0.93), ("5.0", 0.97), ("inf", 1.0)):
        summary.append({"feature_set": "ExtHighEntropy", "participants": "1000",
                        "epsilon": eps, "auprc_mean": repr(auprc)})
    return runs, summary


def test_sweep_check_passes_and_catches_corruption():
    runs, summary = _sweep_tables()
    assert checks.check_sweep(runs, summary, 6) == []
    bad_summary = copy.deepcopy(summary)
    bad_summary[1]["auprc_mean"] = "0.96"
    assert checks.check_sweep(runs, bad_summary, 6)
    assert checks.check_sweep(runs[:5], summary, 6)
    noisy = copy.deepcopy(runs)
    noisy[2]["auprc"] = noisy[5]["auprc"] = "0.85"  # no-noise runs must reach 0.9
    summary_noisy = copy.deepcopy(summary)
    summary_noisy[2]["auprc_mean"] = "0.85"
    assert checks.check_sweep(noisy, summary_noisy, 6)


def test_recompute_summary_averages_seeds():
    runs = [{"feature_set": "A", "participants": "10", "epsilon": "inf", "auprc": v}
            for v in ("0.5", "1.0")]
    assert checks.recompute_summary(runs) == {("A", 10, math.inf): 0.75}
