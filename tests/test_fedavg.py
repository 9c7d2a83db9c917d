"""Round-loop tests.

The aggregation oracle is exercised two ways: with scripted per-
participant deltas injected through local_fn (isolating the Poisson
sampling, fixed qW denominator, and noise), and with real local
training to pin the end-to-end reductions.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import expit

from fedtrace.errors import InvalidInput
from fedtrace.fedavg import (
    RoundRecord,
    TrainingRunConfig,
    centralized_fit,
    run_round,
    train,
)
from fedtrace.model import LocalUpdateConfig, OptimizerConfig, local_update
from fedtrace.privacy import PrivacyLedger


class Toy:
    """Participant stub carrying a real feature matrix."""

    def __init__(self, pid, X, y):
        self.participant_id = pid
        self.features = np.asarray(X, dtype=np.float64)
        self.labels = np.asarray(y, dtype=bool)


def make_toys(w=3, n=40, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    toys = []
    for pid in range(w):
        X = rng.normal(loc=pid * 0.3, size=(n, dim))
        y = rng.random(n) < 0.4
        toys.append(Toy(pid, X, y))
    return toys


def cfg_for(toys, **kw):
    defaults = dict(rounds=1, n_participants=len(toys), q=1.0, z=0.0, clip_norm=0.7,
                    optimizer=OptimizerConfig(max_iterations=30))
    defaults.update(kw)
    return TrainingRunConfig(**defaults)


# ---------------------------------------------------------------- run_round

def test_round_equals_exact_delta_mean_no_noise():
    toys = make_toys()
    cfg = cfg_for(toys)
    theta0 = np.linspace(-0.2, 0.2, 5)
    result = run_round(theta0, toys, cfg, np.random.default_rng(0))
    local_cfg = LocalUpdateConfig(epochs=1, clip_norm=0.7, optimizer=cfg.optimizer)
    deltas = [local_update(theta0, t.features, t.labels, local_cfg) for t in toys]
    expected = theta0 + sum(deltas) / len(toys)
    np.testing.assert_allclose(result.theta, expected, rtol=0, atol=1e-12)
    assert result.sampled_ids == (0, 1, 2)


def test_single_participant_round_equals_local_update():
    toys = make_toys(w=1)
    cfg = cfg_for(toys)
    theta0 = np.zeros(5)
    result = run_round(theta0, toys, cfg, np.random.default_rng(1))
    local_cfg = LocalUpdateConfig(epochs=1, clip_norm=0.7, optimizer=cfg.optimizer)
    delta = local_update(theta0, toys[0].features, toys[0].labels, local_cfg)
    np.testing.assert_array_equal(result.theta, theta0 + delta)


def test_sampling_unbiasedness_with_scripted_deltas():
    # E[(1/qW) sum coin_k delta_k] = mean of deltas; Monte Carlo over coins.
    w, dim, q = 3, 4, 0.3
    deltas = {pid: np.sin(np.arange(dim + 1) + pid) * 0.5 for pid in range(w)}
    toys = [Toy(pid, np.zeros((1, dim)), [False]) for pid in range(w)]
    cfg = cfg_for(toys, q=q)
    theta0 = np.zeros(dim + 1)
    full_mean = sum(deltas.values()) / w

    n_trials = 10_000
    updates = np.empty((n_trials, dim + 1))
    rng = np.random.default_rng(99)
    for t in range(n_trials):
        res = run_round(theta0, toys, cfg, rng,
                        local_fn=lambda theta, p: deltas[p.participant_id])
        updates[t] = res.theta - theta0
    mc_mean = updates.mean(axis=0)
    mc_sigma = updates.std(axis=0, ddof=1) / np.sqrt(n_trials)
    assert (np.abs(mc_mean - full_mean) <= 3 * mc_sigma + 1e-12).all()


def test_fixed_qw_denominator_not_sample_size():
    # with exactly one sampled participant out of 4 at q=0.5, the update is
    # delta / (0.5 * 4) = delta / 2, not delta / 1
    toys = [Toy(pid, np.zeros((1, 2)), [False]) for pid in range(4)]
    cfg = cfg_for(toys, q=0.5)
    delta = np.array([1.0, 2.0, 3.0])

    class OneCoin:
        def random(self, n):
            return np.array([0.1, 0.9, 0.9, 0.9])  # only pid 0 sampled

    res = run_round(np.zeros(3), toys, cfg, OneCoin(),
                    local_fn=lambda theta, p: delta)
    np.testing.assert_allclose(res.theta, delta / 2.0, rtol=0, atol=0)
    assert res.sampled_ids == (0,)


def test_empty_sample_is_pure_noise_step():
    toys = make_toys(w=2)
    cfg = cfg_for(toys, q=1e-12)
    theta0 = np.full(5, 0.3)
    res = run_round(theta0, toys, cfg, np.random.default_rng(5))
    np.testing.assert_array_equal(res.theta, theta0)  # z=0: exactly unchanged
    assert res.sampled_ids == ()
    assert res.update_norm == 0.0

    noisy = run_round(theta0, toys, cfg_for(toys, q=1e-12, z=2.0),
                      np.random.default_rng(5))
    assert not np.array_equal(noisy.theta, theta0)


def test_noise_dimension_covers_bias_term():
    toys = make_toys(w=2, dim=3)
    cfg = cfg_for(toys, z=1.0)
    a = run_round(np.zeros(4), toys, cfg, np.random.default_rng(0),
                  local_fn=lambda theta, p: np.zeros(4))
    b = run_round(np.zeros(4), toys, cfg, np.random.default_rng(0),
                  local_fn=lambda theta, p: np.zeros(4))
    assert not np.array_equal(a.theta, np.zeros(4))  # bias coordinate noised too
    assert a.theta[-1] != 0.0
    np.testing.assert_array_equal(a.theta, b.theta)


def test_run_round_validation():
    toys = make_toys(w=2)
    cfg = cfg_for(toys)
    with pytest.raises(InvalidInput):
        run_round(np.zeros(5), toys + [Toy(0, np.zeros((1, 4)), [False])],
                  cfg_for(toys, n_participants=3), np.random.default_rng(0))
    with pytest.raises(InvalidInput):
        run_round(np.zeros(5), toys[:1], cfg, np.random.default_rng(0))


# ---------------------------------------------------------------- train loop

def test_train_deterministic_and_ledger_charged_per_round():
    toys = make_toys()
    cfg = cfg_for(toys, rounds=3, q=0.8, z=0.4, seed=11)
    ledger_a, ledger_b = PrivacyLedger(), PrivacyLedger()
    model_a, rec_a = train(toys, 4, cfg, ledger=ledger_a)
    model_b, rec_b = train(toys, 4, cfg, ledger=ledger_b)
    np.testing.assert_array_equal(model_a.theta, model_b.theta)
    assert rec_a == rec_b
    assert len(rec_a) == 3
    assert [r.round_index for r in rec_a] == [1, 2, 3]
    assert len(ledger_a.entries) == 3
    assert ledger_a.epsilon(1e-6) == ledger_b.epsilon(1e-6)


def test_train_permutation_invariant_without_noise():
    toys = make_toys(w=4)
    cfg = cfg_for(toys, rounds=2)
    model_fwd, _ = train(toys, 4, cfg)
    model_rev, _ = train(list(reversed(toys)), 4, cfg)
    np.testing.assert_array_equal(model_fwd.theta, model_rev.theta)


def test_train_single_round_matches_run_round():
    toys = make_toys()
    cfg = cfg_for(toys, rounds=1, seed=7)
    model, records = train(toys, 4, cfg)
    from fedtrace.seeding import ROUND_SAMPLING, derive_rng
    res = run_round(np.zeros(5), toys, cfg, derive_rng(7, ROUND_SAMPLING, 1))
    np.testing.assert_array_equal(model.theta, res.theta)
    assert records[0].sampled == len(res.sampled_ids)


def test_train_eval_cadence():
    toys = make_toys(w=2)
    calls = []

    def evaluator(theta):
        calls.append(theta.copy())
        return float(np.linalg.norm(theta))

    cfg = cfg_for(toys, rounds=5, eval_every=2)
    _, records = train(toys, 4, cfg, evaluator=evaluator)
    scored = [r.round_index for r in records if r.auprc is not None]
    assert scored == [2, 4, 5]  # cadence plus the final round
    assert len(calls) == 3

    cfg_off = cfg_for(toys, rounds=2, eval_every=0)
    _, records_off = train(toys, 4, cfg_off, evaluator=evaluator)
    assert all(r.auprc is None for r in records_off)


def test_config_validation():
    with pytest.raises(InvalidInput):
        TrainingRunConfig(rounds=0, n_participants=1, q=1.0, z=0.0)
    with pytest.raises(InvalidInput):
        TrainingRunConfig(rounds=1, n_participants=1, q=0.0, z=0.0)
    with pytest.raises(InvalidInput):
        TrainingRunConfig(rounds=1, n_participants=1, q=1.5, z=0.0)
    with pytest.raises(InvalidInput):
        TrainingRunConfig(rounds=1, n_participants=1, q=1.0, z=-0.1)
    with pytest.raises(InvalidInput):
        TrainingRunConfig(rounds=1, n_participants=0, q=1.0, z=0.0)
    with pytest.raises(InvalidInput):
        TrainingRunConfig(rounds=1, n_participants=1, q=1.0, z=0.0, clip_norm=0.0)


def test_centralized_fit_smoke():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 6))
    w_true = np.array([2.0, -1.0, 0.5, 0, 0, 1.0])
    y = rng.random(200) < 1 / (1 + np.exp(-(X @ w_true)))
    model = centralized_fit(X, y)
    # recovers the sign pattern of the strong coefficients
    assert model.weights[0] > 0 > model.weights[1]
    assert expit(model.decision_scores(X)).shape == (200,)
