"""Federated averaging round loop with participant-level DP noising.

Each round Poisson-samples participants with probability q, collects
their clipped model deltas, scales the sum by the fixed expected count
qW (never by the realized sample size), and adds Gaussian noise with
per-coordinate standard deviation z*S/(qW). The privacy ledger is
charged one subsampled-Gaussian query per round.

Summation runs in ascending participant-id order, so the float result
does not depend on the participants' list order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInput
from .model import LocalUpdateConfig, LogisticModel, OptimizerConfig, fit_logistic, local_update
from .privacy import PrivacyLedger, gaussian_noise, noise_stddev
from .seeding import ROUND_SAMPLING, derive_rng


@dataclass(frozen=True, slots=True)
class TrainingRunConfig:
    rounds: int
    n_participants: int
    q: float
    z: float
    clip_norm: float = 1.0
    local_epochs: int = 1
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0
    eval_every: int = 1  # 0 disables per-round evaluation

    def __post_init__(self):
        if self.rounds < 1:
            raise InvalidInput(f"rounds must be >= 1: {self.rounds}")
        if self.n_participants < 1:
            raise InvalidInput(f"need at least one participant: {self.n_participants}")
        if not 0.0 < self.q <= 1.0:
            raise InvalidInput(f"sampling probability must be in (0, 1]: {self.q}")
        if self.z < 0:
            raise InvalidInput(f"noise multiplier must be non-negative: {self.z}")
        if self.clip_norm <= 0:
            raise InvalidInput(f"clip norm must be positive: {self.clip_norm}")
        if self.eval_every < 0:
            raise InvalidInput(f"eval_every must be >= 0: {self.eval_every}")

    @property
    def local(self) -> LocalUpdateConfig:
        return LocalUpdateConfig(epochs=self.local_epochs, clip_norm=self.clip_norm,
                                 optimizer=self.optimizer)


@dataclass(frozen=True, slots=True)
class RoundRecord:
    round_index: int          # 1-based
    sampled: int
    update_norm: float        # L2 norm of the pre-noise scaled aggregate
    theta_norm: float         # L2 norm of the post-noise global model
    auprc: float | None = None


@dataclass(frozen=True, slots=True)
class RoundResult:
    theta: np.ndarray
    sampled_ids: tuple[int, ...]
    update_norm: float


def _by_participant_id(participants: Sequence) -> list:
    ordered = sorted(participants, key=lambda p: p.participant_id)
    ids = [p.participant_id for p in ordered]
    if len(set(ids)) != len(ids):
        raise InvalidInput("participant ids must be unique")
    return ordered


def run_round(theta_global: np.ndarray, participants: Sequence, cfg: TrainingRunConfig,
              rng: np.random.Generator, ledger: PrivacyLedger | None = None,
              local_fn: Callable | None = None) -> RoundResult:
    """One DP-FedAvg round; empty Poisson samples yield a pure-noise step.

    The rng first draws one participation coin per participant (ascending
    id order), then the server noise vector. local_fn(theta, participant)
    -> delta is injectable so aggregation can be exercised with scripted
    deltas; the default trains each sampled participant's local model.
    """
    ordered = _by_participant_id(participants)
    if cfg.n_participants != len(ordered):
        raise InvalidInput(f"config says {cfg.n_participants} participants, "
                           f"got {len(ordered)}")
    coins = rng.random(len(ordered)) < cfg.q
    sampled = [ordered[i] for i in np.flatnonzero(coins)]

    total = np.zeros_like(theta_global)
    local_cfg = cfg.local
    for p in sampled:  # ascending-id order, deterministic reduce
        total += (local_update(theta_global, p.features, p.labels, local_cfg)
                  if local_fn is None else local_fn(theta_global, p))
    aggregate = total / (cfg.q * cfg.n_participants)
    sigma = noise_stddev(cfg.z, cfg.clip_norm, cfg.q, cfg.n_participants)
    theta_next = theta_global + aggregate + gaussian_noise(sigma, theta_global.shape, rng)
    if ledger is not None:
        ledger.record("fedavg-round", cfg.q, cfg.z)
    return RoundResult(theta_next, tuple(p.participant_id for p in sampled),
                       float(np.linalg.norm(aggregate)))


def train(participants: Sequence, n_features: int, cfg: TrainingRunConfig,
          ledger: PrivacyLedger | None = None,
          evaluator: Callable[[np.ndarray], float] | None = None
          ) -> tuple[LogisticModel, list[RoundRecord]]:
    """Run R rounds from a zero model; deterministic given cfg.seed.

    Round r>=1 draws all randomness from the stream derived from
    (seed, round tag, r). evaluator(theta) -> score is called every
    cfg.eval_every rounds and always on the last round; it must not
    touch training data it should not see.
    """
    theta = np.zeros(n_features + 1)
    records: list[RoundRecord] = []
    for r in range(1, cfg.rounds + 1):
        rng = derive_rng(cfg.seed, ROUND_SAMPLING, r)
        result = run_round(theta, participants, cfg, rng, ledger=ledger)
        theta = result.theta
        score = None
        if evaluator is not None and cfg.eval_every:
            if r % cfg.eval_every == 0 or r == cfg.rounds:
                score = float(evaluator(theta))
        records.append(RoundRecord(r, len(result.sampled_ids), result.update_norm,
                                   float(np.linalg.norm(theta)), score))
    return LogisticModel.from_theta(theta), records


def centralized_fit(X: np.ndarray, y: np.ndarray,
                    optimizer: OptimizerConfig = OptimizerConfig()) -> LogisticModel:
    """Pooled-data baseline trained with the same optimizer family."""
    theta, _ = fit_logistic(X, y, config=optimizer)
    return LogisticModel.from_theta(theta)
