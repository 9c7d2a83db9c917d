"""Federated, differentially private feature mean and variance estimation.

For every feature the server runs two subsampled queries: participants
join each query independently with probability q, eligible participants
report a statistic clipped to [0, S] (mean to [0, S_mu], Bessel-
corrected variance to [0, S_s]), so one participant moves a sum by at
most S whatever the sign of its moment, and the server divides the sum
by the fixed expected count qW and adds Gaussian noise with standard
deviation z*S/(qW). Participants without enough rows abstain (no rows
for the mean, fewer than two for the variance); the qW denominator is
kept regardless.

The noisy sums are then post-processed using only the public noise
scales sigma_mu = z*S_mu/(qW) and sigma_var = z*S_s/(qW): a mean whose
magnitude is below NOISE_SIGMAS*sigma_mu is indistinguishable from
noise and is left uncentred (mu = 0), and every variance is floored at
max(variance_floor, NOISE_SIGMAS*sigma_var), so a column whose variance
estimate is noise-dominated is never blown up by a tiny denominator.
Post-processing reads no private data, so it costs no privacy and the
ledger charge is unchanged. With z = 0 both sigmas are zero and the
rule does nothing.

The resulting statistics scale feature columns before training, either
dividing the centered value by sqrt(s) ("std" mode, default, yields
unit variance when the statistics are exact) or by s itself ("var"
mode, the literal quotient form). A NormStats is frozen and holds
read-only copies of mu and s, so it computes that denominator once per
(mode, variance_floor) and keeps it; scoring one script at a time does
not recompute it per call.

normalize_matrix does that arithmetic in float64 but never holds a
float64 copy of a whole float32 matrix: it fills its float32 output one
row block at a time (model.BLOCK_ROWS rows) through one float64 scratch
block, so its transient memory beyond the input and the output is one
block, a few MB, whatever the row count. Given out=x it overwrites x
instead, as training does with its one dense block.

Scoring needs no normalized matrix at all: fold_model folds the
statistics into a model's weights (w' = w/d, b' = b - w'.mu), and the
folded model scores raw rows, sparse ones included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .artifacts import atomic_write
from .config import check_keys, read_value
from .csr import CSRMatrix
from .errors import InvalidInput
from .model import BLOCK_ROWS, LogisticModel, row_blocks
from .privacy import PrivacyLedger, gaussian_noise, noise_stddev

VARIANCE_FLOOR = 1e-6
DEFAULT_CLIP_MU = 1.0
DEFAULT_CLIP_VAR = 1.0
NORMALIZE_MODES = ("std", "var")
# Noisy statistics within this many noise standard deviations of zero are
# treated as pure noise. Roughly the Bonferroni level for the ~150-column
# feature sets: P(|N(0,1)| > 3) * 2F ~ 0.8 for F ~ 150, so on average fewer
# than one pure-noise statistic gets past the threshold.
NOISE_SIGMAS = 3.0


@dataclass(frozen=True, eq=False)
class NormStats:
    """Per-feature location and spread estimates with their clip bounds.

    Frozen, and mu and s are read-only float64 copies of the inputs, so
    the denominator that normalize_matrix divides by is computed once per
    (mode, variance_floor) and kept in a memo that cannot go stale.
    """

    mu: np.ndarray
    s: np.ndarray
    clip_mu: float
    clip_var: float
    # denominator()'s results by (mode, variance_floor)
    _denominators: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # normstats.json's keys and their types (from_dict)
    _KEYS = {"mu": tuple[float, ...], "s": tuple[float, ...], "clip_mu": float, "clip_var": float}

    def __post_init__(self):
        for name in ("mu", "s"):
            value = np.array(getattr(self, name), dtype=float)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if self.mu.shape != self.s.shape or self.mu.ndim != 1:
            raise InvalidInput("mu and s must be 1-d vectors of equal length")
        if not (np.isfinite(self.mu).all() and np.isfinite(self.s).all()):
            raise InvalidInput("statistics must be finite")
        if (self.s <= 0).any():
            raise InvalidInput("variance entries must be strictly positive")

    def denominator(self, mode: str, variance_floor: float) -> np.ndarray:
        """What normalize_matrix divides by: sqrt(s) ("std") or s ("var"), floored.

        Read-only, and computed on the first call for each (mode,
        variance_floor); a mode outside NORMALIZE_MODES raises every time.
        """
        if mode not in NORMALIZE_MODES:
            raise InvalidInput(f"mode must be one of {NORMALIZE_MODES}: {mode!r}")
        key = (mode, variance_floor)
        denom = self._denominators.get(key)
        if denom is None:
            denom = np.maximum(self.s, variance_floor)
            if mode == "std":
                denom = np.sqrt(denom)
            denom.flags.writeable = False
            self._denominators[key] = denom
        return denom

    @property
    def n_features(self) -> int:
        return self.mu.size

    def to_dict(self) -> dict:
        return {"mu": self.mu.tolist(), "s": self.s.tolist(),
                "clip_mu": self.clip_mu, "clip_var": self.clip_var}

    @classmethod
    def from_dict(cls, obj: Mapping) -> "NormStats":
        """Read what to_dict wrote; FieldError names a missing, unknown or mistyped key."""
        check_keys(obj, cls._KEYS)
        return cls(**{k: read_value(tp, obj[k], k) for k, tp in cls._KEYS.items()})


def save_norm_stats(stats: NormStats, path) -> None:
    with atomic_write(path) as fh:
        json.dump(stats.to_dict(), fh, sort_keys=True)
        fh.write("\n")


@dataclass(eq=False)
class ColumnMoments:
    """Per-participant column means and variances, computed once and reused."""

    counts: np.ndarray     # (W,) rows per participant
    means: np.ndarray      # (W, F), zero where undefined
    variances: np.ndarray  # (W, F), zero where undefined

    def __post_init__(self):
        if self.means.shape != self.variances.shape or self.counts.shape != self.means.shape[:1]:
            raise InvalidInput("moment shapes disagree")

    @property
    def n_participants(self) -> int:
        return self.counts.size

    @property
    def n_features(self) -> int:
        return self.means.shape[1]


def participant_moments(participants: Sequence, mask=None) -> ColumnMoments:
    """Two-pass per-participant column moments in float64.

    With a mask, the views must share one matrix x: its masked columns
    are made dense once, as ScriptCorpus.columns makes them, and the
    moments are those of the views over that block.
    """
    if not participants:
        raise InvalidInput("need at least one participant")
    if mask is not None:
        x = participants[0].x
        if any(p.x is not x for p in participants):
            raise InvalidInput("a mask needs views that share one feature matrix")
        block = (x.take_columns(mask).toarray() if isinstance(x, CSRMatrix)
                 else np.ascontiguousarray(x[:, mask]))
        participants = [p.over(block) for p in participants]
    counts = np.zeros(len(participants), dtype=np.int64)
    means = np.zeros((len(participants), participants[0].features.shape[1]))
    variances = np.zeros_like(means)
    for i, p in enumerate(participants):
        x = np.asarray(p.features, dtype=np.float64)
        n = x.shape[0]
        counts[i] = n
        if n >= 1:
            means[i] = x.mean(axis=0)
        if n >= 2:
            variances[i] = ((x - means[i]) ** 2).sum(axis=0) / (n - 1)
    return ColumnMoments(counts, means, variances)


def dp_fed_norm(participants: Sequence, q: float, z: float,
                clip_mu: float = DEFAULT_CLIP_MU, clip_var: float = DEFAULT_CLIP_VAR,
                rng: np.random.Generator | None = None,
                ledger: PrivacyLedger | None = None,
                moments: ColumnMoments | None = None,
                variance_floor: float = VARIANCE_FLOOR) -> NormStats:
    """Run the 2F subsampled statistic queries and return floored stats.

    Each participant's means are clipped to [0, clip_mu] and its
    variances to [0, clip_var] before they are summed. The noisy outputs
    are post-processed with the public noise scales sigma = z*S/(qW)
    only: a mean with |mu| < NOISE_SIGMAS*sigma_mu is set to 0 (the
    column is not centred), and every variance is floored at
    max(variance_floor, NOISE_SIGMAS*sigma_var). Being a function of
    the released values and public parameters, this costs no privacy.
    At z = 0 both thresholds are zero and the rule is a no-op.

    The rng stream is consumed in a fixed order (mean coins, variance
    coins, mean noise, variance noise), so a given seed fully determines
    the output. The ledger is charged one subsampled-Gaussian query per
    feature per phase, independent of who got sampled.
    """
    if rng is None:
        raise InvalidInput("dp_fed_norm requires an explicit rng")
    if not 0.0 < q <= 1.0:
        raise InvalidInput(f"sampling probability must be in (0, 1]: {q}")
    if z < 0:
        raise InvalidInput(f"noise multiplier must be non-negative: {z}")
    if clip_mu <= 0 or clip_var <= 0:
        raise InvalidInput("clip bounds must be positive")
    if variance_floor <= 0:
        raise InvalidInput(f"variance floor must be positive: {variance_floor}")
    if moments is None:
        moments = participant_moments(participants)
    w = moments.n_participants
    n_features = moments.n_features

    coins_mu = rng.random((w, n_features)) < q
    coins_var = rng.random((w, n_features)) < q
    coins_mu &= (moments.counts >= 1)[:, None]
    coins_var &= (moments.counts >= 2)[:, None]

    clipped_mu = np.clip(moments.means, 0.0, clip_mu)
    clipped_var = np.clip(moments.variances, 0.0, clip_var)
    denom = q * w
    mu = (coins_mu * clipped_mu).sum(axis=0) / denom
    s = (coins_var * clipped_var).sum(axis=0) / denom
    sigma_mu = noise_stddev(z, clip_mu, q, w)
    sigma_var = noise_stddev(z, clip_var, q, w)
    mu = mu + gaussian_noise(sigma_mu, n_features, rng)
    s = s + gaussian_noise(sigma_var, n_features, rng)
    mu = np.where(np.abs(mu) < NOISE_SIGMAS * sigma_mu, 0.0, mu)
    s = np.maximum(s, max(variance_floor, NOISE_SIGMAS * sigma_var))

    if ledger is not None:
        ledger.record("norm-mean", q, z, count=n_features)
        ledger.record("norm-var", q, z, count=n_features)
    return NormStats(mu, s, clip_mu, clip_var)


def normalize_matrix(x: np.ndarray, stats: NormStats, mode: str = "std",
                     variance_floor: float = VARIANCE_FLOOR,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Center by mu and scale every column; total thanks to the floor.

    The arithmetic is float64. A float32 x gives a C-order float32
    matrix, filled one row block (model.BLOCK_ROWS rows) at a time
    through one reused float64 scratch block, so beyond x the call holds
    the output and at most BLOCK_ROWS x F float64 values. Any other x
    gives a float64 matrix. The result is a new array, or out when given:
    an array of x's shape (x itself normalizes x in place) that receives
    the same values a new array would.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != stats.n_features:
        raise InvalidInput(f"matrix has {x.shape[-1] if x.ndim else 0} columns, "
                           f"stats describe {stats.n_features}")
    if out is not None and out.shape != x.shape:
        raise InvalidInput(f"out is {out.shape}, x is {x.shape}")
    denom = stats.denominator(mode, variance_floor)
    if x.dtype != np.float32:
        out = np.subtract(x, stats.mu, out=out, dtype=np.float64)
        out /= denom
        return out
    if out is None:
        out = np.empty(x.shape, dtype=np.float32)
    scratch = np.empty((min(x.shape[0], BLOCK_ROWS + 1), x.shape[1]))
    for rows in row_blocks(x.shape[0]):
        block = scratch[:rows.stop - rows.start]
        np.copyto(block, x[rows])
        block -= stats.mu
        block /= denom
        out[rows] = block
    return out


def fold_model(model: LogisticModel, stats: NormStats | None, mode: str = "std",
               variance_floor: float = VARIANCE_FLOOR) -> LogisticModel:
    """The model over raw columns that scores as model does over normalized ones.

    With d = stats.denominator(mode, variance_floor) the folded weights
    are w/d and the bias is b - (w/d).mu, so x.(w/d) + b' equals
    ((x - mu)/d).w + b up to rounding, and no normalized copy of x is
    made. stats None (normalization off) gives model itself.
    """
    if stats is None:
        return model
    weights = model.weights / stats.denominator(mode, variance_floor)
    return LogisticModel(weights, model.bias - float(weights.dot(stats.mu)))
