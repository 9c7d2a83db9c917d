"""Precision/recall evaluation for heavily imbalanced detection.

The PR curve enumerates distinct score values as thresholds, descending,
so tied scores collapse into a single operating point. Average precision
is the step-wise sum AP = sum_n (R_n - R_{n-1}) * P_n with R_0 = 0 (no
trapezoid interpolation, which flatters low-recall spikes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, UndefinedMetric


@dataclass(frozen=True, slots=True)
class PrCurve:
    thresholds: np.ndarray  # distinct scores, descending
    precision: np.ndarray
    recall: np.ndarray  # non-decreasing, ends at 1.0
    prevalence: float


def pr_curve(scores, labels) -> PrCurve:
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=bool)
    if s.ndim != 1 or s.shape != y.shape or s.size == 0:
        raise InvalidInput("scores and labels must be equal-length non-empty 1-d arrays")
    if not np.isfinite(s).all():
        raise InvalidInput("scores must be finite")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise UndefinedMetric("precision/recall undefined without positive labels")

    order = np.argsort(-s, kind="stable")
    s = s[order]
    y = y[order]
    # last index of each tie group = a threshold point
    boundary = np.flatnonzero(np.diff(s) != 0)
    boundary = np.append(boundary, s.size - 1)
    tp = np.cumsum(y)[boundary].astype(float)
    predicted = boundary + 1.0  # tp + fp at each threshold
    precision = tp / predicted
    recall = tp / n_pos
    return PrCurve(s[boundary], precision, recall, n_pos / s.size)


def auprc(curve: PrCurve) -> float:
    return float(np.sum(np.diff(curve.recall, prepend=0.0) * curve.precision))


def average_precision(scores, labels) -> float:
    return auprc(pr_curve(scores, labels))


def summarize_runs(records) -> list[dict]:
    """Aggregate per-seed run outcomes into a (W, epsilon, feature_set) table.

    records: iterables of dicts with keys participants, epsilon,
    feature_set, seed, auprc. Returns one row per group with the seed
    count, mean and sample std (0.0 for singleton groups).
    """
    groups: dict[tuple, list[float]] = {}
    for rec in records:
        try:
            key = (str(rec["feature_set"]), int(rec["participants"]), float(rec["epsilon"]))
            value = float(rec["auprc"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"bad run record {rec!r}: {exc}") from exc
        groups.setdefault(key, []).append(value)
    rows = []
    for (feature_set, participants, epsilon), values in sorted(groups.items()):
        mean, std, count = group_stats(values)
        rows.append({
            "feature_set": feature_set,
            "participants": participants,
            "epsilon": epsilon,
            "seeds": count,
            "auprc_mean": mean,
            "auprc_std": std,
        })
    return rows


def group_stats(values) -> tuple[float, float, int]:
    """Mean, sample std (ddof=1; 0.0 for a single value) and count of one group."""
    arr = np.asarray(values)
    return float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0, int(arr.size)
