"""Non-private pooled column statistics, the reference for fednorm's output."""

import math

import numpy as np

from fedtrace.errors import InvalidInput
from fedtrace.fednorm import VARIANCE_FLOOR, NormStats


def exact_stats(x: np.ndarray, variance_floor: float = VARIANCE_FLOOR) -> NormStats:
    """Non-private pooled column statistics (no clipping, no noise)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InvalidInput("need a 2-d matrix with at least two rows")
    mu = x.mean(axis=0)
    s = ((x - mu) ** 2).sum(axis=0) / (x.shape[0] - 1)
    return NormStats(mu, np.maximum(s, variance_floor), math.inf, math.inf)
