"""Deterministic RNG stream derivation.

Every source of randomness in a run is a PCG64 stream derived from
(master_seed, purpose tag, identifier). This makes results independent
of scheduling order and lets large participant populations stay lazy:
participant k's randomness can be regenerated from its id alone.
"""

from __future__ import annotations

import numpy as np

# Purpose tags. Values are arbitrary but frozen: changing them changes
# every derived stream and therefore every artifact byte.
DOMAIN_SAMPLING = 1
LIMITED_KNOWLEDGE = 2
NORM_QUERY = 3
ROUND_SAMPLING = 4
GENERATOR = 6
SCORE_SAMPLING = 7


def derive_rng(master_seed: int, *keys: int) -> np.random.Generator:
    """Independent generator for (master_seed, *keys)."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, keys)]))
