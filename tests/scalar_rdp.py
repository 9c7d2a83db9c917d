"""Float64 reference for subsampled-Gaussian RDP, one order at a time.

The same moment series as `privacy._rdp_orders`, evaluated as a scalar
loop: a binomial sum in log space for integer orders, and for
fractional orders the signed two-piece erfc series accumulated term by
term (each half in log space) until both terms of an index i > alpha - 1
fall below e^-30. Tests compare the block evaluator against it on dense
(q, z, alpha) grids.
"""

import math

import numpy as np
from scipy import special

from fedtrace.errors import InvalidInput

FRAC_TERM_CUTOFF = -30.0
FRAC_MAX_TERMS = 100_000


def _log_erfc(x: float) -> float:
    # erfc(x) = erfcx(x) * exp(-x^2); erfcx stays representable for large x
    if x < 0.0:
        return math.log(special.erfc(x))
    return float(np.log(special.erfcx(x)) - x * x)


def _log_sub(a: float, b: float) -> float:
    # log(exp(a) - exp(b)); requires a >= b
    if b == -math.inf:
        return a
    if b > a:
        raise InvalidInput("series produced a negative partial sum")
    if a == b:
        return -math.inf
    return a + math.log1p(-math.exp(b - a))


def rdp_integer_order(q: float, z: float, alpha: int) -> float:
    k = np.arange(alpha + 1, dtype=float)
    terms = (special.gammaln(alpha + 1) - special.gammaln(k + 1)
             - special.gammaln(alpha - k + 1)
             + (alpha - k) * math.log1p(-q) + k * math.log(q)
             + k * (k - 1) / (2.0 * z * z))
    return float(special.logsumexp(terms)) / (alpha - 1)


def rdp_fractional_order(q: float, z: float, alpha: float) -> tuple[float, int]:
    """The RDP at a fractional order and how many terms its series summed."""
    # Signed series split at z0, each half accumulated in log space.
    z2 = z * z
    z0 = z2 * math.log(1.0 / q - 1.0) + 0.5
    sqrt2z = math.sqrt(2.0) * z
    log_q, log_1mq = math.log(q), math.log1p(-q)
    log_half = math.log(0.5)
    log_a0 = log_a1 = -math.inf
    i = 0
    while True:
        coef = float(special.binom(alpha, i))
        log_coef = math.log(abs(coef)) if coef != 0.0 else -math.inf
        j = alpha - i
        log_t0 = log_coef + i * log_q + j * log_1mq
        log_t1 = log_coef + j * log_q + i * log_1mq
        log_e0 = log_half + _log_erfc((i - z0) / sqrt2z)
        log_e1 = log_half + _log_erfc((z0 - j) / sqrt2z)
        log_s0 = log_t0 + (i * i - i) / (2.0 * z2) + log_e0
        log_s1 = log_t1 + (j * j - j) / (2.0 * z2) + log_e1
        if coef >= 0.0:
            log_a0 = np.logaddexp(log_a0, log_s0)
            log_a1 = np.logaddexp(log_a1, log_s1)
        else:
            log_a0 = _log_sub(log_a0, log_s0)
            log_a1 = _log_sub(log_a1, log_s1)
        i += 1
        if max(log_s0, log_s1) < FRAC_TERM_CUTOFF and i > alpha:
            break
        if i > FRAC_MAX_TERMS:
            raise InvalidInput(f"moment series did not converge for q={q}, z={z}, alpha={alpha}")
    return float(np.logaddexp(log_a0, log_a1)) / (alpha - 1.0), i


def rdp_order(q: float, z: float, alpha: float) -> float:
    """RDP of one Poisson-subsampled Gaussian (0 < q < 1) at one order."""
    if float(alpha).is_integer():
        return rdp_integer_order(q, z, int(alpha))
    return rdp_fractional_order(q, z, alpha)[0]
