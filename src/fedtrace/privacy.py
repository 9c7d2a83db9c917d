"""Clipping, noise, and Renyi-DP accounting for subsampled Gaussians.

Every private query in the pipeline (one training round, one
normalization statistic) reduces to the same mechanism: Poisson
subsampling with rate q followed by a Gaussian whose standard deviation
is z times the query's L2 sensitivity. Accounting therefore only needs
the pair (q, z) per query. RDP is computed on a fixed grid of orders,
composed additively, and converted to (epsilon, delta) via
epsilon = min_alpha [ rdp(alpha) + log(1/delta) / (alpha - 1) ].

The RDP of one subsampled Gaussian follows the stable evaluation of the
moment series (Mironov, Talwar & Zhang 2019): a finite binomial sum in
log space for integer orders and the two-piece erfc series for
fractional orders. One evaluator, `_rdp_orders`, computes every order
of a call at once as numpy blocks: the integer orders as one padded
(orders x terms) block per power-of-two range of orders, the fractional
ones in blocks of 64 terms, each order stopping after its first index
i > alpha - 1 where both terms are below e^-30. Every row is reduced by
a sequential logaddexp, so an order's value is the same, bit for bit,
whichever orders share the call. The signed fractional series is
summed as P - N (the terms with non-negative and with negative binomial
coefficients, each in log space); N > P is refused with InvalidInput.
The values agree to within 1e-13 absolute with the same series summed
one order and one term at a time (the tests' float64 reference).

One function, `_plan_epsilons`, composes a query plan, for the replay
(plan_epsilon) and for calibration alike, and one entry, `_rdp`, gives
its RDP: the Gaussian's closed form at q = 1, `_rdp_orders` otherwise.
Full-grid RDP, the search bounds' included, is cached per (q, z), so
calibrations at the same q evaluate the bounds once. Calibration
bisects z over the fixed Z_SEARCH_BOUNDS down to relative width
Z_SEARCH_REL_TOL, on the fixed grid DEFAULT_ORDERS, and prunes orders
as it goes. At every order the composed epsilon does not
increase with z (the searched queries' RDP falls as the noise grows,
fixed-z queries stay constant), and every later midpoint lies below the
current upper end `hi`. So an order whose epsilon at `hi` exceeds the
target exceeds it at every later midpoint too, and can never be the
order that accepts a step. Dropping it leaves every accept/reject
decision, and so the returned z, exactly as the full-grid search would
give it, because every kept order's epsilon is its full-grid value bit
for bit. The accountant itself (PrivacyLedger, plan_epsilon) always
uses the full grid.

Only the series (q < 1) needs scipy.special, and its three functions
import it where they use it, so accounting at q = 1 loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CalibrationError, InvalidInput

DEFAULT_ORDERS = tuple(np.arange(1.25, 64.0 + 1e-9, 0.25)) + (
    128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0)
_ORDERS = np.asarray(DEFAULT_ORDERS)

Z_SEARCH_BOUNDS = (1e-2, 1e3)
Z_SEARCH_REL_TOL = 1e-3


def clip_l2(v, clip_norm: float) -> np.ndarray:
    """Scale v to L2 norm at most clip_norm (identity inside the ball)."""
    arr = np.asarray(v, dtype=float)
    if clip_norm <= 0 or not math.isfinite(clip_norm):
        raise InvalidInput(f"clip_norm must be positive and finite: {clip_norm}")
    if not np.isfinite(arr).all():
        raise InvalidInput("cannot clip a non-finite vector")
    norm = float(np.linalg.norm(arr))
    if norm > clip_norm:
        return arr * (clip_norm / norm)
    return arr.copy()


def gaussian_noise(sigma: float, shape, rng: np.random.Generator) -> np.ndarray:
    if sigma < 0 or not math.isfinite(sigma):
        raise InvalidInput(f"sigma must be non-negative and finite: {sigma}")
    if sigma == 0.0:
        return np.zeros(shape)
    return rng.normal(0.0, sigma, shape)


def noise_stddev(z: float, sensitivity: float, q: float, participants: int) -> float:
    """Per-coordinate sigma of the aggregate: z * S / (q * W)."""
    if z < 0 or sensitivity <= 0:
        raise InvalidInput("need z >= 0 and sensitivity > 0")
    denom = q * participants
    if denom <= 0:
        raise InvalidInput(f"q * W must be positive: q={q}, W={participants}")
    return z * sensitivity / denom


def _log_erfc(x: np.ndarray) -> np.ndarray:
    from scipy import special
    # erfc(x) = erfcx(x) * exp(-x^2); erfcx stays representable for large x
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(x < 0.0, np.log(special.erfc(x)), np.log(special.erfcx(x)) - x * x)


def _rdp_integer_orders(q: float, z: float, alphas: np.ndarray) -> np.ndarray:
    # One block per power-of-two range [2^(e-1), 2^e) of orders, so a
    # large order does not pad the rows of every small one.
    out = np.empty(alphas.shape)
    exponent = np.frexp(alphas)[1]
    for e in np.unique(exponent):
        at = exponent == e
        out[at] = _rdp_integer_block(q, z, alphas[at])
    return out


def _rdp_integer_block(q: float, z: float, alphas: np.ndarray) -> np.ndarray:
    # The finite binomial sum: one row of terms per order, padded with
    # -inf past k = alpha (an exact no-op under logaddexp).
    from scipy import special
    k = np.arange(alphas.max() + 1.0)
    a = alphas[:, None]
    terms = (special.gammaln(a + 1) - special.gammaln(k + 1) - special.gammaln(a - k + 1)
             + (a - k) * math.log1p(-q) + k * math.log(q) + k * (k - 1) / (2.0 * z * z))
    terms = np.where(k <= a, terms, -np.inf)
    return np.logaddexp.reduce(terms, axis=1) / (alphas - 1.0)


# Truncation of the alternating tail: an order stops after the first
# term index i > alpha - 1 at which both terms are below e^-30.
_FRAC_TERM_CUTOFF = -30.0
_FRAC_MAX_TERMS = 100_000
# Terms per block of the fractional series. Every order's blocks start
# at i = 0 and have this width, and each order's sum runs through them
# in sequence, so no order's value depends on the other orders.
_FRAC_BLOCK = 64


def _rdp_fractional_orders(q: float, z: float, alphas: np.ndarray) -> np.ndarray:
    # The signed two-piece erfc series. Terms with a non-negative binomial
    # coefficient add to P, the others to N, each in log space; A = P - N.
    from scipy import special
    z2 = z * z
    z0 = z2 * math.log(1.0 / q - 1.0) + 0.5
    sqrt2z = math.sqrt(2.0) * z
    log_q, log_1mq = math.log(q), math.log1p(-q)
    log_half = math.log(0.5)
    log_p = np.full(alphas.shape, -np.inf)
    log_n = np.full(alphas.shape, -np.inf)
    active = np.arange(alphas.size)
    start = 0
    while active.size:
        if start >= _FRAC_MAX_TERMS:
            raise InvalidInput(f"moment series did not converge for q={q}, z={z}, "
                               f"alpha={alphas[active[0]]}")
        i = np.arange(start, start + _FRAC_BLOCK, dtype=float)
        a = alphas[active, None]
        j = a - i
        coef = special.binom(a, i)
        with np.errstate(divide="ignore"):
            log_coef = np.log(np.abs(coef))
        log_s0 = (log_coef + i * log_q + j * log_1mq + (i * i - i) / (2.0 * z2)
                  + (log_half + _log_erfc((i - z0) / sqrt2z)))
        log_s1 = (log_coef + j * log_q + i * log_1mq + (j * j - j) / (2.0 * z2)
                  + (log_half + _log_erfc((z0 - j) / sqrt2z)))
        stop = (np.maximum(log_s0, log_s1) < _FRAC_TERM_CUTOFF) & (i + 1.0 > a)
        done = stop.any(axis=1)
        # keep every term up to and including the first stopping index
        last = np.where(done, stop.argmax(axis=1), _FRAC_BLOCK)
        live = np.tile(np.arange(_FRAC_BLOCK) <= last[:, None], 2)
        sign = np.tile(coef >= 0.0, 2)
        terms = np.concatenate([log_s0, log_s1], axis=1)
        for acc, keep in ((log_p, live & sign), (log_n, live & ~sign)):
            acc[active] = np.logaddexp.reduce(
                np.column_stack([acc[active], np.where(keep, terms, -np.inf)]), axis=1)
        active = active[~done]
        start += _FRAC_BLOCK
    if (log_n > log_p).any():
        raise InvalidInput("moment series produced a negative sum")
    with np.errstate(divide="ignore"):
        log_a = log_p + np.log1p(-np.exp(log_n - log_p))
    return log_a / (alphas - 1.0)


def _rdp_orders(q: float, z: float, orders: np.ndarray) -> np.ndarray:
    """RDP of one Poisson-subsampled Gaussian (0 < q < 1) at every order.

    Each order's value depends on that order alone, bit for bit, not on
    which other orders share the call.
    """
    integer = orders == np.floor(orders)
    out = np.empty(orders.shape)
    out[integer] = _rdp_integer_orders(q, z, orders[integer])
    out[~integer] = _rdp_fractional_orders(q, z, orders[~integer])
    return out


def _rdp(q: float, z: float, orders: np.ndarray) -> np.ndarray:
    """RDP at every order: the Gaussian's closed form at q = 1, else the series."""
    if q == 1.0:
        return orders / (2.0 * z * z)
    return _rdp_orders(q, z, orders)


@lru_cache(maxsize=4096)
def _rdp_cached(q: float, z: float, orders: tuple) -> tuple:
    return tuple(_rdp(q, z, np.asarray(orders)).tolist())


def rdp_subsampled_gaussian(q: float, z: float, orders=DEFAULT_ORDERS) -> np.ndarray:
    """RDP at each order for one Poisson-subsampled Gaussian query."""
    if not 0.0 < q <= 1.0:
        raise InvalidInput(f"sampling rate must be in (0, 1]: {q}")
    if z <= 0 or not math.isfinite(z):
        raise InvalidInput(f"noise multiplier must be positive and finite: {z}")
    orders_arr = np.asarray(orders, dtype=float)
    if orders_arr.ndim != 1 or orders_arr.size == 0 or (orders_arr <= 1.0).any():
        raise InvalidInput("orders must be a non-empty array of values > 1")
    return np.array(_rdp_cached(float(q), float(z), tuple(orders_arr.tolist())))


def epsilon_and_order(rdp, orders, delta: float) -> tuple[float, float | None]:
    """The smallest epsilon over the orders and the order that attains it.

    The order is None when the RDP is infinite at every order.
    """
    if not 0.0 < delta < 1.0:
        raise InvalidInput(f"delta must be in (0, 1): {delta}")
    rdp = np.asarray(rdp, dtype=float)
    orders = np.asarray(orders, dtype=float)
    if rdp.shape != orders.shape:
        raise InvalidInput("rdp and orders shape mismatch")
    if np.isinf(rdp).all():
        return math.inf, None
    eps = rdp + math.log(1.0 / delta) / (orders - 1.0)
    best = int(np.argmin(eps))
    return float(eps[best]), float(orders[best])


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    mechanism: str
    q: float
    z: float
    count: int


class PrivacyLedger:
    """Additive RDP composition over every query charged to a run."""

    orders = DEFAULT_ORDERS

    def __init__(self):
        self.entries: list[LedgerEntry] = []
        self._rdp = np.zeros(len(self.orders))

    def record(self, mechanism: str, q: float, z: float, count: int = 1) -> None:
        if count < 1:
            raise InvalidInput(f"count must be >= 1: {count}")
        if z == 0.0:
            # no-noise mode: the run is unaccounted, epsilon is infinite
            self._rdp = self._rdp + math.inf
        else:
            self._rdp = self._rdp + count * rdp_subsampled_gaussian(q, z, self.orders)
        self.entries.append(LedgerEntry(mechanism, q, z, count))

    @property
    def total_rdp(self) -> np.ndarray:
        return self._rdp.copy()

    def epsilon(self, delta: float) -> float:
        if not self.entries:
            raise InvalidInput("cannot convert an empty ledger")
        return epsilon_and_order(self._rdp, self.orders, delta)[0]


@dataclass(frozen=True, slots=True)
class PlannedQuery:
    """One homogeneous block of queries in a calibration plan.

    z None means the block runs at the noise multiplier being searched;
    a fixed z composes as-is (already-calibrated phase).
    """

    q: float
    count: int
    z: float | None = None

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise InvalidInput(f"sampling rate must be in (0, 1]: {self.q}")
        if self.count < 1:
            raise InvalidInput(f"count must be >= 1: {self.count}")
        if self.z is not None and self.z <= 0:
            raise InvalidInput(f"fixed z must be positive: {self.z}")


def _plan_epsilons(plan, z: float, delta: float, keep=None) -> np.ndarray:
    """The plan's epsilon at each order DEFAULT_ORDERS[keep], searched entries at z.

    The one place a plan is composed. Entries are summed in plan order,
    so an order's value is the same bit for bit whichever orders are
    kept. On the full grid (keep None) every entry's RDP comes from the
    cached full-grid evaluation; with kept orders, fixed-z entries are
    sliced from it and searched entries are evaluated at those orders alone.
    """
    orders = _ORDERS if keep is None else _ORDERS[keep]
    total = np.zeros(orders.shape)
    for entry in plan:
        if entry.z is None and keep is not None:
            total += entry.count * _rdp(entry.q, z, orders)
        else:
            rdp = rdp_subsampled_gaussian(entry.q, z if entry.z is None else entry.z)
            total += entry.count * (rdp if keep is None else rdp[keep])
    return total + math.log(1.0 / delta) / (orders - 1.0)


def plan_epsilon(plan, z: float, delta: float) -> float:
    """The plan's epsilon on the full order grid, its searched entries at z."""
    plan = tuple(plan)
    if not 0.0 < delta < 1.0:
        raise InvalidInput(f"delta must be in (0, 1): {delta}")
    if any(entry.z is None for entry in plan) and (z <= 0 or not math.isfinite(z)):
        raise InvalidInput(f"noise multiplier must be positive and finite: {z}")
    return float(_plan_epsilons(plan, z, delta).min())


def calibrate_noise(target_epsilon: float, delta: float, plan) -> float:
    """Smallest z (on the bisection grid) whose replayed epsilon meets target.

    target_epsilon = inf is the no-noise sentinel and returns z = 0.

    Order pruning (module docstring) keeps every accept/reject decision,
    and so the returned z, bit for bit that of the full-grid search:
    after the upper endpoint and after each accepted step, the orders
    whose epsilon exceeds the target are dropped. Results are memoized,
    because sweeps and repeated seeds calibrate the same plan again.
    """
    plan = tuple(plan)
    if not plan:
        raise InvalidInput("empty query plan")
    if target_epsilon <= 0:
        raise InvalidInput(f"target epsilon must be positive: {target_epsilon}")
    if math.isinf(target_epsilon):
        return 0.0
    if all(entry.z is not None for entry in plan):
        raise InvalidInput("plan has no entry at the searched noise level")
    if not 0.0 < delta < 1.0:
        raise InvalidInput(f"delta must be in (0, 1): {delta}")
    return _bisect(target_epsilon, delta, plan)


@lru_cache(maxsize=256)
def _bisect(target_epsilon: float, delta: float, plan: tuple) -> float:
    lo, hi = Z_SEARCH_BOUNDS
    if _plan_epsilons(plan, lo, delta).min() <= target_epsilon:
        return lo
    eps = _plan_epsilons(plan, hi, delta)
    if eps.min() > target_epsilon:
        floor = math.log(1.0 / delta) / (_ORDERS[-1] - 1.0)
        raise CalibrationError(
            f"epsilon {target_epsilon} unreachable with z in [{lo}, {hi}]: the smallest "
            f"epsilon at z={hi} is {eps.min():.4g}, and no z goes below the order grid's "
            f"floor log(1/delta)/(alpha_max - 1) = {floor:.4g}")
    keep = np.flatnonzero(eps <= target_epsilon)
    while hi / lo - 1.0 > Z_SEARCH_REL_TOL:
        mid = math.sqrt(lo * hi)
        eps = _plan_epsilons(plan, mid, delta, keep)
        if eps.min() <= target_epsilon:
            hi = mid
            keep = keep[eps <= target_epsilon]
        else:
            lo = mid
    return hi
