import math

import numpy as np
import pytest
from scipy import optimize
from scipy.special import ndtr

from fedtrace import privacy
from fedtrace.errors import CalibrationError, InvalidInput
from fedtrace.experiment import ExperimentConfig, calibrate_budget
from fedtrace.privacy import (
    DEFAULT_ORDERS,
    Z_SEARCH_BOUNDS,
    Z_SEARCH_REL_TOL,
    LedgerEntry,
    PlannedQuery,
    PrivacyLedger,
    _rdp_orders,
    calibrate_noise,
    clip_l2,
    epsilon_and_order,
    gaussian_noise,
    noise_stddev,
    plan_epsilon,
    rdp_subsampled_gaussian,
)
from fedtrace.synth import GeneratorConfig
from oracle_rdp import GRID, oracle_rdp, oracle_rdp_integral, oracle_rdp_series
from scalar_rdp import rdp_fractional_order, rdp_order

# Computed once with the mpmath oracles (tests/oracle_rdp.py __main__);
# integer orders via exact series summation, fractional via quadrature.
FROZEN_GRID = [
    (0.001, 0.5, 2.0, 5.359671370362359e-05),
    (0.001, 1.0, 64.0, 24.98259781182767),
    (0.001, 1.0, 3.25, 2.801645492363086e-06),
    (0.01, 0.8, 2.0, 0.00037700224391936),
    (0.01, 1.0, 1.5, 0.00012725374332744983),
    (0.01, 1.0, 16.0, 3.0878507836962448),
    (0.01, 2.0, 256.0, 27.376770323086465),
    (0.01, 4.0, 32.5, 0.00010694441657077113),
    (0.02, 1.2, 8.0, 0.0019454867568119497),
    (0.02, 2.5, 1.75, 6.06723685541258e-05),
    (0.1, 0.8, 2.0, 0.037013791056266176),
    (0.1, 1.5, 12.25, 0.30451300093901845),
    (0.1, 3.0, 128.0, 4.790402176640102),
    (0.25, 1.0, 4.0, 0.44754083332038935),
    (0.25, 2.0, 6.5, 0.07670841246941118),
    (0.5, 1.5, 3.0, 0.22204387841993087),
    (0.5, 4.0, 48.75, 0.8704204030147276),
    (0.9, 2.0, 2.25, 0.23409477353409994),
    (0.99, 1.0, 5.0, 2.4876684640576396),
    (0.999, 10.0, 64.0, 0.31952515295995476),
]


def test_frozen_grid_is_current():
    # the frozen table really is the oracle's output (guards drift)
    assert [(q, z, a) for q, z, a, _ in FROZEN_GRID] == GRID
    for q, z, alpha, want in FROZEN_GRID[:4]:
        assert oracle_rdp(q, z, alpha) == pytest.approx(want, rel=1e-12)


def test_oracle_routes_agree_at_integer_orders():
    for q, z, alpha in [(0.01, 1.0, 16.0), (0.25, 1.0, 4.0), (0.9, 2.0, 3.0)]:
        series = oracle_rdp_series(q, z, alpha)
        integral = oracle_rdp_integral(q, z, alpha)
        assert integral == pytest.approx(series, rel=1e-10)


def test_rdp_matches_oracle_to_six_significant_digits():
    for q, z, alpha, want in FROZEN_GRID:
        got = float(rdp_subsampled_gaussian(q, z, [alpha])[0])
        assert got == pytest.approx(want, rel=1e-6), (q, z, alpha)


def test_no_subsampling_reduces_to_gaussian():
    orders = np.asarray(DEFAULT_ORDERS)
    for z in (0.5, 1.0, 3.7):
        got = rdp_subsampled_gaussian(1.0, z, orders)
        assert np.array_equal(got, orders / (2 * z * z))


def test_rdp_monotone_in_noise_and_sampling_rate():
    orders = [2.0, 4.5, 32.0]
    a = rdp_subsampled_gaussian(0.05, 1.0, orders)
    b = rdp_subsampled_gaussian(0.05, 2.0, orders)
    assert np.all(b < a)
    c = rdp_subsampled_gaussian(0.2, 1.0, orders)
    assert np.all(c > a)


def test_rdp_input_validation():
    with pytest.raises(InvalidInput):
        rdp_subsampled_gaussian(0.0, 1.0)
    with pytest.raises(InvalidInput):
        rdp_subsampled_gaussian(1.1, 1.0)
    with pytest.raises(InvalidInput):
        rdp_subsampled_gaussian(0.5, 0.0)
    with pytest.raises(InvalidInput):
        rdp_subsampled_gaussian(0.5, 1.0, orders=[1.0, 2.0])


def test_ledger_composition_is_additive():
    ledger = PrivacyLedger()
    ledger.record("norm", 0.1, 1.3, count=10)
    ledger.record("round", 0.02, 1.3, count=5)
    manual = (10 * rdp_subsampled_gaussian(0.1, 1.3, ledger.orders)
              + 5 * rdp_subsampled_gaussian(0.02, 1.3, ledger.orders))
    assert np.allclose(ledger.total_rdp, manual, rtol=1e-12)
    assert ledger.entries == [
        LedgerEntry("norm", 0.1, 1.3, 10), LedgerEntry("round", 0.02, 1.3, 5)]
    # repeated single charges equal one batched charge
    ledger2 = PrivacyLedger()
    for _ in range(10):
        ledger2.record("norm", 0.1, 1.3)
    ledger2.record("round", 0.02, 1.3, count=5)
    assert np.allclose(ledger2.total_rdp, ledger.total_rdp, rtol=1e-12)


def test_zero_noise_gives_infinite_epsilon():
    ledger = PrivacyLedger()
    ledger.record("round", 0.1, 0.0)
    assert ledger.epsilon(1e-5) == math.inf


def test_empty_ledger_rejected():
    with pytest.raises(InvalidInput):
        PrivacyLedger().epsilon(1e-5)


def test_conversion_matches_scalar_minimization_oracle():
    # pure Gaussian, one query: rdp(a) = a/2; continuous minimizer of
    # a/2 + log(1e5)/(a-1) found by an independent 1-d optimizer
    delta = 1e-5
    res = optimize.minimize_scalar(
        lambda a: a / 2 + math.log(1 / delta) / (a - 1),
        bounds=(1.0 + 1e-9, 256.0), method="bounded",
        options={"xatol": 1e-12},
    )
    orders = np.asarray(DEFAULT_ORDERS)
    got, _ = epsilon_and_order(orders / 2, orders, delta)
    assert got >= res.fun - 1e-12  # grid minimum cannot beat continuous
    assert got == pytest.approx(res.fun, rel=1e-3)


def test_conversion_reports_the_order_it_minimizes_at():
    delta = 1e-5
    orders = np.asarray(DEFAULT_ORDERS)
    epsilon, order = epsilon_and_order(orders / 2, orders, delta)
    # the ledger converts through the same minimization
    ledger = PrivacyLedger()
    ledger.record("round", 1.0, 1.0)
    assert ledger.epsilon(delta) == epsilon
    # a/2 + log(1/delta)/(a-1) is smallest near a = 1 + sqrt(2 log(1/delta)) = 5.80
    assert order == 5.75
    assert epsilon == order / 2 + math.log(1 / delta) / (order - 1)
    assert epsilon_and_order(np.full(orders.size, math.inf), orders, delta) == (math.inf, None)


def test_conversion_validates_delta():
    orders = np.asarray(DEFAULT_ORDERS)
    for delta in (0.0, 1.0, -0.5):
        with pytest.raises(InvalidInput):
            epsilon_and_order(orders / 2, orders, delta)


def test_calibration_replay_is_tight():
    delta = 1e-5
    for target, plan in [
        (1.0, [PlannedQuery(q=0.1, count=20)]),
        (5.0, [PlannedQuery(q=0.01, count=20)]),
        (10.0, [PlannedQuery(q=0.1, count=40), PlannedQuery(q=0.05, count=298)]),
    ]:
        z = calibrate_noise(target, delta, plan)
        replayed = plan_epsilon(plan, z, delta)
        assert 0.99 * target <= replayed <= target, (target, z, replayed)


def test_calibration_composes_fixed_noise_phases():
    delta = 1e-5
    plan = [PlannedQuery(q=0.05, count=298, z=4.0), PlannedQuery(q=0.1, count=20)]
    z = calibrate_noise(2.0, delta, plan)
    replayed = plan_epsilon(plan, z, delta)
    assert 0.99 * 2.0 <= replayed <= 2.0
    # the fixed phase alone already spends part of the budget
    fixed_only = plan_epsilon([plan[0]], 0.0, delta)  # z unused: all fixed
    assert 0 < fixed_only < 2.0
    with pytest.raises(InvalidInput):
        calibrate_noise(2.0, delta, [PlannedQuery(q=0.1, count=5, z=1.0)])


def test_calibration_sentinel_and_failure():
    assert calibrate_noise(math.inf, 1e-5, [PlannedQuery(q=0.1, count=10)]) == 0.0
    with pytest.raises(CalibrationError):
        calibrate_noise(1e-9, 1e-5, [PlannedQuery(q=1.0, count=10_000)])
    with pytest.raises(InvalidInput):
        calibrate_noise(1.0, 1e-5, [])
    with pytest.raises(InvalidInput):
        calibrate_noise(-1.0, 1e-5, [PlannedQuery(q=0.1, count=1)])


def test_calibration_monotone_in_target():
    delta = 1e-5
    plan = [PlannedQuery(q=0.02, count=30)]
    zs = [calibrate_noise(eps, delta, plan) for eps in (1.0, 5.0, 10.0)]
    assert zs[0] > zs[1] > zs[2] > 0


def full_grid_calibrate(target_epsilon, delta, plan):
    """Oracle: the bisection with no order pruning, every step on the full grid."""
    lo, hi = Z_SEARCH_BOUNDS
    if plan_epsilon(plan, lo, delta) <= target_epsilon:
        return lo
    if plan_epsilon(plan, hi, delta) > target_epsilon:
        raise CalibrationError(f"epsilon {target_epsilon} unreachable")
    while hi / lo - 1.0 > Z_SEARCH_REL_TOL:
        mid = math.sqrt(lo * hi)
        if plan_epsilon(plan, mid, delta) <= target_epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def _outcome(search, *args):
    try:
        return search(*args)
    except CalibrationError:
        return CalibrationError


_EXACTNESS_CASES = [
    ("q=0.01", [PlannedQuery(q=0.01, count=20)], (0.3, 1.0)),
    ("q=0.1", [PlannedQuery(q=0.1, count=10)], (1.0, 5.0)),
    ("q=1", [PlannedQuery(q=1.0, count=50)], (1.0, 5.0, 10.0)),
    ("fixed first", [PlannedQuery(q=0.1, count=30, z=2.0), PlannedQuery(q=0.1, count=5)],
     (5.0,)),
    ("fixed last", [PlannedQuery(q=0.1, count=5), PlannedQuery(q=0.05, count=30, z=2.0)],
     (5.0,)),
    ("two searched", [PlannedQuery(q=0.01, count=40), PlannedQuery(q=0.1, count=5)],
     (5.0,)),
    # at z = 0.01 one query at q=0.01 spends about 6273, less than 1e4
    ("returns lo", [PlannedQuery(q=0.01, count=1)], (1e4,)),
    # calibrates only at the orders above 256
    ("large orders", [PlannedQuery(q=0.1, count=10)], (0.01,)),
    ("unreachable", [PlannedQuery(q=0.1, count=10)], (0.002,)),
]


@pytest.mark.parametrize("plan,targets",
                         [case[1:] for case in _EXACTNESS_CASES],
                         ids=[case[0] for case in _EXACTNESS_CASES])
def test_pruned_calibration_equals_full_grid_oracle(plan, targets):
    delta = 1e-5
    for target in targets:
        want = _outcome(full_grid_calibrate, target, delta, plan)
        got = _outcome(calibrate_noise, target, delta, plan)
        assert got == want, (target, got, want)


def test_exactness_cases_cover_both_endpoint_outcomes():
    delta, plan = 1e-5, [PlannedQuery(q=0.01, count=1)]
    assert calibrate_noise(1e4, delta, plan) == Z_SEARCH_BOUNDS[0]
    # the error names the order grid's floor, log(1e5) / 4095
    with pytest.raises(CalibrationError,
                       match=r"floor log\(1/delta\)/\(alpha_max - 1\) = 0\.002811$"):
        calibrate_noise(0.002, delta, [PlannedQuery(q=0.1, count=10)])


def test_search_bounds_are_evaluated_once_per_sampling_rate(monkeypatch):
    privacy._rdp_cached.cache_clear()
    privacy._bisect.cache_clear()
    plan = [PlannedQuery(q=0.1, count=20)]
    calibrate_noise(1.0, 1e-5, plan)
    sizes = []
    original = privacy._rdp_orders

    def counting(q, z, orders):
        sizes.append(orders.size)
        return original(q, z, orders)

    monkeypatch.setattr(privacy, "_rdp_orders", counting)
    calibrate_noise(5.0, 1e-5, plan)
    assert sizes  # the pruned steps still evaluate their kept orders
    assert max(sizes) < len(DEFAULT_ORDERS)


def test_calibration_validates_delta():
    plan = [PlannedQuery(q=0.1, count=5)]
    for delta in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(InvalidInput):
            calibrate_noise(1.0, delta, plan)


def test_plan_epsilon_validates_delta_and_searched_noise():
    for plan in ([PlannedQuery(q=0.1, count=5)], [PlannedQuery(q=1.0, count=5)]):
        for delta in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InvalidInput, match="delta"):
                plan_epsilon(plan, 1.0, delta)
        # refused up front, before any series runs
        for z in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidInput, match="noise multiplier"):
                plan_epsilon(plan, z, 1e-5)
    # z only matters to searched entries: an all-fixed plan ignores it
    fixed = [PlannedQuery(q=0.1, count=5, z=1.0)]
    assert plan_epsilon(fixed, 0.0, 1e-5) == plan_epsilon(fixed, 7.0, 1e-5)


def test_rdp_does_not_increase_with_noise():
    # the property order pruning relies on, checked on the computed values
    zs = np.geomspace(*Z_SEARCH_BOUNDS, 16)
    for q in (0.01, 0.1):
        rdp = np.array([rdp_subsampled_gaussian(q, float(z)) for z in zs])
        rises = np.diff(rdp, axis=0) > 0
        assert not rises.any(), (q, np.argwhere(rises))


_ORDERS = np.asarray(DEFAULT_ORDERS)


def _assert_matches_scalar_reference(q, z, orders):
    got = _rdp_orders(q, z, orders)
    want = np.array([rdp_order(q, z, a) for a in orders.tolist()])
    assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want) + 1e-13), \
        (q, z, orders[np.argmax(np.abs(got - want))])


def test_block_evaluator_matches_scalar_series_on_dense_grid():
    for q in (0.001, 0.005, 0.02, 0.1, 0.3, 0.5, 0.9, 0.999):
        for z in np.geomspace(*Z_SEARCH_BOUNDS, 12):
            _assert_matches_scalar_reference(q, float(z), _ORDERS)


def test_block_evaluator_matches_scalar_series_in_the_long_tail():
    # small fractional orders at moderate noise sum the longest series
    orders = np.array([1.25, 1.5, 1.75, 2.25, 3.5])
    longest = 0
    for q in (0.01, 0.1, 0.5, 0.9):
        for z in np.linspace(0.3, 0.8, 11):
            _assert_matches_scalar_reference(q, float(z), orders)
            longest = max(longest, rdp_fractional_order(q, float(z), 1.25)[1])
    assert longest > 1900


def test_block_evaluator_is_batch_independent():
    # pruned calibration relies on each kept order's value equalling its
    # full-grid value bit for bit
    rng = np.random.default_rng(3)
    for q, z in [(0.01, 0.5), (0.1, 0.01), (0.1, 0.79), (0.1, 3.16), (0.5, 0.3), (0.9, 40.0)]:
        full = _rdp_orders(q, z, _ORDERS)
        alone = np.array([_rdp_orders(q, z, _ORDERS[i:i + 1])[0] for i in range(_ORDERS.size)])
        assert np.array_equal(alone, full), (q, z)
        for size in (1, 7, 40):
            keep = np.sort(rng.choice(_ORDERS.size, size, replace=False))
            assert np.array_equal(_rdp_orders(q, z, _ORDERS[keep]), full[keep]), (q, z, keep)
        assert np.array_equal(_rdp_orders(q, z, _ORDERS[::-1]), full[::-1])
        assert np.array_equal(rdp_subsampled_gaussian(q, z), full)


def test_clip_contract():
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.normal(size=rng.integers(1, 40)) * rng.choice([0.1, 1.0, 100.0])
        s = float(rng.uniform(0.1, 5.0))
        clipped = clip_l2(v, s)
        assert np.linalg.norm(clipped) <= s * (1 + 1e-12)
        if np.linalg.norm(v) <= s:
            assert np.array_equal(clipped, v)
        else:
            # direction preserved
            cos = np.dot(clipped, v) / (np.linalg.norm(clipped) * np.linalg.norm(v))
            assert cos == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(clip_l2(np.zeros(7), 1.0), np.zeros(7))
    with pytest.raises(InvalidInput):
        clip_l2(np.array([np.inf, 1.0]), 1.0)
    with pytest.raises(InvalidInput):
        clip_l2(np.ones(3), 0.0)


def test_noise_determinism_and_zero_sigma():
    a = gaussian_noise(2.0, 5, np.random.default_rng(42))
    b = gaussian_noise(2.0, 5, np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert np.array_equal(gaussian_noise(0.0, 5, np.random.default_rng(1)), np.zeros(5))
    with pytest.raises(InvalidInput):
        gaussian_noise(-1.0, 5, np.random.default_rng(1))


def test_noise_stddev_formula():
    assert noise_stddev(2.0, 1.0, 0.01, 10_000) == pytest.approx(2.0 / 100.0)
    with pytest.raises(InvalidInput):
        noise_stddev(1.0, 1.0, 0.0, 100)


def _gaussian_delta(epsilon: float, mu: float) -> float:
    """delta(epsilon) of one Gaussian mechanism with mu = sensitivity / sigma."""
    return ndtr(-epsilon / mu + mu / 2) - math.exp(epsilon) * ndtr(-epsilon / mu - mu / 2)


# the benchmark's staged-cli run (q=1 set explicitly) and the CI
# walkthrough's (q resolves to 1 at 15 participants)
_Q1_RUNS = {"staged-cli": dict(n_participants=100, q=1.0, rounds=3),
            "walkthrough": dict(n_participants=15, urls_per_participant=8, rounds=2)}


@pytest.mark.parametrize("target", [1.0, 5.0, 10.0])
@pytest.mark.parametrize("run", sorted(_Q1_RUNS))
def test_rdp_epsilon_is_at_least_the_exact_epsilon_at_q1(run, target):
    # At q=1 every query is a plain Gaussian, and k of them at z compose
    # to one Gaussian with mu = sqrt(k) / z, whose delta(epsilon) is exact.
    # The RDP conversion is an upper bound on that epsilon.
    config = ExperimentConfig(generator=GeneratorConfig(n_scripts=2000), epsilon=target,
                              **_Q1_RUNS[run])
    assert config.resolved_q == 1.0
    queries = 2 * 149  # ExtHighEntropy's F normalization queries, two per feature
    budget = calibrate_budget(config, 149)
    plan = [PlannedQuery(1.0, queries, z=budget.z_norm),
            PlannedQuery(1.0, config.rounds, z=budget.z_train)]
    rdp_epsilon = plan_epsilon(plan, budget.z_train, config.delta)
    mu = math.sqrt(queries / budget.z_norm ** 2 + config.rounds / budget.z_train ** 2)
    exact = optimize.brentq(lambda e: _gaussian_delta(e, mu) - config.delta, 0.0, 100.0,
                            xtol=1e-12)
    assert 0.0 < exact <= rdp_epsilon <= target
