"""Normalization-phase tests.

Oracles: brute_force_stats recomputes the no-noise full-participation
aggregate directly from each participant's raw matrix with numpy's own
mean/var, keeping the fixed W denominator and per-query abstention;
local_mean and local_var state one participant's clipped statistic for
one column at a time, the definition participant_moments vectorizes.
"""

from __future__ import annotations

import json
import re
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from fedtrace.csr import CSRMatrix
from fedtrace.errors import InsufficientData, InvalidInput
from fedtrace.fednorm import (
    DEFAULT_CLIP_MU,
    DEFAULT_CLIP_VAR,
    NORMALIZE_MODES,
    ColumnMoments,
    NOISE_SIGMAS,
    NormStats,
    VARIANCE_FLOOR,
    dp_fed_norm,
    fold_model,
    normalize_matrix,
    participant_moments,
    save_norm_stats,
)
from fedtrace.model import BLOCK_ROWS, LogisticModel
from fedtrace.privacy import PrivacyLedger, noise_stddev
from oracle_stats import exact_stats


class FakeParticipant:
    """Stands in for a participant dataset: just a feature matrix."""

    def __init__(self, rows):
        self.features = np.asarray(rows, dtype=np.float64).reshape(-1, 3)


# ---------------------------------------------------------------- oracle

def brute_force_stats(matrices, clip_mu, clip_var):
    """No-noise, q=1 aggregate: mean over W of statistics clipped to [0, clip]."""
    w = len(matrices)
    n_features = matrices[0].shape[1] if matrices[0].size else 3
    mu = np.zeros(n_features)
    s = np.zeros(n_features)
    for x in matrices:
        if x.shape[0] >= 1:
            mu += np.clip(x.mean(axis=0), 0.0, clip_mu)
        if x.shape[0] >= 2:
            s += np.clip(x.var(axis=0, ddof=1), 0.0, clip_var)
    return mu / w, s / w


def local_mean(dataset, f: int, clip_mu: float = DEFAULT_CLIP_MU) -> float:
    """Upper-clipped column mean; raises InsufficientData to abstain."""
    x = np.asarray(dataset.features, dtype=np.float64)
    if x.shape[0] == 0:
        raise InsufficientData("participant has no scripts for the mean query")
    return float(min(x[:, f].mean(), clip_mu))


def local_var(dataset, f: int, clip_var: float = DEFAULT_CLIP_VAR) -> float:
    """Upper-clipped sample variance (n-1 denominator); abstains for n < 2."""
    x = np.asarray(dataset.features, dtype=np.float64)
    if x.shape[0] < 2:
        raise InsufficientData("variance query needs at least two scripts")
    col = x[:, f]
    s = float(((col - col.mean()) ** 2).sum() / (x.shape[0] - 1))
    return min(s, clip_var)


def make_participants(rng, w=9, include_empty=True, include_single=True):
    parts = []
    for i in range(w):
        if include_empty and i == 2:
            rows = np.empty((0, 3))
        elif include_single and i == 5:
            rows = rng.normal(size=(1, 3)) * 3
        else:
            rows = rng.normal(loc=rng.uniform(-2, 2), size=(rng.integers(2, 30), 3)) * 2
        parts.append(FakeParticipant(rows))
    return parts


# ---------------------------------------------------------------- local ops

def test_local_mean_examples():
    p = FakeParticipant(np.array([[1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]]))
    assert local_mean(p, 0, 10.0) == 2.0
    assert local_mean(p, 1, 10.0) == 0.0
    assert local_mean(FakeParticipant(np.array([[100.0, 0, 0]])), 0, 5.0) == 5.0
    with pytest.raises(InsufficientData):
        local_mean(FakeParticipant(np.empty((0, 3))), 0, 1.0)


def test_local_var_examples():
    p = FakeParticipant(np.array([[1.0, 0, 0], [3.0, 0, 0]]))
    assert local_var(p, 0, 10.0) == 2.0
    zeros = FakeParticipant(np.zeros((3, 3)))
    assert local_var(zeros, 0, 10.0) == 0.0
    wide = FakeParticipant(np.array([[0.0, 0, 0], [100.0, 0, 0]]))
    assert local_var(wide, 0, 1.0) == 1.0
    with pytest.raises(InsufficientData):
        local_var(FakeParticipant(np.array([[1.0, 0, 0]])), 0, 1.0)


# ---------------------------------------------------------------- aggregate

def test_dp_fed_norm_matches_brute_force_no_noise():
    rng = np.random.default_rng(10)
    parts = make_participants(rng)
    clip_mu, clip_var = 0.8, 1.7
    stats = dp_fed_norm(parts, q=1.0, z=0.0, clip_mu=clip_mu, clip_var=clip_var,
                        rng=np.random.default_rng(0))
    mu, s = brute_force_stats([p.features for p in parts], clip_mu, clip_var)
    np.testing.assert_allclose(stats.mu, mu, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(stats.s, np.maximum(s, VARIANCE_FLOOR),
                               rtol=1e-12, atol=1e-12)


def test_dp_fed_norm_identical_constant_participants():
    parts = [FakeParticipant(np.full((1, 3), 0.37)) for _ in range(6)]
    stats = dp_fed_norm(parts, q=1.0, z=0.0, clip_mu=1.0, clip_var=1.0,
                        rng=np.random.default_rng(0))
    np.testing.assert_allclose(stats.mu, 0.37, rtol=1e-12)


def test_dp_fed_norm_unbiased_under_sampling():
    # Monte Carlo over the participation coins, no noise: the mean of the
    # estimator converges to the full-participation brute-force value.
    rng = np.random.default_rng(3)
    parts = make_participants(rng, w=8)
    clip_mu, clip_var = 0.9, 1.2
    target_mu, target_s = brute_force_stats([p.features for p in parts], clip_mu, clip_var)
    mu_sum = np.zeros(3)
    s_sum = np.zeros(3)
    n_trials = 3000
    moments = participant_moments(parts)
    for t in range(n_trials):
        stats = dp_fed_norm(parts, q=0.4, z=0.0, clip_mu=clip_mu, clip_var=clip_var,
                            rng=np.random.default_rng(1000 + t), moments=moments)
        mu_sum += stats.mu
        s_sum += stats.s
    # loose 4-sigma Monte Carlo band: per-coin variance <= stat^2 / q
    assert np.abs(mu_sum / n_trials - target_mu).max() < 0.05
    assert np.abs(s_sum / n_trials - target_s).max() < 0.07


def test_dp_fed_norm_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(4)
    parts = make_participants(rng)
    a = dp_fed_norm(parts, q=0.5, z=1.3, rng=np.random.default_rng(77))
    b = dp_fed_norm(parts, q=0.5, z=1.3, rng=np.random.default_rng(77))
    c = dp_fed_norm(parts, q=0.5, z=1.3, rng=np.random.default_rng(78))
    np.testing.assert_array_equal(a.mu, b.mu)
    np.testing.assert_array_equal(a.s, b.s)
    assert not np.array_equal(a.mu, c.mu)


def test_dp_fed_norm_charges_two_queries_per_feature():
    rng = np.random.default_rng(5)
    parts = make_participants(rng)
    ledger = PrivacyLedger()
    before = ledger.total_rdp
    dp_fed_norm(parts, q=0.1, z=2.0, rng=np.random.default_rng(0), ledger=ledger)
    after = ledger.total_rdp
    assert (after > before).all()
    assert sum(e.count for e in ledger.entries) == 2 * 3

    # the charge is 2F regardless of sampling outcomes: same with tiny q
    ledger2 = PrivacyLedger()
    dp_fed_norm(parts, q=1e-6, z=2.0, rng=np.random.default_rng(0), ledger=ledger2)
    assert sum(e.count for e in ledger2.entries) == 2 * 3


def test_dp_fed_norm_variance_floor_and_validation():
    rng = np.random.default_rng(6)
    parts = make_participants(rng)
    stats = dp_fed_norm(parts, q=1.0, z=50.0, rng=np.random.default_rng(1))
    assert (stats.s >= VARIANCE_FLOOR).all()

    with pytest.raises(InvalidInput):
        dp_fed_norm(parts, q=0.0, z=1.0, rng=np.random.default_rng(0))
    with pytest.raises(InvalidInput):
        dp_fed_norm(parts, q=0.5, z=-1.0, rng=np.random.default_rng(0))
    with pytest.raises(InvalidInput):
        dp_fed_norm(parts, q=0.5, z=1.0, clip_mu=0.0, rng=np.random.default_rng(0))
    with pytest.raises(InvalidInput):
        dp_fed_norm(parts, q=0.5, z=1.0, rng=None)
    with pytest.raises(InvalidInput):
        participant_moments([])


def test_dp_fed_norm_variance_floored_at_noise_scale():
    rng = np.random.default_rng(11)
    parts = make_participants(rng)
    for z, q, clip_var, floor in ((0.5, 1.0, 1.0, 1e-6), (3.0, 0.5, 2.0, 1e-2),
                                  (40.0, 0.2, 0.5, 1e-6)):
        sigma_var = noise_stddev(z, clip_var, q, len(parts))
        for seed in range(20):
            stats = dp_fed_norm(parts, q=q, z=z, clip_var=clip_var,
                                rng=np.random.default_rng(seed), variance_floor=floor)
            assert (stats.s >= max(floor, NOISE_SIGMAS * sigma_var)).all()


def _replayed_noisy_mean(parts, z, clip_mu, seed):
    # Re-draw the documented rng order (mean coins, variance coins, mean
    # noise) with q=1, where every coin comes up heads, to recover the
    # noisy mean before post-processing.
    rng = np.random.default_rng(seed)
    w, n_features = len(parts), parts[0].features.shape[1]
    rng.random((w, n_features))
    rng.random((w, n_features))
    mu, _ = brute_force_stats([p.features for p in parts], clip_mu, np.inf)
    return mu + rng.normal(0.0, noise_stddev(z, clip_mu, 1.0, w), n_features)


def test_dp_fed_norm_leaves_noise_level_means_uncentred():
    rng = np.random.default_rng(12)
    # column 0 has true mean 0, column 1 a small one, column 2 a large one
    parts = [FakeParticipant(np.column_stack([
        rng.normal(0.0, 0.1, size=5), rng.normal(0.05, 0.1, size=5),
        rng.normal(0.8, 0.1, size=5)])) for _ in range(20)]
    z, clip_mu = 1.5, 1.0
    sigma_mu = noise_stddev(z, clip_mu, 1.0, len(parts))
    zeroed = kept = 0
    for seed in range(40):
        stats = dp_fed_norm(parts, q=1.0, z=z, clip_mu=clip_mu,
                            rng=np.random.default_rng(seed))
        noisy = _replayed_noisy_mean(parts, z, clip_mu, seed)
        small = np.abs(noisy) < NOISE_SIGMAS * sigma_mu
        assert (stats.mu[small] == 0.0).all()
        np.testing.assert_allclose(stats.mu[~small], noisy[~small], rtol=1e-12, atol=1e-12)
        zeroed += int(small.sum())
        kept += int((~small).sum())
    assert zeroed > 0 and kept > 0


def test_dp_fed_norm_keeps_clear_mean_near_clip():
    # true column-0 mean 0.95 just under clip_mu = 1; sigma_mu = 0.01
    rows = np.array([[1.0, 0, 0], [0.9, 0, 0], [1.0, 0, 0], [0.9, 0, 0]])
    parts = [FakeParticipant(rows) for _ in range(100)]
    z, clip_mu = 1.0, 1.0
    sigma_mu = noise_stddev(z, clip_mu, 1.0, len(parts))
    for seed in range(10):
        stats = dp_fed_norm(parts, q=1.0, z=z, clip_mu=clip_mu,
                            rng=np.random.default_rng(seed))
        assert stats.mu[0] != 0.0
        assert abs(stats.mu[0] - 0.95) < 5 * sigma_mu


def test_moments_agree_with_local_ops():
    rng = np.random.default_rng(8)
    parts = make_participants(rng, include_empty=False, include_single=False)
    moments = participant_moments(parts)
    for i, p in enumerate(parts):
        for f in range(3):
            assert moments.means[i, f] == pytest.approx(local_mean(p, f, np.inf), rel=1e-12)
            assert moments.variances[i, f] == pytest.approx(local_var(p, f, np.inf), rel=1e-12)
    with pytest.raises(InvalidInput):
        ColumnMoments(np.zeros(2, dtype=np.int64), np.zeros((3, 4)), np.zeros((3, 4)))


def test_one_participant_moves_each_mean_by_at_most_its_clip_over_qw():
    # z = 0: the release is the clipped sum over qW itself. Neighbouring
    # sets differ in participant 0 alone, whose means are -1e6 in one and
    # 0 in the other; a negative moment must be clipped from below too.
    rng = np.random.default_rng(21)
    w, n_features, q, clip_mu, clip_var = 5, 3, 1.0, 1.0, 2.0
    means = rng.random((w, n_features)) * 2.0
    variances = rng.random((w, n_features)) * 3.0
    released = []
    for value in (-1e6, 0.0):
        m, v = means.copy(), variances.copy()
        m[0], v[0] = value, value
        moments = ColumnMoments(np.full(w, 4, dtype=np.int64), m, v)
        released.append(dp_fed_norm([], q, 0.0, clip_mu, clip_var, rng=np.random.default_rng(0),
                                    moments=moments))
    a, b = released
    assert np.all(np.abs(a.mu - b.mu) <= clip_mu / (q * w))
    assert np.all(np.abs(a.s - b.s) <= clip_var / (q * w))


# ---------------------------------------------------------------- normalize

def test_normalize_formula_examples():
    stats = NormStats(np.zeros(3), np.full(3, 4.0), 1.0, 1.0)
    v = np.full((1, 3), 2.0)
    np.testing.assert_allclose(normalize_matrix(v, stats, mode="var"), 0.5)
    np.testing.assert_allclose(normalize_matrix(v, stats, mode="std"), 1.0)
    np.testing.assert_allclose(normalize_matrix(stats.mu[None], stats, mode="std"), 0.0)
    np.testing.assert_allclose(normalize_matrix(stats.mu[None], stats, mode="var"), 0.0)

    with pytest.raises(InvalidInput):
        normalize_matrix(np.zeros((1, 2)), stats)
    with pytest.raises(InvalidInput):
        normalize_matrix(np.zeros((1, 3)), stats, mode="mean")
    with pytest.raises(InvalidInput):
        normalize_matrix(np.zeros((2, 2)), stats)


def test_exact_stats_standardize_to_unit_variance():
    rng = np.random.default_rng(9)
    x = rng.normal(loc=3.0, scale=2.5, size=(400, 5)) ** 2
    stats = exact_stats(x)
    z = normalize_matrix(x, stats, mode="std")
    assert np.abs(z.mean(axis=0)).max() < 1e-9
    np.testing.assert_allclose(z.var(axis=0, ddof=1), 1.0, atol=1e-6)

    with pytest.raises(InvalidInput):
        exact_stats(x[:1])


def test_normalize_matrix_preserves_float32():
    x = np.random.default_rng(0).normal(size=(50, 4)).astype(np.float32)
    stats = exact_stats(x)
    out = normalize_matrix(x, stats)
    assert out.dtype == np.float32


def whole_matrix_normalize(x, stats, mode):
    """normalize_matrix's arithmetic over one float64 copy of all of x."""
    denom = np.sqrt(stats.s) if mode == "std" else stats.s
    out = x.astype(np.float64, copy=True)
    out -= stats.mu
    out /= denom
    return out.astype(x.dtype, copy=False) if x.dtype == np.float32 else out


@pytest.mark.parametrize("mode", ["std", "var"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                    2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1,
                                    2 * BLOCK_ROWS + 3, 4 * BLOCK_ROWS + 3])
def test_row_blocks_give_the_whole_matrix_bytes(n_rows, dtype, mode):
    rng = np.random.default_rng(n_rows)
    x = (rng.normal(size=(n_rows, 7)) * rng.lognormal(size=7) ** 3).astype(dtype)
    stats = NormStats(rng.normal(size=7), rng.lognormal(size=7) * 10.0, 1.0, 1.0)
    got = normalize_matrix(x, stats, mode=mode)
    want = whole_matrix_normalize(x, stats, mode)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_float64_row_is_the_formula_bytes():
    # two of the variances lie below the floor, which the denominator applies
    rng = np.random.default_rng(4)
    s = rng.lognormal(size=7)
    s[:2] = VARIANCE_FLOOR / 4
    stats = NormStats(rng.normal(size=7), s, 1.0, 1.0)
    x = rng.normal(size=(1, 7))
    for mode, denom in (("std", np.sqrt(np.maximum(stats.s, VARIANCE_FLOOR))),
                        ("var", np.maximum(stats.s, VARIANCE_FLOOR))):
        got = normalize_matrix(x, stats, mode=mode)
        assert got.tobytes() == ((x.astype(np.float64) - stats.mu) / denom).tobytes()


def test_norm_stats_are_frozen_and_read_only():
    mu, s = np.zeros(3), np.ones(3)
    stats = NormStats(mu, s, 1.0, 1.0)
    with pytest.raises(AttributeError):
        stats.mu = np.ones(3)
    for name in ("mu", "s"):
        with pytest.raises(ValueError):
            getattr(stats, name)[0] = 5.0
    assert mu.flags.writeable and s.flags.writeable
    mu[0] = 5.0
    assert stats.mu[0] == 0.0


def test_memoized_denominators_match_a_fresh_objects():
    rng = np.random.default_rng(5)
    mu, s = rng.normal(size=7), rng.lognormal(size=7) * 1e-3
    x = rng.normal(size=(3, 7))
    stats = NormStats(mu, s, 1.0, 1.0)
    calls = [("std", VARIANCE_FLOOR), ("std", VARIANCE_FLOOR), ("var", VARIANCE_FLOOR),
             ("std", 1e-2), ("var", 1e-2), ("std", VARIANCE_FLOOR), ("var", 1e-2)]
    for mode, floor in calls:
        got = normalize_matrix(x, stats, mode, variance_floor=floor)
        want = normalize_matrix(x, NormStats(mu, s, 1.0, 1.0), mode, variance_floor=floor)
        assert got.tobytes() == want.tobytes()
    assert "_denominators" not in repr(stats)


def test_bad_mode_raises_after_a_memoized_call():
    stats = NormStats(np.zeros(3), np.ones(3), 1.0, 1.0)
    normalize_matrix(np.ones((1, 3)), stats, "std")
    for _ in range(2):
        with pytest.raises(InvalidInput):
            normalize_matrix(np.ones((1, 3)), stats, "mean")


def test_float32_normalize_allocates_one_output_and_one_block():
    # 20k corpus rows of the 149-feature ExtHighEntropy set. A float64
    # copy of the whole matrix alone would be 2x its bytes.
    x = np.random.default_rng(3).random((20_000, 149), dtype=np.float32)
    stats = exact_stats(x[:100])
    tracemalloc.start()
    try:
        out = normalize_matrix(x, stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dtype == np.float32
    assert peak < 1.5 * x.nbytes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_rows", [1, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3])
def test_out_receives_the_new_arrays_bytes_in_place(n_rows, dtype):
    rng = np.random.default_rng(n_rows)
    x = (rng.normal(size=(n_rows, 7)) * rng.lognormal(size=7) ** 3).astype(dtype)
    stats = NormStats(rng.normal(size=7), rng.lognormal(size=7) * 10.0, 1.0, 1.0)
    for mode in NORMALIZE_MODES:
        want = normalize_matrix(x, stats, mode)
        block = x.copy()
        assert normalize_matrix(block, stats, mode, out=block) is block
        assert block.tobytes() == want.tobytes()
    with pytest.raises(InvalidInput):
        normalize_matrix(x, stats, out=np.empty((n_rows + 1, 7), dtype=dtype))


def test_float32_in_place_normalize_allocates_one_block():
    x = np.random.default_rng(3).random((20_000, 149), dtype=np.float32)
    stats = exact_stats(x[:100])
    tracemalloc.start()
    try:
        normalize_matrix(x, stats, out=x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float64 scratch block is (BLOCK_ROWS + 1) x 149 x 8 bytes, 2.4 MB
    assert peak < 0.25 * x.nbytes


def raw_corpus_rows(rng, n_rows, n_features):
    """float32 rows shaped like the corpus: mostly zero, small counts, a few wide columns."""
    x = rng.poisson(0.3, size=(n_rows, n_features)) * (rng.random((n_rows, n_features)) < 0.2)
    x = x * rng.lognormal(sigma=2.0, size=n_features)
    return x.astype(np.float32)


def fold_bound(x, stats, model, mode, variance_floor):
    """How far a folded score may lie from normalize-then-score, per row of x.

    Fixed from the formats before measuring. normalize_matrix rounds each
    normalized entry z of a float32 matrix to float32, a relative error of
    at most 2^-24, so the reference score can move by 2^-24 * sum|w z|.
    Everything else is float64: sums of at most F products on either
    side, and the fold's w/d, (w/d).mu and bias, each within F * 2^-53 of
    the magnitudes summed; 4 F 2^-53 of all of them covers both sides.
    """
    x = x.astype(np.float64)
    d = stats.denominator(mode, variance_floor)
    w, wf = np.abs(model.weights), np.abs(model.weights / d)
    z = np.abs((x - stats.mu) / d)
    f64 = np.abs(x) @ wf + np.abs(stats.mu) @ wf + z @ w + 2 * abs(model.bias)
    return 2.0 ** -24 * (z @ w) + 4 * x.shape[1] * 2.0 ** -53 * f64


def _fold_case(seed, n_rows, n_features=149):
    rng = np.random.default_rng(seed)
    x = raw_corpus_rows(rng, n_rows, n_features)
    mu = np.where(rng.random(n_features) < 0.5, 0.0, rng.normal(size=n_features) * 0.3)
    s = rng.lognormal(sigma=2.0, size=n_features)
    s[:10] = VARIANCE_FLOOR / 4  # variances below the floor
    stats = NormStats(mu, s, 1.0, 1.0)
    model = LogisticModel(rng.normal(size=n_features) * 3.0, float(rng.normal()))
    return x, stats, model


@pytest.mark.parametrize("mode", NORMALIZE_MODES)
@pytest.mark.parametrize("variance_floor", [VARIANCE_FLOOR, 1e-2])
@pytest.mark.parametrize("n_rows", [1, 300, 2 * BLOCK_ROWS + 3])
def test_folded_scores_equal_normalize_then_score(n_rows, variance_floor, mode):
    x, stats, model = _fold_case(n_rows, n_rows)
    want = model.decision_scores(normalize_matrix(x, stats, mode, variance_floor))
    folded = fold_model(model, stats, mode, variance_floor)
    got = folded.decision_scores(x)
    bound = fold_bound(x, stats, model, mode, variance_floor)
    assert np.all(np.abs(got - want) <= bound)
    # the sparse corpus matrix scores as its dense rows do
    m = csr_matrix(x)
    sparse = folded.decision_scores(CSRMatrix(m.data, m.indices, m.indptr, m.shape))
    assert sparse.dtype == np.float64 and sparse.shape == (n_rows,)
    assert np.all(np.abs(sparse - got) <= bound)


def test_fold_without_stats_is_the_model_itself():
    model = LogisticModel(np.ones(3), 0.5)
    assert fold_model(model, None, "std", VARIANCE_FLOOR) is model


def test_fold_is_the_formula():
    _, stats, model = _fold_case(1, 1)
    for mode in NORMALIZE_MODES:
        folded = fold_model(model, stats, mode, 1e-2)
        weights = model.weights / stats.denominator(mode, 1e-2)
        assert folded.weights.tobytes() == weights.tobytes()
        assert folded.bias == model.bias - float(weights.dot(stats.mu))


def test_constant_column_hits_floor_and_stays_total():
    x = np.ones((10, 2))
    stats = exact_stats(x)
    assert stats.s[0] == VARIANCE_FLOOR
    z = normalize_matrix(x, stats)
    assert np.isfinite(z).all()
    np.testing.assert_allclose(z, 0.0)


@pytest.mark.parametrize("edit, where", [
    (lambda obj: obj.__setitem__("mu", ["1.5", "2"]), "mu[0]"),
    (lambda obj: obj.__setitem__("clip_mu", "2"), "clip_mu"),
    (lambda obj: obj.__setitem__("mu", [True, 1.0]), "mu[0]"),
    (lambda obj: obj.pop("clip_var"), "clip_var"),
    (lambda obj: obj.__setitem__("z", 1.0), "z"),
], ids=["strings-as-means", "clip-as-string", "bool-as-mean", "missing-clip", "unknown-key"])
def test_norm_stats_from_dict_refuses_a_mistyped_missing_or_unknown_value(edit, where):
    # these were read as 1.5, 2.0 and 1.0, or raised a bare KeyError
    obj = NormStats(np.array([0.5, -1.0]), np.array([2.0, 0.25]), 1.0, 3.0).to_dict()
    edit(obj)
    with pytest.raises(InvalidInput, match=f"^{re.escape(where)}: "):
        NormStats.from_dict(obj)


def test_norm_stats_round_trip(tmp_path):
    stats = NormStats(np.array([0.5, -1.0]), np.array([2.0, 0.25]), 1.0, 3.0)
    path = tmp_path / "normstats.json"
    save_norm_stats(stats, path)
    loaded = NormStats.from_dict(json.loads(path.read_text(encoding="utf-8")))
    np.testing.assert_array_equal(loaded.mu, stats.mu)
    np.testing.assert_array_equal(loaded.s, stats.s)
    assert loaded.clip_mu == 1.0 and loaded.clip_var == 3.0

    with pytest.raises(InvalidInput):
        NormStats(np.zeros(2), np.zeros(2), 1.0, 1.0)
    with pytest.raises(InvalidInput):
        NormStats(np.zeros(2), np.ones(3), 1.0, 1.0)
