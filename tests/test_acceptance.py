"""Acceptance gate: nine end-to-end checks over the whole system.

Each test covers one numbered contract and prints one verdict line
(visible with -s, or in the captured output of a failure):

1. rule-based detector exactness on the 24-case crafted-trace table
2. no-noise reductions: aggregation, private normalization, W=1 runs
3. clipping contract on random vectors and real local updates
4. accountant correctness against the high-precision oracle
5. optimizer gradient exactness and final-loss quality
6. ranking-metric agreement with brute-force threshold enumeration
7. reference trend grid at desk scale (multi-seed federated runs)
8. partition skew score: monotonicity and closed-form agreement
9. byte-identical artifact determinism across stage re-runs
"""

import dataclasses
import gc
import math
import time
from dataclasses import dataclass

import numpy as np

from fedtrace import heuristics
from fedtrace.experiment import (
    ExperimentConfig,
    build_participants,
    prepare_data,
    resolve_mask,
    stage_account,
    stage_evaluate,
    stage_generate,
    stage_partition,
    stage_train,
    train_in_memory,
)
from fedtrace.fedavg import TrainingRunConfig, centralized_fit, run_round, train
from fedtrace.fednorm import dp_fed_norm, participant_moments
from fedtrace.metrics import average_precision
from fedtrace.model import (
    LocalUpdateConfig,
    fit_logistic,
    local_update,
    logistic_loss_and_grad,
)
from fedtrace.partition import non_iidness_score
from fedtrace.privacy import (
    DEFAULT_ORDERS,
    PlannedQuery,
    calibrate_noise,
    clip_l2,
    plan_epsilon,
    rdp_subsampled_gaussian,
)
from fedtrace.seeding import NORM_QUERY, ROUND_SAMPLING, SCORE_SAMPLING, derive_rng
from fedtrace.synth import GeneratorConfig
from oracle_rdp import GRID, oracle_rdp
from test_heuristics import HEURISTIC_CASES
from test_metrics import brute_force_ap


@dataclass
class _Stub:
    participant_id: int
    features: np.ndarray
    labels: np.ndarray


@dataclass
class _SkewStub:
    participant_id: int
    fp_bitmasks: np.ndarray


def test_criterion_1_heuristic_exactness():
    start = time.perf_counter()
    assert len(HEURISTIC_CASES) == 24
    mismatches = [name for name, trace, expected in HEURISTIC_CASES
                  if heuristics.label(trace) != expected]
    elapsed = time.perf_counter() - start
    assert mismatches == [], f"mislabeled crafted traces: {mismatches}"
    assert elapsed < 1.0, f"24-case suite took {elapsed:.2f}s (budget 1s)"
    print(f"\nPASS criterion 1: 24/24 crafted traces labeled exactly "
          f"({elapsed * 1000:.0f}ms)")


def test_criterion_2_no_noise_reductions():
    start = time.perf_counter()

    # (a) one aggregation round with scripted deltas reduces to the
    # exact average when everyone participates and the noise is off.
    rng = np.random.default_rng(101)
    w, dim = 7, 6
    deltas = {i: rng.normal(size=dim + 1) for i in range(w)}
    stubs = [_Stub(i, np.zeros((2, dim), dtype=np.float32),
                   np.zeros(2, dtype=np.int8)) for i in range(w)]
    cfg = TrainingRunConfig(rounds=1, n_participants=w, q=1.0, z=0.0, clip_norm=5.0)
    theta0 = rng.normal(size=dim + 1)
    result = run_round(theta0, stubs, cfg, derive_rng(0, ROUND_SAMPLING, 1),
                       local_fn=lambda theta, p: deltas[p.participant_id])
    exact = theta0 + np.mean([deltas[i] for i in range(w)], axis=0)
    agg_err = float(np.max(np.abs(result.theta - exact)))
    assert agg_err <= 1e-12, f"aggregation deviates from exact average: {agg_err}"

    # (b) the private normalization query with q=1, z=0 reduces to the
    # plain average of per-participant clipped statistics.
    rng = np.random.default_rng(202)
    parts = []
    for i in range(6):
        n = 1 if i == 3 else int(rng.integers(2, 9))  # one var-abstainer
        parts.append(_Stub(i, rng.gamma(2.0, 0.4, size=(n, 5)),
                           np.zeros(n, dtype=np.int8)))
    clip_mu, clip_var, floor = 0.8, 0.6, 1e-6
    stats = dp_fed_norm(parts, q=1.0, z=0.0, clip_mu=clip_mu, clip_var=clip_var,
                        rng=derive_rng(5, NORM_QUERY), variance_floor=floor)
    mu_sum = np.zeros(5)
    var_sum = np.zeros(5)
    for p in parts:
        x = np.asarray(p.features, dtype=np.float64)
        mean = x.mean(axis=0)
        mu_sum += np.minimum(mean, clip_mu)
        if x.shape[0] >= 2:
            bessel = ((x - mean) ** 2).sum(axis=0) / (x.shape[0] - 1)
            var_sum += np.minimum(bessel, clip_var)
    mu_err = float(np.max(np.abs(stats.mu - mu_sum / len(parts))))
    var_err = float(np.max(np.abs(
        stats.s - np.maximum(var_sum / len(parts), floor))))
    assert mu_err <= 1e-12, f"normalization mean deviates: {mu_err}"
    assert var_err <= 1e-12, f"normalization variance deviates: {var_err}"

    # (c) a single-participant federation is bit-for-bit local training.
    rng = np.random.default_rng(303)
    dim, n = 8, 60
    X = rng.normal(size=(n, dim))
    y = (rng.random(n) < 0.4).astype(np.int8)
    cfg = TrainingRunConfig(rounds=3, n_participants=1, q=1.0, z=0.0,
                            clip_norm=1e3, local_epochs=1, seed=11)
    model, _ = train([_Stub(0, X, y)], dim, cfg)
    theta = np.zeros(dim + 1)
    for _ in range(cfg.rounds):
        theta = theta + local_update(theta, X, y, cfg.local) / 1.0
    assert np.array_equal(model.theta, theta), "W=1 run differs from local loop"

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"no-noise reductions took {elapsed:.1f}s (budget 10s)"
    print(f"\nPASS criterion 2: round avg err {agg_err:.1e}, norm stat err "
          f"{max(mu_err, var_err):.1e}, W=1 exact ({elapsed:.1f}s)")


def test_criterion_3_clipping_contract():
    rng = np.random.default_rng(404)
    bound = 0.5
    vectors = rng.normal(size=(10_000, 12))
    vectors *= 10.0 ** rng.uniform(-3, 3, size=(10_000, 1))
    worst = 0.0
    for v in vectors:
        clipped = clip_l2(v, bound)
        norm = float(np.linalg.norm(clipped))
        worst = max(worst, norm)
        assert norm <= bound + 1e-12, f"clip overshoots: {norm}"
        full = float(np.linalg.norm(v))
        if full <= bound:
            assert np.array_equal(clipped, v), "in-ball vector was altered"
        else:
            ray_err = float(np.max(np.abs(clipped - v * (bound / full))))
            assert ray_err <= 1e-12, f"direction not preserved: {ray_err}"

    worst_delta = 0.0
    for _ in range(300):
        dim = int(rng.integers(2, 13))
        n = int(rng.integers(5, 41))
        X = rng.normal(size=(n, dim)) * (10.0 ** rng.uniform(-1, 2))
        y = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(np.int8)
        theta0 = rng.normal(size=dim + 1) * rng.uniform(0.0, 3.0)
        cfg = LocalUpdateConfig(epochs=int(rng.integers(1, 4)), clip_norm=0.3)
        delta = local_update(theta0, X, y, cfg)
        norm = float(np.linalg.norm(delta))
        worst_delta = max(worst_delta, norm)
        assert norm <= cfg.clip_norm + 1e-12, f"local update overshoots: {norm}"
    print(f"\nPASS criterion 3: 10^4 clipped vectors <= {bound} + 1e-12 "
          f"(max {worst:.12f}), 300 local updates <= 0.3 (max {worst_delta:.12f})")


def test_criterion_4_accountant():
    start = time.perf_counter()

    orders = np.asarray(DEFAULT_ORDERS, dtype=float)
    for z in (0.5, 1.0, 2.0, 4.7):
        got = rdp_subsampled_gaussian(1.0, z, DEFAULT_ORDERS)
        assert np.array_equal(got, orders / (2.0 * z * z)), \
            f"q=1 closed form violated at z={z}"

    assert len(GRID) == 20
    worst = 0.0
    for q, z, alpha in GRID:
        got = float(rdp_subsampled_gaussian(q, z, [alpha])[0])
        want = float(oracle_rdp(q, z, alpha))
        worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-6, f"grid disagrees with oracle: rel err {worst:.2e}"

    plan = [PlannedQuery(q=0.01, count=298), PlannedQuery(q=0.1, count=50)]
    replays = []
    for target in (1.0, 5.0, 10.0):
        z_cal = calibrate_noise(target, 1e-5, plan)
        replay = plan_epsilon(plan, z_cal, 1e-5)
        replays.append(replay)
        assert 0.99 * target <= replay <= target, \
            f"calibration replay {replay} outside [0.99*{target}, {target}]"

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"accountant checks took {elapsed:.1f}s (budget 30s)"
    print(f"\nPASS criterion 4: q=1 exact, 20-point grid rel err {worst:.1e}, "
          f"replays {['%.4f' % r for r in replays]} ({elapsed:.1f}s)")


def test_criterion_5_optimizer():
    rng = np.random.default_rng(505)

    worst_rel = 0.0
    h = 1e-5
    for _ in range(100):
        X = rng.normal(size=(30, 20)) * (10.0 ** rng.uniform(-1, 1))
        y = (rng.random(30) < 0.5).astype(np.int8)
        theta = rng.normal(size=21)
        _, grad = logistic_loss_and_grad(theta, X, y)
        fd = np.empty_like(theta)
        for i in range(theta.size):
            step = np.zeros_like(theta)
            step[i] = h
            up, _ = logistic_loss_and_grad(theta + step, X, y)
            down, _ = logistic_loss_and_grad(theta - step, X, y)
            fd[i] = (up - down) / (2.0 * h)
        rel = float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12))
        worst_rel = max(worst_rel, rel)
    assert worst_rel <= 1e-6, f"gradient vs central differences: {worst_rel:.2e}"

    worst_gap = -math.inf
    for _ in range(10):
        dim = int(rng.integers(3, 7))
        n = int(rng.integers(20, 41))
        X = rng.normal(size=(n, dim))
        y = (rng.random(n) < 0.5).astype(np.int8)
        theta_hat, _ = fit_logistic(X, y)
        loss_hat, _ = logistic_loss_and_grad(theta_hat, X, y)
        # long-run backtracking gradient descent as the reference
        theta = np.zeros(dim + 1)
        loss, grad = logistic_loss_and_grad(theta, X, y)
        for _ in range(5000):
            step = 1.0
            while True:
                cand = theta - step * grad
                cand_loss, cand_grad = logistic_loss_and_grad(cand, X, y)
                if cand_loss <= loss - 1e-4 * step * float(grad @ grad) \
                        or step < 1e-18:
                    break
                step *= 0.5
            theta, loss, grad = cand, cand_loss, cand_grad
        worst_gap = max(worst_gap, loss_hat - loss)
        assert loss_hat <= loss + 1e-6, \
            f"fit loss {loss_hat} above descent reference {loss} + 1e-6"
    print(f"\nPASS criterion 5: gradient rel err {worst_rel:.1e}, "
          f"loss vs 5000-step descent gap <= {worst_gap:.2e}")


def test_criterion_6_ranking_metric():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(50):
        scores = np.round(rng.normal(size=200), 1)  # heavy ties
        labels = rng.random(200) < rng.uniform(0.05, 0.5)
        while not labels.any():
            labels = rng.random(200) < 0.2
        got = average_precision(scores, labels)
        want = brute_force_ap(scores.tolist(), labels.tolist())
        worst = max(worst, abs(got - want))
    assert worst <= 1e-12, f"disagrees with brute force: {worst:.2e}"

    labels = rng.random(200) < 0.3
    while not labels.any():
        labels = rng.random(200) < 0.3
    perfect = average_precision(labels.astype(float), labels)
    assert abs(perfect - 1.0) <= 1e-12, f"perfect ranking scored {perfect}"
    constant = average_precision(np.full(200, 0.25), labels)
    prevalence = labels.sum() / 200.0
    assert abs(constant - prevalence) <= 1e-12, \
        f"constant scores gave {constant}, prevalence is {prevalence}"
    print(f"\nPASS criterion 6: 50 brute-force instances agree (max diff "
          f"{worst:.1e}), perfect=1, constant=prevalence")


def test_criterion_7_reference_trend_grid():
    start = time.perf_counter()
    inf = math.inf
    results = {}
    for seed in range(5):
        base = ExperimentConfig(
            generator=GeneratorConfig(n_scripts=100_000),
            feature_set="ExtHighEntropy",
            n_participants=100,
            urls_per_participant=10,
            rounds=25,
            local_iterations=12,
            epsilon=inf,
            variance_floor=1e-2,
            seed=seed,
        )
        prepared = prepare_data(base)
        mask = resolve_mask(prepared.corpus.catalog, base.feature_set)
        labels = prepared.corpus.labels
        test_rows = prepared.test_rows
        for w in (1, 100, 1000, 10_000):
            cfg_w = dataclasses.replace(base, n_participants=w)
            parts = build_participants(prepared, cfg_w)
            moments = participant_moments(parts, mask)
            cells = ([(inf, True)] if w in (1, 100) else
                     [(1.0, True), (5.0, True), (10.0, True), (inf, True),
                      (1.0, False), (5.0, False)])
            for eps, norm in cells:
                cfg = dataclasses.replace(cfg_w, epsilon=eps, normalize=norm,
                                          q=1.0 if w in (1, 100) else None)
                outcome = train_in_memory(prepared, parts, cfg,
                                          moments=moments if norm else None)
                scores = outcome.model.decision_scores(outcome.matrix[test_rows])
                results[(seed, w, eps, norm)] = average_precision(
                    scores, labels[test_rows])
                if w == 100:
                    baseline = centralized_fit(outcome.matrix[prepared.train_rows],
                                               labels[prepared.train_rows])
                    results[(seed, "central")] = average_precision(
                        baseline.decision_scores(outcome.matrix[test_rows]),
                        labels[test_rows])
            del parts, moments
        del prepared
        gc.collect()

    def cell(w, eps, norm=True):
        return np.array([results[(s, w, eps, norm)] for s in range(5)])

    checks = []

    central = np.array([results[(s, "central")] for s in range(5)])
    federated = cell(100, inf)
    gap = abs(federated.mean() - central.mean())
    checks.append((gap <= 0.02,
                   f"(a) W=100 q=1 mean {federated.mean():.4f} vs centralized "
                   f"{central.mean():.4f}, gap {gap:.4f} (need <= 0.02)"))

    for w in (1000, 10_000):
        row = [cell(w, eps) for eps in (1.0, 5.0, 10.0, inf)]
        ordered = all(
            row[i].mean() <= row[i + 1].mean()
            + max(row[i].std(), row[i + 1].std())
            for i in range(3))
        means = ", ".join(f"{r.mean():.4f}" for r in row)
        stds = ", ".join(f"{r.std():.4f}" for r in row)
        checks.append((ordered,
                       f"(b) W={w} means [{means}] ordered over eps "
                       f"1/5/10/inf within 1 std [{stds}]"))

    margin = cell(100, inf).mean() - cell(1, inf).mean()
    checks.append((margin >= 0.10,
                   f"(c) W=100 mean beats W=1 mean by {margin:.4f} "
                   f"(need >= 0.10)"))

    for w in (1000, 10_000):
        for eps in (1.0, 5.0):
            on = cell(w, eps, True).mean()
            off = cell(w, eps, False).mean()
            checks.append((on >= off,
                           f"(d) W={w} eps={eps:g}: normalization-on mean "
                           f"{on:.4f} vs off {off:.4f} (need on >= off)"))

    elapsed = time.perf_counter() - start
    checks.append((elapsed < 1800.0,
                   f"(t) grid runtime {elapsed:.0f}s (budget 1800s)"))

    print()
    for ok, line in checks:
        print(("  ok   " if ok else "  FAIL ") + line)
    failed = [line for ok, line in checks if not ok]
    assert not failed, "trend sub-checks failed: " + " | ".join(failed)
    print(f"PASS criterion 7: trend grid reproduced ({elapsed:.0f}s)")


def test_criterion_8_non_iidness_score():
    # closed form: two participants, hand-computable smoothed KL
    b1 = np.array([0, 1, 1, 1, 2, 5])
    b2 = np.array([2, 2, 3, 15, 0])
    score = non_iidness_score([_SkewStub(0, b1), _SkewStub(1, b2)])

    def smoothed(bits):
        counts = [0.0] * 15
        for b in bits:
            if b:
                counts[b - 1] += 1.0
        total = sum(counts)
        return [(c + 1e-3) / (total + 15 * 1e-3) for c in counts]

    p, q = smoothed(b1), smoothed(b2)
    kl_pq = sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))
    kl_qp = sum(qi * math.log(qi / pi) for pi, qi in zip(p, q))
    closed = 0.5 * (kl_pq + kl_qp)
    assert abs(score - closed) <= 1e-9, f"score {score} vs closed form {closed}"

    # monotone in the limited-knowledge fraction, every seed
    rows = {}
    for seed in range(5):
        base = ExperimentConfig(
            generator=GeneratorConfig(n_scripts=20_000, fp_prevalence=0.02),
            n_participants=100,
            urls_per_participant=8,
            seed=seed,
        )
        prepared = prepare_data(base)
        scores = []
        for fraction in (0.0, 0.5, 1.0):
            cfg = dataclasses.replace(base, limited_knowledge_fraction=fraction)
            parts = build_participants(prepared, cfg)
            rng = derive_rng(cfg.seed, SCORE_SAMPLING)
            scores.append(non_iidness_score(parts, rng=rng))
        rows[seed] = scores
    bad = {s: v for s, v in rows.items() if not v[0] <= v[1] <= v[2]}
    assert not bad, f"skew score not monotone in knowledge fraction: {bad}"
    print(f"\nPASS criterion 8: closed form |diff| "
          f"{abs(score - closed):.1e}, monotone on all 5 seeds "
          f"(e.g. seed 0: {', '.join(f'{v:.2f}' for v in rows[0])})")


def test_criterion_9_determinism(tmp_path):
    cfg = ExperimentConfig(
        generator=GeneratorConfig(n_scripts=2500, fp_prevalence=0.02),
        n_participants=20,
        urls_per_participant=8,
        rounds=3,
        local_iterations=8,
        epsilon=5.0,
        seed=7,
    )

    def run_all(path):
        stage_generate(cfg, path)
        stage_partition(cfg, path)
        stage_train(cfg, path)
        stage_evaluate(path)
        stage_account(path)

    def snapshot(path):
        return {p.relative_to(path): p.read_bytes()
                for p in sorted(path.rglob("*")) if p.is_file()}

    first, second = tmp_path / "a", tmp_path / "b"
    run_all(first)
    run_all(second)
    snap_a, snap_b = snapshot(first), snapshot(second)
    assert set(snap_a) == set(snap_b)
    different = [str(k) for k in snap_a if snap_a[k] != snap_b[k]]
    assert not different, f"fresh-directory rerun differs: {different}"

    # re-running later stages in place must reproduce the same bytes
    stage_train(cfg, first)
    stage_evaluate(first)
    stage_account(first)
    snap_again = snapshot(first)
    assert set(snap_again) == set(snap_a)
    different = [str(k) for k in snap_a if snap_a[k] != snap_again[k]]
    assert not different, f"in-place stage rerun differs: {different}"
    print(f"\nPASS criterion 9: {len(snap_a)} artifacts byte-identical across "
          f"directories and in-place stage re-runs")
