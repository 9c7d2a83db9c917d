import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.special import expit

from fedtrace.errors import InvalidInput, LineSearchError
from fedtrace.model import (
    BLOCK_ROWS,
    LocalUpdateConfig,
    LogisticModel,
    OptimizerConfig,
    fit_logistic,
    lbfgs_minimize,
    local_update,
    logistic_loss_and_grad,
    strong_wolfe_search,
)


def finite_difference_gradient(theta, X, y, l2, h=1e-5):
    """Central differences, coordinate by coordinate."""
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        lu, _ = logistic_loss_and_grad(up, X, y, l2)
        ld, _ = logistic_loss_and_grad(down, X, y, l2)
        grad[i] = (lu - ld) / (2 * h)
    return grad


def random_instance(rng, n=30, dim=20):
    X = rng.normal(size=(n, dim))
    w_true = rng.normal(size=dim)
    y = rng.random(n) < 1 / (1 + np.exp(-(X @ w_true)))
    return X, y


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        X, y = random_instance(rng)
        theta = rng.normal(size=X.shape[1] + 1)
        _, grad = logistic_loss_and_grad(theta, X, y, 1e-3)
        fd = finite_difference_gradient(theta, X, y, 1e-3)
        rel = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(grad))
        worst = max(worst, rel)
    assert worst <= 1e-6


def gd_oracle(X, y, l2, steps=100_000, lr=None):
    """Plain gradient descent with a safe fixed step size."""
    n, dim = X.shape
    if lr is None:
        smoothness = 0.25 * np.linalg.norm(X, 2) ** 2 / n + l2
        lr = 1.0 / smoothness
    theta = np.zeros(dim + 1)
    for _ in range(steps):
        _, grad = logistic_loss_and_grad(theta, X, y, l2)
        theta -= lr * grad
    return logistic_loss_and_grad(theta, X, y, l2)[0]


def test_final_loss_matches_long_gd_oracle():
    rng = np.random.default_rng(7)
    config = OptimizerConfig(max_iterations=500, gradient_tolerance=1e-8,
                             l2_lambda=1e-3)
    for _ in range(10):
        X, y = random_instance(rng, n=25, dim=8)
        theta, info = fit_logistic(X, y, config=config)
        want = gd_oracle(X, y, 1e-3)
        got = logistic_loss_and_grad(theta, X, y, 1e-3)[0]
        assert abs(got - want) <= 1e-6, info


def test_loss_is_stable_at_extreme_margins():
    X = np.array([[1000.0], [-1000.0]])
    y = np.array([True, False])
    theta = np.array([50.0, 0.0])
    loss, grad = logistic_loss_and_grad(theta, X, y, 0.0)
    assert math.isfinite(loss) and np.isfinite(grad).all()
    assert loss < 1e-6  # perfectly predicted points cost almost nothing
    proba = expit(LogisticModel.from_theta(theta).decision_scores(X))
    assert proba[0] == pytest.approx(1.0) and proba[1] == pytest.approx(0.0)


def test_fit_is_deterministic():
    rng = np.random.default_rng(3)
    X, y = random_instance(rng)
    t1, _ = fit_logistic(X, y)
    t2, _ = fit_logistic(X, y)
    assert np.array_equal(t1, t2)


def test_lbfgs_on_quadratic_converges_fast():
    A = np.diag(np.linspace(1.0, 30.0, 12))
    b = np.arange(12.0)

    def fun(x):
        return 0.5 * float(x @ A @ x) - float(b @ x), A @ x - b

    x, info = lbfgs_minimize(fun, np.zeros(12), OptimizerConfig(gradient_tolerance=1e-9))
    assert info["status"] == "converged"
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-7)


def test_lbfgs_on_rosenbrock():
    def fun(x):
        a, bb = x
        f = (1 - a) ** 2 + 100 * (bb - a * a) ** 2
        g = np.array([-2 * (1 - a) - 400 * a * (bb - a * a), 200 * (bb - a * a)])
        return f, g

    x, info = lbfgs_minimize(fun, np.array([-1.2, 1.0]),
                             OptimizerConfig(max_iterations=200, gradient_tolerance=1e-8))
    assert np.allclose(x, [1.0, 1.0], atol=1e-6)


def cliff(x):
    """f = -x up to 0.5 and non-finite beyond: descent runs off a cliff."""
    v = float(x[0])
    if v > 0.5:
        return math.inf, np.array([math.inf])
    return -v, np.array([-1.0])


def test_line_search_rejects_non_finite_regions():
    with pytest.raises(LineSearchError, match="non-finite"):
        strong_wolfe_search(cliff, np.zeros(1), 0.0, np.array([-1.0]), np.array([1e6]))


def test_line_search_exhausts_its_budget_on_unbounded_descent():
    def line(x):
        return -float(x[0]), np.array([-1.0])  # no minimum: the step doubles forever

    with pytest.raises(LineSearchError, match="budget"):
        strong_wolfe_search(line, np.zeros(1), 0.0, np.array([-1.0]), np.array([1.0]))


def test_failed_line_search_falls_back_to_a_gradient_step():
    # the Wolfe search's first trial (x = 1) is non-finite; the fallback
    # halves its step from 1 to 0.5, which lands on the cliff's edge
    x, info = lbfgs_minimize(cliff, np.zeros(1), OptimizerConfig(max_iterations=1))
    assert info == {"status": "max_iterations", "iterations": 1, "fallback_steps": 1}
    assert np.array_equal(x, [0.5])


def test_fallback_that_cannot_reduce_the_loss_raises():
    # from the cliff's edge every step forward is non-finite
    with pytest.raises(LineSearchError, match="fallback"):
        lbfgs_minimize(cliff, np.zeros(1), OptimizerConfig(max_iterations=2))


def test_single_class_dataset_stays_finite():
    X = np.random.default_rng(0).normal(size=(40, 5))
    y = np.zeros(40, dtype=bool)
    theta, info = fit_logistic(X, y)
    assert np.isfinite(theta).all()
    # all-negative data drives probabilities toward zero
    assert expit(LogisticModel.from_theta(theta).decision_scores(X)).mean() < 0.2


def test_local_update_respects_clip():
    rng = np.random.default_rng(11)
    cfg = LocalUpdateConfig(epochs=1, clip_norm=0.5)
    for _ in range(20):
        X, y = random_instance(rng, n=40, dim=6)
        delta = local_update(np.zeros(7), X, y, cfg)
        assert np.linalg.norm(delta) <= 0.5 * (1 + 1e-12)
    # multi-epoch re-anchoring also stays inside the ball
    cfg3 = LocalUpdateConfig(epochs=3, clip_norm=0.5)
    X, y = random_instance(rng, n=40, dim=6)
    delta3 = local_update(np.zeros(7), X, y, cfg3)
    assert np.linalg.norm(delta3) <= 0.5 * (1 + 1e-12)


def test_local_update_empty_dataset_is_zero():
    delta = local_update(np.ones(4), np.empty((0, 3)), np.empty(0, dtype=bool),
                         LocalUpdateConfig())
    assert np.array_equal(delta, np.zeros(4))


def test_local_update_multi_epoch_progresses():
    rng = np.random.default_rng(5)
    X, y = random_instance(rng, n=200, dim=4)
    one = local_update(np.zeros(5), X, y,
                       LocalUpdateConfig(epochs=1, clip_norm=0.2,
                                         optimizer=OptimizerConfig(max_iterations=50)))
    many = local_update(np.zeros(5), X, y,
                        LocalUpdateConfig(epochs=4, clip_norm=0.2,
                                          optimizer=OptimizerConfig(max_iterations=50)))
    l_one = logistic_loss_and_grad(np.zeros(5) + one, X, y)[0]
    l_many = logistic_loss_and_grad(np.zeros(5) + many, X, y)[0]
    assert l_many <= l_one + 1e-9



def test_local_update_clips_after_every_epoch():
    # an oracle loop that re-anchors each epoch's start inside the clip ball
    rng = np.random.default_rng(3)
    X, y = random_instance(rng, n=120, dim=6)
    X *= 2.0
    clip, theta_global = 0.5, np.zeros(7)
    optimizer = OptimizerConfig(max_iterations=3)  # no epoch converges
    cfg = LocalUpdateConfig(epochs=3, clip_norm=clip, optimizer=optimizer)

    def clipped(delta):
        return delta * (clip / max(clip, np.linalg.norm(delta)))

    theta = once = theta_global
    for _ in range(3):
        theta, info = fit_logistic(X, y, theta, optimizer)
        assert info["status"] == "max_iterations"
        assert np.linalg.norm(theta - theta_global) > clip  # the epoch leaves the ball
        theta = theta_global + clipped(theta - theta_global)
        once, _ = fit_logistic(X, y, once, optimizer)
    got = local_update(theta_global, X, y, cfg)
    np.testing.assert_allclose(got, theta - theta_global, rtol=0, atol=1e-12)
    # a loop that clips only once, after all epochs, lands elsewhere
    assert np.abs(clipped(once - theta_global) - got).max() > 1e-3

def test_config_validation():
    with pytest.raises(InvalidInput):
        OptimizerConfig(max_iterations=0)
    with pytest.raises(InvalidInput):
        LocalUpdateConfig(epochs=0)
    with pytest.raises(InvalidInput):
        LocalUpdateConfig(clip_norm=0.0)


# Run in a fresh interpreter with one BLAS thread: with more, OpenBLAS
# splits a gemv's rows between threads at points that depend on the row
# count, and the whole-matrix product's own last bits move with them.
_SCORE_CHECK = textwrap.dedent("""
    import sys
    import numpy as np
    from fedtrace.model import BLOCK_ROWS, LogisticModel
    model = LogisticModel(np.random.default_rng(0).normal(size=149), 0.3)
    for dtype in (np.float32, np.float64):
        for n in map(int, sys.argv[1:]):
            x = np.random.default_rng(n).normal(size=(n, 149)).astype(dtype)
            got = model.decision_scores(x)
            want = x.astype(np.float64) @ model.weights + model.bias
            if got.dtype != np.float64 or got.tobytes() != want.tobytes():
                print(np.dtype(dtype).name, n)
""")


def test_row_blocks_score_the_whole_matrix_bytes():
    rows = [0, 1, 2, 3, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1,
            2 * BLOCK_ROWS + 3]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", _SCORE_CHECK, *map(str, rows)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ""


# A fit over more than one row block, and its scores of the dense and
# the CSR matrix, in a fresh interpreter per thread count: OpenBLAS
# reads OPENBLAS_NUM_THREADS once, at import. A whole-matrix product
# over 20,000 rows splits between two threads and rounds differently
# from one thread.
_THREADS_CHECK = textwrap.dedent("""
    import hashlib
    import numpy as np
    from scipy.sparse import csr_matrix
    from fedtrace.csr import CSRMatrix
    from fedtrace.model import LogisticModel, OptimizerConfig, fit_logistic
    rng = np.random.default_rng(7)
    x = (rng.random((20_000, 149)) < 0.05).astype(np.float32)
    x[:, :20] *= rng.normal(size=(20_000, 20)).astype(np.float32)
    y = (x[:, :40].sum(axis=1) + rng.normal(size=20_000) > 0.5).astype(np.float64)
    theta, info = fit_logistic(x, y, config=OptimizerConfig(max_iterations=15))
    model = LogisticModel.from_theta(theta)
    scores = model.decision_scores(x)
    # the sparse form that score_splits and the round evaluator score
    m = csr_matrix(x)
    sparse_scores = model.decision_scores(CSRMatrix(m.data, m.indices, m.indptr, m.shape))
    print(info["iterations"], hashlib.sha256(theta.tobytes() + scores.tobytes()).hexdigest(),
          hashlib.sha256(sparse_scores.tobytes()).hexdigest())
""")


def test_fit_and_scores_do_not_depend_on_the_blas_thread_count():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", _THREADS_CHECK], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("n", [BLOCK_ROWS + 1, BLOCK_ROWS + 2, 2 * BLOCK_ROWS + 3])
def test_row_blocked_loss_and_grad_match_the_float64_formula(n, dtype, rtol):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 7))
    y = (rng.random(n) < 0.3).astype(np.float64)
    theta = rng.normal(size=8) * 0.3
    loss, grad = logistic_loss_and_grad(theta, X.astype(dtype), y, 1e-3)
    m = X @ theta[:-1] + theta[-1]
    r = expit(m) - y
    want_loss = np.mean(np.logaddexp(0.0, m) - y * m) + 0.5e-3 * theta[:-1] @ theta[:-1]
    want_grad = np.append(X.T @ r / n + 1e-3 * theta[:-1], r.mean())
    np.testing.assert_allclose(loss, want_loss, rtol=rtol)
    np.testing.assert_allclose(grad, want_grad, rtol=rtol, atol=rtol * np.abs(want_grad).max())
