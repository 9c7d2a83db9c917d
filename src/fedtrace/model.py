"""Logistic regression with an in-package L-BFGS optimizer.

The parameter vector theta is [weights..., bias]. The objective is mean
binary cross-entropy plus (lambda/2)*||w||^2 on the weights only, in the
numerically stable softplus form, so perfectly separated points cost
~exp(-|margin|) rather than overflowing.

The optimizer is L-BFGS with a strong-Wolfe line search. Its fixed
settings are module constants: HISTORY curvature pairs, the Wolfe
constants WOLFE_C1 and WOLFE_C2, MAX_LINE_SEARCH_EVALS trial steps,
MAX_ZOOM_STEPS zoom bisections and MAX_FALLBACK_HALVINGS halvings of
the gradient-step fallback.
OptimizerConfig holds only what callers set: the iteration cap, the
gradient tolerance and the L2 weight. lbfgs_minimize returns (x, info),
where info is exactly {"status", "iterations", "fallback_steps"}.

LOCAL_UPDATE runs E epochs; after each epoch the displacement from the
round's global model is re-clipped to L2 norm S and training resumes
from the clipped point, so the returned delta always has norm <= S.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, LineSearchError
from .privacy import clip_l2

DEFAULT_L2 = 1e-4
HISTORY = 10  # curvature pairs kept by L-BFGS
WOLFE_C1 = 1e-4  # sufficient decrease
WOLFE_C2 = 0.9  # curvature
MAX_LINE_SEARCH_EVALS = 25
MAX_ZOOM_STEPS = 30  # bisections of the bracketing interval
MAX_FALLBACK_HALVINGS = 40  # of the gradient-step fallback
# Rows per block of logistic_loss_and_grad's products over a tall X, and
# of normalize_matrix's float64 scratch: a multiple of 4, the row unroll
# of OpenBLAS's Haswell gemv kernel, so a row's margin does not depend on
# which block holds it, and few enough rows that OpenBLAS does not split
# a block's products between threads (4,095 rows did split), so a fit's
# bits do not depend on the BLAS thread count.
BLOCK_ROWS = 2048


@dataclass(frozen=True, slots=True)
class OptimizerConfig:
    max_iterations: int = 100
    gradient_tolerance: float = 1e-5
    l2_lambda: float = DEFAULT_L2

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidInput("max_iterations must be >= 1")


@dataclass(frozen=True, slots=True, eq=False)
class LogisticModel:
    weights: np.ndarray
    bias: float

    def __post_init__(self):
        if not (np.isfinite(self.weights).all() and math.isfinite(self.bias)):
            raise InvalidInput("model parameters must be finite")

    @property
    def theta(self) -> np.ndarray:
        return np.append(self.weights, self.bias)

    @classmethod
    def from_theta(cls, theta: np.ndarray) -> "LogisticModel":
        return cls(np.asarray(theta[:-1], dtype=float).copy(), float(theta[-1]))

    def decision_scores(self, X) -> np.ndarray:
        """X.dot(weights) + bias in float64, one score per row of X.

        One expression for every input: one dense row, a dense matrix of
        any dtype or height (float32 is upcast whole, with the bits of
        X.astype(float64) @ weights at one BLAS thread), or a
        csr.CSRMatrix, whose rows are summed in float64, serially, and
        never densified. X.dot gives @'s bits without its ufunc dispatch.
        A tall dense product is one BLAS gemv whose last bits can depend
        on the BLAS thread count (dense data at 8,195 rows differed under
        two threads); the program scores only sparse matrices and single
        rows, so no artifact depends on it.
        """
        return X.dot(self.weights) + self.bias


def _expit(x):
    """scipy.special.expit, imported on the first call, which rebinds this name to it.

    So only a process that trains loads scipy, and each later call is
    the ufunc itself.
    """
    global _expit
    from scipy.special import expit
    _expit = expit
    return expit(x)


def row_blocks(n: int):
    """Yield the slices of BLOCK_ROWS rows that cover n rows, in order.

    The last slice takes a one-row remainder: numpy scores a one-row
    matrix with dot, not with the gemv that scores the same row inside
    a taller matrix, and the two round differently. So n rows form one
    block when n <= BLOCK_ROWS + 1.
    """
    start = 0
    while start < n:
        stop = n if n - start <= BLOCK_ROWS + 1 else start + BLOCK_ROWS
        yield slice(start, stop)
        start = stop


def logistic_loss_and_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray,
                           l2_lambda: float = DEFAULT_L2) -> tuple[float, np.ndarray]:
    """Mean loss and its gradient at theta.

    Over more than one row block (row_blocks), the margins are computed
    block by block and X.T @ residual is summed over the blocks in
    ascending order, in float64, so no product spans more rows than one
    block and the bits do not depend on the BLAS thread count. One block
    takes the whole-matrix products.
    """
    n = X.shape[0]
    if n == 0:
        raise InvalidInput("empty dataset has no loss")
    one_block = n <= BLOCK_ROWS + 1
    w = theta[:-1]
    # matmuls run in X's own dtype: float32 matrices stay float32 (no
    # silent upcast copy of a multi-hundred-MB corpus per evaluation)
    compute = np.float32 if X.dtype == np.float32 else np.float64
    wc = w.astype(compute, copy=False)
    margins = (X.dot(wc) if one_block else np.concatenate(
        [X[rows].dot(wc) for rows in row_blocks(n)])) + compute(theta[-1])
    yf = y.astype(compute, copy=False)
    # mean(softplus(m) - y*m) == mean BCE, softplus(m) = log1p(exp(-|m|)) + max(m, 0)
    softplus = np.log1p(np.exp(-np.abs(margins))) + np.maximum(margins, 0)
    loss = float(np.add.reduce(softplus - yf * margins, dtype=np.float64)) / n
    loss += 0.5 * l2_lambda * float(w.dot(w))
    residual = _expit(margins) - yf
    grad = np.empty_like(theta, dtype=np.float64)
    xr = X.T.dot(residual) if one_block else sum(
        (X[rows].T.dot(residual[rows]).astype(np.float64) for rows in row_blocks(n)),
        np.zeros(X.shape[1]))
    grad[:-1] = xr.astype(np.float64) / n + l2_lambda * w
    grad[-1] = float(np.add.reduce(residual, dtype=np.float64)) / n
    return loss, grad


def _loss_resolution(phi0: float) -> float:
    """Smallest loss difference worth trusting near phi0.

    Once per-step decreases fall below a few ulp of the loss value the
    sufficient-decrease test cannot be certified in float64; comparisons
    within this band are treated as ties and the curvature condition
    alone decides acceptance (Hager-Zhang approximate Wolfe).
    """
    return 1e-14 * (1.0 + abs(phi0))


def _zoom(fun, x, d, phi0, dphi0, lo, hi, feps):
    """Bisection zoom (Nocedal-Wright 3.6); lo/hi are (alpha, phi, dphi)."""
    for _ in range(MAX_ZOOM_STEPS):
        alpha = 0.5 * (lo[0] + hi[0])
        phi, grad = fun(x + alpha * d)
        if not math.isfinite(phi):
            raise LineSearchError(f"non-finite loss at step {alpha}")
        dphi = float(grad.dot(d))
        if (phi > phi0 + WOLFE_C1 * alpha * dphi0 and phi > phi0 + feps) \
                or phi >= lo[1] + feps:
            hi = (alpha, phi, dphi)
        else:
            if abs(dphi) <= -WOLFE_C2 * dphi0:
                return alpha, phi, grad
            if dphi * (hi[0] - lo[0]) >= 0:
                hi = lo
            lo = (alpha, phi, dphi)
        if abs(hi[0] - lo[0]) < 1e-16:
            break
    raise LineSearchError("zoom failed to satisfy the strong Wolfe conditions")


def strong_wolfe_search(fun, x, phi0, grad0, d):
    """Returns (alpha, phi, grad) satisfying the strong Wolfe conditions."""
    dphi0 = float(grad0.dot(d))
    if dphi0 >= 0:
        raise LineSearchError("not a descent direction")
    feps = _loss_resolution(phi0)
    alpha_prev, phi_prev, dphi_prev = 0.0, phi0, dphi0
    alpha = 1.0
    for i in range(MAX_LINE_SEARCH_EVALS):
        phi, grad = fun(x + alpha * d)
        if not math.isfinite(phi):
            raise LineSearchError(f"non-finite loss at step {alpha}")
        dphi = float(grad.dot(d))
        if (phi > phi0 + WOLFE_C1 * alpha * dphi0 and phi > phi0 + feps) \
                or (i > 0 and phi >= phi_prev + feps):
            return _zoom(fun, x, d, phi0, dphi0,
                         (alpha_prev, phi_prev, dphi_prev), (alpha, phi, dphi), feps)
        if abs(dphi) <= -WOLFE_C2 * dphi0:
            return alpha, phi, grad
        if dphi >= 0:
            return _zoom(fun, x, d, phi0, dphi0,
                         (alpha, phi, dphi), (alpha_prev, phi_prev, dphi_prev), feps)
        alpha_prev, phi_prev, dphi_prev = alpha, phi, dphi
        alpha *= 2.0
    raise LineSearchError("line search exhausted its evaluation budget")


def _fallback_gradient_step(fun, x, phi0, grad):
    d = -grad
    gg = float(grad.dot(grad))
    feps = _loss_resolution(phi0)
    alpha = 1.0 / max(1.0, math.sqrt(gg))
    for _ in range(MAX_FALLBACK_HALVINGS):
        phi, g_new = fun(x + alpha * d)
        if math.isfinite(phi) and phi <= phi0 - WOLFE_C1 * alpha * gg + feps:
            return alpha, phi, g_new
        alpha *= 0.5
    raise LineSearchError("gradient-step fallback could not reduce the loss")


def lbfgs_minimize(fun, x0: np.ndarray, config: OptimizerConfig = OptimizerConfig()):
    """Minimize fun(x) -> (loss, grad). Returns (x, info dict).

    Deterministic: no randomness, fixed evaluation order. On a failed
    Wolfe search the optimizer clears its curvature memory and takes a
    backtracking gradient step; LineSearchError propagates only if that
    fallback cannot make progress either.
    """
    x = np.asarray(x0, dtype=float).copy()
    phi, grad = fun(x)
    if not math.isfinite(phi):
        raise InvalidInput("objective is non-finite at the initial point")
    memory = deque(maxlen=HISTORY)  # (s, y, rho), oldest first
    gamma = 1.0  # initial Hessian scale s.y / y.y of the newest pair
    fallbacks = 0
    iterations = 0
    while (grad_inf := float(np.abs(grad).max())) > config.gradient_tolerance \
            and iterations < config.max_iterations:
        # two-loop recursion
        d = -grad
        alphas = []
        for s, yv, rho in reversed(memory):
            a = rho * float(s.dot(d))
            alphas.append(a)
            d -= a * yv
        if memory:
            d *= gamma
        for (s, yv, rho), a in zip(memory, reversed(alphas)):
            b = rho * float(yv.dot(d))
            d += (a - b) * s
        try:
            alpha, phi_new, grad_new = strong_wolfe_search(fun, x, phi, grad, d)
            step = alpha * d
        except LineSearchError:
            fallbacks += 1
            memory.clear()
            alpha, phi_new, grad_new = _fallback_gradient_step(fun, x, phi, grad)
            step = alpha * -grad
        y_vec = grad_new - grad
        sy = float(step.dot(y_vec))
        yy = float(y_vec.dot(y_vec))
        if sy > 1e-10 * (math.sqrt(float(step.dot(step))) * math.sqrt(yy)):
            memory.append((step, y_vec, 1.0 / sy))
            gamma = sy / yy
        x = x + step
        phi, grad = phi_new, grad_new
        iterations += 1
    status = "converged" if grad_inf <= config.gradient_tolerance else "max_iterations"
    info = {"status": status, "iterations": iterations, "fallback_steps": fallbacks}
    return x, info


def fit_logistic(X: np.ndarray, y: np.ndarray, theta0: np.ndarray | None = None,
                 config: OptimizerConfig = OptimizerConfig()):
    n, dim = X.shape
    if theta0 is None:
        theta0 = np.zeros(dim + 1)
    if theta0.shape != (dim + 1,):
        raise InvalidInput(f"theta0 must have shape ({dim + 1},)")
    # the labels in the matmuls' dtype once per solve, not once per evaluation
    y = y.astype(np.float32 if X.dtype == np.float32 else np.float64, copy=False)
    return lbfgs_minimize(
        lambda t: logistic_loss_and_grad(t, X, y, config.l2_lambda), theta0, config)


@dataclass(frozen=True, slots=True)
class LocalUpdateConfig:
    epochs: int = 1
    clip_norm: float = 1.0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidInput(f"epochs must be >= 1: {self.epochs}")
        if self.clip_norm <= 0:
            raise InvalidInput(f"clip_norm must be positive: {self.clip_norm}")


def local_update(theta_global: np.ndarray, X: np.ndarray, y: np.ndarray,
                 config: LocalUpdateConfig) -> np.ndarray:
    """Clipped local displacement; norm is always <= config.clip_norm."""
    if X.shape[0] == 0:
        return np.zeros_like(theta_global)
    theta = theta_global
    for _ in range(config.epochs):
        theta, _ = fit_logistic(X, y, theta, config.optimizer)
        delta = theta - theta_global
        theta = theta_global + clip_l2(delta, config.clip_norm)
    return theta - theta_global
