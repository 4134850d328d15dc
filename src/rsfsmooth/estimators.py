"""Forest Monte Carlo estimators of the smoothed signal K y.

One forest draw yields the partition-average estimate xbar (unbiased for
K y). A single gradient-descent step on the quadratic objective,
z = x - alpha (K^{-1} x - y), keeps the estimator unbiased for any step
size alpha and shrinks its variance when alpha is chosen well; the
control variate K^{-1} xbar has known expectation y, which gives both the
optimal step size and an empirical estimate of it from the samples.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .forests import (DEFAULT_STEP_BUDGET, _tree_averages, forest_rng, sample_forest,
                      walk_steps_floor)
from .linalg import ZERO_VARIANCE_TOL, _dot, apply_K_inverse


def xbar_from_forest(forest, problem):
    """Partition-average estimate: each node gets its tree's q-weighted
    mean of y. Unbiased for K y under the forest distribution."""
    return _tree_averages(forest.root_of, problem.q, problem.y)


def gradient_step(x, problem, alpha):
    """One gradient-descent step x - alpha (K^{-1} x - y) toward K y."""
    return x - alpha * (apply_K_inverse(problem, x) - problem.y)


class MonteCarloAccumulator:
    """Streaming moments of (xbar, ybar) sample pairs, ybar = K^{-1} xbar.

    Keeps running means plus centered scalar co-moments (Welford/Chan
    updates), enough for the trace statistics and the empirical step size
    without storing samples. Each co-moment is a fixed-lane dot product
    (`linalg._dot`), with the same bits on every CPU.
    """

    def __init__(self, n):
        self.n = n
        self.count = 0
        self.mean_x = np.zeros(n)
        self.mean_y = np.zeros(n)
        self._m_xx = 0.0
        self._m_yy = 0.0
        self._m_xy = 0.0

    def add(self, x, ybar):
        self.count += 1
        dx = x - self.mean_x
        dy = ybar - self.mean_y
        self.mean_x = self.mean_x + dx / self.count
        self.mean_y = self.mean_y + dy / self.count
        self._m_xx += _dot(dx, x - self.mean_x)
        self._m_yy += _dot(dy, ybar - self.mean_y)
        self._m_xy += _dot(dx, ybar - self.mean_y)

    # --- trace statistics: None, absent by design, below two samples ---
    @property
    def tr_var_xbar(self):
        return self._m_xx / (self.count - 1) if self.count >= 2 else None

    @property
    def tr_var_ybar(self):
        return self._m_yy / (self.count - 1) if self.count >= 2 else None

    @property
    def tr_cov_xy(self):
        return self._m_xy / (self.count - 1) if self.count >= 2 else None


@dataclass(frozen=True)
class AlphaStrategy:
    """How the gradient step size is chosen.

    kinds: "safe_constant" (spectral bound, guarantees contraction),
    "empirical" (covariance/variance trace ratio from the samples),
    "fixed" (given finite constant), "oracle_optimal" (exact enumeration,
    tiny graphs only).
    """

    kind: str
    value: float = None

    def __post_init__(self):
        if self.kind == "fixed" and (self.value is None or not math.isfinite(self.value)):
            raise DataError(f"fixed step size must be a finite number, got {self.value!r}")

    @property
    def min_samples(self):
        """Forest samples an estimate with this step needs: two for the
        empirical ratio, read from the samples; one where alpha is known."""
        return 2 if self.kind == "empirical" else 1

    @classmethod
    def safe(cls):
        return cls(kind="safe_constant")

    @classmethod
    def empirical(cls):
        return cls(kind="empirical")

    @classmethod
    def fixed(cls, value):
        return cls(kind="fixed", value=float(value))

    @classmethod
    def oracle(cls):
        return cls(kind="oracle_optimal")

    @classmethod
    def parse(cls, text):
        """"safe", "empirical", "oracle", or a finite float literal."""
        text = str(text).strip().lower()
        if text in ("safe", "safe_constant"):
            return cls.safe()
        if text == "empirical":
            return cls.empirical()
        if text in ("oracle", "oracle_optimal"):
            return cls.oracle()
        try:
            value = float(text)
        except ValueError:
            raise DataError(f"cannot parse step-size strategy {text!r}") from None
        return cls.fixed(value)


def safe_alpha(problem):
    """Largest step size with guaranteed contraction toward the solution.

    The eigenvalues of K^{-1} = I + Q^{-1} L are bounded by
    1 + max_i 2 d_i / q_i, so this step keeps every |1 - alpha mu| <= 1.
    Where every q_i is one value q, however q was given, it is evaluated
    as the familiar 2q / (q + 2 d_max), which can differ in the last bit.
    """
    g, q = problem.graph, problem.q
    if np.minimum.reduce(q) < np.maximum.reduce(q):
        return 2.0 / (1.0 + float(np.max(2.0 * g.degrees / q)))
    q = float(q[0])
    return 2.0 * q / (q + 2.0 * g.d_max)


def resolve_alpha(strategy, problem, acc=None):
    """Resolve a step-size strategy to (alpha, fallback).

    The empirical and oracle strategies fall back to alpha = 0 (fallback
    True) when the control variate has zero variance, which only happens
    for constant signals; the plain average is exact there and a gradient
    step has nothing to correct.
    """
    if strategy.min_samples > 1 and (acc is None or acc.count < strategy.min_samples):
        raise DataError(f"the {strategy.kind} step size needs >= {strategy.min_samples} samples")
    if strategy.kind == "fixed":
        return float(strategy.value), False
    if strategy.kind == "safe_constant":
        return safe_alpha(problem), False
    if strategy.kind == "empirical":
        if acc.tr_var_ybar <= ZERO_VARIANCE_TOL * problem.graph.n:
            return 0.0, True
        return acc._m_xy / acc._m_yy, False
    if strategy.kind == "oracle_optimal":
        from .oracle import exact_estimator_moments  # test-scale, loaded only here

        alpha_star = exact_estimator_moments(problem.graph, problem.q, problem.y).alpha_star
        return (0.0, True) if alpha_star is None else (alpha_star, False)
    raise DataError(f"unknown step-size strategy {strategy.kind!r}")


FOREST_ESTIMATORS = {
    "xbar": AlphaStrategy.fixed(0.0),
    "zbar_safe": AlphaStrategy.safe(),
    "zbar_empirical": AlphaStrategy.empirical(),
}


def forest_estimates(problem, acc):
    """Each estimator of FOREST_ESTIMATORS, by name, read from one
    accumulator: the plain average and the safe- and empirical-step
    estimates. One is None, absent by design, when acc holds fewer samples
    than its strategy needs (the empirical one, at a single sample)."""
    estimates = dict.fromkeys(FOREST_ESTIMATORS)
    for name, strategy in FOREST_ESTIMATORS.items():
        if acc.count >= strategy.min_samples:
            alpha, _ = resolve_alpha(strategy, problem, acc)
            estimates[name] = gradient_step(acc.mean_x, problem, alpha)
    return estimates


# What a draw costs beyond its walk, counted in walk steps of the same
# time: through this loop a draw on a 4-vertex graph takes 66-71 us, and a
# walk step 33-47 ns (2-core Xeon), so about 1,500 steps; rounded down.
DRAW_FIXED_STEPS = 1000


def accumulate_forests(problems, n_samples, seed, passes=1):
    """One accumulator per problem, all fed by the same n_samples forests;
    returns (accumulators, total walk steps of the draws).

    The problems share one graph and one q (they differ only in the
    signal), so forest i is drawn once, on the stream derived from
    (seed, i), and its tree average of every signal, with that average's
    control variate K^{-1} xbar, goes to that signal's accumulator. This
    is the package's only forest-sampling loop. A run of `passes` passes
    that cannot be drawn within the step budget is refused before a draw,
    each draw charged its expected walk steps or DRAW_FIXED_STEPS, whichever
    is more.
    """
    if n_samples < 1:
        raise DataError("n_samples must be >= 1")
    g, q = problems[0].graph, problems[0].q
    draws, floor = passes * n_samples, walk_steps_floor(g, q)
    charge = max(floor, DRAW_FIXED_STEPS)
    if draws > DEFAULT_STEP_BUDGET / charge:  # an int of any size compares with a float
        raise NumericalError(f"{draws} forest draws of at least {charge:.4g} walk steps each "
                             f"(the larger of {floor:.4g} expected and a draw's fixed cost "
                             f"of {DRAW_FIXED_STEPS}) exceed the step budget of "
                             f"{DEFAULT_STEP_BUDGET:.3g}")
    accs = [MonteCarloAccumulator(g.n) for _ in problems]
    walk_steps = 0
    for i in range(n_samples):
        forest = sample_forest(g, q, forest_rng(seed, i))
        walk_steps += forest.rng_draws
        for acc, problem in zip(accs, problems):
            x = xbar_from_forest(forest, problem)
            acc.add(x, apply_K_inverse(problem, x))
    return accs, walk_steps


@dataclass
class MonteCarloResult:
    estimate: np.ndarray
    alpha: float
    diagnostics: dict


def run_monte_carlo(problem, n_samples, strategy, seed=0):
    """Estimate K y from n_samples forest draws.

    Draws forests on per-sample streams derived from (seed, i), averages
    the per-forest estimates, then applies the gradient step once to the
    sample mean (the step commutes with averaging, so this matches
    stepping every sample at a fraction of the cost). The empirical
    strategy resolves its step size from the same samples; the small
    O(1/N) bias this introduces is flagged in the diagnostics.
    """
    (acc,), walk_steps = accumulate_forests([problem], n_samples, seed)
    alpha, fallback = resolve_alpha(strategy, problem, acc)
    estimate = gradient_step(acc.mean_x, problem, alpha)
    diagnostics = {
        "n_samples": n_samples,
        "strategy": strategy.kind,
        "alpha": alpha,
        "tr_var_xbar": acc.tr_var_xbar,
        "tr_var_ybar": acc.tr_var_ybar,
        "tr_cov_xy": acc.tr_cov_xy,
        "total_walk_steps": walk_steps,
        "zero_variance_fallback": fallback,
        "alpha_from_same_samples": strategy.min_samples > 1,
    }
    return MonteCarloResult(estimate=estimate, alpha=alpha, diagnostics=diagnostics)
