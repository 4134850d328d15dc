"""Forest Monte Carlo estimators of the smoothed signal K y.

One forest draw yields the partition-average estimate xbar (unbiased for
K y). A single gradient-descent step on the quadratic objective,
z = x - alpha (K^{-1} x - y), keeps the estimator unbiased for any step
size alpha and shrinks its variance when alpha is chosen well; the
control variate K^{-1} xbar has known expectation y, which gives both the
optimal step size and an empirical estimate of it from the samples. A
problem may carry a block of k signals (`SmoothingProblem`); each column
is then estimated on its own, on the same forests, with its own step.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import DataError, NumericalError, integer
from .forests import DEFAULT_STEP_BUDGET, forest_rng, sample_forest, walk_steps_floor
from .linalg import ZERO_VARIANCE_TOL, apply_K_inverse


def xbar_from_forest(forest, problem):
    """Partition-average estimate: each node gets its tree's q-weighted
    mean of y, in each column of a block. Unbiased for K y under the forest
    distribution."""
    n, root_of = problem.graph.n, np.ascontiguousarray(forest.root_of, dtype=np.int64)
    # the tree averages index by these ids
    if root_of.shape != (n,) or not 0 <= root_of.min() <= root_of.max() < n:
        raise DataError(f"a forest's root_of must hold one vertex id in [0, {n}) per vertex")
    return _native.kernels().tree_averages(root_of, problem.q, problem.y)


def gradient_step(x, problem, alpha):
    """One gradient-descent step x - alpha (K^{-1} x - y) toward K y; on a
    block, alpha is one step for every column or a (k,) array of them."""
    return x - alpha * (apply_K_inverse(problem, x) - problem.y)


class MonteCarloAccumulator:
    """Streaming moments of (xbar, ybar) sample pairs, ybar = K^{-1} xbar,
    of one signal of n values, or of each column of an (n, k) block.

    Keeps running means plus each column's centered scalar co-moments
    (Welford/Chan updates), enough for the trace statistics and the
    empirical step size without storing samples. Each co-moment is a
    fixed-lane dot product, with the same bits on every CPU, and one
    kernel call (`_native.Kernels.accumulate`) adds a sample to every
    column. The trace statistics are floats for one signal and (k,)
    arrays for a block.
    """

    def __init__(self, n, k=None):
        n, k = integer(n, "n"), None if k is None else integer(k, "k")
        if n < 1 or k is not None and k < 1:
            raise DataError(f"an accumulator needs n >= 1 and k >= 1, got n={n}, k={k}")
        self.n, self.k = n, k
        self.count = 0
        shape = (n,) if k is None else (n, k)
        self.mean_x = np.zeros(shape, order="F")
        self.mean_y = np.zeros(shape, order="F")
        # per column, the co-moments of xbar with xbar, ybar with ybar and xbar with ybar
        self.moments = np.zeros((1 if k is None else k, 3))

    def add(self, x, ybar):
        x = np.asfortranarray(x, dtype=np.float64)
        ybar = np.asfortranarray(ybar, dtype=np.float64)
        if x.shape != self.mean_x.shape or ybar.shape != self.mean_x.shape:
            raise DataError(f"samples of shapes {x.shape} and {ybar.shape} do not match "
                            f"the accumulator's {self.mean_x.shape}")
        self.count += 1
        _native.kernels().accumulate(self.count, x, ybar, self.mean_x, self.mean_y,
                                     self.moments)

    def _trace(self, j):
        """Co-moment j of each column over count - 1; None, absent by
        design, below two samples."""
        if self.count < 2:
            return None
        t = self.moments[:, j] / (self.count - 1)
        return float(t[0]) if self.k is None else t

    @property
    def tr_var_xbar(self):
        return self._trace(0)

    @property
    def tr_var_ybar(self):
        return self._trace(1)

    @property
    def tr_cov_xy(self):
        return self._trace(2)


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

    def check_samples(self, count):
        """Refuse `count` samples where this step needs more than one and
        more than `count`; below one, accumulate_forests refuses them."""
        if self.min_samples > 1 and count < self.min_samples:
            raise DataError(f"the {self.kind} step size needs >= {self.min_samples} samples")

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
    """Resolve a step-size strategy to (alpha, fallback), a float and a
    bool for one signal, and (k,) arrays of them, one per column, for a
    block.

    The empirical and oracle strategies fall back to alpha = 0 (fallback
    True) when the control variate has zero variance, which only happens
    for constant signals; the plain average is exact there and a gradient
    step has nothing to correct.
    """
    strategy.check_samples(0 if acc is None else acc.count)
    k = problem.y.size // problem.graph.n
    if strategy.kind == "fixed":
        alpha, fallback = np.full(k, float(strategy.value)), np.zeros(k, dtype=bool)
    elif strategy.kind == "safe_constant":
        alpha, fallback = np.full(k, safe_alpha(problem)), np.zeros(k, dtype=bool)
    elif strategy.kind == "empirical":
        m_yy, m_xy = acc.moments[:, 1], acc.moments[:, 2]
        fallback = m_yy / (acc.count - 1) <= ZERO_VARIANCE_TOL * problem.graph.n
        alpha = np.divide(m_xy, m_yy, out=np.zeros(k), where=~fallback)
    elif strategy.kind == "oracle_optimal":
        from .oracle import exact_estimator_moments  # test-scale, loaded only here

        stars = [exact_estimator_moments(problem.graph, problem.q, y).alpha_star
                 for y in _native.columns(problem.y)]
        alpha = np.array([0.0 if a is None else a for a in stars])
        fallback = np.array([a is None for a in stars])
    else:
        raise DataError(f"unknown step-size strategy {strategy.kind!r}")
    return (alpha, fallback) if problem.y.ndim == 2 else (float(alpha[0]), bool(fallback[0]))


FOREST_ESTIMATORS = {
    "xbar": AlphaStrategy.fixed(0.0),
    "zbar_safe": AlphaStrategy.safe(),
    "zbar_empirical": AlphaStrategy.empirical(),
}


def forest_estimates(problem, acc):
    """Each estimator of FOREST_ESTIMATORS, by name, read from one
    accumulator: the plain average and the safe- and empirical-step
    estimates, each of problem's shape. One is None, absent by design,
    when acc holds fewer samples than its strategy needs (the empirical
    one, at a single sample)."""
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


def check_draw_budget(graph, runs):
    """Refuse, before its first solve or draw, a run whose forest draws
    cannot finish within the step budget. `runs` lists its (q, draws)
    pairs, q a scalar or one weight per vertex (checked where the run
    builds its problems, which refuse a q that is not positive and finite);
    each draw is charged its expected walk steps' lower bound
    (`walk_steps_floor`) or DRAW_FIXED_STEPS, whichever is more."""
    draws = [d for _, d in runs]
    floors = [walk_steps_floor(graph, np.full(graph.n, q, dtype=np.float64)) for q, _ in runs]
    charges = [max(floor, DRAW_FIXED_STEPS) for floor in floors]
    # an int of any size compares with a float, and each product is then finite
    if all(d <= DEFAULT_STEP_BUDGET / c for d, c in zip(draws, charges)) and sum(
            d * c for d, c in zip(draws, charges)) <= DEFAULT_STEP_BUDGET:
        return

    def span(values):
        low, high = f"{min(values):.4g}", f"{max(values):.4g}"
        return low if low == high else f"{low} to {high}"

    over = f" over {len(runs)} q values" if len(runs) > 1 else ""
    raise NumericalError(f"{sum(draws)} forest draws{over} of at least {span(charges)} walk "
                         f"steps each (the larger of {span(floors)} expected and a draw's "
                         f"fixed cost of {DRAW_FIXED_STEPS}) exceed the step budget of "
                         f"{DEFAULT_STEP_BUDGET:.3g}")


def accumulate_forests(problem, n_samples, seed):
    """The accumulator of problem's n_samples forests; returns
    (accumulator, total walk steps of the draws).

    Forest i is drawn on the stream derived from (seed, i). Its tree
    averages xbar of every column of the signal, and their control
    variates K^{-1} xbar, go to the accumulator: one kernel call for each
    of the three, whatever the number of columns. This is the package's
    only forest-sampling loop, reached after `check_draw_budget`.
    """
    n_samples = integer(n_samples, "n_samples")
    if n_samples < 1:
        raise DataError("n_samples must be >= 1")
    g, q = problem.graph, problem.q
    acc = MonteCarloAccumulator(*problem.y.shape)
    walk_steps = 0
    for i in range(n_samples):
        forest = sample_forest(g, q, forest_rng(seed, i))
        walk_steps += forest.rng_draws
        x = xbar_from_forest(forest, problem)
        acc.add(x, apply_K_inverse(problem, x))
    return acc, walk_steps


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
    O(1/N) bias this introduces is flagged in the diagnostics. A count of
    samples the strategy cannot use is refused before the first draw.
    """
    n_samples = integer(n_samples, "n_samples")
    strategy.check_samples(n_samples)
    check_draw_budget(problem.graph, [(problem.q, n_samples)])
    acc, walk_steps = accumulate_forests(problem, n_samples, seed)
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
