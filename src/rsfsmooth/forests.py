"""Random rooted spanning forests.

`sample_forest` draws a rooted spanning forest with probability
proportional to prod_{edges} w(e) * prod_{roots} q_root, using
loop-erased random walks killed at rate q. The walk is the `wilson` loop
of `_native.kernels()`: a small C kernel, or where that cannot be built, a
Python loop that draws the same forests. The estimator's tree averages
are that set's `tree_averages` kernel; `_tree_averages` here is their
numpy reference, which the Python twins (`_twins`) and the enumeration
oracle use. The exhaustive enumeration of the same distribution on tiny
graphs lives in `rsfsmooth.oracle`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import DataError, NumericalError, integer

DEFAULT_STEP_BUDGET = 10**9


class CounterStream:
    """Counter-based uniform stream (Salmon et al., SC 2011).

    The uniform at position k is
    (splitmix64(key + k * 0x9E3779B97F4A7C15) >> 11) * 2^-53, a pure
    function of (key, k), so the C kernel and the Python loop read the
    same numbers. A forest draw reads the next `rng_draws` positions and
    advances `position` past them; a draw that fails leaves it unchanged.
    """

    def __init__(self, key, position=0):
        self.key = key
        self.position = position


def forest_rng(seed, *key):
    """Deterministic per-sample random stream, keyed by derive_seed(seed, *key).

    Streams are derived from (seed, key) so that samples are reproducible
    and independent of the order in which they are drawn.
    """
    return CounterStream(derive_seed(seed, *key))


def derive_seed(seed, *key):
    """A fresh integer seed derived from (seed, key), for nested runs."""
    ss = np.random.SeedSequence(entropy=_seed(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(2, np.uint64)[0])


def numpy_rng(seed, *key):
    """numpy's generator keyed by (seed, key), the package's one numpy stream."""
    return np.random.default_rng(np.random.SeedSequence((_seed(seed), *key)))


def _seed(seed):  # the seed rule of both streams
    if integer(seed, "seed") < 0:
        raise DataError("seed must be non-negative")
    return int(seed)


@dataclass
class RootedForest:
    """One draw of a rooted spanning forest.

    `root_of[v]` is the root of the tree containing v (roots map to
    themselves); `parent_of[v]` is v's next vertex toward the root (-1 at
    roots). `rng_draws` counts the random-walk steps the draw consumed.
    """

    root_of: np.ndarray
    parent_of: np.ndarray
    rng_draws: int = 0


def _absorption_weights(q, n):
    """q, a scalar or one per vertex, as a fresh (n,) float64 array;
    raises `DataError` unless every weight is finite and > 0."""
    q = np.array(q, dtype=np.float64)  # a private, writable copy
    if q.ndim == 0:
        q = np.full(n, q)
    # NaN fails the comparisons too
    if not (q.shape == (n,) and np.minimum.reduce(q) > 0 and np.maximum.reduce(q) < math.inf):
        raise DataError(f"absorption weights q must be finite and strictly positive, "
                        f"a scalar or one per vertex (n={n})")
    return q


def sample_forest(g, q, rng, max_steps=DEFAULT_STEP_BUDGET):
    """Draw a rooted spanning forest by absorbed loop-erased random walks.

    From each not-yet-covered vertex, walk the graph: at vertex u the walk
    is absorbed with probability q_u / (q_u + d_u) (u becomes a root) and
    otherwise moves to neighbor j with probability w(u, j) / (q_u + d_u).
    Next-pointers overwritten during the walk implement loop erasure; a
    walk that reaches the existing forest adopts its root.

    Parameters
    ----------
    g : Graph
    q : float or (n,) array
        Strictly positive, finite absorption weights.
    rng : CounterStream
        Per-sample stream, e.g. from `forest_rng(seed, i)`; advanced past
        the uniforms the draw used.
    max_steps : int
        Guard against the (almost surely finite) walk running away.
    """
    q = _absorption_weights(q, g.n)
    out = np.empty((2, g.n), dtype=np.int64)  # root_of, parent_of
    out.fill(-1)
    steps = _native.kernels().wilson(g, q, rng.key, rng.position,
                                     min(int(max_steps), 2**63 - 1), out)
    if steps < 0:
        raise NumericalError(f"forest sampling exceeded the step budget of {max_steps}")
    rng.position += steps
    return RootedForest(root_of=out[0], parent_of=out[1], rng_draws=steps)


def walk_steps_floor(g, q):
    """A lower bound, max(n, 1 + sum(d) / sum(q)), on the expected walk
    steps of one forest draw with (n,) absorption weights q.

    The expected count is tr(G (Q + D)) = sum_i G_ii (q_i + d_i) with
    G = (Q + L)^{-1}. Every vertex takes at least one step (it is absorbed
    or moves on), and G_ii >= 1 / (q_i + d_i), the inverse of the
    diagonal entry of Q + L, so each term is at least 1; and
    G_ii >= 1 / (1' (Q + L) 1) = 1 / sum(q) by Cauchy-Schwarz. A pass
    whose bound exceeds the step budget is hopeless; one below it may
    still take long, so the budget stays.
    """
    return max(float(g.n), 1.0 + float(g.degrees.sum()) / float(q.sum()))


def _tree_averages(labels, q, y):
    """Per-tree q-weighted averages of y, broadcast back to the nodes.

    Computed as y_ref + sum q (y - y_ref) / sum q around each tree's
    reference node, which returns constant signals bit-exactly.
    """
    n = len(y)
    qsum = np.bincount(labels, weights=q, minlength=n)
    shift = np.bincount(labels, weights=q * (y - y[labels]), minlength=n)
    ratio = np.divide(shift, qsum, out=np.zeros(n), where=qsum > 0)
    return y[labels] + ratio[labels]
