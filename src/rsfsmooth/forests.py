"""Random rooted spanning forests.

`sample_forest` draws a rooted spanning forest with probability
proportional to prod_{edges} w(e) * prod_{roots} q_root, using
loop-erased random walks killed at rate q; `_tree_averages` averages a
signal over the trees of a forest. The walk runs in a small C kernel in
`_native.c`, compiled on first use into the user's cache directory; where
it cannot be built, a Python loop draws the same forests. The exhaustive
enumeration of the same distribution on tiny graphs lives in
`rsfsmooth.oracle`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import DataError, NumericalError

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
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(2, np.uint64)[0])


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
    n = g.n
    q = np.array(q, dtype=np.float64)  # a private, writable copy
    if q.ndim == 0:
        valid = 0 < float(q) < math.inf
        q = np.full(n, q)
    else:  # NaN fails the comparisons too
        valid = (q.shape == (n,) and np.minimum.reduce(q) > 0
                 and np.maximum.reduce(q) < math.inf)
    if not valid:
        raise DataError("absorption weights q must be finite and strictly positive, "
                        "a scalar or one per vertex")
    out = np.empty((2, n), dtype=np.int64)  # root_of, parent_of
    out.fill(-1)
    steps = _kernel()(g, q, rng.key, rng.position, min(int(max_steps), 2**63 - 1), out)
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


def _uniforms(key, start, count):
    """The stream's uniforms at positions start, ..., start + count - 1."""
    z = np.arange(start, start + count, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(key)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(11)).astype(np.float64) * 2.0**-53).tolist()


def _stream(key, start, chunk):
    """Uniforms from position start on, computed chunk by chunk."""
    while True:
        yield from _uniforms(key, start, chunk)
        start += chunk
        chunk *= 2


def _wilson_python(g, q, key, position, max_steps, out):
    """The C kernel's loop in Python, for machines where it cannot be
    built: same uniforms, same search, same forests. Fills `out` (root_of,
    parent_of, all -1 on entry) and returns the step count, or -1 past
    max_steps."""
    indptr, indices, cum = g.indptr.tolist(), g.indices.tolist(), g.walk_tables().tolist()
    q = q.tolist()
    root_of, parent = [-1] * len(q), [-1] * len(q)
    rand = _stream(key, position, max(len(q), 16)).__next__
    steps = 0
    for start in range(len(q)):
        u = start
        while root_of[u] < 0:
            if steps >= max_steps:
                return -1
            steps += 1
            lo, hi = indptr[u], indptr[u + 1]
            d = cum[hi - 1] if lo < hi else 0.0
            r = rand() * (q[u] + d)
            if r >= d:  # absorbed: u becomes a root
                root_of[u] = u
                parent[u] = -1
                break
            hi -= 1  # bisect_right over the row, capped at its last arc
            while lo < hi:
                mid = (lo + hi) // 2
                if r < cum[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            parent[u] = u = indices[lo]
        root = root_of[u]
        u = start
        while root_of[u] < 0:
            root_of[u] = root
            u = parent[u]
    out[0], out[1] = root_of, parent
    return steps


_KERNEL = None  # the draw function, chosen on the first draw


def _kernel():
    """The compiled kernel's draw function, or `_wilson_python` where the
    library cannot be built; both take (g, q, key, position, max_steps, out)."""
    global _KERNEL
    if _KERNEL is None:
        lib = _native.library()
        _KERNEL = _wilson_python if lib is None else _compiled_wilson(lib.wilson)
    return _KERNEL


def _compiled_wilson(fn):
    """A draw function calling the library's `wilson` on each graph's CSR
    arrays and walk tables."""
    routine = _native.bind(fn, lambda g: (g.indptr, g.indices, g.walk_tables()))

    def wilson(g, q, key, position, max_steps, out):
        root_of = _native.address(out)
        return routine(g)(_native.address(q), key, position, max_steps, root_of,
                          root_of + 8 * g.n)

    return wilson


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
