"""Random rooted spanning forests.

`sample_forest` draws a rooted spanning forest with probability
proportional to prod_{edges} w(e) * prod_{roots} q_root, using
loop-erased random walks killed at rate q; `_tree_averages` averages a
signal over the trees of a forest. The exhaustive enumeration of the
same distribution on tiny graphs lives in `rsfsmooth.oracle`.
"""

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, NumericalError

DEFAULT_STEP_BUDGET = 10**9


def forest_rng(seed, *key):
    """Deterministic per-sample random stream.

    Streams are derived from (seed, key) so that samples are reproducible
    and independent of the order in which they are drawn.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return random.Random(int.from_bytes(ss.generate_state(4).tobytes(), "little"))


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

    @property
    def n(self):
        return len(self.root_of)

    @cached_property
    def roots(self):
        return np.flatnonzero(self.parent_of < 0)

    @cached_property
    def partition(self):
        """List of trees as (root, sorted vertex array) pairs."""
        trees = {}
        for v, r in enumerate(self.root_of):
            trees.setdefault(int(r), []).append(v)
        return [(r, np.array(vs, dtype=np.int64)) for r, vs in sorted(trees.items())]

    def edge_key(self):
        """Canonical tuple of the forest's edges, for family counting."""
        edges = []
        for v, p in enumerate(self.parent_of):
            if p >= 0:
                edges.append((v, int(p)) if v < p else (int(p), v))
        return tuple(sorted(edges))

    def n_trees(self):
        return len(self.roots)


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
        Strictly positive absorption weights.
    rng : random.Random
        Per-sample stream, e.g. from `forest_rng(seed, i)`.
    max_steps : int
        Guard against the (almost surely finite) walk running away.
    """
    n = g.n
    if np.isscalar(q) or np.ndim(q) == 0:
        qlist = [float(q)] * n
    else:
        qlist = [float(x) for x in q]
    if min(qlist) <= 0:
        raise DataError("absorption weights q must be strictly positive")

    nbrs, cums = g.walk_tables()
    dlist = [c[-1] if c else 0.0 for c in cums]
    in_forest = bytearray(n)
    root_of = [0] * n
    parent = [-1] * n
    steps = 0
    rand = rng.random

    for start in range(n):
        u = start
        while not in_forest[u]:
            steps += 1
            if steps > max_steps:
                raise NumericalError(
                    f"forest sampling exceeded the step budget of {max_steps}"
                )
            d = dlist[u]
            r = rand() * (qlist[u] + d)
            if r >= d:  # absorbed: u becomes a root
                in_forest[u] = 1
                root_of[u] = u
                parent[u] = -1
                break
            j = nbrs[u][bisect_right(cums[u], r)]
            parent[u] = j
            u = j
        r_ = root_of[u]
        u = start
        while not in_forest[u]:
            in_forest[u] = 1
            root_of[u] = r_
            u = parent[u]

    return RootedForest(
        root_of=np.array(root_of, dtype=np.int64),
        parent_of=np.array(parent, dtype=np.int64),
        rng_draws=steps,
    )


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
