"""Random rooted spanning forests.

`sample_forest` draws a rooted spanning forest with probability
proportional to prod_{edges} w(e) * prod_{roots} q_root, using
loop-erased random walks killed at rate q. `enumerate_forests` computes
the same distribution exhaustively on tiny graphs and is the oracle the
sampler and the estimators are tested against.
"""

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError, NumericalError

DEFAULT_STEP_BUDGET = 10**9
ENUM_MAX_VERTICES = 9
ENUM_MAX_EDGES = 24


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


@dataclass
class ForestFamily:
    """All rooted forests sharing one edge subset.

    The root dimension is collapsed analytically: the family weight is
    prod_{e in F} w(e) * prod_{trees} (sum_{v in tree} q_v), i.e. the sum
    of prod q_root over all choices of one root per tree.
    """

    edges: tuple
    components: np.ndarray  # representative vertex id per node
    weight: float
    n_rooted: int = 1  # number of distinct rooted forests in the family


@dataclass
class ForestDistribution:
    """Exhaustive forest distribution of a tiny graph."""

    families: list
    normalizer: float
    det_check: float = field(default=0.0, repr=False)

    def probabilities(self):
        """Map from canonical edge tuple to family probability."""
        return {f.edges: f.weight / self.normalizer for f in self.families}

    def rooted_count(self):
        """Total number of distinct rooted forests."""
        return sum(f.n_rooted for f in self.families)


def enumerate_forests(g, q):
    """Enumerate every spanning forest of a tiny graph with its weight.

    Iterates all acyclic edge subsets (so the graph must satisfy n <= 9
    and m <= 24) and collapses the per-tree root choice analytically.
    The total weight is verified against det(Q + L), the matrix-forest
    identity; a mismatch raises `NumericalError`.
    """
    n, m = g.n, g.m
    if n > ENUM_MAX_VERTICES:
        raise DataError(f"forest enumeration limited to n <= {ENUM_MAX_VERTICES}, got {n}")
    if m > ENUM_MAX_EDGES:
        raise DataError(f"forest enumeration limited to m <= {ENUM_MAX_EDGES}, got {m}")
    qvec = np.broadcast_to(np.asarray(q, dtype=np.float64), (n,))
    if not (qvec > 0).all():
        raise DataError("absorption weights q must be strictly positive")

    edge_list = list(g.edges())
    families = []
    total = 0.0
    for mask in range(1 << m):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        wprod = 1.0
        acyclic = True
        for idx in range(m):
            if mask >> idx & 1:
                u, v, w = edge_list[idx]
                ru, rv = find(u), find(v)
                if ru == rv:
                    acyclic = False
                    break
                parent[ru] = rv
                wprod *= w
        if not acyclic:
            continue
        comps = np.array([find(v) for v in range(n)], dtype=np.int64)
        qsums = np.bincount(comps, weights=qvec, minlength=n)
        sizes = np.bincount(comps, minlength=n)
        reps = np.flatnonzero(sizes)
        weight = wprod * float(np.prod(qsums[reps]))
        edges = tuple(
            (edge_list[i][0], edge_list[i][1]) for i in range(m) if mask >> i & 1
        )
        families.append(ForestFamily(
            edges=edges, components=comps, weight=weight,
            n_rooted=int(np.prod(sizes[reps])),
        ))
        total += weight

    A = np.diag(qvec + g.degrees) - g.adjacency.toarray()
    det = float(np.linalg.det(A))
    if abs(total - det) > 1e-9 * abs(det):
        raise NumericalError(
            f"matrix-forest identity violated: weight sum {total!r} vs det {det!r}"
        )
    return ForestDistribution(families=families, normalizer=total, det_check=det)
