"""Test-scale oracles: exact answers the Monte Carlo estimators are checked against.

`enumerate_forests` lists every spanning forest of a tiny graph with its
probability (`forest_edge_key`, `forest_trees` and `forest_roots` read a
sampled forest in the same terms), `exact_estimator_moments` turns that
list into the exact moments of xbar and of the control variate
K^{-1} xbar (and the optimal step size), and `solve_exact_dense` and
`contraction_check` work on the dense system. All of them are limited
to tiny or small graphs (n <= 9 and m <= 24 for enumeration, n <= 2000
for the dense routines).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .forests import _absorption_weights, _tree_averages
from .linalg import (ZERO_VARIANCE_TOL, LaplacianOperator, SmoothingProblem, _dot,
                     apply_K_inverse)

ENUM_MAX_VERTICES = 9
ENUM_MAX_EDGES = 24


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


@dataclass
class ForestDistribution:
    """Exhaustive forest distribution of a tiny graph."""

    families: list
    normalizer: float

    def probabilities(self):
        """Map from canonical edge tuple to family probability."""
        return {f.edges: f.weight / self.normalizer for f in self.families}


def forest_roots(forest):
    """Roots of a sampled forest, in increasing order."""
    return np.flatnonzero(forest.parent_of < 0)


def forest_trees(forest):
    """Trees of a sampled forest as (root, sorted vertex array) pairs."""
    order = np.argsort(forest.root_of, kind="stable")
    roots, starts = np.unique(forest.root_of[order], return_index=True)
    return list(zip(roots.tolist(), np.split(order, starts[1:])))


def forest_edge_key(forest):
    """Canonical tuple of a sampled forest's edges, the key of
    `ForestDistribution.probabilities`."""
    return tuple(sorted((min(v, p), max(v, p))
                        for v, p in enumerate(forest.parent_of.tolist()) if p >= 0))


def in_enumeration_reach(g):
    """Whether `enumerate_forests` lists g's forests: n <= 9 and m <= 24,
    since it lists every acyclic edge subset, of which there can be up
    to 2^m."""
    return g.n <= ENUM_MAX_VERTICES and g.m <= ENUM_MAX_EDGES


def _forest_search(n, edge_list):
    """(mask, edges, weight product, root) of every acyclic edge subset,
    in increasing mask order.

    Decides the edges depth first in index order, leaving each out before
    taking it in; a branch ends at its first cycle, so only acyclic
    subsets are visited. Taking (u, v) relabels u's tree with v's root,
    the root that an index-order union-find setting parent[find(u)] =
    find(v) picks, and the weight product is multiplied in that order.
    Index order decides the lowest bit first, so the leaves are sorted."""
    leaves = []

    def grow(idx, mask, edges, wprod, root):  # root: each vertex's tree root
        if idx == len(edge_list):
            leaves.append((mask, edges, wprod, root))
            return
        grow(idx + 1, mask, edges, wprod, root)
        u, v, w = edge_list[idx]
        a, b = root[u], root[v]
        if a != b:
            grow(idx + 1, mask | 1 << idx, edges + ((u, v),), wprod * w,
                 [b if r == a else r for r in root])

    grow(0, 0, (), 1.0, list(range(n)))
    leaves.sort(key=lambda leaf: leaf[0])
    return leaves


def _block_labels(components):
    """The (F, n) tree labels of F forests, offset by n per row and
    flattened, so that one bincount reads every tree of every forest."""
    f, n = components.shape
    return (components + n * np.arange(f)[:, None]).ravel()


def enumerate_forests(g, q):
    """Enumerate every spanning forest of a tiny graph with its weight.

    Lists the acyclic edge subsets of a graph `in_enumeration_reach` in
    increasing mask order and collapses the per-tree root choice
    analytically. The total weight is verified against det(Q + L), the matrix-forest identity; a
    mismatch raises `NumericalError`.
    """
    n, m = g.n, g.m
    if not in_enumeration_reach(g):
        raise DataError(f"forest enumeration limited to n <= {ENUM_MAX_VERTICES} and "
                        f"m <= {ENUM_MAX_EDGES}, got n = {n}, m = {m}")
    qvec = _absorption_weights(q, n)

    _, edges, wprods, roots = zip(*_forest_search(n, list(g.edges())))
    comps = np.array(roots, dtype=np.int64)
    qsums = np.bincount(_block_labels(comps), weights=np.tile(qvec, len(comps)),
                        minlength=comps.size).reshape(comps.shape)
    # each family's tree q-sums multiplied from 1.0 in increasing root
    # order (a vertex that is no root has q-sum 0 and contributes 1.0)
    weights = np.array(wprods) * np.where(qsums > 0, qsums, 1.0).prod(axis=1)
    total = float(np.cumsum(weights)[-1])  # summed in family order
    families = [ForestFamily(edges=e, components=c, weight=w)
                for e, c, w in zip(edges, comps, weights.tolist())]

    det = float(np.linalg.det(np.diag(qvec) + LaplacianOperator(g).dense()))
    if abs(total - det) > 1e-9 * abs(det):
        raise NumericalError(
            f"matrix-forest identity violated: weight sum {total!r} vs det {det!r}"
        )
    return ForestDistribution(families=families, normalizer=total)


@dataclass
class ExactMoments:
    """Exact estimator moments over the full forest distribution."""

    e_xbar: np.ndarray
    e_ybar: np.ndarray
    tr_var_xbar: float
    tr_var_ybar: float
    tr_cov_xy: float
    alpha_star: float  # None when the control variate is degenerate

    def mse_curve(self, alpha):
        """Exact mean squared error of the stepped estimator at this alpha:
        tr Var(xbar) + alpha^2 tr Var(ybar) - 2 alpha tr Cov(ybar, xbar)."""
        alpha = np.asarray(alpha, dtype=np.float64)
        return self.tr_var_xbar + alpha**2 * self.tr_var_ybar \
            - 2.0 * alpha * self.tr_cov_xy


def exact_estimator_moments(graph, q, y):
    """Moments of (xbar, ybar) by exhaustive forest enumeration (n <= 9)."""
    problem = SmoothingProblem(graph, y, q)
    dist = enumerate_forests(graph, problem.q)
    n, f = graph.n, len(dist.families)
    comps = np.array([fam.components for fam in dist.families])
    xbars = _tree_averages(_block_labels(comps), np.tile(problem.q, f),
                           np.tile(problem.y, f)).reshape(f, n)
    e_x = np.zeros(n)
    e_y = np.zeros(n)
    e_xx = e_yy = e_xy = 0.0
    for fam, xbar in zip(dist.families, xbars):  # summed in family order
        p = fam.weight / dist.normalizer
        ybar = apply_K_inverse(problem, xbar)
        e_x += p * xbar
        e_y += p * ybar
        e_xx += p * _dot(xbar, xbar)
        e_yy += p * _dot(ybar, ybar)
        e_xy += p * _dot(xbar, ybar)
    tr_var_x = e_xx - _dot(e_x, e_x)
    tr_var_y = e_yy - _dot(e_y, e_y)
    tr_cov = e_xy - _dot(e_x, e_y)
    alpha_star = tr_cov / tr_var_y if tr_var_y > ZERO_VARIANCE_TOL * n else None
    return ExactMoments(e_xbar=e_x, e_ybar=e_y, tr_var_xbar=tr_var_x,
                        tr_var_ybar=tr_var_y, tr_cov_xy=tr_cov,
                        alpha_star=alpha_star)


def solve_exact_dense(problem):
    """Direct dense solve of (Q + L) x = Q y; the test oracle."""
    A = LaplacianOperator(problem.graph).dense() + np.diag(problem.q)
    return np.linalg.solve(A, problem.q * problem.y)


@dataclass
class SpectralCheckReport:
    alpha: float
    spectral_radius: float
    passed: bool


def contraction_check(problem, alpha):
    """Spectral radius of I - alpha K^{-1}, via dense eigendecomposition.

    K^{-1} = Q^{-1}(Q + L) is similarity-equivalent to the symmetric
    Q^{-1/2}(Q + L)Q^{-1/2}, so the spectrum is real. Passes when the
    radius is <= 1 + 1e-10, i.e. the gradient step with this alpha never
    moves an estimate away from the exact solution.
    """
    A = LaplacianOperator(problem.graph).dense() + np.diag(problem.q)
    sq = np.sqrt(problem.q)
    S = A / sq[:, None] / sq[None, :]
    eigs = np.linalg.eigvalsh(S)
    radius = float(np.max(np.abs(1.0 - alpha * eigs)))
    return SpectralCheckReport(alpha=alpha, spectral_radius=radius,
                               passed=radius <= 1.0 + 1e-10)
