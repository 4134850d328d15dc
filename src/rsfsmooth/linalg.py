"""Laplacian application and the conjugate-gradient solver for the
smoothing problem.

The smoothing problem minimizes sum_i q_i (z_i - y_i)^2 + z^T L z over z,
whose solution is x_hat = K y with K = (Q + L)^{-1} Q, Q = diag(q_i).
For uniform q this reduces to K = q (qI + L)^{-1}.
"""

import math
from typing import NamedTuple

import numpy as np

from . import _native
from .errors import DataError, NumericalError
from .forests import CounterStream, sample_forest
from .graphs import Graph

DENSE_LIMIT = 2000


class LaplacianOperator:
    """Application of L = D - W in the edge-difference form
    (Lv)_i = sum_j w_ij (v_i - v_j), summed from +0.0 over row i's arcs in
    arc order. It is exact on constant vectors: L 1 == 0 bitwise.
    """

    def __init__(self, graph):
        self.graph = graph

    def apply(self, v):
        g = self.graph
        v = np.ascontiguousarray(v, dtype=np.float64)
        if v.shape != (g.n,):
            raise DataError(f"vector of shape {v.shape} does not match n={g.n}")
        return _native.kernels().laplacian(g, v)

    def dense(self):
        """Dense L for oracle-scale graphs (n <= DENSE_LIMIT)."""
        g = self.graph
        if g.n > DENSE_LIMIT:
            raise DataError(f"dense Laplacian limited to n <= {DENSE_LIMIT}, got {g.n}")
        L = np.diag(g.degrees)
        L[g._arc_rows, g.indices] -= g.weights
        return L


def _dot(a, b):
    """a . b for two contiguous float64 arrays of one length, summed in
    the kernels' four fixed lanes."""
    return _native.kernels().dot(a, b)


def _absorption_weights(q, n):
    """q, a scalar or one per vertex, as a fresh (n,) array if finite and > 0."""
    q = np.broadcast_to(np.asarray(q, dtype=np.float64), (n,)).copy()
    if not ((q > 0) & (q < np.inf)).all():
        raise DataError("absorption weights q must be finite and strictly positive")
    return q


class SmoothingProblem:
    """A graph, a signal y, and per-node positive absorption weights q_i.

    `q` may be a scalar (uniform regularization) or a per-node array (the
    semi-supervised case uses q_i = (mu/2) d_i). Exposes the implicit
    smoothing operator K = (Q + L)^{-1} Q through the solver functions.
    """

    def __init__(self, graph, y, q):
        self.graph = graph
        self.y = np.ascontiguousarray(y, dtype=np.float64)
        if self.y.shape != (graph.n,):
            raise DataError(f"signal length {self.y.shape} does not match n={graph.n}")
        if not np.isfinite(self.y).all():
            raise DataError("signal values must be finite")
        self.q_uniform = np.isscalar(q) or np.ndim(q) == 0
        self.q = _absorption_weights(q, graph.n)
        # q (y_i - y_j) is the largest term the estimators form; Python
        # floats overflow to inf without a warning
        spread = float(self.y.max()) - float(self.y.min())
        if not math.isfinite(float(self.q.max()) * spread):
            raise NumericalError(f"q times the signal's range overflows "
                                 f"(max q {float(self.q.max()):g}, range {spread:g})")
        self.laplacian = LaplacianOperator(graph)
        # CG's preconditioner once a solve has built it, False where it cannot be
        self.multigrid = None


def apply_K_inverse(problem, v):
    """Apply K^{-1} = Q^{-1} (Q + L) to a vector in O(m) operations."""
    v = np.asarray(v, dtype=np.float64)
    return v + problem.laplacian.apply(v) / problem.q


# When CG builds its multigrid preconditioner. CG needs about sqrt(kappa)
# iterations, and kappa <= 1 + 2 d_max / q_min. Measured on a 2-core Xeon,
# best of three solves, plain against preconditioned: on 100x100 and
# 300x300 grids the two break even near a bound of 800 (39 against 45 ms,
# 342 against 328 ms); the preconditioned solve wins by 7 and 14 % at 1600
# and by 40 and 38 % at 8000 (912 iterations and 0.92 s against 195 and
# 0.57 s). On a 20,000-vertex Barabasi-Albert graph, where the set-up
# takes 40 ms, it loses by 10 to 40 ms at bounds 200 to 8000 and breaks
# even at q = 0.001 (206 iterations in 110 ms against 80 in 105 ms). So
# the hierarchy is built only above a bound of 2000, and only once
# _PLAIN_ITERATIONS plain iterations have not converged: expanders
# converge first, as a 20,000-vertex 10-regular graph at q = 0.001 does
# in 31 iterations and 15 ms (preconditioned from the start: 14
# iterations and 91 ms, 54 ms of it the set-up).
_MULTIGRID_BOUND = 2000.0
_PLAIN_ITERATIONS = 64
_COARSEST = 300   # a level this small is solved by its dense Cholesky factor
_COARSE_RATE = 0.1  # the forest that aggregates a level is drawn at q_c = 0.1 mean degree
_OMEGA = 2.0 / 3.0  # the Jacobi smoothers' weight


class _Level(NamedTuple):
    """A level above the coarsest: its problem, omega / diag(Q + L), the
    aggregate of each vertex on the next level, and the buffers of its
    smoothed iterate x, its restricted residual rc and its correction e."""

    problem: SmoothingProblem
    winv: np.ndarray
    lab: np.ndarray
    x: np.ndarray
    rc: np.ndarray
    e: np.ndarray


class _Multigrid:
    """A V-cycle preconditioner for Q + L from forest aggregates (Avena,
    Castell, Gaudilliere and Melot, arXiv 1707.04616; as aggregation AMG,
    Vanek, Mandel and Brezina 1996).

    Each level is a SmoothingProblem. Its aggregates are the trees of one
    forest drawn at q_c = 0.1 times its mean degree on a fixed stream, and
    with P the aggregates' indicator matrix the next level's Pt (Q + L) P
    is again Q_c + L_c: q summed over each tree, and the weights between
    two trees summed onto one edge. Levels are added until one has at most
    _COARSEST vertices, which is factored densely. A cycle pre-smooths by
    one Jacobi sweep from zero, corrects from the next level, and
    post-smooths by one more, so it is symmetric, as CG needs.
    """

    def __init__(self, levels, factor):
        self.levels, self.factor = levels, factor
        self.sizes = [lvl.problem.graph.n for lvl in levels] + [len(factor)]

    @classmethod
    def build(cls, problem):
        """The hierarchy of problem, or None where a coarse level overflows,
        or a forest keeps more than half of a level's vertices as roots and
        more than _COARSEST."""
        k, levels = _native.kernels(), []
        while problem.graph.n > _COARSEST:
            g = problem.graph
            # the mean degree summed in fixed lanes: the forest is the same on every CPU
            rate = _COARSE_RATE * k.dot(np.array(g.degrees), np.ones(g.n)) / g.n
            roots, lab = np.unique(sample_forest(g, rate, CounterStream(0)).root_of,
                                   return_inverse=True)
            stalled = 2 * len(roots) > g.n and len(roots) > _COARSEST
            coarse = None if stalled else _quotient(problem, lab, len(roots))
            if coarse is None:
                return None
            levels.append(_Level(problem, _OMEGA / (problem.q + g.degrees), lab,
                                 np.empty(g.n), np.empty(len(roots)), np.empty(g.n)))
            problem = coarse
        g = problem.graph
        factor = np.diag(problem.q + g.degrees)
        factor[g._arc_rows, g.indices] -= g.weights
        k.cholesky(factor)
        return cls(levels, factor)

    def cycle(self, r, z):
        """z = M^{-1} r: one V-cycle on the residual r."""
        k = _native.kernels()
        b = r
        for lvl in self.levels:
            k.restrict(lvl.problem.graph, lvl.problem.q, lvl.winv, b, lvl.x, lvl.lab, lvl.rc)
            b = lvl.rc
        if b is r:  # no level above the coarsest: the dense solve alone
            b = z
            b[:] = r
        k.solve(self.factor, b)  # the coarsest residual becomes its correction
        for i in reversed(range(len(self.levels))):
            lvl = self.levels[i]
            rhs = self.levels[i - 1].rc if i else r
            out = lvl.e if i else z
            k.prolong(lvl.problem.graph, lvl.problem.q, lvl.winv, rhs, lvl.x, lvl.lab, b, out)
            b = out


def _quotient(problem, lab, nc):
    """The problem on the nc aggregates `lab`, with Q_c + L_c = Pt (Q + L) P,
    or None where its weights or q overflow."""
    g = problem.graph
    rows, cols = lab[g._arc_rows], lab[g.indices]
    cross = rows < cols  # one arc of each edge between two aggregates
    keys, edge_of = np.unique(rows[cross] * nc + cols[cross], return_inverse=True)
    w = np.bincount(edge_of, weights=g.weights[cross], minlength=len(keys))
    q = np.bincount(lab, weights=problem.q, minlength=nc)
    if not (np.isfinite(w).all() and np.isfinite(q).all()):
        return None
    coarse = Graph.from_edges(nc, np.column_stack([keys // nc, keys % nc, w]))
    return SmoothingProblem(coarse, np.zeros(nc), q)


def solve_exact_cg(problem, tol=1e-10, max_iter=None):
    """Solve (Q + L) x = Q y by conjugate gradient, preconditioned by a
    forest-aggregation multigrid V-cycle on hard problems.

    Returns (x, iterations). The iteration stops once the residual
    satisfies ||Qy - (Q+L)x|| <= tol * ||Qy||; raises `NumericalError`
    if ||Qy|| is not finite, or if that is not reached within max_iter
    (default 10n) iterations, plain and preconditioned together. CG runs
    plain; where 1 + 2 d_max / q_min exceeds _MULTIGRID_BOUND and
    _PLAIN_ITERATIONS iterations have not converged, it builds the
    hierarchy (`problem.multigrid`) and goes on preconditioned from the
    current iterate. Each plain iteration makes three passes over the
    vectors (`_native.Kernels`), a preconditioned one also a V-cycle, and
    every norm and dot product is summed in fixed lanes, so x has the same
    bits on every CPU.
    """
    if not 0 < tol < np.inf:
        raise DataError(f"tol must be positive and finite, got {tol!r}")
    g, q, k = problem.graph, problem.q, _native.kernels()
    if max_iter is None:
        max_iter = 10 * g.n
    b = q * problem.y
    bnorm = math.sqrt(k.dot(b, b))
    if not math.isfinite(bnorm):
        raise NumericalError(f"right-hand side Qy overflows (norm {bnorm})")
    if bnorm == 0.0:
        return np.zeros(g.n), 0
    hard = 1.0 + 2.0 * g.d_max / float(q.min()) > _MULTIGRID_BOUND

    def true_residual():
        """b - (Q + L) x and its norm."""
        res = np.empty(g.n)
        k.product(g, q, x, res)
        np.subtract(b, res, out=res)
        return res, math.sqrt(k.dot(res, res))

    def precondition():
        """M^{-1} r, r itself until the hierarchy is built, and r . M^{-1} r."""
        if mg is None:
            return r, rs
        mg.cycle(r, z)
        return z, k.dot(r, z)

    def restart():
        """A fresh direction, M^{-1} r, and r . M^{-1} r."""
        zr, rz = precondition()
        return zr.copy(), rz

    x = np.zeros(g.n)
    r = b.copy()
    ap, z = np.empty(g.n), np.empty(g.n)
    rs = k.dot(r, r)
    mg = None
    p, rz = restart()
    threshold = tol * bnorm
    iterations = 0
    while True:
        if math.sqrt(rs) <= threshold:
            # the recursive residual drifts; accept only on the true one
            true_r, tnorm = true_residual()
            if tnorm <= threshold:
                return x, iterations
            r = true_r
            rs = tnorm * tnorm
            p, rz = restart()
        if iterations >= max_iter:
            raise NumericalError(
                f"CG did not converge in {max_iter} iterations "
                f"(relative residual {true_residual()[1] / bnorm:.3e})"
            )
        if hard and iterations == _PLAIN_ITERATIONS:
            if problem.multigrid is None:
                problem.multigrid = _Multigrid.build(problem) or False
            if problem.multigrid:
                mg = problem.multigrid
                p, rz = restart()
        alpha = rz / k.product(g, q, p, ap)
        rs = k.residual(r, ap, alpha)
        zr, rz_new = precondition()
        k.direction(x, p, zr, alpha, rz_new / rz)
        rz = rz_new
        iterations += 1
