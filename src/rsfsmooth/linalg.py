"""Laplacian application and the conjugate-gradient solver for the
smoothing problem.

The smoothing problem minimizes sum_i q_i (z_i - y_i)^2 + z^T L z over z,
whose solution is x_hat = K y with K = (Q + L)^{-1} Q, Q = diag(q_i).
For uniform q this reduces to K = q (qI + L)^{-1}.
"""

import math

import numpy as np

from . import _native
from .errors import DataError, NumericalError

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


def apply_K_inverse(problem, v):
    """Apply K^{-1} = Q^{-1} (Q + L) to a vector in O(m) operations."""
    v = np.asarray(v, dtype=np.float64)
    return v + problem.laplacian.apply(v) / problem.q


def solve_exact_cg(problem, tol=1e-10, max_iter=None):
    """Solve (Q + L) x = Q y by unpreconditioned conjugate gradient.

    Returns (x, iterations). The iteration stops once the residual
    satisfies ||Qy - (Q+L)x|| <= tol * ||Qy||; raises `NumericalError`
    if ||Qy|| is not finite, or if that is not reached within max_iter
    (default 10n) iterations. Each iteration makes three passes over the
    vectors (`_native.Kernels`), and every norm and dot product is summed in
    fixed lanes, so x has the same bits on every CPU.
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

    def true_residual():
        """b - (Q + L) x and its norm."""
        res = np.empty(g.n)
        k.product(g, q, x, res)
        np.subtract(b, res, out=res)
        return res, math.sqrt(k.dot(res, res))

    x = np.zeros(g.n)
    r = b.copy()
    p = r.copy()
    ap = np.empty(g.n)
    rs = k.dot(r, r)
    threshold = tol * bnorm
    iterations = 0
    while True:
        if math.sqrt(rs) <= threshold:
            # the recursive residual drifts; accept only on the true one
            true_r, tnorm = true_residual()
            if tnorm <= threshold:
                return x, iterations
            r = true_r
            p = r.copy()
            rs = tnorm * tnorm
        if iterations >= max_iter:
            raise NumericalError(
                f"CG did not converge in {max_iter} iterations "
                f"(relative residual {true_residual()[1] / bnorm:.3e})"
            )
        alpha = rs / k.product(g, q, p, ap)
        rs_new = k.residual(r, ap, alpha)
        k.direction(x, p, r, alpha, rs_new / rs)
        rs = rs_new
        iterations += 1
