"""Laplacian application and the conjugate-gradient solver for the
smoothing problem.

The smoothing problem minimizes sum_i q_i (z_i - y_i)^2 + z^T L z over z,
whose solution is x_hat = K y with K = (Q + L)^{-1} Q, Q = diag(q_i).
For uniform q this reduces to K = q (qI + L)^{-1}.
"""

import functools
import math
import weakref
from typing import Callable, NamedTuple

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
        return _kernels().laplacian(g, v)

    def dense(self):
        """Dense L for oracle-scale graphs (n <= DENSE_LIMIT)."""
        g = self.graph
        if g.n > DENSE_LIMIT:
            raise DataError(f"dense Laplacian limited to n <= {DENSE_LIMIT}, got {g.n}")
        L = np.diag(g.degrees)
        L[g._arc_rows, g.indices] -= g.weights
        return L


class _Kernels(NamedTuple):
    """The loops of the Laplacian apply, CG and the accumulator's
    co-moments, on contiguous float64 arrays, writing only the arrays
    named below. Every dot product sums element i into lane i % 4, each
    lane from +0.0 in index order, and returns (s0 + s1) + (s2 + s3), so
    its bits depend on the inputs alone, not on the CPU or the BLAS."""

    laplacian: Callable  # (g, v) -> L v, a new array
    dot: Callable        # (a, b) -> a . b
    product: Callable    # (g, q, p, ap) -> p . ap, after ap = q p + L p
    residual: Callable   # (r, ap, a) -> r . r, after r -= a ap
    direction: Callable  # (x, p, r, a, b) -> None, after x += a p; p = r + b p


def _compiled_kernels(lib):
    """The kernel set calling the library's loops, with each graph's CSR
    arrays bound once."""
    def csr(g):
        return g.indptr, g.indices, g.weights

    apply, product, address = (_native.bind(lib.laplacian, csr),
                               _native.bind(lib.cg_product, csr), _native.address)

    def laplacian(g, v):
        out = np.empty(g.n)
        apply(g)(v.ctypes.data, address(out))
        return out

    return _Kernels(
        laplacian=laplacian,
        dot=lambda a, b: lib.dot(len(a), address(a), address(b)),
        product=lambda g, q, p, ap: product(g)(q.ctypes.data, address(p), address(ap)),
        residual=lambda r, ap, a: lib.cg_residual(len(r), address(r), address(ap), a),
        direction=lambda x, p, r, a, b: lib.cg_direction(len(x), address(x), address(p),
                                                         address(r), a, b))


_SLOTS = weakref.WeakKeyDictionary()  # graph -> its arcs laid out for _laplacian_slots


def _arc_slots(g):
    """(perm, slots, rest) for `_laplacian_slots`: perm orders the rows by
    decreasing degree; slot t is (count, neighbours, weights) of the t-th
    arc of the first count rows of perm, the rows that have one. Slots go
    on while they reach an eighth of the rows; rest holds the later arcs,
    in arc order, as (position in perm, row, neighbour, weight) arrays.
    Without that cutoff every arc of a hub costs a slot of three numpy
    calls: on Barabasi-Albert graphs the apply was 1.5x (n = 20000) and
    3.6x (n = 1500) slower than the bincount form, and 0.65x and 0.88x of
    it with the cutoff."""
    if g not in _SLOTS:
        deg = np.diff(g.indptr)
        perm = np.argsort(-deg, kind="stable")
        counts = g.n - np.searchsorted(np.sort(deg), np.arange(deg.max()), "right")
        starts, slots = g.indptr[perm], []
        for t, count in enumerate(counts.tolist()):
            if 8 * count < g.n:
                break
            arcs = starts[:count] + t
            slots.append((count, g.indices[arcs], g.weights[arcs]))
        rows = g._arc_rows
        later = np.flatnonzero(np.arange(2 * g.m) - g.indptr[rows] >= len(slots))
        position = np.empty(g.n, dtype=np.int64)
        position[perm] = np.arange(g.n)
        rest = (position[rows[later]], rows[later], g.indices[later], g.weights[later])
        _SLOTS[g] = perm, slots, rest
    return _SLOTS[g]


def _laplacian_slots(g, v):
    """The compiled row loop in numpy, the same sums bit for bit: each
    row's sum starts at +0.0 and adds its arcs in arc order. One add per
    slot extends the sums of all the rows it holds by one arc, and
    np.add.at, which adds in index order, the few rows' later arcs."""
    perm, slots, (position, rows, nbr, w) = _arc_slots(g)
    vp, out = v[perm], np.zeros(g.n)
    for count, slot_nbr, slot_w in slots:
        terms = vp[:count] - v[slot_nbr]
        terms *= slot_w
        out[:count] += terms
    if len(position):
        np.add.at(out, position, w * (v[rows] - v[nbr]))
    res = np.empty(g.n)
    res[perm] = out
    return res


@functools.lru_cache(maxsize=8)
def _lanes(n):
    """The lane of each of n indices, i % 4. Writable, because np.bincount
    copies a read-only input on every call."""
    return np.arange(n) & 3


def _dot_numpy(a, b):
    """The compiled dot in numpy: bincount adds each product into its
    lane in index order, from +0.0."""
    s0, s1, s2, s3 = np.bincount(_lanes(len(a)), weights=a * b, minlength=4).tolist()
    return (s0 + s1) + (s2 + s3)


def _product_numpy(g, q, p, ap):
    np.multiply(q, p, out=ap)
    ap += _laplacian_slots(g, p)
    return _dot_numpy(p, ap)


def _residual_numpy(r, ap, a):
    r -= a * ap
    return _dot_numpy(r, r)


def _direction_numpy(x, p, r, a, b):
    x += a * p
    p *= b
    p += r  # r + b p: addition commutes exactly


_NUMPY = _Kernels(_laplacian_slots, _dot_numpy, _product_numpy, _residual_numpy,
                  _direction_numpy)
_KERNELS = None  # the kernel set, chosen on first use


def _kernels():
    """The compiled kernel set, or `_NUMPY` where the library cannot be
    built; the two give the same results bit for bit."""
    global _KERNELS
    if _KERNELS is None:
        lib = _native.library()
        _KERNELS = _NUMPY if lib is None else _compiled_kernels(lib)
    return _KERNELS


def _dot(a, b):
    """a . b for two contiguous float64 arrays of one length, summed in
    the kernels' four fixed lanes."""
    return _kernels().dot(a, b)


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
    vectors (`_Kernels`), and every norm and dot product is summed in
    fixed lanes, so x has the same bits on every CPU.
    """
    if not 0 < tol < np.inf:
        raise DataError(f"tol must be positive and finite, got {tol!r}")
    g, q, k = problem.graph, problem.q, _kernels()
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
