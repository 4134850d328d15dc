"""Laplacian application and the conjugate-gradient solver for the
smoothing problem.

The smoothing problem minimizes sum_i q_i (z_i - y_i)^2 + z^T L z over z,
whose solution is x_hat = K y with K = (Q + L)^{-1} Q, Q = diag(q_i).
For uniform q this reduces to K = q (qI + L)^{-1}.
"""

import math
import threading
from typing import NamedTuple

import numpy as np

from . import _native
from .errors import DataError, NumericalError, integer
from .forests import CounterStream, _absorption_weights, sample_forest
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


class SmoothingProblem:
    """A graph, a signal y, and per-node positive absorption weights q_i.

    `y` is one signal of shape (n,) or a block of k signals of shape
    (n, k), stored with contiguous columns; the estimators treat each
    column as a problem of its own, on the same forests. `q` may be a
    scalar (uniform regularization) or a per-node array (the
    semi-supervised case uses q_i = (mu/2) d_i). Exposes the implicit
    smoothing operator K = (Q + L)^{-1} Q through the solver functions.
    """

    def __init__(self, graph, y, q):
        self.graph = graph
        self.y = np.asfortranarray(y, dtype=np.float64)
        if self.y.shape[:1] != (graph.n,) or self.y.ndim > 2 or self.y.size == 0:
            raise DataError(f"signal length {self.y.shape} does not match n={graph.n}")
        if not np.isfinite(self.y).all():
            raise DataError("signal values must be finite")
        self.q = _absorption_weights(q, graph.n)
        # q (y_i - y_j) is the largest term the estimators form, within a
        # column; Python floats overflow to inf without a warning
        spread = max(float(col.max()) - float(col.min()) for col in _native.columns(self.y))
        if not math.isfinite(float(self.q.max()) * spread):
            raise NumericalError(f"q times the signal's range overflows "
                                 f"(max q {float(self.q.max()):g}, range {spread:g})")
        # CG's preconditioner once a solve has taken it, False where it cannot be built
        self.multigrid = None


def apply_K_inverse(problem, v):
    """Apply K^{-1} = Q^{-1} (Q + L) to a vector, or to each column of an
    (n, k) block, in O(m) operations per column."""
    g = problem.graph
    v = np.asfortranarray(v, dtype=np.float64)
    if v.shape[:1] != (g.n,) or v.ndim > 2:
        raise DataError(f"vector of shape {v.shape} does not match n={g.n}")
    out = _native.kernels().laplacian(g, v)
    out /= problem.q if v.ndim == 1 else problem.q[:, None]
    out += v  # v + L v / q: addition commutes exactly
    return out


# per-node threshold on tr Var(ybar), ybar = K^{-1} xbar, below which the
# empirical step size (`estimators`) and the exact one (`oracle`) fall back
ZERO_VARIANCE_TOL = 1e-14


# When CG takes its multigrid preconditioner. CG needs about sqrt(kappa)
# iterations, and kappa <= 1 + 2 d_max / q_min. Measured on a 2-core Xeon,
# best of seven solves that each build the hierarchy, plain against
# preconditioned from iteration 16: on a 100x100 grid plain wins at a
# bound of 801 (32 against 39 ms) and ties at 1601 (39 against 40 ms),
# and the hierarchy wins by 35 % at 8001 (462 iterations against 91). On
# a 300x300 grid it wins by 14, 24 and 49 % at those bounds (919
# iterations and 0.53 s against 96 and 0.27 s at 8001). On a
# 20,000-vertex Barabasi-Albert graph it wins by 20 % at a bound of 1087
# (134 against 28 iterations), by 8 % at 2173 and by 44 % at q = 0.001
# (203 iterations in 56 ms against 30 in 31 ms). So the hierarchy is
# built only above a bound of 2000, where the small grid stops losing.
# Plain CG's relative residual after _PLAIN_ITERATIONS / 4
# iterations tells the rest apart: 0.1 to 0.2 on these grids and graphs,
# above tol^(1/4) = 3.2e-3 at the default tol, and 4.6e-4 on a
# 20,000-vertex 10-regular graph at q = 0.001, an expander, which then
# converges plain in 30 iterations and 8 ms. Above that residual CG
# takes the hierarchy at once; below it, only where _PLAIN_ITERATIONS
# have not converged.
_MULTIGRID_BOUND = 2000.0
_PLAIN_ITERATIONS = 64
_COARSEST = 300   # a level this small is solved by its dense Cholesky factor
_COARSE_RATE = 0.05  # the forest that aggregates a level is drawn at q_c = 0.05 mean degree
_KRYLOV_CUT = 4.0  # the K-cycle's second step is taken unless its first cuts the residual 4x
# the Jacobi smoothers' weight, the smoothing optimum on the 2-D five-point
# Laplacian (Trottenberg, Oosterlee and Schuller, Multigrid, 2001)
_OMEGA = 4.0 / 5.0
# CG is stalled once this many failed acceptances in a row have not brought
# its true residual below the smallest one at an earlier failed acceptance.
# Near the rounding floor that residual jumps about at each restart, and a
# solve can still pass tol later, mostly once it takes the hierarchy after
# _PLAIN_ITERATIONS, so the count stays above that. Of 20,000 random
# graphs of 2-9 vertices with weights over 60 binades, 271 converged after
# two or more failed acceptances, after runs of up to 56 with no new
# smallest residual (up to 46 on 4,000 graphs of 10-39 vertices, 3 on 1,500
# of 40-149); a stop at the first residual no smaller than the last would
# have ended 159 of the 271. At tol 1e-16, CG now stops after 201
# iterations on a 60x60 grid at q = 1 and after 1347 at q = 0.01, instead
# of the 10n = 36,000 of max_iter.
_STALL_RESTARTS = 100


class _Level(NamedTuple):
    """A level above the coarsest: its graph and q, omega / diag(Q + L) and
    the aggregate of each vertex on the next level."""

    graph: Graph
    q: np.ndarray
    winv: np.ndarray
    lab: np.ndarray


class _Multigrid:
    """A K-cycle preconditioner for Q + L from forest aggregates (Avena,
    Castell, Gaudilliere and Melot, arXiv 1707.04616; as aggregation AMG,
    Vanek, Mandel and Brezina 1996).

    Each level is a graph and its q. Its aggregates are the trees of one
    forest drawn at q_c = 0.05 times its mean degree on a fixed stream, and
    with P the aggregates' indicator matrix the next level's Pt (Q + L) P
    is again Q_c + L_c: q summed over each tree, and the weights between
    two trees summed onto one edge. Levels are added until one has at most
    _COARSEST vertices, which is factored densely. Where a forest below
    the finest level keeps more than half of its level's vertices as roots
    (and more than _COARSEST), as where many light vertices hang on one
    heavy hub, that level is aggregated into one vertex instead, whose
    Galerkin matrix is the 1 x 1 [sum q]. A V-cycle pre-smooths by
    one Jacobi sweep from zero, corrects from the next level, and
    post-smooths by one more, so it is symmetric. Unsmoothed aggregates
    make V-cycles weaker as levels are added, so a cycle on three or more
    levels corrects the finest from a K-cycle on the second (Notay and
    Vassilevski, NLAA 15, 2008): at most two flexible-CG steps, each
    preconditioned by a V-cycle from there down. That cycle is not a
    fixed linear map, which is why CG takes its flexible form with it.
    A built hierarchy holds its levels and the coarsest factor alone, and
    every cycle allocates its own work vectors, so solves that share one
    may run at once.
    """

    def __init__(self, levels, factor):
        self.levels, self.factor = levels, factor
        self.sizes = [lvl.graph.n for lvl in levels] + [len(factor)]

    @classmethod
    def build(cls, g, q):
        """The hierarchy of Q + L on graph g, or None where a coarse level
        overflows, the finest level's forest keeps more than half of its
        vertices as roots and more than _COARSEST, or a pivot of the
        coarsest level's Cholesky factor is not positive and finite."""
        k, levels = _native.kernels(), []
        while g.n > _COARSEST:
            # the mean degree summed in fixed lanes: the forest is the same on every CPU
            rate = _COARSE_RATE * k.dot(np.array(g.degrees), np.ones(g.n)) / g.n
            # each tree's label is the rank of its root, as np.unique's inverse gives it
            root_of = sample_forest(g, rate, CounterStream(0)).root_of
            is_root = root_of == np.arange(g.n)
            lab, nc = (np.cumsum(is_root) - 1)[root_of], int(np.count_nonzero(is_root))
            if 2 * nc > g.n and nc > _COARSEST:  # the forest barely coarsens
                if not levels:
                    return None
                lab, nc = np.zeros(g.n, dtype=np.int64), 1
            coarse = _quotient(g, q, lab, nc)
            if coarse is None:
                return None
            levels.append(_Level(g, q, _OMEGA / (q + g.degrees), lab))
            g, q = coarse
        factor = LaplacianOperator(g).dense() + np.diag(q)
        k.cholesky(factor)
        pivots = factor.diagonal()  # their square roots: NaN where a pivot is negative
        if not ((pivots > 0.0) & (pivots < math.inf)).all():  # q lost against the weights
            return None
        return cls(levels, factor)

    def cycle(self, r, z, level=0):
        """z = M^{-1} r on `level`: the dense solve at the coarsest, else
        pre-smoothing and restriction, the next level's correction, and
        prolongation with post-smoothing. The finest level of three or more
        takes that correction from the K-cycle, every other from this
        cycle. Its work vectors are the call's own."""
        k = _native.kernels()
        if level == len(self.levels):
            np.copyto(z, r)
            k.solve(self.factor, z)
            return
        lvl, nc = self.levels[level], self.sizes[level + 1]
        x, rc, ec = np.empty(len(r)), np.empty(nc), np.empty(nc)
        k.restrict(lvl.graph, lvl.q, lvl.winv, r, x, lvl.lab, rc)
        if level == 0 and len(self.levels) > 1:
            self.k_cycle(rc, ec)
        else:
            self.cycle(rc, ec, level + 1)
        k.prolong(lvl.graph, lvl.q, lvl.winv, r, x, lvl.lab, ec, z)

    def k_cycle(self, r, e):
        """e ~ A^{-1} r on the second level, A = Q_c + L_c: flexible CG
        from zero, each step preconditioned by a V-cycle from there down,
        that stops after one step where it cuts the residual _KRYLOV_CUT
        times, else after two. e is A's projection of A^{-1} r onto the two
        directions: r - A e is orthogonal to both."""
        k = _native.kernels()
        g, q = self.levels[1].graph, self.levels[1].q
        rr = k.dot(r, r)
        if rr == 0.0:  # c1 would be zero, and so would rho1
            e[:] = 0.0
            return
        c1, c2, v1, rt = (np.empty(len(r)) for _ in range(4))
        self.cycle(r, c1, 1)
        rho1 = k.product(g, q, c1, v1)
        a1 = k.dot(c1, r) / rho1
        np.copyto(rt, r)
        if k.residual(rt, v1, a1) * _KRYLOV_CUT**2 > rr:
            self.cycle(rt, c2, 1)
            gamma, a2 = k.dot(c2, v1), k.dot(c2, rt)
            rho2 = k.product(g, q, c2, rt) - gamma * gamma / rho1  # rt = A c2 from here
            if rho2 > 0.0:  # else c2 adds nothing to c1 that rounding leaves
                a2 /= rho2
                np.multiply(c1, a1 - gamma / rho1 * a2, out=e)
                c2 *= a2
                e += c2
                return
        np.multiply(c1, a1, out=e)


def _quotient(g, q, lab, nc):
    """(graph, q) on the nc aggregates `lab` of g, with Q_c + L_c =
    Pt (Q + L) P, or None where its weights or q overflow. Its arcs are
    valid by construction, so they skip `Graph.from_edges`'s checks: the
    sums of positive weights are positive, and the aggregates of a
    connected graph are connected, as `Graph._from_arcs` checks."""
    rows, cols = np.repeat(lab, np.diff(g.indptr)), lab[g.indices]
    cross = np.flatnonzero(rows < cols)  # one arc of each edge between two aggregates
    keys, edge_of = np.unique(rows[cross] * nc + cols[cross], return_inverse=True)
    w = np.bincount(edge_of, weights=g.weights[cross], minlength=len(keys))
    qc = np.bincount(lab, weights=q, minlength=nc)
    if not (np.isfinite(w).all() and np.isfinite(qc).all()):
        return None
    # each edge's two arcs, sorted once by (row, column); the weights are
    # floats also where there is no edge, for which bincount returns ints
    arcs = np.concatenate([keys, keys % nc * nc + keys // nc])
    order = np.argsort(arcs)
    return Graph._from_arcs(nc, arcs[order], np.concatenate([w, w], dtype=np.float64)[order]), qc


_HIERARCHY_LOCK = threading.Lock()


def _hierarchy(problem):
    """The multigrid of problem's graph and q, or False where it cannot be
    built. It depends on nothing else, since its forests are drawn on a
    fixed stream, so it is built once and kept on the graph, keyed by q's
    bytes: the k classes and repeats of an `ssl` run share one. The look-up
    and the build hold one lock, so solves that start together in threads
    build it once too."""
    with _HIERARCHY_LOCK:
        cache = vars(problem.graph).setdefault("_multigrids", {})
        key = problem.q.tobytes()
        if key not in cache:
            cache[key] = _Multigrid.build(problem.graph, problem.q) or False
        return cache[key]


def solve_exact_cg(problem, tol=1e-10, max_iter=None):
    """Solve (Q + L) x = Q y by conjugate gradient, preconditioned by a
    forest-aggregation multigrid K-cycle on hard problems.

    Returns (x, iterations). The iteration stops once the residual
    satisfies ||Qy - (Q+L)x|| <= tol * ||Qy||; raises `NumericalError`
    if Qy is not finite, if that is not reached within max_iter (an
    integer >= 1, default 10n) iterations, plain and preconditioned
    together, or if the true residual stalls: where the recursive
    residual passes tol and the true one does not, CG restarts from the
    true one, and it stops once _STALL_RESTARTS such restarts in a row
    have not brought the true residual below its smallest value at an
    earlier one.
    CG runs plain; where 1 + 2 d_max / q_min exceeds _MULTIGRID_BOUND,
    it takes the hierarchy (`problem.multigrid`) after
    _PLAIN_ITERATIONS / 4 iterations if the relative residual is then
    above tol^(1/4), else after _PLAIN_ITERATIONS if it has not
    converged, and goes on preconditioned from the current iterate, with
    beta in its flexible form -z . Ap / p . Ap (Notay, SISC 22, 2000).
    It raises `NumericalError` too where p . Ap, which divides, is zero
    or not finite. Each iteration makes three passes over the vectors
    (`_native.Kernels`), a preconditioned one also a cycle; the plain
    ones up to the next point where CG decides something run in one
    kernel call. Every norm and dot product is summed in fixed lanes, so
    x has the same bits on every CPU.
    """
    if not 0 < tol < np.inf:
        raise DataError(f"tol must be positive and finite, got {tol!r}")
    g, q, k = problem.graph, problem.q, _native.kernels()
    if problem.y.ndim != 1:
        raise DataError(f"CG solves one signal at a time, not a block of shape "
                        f"{problem.y.shape}")
    max_iter = 10 * g.n if max_iter is None else integer(max_iter, "max_iter")
    if max_iter < 1:
        raise DataError(f"max_iter must be >= 1, got {max_iter}")
    b = q * problem.y
    top = float(np.max(np.abs(b)))
    if not math.isfinite(top):
        raise NumericalError("right-hand side Qy overflows")
    if top == 0.0:
        return np.zeros(g.n), 0
    # CG is linear in Qy: it solves for Qy / 2^e, 2^e <= max |Qy| < 2^(e+1),
    # whose norms neither underflow nor overflow, and a power of two
    # rescales every value it forms exactly, outside the subnormal range
    e = math.frexp(top)[1] - 1
    b = np.ldexp(b, -e)
    bnorm = math.sqrt(k.dot(b, b))
    hard = 1.0 + 2.0 * g.d_max / float(q.min()) > _MULTIGRID_BOUND
    # plain CG above this residual after a quarter of _PLAIN_ITERATIONS is
    # on course to miss tol after all of them
    stalled = tol ** 0.25 * bnorm

    def true_residual():
        """b - (Q + L) x and its norm."""
        res = np.empty(g.n)
        k.product(g, q, x, res)
        np.subtract(b, res, out=res)
        return res, math.sqrt(k.dot(res, res))

    def restart():
        """A fresh direction, M^{-1} r (r itself until the hierarchy is
        taken), and r . M^{-1} r."""
        if mg is None:
            return r.copy(), rs
        mg.cycle(r, z)
        return z.copy(), k.dot(r, z)

    def broke_down(pap):
        """The error where p . Ap, which divides, is zero or not finite."""
        return NumericalError(f"CG broke down after {iterations} iterations "
                              f"(p . Ap = {pap:.3e})")

    x = np.zeros(g.n)
    r = b.copy()
    ap, z = np.empty(g.n), np.empty(g.n)
    rs = k.dot(r, r)
    mg = None
    p, rz = restart()
    threshold = tol * bnorm
    best, since = math.inf, 0  # smallest true residual at a failed acceptance, and runs since
    # where a plain phase stops for CG to decide whether to take the hierarchy
    checkpoints = (_PLAIN_ITERATIONS // 4, _PLAIN_ITERATIONS) if hard else ()
    iterations = 0
    while True:
        if math.sqrt(rs) <= threshold:
            # the recursive residual drifts; accept only on the true one
            true_r, tnorm = true_residual()
            if tnorm <= threshold:
                return np.ldexp(x, e), iterations
            # a failed acceptance: CG restarts from the true residual, and
            # stops where _STALL_RESTARTS of them in a row set no new low
            if tnorm < best:
                best, since = tnorm, 0
            else:
                since += 1
                if since >= _STALL_RESTARTS:
                    raise NumericalError(
                        f"CG stalled after {iterations} iterations "
                        f"(relative residual {tnorm / bnorm:.3e})")
            r = true_r
            rs = tnorm * tnorm
            p, rz = restart()
        if iterations >= max_iter:
            raise NumericalError(
                f"CG did not converge in {max_iter} iterations "
                f"(relative residual {true_residual()[1] / bnorm:.3e})"
            )
        if mg is None and iterations in checkpoints and (
                iterations == _PLAIN_ITERATIONS or math.sqrt(rs) > stalled):
            problem.multigrid = _hierarchy(problem)
            if problem.multigrid:
                mg = problem.multigrid
                p, rz = restart()
        if mg is None:
            # plain iterations in one call, up to the next point that decides something
            stop = min(end for end in (*checkpoints, max_iter) if end > iterations)
            done, out = k.plain(g, q, x, r, p, ap, rs, threshold, stop - iterations)
            if done < 0:
                iterations += -1 - done
                raise broke_down(out)
            iterations, rs = iterations + done, out
            continue
        pap = k.product(g, q, p, ap)
        if pap == 0.0 or not math.isfinite(pap):
            raise broke_down(pap)
        alpha = rz / pap
        rs = k.residual(r, ap, alpha)
        mg.cycle(r, z)
        rz_new = k.dot(r, z)
        k.direction(x, p, z, alpha, -k.dot(z, ap) / pap)
        rz = rz_new
        iterations += 1
