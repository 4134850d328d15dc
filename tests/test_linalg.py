import functools
import hashlib
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse
from scipy.sparse import csgraph

from rsfsmooth import (DataError, Graph, LaplacianOperator, NumericalError,
                       SmoothingProblem, apply_K_inverse, forest_rng, gen_graph,
                       sample_forest, solve_exact_cg, synthetic_signal)
from rsfsmooth import _native, _twins, linalg
from rsfsmooth.oracle import contraction_check, solve_exact_dense

from conftest import (adjacency, assert_same_graph, kernel_sets, path_graph,
                      random_connected_graph, star_graph, using_kernels)


def dense_system(problem):
    """Independent assembly of Q + L from the raw adjacency."""
    g = problem.graph
    W = adjacency(g).toarray()
    L = np.diag(W.sum(axis=1)) - W
    return np.diag(problem.q) + L


class TestLaplacianOperator:
    def test_constant_in_kernel_bitwise(self):
        g = random_connected_graph(50, extra_edges=80,
                                   rng=np.random.default_rng(3), weighted=True)
        lap = LaplacianOperator(g)
        assert np.all(lap.apply(np.full(g.n, 3.7)) == 0.0)

    def test_matches_dense_on_probes(self):
        g = random_connected_graph(40, extra_edges=50,
                                   rng=np.random.default_rng(4), weighted=True)
        lap = LaplacianOperator(g)
        Ld = lap.dense()
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(g.n)
            np.testing.assert_allclose(lap.apply(v), Ld @ v, rtol=1e-12, atol=1e-12)

    def test_symmetric_and_psd(self):
        g = random_connected_graph(60, extra_edges=90,
                                   rng=np.random.default_rng(5), weighted=True)
        lap = LaplacianOperator(g)
        rng = np.random.default_rng(1)
        for _ in range(10):
            u, v = rng.standard_normal((2, g.n))
            lhs, rhs = lap.apply(u) @ v, u @ lap.apply(v)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)
            quad = v @ lap.apply(v)
            assert quad >= -1e-12 * (v @ v)


def bincount_laplacian(g, v):
    """The arc-wise edge-difference form: one bincount over the stored arcs,
    summing w_ij (v_i - v_j) row by row in arc order."""
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    return np.bincount(rows, weights=g.weights * (v[rows] - v[g.indices]), minlength=g.n)


# magnitudes over many binades, and values mixing them with signs and
# signed zeros
scaled = st.builds(lambda mant, exp: mant * 2.0 ** exp,
                   st.floats(1.0, 2.0, exclude_max=True), st.integers(-30, 30))
value = st.one_of(st.sampled_from([0.0, -0.0]),
                  st.builds(lambda x, s: x * s, scaled, st.sampled_from([1.0, -1.0])))


def vectors(n):
    return st.lists(value, min_size=n, max_size=n).map(np.array)


@st.composite
def weighted_graphs_and_vectors(draw):
    """Small connected graphs (a random spanning tree plus extra edges, each
    edge in either orientation, in shuffled order) with weights spread over
    many binades, and vectors mixing magnitudes, signs and signed zeros."""
    n = draw(st.integers(2, 9))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs |= {(min(a, b), max(a, b))
              for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                  st.integers(0, n - 1)), max_size=12))
              if a != b}
    pairs = [(b, a) if draw(st.booleans()) else (a, b) for a, b in sorted(pairs)]
    edges = [(a, b, draw(scaled)) for a, b in draw(st.permutations(pairs))]
    return Graph.from_edges(n, edges), draw(vectors(n))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(weighted_graphs_and_vectors())
def test_apply_matches_bincount_form_bitwise(case):
    g, v = case
    got, ref = LaplacianOperator(g).apply(v), bincount_laplacian(g, v)
    assert got.dtype == np.float64 and got.shape == (g.n,)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    twin = _twins.TWINS.laplacian(g, v)
    assert np.array_equal(twin.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("make", [
    lambda: star_graph(40),  # one hub row of 40 arcs
    lambda: gen_graph("barabasi_albert", n=300, k=3, seed=2),
    lambda: random_connected_graph(60, extra_edges=300, rng=np.random.default_rng(8),
                                   weighted=True),
    lambda: path_graph(7),
    lambda: Graph.from_edges(1, []),
])
def test_numpy_apply_matches_bincount_form_on_uneven_degrees(make):
    # the twin's numpy form and the compiled row loop alike
    g = make()
    rng = np.random.default_rng(g.n)
    v = rng.standard_normal(g.n) * 10.0 ** rng.integers(-8, 9, g.n)
    ref = bincount_laplacian(g, v)
    for chosen in kernel_sets():
        got = chosen.laplacian(g, v)
        assert (got.dtype, got.shape) == (np.float64, (g.n,))
        assert got.tobytes() == ref.tobytes()


def with_kernels(kernels, fn, *args):
    """fn(*args) with the given kernel set in place of the loaded one;
    its result, or the text of the error it raised."""
    with using_kernels(kernels):
        try:
            return fn(*args)
        except (DataError, NumericalError) as err:
            return f"{type(err).__name__}: {err}"


needs_library = pytest.mark.skipif(_native.compiled() is None,
                                   reason="the compiled library cannot be built")


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# hypothesis mines the literal constants of every loaded module outside the
# tests, so the cases a derandomized test draws depend on the modules a
# pytest invocation loads (collecting perfbench/ adds some) and on the
# literals under src/. Collected from the repository root, this test drew
# this case, which converges only after 48 failed acceptances (65
# iterations); as an example, every invocation checks it.
HARD_CG_CASE = (
    Graph.from_edges(9, [
        (0, 1, 92410736.34840752), (0, 2, 84645096.74249393), (0, 3, 0.9405127373670786),
        (1, 4, 14674.269530545565), (1, 6, 1.5241335280500635e-06),
        (2, 4, 0.014006409395849056), (2, 7, 115.27276192238008),
        (2, 8, 2043822157.2698078), (3, 8, 32.327825144365804), (4, 5, 181370.44370428042),
        (4, 6, 3618622.352423809), (5, 8, 3.9270859926432538)]),
    np.array([6.103515625e-05, 2.0, 0.0, 0.0, -0.0, -0.0, 534649606.6803561, -0.0,
              389656.14189227344]))


@needs_library
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(weighted_graphs_and_vectors(), st.floats(1e-3, 1e3))
@example(HARD_CG_CASE, 388.55193315398975)
def test_compiled_apply_and_cg_match_the_fallback_bitwise(case, q):
    g, v = case
    compiled = _native.compiled()
    fast, slow = compiled.laplacian(g, v), _twins.TWINS.laplacian(g, v)
    assert np.array_equal(fast.view(np.uint64), slow.view(np.uint64))
    problem = SmoothingProblem(g, v, q)
    fast = with_kernels(compiled, solve_exact_cg, problem)
    slow = with_kernels(_twins.TWINS, solve_exact_cg, problem)
    if isinstance(slow, str):  # weights over 60 binades can stall CG
        assert fast == slow
    else:
        assert np.array_equal(fast[0].view(np.uint64), slow[0].view(np.uint64))
        assert fast[1] == slow[1]


def lane_dot(a, b):
    """The kernels' dot product as a plain loop: element i into lane i % 4,
    each lane from +0.0 in index order, then (s0 + s1) + (s2 + s3)."""
    s = [0.0] * 4
    for i, (u, v) in enumerate(zip(a.tolist(), b.tolist())):
        s[i % 4] += u * v
    return (s[0] + s[1]) + (s[2] + s[3])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(vectors(n), vectors(n))))
def test_dot_sums_four_lanes_in_index_order(pair):
    a, b = pair
    expected = lane_dot(a, b)
    assert same_bits(_twins.TWINS.dot(a, b), expected)
    if _native.compiled() is not None:
        assert same_bits(_native.compiled().dot(a, b), expected)


@needs_library
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(weighted_graphs_and_vectors(), st.data())
def test_compiled_passes_match_their_numpy_twins_bitwise(case, data):
    # n from 2 to 9 covers n < 4 and every n % 4 tail
    g, p = case
    q = data.draw(st.lists(scaled, min_size=g.n, max_size=g.n).map(np.array))
    r, x = data.draw(vectors(g.n)), data.draw(vectors(g.n))
    a, b = data.draw(value), data.draw(value)
    fast, slow = _native.compiled(), _twins.TWINS
    results = []
    for kernels in (fast, slow):
        ap, rk, xk, pk = np.empty(g.n), r.copy(), x.copy(), p.copy()
        pap = kernels.product(g, q, p, ap)
        rr = kernels.residual(rk, ap, a)
        kernels.direction(xk, pk, rk, a, b)
        results.append((pap, ap, rr, rk, xk, pk))
    for got, want in zip(*results):
        assert same_bits(got, want)
    # the elementwise formulas are the plain loop's, and the dots lane_dot
    pap, ap, rr, rk, xk, pk = results[1]
    assert same_bits(ap, q * p + bincount_laplacian(g, p)) and same_bits(pap, lane_dot(p, ap))
    assert same_bits(rk, r - a * ap) and same_bits(rr, lane_dot(rk, rk))
    assert same_bits(xk, x + a * p) and same_bits(pk, rk + b * p)


def plain_loops(g, q, x, r, p, rs, threshold, steps):
    """(iterations, rs or p . Ap, x, r, p, ap) of the compiled `plain`, its
    twin and the twin's loop over the compiled single passes, each from
    copies of the same state, with ap NaN on entry."""
    compiled = _native.compiled()
    runs = []
    passes = compiled.product, compiled.residual, compiled.direction
    for loop in (compiled.plain, _twins.TWINS.plain,
                 functools.partial(_twins._plain_numpy, passes=passes)):
        state = [x.copy(), r.copy(), p.copy(), np.full(g.n, np.nan)]
        runs.append((*loop(g, q, *state, rs, threshold, steps), *state))
    return runs


def assert_same_runs(runs):
    for run in runs[1:]:
        assert run[0] == runs[0][0]
        for got, want in zip(run[1:], runs[0][1:]):
            assert same_bits(got, want)


@needs_library
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(weighted_graphs_and_vectors(), st.data())
def test_the_plain_cg_loop_matches_its_twin_and_the_single_passes(case, data):
    # n from 2 to 9 covers every n % 4 tail; x, r and p are any vectors, so
    # p . Ap may also be zero or not finite
    g, p = case
    q = data.draw(st.lists(scaled, min_size=g.n, max_size=g.n).map(np.array))
    r, x = data.draw(vectors(g.n)), data.draw(vectors(g.n))
    rs = _twins.TWINS.dot(r, r)
    # 1 meets the threshold on entry, 0 only where rs is 0
    scale = data.draw(st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(1e-9, 1.0)))
    threshold, steps = scale * math.sqrt(rs), data.draw(st.integers(0, 2 * g.n + 2))
    runs = plain_loops(g, q, x, r, p, rs, threshold, steps)
    assert_same_runs(runs)
    done, out = runs[0][:2]
    if done < 0:  # out is p . Ap
        assert out == 0.0 or not math.isfinite(out)
    else:
        assert done == steps or math.sqrt(out) <= threshold


def cg_start(n):
    """A path of n vertices, q and CG's first state (x, r, p, r . r) on it."""
    rng = np.random.default_rng(n)
    g = path_graph(n, weights=rng.uniform(0.5, 2.0, n - 1).tolist())
    q, r = rng.uniform(0.01, 0.1, n), rng.standard_normal(n)
    return g, q, np.zeros(n), r, r.copy(), _twins.TWINS.dot(r, r)


@needs_library
@pytest.mark.parametrize("n", [4, 5, 6, 7])  # each n % 4 tail
def test_the_plain_cg_loop_stops_at_steps_at_threshold_and_on_a_breakdown(n):
    g, q, x, r, p, rs = cg_start(n)
    # no step: nothing is written
    for threshold, steps in ((0.0, 0), (math.sqrt(rs), 5)):
        runs = plain_loops(g, q, x, r, p, rs, threshold, steps)
        assert_same_runs(runs)
        assert runs[0][:2] == (0, rs) and same_bits(runs[0][2], x)
        assert np.isnan(runs[0][5]).all()
    # a stop at steps, then one at the threshold, which the first iterations
    # do not meet
    runs = plain_loops(g, q, x, r, p, rs, 1e-3 * math.sqrt(rs), 2)
    assert_same_runs(runs)
    assert runs[0][0] == 2 and math.sqrt(runs[0][1]) > 1e-3 * math.sqrt(rs)
    runs = plain_loops(g, q, x, r, p, rs, 1e-3 * math.sqrt(rs), 10 * n)
    assert_same_runs(runs)
    assert 2 < runs[0][0] < 10 * n and math.sqrt(runs[0][1]) <= 1e-3 * math.sqrt(rs)
    # p . Ap zero or not finite: the loop stops before dividing, returns
    # p . Ap, with ap = A p and x, r and p as they came
    for bad in (np.zeros(n), p * 1e300):
        with np.errstate(over="ignore", invalid="ignore"):
            runs = plain_loops(g, q, x, r, bad, rs, 0.0, 5)
            pap = lane_dot(bad, runs[0][5])
        assert_same_runs(runs)
        assert runs[0][0] == -1 and same_bits(runs[0][1], pap)
        assert pap == 0.0 or not math.isfinite(pap)
        assert same_bits(runs[0][2], x) and same_bits(runs[0][4], bad)
        assert same_bits(runs[0][5], q * bad + bincount_laplacian(g, bad))


@needs_library
@pytest.mark.parametrize("rows,cols,q", [(19, 23, 0.01), (13, 31, "varying"), (1, 7, 0.5)])
def test_a_long_cg_solve_matches_the_numpy_twins_bitwise(rows, cols, q):
    g = gen_graph("grid", rows=rows, cols=cols)
    rng = np.random.default_rng(rows)
    if q == "varying":
        q = rng.uniform(1e-3, 2.0, g.n)
    problem = SmoothingProblem(g, rng.standard_normal(g.n), q)
    fast = with_kernels(_native.compiled(), solve_exact_cg, problem, 1e-12)
    slow = with_kernels(_twins.TWINS, solve_exact_cg, problem, 1e-12)
    assert fast[1] == slow[1] > 5
    assert same_bits(fast[0], slow[0])


def multigrid_passes(kernels, g, q, winv, b, x0, lab, ec):
    """x and rc of `restrict`, then x and out of `prolong` from x0, in one
    kernel set, each output array filled with NaN before the call."""
    x, rc, out = np.full(g.n, np.nan), np.full(len(ec), np.nan), np.full(g.n, np.nan)
    xp = x0.copy()
    kernels.restrict(g, q, winv, b, x, lab, rc)
    kernels.prolong(g, q, winv, b, xp, lab, ec, out)
    return x, rc, xp, out


def check_multigrid_passes(g, q, winv, b, x0, lab, ec):
    """The twins' passes are the stated formulas, with the Laplacian in its
    bincount form and the restriction a bincount in index order, and the
    compiled passes, where the library builds, have the same bits."""
    results = [multigrid_passes(_twins.TWINS, g, q, winv, b, x0, lab, ec)]
    x, rc, xp, out = results[0]
    assert same_bits(x, winv * b)
    assert same_bits(rc, np.bincount(lab, weights=b - (q * x + bincount_laplacian(g, x)),
                                     minlength=len(ec)))
    assert same_bits(xp, x0 + ec[lab])
    assert same_bits(out, xp + winv * (b - (q * xp + bincount_laplacian(g, xp))))
    if _native.compiled() is not None:
        results.append(multigrid_passes(_native.compiled(), g, q, winv, b, x0, lab, ec))
        for got, want in zip(*results):
            assert same_bits(got, want)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(weighted_graphs_and_vectors(), st.data())
def test_multigrid_passes_match_their_numpy_twins_bitwise(case, data):
    # n from 2 to 9 covers every n % 4 tail
    g, b = case
    positive = st.lists(scaled, min_size=g.n, max_size=g.n).map(np.array)
    q, winv, x0 = data.draw(positive), data.draw(positive), data.draw(vectors(g.n))
    nc = data.draw(st.integers(1, g.n))
    lab = np.array(data.draw(st.lists(st.integers(0, nc - 1), min_size=g.n, max_size=g.n)),
                   dtype=np.int64)
    check_multigrid_passes(g, q, winv, b, x0, lab, data.draw(vectors(nc)))


@pytest.mark.parametrize("make", [
    lambda: star_graph(40),  # one hub row of 40 arcs
    lambda: gen_graph("barabasi_albert", n=300, k=3, seed=2),
    lambda: random_connected_graph(60, extra_edges=300, rng=np.random.default_rng(8),
                                   weighted=True),
    lambda: path_graph(7),
    lambda: Graph.from_edges(1, []),
])
def test_multigrid_passes_on_uneven_degrees(make):
    g = make()
    rng = np.random.default_rng(g.n)
    nc = max(1, g.n // 5)
    b, x0 = rng.standard_normal((2, g.n)) * 10.0 ** rng.integers(-8, 9, (2, g.n))
    check_multigrid_passes(g, rng.uniform(1e-3, 2.0, g.n), rng.uniform(0.01, 1.0, g.n), b, x0,
                           rng.integers(0, nc, g.n), rng.standard_normal(nc))


def cholesky_loop(a):
    """The compiled factor as a plain loop over Python floats: column k is
    divided by the square root of its pivot, then l_i l_k' is taken off
    each a_ik' below the diagonal."""
    n, a = len(a), a.tolist()
    for k in range(n):
        a[k][k] = math.sqrt(a[k][k])
        for i in range(k + 1, n):
            a[i][k] /= a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, i + 1):
                a[i][j] -= a[i][k] * a[j][k]
        for j in range(k + 1, n):
            a[k][j] = 0.0
    return np.array(a)


def solve_loop(l, b):
    """The compiled forward and back substitution, by columns, as a loop."""
    n, l, b = len(b), l.tolist(), b.tolist()
    for k in range(n):
        b[k] /= l[k][k]
        for i in range(k + 1, n):
            b[i] -= l[i][k] * b[k]
    for k in reversed(range(n)):
        b[k] /= l[k][k]
        for i in range(k):
            b[i] -= l[k][i] * b[k]
    return np.array(b)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(weighted_graphs_and_vectors(), st.data())
def test_dense_cholesky_and_solve_match_their_numpy_twins_bitwise(case, data):
    # the coarsest level's Q + L: symmetric, positive definite, and
    # diagonally dominant, with weights over 60 binades
    g, v = case
    q = data.draw(st.lists(scaled, min_size=g.n, max_size=g.n).map(np.array))
    a = dense_system(SmoothingProblem(g, np.zeros(g.n), q))
    want = cholesky_loop(a)
    assert same_bits(want, np.tril(want))
    np.testing.assert_allclose(want @ want.T, a, rtol=1e-12, atol=1e-12 * np.abs(a).max())
    x = solve_loop(want, v)
    assert np.linalg.norm(a @ x - v) <= 1e-12 * (np.abs(a).max() * np.linalg.norm(x)
                                                 + np.linalg.norm(v))
    for kernels in (_twins.TWINS, _native.compiled()):
        if kernels is not None:
            factor, solved = a.copy(), v.copy()
            kernels.cholesky(factor)
            kernels.solve(factor, solved)
            assert same_bits(factor, want) and same_bits(solved, x)


def plain_cg(problem, monkeypatch):
    """solve_exact_cg with the multigrid switched off."""
    with monkeypatch.context() as m:
        m.setattr(linalg, "_MULTIGRID_BOUND", math.inf)
        return solve_exact_cg(problem)


def relative_residual(problem, x):
    b = problem.q * problem.y
    return np.linalg.norm(b - (problem.q * x + bincount_laplacian(problem.graph, x))) / \
        np.linalg.norm(b)


@pytest.mark.parametrize("make,q", [
    (lambda: gen_graph("grid", rows=100, cols=100), 0.001),  # three levels: the K-cycle
    (lambda: gen_graph("barabasi_albert", n=3000, k=3, seed=4), 0.001),
    (lambda: gen_graph("grid", rows=45, cols=41), "varying"),
], ids=["grid", "barabasi-albert", "varying-q"])
def test_a_preconditioned_solve_agrees_with_plain_cg(make, q, monkeypatch):
    g = make()
    rng = np.random.default_rng(g.n)
    if q == "varying":
        q = rng.uniform(1e-4, 1e-2, g.n)
    problem = SmoothingProblem(g, rng.standard_normal(g.n), q)
    x, iterations = solve_exact_cg(problem)
    assert problem.multigrid and problem.multigrid.sizes[0] == g.n
    assert problem.multigrid.sizes[-1] <= linalg._COARSEST
    x_plain, plain_iterations = plain_cg(SmoothingProblem(g, problem.y, q), monkeypatch)
    assert iterations < plain_iterations
    r, r_plain = relative_residual(problem, x), relative_residual(problem, x_plain)
    assert r <= 1e-10 * (1 + 1e-9) and r_plain <= 1e-10 * (1 + 1e-9)
    # both residuals are at most 1e-10 ||Qy||, and (Q + L)^{-1} has norm at
    # most 1 / q_min, so the two solutions differ by at most that much
    bnorm = np.linalg.norm(problem.q * problem.y)
    assert np.linalg.norm(x - x_plain) <= (r + r_plain) * bnorm / problem.q.min()
    assert np.linalg.norm(x - x_plain) <= 1e-6 * np.linalg.norm(x_plain)


@pytest.mark.parametrize("make,q", [
    (lambda: gen_graph("grid", rows=60, cols=60), 0.001),  # takes the multigrid
    (lambda: gen_graph("barabasi_albert", n=3000, k=3, seed=4), 1.0),
], ids=["grid", "barabasi-albert"])
def test_cg_on_a_signal_scaled_by_a_power_of_two_scales_its_solution_exactly(make, q):
    # at 2^-700 the norm of Qy underflowed to 0, which returned zeros, and
    # at 2^900 it overflowed, which refused the signal
    g = make()
    y = np.random.default_rng(g.n).standard_normal(g.n)
    x, iterations = solve_exact_cg(SmoothingProblem(g, y, q))
    for e in (-700, -300, 300, 900):
        x_e, iterations_e = solve_exact_cg(SmoothingProblem(g, np.ldexp(y, e), q))
        assert iterations_e == iterations
        assert np.ldexp(x, e).tobytes() == x_e.tobytes()


def aggregation(lvl, nc):
    """The indicator matrix P of a level's aggregates, sparse."""
    n = lvl.graph.n
    return sparse.csr_matrix((np.ones(n), (np.arange(n), lvl.lab)), shape=(n, nc))


def test_coarse_levels_are_the_galerkin_products_of_forest_aggregates():
    # the 100 x 100 grid's levels, [10000, 799, 77], do not depend on q
    # (each forest is drawn at a rate set by the mean degree), so a varying
    # q keeps two stored levels; Pt (Q + L) P is formed sparse, since the
    # finest level is too large for a dense product
    g = gen_graph("grid", rows=100, cols=100)
    q = np.random.default_rng(3).uniform(1e-3, 1e-1, g.n)
    mg = linalg._Multigrid.build(g, q)
    assert len(mg.levels) >= 2
    assert mg.sizes[0] == g.n and mg.sizes[-1] <= linalg._COARSEST < mg.sizes[-2]
    for lvl, nxt in zip(mg.levels, mg.levels[1:]):
        P = aggregation(lvl, nxt.graph.n)
        fine = sparse.diags(lvl.q) + csgraph.laplacian(adjacency(lvl.graph))
        np.testing.assert_allclose((P.T @ fine @ P).toarray(), dense_system(nxt),
                                   rtol=1e-12, atol=1e-12)
    # the coarsest factor is that of the last Galerkin product
    last = mg.levels[-1]
    P = aggregation(last, mg.sizes[-1]).toarray()
    galerkin = P.T @ dense_system(last) @ P
    np.testing.assert_allclose(mg.factor @ mg.factor.T, galerkin, rtol=1e-10,
                               atol=1e-12 * np.abs(galerkin).max())


def quotient_twin(g, q, lab, nc):
    """`linalg._quotient` through `Graph.from_edges`: the coarse level's
    edge keys and summed weights as (u, v, w) rows, and its q."""
    rows, cols = lab[g._arc_rows], lab[g.indices]
    cross = rows < cols
    keys, edge_of = np.unique(rows[cross] * nc + cols[cross], return_inverse=True)
    w = np.bincount(edge_of, weights=g.weights[cross], minlength=len(keys))
    return (Graph.from_edges(nc, np.column_stack([keys // nc, keys % nc, w])),
            np.bincount(lab, weights=q, minlength=nc))


@pytest.mark.parametrize("make,q", [
    (lambda: gen_graph("grid", rows=100, cols=100), 0.001),  # levels [10000, 799, 77]
    (lambda: gen_graph("regular", n=20000, d=10, seed=3), 0.001),  # [20000, 1085, 258]
    (lambda: gen_graph("barabasi_albert", n=5000, k=3, seed=2), 0.1),  # [5000, 379, 106]
    (lambda: gen_graph("grid", rows=100, cols=100), None),  # q varies by vertex
], ids=["grid", "regular", "ba", "grid-varying-q"])
def test_coarse_levels_are_their_from_edges_twins(make, q, monkeypatch):
    # each level labels its aggregates by the rank of their roots, as
    # np.unique's inverse does, and each coarse level written straight into
    # CSR equals its from_edges twin, array for array
    g = make()
    q = np.random.default_rng(5).uniform(1e-3, 1e-1, g.n) if q is None else np.full(g.n, q)
    forests = []

    def recorded(*args):
        forests.append(sample_forest(*args))
        return forests[-1]

    monkeypatch.setattr(linalg, "sample_forest", recorded)
    mg = linalg._Multigrid.build(g, q)
    assert len(mg.levels) >= 2 and len(forests) == len(mg.levels)
    for i, (lvl, forest) in enumerate(zip(mg.levels, forests)):
        labels = np.unique(forest.root_of, return_inverse=True)[1]
        assert lvl.lab.dtype == labels.dtype and np.array_equal(lvl.lab, labels)
        coarse, qc = linalg._quotient(lvl.graph, lvl.q, lvl.lab, mg.sizes[i + 1])
        twin, qc_twin = quotient_twin(lvl.graph, lvl.q, lvl.lab, mg.sizes[i + 1])
        assert_same_graph(coarse, twin)
        assert qc.tobytes() == qc_twin.tobytes()
        if i + 1 < len(mg.levels):
            assert_same_graph(mg.levels[i + 1].graph, twin)
    # one aggregate: a graph of one vertex and no edge
    coarse, qc = linalg._quotient(g, q, np.zeros(g.n, dtype=np.int64), 1)
    assert_same_graph(coarse, Graph.from_edges(1, []))
    assert qc.tobytes() == np.bincount(np.zeros(g.n, dtype=np.int64), weights=q).tobytes()


def test_the_v_cycle_is_symmetric_and_positive_definite():
    # the V-cycle from the second level down preconditions the K-cycle's
    # CG steps on three levels (100 x 100: [10000, 799, 77]); from the
    # finest, it is the whole cycle of a two-level hierarchy (30 x 30:
    # [900, 74])
    rng = np.random.default_rng(9)
    for side, level, depth in ((100, 1, 3), (30, 0, 2)):
        g = gen_graph("grid", rows=side, cols=side)
        mg = linalg._Multigrid.build(g, np.full(g.n, 0.001))
        assert len(mg.sizes) == depth
        n = mg.sizes[level]
        u, v, mu, mv = rng.standard_normal(n), rng.standard_normal(n), np.empty(n), np.empty(n)
        mg.cycle(u, mu, level)
        mg.cycle(v, mv, level)
        assert abs(mu @ v - u @ mv) <= 1e-12 * np.linalg.norm(mu) * np.linalg.norm(v)
        assert mu @ u > 0 and mv @ v > 0


def test_the_k_cycle_projects_onto_its_two_directions():
    g = gen_graph("grid", rows=100, cols=100)  # levels [10000, 799, 77]
    mg = linalg._Multigrid.build(g, np.full(g.n, 0.001))
    coarse = mg.levels[1]
    A, n = dense_system(coarse), coarse.graph.n
    for seed in range(3):
        r = np.random.default_rng(seed).standard_normal(n)
        c1, e = np.empty(n), np.empty(n)
        mg.cycle(r, c1, 1)  # the K-cycle's first direction
        mg.k_cycle(r, e)
        # one step along c1 leaves more than a quarter of r: the second was taken
        assert np.linalg.norm(r - (c1 @ r) / (c1 @ A @ c1) * (A @ c1)) > np.linalg.norm(r) / 4
        # e is no multiple of c1, so the two span both directions, and the
        # error A^{-1} r - e is A-orthogonal to each
        assert np.linalg.norm(e - (e @ c1) / (c1 @ c1) * c1) > 1e-3 * np.linalg.norm(e)
        for c in (c1, e):
            assert abs(c @ (r - A @ e)) <= 1e-12 * np.linalg.norm(c) * np.linalg.norm(r)
    mg.k_cycle(np.zeros(n), e)
    assert not e.any()


def test_concurrent_solves_keep_their_bits():
    # the four solves share the hierarchy cached on the graph for this q,
    # three levels with the K-cycle's vectors
    g = gen_graph("grid", rows=100, cols=100)
    signals = np.random.default_rng(12).standard_normal((4, g.n))

    def solve(y):
        x, iterations = solve_exact_cg(SmoothingProblem(g, y, 0.001))
        return x.tobytes(), iterations

    serial = [solve(y) for y in signals]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more switches inside each cycle
    try:
        with ThreadPoolExecutor(4) as pool:
            assert list(pool.map(solve, signals, timeout=60)) == serial
    finally:
        sys.setswitchinterval(interval)


def test_solves_that_start_together_build_one_hierarchy(monkeypatch):
    builds = []
    build = linalg._Multigrid.build.__func__

    def counted(cls, graph, q):
        builds.append(graph)
        time.sleep(0.05)  # the other threads reach the look-up meanwhile
        return build(cls, graph, q)

    monkeypatch.setattr(linalg._Multigrid, "build", classmethod(counted))
    g = gen_graph("grid", rows=60, cols=60)
    signals = np.random.default_rng(13).standard_normal((4, g.n))
    start = threading.Barrier(4, timeout=60)

    def solve(y):
        start.wait()
        return solve_exact_cg(SmoothingProblem(g, y, 0.001))[1]

    with ThreadPoolExecutor(4) as pool:
        assert all(its > 0 for its in pool.map(solve, signals, timeout=60))
    assert builds == [g]


# x's sha256 and the iteration count, the same as before CG had a
# preconditioner: the bound 1 + 2 d_max / q_min is 801 on the grid, at or
# below _MULTIGRID_BOUND, and the expander converges in 30 iterations
@pytest.mark.parametrize("gen,params,q,digest,iterations", [
    ("grid", dict(rows=30, cols=30), 0.01,
     "d011828c2cb6f5f6b1bdfd053c18d991964490068d00a73269672cc3d2803973", 138),
    ("regular", dict(n=2000, d=10), 0.001,
     "52055d645a3c0b8037114e21998d009220c75d65fbadebd3bbd4bb68baa34cb1", 30),
], ids=["small-bound", "converges-first"])
def test_the_plain_path_keeps_its_bits(gen, params, q, digest, iterations, monkeypatch):
    def no_build(problem):
        raise AssertionError("the multigrid was built")

    monkeypatch.setattr(linalg._Multigrid, "build", no_build)
    g = gen_graph(gen, seed=5, **params)
    problem = SmoothingProblem(g, synthetic_signal(g, "gaussian", seed=5), q)
    x, its = solve_exact_cg(problem)
    assert (hashlib.sha256(x.tobytes()).hexdigest(), its) == (digest, iterations)
    assert problem.multigrid is None


def test_a_forest_keeping_most_vertices_leaves_cg_plain(monkeypatch):
    # one edge of weight 1e6 on a 400-vertex path: the forest's rate, 0.05
    # times the mean degree (about 250), makes most vertices roots
    g = path_graph(400, weights=[1.0] * 199 + [1e6] + [1.0] * 199)
    y = np.random.default_rng(1).standard_normal(g.n)
    problem = SmoothingProblem(g, y, 0.01)
    x, iterations = solve_exact_cg(problem)
    assert problem.multigrid is False and iterations > linalg._PLAIN_ITERATIONS
    x_plain, plain_iterations = plain_cg(SmoothingProblem(g, y, 0.01), monkeypatch)
    assert same_bits(x, x_plain) and iterations == plain_iterations


def test_a_stall_before_the_hierarchy_does_not_end_cg():
    # weights over 60 binades on 10 vertices: plain CG's true residual
    # stays just above tol through 47 failed acceptances in a row with no
    # new low, until CG takes the hierarchy after _PLAIN_ITERATIONS and
    # converges in the next iteration
    rng = np.random.default_rng(1531)
    n = int(rng.integers(10, 40))
    tree = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    extra = rng.integers(0, n, (2 * n, 2)).tolist()
    pairs = sorted({(min(a, b), max(a, b)) for a, b in [*tree, *extra] if a != b})
    w = rng.uniform(1, 2, len(pairs)) * 2.0 ** rng.integers(-30, 31, len(pairs))
    g = Graph.from_edges(n, [(a, b, x) for (a, b), x in zip(pairs, w)])
    y = rng.uniform(1, 2, n) * 2.0 ** rng.integers(-30, 31, n) * rng.choice([-1.0, 1.0], n)
    problem = SmoothingProblem(g, y, float(rng.uniform(1e-3, 1e3)))
    x, iterations = solve_exact_cg(problem)
    assert problem.multigrid and iterations == linalg._PLAIN_ITERATIONS + 1
    assert relative_residual(problem, x) <= 1e-10 * (1 + 1e-9)


def test_a_coarse_level_that_barely_coarsens_becomes_one_aggregate(monkeypatch):
    # a 5,000-vertex Barabasi-Albert graph (k = 3, seed 11) with 2,000
    # pendant vertices on its hub by edges of weight 0.1. Most pendants are
    # roots of the finest forest, so the second level (1,629 vertices)
    # hangs them on the hub's aggregate, light next to its mean degree, and
    # its forest keeps more than half of its vertices as roots
    ba = gen_graph("barabasi_albert", n=5000, k=3, seed=11)
    hub = int(np.argmax(ba.degrees))
    g = Graph.from_edges(7000, [*ba.edges(), *((hub, v, 0.1) for v in range(5000, 7000))])
    y = synthetic_signal(g, "gaussian", seed=11)
    problem = SmoothingProblem(g, y, 0.001)
    x, iterations = solve_exact_cg(problem)
    assert problem.multigrid.sizes[0] == g.n and problem.multigrid.sizes[-1] == 1
    assert iterations <= 40
    x_plain, plain_iterations = plain_cg(SmoothingProblem(g, y, 0.001), monkeypatch)
    assert iterations < plain_iterations
    r, r_plain = relative_residual(problem, x), relative_residual(problem, x_plain)
    assert r <= 1e-10 * (1 + 1e-9) and r_plain <= 1e-10 * (1 + 1e-9)
    bnorm = np.linalg.norm(problem.q * problem.y)
    assert np.linalg.norm(x - x_plain) <= (r + r_plain) * bnorm / problem.q.min()
    assert np.linalg.norm(x - x_plain) <= 1e-6 * np.linalg.norm(x_plain)


@pytest.mark.parametrize("shape", [(2,), (4,), (3, 1)])
def test_apply_refuses_a_vector_of_another_length(p3, shape):
    with pytest.raises(DataError, match="does not match n=3"):
        LaplacianOperator(p3).apply(np.zeros(shape))


class TestSignalBlocks:
    def test_a_block_whose_columns_pass_one_by_one_is_accepted(self, p3):
        # each column's range is 0, though the block's spans 2e308: q times
        # the range is checked within each column, where the estimators form it
        block = np.array([[1e308, -1e308]] * 3)
        for col in block.T:
            SmoothingProblem(p3, col, 4.0)
        problem = SmoothingProblem(p3, block, 4.0)
        assert problem.y.shape == (3, 2) and problem.y.flags.f_contiguous
        assert np.array_equal(problem.y, block)

    @pytest.mark.parametrize("y,message", [
        (np.zeros((4, 2)), r"signal length \(4, 2\) does not match n=3"),
        (np.zeros((3, 0)), r"signal length \(3, 0\) does not match n=3"),
        (np.zeros((3, 2, 1)), r"signal length \(3, 2, 1\) does not match n=3"),
        (np.array([[0.0, 1.0], [np.nan, 1.0], [0.0, 1.0]]), "signal values must be finite"),
        (np.array([[0.0, 1e308], [0.0, -1e308], [0.0, 0.0]]),
         r"q times the signal's range overflows \(max q 4, range inf\)"),
    ])
    def test_each_refusal_keeps_its_message(self, p3, y, message):
        with pytest.raises((DataError, NumericalError), match=message):
            SmoothingProblem(p3, y, 4.0)
        if y.ndim == 2 and y.shape[0] == 3 and y.size:  # the failing column alone
            bad = next(c for c in y.T if not np.abs(c).max() < 1e300)
            with pytest.raises((DataError, NumericalError), match=message):
                SmoothingProblem(p3, bad, 4.0)

    def test_apply_K_inverse_of_a_block_is_that_of_each_column(self):
        g = random_connected_graph(11, extra_edges=12, rng=np.random.default_rng(2),
                                   weighted=True)
        rng = np.random.default_rng(3)
        q = rng.uniform(0.1, 3.0, g.n)
        block = rng.standard_normal((g.n, 3)) * 10.0 ** rng.integers(-6, 7, (g.n, 3))
        problem = SmoothingProblem(g, block, q)
        for chosen in kernel_sets():
            with using_kernels(chosen):
                out = apply_K_inverse(problem, problem.y)
                assert out.shape == (g.n, 3) and out.flags.f_contiguous
                for c in range(3):
                    col = apply_K_inverse(SmoothingProblem(g, block[:, c], q), block[:, c])
                    assert out[:, c].tobytes() == col.tobytes()
        with pytest.raises(DataError, match=f"vector of shape \\(12, 3\\) does not match n={g.n}"):
            apply_K_inverse(problem, np.zeros((12, 3)))


    # CG solves one signal; the classes of ssl_exact go column by column
    @pytest.mark.parametrize("k", [2, 4])
    def test_cg_refuses_a_block_in_one_line(self, k):
        g = gen_graph("grid", rows=2, cols=2)
        problem = SmoothingProblem(g, np.arange(4.0 * k).reshape(4, k), 1.0)
        with pytest.raises(DataError) as err:
            solve_exact_cg(problem)
        assert str(err.value) == f"CG solves one signal at a time, not a block of shape (4, {k})"

class TestApplyKInverse:
    def test_p3_worked_case(self, p3):
        problem = SmoothingProblem(p3, np.array([8.0, 0.0, 0.0]), 1.0)
        v = np.array([8.0, 0.0, 0.0])
        out = apply_K_inverse(problem, v)
        np.testing.assert_array_equal(out, [16.0, -8.0, 0.0])
        # oracle: dense (qI + L)/q applied to v
        np.testing.assert_allclose(out, dense_system(problem) @ v / 1.0, rtol=1e-14)

    def test_constant_is_fixed_point(self):
        g = random_connected_graph(30, extra_edges=20, rng=np.random.default_rng(6))
        problem = SmoothingProblem(g, np.zeros(g.n), 0.7)
        ones = np.ones(g.n)
        assert np.array_equal(apply_K_inverse(problem, ones), ones)

    def test_zero_maps_to_zero(self, p3):
        problem = SmoothingProblem(p3, np.zeros(3), 2.0)
        assert np.array_equal(apply_K_inverse(problem, np.zeros(3)), np.zeros(3))


class TestSolvers:
    def test_cg_p3_worked_case(self, p3):
        y = np.array([8.0, 0.0, 0.0])
        problem = SmoothingProblem(p3, y, 1.0)
        # hand-checked inverse of (I + L) on the path of three vertices
        inv = np.array([[5, 2, 1], [2, 4, 2], [1, 2, 5]]) / 8.0
        np.testing.assert_allclose(np.linalg.inv(dense_system(problem)), inv, rtol=1e-12)
        x, iterations = solve_exact_cg(problem)
        np.testing.assert_allclose(x, [5.0, 2.0, 1.0], rtol=1e-10)
        assert 0 < iterations <= 30
        np.testing.assert_allclose(solve_exact_dense(problem), [5.0, 2.0, 1.0], rtol=1e-12)

    def test_constant_signal_is_fixed(self):
        g = random_connected_graph(25, extra_edges=30, rng=np.random.default_rng(7))
        y = np.full(g.n, 4.25)
        x, _ = solve_exact_cg(SmoothingProblem(g, y, 0.3))
        np.testing.assert_allclose(x, y, rtol=1e-9)

    def test_huge_q_returns_signal(self):
        g = random_connected_graph(25, extra_edges=30, rng=np.random.default_rng(8))
        y = np.random.default_rng(2).standard_normal(g.n)
        x, _ = solve_exact_cg(SmoothingProblem(g, y, 1e6))
        assert np.linalg.norm(x - y) / np.linalg.norm(y) < 1e-5

    def test_cg_matches_dense_across_graphs(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            g = random_connected_graph(int(rng.integers(10, 200)),
                                       extra_edges=int(rng.integers(0, 200)),
                                       rng=rng, weighted=True)
            y = rng.standard_normal(g.n)
            for q in (0.1, 1.0, 10.0):
                problem = SmoothingProblem(g, y, q)
                x_cg, _ = solve_exact_cg(problem)
                x_dense = solve_exact_dense(problem)
                err = np.linalg.norm(x_cg - x_dense) / np.linalg.norm(x_dense)
                assert err < 1e-8

    def test_cg_nonconvergence_reports_residual(self, p3):
        problem = SmoothingProblem(p3, np.array([8.0, 0.0, 0.0]), 1.0)
        with pytest.raises(NumericalError, match="residual"):
            solve_exact_cg(problem, tol=1e-10, max_iter=1)

    def test_cg_zero_rhs(self, p3):
        problem = SmoothingProblem(p3, np.zeros(3), 1.0)
        x, iterations = solve_exact_cg(problem)
        assert np.array_equal(x, np.zeros(3)) and iterations == 0

    def test_single_vertex_identity(self):
        g = Graph.from_edges(1, [])
        problem = SmoothingProblem(g, np.array([3.5]), 2.0)
        np.testing.assert_array_equal(solve_exact_dense(problem), [3.5])

    def test_dense_size_limit(self):
        g = path_graph(2001)
        problem = SmoothingProblem(g, np.zeros(g.n), 1.0)
        with pytest.raises(DataError, match="2000"):
            solve_exact_dense(problem)

    def test_kinv_inverts_solve(self):
        g = random_connected_graph(40, extra_edges=60,
                                   rng=np.random.default_rng(12), weighted=True)
        y = np.random.default_rng(3).standard_normal(g.n)
        problem = SmoothingProblem(g, y, 0.8)
        x = solve_exact_dense(problem)
        np.testing.assert_allclose(apply_K_inverse(problem, x), y, rtol=1e-9, atol=1e-12)

    def test_quadratic_form_positive_definite(self):
        g = random_connected_graph(30, extra_edges=40,
                                   rng=np.random.default_rng(13), weighted=True)
        q = np.random.default_rng(4).uniform(0.2, 3.0, g.n)
        problem = SmoothingProblem(g, np.zeros(g.n), q)
        A = dense_system(problem)
        rng = np.random.default_rng(5)
        for _ in range(10):
            v = rng.standard_normal(g.n)
            assert v @ A @ v >= q.min() * (v @ v) * (1 - 1e-12)


class TestContraction:
    def test_p3_examples(self, p3):
        problem = SmoothingProblem(p3, np.zeros(3), 1.0)
        # Laplacian eigenvalues of the 3-path are 0, 1, 3
        assert contraction_check(problem, 0.4).passed
        assert contraction_check(problem, 0.4).spectral_radius == pytest.approx(0.6)
        report = contraction_check(problem, 1.1)
        assert not report.passed
        assert report.spectral_radius == pytest.approx(3.4)

    def test_alpha_zero_radius_one(self, p3):
        problem = SmoothingProblem(p3, np.zeros(3), 1.0)
        assert contraction_check(problem, 0.0).spectral_radius == 1.0

    def test_safe_alpha_contracts_everywhere(self):
        rng = np.random.default_rng(14)
        for trial in range(6):
            g = random_connected_graph(int(rng.integers(5, 120)),
                                       extra_edges=int(rng.integers(0, 100)),
                                       rng=rng, weighted=True)
            for q in (0.1, 1.0, 10.0):
                problem = SmoothingProblem(g, np.zeros(g.n), q)
                alpha = 2.0 * q / (q + 2.0 * g.d_max)
                assert contraction_check(problem, alpha).passed


class TestSSLParameterization:
    def test_K_equals_absorption_form(self):
        # (D + (2/mu) L)^{-1} D must equal (Q + L)^{-1} Q with q = (mu/2) d
        rng = np.random.default_rng(15)
        for mu in (0.5, 1.0, 2.7):
            g = random_connected_graph(25, extra_edges=30, rng=rng, weighted=True)
            W = adjacency(g).toarray()
            D = np.diag(g.degrees)
            L = D - W
            K_direct = np.linalg.solve(D + (2.0 / mu) * L, D)
            Q = np.diag((mu / 2.0) * g.degrees)
            K_absorption = np.linalg.solve(Q + L, Q)
            np.testing.assert_allclose(K_direct, K_absorption, rtol=1e-10, atol=1e-12)


class TestProblemValidation:
    def test_signal_length(self, p3):
        with pytest.raises(DataError, match="length"):
            SmoothingProblem(p3, np.zeros(4), 1.0)

    def test_positive_q(self, p3):
        with pytest.raises(DataError, match="positive"):
            SmoothingProblem(p3, np.zeros(3), 0.0)
        with pytest.raises(DataError, match="positive"):
            SmoothingProblem(p3, np.zeros(3), np.array([1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1)], ids=["n-1", "n+1", "column"])
    def test_a_wrong_shaped_q_is_refused_naming_n(self, p3, shape):
        # one check serves the problem and the sampler
        for make in (lambda q: SmoothingProblem(p3, np.zeros(3), q),
                     lambda q: sample_forest(p3, q, forest_rng(0, 0))):
            with pytest.raises(DataError, match=r"absorption weights .*\(n=3\)"):
                make(np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_signal(self, p3, bad):
        with pytest.raises(DataError, match="finite"):
            SmoothingProblem(p3, np.array([0.0, bad, 1.0]), 1.0)

    def test_bad_tolerance(self, p3):
        with pytest.raises(DataError, match="tol"):
            solve_exact_cg(SmoothingProblem(p3, np.zeros(3), 1.0), tol=0.0)
