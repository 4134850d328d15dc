import numpy as np
import pytest
from scipy import stats

from rsfsmooth import (DataError, Graph, LaplacianOperator, NumericalError, RootedForest,
                       enumerate_forests, forest_rng, sample_forest)
from rsfsmooth import oracle
from rsfsmooth.forests import _tree_averages, walk_steps_floor
from rsfsmooth.linalg import SmoothingProblem, _dot, apply_K_inverse
from rsfsmooth.oracle import (ZERO_VARIANCE_TOL, exact_estimator_moments, forest_edge_key,
                              forest_roots, forest_trees, in_enumeration_reach)

from conftest import (adjacency, complete_graph, cycle_graph, enumeration_corpus,
                      path_graph, random_connected_graph)


class TestEnumeration:
    def test_p3_families_hand_checked(self, p3):
        dist = enumerate_forests(p3, np.ones(3))
        assert dist.normalizer == pytest.approx(8.0)  # det(I + L)
        weights = {f.edges: f.weight for f in dist.families}
        assert weights == {
            (): pytest.approx(1.0),
            ((0, 1),): pytest.approx(2.0),
            ((1, 2),): pytest.approx(2.0),
            ((0, 1), (1, 2)): pytest.approx(3.0),
        }

    def test_k2_hand_checked(self, k2):
        dist = enumerate_forests(k2, np.ones(2))
        # one rooted forest of two singletons, plus the tree rooted at
        # either endpoint: 1 + 2 = 3 = det([[2,-1],[-1,2]])
        assert dist.normalizer == pytest.approx(3.0)
        weights = {f.edges: f.weight for f in dist.families}
        assert weights[()] == pytest.approx(1.0)
        assert weights[((0, 1),)] == pytest.approx(2.0)

    def test_triangle_determinant(self, triangle):
        dist = enumerate_forests(triangle, np.ones(3))
        assert dist.normalizer == pytest.approx(16.0)

    def test_matrix_forest_identity_corpus(self):
        rng = np.random.default_rng(33)
        for name, g in enumeration_corpus():
            q = rng.uniform(0.3, 2.5, g.n)
            dist = enumerate_forests(g, q)
            A = np.diag(q + g.degrees) - adjacency(g).toarray()
            det = np.linalg.det(A)
            assert dist.normalizer == pytest.approx(det, rel=1e-9), name

    def test_pruned_search_lists_the_acyclic_subsets_in_mask_order(self):
        # the depth-first search against the filter over all 2^m masks that
        # enumerate_forests ran before: the same masks in the same order
        dense = random_connected_graph(9, extra_edges=6, rng=np.random.default_rng(4))
        for name, g in enumeration_corpus() + [("K6", complete_graph(6)), ("n9m14", dense)]:
            edges = list(g.edges())

            def acyclic(mask):
                comp = list(range(g.n))
                for i, (u, v, _) in enumerate(edges):
                    if mask >> i & 1:
                        if comp[u] == comp[v]:
                            return False
                        comp = [comp[u] if c == comp[v] else c for c in comp]
                return True

            expected = [mask for mask in range(1 << g.m) if acyclic(mask)]
            assert [leaf[0] for leaf in oracle._forest_search(g.n, edges)] == expected, name

    def test_probabilities_sum_to_one(self, triangle):
        dist = enumerate_forests(triangle, np.array([0.5, 1.0, 2.0]))
        assert sum(dist.probabilities().values()) == pytest.approx(1.0, abs=1e-12)

    def test_vertex_cap(self):
        g = path_graph(10)
        with pytest.raises(DataError, match="n <= 9"):
            enumerate_forests(g, np.ones(10))

    def test_edge_cap(self):
        g = complete_graph(8)  # 28 edges
        with pytest.raises(DataError, match="m <= 24"):
            enumerate_forests(g, np.ones(8))

    def test_reach(self):
        assert in_enumeration_reach(path_graph(9))
        assert in_enumeration_reach(complete_graph(7))  # 21 edges
        assert not in_enumeration_reach(path_graph(10))
        assert not in_enumeration_reach(complete_graph(9))  # n = 9 but 36 edges

    @pytest.mark.parametrize("q", [np.inf, np.nan, 0.0, [1.0, 1.0, np.inf, 1.0]])
    def test_q_refused_as_by_smoothing_problem(self, q):
        g = Graph.from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
        with pytest.raises(DataError, match="finite and strictly positive"):
            enumerate_forests(g, q)


def reference_forests(g, q):
    """The enumeration as a per-leaf computation: the acyclic masks by a
    search from the highest edge down, then for each mask a fresh
    index-order union-find, a weight product and an edge scan over all m
    bits. Returns ([(edges, components, weight)], normalizer)."""
    n, m, edge_list = g.n, g.m, list(g.edges())
    qvec = np.broadcast_to(np.asarray(q, dtype=np.float64), (n,)).copy()
    masks = []

    def grow(idx, mask, comp):
        if idx < 0:
            masks.append(mask)
            return
        grow(idx - 1, mask, comp)
        a, b = comp[edge_list[idx][0]], comp[edge_list[idx][1]]
        if a != b:
            grow(idx - 1, mask | 1 << idx, [a if c == b else c for c in comp])

    grow(m - 1, 0, list(range(n)))
    families, total = [], 0.0
    for mask in masks:
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        wprod = 1.0
        for idx in range(m):
            if mask >> idx & 1:
                u, v, w = edge_list[idx]
                ru, rv = find(u), find(v)
                parent[ru] = rv
                wprod *= w
        comps = np.array([find(v) for v in range(n)], dtype=np.int64)
        qsums = np.bincount(comps, weights=qvec, minlength=n)
        reps = np.flatnonzero(np.bincount(comps, minlength=n))
        weight = wprod * float(np.prod(qsums[reps]))
        edges = tuple((edge_list[i][0], edge_list[i][1]) for i in range(m) if mask >> i & 1)
        families.append((edges, comps, weight))
        total += weight
    return families, total


def reference_moments(g, q, y, families, total):
    """The exact moments as a loop over families, one tree average, one
    K^{-1} apply and the package's fixed-lane dots each; returns the
    ExactMoments fields in order."""
    problem = SmoothingProblem(g, y, q)
    e_x, e_y = np.zeros(g.n), np.zeros(g.n)
    e_xx = e_yy = e_xy = 0.0
    for _, comps, weight in families:
        p = weight / total
        xbar = _tree_averages(comps, problem.q, problem.y)
        ybar = apply_K_inverse(problem, xbar)
        e_x += p * xbar
        e_y += p * ybar
        e_xx += p * _dot(xbar, xbar)
        e_yy += p * _dot(ybar, ybar)
        e_xy += p * _dot(xbar, ybar)
    tr_var_x = e_xx - _dot(e_x, e_x)
    tr_var_y = e_yy - _dot(e_y, e_y)
    tr_cov = e_xy - _dot(e_x, e_y)
    alpha_star = tr_cov / tr_var_y if tr_var_y > ZERO_VARIANCE_TOL * g.n else None
    return e_x, e_y, tr_var_x, tr_var_y, tr_cov, alpha_star


def same_bits(a, b):
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def pinning_cases():
    """(name, graph, q): the corpus and K6, each with a scalar, a
    uniform-array and a node-varying q, and a weighted 9-vertex, 20-edge
    graph (about 96,000 families) with a node-varying q."""
    rng = np.random.default_rng(12)
    cases = []
    for name, g in enumeration_corpus() + [("K6", complete_graph(6))]:
        level = float(rng.uniform(0.3, 2.5))
        for kind, q in (("scalar", level), ("uniform", np.full(g.n, level)),
                        ("varying", rng.uniform(0.3, 2.5, g.n))):
            cases.append((f"{name}-{kind}", g, q))
    g9 = random_connected_graph(9, extra_edges=12, rng=np.random.default_rng(20), weighted=True)
    assert (g9.n, g9.m) == (9, 20)
    return cases + [("n9m20-varying", g9, rng.uniform(0.3, 2.5, g9.n))]


class TestOnePassOracle:
    """The one-pass search and the block moments against the per-leaf and
    per-family computations they replace: the same bits throughout."""

    def test_families_moments_and_normalizer_match_the_per_leaf_reference(self):
        rng = np.random.default_rng(5)
        reference = {}
        for name, g, q in pinning_cases():
            key = (id(g), np.broadcast_to(q, (g.n,)).tobytes())  # scalar = uniform array
            if key not in reference:
                reference[key] = reference_forests(g, q)
            families, total = reference[key]
            dist = enumerate_forests(g, q)
            assert same_bits(dist.normalizer, total), name
            edges, comps, weights = zip(*families)
            assert [fam.edges for fam in dist.families] == list(edges), name
            assert same_bits(np.array([fam.components for fam in dist.families]),
                             np.array(comps)), name
            assert all(type(fam.weight) is float for fam in dist.families), name
            assert same_bits([fam.weight for fam in dist.families], weights), name
            y = rng.standard_normal(g.n)
            exact = exact_estimator_moments(g, q, y)
            fields = (exact.e_xbar, exact.e_ybar, exact.tr_var_xbar, exact.tr_var_ybar,
                      exact.tr_cov_xy, exact.alpha_star)
            for got, want in zip(fields, reference_moments(g, q, y, families, total)):
                assert same_bits(got, want), name


def family_chisquare(g, q, n_draws, seed):
    """Chi-square p-value of sampled forest families vs the enumeration."""
    expected = enumerate_forests(g, q).probabilities()
    counts = {key: 0 for key in expected}
    for i in range(n_draws):
        forest = sample_forest(g, q, forest_rng(seed, i))
        counts[forest_edge_key(forest)] += 1
    keys = sorted(expected)
    f_obs = np.array([counts[k] for k in keys])
    f_exp = n_draws * np.array([expected[k] for k in keys])
    return stats.chisquare(f_obs, f_exp).pvalue


class TestSamplerLaw:
    def test_p3_uniform_q(self, p3):
        assert family_chisquare(p3, np.ones(3), 20000, seed=100) > 0.001

    def test_triangle_uniform_q(self, triangle):
        assert family_chisquare(triangle, np.ones(3), 20000, seed=101) > 0.001

    def test_p3_node_dependent_q(self, p3):
        assert family_chisquare(p3, np.array([0.5, 1.0, 2.0]), 20000, seed=102) > 0.001

    def test_weighted_cycle(self):
        g = Graph.from_edges(4, [(0, 1, 2.0), (1, 2, 0.5), (2, 3, 1.5), (0, 3, 1.0)])
        assert family_chisquare(g, np.full(4, 0.8), 20000, seed=103) > 0.001

    def test_root_marginal_within_tree(self, k2):
        # conditioned on the two vertices forming one tree, the root must
        # land on vertex 1 with probability q1 / (q0 + q1) = 2/3
        q = np.array([1.0, 2.0])
        joined = rooted_at_1 = 0
        for i in range(20000):
            f = sample_forest(k2, q, forest_rng(104, i))
            if len(forest_roots(f)) == 1:
                joined += 1
                rooted_at_1 += int(f.root_of[0] == 1)
        p_hat = rooted_at_1 / joined
        se = np.sqrt((2 / 3) * (1 / 3) / joined)
        assert abs(p_hat - 2 / 3) <= 4 * se


class TestSampler:
    def test_deterministic_per_seed(self, triangle):
        a = sample_forest(triangle, 1.0, forest_rng(7, 0))
        b = sample_forest(triangle, 1.0, forest_rng(7, 0))
        assert np.array_equal(a.root_of, b.root_of)
        assert np.array_equal(a.parent_of, b.parent_of)
        assert a.rng_draws == b.rng_draws

    def test_substreams_differ(self, triangle):
        draws = {forest_edge_key(sample_forest(triangle, 1.0, forest_rng(7, i)))
                 for i in range(20)}
        assert len(draws) > 1

    def test_huge_q_all_singletons(self, p3):
        for i in range(5):
            f = sample_forest(p3, 1e9, forest_rng(1, i))
            assert len(forest_roots(f)) == 3
            assert np.array_equal(f.root_of, [0, 1, 2])

    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        f = sample_forest(g, 2.0, forest_rng(0, 0))
        assert len(forest_roots(f)) == 1 and f.root_of[0] == 0 and f.parent_of[0] == -1

    def test_partition_validity_properties(self):
        g = random_connected_graph(25, extra_edges=35,
                                   rng=np.random.default_rng(44), weighted=True)
        neighbor_sets = [set(g.indices[g.indptr[u]:g.indptr[u + 1]].tolist())
                         for u in range(g.n)]
        for i in range(200):
            f = sample_forest(g, 0.6, forest_rng(55, i))
            roots = forest_roots(f)
            assert np.array_equal(f.root_of[roots], roots)  # roots are fixed points
            for v in range(g.n):
                p = f.parent_of[v]
                if p >= 0:
                    assert p in neighbor_sets[v]  # forest edges exist in the graph
                    assert f.root_of[p] == f.root_of[v]
            # following parents must reach the root without cycling
            for v in range(g.n):
                u, hops = v, 0
                while f.parent_of[u] >= 0:
                    u = f.parent_of[u]
                    hops += 1
                    assert hops <= g.n
                assert u == f.root_of[v]
            sizes = sum(len(vs) for _, vs in forest_trees(f))
            assert sizes == g.n  # trees partition the vertex set

    def test_step_budget_exhaustion(self):
        g = random_connected_graph(50, extra_edges=50, rng=np.random.default_rng(9))
        with pytest.raises(NumericalError, match="step budget"):
            sample_forest(g, 0.01, forest_rng(0, 0), max_steps=3)

    # the expected walk steps of a draw are tr((Q + L)^{-1} (Q + D)); the
    # pre-flight floor must never exceed them
    def test_walk_steps_floor_below_dense_trace(self):
        rng = np.random.default_rng(8)
        for name, g in enumeration_corpus():
            for q in (np.full(g.n, 1e-3), np.full(g.n, 2.0), rng.uniform(0.05, 3.0, g.n)):
                G = np.linalg.inv(np.diag(q) + LaplacianOperator(g).dense())
                trace = float(np.sum(np.diag(G) * (q + g.degrees)))
                assert 1.0 < walk_steps_floor(g, q) <= trace * (1 + 1e-12), name

    def test_nonpositive_q_rejected(self, p3):
        with pytest.raises(DataError, match="positive"):
            sample_forest(p3, 0.0, forest_rng(0, 0))

    def test_step_count_reported(self, p3):
        f = sample_forest(p3, 1.0, forest_rng(3, 0))
        assert f.rng_draws >= len(forest_roots(f))


class TestForestHelpers:
    def test_edge_key_canonical(self):
        f = RootedForest(root_of=np.array([2, 2, 2]), parent_of=np.array([1, 2, -1]))
        assert forest_edge_key(f) == ((0, 1), (1, 2))

    def test_partition_groups(self):
        f = RootedForest(root_of=np.array([0, 0, 2]), parent_of=np.array([-1, 0, -1]))
        parts = forest_trees(f)
        assert parts[0][0] == 0 and parts[0][1].tolist() == [0, 1]
        assert parts[1][0] == 2 and parts[1][1].tolist() == [2]
        assert forest_roots(f).tolist() == [0, 2]

    def test_forest_rng_reproducible(self, triangle):
        a, b, c = forest_rng(9, 4), forest_rng(9, 4), forest_rng(9, 5)
        assert (a.key, a.position) == (b.key, b.position) and a.key != c.key
        fa, fb = sample_forest(triangle, 1.0, a), sample_forest(triangle, 1.0, b)
        assert np.array_equal(fa.parent_of, fb.parent_of)
        assert a.position == b.position == fa.rng_draws
