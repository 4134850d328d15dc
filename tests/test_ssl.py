import numpy as np
import pytest

from rsfsmooth import (AlphaStrategy, DataError, MonteCarloAccumulator, SSLProblem,
                       SmoothingProblem, accuracy_experiment, apply_K_inverse, derive_seed,
                       forest_rng, gen_graph, gradient_step, linalg, load_labels,
                       resolve_alpha, run_monte_carlo, safe_alpha, sample_forest, ssl_exact,
                       ssl_forest, xbar_from_forest)
from rsfsmooth.estimators import FOREST_ESTIMATORS
from rsfsmooth.oracle import contraction_check

from conftest import (adjacency, kernel_sets, random_connected_graph, two_clique_graph,
                      using_kernels)


def dense_scores(problem):
    """Assembled-matrix oracle for the classification scores."""
    g = problem.graph
    W = adjacency(g).toarray()
    D = np.diag(g.degrees)
    L = D - W
    K = np.linalg.solve(D + (2.0 / problem.mu) * L, D)
    scale_out = np.diag(g.degrees ** (1.0 - problem.sigma))
    scale_in = np.diag(g.degrees ** (problem.sigma - 1.0))
    return scale_out @ K @ scale_in @ problem.label_matrix()


@pytest.fixture
def clique_pair():
    g = two_clique_graph(20)
    labels = np.array([0] * 20 + [1] * 20)
    return g, labels


class TestProblemValidation:
    def test_defaults_to_all_known_labels(self, clique_pair):
        g, labels = clique_pair
        p = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0)
        assert len(p.labeled_set) == 40 and p.k == 2

    def test_label_matrix(self, clique_pair):
        g, labels = clique_pair
        p = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0,
                       labeled_set=np.array([0, 39]))
        Y = p.label_matrix()
        assert Y.sum() == 2.0 and Y[0, 0] == 1.0 and Y[39, 1] == 1.0

    def test_every_class_needs_a_label(self, clique_pair):
        g, labels = clique_pair
        with pytest.raises(DataError, match="classes without"):
            SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0,
                       labeled_set=np.array([0, 1]))

    def test_hyperparameter_ranges(self, clique_pair):
        g, labels = clique_pair
        with pytest.raises(DataError, match="mu"):
            SSLProblem(graph=g, labels=labels, mu=0.0, sigma=0.0)
        with pytest.raises(DataError, match="sigma"):
            SSLProblem(graph=g, labels=labels, mu=1.0, sigma=1.5)

    def test_labeled_set_must_have_labels(self, clique_pair):
        g, labels = clique_pair
        partial = labels.copy()
        partial[5] = -1
        with pytest.raises(DataError, match="without a known label"):
            SSLProblem(graph=g, labels=partial, mu=1.0, sigma=0.0,
                       labeled_set=np.array([5, 0, 39]))

    def test_safe_alpha_formula(self, clique_pair):
        g, labels = clique_pair
        p = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0)
        subproblem = SmoothingProblem(g, p.label_matrix()[:, 0], p.absorption())
        assert safe_alpha(subproblem) == 0.4  # 2 mu / (mu + 4) at mu = 1


class TestExact:
    def test_matches_dense_oracle(self, clique_pair):
        g, labels = clique_pair
        for sigma in (0.0, 0.5, 1.0):
            p = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=sigma,
                           labeled_set=np.array([3, 25]))
            result = ssl_exact(p)
            np.testing.assert_allclose(result.F, dense_scores(p), rtol=1e-8, atol=1e-10)

    def test_sigma_one_drops_degree_scaling(self):
        g = random_connected_graph(15, extra_edges=20,
                                   rng=np.random.default_rng(2), weighted=True)
        labels = (np.arange(15) % 3).astype(np.int64)
        p = SSLProblem(graph=g, labels=labels, mu=2.0, sigma=1.0)
        result = ssl_exact(p)
        W = adjacency(g).toarray()
        D = np.diag(g.degrees)
        K = np.linalg.solve(D + (2.0 / 2.0) * (D - W), D)
        np.testing.assert_allclose(result.F, K @ p.label_matrix(), rtol=1e-8, atol=1e-10)

    def test_two_cliques_one_label_each(self, clique_pair):
        g, labels = clique_pair
        p = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0,
                       labeled_set=np.array([3, 25]))
        result = ssl_exact(p)
        assert result.accuracy >= 0.95

    def test_all_labeled_predicts_own_class(self):
        g = random_connected_graph(8, extra_edges=6,
                                   rng=np.random.default_rng(8), weighted=True)
        labels = np.arange(8)
        p = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0)
        result = ssl_exact(p)
        oracle_pred = np.argmax(dense_scores(p), axis=1)
        assert np.array_equal(result.predicted, oracle_pred)
        assert np.array_equal(result.predicted, labels)
        assert np.isnan(result.accuracy)  # no holdout left

    def test_single_class_constant_scores(self):
        g = random_connected_graph(12, extra_edges=10, rng=np.random.default_rng(3))
        labels = np.zeros(12, dtype=np.int64)
        p = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=1.0)
        result = ssl_exact(p)
        np.testing.assert_allclose(result.F[:, 0], np.ones(12), rtol=1e-8)

    def test_argmax_tie_breaks_to_lowest_class(self, clique_pair):
        g, labels = clique_pair
        p = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0)
        result = ssl_exact(p)
        fake = np.zeros_like(result.F)
        assert np.argmax(fake, axis=1).max() == 0  # numpy argmax takes first max


class TestForest:
    def test_single_class_constant_signal_is_exact(self):
        # sigma = 1 turns the class indicator into a constant signal, for
        # which every forest average is exact
        g = random_connected_graph(12, extra_edges=10, rng=np.random.default_rng(4))
        labels = np.zeros(12, dtype=np.int64)
        p = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=1.0)
        result = ssl_forest(p, 3, AlphaStrategy.safe(), seed=2)
        np.testing.assert_array_equal(result.F[:, 0], np.ones(12))
        emp = ssl_forest(p, 5, AlphaStrategy.empirical(), seed=2)
        assert emp.diagnostics["zero_variance_fallback_per_class"] == [True]

    def test_deterministic_and_shared_forests(self, clique_pair):
        g, labels = clique_pair
        p = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0,
                       labeled_set=np.array([3, 25]))
        a = ssl_forest(p, 20, AlphaStrategy.safe(), seed=6)
        b = ssl_forest(p, 20, AlphaStrategy.safe(), seed=6)
        assert np.array_equal(a.F, b.F)
        # one forest serves both classes: each class column equals a
        # single-signal run on the same streams
        d_in = g.degrees ** (p.sigma - 1.0)
        Y = p.label_matrix()
        for c in range(p.k):
            sp = SmoothingProblem(g, d_in * Y[:, c], p.absorption())
            single = run_monte_carlo(sp, 20, AlphaStrategy.safe(), seed=6)
            assert np.array_equal(a.F[:, c], g.degrees ** (1.0 - p.sigma) * single.estimate)
            assert a.diagnostics["total_walk_steps"] == single.diagnostics["total_walk_steps"]

    def test_converges_to_exact(self, clique_pair):
        g, labels = clique_pair
        p = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0,
                       labeled_set=np.array([3, 25]))
        exact = ssl_exact(p)
        n_samples = 5000
        forest_result = ssl_forest(p, n_samples, AlphaStrategy.safe(), seed=7)
        # per-class spatial means, rebuilt sample by sample on the same draws
        d_in = g.degrees ** (p.sigma - 1.0)
        d_out = g.degrees ** (1.0 - p.sigma)
        q = p.absorption()
        Y = p.label_matrix()
        subproblems = [SmoothingProblem(g, d_in * Y[:, c], q) for c in range(p.k)]
        alpha = safe_alpha(subproblems[0])
        per_sample = np.empty((n_samples, p.k))
        for i in range(n_samples):
            forest = sample_forest(g, q, forest_rng(7, i))
            for c in range(p.k):
                xbar = xbar_from_forest(forest, subproblems[c])
                per_sample[i, c] = np.mean(d_out * gradient_step(xbar, subproblems[c], alpha))
        for c in range(p.k):
            mc_mean = per_sample[:, c].mean()
            se = per_sample[:, c].std(ddof=1) / np.sqrt(n_samples)
            exact_mean = exact.F[:, c].mean()
            assert abs(mc_mean - exact_mean) <= 4 * se + 1e-9
            # the library's single final step equals the per-sample average
            assert forest_result.F[:, c].mean() == pytest.approx(mc_mean, rel=1e-10)
        agreement = np.mean(forest_result.predicted == exact.predicted)
        assert agreement >= 0.99

    def test_empirical_alpha_per_class(self, clique_pair):
        g, labels = clique_pair
        p = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0,
                       labeled_set=np.array([3, 25]))
        result = ssl_forest(p, 50, AlphaStrategy.empirical(), seed=8)
        alphas = result.diagnostics["alpha_per_class"]
        assert len(alphas) == 2 and all(a > 0 for a in alphas)

    def test_contraction_in_ssl_metric(self):
        # I - alpha K^{-1} with q = (mu/2) d contracts at alpha = 2mu/(mu+4)
        rng = np.random.default_rng(9)
        for mu in (0.3, 1.0, 3.0):
            g = random_connected_graph(20, extra_edges=30, rng=rng, weighted=True)
            problem = SmoothingProblem(g, np.zeros(g.n), (mu / 2.0) * g.degrees)
            report = contraction_check(problem, 2.0 * mu / (mu + 4.0))
            assert report.passed, mu


class TestAccuracyExperiment:
    def test_two_clique_table(self, clique_pair):
        g, labels = clique_pair
        p = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0)
        rows = accuracy_experiment(p, 1, repeats=10, n_samples=20, seed=12)
        assert [r["method"] for r in rows] == ["exact", "xbar", "zbar_safe",
                                               "zbar_empirical"]
        by_method = {r["method"]: r for r in rows}
        assert by_method["exact"]["mean_acc"] >= 0.95
        assert by_method["zbar_safe"]["mean_acc"] >= by_method["xbar"]["mean_acc"]
        assert all(r["m"] == 1 and 0.0 <= r["std_acc"] <= 1.0 for r in rows)

    def test_deterministic(self, clique_pair):
        g, labels = clique_pair
        p = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0)
        a = accuracy_experiment(p, 2, repeats=5, n_samples=10, seed=13)
        b = accuracy_experiment(p, 2, repeats=5, n_samples=10, seed=13)
        assert a == b

    def test_a_list_of_counts_is_each_count_in_turn(self, clique_pair):
        # each count keeps its own label picks and forest streams, so the
        # table of two counts is the two one-count tables, bit for bit
        g, labels = clique_pair
        p = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0)
        both = accuracy_experiment(p, [1, 2], repeats=3, n_samples=4, seed=21)
        apart = (accuracy_experiment(p, 1, repeats=3, n_samples=4, seed=21)
                 + accuracy_experiment(p, 2, repeats=3, n_samples=4, seed=21))
        assert [r["m"] for r in both] == [1] * 4 + [2] * 4
        assert repr(both) == repr(apart)

    def test_each_forest_stream_is_drawn_once(self, clique_pair, monkeypatch):
        # the forest law depends only on q, so one pass per repeat serves
        # every count: 3 repeats of 4 draws, however many counts
        streams = []

        def recorded(seed, *key):
            streams.append((seed, *key))
            return forest_rng(seed, *key)

        monkeypatch.setattr("rsfsmooth.estimators.forest_rng", recorded)
        g, labels = clique_pair
        p = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0)
        accuracy_experiment(p, [1, 2], repeats=3, n_samples=4, seed=21)
        assert len(streams) == 12 and len(set(streams)) == 12, streams

    def test_class_too_small(self, clique_pair):
        g, labels = clique_pair
        sparse_labels = labels.copy()
        sparse_labels[5:20] = -1  # class 0 keeps only 5 known members
        p = SSLProblem(graph=g, labels=sparse_labels, mu=1.0, sigma=0.0)
        with pytest.raises(DataError, match="fewer than"):
            accuracy_experiment(p, 6, repeats=2, n_samples=5, seed=0)
        with pytest.raises(DataError, match="vertex budget"):
            accuracy_experiment(SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0),
                                21, repeats=2, n_samples=5, seed=0)

    def test_full_labeling_is_data_error(self, clique_pair):
        # m equal to every class size leaves no vertex to score on
        g, labels = clique_pair
        p = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0)
        with pytest.raises(DataError, match="no held-out vertex"):
            accuracy_experiment(p, 20, repeats=2, n_samples=5, seed=0)
        assert len(accuracy_experiment(p, 19, repeats=1, n_samples=2, seed=0)) == 4

    def test_one_hierarchy_per_graph_and_q(self, monkeypatch):
        # at mu = 0.001 the bound 1 + 4 d_max / (mu d_min) is 8001, so every
        # exact solve reaches CG's multigrid: 3 repeats x 3 classes share one
        builds = []
        build = linalg._Multigrid.build.__func__

        def counted(cls, graph, q):
            builds.append(graph)
            return build(cls, graph, q)

        monkeypatch.setattr(linalg._Multigrid, "build", classmethod(counted))
        g = gen_graph("grid", rows=30, cols=30)
        labels = np.arange(g.n) % 30 // 10  # three bands of columns
        p = SSLProblem(graph=g, labels=labels, mu=0.001, sigma=0.0)
        accuracy_experiment(p, 1, repeats=3, n_samples=2, seed=0)
        assert builds == [g]
        accuracy_experiment(SSLProblem(graph=g, labels=labels, mu=0.002, sigma=0.0), 1,
                            repeats=1, n_samples=2, seed=0)
        assert builds == [g, g]


def per_class_pass(p, n_samples, seed):
    """A forest pass rebuilt class by class: one one-signal problem and one
    accumulator per class, each fed every draw through xbar_from_forest,
    apply_K_inverse and MonteCarloAccumulator.add. Returns the problems,
    the accumulators and the walk steps."""
    g, q = p.graph, p.absorption()
    d_in = g.degrees ** (p.sigma - 1.0)
    Y = p.label_matrix()
    problems = [SmoothingProblem(g, d_in * Y[:, c], q) for c in range(p.k)]
    accs = [MonteCarloAccumulator(g.n) for _ in problems]
    steps = 0
    for i in range(n_samples):
        forest = sample_forest(g, q, forest_rng(seed, i))
        steps += forest.rng_draws
        for sp, acc in zip(problems, accs):
            x = xbar_from_forest(forest, sp)
            acc.add(x, apply_K_inverse(sp, x))
    return problems, accs, steps


def per_class_scores(p, problems, accs, strategy):
    """The scores D^{1-sigma} x_c of each class's stepped estimate, and each
    class's (alpha, fallback)."""
    resolved = [resolve_alpha(strategy, sp, acc) for sp, acc in zip(problems, accs)]
    d_out = p.graph.degrees ** (1.0 - p.sigma)
    X = np.column_stack([gradient_step(acc.mean_x, sp, alpha)
                         for sp, acc, (alpha, _) in zip(problems, accs, resolved)])
    return d_out[:, None] * X, resolved


def per_class_rows(p, m, repeats, n_samples, seed):
    """accuracy_experiment's rows, each forest pass rebuilt class by class."""
    members = [np.flatnonzero(p.labels == c) for c in range(p.k)]
    scores = {"exact": [], **{name: [] for name in FOREST_ESTIMATORS}}
    for r in range(repeats):
        pick = np.random.default_rng(np.random.SeedSequence((seed, 1, r)))
        labeled = np.concatenate([pick.choice(mem, size=m, replace=False) for mem in members])
        sub = SSLProblem(graph=p.graph, labels=p.labels, mu=p.mu, sigma=p.sigma,
                         labeled_set=labeled)
        scores["exact"].append(ssl_exact(sub).accuracy)
        problems, accs, _ = per_class_pass(sub, n_samples, derive_seed(seed, 2, r))
        holdout = sub.holdout()
        for name, strategy in FOREST_ESTIMATORS.items():
            if n_samples >= strategy.min_samples:
                F, _ = per_class_scores(sub, problems, accs, strategy)
                hits = np.argmax(F, axis=1)[holdout] == sub.labels[holdout]
                scores[name].append(float(np.mean(hits)))
    return [{"m": m, "method": method,
             "mean_acc": float(np.mean(values)) if values else None,
             "std_acc": float(np.std(values)) if values else None}
            for method, values in scores.items()]


def three_bands():
    """Three classes on a weighted random graph, every third vertex each."""
    g = random_connected_graph(30, extra_edges=40, rng=np.random.default_rng(14), weighted=True)
    return SSLProblem(graph=g, labels=np.arange(30) % 3, mu=0.7, sigma=0.3)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


class TestBlockAgainstPerClass:
    """One problem for the k classes gives, bit for bit, what k one-signal
    problems on the same forests give, under each kernel set."""

    def test_ssl_forest(self, clique_pair):
        g, labels = clique_pair
        cases = [SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0,
                            labeled_set=np.array([3, 25])),
                 three_bands(),
                 # one class, every vertex labeled, sigma = 1: a constant signal
                 SSLProblem(graph=g, labels=np.zeros(g.n), mu=1.0, sigma=1.0)]
        strategies = [AlphaStrategy.safe(), AlphaStrategy.empirical(), AlphaStrategy.fixed(0.3)]
        fallbacks = []
        for chosen in kernel_sets():
            with using_kernels(chosen):
                for p in cases:
                    problems, accs, steps = per_class_pass(p, 7, 5)
                    for strategy in strategies:
                        result = ssl_forest(p, 7, strategy, seed=5)
                        F, resolved = per_class_scores(p, problems, accs, strategy)
                        assert bits(result.F) == bits(F)
                        d = result.diagnostics
                        assert bits(d["alpha_per_class"]) == bits([a for a, _ in resolved])
                        assert d["zero_variance_fallback_per_class"] == [f for _, f in resolved]
                        assert d["total_walk_steps"] == steps and d["n_samples"] == 7
                        fallbacks += d["zero_variance_fallback_per_class"]
        assert True in fallbacks and False in fallbacks

    @pytest.mark.parametrize("n_samples", [1, 6])
    def test_accuracy_experiment(self, n_samples):
        p = three_bands()
        for chosen in kernel_sets():
            with using_kernels(chosen):
                rows = accuracy_experiment(p, 2, repeats=3, n_samples=n_samples, seed=9)
                assert rows == per_class_rows(p, 2, 3, n_samples, 9)


class TestLoaders:
    def test_labels_csv(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("# node,class\n0,1\n2,0\n")
        labels = load_labels(str(path), 4)
        assert labels.tolist() == [1, -1, 0, -1]

    def test_labels_errors(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0,1\n0,2\n")
        with pytest.raises(DataError, match="duplicate"):
            load_labels(str(path), 3)
        path.write_text("9,1\n")
        with pytest.raises(DataError, match="out of range"):
            load_labels(str(path), 3)
