from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsfsmooth import (AlphaStrategy, DataError, Graph, MonteCarloAccumulator,
                       NumericalError, RootedForest, SmoothingProblem, apply_K_inverse,
                       enumerate_forests, exact_estimator_moments, forest_rng, gen_graph,
                       gradient_step, resolve_alpha, run_monte_carlo, safe_alpha,
                       sample_forest, xbar_from_forest)
from rsfsmooth.estimators import accumulate_forests, check_draw_budget
from rsfsmooth.oracle import forest_trees, in_enumeration_reach, solve_exact_dense

from conftest import (dense_k_inverse, enumeration_corpus, oracle_tree_averages,
                      random_connected_graph)


class TestXbar:
    def test_p3_two_tree_forest(self, p3):
        problem = SmoothingProblem(p3, np.array([8.0, 0.0, 0.0]), 1.0)
        forest = RootedForest(root_of=np.array([0, 0, 2]),
                              parent_of=np.array([-1, 0, -1]))
        xbar = xbar_from_forest(forest, problem)
        np.testing.assert_array_equal(xbar, [4.0, 4.0, 0.0])

    def test_weighted_average_nonuniform_q(self, k2):
        problem = SmoothingProblem(k2, np.array([3.0, 9.0]), np.array([1.0, 2.0]))
        forest = RootedForest(root_of=np.array([1, 1]), parent_of=np.array([1, -1]))
        xbar = xbar_from_forest(forest, problem)
        np.testing.assert_allclose(xbar, [7.0, 7.0], rtol=1e-15)

    def test_constant_signal_bitwise(self):
        g = random_connected_graph(30, extra_edges=40,
                                   rng=np.random.default_rng(1), weighted=True)
        q = np.random.default_rng(2).uniform(0.3, 3.0, g.n)
        problem = SmoothingProblem(g, np.full(g.n, 0.1), q)
        for i in range(20):
            forest = sample_forest(g, q, forest_rng(10, i))
            assert np.array_equal(xbar_from_forest(forest, problem), problem.y)

    def test_singleton_forest_returns_signal(self, p3):
        problem = SmoothingProblem(p3, np.array([5.0, -1.0, 2.0]), 1.0)
        forest = RootedForest(root_of=np.array([0, 1, 2]),
                              parent_of=np.array([-1, -1, -1]))
        assert np.array_equal(xbar_from_forest(forest, problem), problem.y)

    def test_matches_bruteforce_and_stays_in_hull(self):
        g = random_connected_graph(20, extra_edges=25,
                                   rng=np.random.default_rng(3), weighted=True)
        rng = np.random.default_rng(4)
        q = rng.uniform(0.2, 2.0, g.n)
        y = rng.standard_normal(g.n)
        problem = SmoothingProblem(g, y, q)
        span = y.max() - y.min()
        for i in range(50):
            forest = sample_forest(g, q, forest_rng(11, i))
            xbar = xbar_from_forest(forest, problem)
            np.testing.assert_allclose(
                xbar, oracle_tree_averages(forest.root_of, q, y), rtol=1e-12)
            assert xbar.min() >= y.min() - 1e-12 * span
            assert xbar.max() <= y.max() + 1e-12 * span
            # constant within each tree
            for _, members in forest_trees(forest):
                assert len(set(xbar[members].tolist())) == 1

    @pytest.mark.parametrize("root_of", [[0, 0], [0, 0, 3], [-1, 0, 2], [0, 0, 2, 2]])
    def test_refuses_a_forest_that_is_not_one_of_the_graph(self, p3, root_of):
        problem = SmoothingProblem(p3, np.array([8.0, 0.0, 0.0]), 1.0)
        forest = RootedForest(root_of=np.array(root_of), parent_of=np.full(len(root_of), -1))
        with pytest.raises(DataError, match=r"one vertex id in \[0, 3\) per vertex"):
            xbar_from_forest(forest, problem)

    def test_control_variate_is_k_inverse_of_xbar(self, p3):
        problem = SmoothingProblem(p3, np.array([8.0, 0.0, 0.0]), 1.0)
        forest = RootedForest(root_of=np.array([0, 0, 2]),
                              parent_of=np.array([-1, 0, -1]))
        xbar = xbar_from_forest(forest, problem)
        np.testing.assert_allclose(
            apply_K_inverse(problem, xbar), dense_k_inverse(p3, problem.q) @ xbar, rtol=1e-12)


class TestGradientStep:
    def test_p3_worked_case(self, p3):
        problem = SmoothingProblem(p3, np.array([8.0, 0.0, 0.0]), 1.0)
        xbar = np.array([8.0, 0.0, 0.0])
        z = gradient_step(xbar, problem, 0.4)
        np.testing.assert_allclose(z, [4.8, 3.2, 0.0], rtol=1e-14)
        # oracle arithmetic: x - alpha (K^{-1} x - y) with dense K^{-1}
        oracle = xbar - 0.4 * (dense_k_inverse(p3, problem.q) @ xbar - problem.y)
        np.testing.assert_allclose(z, oracle, rtol=1e-12)

    def test_alpha_zero_is_identity(self, p3):
        problem = SmoothingProblem(p3, np.array([8.0, 0.0, 0.0]), 1.0)
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(gradient_step(x, problem, 0.0), x)

    def test_solution_is_fixed_point(self):
        g = random_connected_graph(15, extra_edges=20, rng=np.random.default_rng(5))
        y = np.random.default_rng(6).standard_normal(g.n)
        problem = SmoothingProblem(g, y, 0.7)
        xhat = solve_exact_dense(problem)
        for alpha in (0.1, 0.9, 2.3):
            np.testing.assert_allclose(gradient_step(xhat, problem, alpha), xhat,
                                       rtol=1e-9, atol=1e-12)


class TestAccumulator:
    def stream(self, n, count, seed):
        rng = np.random.default_rng(seed)
        return [(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(count)]

    def test_matches_naive_sums(self):
        samples = self.stream(6, 40, 7)
        acc = MonteCarloAccumulator(6)
        for s in samples:
            acc.add(*s)
        X = np.array([x for x, _ in samples])
        Y = np.array([yb for _, yb in samples])
        assert acc.count == 40
        np.testing.assert_allclose(acc.mean_x, X.mean(axis=0), rtol=1e-10)
        np.testing.assert_allclose(acc.mean_y, Y.mean(axis=0), rtol=1e-10)
        # trace statistics against numpy's batch variances and covariances
        assert acc.tr_var_xbar == pytest.approx(np.var(X, axis=0, ddof=1).sum(), rel=1e-10)
        assert acc.tr_var_ybar == pytest.approx(np.var(Y, axis=0, ddof=1).sum(), rel=1e-10)
        tr_cov = sum(np.cov(X[:, i], Y[:, i], ddof=1)[0, 1] for i in range(6))
        assert acc.tr_cov_xy == pytest.approx(tr_cov, rel=1e-10)

    def test_trace_statistics_absent_below_two_samples(self):
        acc = MonteCarloAccumulator(3)
        for _ in range(2):
            assert acc.tr_var_xbar is acc.tr_var_ybar is acc.tr_cov_xy is None
            acc.add(np.ones(3), np.zeros(3))
        assert acc.tr_var_xbar == acc.tr_var_ybar == acc.tr_cov_xy == 0.0

    def test_cauchy_schwarz_after_centering(self):
        for seed in range(5):
            samples = self.stream(8, 25, seed)
            acc = MonteCarloAccumulator(8)
            for s in samples:
                acc.add(*s)
            assert acc.tr_cov_xy**2 <= acc.tr_var_xbar * acc.tr_var_ybar * (1 + 1e-10)


class TestResolveAlpha:
    def test_safe_p3(self, p3):
        problem = SmoothingProblem(p3, np.array([8.0, 0.0, 0.0]), 1.0)
        strategy = AlphaStrategy.safe()
        assert resolve_alpha(strategy, problem) == (0.4, False)  # 2q/(q + 2 d_max)
        assert strategy == AlphaStrategy.safe()

    def test_safe_matches_uniform_formula(self):
        g = random_connected_graph(20, extra_edges=25,
                                   rng=np.random.default_rng(10), weighted=True)
        for q in (0.1, 1.0, 10.0):
            problem = SmoothingProblem(g, np.zeros(g.n), q)
            assert safe_alpha(problem) == pytest.approx(
                2 * q / (q + 2 * g.d_max), rel=1e-15)

    def test_safe_depends_on_q_not_on_its_form(self):
        # on a grid at these q the two forms of the bound, 2q / (q + 2 d_max)
        # and 2 / (1 + 2 d_max / q), differ in the last bit
        g = gen_graph("grid", rows=5, cols=5)
        for q in (0.1, 0.001):
            assert safe_alpha(SmoothingProblem(g, np.zeros(g.n), q)) == \
                safe_alpha(SmoothingProblem(g, np.zeros(g.n), np.full(g.n, q)))

    def test_safe_ssl_parameterization(self):
        g = random_connected_graph(20, extra_edges=25,
                                   rng=np.random.default_rng(11), weighted=True)
        for mu in (1.0, 2.5, 0.3):
            problem = SmoothingProblem(g, np.zeros(g.n), (mu / 2.0) * g.degrees)
            assert safe_alpha(problem) == pytest.approx(
                2 * mu / (mu + 4), rel=1e-12)
        problem = SmoothingProblem(g, np.zeros(g.n), 0.5 * g.degrees)
        assert safe_alpha(problem) == 0.4  # mu = 1, exactly 2/5

    def test_fixed(self, p3):
        problem = SmoothingProblem(p3, np.zeros(3), 1.0)
        assert resolve_alpha(AlphaStrategy.fixed(0.77), problem) == (0.77, False)
        with pytest.raises(DataError):
            resolve_alpha(AlphaStrategy(kind="fixed"), problem)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_fixed_rejects_non_finite(self, value):
        with pytest.raises(DataError, match="finite"):
            AlphaStrategy.fixed(value)
        with pytest.raises(DataError, match="finite"):
            AlphaStrategy.parse(str(value))

    def test_sample_need(self):
        assert AlphaStrategy.empirical().min_samples == 2
        for strategy in (AlphaStrategy.safe(), AlphaStrategy.fixed(0.3), AlphaStrategy.oracle()):
            assert strategy.min_samples == 1

    def test_parse(self):
        assert AlphaStrategy.parse("safe").kind == "safe_constant"
        assert AlphaStrategy.parse("empirical").kind == "empirical"
        assert AlphaStrategy.parse("oracle").kind == "oracle_optimal"
        assert AlphaStrategy.parse("0.25").value == 0.25
        with pytest.raises(DataError):
            AlphaStrategy.parse("bogus")

    def test_empirical_matches_raw_sum_formula(self, p3):
        problem = SmoothingProblem(p3, np.array([8.0, 0.0, 0.0]), 1.0)
        acc = MonteCarloAccumulator(3)
        xs, ys = [], []
        for i in range(60):
            xbar = xbar_from_forest(sample_forest(p3, 1.0, forest_rng(21, i)), problem)
            ybar = apply_K_inverse(problem, xbar)
            acc.add(xbar, ybar)
            xs.append(xbar)
            ys.append(ybar)
        alpha, fallback = resolve_alpha(AlphaStrategy.empirical(), problem, acc)
        X, Y = np.array(xs), np.array(ys)
        N = len(X)
        sum_x, sum_y = X.sum(axis=0), Y.sum(axis=0)
        num = np.einsum("ij,ij->", X, Y) - float(sum_x @ sum_y) / N
        den = np.einsum("ij,ij->", Y, Y) - float(sum_y @ sum_y) / N
        assert alpha == pytest.approx(num / den, rel=1e-10) and not fallback

    def test_empirical_needs_samples(self, p3):
        problem = SmoothingProblem(p3, np.zeros(3), 1.0)
        with pytest.raises(DataError, match="2"):
            resolve_alpha(AlphaStrategy.empirical(), problem, None)
        acc = MonteCarloAccumulator(3)
        acc.add(np.zeros(3), np.zeros(3))
        with pytest.raises(DataError, match="2"):
            resolve_alpha(AlphaStrategy.empirical(), problem, acc)

    def test_zero_variance_fallback(self, p3):
        problem = SmoothingProblem(p3, np.full(3, 2.0), 1.0)
        acc = MonteCarloAccumulator(3)
        for i in range(5):
            xbar = xbar_from_forest(sample_forest(p3, 1.0, forest_rng(22, i)), problem)
            acc.add(xbar, apply_K_inverse(problem, xbar))
        assert resolve_alpha(AlphaStrategy.empirical(), problem, acc) == (0.0, True)

    def test_oracle_fallback_constant_signal(self, p3):
        problem = SmoothingProblem(p3, np.full(3, 1.5), 1.0)
        assert resolve_alpha(AlphaStrategy.oracle(), problem) == (0.0, True)

    def test_oracle_matches_grid_argmin(self, p3):
        y = np.array([8.0, 0.0, 0.0])
        problem = SmoothingProblem(p3, y, 1.0)
        alpha_star, _ = resolve_alpha(AlphaStrategy.oracle(), problem)
        moments = exact_estimator_moments(p3, 1.0, y)
        grid = np.linspace(0.0, 1.0, 201)
        fit = np.polyfit(grid, moments.mse_curve(grid), 2)
        argmin = -fit[1] / (2 * fit[0])
        assert abs(alpha_star - argmin) < 1e-6


class TestExactMoments:
    def test_p3_expectation_is_smoothed_signal(self, p3):
        y = np.array([8.0, 0.0, 0.0])
        moments = exact_estimator_moments(p3, 1.0, y)
        np.testing.assert_allclose(moments.e_xbar, [5.0, 2.0, 1.0], rtol=1e-12)
        np.testing.assert_allclose(moments.e_ybar, y, rtol=1e-12)

    def test_unbiased_everywhere(self):
        # enumeration expectation of xbar and of the stepped estimator both
        # equal the exact solution, independently recomputed per forest
        rng = np.random.default_rng(17)
        for name, g in enumeration_corpus():
            q = rng.uniform(0.3, 2.0, g.n)
            y = rng.standard_normal(g.n)
            problem = SmoothingProblem(g, y, q)
            xhat = solve_exact_dense(problem)
            dist = enumerate_forests(g, q)
            Kinv = dense_k_inverse(g, q)
            for alpha in (0.1, 0.4, 1.0):
                e_z = np.zeros(g.n)
                for fam in dist.families:
                    xbar = oracle_tree_averages(fam.components, q, y)
                    e_z += (fam.weight / dist.normalizer) * (
                        xbar - alpha * (Kinv @ xbar - y))
                np.testing.assert_allclose(e_z, xhat, atol=1e-12 * max(1, abs(xhat).max()),
                                           rtol=0, err_msg=f"{name}, alpha={alpha}")
            moments = exact_estimator_moments(g, q, y)
            np.testing.assert_allclose(moments.e_xbar, xhat,
                                       atol=1e-12 * max(1, abs(xhat).max()), rtol=0,
                                       err_msg=name)

    def test_parabola_matches_per_forest_mse(self, p3):
        y = np.array([8.0, 0.0, 0.0])
        q = np.ones(3)
        problem = SmoothingProblem(p3, y, 1.0)
        xhat = solve_exact_dense(problem)
        dist = enumerate_forests(p3, q)
        Kinv = dense_k_inverse(p3, q)
        moments = exact_estimator_moments(p3, 1.0, y)
        for alpha in (0.0, 0.15, 0.4, 0.8, 1.3):
            mse = 0.0
            for fam in dist.families:
                xbar = oracle_tree_averages(fam.components, q, y)
                z = xbar - alpha * (Kinv @ xbar - y)
                mse += (fam.weight / dist.normalizer) * float((z - xhat) @ (z - xhat))
            assert moments.mse_curve(alpha) == pytest.approx(mse, rel=1e-10)

    def test_three_term_expansion(self):
        rng = np.random.default_rng(18)
        for name, g in enumeration_corpus()[:6]:
            q = rng.uniform(0.4, 1.8, g.n)
            y = rng.standard_normal(g.n)
            dist = enumerate_forests(g, q)
            Kinv = dense_k_inverse(g, q)
            samples = []
            for fam in dist.families:
                xbar = oracle_tree_averages(fam.components, q, y)
                samples.append((fam.weight / dist.normalizer, xbar, Kinv @ xbar))
            e_x = sum(p * x for p, x, _ in samples)
            e_yb = sum(p * yb for p, _, yb in samples)
            tr_var_x = sum(p * float((x - e_x) @ (x - e_x)) for p, x, _ in samples)
            tr_var_y = sum(p * float((yb - e_yb) @ (yb - e_yb)) for p, _, yb in samples)
            tr_cov = sum(p * float((x - e_x) @ (yb - e_yb)) for p, x, yb in samples)
            moments = exact_estimator_moments(g, q, y)
            assert moments.tr_var_xbar == pytest.approx(tr_var_x, abs=1e-10), name
            assert moments.tr_var_ybar == pytest.approx(tr_var_y, abs=1e-10), name
            assert moments.tr_cov_xy == pytest.approx(tr_cov, abs=1e-10), name
            alpha = 0.37
            expansion = tr_var_x + alpha**2 * tr_var_y - 2 * alpha * tr_cov
            assert moments.mse_curve(alpha) == pytest.approx(expansion, abs=1e-10)

    def test_mse_curve_endpoints(self, p3):
        y = np.array([8.0, 0.0, 0.0])
        moments = exact_estimator_moments(p3, 1.0, y)
        assert moments.mse_curve(0.0) == moments.tr_var_xbar
        # parabola symmetry around the optimum
        assert moments.mse_curve(2 * moments.alpha_star) == pytest.approx(
            moments.mse_curve(0.0), rel=1e-12)

    def test_safe_alpha_never_hurts(self):
        rng = np.random.default_rng(19)
        for name, g in enumeration_corpus():
            y = rng.standard_normal(g.n)
            for q in (0.1, 1.0, 10.0):
                problem = SmoothingProblem(g, y, q)
                moments = exact_estimator_moments(g, q, y)
                a = safe_alpha(problem)
                assert moments.mse_curve(a) <= moments.mse_curve(0.0) + 1e-12, (name, q)


class TestPathwiseContraction:
    def test_step_never_moves_away(self):
        rng = np.random.default_rng(20)
        for trial in range(3):
            g = random_connected_graph(int(rng.integers(5, 30)),
                                       extra_edges=int(rng.integers(0, 30)),
                                       rng=rng, weighted=True)
            y = rng.standard_normal(g.n)
            q = float(rng.uniform(0.2, 3.0))
            problem = SmoothingProblem(g, y, q)
            xhat = solve_exact_dense(problem)
            alpha = safe_alpha(problem)
            for i in range(300):
                forest = sample_forest(g, q, forest_rng(23 + trial, i))
                xbar = xbar_from_forest(forest, problem)
                z = gradient_step(xbar, problem, alpha)
                assert np.linalg.norm(z - xhat) <= np.linalg.norm(xbar - xhat) * (1 + 1e-12)


@pytest.fixture(scope="module")
def regular20k():
    return gen_graph("regular", n=20000, d=10, seed=0)


# a draw takes at least n expected walk steps, so a run holds at most
# 1e9 / n draws: 50,000 on the 20,000-vertex 10-regular graph at q = 1,
# where 1 + sum(d)/sum(q) = 11 alone admitted about 9e7
@pytest.mark.parametrize("passes, n_samples, admitted", [
    (2, 10, True), (5, 1000, True), (50, 1000, True), (50001, 1, False),
    (100, 1000, False)])
def test_run_cap_on_a_20000_vertex_graph(regular20k, passes, n_samples, admitted):
    q = SmoothingProblem(regular20k, np.zeros(regular20k.n), 1.0).q
    # one pair of all the passes' draws, and one pair per pass, are one run
    for runs in ([(q, passes * n_samples)], [(q, n_samples)] * passes):
        if admitted:
            check_draw_budget(regular20k, runs)
        else:
            with pytest.raises(NumericalError, match="exceed the step budget"):
                check_draw_budget(regular20k, runs)


def test_draw_budget_sums_a_runs_q_values():
    g = gen_graph("grid", rows=1, cols=10)  # sum(d) = 18: q = 1e-8 charges 1.8e8 a draw
    check_draw_budget(g, [(1.0, 5), (1e-8, 5)])  # 5,000 + 9e8 steps
    with pytest.raises(NumericalError) as err:
        check_draw_budget(g, [(1.0, 5), (np.full(10, 1e-8), 6)])  # 5,000 + 1.08e9
    assert str(err.value) == (
        "11 forest draws over 2 q values of at least 1000 to 1.8e+08 walk steps each "
        "(the larger of 10 to 1.8e+08 expected and a draw's fixed cost of 1000) exceed "
        "the step budget of 1e+09")
    # a count past any float is compared, not multiplied
    with pytest.raises(NumericalError, match=f"^{10**400 + 1} forest draws over 2 q values"):
        check_draw_budget(g, [(1.0, 10**400), (1.0, 1)])


class TestRunMonteCarlo:
    def test_single_sample_alpha_zero_returns_xbar(self, p3):
        y = np.array([8.0, 0.0, 0.0])
        problem = SmoothingProblem(p3, y, 1.0)
        result = run_monte_carlo(problem, 1, AlphaStrategy.fixed(0.0), seed=9)
        forest = sample_forest(p3, 1.0, forest_rng(9, 0))
        assert np.array_equal(result.estimate, xbar_from_forest(forest, problem))

    def test_deterministic(self, p3):
        problem = SmoothingProblem(p3, np.array([8.0, 0.0, 0.0]), 1.0)
        a = run_monte_carlo(problem, 50, AlphaStrategy.empirical(), seed=31)
        b = run_monte_carlo(problem, 50, AlphaStrategy.empirical(), seed=31)
        assert np.array_equal(a.estimate, b.estimate)
        assert a.alpha == b.alpha

    def test_constant_signal_exact_for_every_strategy(self):
        g = random_connected_graph(12, extra_edges=15, rng=np.random.default_rng(21))
        y = np.full(g.n, 0.1)
        problem = SmoothingProblem(g, y, 0.9)
        for strategy, n in ((AlphaStrategy.fixed(0.7), 1),
                            (AlphaStrategy.fixed(0.7), 5),
                            (AlphaStrategy.safe(), 3),
                            (AlphaStrategy.empirical(), 5)):
            result = run_monte_carlo(problem, n, strategy, seed=32)
            assert np.array_equal(result.estimate, y), strategy.kind
        result = run_monte_carlo(problem, 5, AlphaStrategy.empirical(), seed=32)
        assert result.diagnostics["zero_variance_fallback"]
        assert result.alpha == 0.0

    def test_mean_converges(self, p3):
        y = np.array([8.0, 0.0, 0.0])
        problem = SmoothingProblem(p3, y, 1.0)
        xhat = solve_exact_dense(problem)
        errs = []
        for n in (100, 1000):
            result = run_monte_carlo(problem, n, AlphaStrategy.fixed(0.0), seed=33)
            errs.append(np.linalg.norm(result.estimate - xhat))
        assert errs[1] < errs[0]

    def test_diagnostics_fields(self, p3):
        problem = SmoothingProblem(p3, np.array([8.0, 0.0, 0.0]), 1.0)
        result = run_monte_carlo(problem, 10, AlphaStrategy.empirical(), seed=34)
        d = result.diagnostics
        assert d["n_samples"] == 10
        assert d["strategy"] == "empirical"
        assert d["alpha_from_same_samples"]
        assert d["total_walk_steps"] > 0
        assert d["tr_var_xbar"] > 0 and d["tr_var_ybar"] > 0
        result1 = run_monte_carlo(problem, 1, AlphaStrategy.fixed(0.2), seed=34)
        assert result1.diagnostics["tr_var_xbar"] is None

    def test_input_validation(self, p3):
        problem = SmoothingProblem(p3, np.zeros(3), 1.0)
        with pytest.raises(DataError):
            run_monte_carlo(problem, 0, AlphaStrategy.safe())
        with pytest.raises(DataError):
            run_monte_carlo(problem, 1, AlphaStrategy.empirical())

    def test_strategy_object_not_mutated(self, p3):
        problem = SmoothingProblem(p3, np.array([8.0, 0.0, 0.0]), 1.0)
        strategy = AlphaStrategy.safe()
        result = run_monte_carlo(problem, 3, strategy, seed=35)
        assert result.diagnostics["strategy"] == "safe_constant"
        assert strategy == AlphaStrategy.safe()
        with pytest.raises(FrozenInstanceError):
            strategy.value = 0.5


class TestEmpiricalAlphaConsistency:
    def test_batch_means_within_three_se(self, p3):
        # alpha_hat over 1e5 samples vs the enumeration optimum; the
        # standard error comes from batch means over the same draws
        y = np.array([8.0, 0.0, 0.0])
        problem = SmoothingProblem(p3, y, 1.0)
        alpha_star = exact_estimator_moments(p3, 1.0, y).alpha_star
        batches = 40
        per_batch = 2500
        whole = MonteCarloAccumulator(3)
        batch_alphas = []
        for b in range(batches):
            acc = MonteCarloAccumulator(3)
            stream = forest_rng(36, b)
            for _ in range(per_batch):
                xbar = xbar_from_forest(sample_forest(p3, 1.0, stream), problem)
                pair = (xbar, apply_K_inverse(problem, xbar))
                acc.add(*pair)
                whole.add(*pair)
            batch_alphas.append(resolve_alpha(AlphaStrategy.empirical(), problem, acc)[0])
        assert whole.count == 100000
        alpha_full, _ = resolve_alpha(AlphaStrategy.empirical(), problem, whole)
        se = np.std(batch_alphas, ddof=1) / np.sqrt(batches)
        assert abs(alpha_full - alpha_star) <= 3 * se


@st.composite
def small_problems(draw):
    """A connected weighted graph inside the enumeration reach (n <= 6,
    m <= 10) with per-vertex q and a signal y: (graph, q, y)."""
    n = draw(st.integers(2, 6))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}  # a spanning tree
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=10 - len(pairs))):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    g = Graph.from_edges(n, [(a, b, draw(st.floats(0.5, 2.0))) for a, b in sorted(pairs)])
    q = np.array(draw(st.lists(st.floats(0.3, 2.0), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    return g, q, y


properties = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestEstimatorProperties:
    """The statistical contract on random graphs within the enumeration
    reach, at the tolerances of the fixed-corpus tests above."""

    @properties
    @given(small_problems(), st.sampled_from([0.1, 0.4, 1.0]))
    def test_exactly_unbiased(self, case, alpha):
        g, q, y = case
        assert in_enumeration_reach(g)
        xhat = solve_exact_dense(SmoothingProblem(g, y, q))
        dist = enumerate_forests(g, q)
        Kinv = dense_k_inverse(g, q)
        e_x, e_z = np.zeros(g.n), np.zeros(g.n)
        for fam in dist.families:
            p = fam.weight / dist.normalizer
            xbar = oracle_tree_averages(fam.components, q, y)
            e_x += p * xbar
            e_z += p * (xbar - alpha * (Kinv @ xbar - y))
        atol = 1e-12 * max(1, abs(xhat).max())
        np.testing.assert_allclose(e_x, xhat, atol=atol, rtol=0)
        np.testing.assert_allclose(e_z, xhat, atol=atol, rtol=0)

    @properties
    @given(small_problems(), st.floats(-1e3, 1e3), st.integers(0, 2**32))
    def test_constant_signal_returned_bit_exactly(self, case, c, seed):
        g, q, _ = case
        problem = SmoothingProblem(g, np.full(g.n, c), q)
        for strategy in (AlphaStrategy.fixed(0.7), AlphaStrategy.safe(),
                         AlphaStrategy.empirical()):
            result = run_monte_carlo(problem, 3, strategy, seed=seed)
            assert np.array_equal(result.estimate, problem.y), strategy.kind

    @properties
    @given(small_problems(), st.integers(0, 2**32), st.integers(2, 6))
    def test_same_seed_same_arrays(self, case, seed, n_samples):
        g, q, y = case
        problem = SmoothingProblem(g, y, q)
        a, steps_a = accumulate_forests(problem, n_samples, seed)
        b, steps_b = accumulate_forests(problem, n_samples, seed)
        assert steps_a == steps_b
        assert np.array_equal(a.mean_x, b.mean_x) and np.array_equal(a.mean_y, b.mean_y)
        first, second = (run_monte_carlo(problem, n_samples, AlphaStrategy.empirical(),
                                         seed=seed) for _ in range(2))
        assert np.array_equal(first.estimate, second.estimate)
        assert first.diagnostics == second.diagnostics
