"""Acceptance suite.

One test per criterion; each prints a PASS line with its headline numbers
(run with -s to see them). Every tolerance is stated inline.
"""

import json
import time

import numpy as np
import pytest
from scipy import stats

from rsfsmooth import (AlphaStrategy, SmoothingProblem,
                       enumerate_forests, exact_estimator_moments, forest_rng,
                       gen_graph, gradient_step, run_monte_carlo, safe_alpha,
                       sample_forest, save_graph, solve_exact_cg, ssl_exact,
                       ssl_forest, synthetic_signal, xbar_from_forest, SSLProblem,
                       accuracy_experiment)
from rsfsmooth.cli import run as cli_run
from rsfsmooth.experiments import sweep_alpha
from rsfsmooth.oracle import contraction_check, forest_edge_key, solve_exact_dense

from conftest import (adjacency, cycle_graph, dense_k_inverse, enumeration_corpus,
                      oracle_tree_averages, path_graph, random_connected_graph,
                      two_clique_graph)


def test_criterion_01_matrix_forest_identity():
    t0 = time.perf_counter()
    corpus = enumeration_corpus()
    assert len(corpus) >= 10
    rng = np.random.default_rng(101)
    checks = 0
    for name, g in corpus:
        for q in (np.ones(g.n), rng.uniform(0.3, 2.5, g.n)):
            dist = enumerate_forests(g, q)
            det = np.linalg.det(np.diag(q + g.degrees) - adjacency(g).toarray())
            assert abs(dist.normalizer - det) <= 1e-9 * abs(det), name
            checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: matrix-forest identity, {checks} checks on "
          f"{len(corpus)} graphs to 1e-9 relative ({elapsed:.2f}s < 1s)")


def test_criterion_02_exact_unbiasedness():
    rng = np.random.default_rng(102)
    corpus = enumeration_corpus()
    for name, g in corpus:
        q = rng.uniform(0.3, 2.0, g.n)
        y = rng.standard_normal(g.n)
        problem = SmoothingProblem(g, y, q)
        xhat = solve_exact_dense(problem)
        scale = max(1.0, float(np.abs(xhat).max()))
        dist = enumerate_forests(g, q)
        Kinv = dense_k_inverse(g, q)
        e_x = np.zeros(g.n)
        e_z = {alpha: np.zeros(g.n) for alpha in (0.1, 0.4, 1.0)}
        for fam in dist.families:
            p = fam.weight / dist.normalizer
            xbar = oracle_tree_averages(fam.components, q, y)
            e_x += p * xbar
            grad = Kinv @ xbar - y
            for alpha in e_z:
                e_z[alpha] += p * (xbar - alpha * grad)
        assert np.abs(e_x - xhat).max() <= 1e-12 * scale, name
        for alpha, ez in e_z.items():
            assert np.abs(ez - xhat).max() <= 1e-12 * scale, (name, alpha)
    # the worked path-of-three case
    g = path_graph(3)
    moments = exact_estimator_moments(g, 1.0, np.array([8.0, 0.0, 0.0]))
    assert np.abs(moments.e_xbar - [5.0, 2.0, 1.0]).max() <= 1e-12 * 5
    print(f"\nPASS criterion 2: E[xbar] = E[zbar] = Ky to 1e-12 on "
          f"{len(corpus)} graphs x alphas (0.1, 0.4, 1.0), incl. the worked 3-path")


def test_criterion_03_optimal_step():
    rng = np.random.default_rng(103)
    cases = [(path_graph(3), np.ones(3), np.array([8.0, 0.0, 0.0]))]
    for name, g in enumeration_corpus()[4:8]:
        cases.append((g, rng.uniform(0.4, 1.8, g.n), rng.standard_normal(g.n)))
    worst_gap = 0.0
    for g, q, y in cases:
        problem = SmoothingProblem(g, y, q)
        xhat = solve_exact_dense(problem)
        moments = exact_estimator_moments(g, q, y)
        # independent route: per-forest mean squared error on a grid
        dist = enumerate_forests(g, q)
        Kinv = dense_k_inverse(g, q)
        samples = [(fam.weight / dist.normalizer,
                    oracle_tree_averages(fam.components, q, y)) for fam in dist.families]
        grid = np.linspace(0.0, 1.2, 121)
        mse = np.zeros(grid.size)
        for p, xbar in samples:
            grad = Kinv @ xbar - y
            for j, alpha in enumerate(grid):
                err = xbar - alpha * grad - xhat
                mse[j] += p * float(err @ err)
        fit = np.polyfit(grid, mse, 2)
        argmin = -fit[1] / (2.0 * fit[0])
        assert abs(argmin - moments.alpha_star) < 1e-6
        worst_gap = max(worst_gap, abs(argmin - moments.alpha_star))
        # three-term expansion, each trace recomputed independently (centered)
        e_x = sum(p * x for p, x in samples)
        ybars = [(p, Kinv @ x) for p, x in samples]
        e_yb = sum(p * yb for p, yb in ybars)
        tr_var_x = sum(p * float((x - e_x) @ (x - e_x)) for p, x in samples)
        tr_var_y = sum(p * float((yb - e_yb) @ (yb - e_yb)) for p, yb in ybars)
        tr_cov = sum(p * float((x - e_x) @ (yb - e_yb))
                     for (p, x), (_, yb) in zip(samples, ybars))
        for alpha in (0.0, 0.25, 0.7, 1.1):
            expansion = tr_var_x + alpha**2 * tr_var_y - 2 * alpha * tr_cov
            assert abs(moments.mse_curve(alpha) - expansion) <= 1e-10
    print(f"\nPASS criterion 3: alpha* matches parabola argmin to 1e-6 "
          f"(worst gap {worst_gap:.2e}) and the three-term MSE expansion to 1e-10")


def test_criterion_04_safe_step():
    # (a) spectral radius of I - alpha K^{-1} at the safe step
    rng = np.random.default_rng(104)
    for trial in range(20):
        g = random_connected_graph(int(rng.integers(5, 201)),
                                   extra_edges=int(rng.integers(0, 150)),
                                   rng=rng, weighted=bool(trial % 2))
        for q in (0.1, 1.0, 10.0):
            problem = SmoothingProblem(g, np.zeros(g.n), q)
            report = contraction_check(problem, 2.0 * q / (q + 2.0 * g.d_max))
            assert report.spectral_radius <= 1.0 + 1e-10, (trial, q)
    # (b) pathwise contraction over 10^3 draws
    draws = 0
    for trial in range(4):
        g = random_connected_graph(int(rng.integers(6, 40)),
                                   extra_edges=int(rng.integers(0, 40)),
                                   rng=rng, weighted=True)
        y = rng.standard_normal(g.n)
        q = float(rng.uniform(0.2, 3.0))
        problem = SmoothingProblem(g, y, q)
        xhat = solve_exact_dense(problem)
        alpha = safe_alpha(problem)
        for i in range(250):
            forest = sample_forest(g, q, forest_rng(104 + trial, i))
            xbar = xbar_from_forest(forest, problem)
            z = gradient_step(xbar, problem, alpha)
            assert np.linalg.norm(z - xhat) <= np.linalg.norm(xbar - xhat) * (1 + 1e-12)
            draws += 1
    assert draws >= 1000
    # (c) the safe step never increases the exact MSE
    for name, g in enumeration_corpus():
        y = rng.standard_normal(g.n)
        for q in (0.1, 1.0, 10.0):
            moments = exact_estimator_moments(g, q, y)
            a = safe_alpha(SmoothingProblem(g, y, q))
            assert moments.mse_curve(a) <= moments.mse_curve(0.0) + 1e-12, (name, q)
    print(f"\nPASS criterion 4: safe step contracts spectrally (20 graphs x 3 q), "
          f"pathwise over {draws} draws, and on the exact MSE parabola")


def test_criterion_05_sampler_law():
    t0 = time.perf_counter()
    n_draws = 100000
    pvalues = {}
    for name, g, seed in (("3-path", path_graph(3), 2),
                          ("triangle", cycle_graph(3), 2)):
        expected = enumerate_forests(g, np.ones(g.n)).probabilities()
        counts = {key: 0 for key in expected}
        stream = forest_rng(seed)
        for _ in range(n_draws):
            counts[forest_edge_key(sample_forest(g, 1.0, stream))] += 1
        keys = sorted(expected)
        result = stats.chisquare([counts[k] for k in keys],
                                 [n_draws * expected[k] for k in keys])
        pvalues[name] = result.pvalue
        assert result.pvalue >= 0.001, (name, result.pvalue)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 5: chi-square vs enumeration at {n_draws} draws, "
          f"p = {pvalues['3-path']:.3f} (3-path), {pvalues['triangle']:.3f} "
          f"(triangle) ({elapsed:.1f}s < 10s)")


def test_criterion_06_solver_agreement():
    rng = np.random.default_rng(106)
    worst = 0.0
    for trial in range(50):
        g = random_connected_graph(int(rng.integers(5, 201)),
                                   extra_edges=int(rng.integers(0, 200)),
                                   rng=rng, weighted=bool(trial % 2))
        y = rng.standard_normal(g.n)
        for q in (0.1, 1.0, 10.0):
            problem = SmoothingProblem(g, y, q)
            x_cg, _ = solve_exact_cg(problem)
            x_dense = solve_exact_dense(problem)
            rel = np.linalg.norm(x_cg - x_dense) / np.linalg.norm(x_dense)
            worst = max(worst, rel)
            assert rel < 1e-8, (trial, q)
    print(f"\nPASS criterion 6: CG matches dense solve on 50 graphs x 3 q "
          f"(worst relative gap {worst:.2e} < 1e-8)")


def test_criterion_07_alpha_sweep_replication():
    t0 = time.perf_counter()
    g = gen_graph("regular", n=1000, d=20, seed=71)
    assert g.m == 10000
    y = synthetic_signal(g, "gaussian", seed=72)
    a_safe = safe_alpha(SmoothingProblem(g, y, 1.0))
    grid = np.linspace(0.0, 2.5 * a_safe, 13)
    out = sweep_alpha(g, y, 1.0, grid, n_samples=10, realizations=200, seed=73)
    mse = np.array(out["mse_zbar"])
    fit = np.polyfit(grid, mse, 2)
    resid = mse - np.polyval(fit, grid)
    r2 = 1.0 - float(resid @ resid) / float(np.sum((mse - mse.mean()) ** 2))
    assert fit[0] > 0 and r2 >= 0.95
    assert out["mse_zbar_alpha_safe"] < out["mse_xbar"]

    g_ba = gen_graph("barabasi_albert", n=1000, k=10, seed=74)
    y_ba = synthetic_signal(g_ba, "gaussian", seed=75)
    out_ba = sweep_alpha(g_ba, y_ba, 1.0, np.array([0.0]), n_samples=10,
                         realizations=200, seed=76)
    assert out_ba["mse_zbar_alpha_hat"] < out_ba["mse_zbar_alpha_safe"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"\nPASS criterion 7: regular graph parabola R^2 = {r2:.4f} >= 0.95, "
          f"MSE(safe) {out['mse_zbar_alpha_safe']:.3f} < MSE(xbar) {out['mse_xbar']:.3f}; "
          f"BA MSE(emp) {out_ba['mse_zbar_alpha_hat']:.3f} < "
          f"MSE(safe) {out_ba['mse_zbar_alpha_safe']:.3f} ({elapsed:.0f}s < 300s)")


def test_criterion_08_monte_carlo_consistency():
    g = path_graph(3)
    y = np.array([8.0, 0.0, 0.0])
    problem = SmoothingProblem(g, y, 1.0)
    xhat = solve_exact_dense(problem)
    # decay of the mean's error across sample counts, averaged over streams
    reps, checkpoints = 30, (100, 1000, 10000)
    errs = np.zeros((reps, len(checkpoints)))
    for r in range(reps):
        stream = forest_rng(8000 + r)
        total = np.zeros(3)
        ci = 0
        for i in range(checkpoints[-1]):
            total += xbar_from_forest(sample_forest(g, 1.0, stream), problem)
            if i + 1 == checkpoints[ci]:
                errs[r, ci] = np.linalg.norm(total / (i + 1) - xhat)
                ci += 1
    mean_err = errs.mean(axis=0)
    slope = np.polyfit(np.log10(checkpoints), np.log10(mean_err), 1)[0]
    assert -0.65 <= slope <= -0.35
    # componentwise 4-standard-error band at N = 1e5
    n_big = 100000
    stream = forest_rng(8100)
    s = np.zeros(3)
    ss = np.zeros(3)
    for _ in range(n_big):
        xb = xbar_from_forest(sample_forest(g, 1.0, stream), problem)
        s += xb
        ss += xb * xb
    mean = s / n_big
    se = np.sqrt((ss / n_big - mean**2) / (n_big - 1))
    zscores = np.abs(mean - xhat) / se
    assert np.all(zscores <= 4.0)
    print(f"\nPASS criterion 8: log-log error slope {slope:.3f} in -0.5 +/- 0.15; "
          f"N=1e5 mean within {zscores.max():.2f} <= 4 standard errors componentwise")


def test_criterion_09_constant_signal_degeneracy(tmp_path):
    g = random_connected_graph(15, extra_edges=20, rng=np.random.default_rng(109),
                               weighted=True)
    y = np.full(g.n, 0.1)
    problem = SmoothingProblem(g, y, 0.7)
    for strategy, n in ((AlphaStrategy.fixed(0.9), 1),
                        (AlphaStrategy.fixed(0.9), 7),
                        (AlphaStrategy.safe(), 1),
                        (AlphaStrategy.safe(), 7),
                        (AlphaStrategy.empirical(), 2),
                        (AlphaStrategy.empirical(), 7)):
        result = run_monte_carlo(problem, n, strategy, seed=90)
        assert np.array_equal(result.estimate, y), (strategy.kind, n)
    result = run_monte_carlo(problem, 7, AlphaStrategy.empirical(), seed=90)
    assert result.diagnostics["zero_variance_fallback"] and result.alpha == 0.0
    # same behavior through the CLI
    gpath = tmp_path / "g.txt"
    save_graph(g, gpath)
    spath = tmp_path / "s.txt"
    spath.write_text("0.1\n" * g.n)
    out = tmp_path / "est.csv"
    assert cli_run(["smooth", "--graph", str(gpath), "--signal", str(spath),
                    "--q", "0.7", "--n-samples", "5", "--alpha", "empirical",
                    "--out", str(out)]) == 0
    values = [float(line.split(",")[1]) for line in
              out.read_text().strip().split("\n")[1:]]
    assert values == [0.1] * g.n
    print("\nPASS criterion 9: constant signal returned bit-exactly for every "
          "N and strategy; empirical path reports the zero-variance fallback")


def test_criterion_10_ssl(tmp_path):
    g = two_clique_graph(20)
    labels = np.array([0] * 20 + [1] * 20)
    template = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0)
    assert safe_alpha(SmoothingProblem(g, template.label_matrix()[:, 0],
                                       template.absorption())) == 0.4
    rows = accuracy_experiment(template, 1, repeats=100, n_samples=50, seed=110)
    acc = {r["method"]: r["mean_acc"] for r in rows}
    assert acc["exact"] >= 0.95
    assert acc["zbar_safe"] >= acc["xbar"]
    # forest scores converge to the exact scores
    fixed = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0,
                       labeled_set=np.array([3, 25]))
    exact = ssl_exact(fixed)
    forest = ssl_forest(fixed, 5000, AlphaStrategy.safe(), seed=111)
    agreement = float(np.mean(forest.predicted == exact.predicted))
    assert agreement >= 0.99
    assert np.max(np.abs(forest.F - exact.F)) < 0.05
    # citation-network-shaped inputs run end-to-end through the CLI
    g_cit = gen_graph("barabasi_albert", n=150, k=3, seed=112)
    gpath = tmp_path / "citations.txt"
    save_graph(g_cit, gpath)
    lpath = tmp_path / "labels.csv"
    lpath.write_text("".join(f"{i},{i % 3}\n" for i in range(150)))
    out = tmp_path / "acc.csv"
    assert cli_run(["ssl", "--graph", str(gpath), "--labels", str(lpath),
                    "--mu", "1.0", "--sigma", "0.0", "--n-samples", "10",
                    "--repeats", "5", "--labels-per-class", "2,5",
                    "--seed", "113", "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 9  # header + 2m x 4 methods
    print(f"\nPASS criterion 10: two-clique exact accuracy {acc['exact']:.3f} >= 0.95, "
          f"acc(zbar) {acc['zbar_safe']:.3f} >= acc(xbar) {acc['xbar']:.3f}, "
          f"argmax agreement {agreement:.3f} at N=5000; "
          f"citation-format files run end-to-end")


def test_criterion_11_determinism(tmp_path):
    g = random_connected_graph(20, extra_edges=30, rng=np.random.default_rng(115))
    gpath = tmp_path / "g.txt"
    save_graph(g, gpath)
    lpath = tmp_path / "labels.csv"
    lpath.write_text("".join(f"{i},{0 if i < 10 else 1}\n" for i in range(20)))
    invocations = {
        "gen-graph": ["gen-graph", "--gen", "ba:n=40,k=2", "--seed", "5"],
        "exact": ["exact", "--graph", str(gpath), "--signal", "gaussian",
                  "--q", "1.0", "--seed", "5", "--format", "json"],
        "smooth": ["smooth", "--graph", str(gpath), "--signal", "gaussian",
                   "--q", "1.0", "--n-samples", "8", "--alpha", "empirical",
                   "--seed", "5", "--format", "json"],
        "sweep-alpha": ["sweep-alpha", "--graph", str(gpath), "--signal", "gaussian",
                        "--q", "1.0", "--alpha-grid", "lin:0,0.4,6",
                        "--n-samples", "4", "--realizations", "6", "--seed", "5"],
        "denoise": ["denoise", "--graph", str(gpath), "--signal", "smooth",
                    "--noise-std", "0.2", "--q-grid", "log:0.1,5,4",
                    "--n-samples", "3", "--seed", "5"],
        "ssl": ["ssl", "--graph", str(gpath), "--labels", str(lpath),
                "--n-samples", "6", "--repeats", "4", "--labels-per-class", "1",
                "--seed", "5"],
    }
    for name, args in invocations.items():
        a = tmp_path / f"{name}-a.out"
        b = tmp_path / f"{name}-b.out"
        assert cli_run(args + ["--out", str(a)]) == 0, name
        assert cli_run(args + ["--out", str(b)]) == 0, name
        assert a.read_bytes() == b.read_bytes(), name
    # library-level: order-independent substreams give run-to-run identity
    problem = SmoothingProblem(g, synthetic_signal(g, "gaussian", seed=1), 1.0)
    r1 = run_monte_carlo(problem, 20, AlphaStrategy.empirical(), seed=9)
    r2 = run_monte_carlo(problem, 20, AlphaStrategy.empirical(), seed=9)
    assert np.array_equal(r1.estimate, r2.estimate)
    print(f"\nPASS criterion 11: byte-identical outputs for "
          f"{len(invocations)} subcommands and run-to-run identical estimates")
