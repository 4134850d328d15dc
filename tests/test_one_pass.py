"""The experiment functions draw each forest once per cell and still match
separate per-strategy runs bit for bit."""

import numpy as np
import pytest

import rsfsmooth.estimators as estimators
from rsfsmooth import (AlphaStrategy, SSLProblem, SmoothingProblem,
                       accuracy_experiment, derive_seed, psnr, run_monte_carlo,
                       ssl_exact, ssl_forest)
from rsfsmooth.experiments import denoise_table

from conftest import random_connected_graph, two_clique_graph


@pytest.fixture
def draw_counter(monkeypatch):
    calls = []
    sample = estimators.sample_forest

    def counting(*args, **kwargs):
        calls.append(1)
        return sample(*args, **kwargs)

    monkeypatch.setattr(estimators, "sample_forest", counting)
    return calls


def test_denoise_matches_separate_runs(draw_counter):
    g = random_connected_graph(30, extra_edges=40, rng=np.random.default_rng(3),
                               weighted=True)
    clean = np.random.default_rng(4).standard_normal(g.n)
    q_grid, n_samples, seed, noise_std = [0.2, 1.0, 5.0], 4, 17, 0.3
    rows = denoise_table(g, clean, noise_std, q_grid, n_samples, seed=seed)
    assert len(draw_counter) == len(q_grid) * n_samples

    noise = np.random.default_rng(np.random.SeedSequence((seed, 4))).standard_normal(g.n)
    y = clean + noise_std * noise
    peak = float(np.max(np.abs(clean)))
    for qi, (qv, row) in enumerate(zip(q_grid, rows)):
        problem = SmoothingProblem(g, y, qv)
        sub = derive_seed(seed, 5, qi)
        for column, strategy in (("psnr_xbar", AlphaStrategy.fixed(0.0)),
                                 ("psnr_zbar_safe", AlphaStrategy.safe()),
                                 ("psnr_zbar_empirical", AlphaStrategy.empirical())):
            res = run_monte_carlo(problem, n_samples, strategy, seed=sub)
            assert row[column] == psnr(clean, res.estimate, peak=peak), (qv, column)


def test_accuracy_experiment_matches_separate_runs(draw_counter):
    g = two_clique_graph(15)
    labels = np.array([0] * 15 + [1] * 15)
    problem = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0)
    repeats, n_samples, seed, m = 3, 6, 21, 1
    rows = accuracy_experiment(problem, m, repeats, n_samples=n_samples, seed=seed)
    assert len(draw_counter) == repeats * n_samples

    strategies = {"xbar": AlphaStrategy.fixed(0.0), "zbar_safe": AlphaStrategy.safe(),
                  "zbar_empirical": AlphaStrategy.empirical()}
    scores = {method: [] for method in ("exact", *strategies)}
    members = [np.flatnonzero(labels == c) for c in range(problem.k)]
    for r in range(repeats):
        pick_rng = np.random.default_rng(np.random.SeedSequence((seed, 1, r)))
        labeled = np.concatenate([pick_rng.choice(mem, size=m, replace=False)
                                  for mem in members])
        sub = SSLProblem(graph=g, labels=labels, mu=1.0, sigma=0.0, labeled_set=labeled)
        scores["exact"].append(ssl_exact(sub).accuracy)
        for method, strategy in strategies.items():
            result = ssl_forest(sub, n_samples, strategy, seed=derive_seed(seed, 2, r))
            scores[method].append(result.accuracy)
    assert rows == [{"m": m, "method": method, "mean_acc": float(np.mean(accs)),
                     "std_acc": float(np.std(accs))} for method, accs in scores.items()]
