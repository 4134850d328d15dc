"""The public library's argument contract: an invalid count, seed, key,
shape or label ends in one of the package's two errors, with one line,
before any work is done; a key passed as None counts as absent."""

import numpy as np
import pytest

from rsfsmooth import (AlphaStrategy, DataError, MonteCarloAccumulator, NumericalError,
                       SSLProblem, SmoothingProblem, accuracy_experiment, derive_seed,
                       forest_rng, gen_graph, psnr, run_monte_carlo, synthetic_signal)
from rsfsmooth.experiments import sweep_alpha

from conftest import cycle_graph

G = cycle_graph(8)
LABELS = np.array([0, 0, 0, 0, 1, 1, 1, 1])


def ssl_problem():
    return SSLProblem(graph=G, labels=LABELS, mu=1.0, sigma=0.0)


def smoothing_problem():
    return SmoothingProblem(G, np.arange(8.0), 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: run_monte_carlo(smoothing_problem(), 2.5, AlphaStrategy.safe()),
     "n_samples must be an integer, got 2.5"),
    (lambda: accuracy_experiment(ssl_problem(), 1, 2.5), "repeats must be an integer, got 2.5"),
    (lambda: sweep_alpha(G, np.arange(8.0), 1.0, [0.0, 0.5], n_samples=2.5, realizations=2),
     "n_samples must be an integer, got 2.5"),
    (lambda: derive_seed(-1, 0), "seed must be non-negative"),
    (lambda: synthetic_signal(G, "gaussian", seed=-1), "seed must be non-negative"),
    (lambda: forest_rng(1.5, 0), "seed must be an integer, got 1.5"),
    (lambda: accuracy_experiment(ssl_problem(), [], 2),
     "labels_per_class needs at least one count"),
    (lambda: accuracy_experiment(ssl_problem(), 1.5, 2),
     "labels_per_class must be an integer, got 1.5"),
    (lambda: gen_graph("grid", rows=2, cols=2, coords=np.zeros((4, 2))),
     "unknown grid generator key 'coords' (it takes rows, cols, n)"),
    (lambda: gen_graph("regular", n=10, d=3, x=1),
     "unknown regular generator key 'x' (it takes n, d)"),
    (lambda: gen_graph("knn", coords=5, k=1),
     "knn model needs k and coords, an (n, d) array of points"),
    (lambda: psnr(np.ones(3), np.zeros(4)), "PSNR needs signals of one shape, got (3,) and (4,)"),
    (lambda: MonteCarloAccumulator(0), "an accumulator needs n >= 1 and k >= 1, got n=0, k=None"),
    (lambda: SSLProblem(graph=G, labels=LABELS + 0.5, mu=1.0, sigma=0.0),
     "labels must be integer class ids"),
], ids=["mc-samples", "ssl-repeats", "sweep-samples", "derive-negative-seed",
        "signal-negative-seed", "forest-rng-seed", "ssl-no-counts", "ssl-count",
        "grid-coords", "regular-key", "knn-coords", "psnr-shapes", "empty-accumulator",
        "ssl-labels"])
def test_an_invalid_argument_raises_a_package_error_of_one_line(call, message):
    with pytest.raises((DataError, NumericalError)) as err:
        call()
    assert str(err.value) == message


def test_a_key_passed_as_none_counts_as_absent():
    for model, params in [("grid", dict(rows=2, cols=3)), ("regular", dict(n=10, d=3)),
                          ("ba", dict(n=10, k=2))]:
        plain = gen_graph(model, seed=4, **params)
        nones = {key: None for key in ("n", "d", "k", "rows", "cols", "coords")
                 if key not in params}
        given = gen_graph(model, seed=4, **params, **nones)
        assert list(given.edges()) == list(plain.edges()), model
    for kind in ("gaussian", "smooth", "constant"):
        assert np.array_equal(synthetic_signal(G, kind, seed=3, value=None),
                              synthetic_signal(G, kind, seed=3)), kind
