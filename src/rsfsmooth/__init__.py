"""Graph Tikhonov smoothing via random spanning forests.

The smoothed signal K y, K = (Q + L)^{-1} Q, is estimated without solving
the linear system: each random spanning forest draw averages the signal
over its trees (unbiased), and one gradient-descent step with a
well-chosen size cuts the estimator's variance at negligible cost.
"""

from .errors import DataError, NumericalError
from .estimators import (AlphaStrategy, MonteCarloAccumulator, MonteCarloResult,
                         gradient_step, resolve_alpha, run_monte_carlo, safe_alpha,
                         xbar_from_forest)
from .forests import RootedForest, derive_seed, forest_rng, sample_forest
from .graphs import Graph, gen_graph, load_graph, load_positions, save_graph
from .linalg import LaplacianOperator, SmoothingProblem, apply_K_inverse, solve_exact_cg
from .oracle import (ExactMoments, ForestDistribution, ForestFamily, enumerate_forests,
                     exact_estimator_moments)
from .signals import load_signal, psnr, synthetic_signal
from .ssl import (ClassificationResult, SSLProblem, accuracy_experiment,
                  load_labels, ssl_exact, ssl_forest)

__version__ = "0.1.0"

__all__ = [
    "AlphaStrategy", "ClassificationResult", "DataError",
    "ExactMoments", "ForestDistribution", "ForestFamily", "Graph",
    "LaplacianOperator", "MonteCarloAccumulator", "MonteCarloResult",
    "NumericalError", "RootedForest", "SSLProblem", "SmoothingProblem",
    "accuracy_experiment", "apply_K_inverse", "derive_seed", "enumerate_forests",
    "exact_estimator_moments", "forest_rng", "gen_graph", "gradient_step",
    "load_graph", "load_labels", "load_positions",
    "load_signal", "psnr", "resolve_alpha", "run_monte_carlo", "safe_alpha",
    "sample_forest", "save_graph", "solve_exact_cg",
    "ssl_exact", "ssl_forest", "synthetic_signal", "xbar_from_forest",
]
