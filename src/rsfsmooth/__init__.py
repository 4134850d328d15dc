"""Graph Tikhonov smoothing via random spanning forests.

The smoothed signal K y, K = (Q + L)^{-1} Q, is estimated without solving
the linear system: each random spanning forest draw averages the signal
over its trees (unbiased), and one gradient-descent step with a
well-chosen size cuts the estimator's variance at negligible cost.
"""

from .errors import DataError, NumericalError
from .estimators import (AlphaStrategy, EstimateSample, ExactMoments,
                         MonteCarloAccumulator, MonteCarloResult,
                         exact_estimator_moments, gradient_step, resolve_alpha,
                         run_monte_carlo, safe_alpha, xbar_from_forest)
from .forests import (ForestDistribution, ForestFamily, RootedForest,
                      derive_seed, enumerate_forests, forest_rng, sample_forest)
from .graphs import Graph, gen_graph, load_graph, load_positions, save_graph
from .linalg import (LaplacianOperator, SmoothingProblem, SpectralCheckReport,
                     apply_K_inverse, contraction_check, solve_exact_cg,
                     solve_exact_dense)
from .signals import load_signal, psnr, synthetic_signal
from .ssl import (ClassificationResult, SSLProblem, accuracy_experiment,
                  load_labeled_set, load_labels, ssl_exact, ssl_forest)

__version__ = "0.1.0"

__all__ = [
    "AlphaStrategy", "ClassificationResult", "DataError", "EstimateSample",
    "ExactMoments", "ForestDistribution", "ForestFamily", "Graph",
    "LaplacianOperator", "MonteCarloAccumulator", "MonteCarloResult",
    "NumericalError", "RootedForest", "SSLProblem", "SmoothingProblem",
    "SpectralCheckReport", "accuracy_experiment", "apply_K_inverse",
    "contraction_check", "derive_seed", "enumerate_forests",
    "exact_estimator_moments", "forest_rng", "gen_graph", "gradient_step",
    "load_graph", "load_labeled_set", "load_labels", "load_positions",
    "load_signal", "psnr", "resolve_alpha", "run_monte_carlo", "safe_alpha",
    "sample_forest", "save_graph", "solve_exact_cg", "solve_exact_dense",
    "ssl_exact", "ssl_forest", "synthetic_signal", "xbar_from_forest",
]
