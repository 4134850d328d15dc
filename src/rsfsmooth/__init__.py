"""Graph Tikhonov smoothing via random spanning forests.

The smoothed signal K y, K = (Q + L)^{-1} Q, is estimated without solving
the linear system: each random spanning forest draw averages the signal
over its trees (unbiased), and one gradient-descent step with a
well-chosen size cuts the estimator's variance at negligible cost.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it; a module is imported
# on the first access to one of its names, so `import rsfsmooth.cli`
# loads only what the CLI's commands import
_HOMES = {
    "DataError": "errors", "NumericalError": "errors",
    "AlphaStrategy": "estimators", "MonteCarloAccumulator": "estimators",
    "MonteCarloResult": "estimators", "gradient_step": "estimators",
    "resolve_alpha": "estimators", "run_monte_carlo": "estimators",
    "safe_alpha": "estimators", "xbar_from_forest": "estimators",
    "RootedForest": "forests", "derive_seed": "forests", "forest_rng": "forests",
    "sample_forest": "forests",
    "Graph": "graphs", "gen_graph": "graphs", "load_graph": "graphs",
    "load_positions": "graphs", "save_graph": "graphs",
    "LaplacianOperator": "linalg", "SmoothingProblem": "linalg",
    "apply_K_inverse": "linalg", "solve_exact_cg": "linalg",
    "ExactMoments": "oracle", "ForestDistribution": "oracle", "ForestFamily": "oracle",
    "enumerate_forests": "oracle", "exact_estimator_moments": "oracle",
    "load_signal": "signals", "psnr": "signals", "synthetic_signal": "signals",
    "ClassificationResult": "ssl", "SSLProblem": "ssl", "accuracy_experiment": "ssl",
    "load_labels": "ssl", "ssl_exact": "ssl", "ssl_forest": "ssl",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOMES})
