"""Experiment drivers behind the CLI: step-size sweeps and denoising tables."""

import math

import numpy as np

from .errors import DataError, integer
from .estimators import (AlphaStrategy, accumulate_forests, check_draw_budget,
                         forest_estimates, resolve_alpha, safe_alpha)
from .forests import derive_seed, numpy_rng
from .linalg import SmoothingProblem, apply_K_inverse, solve_exact_cg
from .signals import psnr


def sweep_alpha(graph, y, q, alpha_grid, n_samples, realizations, seed=0):
    """Empirical squared error of the stepped estimator across a step grid.

    For each realization, draws n_samples forests once; the stepped
    estimate is linear in alpha, so the whole grid (and the safe and
    empirical step sizes) is evaluated from the same sample mean. Errors
    are measured against the conjugate-gradient solution and averaged
    over realizations. Returns a dict whose list entries hold one value
    per grid step and whose other entries are scalars.
    """
    alpha_grid = np.asarray(alpha_grid, dtype=np.float64)
    if alpha_grid.size == 0:
        raise DataError("alpha grid is empty")
    if not np.isfinite(alpha_grid).all():
        raise DataError(f"alpha grid values must be finite, got {alpha_grid.tolist()}")
    n_samples = integer(n_samples, "n_samples")
    realizations = integer(realizations, "realizations")
    empirical = AlphaStrategy.empirical()
    if realizations < 1 or n_samples < empirical.min_samples:
        raise DataError(f"need realizations >= 1 and n_samples >= {empirical.min_samples}")
    problem = SmoothingProblem(graph, y, q)
    check_draw_budget(graph, [(problem.q, realizations * n_samples)])
    xhat, _ = solve_exact_cg(problem)
    a_safe = safe_alpha(problem)

    # squared errors at the grid, then at 0 (xbar), the safe and the
    # empirical step; one row-wise sum for all, so that alpha = 0 on the
    # grid reproduces the xbar error bit for bit
    sq = np.zeros(alpha_grid.size + 3)
    alpha_hats = []
    for r in range(realizations):
        acc, _ = accumulate_forests(problem, n_samples, derive_seed(seed, 3, r))
        alpha_hat, _ = resolve_alpha(empirical, problem, acc)
        m_x = acc.mean_x
        corr = apply_K_inverse(problem, m_x) - y
        steps = np.concatenate([alpha_grid, [0.0, a_safe, alpha_hat]])
        errs = (m_x - xhat)[None, :] - steps[:, None] * corr[None, :]
        sq += (errs * errs).sum(axis=1)
        alpha_hats.append(alpha_hat)
    sq /= realizations

    from .oracle import exact_estimator_moments, in_enumeration_reach  # test-scale

    alpha_star = (exact_estimator_moments(graph, q, y).alpha_star
                  if in_enumeration_reach(graph) else None)
    return {
        "alphas": alpha_grid.tolist(),
        "mse_zbar": sq[:-3].tolist(),
        "mse_xbar": float(sq[-3]),
        "alpha_safe": a_safe,
        "alpha_hat_mean": float(np.mean(alpha_hats)),
        "mse_zbar_alpha_safe": float(sq[-2]),
        "mse_zbar_alpha_hat": float(sq[-1]),
        "alpha_star": alpha_star,
    }


def denoise_table(graph, clean, noise_std, q_grid, n_samples, seed=0):
    """PSNR of the noisy input and of each estimator across a q grid.

    One noisy signal (Gaussian noise on `clean`) is shared by the whole
    grid. At each q one pass of n_samples forests feeds a single
    accumulator, and a psnr_NAME column of each estimator of
    `forest_estimates` is read from it (the stepped estimate is linear in
    the step size). The empirical-step column is None when n_samples < 2.
    Returns a list of row dicts, in column order.
    """
    q_grid = np.asarray(q_grid, dtype=np.float64)
    if q_grid.size == 0 or (q_grid <= 0).any():
        raise DataError("q grid must be nonempty and positive")
    if not 0 <= noise_std < math.inf:
        raise DataError(f"noise standard deviation must be finite and >= 0, got {noise_std!r}")
    clean = np.asarray(clean, dtype=np.float64)
    y = clean + noise_std * numpy_rng(seed, 4).standard_normal(graph.n)
    peak = float(np.max(np.abs(clean)))
    psnr_noisy = psnr(clean, y, peak=peak)
    check_draw_budget(graph, [(qv, n_samples) for qv in q_grid])

    rows = []
    for qi, qv in enumerate(q_grid):
        problem = SmoothingProblem(graph, y, float(qv))
        acc, _ = accumulate_forests(problem, n_samples, derive_seed(seed, 5, qi))
        xhat, _ = solve_exact_cg(problem)
        rows.append({
            "q": float(qv),
            "psnr_noisy": psnr_noisy,
            "psnr_exact": psnr(clean, xhat, peak=peak),
            **{f"psnr_{name}": None if x is None else psnr(clean, x, peak=peak)
               for name, x in forest_estimates(problem, acc).items()},
        })
    return rows
