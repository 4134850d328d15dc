"""Output checks for the benchmark workloads.

Each checker takes the parsed JSON the command wrote and raises
`CheckFailed` with a reason when the output is wrong. None of them calls
into rsfsmooth: the exact-grid reference is a direct sparse solve.
"""

import math

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve


class CheckFailed(Exception):
    """The command's output is wrong."""


def _require(cond, reason):
    if not cond:
        raise CheckFailed(reason)


def _finite(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def reference_smooth(n, edges, q, y):
    """Solve (qI + L) x = q y with a sparse direct solver.

    `edges` is an (m, 3) array of undirected (u, v, w) rows, each edge
    listed once; L = D - W is assembled from it here.
    """
    edges = np.asarray(edges, dtype=np.float64)
    u = edges[:, 0].astype(np.int64)
    v = edges[:, 1].astype(np.int64)
    w = edges[:, 2]
    adj = sparse.coo_matrix((np.concatenate([w, w]),
                             (np.concatenate([u, v]), np.concatenate([v, u]))),
                            shape=(n, n)).tocsr()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    a = sparse.diags(q + deg) - adj
    return spsolve(a.tocsc(), q * np.asarray(y, dtype=np.float64))


def check_exact(out, x_ref, rel_tol=1e-6):
    """exact: the estimate matches the direct solve.

    CG stops at a relative residual of 1e-10; with q = 0.001 on a grid the
    condition number is about 8000, so the error bound is near 1e-6.
    """
    est = out.get("estimate")
    _require(isinstance(est, list) and len(est) == len(x_ref),
             f"estimate has {len(est) if isinstance(est, list) else 'no'} values, "
             f"expected {len(x_ref)}")
    _require(all(_finite(v) for v in est), "estimate has a non-finite value")
    est = np.asarray(est, dtype=np.float64)
    err = float(np.linalg.norm(est - x_ref) / np.linalg.norm(x_ref))
    _require(err <= rel_tol, f"relative error {err:.3e} against spsolve exceeds {rel_tol:g}")
    iterations = out.get("diagnostics", {}).get("iterations")
    _require(isinstance(iterations, int) and iterations >= 1,
             f"bad CG iteration count {iterations!r}")
    return {}


def check_sweep(out, q, d_max, n_alphas):
    """sweep-alpha: alpha = 0 reproduces the plain average, the safe step
    is 2q / (q + 2 d_max), and the empirical step cuts the error.

    Returns {"var_ratio": mse_zbar_alpha_hat / mse_xbar}.
    """
    alphas, mse = out.get("alphas"), out.get("mse_zbar")
    _require(isinstance(alphas, list) and isinstance(mse, list)
             and len(alphas) == len(mse) == n_alphas,
             f"expected {n_alphas} alphas and mse_zbar values")
    _require(all(_finite(v) and v >= 0 for v in mse), "mse_zbar has a bad value")
    mse_xbar = out.get("mse_xbar")
    _require(_finite(mse_xbar) and mse_xbar > 0, f"bad mse_xbar {mse_xbar!r}")
    _require(alphas[0] == 0.0, f"first alpha is {alphas[0]!r}, not 0")
    _require(abs(mse[0] - mse_xbar) <= 1e-9 * mse_xbar,
             f"mse_zbar at alpha=0 ({mse[0]!r}) differs from mse_xbar ({mse_xbar!r})")
    safe = 2.0 * q / (q + 2.0 * d_max)
    got = out.get("alpha_safe")
    _require(_finite(got) and abs(got - safe) <= 1e-12 * safe,
             f"alpha_safe {got!r}, expected {safe!r}")
    hat = out.get("mse_zbar_alpha_hat")
    _require(_finite(hat) and hat > 0, f"bad mse_zbar_alpha_hat {hat!r}")
    ratio = hat / mse_xbar
    _require(ratio < 1.0, f"variance ratio {ratio:.4f} is not below 1")
    return {"var_ratio": ratio}


SSL_METHODS = ("exact", "xbar", "zbar_safe", "zbar_empirical")


def check_ssl(out, m_values, n_classes):
    """ssl: one row per (m, method), accuracies in [0, 1], and the exact
    classifier beats chance."""
    rows = out.get("rows")
    _require(isinstance(rows, list), "no rows")
    want = {(m, meth) for m in m_values for meth in SSL_METHODS}
    got = {(r.get("m"), r.get("method")) for r in rows}
    _require(len(rows) == len(want) and got == want,
             f"rows {sorted(got)} do not match {sorted(want)}")
    for r in rows:
        acc, std = r.get("mean_acc"), r.get("std_acc")
        _require(_finite(acc) and 0.0 <= acc <= 1.0, f"accuracy {acc!r} outside [0, 1]")
        _require(_finite(std) and std >= 0.0, f"bad std_acc {std!r}")
        if r["method"] == "exact":
            _require(acc > 1.0 / n_classes,
                     f"exact accuracy {acc!r} at m={r['m']} is not above chance")
    return {}


DENOISE_COLUMNS = ("q", "psnr_noisy", "psnr_exact", "psnr_xbar",
                   "psnr_zbar_safe", "psnr_zbar_empirical")


def check_denoise(out, n_q):
    """denoise: every cell finite, and exact smoothing beats the noisy input
    somewhere on the q grid."""
    rows = out.get("rows")
    _require(isinstance(rows, list) and len(rows) == n_q, f"expected {n_q} rows")
    for r in rows:
        for col in DENOISE_COLUMNS:
            _require(_finite(r.get(col)), f"cell {col}={r.get(col)!r} is not finite")
    best = max(r["psnr_exact"] for r in rows)
    noisy = rows[0]["psnr_noisy"]
    _require(best > noisy, f"exact PSNR peaks at {best:.3f}, not above noisy {noisy:.3f}")
    return {}
