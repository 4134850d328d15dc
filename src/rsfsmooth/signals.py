"""Signal file IO, synthetic test signals, and PSNR."""

import math

import numpy as np

from . import _native
from .errors import DataError, NumericalError
from .forests import numpy_rng
from .graphs import _read_table, _repeats, check_keys
from .linalg import SmoothingProblem, solve_exact_cg

PSNR_MSE_FLOOR = 1e-15
PSNR_CONVENTION = ("psnr = 10 log10(peak^2 / mse), peak = max|clean signal|, "
                   f"mse floor {PSNR_MSE_FLOOR:g}")


def load_signal(path, n):
    """Load a length-n real signal.

    Accepts one value per line, or "node,value" CSV rows covering every
    node exactly once. '#' starts a comment.
    """
    table = _read_table(path, ",", "[node,]value", ("-f", "if"))
    node, value = table.columns
    keyed = table.width == 2
    repeat = np.zeros(len(node), dtype=bool)
    repeat[keyed] = _repeats(node[keyed])
    table.check((repeat, lambda i, raw: f"duplicate node {node[i]}"))
    if keyed.any() and not keyed.all():
        raise DataError(f"{path}: mixed plain and node,value lines")
    if keyed.any():
        if not np.array_equal(np.sort(node), np.arange(n)):
            raise DataError(f"{path}: node ids must cover 0..{n - 1} exactly once")
        y = np.empty(n)
        y[node.astype(np.int64)] = value
        return y
    if len(value) != n:
        raise DataError(f"{path}: expected {n} values, got {len(value)}")
    return value


# the keys each synthetic signal kind takes
SIGNAL_KEYS = {"gaussian": (), "smooth": (), "constant": ("value",)}


def synthetic_signal(graph, kind, seed=0, **params):
    """Generate a deterministic test signal on the graph's nodes.

    kind "gaussian": standard normal per node. kind "smooth": the
    gaussian of the same seed, minus its mean, smoothed by K at q = 0.01
    times the mean degree (one CG solve) and scaled to peak amplitude 1.
    kind "constant": all nodes equal to `value`, 1 by default. A key passed
    as None counts as absent, any other the kind lacks (`SIGNAL_KEYS`) refused.
    """
    if kind not in SIGNAL_KEYS:
        raise DataError(f"unknown synthetic signal kind {kind!r}")
    params = check_keys(f"{kind} signal", params, SIGNAL_KEYS[kind])
    n = graph.n
    if kind == "gaussian":
        return numpy_rng(seed, 0x516).standard_normal(n)
    if kind == "smooth":
        if n < 2:
            raise DataError("smooth signal needs n >= 2")
        # both means in the kernels' fixed lanes, and K by CG: one result on every CPU
        dot, ones = _native.kernels().dot, np.ones(n)
        g = synthetic_signal(graph, "gaussian", seed)
        g -= dot(g, ones) / n
        q = 0.01 * dot(np.array(graph.degrees), ones) / n
        x, _ = solve_exact_cg(SmoothingProblem(graph, g, q))
        return x / np.max(np.abs(x))
    return np.full(n, float(params.get("value", 1.0)))  # constant


def psnr(clean, estimate, peak=None):
    """Peak signal-to-noise ratio, 10 log10(peak^2 / MSE).

    `peak` defaults to max|clean|; the MSE is floored at 1e-15 so exact
    recovery reports a large finite value. Signals of two shapes raise
    DataError, and a peak whose square overflows NumericalError.
    """
    clean = np.asarray(clean, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if clean.shape != estimate.shape:
        raise DataError(f"PSNR needs signals of one shape, got {clean.shape} and {estimate.shape}")
    peak = float(np.max(np.abs(clean)) if peak is None else peak)
    if peak <= 0:
        raise DataError("PSNR is undefined for an all-zero clean signal")
    if not math.isfinite(peak * peak):
        raise NumericalError(f"PSNR peak {peak:g} overflows when squared")
    mse = float(np.mean((clean - estimate) ** 2))
    ratio = peak**2 / max(mse, PSNR_MSE_FLOOR)
    # math.log10 is the C library's: numpy's log10 picks a SIMD kernel by
    # CPU, and its last bit with it
    return -math.inf if ratio == 0.0 else 10.0 * math.log10(ratio)
