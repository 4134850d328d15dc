"""Signal file IO, synthetic test signals, and PSNR."""

import math

import numpy as np

from .errors import DataError, NumericalError
from .graphs import _lines, _table
from .linalg import DENSE_LIMIT, LaplacianOperator

PSNR_MSE_FLOOR = 1e-15
PSNR_CONVENTION = ("psnr = 10 log10(peak^2 / mse), peak = max|clean signal|, "
                   f"mse floor {PSNR_MSE_FLOOR:g}")


def load_signal(path, n):
    """Load a length-n real signal.

    Accepts one value per line, or "node,value" CSV rows covering every
    node exactly once. '#' starts a comment.
    """
    table = _table(path, ",", ("f", "if"))
    if table is not None and len(table) == n:
        if len(table.dtype) == 1:
            return table["c0"].copy()
        if np.array_equal(np.sort(table["c0"]), np.arange(n)):
            y = np.empty(n)
            y[table["c0"]] = table["c1"]
            return y
    plain, keyed = [], {}
    for lineno, raw, parts in _lines(path, ",", "[node,]value", (1, 2)):
        try:
            if len(parts) == 1:
                plain.append(float(parts[0]))
                continue
            node, value = int(parts[0]), float(parts[1])
        except ValueError:
            raise DataError(f"{path}: line {lineno}: cannot parse {raw!r}") from None
        if node in keyed:
            raise DataError(f"{path}: line {lineno}: duplicate node {node}")
        keyed[node] = value
    if keyed and plain:
        raise DataError(f"{path}: mixed plain and node,value lines")
    if keyed:
        if sorted(keyed) != list(range(n)):
            raise DataError(f"{path}: node ids must cover 0..{n - 1} exactly once")
        return np.array([keyed[i] for i in range(n)])
    if len(plain) != n:
        raise DataError(f"{path}: expected {n} values, got {len(plain)}")
    return np.array(plain)


def synthetic_signal(graph, kind, seed=0, modes=3, value=1.0):
    """Generate a deterministic test signal on the graph's nodes.

    kind "gaussian": standard normal per node. kind "smooth" (n <=
    DENSE_LIMIT): a low-frequency combination of the first few nontrivial
    Laplacian eigenvectors, scaled to peak amplitude 1. kind "constant":
    all nodes equal to `value`.
    """
    n = graph.n
    if kind == "gaussian":
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x516)))
        return rng.standard_normal(n)
    if kind == "smooth":
        if n > DENSE_LIMIT:
            raise DataError(f"smooth signal needs n <= {DENSE_LIMIT} "
                            f"(a dense eigendecomposition), got n={n}")
        if not float(modes).is_integer() or not 1 <= modes < n:
            raise DataError(f"smooth signal needs an integer 1 <= modes < n, got {modes}")
        modes = int(modes)
        L = LaplacianOperator(graph).dense()
        _, vecs = np.linalg.eigh(L)
        x = np.zeros(n)
        for i in range(1, modes + 1):
            u = vecs[:, i]
            if u[np.argmax(np.abs(u))] < 0:  # fix eigenvector sign
                u = -u
            x += u / i
        return x / np.max(np.abs(x))
    if kind == "constant":
        return np.full(n, float(value))
    raise DataError(f"unknown synthetic signal kind {kind!r}")


def psnr(clean, estimate, peak=None):
    """Peak signal-to-noise ratio, 10 log10(peak^2 / MSE).

    `peak` defaults to max|clean|; the MSE is floored at 1e-15 so exact
    recovery reports a large finite value. A peak whose square overflows
    raises NumericalError.
    """
    clean = np.asarray(clean, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
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
