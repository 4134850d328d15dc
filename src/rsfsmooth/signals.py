"""Signal file IO, synthetic test signals, and PSNR."""

import math

import numpy as np

from .errors import DataError, NumericalError
from .linalg import DENSE_LIMIT, LaplacianOperator

PSNR_MSE_FLOOR = 1e-15


def load_signal(path, n):
    """Load a length-n real signal.

    Accepts one value per line, or "node,value" CSV rows covering every
    node exactly once. '#' starts a comment.
    """
    plain, keyed = [], {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                if "," in line:
                    node_s, val_s = line.split(",")
                    keyed[int(node_s)] = float(val_s)
                else:
                    plain.append(float(line))
            except ValueError:
                raise DataError(f"{path}: line {lineno}: cannot parse {raw!r}") from None
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

    kind "gaussian": standard normal per node. kind "smooth": a
    low-frequency combination of the first few nontrivial Laplacian
    eigenvectors, scaled to peak amplitude 1. kind "constant": all nodes
    equal to `value`.
    """
    n = graph.n
    if kind == "gaussian":
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x516)))
        return rng.standard_normal(n)
    if kind == "smooth":
        if n > DENSE_LIMIT:
            raise DataError(f"smooth synthetic signal limited to n <= {DENSE_LIMIT}")
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
    return 10.0 * np.log10(peak**2 / max(mse, PSNR_MSE_FLOOR))
