"""The numpy twins of the compiled loops of `_native`: the same loops in
Python and numpy, which give the same results bit for bit. `TWINS` is the
set `_native.kernels()` chooses where the library cannot be built; it is
imported only then, and by the tests that check the two sets against each
other.
"""

import functools
import itertools
import math

import numpy as np

from ._native import Kernels, columns
from .forests import _tree_averages


def _uniforms(key, start, count):
    """The stream's uniforms at positions start, ..., start + count - 1."""
    z = np.arange(start, start + count, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(key)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(11)).astype(np.float64) * 2.0**-53).tolist()


def _stream(key, start, chunk):
    """Uniforms from position start on, computed chunk by chunk."""
    while True:
        yield from _uniforms(key, start, chunk)
        start += chunk
        chunk *= 2


def _wilson_python(g, q, key, position, max_steps, out):
    """The C kernel's loop in Python, for machines where it cannot be
    built: same uniforms, same search, same forests. Fills `out` (root_of,
    parent_of, all -1 on entry) and returns the step count, or -1 past
    max_steps."""
    indptr, indices, cum = g.indptr.tolist(), g.indices.tolist(), g.walk_tables().tolist()
    q = q.tolist()
    root_of, parent = [-1] * len(q), [-1] * len(q)
    rand = _stream(key, position, max(len(q), 16)).__next__
    steps = 0
    for start in range(len(q)):
        u = start
        while root_of[u] < 0:
            if steps >= max_steps:
                return -1
            steps += 1
            lo, hi = indptr[u], indptr[u + 1]
            d = cum[hi - 1] if lo < hi else 0.0
            r = rand() * (q[u] + d)
            if r >= d:  # absorbed: u becomes a root
                root_of[u] = u
                parent[u] = -1
                break
            hi -= 1  # bisect_right over the row, capped at its last arc
            while lo < hi:
                mid = (lo + hi) // 2
                if r < cum[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            parent[u] = u = indices[lo]
        root = root_of[u]
        u = start
        while root_of[u] < 0:
            root_of[u] = root
            u = parent[u]
    out[0], out[1] = root_of, parent
    return steps


def _walk_tables_python(g):
    """The compiled walk-table loop in Python: each row's running sums of
    its arc weights in arc order. accumulate starts at the row's first
    weight, which is 0.0 plus it bit for bit."""
    w, bounds = g.weights.tolist(), g.indptr.tolist()
    return np.array([s for lo, hi in zip(bounds, bounds[1:])
                     for s in itertools.accumulate(w[lo:hi])], dtype=np.float64)


def _components_numpy(n, u, v):
    """The compiled union-find count in numpy, by hook and shortcut. Every
    vertex points at a label no larger than itself, at first itself. Each
    round hooks the larger label of every edge whose ends differ onto the
    smallest label across from it, then jumps pointers until each vertex
    points at a root; it ends when every edge lies within one label, and
    the roots left are the components."""
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        split = lu != lv
        if not split.any():
            return int(np.count_nonzero(label == np.arange(n)))
        np.minimum.at(label, np.maximum(lu, lv)[split], np.minimum(lu, lv)[split])
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _tree_averages_numpy(root_of, q, y):
    """The compiled tree averages: forests._tree_averages of each column."""
    out = np.empty_like(y)
    for src, dst in zip(columns(y), columns(out)):
        dst[:] = _tree_averages(root_of, q, src)
    return out


def _accumulate_numpy(count, x, ybar, mean_x, mean_y, m):
    """The compiled accumulator update over the whole block: the same
    means, and the 3k lane dots in one bincount over (dot, column, lane)
    keys, which adds each dot's terms in index order, from +0.0."""
    dx, dy = x - mean_x, ybar - mean_y
    mean_x += dx / count
    mean_y += dy / count
    n, k = len(x), x.size // len(x)
    terms = np.empty((3, k, n))
    xx, yy, xy = (t.T.reshape(x.shape) for t in terms)
    np.multiply(dx, x - mean_x, out=xx)
    np.multiply(dy, ybar - mean_y, out=yy)
    np.multiply(dx, ybar - mean_y, out=xy)
    s = np.bincount(_lanes(n, 3 * k), weights=terms.ravel(), minlength=12 * k).reshape(3, k, 4)
    m += ((s[..., 0] + s[..., 1]) + (s[..., 2] + s[..., 3])).T


def _arc_rows(g):
    """g._arc_rows in a writable copy, kept on the graph: np.bincount
    copies a read-only input on every call."""
    rows = vars(g).get("_twin_arc_rows")
    if rows is None:
        rows = g._twin_arc_rows = np.array(g._arc_rows)
    return rows


def _laplacian_bincount(g, v):
    """The compiled row loop in numpy, column by column, the same sums bit
    for bit: bincount adds each arc's w_ij (v_i - v_j) into its row in arc
    order, from +0.0. Cast to floats, since bincount returns ints where
    there is no arc."""
    if v.ndim == 2:
        out = np.empty_like(v)
        for src, dst in zip(columns(v), columns(out)):
            dst[:] = _laplacian_bincount(g, src)
        return out
    rows = _arc_rows(g)
    return np.bincount(rows, weights=g.weights * (v[rows] - v[g.indices]),
                       minlength=g.n).astype(np.float64, copy=False)


@functools.lru_cache(maxsize=8)
def _lanes(n, dots=1):
    """The key of each term of `dots` dot products of length n, laid end
    to end: 4 times its dot's rank plus its lane, i % 4 for its index i
    within the dot. Writable, because np.bincount copies a read-only input
    on every call."""
    i = np.arange(dots * n)
    return i // n * 4 + (i % n & 3)


def _dot_numpy(a, b):
    """The compiled dot in numpy: bincount adds each product into its
    lane in index order, from +0.0."""
    s0, s1, s2, s3 = np.bincount(_lanes(len(a)), weights=a * b, minlength=4).tolist()
    return (s0 + s1) + (s2 + s3)


def _product_numpy(g, q, p, ap):
    np.multiply(q, p, out=ap)
    ap += _laplacian_bincount(g, p)
    return _dot_numpy(p, ap)


def _residual_numpy(r, ap, a):
    r -= a * ap
    return _dot_numpy(r, r)


def _direction_numpy(x, p, r, a, b):
    x += a * p
    p *= b
    p += r  # r + b p: addition commutes exactly


def _plain_numpy(g, q, x, r, p, ap, rs, threshold, steps,
                 passes=(_product_numpy, _residual_numpy, _direction_numpy)):
    """The compiled plain CG loop: the three passes above, or the product,
    residual and direction `passes` given, in turn, with the same scalars
    and comparisons."""
    product, residual, direction = passes
    done = 0
    while done < steps and not math.sqrt(rs) <= threshold:
        pap = product(g, q, p, ap)
        if pap == 0.0 or not math.isfinite(pap):
            return -1 - done, pap
        a = rs / pap
        rs_new = residual(r, ap, a)
        direction(x, p, r, a, rs_new / rs)
        rs = rs_new
        done += 1
    return done, rs


def _residual_of(g, q, b, x):
    """b - (q x + L x), rounded as the compiled passes round it."""
    ax = q * x
    ax += _laplacian_bincount(g, x)
    return np.subtract(b, ax, out=ax)


def _restrict_numpy(g, q, winv, b, x, lab, rc):
    np.multiply(winv, b, out=x)
    # bincount adds in index order, from +0.0
    rc[:] = np.bincount(lab, weights=_residual_of(g, q, b, x), minlength=len(rc))


def _prolong_numpy(g, q, winv, b, x, lab, ec, out):
    x += ec[lab]
    res = _residual_of(g, q, b, x)
    res *= winv
    np.add(x, res, out=out)


def _cholesky_numpy(a):
    """The compiled factor by columns: column k is divided by its pivot's
    square root, then l_i l_j is taken off each later a_ij; np.outer forms
    the same products, and the entries above the diagonal are zeroed."""
    for k in range(len(a)):
        a[k, k] = np.sqrt(a[k, k])
        col = a[k + 1:, k]
        col /= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(col, col)
        a[k, k + 1:] = 0.0


def _solve_numpy(l, b):
    for k in range(len(b)):
        b[k] /= l[k, k]
        b[k + 1:] -= l[k + 1:, k] * b[k]
    for k in reversed(range(len(b))):
        b[k] /= l[k, k]
        b[:k] -= l[k, :k] * b[k]


TWINS = Kernels(_wilson_python, _walk_tables_python, _components_numpy,
                _tree_averages_numpy, _accumulate_numpy, _laplacian_bincount, _dot_numpy,
                _product_numpy, _residual_numpy, _direction_numpy, _plain_numpy,
                _restrict_numpy, _prolong_numpy, _cholesky_numpy, _solve_numpy)
