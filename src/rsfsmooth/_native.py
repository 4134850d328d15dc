"""The package's hot loops: the forest draw, the Laplacian apply, the
conjugate-gradient passes with their fixed-order dot product, and the
passes and dense Cholesky solve of CG's multigrid preconditioner.

They come in two sets of one type, `Kernels`: `compiled()`, the loops of
`_native.c`, compiled once into $XDG_CACHE_HOME/rsfsmooth (default
~/.cache/rsfsmooth) and loaded through `ctypes`, and `TWINS`, the same
loops in Python and numpy, which give the same results bit for bit.
`kernels()` is the one decision between them: the compiled set, or the
twins where the library cannot be built.
"""

import ctypes  # numpy imports it too
import functools
import os
import weakref
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno")


class Kernels(NamedTuple):
    """The loops of the forest draw, the Laplacian apply, CG, its multigrid
    preconditioner and the accumulator's co-moments, on contiguous arrays,
    writing only the arrays named below. Every dot product sums element i
    into lane i % 4, each lane from +0.0 in index order, and returns
    (s0 + s1) + (s2 + s3), so its bits depend on the inputs alone, not on
    the CPU or the BLAS."""

    wilson: Callable     # (g, q, key, position, max_steps, out) -> steps, or -1 past
                         # max_steps, after out = (root_of, parent_of) of one forest
    laplacian: Callable  # (g, v) -> L v, a new array
    dot: Callable        # (a, b) -> a . b
    product: Callable    # (g, q, p, ap) -> p . ap, after ap = q p + L p
    residual: Callable   # (r, ap, a) -> r . r, after r -= a ap
    direction: Callable  # (x, p, r, a, b) -> None, after x += a p; p = r + b p
    # with A = q + L, winv = omega / diag(A) and lab the aggregate of each vertex:
    restrict: Callable   # (g, q, winv, b, x, lab, rc) -> None, after x = winv b;
                         # rc = 0; rc[lab[i]] += (b - A x)_i for i in index order
    prolong: Callable    # (g, q, winv, b, x, lab, ec, out) -> None, after
                         # x += ec[lab]; out = x + winv (b - A x)
    cholesky: Callable   # (a) -> None, after a = its lower Cholesky factor L, by columns
    solve: Callable      # (l, b) -> None, after b = (L L^T)^{-1} b, by columns


_KERNELS = None  # the chosen set, decided on first use


def kernels():
    """The compiled set, or `TWINS` where the library cannot be built."""
    global _KERNELS
    if _KERNELS is None:
        _KERNELS = compiled() or TWINS
    return _KERNELS


@functools.cache
def compiled():
    """The set calling the library's loops, with each graph's arrays bound
    once, or None where the library cannot be built."""
    lib = _build()
    if lib is None:
        return None

    def address(a):
        """Address of a writable array's buffer; cheaper than a.ctypes.data."""
        return ctypes.addressof(ctypes.c_char.from_buffer(a))

    def bind(fn, graph_arrays):
        """A function of g returning `fn` with its leading arguments, g.n
        and the addresses of graph_arrays(g), filled in once per graph.
        The arrays must be ones g holds, so that they live as long as the
        binding."""
        bound = weakref.WeakKeyDictionary()

        def routine(g):
            if g not in bound:
                arrays = (a.ctypes.data for a in graph_arrays(g))
                bound[g] = functools.partial(fn, g.n, *arrays)
            return bound[g]

        return routine

    def csr(g):
        return g.indptr, g.indices, g.weights

    walk, apply, product, down, up = (
        bind(lib.wilson, lambda g: (g.indptr, g.indices, g.walk_tables())),
        bind(lib.laplacian, csr), bind(lib.cg_product, csr),
        bind(lib.mg_restrict, csr), bind(lib.mg_prolong, csr))

    def wilson(g, q, key, position, max_steps, out):
        root_of = address(out)
        return walk(g)(address(q), key, position, max_steps, root_of, root_of + out.strides[0])

    def laplacian(g, v):
        out = np.empty(g.n)
        apply(g)(v.ctypes.data, address(out))
        return out

    return Kernels(
        wilson=wilson,
        laplacian=laplacian,
        dot=lambda a, b: lib.dot(len(a), address(a), address(b)),
        product=lambda g, q, p, ap: product(g)(q.ctypes.data, address(p), address(ap)),
        residual=lambda r, ap, a: lib.cg_residual(len(r), address(r), address(ap), a),
        direction=lambda x, p, r, a, b: lib.cg_direction(len(x), address(x), address(p),
                                                         address(r), a, b),
        restrict=lambda g, q, winv, b, x, lab, rc: down(g)(
            address(q), address(winv), address(b), address(x), address(lab), len(rc),
            address(rc)),
        prolong=lambda g, q, winv, b, x, lab, ec, out: up(g)(
            address(q), address(winv), address(b), address(x), address(lab), address(ec),
            address(out)),
        cholesky=lambda a: lib.cholesky(len(a), address(a)),
        solve=lambda l, b: lib.cholesky_solve(len(b), address(l), address(b)))


def _build():
    """Compile `_native.c` into the cache, keyed by the sha256 of the
    source, the flags and the machine, and load it, with the argument
    types of its functions declared. Returns None when there is no `cc`,
    or the library cannot be built, written or loaded."""
    import hashlib
    import platform
    import shutil
    import subprocess
    import tempfile

    cc = shutil.which("cc")
    source = Path(__file__).with_name("_native.c")
    if cc is None or not source.is_file():
        return None
    text = source.read_bytes()
    tag = hashlib.sha256(b"\0".join([text, " ".join(_CFLAGS).encode(),
                                     platform.system().encode(),
                                     platform.machine().encode()])).hexdigest()
    try:
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "rsfsmooth"
        path = cache / f"native-{tag[:16]}.so"
        if not path.is_file():
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run([cc, *_CFLAGS, "-x", "c", "-", "-o", tmp], input=text,
                               capture_output=True, check=True, timeout=120)
                os.replace(tmp, path)  # atomic: readers see the whole library or none
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(path))
    except (OSError, RuntimeError, subprocess.SubprocessError):  # RuntimeError: no home
        return None
    i64, u64, f64, ptr = ctypes.c_int64, ctypes.c_uint64, ctypes.c_double, ctypes.c_void_p
    for name, argtypes, restype in (
            ("wilson", [i64, ptr, ptr, ptr, ptr, u64, u64, i64, ptr, ptr], i64),
            ("laplacian", [i64, ptr, ptr, ptr, ptr, ptr], None),
            ("dot", [i64, ptr, ptr], f64),
            ("cg_product", [i64, ptr, ptr, ptr, ptr, ptr, ptr], f64),
            ("cg_residual", [i64, ptr, ptr, f64], f64),
            ("cg_direction", [i64, ptr, ptr, ptr, f64, f64], None),
            ("mg_restrict", [i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, i64, ptr], None),
            ("mg_prolong", [i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr], None),
            ("cholesky", [i64, ptr], None),
            ("cholesky_solve", [i64, ptr, ptr], None)):
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    return lib


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


_SLOTS = weakref.WeakKeyDictionary()  # graph -> its arcs laid out for _laplacian_slots


def _arc_slots(g):
    """(perm, slots, rest) for `_laplacian_slots`: perm orders the rows by
    decreasing degree; slot t is (count, neighbours, weights) of the t-th
    arc of the first count rows of perm, for each offset t that
    `Graph._arc_offsets` takes one by one; rest holds the later arcs, in
    arc order, as (position in perm, row, neighbour, weight) arrays."""
    if g not in _SLOTS:
        perm, counts = g._arc_offsets
        starts = g.indptr[perm]
        arcs = [starts[:count] + t for t, count in enumerate(counts)]
        slots = [(len(a), g.indices[a], g.weights[a]) for a in arcs]
        rows = g._arc_rows
        later = np.flatnonzero(np.arange(2 * g.m) - g.indptr[rows] >= len(slots))
        position = np.empty(g.n, dtype=np.int64)
        position[perm] = np.arange(g.n)
        rest = (position[rows[later]], rows[later], g.indices[later], g.weights[later])
        _SLOTS[g] = perm, slots, rest
    return _SLOTS[g]


def _laplacian_slots(g, v):
    """The compiled row loop in numpy, the same sums bit for bit: each
    row's sum starts at +0.0 and adds its arcs in arc order. One add per
    slot extends the sums of all the rows it holds by one arc, and
    np.add.at, which adds in index order, the few rows' later arcs."""
    perm, slots, (position, rows, nbr, w) = _arc_slots(g)
    vp, out = v[perm], np.zeros(g.n)
    for count, slot_nbr, slot_w in slots:
        terms = vp[:count] - v[slot_nbr]
        terms *= slot_w
        out[:count] += terms
    if len(position):
        np.add.at(out, position, w * (v[rows] - v[nbr]))
    res = np.empty(g.n)
    res[perm] = out
    return res


@functools.lru_cache(maxsize=8)
def _lanes(n):
    """The lane of each of n indices, i % 4. Writable, because np.bincount
    copies a read-only input on every call."""
    return np.arange(n) & 3


def _dot_numpy(a, b):
    """The compiled dot in numpy: bincount adds each product into its
    lane in index order, from +0.0."""
    s0, s1, s2, s3 = np.bincount(_lanes(len(a)), weights=a * b, minlength=4).tolist()
    return (s0 + s1) + (s2 + s3)


def _product_numpy(g, q, p, ap):
    np.multiply(q, p, out=ap)
    ap += _laplacian_slots(g, p)
    return _dot_numpy(p, ap)


def _residual_numpy(r, ap, a):
    r -= a * ap
    return _dot_numpy(r, r)


def _direction_numpy(x, p, r, a, b):
    x += a * p
    p *= b
    p += r  # r + b p: addition commutes exactly


def _residual_of(g, q, b, x):
    """b - (q x + L x), rounded as the compiled passes round it."""
    ax = q * x
    ax += _laplacian_slots(g, x)
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


TWINS = Kernels(_wilson_python, _laplacian_slots, _dot_numpy, _product_numpy,
                _residual_numpy, _direction_numpy, _restrict_numpy, _prolong_numpy,
                _cholesky_numpy, _solve_numpy)
