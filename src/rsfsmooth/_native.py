"""The package's hot loops: the connectivity check of a new graph, the
forest draw and the walk tables it bisects, the estimator's tree averages
and accumulator update, the Laplacian apply, the conjugate-gradient passes
with their fixed-order dot product, plain CG's iterations in one call, the
passes and dense Cholesky solve of CG's multigrid preconditioner, and the
writer of a JSON output's float vectors.

They come in two sets of one type, `Kernels`: `compiled()`, the loops of
`_native.c`, compiled once into $XDG_CACHE_HOME/rsfsmooth (default
~/.cache/rsfsmooth) and loaded through `ctypes`, and `_twins.TWINS`, the
same loops in Python and numpy, which give the same results bit for bit.
`kernels()` is the one decision between them: the compiled set, or the
twins where the library cannot be built. Only then is `_twins` imported.
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
    """The loops of the connectivity check, the forest draw, the estimator,
    the Laplacian apply, CG and its multigrid preconditioner, and the JSON
    float writer, on contiguous arrays, writing only the arrays named
    below. A signal is a vector of n values or a block of k such columns,
    each contiguous (`columns`). Every dot product sums element i into lane
    i % 4, each lane from +0.0 in index order, and returns
    (s0 + s1) + (s2 + s3), so its bits depend on the inputs alone, not on
    the CPU or the BLAS."""

    wilson: Callable     # (g, q, key, position, max_steps, out) -> steps, or -1 past
                         # max_steps, after out = (root_of, parent_of) of one forest
    walk_tables: Callable  # (g) -> a new array of each row's running arc-weight sums
    components: Callable  # (n, u, v) -> the number of connected components of n
                          # vertices joined by the edges (u[e], v[e]): integer ids,
                          # any layout
    tree_averages: Callable  # (root_of, q, y) -> a new array of y's shape: each
                             # column's q-weighted averages over the forest's trees
    accumulate: Callable  # (count, x, ybar, mean_x, mean_y, m) -> None, after, per
                          # column c, mean_x += (x - mean_x) / count, likewise mean_y,
                          # and m[c] += (dx . (x - mean_x), dy . (ybar - mean_y),
                          # dx . (ybar - mean_y)), dx and dy taken before the update
    laplacian: Callable  # (g, v) -> L v of each column of v, a new array
    dot: Callable        # (a, b) -> a . b
    product: Callable    # (g, q, p, ap) -> p . ap, after ap = q p + L p
    residual: Callable   # (r, ap, a) -> r . r, after r -= a ap
    direction: Callable  # (x, p, r, a, b) -> None, after x += a p; p = r + b p
    plain: Callable      # (g, q, x, r, p, ap, rs, threshold, steps) -> (iterations, rs):
                         # plain CG iterations in place, each product, then residual with
                         # a = rs / p.Ap, then direction with b = rs_new / rs, from rs =
                         # r . r while sqrt(rs) > threshold and fewer than steps have run;
                         # stops where p.Ap is zero or not finite, with ap = A p, and
                         # then returns (-1 - the iterations run, p.Ap)
    # with A = q + L, winv = omega / diag(A) and lab the aggregate of each vertex:
    restrict: Callable   # (g, q, winv, b, x, lab, rc) -> None, after x = winv b;
                         # rc = 0; rc[lab[i]] += (b - A x)_i for i in index order
    prolong: Callable    # (g, q, winv, b, x, lab, ec, out) -> None, after
                         # x += ec[lab]; out = x + winv (b - A x)
    cholesky: Callable   # (a) -> None, after a = its lower Cholesky factor L, by columns
    solve: Callable      # (l, b) -> None, after b = (L L^T)^{-1} b, by columns
    float_reprs: Callable  # (v, sep) -> the text sep.join(map(float.__repr__, v)) of
                           # a finite float64 vector v, for an ASCII sep


_KERNELS = None  # the chosen set, decided on first use


def columns(a):
    """The k columns of an (n, k) block with contiguous columns, or the one
    column of an (n,) vector, as views."""
    return a.reshape(len(a), -1).T


def kernels():
    """The compiled set, or `_twins.TWINS` where the library cannot be built."""
    global _KERNELS
    if _KERNELS is None:
        _KERNELS = compiled()
        if _KERNELS is None:
            from ._twins import TWINS

            _KERNELS = TWINS
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

    def data(a):
        """Address of the buffer of a vector or a block with contiguous
        columns: address() of its transpose, or a.ctypes.data where a is
        read-only."""
        try:
            return address(a.T)
        except TypeError:
            return a.ctypes.data

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

    walk, apply, product, iterate, down, up = (
        bind(lib.wilson, lambda g: (g.indptr, g.indices, g.walk_tables())),
        bind(lib.laplacian, csr), bind(lib.cg_product, csr), bind(lib.cg_plain, csr),
        bind(lib.mg_restrict, csr), bind(lib.mg_prolong, csr))

    def wilson(g, q, key, position, max_steps, out):
        root_of = address(out)
        return walk(g)(address(q), key, position, max_steps, root_of, root_of + out.strides[0])

    def walk_tables(g):
        # through .ctypes.data: address() refuses the empty buffer of a graph with no arcs
        cum = np.empty(len(g.weights))
        lib.walk_tables(g.n, g.indptr.ctypes.data, g.weights.ctypes.data, cum.ctypes.data)
        return cum

    def components(n, u, v):
        # the loop reads u and v as contiguous int64, so any other layout or
        # type (np.nonzero's strided views of a 2-d array) is copied first,
        # and through .ctypes.data: address() refuses the empty buffers of a
        # graph with no edges
        u, v = (np.ascontiguousarray(a, dtype=np.int64) for a in (u, v))
        parent = np.empty(n, dtype=np.int64)
        return lib.components(n, len(u), u.ctypes.data, v.ctypes.data, parent.ctypes.data)

    def tree_averages(root_of, q, y):
        n, out = len(y), np.empty_like(y)
        work = np.empty(2 * n)  # held here: address() keeps no reference
        lib.tree_averages(n, y.size // n, data(root_of), data(q), data(y), address(work),
                          data(out))
        return out

    def accumulate(count, x, ybar, mean_x, mean_y, m):
        n = len(x)
        lib.accumulate(n, x.size // n, count, data(x), data(ybar), data(mean_x),
                       data(mean_y), address(m))

    def laplacian(g, v):
        out = np.empty_like(v)
        apply(g)(v.size // g.n, data(v), data(out))
        return out

    def plain(g, q, x, r, p, ap, rs, threshold, steps):
        rs = ctypes.c_double(rs)
        done = iterate(g)(q.ctypes.data, address(x), address(r), address(p), address(ap),
                          threshold, steps, ctypes.byref(rs))
        return done, rs.value

    def float_reprs(v, sep):
        # a repr takes at most 24 characters ("-1.2345678901234567e-308")
        v, sep = np.ascontiguousarray(v, dtype=np.float64), sep.encode("ascii")
        out = bytearray(len(v) * (24 + len(sep)) + 1)  # + 1: address() refuses b""
        size = lib.float_reprs(len(v), v.ctypes.data, sep, len(sep), address(out))
        return str(memoryview(out)[:size], "ascii")

    return Kernels(
        wilson=wilson,
        walk_tables=walk_tables,
        components=components,
        tree_averages=tree_averages,
        accumulate=accumulate,
        laplacian=laplacian,
        dot=lambda a, b: lib.dot(len(a), address(a), address(b)),
        product=lambda g, q, p, ap: product(g)(q.ctypes.data, address(p), address(ap)),
        residual=lambda r, ap, a: lib.cg_residual(len(r), address(r), address(ap), a),
        direction=lambda x, p, r, a, b: lib.cg_direction(len(x), address(x), address(p),
                                                         address(r), a, b),
        plain=plain,
        restrict=lambda g, q, winv, b, x, lab, rc: down(g)(
            address(q), address(winv), address(b), address(x), address(lab), len(rc),
            address(rc)),
        prolong=lambda g, q, winv, b, x, lab, ec, out: up(g)(
            address(q), address(winv), address(b), address(x), address(lab), address(ec),
            address(out)),
        cholesky=lambda a: lib.cholesky(len(a), address(a)),
        solve=lambda l, b: lib.cholesky_solve(len(b), address(l), address(b)),
        float_reprs=float_reprs)


def _build():
    """Compile `_native.c` into the cache, keyed by a 64-bit checksum
    (CRC-32 and Adler-32) of the source, the flags, the system and the
    machine, and load it, with the argument types of its functions
    declared. Returns None when there is no `cc`, or the library cannot be
    built, written or loaded. numpy has loaded zlib already; hashlib, and
    OpenSSL behind it, is left to the runs that load numpy.random."""
    import platform
    import shutil
    import zlib

    cc = shutil.which("cc")
    source = Path(__file__).with_name("_native.c")
    if cc is None or not source.is_file():
        return None
    text = source.read_bytes()
    key = b"\0".join([text, " ".join(_CFLAGS).encode(), platform.system().encode(),
                      platform.machine().encode()])
    try:
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "rsfsmooth"
        path = cache / f"native-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"
        if not path.is_file():
            _compile(cc, text, path)
        lib = ctypes.CDLL(str(path))
    except (OSError, RuntimeError):  # RuntimeError: no home
        return None
    i64, u64, f64, ptr = ctypes.c_int64, ctypes.c_uint64, ctypes.c_double, ctypes.c_void_p
    for name, argtypes, restype in (
            ("wilson", [i64, ptr, ptr, ptr, ptr, u64, u64, i64, ptr, ptr], i64),
            ("walk_tables", [i64, ptr, ptr, ptr], None),
            ("components", [i64, i64, ptr, ptr, ptr], i64),
            ("laplacian", [i64, ptr, ptr, ptr, i64, ptr, ptr], None),
            ("tree_averages", [i64, i64, ptr, ptr, ptr, ptr, ptr], None),
            ("accumulate", [i64, i64, i64, ptr, ptr, ptr, ptr, ptr], None),
            ("dot", [i64, ptr, ptr], f64),
            ("cg_product", [i64, ptr, ptr, ptr, ptr, ptr, ptr], f64),
            ("cg_residual", [i64, ptr, ptr, f64], f64),
            ("cg_direction", [i64, ptr, ptr, ptr, f64, f64], None),
            ("cg_plain", [i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, f64, i64,
                          ctypes.POINTER(f64)], i64),
            ("mg_restrict", [i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, i64, ptr], None),
            ("mg_prolong", [i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr], None),
            ("cholesky", [i64, ptr], None),
            ("cholesky_solve", [i64, ptr, ptr], None),
            ("float_reprs", [i64, ptr, ctypes.c_char_p, i64, ptr], i64)):
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    return lib


def _compile(cc, text, path):
    """Compile the C source `text` into the library `path`, or raise
    OSError. Only a cache miss comes here, so only it imports subprocess
    and tempfile: a cache hit's `import rsfsmooth.cli` plus `kernels()`
    takes 58.6 ms, against 60.8 ms with the build inline in `_build`
    (medians of 40 alternating processes, 2-core Xeon)."""
    import subprocess
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([cc, *_CFLAGS, "-x", "c", "-", "-o", tmp], input=text,
                       capture_output=True, check=True, timeout=120)
        os.replace(tmp, path)  # atomic: readers see the whole library or none
    except subprocess.SubprocessError as err:
        raise OSError(f"cannot compile {path.name}: {err}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
