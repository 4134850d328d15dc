"""The package's compiled loops, `_native.c`: the forest draw, the
Laplacian apply, and the conjugate-gradient passes with their fixed-order
dot product.

`library()` compiles the source once into $XDG_CACHE_HOME/rsfsmooth
(default ~/.cache/rsfsmooth), loads it through `ctypes` and returns it, or
returns None where it cannot be built. That is the one decision between
the compiled loops and their twins in Python and numpy, which give the
same results bit for bit: `forests._wilson_python` and the numpy kernels
of `linalg._NUMPY`.
"""

import ctypes  # numpy imports it too
import functools
import os
import weakref
from pathlib import Path

_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_UNSET = object()
_LIBRARY = _UNSET  # the loaded library or None, decided on first use


def library():
    """The loaded library, with the argument types of its functions
    declared, or None where it cannot be built."""
    global _LIBRARY
    if _LIBRARY is _UNSET:
        _LIBRARY = _build()
    return _LIBRARY


def address(a):
    """Address of a writable array's buffer; cheaper than a.ctypes.data."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def bind(fn, graph_arrays):
    """A function of g returning `fn` with its leading arguments, g.n and
    the addresses of graph_arrays(g), filled in once per graph. The arrays
    must be ones g holds, so that they live as long as the binding."""
    bound = weakref.WeakKeyDictionary()

    def routine(g):
        if g not in bound:
            bound[g] = functools.partial(fn, g.n, *(a.ctypes.data for a in graph_arrays(g)))
        return bound[g]

    return routine


def _build():
    """Compile `_native.c` into the cache, keyed by the sha256 of the
    source, the flags and the machine, and load it. Returns None when
    there is no `cc`, or the library cannot be built, written or loaded."""
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
            ("cg_direction", [i64, ptr, ptr, ptr, f64, f64], None)):
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    return lib
