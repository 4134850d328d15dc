"""The compiled Wilson kernel against its Python twin, the counter-based
stream, the walk tables, the estimator's loops, the float writer, and how
the kernels are built, cached and chosen."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsfsmooth
from rsfsmooth import _native, _twins
from rsfsmooth import (DataError, Graph, NumericalError, SmoothingProblem, derive_seed,
                       forest_rng, forests, gen_graph, sample_forest)
from rsfsmooth.cli import run

from conftest import (kernel_sets, path_graph, random_connected_graph, star_graph,
                      using_kernels)

HAS_CC = shutil.which("cc") is not None


def compiled():
    return _native.compiled().wilson


def draw(kernel, g, q, stream, max_steps=forests.DEFAULT_STEP_BUDGET):
    """sample_forest with the given draw function in place of the loaded one."""
    with using_kernels(_native.kernels()._replace(wilson=kernel)):
        return sample_forest(g, q, stream, max_steps=max_steps)


@st.composite
def walk_cases(draw_):
    """A connected weighted graph on 2 to 9 vertices, scalar or per-vertex
    q, and a stream key and starting position."""
    n = draw_(st.integers(2, 9))
    edges = {(draw_(st.integers(0, v - 1)), v) for v in range(1, n)}  # a spanning tree
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw_(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    weights = draw_(st.lists(st.floats(0.01, 50.0), min_size=len(edges), max_size=len(edges)))
    g = Graph.from_edges(n, [(u, v, w) for (u, v), w in zip(sorted(edges), weights)])
    qs = st.floats(0.001, 20.0)
    q = draw_(qs) if draw_(st.booleans()) else np.array(draw_(st.lists(qs, min_size=n,
                                                                       max_size=n)))
    return g, q, draw_(st.integers(0, 2**64 - 1)), draw_(st.integers(0, 2**48))


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=walk_cases(), n_draws=st.integers(1, 5))
def test_kernel_matches_python_loop(case, n_draws):
    g, q, key, position = case
    fast, slow = forests.CounterStream(key, position), forests.CounterStream(key, position)
    for _ in range(n_draws):
        a, b = draw(compiled(), g, q, fast), draw(_twins._wilson_python, g, q, slow)
        assert np.array_equal(a.root_of, b.root_of)
        assert np.array_equal(a.parent_of, b.parent_of)
        assert a.rng_draws == b.rng_draws
        assert fast.position == slow.position
    # the step budget: the next draw fails at one step short of its length,
    # in both, leaving both streams where they were
    steps = draw(compiled(), g, q, forests.CounterStream(key, fast.position)).rng_draws
    for kernel, stream in ((compiled(), fast), (_twins._wilson_python, slow)):
        before = stream.position
        with pytest.raises(NumericalError, match="step budget"):
            draw(kernel, g, q, stream, max_steps=steps - 1)
        assert stream.position == before
        assert draw(kernel, g, q, stream, max_steps=steps).rng_draws == steps


def test_uniform_is_splitmix64():
    # splitmix64 seeded with 0 first outputs 0xE220A8397B1DCDAF
    assert _twins._uniforms(0, 1, 1) == [(0xE220A8397B1DCDAF >> 11) * 2.0**-53]
    chunked = _twins._stream(12345, 7, 3)
    assert [next(chunked) for _ in range(10)] == _twins._uniforms(12345, 7, 10)


def test_stream_position_advances_by_draws():
    g = random_connected_graph(30, extra_edges=20, rng=np.random.default_rng(3))
    stream = forest_rng(4, 1)
    first = sample_forest(g, 0.5, stream)
    assert stream.position == first.rng_draws
    second = sample_forest(g, 0.5, stream)
    assert stream.position == first.rng_draws + second.rng_draws
    again = forests.CounterStream(stream.key, first.rng_draws)
    assert np.array_equal(sample_forest(g, 0.5, again).parent_of, second.parent_of)


@pytest.mark.parametrize("seed,key", [(0, ()), (0, (0,)), (7, (3, 1)), (2**40 + 5, (2, 9, 4))])
def test_stream_key_is_derive_seed(seed, key):
    assert forest_rng(seed, *key).key == derive_seed(seed, *key)


@pytest.mark.parametrize("q", [np.nan, np.inf, -1.0, [1.0, np.nan, 1.0], [1.0, 1.0]])
def test_bad_q_rejected(p3, q):
    with pytest.raises(DataError, match="absorption weights"):
        sample_forest(p3, q, forest_rng(0, 0))


def weighted_hubs():
    """Hubs of many degrees, with weights whose running sums round."""
    g = gen_graph("barabasi_albert", n=2000, k=2, seed=3)
    w = np.random.default_rng(5).uniform(0.1, 10.0, g.m)
    return Graph.from_edges(g.n, [(u, v, x) for (u, v, _), x in zip(g.edges(), w)])


@pytest.mark.parametrize("make", [
    lambda: path_graph(5, weights=[0.1, 0.7, 3.3, 1e-9]),
    lambda: star_graph(40),
    lambda: random_connected_graph(60, extra_edges=300, rng=np.random.default_rng(8),
                                   weighted=True),
    lambda: gen_graph("barabasi_albert", n=300, k=3, seed=2),
    weighted_hubs,
    lambda: Graph.from_edges(1, []),
])
def test_walk_tables_are_rowwise_cumsums(make):
    # a fresh graph per kernel set, since each graph keeps the first table built
    for chosen in kernel_sets():
        g = make()
        with using_kernels(chosen):
            cum = g.walk_tables()
        assert cum.shape == (2 * g.m,) and cum.dtype == np.float64
        assert not cum.flags.writeable and g.walk_tables() is cum
        for u in range(g.n):
            lo, hi = g.indptr[u], g.indptr[u + 1]
            assert cum[lo:hi].tobytes() == np.cumsum(g.weights[lo:hi]).tobytes()


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=walk_cases())
def test_compiled_walk_tables_match_the_twin(case):
    g = case[0]
    fast, slow = _native.compiled().walk_tables(g), _twins.TWINS.walk_tables(g)
    assert (fast.dtype, fast.shape) == (slow.dtype, slow.shape)
    assert fast.tobytes() == slow.tobytes()


def test_components_reads_any_layout_of_ids():
    # np.nonzero of a 2-d mask gives strided views into one (m, 2) buffer;
    # read as contiguous arrays, the 4-cycle (0,1), (0,3), (1,2), (2,3)
    # would join only 0, 1 and 3
    keep = np.zeros((4, 4), dtype=bool)
    keep[[0, 0, 1, 2], [1, 3, 2, 3]] = True
    u, v = np.nonzero(keep)
    assert not u.flags.c_contiguous
    edges = np.random.default_rng(3).integers(0, 300, size=(250, 2))
    for chosen in kernel_sets():
        assert chosen.components(4, u, v) == 1
        assert chosen.components(4, u.astype(np.int32), v.astype(np.int32)) == 1
        assert chosen.components(5, u[::2], v[::2]) == 3  # (0,1) and (1,2)
        assert (chosen.components(300, edges[:, 0], edges[:, 1])
                == _twins.TWINS.components(300, edges[:, 0].copy(), edges[:, 1].copy()))


# magnitudes over many binades, either sign
binades = st.builds(lambda mant, exp, sign: sign * mant * 2.0**exp,
                    st.floats(1.0, 2.0, exclude_max=True), st.integers(-30, 30),
                    st.sampled_from([1.0, -1.0]))


def signal_block(draw_, n, k):
    """An (n,) vector at k = None, else an (n, k) block with contiguous
    columns; each column over many binades, or a constant."""
    cols = [np.full(n, draw_(binades)) if draw_(st.booleans())
            else np.array(draw_(st.lists(binades, min_size=n, max_size=n)))
            for _ in range(k or 1)]
    return cols[0] if k is None else np.asfortranarray(np.column_stack(cols))


def same_bits(a, b):
    """Same dtype, shape, layout and bytes."""
    return ((a.dtype, a.shape, a.flags.f_contiguous) == (b.dtype, b.shape, b.flags.f_contiguous)
            and a.tobytes(order="A") == b.tobytes(order="A"))


def accumulate_by_columns(count, x, ybar, mean_x, mean_y, m):
    """The accumulator's update column by column, as a one-signal loop
    makes it: the means, then three dots in the kernels' lanes."""
    for c, (xc, yc, mx, my) in enumerate(zip(*map(_native.columns,
                                                  (x, ybar, mean_x, mean_y)))):
        dx, dy = xc - mx, yc - my
        mx += dx / count
        my += dy / count
        m[c] += [_twins._dot_numpy(dx, xc - mx), _twins._dot_numpy(dy, yc - my),
                 _twins._dot_numpy(dx, yc - my)]


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=walk_cases(), k=st.sampled_from([None, 1, 3]), data=st.data())
def test_compiled_estimator_loops_match_the_twins(case, k, data):
    # a forest of sample_forest on the case's graph (n = 2, ..., 9: every
    # n % 4 tail), then the tree averages, the k-row Laplacian and three
    # accumulator updates of a vector or a block, compiled against twin
    g, q, key, position = case
    fast, slow = _native.compiled(), _twins.TWINS
    problem = SmoothingProblem(g, signal_block(data.draw, g.n, k), q)
    forest = sample_forest(g, problem.q, forests.CounterStream(key, position))
    xbar = fast.tree_averages(forest.root_of, problem.q, problem.y)
    assert same_bits(xbar, slow.tree_averages(forest.root_of, problem.q, problem.y))
    for col, avg in zip(_native.columns(problem.y), _native.columns(xbar)):
        if (col == col[0]).all():  # a constant signal comes back bit for bit
            assert avg.tobytes() == col.tobytes()
    assert same_bits(fast.laplacian(g, xbar), slow.laplacian(g, xbar))
    state = {loop: (np.zeros_like(xbar), np.zeros_like(xbar), np.zeros((k or 1, 3)))
             for loop in (fast.accumulate, slow.accumulate, accumulate_by_columns)}
    for count in (1, 2, 3):
        x, ybar = signal_block(data.draw, g.n, k), signal_block(data.draw, g.n, k)
        for loop, (mean_x, mean_y, m) in state.items():
            loop(count, x, ybar, mean_x, mean_y, m)
        reference = state[accumulate_by_columns]
        for loop in (fast.accumulate, slow.accumulate):
            assert all(map(same_bits, state[loop], reference))


def fresh_python(code, cache, path=None):
    """Run code in a new interpreter on this checkout, with its own kernel
    cache and, if given, its own PATH."""
    src = str(Path(rsfsmooth.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "XDG_CACHE_HOME": str(cache)}
    if path is not None:
        env["PATH"] = str(path)
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


SMOOTH = ("from rsfsmooth import _native; from rsfsmooth.cli import run; "
          "run(['smooth', '--gen', 'grid:rows=12,cols=12', '--signal', 'gaussian', "
          "'--q', '0.2', '--n-samples', '5', '--alpha', 'empirical', '--seed', '3', "
          "'--format', 'json', '--out', {out!r}]); "
          "from rsfsmooth import _twins; print(_native._KERNELS is _twins.TWINS)")


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
def test_kernel_builds_once_and_matches_the_fallback(tmp_path):
    cache = tmp_path / "cache"
    out_c, out_py = tmp_path / "c.json", tmp_path / "py.json"
    assert fresh_python(SMOOTH.format(out=str(out_c)), cache).strip() == "False"
    built = sorted((cache / "rsfsmooth").iterdir())
    assert len(built) == 1 and built[0].name.startswith("native-") and built[0].suffix == ".so"
    stamp = built[0].stat().st_mtime_ns
    fresh_python(SMOOTH.format(out=str(out_c)), cache)
    assert sorted((cache / "rsfsmooth").iterdir()) == built  # reused, not rebuilt
    assert built[0].stat().st_mtime_ns == stamp
    # without a compiler the Python loop runs and writes the same bytes
    no_cc, bare_cache = tmp_path / "bin", tmp_path / "bare"
    no_cc.mkdir()
    assert fresh_python(SMOOTH.format(out=str(out_py)), bare_cache, path=no_cc).strip() == "True"
    assert not bare_cache.exists()
    assert out_py.read_bytes() == out_c.read_bytes()


def float_edges():
    """Values where a shortest round-trip writer is most easily wrong: the
    zeros, the subnormal ends, the smallest normal, the largest value,
    every power of two (whose rounding interval is narrower below), and
    repr's switches between fixed and exponent notation with their
    neighbours, each of both signs."""
    tiny = np.nextafter(2.2250738585072014e-308, 0.0)
    values = [0.0, 5e-324, tiny, 2.2250738585072014e-308, 1.7976931348623157e308,
              *np.ldexp(1.0, np.arange(-1074, 1024))]
    for x in (1e-5, 1e-4, 1e15, 1e16):
        values += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    return np.concatenate([values, np.negative(values)])


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
def test_compiled_float_writer_is_float_repr():
    bits = np.random.default_rng(34).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = np.concatenate([float_edges(), values[np.isfinite(values)]])
    write, twin = _native.compiled().float_reprs, _twins.TWINS.float_reprs
    assert write(values, "\n").split("\n") == list(map(float.__repr__, values.tolist()))
    # the JSON separator, a strided view, a single value and no value at all
    for v, sep in [(values[:1000], ",\n    "), (values[1:2000:2], ", "), (values[:1], ","),
                   (values[:0], ",")]:
        assert write(v, sep) == twin(v, sep)


def fake_cc_that_fails(tmp_path):
    """A directory holding only a `cc` that exits 1, to stand for PATH."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "cc").write_text("#!/bin/sh\nexit 1\n")
    (bin_dir / "cc").chmod(0o755)
    return bin_dir, tmp_path / "cache"


def cache_under_a_file(tmp_path):
    """A cache directory whose parent is a regular file, so it cannot be
    made; chmod would not do, since root writes anyway."""
    (tmp_path / "blocker").write_bytes(b"")
    return None, tmp_path / "blocker" / "cache"


@pytest.mark.parametrize("failure", [fake_cc_that_fails, cache_under_a_file],
                         ids=["cc-exits-1", "cache-under-a-file"])
def test_every_build_failure_falls_back_to_the_twins(tmp_path, failure):
    out_c, out_py = tmp_path / "c.json", tmp_path / "py.json"
    fresh_python(SMOOTH.format(out=str(out_c)), tmp_path / "good-cache")
    case = tmp_path / "case"
    case.mkdir()
    path, cache = failure(case)
    assert fresh_python(SMOOTH.format(out=str(out_py)), cache, path=path).strip() == "True"
    assert out_py.read_bytes() == out_c.read_bytes()
    left = sorted(p.relative_to(case).as_posix() for p in case.rglob("*"))
    # nothing but the inputs and an empty cache directory: no .so, no temp file
    assert left in (["bin", "bin/cc", "cache", "cache/rsfsmooth"], ["blocker"])


def test_the_one_switch_reaches_every_loop(tmp_path):
    # the same commands through the chosen set and through the twins, each
    # loop wrapped in a call counter, write the same bytes; the second
    # `exact` (bound 8001, more than 64 iterations) builds CG's multigrid,
    # and the regular graph of the third checks its connectivity
    calls = dict.fromkeys(_native.Kernels._fields, 0)

    def counted(name, loop):
        def counting(*args):
            calls[name] += 1
            return loop(*args)
        return counting

    twins = _native.Kernels(*(counted(name, loop)
                              for name, loop in zip(_native.Kernels._fields, _twins.TWINS)))
    commands = [["smooth", "--gen", "grid:rows=8,cols=9", "--signal", "gaussian", "--q", "0.3",
                 "--n-samples", "4", "--alpha", "empirical"],
                ["exact", "--gen", "grid:rows=8,cols=9", "--signal", "gaussian", "--q", "0.3"],
                ["exact", "--gen", "grid:rows=20,cols=20", "--signal", "gaussian",
                 "--q", "0.001"],
                ["exact", "--gen", "regular:n=40,d=4", "--signal", "gaussian", "--q", "0.3"]]
    written = []
    for chosen in (_native.kernels(), twins):
        with using_kernels(chosen):
            for argv in commands:
                out = tmp_path / f"{len(written)}.json"
                assert run([*argv, "--seed", "5", "--format", "json", "--out", str(out)]) == 0
                written.append(out.read_bytes())
    assert written[:len(commands)] == written[len(commands):]
    assert all(calls.values()), calls


# each exported C loop and the `Kernels` field that calls it
EXPORTED = {"wilson": "wilson", "walk_tables": "walk_tables", "components": "components",
            "tree_averages": "tree_averages", "accumulate": "accumulate",
            "laplacian": "laplacian", "dot": "dot", "cg_product": "product",
            "cg_residual": "residual", "cg_direction": "direction", "cg_plain": "plain",
            "mg_restrict": "restrict", "mg_prolong": "prolong", "cholesky": "cholesky",
            "cholesky_solve": "solve", "float_reprs": "float_reprs"}


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
def test_the_c_source_builds_without_warnings_and_every_loop_is_wired(tmp_path):
    source = Path(_native.__file__).with_name("_native.c")
    res = subprocess.run(["cc", *_native._CFLAGS, "-Wall", "-Wextra", "-Werror", "-x", "c",
                          str(source), "-o", str(tmp_path / "native.so")],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    # every function that is not static, with its parameter count; a
    # static one may have its qualifiers on the line before
    exported = {name: len(params.split(",")) for static, name, params in re.findall(
        r"^(static.*\n)?(?:int64_t|double|void) (\w+)\(([^)]*)\)", source.read_text(),
        re.MULTILINE) if not static}
    assert exported.keys() == EXPORTED.keys()
    assert sorted(EXPORTED.values()) == sorted(_native.Kernels._fields)
    lib = _native._build()
    for name, count in exported.items():
        argtypes = getattr(lib, name).argtypes
        assert argtypes is not None and len(argtypes) == count, name
