import contextlib

import numpy as np
import pytest
from scipy import sparse

import rsfsmooth
from rsfsmooth import Graph, _native, _twins


def pytest_report_header(config):
    """The package under test: pyproject.toml's `pythonpath = ["src"]` puts
    this checkout's ahead of any on PYTHONPATH."""
    return f"rsfsmooth: {rsfsmooth.__file__}"


def adjacency(g):
    """g's weighted adjacency as a scipy CSR matrix, assembled from the
    graph's CSR arrays; the tests' dense oracles build on it."""
    return sparse.csr_matrix((g.weights, g.indices, g.indptr), shape=(g.n, g.n))


def dense_k_inverse(g, q):
    """K^{-1} = Q^{-1}(Q + L) as a dense matrix, by numpy's solver."""
    W = adjacency(g).toarray()
    L = np.diag(W.sum(axis=1)) - W
    return np.linalg.solve(np.diag(q), np.diag(q) + L)


def oracle_tree_averages(components, q, y):
    """Brute-force per-tree weighted means, independent of the library path."""
    out = np.empty(len(y))
    for label in sorted(set(components.tolist())):
        idx = [v for v in range(len(y)) if components[v] == label]
        avg = sum(q[v] * y[v] for v in idx) / sum(q[v] for v in idx)
        for v in idx:
            out[v] = avg
    return out


def assert_same_graph(a, b):
    """a and b hold the same graph, field for field: n, m and d_max, and
    each array's dtype, shape and bytes; every array is read-only."""
    assert (a.n, a.m, a.d_max) == (b.n, b.m, b.d_max)
    for name in ("indptr", "indices", "weights", "degrees", "_arc_rows"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert not (x.flags.writeable or y.flags.writeable), name
        assert x.tobytes() == y.tobytes(), name


@contextlib.contextmanager
def using_kernels(chosen):
    """The package's hot loops swapped for the set `chosen` inside the
    block, and the set chosen before restored after it."""
    saved, _native._KERNELS = _native._KERNELS, chosen
    try:
        yield
    finally:
        _native._KERNELS = saved


def kernel_sets():
    """The twins and, where the library can be built, the compiled set."""
    return [chosen for chosen in (_twins.TWINS, _native.compiled()) if chosen is not None]


def path_graph(n, weights=None):
    weights = weights if weights is not None else [1.0] * (n - 1)
    return Graph.from_edges(n, [(i, i + 1, weights[i]) for i in range(n - 1)])


def cycle_graph(n):
    edges = [(i, i + 1, 1.0) for i in range(n - 1)] + [(0, n - 1, 1.0)]
    return Graph.from_edges(n, edges)


def star_graph(leaves):
    return Graph.from_edges(leaves + 1, [(0, i, 1.0) for i in range(1, leaves + 1)])


def complete_graph(n, weight=1.0):
    return Graph.from_edges(
        n, [(i, j, weight) for i in range(n) for j in range(i + 1, n)]
    )


def two_clique_graph(size=20):
    """Two cliques of `size` vertices joined by a single bridge edge."""
    edges = []
    for base in (0, size):
        edges += [(base + i, base + j, 1.0)
                  for i in range(size) for j in range(i + 1, size)]
    edges.append((size - 1, size, 1.0))
    return Graph.from_edges(2 * size, edges)


def random_connected_graph(n, extra_edges=0, rng=None, weighted=False):
    """Random spanning tree plus `extra_edges` random chords."""
    rng = rng if rng is not None else np.random.default_rng(0)
    edges = set()
    for v in range(1, n):
        edges.add((int(rng.integers(0, v)), v))
    max_extra = n * (n - 1) // 2 - len(edges)
    budget = min(extra_edges, max_extra)
    while budget > 0:
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v and (u, v) not in edges:
            edges.add((u, v))
            budget -= 1
    if weighted:
        return Graph.from_edges(
            n, [(u, v, float(rng.uniform(0.5, 2.0))) for u, v in sorted(edges)]
        )
    return Graph.from_edges(n, [(u, v, 1.0) for u, v in sorted(edges)])


def enumeration_corpus():
    """Small graphs (n <= 8, sparse) for the exhaustive-enumeration oracle."""
    rng = np.random.default_rng(2024)
    graphs = [
        ("P2", path_graph(2)),
        ("P3", path_graph(3)),
        ("P4", path_graph(4)),
        ("P5-weighted", path_graph(5, weights=[0.5, 2.0, 1.5, 0.8])),
        ("C3", cycle_graph(3)),
        ("C4", cycle_graph(4)),
        ("C5", cycle_graph(5)),
        ("star3", star_graph(3)),
        ("star5", star_graph(5)),
        ("K4", complete_graph(4)),
        ("rand6", random_connected_graph(6, extra_edges=3, rng=rng, weighted=True)),
        ("rand7", random_connected_graph(7, extra_edges=4, rng=rng, weighted=True)),
        ("rand8", random_connected_graph(8, extra_edges=4, rng=rng)),
    ]
    return graphs


@pytest.fixture
def p3():
    return path_graph(3)


@pytest.fixture
def triangle():
    return cycle_graph(3)


@pytest.fixture
def k2():
    return path_graph(2)
