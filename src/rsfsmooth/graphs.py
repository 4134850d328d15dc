"""Weighted undirected graphs in compressed adjacency form.

Provides the `Graph` class used throughout the package, edge-list file IO,
and the random-graph generators used by the experiment harness (random
regular, Barabasi-Albert, grid, k-nearest-neighbour).
"""

import math

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import DataError

MAX_CONNECTIVITY_RETRIES = 100
MAX_PAIRING_ROUNDS = 1000


class Graph:
    """Weighted undirected graph stored as symmetric CSR adjacency.

    Vertices are dense 0-based integers. All edge weights are strictly
    positive, self-loops are rejected, and the graph is required to be
    connected. Instances are immutable after construction and safe to
    share across threads.

    Attributes
    ----------
    n : int
        Vertex count.
    m : int
        Undirected edge count.
    indptr, indices, weights : numpy arrays
        CSR adjacency; every undirected edge is stored as two arcs with
        equal weight.
    degrees : (n,) float array
        Weighted degree d_i = sum_j w(i, j).
    d_max : float
        Maximum weighted degree.
    """

    def __init__(self, indptr, indices, weights):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.n = len(self.indptr) - 1
        self.m = len(self.indices) // 2
        self._walk_nbrs = None
        self._walk_cums = None
        self._arc_rows = None
        self._adjacency = None
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        self.degrees = np.bincount(rows, weights=self.weights, minlength=self.n)
        self.d_max = float(self.degrees.max()) if self.n else 0.0
        rows.flags.writeable = False
        self._arc_rows = rows
        for arr in (self.indptr, self.indices, self.weights, self.degrees):
            arr.flags.writeable = False
        self._validate()

    @classmethod
    def from_edges(cls, n, edges):
        """Build a connected graph from undirected (u, v, w) triples.

        Each undirected edge must appear exactly once. Raises `DataError`
        on self-loops, duplicates, nonpositive or non-finite weights,
        out-of-range ids, or a disconnected result.
        """
        seen = set()
        rows, cols, vals = [], [], []
        for u, v, w in edges:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise DataError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise DataError(f"vertex id out of range: edge ({u}, {v}) with n={n}")
            if not 0 < w < math.inf:
                raise DataError(f"nonpositive or non-finite weight {w} on edge ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DataError(f"duplicate undirected edge ({key[0]}, {key[1]})")
            seen.add(key)
            rows += [u, v]
            cols += [v, u]
            vals += [w, w]
        adj = sparse.coo_matrix(
            (vals, (rows, cols)), shape=(n, n), dtype=np.float64
        ).tocsr()
        adj.sort_indices()
        return cls(adj.indptr, adj.indices, adj.data)

    def _validate(self):
        if self.n < 1:
            raise DataError("graph must have at least one vertex")
        ncomp, _ = csgraph.connected_components(self.adjacency, directed=False)
        if ncomp != 1:
            raise DataError(f"disconnected graph: {ncomp} connected components")

    @property
    def adjacency(self):
        """Adjacency as a scipy CSR matrix (shares the graph's arrays)."""
        if self._adjacency is None:
            self._adjacency = sparse.csr_matrix(
                (self.weights, self.indices, self.indptr), shape=(self.n, self.n)
            )
        return self._adjacency

    @property
    def arc_rows(self):
        """Source vertex of each stored arc, aligned with `indices`."""
        return self._arc_rows

    def walk_tables(self):
        """Per-vertex neighbor lists and cumulative weights for random walks.

        Plain Python lists: the step loop of the forest sampler is much
        faster on these than on numpy slices.
        """
        if self._walk_nbrs is None:
            nbrs, cums = [], []
            for u in range(self.n):
                lo, hi = self.indptr[u], self.indptr[u + 1]
                nbrs.append(self.indices[lo:hi].tolist())
                cums.append(np.cumsum(self.weights[lo:hi]).tolist())
            self._walk_nbrs, self._walk_cums = nbrs, cums
        return self._walk_nbrs, self._walk_cums

    def edges(self):
        """Yield undirected edges (u, v, w) with u < v, sorted."""
        for u in range(self.n):
            for idx in range(self.indptr[u], self.indptr[u + 1]):
                v = self.indices[idx]
                if u < v:
                    yield u, int(v), float(self.weights[idx])

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m}, d_max={self.d_max:g})"


def load_graph(path):
    """Load a graph from an edge-list text file.

    Lines are "u v w" with w optional (default 1.0); '#' starts a comment.
    Vertex ids must be dense 0-based integers. Raises `DataError` with the
    offending line number on parse failures, and on duplicate edges,
    nonpositive or non-finite weights, id gaps, or disconnected graphs.
    """
    edges = []
    ids = set()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise DataError(f"{path}: line {lineno}: expected 'u v [w]', got {raw!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise DataError(f"{path}: line {lineno}: cannot parse {raw!r}") from None
            if u < 0 or v < 0:
                raise DataError(f"{path}: line {lineno}: negative vertex id")
            if not 0 < w < math.inf:
                raise DataError(f"{path}: line {lineno}: nonpositive or non-finite weight {w}")
            edges.append((u, v, w))
            ids.add(u)
            ids.add(v)
    if not edges:
        raise DataError(f"{path}: no edges")
    n = max(ids) + 1
    if len(ids) != n:
        missing = sorted(set(range(n)) - ids)[:5]
        raise DataError(f"{path}: vertex ids have gaps (missing {missing})")
    return Graph.from_edges(n, edges)


def save_graph(g, path):
    """Write sorted "u v w" edge lines with round-trippable weights."""
    with open(path, "w") as fh:
        for u, v, w in g.edges():
            fh.write(f"{u} {v} {w:.17g}\n")


def load_positions(path):
    """Load per-vertex "x,y" coordinates, one line per vertex."""
    coords = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise DataError(f"{path}: line {lineno}: expected 'x,y'")
            try:
                coords.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise DataError(f"{path}: line {lineno}: cannot parse {raw!r}") from None
    if not coords:
        raise DataError(f"{path}: no coordinates")
    return np.array(coords, dtype=np.float64)


def _attempt_rng(seed, attempt):
    return np.random.default_rng(np.random.SeedSequence((int(seed), attempt)))


def _regular_edges(n, d, rng):
    """Simple d-regular graph on n vertices by the pairing model with repair.

    The n*d stubs (d per vertex) are paired by one random permutation.
    A whole pairing is simple only with probability about
    exp(-(d^2 - 1)/4), so instead of rejecting it, while self-loops or
    repeated edges remain their stubs are re-paired together with as many
    randomly chosen other pairs (alone, a lone self-loop could only be
    re-paired with itself). Dense degrees, d > (n-1)/2, are built as the
    complement of an (n-1-d)-regular graph.
    """
    if 2 * d > n - 1:
        sparse_edges = {(u, v) for u, v, _ in _regular_edges(n, n - 1 - d, rng)}
        return [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)
                if (u, v) not in sparse_edges]
    pairs = rng.permutation(np.repeat(np.arange(n), d)).reshape(-1, 2)
    for _ in range(MAX_PAIRING_ROUNDS):
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        bad = np.ones(len(pairs), dtype=bool)
        bad[np.unique(lo * n + hi, return_index=True)[1]] = False  # keep one of each edge
        bad |= lo == hi
        n_bad = int(bad.sum())
        if n_bad == 0:
            return [(u, v, 1.0) for u, v in zip(lo.tolist(), hi.tolist())]
        others = rng.choice(np.flatnonzero(~bad), size=min(n_bad, len(pairs) - n_bad),
                            replace=False)
        redo = np.concatenate([np.flatnonzero(bad), others])
        pairs[redo] = rng.permutation(pairs[redo].ravel()).reshape(-1, 2)
    raise DataError(f"could not pair a simple {d}-regular graph on {n} vertices "
                    f"in {MAX_PAIRING_ROUNDS} rounds")


def _barabasi_albert_edges(n, k, rng):
    # Seed with a k-clique, then attach each new node with k edges chosen
    # degree-proportionally without replacement.
    edges = [(i, j, 1.0) for i in range(k) for j in range(i + 1, k)]
    # each vertex appears once per unit of degree; uniform picks from this
    # list are degree-proportional
    repeated = [v for i in range(k) for j in range(i + 1, k) for v in (i, j)]
    if k == 1:
        repeated = [0]
    for v in range(k, n):
        targets = set()
        while len(targets) < k:
            targets.add(repeated[rng.integers(len(repeated))])
        for t in sorted(targets):
            edges.append((t, v, 1.0))
            repeated += [t, v]
    return edges


def _grid_edges(rows, cols):
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1), 1.0))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c), 1.0))
    return edges


def _knn_edges(coords, k):
    from scipy.spatial import cKDTree  # only this generator needs scipy.spatial

    n = len(coords)
    tree = cKDTree(coords)
    _, nearest = tree.query(coords, k=k + 1)  # query includes the point itself
    pairs = set()
    for i in range(n):
        for j in nearest[i]:
            j = int(j)
            if j != i:
                pairs.add((i, j) if i < j else (j, i))
    return [(u, v, 1.0) for u, v in sorted(pairs)]


def _int_param(value, name):
    if value is None:
        return None
    if int(value) != value:
        raise DataError(f"{name} must be an integer, got {value!r}")
    return int(value)


def gen_graph(model, n=None, seed=0, d=None, k=None, rows=None, cols=None,
              coords=None):
    """Generate a connected graph from a named random or deterministic model.

    Parameters
    ----------
    model : str
        One of "regular" (d-regular, needs `d`), "barabasi_albert" (needs
        `k`), "grid" (needs `rows`, `cols`), "knn" (needs `coords`, `k`).
    n : int
        Vertex count (derived from the model parameters for grid/knn).
    seed : int
        Random models retry with seed-derived streams until connected,
        up to a bounded number of attempts.
    """
    n = _int_param(n, "n")
    d = _int_param(d, "d")
    k = _int_param(k, "k")
    rows = _int_param(rows, "rows")
    cols = _int_param(cols, "cols")
    if model == "regular":
        if n is None or d is None:
            raise DataError("regular model needs n and d")
        if d < 1 or d >= n or (n * d) % 2 != 0:
            raise DataError(f"infeasible regular graph: n={n}, d={d}")
        builder = lambda rng: (n, _regular_edges(n, d, rng))
    elif model in ("barabasi_albert", "ba"):
        if n is None or k is None:
            raise DataError("barabasi_albert model needs n and k")
        if k < 1 or k >= n:
            raise DataError(f"infeasible barabasi_albert graph: n={n}, k={k}")
        builder = lambda rng: (n, _barabasi_albert_edges(n, k, rng))
    elif model == "grid":
        if rows is None or cols is None or rows < 1 or cols < 1:
            raise DataError("grid model needs rows >= 1 and cols >= 1")
        if n is not None and n != rows * cols:
            raise DataError(f"grid is {rows}x{cols}={rows * cols} vertices, got n={n}")
        builder = lambda rng: (rows * cols, _grid_edges(rows, cols))
    elif model == "knn":
        if coords is None or k is None:
            raise DataError("knn model needs coords and k")
        if k < 1 or k >= len(coords):
            raise DataError(f"infeasible knn graph: k={k}, {len(coords)} points")
        builder = lambda rng: (len(coords), _knn_edges(coords, k))
    else:
        raise DataError(f"unknown graph model {model!r}")

    last_err = None
    for attempt in range(MAX_CONNECTIVITY_RETRIES):
        rng = _attempt_rng(seed, attempt)
        nv, edges = builder(rng)
        try:
            return Graph.from_edges(nv, edges)
        except DataError as err:
            if "disconnected" not in str(err):
                raise
            last_err = err
            if model in ("grid", "knn"):
                break  # deterministic models cannot be retried
    raise DataError(
        f"could not generate a connected {model} graph "
        f"after {MAX_CONNECTIVITY_RETRIES} attempts: {last_err}"
    )
