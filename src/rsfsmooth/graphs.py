"""Weighted undirected graphs in compressed adjacency form.

Provides the `Graph` class used throughout the package, edge-list file IO,
and the random-graph generators used by the experiment harness (random
regular, Barabasi-Albert, grid, k-nearest-neighbour).
"""

import functools
import itertools
import math

import numpy as np

from .errors import DataError

MAX_CONNECTIVITY_RETRIES = 100
MAX_PAIRING_ROUNDS = 1000


class Graph:
    """Weighted undirected graph stored as symmetric CSR adjacency.

    Vertices are dense 0-based integers. All edge weights are strictly
    positive, self-loops are rejected, and the graph is required to be
    connected. Build one with `Graph.from_edges`. Instances are immutable
    after construction and safe to share across threads.

    Attributes
    ----------
    n : int
        Vertex count.
    m : int
        Undirected edge count.
    indptr, indices, weights : int64, int64 and float64 arrays
        CSR adjacency; every undirected edge is stored as two arcs with
        equal weight. Every computation of the package reads these arrays.
    degrees : (n,) float array
        Weighted degree d_i = sum_j w(i, j).
    d_max : float
        Maximum weighted degree.
    """

    @classmethod
    def from_edges(cls, n, edges):
        """Build a connected graph from an (m, 3) array-like of undirected
        (u, v, w) rows.

        Each undirected edge must appear exactly once. Raises `DataError`
        on ids that are not integers, self-loops, out-of-range ids,
        nonpositive or non-finite weights and duplicates, naming the first
        such edge in input order and checking each edge in that order, and
        on a disconnected result.
        """
        edges = np.asarray(edges, dtype=np.float64)
        if edges.size == 0:
            edges = edges.reshape(0, 3)
        if edges.ndim != 2 or edges.shape[1] != 3:
            raise DataError(f"edges must be (u, v, w) rows, got an array of shape {edges.shape}")
        a, b, w = edges.T
        # the ids are checked as floats, before the int cast
        ids_ok = ((a >= 0) & (a < n) & (a == np.trunc(a))
                  & (b >= 0) & (b < n) & (b == np.trunc(b)))
        # an edge with a bad id becomes a self-loop at 0, which no valid edge repeats
        u, v = (np.where(ids_ok, x, 0).astype(np.int64) for x in (a, b))
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        loop = a == b
        bad_weight = ~((w > 0) & (w < math.inf))
        repeat = np.ones(len(w), dtype=bool)
        repeat[_first_occurrences(lo * n + hi)] = False  # first of each edge
        bad = ~ids_ok | loop | bad_weight | repeat
        if bad.any():
            i = int(np.argmax(bad))
            x, y = float(a[i]), float(b[i])
            edge = f"({_id_text(x)}, {_id_text(y)})"
            if not (x.is_integer() and y.is_integer()):  # nor are NaN and infinities
                raise DataError(f"vertex id is not an integer: edge {edge}")
            if loop[i]:
                raise DataError(f"self-loop at vertex {_id_text(x)}")
            if not ids_ok[i]:
                raise DataError(f"vertex id out of range: edge {edge} with n={n}")
            if bad_weight[i]:
                raise DataError(f"nonpositive or non-finite weight {float(w[i])} on edge {edge}")
            raise DataError(f"duplicate undirected edge ({int(lo[i])}, {int(hi[i])})")
        if n < 1:
            raise DataError("graph must have at least one vertex")

        rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
        order = np.argsort(rows * n + cols)
        g = cls.__new__(cls)
        g.n, g.m = int(n), len(w)
        g.indices = cols[order]
        g.weights = np.concatenate([w, w])[order]
        g.indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n),
                                                  dtype=np.int64)])
        # floats also where there is no arc, for which bincount returns ints
        g.degrees = np.bincount(rows[order], weights=g.weights, minlength=n).astype(np.float64)
        g.d_max = float(g.degrees.max())
        for arr in (g.indptr, g.indices, g.weights, g.degrees):
            arr.flags.writeable = False
        ncomp = _component_count(g.n, u, v)
        if ncomp != 1:
            raise DataError(f"disconnected graph: {ncomp} connected components")
        g._walk_cum = None
        return g

    @functools.cached_property
    def _arc_rows(self):
        """Source vertex of each stored arc, aligned with `indices`."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        rows.flags.writeable = False
        return rows

    @functools.cached_property
    def _arc_offsets(self):
        """(order, counts): the vertices by decreasing degree (a stable
        sort), and the count of rows with an arc at offset t = 0, 1, ...,
        the first counts[t] of order, while it is at least an eighth of the
        rows. `walk_tables` and `_twins._arc_slots` take these offsets one
        numpy pass each and the few long rows' later arcs in bulk: a pass
        per hub arc made the numpy Laplacian 1.5x (n = 20000) and 3.6x
        (n = 1500) slower than the bincount form on Barabasi-Albert graphs,
        and the cutoff 0.65x and 0.88x of it."""
        deg = np.diff(self.indptr)
        order = np.argsort(-deg, kind="stable")
        counts = self.n - np.searchsorted(np.sort(deg), np.arange(deg.max()), "right")
        return order, counts[8 * counts >= self.n].tolist()  # counts never rise

    def walk_tables(self):
        """Cumulative arc weights for random walks, aligned with `indices`.

        Row u holds the running sums of its arc weights in arc order, each
        summed sequentially from 0.0, so it equals
        np.cumsum(weights[indptr[u]:indptr[u+1]]) bit for bit; its last
        entry is the walk's total weight out of u. Built on first use, over
        the offsets of `_arc_offsets`.
        """
        if self._walk_cum is None:
            order, counts = self._arc_offsets
            deg, starts = np.diff(self.indptr), self.indptr[order]
            cum = self.weights.copy()
            # offset k - 1's running sum onto offset k, then the rows past the cutoff
            for k, count in enumerate(counts[1:], start=1):
                arcs = starts[:count] + k
                cum[arcs] += cum[arcs - 1]
            k = len(counts)
            longer = np.count_nonzero(deg > k)
            _running_sums(cum, starts[:longer] + k - 1, deg[order[:longer]] - k + 1)
            cum.flags.writeable = False
            self._walk_cum = cum
        return self._walk_cum

    def edges(self):
        """Iterate over the undirected edges (u, v, w) with u < v, sorted."""
        rows = self._arc_rows
        upper = rows < self.indices
        return zip(rows[upper].tolist(), self.indices[upper].tolist(),
                   self.weights[upper].tolist())

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m}, d_max={self.d_max:g})"


def _id_text(x):
    """A vertex id as it was given: an integer's digits, else the float's repr."""
    x = float(x)
    return str(int(x)) if x.is_integer() and abs(x) < 2.0**53 else repr(x)


def _first_occurrences(keys):
    """The index of the first occurrence of each distinct value of the
    int64 array keys, in increasing order of the values: the array
    np.unique(keys, return_index=True)[1], from the default argsort
    instead of the stable sort np.unique runs (on 100,000 random keys, 2.8
    against 9.0 ms on a 2-core AVX-512 Xeon). The smallest index of each
    run of equal sorted keys is its first occurrence, whatever order the
    sort left within the run."""
    if len(keys) == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    return np.minimum.reduceat(order, starts)


def _running_sums(cum, first, length):
    """Extend cum's running sums along the arc runs first[i], ...,
    first[i] + length[i] - 1 (in decreasing length), each from its first
    entry, with one sequential cumsum along the rows of a zero-padded block
    per run length within a factor of two: a bounded number of numpy calls
    however long the longest run, in at most twice the runs' arcs."""
    exponent = np.frexp(length.astype(np.float64))[1]  # 2^(e-1) <= length < 2^e
    _, starts, counts = np.unique(-exponent, return_index=True, return_counts=True)
    for lo, hi in zip(starts, starts + counts):
        width = np.arange(1 << int(exponent[lo]))
        arcs = first[lo:hi, None] + width
        inside = width < length[lo:hi, None]
        arcs = arcs[inside]
        block = np.zeros(inside.shape)
        block[inside] = cum[arcs]
        cum[arcs] = np.cumsum(block, axis=1)[inside]


def _component_count(n, u, v):
    """Connected components of n vertices joined by the edges (u[e], v[e]),
    by hook and shortcut. Every vertex points at a label no larger than
    itself, at first itself. Each round hooks the larger label of every
    edge whose ends differ onto the smallest label across from it, then
    jumps pointers until each vertex points at a root; it ends when every
    edge lies within one label, and the roots left are the components."""
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


def _lines(path, sep, form, counts):
    """(line number, line, fields) of each data line of a text file: '#'
    starts a comment, blank lines are skipped, and every other line is
    split on `sep` (None: whitespace) into one of `counts` fields, else
    DataError "PATH: line N: expected 'FORM', got '...'"."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
            if not line:
                continue
            fields = line.split(sep)
            if len(fields) not in counts:
                raise DataError(f"{path}: line {lineno}: expected {form!r}, got {raw!r}")
            yield lineno, raw, fields


def load_graph(path):
    """Load a graph from an edge-list text file.

    Lines are "u v w" with w optional (default 1.0); '#' starts a comment.
    Vertex ids must be dense 0-based integers. Raises `DataError` with the
    offending line number on parse failures, and on duplicate edges,
    nonpositive or non-finite weights, id gaps, or disconnected graphs.
    """
    edges = []
    ids = set()
    for lineno, raw, parts in _lines(path, None, "u v [w]", (2, 3)):
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
        missing = list(itertools.islice((i for i in range(n) if i not in ids), 5))
        raise DataError(f"{path}: vertex ids have gaps (missing {missing})")
    return Graph.from_edges(n, np.array(edges))


def save_graph(g, path):
    """Write sorted "u v w" edge lines with round-trippable weights."""
    with open(path, "w") as fh:
        for u, v, w in g.edges():
            fh.write(f"{u} {v} {w:.17g}\n")


def load_positions(path):
    """Load per-vertex "x,y" coordinates, one line per vertex; both must
    be finite."""
    coords = []
    for lineno, raw, parts in _lines(path, ",", "x,y", (2,)):
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise DataError(f"{path}: line {lineno}: cannot parse {raw!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DataError(f"{path}: line {lineno}: non-finite coordinate in {raw!r}")
        coords.append((x, y))
    if not coords:
        raise DataError(f"{path}: no coordinates")
    return np.array(coords, dtype=np.float64)


def _attempt_rng(seed, attempt):
    return np.random.default_rng(np.random.SeedSequence((int(seed), attempt)))


def _unit_edges(u, v):
    return np.column_stack([u, v, np.ones(len(u))])


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
        absent = _regular_edges(n, n - 1 - d, rng)[:, :2].astype(np.int64)
        keep = np.triu(np.ones((n, n), dtype=bool), 1)
        keep[absent[:, 0], absent[:, 1]] = False
        return _unit_edges(*np.nonzero(keep))
    pairs = rng.permutation(np.repeat(np.arange(n), d)).reshape(-1, 2)
    for _ in range(MAX_PAIRING_ROUNDS):
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        bad = np.ones(len(pairs), dtype=bool)
        bad[_first_occurrences(lo * n + hi)] = False  # keep one of each edge
        bad |= lo == hi
        n_bad = int(bad.sum())
        if n_bad == 0:
            return _unit_edges(lo, hi)
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
    return np.array(edges)


def _grid_edges(rows, cols):
    ids = np.arange(rows * cols).reshape(rows, cols)
    return _unit_edges(np.concatenate([ids[:, :-1].ravel(), ids[:-1].ravel()]),
                       np.concatenate([ids[:, 1:].ravel(), ids[1:].ravel()]))


def _knn_edges(coords, k):
    try:
        from scipy.spatial import cKDTree  # the package's one use of scipy
    except ImportError:
        raise DataError("the knn generator needs scipy: pip install rsfsmooth[knn]") from None

    n = len(coords)
    _, nearest = cKDTree(coords).query(coords, k=k + 1)  # includes the point itself
    i, j = np.repeat(np.arange(n), k + 1), nearest.ravel()
    keys = np.unique((np.minimum(i, j) * n + np.maximum(i, j))[i != j])
    return _unit_edges(keys // n, keys % n)


def _int_param(value, name):
    if value is None:
        return None
    if not float(value).is_integer():
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
        Seeds the random models; the regular model retries with
        seed-derived streams until connected, up to a bounded number of
        attempts.
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
        # Only this model can come out disconnected from a random stream:
        # BA attaches every new vertex to earlier ones, and grid and knn
        # are deterministic.
        last_err = None
        for attempt in range(MAX_CONNECTIVITY_RETRIES):
            try:
                return Graph.from_edges(n, _regular_edges(n, d, _attempt_rng(seed, attempt)))
            except DataError as err:
                if "disconnected" not in str(err):
                    raise
                last_err = err
        raise DataError(f"could not generate a connected regular graph "
                        f"after {MAX_CONNECTIVITY_RETRIES} attempts: {last_err}")
    if model in ("barabasi_albert", "ba"):
        if n is None or k is None:
            raise DataError("barabasi_albert model needs n and k")
        if k < 1 or k >= n:
            raise DataError(f"infeasible barabasi_albert graph: n={n}, k={k}")
        return Graph.from_edges(n, _barabasi_albert_edges(n, k, _attempt_rng(seed, 0)))
    if model == "grid":
        if rows is None or cols is None or rows < 1 or cols < 1:
            raise DataError("grid model needs rows >= 1 and cols >= 1")
        if n is not None and n != rows * cols:
            raise DataError(f"grid is {rows}x{cols}={rows * cols} vertices, got n={n}")
        return Graph.from_edges(rows * cols, _grid_edges(rows, cols))
    if model == "knn":
        if coords is None or k is None:
            raise DataError("knn model needs coords and k")
        if k < 1 or k >= len(coords):
            raise DataError(f"infeasible knn graph: k={k}, {len(coords)} points")
        return Graph.from_edges(len(coords), _knn_edges(coords, k))
    raise DataError(f"unknown graph model {model!r}")
