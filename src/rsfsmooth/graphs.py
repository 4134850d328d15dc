"""Weighted undirected graphs in compressed adjacency form.

Provides the `Graph` class used throughout the package, edge-list file IO,
and the random-graph generators used by the experiment harness (random
regular, Barabasi-Albert, grid, k-nearest-neighbour).
"""

import functools
import io
import itertools
import math
import warnings

import numpy as np

from . import _native
from .errors import DataError, integer
from .forests import _seed, numpy_rng

MAX_CONNECTIVITY_RETRIES = 100
MAX_PAIRING_ROUNDS = 1000


class Graph:
    """Weighted undirected graph stored as symmetric CSR adjacency.

    Vertices are dense 0-based integers. All edge weights are strictly
    positive, self-loops are rejected, and the graph is required to be
    connected. Build one with `Graph.from_edges`, the gate for edges from
    outside, which checks each of these rules. Every graph, from the gate,
    the generators or the multigrid's coarse levels, is laid out by the
    private `Graph._from_arcs` from its sorted arc keys, which checks that
    it is connected; the generators and the coarse levels make their arcs
    simple, positive and symmetric by construction. Instances are immutable
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
        (u, v, w) rows: the gate for edges from outside the package.

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
        bad_weight = ~((w > 0) & (w < math.inf))
        arcs = np.concatenate([u * n + v, v * n + u])
        order = np.argsort(arcs)
        arcs = arcs[order]
        # a repeated edge, a self-loop and a bad id each leave two equal
        # arcs side by side; only then are the edges checked one by one
        if not ids_ok.all() or bad_weight.any() or (arcs[1:] == arcs[:-1]).any():
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            loop = a == b
            bad = ~ids_ok | loop | bad_weight | _repeats(lo * n + hi)
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
        return cls._from_arcs(n, arcs, np.concatenate([w, w])[order])

    @classmethod
    def _from_arcs(cls, n, arcs, weights):
        """The graph of its sorted int64 arc keys row * n + neighbour, two
        for each undirected edge, and their float64 weights in that order.
        Raises DataError naming the number of connected components unless
        the arcs join all n vertices. Nothing else is checked: the caller's
        arcs hold no loop and no repeat, and each edge's two arcs share one
        positive weight. The one place that lays out and checks a graph:
        `from_edges`, `_unit_graph`, the grid and the multigrid's coarse
        levels build through it."""
        rows = arcs // n
        indices = arcs - rows * n
        count = _native.kernels().components(n, rows, indices)
        if count != 1:
            raise DataError(f"disconnected graph: {count} connected components")
        g = cls.__new__(cls)
        g.n, g.m = int(n), len(arcs) // 2
        g.indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n), dtype=np.int64)])
        g.indices, g.weights = indices, weights
        # summed in arc order; floats also where there is no arc, for which
        # bincount returns ints
        g.degrees = np.bincount(rows, weights=weights, minlength=g.n).astype(np.float64)
        g.d_max = float(g.degrees.max())
        for arr in (g.indptr, g.indices, g.weights, g.degrees):
            arr.flags.writeable = False
        g._walk_cum = None
        return g

    @functools.cached_property
    def _arc_rows(self):
        """Source vertex of each stored arc, aligned with `indices`."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        rows.flags.writeable = False
        return rows

    def walk_tables(self):
        """Cumulative arc weights for random walks, aligned with `indices`.

        Row u holds the running sums of its arc weights in arc order, each
        summed sequentially from 0.0, so it equals
        np.cumsum(weights[indptr[u]:indptr[u+1]]) bit for bit; its last
        entry is the walk's total weight out of u. Built on first use, by
        the kernels' `walk_tables` loop, and read-only.
        """
        if self._walk_cum is None:
            cum = _native.kernels().walk_tables(self)
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


def _repeats(keys):
    """Whether each entry of the int64 (or object) array keys equals an
    earlier one. One sort of the values finds those that repeat; only their
    entries, usually few, go through np.unique for their first occurrences.
    On the first pairing round of a 20,000-vertex 10-regular graph (100,000
    edges, about 20 repeats) this takes 1.2 ms, against 12 ms for np.unique
    over every entry (medians of 51, 2-core AVX-512 Xeon)."""
    ordered = np.sort(keys)
    same = ordered[1:] == ordered[:-1]
    repeat = np.zeros(len(keys), dtype=bool)
    if not same.any():
        return repeat
    hits = np.flatnonzero(np.isin(keys, ordered[1:][same]))
    repeat[hits] = True
    repeat[hits[np.unique(keys[hits], return_index=True)[1]]] = False
    return repeat


def _unit_graph(n, lo, hi):
    """The graph of a generator's unit-weight simple edges (lo[e], hi[e]),
    int64 arrays: one sort of their 2m arc keys row * n + neighbour lays
    it out, and `Graph._from_arcs` checks only that it is connected, with
    `from_edges`'s message. Its arrays are those `from_edges` builds from
    the same edges, byte for byte."""
    arcs = np.concatenate([lo * n + hi, hi * n + lo])
    arcs.sort()  # in place: one array of 2m keys
    return Graph._from_arcs(n, arcs, np.ones(len(arcs)))


def _data_lines(text):
    """(line number, line, content) of each data line of text, whose lines
    end at a line feed: '#' starts a comment, and a line blank without its
    comment is skipped."""
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if line:
            yield lineno, raw, line


# each column kind of a layout: numpy's dtype for it and the loop's parser
_KINDS = {"i": (np.int64, int), "f": (np.float64, float)}


def _numpy_table(text, sep, layouts):
    """(layout, structured array of its fields c0, c1, ...) for the first of
    `layouts` that every data line of text fits, as numpy's C reader parses
    it, else None. The reader gives every field it parses the value int()
    or float() gives, bit for bit, splits on the same whitespace and
    refuses the rest (such as '1_0', non-ASCII digits, or '1.0' as an int),
    but also some lines the loop of `_read_table` reads, such as a
    whitespace-only line in a comma-separated file; any warning it raises
    ("input contained no data", among others) counts as a refusal."""
    lines = text.split("\n")  # a list, which the reader takes faster than a stream
    for layout in layouts:
        fields = layout.replace("-", "")
        dtype = np.dtype([(f"c{i}", _KINDS[kind][0]) for i, kind in enumerate(fields)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return layout, np.loadtxt(lines, dtype=dtype, comments="#", delimiter=sep, ndmin=1)
            except (ValueError, Warning):
                continue
    return None


class _Table:
    """The rows `_read_table` parsed: `columns`, the fields each row had
    (`width`), and the error that ended them, if any."""

    def __init__(self, path, text, columns, width, fault):
        self.path, self._text, self.columns, self.width, self._fault = (
            path, text, columns, width, fault)

    def check(self, *rules):
        """Raise DataError "PATH: line N: MESSAGE" for the first row i that
        breaks a rule, a (mask, message) pair, where message(i, line) words
        the first rule the row breaks; else the error that ended the rows."""
        bad = functools.reduce(np.logical_or, [mask for mask, _ in rules])
        if bad.any():
            i = int(np.argmax(bad))
            lineno, raw, _ = next(itertools.islice(_data_lines(self._text), i, None))
            message = next(say(i, raw) for mask, say in rules if mask[i])
            raise DataError(f"{self.path}: line {lineno}: {message}")
        if self._fault is not None:
            raise self._fault


def _read_table(path, sep, form, layouts):
    """The data lines (`_data_lines`) of a UTF-8 text file, read and decoded
    once, as a `_Table`. Each line is split on `sep` (None: whitespace) and
    parsed by the one of `layouts` with as many fields: the layout gives
    each column's kind, "i" an int, "f" a float, or "-" for a column its
    lines lack, which reads 0. Raises DataError "PATH: line N: not valid
    UTF-8 text" naming the line of the first byte that does not decode.

    Where every line fits one layout, numpy's C reader parses the file
    (`_numpy_table`), else the line loop below, with int() and float(). The
    loop stops at the first line with a field count no layout has
    ("expected 'FORM', got '...'") or a field it cannot parse ("cannot
    parse '...'"), and `_Table.check` raises that error only after checking
    the rows before it. Its int columns are object arrays, so an id past
    int64 keeps its value."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[:err.start].decode("utf-8")
        lineno = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
        raise DataError(f"{path}: line {lineno}: not valid UTF-8 text") from None
    del data
    if "\r" in text:  # lines end at a line feed, CR LF or a lone CR, as open() reads them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    kinds = [max(column) for column in zip(*layouts)]  # "-" sorts before "f" and "i"
    parsed = _numpy_table(text, sep, layouts)
    if parsed is not None:
        layout, table = parsed
        fields = (table[name] for name in table.dtype.names)
        columns = [np.zeros(len(table), _KINDS[kind][0]) if mark == "-" else next(fields)
                   for mark, kind in zip(layout, kinds)]
        return _Table(path, text, columns, np.full(len(table), len(table.dtype)), None)
    by_width = {len(layout.replace("-", "")): layout for layout in layouts}
    rows, width, fault = [], [], None
    for lineno, raw, line in _data_lines(text):
        fields = line.split(sep)
        layout = by_width.get(len(fields))
        if layout is None:
            fault = DataError(f"{path}: line {lineno}: expected {form!r}, got {raw!r}")
            break
        values = iter(fields)
        try:
            rows.append([0 if mark == "-" else _KINDS[mark][1](next(values)) for mark in layout])
        except ValueError:
            fault = DataError(f"{path}: line {lineno}: cannot parse {raw!r}")
            break
        width.append(len(fields))
    columns = [np.array([row[j] for row in rows], dtype=object if kind == "i" else np.float64)
               for j, kind in enumerate(kinds)]
    return _Table(path, text, columns, np.array(width, dtype=np.int64), fault)


def load_graph(path):
    """Load a graph from an edge-list text file.

    Lines are "u v w" with w optional (default 1.0); '#' starts a comment.
    Vertex ids must be dense 0-based integers. Raises `DataError` with the
    offending line number on parse failures, and on duplicate edges,
    nonpositive or non-finite weights, id gaps, or disconnected graphs.
    """
    table = _read_table(path, None, "u v [w]", ("iif", "ii-"))
    u, v, w = table.columns
    w[table.width == 2] = 1.0
    table.check(((u < 0) | (v < 0), lambda i, raw: "negative vertex id"),
                (~((w > 0) & (w < math.inf)),
                 lambda i, raw: f"nonpositive or non-finite weight {float(w[i])}"))
    if not len(w):
        raise DataError(f"{path}: no edges")
    n = int(max(u.max(), v.max())) + 1
    size = min(n, 2 * len(w) + 5)  # 2m ids at most: if n > 2m + 5, five below it are missing
    seen = np.zeros(size + 1, dtype=bool)  # its last slot takes every larger id
    for ids in (u, v):
        seen[np.minimum(ids, size).astype(np.int64, copy=False)] = True
    if not seen[:size].all():
        missing = np.flatnonzero(~seen[:size])[:5].tolist()
        raise DataError(f"{path}: vertex ids have gaps (missing {missing})")
    edges = np.column_stack([u, v, w])
    del table, u, v, w  # the file's text and columns are freed before the gate's arrays
    return Graph.from_edges(n, edges)


def save_graph(g, path):
    """Write sorted "u v w" edge lines with round-trippable weights."""
    with open(path, "w") as fh:
        for u, v, w in g.edges():
            fh.write(f"{u} {v} {w:.17g}\n")


def load_positions(path):
    """Load per-vertex "x,y" coordinates, one line per vertex; both must
    be finite."""
    table = _read_table(path, ",", "x,y", ("ff",))
    x, y = table.columns
    table.check((~(np.isfinite(x) & np.isfinite(y)),
                 lambda i, raw: f"non-finite coordinate in {raw!r}"))
    if not len(x):
        raise DataError(f"{path}: no coordinates")
    return np.column_stack([x, y])


def _regular_edges(n, d, rng):
    """The edges (lo, hi), lo < hi, of a simple d-regular graph on n
    vertices, by the pairing model with repair.

    The n*d stubs (d per vertex) are paired by one random permutation.
    A whole pairing is simple only with probability about
    exp(-(d^2 - 1)/4), so instead of rejecting it, while self-loops or
    repeated edges remain their stubs are re-paired together with as many
    randomly chosen other pairs (alone, a lone self-loop could only be
    re-paired with itself). Dense degrees, d > (n-1)/2, are built as the
    complement of an (n-1-d)-regular graph.
    """
    if 2 * d > n - 1:
        keep = np.triu(np.ones((n, n), dtype=bool), 1)
        keep[_regular_edges(n, n - 1 - d, rng)] = False
        keys = np.flatnonzero(keep)  # np.nonzero's pairs, in its order, as contiguous arrays
        return keys // n, keys % n
    pairs = rng.permutation(np.repeat(np.arange(n), d)).reshape(-1, 2)
    for _ in range(MAX_PAIRING_ROUNDS):
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        bad = _repeats(lo * n + hi) | (lo == hi)  # keeps one of each edge
        n_bad = int(bad.sum())
        if n_bad == 0:
            return lo, hi
        others = rng.choice(np.flatnonzero(~bad), size=min(n_bad, len(pairs) - n_bad),
                            replace=False)
        redo = np.concatenate([np.flatnonzero(bad), others])
        pairs[redo] = rng.permutation(pairs[redo].ravel()).reshape(-1, 2)
    raise DataError(f"could not pair a simple {d}-regular graph on {n} vertices "
                    f"in {MAX_PAIRING_ROUNDS} rounds")


def _barabasi_albert_edges(n, k, rng):
    # Seed with a k-clique, then attach each new node with k edges chosen
    # degree-proportionally without replacement; returns the edges (lo, hi)
    # with lo < hi.
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
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
            edges.append((t, v))
            repeated += [t, v]
    return np.array(edges, dtype=np.int64).T.copy()  # rows lo and hi, each contiguous


def _grid_graph(rows, cols):
    """The rows x cols grid of unit weights, vertex r * cols + c at row r and
    column c: each vertex's neighbours up, left, right and down, in that
    (increasing) order, from one masked (n, 4) array, so its arc keys come
    out sorted."""
    n = rows * cols
    neighbours = np.arange(n)[:, None] + np.array([-cols, -1, 1, cols])
    present = np.ones((rows, cols, 4), dtype=bool)
    present[0, :, 0] = present[:, 0, 1] = present[:, -1, 2] = present[-1, :, 3] = False
    present = present.reshape(n, 4)
    arcs = (neighbours + n * np.arange(n)[:, None])[present]
    return Graph._from_arcs(n, arcs, np.ones(len(arcs)))


def _knn_edges(coords, k):
    try:
        from scipy.spatial import cKDTree  # the package's one use of scipy
    except ImportError:
        raise DataError("the knn generator needs scipy: pip install rsfsmooth[knn]") from None

    n = len(coords)
    _, nearest = cKDTree(coords).query(coords, k=k + 1)  # includes the point itself
    i, j = np.repeat(np.arange(n), k + 1), nearest.ravel()
    keys = np.unique((np.minimum(i, j) * n + np.maximum(i, j))[i != j])
    return keys // n, keys % n


# the keys each generator model takes
GENERATOR_KEYS = {"regular": ("n", "d"), "barabasi_albert": ("n", "k"), "ba": ("n", "k"),
                  "grid": ("rows", "cols", "n"), "knn": ("coords", "k")}


def check_keys(what, params, takes):
    """params less its keys passed as None; refuses any other `takes` lacks."""
    params = {key: v for key, v in params.items() if v is not None}
    for key in params:
        if key not in takes:
            raise DataError(f"unknown {what} key {key!r} (it takes {', '.join(takes) or 'none'})")
    return params


def gen_graph(model, seed=0, **params):
    """Generate a connected graph from a named random or deterministic model.

    Parameters
    ----------
    model : str
        One of "regular" (d-regular, needs `n`, `d`), "barabasi_albert"
        (needs `n`, `k`), "grid" (needs `rows`, `cols`), "knn" (needs
        `coords`, `k`). A key passed as None counts as absent; one the
        model does not take (`GENERATOR_KEYS`) is refused.
    seed : int
        An integer >= 0 for every model. Seeds the random models; the
        regular model retries with seed-derived streams until connected,
        up to a bounded number of attempts.
    """
    seed = _seed(seed)
    if model not in GENERATOR_KEYS:
        raise DataError(f"unknown graph model {model!r}")
    params = check_keys(f"{model} generator", params, GENERATOR_KEYS[model])
    coords = params.pop("coords", None)
    n, d, k, rows, cols = (integer(params[key], key) if key in params else None
                           for key in ("n", "d", "k", "rows", "cols"))
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
                return _unit_graph(n, *_regular_edges(n, d, numpy_rng(seed, attempt)))
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
        return _unit_graph(n, *_barabasi_albert_edges(n, k, numpy_rng(seed, 0)))
    if model == "grid":
        if rows is None or cols is None or rows < 1 or cols < 1:
            raise DataError("grid model needs rows >= 1 and cols >= 1")
        if n is not None and n != rows * cols:
            raise DataError(f"grid is {rows}x{cols}={rows * cols} vertices, got n={n}")
        return _grid_graph(rows, cols)
    if model == "knn":
        if np.ndim(coords) != 2 or k is None:  # None and a number have no rows
            raise DataError("knn model needs k and coords, an (n, d) array of points")
        if not np.isfinite(coords).all():  # cKDTree would raise a ValueError of its own
            raise DataError("knn coords must be finite")
        if k < 1 or k >= len(coords):
            raise DataError(f"infeasible knn graph: k={k}, {len(coords)} points")
        return _unit_graph(len(coords), *_knn_edges(coords, k))
