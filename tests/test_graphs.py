import contextlib
import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse
from scipy.sparse import csgraph

import rsfsmooth
from rsfsmooth import (DataError, Graph, gen_graph, load_graph, load_labels, load_signal,
                       save_graph)
from rsfsmooth import forests, graphs
from rsfsmooth.graphs import load_positions

from conftest import (adjacency, assert_same_graph, cycle_graph, kernel_sets, path_graph,
                      random_connected_graph, star_graph, using_kernels)


def write(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoad:
    def test_p3(self, tmp_path):
        g = load_graph(write(tmp_path, "0 1\n1 2\n"))
        assert g.n == 3 and g.m == 2
        assert [e for e in g.edges()] == [(0, 1, 1.0), (1, 2, 1.0)]

    def test_weights_and_comments(self, tmp_path):
        g = load_graph(write(tmp_path, "# a comment\n0 1 2.5  # trailing\n\n1 2 0.25\n"))
        assert [w for _, _, w in g.edges()] == [2.5, 0.25]

    def test_duplicate_edge_rejected(self, tmp_path):
        with pytest.raises(DataError, match="duplicate"):
            load_graph(write(tmp_path, "0 1 2.0\n1 0 2.0\n"))

    def test_disconnected_reports_component_count(self, tmp_path):
        with pytest.raises(DataError, match="2 connected components"):
            load_graph(write(tmp_path, "0 1\n2 3\n"))

    def test_parse_error_has_line_number(self, tmp_path):
        with pytest.raises(DataError, match="line 2"):
            load_graph(write(tmp_path, "0 1\n0 x\n"))

    def test_nonpositive_weight(self, tmp_path):
        with pytest.raises(DataError, match="nonpositive"):
            load_graph(write(tmp_path, "0 1 0.0\n"))

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight(self, tmp_path, weight):
        with pytest.raises(DataError, match="line 2: nonpositive or non-finite"):
            load_graph(write(tmp_path, f"0 1\n1 2 {weight}\n"))
        with pytest.raises(DataError, match="non-finite"):
            Graph.from_edges(3, [(0, 1, 1.0), (1, 2, float(weight))])

    def test_self_loop(self, tmp_path):
        with pytest.raises(DataError, match="self-loop"):
            load_graph(write(tmp_path, "1 1\n0 1\n"))

    def test_id_gap_rejected(self, tmp_path):
        with pytest.raises(DataError, match="gap"):
            load_graph(write(tmp_path, "0 2\n"))

    def test_too_many_fields(self, tmp_path):
        with pytest.raises(DataError, match="line 1"):
            load_graph(write(tmp_path, "0 1 1.0 9\n"))

    def test_id_gap_message_does_not_scale_with_the_largest_id(self, tmp_path):
        # 2^63 - 1 is int64's largest, which numpy's reader parses; 2^63 is
        # past it: neither may size an array or wrap the vertex count
        for big in (10**6, 10**12, 2**63 - 1, 2**63):
            path = write(tmp_path, f"0 1\n1 {big}\n")
            tracemalloc.start()
            try:
                with pytest.raises(DataError, match=r"gaps \(missing \[2, 3, 4, 5, 6\]\)$"):
                    load_graph(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6  # a set of every id up to 10^6 takes tens of MB

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_a_pipe_is_read_once(self):
        # two fields a line, so numpy's reader refuses its first layout
        # before it parses the second, from the text read once
        src = str(Path(rsfsmooth.__file__).resolve().parents[1])
        code = ("from rsfsmooth import graphs\n"
                "stage = graphs._numpy_table\n"
                "def traced(*args):\n"
                "    table = stage(*args)\n"
                "    print(table and table[0])  # the layout numpy's reader parsed\n"
                "    return table\n"
                "graphs._numpy_table = traced\n"
                "print(list(graphs.load_graph('/dev/stdin').edges()))\n")
        res = subprocess.run(
            [sys.executable, "-c", code],
            input="0 1\n1 2\n", capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert res.returncode == 0, res.stderr
        assert res.stdout.split("\n")[:2] == ["ii-", "[(0, 1, 1.0), (1, 2, 1.0)]"]


LOADERS = [load_graph, load_positions, lambda path: load_signal(path, 3),
           lambda path: load_labels(path, 3)]
LOADER_IDS = ["graph", "positions", "signal", "labels"]


class TestLineReader:
    """All four text inputs share one line protocol: UTF-8 text, '#'
    comments, blank lines skipped, a wrong field count refused naming the
    line's form."""

    @pytest.mark.parametrize("load,text,form", [
        (load_graph, "0 1\n# c\n\n1 2 1.0 9\n", "u v [w]"),
        (load_positions, "0,1  # c\n\n# c\n2\n", "x,y"),
        (lambda path: load_signal(path, 3), "# c\n0,1\n\n0,1,2\n", "[node,]value"),
        (lambda path: load_labels(path, 3), "0,1\n\n# 1,1\n2,1,0\n", "node,class_id"),
    ], ids=["graph", "positions", "signal", "labels"])
    def test_wrong_field_count_names_the_form(self, tmp_path, load, text, form):
        path = write(tmp_path, text)
        with pytest.raises(DataError, match=f"{re.escape(path)}: line 4: "
                                            f"expected {re.escape(repr(form))}, got"):
            load(path)

    @pytest.mark.parametrize("load", LOADERS, ids=LOADER_IDS)
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, load):
        # lines end at LF, CR LF and a lone CR alike; é is UTF-8
        path = tmp_path / "bad.txt"
        path.write_bytes(b"0,1 1\r\n# caf\xc3\xa9\r1,2 2\xff\n2,0 3\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 3: "
                                            "not valid UTF-8 text$"):
            load(str(path))

    # numpy's reader warns on a file without data; the loop's message stands
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "# only a comment\n\n  \n"], ids=["empty", "comments"])
    @pytest.mark.parametrize("load,message", [
        (load_graph, "no edges"), (load_positions, "no coordinates"),
        (LOADERS[2], "expected 3 values, got 0"), (LOADERS[3], "no labels"),
    ], ids=LOADER_IDS)
    def test_a_file_without_data_lines(self, tmp_path, text, load, message):
        path = write(tmp_path, text)
        with pytest.raises(DataError, match=f"^{re.escape(path)}: {message}$"):
            load(path)


def line_loop_only():
    """Every reader with numpy's reader turned away: the line loop alone."""
    return mock.patch.object(graphs, "_numpy_table", lambda *args: None)


def outcome(load, path):
    """What load(path) gives: the dtype, shape and bytes of each array it
    returns, or its DataError's text."""
    try:
        result = load(path)
    except DataError as err:
        return str(err)
    arrays = (result,)
    if isinstance(result, Graph):
        arrays = (result.indptr, result.indices, result.weights)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


# fields that int() or float() reads and numpy's reader may not, or reads
# to a value a check refuses: signs, leading zeros, underscores, non-ASCII
# digits, ids past int64, and weights past the float range
TRICKY = ["+1", "01", "1.0", "1_0", "\u0663", "-1", "9223372036854775808",
          "9223372036854775807", "1000000000000", "inf", "-inf", "nan", "-nan", "1e400",
          "1e-400", "0x1p3", "0", "-0", "4", " 2 ", ""]
N_SIGNAL = 4


def graph_rows(draw):
    """A connected graph on 2 to 6 vertices: a shuffled path, oriented at
    random, and some chords, with a weight on every line or none."""
    k = draw(st.integers(2, 6))
    pairs = [(i, i + 1) for i in range(k - 1)]
    pairs += draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                           max_size=3))
    weighted = draw(st.booleans())
    rows = []
    for a, b in draw(st.permutations(pairs)):
        ends = [str(b), str(a)] if draw(st.booleans()) else [str(a), str(b)]
        rows.append(ends + [draw(st.sampled_from(["1", "2.5", "0.25", "1e-3"]))] * weighted)
    return rows


def position_rows(draw):
    value = st.sampled_from(["0", "1.5", "-3", "4e-2", "+2", "1e300", ".5"])
    return draw(st.lists(st.lists(value, min_size=2, max_size=2), min_size=1, max_size=5))


def signal_rows(draw):
    value = st.sampled_from(["0", "1.5", "-3", "4e-2", "+2", "nan", "inf", "-0"])
    values = [[draw(value)] for _ in range(N_SIGNAL)]
    if draw(st.booleans()):
        return values
    return [[str(i)] + values[i] for i in draw(st.permutations(range(N_SIGNAL)))]


def label_rows(draw):
    nodes = draw(st.lists(st.integers(0, N_SIGNAL - 1), min_size=1, max_size=N_SIGNAL,
                          unique=True))
    return [[str(i), draw(st.sampled_from(["0", "1", "2"]))] for i in nodes]


READERS = {  # reader, field separators, the rows of a file it accepts
    "graph": (load_graph, [" ", "\t", "  "], graph_rows),
    "positions": (load_positions, [",", ", ", " ,"], position_rows),
    "signal": (lambda path: load_signal(path, N_SIGNAL), [",", ", "], signal_rows),
    "labels": (lambda path: load_labels(path, N_SIGNAL), [",", " , "], label_rows),
}


@st.composite
def text_files(draw, separators, rows):
    """The text of a file of `rows` with up to three changes, each a field
    swapped for a tricky one, a field more or fewer, or a line dropped or
    repeated, and with comments, blank lines and whitespace mixed in, and
    LF or CR LF line ends."""
    rows = rows(draw)
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2, 3]))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        fields = list(rows[i])
        change = draw(st.sampled_from(["swap"] * 8 + ["more", "fewer", "drop", "repeat"]))
        if change == "swap":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(TRICKY))
        elif change == "more":
            fields.append(draw(st.sampled_from(["1", "2"])))
        elif change == "fewer" and len(fields) > 1:
            fields.pop()
        rows[i:i + 1] = {"drop": [], "repeat": [fields, fields]}.get(change, [fields])
    lines = []
    for fields in rows:
        extra = draw(st.sampled_from([None] * 10 + ["", "# c", "  ", "#0 1 2", "\t# 1,2"]))
        lines += [] if extra is None else [extra]
        lines.append(draw(st.sampled_from(separators)).join(fields)
                     + draw(st.sampled_from(["", "", " # c 1", "#", " "])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(sorted(READERS)).flatmap(
    lambda reader: text_files(*READERS[reader][1:]).map(lambda text: (reader, text))))
# for each rule the readers check, a file that numpy's reader parses and
# that breaks that rule alone, so that the line of the row is looked up
@example(case=("graph", "0 1\n-1 1\n"))
@example(case=("graph", "0 1 1\n1 2 -0\n"))
@example(case=("graph", "0 1 1\n1 2 1e400\n"))
@example(case=("graph", "0 1\n1 3\n"))
@example(case=("positions", "0,1\n1,inf\n"))
@example(case=("signal", "1\n2\n3\n"))
@example(case=("signal", "0,1\n1,2\n2,3\n2,4\n"))
@example(case=("labels", "0,-1\n"))
@example(case=("labels", "4,1\n"))
@example(case=("labels", "0,1\n0,2\n"))
def test_numpys_reader_gives_what_the_line_loop_gives(tmp_path_factory, case):
    # the same arrays, bit for bit, or the same DataError text
    reader, text = case
    load = READERS[reader][0]
    path = tmp_path_factory.getbasetemp() / f"{reader}.txt"
    path.write_bytes(text.encode())
    with line_loop_only():
        expected = outcome(load, str(path))
    assert outcome(load, str(path)) == expected


# each file breaks more than one rule, or has a line only the line loop
# reads: the first line at fault names the error, as it did when each line
# was parsed and checked in turn, whichever stage parses the file
@pytest.mark.parametrize("reader,text,expected", [
    ("graph", "0 1\n-1 2\n0 x\n", "line 2: negative vertex id"),
    ("graph", "0 x\n-1 2\n", "line 1: cannot parse '0 x\\n'"),
    ("graph", "0 1 nan\n1 2 x\n", "line 1: nonpositive or non-finite weight nan"),
    ("graph", "0 1 1\r1 2 -1\r2 3 1\r", "line 2: nonpositive or non-finite weight -1.0"),
    ("graph", "0 1\r\n1 2 x\r", "line 2: cannot parse '1 2 x\\n'"),
    ("graph", "0 1 1\n-1 2 0\n", "line 2: negative vertex id"),
    ("labels", "0,9223372036854775808\n", "line 1: class id 9223372036854775808 exceeds 2^63 - 1"),
    ("labels", "99999999999999999999,1\n", "line 1: node 99999999999999999999 out of range"),
    ("labels", "0,1\n  \n1,2\n1,0\n", "line 4: duplicate node 1"),
    ("labels", "0,1\n9,-1\n", "line 2: node 9 out of range"),
    ("signal", "0,1\n0,2\n3\n", "line 2: duplicate node 0"),
    ("signal", "1\n \t\n2\n3\n4\n", [1.0, 2.0, 3.0, 4.0]),
    ("positions", "0,1\n \n1,inf\n", "line 3: non-finite coordinate in '1,inf\\n'"),
], ids=["negative-before-parse", "parse-before-negative", "weight-before-parse",
        "lone-cr", "cr-lf-and-lone-cr", "negative-before-weight", "class-past-int64",
        "node-past-int64", "blank-csv-line-duplicate", "range-before-class",
        "duplicate-before-mixed", "blank-csv-line", "blank-csv-line-non-finite"])
@pytest.mark.parametrize("loop", [False, True], ids=["any-stage", "loop"])
def test_a_file_is_refused_for_its_first_line_at_fault(tmp_path, reader, text, expected, loop):
    path = tmp_path / f"{reader}.txt"
    path.write_bytes(text.encode())
    with line_loop_only() if loop else contextlib.nullcontext():
        try:
            got = READERS[reader][0](str(path)).tolist()
        except DataError as err:
            got = str(err)
    assert got == (expected if isinstance(expected, list) else f"{path}: {expected}")


class TestRoundTrip:
    def test_save_load_bit_identical(self, tmp_path):
        g = random_connected_graph(40, extra_edges=60,
                                   rng=np.random.default_rng(5), weighted=True)
        path = tmp_path / "saved.txt"
        save_graph(g, path)
        g2 = load_graph(str(path))
        assert list(g.edges()) == list(g2.edges())
        assert np.array_equal(g.weights, g2.weights)

    def test_positions_roundtrip(self, tmp_path):
        path = tmp_path / "coords.txt"
        path.write_text("0.5,1.25\n-3,4e-2\n")
        coords = load_positions(str(path))
        assert coords.shape == (2, 2)
        assert coords[1, 1] == 0.04


class TestDegrees:
    def test_path(self, p3):
        deg, dmax = p3.degrees, p3.d_max
        assert np.array_equal(deg, [1.0, 2.0, 1.0]) and dmax == 2.0

    def test_triangle(self, triangle):
        deg, dmax = triangle.degrees, triangle.d_max
        assert np.array_equal(deg, [2.0, 2.0, 2.0]) and dmax == 2.0

    def test_star_hub(self):
        assert star_graph(4).d_max == 4.0

    def test_degree_sum_is_twice_weight_sum(self):
        g = random_connected_graph(30, extra_edges=40,
                                   rng=np.random.default_rng(9), weighted=True)
        total_w = sum(w for _, _, w in g.edges())
        assert g.degrees.sum() == pytest.approx(2.0 * total_w, rel=1e-12)


class TestGenerators:
    def test_regular_counts(self):
        g = gen_graph("regular", n=1000, d=20, seed=3)
        assert g.n == 1000 and g.m == 10000
        assert np.all(g.degrees == 20.0)

    def test_regular_reproducible(self):
        a = gen_graph("regular", n=200, d=6, seed=11)
        b = gen_graph("regular", n=200, d=6, seed=11)
        assert list(a.edges()) == list(b.edges())
        c = gen_graph("regular", n=200, d=6, seed=12)
        assert list(a.edges()) != list(c.edges())

    # (12, 7) and (10, 9) are built as complements; (10, 9) must be K_10
    @pytest.mark.parametrize("n,d", [(30, 4), (200, 6), (1000, 20), (12, 7), (10, 9)])
    def test_regular_simple_and_connected(self, n, d):
        g = gen_graph("regular", n=n, d=d, seed=5)
        assert np.all(np.diff(g.indptr) == d) and np.all(g.degrees == d)
        arc_rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
        assert not np.any(arc_rows == g.indices)  # no self-loop
        edges = [(u, v) for u, v, _ in g.edges()]
        assert len(set(edges)) == len(edges) == n * d // 2  # no repeated edge
        assert csgraph.connected_components(adjacency(g), directed=False)[0] == 1

    def test_regular_covers_every_labelled_cycle(self):
        # 6!/(2*6) = 60 labelled 6-cycles; the two-triangle draws are
        # disconnected and retried, so every seed yields a 6-cycle
        cycles = {tuple((u, v) for u, v, _ in gen_graph("regular", n=6, d=2, seed=s).edges())
                  for s in range(2000)}
        assert len(cycles) == 60

    def test_regular_infeasible(self):
        with pytest.raises(DataError, match="infeasible"):
            gen_graph("regular", n=5, d=3, seed=0)  # odd n*d

    def test_barabasi_albert_counts(self):
        # clique seed of k nodes plus k edges per newcomer:
        # m = k(k-1)/2 + k(n-k)
        g = gen_graph("barabasi_albert", n=1000, k=10, seed=2)
        assert g.n == 1000 and g.m == 45 + 10 * 990
        assert g.d_max > 40  # heavy-tailed hubs

    def test_barabasi_albert_tree_case(self):
        g = gen_graph("ba", n=50, k=1, seed=4)
        assert g.m == 49

    def test_barabasi_albert_reproducible(self):
        a = gen_graph("ba", n=120, k=4, seed=7)
        b = gen_graph("ba", n=120, k=4, seed=7)
        assert list(a.edges()) == list(b.edges())

    def test_barabasi_albert_infeasible(self):
        with pytest.raises(DataError, match="infeasible"):
            gen_graph("ba", n=5, k=5, seed=0)

    def test_grid_square(self):
        g = gen_graph("grid", rows=2, cols=2)
        assert g.n == 4 and g.m == 4

    def test_grid_n_mismatch(self):
        with pytest.raises(DataError, match="grid"):
            gen_graph("grid", rows=2, cols=3, n=5)

    def test_knn_connected(self):
        rng = np.random.default_rng(21)
        coords = rng.uniform(size=(60, 2))
        g = gen_graph("knn", coords=coords, k=5, seed=0)
        assert g.n == 60
        assert np.all(g.degrees >= 5)  # union symmetrization only adds edges

    def test_unknown_model(self):
        with pytest.raises(DataError, match="unknown graph model"):
            gen_graph("smallworld", n=10, seed=0)

    @pytest.mark.parametrize("model, params, message", [
        ("grid", {"rows": 2, "cols": 3, "d": 4}, "unknown grid generator key 'd' "
                                                 "(it takes rows, cols, n)"),
        ("ba", {"n": 10, "k": 2, "rows": 4}, "unknown ba generator key 'rows' (it takes n, k)"),
        ("regular", {"n": 10, "d": 3, "k": 2}, "unknown regular generator key 'k' "
                                               "(it takes n, d)"),
        ("smallworld", {"rows": 4}, "unknown graph model 'smallworld'"),
    ], ids=["grid", "ba", "regular", "unknown-model"])
    def test_a_key_the_model_does_not_take_is_refused(self, model, params, message):
        # the model is refused by name before its keys
        with pytest.raises(DataError) as err:
            gen_graph(model, seed=0, **params)
        assert str(err.value) == message


def unit_rows(lo, hi):
    """(u, v, 1.0) rows of the edges (lo[e], hi[e]), for `Graph.from_edges`."""
    return np.column_stack([lo, hi, np.ones(len(lo))])


def regular_from_edges(n, d, seed):
    """gen_graph's regular model with each attempt's edges through
    `Graph.from_edges`, which also checks that they are simple, and the
    number of the attempt that came out connected."""
    for attempt in range(graphs.MAX_CONNECTIVITY_RETRIES):
        edges = graphs._regular_edges(n, d, forests.numpy_rng(seed, attempt))
        try:
            return Graph.from_edges(n, unit_rows(*edges)), attempt
        except DataError as err:
            assert str(err).startswith("disconnected graph: "), err
    raise AssertionError("no attempt came out connected")


# n=50, d=2, seed=1 is connected on its tenth attempt, and n=12, d=7 is
# built as the complement of a 4-regular graph; n=4, d=2 and n=6, d=3,
# complements of a 1-regular and of a 2-regular graph (a 4-cycle, and a
# prism or K3,3), are connected at every attempt, so a miscount of their
# components would move them to a later one
@pytest.mark.parametrize("n,d,seed,attempt", [
    (200, 6, 11, 0), (50, 2, 1, 9), (12, 7, 5, 0), (10, 9, 0, 0), (20000, 10, 11, 0),
    *[(n, d, seed, 0) for n, d in ((4, 2), (6, 3)) for seed in range(4)]])
def test_regular_graph_is_its_from_edges_twin(n, d, seed, attempt):
    for chosen in kernel_sets():
        with using_kernels(chosen):
            twin, connected_at = regular_from_edges(n, d, seed)
            assert connected_at == attempt
            assert_same_graph(gen_graph("regular", n=n, d=d, seed=seed), twin)


@pytest.mark.parametrize("n,k,seed", [(120, 4, 7), (50, 1, 4), (2000, 3, 2)])
def test_barabasi_albert_graph_is_its_from_edges_twin(n, k, seed):
    edges = graphs._barabasi_albert_edges(n, k, forests.numpy_rng(seed, 0))
    for chosen in kernel_sets():
        with using_kernels(chosen):
            assert_same_graph(gen_graph("ba", n=n, k=k, seed=seed),
                              Graph.from_edges(n, unit_rows(*edges)))


def test_knn_graph_is_its_from_edges_twin():
    coords = np.random.default_rng(21).uniform(size=(300, 2))
    for chosen in kernel_sets():
        with using_kernels(chosen):
            assert_same_graph(gen_graph("knn", coords=coords, k=5),
                              Graph.from_edges(300, unit_rows(*graphs._knn_edges(coords, 5))))


def test_knn_disconnected_fails():
    # two pairs of points, each the other's nearest neighbour: the
    # generator ends in the gate's message for the same edges
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.5, 0.0]])
    for chosen in kernel_sets():
        with using_kernels(chosen):
            for build in (lambda: gen_graph("knn", coords=coords, k=1),
                          lambda: Graph.from_edges(4, unit_rows(*graphs._knn_edges(coords, 1)))):
                with pytest.raises(DataError) as err:
                    build()
                assert str(err.value) == "disconnected graph: 2 connected components"


def test_the_constructor_refuses_a_disconnected_layout():
    # Graph._from_arcs checks every graph it lays out, whichever builder
    # passes the arcs: two disjoint edges on 4 vertices are 2 components
    arcs = np.array([0 * 4 + 1, 1 * 4 + 0, 2 * 4 + 3, 3 * 4 + 2])
    for chosen in kernel_sets():
        with using_kernels(chosen):
            with pytest.raises(DataError) as err:
                Graph._from_arcs(4, arcs, np.ones(4))
            assert str(err.value) == "disconnected graph: 2 connected components"


@st.composite
def edge_sets(draw):
    """Simple edge sets on 1 to 40 vertices, with none to about three edges
    per vertex, so that any number of components and isolated vertices
    occur, in shuffled order and orientation."""
    n = draw(st.integers(1, 40))
    ids = st.integers(0, n - 1)
    drawn = draw(st.lists(st.tuples(ids, ids), max_size=draw(st.sampled_from([0, n, 3 * n]))))
    pairs = sorted({(min(a, b), max(a, b)) for a, b in drawn if a != b})
    pairs = [(b, a) if draw(st.booleans()) else (a, b) for a, b in pairs]
    return n, draw(st.permutations(pairs))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edge_sets())
@example((1, []))
@example((6, []))
def test_component_count_matches_csgraph(case):
    n, pairs = case
    u, v = (np.array([p[i] for p in pairs], dtype=np.int64) for i in (0, 1))
    adj = sparse.coo_matrix((np.ones(len(pairs)), (u, v)), shape=(n, n))
    expected = csgraph.connected_components(adj, directed=False)[0]
    edges = [(a, b, 1.0) for a, b in pairs]
    for chosen in kernel_sets():
        assert chosen.components(n, u, v) == expected
        with using_kernels(chosen):
            if expected == 1:
                assert Graph.from_edges(n, edges).n == n
            else:
                with pytest.raises(DataError) as err:
                    Graph.from_edges(n, edges)
                assert str(err.value) == f"disconnected graph: {expected} connected components"


def test_component_count_on_long_shuffled_paths():
    # paths whose labels are a random permutation take the twin the most
    # hooking rounds and the longest pointer chains, and the union-find the
    # longest paths to halve; 7 vertices with all 6 edges cut have none
    rng = np.random.default_rng(5)
    for n, cuts in ((1, 0), (2, 1), (7, 6), (5000, 0), (5000, 3), (20000, 40)):
        order = rng.permutation(n)
        keep = np.ones(max(n - 1, 0), dtype=bool)
        keep[rng.choice(n - 1, size=cuts, replace=False)] = False
        u, v = order[:-1][keep], order[1:][keep]
        for chosen in kernel_sets():
            assert chosen.components(n, u, v) == cuts + 1


def test_single_vertex_graph_is_valid():
    g = Graph.from_edges(1, [])
    assert g.n == 1 and g.m == 0 and g.d_max == 0.0


def test_graph_arrays_read_only(p3):
    with pytest.raises(ValueError):
        p3.weights[0] = 5.0


def test_cycle_graph_shape():
    g = cycle_graph(5)
    assert g.m == 5 and np.all(g.degrees == 2.0)


def test_adjacency_symmetric():
    g = gen_graph("ba", n=80, k=3, seed=6)
    asym = adjacency(g) - adjacency(g).T
    assert asym.nnz == 0


def test_path_graph_weighted():
    g = path_graph(3, weights=[0.5, 2.0])
    assert np.array_equal(g.degrees, [0.5, 2.5, 2.0])


def id_text(x):
    """An id as the error messages give it: an integer's digits, else repr."""
    return str(int(x)) if x.is_integer() and abs(x) < 2.0**53 else repr(x)


def reference_csr(n, edges):
    """Per-edge construction that `Graph.from_edges` must match: each edge
    is checked in input order (integer ids, self-loop, range, weight,
    duplicate), then the arcs go through scipy's COO to CSR conversion."""
    seen = set()
    rows, cols, vals = [], [], []
    for u, v, w in edges:
        u, v, w = float(u), float(v), float(w)
        a, b = id_text(u), id_text(v)
        if not (u.is_integer() and v.is_integer()):  # NaN and inf are not
            raise DataError(f"vertex id is not an integer: edge ({a}, {b})")
        if u == v:
            raise DataError(f"self-loop at vertex {a}")
        if not (0 <= u < n and 0 <= v < n):
            raise DataError(f"vertex id out of range: edge ({a}, {b}) with n={n}")
        u, v = int(u), int(v)
        if not 0 < w < math.inf:
            raise DataError(f"nonpositive or non-finite weight {w} on edge ({u}, {v})")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DataError(f"duplicate undirected edge ({key[0]}, {key[1]})")
        seen.add(key)
        rows += [u, v]
        cols += [v, u]
        vals += [w, w]
    adj = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=np.float64).tocsr()
    adj.sort_indices()
    ncomp, _ = csgraph.connected_components(adj, directed=False)
    if ncomp != 1:
        raise DataError(f"disconnected graph: {ncomp} connected components")
    return adj


@st.composite
def edge_lists(draw):
    """Small edge lists mixing valid edges (a spanning path half the time)
    with self-loops, out-of-range ids, ids that are not integers (or are
    integral floats), bad weights and repeated edges."""
    n = draw(st.integers(1, 6))
    good = st.floats(0.1, 10.0)
    weight = st.one_of(good, st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]))
    ids = st.one_of(st.integers(-1, n), st.sampled_from(
        [0.0, 1.0, 0.5, 1.5, -0.5, math.nan, math.inf, -math.inf, 1e30, 2.0**63]))
    edges = [(i, i + 1, draw(good)) for i in range(n - 1)] if draw(st.booleans()) else []
    edges += draw(st.lists(st.tuples(ids, ids, weight), max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        if edges:  # repeat an edge, in either orientation
            u, v, w = draw(st.sampled_from(edges))
            edges.append((v, u, w) if draw(st.booleans()) else (u, v, w))
    return n, draw(st.permutations(edges))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(edge_lists())
def test_from_edges_matches_per_edge_reference(case):
    n, edges = case
    try:
        ref = reference_csr(n, edges)
    except DataError as err:
        with pytest.raises(DataError) as got:
            Graph.from_edges(n, edges)
        assert str(got.value) == str(err)
        return
    g = Graph.from_edges(n, edges)
    assert g.indptr.dtype == g.indices.dtype == np.int64 and g.weights.dtype == np.float64
    assert np.array_equal(g.indptr, ref.indptr)
    assert np.array_equal(g.indices, ref.indices)
    assert np.array_equal(g.weights, ref.data)


@pytest.mark.parametrize("edges,message", [
    ([(0, 1.5, 1.0), (1, 2, 1.0)], "vertex id is not an integer: edge (0, 1.5)"),
    ([(0, 1, 1.0), (math.nan, 2, 1.0)], "vertex id is not an integer: edge (nan, 2)"),
    ([(0, 1, 1.0), (1, 1e30, 1.0)], "vertex id out of range: edge (1, 1e+30) with n=3"),
    ([(0, 1, 1.0), (1, 0, 1.0), (2, 2, 1.0)], "duplicate undirected edge (0, 1)"),
    ([(0, 1, 1.0), (2, 2, 1.0), (1, 0, 1.0)], "self-loop at vertex 2"),
], ids=["fraction", "nan", "huge", "duplicate-before-self-loop", "self-loop-before-duplicate"])
def test_from_edges_names_the_first_bad_edge_as_given(edges, message):
    # the ids are checked before the int cast, which made 1.5 a 1 and
    # NaN or 1e30 the id -2^63; the first bad edge in input order wins
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError) as err:
            Graph.from_edges(3, edges)
    assert str(err.value) == message


@pytest.mark.parametrize("edges,message", [
    ([(0, 1, 1.0), (1, 2, -1.0), (1, 0, 1.0)], "nonpositive or non-finite weight -1.0 on edge (1, 2)"),
    ([(0, 1, 1.0), (1, 0, 1.0), (1, 2, math.nan)], "duplicate undirected edge (0, 1)"),
    ([(1, 2, 1.0), (0, 1, math.inf), (2, 2, 1.0)], "nonpositive or non-finite weight inf on edge (0, 1)"),
], ids=["weight-before-duplicate", "duplicate-before-weight", "weight-before-self-loop"])
def test_from_edges_names_the_first_fault_whatever_its_arc_sort_finds(edges, message):
    # the sorted arcs hold two equal keys for the later duplicate or
    # self-loop; the message still names the first bad edge in input order
    with pytest.raises(DataError) as err:
        Graph.from_edges(3, edges)
    assert str(err.value) == message


def grid_edges(rows, cols):
    """The edges of the rows x cols grid, vertex r * cols + c at row r and
    column c: the `from_edges` twin of the grid generator's own CSR."""
    ids = np.arange(rows * cols).reshape(rows, cols)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:].ravel()])
    return np.column_stack([u, v, np.ones(len(u))])


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (5, 1), (2, 2), (3, 7), (17, 4),
                                       (60, 60), (300, 300)])
def test_grid_is_its_from_edges_twin(rows, cols):
    assert_same_graph(gen_graph("grid", rows=rows, cols=cols),
                      Graph.from_edges(rows * cols, grid_edges(rows, cols)))


def repeats_reference(keys):
    """Whether each entry of keys equals an earlier one, from the first
    indices np.unique gives."""
    repeat = np.ones(len(keys), dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    return repeat


int64_keys = st.one_of(
    st.lists(st.integers(-3, 3), max_size=200),  # many repeats
    st.lists(st.integers(-2**63, 2**63 - 1), max_size=60, unique=True),  # no repeats
    st.tuples(st.integers(-2**63, 2**63 - 1), st.integers(0, 100)).map(
        lambda pair: [pair[0]] * pair[1]))  # all equal


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    int64_keys.map(lambda keys: np.array(keys, dtype=np.int64)),
    # the readers' loop keeps ids past int64 as Python ints in object arrays
    st.one_of(int64_keys, st.lists(st.sampled_from([-2**70, -1, 0, 2**63, 2**70]),
                                   max_size=40)).map(lambda keys: np.array(keys, dtype=object))))
@example(np.zeros(0, dtype=np.int64))
@example(np.zeros(0, dtype=object))
def test_repeats_are_those_of_np_unique(keys):
    got = graphs._repeats(keys)
    assert got.dtype == bool and got.shape == keys.shape
    assert np.array_equal(got, repeats_reference(keys))


def test_from_edges_takes_an_array():
    rows = np.array([[0, 1, 2.5], [2, 1, 0.25]])
    assert list(Graph.from_edges(3, rows).edges()) == [(0, 1, 2.5), (1, 2, 0.25)]
    with pytest.raises(DataError, match="shape"):
        Graph.from_edges(3, rows[:, :2])


KNN_COORDS = np.random.default_rng(21).uniform(size=(60, 2))


# sha256 of `save_graph` output; any change to a generator or to the edge
# format shows up here. regular n=50, d=2, seed=1 is connected on its tenth
# attempt, and regular n=12, d=7 is built as a complement.
@pytest.mark.parametrize("kwargs,digest", [
    (dict(model="regular", n=200, d=6, seed=11),
     "fdc31043c471cf1685a04c9becd728c34c9488706571f2e59d060ed53f73b29f"),
    (dict(model="regular", n=50, d=2, seed=1),
     "5af9aecba45f4c1b7550c31472b14f2fb20321b93910b4d05db1579071433392"),
    (dict(model="regular", n=12, d=7, seed=5),
     "ad5ea3e5600bbf30ddff02fab3001699b4c29e028eb3c7dda53811c06c4d8352"),
    (dict(model="ba", n=120, k=4, seed=7),
     "0fb8b6d26f0bcc16817051142e8f44fd5a98cc3a6a68c2b8678b919d5a3b8133"),
    (dict(model="grid", rows=7, cols=9),
     "c5cb10fc1c6fb400c16a86970b55507ff58d6267b9402e4934c83683f57e0a6b"),
    (dict(model="knn", coords=KNN_COORDS, k=5),
     "9a092c89730c3ac356c9604412ab390aea73606e7167b31494d1989d46968c77"),
], ids=["regular-sparse", "regular-retried", "regular-complement", "ba", "grid", "knn"])
def test_generator_output_pinned(tmp_path, kwargs, digest):
    path = tmp_path / "g.txt"
    save_graph(gen_graph(**kwargs), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
