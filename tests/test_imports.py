"""Import-time and layering guards: no command but `--gen knn` loads
scipy, and that one refuses in one line where scipy is absent, each
command loads only the package modules it runs, every public name
resolves on first access, the CLI import leaves the compiled library
unbuilt, the test-scale oracles sit below the estimators, one loop draws
every forest, and each step-size rule and the enumeration reach are
stated in one place."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import rsfsmooth
import rsfsmooth.oracle


def fresh_python(code, *args, **env):
    """Run code, with sys.argv[1:] = args, in a new interpreter that
    imports this checkout's package."""
    src = str(Path(rsfsmooth.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, timeout=60)


def command_runs(tmp_path):
    """One argv of each command on a 4-cycle, `exact` first: also where a
    command builds the dense Laplacian (the oracle step size), solves for
    its signal (a smooth one) or enumerates forests (sweep-alpha on a tiny
    graph)."""
    gpath, labels = tmp_path / "c4.txt", tmp_path / "labels.csv"
    gpath.write_text("0 1\n1 2 0.5\n2 3\n3 0 2\n")
    labels.write_text("0,0\n1,0\n2,1\n3,1\n")
    graph = ["--graph", str(gpath)]
    runs = [
        ["exact", *graph, "--signal", "gaussian", "--q", "1"],
        ["smooth", *graph, "--signal", "smooth", "--q", "1", "--n-samples", "3"],
        ["smooth", *graph, "--signal", "gaussian", "--q", "1", "--alpha", "oracle"],
        ["sweep-alpha", *graph, "--q", "1", "--alpha-grid", "lin:0,1,3", "--n-samples", "4",
         "--realizations", "2"],
        ["denoise", *graph, "--signal", "smooth", "--noise-std", "0.1", "--q-grid", "1"],
        ["ssl", *graph, "--labels", str(labels), "--n-samples", "3", "--repeats", "2"],
        ["gen-graph", "--gen", "grid:rows=2,cols=3"],
    ]
    return [[*argv, "--out", str(tmp_path / f"out{i}")] for i, argv in enumerate(runs)]


def test_no_command_but_gen_knn_loads_scipy(tmp_path):
    # numpy is the one dependency of the run path: neither the CLI import
    # nor any command but `gen-graph --gen knn` loads a scipy module
    runs = command_runs(tmp_path)
    res = fresh_python(
        "import json, sys, rsfsmooth.cli as cli\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        f"for argv in json.loads({json.dumps(runs)!r}):\n"
        "    assert cli.run(argv) == 0, argv\n"
        "    print(loaded())", XDG_CACHE_HOME=str(tmp_path / "cache"))
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["[]"] * (1 + len(runs))


LOADED = """
import json, sys
before = set(sys.modules)
import rsfsmooth.cli as cli, rsfsmooth._native as nat

def loaded():
    return sorted(set(sys.modules) - before)

steps = [loaded()]
for argv in json.loads(sys.argv[1]):
    assert cli.run(argv) == 0, argv
    steps.append(loaded())
print(json.dumps({"built": nat.compiled() is not None, "steps": steps}))
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # the modules the package has loaded after its import and after each
    # command, in one interpreter, with the library already in the cache
    cache = str(tmp_path / "cache")
    warm = fresh_python("import rsfsmooth._native as nat; nat.kernels()", XDG_CACHE_HOME=cache)
    assert warm.returncode == 0, warm.stderr
    signal = tmp_path / "y.txt"
    signal.write_text("1\n-2\n0.5\n3\n")
    runs = command_runs(tmp_path)
    # first `exact` on files alone, which draws no random numbers
    runs.insert(0, ["exact", "--graph", str(tmp_path / "c4.txt"), "--signal", str(signal),
                    "--q", "1", "--out", str(tmp_path / "out_files")])
    res = fresh_python(LOADED, json.dumps(runs), XDG_CACHE_HOME=cache)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    imported, after_files, after_exact = (set(report["steps"][i]) for i in (0, 1, 2))
    assert runs[0][0] == runs[1][0] == "exact"
    # the library's name is a zlib checksum, and numpy's text reader is
    # handed open files, not paths, which it would open through its
    # decompressors; numpy.random, which every later command loads,
    # imports hashlib itself (through secrets and hmac)
    assert not {"hashlib", "gzip"} & after_files
    assert "gzip" not in report["steps"][-1]
    # steps add up, so this covers both `exact` runs
    assert not {f"rsfsmooth.{m}" for m in ("estimators", "experiments", "ssl", "oracle",
                                           "_twins")} & after_exact
    assert {"rsfsmooth.cli", "rsfsmooth.linalg", "rsfsmooth.graphs"} <= imported
    if report["built"]:
        assert "rsfsmooth._twins" not in report["steps"][-1]
        # the cached library is loaded without them; the interpreter's
        # own start-up may have loaded them before the package
        assert not {"subprocess", "tempfile"} & set(report["steps"][-1])
    # the oracle comes in with the commands that use it, the rest as run
    assert "rsfsmooth.oracle" in report["steps"][-1]
    assert {"rsfsmooth.estimators", "rsfsmooth.experiments",
            "rsfsmooth.ssl"} <= set(report["steps"][-1])


def test_every_public_name_resolves_and_is_listed():
    res = fresh_python(
        "import json, rsfsmooth\n"
        "missing = [n for n in rsfsmooth.__all__ if getattr(rsfsmooth, n, None) is None]\n"
        "namespace = {}\n"
        "exec('from rsfsmooth import *', namespace)\n"
        "print(json.dumps([missing, sorted(set(rsfsmooth.__all__) - set(dir(rsfsmooth))),\n"
        "                  sorted(set(rsfsmooth.__all__) - set(namespace))]))")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [[], [], []]


def test_gen_knn_without_scipy_ends_in_one_line(tmp_path):
    coords, out = tmp_path / "xy.csv", tmp_path / "g.txt"
    coords.write_text("0,0\n1,0\n0,1\n1,1\n")
    res = fresh_python(
        "import sys; sys.modules['scipy'] = None  # as if scipy were not installed\n"
        "import rsfsmooth.cli as cli\n"
        f"sys.exit(cli.run(['gen-graph', '--gen', 'knn:k=2', '--coords', {str(coords)!r}, "
        f"'--out', {str(out)!r}]))")
    assert res.returncode == 3
    assert res.stderr.splitlines() == [
        "error: the knn generator needs scipy: pip install rsfsmooth[knn]"]
    assert not out.exists()


EXACT = ("import rsfsmooth.cli as cli, rsfsmooth._native as nat; "
         "print(nat.compiled.cache_info().currsize == 0); "
         "code = cli.run(['exact', '--graph', {graph!r}, "
         "'--signal', 'gaussian', '--q', '0.5', '--format', 'json', '--out', {out!r}]); "
         "import rsfsmooth._twins as twins; print(code, nat._KERNELS is twins.TWINS)")


def test_cli_import_leaves_the_library_unbuilt_and_exact_matches_the_fallback(tmp_path):
    # numpy itself imports ctypes, so the guarantee is about the library:
    # importing the CLI neither loads nor compiles it. `exact` applies the
    # Laplacian through it, and without a compiler through its numpy
    # form, writing the same bytes; the cache holds the one library.
    gpath = tmp_path / "g.txt"
    gpath.write_text("0 1 0.5\n1 2 1.25\n2 3\n3 4 2\n4 0 0.75\n1 3 1.5\n")
    cache, bare_cache, no_cc = tmp_path / "cache", tmp_path / "bare", tmp_path / "bin"
    no_cc.mkdir()
    out_c, out_py = tmp_path / "c.json", tmp_path / "py.json"
    compiled = fresh_python(EXACT.format(graph=str(gpath), out=str(out_c)),
                            XDG_CACHE_HOME=str(cache))
    assert compiled.returncode == 0, compiled.stderr
    fallback = fresh_python(EXACT.format(graph=str(gpath), out=str(out_py)),
                            XDG_CACHE_HOME=str(bare_cache), PATH=str(no_cc))
    assert fallback.returncode == 0, fallback.stderr
    if shutil.which("cc") is not None:
        assert compiled.stdout.split() == ["True", "0", "False"]
        assert len(list((cache / "rsfsmooth").iterdir())) == 1
    assert fallback.stdout.split() == ["True", "0", "True"]
    assert not bare_cache.exists()
    assert out_py.read_bytes() == out_c.read_bytes()


def test_oracle_imports_only_lower_layers():
    res = fresh_python("import rsfsmooth.oracle")
    assert res.returncode == 0, res.stderr
    tree = ast.parse(Path(rsfsmooth.oracle.__file__).read_text())
    package_imports = {node.module for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert package_imports <= {"errors", "forests", "linalg"}


def package_scopes(matches):
    """The enclosing scopes ("module.function", "module.Class.method") of
    every node of the package for which matches(node) holds."""
    package = Path(rsfsmooth.__file__).parent
    users = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if matches(child):
                users.add(".".join(scope))
            visit(child, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), [path.stem])
    return users


def names(node, *identifiers):
    """Whether node reads or imports one of the identifiers."""
    return (isinstance(node, ast.Name) and node.id in identifiers
            or isinstance(node, ast.Attribute) and node.attr in identifiers
            or isinstance(node, ast.alias) and node.name in identifiers)


def test_only_accumulate_forests_draws_forests():
    # every reference to sample_forest in the package, by enclosing
    # function; imports and the definition itself are not references. The
    # estimators draw only through accumulate_forests; CG's multigrid
    # draws one forest per level, on a fixed stream, for its aggregates.
    users = package_scopes(lambda node: names(node, "sample_forest")
                           and not isinstance(node, ast.alias))
    assert users == {"estimators.accumulate_forests", "linalg._Multigrid.build"}


def test_only_accumulate_forests_feeds_an_accumulator():
    # every construction of a MonteCarloAccumulator and every call of a
    # two-argument `add` method other than numpy's, by enclosing function:
    # samples reach an accumulator only through accumulate_forests, one call
    # per forest for the whole signal block, so no per-signal loop survives
    # beside it
    def feeds(node):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            return False
        receiver = node.func.value
        return (node.func.attr == "add" and len(node.args) == 2
                and not (isinstance(receiver, ast.Name) and receiver.id == "np"))

    assert package_scopes(feeds) == {"estimators.accumulate_forests"}
    constructs = package_scopes(lambda node: names(node, "MonteCarloAccumulator")
                                and not isinstance(node, ast.alias))
    assert constructs == {"estimators.accumulate_forests"}


def test_only_the_monte_carlo_run_and_the_estimator_table_take_the_gradient_step():
    # every reference to gradient_step, by enclosing function: a run steps
    # through run_monte_carlo (ssl_forest too), and the experiments' table of
    # estimators through forest_estimates, so no second stepping path returns
    users = package_scopes(lambda node: names(node, "gradient_step")
                           and not isinstance(node, ast.alias))
    assert users == {"estimators.run_monte_carlo", "estimators.forest_estimates"}


def test_only_the_refusal_rule_reads_a_draws_fixed_cost():
    # every read of DRAW_FIXED_STEPS, by enclosing function: the rule that
    # refuses a run past the step budget is stated once, for every command
    def reads(node):
        return (names(node, "DRAW_FIXED_STEPS") and not isinstance(node, ast.alias)
                and not isinstance(getattr(node, "ctx", None), ast.Store))

    assert package_scopes(reads) == {"estimators.check_draw_budget"}


def test_only_the_run_drivers_check_the_draw_budget():
    # every reference to check_draw_budget, by enclosing function: each run
    # is charged once, by the one library call that runs it, so no command
    # charges a run beside the driver it calls
    users = package_scopes(lambda node: names(node, "check_draw_budget")
                           and not isinstance(node, ast.alias))
    assert users == {"estimators.run_monte_carlo", "experiments.sweep_alpha",
                     "experiments.denoise_table", "ssl.accuracy_experiment"}


def test_only_the_four_builders_lay_out_a_graph():
    # every reference to Graph._from_arcs and to __new__, by enclosing
    # function. _from_arcs lays out every graph from its sorted arc keys
    # and checks that it is connected, the one invariant of every source:
    # the file inputs reach it through from_edges, the random generators
    # through _unit_graph, then the grid and the multigrid's coarse levels.
    # It alone makes a Graph without the gate, so no builder lays out or
    # checks a graph beside it
    users = package_scopes(lambda node: names(node, "_from_arcs"))
    assert users == {"graphs.Graph.from_edges", "graphs._unit_graph", "graphs._grid_graph",
                     "linalg._quotient"}
    assert package_scopes(lambda node: names(node, "__new__")) == {"graphs.Graph._from_arcs"}


def test_only_load_graph_calls_the_gate():
    # every reference to Graph.from_edges, by enclosing function: edges
    # from outside come only through load_graph, and no generator keeps a
    # second path beside _unit_graph
    assert package_scopes(lambda node: names(node, "from_edges")) == {"graphs.load_graph"}


def test_only_the_knn_generator_imports_scipy():
    def imports_scipy(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
        return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"

    assert package_scopes(imports_scipy) == {"graphs._knn_edges"}


def test_only_the_oracle_calls_numpy_linalg():
    # every reference to np.linalg or numpy.linalg, by enclosing scope:
    # the run path solves with the package's own CG and Cholesky loops,
    # whose sums are fixed, so no output depends on the LAPACK kernel
    def linalg(node):
        if isinstance(node, ast.Attribute):
            return (node.attr == "linalg" and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy"))
        if isinstance(node, ast.Import):
            return any(alias.name.startswith("numpy.linalg") for alias in node.names)
        return (isinstance(node, ast.ImportFrom)
                and ((node.module or "").startswith("numpy.linalg")
                     or node.module == "numpy" and any(a.name == "linalg" for a in node.names)))

    users = package_scopes(linalg)
    assert users, "the guard found no reference at all"
    assert {scope.split(".")[0] for scope in users} == {"oracle"}, users


def test_only_the_oracle_names_the_enumeration_limits():
    users = package_scopes(lambda node: names(node, "ENUM_MAX_VERTICES", "ENUM_MAX_EDGES"))
    assert {scope.split(".")[0] for scope in users} == {"oracle"}


def test_only_the_strategy_and_resolve_alpha_compare_step_kinds():
    # a comparison with a kind's name, also inside a tuple ("x in (...)")
    kinds = {"empirical", "safe_constant", "oracle_optimal", "fixed"}

    def compares_kind(node):
        if not isinstance(node, ast.Compare):
            return False
        operands = [node.left, *node.comparators]
        operands += [e for o in operands if isinstance(o, (ast.Tuple, ast.List, ast.Set))
                     for e in o.elts]
        return any(isinstance(o, ast.Constant) and o.value in kinds for o in operands)

    users = package_scopes(compares_kind)
    assert users, "the guard found no comparison at all"
    assert all(scope.startswith("estimators.AlphaStrategy.")
               or scope == "estimators.resolve_alpha" for scope in users), users


def test_only_forests_builds_a_seed_sequence():
    # every reference to SeedSequence, by enclosing function: the one seed
    # rule (an integer >= 0) guards the two stream constructors, so no
    # module builds a numpy stream beside them
    users = package_scopes(lambda node: names(node, "SeedSequence"))
    assert users == {"forests.derive_seed", "forests.numpy_rng"}


def test_the_cli_leaves_the_key_tables_to_the_library():
    # gen_graph and synthetic_signal refuse a key their table does not
    # list; the CLI only parses the spec's text and reads no table
    users = package_scopes(lambda node: names(node, "check_keys", "GENERATOR_KEYS"))
    assert {scope.split(".")[0] for scope in users} == {"graphs", "signals"}, users
