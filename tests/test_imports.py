"""Import-time and layering guards: the CLI and its exact and sampled runs
load no scipy, the CLI import leaves the compiled library unbuilt, the
test-scale oracles sit below the estimators, one loop draws every forest,
and each step-size rule and the enumeration reach are stated in one place."""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import rsfsmooth
import rsfsmooth.oracle


def fresh_python(code, **env):
    """Run code in a new interpreter that imports this checkout's package."""
    src = str(Path(rsfsmooth.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, timeout=60)


def test_cli_import_leaves_out_networkx_and_spatial(tmp_path):
    # scipy is only for `--gen knn` and `Graph.adjacency`: neither the CLI
    # import nor an exact solve or a sampled smooth on a file graph loads it
    gpath = tmp_path / "p3.txt"
    gpath.write_text("0 1\n1 2\n")
    common = f"'--graph', {str(gpath)!r}, '--signal', 'gaussian', '--q', '1'"
    res = fresh_python(
        "import sys, rsfsmooth.cli as cli\n"
        "def loaded(): return sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('networkx', 'scipy'))\n"
        "print(loaded())\n"
        f"assert cli.run(['exact', {common}, '--out', {str(tmp_path / 'x.csv')!r}]) == 0\n"
        f"assert cli.run(['smooth', {common}, '--n-samples', '3', "
        f"'--out', {str(tmp_path / 's.csv')!r}]) == 0\n"
        "print(loaded())", XDG_CACHE_HOME=str(tmp_path / "cache"))
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["[]", "[]"]


EXACT = ("import rsfsmooth.cli as cli, rsfsmooth._native as nat, rsfsmooth.linalg as la; "
         "print(nat._LIBRARY is nat._UNSET); code = cli.run(['exact', '--graph', {graph!r}, "
         "'--signal', 'gaussian', '--q', '0.5', '--format', 'json', '--out', {out!r}]); "
         "print(code, la._APPLY is la._laplacian_bincount)")


def test_cli_import_leaves_the_library_unbuilt_and_exact_matches_the_fallback(tmp_path):
    # numpy itself imports ctypes, so the guarantee is about the library:
    # importing the CLI neither loads nor compiles it. `exact` applies the
    # Laplacian through it, and without a compiler through the bincount
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
    # function; imports and the definition itself are not references
    users = package_scopes(lambda node: names(node, "sample_forest")
                           and not isinstance(node, ast.alias))
    assert users == {"estimators.accumulate_forests"}


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
