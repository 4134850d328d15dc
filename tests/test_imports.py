"""Import-time guards: the CLI loads no optional dependency, and the
test-scale oracles sit below the estimators."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import rsfsmooth
import rsfsmooth.oracle


def fresh_python(code):
    """Run code in a new interpreter that imports this checkout's package."""
    src = str(Path(rsfsmooth.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)


def test_cli_import_leaves_out_networkx_and_spatial():
    res = fresh_python("import sys, rsfsmooth.cli; print(sorted(m for m in sys.modules "
                       "if m.split('.')[0] == 'networkx' or m.startswith('scipy.spatial')))")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_oracle_imports_only_lower_layers():
    res = fresh_python("import rsfsmooth.oracle")
    assert res.returncode == 0, res.stderr
    tree = ast.parse(Path(rsfsmooth.oracle.__file__).read_text())
    package_imports = {node.module for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert package_imports <= {"errors", "forests", "linalg"}
