"""Tests of the benchmark's own arithmetic and output checks.

Run with `python3 -m pytest perfbench`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _tree():
    # cli.run [0, 10] -> forests.sample_forest [1, 4] -> first walk_tables [2, 3]
    #                 -> forests.sample_forest [5, 9] -> later walk_tables [6, 6.5]
    return [
        ["cli.run", 0.0, 10.0, -1, None],
        ["forests.sample_forest", 1.0, 4.0, 0, {"steps": 100, "key": [7, 0]}],
        ["graphs.Graph.walk_tables", 2.0, 3.0, 1, None],
        ["forests.sample_forest", 5.0, 9.0, 0, {"steps": 300, "key": [7, 0]}],
        ["graphs.Graph.walk_tables", 6.0, 6.5, 3, None],
    ]


def test_self_times_subtract_direct_children():
    assert spans.self_times(_tree()) == [3.0, 2.0, 1.0, 3.5, 0.5]


def test_covered_counts_nested_spans_once():
    tree = _tree()
    assert spans.covered(tree, {"cli.run", "forests.sample_forest"}) == 10.0
    assert spans.covered(tree, {"forests.sample_forest", "graphs.Graph.walk_tables"}) == 7.0


def test_only_first_walk_tables_call_counts_as_set_up():
    kept = spans.drop_repeats(_tree(), spans.WALK_TABLES)
    assert [s[0] for s in kept] == ["cli.run", "forests.sample_forest",
                                    "graphs.Graph.walk_tables", "forests.sample_forest"]
    assert [s[3] for s in kept] == [-1, 0, 1, 0]
    m = spans.layer_metrics(_tree())
    assert m["graphs.walk_tables_s"] == 1.0
    assert m["forests.draws"] == 2
    assert m["forests.draw_s"] == 2.0 + 4.0  # the later table lookup stays in the draw
    assert m["forests.walk_steps"] == 400
    assert m["forests.ns_per_step"] == pytest.approx(6.0 / 400 * 1e9)
    assert m["forests.unique_draw_ratio"] == 0.5
    assert m["cli.self_s"] == 3.0 and m["graphs.self_s"] == 1.0
    assert m["forests.self_s"] == 6.0
    assert m["trace.covered_s"] == 10.0


def test_reference_smooth_matches_dense_solve():
    rng = np.random.default_rng(0)
    edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (0, 3, 1.5), (1, 3, 1.0)]
    y = rng.standard_normal(4)
    L = np.zeros((4, 4))
    for u, v, w in edges:
        L[u, u] += w
        L[v, v] += w
        L[u, v] -= w
        L[v, u] -= w
    q = 0.3
    want = np.linalg.solve(q * np.eye(4) + L, q * y)
    np.testing.assert_allclose(checks.reference_smooth(4, edges, q, y), want, rtol=1e-12)


def _good_exact():
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
    x_ref = checks.reference_smooth(4, edges, 0.5, np.array([1.0, -2.0, 0.5, 3.0]))
    return {"estimate": x_ref.tolist(), "diagnostics": {"iterations": 4}}, x_ref


def _good_sweep():
    return {"alphas": [0.0, 0.05, 0.1], "mse_zbar": [10.0, 4.0, 2.0], "mse_xbar": 10.0,
            "alpha_safe": 2.0 / 21.0, "mse_zbar_alpha_hat": 1.5}


def _good_ssl():
    return {"rows": [{"m": m, "method": meth, "mean_acc": 0.8, "std_acc": 0.05}
                     for m in (1, 5) for meth in checks.SSL_METHODS]}


def _good_denoise():
    return {"rows": [{"q": q, "psnr_noisy": 10.0, "psnr_exact": exact,
                      "psnr_xbar": 9.0, "psnr_zbar_safe": 9.5, "psnr_zbar_empirical": 9.7}
                     for q, exact in ((0.1, 9.5), (1.0, 11.0))]}


def _check(kind, out):
    if kind == "exact":
        return checks.check_exact(out, _good_exact()[1])
    if kind == "sweep":
        return checks.check_sweep(out, 1.0, 10, 3)
    if kind == "ssl":
        return checks.check_ssl(out, (1, 5), 3)
    return checks.check_denoise(out, 2)


GOOD = {"exact": lambda: _good_exact()[0], "sweep": _good_sweep, "ssl": _good_ssl,
        "denoise": _good_denoise}


def _set(path, value):
    def corrupt(out):
        *head, last = path
        node = out
        for key in head:
            node = node[key]
        node[last] = value
    return corrupt


CORRUPTIONS = [
    ("exact", "perturbed value", _set(("estimate", 1), 99.0)),
    ("exact", "missing value", lambda o: o["estimate"].pop()),
    ("exact", "NaN written as null", _set(("estimate", 0), None)),
    ("exact", "no iterations", _set(("diagnostics", "iterations"), 0)),
    ("sweep", "alpha=0 differs from xbar", _set(("mse_zbar", 0), 11.0)),
    ("sweep", "wrong safe step", _set(("alpha_safe",), 0.1)),
    ("sweep", "step does not cut variance", _set(("mse_zbar_alpha_hat",), 12.0)),
    ("sweep", "short grid", lambda o: o["alphas"].pop()),
    ("ssl", "missing row", lambda o: o["rows"].pop()),
    ("ssl", "accuracy above 1", _set(("rows", 2, "mean_acc"), 1.2)),
    ("ssl", "exact at chance", _set(("rows", 0, "mean_acc"), 0.3)),
    ("denoise", "empty cell", _set(("rows", 1, "psnr_zbar_empirical"), None)),
    ("denoise", "smoothing never helps", _set(("rows", 1, "psnr_exact"), 9.0)),
    ("denoise", "missing row", lambda o: o["rows"].pop()),
]


@pytest.mark.parametrize("kind", sorted(GOOD))
def test_checkers_accept_good_output(kind):
    _check(kind, GOOD[kind]())


@pytest.mark.parametrize("kind,what,corrupt", CORRUPTIONS, ids=[c[1] for c in CORRUPTIONS])
def test_checkers_reject_corrupted_output(kind, what, corrupt):
    out = GOOD[kind]()
    corrupt(out)
    with pytest.raises(checks.CheckFailed):
        _check(kind, out)


def test_benchmark_json_lists_the_reported_metrics():
    import run
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER


def test_tracer_spans_a_real_command(tmp_path):
    span_file, out = tmp_path / "spans.json", tmp_path / "x.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(HERE / "tracer.py"), str(span_file), "smooth",
                    "--gen", "grid:rows=4,cols=5", "--signal", "gaussian", "--q", "0.5",
                    "--n-samples", "3", "--out", str(out)],
                   env=env, check=True, timeout=120)
    m = spans.layer_metrics(json.loads(span_file.read_text()))
    assert m["forests.draws"] == 3 and m["forests.unique_draw_ratio"] == 1.0
    assert m["forests.walk_steps"] > 0
    assert m["estimators.add_calls"] == 3  # patched on the class
    assert m["linalg.kinv_applies"] == 4  # bound by `from ... import` in estimators
    assert m["linalg.lap_bytes"] == m["linalg.lap_applies"] * 8 * (14 * 2 * 31 + 20)
    assert m["graphs.build_s"] > 0 and m["cli.write_s"] > 0 and m["cli.import_s"] > 0


def test_paced_divides_by_the_bracketing_reference_runs():
    import run
    refs = [1.0, 3.0, 2.0, 2.0]
    # ratios 4/2 = 2, 10/2.5 = 4, 6/2 = 3; two samples pair with the first refs
    assert run.paced([4.0, 10.0, 6.0], refs) == 3.0 * run.REF_PACE_S
    assert run.paced([4.0, 10.0], refs) == 3.0 * run.REF_PACE_S


def test_reference_program_runs():
    res = subprocess.run([sys.executable, str(HERE / "reference.py")], timeout=120)
    assert res.returncode == 0
