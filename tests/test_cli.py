import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsfsmooth.estimators
import rsfsmooth.experiments
from rsfsmooth import NumericalError, _twins, load_graph, save_graph
from rsfsmooth.cli import _write_json, run

from conftest import random_connected_graph, two_clique_graph, using_kernels


def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("0 1\n1 2\n")
    return str(path)


def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("0 1\n1 2\n2 3\n3 0\n")
    return str(path)


def signal_file(tmp_path, values, name="sig.txt"):
    path = tmp_path / name
    path.write_text("".join(f"{v}\n" for v in values))
    return str(path)


def read_csv(path):
    lines = [ln for ln in path.read_text().strip().split("\n")
             if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestGenGraph:
    def test_writes_sorted_edge_list(self, tmp_path):
        out = tmp_path / "g.txt"
        assert run(["gen-graph", "--gen", "grid:rows=2,cols=2",
                    "--out", str(out)]) == 0
        assert out.read_text() == "0 1 1\n0 2 1\n1 3 1\n2 3 1\n"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert run(["gen-graph", "--gen", "ba:n=60,k=3", "--seed", "9",
                        "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_roundtrips_through_loader(self, tmp_path):
        out = tmp_path / "g.txt"
        run(["gen-graph", "--gen", "regular:n=30,d=4", "--seed", "1", "--out", str(out)])
        g = load_graph(str(out))
        assert g.n == 30 and g.m == 60

    def test_knn_spec_with_coords(self, tmp_path):
        coords = tmp_path / "coords.txt"
        rng = np.random.default_rng(3)
        coords.write_text("".join(f"{x},{y}\n" for x, y in rng.uniform(size=(25, 2))))
        out = tmp_path / "g.txt"
        assert run(["gen-graph", "--gen", "knn:k=4", "--coords", str(coords),
                    "--out", str(out)]) == 0
        assert load_graph(str(out)).n == 25


class TestExact:
    def test_p3_csv(self, tmp_path):
        out = tmp_path / "xhat.csv"
        code = run(["exact", "--graph", p3_file(tmp_path),
                    "--signal", signal_file(tmp_path, [8.0, 0.0, 0.0]),
                    "--q", "1.0", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["node", "value"]
        assert [float(r["value"]) for r in rows] == pytest.approx([5.0, 2.0, 1.0],
                                                                  rel=1e-9)

    def test_p3_json_schema(self, tmp_path):
        out = tmp_path / "xhat.json"
        run(["exact", "--graph", p3_file(tmp_path),
             "--signal", signal_file(tmp_path, [8.0, 0.0, 0.0]),
             "--q", "1.0", "--out", str(out), "--format", "json"])
        payload = json.loads(out.read_text())
        assert payload["schema"] == "1"
        assert payload["estimate"] == pytest.approx([5.0, 2.0, 1.0], rel=1e-9)
        assert payload["diagnostics"]["method"] == "exact-cg"

    # the level sizes appear only where CG built its multigrid: on a 20x20
    # grid the bound 1 + 2 d_max / q is 8001 at q = 0.001, and 27.7 at 0.3
    @pytest.mark.parametrize("q,levels", [("0.001", [400, 30]), ("0.3", None)])
    def test_levels_only_where_the_multigrid_was_built(self, tmp_path, q, levels):
        out = tmp_path / "xhat.json"
        assert run(["exact", "--gen", "grid:rows=20,cols=20", "--signal", "gaussian",
                    "--q", q, "--seed", "5", "--out", str(out), "--format", "json"]) == 0
        diagnostics = json.loads(out.read_text())["diagnostics"]
        assert diagnostics.get("levels") == levels
        assert sorted(diagnostics) == sorted(["method", "iterations"] + ["levels"] * bool(levels))


class TestSmooth:
    def test_constant_signal_returned_unchanged(self, tmp_path):
        out = tmp_path / "est.csv"
        run(["smooth", "--graph", p3_file(tmp_path),
             "--signal", signal_file(tmp_path, [0.1, 0.1, 0.1]),
             "--q", "0.5", "--n-samples", "4", "--alpha", "empirical",
             "--out", str(out)])
        _, rows = read_csv(out)
        assert [float(r["value"]) for r in rows] == [0.1, 0.1, 0.1]

    def test_json_diagnostics(self, tmp_path):
        out = tmp_path / "est.json"
        run(["smooth", "--graph", p3_file(tmp_path),
             "--signal", signal_file(tmp_path, [8.0, 0.0, 0.0]),
             "--q", "1.0", "--n-samples", "6", "--alpha", "safe",
             "--seed", "3", "--out", str(out), "--format", "json"])
        payload = json.loads(out.read_text())
        assert payload["alpha"] == 0.4
        d = payload["diagnostics"]
        assert d["n_samples"] == 6 and d["strategy"] == "safe_constant"
        assert d["total_walk_steps"] > 0

    def test_single_sample_leaves_trace_diagnostics_null(self, tmp_path):
        out = tmp_path / "est.json"
        assert run(["smooth", "--graph", p3_file(tmp_path),
                    "--signal", signal_file(tmp_path, [8.0, 0.0, 0.0]),
                    "--q", "1.0", "--n-samples", "1", "--out", str(out),
                    "--format", "json"]) == 0
        d = json.loads(out.read_text())["diagnostics"]
        assert d["tr_var_xbar"] is d["tr_var_ybar"] is d["tr_cov_xy"] is None

    def test_deterministic_bytes(self, tmp_path):
        args = ["smooth", "--graph", p3_file(tmp_path),
                "--signal", signal_file(tmp_path, [8.0, 0.0, 0.0]),
                "--q", "1.0", "--n-samples", "10", "--alpha", "empirical",
                "--seed", "42", "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    # These csv outputs pass through no BLAS reduction (the forest kernel,
    # the bincount tree averages, elementwise means and step, the Laplacian
    # rows summed in arc order), so their bytes are the same on every CPU.
    @pytest.mark.parametrize("alpha,digest", [
        ("safe", "26a0a47e9f5d2c35e0c14a4a675774252e34b090261a5132b73c4a735f7f1a7f"),
        ("0.3", "03d4fe0e9a76cd734bfb09d43232155cb6d14900c69f7f697c36c8f3cc1542dd"),
    ])
    def test_sampled_csv_bytes_are_pinned(self, tmp_path, alpha, digest):
        gpath, spath = tmp_path / "g.txt", tmp_path / "y.csv"
        gpath.write_text("# weighted 5-cycle with a chord\n0 1 0.5\n1 2 1.25  # heavy\n\n"
                         "2 3\n3 4 2\n4 0 0.75\n\n1 3 1.5\n")
        spath.write_text("# node,value\n3,-1.5\n0,2\n\n4,0.25\n1,-0.5\n2,1\n")
        out = tmp_path / "est.csv"
        assert run(["smooth", "--graph", str(gpath), "--signal", str(spath), "--q", "0.6",
                    "--n-samples", "7", "--alpha", alpha, "--seed", "3",
                    "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_fixed_alpha_flag(self, tmp_path):
        out = tmp_path / "est.json"
        run(["smooth", "--graph", p3_file(tmp_path),
             "--signal", signal_file(tmp_path, [8.0, 0.0, 0.0]),
             "--q", "1.0", "--n-samples", "2", "--alpha", "0.25",
             "--out", str(out), "--format", "json"])
        assert json.loads(out.read_text())["alpha"] == 0.25


class TestSweepAlpha:
    def test_csv_columns_and_parabola(self, tmp_path):
        g = random_connected_graph(25, extra_edges=35, rng=np.random.default_rng(7))
        gpath = tmp_path / "g.txt"
        save_graph(g, gpath)
        out = tmp_path / "sweep.csv"
        code = run(["sweep-alpha", "--graph", str(gpath), "--signal", "gaussian",
                    "--q", "1.0", "--alpha-grid", "lin:0,0.3,7",
                    "--n-samples", "4", "--realizations", "20", "--seed", "5",
                    "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["alpha", "mse_zbar", "mse_xbar", "alpha_safe",
                          "alpha_hat_mean", "mse_zbar_alpha_safe",
                          "mse_zbar_alpha_hat", "alpha_star"]
        assert len(rows) == 7
        # zero step reproduces the plain-average error exactly
        assert rows[0]["mse_zbar"] == rows[0]["mse_xbar"]
        alphas = np.array([float(r["alpha"]) for r in rows])
        mse = np.array([float(r["mse_zbar"]) for r in rows])
        fit = np.polyfit(alphas, mse, 2)
        assert fit[0] > 0  # convex parabola
        assert rows[0]["alpha_star"] == ""  # n > 9: no enumeration marker

    def test_alpha_star_included_for_tiny_graphs(self, tmp_path):
        out = tmp_path / "sweep.json"
        run(["sweep-alpha", "--graph", p3_file(tmp_path),
             "--signal", signal_file(tmp_path, [8.0, 0.0, 0.0]),
             "--q", "1.0", "--alpha-grid", "0,0.2,0.4",
             "--n-samples", "3", "--realizations", "10", "--seed", "6",
             "--out", str(out), "--format", "json"])
        payload = json.loads(out.read_text())
        assert payload["alpha_star"] == pytest.approx(0.3181818181818182)

    def test_alpha_star_absent_beyond_enumeration_reach(self, tmp_path):
        # K9 has n = 9 but m = 36 > 24: no enumeration, no alpha_star
        gpath = tmp_path / "k9.txt"
        gpath.write_text("".join(f"{i} {j}\n" for i in range(9) for j in range(i + 1, 9)))
        out = tmp_path / "sweep.json"
        assert run(["sweep-alpha", "--graph", str(gpath), "--q", "1",
                    "--alpha-grid", "lin:0,1,3", "--n-samples", "4", "--realizations", "2",
                    "--out", str(out), "--format", "json"]) == 0
        assert json.loads(out.read_text())["alpha_star"] is None

    def test_deterministic_bytes(self, tmp_path):
        args = ["sweep-alpha", "--graph", p3_file(tmp_path), "--signal", "gaussian",
                "--q", "0.7", "--alpha-grid", "lin:0,0.5,5", "--n-samples", "3",
                "--realizations", "8", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestDenoise:
    def test_table_columns(self, tmp_path):
        g = random_connected_graph(20, extra_edges=30, rng=np.random.default_rng(8))
        gpath = tmp_path / "g.txt"
        save_graph(g, gpath)
        out = tmp_path / "psnr.csv"
        code = run(["denoise", "--graph", str(gpath), "--signal", "smooth",
                    "--noise-std", "0.3", "--q-grid", "log:0.1,5,4",
                    "--n-samples", "2", "--seed", "4", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("# psnr")  # convention in metadata
        header, rows = read_csv(out)
        assert header == ["q", "psnr_noisy", "psnr_exact", "psnr_xbar",
                          "psnr_zbar_safe", "psnr_zbar_empirical"]
        assert len(rows) == 4
        noisy = {r["psnr_noisy"] for r in rows}
        assert len(noisy) == 1  # same noisy input across the q grid
        jout = tmp_path / "psnr.json"
        run(["denoise", "--graph", str(gpath), "--signal", "smooth",
             "--noise-std", "0.3", "--q-grid", "log:0.1,5,4",
             "--n-samples", "2", "--seed", "4", "--out", str(jout),
             "--format", "json"])
        assert "peak" in json.loads(jout.read_text())["psnr_convention"]

    def test_zero_noise_large_q_hits_cap(self, tmp_path):
        out = tmp_path / "psnr.csv"
        run(["denoise", "--graph", p3_file(tmp_path),
             "--signal", signal_file(tmp_path, [1.0, 0.5, -1.0]),
             "--noise-std", "0.0", "--q-grid", "1e9",
             "--n-samples", "2", "--out", str(out)])
        _, rows = read_csv(out)
        # mse floored at 1e-15 with peak 1 -> 150 dB cap
        assert float(rows[0]["psnr_exact"]) == pytest.approx(150.0)

    def test_single_sample_leaves_empirical_empty(self, tmp_path):
        out = tmp_path / "psnr.csv"
        run(["denoise", "--graph", p3_file(tmp_path),
             "--signal", signal_file(tmp_path, [1.0, 0.0, 0.0]),
             "--noise-std", "0.1", "--q-grid", "1.0",
             "--n-samples", "1", "--out", str(out)])
        _, rows = read_csv(out)
        assert rows[0]["psnr_zbar_empirical"] == ""


class TestSSLCommand:
    def build_inputs(self, tmp_path):
        g = two_clique_graph(10)
        gpath = tmp_path / "g.txt"
        save_graph(g, gpath)
        lpath = tmp_path / "labels.csv"
        lpath.write_text("".join(f"{i},{0 if i < 10 else 1}\n" for i in range(20)))
        return str(gpath), str(lpath)

    def test_accuracy_table(self, tmp_path):
        gpath, lpath = self.build_inputs(tmp_path)
        out = tmp_path / "acc.csv"
        code = run(["ssl", "--graph", gpath, "--labels", lpath,
                    "--mu", "1.0", "--sigma", "0.0", "--n-samples", "10",
                    "--repeats", "5", "--labels-per-class", "1,2",
                    "--seed", "2", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["m", "method", "mean_acc", "std_acc"]
        assert len(rows) == 8  # two m values x four methods
        assert {r["m"] for r in rows} == {"1", "2"}
        exact_row = [r for r in rows if r["method"] == "exact" and r["m"] == "1"][0]
        assert float(exact_row["mean_acc"]) >= 0.95

    def test_json_format(self, tmp_path):
        gpath, lpath = self.build_inputs(tmp_path)
        out = tmp_path / "acc.json"
        run(["ssl", "--graph", gpath, "--labels", lpath, "--n-samples", "5",
             "--repeats", "2", "--labels-per-class", "1", "--seed", "2",
             "--out", str(out), "--format", "json"])
        payload = json.loads(out.read_text())
        assert payload["schema"] == "1"
        assert len(payload["rows"]) == 4

    def test_single_sample_leaves_empirical_empty(self, tmp_path):
        lpath = tmp_path / "labels.csv"
        lpath.write_text("0,0\n1,1\n2,0\n3,1\n")
        for fmt in ("csv", "json"):
            out = tmp_path / f"acc.{fmt}"
            assert run(["ssl", "--graph", c4_file(tmp_path), "--labels", str(lpath),
                        "--n-samples", "1", "--repeats", "2", "--format", fmt,
                        "--out", str(out)]) == 0
            if fmt == "csv":
                _, rows = read_csv(out)
            else:
                rows = json.loads(out.read_text())["rows"]
            empty = "" if fmt == "csv" else None
            by_method = {r["method"]: r for r in rows}
            assert list(by_method) == ["exact", "xbar", "zbar_safe", "zbar_empirical"]
            assert by_method["zbar_empirical"]["mean_acc"] == empty
            assert by_method["zbar_empirical"]["std_acc"] == empty
            assert all(by_method[m]["mean_acc"] != empty
                       for m in ("exact", "xbar", "zbar_safe"))

    def test_deterministic_bytes(self, tmp_path):
        gpath, lpath = self.build_inputs(tmp_path)
        args = ["ssl", "--graph", gpath, "--labels", lpath, "--n-samples", "5",
                "--repeats", "3", "--labels-per-class", "1", "--seed", "7"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_missing_file_is_data_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["exact", "--graph", str(tmp_path / "nope.txt"),
                    "--signal", "gaussian", "--q", "1.0", "--out", str(out)]) == 3

    def test_malformed_graph_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n2 3\n")
        out = tmp_path / "x.csv"
        assert run(["exact", "--graph", str(bad), "--signal", "gaussian",
                    "--q", "1.0", "--out", str(out)]) == 3

    def test_usage_error_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["smooth", "--q", "1.0"])  # no graph source
        assert err.value.code == 2

    def test_unknown_generator_is_data_error(self, tmp_path):
        out = tmp_path / "g.txt"
        assert run(["gen-graph", "--gen", "wat:n=5", "--out", str(out)]) == 3

    def test_numerical_failure_exits_four(self, tmp_path):
        g = random_connected_graph(20, extra_edges=30,
                                   rng=np.random.default_rng(1), weighted=True)
        gpath = tmp_path / "g.txt"
        save_graph(g, gpath)
        out = tmp_path / "x.csv"
        assert run(["exact", "--graph", str(gpath), "--signal", "gaussian",
                    "--q", "1.0", "--tol", "1e-30", "--out", str(out)]) == 4

    def test_bad_grid_is_data_error(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["sweep-alpha", "--graph", p3_file(tmp_path),
                    "--signal", "gaussian", "--q", "1.0",
                    "--alpha-grid", "lin:0,1", "--out", str(out)]) == 3

    def test_non_finite_weight_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 1\n1 2 nan\n")
        out = tmp_path / "x.csv"
        assert run(["smooth", "--graph", str(bad), "--signal", "gaussian",
                    "--q", "1.0", "--out", str(out)]) == 3
        assert not out.exists()

    def test_non_finite_signal_is_data_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["smooth", "--graph", p3_file(tmp_path),
                    "--signal", signal_file(tmp_path, [1.0, "nan", 0.0]),
                    "--q", "1.0", "--out", str(out)]) == 3
        assert not out.exists()

    def test_non_finite_alpha_is_data_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["smooth", "--graph", p3_file(tmp_path), "--signal", "gaussian",
                    "--q", "1.0", "--alpha", "nan", "--out", str(out)]) == 3
        assert not out.exists()

    def test_non_finite_noise_std_is_data_error(self, tmp_path):
        out = tmp_path / "psnr.csv"
        assert run(["denoise", "--graph", p3_file(tmp_path),
                    "--signal", signal_file(tmp_path, [1.0, 0.5, -1.0]),
                    "--noise-std", "nan", "--q-grid", "1.0", "--out", str(out)]) == 3
        assert not out.exists()

    def test_non_finite_q_is_data_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["smooth", "--graph", p3_file(tmp_path), "--signal", "gaussian",
                    "--q", "inf", "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_is_data_error(self, tmp_path, tol):
        out = tmp_path / "x.csv"
        assert run(["exact", "--graph", p3_file(tmp_path), "--signal", "gaussian",
                    "--q", "1.0", "--tol", tol, "--out", str(out)]) == 3
        assert not out.exists()

    def test_non_finite_mu_is_data_error(self, tmp_path):
        gpath, lpath = TestSSLCommand().build_inputs(tmp_path)
        out = tmp_path / "acc.csv"
        assert run(["ssl", "--graph", gpath, "--labels", lpath, "--mu", "inf",
                    "--n-samples", "2", "--repeats", "1", "--out", str(out)]) == 3
        assert not out.exists()

    def test_unknown_generator_key_is_data_error(self, tmp_path, capsys):
        # each generator and each synthetic kind takes only its own keys,
        # and a foreign one is refused in one line that names it
        out = tmp_path / "x.csv"
        cases = [
            (["gen-graph", "--gen", "regular:n=10,d=3,x=1"], "x"),
            (["gen-graph", "--gen", "regular:n=10,d=3,k=2"], "k"),
            (["gen-graph", "--gen", "grid:rows=2,cols=3,d=4"], "d"),
            (["gen-graph", "--gen", "ba:n=10,k=2,rows=4"], "rows"),
            *((["exact", "--gen", "grid:rows=2,cols=3", "--signal", spec, "--q", "1"], key)
              for spec, key in [("gaussian:value=3", "value"), ("smooth:value=7", "value"),
                                ("constant:modes=2", "modes")]),
        ]
        for argv, key in cases:
            assert run([*argv, "--out", str(out)]) == 3, argv
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and f"key {key!r}" in err[0], (argv, err)
            assert not out.exists()

    def test_unknown_signal_key_is_data_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["exact", "--graph", p3_file(tmp_path), "--signal", "gaussian:foo=1",
                    "--q", "1.0", "--out", str(out)]) == 3
        assert not out.exists()

    def test_smooth_modes_is_an_unknown_key(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["exact", "--gen", "grid:rows=3,cols=3", "--signal", "smooth:modes=2",
                    "--q", "1.0", "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown smooth signal key 'modes' (it takes none)"]
        assert not out.exists()

    def test_smooth_signal_on_a_grid_of_2500_vertices_runs(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["exact", "--gen", "grid:rows=50,cols=50", "--signal", "smooth",
                    "--q", "1", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 2500

    @pytest.mark.parametrize("grid", ["nan", "lin:0,inf,3"])
    def test_non_finite_alpha_grid_is_data_error(self, tmp_path, grid):
        out = tmp_path / "s.csv"
        with warnings.catch_warnings(record=True) as caught:  # what would reach stderr
            warnings.simplefilter("always")
            assert run(["sweep-alpha", "--graph", p3_file(tmp_path), "--q", "1.0",
                        "--alpha-grid", grid, "--n-samples", "2", "--realizations", "1",
                        "--out", str(out)]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_non_finite_q_grid_is_data_error(self, tmp_path):
        out = tmp_path / "psnr.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["denoise", "--graph", p3_file(tmp_path),
                        "--signal", signal_file(tmp_path, [1.0, 0.5, -1.0]),
                        "--noise-std", "0.1", "--q-grid", "log:1,inf,3",
                        "--out", str(out)]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    # q (y_i - y_j) overflows to inf on this signal at q = 1 and 2 (so does
    # q y at q = 2): refused before CG or any forest draw, with one line and
    # no warning
    @pytest.mark.parametrize("command", [["exact"], ["smooth", "--alpha", "safe"]])
    def test_non_finite_result_is_numerical_error(self, tmp_path, command, capsys,
                                                  monkeypatch):
        import rsfsmooth.estimators

        def no_draw(*args, **kwargs):
            raise AssertionError("a forest was drawn")

        monkeypatch.setattr(rsfsmooth.estimators, "sample_forest", no_draw)
        out = tmp_path / "x.csv"
        for q in ("2", "1"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run([*command, "--graph", c4_file(tmp_path), "--q", q, "--signal",
                            signal_file(tmp_path, [1e308, -1e308, 1e308, -1e308]),
                            "--out", str(out)]) == 4
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("numerical failure"), (q, err)
            assert not out.exists()

    # 1e155 passes the up-front overflow check, but the squared deviations
    # in smooth's trace diagnostics and in the sweep's squared errors
    # overflow to inf; no writer lets a non-finite value through
    @pytest.mark.parametrize("command", [
        ["smooth", "--q", "1", "--format", "json"],
        ["sweep-alpha", "--q", "0.001", "--alpha-grid", "0,0.5", "--n-samples", "3",
         "--realizations", "2"],
        ["sweep-alpha", "--q", "0.001", "--alpha-grid", "0,0.5", "--n-samples", "3",
         "--realizations", "2", "--format", "json"],
    ])
    def test_non_finite_output_is_numerical_error(self, tmp_path, command, capsys):
        out = tmp_path / "out.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run([*command, "--graph", c4_file(tmp_path), "--signal",
                        signal_file(tmp_path, [1e155, -1e155, 1e155, 0.0]),
                        "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["numerical failure: output has a non-finite value (inf)"]
        assert not out.exists()

    # the same signal with every warning shown: numpy's overflow warnings
    # are silenced while a command runs, so stderr holds the refusal alone,
    # and a csv smooth, which writes only the finite estimate, succeeds
    @pytest.mark.parametrize("command,code", [
        (["smooth", "--q", "1", "--format", "json"], 4),
        (["sweep-alpha", "--q", "0.001", "--alpha-grid", "lin:0,1,3",
          "--realizations", "2"], 4),
        (["smooth", "--q", "1", "--format", "csv"], 0),
    ], ids=["smooth-json", "sweep-alpha-csv", "smooth-csv"])
    def test_overflow_prints_no_warning(self, tmp_path, command, code, capsys):
        out = tmp_path / "out.txt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run([*command, "--graph", c4_file(tmp_path), "--signal",
                        signal_file(tmp_path, [1e155, -1e155, 1e155, 0.0]),
                        "--out", str(out)]) == code
        assert not caught
        err = capsys.readouterr().err.splitlines()
        if code:
            assert len(err) == 1, err
            assert err[0].startswith("numerical failure: output has a non-finite value")
            assert not out.exists()
        else:
            assert err == [] and out.exists()

    # the expected walk steps of one forest are at least 1 + sum(d) / sum(q)
    # = 1.8e12 here, past the 1e9 budget: refused before any draw
    def test_hopeless_run_is_refused_up_front(self, tmp_path, capsys, monkeypatch):
        import rsfsmooth.estimators

        def no_draw(*args, **kwargs):
            raise AssertionError("a forest was drawn")

        monkeypatch.setattr(rsfsmooth.estimators, "sample_forest", no_draw)
        gpath = tmp_path / "p10.txt"
        gpath.write_text("".join(f"{i} {i + 1}\n" for i in range(9)))
        out = tmp_path / "est.csv"
        assert run(["smooth", "--graph", str(gpath), "--signal", "gaussian",
                    "--q", "1e-12", "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure"), err
        assert "1.8e+12" in err[0] and "1e+09" in err[0]
        assert not out.exists()

    # 10^20 draws of at least 4 walk steps each (one per vertex) on a
    # 4-cycle at q = 1: far past the budget in all, though one draw is
    # cheap; refused before any draw, as are as many sweep realizations or
    # ssl repeats
    @pytest.mark.parametrize("command", [
        ["smooth", "--signal", "gaussian", "--q", "1", "--n-samples", str(10**20)],
        ["sweep-alpha", "--q", "1", "--alpha-grid", "0,0.5", "--n-samples", "2",
         "--realizations", str(10**20)],
        ["ssl", "--labels", "@labels", "--n-samples", "2", "--repeats", str(10**20)],
    ], ids=["smooth", "sweep-alpha", "ssl"])
    def test_huge_draw_count_is_refused_up_front(self, tmp_path, command, capsys,
                                                 monkeypatch):
        import rsfsmooth.estimators

        def no_draw(*args, **kwargs):
            raise AssertionError("a forest was drawn")

        monkeypatch.setattr(rsfsmooth.estimators, "sample_forest", no_draw)
        lpath = tmp_path / "labels.csv"
        lpath.write_text("0,0\n1,1\n2,0\n3,1\n")
        out = tmp_path / "out.csv"
        command = [str(lpath) if a == "@labels" else a for a in command]
        assert run([*command, "--graph", c4_file(tmp_path), "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure"), err
        assert "forest draws of at least 1000 walk steps" in err[0] and "1e+09" in err[0]
        assert "the larger of 4 expected" in err[0]
        assert not out.exists()

    # each run below fits the budget pass by pass, but not as a whole: it
    # ends before its first solve or draw
    @pytest.mark.parametrize("command, message", [
        # eight rows at q = 4e-6 on a 30x30 grid: each row's 200 draws are
        # charged 1.93e8 steps, the table's 1.55e9
        (["denoise", "--gen", "grid:rows=30,cols=30", "--signal", "gaussian",
          "--noise-std", "0.1", "--q-grid", ",".join(["4e-6"] * 8), "--n-samples", "200"],
         "1600 forest draws over 8 q values of at least 9.667e+05 walk steps each "
         "(the larger of 9.667e+05 expected"),
        # two counts of 600,000 draws each, of 1,000 steps
        (["ssl", "--graph", "@graph", "--labels", "@labels", "--labels-per-class", "1,1",
          "--repeats", "1000", "--n-samples", "600"],
         "1200000 forest draws of at least 1000 walk steps each (the larger of 4 expected"),
    ], ids=["denoise", "ssl"])
    def test_a_run_past_the_budget_as_a_whole_is_refused_up_front(self, tmp_path, capsys,
                                                                   monkeypatch, command,
                                                                   message):
        import rsfsmooth.estimators
        import rsfsmooth.experiments
        import rsfsmooth.ssl

        def no_work(*args, **kwargs):
            raise AssertionError("a forest was drawn or a system solved")

        for module in (rsfsmooth.experiments, rsfsmooth.ssl):
            monkeypatch.setattr(module, "solve_exact_cg", no_work)
        monkeypatch.setattr(rsfsmooth.estimators, "sample_forest", no_work)
        lpath = tmp_path / "labels.csv"
        lpath.write_text("0,0\n1,1\n2,0\n3,1\n")
        files = {"@graph": c4_file(tmp_path), "@labels": str(lpath)}
        out = tmp_path / "out.csv"
        assert run([*(files.get(a, a) for a in command), "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure"), err
        assert message in err[0] and err[0].endswith("exceed the step budget of 1e+09")
        assert not out.exists()

    # each command's checks end the run before its first CG solve: a row's
    # or a repeat's forests are drawn before its exact solve, so zero draws
    # are refused first, and every ssl count is checked before the first
    # count runs (a count of 2 per class leaves no vertex of the 4-cycle out)
    @pytest.mark.parametrize("command, message", [
        (["denoise", "--signal", "gaussian", "--noise-std", "0.1", "--q-grid", "1,2",
          "--n-samples", "0"], "error: n_samples must be >= 1"),
        (["ssl", "--labels", "@labels", "--n-samples", "0", "--repeats", "2"],
         "error: n_samples must be >= 1"),
        (["ssl", "--labels", "@labels", "--labels-per-class", "1,2", "--repeats", "2"],
         "error: no held-out vertex: every labeled vertex would be among the m=2 per class"),
        # a negative count of repeats times a negative count of samples
        # is no run of 10^12 draws
        (["ssl", "--labels", "@labels", "--n-samples", "-1000000", "--repeats", "-1000000"],
         "error: repeats must be >= 1, got -1000000"),
        # the step's need of two samples is checked before the first draw
        (["smooth", "--signal", "gaussian", "--q", "1", "--n-samples", "1",
          "--alpha", "empirical"], "error: the empirical step size needs >= 2 samples"),
    ], ids=["denoise-no-samples", "ssl-no-samples", "ssl-count-without-holdout",
            "ssl-negative-repeats", "smooth-empirical-one-sample"])
    def test_a_refused_run_solves_nothing(self, tmp_path, capsys, monkeypatch, command,
                                          message):
        import rsfsmooth.ssl

        def no_work(*args, **kwargs):
            raise AssertionError("a forest was drawn or a system solved")

        for module in (rsfsmooth.experiments, rsfsmooth.ssl):
            monkeypatch.setattr(module, "solve_exact_cg", no_work)
        monkeypatch.setattr(rsfsmooth.estimators, "sample_forest", no_work)
        lpath = tmp_path / "labels.csv"
        lpath.write_text("0,0\n1,1\n2,0\n3,1\n")
        out = tmp_path / "out.csv"
        command = [str(lpath) if a == "@labels" else a for a in command]
        assert run([*command, "--graph", c4_file(tmp_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    # every vertex takes a step, so 3e8 draws on 4 vertices need 1.2e9
    # steps; the old floor 1 + sum(d)/sum(q) = 3 admitted them
    def test_draws_of_one_step_per_vertex_past_the_budget_are_refused(self, tmp_path,
                                                                      capsys, monkeypatch):
        import rsfsmooth.estimators

        def no_draw(*args, **kwargs):
            raise AssertionError("a forest was drawn")

        monkeypatch.setattr(rsfsmooth.estimators, "sample_forest", no_draw)
        out = tmp_path / "est.csv"
        assert run(["smooth", "--gen", "grid:rows=2,cols=2", "--signal", "gaussian",
                    "--q", "1", "--n-samples", "300000000", "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure"), err
        assert "forest draws of at least 1000 walk steps" in err[0]
        assert "the larger of 4 expected" in err[0]
        assert not out.exists()

    # 2e8 draws of 4 expected steps fit the budget's 1e9 steps, but a draw
    # costs about 70 us beyond its walk, so the run would take about 4 h:
    # each draw is charged at least DRAW_FIXED_STEPS
    def test_draws_past_the_budget_by_their_fixed_cost_are_refused(self, tmp_path, capsys,
                                                                   monkeypatch):
        import rsfsmooth.estimators

        def no_draw(*args, **kwargs):
            raise AssertionError("a forest was drawn")

        monkeypatch.setattr(rsfsmooth.estimators, "sample_forest", no_draw)
        out = tmp_path / "est.csv"
        assert run(["smooth", "--gen", "grid:rows=2,cols=2", "--signal", "gaussian",
                    "--q", "1", "--n-samples", "200000000", "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure"), err
        assert "200000000 forest draws of at least 1000 walk steps" in err[0]
        assert not out.exists()

    # a tol below what rounding lets the true residual reach: the recursive
    # residual passes it and the true one does not, 100 times in a row with
    # no new low, so CG stops there instead of running all 10n = 36,000
    # iterations
    def test_cg_stops_once_its_true_residual_stalls(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(["exact", "--gen", "grid:rows=60,cols=60", "--signal", "gaussian",
                    "--q", "1", "--tol", "1e-16", "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        match = re.fullmatch(r"numerical failure: CG stalled after (\d+) iterations "
                             r"\(relative residual (\S+)\)", err[0])
        assert match and int(match[1]) <= 1000 and float(match[2]) > 1e-16, err
        assert not out.exists()

    # Q + L is singular to working precision; Qy = 1e-150 (1, 2, 3) is
    # scaled before CG, which once divided by a p . Ap that underflowed to 0
    def test_cg_on_a_tiny_q_ends_in_one_line(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["exact", "--graph", p3_file(tmp_path), "--signal",
                    signal_file(tmp_path, [1, 2, 3]), "--q", "1e-150",
                    "--out", str(out)]) in (3, 4)
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    # at q = 1e-20 and below, q is lost against the weights in the path's
    # dense Q + L, whose last pivot rounds to 0: the multigrid is not built
    # and CG goes on plain; it once divided by that pivot and reported NaN
    @pytest.mark.parametrize("kernels", ["chosen", "twins"])
    @pytest.mark.parametrize("q", ["1e-20", "1e-300"])
    def test_cg_where_the_coarsest_factor_takes_a_zero_pivot_reports_no_nan(
            self, tmp_path, capsys, q, kernels):
        out = tmp_path / "x.csv"
        with using_kernels(_twins.TWINS) if kernels == "twins" else contextlib.nullcontext():
            assert run(["exact", "--graph", p3_file(tmp_path), "--signal",
                        signal_file(tmp_path, [1, 2, 3]), "--q", q, "--out", str(out)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: CG did not converge in 30 iterations "
            "(relative residual 3.780e-01)"]
        assert not out.exists()

    # A p overflows in CG's first product: both kernel sets stop there,
    # before dividing by p . Ap
    @pytest.mark.parametrize("kernels", ["chosen", "twins"])
    def test_cg_whose_p_dot_ap_overflows_ends_in_one_line(self, tmp_path, capsys, kernels):
        graph, out = tmp_path / "g.txt", tmp_path / "x.csv"
        graph.write_text("0 1 1e308\n")
        with using_kernels(_twins.TWINS) if kernels == "twins" else contextlib.nullcontext():
            assert run(["exact", "--graph", str(graph), "--signal",
                        signal_file(tmp_path, [1, -1]), "--q", "1", "--out", str(out)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: CG broke down after 0 iterations (p . Ap = inf)"]
        assert not out.exists()

    # 10 ** log10(max float) overflows by a rounding: the grid holds inf, as
    # numpy's logspace did, and the run ends in one line
    def test_log_grid_at_the_largest_float_ends_in_one_line(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run(["denoise", "--gen", "grid:rows=2,cols=2", "--signal", "gaussian",
                    "--noise-std", "0.1", "--q-grid", "log:1e308,1.7976931348623157e308,2",
                    "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure"), err
        assert not out.exists()

    # np.linspace cannot allocate 10^20 values; the count is refused as data
    @pytest.mark.parametrize("command", [
        ["sweep-alpha", "--signal", "gaussian", "--q", "1", "--realizations", "1",
         "--alpha-grid", "lin:0,1,100000000000000000000"],
        ["denoise", "--signal", "gaussian", "--noise-std", "0.1",
         "--q-grid", "log:0.1,1,100000000000000000000"],
    ], ids=["alpha-grid", "q-grid"])
    def test_grid_count_numpy_cannot_allocate_is_data_error(self, tmp_path, command, capsys):
        out = tmp_path / "out.csv"
        assert run([*command, "--gen", "grid:rows=2,cols=2", "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: grid count 100000000000000000000 is too large"]
        assert not out.exists()

    # 10^12 vertices need terabytes per array: a 4 GB address space makes
    # the allocation fail at once, whatever the machine's overcommit policy;
    # the size named is that of whichever array comes first
    @pytest.mark.parametrize("command", [
        ["gen-graph", "--gen", "grid:rows=1000000,cols=1000000"],
        ["exact", "--gen", "regular:n=1000000000000,d=2", "--signal", "gaussian", "--q", "1"],
    ], ids=["gen-graph", "exact"])
    def test_out_of_memory_ends_in_one_line(self, tmp_path, command):
        out = tmp_path / "out.txt"
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)); "
                "from rsfsmooth.cli import run; sys.exit(run(sys.argv[1:]))")
        src = str(Path(rsfsmooth.__file__).resolve().parents[1])
        res = subprocess.run([sys.executable, "-c", code, *command, "--out", str(out)],
                             env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                             text=True, timeout=120)
        assert res.returncode == 3
        err = res.stderr.splitlines()
        assert len(err) == 1 and re.match(r"error: Unable to allocate [\d.]+ TiB", err[0]), err
        assert not out.exists()

    # a class id of 10^6 leaves 999,999 classes without a labeled vertex;
    # the error names how many and the first five
    def test_missing_classes_are_counted_in_one_short_line(self, tmp_path, capsys):
        lpath, out = tmp_path / "labels.csv", tmp_path / "acc.csv"
        lpath.write_text("0,0\n1,1000000\n")
        assert run(["ssl", "--graph", c4_file(tmp_path), "--labels", str(lpath),
                    "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: classes without a labeled vertex: 999999, the first "
                       "[1, 2, 3, 4, 5]"]
        assert len(err[0].encode()) < 200
        assert not out.exists()

    # a class id past int64 is refused like every other bad labels line,
    # before numpy's OverflowError on storing it
    @pytest.mark.parametrize("cls", ["9223372036854775808", "100000000000000000000"],
                             ids=["2^63", "10^20"])
    def test_class_id_past_int64_ends_in_one_line(self, tmp_path, capsys, cls):
        lpath, out = tmp_path / "labels.csv", tmp_path / "acc.csv"
        lpath.write_text(f"0,0\n1,{cls}\n")
        assert run(["ssl", "--graph", c4_file(tmp_path), "--labels", str(lpath),
                    "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {lpath}: line 2: class id {cls} exceeds 2^63 - 1"]
        assert not out.exists()

    # a byte that is not UTF-8, here at the end of line 2, is refused with
    # its line, in a graph file as in a signal file
    @pytest.mark.parametrize("flag,text", [("--graph", b"0 1\n1 2\xff\n"),
                                           ("--signal", b"1\n2\xff\n3\n")])
    def test_a_file_that_is_not_utf8_ends_in_one_line(self, tmp_path, capsys, flag, text):
        bad, out = tmp_path / "bad.txt", tmp_path / "x.csv"
        bad.write_bytes(text)
        inputs = {"--graph": p3_file(tmp_path), "--signal": "gaussian", flag: str(bad)}
        assert run(["exact", "--graph", inputs["--graph"], "--signal", inputs["--signal"],
                    "--q", "1.0", "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad}: line 2: not valid UTF-8 text"]
        assert not out.exists()

    # noise of std 1e300 overflows the noisy signal's MSE, so its PSNR takes
    # log10(0) before CG refuses the overflowing Qy: numpy's divide warning
    # is silenced like its overflow warnings, so stderr holds the one line
    def test_huge_noise_prints_no_warning(self, tmp_path, capsys):
        out = tmp_path / "psnr.csv"
        with warnings.catch_warnings(record=True) as caught:  # what would reach stderr
            warnings.simplefilter("always")
            assert run(["denoise", "--graph", c4_file(tmp_path), "--signal",
                        signal_file(tmp_path, [1.0, 0.5, -1.0, 0.0]),
                        "--noise-std", "1e300", "--q-grid", "1", "--out", str(out)]) == 4
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure"), err
        assert not out.exists()

    def test_negative_noise_std_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "psnr.csv"
        assert run(["denoise", "--graph", c4_file(tmp_path), "--signal",
                    signal_file(tmp_path, [1.0, 0.5, -1.0, 0.0]),
                    "--noise-std", "-1", "--q-grid", "1", "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: noise standard deviation must be finite and >= 0, got -1.0"]
        assert not out.exists()

    def test_duplicate_signal_node_is_data_error(self, tmp_path, capsys):
        spath = tmp_path / "sig.csv"
        spath.write_text("0,1\n1,2\n2,3\n1,5\n")
        out = tmp_path / "x.csv"
        assert run(["exact", "--graph", p3_file(tmp_path), "--signal", str(spath),
                    "--q", "1", "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {spath}: line 4: duplicate node 1"]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_is_data_error(self, tmp_path, capsys, value):
        cpath = tmp_path / "coords.csv"
        cpath.write_text(f"0,0\n1,{value}\n2,2\n")
        out = tmp_path / "g.txt"
        assert run(["gen-graph", "--gen", "knn:k=1", "--coords", str(cpath),
                    "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cpath}: line 2: non-finite"), err
        assert not out.exists()

    # --coords is read only by the knn generator; anywhere else it is
    # refused before any file is read
    @pytest.mark.parametrize("gen", [None, "grid:rows=2,cols=2"])
    def test_coords_without_knn_is_data_error(self, tmp_path, capsys, gen):
        source = ["--gen", gen] if gen else ["--graph", p3_file(tmp_path)]
        out = tmp_path / "x.csv"
        assert run(["exact", *source, "--coords", str(tmp_path / "nonexistent.csv"),
                    "--signal", "gaussian", "--q", "1", "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --coords goes with --gen knn, and only with it"]
        assert not out.exists()

    def test_single_sample_empirical_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(["smooth", "--graph", p3_file(tmp_path), "--signal", "gaussian",
                    "--q", "1", "--n-samples", "1", "--alpha", "empirical",
                    "--format", "json", "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: the empirical step size needs >= 2 samples"]
        assert not out.exists()

    # max|clean|^2 overflows: refused before any solve, with one line and
    # no warning
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_psnr_peak_is_numerical_error(self, tmp_path, fmt, capsys,
                                                      monkeypatch):
        import rsfsmooth.experiments

        def no_solve(*args, **kwargs):
            raise AssertionError("a system was solved")

        monkeypatch.setattr(rsfsmooth.experiments, "solve_exact_cg", no_solve)
        out = tmp_path / f"psnr.{fmt}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["denoise", "--graph", c4_file(tmp_path), "--signal",
                        signal_file(tmp_path, [1e160, -1e160, 1e160, 0.0]),
                        "--noise-std", "1", "--q-grid", "1", "--format", fmt,
                        "--out", str(out)]) == 4
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure"), err
        assert not out.exists()

    def test_ssl_without_holdout_is_data_error(self, tmp_path, capsys):
        lpath = tmp_path / "labels.csv"
        lpath.write_text("0,0\n1,0\n2,1\n3,1\n")
        out = tmp_path / "acc.csv"
        assert run(["ssl", "--graph", c4_file(tmp_path), "--labels", str(lpath),
                    "--labels-per-class", "2", "--n-samples", "2", "--repeats", "1",
                    "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: no held-out vertex"), err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--repeats", "0"), ("--labels-per-class", ""),
                                            ("--labels-per-class", "a")])
    def test_bad_ssl_counts_are_data_error(self, tmp_path, flag, value):
        gpath, lpath = TestSSLCommand().build_inputs(tmp_path)
        out = tmp_path / "acc.csv"
        args = {"--repeats": "1", "--labels-per-class": "1", flag: value}
        assert run(["ssl", "--graph", gpath, "--labels", lpath, "--n-samples", "2",
                    *(item for pair in args.items() for item in pair),
                    "--out", str(out)]) == 3
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path):
        out = tmp_path / "g.txt"
        with pytest.raises(SystemExit) as err:
            run(["gen-graph", "--gen", "grid:rows=2,cols=2", "--seed", "-1",
                 "--out", str(out)])
        assert err.value.code == 2


@pytest.mark.parametrize("array,shown", [
    (np.array([[1.0, -np.inf], [np.nan, 2.0]]), "-inf"),
    (np.array([0.5, np.nan, np.inf]), "nan"),
])
def test_json_writer_names_an_arrays_first_non_finite_value(tmp_path, array, shown):
    # each array is checked at once, and the refusal names its first
    # non-finite value in index order before the file is opened
    out = tmp_path / "out.json"
    with pytest.raises(NumericalError) as err:
        _write_json(out, {"estimate": array, "alpha": 0.5})
    assert str(err.value) == f"output has a non-finite value ({shown})"
    assert not out.exists()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.text(max_size=5)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=30)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.text(max_size=6), json_values, max_size=5),
       st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_json_writer_writes_the_bytes_of_the_indenting_encoder(tmp_path_factory, payload, values):
    out = tmp_path_factory.mktemp("json") / "out.json"
    payload = {**payload, "estimate": np.array(values)}
    _write_json(out, payload)
    expected = {"schema": "1", **payload, "estimate": values}
    assert out.read_text() == json.dumps(expected, indent=2) + "\n"


def test_json_writer_writes_arrays_as_lists(tmp_path):
    out = tmp_path / "out.json"
    _write_json(out, {"estimate": np.array([0.1, -2.0]), "counts": np.arange(2),
                      "grid": np.eye(2), "alpha": None})
    assert json.loads(out.read_text()) == {"schema": "1", "estimate": [0.1, -2.0],
                                           "counts": [0, 1],
                                           "grid": [[1.0, 0.0], [0.0, 1.0]], "alpha": None}
