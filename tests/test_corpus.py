"""A pinned byte-identity corpus: each row is one CLI command, run in
process at `--seed 5 --format json` (`gen-graph`, which writes an edge
list, at `--seed 5`), and the sha256 of the file it writes.
Every row runs under both kernel sets, the compiled loops (skipped where
they cannot be built) and their numpy twins `_twins.TWINS`, so a change
that is meant to keep every output's bytes proves it with

    PYTHONPATH=src python -m pytest -q tests/test_corpus.py

`python tests/test_corpus.py` prints the current hashes, to re-pin a row
that moves on purpose. It hashes the package it imports, so

    PYTHONPATH=<checkout>/src python tests/test_corpus.py

prints another checkout's hashes. pytest cannot do that: the
`pythonpath = ["src"]` of pyproject.toml puts this checkout ahead of
PYTHONPATH, and the header of every pytest run names the package it
imported.
"""

import hashlib
import tempfile
from pathlib import Path

import pytest

from conftest import using_kernels
from rsfsmooth import _native, _twins
from rsfsmooth.cli import run

# Input files, written by `inputs` into the run's directory. Each vertex
# of the 30 x 30 grid has the class of its band of ten columns (LABELS) and
# a clean signal of -1, 0 or 1 by that band (SIGNAL); GRAPH is the grid's
# edge list, and COORDS jitters the grid's points for the knn generator.
# WIDE is a signal of 30 values of alternating sign, 10^-9 up to 10^20.
SSL = ("ssl --gen grid:rows=30,cols=30 --labels LABELS --n-samples 10 --repeats 2 "
       "--labels-per-class 1,5")

ROWS = {
    "exact-grid30": (
        "exact --gen grid:rows=30,cols=30 --signal gaussian --q 0.01",
        "2c09176a99bfd78c605fa2191c5f87fbd75ef207ceae4ee7cac1c8c91115f48c"),
    "exact-grid60": (
        "exact --gen grid:rows=60,cols=60 --signal gaussian --q 0.01",
        "85758effb0bcfdf28ba46b7bf670837d3e86e42d1c5e591928d966d593ee0643"),
    # bound 8001: CG takes its multigrid, with a K-cycle on three levels
    # ([10000, 799, 77])
    "exact-multigrid": (
        "exact --gen grid:rows=100,cols=100 --signal gaussian --q 0.001",
        "66203c55a7f2d24a754109b97f5ea8153cbbd54998e01e25a95c95b3bc84bc57"),
    # the exact-grid benchmark's command
    "exact-grid300": (
        "exact --gen grid:rows=300,cols=300 --signal gaussian --q 0.001",
        "67cdc53a721cc6ded8d72b06deb42c1d4e05671c3093b07f98c39da4d2db14b1"),
    # the smooth signal, one CG solve of its own, past the n <= 2000 that
    # the dense eigendecomposition it replaced was refused above
    "exact-smooth-grid50": (
        "exact --gen grid:rows=50,cols=50 --signal smooth --q 0.1",
        "a854d2f0229d7a436fc6505517a16c9193c705f211899e60ff1b35a62c1b0c6f"),
    "exact-ba": (
        "exact --gen barabasi_albert:n=3000,k=3 --signal gaussian --q 0.001",
        "b3d268cf3a3f3cab58f986b68965a62cf227beada433604d37740fed1d7a17c4"),
    "smooth-empirical": (
        "smooth --gen regular:n=2000,d=10 --signal gaussian --q 0.5 --alpha empirical "
        "--n-samples 20",
        "6b6b200a291245044905f6bbbb8c8a7bfbb32c78f018353936ea07574f13e2ea"),
    "sweep-grid20": (
        "sweep-alpha --gen grid:rows=20,cols=20 --q 0.1 --alpha-grid lin:0,0.2,3 "
        "--n-samples 4 --realizations 3",
        "a3ea13e42f5d7bfd3eede86784daa2f81aa50655b4a90b5df5efc1a03d8bd8df"),
    # the sweep-reg20k benchmark's command
    "sweep-reg20k": (
        "sweep-alpha --gen regular:n=20000,d=10 --signal gaussian --q 1.0 "
        "--alpha-grid lin:0,0.12,13 --n-samples 10 --realizations 2",
        "cf1f02ac5de9e7502050b1e23df04fb99fd491ff921ee303c80e197d4c8770a1"),
    "denoise-grid30": (
        "denoise --gen grid:rows=30,cols=30 --signal gaussian --noise-std 0.5 "
        "--q-grid log:0.01,10,5 --n-samples 2",
        "d8a239c1eed25cbcfce86cc28b566ff1c65a5da88440265d118a0d42495135cc"),
    # bounds 80001, 8001 and 801: the multigrid at the two smaller q
    "denoise-multigrid": (
        "denoise --gen grid:rows=30,cols=30 --signal gaussian --noise-std 0.5 "
        "--q-grid log:0.0001,0.01,3 --n-samples 2",
        "31a058a6e80490f3817546aa6876178ed23c3584fa04c8fa4f78d07a5ff69d8d"),
    # q_i = mu d_i / 2 varies by vertex
    "ssl-mu1": (
        SSL + " --mu 1",
        "a2074961917b2d558c6511ad911db90f14eac24ab4e829a6cbe1283efde2cedd"),
    # bound 1 + 4 d_max / (mu d_min) = 8001: the multigrid
    "ssl-mu0.001": (
        SSL + " --mu 0.001",
        "bf59081808a822aa6b0309c9cc7281902301b5b7e72bc5a97993811adbeab57f"),
    # an edge-list graph and a signal read from files
    "denoise-files": (
        "denoise --graph GRAPH --signal SIGNAL --noise-std 0.5 --q-grid log:0.01,10,5 "
        "--n-samples 2",
        "936cc615a131125c1e6e8c3b02def3365989d39a584dac8195bbd71936f6bb74"),
    # outputs of both signs from 1e-9 to 1e20, each about 0.99999999999779
    # times its input: repr writes those below 1e-4 and from 1e16 up in
    # exponent notation, the rest in fixed
    "exact-wide": (
        "exact --gen grid:rows=5,cols=6 --signal WIDE --q 1e12",
        "fdf0590cb820da0a8cd3f388f642f0a6ce77b6fc74ad2a0e9b2e20f9c3abf67e"),
    "ssl-knn": (
        "ssl --gen knn:k=8 --coords COORDS --labels LABELS --mu 1 --n-samples 10 "
        "--repeats 2 --labels-per-class 1,5",
        "4dd41daa54d8a014ffec06e10d865653be0e29482f27ee14ddfc338f6cbf46e1"),
    # d > (n - 1) / 2: the complement of a 40-regular graph
    "gen-regular-complement": (
        "gen-graph --gen regular:n=101,d=60",
        "20e28d2e3196b205eeb76d70c478dd46b03fb42ea913e7ad5e45507fa9bafad3"),
    "gen-ba": (
        "gen-graph --gen ba:n=2000,k=3",
        "fffb6faff2d5d3836554e9efc515b4c6c231ef898cfc0e9ecd2e8407d670d04c"),
}


def inputs(work):
    """The input files' paths in work, written on first use."""
    files = {"LABELS": work / "labels.csv", "SIGNAL": work / "signal.txt",
             "GRAPH": work / "grid.txt", "COORDS": work / "coords.csv",
             "WIDE": work / "wide.txt"}
    if not files["LABELS"].exists():
        band = [v % 30 // 10 for v in range(900)]
        files["LABELS"].write_text("".join(f"{v},{c}\n" for v, c in enumerate(band)))
        files["SIGNAL"].write_text("".join(f"{c - 1}\n" for c in band))
        edges = [(v, v + 1) for v in range(900) if v % 30 < 29] + [
            (v, v + 30) for v in range(870)]
        files["GRAPH"].write_text("".join(f"{u} {w}\n" for u, w in edges))
        files["COORDS"].write_text("".join(
            f"{v % 30 + v * 37 % 101 / 202},{v // 30 + v * 53 % 103 / 206}\n"
            for v in range(900)))
        files["WIDE"].write_text("".join(f"{(-1) ** v * 10.0 ** (v - 9)!r}\n" for v in range(30)))
    return {token: str(path) for token, path in files.items()}


def output_hash(name, work):
    """The sha256 of the file row `name` writes, run in the directory work."""
    files = inputs(work)
    out = work / f"{name}.json"
    argv = [files.get(a, a) for a in ROWS[name][0].split()]
    if argv[0] != "gen-graph":
        argv += ["--format", "json"]
    assert run([*argv, "--seed", "5", "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name,twins", [
    *(pytest.param(name, False, id=name) for name in ROWS),
    *(pytest.param(name, True, id=f"{name}-twins") for name in ROWS)])
def test_output_keeps_its_pinned_bytes(name, twins, tmp_path):
    chosen = _twins.TWINS if twins else _native.compiled()
    if chosen is None:
        pytest.skip("the compiled loops cannot be built here")
    with using_kernels(chosen):
        assert output_hash(name, tmp_path) == ROWS[name][1]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for row in ROWS:
            print(row, output_hash(row, Path(tmp)))
