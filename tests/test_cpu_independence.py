"""Outputs that pass through CG and the Monte Carlo co-moments have the
bytes pinned in the corpus (`test_corpus.ROWS`) whichever BLAS kernel
numpy dispatches to: every dot product of the solver and the accumulator
is summed in fixed lanes by the package's own loops, and the dense
coarsest solve of CG's multigrid calls no LAPACK. A DYNAMIC_ARCH
OpenBLAS picks its kernel from the CPU, or from OPENBLAS_CORETYPE, so
each run below forces one kernel in a fresh interpreter."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rsfsmooth
from test_corpus import ROWS

# the corpus rows that pass through CG, its multigrid (bound 8001 on the
# 100 x 100 grid), the smooth synthetic signal and the sampled estimators
NAMES = ("exact-grid30", "exact-multigrid", "exact-smooth-grid50", "sweep-grid20",
         "smooth-empirical")

# runs every row and prints one "name sha256" line each
SCRIPT = """
import hashlib, sys
from rsfsmooth.cli import run
for name, argv in {commands!r}.items():
    out = {out!r} + "/" + name + ".json"
    assert run([*argv, "--seed", "5", "--format", "json", "--out", out]) == 0
    with open(out, "rb") as fh:
        print(name, hashlib.sha256(fh.read()).hexdigest())
"""


def dynamic_openblas():
    """Whether numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):  # an older numpy, or no BLAS entry
        return False
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


def core_types():
    """OPENBLAS_CORETYPE values this CPU can run: none (the kernel the CPU
    gets by itself) and Prescott always, Haswell and SkylakeX where the
    CPU has their instructions."""
    flags = set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("flags"):
                flags.update(line.split(":", 1)[1].split())
    except OSError:
        pass
    types = [None, "Prescott"]
    types += ["Haswell"] if "avx2" in flags else []
    types += ["SkylakeX"] if "avx512f" in flags else []
    return types


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS core types are x86-64 kernels")
@pytest.mark.skipif(not dynamic_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
def test_cg_and_sampled_outputs_have_one_hash_under_every_blas_kernel(tmp_path):
    src = str(Path(rsfsmooth.__file__).resolve().parents[1])
    commands = {name: ROWS[name][0].split() for name in NAMES}
    no_cc = tmp_path / "bin"
    no_cc.mkdir()
    runs = [(core, None) for core in core_types()] + [(None, no_cc)]  # last: numpy twins
    hashes = {}
    for i, (core, path) in enumerate(runs):
        out = tmp_path / f"run{i}"
        out.mkdir()
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                   XDG_CACHE_HOME=str(tmp_path / ("bare" if path else "cache")))
        if core:
            env["OPENBLAS_CORETYPE"] = core
        if path:
            env["PATH"] = str(path)
        res = subprocess.run([sys.executable, "-c", SCRIPT.format(commands=commands, out=str(out))],
                             env=env, capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        for line in res.stdout.splitlines():
            name, digest = line.split()
            hashes.setdefault(name, {})[core or ("unset, no cc" if path else "unset")] = digest
    assert sorted(hashes) == sorted(NAMES)
    for name, by_core in hashes.items():
        assert set(by_core.values()) == {ROWS[name][1]}, (name, by_core)
    for i in range(len(runs)):
        levels = [json.loads((tmp_path / f"run{i}" / f"{name}.json").read_text())
                  ["diagnostics"].get("levels") for name in ("exact-grid30", "exact-multigrid")]
        # three levels or more: the second is corrected by the K-cycle
        assert levels[0] is None and levels[1][0] == 10000 and len(levels[1]) >= 3, levels
