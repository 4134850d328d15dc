"""The benchmark's workloads: seeded inputs, the CLI command, its set-up
probe and its output check.

`prepare(work_dir, seed, run_cli)` writes the inputs into `work_dir`
before any timing starts and returns a `Job`. `run_cli(argv)` runs one
untimed rsfsmooth command (used to build the kNN graph).
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks


@dataclass
class Job:
    argv: list      # rsfsmooth arguments, without the program name
    out: Path       # JSON file the command writes
    probe: dict     # set-up spec for probe.py
    check: object   # check(parsed_output) -> dict of extra values; raises CheckFailed


def _common(out, seed):
    return ["--format", "json", "--seed", str(seed), "--out", str(out)]


# sweep-reg20k: the paper's step-size experiment at the large size. Each
# forest is drawn once; graph generation and forest sampling take most of the
# time and the estimator layer little, so it is the sampler-heavy,
# estimator-light case. Two realizations keep a call near 4 s, so that a run
# holds several calls.
SWEEP_N, SWEEP_D, SWEEP_Q, SWEEP_ALPHAS = 20000, 10, 1.0, 13
SWEEP_REALIZATIONS = 2


def prepare_sweep(work, seed, run_cli):
    out = work / "sweep.json"
    argv = ["sweep-alpha", "--gen", f"regular:n={SWEEP_N},d={SWEEP_D}",
            "--signal", "gaussian", "--q", str(SWEEP_Q),
            "--alpha-grid", f"lin:0,0.12,{SWEEP_ALPHAS}", "--n-samples", "10",
            "--realizations", str(SWEEP_REALIZATIONS)] + _common(out, seed)
    probe = {"graph": {"gen": "regular", "params": {"n": SWEEP_N, "d": SWEEP_D},
                       "seed": seed},
             "signal": {"kind": "gaussian", "seed": seed}, "walk": True}
    return Job(argv, out, probe,
               lambda o: checks.check_sweep(o, SWEEP_Q, SWEEP_D, SWEEP_ALPHAS))


# denoise-grid: low degree and q down to 0.01 make the longest walks per
# forest and hundreds of CG iterations, inputs come from files, and the three
# estimator columns redraw the same 32 forests three times (96 draws).
DENOISE_SIDE, DENOISE_Q = 100, 16


def piecewise_constant_image(side, rng, n_rects=8):
    """A cartoon image: rectangles of constant level on a zero background."""
    img = np.zeros((side, side))
    for _ in range(n_rects):
        r0, c0 = rng.integers(0, side - 10, size=2)
        h, w = rng.integers(10, side // 2, size=2)
        img[r0:r0 + h, c0:c0 + w] = rng.integers(1, 5) / 2.0
    return img.ravel()


def grid_edges(rows, cols):
    """Unit-weight edges of a rows x cols grid, vertex r * cols + c."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, 1.0))
            if r + 1 < rows:
                edges.append((v, v + cols, 1.0))
    return edges


def prepare_denoise(work, seed, run_cli):
    graph, signal, out = work / "grid.txt", work / "image.txt", work / "denoise.json"
    with open(graph, "w") as fh:
        fh.writelines(f"{u} {v} 1\n" for u, v, _ in grid_edges(DENOISE_SIDE, DENOISE_SIDE))
    img = piecewise_constant_image(DENOISE_SIDE, np.random.default_rng([seed, 1]))
    np.savetxt(signal, img, fmt="%.17g")
    argv = ["denoise", "--graph", str(graph), "--signal", str(signal),
            "--noise-std", "0.5", "--q-grid", f"log:0.01,10,{DENOISE_Q}",
            "--n-samples", "2"] + _common(out, seed)
    probe = {"graph": {"file": str(graph)}, "signal": {"file": str(signal)}, "walk": True}
    return Job(argv, out, probe, lambda o: checks.check_denoise(o, DENOISE_Q))


# ssl-knn: the classifier of Pilavci et al. q_i = (mu/2) d_i varies by node,
# walks are short and there are three accumulators per forest, so the
# estimator layer (add, xbar, forest_rng) has its largest share here. Each
# forest stream is drawn six times: by three estimator columns, for each of
# the two labels-per-class values.
SSL_PER_BLOB, SSL_K, SSL_M = 500, 8, (1, 5)
SSL_REPEATS = 1
BLOB_CENTERS = np.array([[0.0, 0.0], [3.0, 0.0], [1.5, 2.6]])


def prepare_ssl(work, seed, run_cli):
    coords, labels = work / "coords.csv", work / "labels.csv"
    graph, out = work / "knn.txt", work / "ssl.json"
    rng = np.random.default_rng([seed, 2])
    cls = np.repeat(np.arange(len(BLOB_CENTERS)), SSL_PER_BLOB)
    xy = BLOB_CENTERS[cls] + rng.standard_normal((len(cls), 2))
    np.savetxt(coords, xy, fmt="%.17g", delimiter=",")
    np.savetxt(labels, np.column_stack([np.arange(len(cls)), cls]), fmt="%d",
               delimiter=",")
    run_cli(["gen-graph", "--gen", f"knn:k={SSL_K}", "--coords", str(coords),
             "--out", str(graph)])
    argv = ["ssl", "--graph", str(graph), "--labels", str(labels), "--mu", "1",
            "--n-samples", "50", "--labels-per-class", ",".join(map(str, SSL_M)),
            "--repeats", str(SSL_REPEATS)] + _common(out, seed)
    probe = {"graph": {"file": str(graph)}, "labels": str(labels), "walk": True}
    return Job(argv, out, probe,
               lambda o: checks.check_ssl(o, SSL_M, len(BLOB_CENTERS)))


# exact-grid: no forests at all, so a sampler change should leave it
# unchanged; CG on a Laplacian apply at n = 90000 dominates, and it is the
# only workload with a large output to serialise.
EXACT_SIDE, EXACT_Q = 300, 0.001


def prepare_exact(work, seed, run_cli):
    out = work / "exact.json"
    argv = ["exact", "--gen", f"grid:rows={EXACT_SIDE},cols={EXACT_SIDE}",
            "--signal", "gaussian", "--q", str(EXACT_Q)] + _common(out, seed)
    # The signal comes from the library's own generator; the reference
    # solve does not touch rsfsmooth.
    from rsfsmooth import gen_graph, synthetic_signal
    g = gen_graph("grid", rows=EXACT_SIDE, cols=EXACT_SIDE, seed=seed)
    y = synthetic_signal(g, "gaussian", seed=seed)
    x_ref = checks.reference_smooth(EXACT_SIDE * EXACT_SIDE,
                                    grid_edges(EXACT_SIDE, EXACT_SIDE), EXACT_Q, y)
    probe = {"graph": {"gen": "grid", "params": {"rows": EXACT_SIDE, "cols": EXACT_SIDE},
                       "seed": seed},
             "signal": {"kind": "gaussian", "seed": seed}, "walk": False}
    return Job(argv, out, probe, lambda o: checks.check_exact(o, x_ref))


WORKLOADS = {
    "sweep-reg20k": prepare_sweep,
    "denoise-grid": prepare_denoise,
    "ssl-knn": prepare_ssl,
    "exact-grid": prepare_exact,
}
