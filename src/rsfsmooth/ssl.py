"""Graph semi-supervised node classification.

Per class l the score vector is f_l = D^{1-sigma} K D^{sigma-1} y_l with
K = (D + (2/mu) L)^{-1} D, which is the smoothing operator of a problem
with absorption weights q_i = (mu/2) d_i. Scores are computed either
exactly (conjugate gradient) or by the forest Monte Carlo estimators, which
take the k signals as one problem: each forest serves every class.
"""

import itertools
from dataclasses import dataclass, replace

import numpy as np

from ._native import columns
from .errors import DataError, integer
from .estimators import (FOREST_ESTIMATORS, accumulate_forests, check_draw_budget,
                         forest_estimates, run_monte_carlo)
from .forests import derive_seed, numpy_rng
from .graphs import _read_table, _repeats
from .linalg import SmoothingProblem, solve_exact_cg


@dataclass
class SSLProblem:
    """Node classification instance.

    `labels[v]` is the ground-truth class id of vertex v, or -1 when
    unknown. `labeled_set` lists the vertices whose labels the classifier
    may see (defaults to every vertex with a known label); the rest of
    the known labels form the evaluation holdout.
    """

    graph: object
    labels: np.ndarray
    mu: float
    sigma: float
    labeled_set: np.ndarray = None

    def __post_init__(self):
        labels = np.asarray(self.labels)
        with np.errstate(invalid="ignore"):  # a NaN label casts to some int, then fails below
            self.labels = labels.astype(np.int64)
        if self.labels.shape != (self.graph.n,):
            raise DataError("labels length must equal the vertex count")
        if not np.array_equal(self.labels, labels):
            raise DataError("labels must be integer class ids")
        if self.labels.max() < 0:
            raise DataError("at least one vertex must carry a label")
        if not 0 < self.mu < np.inf:
            raise DataError(f"mu must be positive and finite, got {self.mu!r}")
        if not 0.0 <= self.sigma <= 1.0:
            raise DataError("sigma must lie in [0, 1]")
        if self.labeled_set is None:
            self.labeled_set = np.flatnonzero(self.labels >= 0)
        self.labeled_set = np.unique(np.asarray(self.labeled_set, dtype=np.int64))
        if len(self.labeled_set) == 0:
            raise DataError("labeled set is empty")
        if self.labeled_set.min() < 0 or self.labeled_set.max() >= self.graph.n:
            raise DataError("labeled set contains out-of-range vertex ids")
        if (self.labels[self.labeled_set] < 0).any():
            raise DataError("labeled set contains vertices without a known label")
        self.k = int(self.labels.max()) + 1
        seen = set(self.labels[self.labeled_set].tolist())
        if len(seen) < self.k:  # the first five lie below len(seen) + 5
            missing = list(itertools.islice((c for c in range(self.k) if c not in seen), 5))
            raise DataError(f"classes without a labeled vertex: {self.k - len(seen)}, "
                            f"the first {missing}")

    def label_matrix(self):
        """n x k indicator matrix: Y[i, c] = 1 iff i is labeled with class c.
        Its columns are contiguous."""
        Y = np.zeros((self.graph.n, self.k), order="F")
        Y[self.labeled_set, self.labels[self.labeled_set]] = 1.0
        return Y

    def absorption(self):
        """Per-node absorption weights q_i = (mu/2) d_i."""
        return (self.mu / 2.0) * self.graph.degrees

    def holdout(self):
        mask = self.labels >= 0
        mask[self.labeled_set] = False
        return np.flatnonzero(mask)


@dataclass
class ClassificationResult:
    """Score matrix, argmax predictions, and holdout accuracy.

    Ties in the argmax go to the lowest class id. `accuracy` is NaN when
    there are no held-out labels to evaluate on.
    """

    F: np.ndarray
    predicted: np.ndarray
    accuracy: float
    diagnostics: dict


def _class_problem(problem):
    """The smoothing problem of the k classes: the signal block D^{sigma-1} Y,
    one column per class, and absorption q_i = (mu/2) d_i."""
    g = problem.graph
    d_in = g.degrees ** (problem.sigma - 1.0)
    return SmoothingProblem(g, d_in[:, None] * problem.label_matrix(), problem.absorption())


def _finish(problem, X, diagnostics):
    """Scores D^{1-sigma} X of the smoothed class signals X, one column per
    class, their argmax predictions and the holdout accuracy."""
    d_out = problem.graph.degrees ** (1.0 - problem.sigma)
    F = d_out[:, None] * X
    predicted = np.argmax(F, axis=1)
    holdout = problem.holdout()
    if len(holdout):
        accuracy = float(np.mean(predicted[holdout] == problem.labels[holdout]))
    else:
        accuracy = float("nan")
    return ClassificationResult(F=F, predicted=predicted, accuracy=accuracy,
                                diagnostics=diagnostics)


def ssl_exact(problem):
    """Exact classification scores via conjugate gradient, one class at a time."""
    sp = _class_problem(problem)
    solves = [solve_exact_cg(SmoothingProblem(sp.graph, y, sp.q)) for y in columns(sp.y)]
    return _finish(problem, np.column_stack([x for x, _ in solves]),
                   {"cg_iterations": [it for _, it in solves]})


def ssl_forest(problem, n_samples, strategy, seed=0):
    """Forest Monte Carlo classification scores: `run_monte_carlo` on the
    classes' smoothing problem. The forest law depends only on
    q_i = (mu/2) d_i, not on the class signal, so each forest draw serves
    all k classes, at a k-fold cost saving over sampling per class.
    """
    result = run_monte_carlo(_class_problem(problem), n_samples, strategy, seed)
    mc = result.diagnostics
    return _finish(problem, result.estimate, {
        "n_samples": mc["n_samples"], "strategy": mc["strategy"],
        "alpha_per_class": mc["alpha"].tolist(),
        "zero_variance_fallback_per_class": mc["zero_variance_fallback"].tolist(),
        "total_walk_steps": mc["total_walk_steps"]})


def accuracy_experiment(problem, labels_per_class, repeats, n_samples=50, seed=0):
    """Mean/std holdout accuracy per method over random labeled sets.

    For each count m of `labels_per_class` (one count or a list), each
    repeat samples m labeled vertices per class uniformly without
    replacement from the ground-truth labels of `problem`, classifies with
    every method (one forest pass per repeat serves all three forest
    methods), and scores on the unlabeled remainder. The methods are
    "exact" and the estimators of `forest_estimates`; where one is absent
    by design (the empirical step at n_samples = 1) its mean_acc and
    std_acc are None. The table's draws are charged, and every count
    checked, before its first solve or draw.

    Returns a list of row dicts, count by count: {m, method, mean_acc, std_acc}.
    """
    counts = [integer(m, "labels_per_class") for m in np.atleast_1d(labels_per_class).tolist()]
    if not counts:
        raise DataError("labels_per_class needs at least one count")
    repeats = integer(repeats, "repeats")
    if repeats < 1:  # before the charge, which negative repeats and samples make positive
        raise DataError(f"repeats must be >= 1, got {repeats}")
    check_draw_budget(problem.graph, [(problem.absorption(), len(counts) * repeats * n_samples)])
    members = [np.flatnonzero(problem.labels == c) for c in range(problem.k)]
    for m in counts:
        if m < 1:
            raise DataError("labels_per_class must be >= 1")
        if m * problem.k > problem.graph.n:
            raise DataError("labels_per_class exceeds the vertex budget")
        for c, mem in enumerate(members):
            if len(mem) < m:
                raise DataError(f"class {c} has {len(mem)} members, fewer than m={m}")
        if all(len(mem) == m for mem in members):
            raise DataError(f"no held-out vertex: every labeled vertex would be among "
                            f"the m={m} per class")

    rows = []
    for m in counts:
        scores = {"exact": [], **{name: [] for name in FOREST_ESTIMATORS}}
        for r in range(repeats):
            pick = numpy_rng(seed, 1, r).choice
            labeled = np.concatenate([pick(mem, size=m, replace=False) for mem in members])
            sub = replace(problem, labeled_set=labeled)
            sp = _class_problem(sub)
            acc, _ = accumulate_forests(sp, n_samples, derive_seed(seed, 2, r))
            scores["exact"].append(ssl_exact(sub).accuracy)
            for name, x in forest_estimates(sp, acc).items():
                if x is not None:
                    scores[name].append(_finish(sub, x, {}).accuracy)
        rows += [{"m": m, "method": method,
                  "mean_acc": float(np.mean(values)) if values else None,
                  "std_acc": float(np.std(values)) if values else None}
                 for method, values in scores.items()]
    return rows


def load_labels(path, n):
    """Load "node,class_id" CSV labels; unlisted nodes get -1."""
    table = _read_table(path, ",", "node,class_id", ("ii",))
    node, cls = table.columns
    table.check((~((node >= 0) & (node < n)), lambda i, raw: f"node {node[i]} out of range"),
                (cls < 0, lambda i, raw: "negative class id"),
                (cls > np.iinfo(np.int64).max,
                 lambda i, raw: f"class id {cls[i]} exceeds 2^63 - 1"),
                (_repeats(node), lambda i, raw: f"duplicate node {node[i]}"))
    if not len(node):
        raise DataError(f"{path}: no labels")
    labels = np.full(n, -1, dtype=np.int64)
    labels[node.astype(np.int64)] = cls
    return labels
