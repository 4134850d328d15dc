"""Graph semi-supervised node classification.

Per class l the score vector is f_l = D^{1-sigma} K D^{sigma-1} y_l with
K = (D + (2/mu) L)^{-1} D, which is the smoothing operator of a problem
with absorption weights q_i = (mu/2) d_i. Scores are computed either
exactly (conjugate gradient) or by the forest Monte Carlo estimators.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .estimators import (FOREST_ESTIMATORS, accumulate_forests, forest_estimates,
                         gradient_step, resolve_alpha)
from .forests import derive_seed
from .graphs import _lines, _table
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
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.shape != (self.graph.n,):
            raise DataError("labels length must equal the vertex count")
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
        """n x k indicator matrix: Y[i, c] = 1 iff i is labeled with class c."""
        Y = np.zeros((self.graph.n, self.k))
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


def _class_problems(problem):
    """The k per-class smoothing problems: signal D^{sigma-1} Y[:, c] and
    absorption q_i = (mu/2) d_i, the same for every class."""
    g = problem.graph
    d_in = g.degrees ** (problem.sigma - 1.0)
    q = problem.absorption()
    Y = problem.label_matrix()
    return [SmoothingProblem(g, d_in * Y[:, c], q) for c in range(problem.k)]


def _finish(problem, columns, diagnostics):
    """Scores D^{1-sigma} x_c of the per-class smoothed signals x_c, their
    argmax predictions and the holdout accuracy."""
    d_out = problem.graph.degrees ** (1.0 - problem.sigma)
    F = d_out[:, None] * np.column_stack(columns)
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
    solves = [solve_exact_cg(sp) for sp in _class_problems(problem)]
    return _finish(problem, [x for x, _ in solves],
                   {"cg_iterations": [it for _, it in solves]})


def _forest_pass(problem, n_samples, seed, passes=1):
    """One of `passes` forest passes: the per-class smoothing problems,
    their accumulators and the walk steps of the draws. The forest law
    depends only on q_i = (mu/2) d_i, not on the class signal, so each
    draw serves every column of Y."""
    subproblems = _class_problems(problem)
    return (subproblems, *accumulate_forests(subproblems, n_samples, seed, passes))


def ssl_forest(problem, n_samples, strategy, seed=0):
    """Forest Monte Carlo classification scores.

    Each forest draw is shared by all k classes, at a k-fold cost saving
    over sampling per class.
    """
    subproblems, accs, walk_steps = _forest_pass(problem, n_samples, seed)
    columns, alphas, fallbacks = [], [], []
    for sp, acc in zip(subproblems, accs):
        alpha, fallback = resolve_alpha(strategy, sp, acc)
        columns.append(gradient_step(acc.mean_x, sp, alpha))
        alphas.append(alpha)
        fallbacks.append(fallback)
    diagnostics = {
        "n_samples": accs[0].count,
        "strategy": strategy.kind,
        "alpha_per_class": alphas,
        "zero_variance_fallback_per_class": fallbacks,
        "total_walk_steps": walk_steps,
    }
    return _finish(problem, columns, diagnostics)


def accuracy_experiment(problem, labels_per_class, repeats, n_samples=50, seed=0):
    """Mean/std holdout accuracy per method over random labeled sets.

    Each repeat samples `labels_per_class` labeled vertices per class
    uniformly without replacement from the ground-truth labels of
    `problem`, classifies with every method (one forest pass per repeat
    serves all three forest methods), and scores on the unlabeled
    remainder. The methods are "exact" and the estimators of
    `forest_estimates`; where one is absent by design (the empirical step
    at n_samples = 1) its mean_acc and std_acc are None.

    Returns a list of row dicts: {m, method, mean_acc, std_acc}.
    """
    m = int(labels_per_class)
    if m < 1:
        raise DataError("labels_per_class must be >= 1")
    if repeats < 1:
        raise DataError(f"repeats must be >= 1, got {repeats}")
    if m * problem.k > problem.graph.n:
        raise DataError("labels_per_class exceeds the vertex budget")
    members = [np.flatnonzero(problem.labels == c) for c in range(problem.k)]
    for c, mem in enumerate(members):
        if len(mem) < m:
            raise DataError(f"class {c} has {len(mem)} members, fewer than m={m}")
    if all(len(mem) == m for mem in members):
        raise DataError(f"no held-out vertex: every labeled vertex would be among "
                        f"the m={m} per class")

    scores = {"exact": [], **{name: [] for name in FOREST_ESTIMATORS}}
    for r in range(repeats):
        pick_rng = np.random.default_rng(np.random.SeedSequence((int(seed), 1, r)))
        labeled = np.concatenate([
            pick_rng.choice(mem, size=m, replace=False) for mem in members
        ])
        sub = SSLProblem(graph=problem.graph, labels=problem.labels,
                         mu=problem.mu, sigma=problem.sigma, labeled_set=labeled)
        scores["exact"].append(ssl_exact(sub).accuracy)
        subproblems, accs, _ = _forest_pass(sub, n_samples, derive_seed(seed, 2, r),
                                                passes=repeats)
        per_class = [forest_estimates(sp, acc) for sp, acc in zip(subproblems, accs)]
        for name in FOREST_ESTIMATORS:
            if per_class[0][name] is not None:
                scores[name].append(_finish(sub, [e[name] for e in per_class], {}).accuracy)
    return [{"m": m, "method": method,
             "mean_acc": float(np.mean(values)) if values else None,
             "std_acc": float(np.std(values)) if values else None}
            for method, values in scores.items()]


def load_labels(path, n):
    """Load "node,class_id" CSV labels; unlisted nodes get -1."""
    labels = np.full(n, -1, dtype=np.int64)
    table = _table(path, ",", ("ii",))
    if table is not None:
        node, cls = table["c0"], table["c1"]
        if (node.min() >= 0 and node.max() < n and cls.min() >= 0
                and np.bincount(node, minlength=n).max() == 1):
            labels[node] = cls
            return labels
    for lineno, raw, parts in _lines(path, ",", "node,class_id", (2,)):
        try:
            node, cls = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"{path}: line {lineno}: cannot parse {raw!r}") from None
        if not 0 <= node < n:
            raise DataError(f"{path}: line {lineno}: node {node} out of range")
        if cls < 0:
            raise DataError(f"{path}: line {lineno}: negative class id")
        if cls > np.iinfo(np.int64).max:
            raise DataError(f"{path}: line {lineno}: class id {cls} exceeds 2^63 - 1")
        if labels[node] >= 0:
            raise DataError(f"{path}: line {lineno}: duplicate node {node}")
        labels[node] = cls
    if labels.max() < 0:
        raise DataError(f"{path}: no labels")
    return labels
