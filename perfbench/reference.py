"""Reference program: a fixed yardstick for how fast the host runs right now.

    python3 reference.py

The benchmark runs it, in a fresh interpreter, next to every timed command
and reports the command's wall time relative to it (run.py). It never
touches rsfsmooth, so a change to the package cannot move it; it only
mirrors the kinds of work the package does: importing numpy and scipy,
loop-erased random walks in pure Python over adjacency lists, sparse
conjugate-gradient solves on a graph that fits in cache, and sparse
products on a 300x300 grid that does not. On shared cloud cores the speed
of such work drifts by up to 1.5x over tens of seconds, and the drift hits
this program and the timed commands alike.
"""

import random

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

N, MATCHINGS, Q = 3000, 3, 0.5
FORESTS, SOLVES = 30, 5
SIDE, PRODUCTS = 300, 60


def random_graph(rng):
    """Union of MATCHINGS random perfect matchings on N vertices (CSR)."""
    rows, cols = [], []
    for _ in range(MATCHINGS):
        perm = rng.permutation(N)
        rows.append(perm[0::2])
        cols.append(perm[1::2])
    u, v = np.concatenate(rows), np.concatenate(cols)
    a = sp.coo_array((np.ones(2 * len(u)), (np.r_[u, v], np.r_[v, u])), shape=(N, N))
    return a.tocsr()


def grid_adjacency():
    """Adjacency of the SIDE x SIDE grid graph (CSR)."""
    path = sp.diags_array(np.ones(SIDE - 1), offsets=1, shape=(SIDE, SIDE))
    eye = sp.eye_array(SIDE)
    a = sp.kron(path, eye) + sp.kron(eye, path)
    return (a + a.T).tocsr()


def wilson_forest(indptr, indices, rng):
    """One rooted spanning forest by loop-erased walks killed at rate Q."""
    in_tree = [False] * N
    nxt = [-1] * N
    for start in range(N):
        u = start
        while not in_tree[u]:
            lo, hi = indptr[u], indptr[u + 1]
            if rng.random() < Q / (Q + hi - lo):
                in_tree[u] = True
                break
            nxt[u] = indices[lo + int(rng.random() * (hi - lo))]
            u = nxt[u]
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = nxt[u]


def main():
    a = random_graph(np.random.default_rng(0))
    indptr, indices = a.indptr.tolist(), a.indices.tolist()
    rng = random.Random(0)
    for _ in range(FORESTS):
        wilson_forest(indptr, indices, rng)
    lap = sp.diags_array(a.sum(axis=1) + 0.01) - a
    y = np.random.default_rng(1).standard_normal(N)
    for _ in range(SOLVES):
        spla.cg(lap, y, rtol=1e-10, maxiter=2000)
    grid = grid_adjacency()
    x = np.random.default_rng(2).standard_normal(SIDE * SIDE)
    for _ in range(PRODUCTS):
        x = grid @ x
        x /= np.linalg.norm(x)


if __name__ == "__main__":
    main()
