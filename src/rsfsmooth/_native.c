/* The package's two compiled loops, built together with -ffp-contract=off
 * so that every product and sum rounds as numpy's and Python's do.
 *
 * wilson: Wilson's algorithm with absorption, one rooted spanning forest
 * per call. The same walk as the Python loop in forests.py, step for step:
 * the uniform of step k is the counter-based splitmix64 value at position
 * pos + k of the stream `key`. root_of and parent_of come in filled with -1;
 * root_of[u] >= 0 marks u as part of the forest. Returns the number of
 * steps taken, or -1 once more than max_steps would be needed.
 *
 * laplacian: out = L v over the CSR adjacency, each row summed from +0.0 in
 * arc order, the same sums as the bincount form in linalg.py.
 */
#include <stdint.h>

static double uniform(uint64_t key, uint64_t k)
{
    uint64_t z = key + k * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return (double)(z >> 11) * 0x1.0p-53;
}

int64_t wilson(int64_t n, const int64_t *indptr, const int64_t *indices,
               const double *cum, const double *q, uint64_t key, uint64_t pos,
               int64_t max_steps, int64_t *root_of, int64_t *parent_of)
{
    int64_t steps = 0;
    for (int64_t start = 0; start < n; start++) {
        int64_t u = start;
        while (root_of[u] < 0) {
            if (steps >= max_steps)
                return -1;
            int64_t lo = indptr[u], hi = indptr[u + 1];
            double d = lo < hi ? cum[hi - 1] : 0.0;
            double r = uniform(key, pos + (uint64_t)steps++) * (q[u] + d);
            if (r >= d) { /* absorbed: u becomes a root */
                root_of[u] = u;
                parent_of[u] = -1;
                break;
            }
            /* bisect_right over the row, capped at its last arc */
            for (hi--; lo < hi;) {
                int64_t mid = lo + (hi - lo) / 2;
                if (r < cum[mid]) hi = mid; else lo = mid + 1;
            }
            parent_of[u] = indices[lo];
            u = indices[lo];
        }
        int64_t root = root_of[u];
        for (u = start; root_of[u] < 0; u = parent_of[u])
            root_of[u] = root;
    }
    return steps;
}

void laplacian(int64_t n, const int64_t *indptr, const int64_t *indices,
               const double *weights, const double *v, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        double s = 0.0;
        for (int64_t a = indptr[i]; a < indptr[i + 1]; a++)
            s += weights[a] * (v[i] - v[indices[a]]);
        out[i] = s;
    }
}
