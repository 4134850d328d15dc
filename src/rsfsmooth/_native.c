/* The package's compiled loops, the set `_native.kernels()` picks where
 * this file can be built. They are built together with -ffp-contract=off
 * so that every product and sum rounds as numpy's and Python's do, and
 * each gives the same results as its twin in `_twins.TWINS`.
 *
 * wilson: Wilson's algorithm with absorption, one rooted spanning forest
 * per call. The same walk as _twins._wilson_python, step for step:
 * the uniform of step k is the counter-based splitmix64 value at position
 * pos + k of the stream `key`. root_of and parent_of come in filled with -1;
 * root_of[u] >= 0 marks u as part of the forest. Returns the number of
 * steps taken, or -1 once more than max_steps would be needed.
 *
 * walk_tables: cum = each row's running sums of its arc weights from 0.0 in
 * arc order, the table wilson bisects: np.cumsum of the row, bit for bit.
 *
 * components: the number of connected components of n vertices joined by
 * the m edges (u[e], v[e]), by union-find over parent, n entries of work:
 * each edge finds the roots of its ends, halving their paths, and hooks
 * the larger root onto the smaller. The count is that of the twin's hook
 * and shortcut rounds.
 *
 * laplacian: out = L v for each of the k columns of v, n contiguous values
 * each, over the CSR adjacency, each row summed from +0.0 in arc order, the
 * same sums as _twins._laplacian_bincount computes in numpy.
 *
 * The estimator's two loops per forest, over k columns of n contiguous
 * values each. tree_averages: out = each column's q-weighted averages over
 * the trees of root_of, broadcast back to the vertices, as
 * forests._tree_averages forms them: y_r + sum q (y - y_r) / sum q around
 * each tree's root r, the sums from +0.0 in index order, with work holding
 * 2n doubles. accumulate: the accumulator's update by one sample (x, ybar)
 * of k columns, the count-th: per column, mean += (sample - mean) / count
 * for both means, and three dot products, of dx and x - mean_x, of dy and
 * ybar - mean_y, and of dx and ybar - mean_y, with dx and dy the
 * differences from the means before the update, added into that column's
 * three co-moments m.
 *
 * dot and the three conjugate-gradient passes: every dot product sums
 * element i into lane i % 4, each lane from +0.0 in index order, and
 * returns (s0 + s1) + (s2 + s3), so its bits depend on nothing but the
 * inputs. cg_product writes ap = q p + L p and returns p . ap; cg_residual
 * makes r -= a ap and returns r . r; cg_direction makes x += a p, then
 * p = r + b p. cg_plain runs whole plain CG iterations of those three
 * passes in one call, stopping where linalg.solve_exact_cg must decide
 * something.
 *
 * The multigrid preconditioner of CG (linalg._Multigrid): with A = Q + L,
 * D its diagonal, winv = omega / D and lab the aggregate of each vertex,
 * mg_restrict stores x = winv b, then adds b_i - (A x)_i into rc[lab[i]] in
 * index order, rc zeroed first; mg_prolong makes x += ec[lab], then
 * out = x + winv (b - A x). cholesky overwrites a dense symmetric positive
 * definite matrix by its lower factor, zeros above the diagonal, column by
 * column; cholesky_solve overwrites b by (L L^T)^{-1} b by column-wise
 * forward and back substitution. No BLAS or LAPACK routine is called, so
 * these bits too depend on nothing but the inputs.
 *
 * laplacian, cg_product, mg_restrict and mg_prolong take (L x)_i from the
 * one row loop laplacian_row, which is forced inline: at -O2 gcc keeps it
 * a called function, and inlined, each of those passes over a
 * 90,000-vertex grid is 27-40 % cheaper. Each row is still summed
 * in arc order, and -ffp-contract=off keeps every product and sum
 * rounded on its own, so the bits do not change.
 */
#include <math.h>
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

void walk_tables(int64_t n, const int64_t *indptr, const double *weights, double *cum)
{
    for (int64_t i = 0; i < n; i++) {
        double s = 0.0;
        for (int64_t a = indptr[i]; a < indptr[i + 1]; a++)
            cum[a] = s += weights[a];
    }
}

int64_t components(int64_t n, int64_t m, const int64_t *u, const int64_t *v,
                   int64_t *parent)
{
    int64_t count = n;
    for (int64_t i = 0; i < n; i++)
        parent[i] = i;
    for (int64_t e = 0; e < m; e++) {
        int64_t a = u[e], b = v[e];
        while (parent[a] != a)
            a = parent[a] = parent[parent[a]];
        while (parent[b] != b)
            b = parent[b] = parent[parent[b]];
        if (a != b) {
            if (a < b)
                parent[b] = a;
            else
                parent[a] = b;
            count--;
        }
    }
    return count;
}

static inline __attribute__((always_inline))
double laplacian_row(const int64_t *indptr, const int64_t *indices,
                     const double *weights, const double *v, int64_t i)
{
    double s = 0.0;
    for (int64_t a = indptr[i]; a < indptr[i + 1]; a++)
        s += weights[a] * (v[i] - v[indices[a]]);
    return s;
}

void laplacian(int64_t n, const int64_t *indptr, const int64_t *indices,
               const double *weights, int64_t k, const double *v, double *out)
{
    for (int64_t c = 0; c < k; c++, v += n, out += n)
        for (int64_t i = 0; i < n; i++)
            out[i] = laplacian_row(indptr, indices, weights, v, i);
}

void tree_averages(int64_t n, int64_t k, const int64_t *root_of, const double *q,
                   const double *y, double *work, double *out)
{
    double *qsum = work, *shift = work + n;
    for (int64_t i = 0; i < n; i++)
        qsum[i] = 0.0;
    for (int64_t i = 0; i < n; i++)
        qsum[root_of[i]] += q[i];
    for (int64_t c = 0; c < k; c++, y += n, out += n) {
        for (int64_t i = 0; i < n; i++)
            shift[i] = 0.0;
        for (int64_t i = 0; i < n; i++)
            shift[root_of[i]] += q[i] * (y[i] - y[root_of[i]]);
        for (int64_t i = 0; i < n; i++)
            out[i] = y[root_of[i]] + shift[root_of[i]] / qsum[root_of[i]];
    }
}

/* Declares the lane sums s0..s3, each +0.0, and runs STEP(k, s) for k = 0,
 * ..., n - 1 in order, where STEP adds element k's term into s, the lane
 * k % 4. Four named lanes keep the sums in registers. */
#define FOUR_LANES(n, STEP)                                              \
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;                       \
    int64_t i = 0;                                                       \
    for (; i + 4 <= (n); i += 4) {                                       \
        STEP(i, s0); STEP(i + 1, s1); STEP(i + 2, s2); STEP(i + 3, s3); \
    }                                                                    \
    if (i < (n)) STEP(i, s0);                                            \
    if (i + 1 < (n)) STEP(i + 1, s1);                                    \
    if (i + 2 < (n)) STEP(i + 2, s2)
#define LANE_TOTAL ((s0 + s1) + (s2 + s3))

#define DOT_STEP(k, s) s += a[k] * b[k]
double dot(int64_t n, const double *a, const double *b)
{
    FOUR_LANES(n, DOT_STEP);
    return LANE_TOTAL;
}

/* The three dots of one sample's accumulator update share the lanes of
 * FOUR_LANES: s for dx . (x - mean_x), yy_s for dy . (ybar - mean_y) and
 * xy_s for dx . (ybar - mean_y). */
#define MOMENT_STEP(j, s) do {                                     \
        double dx = x[j] - mx[j], dy = ybar[j] - my[j];            \
        mx[j] += dx / count;                                       \
        my[j] += dy / count;                                       \
        s += dx * (x[j] - mx[j]);                                  \
        yy_##s += dy * (ybar[j] - my[j]);                          \
        xy_##s += dx * (ybar[j] - my[j]);                          \
    } while (0)
void accumulate(int64_t n, int64_t k, int64_t count, const double *x, const double *ybar,
                double *mx, double *my, double *m)
{
    for (int64_t c = 0; c < k; c++, x += n, ybar += n, mx += n, my += n, m += 3) {
        double yy_s0 = 0.0, yy_s1 = 0.0, yy_s2 = 0.0, yy_s3 = 0.0;
        double xy_s0 = 0.0, xy_s1 = 0.0, xy_s2 = 0.0, xy_s3 = 0.0;
        FOUR_LANES(n, MOMENT_STEP);
        m[0] += LANE_TOTAL;
        m[1] += (yy_s0 + yy_s1) + (yy_s2 + yy_s3);
        m[2] += (xy_s0 + xy_s1) + (xy_s2 + xy_s3);
    }
}

#define PRODUCT_STEP(k, s) do {                                               \
        double v = q[k] * p[k] + laplacian_row(indptr, indices, weights, p, k); \
        ap[k] = v;                                                            \
        s += p[k] * v;                                                        \
    } while (0)
double cg_product(int64_t n, const int64_t *indptr, const int64_t *indices,
                  const double *weights, const double *q, const double *p, double *ap)
{
    FOUR_LANES(n, PRODUCT_STEP);
    return LANE_TOTAL;
}

#define RESIDUAL_STEP(k, s) do { double v = r[k] - a * ap[k]; r[k] = v; s += v * v; } while (0)
double cg_residual(int64_t n, double *r, const double *ap, double a)
{
    FOUR_LANES(n, RESIDUAL_STEP);
    return LANE_TOTAL;
}

void cg_direction(int64_t n, double *x, double *p, const double *r, double a, double b)
{
    for (int64_t i = 0; i < n; i++) {
        x[i] += a * p[i];
        p[i] = r[i] + b * p[i];
    }
}

/* Runs plain CG iterations in place, each the three passes above with
 * alpha = rs / p.Ap and beta = rs_new / rs, while sqrt(*rs) > threshold and
 * fewer than steps have run; *rs comes in as r . r and leaves as it, and
 * the iterations run are returned. Where p.Ap is zero or not finite, it
 * stops before the division, with ap = A p written, leaves p.Ap in *rs and
 * returns -1 - the iterations run. */
int64_t cg_plain(int64_t n, const int64_t *indptr, const int64_t *indices,
                 const double *weights, const double *q, double *x, double *r,
                 double *p, double *ap, double threshold, int64_t steps, double *rs)
{
    double s = *rs;
    int64_t k = 0;
    for (; k < steps && !(sqrt(s) <= threshold); k++) {
        double pap = cg_product(n, indptr, indices, weights, q, p, ap);
        if (pap == 0.0 || !isfinite(pap)) {
            *rs = pap;
            return -1 - k;
        }
        double a = s / pap;
        double s_new = cg_residual(n, r, ap, a);
        cg_direction(n, x, p, r, a, s_new / s);
        s = s_new;
    }
    *rs = s;
    return k;
}

void mg_restrict(int64_t n, const int64_t *indptr, const int64_t *indices,
                 const double *weights, const double *q, const double *winv,
                 const double *b, double *x, const int64_t *lab, int64_t nc, double *rc)
{
    for (int64_t i = 0; i < n; i++)
        x[i] = winv[i] * b[i];
    for (int64_t c = 0; c < nc; c++)
        rc[c] = 0.0;
    for (int64_t i = 0; i < n; i++)
        rc[lab[i]] += b[i] - (q[i] * x[i] + laplacian_row(indptr, indices, weights, x, i));
}

void mg_prolong(int64_t n, const int64_t *indptr, const int64_t *indices,
                const double *weights, const double *q, const double *winv,
                const double *b, double *x, const int64_t *lab, const double *ec,
                double *out)
{
    for (int64_t i = 0; i < n; i++)
        x[i] += ec[lab[i]];
    for (int64_t i = 0; i < n; i++)
        out[i] = x[i] + winv[i] * (b[i] - (q[i] * x[i]
                                           + laplacian_row(indptr, indices, weights, x, i)));
}

void cholesky(int64_t n, double *a)
{
    for (int64_t k = 0; k < n; k++) {
        double d = sqrt(a[k * n + k]);
        a[k * n + k] = d;
        for (int64_t i = k + 1; i < n; i++)
            a[i * n + k] /= d;
        for (int64_t i = k + 1; i < n; i++) {
            double l = a[i * n + k];
            for (int64_t j = k + 1; j <= i; j++)
                a[i * n + j] -= l * a[j * n + k];
        }
        for (int64_t j = k + 1; j < n; j++)
            a[k * n + j] = 0.0;
    }
}

void cholesky_solve(int64_t n, const double *l, double *b)
{
    for (int64_t k = 0; k < n; k++) {
        double y = b[k] / l[k * n + k];
        b[k] = y;
        for (int64_t i = k + 1; i < n; i++)
            b[i] -= l[i * n + k] * y;
    }
    for (int64_t k = n - 1; k >= 0; k--) {
        double x = b[k] / l[k * n + k];
        b[k] = x;
        for (int64_t i = 0; i < k; i++)
            b[i] -= l[k * n + i] * x;
    }
}
