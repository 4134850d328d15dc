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
 *
 * float_reprs: the n finite values of v as Python's float.__repr__ writes
 * each one, the sep_len bytes of sep between two, into out, which holds
 * n (24 + sep_len) bytes; returns the bytes written. Each value gets the
 * fewest significant digits that read back as it, the nearest such
 * where there are two and the even one on a tie, in fixed notation for
 * 1e-4 <= |x| < 1e16 (".0" on an integral value) and as d.ddde+XX
 * otherwise. The digits come from Giulietti's Schubfach ("The Schubfach
 * way to render doubles", 2020), three 64x128-bit products per value,
 * in unsigned __int128. Its 617 128-bit powers of ten are worked out
 * exactly on each call, from 5^e and 2^804 / 5^e in 32-bit limbs.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

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

typedef unsigned __int128 u128;

#define MASK63 ((UINT64_C(1) << 63) - 1)

/* floor(a / 2^s) for the 32-bit limbs a, least significant first, where
 * that quotient is below 2^128; a holds four limbs past limb s / 32. */
static u128 shift_out(const uint32_t *a, int s)
{
    const uint32_t *l = a + s / 32;
    u128 hi = 0;
    for (int i = 4; i >= 1; i--)
        hi = hi << 32 | l[i];
    return hi << (32 - s % 32) | l[0] >> s % 32;
}

/* g[e + 292] = floor(10^e 2^r) + 1 as (its bits from 63 up, its low 63
 * bits), with r the integer that puts 10^e 2^r in [2^125, 2^126), for
 * e = -292, ..., 324. With b the bit length of 5^|e|, floor(10^e 2^r) is
 * floor(5^e 2^(126 - b)) = floor(p / 2^(b + 2)) for e >= 0, with
 * p = 5^e 2^128, and floor(2^(125 + b) / 5^-e) = floor(d / 2^(679 - b))
 * for e < 0, with d = floor(2^804 / 5^-e) (5^292 has 679 bits). */
static void pow10_table(uint64_t g[][2])
{
    uint32_t p[30] = {0}, d[30] = {0};
    p[4] = 1;
    d[25] = 16;
    for (int e = 0; e <= 324; e++) {
        if (e > 0) {
            uint64_t carry = 0, rem = 0;
            for (int i = 0; i < 30; i++) {
                carry += (uint64_t)p[i] * 5;
                p[i] = (uint32_t)carry;
                carry >>= 32;
            }
            for (int i = 29; i >= 0; i--) {
                rem = rem << 32 | d[i];
                d[i] = (uint32_t)(rem / 5);
                rem %= 5;
            }
        }
        int top = 29;
        while (p[top] == 0)
            top--;
        int bits = 32 * top + 32 - __builtin_clz(p[top]) - 128; /* of 5^e */
        u128 up = shift_out(p, bits + 2) + 1;
        g[e + 292][0] = (uint64_t)(up >> 63);
        g[e + 292][1] = (uint64_t)up & MASK63;
        if (e > 0 && e <= 292) {
            u128 down = shift_out(d, 679 - bits) + 1;
            g[292 - e][0] = (uint64_t)(down >> 63);
            g[292 - e][1] = (uint64_t)down & MASK63;
        }
    }
}

/* cp g / 2^127 rounded to odd, for g = g[0] 2^63 + g[1] */
static uint64_t rop(const uint64_t *g, uint64_t cp)
{
    uint64_t x1 = (uint64_t)((u128)g[1] * cp >> 64);
    u128 y = (u128)g[0] * cp;
    uint64_t z = ((uint64_t)y >> 1) + x1;
    return ((uint64_t)(y >> 64) + (z >> 63)) | (((z & MASK63) + MASK63) >> 63);
}

/* The shortest decimal f 10^e that reads back as c 2^q, the nearest one
 * where there are two and the even one on a tie: Schubfach, with the
 * rounding interval of c 2^q halved on its lower side at a power of two. */
static uint64_t shortest(int q, uint64_t c, const uint64_t g[][2], int *e)
{
    int odd = (int)(c & 1), k;
    uint64_t cb = c << 2, cbl = cb - 2, cbr = cb + 2;
    if (c != UINT64_C(1) << 52 || q == -1074) {
        k = (int)(q * INT64_C(661971961083) >> 41); /* floor(log10 2^q) */
    } else {
        cbl = cb - 1;
        k = (int)((q * INT64_C(661971961083) - INT64_C(274743187321)) >> 41); /* (3/4) 2^q */
    }
    int h = q + (int)(-k * INT64_C(913124641741) >> 38) + 2; /* floor(log2 10^-k) */
    const uint64_t *gk = g[292 - k];
    uint64_t vb = rop(gk, cb << h), vbl = rop(gk, cbl << h), vbr = rop(gk, cbr << h);
    uint64_t s = vb >> 2, sp10 = s / 10 * 10, tp10 = sp10 + 10, t = s + 1;
    *e = k;
    int upin = vbl + odd <= sp10 << 2, wpin = (tp10 << 2) + odd <= vbr;
    if (upin != wpin)
        return upin ? sp10 : tp10;
    int uin = vbl + odd <= s << 2, win = (t << 2) + odd <= vbr;
    if (uin != win)
        return uin ? s : t;
    int64_t cmp = (int64_t)(vb - ((s + t) << 1));
    return cmp < 0 || (cmp == 0 && (s & 1) == 0) ? s : t;
}

static char *write_repr(double x, const uint64_t g[][2], char *out)
{
    uint64_t bits, f;
    memcpy(&bits, &x, sizeof bits);
    if (bits >> 63)
        *out++ = '-';
    uint64_t c = bits & ((UINT64_C(1) << 52) - 1);
    int bq = (int)(bits >> 52 & 0x7ff), e = 0;
    if (bq == 0 && c == 0) {
        memcpy(out, "0.0", 3);
        return out + 3;
    }
    if (bq == 0) {
        f = shortest(-1074, c, g, &e);
    } else {
        int q = bq - 1075;
        c |= UINT64_C(1) << 52;
        if (-53 < q && q < 0 && (c & ((UINT64_C(1) << -q) - 1)) == 0)
            f = c >> -q; /* an integer below 2^53: its own digits */
        else
            f = shortest(q, c, g, &e);
    }
    for (; f % 10 == 0; f /= 10)
        e++;
    char buf[20], *d = buf + 20;
    for (; f; f /= 10)
        *--d = (char)('0' + f % 10);
    int len = (int)(buf + 20 - d), point = len + e; /* x = 0.d 10^point */
    if (-4 < point && point <= 0) {
        memcpy(out, "0.000", 2 - point);
        out += 2 - point;
        memcpy(out, d, len);
        out += len;
    } else if (0 < point && point < len) {
        memcpy(out, d, point);
        out += point;
        *out++ = '.';
        memcpy(out, d + point, len - point);
        out += len - point;
    } else if (len <= point && point <= 16) {
        memcpy(out, d, len);
        out += len;
        for (int i = len; i < point; i++)
            *out++ = '0';
        memcpy(out, ".0", 2);
        out += 2;
    } else {
        *out++ = d[0];
        if (len > 1) {
            *out++ = '.';
            memcpy(out, d + 1, len - 1);
            out += len - 1;
        }
        int p = point - 1;
        *out++ = 'e';
        *out++ = p < 0 ? '-' : '+';
        p = p < 0 ? -p : p;
        if (p >= 100)
            *out++ = (char)('0' + p / 100);
        *out++ = (char)('0' + p / 10 % 10);
        *out++ = (char)('0' + p % 10);
    }
    return out;
}

int64_t float_reprs(int64_t n, const double *v, const char *sep, int64_t sep_len, char *out)
{
    uint64_t g[617][2];
    pow10_table(g);
    char *p = out;
    for (int64_t i = 0; i < n; i++) {
        if (i > 0) {
            memcpy(p, sep, sep_len);
            p += sep_len;
        }
        p = write_repr(v[i], g, p);
    }
    return p - out;
}
