/* The compiled numerics of ssmono: the singular values of 4x4 complex
 * matrices (svd4), the Wootters lambdas of two-qubit factors (lambdas), the
 * Renyi maps (renyi_of_c, renyi_of_spectra), the SS / monogamy terms of
 * 4-qubit states (terms), the CKW R2 residual of 3..8 qubits (ckw_r2), the
 * random unit rows of the descent, the walk and the scans (unit_rows), the
 * displaced, renormalized states of the descent (displace) and the scored
 * chain of the region walk (walk).
 *
 * Singular values come from cyclic one-sided Jacobi (Hestenes; Demmel &
 * Veselic, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)). Columns p < q are
 * rotated until every pair is orthogonal to within TOL relative to their
 * norms; the singular values are then the column norms. Both squared norms
 * are recomputed from the columns before each rotation, never carried over
 * by an update, so they cannot drift negative on rank-deficient input. A NaN
 * fails the rotation test and is passed through.
 *
 * The kernels queue their matrices, and sv4w runs W of them in lockstep:
 * each step is W independent operations instead of one link in a chain of
 * dependent ones, so the processor overlaps them. A lane's bits never depend
 * on its partners, its position or the batch. Each lane does exactly the
 * arithmetic of a matrix handled on its own; a lane whose pair fails the
 * rotation test keeps its columns through a select; and the sweeps stop only
 * when no lane rotated. A lane that took no rotation in a whole sweep has
 * the same columns, so the same dot products and the same test results, in
 * every later sweep: it never rotates again, and it ends with the columns it
 * had when it would have stopped alone. Unused lanes hold zeros, which never
 * rotate, so they add no sweeps.
 *
 * terms and ckw_r2 run two rows in lockstep in the same way, one in each lane
 * of a two-lane vector (v2d, above gram).
 *
 * Under a cut (above terms) the scans' kernels skip the singular values of
 * rows that cannot be a chunk's least value or fall below its threshold.
 */
#include <float.h>
#include <math.h>
#include <stddef.h>

/* FMA_CLONES compiles a routine twice, for processors with FMA and for the
 * rest, and glibc's ifunc picks one at load time. It marks only the routines
 * whose arithmetic is explicit fma() calls, spin_flip4 (through cmul) and
 * norm_sum (through abs2; norm_sum is recursive, so it would not inline into
 * a marked caller): without FMA in the instruction set each of those is a
 * call into libm, 128 of them per four-pair row near the optimum. fma()
 * rounds correctly in both clones, so both give the same bits. The library
 * is not built with -mfma instead: under GCC 12 a global -mfma turns gram's
 * complex products into vfmaddsub231pd even with -ffp-contract=off, which
 * moved the alpha = 2 bipartite term of 883 of 4,096 Haar rows and of 1,101
 * of 4,096 rows 1e-3 from the optimum, by up to 6.7e-16 (x86-64). On aarch64
 * fma() is already one instruction, and elsewhere the macro is empty. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define FMA_CLONES __attribute__((target_clones("fma", "default")))
#endif
#endif
#ifndef FMA_CLONES
#define FMA_CLONES
#endif

#define N 4
/* sqrt(N) * eps: at eps alone, roundoff in a rotation can keep a pair just
 * above the test for every sweep (1 in 4e5 Haar spin-flip blocks did) */
#define TOL (2.0 * DBL_EPSILON)
#define MAX_SWEEPS 30
/* matrices per lockstep run, in plain arrays that -O2 turns into 2-wide SSE2
 * operations: on Haar matrices W = 4 and W = 16 ran slower than 8 */
#define W 8
/* rows per block of terms and ckw_r2: a block's matrices are queued, the
 * queue is emptied, and then the rows' terms are formed from the results */
#define ROWS 32

/* up to W matrices waiting for their singular values */
struct lanes {
    double re[N][N][W], im[N][N][W]; /* column-major: re[column][row][lane] */
    double *out[W];                  /* where each lane's 4 values go, descending */
    int used;
};

/* columns p and q of every lane through the rotation (c, s) after the phase
 * (ur, ui), in the lanes that take it; the others keep their columns. p != q,
 * and restrict says so: without it -O2 reloads the columns after every
 * store, and sv4w ran 1.3x slower. */
static void rotate(double (*restrict rp)[W], double (*restrict ip)[W], double (*restrict rq)[W],
                   double (*restrict iq)[W], const int *take, const double *ur, const double *ui,
                   const double *c, const double *s)
{
    for (int r = 0; r < N; r++)
        for (int w = 0; w < W; w++) {
            double qr = rq[r][w] * ur[w] - iq[r][w] * ui[w];
            double qi = rq[r][w] * ui[w] + iq[r][w] * ur[w];
            double pr = rp[r][w], pi = ip[r][w];
            double pr2 = c[w] * pr - s[w] * qr, pi2 = c[w] * pi - s[w] * qi;
            double qr2 = s[w] * pr + c[w] * qr, qi2 = s[w] * pi + c[w] * qi;
            rp[r][w] = take[w] ? pr2 : pr;
            ip[r][w] = take[w] ? pi2 : pi;
            rq[r][w] = take[w] ? qr2 : rq[r][w];
            iq[r][w] = take[w] ? qi2 : iq[r][w];
        }
}

/* cyclic one-sided Jacobi on every lane of L at once, then each used lane's
 * column norms sorted into its out; L is left empty */
static void sv4w(struct lanes *L)
{
    if (L->used == 0)
        return;
    for (int w = L->used; w < W; w++)
        for (int c = 0; c < N; c++)
            for (int r = 0; r < N; r++)
                L->re[c][r][w] = L->im[c][r][w] = 0.0;
    /* each lane scaled by 2^-e[w], which brings its largest |component| into
     * [1/2, 1), and its values scaled back at the end: both exact, so a lane
     * near unit scale keeps its bits, and one far from it no longer has its
     * rotation test underflow (entries below about 1e-75) or overflow. 2^-e
     * itself overflows past 2^1023 (entries below about 1e-308), so it is
     * applied as two exact multiplies. A lane that is zero, or whose largest
     * |component| is inf (NaNs are skipped), keeps e = 0. */
    double top[W], first[W], second[W];
    int e[W];
    for (int w = 0; w < W; w++)
        top[w] = 0.0;
    for (int c = 0; c < N; c++)
        for (int r = 0; r < N; r++)
            for (int w = 0; w < W; w++) {
                double a = fabs(L->re[c][r][w]), b = fabs(L->im[c][r][w]);
                double m = a > b ? a : b; /* a NaN is never the larger */
                top[w] = m > top[w] ? m : top[w];
            }
    for (int w = 0; w < W; w++) {
        e[w] = 0;
        if (top[w] > 0.0 && top[w] < INFINITY)
            frexp(top[w], &e[w]);
        int h = -e[w] / 2;
        first[w] = ldexp(1.0, h);
        second[w] = ldexp(1.0, -e[w] - h);
    }
    for (int c = 0; c < N; c++)
        for (int r = 0; r < N; r++)
            for (int w = 0; w < W; w++) {
                L->re[c][r][w] = L->re[c][r][w] * first[w] * second[w];
                L->im[c][r][w] = L->im[c][r][w] * first[w] * second[w];
            }
    for (int sweep = 0; sweep < MAX_SWEEPS; sweep++) {
        int rotated = 0;
        for (int p = 0; p < N - 1; p++)
            for (int q = p + 1; q < N; q++) {
                double (*rp)[W] = L->re[p], (*ip)[W] = L->im[p], (*rq)[W] = L->re[q], (*iq)[W] = L->im[q];
                double np[W], nq[W], gr[W], gi[W]; /* g = a_p^H a_q */
                int take[W], any = 0;
                for (int w = 0; w < W; w++)
                    np[w] = nq[w] = gr[w] = gi[w] = 0.0;
                for (int r = 0; r < N; r++)
                    for (int w = 0; w < W; w++) {
                        np[w] += rp[r][w] * rp[r][w] + ip[r][w] * ip[r][w];
                        nq[w] += rq[r][w] * rq[r][w] + iq[r][w] * iq[r][w];
                        gr[w] += rp[r][w] * rq[r][w] + ip[r][w] * iq[r][w];
                        gi[w] += rp[r][w] * iq[r][w] - ip[r][w] * rq[r][w];
                    }
                for (int w = 0; w < W; w++) {
                    double g2 = gr[w] * gr[w] + gi[w] * gi[w];
                    /* g2 >= DBL_MIN as well: at a subnormal g2, sqrt(g2)
                     * has lost the precision that makes the phase below
                     * unit-modulus, and each later rotation would stretch the
                     * lane's columns (a near-null column of a rank-deficient
                     * lane falls that far) */
                    take[w] = g2 > TOL * TOL * np[w] * nq[w] && g2 >= DBL_MIN;
                    any |= take[w];
                }
                if (!any)
                    continue;
                /* a_q * conj(g)/|g| makes the pair's inner product real and
                 * positive, |g|; then the real symmetric Schur rotation of
                 * [[np, |g|], [|g|, nq]] (Golub & Van Loan, sec. 8.5). A lane
                 * that does not take it computes it anyway, maybe from 0/0,
                 * and drops it in rotate. */
                double ur[W], ui[W], c[W], s[W];
                for (int w = 0; w < W; w++) {
                    double ga = sqrt(gr[w] * gr[w] + gi[w] * gi[w]);
                    ur[w] = gr[w] / ga;
                    ui[w] = -gi[w] / ga;
                    double zeta = (nq[w] - np[w]) / (2.0 * ga);
                    double t = (zeta >= 0.0 ? 1.0 : -1.0) / (fabs(zeta) + sqrt(1.0 + zeta * zeta));
                    c[w] = 1.0 / sqrt(1.0 + t * t);
                    s[w] = c[w] * t;
                }
                rotate(rp, ip, rq, iq, take, ur, ui, c, s);
                rotated = 1;
            }
        if (!rotated)
            break;
    }
    for (int w = 0; w < L->used; w++) {
        double *out = L->out[w];
        for (int c = 0; c < N; c++) {
            double n2 = 0.0;
            for (int r = 0; r < N; r++)
                n2 += L->re[c][r][w] * L->re[c][r][w] + L->im[c][r][w] * L->im[c][r][w];
            double v = ldexp(sqrt(n2), e[w]);
            int k = c; /* insertion sort, descending */
            while (k > 0 && out[k - 1] < v) {
                out[k] = out[k - 1];
                k--;
            }
            out[k] = v;
        }
    }
    L->used = 0;
}

/* queue the C-contiguous 4x4 complex matrix a, its singular values to go to
 * out[0..3] once L is full or its owner runs sv4w on the rest */
static void push(struct lanes *L, const double *a, double *out)
{
    int w = L->used;
    for (int r = 0; r < N; r++)
        for (int c = 0; c < N; c++) {
            L->re[c][r][w] = a[2 * (N * r + c)];
            L->im[c][r][w] = a[2 * (N * r + c) + 1];
        }
    L->out[w] = out;
    if (++L->used == W)
        sv4w(L);
}

/* a: count C-contiguous 4x4 complex128 matrices; out: count rows of 4 doubles */
void svd4(const double *a, double *out, ptrdiff_t count)
{
    struct lanes L = {.used = 0};
    for (ptrdiff_t m = 0; m < count; m++)
        push(&L, a + 2 * N * N * m, out + N * m);
    sv4w(&L);
}

/* complex products with one fused multiply-add each, as numpy's complex
 * multiply computes them on FMA hardware: re = fma(ar, br, -(ai bi)),
 * im = fma(ar, bi, ai br); fma() rounds correctly on every machine */
static void cmul(double ar, double ai, double br, double bi, double *re, double *im)
{
    *re = fma(ar, br, -(ai * bi));
    *im = fma(ar, bi, ai * br);
}

/* queue the Wootters lambdas of rho = B B^H for one C-contiguous 4x4 complex
 * B, to go to lam[0..3] descending: the singular values of tau = B^T S B (S
 * the spin flip), which is D + D^T for D = r1 (x) r2 - r0 (x) r3, r_i the
 * rows of B */
FMA_CLONES static void spin_flip4(const double *b, struct lanes *L, double *lam)
{
    double d[N][N][2], tau[2 * N * N];
    for (int x = 0; x < N; x++)
        for (int y = 0; y < N; y++) {
            double pr, pi, qr, qi;
            cmul(b[2 * (N + x)], b[2 * (N + x) + 1], b[2 * (2 * N + y)], b[2 * (2 * N + y) + 1], &pr, &pi);
            cmul(b[2 * x], b[2 * x + 1], b[2 * (3 * N + y)], b[2 * (3 * N + y) + 1], &qr, &qi);
            d[x][y][0] = pr - qr;
            d[x][y][1] = pi - qi;
        }
    for (int x = 0; x < N; x++)
        for (int y = 0; y < N; y++) {
            tau[2 * (N * x + y)] = d[x][y][0] + d[y][x][0];
            tau[2 * (N * x + y) + 1] = d[x][y][1] + d[y][x][1];
        }
    push(L, tau, lam);
}

/* b: count C-contiguous 4x4 complex128 factors; lam: count rows of 4 doubles */
void lambdas(const double *b, double *lam, ptrdiff_t count)
{
    struct lanes L = {.used = 0};
    for (ptrdiff_t m = 0; m < count; m++)
        spin_flip4(b + 2 * N * N * m, &L, lam + N * m);
    sv4w(&L);
}

/* Renyi entropies in bits; alpha == 1 is the von Neumann branch. Near
 * alpha = 1, sum w^alpha - 1 is summed as w expm1((alpha - 1) ln w), which
 * keeps its relative accuracy. Entries <= 0 add nothing; a NaN is passed
 * through. Adding 0.0 turns a -0.0 result into 0.0. */
#define LN2 0.69314718055994530942

static double renyi(const double *w, ptrdiff_t n, double alpha)
{
    double s = 0.0;
    for (ptrdiff_t i = 0; i < n; i++)
        if (!(w[i] <= 0.0))
            s += alpha == 1.0 ? w[i] * log2(w[i]) : w[i] * expm1((alpha - 1.0) * log(w[i]));
    return (alpha == 1.0 ? -s : log1p(s) / ((1.0 - alpha) * LN2)) + 0.0;
}

/* the two-qubit measure of concurrence c in [0, 1]: the entropy of (x, y),
 * x = (1 + u)/2, u = sqrt(1 - c^2), with y = (1 - u)/2 = c^2 / (2 (1 + u))
 * free of cancellation at small c; x^2 + y^2 = 1 - c^2/2 at alpha = 2 */
static double renyi_c(double c, double alpha)
{
    if (alpha == 2.0)
        return -log2(1.0 - 0.5 * c * c) + 0.0;
    double y = c * c / (2.0 * (1.0 + sqrt(fmax(0.0, 1.0 - c * c))));
    double w[2] = {1.0 - y, y};
    return renyi(w, 2, alpha);
}

/* c: count concurrences; out: count values */
void renyi_of_c(const double *c, double *out, ptrdiff_t count, double alpha)
{
    for (ptrdiff_t m = 0; m < count; m++)
        out[m] = renyi_c(c[m], alpha);
}

/* w: count rows of dim eigenvalues; out: count entropies */
void renyi_of_spectra(const double *w, double *out, ptrdiff_t count, ptrdiff_t dim, double alpha)
{
    for (ptrdiff_t m = 0; m < count; m++)
        out[m] = renyi(w + dim * m, dim, alpha);
}

/* Two rows in lockstep: gather, gram, pt_det and terms' purity take a
 * two-lane vector for each value, lane l holding row l's number, and every
 * lane does the scalar code's operations in the scalar code's order, so each
 * row keeps the bits it has on its own, as each sv4w lane does. Each step is
 * two independent chains instead of one, and -O2 makes it one 2-wide SSE2
 * operation; the dot products of gram are latency-bound, so two rows cost
 * about what one did. An odd last row takes no_row, all zeros, as partner. */
typedef double v2d __attribute__((vector_size(16)));

static const double no_row[2 << 8]; /* 2^8 complex amplitudes, the most ckw_r2 reads */

/* the count amplitudes psi[l][at[x]] of two rows, row l in lane l */
static void gather(const double *const psi[2], const ptrdiff_t *at, int count, v2d *k)
{
    for (int x = 0; x < count; x++) {
        k[2 * x] = (v2d){psi[0][2 * at[x]], psi[1][2 * at[x]]};
        k[2 * x + 1] = (v2d){psi[0][2 * at[x] + 1], psi[1][2 * at[x] + 1]};
    }
}

/* lane l of count two-lane complex entries, as count interleaved (re, im) doubles */
static void lane(const v2d *k, int l, int count, double *b)
{
    for (int x = 0; x < 2 * count; x++)
        b[x] = k[x][l];
}

/* rho = K K^H of the 4 x cols complex matrices K of two rows, rows of cols
 * interleaved (re, im) entries: each entry of the upper triangle summed over
 * the columns in order, then mirrored. Computing all ten entries of one row
 * in lockstep instead, or adding a second accumulator chain, ran slower. */
static void gram(const v2d *k, int cols, v2d rr[N][N], v2d ri[N][N])
{
    for (int r = 0; r < N; r++)
        for (int s = r; s < N; s++) {
            v2d sr = {0.0, 0.0}, si = {0.0, 0.0};
            for (int c = 0; c < cols; c++) {
                const v2d *x = k + 2 * (cols * r + c), *y = k + 2 * (cols * s + c);
                sr += x[0] * y[0] + x[1] * y[1];
                si += x[1] * y[0] - x[0] * y[1];
            }
            rr[r][s] = rr[s][r] = sr;
            ri[r][s] = si;
            ri[s][r] = -si;
        }
}

/* det(rho^G), rho^G[(a, b), (a', b')] = rho[(a, b'), (a', b)], by Laplace
 * expansion in the 2x2 minors of rows (0, 1) and of their complement (2, 3).
 * A pair with det(rho^G) >= separable_det is separable (PPT): see
 * _kernels.batched_ckw_r2 for why. */
static v2d pt_det(v2d rr[N][N], v2d ri[N][N])
{
    static const int minors[6][5] = {{0, 1, 2, 3, 1}, {0, 2, 1, 3, -1}, {0, 3, 1, 2, 1},
                                     {1, 2, 0, 3, 1}, {1, 3, 0, 2, -1}, {2, 3, 0, 1, 1}};
    v2d mr[N][N], mi[N][N];
    for (int r = 0; r < N; r++)
        for (int c = 0; c < N; c++) {
            mr[r][c] = rr[2 * (r >> 1) + (c & 1)][2 * (c >> 1) + (r & 1)];
            mi[r][c] = ri[2 * (r >> 1) + (c & 1)][2 * (c >> 1) + (r & 1)];
        }
    v2d det = {0.0, 0.0};
    for (int t = 0; t < 6; t++) {
        int i = minors[t][0], j = minors[t][1], k = minors[t][2], l = minors[t][3];
        v2d topr = mr[0][i] * mr[1][j] - mi[0][i] * mi[1][j] - (mr[0][j] * mr[1][i] - mi[0][j] * mi[1][i]);
        v2d topi = mr[0][i] * mi[1][j] + mi[0][i] * mr[1][j] - (mr[0][j] * mi[1][i] + mi[0][j] * mr[1][i]);
        v2d botr = mr[2][k] * mr[3][l] - mi[2][k] * mi[3][l] - (mr[2][l] * mr[3][k] - mi[2][l] * mi[3][k]);
        v2d boti = mr[2][k] * mi[3][l] + mi[2][k] * mr[3][l] - (mr[2][l] * mi[3][k] + mi[2][l] * mr[3][k]);
        det += (double)minors[t][4] * (topr * botr - topi * boti);
    }
    return det;
}

/* Tr rho^2 of each lane's rho = rr + i ri: the sum of |rho_rs|^2, the upper
 * triangle twice */
static v2d purity(v2d rr[N][N], v2d ri[N][N])
{
    v2d sum = {0.0, 0.0};
    for (int r = 0; r < N; r++)
        for (int s = r; s < N; s++)
            sum += (s == r ? 1.0 : 2.0) * (rr[r][s] * rr[r][s] + ri[r][s] * ri[r][s]);
    return sum;
}

/* The cut of the Haar scans. A scan chunk reports its count of values below
 * a threshold, its least value and that value's first row. A row whose value
 * is provably above both the threshold and the value of an earlier row
 * changes none of them, so it need not be scored exactly. cut holds {least,
 * threshold}, least being the least value scored so far; a row whose lower
 * bound exceeds max(least, threshold) skips its singular values (and, in
 * ckw_r2, its QR) and returns that bound. least is lowered to the values
 * scored, block by block, so it runs on across a kernel's calls. NULL is no
 * cut: every row is scored.
 *
 * The bound takes each pair's concurrence from above and the bipartite term
 * from below, from the rho = K K^H of the blocks alone (ckw_r2 forms them
 * for its screen anyway). With l0 >= l1 >= l2 >= l3 >= 0 the Wootters
 * lambdas, the singular values of B^T S B for B B^H = rho (Wootters, PRL 80,
 * 2245 (1998)):
 *   c = l0 - l1 - l2 - l3 = 2 l0 - sum l <= 2 l0 - F, F = (sum l^2)^(1/2)
 *       = (tr rho rho~)^(1/2) <= sum l;
 *   l0 <= F, and l0^2 is the largest eigenvalue of rho rho~.
 * The largest eigenvalue of a 4x4 matrix M with real eigenvalues is at most
 * t/4 + sqrt(3 v / 4), t = tr M and v = tr (M - t/4)^2 (Wolkowicz & Styan,
 * Linear Algebra Appl. 29, 471 (1980)). For M = rho rho~, which need not be
 * normal, v can cancel, so CUT_SLACK t^4 (t = tr rho) is added to it, above
 * the about 800 eps t^4 by which rounding can move it. The bipartite term is
 * bounded by H_2 = -log2 Tr rho^2, which is the term at alpha = 2 and below
 * it for 1 <= alpha < 2 (H_alpha does not increase with alpha); above alpha
 * = 2 there is no bound, and every row is scored. A row's bound is its value
 * with these in place of its terms, less CUT_MARGIN, which covers the
 * rounding of both (about 1e-14). A row with a non-finite amplitude has a
 * NaN bound, which is never above, so no cut skips it. */
#define CUT_MARGIN 1e-9
#define CUT_SLACK (4096.0 * DBL_EPSILON)

/* the bound above on the concurrence of each lane's pair rho = rr + i ri */
static v2d c_bound(v2d rr[N][N], v2d ri[N][N])
{
    static const double y[N] = {-1.0, 1.0, 1.0, -1.0}; /* S = sigma_y (x) sigma_y: S[x][3 - x] = y[x] */
    v2d t = rr[0][0] + rr[1][1] + rr[2][2] + rr[3][3];
    /* rho~ = S conj(rho) S, rho~[r][s] = y[r] y[s] conj(rho[3 - r][3 - s]);
     * then p = rho rho~, and tp its trace */
    v2d fr[N][N], fi[N][N], pr[N][N], pi[N][N], tp = {0.0, 0.0}, vp = {0.0, 0.0};
    for (int r = 0; r < N; r++)
        for (int s = 0; s < N; s++) {
            fr[r][s] = (y[r] * y[s]) * rr[N - 1 - r][N - 1 - s];
            fi[r][s] = (-y[r] * y[s]) * ri[N - 1 - r][N - 1 - s];
        }
    for (int r = 0; r < N; r++)
        for (int s = 0; s < N; s++) {
            v2d sr = {0.0, 0.0}, si = {0.0, 0.0};
            for (int x = 0; x < N; x++) {
                sr += rr[r][x] * fr[x][s] - ri[r][x] * fi[x][s];
                si += rr[r][x] * fi[x][s] + ri[r][x] * fr[x][s];
            }
            pr[r][s] = sr;
            pi[r][s] = si;
        }
    for (int r = 0; r < N; r++)
        tp += pr[r][r];
    for (int r = 0; r < N; r++)
        pr[r][r] -= 0.25 * tp;
    for (int r = 0; r < N; r++)
        for (int s = 0; s < N; s++)
            vp += pr[r][s] * pr[s][r] - pi[r][s] * pi[s][r];
    v2d c;
    for (int l = 0; l < 2; l++) {
        double f = sqrt(tp[l] > 0.0 ? tp[l] : 0.0), t2 = t[l] * t[l];
        /* fmin passes over a NaN from a negative sum, which leaves a looser bound */
        double mu = 0.25 * tp[l] + sqrt(0.75 * (vp[l] + CUT_SLACK * t2 * t2));
        c[l] = t[l] < INFINITY ? fmin(1.0, fmax(0.0, 2.0 * fmin(f, sqrt(mu)) - f)) : NAN;
    }
    return c;
}

/* The SS / two-pair monogamy terms of 4-qubit states, two rows at a time.
 *
 * Each row is 16 complex128 amplitudes. index holds 1 + k rows of 16 flat
 * amplitude indices: the 4x4 block B of the (a1 a2 | b1 b2) cut, row index
 * the a qubits, then the k pair blocks (a1b1, a2b2, a1b2, a2b1, a1a2, b1b2 in
 * turn), row index the pair. The bipartite term is the Renyi entropy of rho = B B^H:
 * -log2 Tr rho^2 at alpha = 2, else the entropy of its spectrum sv(B)^2. A
 * pair term is the measure of c = min(1, max(0, l0 - l1 - l2 - l3)) from the
 * block's Wootters lambdas. The pairs after the first two are screened as
 * ckw_r2 screens its pairs: one with det(rho^G) >= separable_det has c = 0
 * and skips the lambdas. a1b1 and a2b2 are not screened: near a violation
 * they are always entangled, so the screen would only cost time. A NaN
 * amplitude gives NaN terms: a NaN det fails the screen. After the pairs come
 * the residuals they complete, in numpy's order of operations: ss = (e - p0)
 * - p1 when k >= 2, then mono = (ss - p2) - p3 when k >= 4; at k = 4 a row is
 * a residual_table row.
 *
 * states: count rows of 16 complex128 amplitudes; index: (1 + k) x 16
 * amplitude indices; out: count rows of the bipartite term, k pair terms
 * and the residuals */
static void terms_all(const double *states, const ptrdiff_t *index, ptrdiff_t count, int k, double alpha,
                      double separable_det, double *out)
{
    int width = 1 + k + (k >= 2) + (k >= 4);
    struct lanes L = {.used = 0};
    for (ptrdiff_t row0 = 0; row0 < count; row0 += ROWS) {
        int rows = count - row0 < ROWS ? (int)(count - row0) : ROWS;
        /* per row: the bipartite block's singular values (alpha != 2), then
         * each pair's lambdas, zeros for a screened pair, whose c is then 0 */
        double l[ROWS][1 + 6][N];
        for (int i = 0; i < rows; i += 2) {
            int live = rows - i < 2 ? rows - i : 2;
            const double *psi[2] = {states + 2 * N * N * (row0 + i),
                                    live == 2 ? states + 2 * N * N * (row0 + i + 1) : no_row};
            v2d kk[2 * N * N], rr[N][N], ri[N][N];
            double b[2 * N * N];
            gather(psi, index, N * N, kk);
            if (alpha == 2.0) {
                gram(kk, N, rr, ri);
                v2d p = purity(rr, ri);
                for (int j = 0; j < live; j++)
                    out[width * (row0 + i + j)] = -log2(p[j]);
            } else {
                for (int j = 0; j < live; j++) {
                    lane(kk, j, N * N, b);
                    push(&L, b, l[i + j][0]);
                }
            }
            for (int p = 0; p < k; p++) {
                gather(psi, index + N * N * (1 + p), N * N, kk);
                v2d det = {0.0, 0.0};
                if (p >= 2) {
                    gram(kk, N, rr, ri);
                    det = pt_det(rr, ri);
                }
                for (int j = 0; j < live; j++) {
                    if (p >= 2 && det[j] >= separable_det) {
                        for (int x = 0; x < N; x++)
                            l[i + j][1 + p][x] = 0.0;
                    } else {
                        lane(kk, j, N * N, b);
                        spin_flip4(b, &L, l[i + j][1 + p]);
                    }
                }
            }
        }
        sv4w(&L);
        for (int i = 0; i < rows; i++) {
            double *bip = out + width * (row0 + i), *pair = bip + 1;
            if (alpha != 2.0) {
                for (int x = 0; x < N; x++)
                    l[i][0][x] *= l[i][0][x];
                *bip = renyi(l[i][0], N, alpha);
            }
            for (int p = 0; p < k; p++) {
                const double *lp = l[i][1 + p];
                double c = lp[0] - lp[1] - lp[2] - lp[3];
                if (c < 0.0)
                    c = 0.0;
                else if (c > 1.0)
                    c = 1.0;
                pair[p] = renyi_c(c, alpha);
            }
            if (k >= 2)
                pair[k] = (*bip - pair[0]) - pair[1];
            if (k >= 4)
                pair[k + 1] = (pair[k] - pair[2]) - pair[3];
        }
    }
}

/* terms at k = 2 and 1 <= alpha <= 2 under a cut: each block's rows bounded
 * two at a time into bound rows (the bipartite term's bound, the two pair
 * terms' bounds, and the ss bound less CUT_MARGIN); the rows whose ss bound
 * does not exceed max(least, threshold) are copied together and scored by
 * terms_all, their rows replace their bound rows, and their ss lower least.
 * A row's bits are those it has on its own, so a scored row has the bits it
 * has without the cut. */
static void ss_cut(const double *states, const ptrdiff_t *index, ptrdiff_t count, double alpha,
                   double separable_det, double *cut, double *out)
{
    for (ptrdiff_t row0 = 0; row0 < count; row0 += ROWS) {
        int rows = count - row0 < ROWS ? (int)(count - row0) : ROWS, m = 0, at[ROWS];
        double above = cut[0] > cut[1] ? cut[0] : cut[1], kept[ROWS][2 * N * N], table[ROWS][4];
        for (int i = 0; i < rows; i += 2) {
            int live = rows - i < 2 ? rows - i : 2;
            const double *psi[2] = {states + 2 * N * N * (row0 + i),
                                    live == 2 ? states + 2 * N * N * (row0 + i + 1) : no_row};
            v2d kk[2 * N * N], rr[N][N], ri[N][N], e, c[2];
            gather(psi, index, N * N, kk);
            gram(kk, N, rr, ri);
            e = purity(rr, ri);
            for (int p = 0; p < 2; p++) {
                gather(psi, index + N * N * (1 + p), N * N, kk);
                gram(kk, N, rr, ri);
                c[p] = c_bound(rr, ri);
            }
            for (int j = 0; j < live; j++) {
                double *o = out + 4 * (row0 + i + j);
                o[0] = -log2(e[j]);
                o[1] = renyi_c(c[0][j], alpha);
                o[2] = renyi_c(c[1][j], alpha);
                o[3] = (o[0] - o[1]) - o[2] - CUT_MARGIN;
                if (!(o[3] > above)) { /* a NaN bound is not above */
                    for (int x = 0; x < 2 * N * N; x++)
                        kept[m][x] = psi[j][x];
                    at[m++] = i + j;
                }
            }
        }
        terms_all(kept[0], index, m, 2, alpha, separable_det, table[0]);
        for (int j = 0; j < m; j++) {
            for (int x = 0; x < 4; x++)
                out[4 * (row0 + at[j]) + x] = table[j][x];
            if (table[j][3] < cut[0])
                cut[0] = table[j][3];
        }
    }
}

/* ss_cut under a cut at k = 2 and alpha <= 2, else terms_all: above alpha = 2
 * there is no bound, every row is scored and least is left as it is */
void terms(const double *states, const ptrdiff_t *index, ptrdiff_t count, int k, double alpha,
           double separable_det, double *cut, double *out)
{
    if (cut && k == 2 && alpha <= 2.0)
        ss_cut(states, index, count, alpha, separable_det, cut, out);
    else
        terms_all(states, index, count, k, alpha, separable_det, out);
}

/* CKW R2 monogamy residual of one focus qubit against the rest, two rows at
 * a time.
 *
 * Each row is a 2^n-amplitude state. index holds, for each of the n - 1 other
 * qubits in turn, the flat amplitude index of the 4 x 2^(n-2) pair matrix k
 * whose row is (focus bit, that qubit's bit), so that rho = k k^H is the
 * pair's reduced density matrix. The focus purity comes from the first pair's
 * rho traced over its second qubit.
 *
 * A pair with det(rho^G) >= separable_det is separable (PPT) and adds
 * nothing. Every other pair takes the Wootters lambdas of a 4x4 factor B with
 * B B^H = rho: k itself, zero-padded, while 2^(n-2) <= 4, and beyond that
 * R^H from a Householder QR of k^H = QR, which is backward stable, so zero
 * modes stay at machine scale. Each pair's lambdas, zeros for a screened
 * pair, are stored at lam[4 * ((n - 1) * row + pair)]. Two rows' pair
 * matrices are gathered, multiplied out and screened in lockstep; once all
 * of a row's pairs are, each pair that takes the lambdas is gathered again
 * and taken out of its lane.
 *
 * A row with a NaN or an infinite amplitude scores NaN, as in terms; a NaN
 * det fails the screen, and a NaN pair's lambdas are NaN.
 *
 * Under a cut (above terms) the unscreened pairs are bounded as they are
 * screened, and a row whose bound exceeds max(least, threshold) returns it,
 * with zeros for all its lambdas, and takes no QR and no singular values.
 */
#define PAIR_COLS 64 /* columns of k at the largest n, 8 qubits */

/* B = R^H, C-contiguous, for a Householder QR k^H = QR of the 4 x cols pair
 * matrix k, rows of cols interleaved entries (Golub & Van Loan, sec. 5.2);
 * B B^H = R^H R = k k^H */
static void qr_factor(const double *k, int cols, double *b)
{
    double ar[N][PAIR_COLS], ai[N][PAIR_COLS]; /* column j of k^H: conj(row j of k) */
    for (int j = 0; j < N; j++)
        for (int c = 0; c < cols; c++) {
            ar[j][c] = k[2 * (cols * j + c)];
            ai[j][c] = -k[2 * (cols * j + c) + 1];
        }
    for (int x = 0; x < 2 * N * N; x++)
        b[x] = 0.0;
    for (int j = 0; j < N; j++) {
        double norm2 = 0.0;
        for (int c = j; c < cols; c++)
            norm2 += ar[j][c] * ar[j][c] + ai[j][c] * ai[j][c];
        double norm = sqrt(norm2), x0 = hypot(ar[j][j], ai[j][j]);
        if (norm != 0.0) { /* a NaN column is reflected, and its R is NaN */
            /* H = I - v v^H / h, v = x - alpha e_j, alpha = -phase(x_j) |x|,
             * h = v^H v / 2 = |x| (|x| + |x_j|); v overwrites column j */
            double ur = x0 > 0.0 ? ar[j][j] / x0 : 1.0, ui = x0 > 0.0 ? ai[j][j] / x0 : 0.0;
            double h = norm * (norm + x0);
            ar[j][j] = ur * (x0 + norm);
            ai[j][j] = ui * (x0 + norm);
            for (int l = j + 1; l < N; l++) {
                double sr = 0.0, si = 0.0; /* s = v^H a_l */
                for (int c = j; c < cols; c++) {
                    sr += ar[j][c] * ar[l][c] + ai[j][c] * ai[l][c];
                    si += ar[j][c] * ai[l][c] - ai[j][c] * ar[l][c];
                }
                sr /= h;
                si /= h;
                for (int c = j; c < cols; c++) {
                    double vr = ar[j][c], vi = ai[j][c];
                    ar[l][c] -= sr * vr - si * vi;
                    ai[l][c] -= sr * vi + si * vr;
                }
            }
            /* R[j][j] = alpha, so B[j][j] = conj(alpha) */
            b[2 * (N * j + j)] = -ur * norm;
            b[2 * (N * j + j) + 1] = ui * norm;
        }
        for (int l = j + 1; l < N; l++) { /* B[l][j] = conj(R[j][l]) */
            b[2 * (N * l + j)] = ar[l][j];
            b[2 * (N * l + j) + 1] = -ai[l][j];
        }
    }
}

/* states: count rows of 2^n complex128 amplitudes, 3 <= n <= 8;
 * index: (n - 1) x 4 x 2^(n-2) amplitude indices; cut: NULL or {least,
 * threshold}; out: count residuals; lam: count x (n - 1) x 4 lambdas */
void ckw_r2(const double *states, const ptrdiff_t *index, ptrdiff_t count, int n,
            double separable_det, double *cut, double *out, double *lam)
{
    const int cols = 1 << (n - 2);
    struct lanes L = {.used = 0};
    for (ptrdiff_t row0 = 0; row0 < count; row0 += ROWS) {
        int rows = count - row0 < ROWS ? (int)(count - row0) : ROWS;
        double above = cut ? (cut[0] > cut[1] ? cut[0] : cut[1]) : INFINITY;
        unsigned char npt[ROWS][7]; /* which of a row's n - 1 <= 7 pairs take the lambdas */
        for (int i = 0; i < rows; i += 2) {
            int live = rows - i < 2 ? rows - i : 2;
            const double *psi[2] = {states + ((ptrdiff_t)2 << n) * (row0 + i),
                                    live == 2 ? states + ((ptrdiff_t)2 << n) * (row0 + i + 1) : no_row};
            double bound[2];
            v2d kk[2 * N * PAIR_COLS], rr[N][N], ri[N][N];
            for (int pair = 0; pair < n - 1; pair++) {
                gather(psi, index + (ptrdiff_t)N * cols * pair, N * cols, kk);
                gram(kk, cols, rr, ri);
                v2d det = pt_det(rr, ri);
                int any = 0;
                for (int j = 0; j < live; j++) {
                    if (pair == 0) {
                        /* C^2(focus|rest) = 2 (1 - Tr rho_focus^2) */
                        double p00 = rr[0][0][j] + rr[1][1][j], p11 = rr[2][2][j] + rr[3][3][j];
                        double p01r = rr[0][2][j] + rr[1][3][j], p01i = ri[0][2][j] + ri[1][3][j];
                        double purity = p00 * p00 + p11 * p11 + 2.0 * (p01r * p01r + p01i * p01i);
                        double c2 = fmax(0.0, 2.0 * (1.0 - purity));
                        /* fmax passes over a NaN: a non-finite trace makes the row NaN */
                        out[row0 + i + j] = p00 + p11 < INFINITY ? -log2(1.0 - 0.5 * c2) : NAN;
                        bound[j] = out[row0 + i + j];
                    }
                    any |= npt[i + j][pair] = !(det[j] >= separable_det);
                }
                if (cut && any) {
                    v2d c = c_bound(rr, ri);
                    for (int j = 0; j < live; j++)
                        if (npt[i + j][pair])
                            bound[j] += log2(1.0 - 0.5 * c[j] * c[j]);
                }
            }
            for (int j = 0; j < live; j++) {
                ptrdiff_t row = row0 + i + j;
                if (cut && bound[j] - CUT_MARGIN > above) { /* a NaN bound is not above */
                    out[row] = bound[j] - CUT_MARGIN;
                    for (int pair = 0; pair < n - 1; pair++)
                        npt[i + j][pair] = 0;
                }
                for (int pair = 0; pair < n - 1; pair++)
                    if (!npt[i + j][pair])
                        for (int x = 0; x < N; x++)
                            lam[N * ((n - 1) * row + pair) + x] = 0.0;
            }
            for (int pair = 0; pair < n - 1; pair++) {
                if (!(npt[i][pair] || (live == 2 && npt[i + 1][pair])))
                    continue;
                gather(psi, index + (ptrdiff_t)N * cols * pair, N * cols, kk);
                for (int j = 0; j < live; j++)
                    if (npt[i + j][pair]) {
                        double k[2 * N * PAIR_COLS], b[2 * N * N];
                        lane(kk, j, N * cols, k);
                        if (cols <= N) {
                            for (int r = 0; r < N; r++)
                                for (int c = 0; c < N; c++) {
                                    b[2 * (N * r + c)] = c < cols ? k[2 * (cols * r + c)] : 0.0;
                                    b[2 * (N * r + c) + 1] = c < cols ? k[2 * (cols * r + c) + 1] : 0.0;
                                }
                        } else {
                            qr_factor(k, cols, b);
                        }
                        spin_flip4(b, &L, lam + N * ((n - 1) * (row0 + i + j) + pair));
                    }
            }
        }
        sv4w(&L);
        /* the pair terms in pair order; a screened pair adds nothing, so a
         * -0.0 bipartite term stays -0.0 */
        for (int i = 0; i < rows; i++) {
            ptrdiff_t row = row0 + i;
            for (int pair = 0; pair < n - 1; pair++)
                if (npt[i][pair]) {
                    const double *l = lam + N * ((n - 1) * row + pair);
                    double c = fmax(0.0, l[0] - l[1] - l[2] - l[3]);
                    out[row] += log2(1.0 - 0.5 * c * c);
                }
            if (cut && out[row] < cut[0])
                cut[0] = out[row];
        }
    }
}

/* The displaced states of the descent and the walk, normalize(base + delta
 * z) for a row z of dim complex128 amplitudes, and the unit noise rows z
 * themselves. Each takes numpy's operations in numpy's order, so a row holds
 * the bits of
 *     c = base + delta * z; c / np.linalg.norm(c, axis=-1, keepdims=True):
 * c componentwise, the squares |c_j|^2 = fma(re, re, im im) of c.conj() * c
 * as numpy multiplies on FMA hardware, added in numpy's pairwise order
 * (norm_sum), and the division by the real norm n as numpy divides by the
 * complex n + 0i (Smith's method: scl = 1/n, out = ((re + im 0) scl,
 * (im - re 0) scl)); normalize does the last two.
 */
static double abs2(const double *c)
{
    return fma(c[0], c[0], c[1] * c[1]);
}

/* sum of abs2 over n interleaved complex entries, as numpy's pairwise_sum
 * adds a row: in sequence below 8 entries, through 8 accumulators up to 128,
 * and beyond that as two halves split at a multiple of 8 */
FMA_CLONES static double norm_sum(const double *c, ptrdiff_t n)
{
    if (n < 8) {
        double s = 0.0;
        for (ptrdiff_t i = 0; i < n; i++)
            s += abs2(c + 2 * i);
        return s;
    }
    if (n <= 128) {
        double a[8];
        ptrdiff_t i;
        for (int j = 0; j < 8; j++)
            a[j] = abs2(c + 2 * j);
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                a[j] += abs2(c + 2 * (i + j));
        double s = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
        for (; i < n; i++)
            s += abs2(c + 2 * i);
        return s;
    }
    ptrdiff_t half = n / 2;
    half -= half % 8;
    return norm_sum(c, half) + norm_sum(c + 2 * half, n - half);
}

/* c = c / |c|, dim complex128 amplitudes */
static void normalize(double *c, ptrdiff_t dim)
{
    double scl = 1.0 / sqrt(norm_sum(c, dim));
    for (ptrdiff_t j = 0; j < dim; j++) {
        double re = c[2 * j], im = c[2 * j + 1];
        c[2 * j] = (re + im * 0.0) * scl;
        c[2 * j + 1] = (im - re * 0.0) * scl;
    }
}

/* c = normalize(base + delta z), each dim complex128 amplitudes */
static void step(const double *base, const double *z, ptrdiff_t dim, double delta, double *c)
{
    for (ptrdiff_t j = 0; j < 2 * dim; j++)
        c[j] = base[j] + delta * z[j];
    normalize(c, dim);
}

/* random unit rows: out holds count rows of dim complex128, row r the
 * normalized z whose real and imaginary parts are the dim normals at
 * re + stride r and im + stride r, with the bits of numpy's
 *   z = g[:, 0] + 1j * g[:, 1]; z / np.linalg.norm(z, axis=-1, keepdims=True)
 * for a float64 (m, 2, dim) g, sampler.unit_noise's block or a scan chunk's
 * (2, m, dim) block with its first two axes swapped: 1j * y is numpy's
 * complex product (0 + 1i)(y + 0i) = (0 y - 1 0, 0 0 + 1 y), whose products
 * are exact, and x + that is (x + re, 0 + im) */
void unit_rows(const double *re, const double *im, ptrdiff_t stride, ptrdiff_t count, ptrdiff_t dim, double *out)
{
    for (ptrdiff_t row = 0; row < count; row++, re += stride, im += stride) {
        double *c = out + 2 * dim * row;
        for (ptrdiff_t j = 0; j < dim; j++) {
            c[2 * j] = re[j] + (0.0 * im[j] - 0.0);
            c[2 * j + 1] = 0.0 + im[j];
        }
        normalize(c, dim);
    }
}

/* the descent's proposals: start: dim complex128 amplitudes; z, out: count
 * rows of dim, out[r] = normalize(start + delta z[r]) */
void displace(const double *start, const double *z, ptrdiff_t count, ptrdiff_t dim, double delta, double *out)
{
    for (ptrdiff_t row = 0; row < count; row++)
        step(start, z + 2 * dim * row, dim, delta, out + 2 * dim * row);
}

/* rows chained and scored per call of terms in walk: a rejection wastes the
 * rest of its group, and a group's fixed cost is small */
#define WALK_ROWS 8

/* The walk's next run of visits. Row r of states is where r + 1 accepted
 * steps from start lead, normalize(base + delta z[r]) with base start, then
 * the row before; table row r holds its residual_table row, the row of
 * terms at k = 4. The rows are built and scored WALK_ROWS at a time, and the
 * walk stops at the first row whose ss is not below threshold (a NaN is
 * not). Returns that row's index, or count if every row stays below; rows up
 * to it are written, and the rest of its group may be.
 *
 * start: 16 complex128 amplitudes; z, states: count rows of 16; index:
 * 5 x 16 amplitude indices, as terms takes them; table: count rows of 7 */
ptrdiff_t walk(const double *start, const double *z, ptrdiff_t count, double delta, const ptrdiff_t *index,
               double alpha, double separable_det, double threshold, double *states, double *table)
{
    for (ptrdiff_t row0 = 0; row0 < count; row0 += WALK_ROWS) {
        int rows = count - row0 < WALK_ROWS ? (int)(count - row0) : WALK_ROWS;
        for (ptrdiff_t row = row0; row < row0 + rows; row++)
            step(row ? states + 2 * N * N * (row - 1) : start, z + 2 * N * N * row, N * N, delta,
                 states + 2 * N * N * row);
        terms_all(states + 2 * N * N * row0, index, rows, 4, alpha, separable_det, table + 7 * row0);
        for (ptrdiff_t row = row0; row < row0 + rows; row++)
            if (!(table[7 * row + 5] < threshold))
                return row;
    }
    return count;
}
