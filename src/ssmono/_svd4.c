/* Singular values of 4x4 complex matrices by cyclic one-sided Jacobi
 * (Hestenes; Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)).
 *
 * Each matrix is handled on its own, so a result never depends on the batch.
 * Columns p < q are rotated until every pair is orthogonal to within TOL
 * relative to their norms; the singular values are then the column norms.
 * Both squared norms are recomputed from the columns before each rotation,
 * never carried over by an update, so they cannot drift negative on
 * rank-deficient input. A NaN fails the rotation test and is passed through.
 */
#include <float.h>
#include <math.h>
#include <stddef.h>

#define N 4
/* sqrt(N) * eps: at eps alone, roundoff in a rotation can keep a pair just
 * above the test for every sweep (1 in 4e5 Haar spin-flip blocks did) */
#define TOL (2.0 * DBL_EPSILON)
#define MAX_SWEEPS 30

static void sv4(const double *a, double *out)
{
    double re[N][N], im[N][N]; /* column-major: re[column][row] */
    for (int r = 0; r < N; r++)
        for (int c = 0; c < N; c++) {
            re[c][r] = a[2 * (N * r + c)];
            im[c][r] = a[2 * (N * r + c) + 1];
        }
    for (int sweep = 0; sweep < MAX_SWEEPS; sweep++) {
        int rotated = 0;
        for (int p = 0; p < N - 1; p++)
            for (int q = p + 1; q < N; q++) {
                double np = 0.0, nq = 0.0, gr = 0.0, gi = 0.0; /* g = a_p^H a_q */
                for (int r = 0; r < N; r++) {
                    np += re[p][r] * re[p][r] + im[p][r] * im[p][r];
                    nq += re[q][r] * re[q][r] + im[q][r] * im[q][r];
                    gr += re[p][r] * re[q][r] + im[p][r] * im[q][r];
                    gi += re[p][r] * im[q][r] - im[p][r] * re[q][r];
                }
                double g2 = gr * gr + gi * gi;
                if (!(g2 > TOL * TOL * np * nq) || g2 == 0.0)
                    continue;
                /* a_q * conj(g)/|g| makes the pair's inner product real and
                 * positive, |g|; then the real symmetric Schur rotation of
                 * [[np, |g|], [|g|, nq]] (Golub & Van Loan, sec. 8.5) */
                double ga = sqrt(g2);
                double ur = gr / ga, ui = -gi / ga;
                double zeta = (nq - np) / (2.0 * ga);
                double t = (zeta >= 0.0 ? 1.0 : -1.0) / (fabs(zeta) + sqrt(1.0 + zeta * zeta));
                double c = 1.0 / sqrt(1.0 + t * t), s = c * t;
                for (int r = 0; r < N; r++) {
                    double qr = re[q][r] * ur - im[q][r] * ui;
                    double qi = re[q][r] * ui + im[q][r] * ur;
                    double pr = re[p][r], pi = im[p][r];
                    re[p][r] = c * pr - s * qr;
                    im[p][r] = c * pi - s * qi;
                    re[q][r] = s * pr + c * qr;
                    im[q][r] = s * pi + c * qi;
                }
                rotated = 1;
            }
        if (!rotated)
            break;
    }
    for (int c = 0; c < N; c++) {
        double n2 = 0.0;
        for (int r = 0; r < N; r++)
            n2 += re[c][r] * re[c][r] + im[c][r] * im[c][r];
        double v = sqrt(n2);
        int k = c; /* insertion sort, descending */
        while (k > 0 && out[k - 1] < v) {
            out[k] = out[k - 1];
            k--;
        }
        out[k] = v;
    }
}

/* a: count C-contiguous 4x4 complex128 matrices; out: count rows of 4 doubles */
void svd4(const double *a, double *out, ptrdiff_t count)
{
    for (ptrdiff_t m = 0; m < count; m++)
        sv4(a + 2 * N * N * m, out + N * m);
}
