/* The array work of one time step in solvers.py: the momentum assembly
 * with its diagonal-dominance check, the tridiagonal solve, and the
 * leapfrog (D) and Lax-Wendroff (E) mass updates.
 *
 * Each function repeats its numpy (or LAPACK) counterpart term by term,
 * in its order of operations, with the same constants, divided as numpy
 * divides them, so that the results are bit-identical to it until a
 * subnormal appears; the x86-64 kernel flushes it, the numpy fallback
 * does not.  That holds only when the compiler keeps each multiply and
 * add apart: build with -ffp-contract=off (no fused multiply-add) and
 * never with -ffast-math.
 *
 * On x86-64 each function runs with flush-to-zero and denormals-are-zero
 * set in MXCSR: a subnormal input reads as a zero of its sign, and a
 * result that would be subnormal is written as one.  Far from the bore
 * the velocity decays through the subnormal range, where each operation
 * would otherwise take a microcode assist.  The caller's MXCSR is saved
 * on entry and restored before every return, so the mode never outlives
 * a call and nothing else in the process (numpy, the CSV formatter)
 * sees it.
 */
#include <math.h>
#include <stddef.h>

#if defined(__x86_64__)
#include <xmmintrin.h>
/* MXCSR's flush-to-zero (0x8000) and denormals-are-zero (0x0040) bits */
#define FLUSH_ON() \
    const unsigned int caller_csr = _mm_getcsr(); \
    _mm_setcsr(caller_csr | 0x8040u)
#define FLUSH_OFF() _mm_setcsr(caller_csr)
#else
#define FLUSH_ON()
#define FLUSH_OFF()
#endif

/* The momentum system of solvers.assemble_momentum_system and the
 * diagonal-dominance check of solvers.momentum_update, in one pass.
 *
 * h, u and u_prev hold n + 2 ng cells, ghosts included; sub, diag, sup and
 * rhs hold the n interior rows.  Returns 1 when every row is strictly
 * diagonally dominant, |diag| > |sub| + |sup|, and 0 otherwise (a NaN
 * fails the comparison, as in numpy).
 */
int assemble_momentum(const double *restrict h, const double *restrict u,
                      const double *restrict u_prev, double *restrict sub,
                      double *restrict diag, double *restrict sup,
                      double *restrict rhs, ptrdiff_t n, ptrdiff_t ng,
                      double g, double two_dx, double dx2, double two_dx3,
                      double three_dx2, double two_dt)
{
    FLUSH_ON();
    int dominant = 1;
    h += ng;
    u += ng;
    u_prev += ng;
    for (ptrdiff_t i = 0; i < n; i++) {
        double hc = h[i], uc = u[i], upc = u_prev[i];
        double up = u[i + 1], um = u[i - 1];
        double upp1 = u_prev[i + 1], upm1 = u_prev[i - 1];

        double ux = (up - um) / two_dx;
        double hx = (h[i + 1] - h[i - 1]) / two_dx;
        double uxx = ((up - uc * 2.0) + um) / dx2;
        double uxxx = (((u[i + 2] - up * 2.0) + um * 2.0) - u[i - 2])
                      / two_dx3;
        double h2 = hc * hc;
        double h3 = h2 * hc;
        double h2hx = h2 * hx;
        double h3_3 = h3 / 3.0;

        double x = uc * hc * ux;
        x += hc * g * hx;
        x += h2hx * ux * ux;
        x += h3_3 * ux * uxx;
        x -= h2hx * uc * uxx;
        x -= h3_3 * uc * uxxx;

        double y = x * two_dt;
        y -= hc * upc;
        y += (upp1 - upm1) * h2hx / two_dx;
        y += ((upp1 - upc * 2.0) + upm1) * h3_3 / dx2;

        double p = h2hx / two_dx;
        double q = h3 / three_dx2;
        double s = p - q, d = h3 * 2.0 / three_dx2 + hc, t = -p - q;
        sub[i] = s;
        diag[i] = d;
        sup[i] = t;
        rhs[i] = -y;
        dominant &= fabs(d) > fabs(s) + fabs(t);
    }
    /* fold the Dirichlet ghost velocities into the right-hand side */
    if (n > 0) {
        rhs[0] -= sub[0] * u[-1];
        rhs[n - 1] -= sup[n - 1] * u[n];
    }
    FLUSH_OFF();
    return dominant;
}

/* Reference LAPACK DGTSV for one right-hand side, statement by statement
 * (0-based: Fortran's I is i + 1), so that it gives LAPACK's bits: the
 * DL(I) = 0 store and the DL(I) B(I+2) term of the back solve stay,
 * though they add zero when no rows were interchanged.
 *
 * dl (n - 1), d (n) and du (n - 1) are the sub-, main and super-diagonal;
 * all four arrays are overwritten, and b by the solution.  Returns LAPACK's
 * INFO: 0, or i > 0 when U(i, i) is exactly zero, in which case b is left
 * part-way, as LAPACK leaves it.
 */
ptrdiff_t gtsv(ptrdiff_t n, double *restrict dl, double *restrict d,
               double *restrict du, double *restrict b)
{
    double fact, temp;
    if (n == 0)
        return 0;
    FLUSH_ON();
    for (ptrdiff_t i = 0; i < n - 2; i++) {
        if (fabs(d[i]) >= fabs(dl[i])) {
            /* no row interchange required */
            if (d[i] != 0.0) {
                fact = dl[i] / d[i];
                d[i + 1] = d[i + 1] - fact * du[i];
                b[i + 1] = b[i + 1] - fact * b[i];
            } else {
                FLUSH_OFF();
                return i + 1;
            }
            dl[i] = 0.0;
        } else {
            /* interchange rows i and i + 1 */
            fact = d[i] / dl[i];
            d[i] = dl[i];
            temp = d[i + 1];
            d[i + 1] = du[i] - fact * temp;
            dl[i] = du[i + 1];
            du[i + 1] = -fact * dl[i];
            du[i] = temp;
            temp = b[i];
            b[i] = b[i + 1];
            b[i + 1] = temp - fact * b[i + 1];
        }
    }
    if (n > 1) {
        ptrdiff_t i = n - 2;
        if (fabs(d[i]) >= fabs(dl[i])) {
            if (d[i] != 0.0) {
                fact = dl[i] / d[i];
                d[i + 1] = d[i + 1] - fact * du[i];
                b[i + 1] = b[i + 1] - fact * b[i];
            } else {
                FLUSH_OFF();
                return i + 1;
            }
        } else {
            fact = d[i] / dl[i];
            d[i] = dl[i];
            temp = d[i + 1];
            d[i + 1] = du[i] - fact * temp;
            du[i] = temp;
            temp = b[i];
            b[i] = b[i + 1];
            b[i + 1] = temp - fact * b[i + 1];
        }
    }
    if (d[n - 1] == 0.0) {
        FLUSH_OFF();
        return n;
    }

    /* back solve with the matrix U from the factorization */
    b[n - 1] = b[n - 1] / d[n - 1];
    if (n > 1)
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2];
    for (ptrdiff_t i = n - 3; i >= 0; i--)
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i];
    FLUSH_OFF();
    return 0;
}

/* solvers.mass_update_leapfrog: with c the interior cells of h, u and
 * h_prev (n + 2 ng each), h_next[i] = h_prev[c] - dt (u[c] (h[c+1] -
 * h[c-1]) / dx + h[c] (u[c+1] - u[c-1]) / dx), in numpy's order.
 */
void mass_leapfrog(const double *restrict h, const double *restrict u,
                   const double *restrict h_prev, double *restrict h_next,
                   ptrdiff_t n, ptrdiff_t ng, double dx, double dt)
{
    FLUSH_ON();
    h += ng;
    u += ng;
    h_prev += ng;
    for (ptrdiff_t i = 0; i < n; i++) {
        double a = (h[i + 1] - h[i - 1]) * u[i] / dx;
        double b = (u[i + 1] - u[i - 1]) * h[i] / dx;
        h_next[i] = h_prev[i] - (a + b) * dt;
    }
    FLUSH_OFF();
}

/* The Lax-Wendroff flux through the face between cells i - 1 and i: the
 * half-step depth times the four-point half-step velocity, in numpy's
 * order.  A face shared by two cells gets the same bits in both.
 */
static inline double face_flux(const double *restrict h,
                               const double *restrict u,
                               const double *restrict u_next, ptrdiff_t i,
                               double lam)
{
    double h_r = h[i], h_l = h[i - 1], u_r = u[i], u_l = u[i - 1];
    double hf = (h_r + h_l) * 0.5 - (u_r * h_r - h_l * u_l) * lam;
    return (u_next[i] + u_r + u_next[i - 1] + u_l) * 0.25 * hf;
}

/* solvers.mass_update_lax_wendroff: with c the interior cells of h, u and
 * u_next (n + 2 ng each), h_next[i] = h[c] - (F(c+1/2) - F(c-1/2)) dt / dx
 * in numpy's order, F the face flux above, dt / dx divided as numpy does.
 */
void mass_lax_wendroff(const double *restrict h, const double *restrict u,
                       const double *restrict u_next, double *restrict h_next,
                       ptrdiff_t n, ptrdiff_t ng, double dx, double dt)
{
    const double lam = dt / (2.0 * dx), dt_dx = dt / dx;
    FLUSH_ON();
    h += ng;
    u += ng;
    u_next += ng;
    for (ptrdiff_t i = 0; i < n; i++)
        h_next[i] = h[i] - (face_flux(h, u, u_next, i + 1, lam)
                            - face_flux(h, u, u_next, i, lam)) * dt_dx;
    FLUSH_OFF();
}
