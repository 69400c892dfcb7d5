/* The momentum system of solvers.assemble_momentum_system and the
 * diagonal-dominance check of solvers.momentum_update, in one pass.
 *
 * Every row repeats the numpy assembly term by term, in its order of
 * operations, with the same constants (computed in Python), so that the
 * rows are bit-identical to it.  That holds only when the compiler keeps
 * each multiply and add apart: build with -ffp-contract=off (no fused
 * multiply-add) and never with -ffast-math.
 *
 * h, u and u_prev hold n + 2 ng cells, ghosts included; sub, diag, sup and
 * rhs hold the n interior rows.  Returns 1 when every row is strictly
 * diagonally dominant, |diag| > |sub| + |sup|, and 0 otherwise (a NaN
 * fails the comparison, as in numpy).
 */
#include <math.h>
#include <stddef.h>

int assemble_momentum(const double *restrict h, const double *restrict u,
                      const double *restrict u_prev, double *restrict sub,
                      double *restrict diag, double *restrict sup,
                      double *restrict rhs, ptrdiff_t n, ptrdiff_t ng,
                      double g, double two_dx, double dx2, double two_dx3,
                      double three_dx2, double two_dt)
{
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
    return dominant;
}
