/* The CSV body of a float64 block for io.py: each value as printf's
 * %.17g, fields joined by "," and rows ended by "\r\n".  These are the
 * bytes of Python's "%.17g" % v: std::to_chars with chars_format::general
 * and a precision rounds exactly (libstdc++ uses Ryu-printf), as Python
 * does.  Built into one library with _step.c, and cached only after
 * solvers._kernel_agrees has compared its bytes with Python's.
 */
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstring>

/* Writes the rows x cols C-contiguous block into buf, row by row, and
 * returns the number of bytes written; or returns -1, having written
 * nothing past buf + cap, when they do not fit.  A field takes at most
 * 24 bytes ("-2.2250738585072014e-308").
 */
extern "C" ptrdiff_t format_rows(const double *block, ptrdiff_t rows,
                                 ptrdiff_t cols, char *buf, ptrdiff_t cap)
{
    char *out = buf, *const end = buf + cap;
    for (ptrdiff_t i = 0; i < rows; i++) {
        for (ptrdiff_t j = 0; j < cols; j++) {
            double v = block[i * cols + j];
            /* Python prints a NaN of either sign as "nan", to_chars "-nan" */
            if (std::isnan(v))
                v = std::fabs(v);
            std::to_chars_result field = std::to_chars(
                out, end, v, std::chars_format::general, 17);
            const char *sep = j + 1 < cols ? "," : "\r\n";
            ptrdiff_t len = (ptrdiff_t)std::strlen(sep);
            if (field.ec != std::errc() || end - field.ptr < len)
                return -1;
            std::memcpy(field.ptr, sep, len);
            out = field.ptr + len;
        }
    }
    return out - buf;
}
