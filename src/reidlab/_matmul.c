/* Exact matrix product for reidlab.numerics.matmul.

   out (n x m) += a (n x k) * b (k x m), all row-major; the caller passes
   out zeroed. Each out[i][j] adds a[i][t]*b[t][j] for t = 0, 1, ..., k-1
   in that order, one rounded multiply and one rounded add per step, which
   is the numpy kernel's arithmetic operation for operation. Build with
   -ffp-contract=off and never -ffast-math: a fused multiply-add, a
   reassociated sum or flushed subnormals would change bits. Vector lanes
   hold different j, so the vector width never changes a result. */

#include <stddef.h>

#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef CLONES
#define CLONES
#endif

CLONES
void reidlab_matmul(const double *restrict a, const double *restrict b,
                    double *restrict out, ptrdiff_t n, ptrdiff_t k, ptrdiff_t m)
{
    ptrdiff_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const double *a0 = a + i * k, *a1 = a0 + k, *a2 = a1 + k, *a3 = a2 + k;
        double *restrict o0 = out + i * m;
        double *restrict o1 = o0 + m;
        double *restrict o2 = o1 + m;
        double *restrict o3 = o2 + m;
        for (ptrdiff_t t = 0; t < k; t++) {
            const double x0 = a0[t], x1 = a1[t], x2 = a2[t], x3 = a3[t];
            const double *bt = b + t * m;
            for (ptrdiff_t j = 0; j < m; j++) {
                const double y = bt[j];
                o0[j] = o0[j] + x0 * y;
                o1[j] = o1[j] + x1 * y;
                o2[j] = o2[j] + x2 * y;
                o3[j] = o3[j] + x3 * y;
            }
        }
    }
    for (; i < n; i++) {
        const double *ai = a + i * k;
        double *restrict oi = out + i * m;
        for (ptrdiff_t t = 0; t < k; t++) {
            const double x = ai[t];
            const double *bt = b + t * m;
            for (ptrdiff_t j = 0; j < m; j++)
                oi[j] = oi[j] + x * bt[j];
        }
    }
}
