/* Exact matrix product for reidlab.numerics.matmul.

   out (n x m) = a (n x k) * b (k x m), all row-major; out need not be
   initialised. Each out[i][j] starts at +0.0 and adds a[i][t]*b[t][j] for
   t = 0, 1, ..., k-1 in that order, one rounded multiply and one rounded
   add per step, which is the numpy kernel's arithmetic operation for
   operation. Build with -ffp-contract=off and never -ffast-math: a fused
   multiply-add, a reassociated sum or flushed subnormals would change
   bits.

   Register tiles: each block of 4 rows by 2L columns of out, L being the
   doubles in one vector register, is held in eight vector accumulators
   for the whole t loop and stored once. Per t the kernel loads
   b[t][j..j+2L-1] as two vectors and, for each of the 4 rows, sets
   c = c + a[i][t]*y. Each vector lane is one cell, so every cell still
   gets exactly the steps above, in k order, and neither the tile nor the
   vector width can change a bit. The columns right of the last whole
   tile and the rows below the last whole block of 4 run plain loops that
   set them to +0.0, then add into them one k step at a time.

   L is 8 with AVX-512, 4 with AVX2 and 2 otherwise (SSE2 or NEON), one
   function each, chosen per call from the CPU's features. The tile must
   fit the register file: a 4 x 16 tile of 8-double vectors spills to
   memory on a 16-register AVX2 or SSE2 machine and runs several times
   slower than the plain loops. The vector code is written inline, not in
   helpers that pass vectors by value, whose ABI differs between the
   instruction sets. */

#include <stddef.h>
#include <string.h>

#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target)
#define X86_DISPATCH 1
#endif
#endif

typedef double vec8 __attribute__((vector_size(64)));
typedef double vec4 __attribute__((vector_size(32)));
typedef double vec2 __attribute__((vector_size(16)));

#define KERNEL_ARGS                                                     \
    const double *restrict a, const double *restrict b,                 \
    double *restrict out, ptrdiff_t n, ptrdiff_t k, ptrdiff_t m

#define LANES(VEC) ((ptrdiff_t)(sizeof(VEC) / sizeof(double)))

/* The whole product with 4 x 2L tiles of vectors of type VEC (L doubles
   each): the tiles, then edges() for the cells they do not cover. */
#define TILED_PRODUCT(VEC)                                              \
    for (ptrdiff_t i = 0; i + 4 <= n; i += 4) {                         \
        const ptrdiff_t lanes = LANES(VEC);                             \
        const double *a0 = a + i * k, *a1 = a0 + k;                     \
        const double *a2 = a1 + k, *a3 = a2 + k;                        \
        for (ptrdiff_t j = 0; j + 2 * lanes <= m; j += 2 * lanes) {     \
            VEC c00 = {0}, c01 = {0}, c10 = {0}, c11 = {0};             \
            VEC c20 = {0}, c21 = {0}, c30 = {0}, c31 = {0};             \
            const double *bt = b + j;                                   \
            for (ptrdiff_t t = 0; t < k; t++, bt += m) {                \
                VEC y0, y1;                                             \
                memcpy(&y0, bt, sizeof y0);                             \
                memcpy(&y1, bt + lanes, sizeof y1);                     \
                c00 = c00 + a0[t] * y0;                                 \
                c01 = c01 + a0[t] * y1;                                 \
                c10 = c10 + a1[t] * y0;                                 \
                c11 = c11 + a1[t] * y1;                                 \
                c20 = c20 + a2[t] * y0;                                 \
                c21 = c21 + a2[t] * y1;                                 \
                c30 = c30 + a3[t] * y0;                                 \
                c31 = c31 + a3[t] * y1;                                 \
            }                                                           \
            double *o = out + i * m + j;                                \
            memcpy(o, &c00, sizeof c00);                                \
            memcpy(o + lanes, &c01, sizeof c01);                        \
            memcpy(o += m, &c10, sizeof c10);                           \
            memcpy(o + lanes, &c11, sizeof c11);                        \
            memcpy(o += m, &c20, sizeof c20);                           \
            memcpy(o + lanes, &c21, sizeof c21);                        \
            memcpy(o += m, &c30, sizeof c30);                           \
            memcpy(o + lanes, &c31, sizeof c31);                        \
        }                                                               \
    }                                                                   \
    edges(a, b, out, n, k, m, 2 * LANES(VEC))

/* The cells of out that no tile of 4 rows by `width` columns covers. */
static inline __attribute__((always_inline))
void edges(KERNEL_ARGS, ptrdiff_t width)
{
    const ptrdiff_t rows = n - n % 4, tiled = m - m % width;
    for (ptrdiff_t i = 0; i < rows && tiled < m; i += 4) {
        const double *a0 = a + i * k, *a1 = a0 + k, *a2 = a1 + k, *a3 = a2 + k;
        double *restrict o0 = out + i * m;
        double *restrict o1 = o0 + m;
        double *restrict o2 = o1 + m;
        double *restrict o3 = o2 + m;
        for (ptrdiff_t j = tiled; j < m; j++)
            o0[j] = o1[j] = o2[j] = o3[j] = 0.0;
        for (ptrdiff_t t = 0; t < k; t++) {
            const double x0 = a0[t], x1 = a1[t], x2 = a2[t], x3 = a3[t];
            const double *bt = b + t * m;
            for (ptrdiff_t j = tiled; j < m; j++) {
                const double y = bt[j];
                o0[j] = o0[j] + x0 * y;
                o1[j] = o1[j] + x1 * y;
                o2[j] = o2[j] + x2 * y;
                o3[j] = o3[j] + x3 * y;
            }
        }
    }
    for (ptrdiff_t i = rows; i < n; i++) {
        const double *ai = a + i * k;
        double *restrict oi = out + i * m;
        for (ptrdiff_t j = 0; j < m; j++)
            oi[j] = 0.0;
        for (ptrdiff_t t = 0; t < k; t++) {
            const double x = ai[t];
            const double *bt = b + t * m;
            for (ptrdiff_t j = 0; j < m; j++)
                oi[j] = oi[j] + x * bt[j];
        }
    }
}

#ifdef X86_DISPATCH
__attribute__((target("avx512f")))
static void matmul_avx512f(KERNEL_ARGS)
{
    TILED_PRODUCT(vec8);
}

__attribute__((target("avx2")))
static void matmul_avx2(KERNEL_ARGS)
{
    TILED_PRODUCT(vec4);
}
#endif

static void matmul_base(KERNEL_ARGS)
{
    TILED_PRODUCT(vec2);
}

void reidlab_matmul(KERNEL_ARGS)
{
#ifdef X86_DISPATCH
    if (__builtin_cpu_supports("avx512f")) {
        matmul_avx512f(a, b, out, n, k, m);
        return;
    }
    if (__builtin_cpu_supports("avx2")) {
        matmul_avx2(a, b, out, n, k, m);
        return;
    }
#endif
    matmul_base(a, b, out, n, k, m);
}
