/* Exact matrix product for reidlab.numerics.matmul, as the CPython
   extension module reidlab._matmul.

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
   instruction sets.

   The module's one function, matmul(a, b, out), takes the operands
   through the buffer protocol and checks them before reidlab_matmul reads
   a byte: it gets raw addresses, so a buffer of the wrong type, layout or
   shape would make it read or write out of bounds. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stddef.h>
#include <stdint.h>
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


/* reidlab.errors.ShapeError, looked up when the module is created. */
static PyObject *shape_error;

/* Fills view with obj's buffer if it is a 2-D, C-contiguous float64 matrix,
   and a writable one if writable is set; else sets an error and returns -1
   with nothing held. */
static int get_matrix(PyObject *obj, Py_buffer *view, const char *name, int writable)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (view->ndim != 2)
        PyErr_Format(shape_error, "matmul kernel: %s must be 2-D, got %d dimensions",
                     name, view->ndim);
    else if (view->format == NULL || strcmp(view->format, "d") != 0
             || view->itemsize != sizeof(double))
        PyErr_Format(PyExc_TypeError, "matmul kernel: %s must be float64 ('d'), got '%s'",
                     name, view->format ? view->format : "B");
    else if (!PyBuffer_IsContiguous(view, 'C'))
        PyErr_Format(PyExc_ValueError, "matmul kernel: %s must be C-contiguous", name);
    else if (writable && view->readonly)
        PyErr_Format(PyExc_ValueError, "matmul kernel: %s is read-only", name);
    else
        return 0;
    PyBuffer_Release(view);
    return -1;
}

/* Whether the bytes of two buffers share an address. */
static int overlap(const Py_buffer *x, const Py_buffer *y)
{
    const uintptr_t x0 = (uintptr_t)x->buf, y0 = (uintptr_t)y->buf;
    return x->len > 0 && y->len > 0 && x0 < y0 + (uintptr_t)y->len
           && y0 < x0 + (uintptr_t)x->len;
}

static PyObject *matmul(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer a, b, out;
    PyObject *result = NULL;
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "matmul kernel takes 3 arguments (a, b, out), got %zd",
                     nargs);
        return NULL;
    }
    if (get_matrix(args[0], &a, "a", 0) < 0)
        return NULL;
    if (get_matrix(args[1], &b, "b", 0) < 0)
        goto release_a;
    if (get_matrix(args[2], &out, "out", 1) < 0)
        goto release_b;
    if (a.shape[1] != b.shape[0] || out.shape[0] != a.shape[0] || out.shape[1] != b.shape[1])
        PyErr_Format(shape_error,
                     "matmul kernel operands (%zd, %zd) x (%zd, %zd) -> (%zd, %zd) do not chain",
                     a.shape[0], a.shape[1], b.shape[0], b.shape[1], out.shape[0], out.shape[1]);
    else if (overlap(&out, &a) || overlap(&out, &b))
        PyErr_SetString(PyExc_ValueError, "matmul kernel: out shares memory with an operand");
    else {
        reidlab_matmul(a.buf, b.buf, out.buf, a.shape[0], a.shape[1], b.shape[1]);
        result = Py_NewRef(Py_None);
    }
    PyBuffer_Release(&out);
release_b:
    PyBuffer_Release(&b);
release_a:
    PyBuffer_Release(&a);
    return result;
}

static PyMethodDef methods[] = {
    {"matmul", (PyCFunction)(void (*)(void))matmul, METH_FASTCALL,
     "matmul(a, b, out): out = a @ b in the fixed k order, for 2-D C-contiguous\n"
     "float64 buffers; out must be writable, (rows of a) x (columns of b) and\n"
     "share no memory with a or b."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "reidlab._matmul", "Exact matrix product kernel.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__matmul(void)
{
    if (shape_error == NULL) {
        PyObject *errors = PyImport_ImportModule("reidlab.errors");
        if (errors == NULL)
            return NULL;
        shape_error = PyObject_GetAttrString(errors, "ShapeError");
        Py_DECREF(errors);
        if (shape_error == NULL)
            return NULL;
    }
    return PyModule_Create(&module_def);
}
