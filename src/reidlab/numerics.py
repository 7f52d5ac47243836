"""Dense float64 matrix primitives, label grouping, seeded randomness,
gradient checking.

Everything here is deliberately boring: 64-bit floats, a fixed summation
order in every reduction, and one documented PRNG family (PCG64 keyed by
a hashed split path) so that every experiment is bit-reproducible from
its seed on any machine and under any thread count.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import math
import os
import platform
import tempfile
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import NumericError, ShapeError

# 2-D row-major float64 ndarray. A plain alias: every public operation
# validates shape/dtype instead of wrapping arrays in a new class.
Matrix = np.ndarray


def as_matrix(a, name: str = "array", check_finite: bool = True) -> Matrix:
    """Coerce to a C-contiguous 2-D float64 array.

    Args:
        a: array-like input.
        name: label used in error messages.
        check_finite: reject NaN/Inf entries when True.
    """
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    if check_finite and not np.isfinite(m).all():
        raise NumericError(f"{name} contains non-finite entries")
    return m


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product with fixed left-to-right summation per output cell.

    out[i, j] accumulates a[i, 0]*b[0, j], then a[i, 1]*b[1, j], ... in
    that exact order, starting from +0.0, so the result is bit-identical
    to a naive triple loop and independent of BLAS backend or thread
    count. The work is done by the kernel MATMUL_KERNEL names: the
    compiled one (the C extension module reidlab._matmul) when it could
    be built, loaded and passed its self-test, else the numpy one; both
    give the same bits.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    return _kernel(a, b)


# Cache blocking of the numpy kernel. An output block of at most
# _BLOCK_CELLS cells (128 KiB) stays in L2 while all k products are added
# to it; the products of as many k steps as fit are formed in one call
# into a scratch buffer of at most _SCRATCH_CELLS cells (256 KiB). A block
# is always contiguous: it is either whole rows or a piece of one row.
_BLOCK_CELLS = 16384
_SCRATCH_CELLS = 32768


def _matmul_numpy(a: Matrix, b: Matrix) -> Matrix:
    """matmul's kernel in numpy: the fallback and the reference.

    Takes 2-D float64 operands with n, k, m >= 1. The work is split into
    output blocks and chunks of k; each chunk's products are formed in
    one call, then added to the block one k step at a time.
    """
    n, k = a.shape
    m = b.shape[1]
    out = np.zeros((n, m), dtype=np.float64)
    a_t = np.ascontiguousarray(a.T)
    b = np.ascontiguousarray(b)
    cols = min(m, _BLOCK_CELLS)
    rows = min(n, max(1, _BLOCK_CELLS // cols))
    steps = min(k, max(1, _SCRATCH_CELLS // (rows * cols)))
    scratch = np.empty(steps * rows * cols, dtype=np.float64)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        for c0 in range(0, m, cols):
            c1 = min(c0 + cols, m)
            block = out[r0:r1, c0:c1]
            for t0 in range(0, k, steps):
                t1 = min(t0 + steps, k)
                prods = scratch[: (t1 - t0) * block.size].reshape(t1 - t0, r1 - r0, c1 - c0)
                np.einsum("ti,tj->tij", a_t[t0:t1, r0:r1], b[t0:t1, c0:c1], out=prods)
                # One add per k step keeps the order; np.add.reduce over
                # axis 0 may sum pairwise, and accumulate is much slower.
                for p in prods:
                    np.add(block, p, out=block)
    return out


# The compiled kernel does the numpy kernel's arithmetic in C (see the
# source's header), as the extension module reidlab._matmul. It is built
# on first import into this module's __pycache__ directory as
# _matmul-<key>-<digest>.so: the key hashes the source, the flags, the
# machine and the interpreter's extension ABI, and the digest hashes the
# library's own bytes, so a later import loads it only if it is whole.
_KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_matmul.c")
_CFLAGS = ("-std=c11", "-O3", "-ffp-contract=off", "-fPIC", "-shared")


def _digest(*parts: bytes) -> str:
    return hashlib.sha256(b"\0".join(parts)).hexdigest()[:16]


def _stem(source: bytes) -> str:
    """The cached library's name up to its digest. The ABI part is the
    interpreter's EXT_SUFFIX (".cpython-311-x86_64-linux-gnu.so"), the
    first of importlib's extension suffixes, read without sysconfig."""
    abi = importlib.machinery.EXTENSION_SUFFIXES[0]
    return "_matmul-" + _digest(source, " ".join(_CFLAGS).encode(),
                                platform.machine().encode(), abi.encode())


def _cached_library(folder: str, stem: str) -> Optional[str]:
    """A cached build whose bytes match the digest in its name, or None.

    Checking the bytes first matters: loading a truncated library can
    kill the process with SIGBUS instead of raising.
    """
    try:
        names = sorted(os.listdir(folder))
    except FileNotFoundError:
        return None
    for name in names:
        if name.startswith(stem + "-") and name.endswith(".so"):
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                if _digest(fh.read()) == name[len(stem) + 1 : -3]:
                    return path
    return None


def _compiler() -> Optional[list]:
    """sysconfig's CC if it is on PATH, else cc, else None."""
    import shlex
    import shutil
    import sysconfig

    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if cc and shutil.which(cc[0]):
        return cc
    found = shutil.which("cc")
    return [found] if found else None


def _compile_command() -> list:
    """The compiler, _CFLAGS and -I for Python's headers: the command that
    builds the extension, short of its output and input. Raises OSError
    when there is no compiler or no Python.h."""
    import sysconfig

    cc = _compiler()
    if cc is None:
        raise OSError("no C compiler found")
    include = sysconfig.get_path("include")
    if not os.path.isfile(os.path.join(include, "Python.h")):
        raise OSError(f"no Python.h in {include}")
    return [*cc, *_CFLAGS, "-I", include]


def _build(source: bytes, folder: str, stem: str) -> str:
    """Compile source into folder and return the library's path.

    The library appears under its name only when complete (a temporary
    file, then os.replace), so concurrent first imports are safe. Any
    failure raises OSError.
    """
    import subprocess

    command = _compile_command()
    os.makedirs(folder, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=stem + ".", dir=folder)
    os.close(fd)
    try:
        subprocess.run([*command, "-o", tmp, "-x", "c", "-"], input=source,
                       capture_output=True, check=True, timeout=300)
        with open(tmp, "rb") as fh:
            library = os.path.join(folder, f"{stem}-{_digest(fh.read())}.so")
        os.replace(tmp, library)
        return library
    except subprocess.SubprocessError as exc:
        raise OSError(f"compiling {_KERNEL_SOURCE} failed") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _library() -> str:
    """The compiled kernel's library: the cached build, else a new one.

    Raises OSError when it can be neither found nor built, and
    NotImplementedError when the interpreter has no bytecode cache.
    """
    with open(_KERNEL_SOURCE, "rb") as fh:
        source = fh.read()
    folder = os.path.dirname(importlib.util.cache_from_source(__file__))
    stem = _stem(source)
    return _cached_library(folder, stem) or _build(source, folder, stem)


def _extension(path: str):
    """The extension module reidlab._matmul loaded from the library at
    path, without entering it in sys.modules. Raises ImportError when the
    file is not a loadable extension."""
    loader = importlib.machinery.ExtensionFileLoader("reidlab._matmul", path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


def _compiled_kernel(extension) -> Callable[[Matrix, Matrix], Matrix]:
    """A kernel for matmul that calls the extension's matmul, which
    refuses (ShapeError, TypeError or ValueError) any buffer that is not
    a 2-D C-contiguous float64 matrix or an out that does not fit."""
    fn = extension.matmul

    def matmul_compiled(a: Matrix, b: Matrix) -> Matrix:
        a = np.ascontiguousarray(a, dtype=np.float64)
        b = np.ascontiguousarray(b, dtype=np.float64)
        # The kernel sets every cell; shape[-1] lets a 1-D b reach its check.
        out = np.empty((a.shape[0], b.shape[-1]), dtype=np.float64)
        fn(a, b, out)
        return out

    return matmul_compiled


def _load_compiled() -> Optional[Callable[[Matrix, Matrix], Matrix]]:
    """The compiled kernel, built first if not cached; None if that fails."""
    try:
        return _compiled_kernel(_extension(_library()))
    except (OSError, ImportError, AttributeError, NotImplementedError):
        return None


def _agrees_with_numpy(kernel: Callable[[Matrix, Matrix], Matrix]) -> bool:
    """Whether kernel gives the numpy kernel's bits on a small fixed case.

    Square roots with mixed signs (full mantissas, no numpy.random import)
    catch a fused multiply-add or another summation order; a cell of -0.0
    products catches a sum not started at +0.0; a tiny row catches
    flushed subnormals; ±inf and NaN must land in the same cells. NaN
    payloads are not compared. At each of the compiled kernel's tile
    widths (16, 8 or 4 columns) the 7 x 21 product covers its three
    paths: the register tiles of rows 0-3, which hold every special case,
    the columns right of the last whole tile, and rows 4-6.
    """
    x = np.sqrt(np.arange(2.0, 2.0 + 7 * 24 + 24 * 21))
    x[::3] *= -1.0
    x[1::7] *= -1.0
    a = x[: 7 * 24].reshape(7, 24)
    b = x[7 * 24 :].reshape(24, 21)
    b[:, 0] = np.abs(b[:, 0])
    a[3] = -0.0
    a[2] *= 1e-160
    b[:, 1] *= 3e-160
    b[5, 2], b[3, 5], b[8, 4], b[7, 3] = -np.inf, np.inf, np.nan, 5e-324
    with np.errstate(all="ignore"):
        got, want = kernel(a, b), _matmul_numpy(a, b)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


def _select_kernel(compiled) -> tuple[str, Callable[[Matrix, Matrix], Matrix]]:
    """("compiled", compiled) if it passes the self-test, else the numpy kernel."""
    if compiled is not None and _agrees_with_numpy(compiled):
        return "compiled", compiled
    return "numpy", _matmul_numpy


# The kernel matmul runs, chosen once at import. MATMUL_KERNEL ("compiled"
# or "numpy") reports the choice; assigning to it changes nothing.
MATMUL_KERNEL, _kernel = _select_kernel(_load_compiled())


def _row_sqnorms(a: Matrix) -> np.ndarray:
    # Same left-to-right accumulation as matmul's k-loop, so that ||x||^2
    # equals the matmul-computed <x, x> bit for bit.
    a_t = np.ascontiguousarray(a.T)
    sq = a_t * a_t
    out = np.zeros(a.shape[0], dtype=np.float64)
    for p in sq:
        np.add(out, p, out=out)
    return out


def pairwise_euclidean(a: Matrix, b: Matrix) -> Matrix:
    """All-pairs L2 distances D[i, j] = ||a_i - b_j||_2.

    Uses the norm expansion with summation orders arranged so that
    identical rows give exactly 0.0; tiny negative squared distances
    from rounding are clamped to 0 before the square root.
    """
    same = b is a
    a = np.asarray(a, dtype=np.float64)
    b = a if same else np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"pairwise_euclidean needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"pairwise_euclidean dimension mismatch: {a.shape} vs {b.shape}")
    g = matmul(a, b.T)
    if same:
        # The Gram diagonal is _row_sqnorms(a), product for product.
        sq_a = sq_b = np.diagonal(g)
    else:
        sq_a = _row_sqnorms(a)
        sq_b = _row_sqnorms(b)
    d2 = sq_a[:, None] + sq_b[None, :]
    d2 -= 2.0 * g
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2, out=d2)


def _run_starts(s: np.ndarray) -> np.ndarray:
    """Indices where a run of equal values of the sorted array s starts."""
    keep = np.ones(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return np.flatnonzero(keep)


def sorted_unique(labels) -> np.ndarray:
    """np.unique(labels) for 1-D integer labels: the same values and dtype.

    A flagless np.unique imports numpy.ma (numpy 2.x), which costs every
    process that calls it about 16 ms; a sort and a neighbour test do not.
    """
    s = np.sort(np.asarray(labels))
    return s[_run_starts(s)]


def label_groups(labels) -> tuple[np.ndarray, list]:
    """sorted_unique(labels) and, per label, its row indices ascending
    (np.flatnonzero(labels == label)), from one stable argsort."""
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    s = labels[order]
    starts = _run_starts(s)
    return s[starts], np.split(order, starts[1:]) if s.size else []


def _derive_entropy(seed: int, path: tuple[str, ...]) -> int:
    # Length-prefixed tags make the encoding injective, so distinct
    # split paths can never collide into the same stream.
    material = "reidlab|%d|" % seed + "|".join("%d:%s" % (len(p), p) for p in path)
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest, "little")


class Rng:
    """Deterministic random stream: PCG64 keyed by (seed, split path).

    ``split(tag)`` derives an independent child stream whose identity
    depends only on the root seed and the sequence of tags, never on how
    much randomness was consumed before the split. Identical seeds give
    bit-identical streams (NumPy freezes released bit-generator streams).
    """

    def __init__(self, seed: int, _path: tuple[str, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(str(p) for p in _path)
        self._gen = np.random.Generator(
            np.random.PCG64(_derive_entropy(self.seed, self.path))
        )

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, path={'/'.join(self.path) or '<root>'})"

    def split(self, tag: Union[str, int]) -> "Rng":
        """Child stream addressed by tag; reproducible and independent."""
        return Rng(self.seed, self.path + (str(tag),))

    def normal(self, rows: int, cols: int) -> Matrix:
        """(rows x cols) matrix of i.i.d. standard normals."""
        return self._gen.standard_normal((rows, cols), dtype=np.float64)

    def normal_vec(self, n: int) -> np.ndarray:
        return self._gen.standard_normal(n, dtype=np.float64)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, a, size: int, replace: bool = True) -> np.ndarray:
        return self._gen.choice(a, size=size, replace=replace)


@dataclass(frozen=True)
class GradCheckReport:
    """Result of one finite-difference sweep over a parameter vector."""

    max_rel_error: float
    worst_coordinate: int
    num_params: int

    def ok(self, tol: float = 1e-5) -> bool:
        return self.max_rel_error < tol


def finite_diff_check(
    f: Callable[[np.ndarray], float],
    params: Sequence[float],
    analytic_grad: Sequence[float],
    h: float = 1e-6,
) -> GradCheckReport:
    """Compare an analytic gradient against central differences of f.

    Per coordinate the relative error is
    |g_fd - g_an| / max(1e-8, |g_fd| + |g_an|), with g_fd the central
    difference (f(x+h) - f(x-h)) / 2h. Non-finite objective values raise
    NumericError.
    """
    x = np.asarray(params, dtype=np.float64).ravel().copy()
    g_an = np.asarray(analytic_grad, dtype=np.float64).ravel()
    if x.shape != g_an.shape:
        raise ShapeError(
            f"gradient shape {g_an.shape} does not match params shape {x.shape}"
        )
    n = x.size
    max_rel = 0.0
    worst = 0 if n else -1
    for i in range(n):
        orig = x[i]
        x[i] = orig + h
        f_hi = float(f(x))
        x[i] = orig - h
        f_lo = float(f(x))
        x[i] = orig
        if not (math.isfinite(f_hi) and math.isfinite(f_lo)):
            raise NumericError(f"non-finite objective value at coordinate {i}")
        g_fd = (f_hi - f_lo) / (2.0 * h)
        rel = abs(g_fd - g_an[i]) / max(1e-8, abs(g_fd) + abs(g_an[i]))
        if rel > max_rel:
            max_rel = rel
            worst = i
    return GradCheckReport(max_rel_error=max_rel, worst_coordinate=worst, num_params=n)
