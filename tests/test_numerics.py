import importlib.machinery
import os
import platform
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidlab import numerics
from reidlab.errors import NumericError, ShapeError
from reidlab.numerics import (
    _BLOCK_CELLS,
    _SCRATCH_CELLS,
    GradCheckReport,
    Matrix,
    Rng,
    as_matrix,
    finite_diff_check,
    matmul,
    pairwise_euclidean,
)
from conftest import COMPILED_KERNEL
from support import naive_matmul, naive_pairwise_euclidean


def test_as_matrix_coerces_and_validates():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64 and m.flags["C_CONTIGUOUS"]
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0])
    with pytest.raises(NumericError):
        as_matrix([[np.nan, 0.0]])
    # opt-out for internal intermediates
    as_matrix([[np.inf, 0.0]], check_finite=False)


def test_matmul_matches_triple_loop_bitwise():
    rng = Rng(0)
    for trial in range(20):
        r = rng.split(f"t{trial}")
        n, k, m = (int(r.integers(1, 7)) for _ in range(3))
        a = r.split("a").normal(n, k)
        b = r.split("b").normal(k, m)
        got = matmul(a, b)
        want = naive_matmul(a, b)
        assert np.array_equal(got, want)  # bitwise, not approx


def test_matmul_identity_and_shapes():
    a = Rng(3).normal(4, 5)
    assert np.array_equal(matmul(a, np.eye(5)), a)
    assert matmul(np.zeros((0, 3)), np.zeros((3, 2))).shape == (0, 2)
    with pytest.raises(ShapeError):
        matmul(np.zeros((2, 3)), np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        matmul(np.zeros(3), np.zeros((3, 2)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
def test_matmul_property_bitwise_vs_oracle(seed, n, k, m):
    r = Rng(seed).split("prop")
    a = r.split("a").normal(n, k)
    b = r.split("b").normal(k, m)
    assert np.array_equal(matmul(a, b), naive_matmul(a, b))


def _same_bits(got, want) -> bool:
    """Same shape, NaN in the same cells, and the same bits everywhere else."""
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


def _assert_bitwise(got, want):
    assert _same_bits(got, want)


def test_matmul_bitwise_across_row_blocks_column_blocks_and_k_chunks():
    rng = Rng(11)
    # Enough rows for several output blocks, enough k for several chunks.
    m = 100
    n = 2 * (_BLOCK_CELLS // m) + 7
    k = 3 * (_SCRATCH_CELLS // (_BLOCK_CELLS // m * m)) + 1
    # A row longer than a block is split into column blocks.
    wide = _BLOCK_CELLS + 123
    for shape in ((n, k, m), (3, 5, wide)):
        n_, k_, m_ = shape
        a = rng.split(f"a{shape}").normal(n_, k_)
        b = rng.split(f"b{shape}").normal(k_, m_)
        _assert_bitwise(matmul(a, b), naive_matmul(a, b))


def test_matmul_bitwise_degenerate_and_empty_shapes():
    rng = Rng(12)
    for n, k, m in ((1, 300, 1), (1, 40, 7), (9, 40, 1), (6, 1, 5), (1, 1, 1)):
        a = rng.split(f"a{n},{k},{m}").normal(n, k)
        b = rng.split(f"b{n},{k},{m}").normal(k, m)
        _assert_bitwise(matmul(a, b), naive_matmul(a, b))
    for n, k, m in ((0, 3, 2), (2, 0, 3), (2, 3, 0), (0, 0, 0)):
        out = matmul(np.zeros((n, k)), np.zeros((k, m)))
        assert out.shape == (n, m) and np.all(out == 0.0) and not np.any(np.signbit(out))


def test_matmul_bitwise_with_transposed_and_strided_operands():
    rng = Rng(13)
    x = rng.split("x").normal(37, 21)
    w = rng.split("w").normal(53, 21)
    # as the model passes its weights: b = w.T, a Fortran-ordered view
    _assert_bitwise(matmul(x, w.T), naive_matmul(x, w.T))
    # a transposed left operand and a strided right one
    g = rng.split("g").normal(21, 37)
    _assert_bitwise(matmul(g.T, w[::2].T), naive_matmul(g.T, w[::2].T))


def test_matmul_bitwise_with_signed_zeros_and_special_values():
    # Products of -0.0 must sum to +0.0, as a triple loop starting at +0.0 does.
    a = np.full((3, 4), -0.0)
    b = np.ones((4, 5))
    out = matmul(a, b)
    assert np.all(out == 0.0) and not np.any(np.signbit(out))
    _assert_bitwise(matmul(-np.ones((2, 3)), np.zeros((3, 4))), naive_matmul(-np.ones((2, 3)), np.zeros((3, 4))))

    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                       2.2e-308, 1e-160, 1.0, -3.5, 1e308])
    rng = Rng(14)
    with np.errstate(all="ignore"):
        for trial in range(6):
            r = rng.split(f"t{trial}")
            n, k, m = (int(r.integers(1, 12)) for _ in range(3))
            a = values[r.split("a").integers(0, values.size, size=(n, k))]
            b = values[r.split("b").integers(0, values.size, size=(k, m))]
            _assert_bitwise(matmul(a, b), naive_matmul(a, b))
        # subnormal results: products underflow, sums stay in the subnormal range
        a = np.full((4, 6), 1e-160)
        b = np.full((6, 3), 3e-160)
        _assert_bitwise(matmul(a, b), naive_matmul(a, b))


# ------------------------------------------------------ the two kernels

needs_compiled = pytest.mark.skipif(
    COMPILED_KERNEL is None, reason="the compiled matmul kernel is not available here"
)

SPECIAL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                           2.2e-308, 1e-160, 1.0, -3.5, 1e308])


def _kernel_cases():
    """(label, a, b) operand pairs, as matmul passes them to a kernel."""
    rng = Rng(21)
    for n in (4, 5, 6, 7, 1, 2, 3, 8, 13):  # n mod 4 = 0, 1, 2, 3
        for k, m in ((1, 9), (17, 1), (1, 1), (33, 40)):
            yield f"n{n} k{k} m{m}", rng.split(f"a{n},{k},{m}").normal(n, k), \
                rng.split(f"b{n},{k},{m}").normal(k, m)
    x = rng.split("x").normal(37, 21)
    w = rng.split("w").normal(53, 21)
    g = rng.split("g").normal(21, 37)
    yield "w.T", x, w.T
    yield "w[::2].T", g.T, w[::2].T
    yield "copied transpose", x, np.ascontiguousarray(w.T)
    yield "wide", rng.split("wa").normal(5, 3), rng.split("wb").normal(3, _BLOCK_CELLS + 7)
    # The compiled kernel's register tiles (4 rows by 16, 8 or 4 columns)
    # and the rows and columns left over: every m mod 16 (m < 16 and
    # m > 16) with every n mod 4.
    for n in (4, 5, 6, 7):
        for m in range(1, 33):
            yield f"n{n} k7 m{m}", rng.split(f"a{n},7,{m}").normal(n, 7), \
                rng.split(f"b{n},7,{m}").normal(7, m)
    for n, k, m in ((4, 1, 16), (7, 1, 37), (9, 2, 48)):
        yield f"n{n} k{k} m{m}", rng.split(f"a{n},{k},{m}").normal(n, k), \
            rng.split(f"b{n},{k},{m}").normal(k, m)
    # shapes that training and evaluation multiply
    for n, k, m in ((64, 128, 256), (256, 64, 128), (64, 256, 64), (768, 12, 128),
                    (32, 48, 64), (3, 32, 15), (16, 96, 64)):
        yield f"{n}x{k} {k}x{m}", rng.split(f"a{n},{k},{m}").normal(n, k), \
            rng.split(f"b{n},{k},{m}").normal(k, m)
    # Special values with at least 4 rows and 16 columns, so that some
    # land in a register tile.
    for trial in range(8):
        r = rng.split(f"special{trial}")
        n, k, m = int(r.integers(4, 10)), int(r.integers(1, 12)), int(r.integers(16, 41))
        yield f"special{trial}", SPECIAL_VALUES[r.split("a").integers(0, 12, size=(n, k))], \
            SPECIAL_VALUES[r.split("b").integers(0, 12, size=(k, m))]
    yield "subnormal sums", np.full((6, 6), 1e-160), np.full((6, 19), 3e-160)
    yield "-0.0 products", np.full((5, 4), -0.0), np.ones((4, 17))


@needs_compiled
@pytest.mark.parametrize("a, b", [pytest.param(a, b, id=label) for label, a, b in _kernel_cases()])
def test_compiled_kernel_matches_numpy_kernel_and_triple_loop_bitwise(a, b):
    with np.errstate(all="ignore"):
        got = COMPILED_KERNEL(a, b)
        _assert_bitwise(got, numerics._matmul_numpy(a, b))
        if a.size * b.shape[1] <= 100_000:  # the triple loop runs in Python
            _assert_bitwise(got, naive_matmul(a, b))


def _operand_layouts():
    """(label, a, b) pairs in the layouts callers may pass to matmul."""
    rng = Rng(22)
    x = rng.split("x").normal(9, 20)
    w = rng.split("w").normal(40, 20)
    g = rng.split("g").normal(24, 20)
    read_only = x.copy()
    read_only.flags.writeable = False
    yield "int", np.arange(-30, 30).reshape(6, 10), np.arange(170).reshape(10, 17) % 7 - 3
    yield "Fortran order", np.asfortranarray(x), np.asfortranarray(w.T)
    yield "read-only", read_only, w.T.copy()
    yield "strided", x[::2, ::2], w[::2, ::2].T
    yield "transposed", w[:20].T, g.T


@pytest.mark.parametrize("a, b", [pytest.param(a, b, id=label) for label, a, b in _operand_layouts()])
def test_matmul_bitwise_for_every_operand_layout_under_each_kernel(a, b, matmul_kernel):
    want = numerics._matmul_numpy(np.ascontiguousarray(a, dtype=np.float64),
                                  np.ascontiguousarray(b, dtype=np.float64))
    _assert_bitwise(matmul(a, b), want)
    if matmul_kernel == "compiled":
        # The kernel makes its own operands C-contiguous float64, and the
        # extension refuses shapes that do not chain.
        _assert_bitwise(COMPILED_KERNEL(a, b), want)
        with pytest.raises(ShapeError):
            COMPILED_KERNEL(a, np.ones((b.shape[0] + 1, 3)))


def _refusals():
    """(label, a, b, out, error) calls the extension must refuse."""
    a, b, out = np.ones((4, 5)), np.ones((5, 3)), np.full((4, 3), 7.0)
    read_only = out.copy()
    read_only.flags.writeable = False
    square = np.ones((4, 4))
    shared = np.ones(32)
    yield "1-D a", np.ones(5), b, out, ShapeError
    yield "1-D b", a, np.ones(5), out, ShapeError
    yield "3-D out", a, b, out.reshape(4, 3, 1), ShapeError
    yield "non-contiguous a", np.ones((4, 10))[:, ::2], b, out, ValueError
    yield "Fortran-order b", a, np.asfortranarray(b), out, ValueError
    yield "non-contiguous out", a, b, np.full((4, 6), 7.0)[:, ::2], ValueError
    yield "float32 a", a.astype(np.float32), b, out, TypeError
    yield "int64 b", a, b.astype(np.int64), out, TypeError
    yield "float32 out", a, b, out.astype(np.float32), TypeError
    yield "big-endian a", a.astype(">f8"), b, out, TypeError
    yield "list a", a.tolist(), b, out, TypeError
    yield "read-only out", a, b, read_only, ValueError
    yield "out too wide", a, b, np.full((4, 4), 7.0), ShapeError
    yield "out too tall", a, b, np.full((5, 3), 7.0), ShapeError
    yield "operands do not chain", a, np.ones((6, 3)), out, ShapeError
    yield "out is a", square, square.copy(), square, ValueError
    yield "out overlaps b", square, shared[:16].reshape(4, 4), shared[8:24].reshape(4, 4), ValueError
    yield "two arguments", a, b, None, TypeError


@needs_compiled
@pytest.mark.parametrize("a, b, out, error",
                         [pytest.param(*case[1:], id=case[0]) for case in _refusals()])
def test_extension_refuses_bad_buffers_and_leaves_out_untouched(a, b, out, error):
    # The extension hands raw addresses to the kernel, so it must check
    # every buffer itself; nothing may be written before a refusal.
    extension = numerics._extension(numerics._library())
    args = (a, b) if out is None else (a, b, out)
    before = None if out is None else out.copy()
    with pytest.raises(error) as refused:
        extension.matmul(*args)
    assert refused.type is error
    if out is not None:
        _assert_bitwise(out, before)
    out = np.full((4, 3), 7.0)
    assert extension.matmul(np.ones((4, 5)), np.ones((5, 3)), out) is None
    _assert_bitwise(out, np.full((4, 3), 5.0))


def test_library_stem_depends_on_the_extension_abi(monkeypatch):
    source = Path(numerics._KERNEL_SOURCE).read_bytes()
    stem = numerics._stem(source)
    assert stem == numerics._stem(source)
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                        [".cpython-399-x86_64-linux-gnu.so", *suffixes[1:]])
    assert numerics._stem(source) != stem


# Fused multiply-add and fused multiply-subtract mnemonics: x86-64 FMA3
# (vfmadd231pd, vfnmsub213sd, ...) and AArch64 (fmla, fmadd, fnmsub, ...).
_FUSED = re.compile(r"\b(vfn?m(add|sub)\w*|fml[as]|fn?m(add|sub))\b")


@needs_compiled
@pytest.mark.skipif(shutil.which("objdump") is None, reason="objdump is not on PATH")
def test_no_instruction_set_path_of_the_compiled_kernel_fuses_multiply_and_add():
    # The library holds one function per instruction set, but the
    # self-test and the tests above run only the one this CPU dispatches to.
    # The listing covers the extension's wrapper as well as the kernel.
    listing = subprocess.run(["objdump", "-d", "--no-show-raw-insn", numerics._library()],
                             capture_output=True, text=True, check=True, timeout=60).stdout
    assert "<reidlab_matmul>:" in listing and "<PyInit__matmul>:" in listing
    fused = sorted({m.group(0) for m in _FUSED.finditer(listing)})
    assert fused == [], f"fused multiply-add instructions in the kernel: {fused}"


def _cpu_flags() -> set:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return {flag for line in lines if line.startswith("flags") for flag in line.split(":", 1)[1].split()}


@needs_compiled
@pytest.mark.skipif(platform.machine() != "x86_64", reason="only the base path exists off x86-64")
@pytest.mark.parametrize("path, disabled", [("avx2", ["avx512f"]), ("base", ["avx512f", "avx2"])])
def test_each_instruction_set_path_matches_the_numpy_kernel(path, disabled, tmp_path):
    # The kernel dispatches to the widest path this CPU has; a copy of the
    # source with the wider checks disabled runs a narrower one here.
    if path == "avx2" and "avx2" not in _cpu_flags():
        pytest.skip("this CPU has no AVX2")
    source = Path(numerics._KERNEL_SOURCE).read_text()
    for feature in disabled:
        check = f'__builtin_cpu_supports("{feature}")'
        assert check in source
        source = source.replace(check, "0")
    # Built and loaded as reidlab._matmul from its own path, beside the
    # extension this process already loaded under that name.
    library = numerics._build(source.encode(), str(tmp_path), "_matmul")
    extension = numerics._extension(library)
    assert extension.__file__ == library and extension.__name__ == "reidlab._matmul"
    kernel = numerics._compiled_kernel(extension)
    with np.errstate(all="ignore"):
        assert numerics._agrees_with_numpy(kernel)
        differ = [label for label, a, b in _kernel_cases()
                  if not _same_bits(kernel(a, b), numerics._matmul_numpy(a, b))]
    assert differ == []


def _reversed_order(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for t in reversed(range(a.shape[1])):
        out += np.outer(a[:, t], b[t])
    return out


def _from_negative_zero(a, b):
    out = np.full((a.shape[0], b.shape[1]), -0.0)
    for t in range(a.shape[1]):
        out += np.outer(a[:, t], b[t])
    return out


def _fused_multiply_add(a, b):
    # out = fma(a[i,t], b[t,j], out) on finite values: one rounding per step.
    out = numerics._matmul_numpy(a, b)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for t in range(a.shape[1]):
                terms = (a[i, t], b[t, j], acc)
                if not all(np.isfinite(terms)):
                    break
                acc = float(Fraction(terms[0]) * Fraction(terms[1]) + Fraction(terms[2]))
            else:
                out[i, j] = acc
    return out


def _flushing_subnormals(a, b):
    out = numerics._matmul_numpy(a, b)
    out[np.abs(out) < 2.2250738585072014e-308] = 0.0
    return out


@pytest.mark.parametrize("stand_in", [
    lambda a, b: np.dot(a, b), _reversed_order, _from_negative_zero, _fused_multiply_add,
    _flushing_subnormals,
], ids=["np.dot", "reversed", "from -0.0", "fma", "ftz"])
def test_self_test_rejects_a_kernel_that_is_not_left_to_right(stand_in):
    assert numerics._select_kernel(stand_in) == ("numpy", numerics._matmul_numpy)


def test_self_test_accepts_the_triple_loop_and_the_compiled_kernel():
    assert numerics._select_kernel(None) == ("numpy", numerics._matmul_numpy)
    assert numerics._select_kernel(naive_matmul) == ("compiled", naive_matmul)
    assert numerics.MATMUL_KERNEL in ("compiled", "numpy")
    if COMPILED_KERNEL is not None:
        assert numerics._select_kernel(COMPILED_KERNEL) == ("compiled", COMPILED_KERNEL)


# A child interpreter that imports numerics with its cache under the given
# PYTHONPYCACHEPREFIX, optionally with no compiler (nothing on PATH, and
# shutil.which finds nothing) or with sysconfig's include directory
# pointed at an empty one (a compiler but no Python.h), and in both cases
# with no way to start a process. It prints the kernel it chose and
# whether matmul gave the numpy kernel's bits.
_CHILD = """
import shutil, subprocess, sys, sysconfig
if sys.argv[1] == "no-compiler":
    shutil.which = lambda *args, **kwargs: None
if sys.argv[1] == "no-headers":
    get_path = sysconfig.get_path
    sysconfig.get_path = lambda name, *args, **kwargs: (
        sys.argv[2] if name == "include" else get_path(name, *args, **kwargs))
if sys.argv[1] != "with-compiler":
    def refuse(*args, **kwargs):
        raise AssertionError("the import started a process")
    subprocess.Popen = refuse
import numpy as np
from reidlab import numerics
a = np.random.default_rng(1).standard_normal((9, 30))
b = np.random.default_rng(2).standard_normal((30, 11))
same = np.array_equal(numerics.matmul(a, b).view(np.uint64),
                      numerics._matmul_numpy(a, b).view(np.uint64))
print(numerics.MATMUL_KERNEL, same)
"""


def _import_in_child(cache: Path, mode: str) -> str:
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(cache))
    env["PYTHONPATH"] = str(Path(numerics.__file__).parents[1])
    empty = cache.parent / "empty"
    empty.mkdir(exist_ok=True)
    if mode == "no-compiler":
        env["PATH"] = str(empty)
    proc = subprocess.run([sys.executable, "-c", _CHILD, mode, str(empty)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _cached_libraries(cache: Path) -> list:
    return sorted(cache.rglob("_matmul-*"))


@needs_compiled
def test_second_import_loads_the_cached_library_without_a_compiler(tmp_path):
    cache = tmp_path / "pycache"
    assert _import_in_child(cache, "with-compiler") == "compiled True"
    built = _cached_libraries(cache)
    assert len(built) == 1 and built[0].suffix == ".so"
    # Loading the cached extension needs neither a compiler nor Python.h.
    assert _import_in_child(cache, "no-compiler") == "compiled True"
    assert _import_in_child(cache, "no-headers") == "compiled True"
    assert _cached_libraries(cache) == built


def test_without_a_compiler_or_cache_the_numpy_kernel_runs(tmp_path):
    cache = tmp_path / "pycache"
    assert _import_in_child(cache, "no-compiler") == "numpy True"
    assert _cached_libraries(cache) == []


def test_without_python_headers_the_numpy_kernel_runs(tmp_path):
    # A compiler but no Python.h: the import starts no compiler, caches
    # nothing and selects the numpy kernel.
    cache = tmp_path / "pycache"
    assert _import_in_child(cache, "no-headers") == "numpy True"
    assert _cached_libraries(cache) == []


@needs_compiled
@pytest.mark.parametrize("damage", ["truncated", "garbage"])
def test_damaged_cached_library_is_rebuilt_or_ignored(tmp_path, damage):
    cache = tmp_path / "pycache"
    assert _import_in_child(cache, "with-compiler") == "compiled True"
    (library,) = _cached_libraries(cache)
    whole = library.read_bytes()
    # Loading a library cut at half its size kills the process (SIGBUS).
    library.write_bytes(whole[: len(whole) // 2] if damage == "truncated" else b"garbage\n" * 64)
    assert _import_in_child(cache, "no-compiler") == "numpy True"
    assert _import_in_child(cache, "with-compiler") == "compiled True"
    assert all(path.suffix == ".so" for path in _cached_libraries(cache))


@needs_compiled
def test_cached_library_that_is_not_an_extension_selects_the_numpy_kernel(tmp_path):
    # A whole shared library under the kernel's name and with a matching
    # digest, but without PyInit__matmul (as a plain C library would be):
    # the extension loader raises ImportError, and the import goes on.
    cache = tmp_path / "pycache"
    assert _import_in_child(cache, "with-compiler") == "compiled True"
    (library,) = _cached_libraries(cache)
    plain = Path(numerics._build(b"void reidlab_matmul(void) {}\n", str(tmp_path), "plain"))
    stem = library.name[: library.name.rindex("-")]
    library.unlink()
    plain.rename(library.with_name(f"{stem}-{numerics._digest(plain.read_bytes())}.so"))
    assert _import_in_child(cache, "no-compiler") == "numpy True"


def test_pairwise_euclidean_identical_rows_exact_zero_across_blocks():
    x = Rng(15).normal(2 * int(np.sqrt(_BLOCK_CELLS)) + 5, 40) * 2.3
    d = pairwise_euclidean(x, x)
    assert np.all(np.diag(d) == 0.0)
    np.testing.assert_allclose(d[:6, :6], naive_pairwise_euclidean(x[:6], x[:6]), rtol=0, atol=1e-12)


def test_pairwise_euclidean_matches_naive():
    rng = Rng(1)
    a = rng.split("a").normal(7, 5)
    b = rng.split("b").normal(9, 5)
    np.testing.assert_allclose(
        pairwise_euclidean(a, b), naive_pairwise_euclidean(a, b), rtol=0, atol=1e-12
    )


def test_pairwise_euclidean_identical_rows_exact_zero():
    # the accumulation orders are arranged so <x,x> cancels exactly
    a = Rng(2).normal(6, 8) * 3.7
    d = pairwise_euclidean(a, a)
    assert np.all(np.diag(d) == 0.0)
    b = np.vstack([a[0], a[0]])
    assert pairwise_euclidean(b, b)[0, 1] == 0.0


def test_pairwise_euclidean_self_case_has_the_bytes_of_a_copy():
    # pairwise_euclidean(z, z) takes the squared norms from the Gram
    # diagonal; with a copy it sums them separately. The bits must agree.
    rng = Rng(16)
    for trial, scale in enumerate((1e-150, 1e-8, 1.0, 3.7, 1e8, 1e150)):
        z = rng.split(f"z{trial}").normal(11, 9) * scale
        if trial == 0:
            z[3] = 5e-324 * np.arange(-4, 5)
        want = pairwise_euclidean(z, z.copy())
        assert pairwise_euclidean(z, z).tobytes() == want.tobytes()
    empty = np.zeros((0, 3))
    assert pairwise_euclidean(empty, empty).shape == (0, 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pairwise_euclidean_property(seed):
    r = Rng(seed).split("pd")
    a = r.split("a").normal(4, 3)
    b = r.split("b").normal(5, 3)
    d = pairwise_euclidean(a, b)
    assert np.all(d >= 0.0)
    np.testing.assert_allclose(d, naive_pairwise_euclidean(a, b), rtol=0, atol=1e-12)
    assert pairwise_euclidean(a, a.copy())[0, 0] == 0.0


@pytest.mark.parametrize("test", [
    test_matmul_matches_triple_loop_bitwise,
    test_matmul_identity_and_shapes,
    test_matmul_property_bitwise_vs_oracle,
    test_matmul_bitwise_across_row_blocks_column_blocks_and_k_chunks,
    test_matmul_bitwise_degenerate_and_empty_shapes,
    test_matmul_bitwise_with_transposed_and_strided_operands,
    test_matmul_bitwise_with_signed_zeros_and_special_values,
    test_pairwise_euclidean_identical_rows_exact_zero_across_blocks,
    test_pairwise_euclidean_identical_rows_exact_zero,
], ids=lambda test: test.__name__)
def test_bitwise_matmul_tests_under_each_kernel(test, matmul_kernel):
    test()


def test_pairwise_shape_errors():
    with pytest.raises(ShapeError):
        pairwise_euclidean(np.zeros((2, 3)), np.zeros((2, 4)))


def test_rng_determinism_and_split_independence():
    a = Rng(42).split("x").normal(3, 3)
    b = Rng(42).split("x").normal(3, 3)
    assert np.array_equal(a, b)

    # split identity depends on the path only, not on consumption
    r1 = Rng(7)
    r1.normal(10, 10)  # consume a lot
    child_after = r1.split("c").normal_vec(5)
    child_fresh = Rng(7).split("c").normal_vec(5)
    assert np.array_equal(child_after, child_fresh)

    # distinct tags give distinct streams; nested paths too
    assert not np.array_equal(Rng(7).split("a").normal_vec(4), Rng(7).split("b").normal_vec(4))
    assert not np.array_equal(
        Rng(7).split("a").split("b").normal_vec(4), Rng(7).split("ab").normal_vec(4)
    )


def test_rng_helpers_shapes():
    r = Rng(0)
    p = r.split("p").permutation(10)
    assert sorted(p) == list(range(10))
    c = r.split("c").choice(np.arange(5), size=7, replace=True)
    assert c.shape == (7,) and set(c) <= set(range(5))
    v = r.split("i").integers(0, 4, size=100)
    assert v.min() >= 0 and v.max() < 4


def test_finite_diff_quadratic():
    f = lambda x: float(x[0] ** 2)
    rep = finite_diff_check(f, np.array([3.0]), np.array([6.0]))
    assert isinstance(rep, GradCheckReport)
    assert rep.max_rel_error < 1e-8
    assert rep.num_params == 1
    assert rep.ok()


def test_finite_diff_flags_wrong_gradient():
    f = lambda x: float(np.sum(x**2))
    x = np.array([1.0, 2.0, 3.0])
    good = 2 * x
    bad = good.copy()
    bad[1] = -good[1]
    assert finite_diff_check(f, x, good).ok()
    rep = finite_diff_check(f, x, bad)
    assert not rep.ok()
    assert rep.worst_coordinate == 1


def test_finite_diff_nonfinite_raises():
    def f(x):
        return float("nan")

    with pytest.raises(NumericError):
        finite_diff_check(f, np.array([1.0]), np.array([0.0]))


def test_finite_diff_shape_mismatch():
    with pytest.raises(ShapeError):
        finite_diff_check(lambda x: 0.0, np.zeros(3), np.zeros(2))


def test_matrix_alias_is_ndarray():
    assert Matrix is np.ndarray
