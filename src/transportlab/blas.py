"""The OpenBLAS thread count (one thread outside the entropic solves) and
its symmetric mat-vec.

A command runs at one BLAS thread (`one_thread`), and the entropic solves
inside it (`entry_threads`) at the count the command was entered with, so
OPENBLAS_NUM_THREADS stays the ceiling.  Only the sample solve's
2000 x 2000 kernel is large enough to pay for a second thread inside one
product; after a threaded call on smaller operands the idle workers spin
on their cores.  So the grid solve, whose factors are 128 x 128, spends a
count of 2 or more on two Python threads instead, its cross- and
self-transports side by side at one BLAS thread each.

`symmetric_product` multiplies by a symmetric matrix through the same
library's CBLAS `dsymv`, which reads only its lower triangle: half the
memory traffic of numpy's product, which reads all of it.  A matrix of
columns takes one `dsymv` per column; OpenBLAS's `dsymm` copies the whole
matrix into panels first and ran slower than numpy's product against the
few columns of a barycentric projection.  A `64_` suffix on the symbol
means 64-bit integer arguments.

The library is the OpenBLAS in numpy's wheel (`numpy.libs`), looked up on
first use, thread-count and product symbols alike.  With any other BLAS,
or one without the thread-count symbols, the thread-count calls are
no-ops, `symmetric_product` is numpy's product on the full matrix and
`info` reads nulls; a library without `dsymv` takes numpy's product as
well.
"""

import collections
import contextlib
import ctypes
import os

import numpy as np

# (thread-count prefix, BLAS prefix, suffix) of the symbol families
_SYMBOLS = (("scipy_openblas", "scipy_", "64_"),
            ("scipy_openblas", "scipy_", ""),
            ("openblas", "", ""))
# CBLAS enum values
_ROW_MAJOR, _LOWER = 101, 122
# the library's file name, its get/set thread count and core functions, and
# its cblas_dsymv or None
_OpenBLAS = collections.namedtuple("_OpenBLAS", "file get set core symv")
_lib = None     # an _OpenBLAS once found, () for none
_entry = None   # the count the innermost `one_thread` was entered with


def _find():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs")
    try:
        names = sorted(n for n in os.listdir(libs) if "openblas" in n)
    except OSError:
        return ()
    for name in names:
        lib = ctypes.CDLL(os.path.join(libs, name))
        for prefix, blas_prefix, suffix in _SYMBOLS:
            try:
                get, set_, core = (getattr(lib, f"{prefix}_{fn}{suffix}")
                                   for fn in ("get_num_threads",
                                              "set_num_threads",
                                              "get_corename"))
            except AttributeError:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            core.restype, core.argtypes = ctypes.c_char_p, []
            return _OpenBLAS(name, get, set_, core,
                             _symv(lib, blas_prefix, suffix))
    return ()


def _symv(lib, prefix, suffix):
    """The library's cblas_dsymv, or None."""
    symv = getattr(lib, f"{prefix}cblas_dsymv{suffix}", None)
    if symv is not None:
        n = ctypes.c_int64 if suffix == "64_" else ctypes.c_int
        e, x, p = ctypes.c_int, ctypes.c_double, ctypes.c_void_p
        # (order, uplo, n, alpha, A, lda, x, incx, beta, y, incy)
        symv.restype = None
        symv.argtypes = [e, e, n, x, p, n, p, n, x, p, n]
    return symv


def _openblas():
    global _lib
    if _lib is None:
        _lib = _find()
    return _lib


def threads():
    """The current thread count, or None without the library."""
    lib = _openblas()
    return lib.get() if lib else None


@contextlib.contextmanager
def _threads_at(count):
    """Run the block at `count` threads and restore the count on exit."""
    lib = _openblas()
    if not lib or count is None:
        yield
        return
    before = lib.get()
    lib.set(count)
    try:
        yield
    finally:
        lib.set(before)


@contextlib.contextmanager
def one_thread():
    """Run the block at one thread; `entry_threads` inside it restores the
    count this block was entered with."""
    global _entry
    outer, _entry = _entry, threads()
    try:
        with _threads_at(1):
            yield
    finally:
        _entry = outer


def entry_threads():
    """Run a block at the count the enclosing `one_thread` was entered
    with; outside one the count does not change."""
    return _threads_at(_entry)


def symmetric_product(A, B):
    """A @ B for a symmetric, C-contiguous float64 A of shape (n, n) and B
    of shape (n,) or (n, r), read from A's lower triangle by dsymv, once
    per column of B; numpy's product on the whole of A without dsymv."""
    lib = _openblas()
    if not (lib and lib.symv):
        return A @ B
    if not (A.flags.c_contiguous and A.dtype == np.float64
            and A.shape == (B.shape[0],) * 2):
        raise ValueError("symmetric_product takes a C-contiguous float64 "
                         "square matrix matching B's rows")
    n = A.shape[0]
    # one contiguous row per column of B, and of the product
    Bt = np.ascontiguousarray(np.atleast_2d(B.T), dtype=np.float64)
    C = np.zeros(Bt.shape)
    for b, c in zip(Bt, C):
        lib.symv(_ROW_MAJOR, _LOWER, n, 1.0, A.ctypes.data, n, b.ctypes.data,
                 1, 0.0, c.ctypes.data, 1)
    return C[0] if B.ndim == 1 else C.T


def info():
    """The library file, its core, the count the enclosing `one_thread`
    was entered with, the count there outside the solves and the dsymv
    symbol `symmetric_product` calls; nulls without them."""
    lib = _openblas()
    return {"library": lib.file if lib else None,
            "core": lib.core().decode() if lib else None,
            "threads_at_entry": _entry,
            "threads_outside_solvers": threads(),
            "symmetric_product": lib.symv.__name__ if lib and lib.symv
            else None}
