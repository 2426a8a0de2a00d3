"""The OpenBLAS thread count: one thread outside the entropic solves.

A command runs at one BLAS thread (`one_thread`), and the entropic solves
inside it (`entry_threads`) at the count the command was entered with, so
OPENBLAS_NUM_THREADS stays the ceiling.  Only the sample solve's
2000 x 2000 kernel is large enough to pay for a second thread inside one
product; after a threaded call on smaller operands the idle workers spin
on their cores.  So the grid solve, whose factors are 128 x 128, spends a
count of 2 or more on two Python threads instead, its cross- and
self-transports side by side at one BLAS thread each.

The library is the OpenBLAS in numpy's wheel (`numpy.libs`), looked up on
first use.  With any other BLAS, or one without these symbols, every call
is a no-op and `info` reads nulls.
"""

import collections
import contextlib
import ctypes
import os

_SYMBOLS = (("scipy_openblas", "64_"), ("scipy_openblas", ""),
            ("openblas", ""))
# the library's file name and its get/set thread count and core functions
_OpenBLAS = collections.namedtuple("_OpenBLAS", "file get set core")
_lib = None     # an _OpenBLAS once found, () for none
_entry = None   # the count the innermost `one_thread` was entered with


def _find():
    import numpy    # loaded already: the package imports it first

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    try:
        names = sorted(n for n in os.listdir(libs) if "openblas" in n)
    except OSError:
        return ()
    for name in names:
        lib = ctypes.CDLL(os.path.join(libs, name))
        for prefix, suffix in _SYMBOLS:
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
            return _OpenBLAS(name, get, set_, core)
    return ()


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


def info():
    """The library file, its core, the count the enclosing `one_thread`
    was entered with and the count there outside the solves; nulls
    without the library."""
    lib = _openblas()
    return {"library": lib.file if lib else None,
            "core": lib.core().decode() if lib else None,
            "threads_at_entry": _entry,
            "threads_outside_solvers": threads()}
