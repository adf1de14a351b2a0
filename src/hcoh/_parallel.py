"""The thread count for hashing on the CPUs that the BLAS leaves free.

:func:`pool_threads` is the count: the CPUs this process may run on
(``os.sched_getaffinity``) divided by the threads over which the BLAS
already spreads each product, and at least one.  OpenBLAS by default
runs each product on every CPU, which gives one thread: ``codec.encode``
then hashes on the calling thread and starts no pool.
Two pools on the same CPUs would only get in each other's way:
OpenBLAS's threads spin for a while after each product, and a second
thread that calls into the BLAS waits for them.  With the BLAS on one
thread, the pool takes every CPU.  No option or environment variable of
this package sets the count.

``codec.encode`` is the only caller.  It maps its blocks over a
``concurrent.futures.ThreadPoolExecutor`` of this many workers; its
GEMMs release the GIL, so its blocks do run at once.  ``evaluate`` runs
on the calling thread, since its sorting and scoring hold the GIL.
"""

import ctypes
import functools
import os

# OpenBLAS's thread-count getter under the names numpy builds give it:
# the scipy-openblas wheels of numpy 2, then 64-bit and plain OpenBLAS.
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads")


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


@functools.cache
def _openblas_getter():
    """numpy's OpenBLAS thread-count function, or None if it has none."""
    try:
        from numpy._core import _multiarray_umath
        # dlsym on the extension's handle also searches the libraries it
        # links, the BLAS among them.
        library = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for name in _OPENBLAS_GETTERS:
        getter = getattr(library, name, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter
    return None


def blas_threads() -> int:
    """Threads numpy's BLAS spreads a product over.

    A BLAS that cannot be asked counts as using every usable CPU, so the
    pool then stays at one thread, as before it existed.
    """
    getter = _openblas_getter()
    return getter() if getter is not None else _usable_cpus()


def pool_threads() -> int:
    """Threads for ``codec.encode``: usable CPUs over BLAS threads, at least 1."""
    return max(1, _usable_cpus() // blas_threads())

