"""Blocks of work spread over the CPUs that the BLAS leaves free.

:func:`pool_threads` is the thread count: the CPUs this process may run
on (``os.sched_getaffinity``) divided by the threads over which the BLAS
already spreads each product, and at least one.  OpenBLAS by default
runs each product on every CPU, which gives one thread: hashing then
runs in the calling thread as if this module did not exist.
Two pools on the same CPUs would only get in each other's way:
OpenBLAS's threads spin for a while after each product, and a second
thread that calls into the BLAS waits for them.  With the BLAS on one
thread, the pool takes every CPU.  No option or environment variable of
this package sets the count.

:func:`run_blocks` runs one function over a list of blocks and hands
the results to the calling thread in block order.  With more than one
thread, every block goes to a ``concurrent.futures.ThreadPoolExecutor``
of that many workers, never more blocks in flight than threads, and
block i always runs in slot i % threads, so each slot can own a buffer.
The calling thread runs no block: it submits them, waits for each
result in turn and uses it.  With one thread, or one block, it runs
every block itself and starts no thread.  ``codec.encode`` is the only
caller: it hashes blocks whose bounds do not depend on the thread
count, so its bytes are the same on any number of CPUs.  Its GEMMs
release the GIL, so its blocks do run at once; ``evaluate`` runs on the
calling thread, since its sorting and scoring hold the GIL.

The functions run on workers touch only private code and the arrays
their caller hands them; every public call stays on the calling thread,
so a wrapper around the public functions, such as a span tracer with
one stack, never sees two threads.
"""

import ctypes
import functools
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

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
    """Threads for :func:`run_blocks`: usable CPUs over BLAS threads, at least 1."""
    return max(1, _usable_cpus() // blas_threads())


def run_blocks(fn, starts, threads: int, use) -> None:
    """Run ``fn(slot, start)`` for each start; ``use(start, result)`` in order.

    ``starts`` is a sequence.  With min(threads, len(starts)) at most
    one, the calling thread runs every block itself and starts no
    thread; otherwise every block runs on a pool of that many workers.
    Only the calling thread calls ``use``, one block after another in
    the order of ``starts``.  Block i runs as ``fn(i % threads, start)``
    and is submitted only after block i - threads has gone to ``use``,
    so no two running blocks share a slot and ``fn`` may use per-slot
    buffers the caller owns.  At most ``threads`` blocks are running or
    waiting for ``use`` at any moment, the one in ``use`` included, so
    at most that many results are held at once.

    If a block raises, every block before it still goes to ``use`` and
    then its exception is raised on the calling thread, as on one
    thread.  If ``use`` raises, that exception propagates.  Either way
    the blocks not yet started are cancelled and every worker is joined
    first: no thread outlives the call.
    """
    threads = min(threads, len(starts))
    if threads <= 1:
        for start in starts:
            use(start, fn(0, start))
        return
    window = deque()  # (start, future) of the blocks not yet used
    with ThreadPoolExecutor(threads) as pool:
        try:
            for index, start in enumerate(starts):
                if len(window) == threads:
                    oldest, future = window.popleft()
                    use(oldest, future.result())
                window.append((start, pool.submit(fn, index % threads, start)))
            while window:
                oldest, future = window.popleft()
                use(oldest, future.result())
        finally:
            for _start, future in window:
                future.cancel()
