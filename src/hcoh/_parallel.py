"""Blocks of work spread over the CPUs that the BLAS leaves free.

:func:`pool_threads` is the thread count: the CPUs this process may run
on (``os.sched_getaffinity``) divided by the threads over which the BLAS
already spreads each product, and at least one.  OpenBLAS by default
runs each product on every CPU, which gives one thread: hashing and
ranking then run in the calling thread as if this module did not exist.
Two pools on the same CPUs would only get in each other's way:
OpenBLAS's threads spin for a while after each product, and a second
thread that calls into the BLAS waits for them.  With the BLAS on one
thread, the pool takes every CPU.  No option or environment variable of
this package sets the count.

:func:`run_blocks` runs one function over a list of blocks and hands
the results to the calling thread in block order.  The calling thread
takes part: while it waits for the next result it runs a block itself,
so a descheduled CPU never holds a fixed share of the work, and with
one thread it runs every block itself and starts none.  ``encode``
hashes blocks whose bounds do not depend on the thread count;
``evaluate``'s query blocks shrink as threads are added, but no query's
ranking depends on its block.  Either way the bytes are the same on any
number of CPUs.

The functions run on workers touch only private code and the arrays
their caller hands them; every public call stays on the calling thread,
so a wrapper around the public functions, such as a span tracer with
one stack, never sees two threads.
"""

import ctypes
import functools
import os
import threading

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

    Uses min(threads, len(starts)) threads, at least one.  The calling
    thread is slot 0 and starts one worker for each further slot; only
    it calls ``use``, one block after another in the order of
    ``starts``.  While the next result is not ready it runs the next
    unstarted block itself.  A slot runs one block at a time, so ``fn``
    may use per-slot buffers the caller owns.  At most ``threads``
    blocks are running or waiting for ``use`` at any moment, the one in
    ``use`` included, so at most that many results are held at once.

    If a block raises, every block before it still goes to ``use`` and
    then its exception is raised on the calling thread, as on one
    thread.  If ``use`` raises, that exception propagates.  Either way
    every worker that was started is joined first: no thread outlives
    the call.
    """
    starts = list(starts)
    results = {}  # block index -> (result, exception)
    ready = threading.Condition()
    claimed = used = 0
    stopped = False

    def claim():  # with ``ready`` held: the next block's index, or None
        nonlocal claimed
        if stopped or claimed == len(starts) or claimed - used == threads:
            return None
        claimed += 1
        return claimed - 1

    def run(slot, index):
        try:
            outcome = (fn(slot, starts[index]), None)
        except BaseException as exc:  # raised by the calling thread
            outcome = (None, exc)
        with ready:
            results[index] = outcome
            ready.notify_all()

    def work(slot):
        while True:
            with ready:
                index = claim()
                while index is None:
                    if stopped or claimed == len(starts):
                        return
                    ready.wait()
                    index = claim()
            run(slot, index)

    def result(index):  # on the calling thread
        while True:
            with ready:
                if index in results:
                    return results.pop(index)
                own = claim()
                if own is None:
                    ready.wait()
                    continue
            run(0, own)

    workers = []
    try:
        for slot in range(1, min(threads, len(starts))):
            worker = threading.Thread(target=work, args=(slot,))
            worker.start()
            workers.append(worker)
        for index, start in enumerate(starts):
            value, error = result(index)
            if error is not None:
                raise error
            use(start, value)
            del value
            with ready:
                used += 1
                ready.notify_all()
    finally:
        with ready:
            stopped = True
            ready.notify_all()
        for worker in workers:
            worker.join()
