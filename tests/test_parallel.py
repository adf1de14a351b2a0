"""Blocks on the CPUs the BLAS leaves free: the same bytes for any count.

The pool's thread count is the usable CPUs (``os.sched_getaffinity``)
over the BLAS's threads, so each test sets the CPUs to 1, 2, 4 or 8 and
the BLAS to one thread, whatever the host has.  ``encode`` is the only
user of the pool, so every pool behaviour is checked through it.
"""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hcoh import EvalReport, _parallel, codec, encode, evaluate, evaluation, init_model
from hcoh._parallel import blas_threads, pool_threads
from tests.test_evaluation import clustered_bits, make_set

CPU_COUNTS = (1, 2, 4)


def set_cpus(monkeypatch, count, blas=1):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    monkeypatch.setattr(_parallel, "blas_threads", lambda: blas)


@pytest.fixture
def thread_starts(monkeypatch):
    """A list that gets one entry per thread started while the test runs."""
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


def on_one_thread_each(monkeypatch, module, name, parties=2):
    """Wrap ``module.name`` so that ``parties`` threads must each enter it once.

    A barrier holds every caller until all have arrived, so with as many
    blocks as parties no thread can take a second block.  Returns the
    list of (is the calling thread, args) seen.
    """
    barrier = threading.Barrier(parties, timeout=30)
    original = getattr(module, name)
    seen = []

    def wrapped(*args, **kwargs):
        seen.append((threading.current_thread() is threading.main_thread(), args))
        barrier.wait()
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return seen


class BlockFailed(Exception):
    pass


def fail_blocks(monkeypatch, fails):
    """Make ``codec._pack_into`` raise BlockFailed(lo) where ``fails(lo)``.

    ``lo`` is the block's first row, read from where its words lie in
    the code set's array.
    """
    pack = codec._pack_into

    def wrapped(bits, out):
        lo = (out.ctypes.data - out.base.ctypes.data) // out.strides[0]
        if fails(lo):
            raise BlockFailed(lo)
        pack(bits, out)

    monkeypatch.setattr(codec, "_pack_into", wrapped)


class TestPoolThreads:
    @pytest.mark.parametrize("cpus, blas, threads", [
        (1, 1, 1), (2, 1, 2), (4, 1, 4), (2, 2, 1), (4, 2, 2), (4, 4, 1), (2, 8, 1)])
    def test_usable_cpus_over_blas_threads(self, monkeypatch, cpus, blas, threads):
        set_cpus(monkeypatch, cpus, blas)
        assert pool_threads() == threads

    def test_platform_without_affinity_counts_one_cpu(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert pool_threads() == 1

    def test_blas_that_cannot_be_asked_counts_every_cpu(self, monkeypatch):
        set_cpus(monkeypatch, 4)
        monkeypatch.setattr(_parallel, "blas_threads", blas_threads)
        monkeypatch.setattr(_parallel, "_openblas_getter", lambda: None)
        assert blas_threads() == 4
        assert pool_threads() == 1

    def test_numpy_blas_reports_a_thread_count(self):
        assert blas_threads() >= 1

    def test_blas_on_every_cpu_starts_no_thread(self, monkeypatch, thread_starts):
        set_cpus(monkeypatch, 2, blas=2)
        n = 3 * codec.ENCODE_ROWS + 1
        codes = encode(init_model(6, 40, eta=0.1, seed=1),
                       np.random.default_rng(1).standard_normal((n, 6)), np.zeros(n))
        evaluate(codes.take(slice(0, 30)), codes, k_prec=5)
        assert thread_starts == []


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEncodeAnyCpuCount:
    def test_words_equal_across_cpu_counts(self, monkeypatch, thread_starts):
        # 301 blocks of 3 rows, the last of 1, on up to eight threads, more
        # than most hosts have cores, switching as often as the interpreter
        # allows: a block lost, run twice or sharing its buffer with a
        # running block changes the words.  Such a race shows only now and
        # then, so each count runs four times.
        monkeypatch.setattr(codec, "ENCODE_ROWS", 3)
        model = init_model(12, 70, eta=0.1, seed=3)
        feats = np.random.default_rng(3).standard_normal((300 * 3 + 1, 12))
        words = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (*CPU_COUNTS, 8) * 4:
                set_cpus(monkeypatch, cpus)
                thread_starts.clear()
                words.append(encode(model, feats).words)
                # At most one worker per CPU, and none on one CPU.
                assert len(thread_starts) <= (cpus if cpus > 1 else 0)
        finally:
            sys.setswitchinterval(interval)
        assert all(w.tobytes() == words[0].tobytes() for w in words[1:])

    def test_non_finite_row_in_a_worker_block_raises(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        model = init_model(5, 16, eta=0.1, seed=4)
        before = threading.active_count()
        # The bad rows in the first block, then in the second: either way
        # the error names the first bad row, and both blocks ran on workers.
        for lo in (0, codec.ENCODE_ROWS):
            feats = np.ones((codec.ENCODE_ROWS + 9, 5))
            feats[[lo + 2, lo + 6], 1] = np.inf
            seen = on_one_thread_each(monkeypatch, codec, "_pack_into")
            with pytest.raises(ValueError,
                               match=rf"2 feature rows .*first row {lo + 2}\)"):
                encode(model, feats)
            assert threading.active_count() == before
            assert sorted(on_caller for on_caller, _args in seen) == [False, False]
            monkeypatch.undo()
            set_cpus(monkeypatch, 2)

    @pytest.mark.parametrize("fails, first", [
        (lambda lo: lo == 0, 0),
        (lambda lo: lo == 20 * 64, 20 * 64),
        (lambda lo: True, 0),
    ], ids=["first-block", "middle-block", "every-block"])
    def test_block_that_raises_joins_every_worker(self, monkeypatch, thread_starts,
                                                  fails, first):
        # Each raising block gives its buffer back, so the blocks after it
        # do not wait for one, the pool shuts down, and the error of the
        # first raising block in block order reaches the caller.
        monkeypatch.setattr(codec, "ENCODE_ROWS", 64)
        set_cpus(monkeypatch, 4)
        before = threading.active_count()
        fail_blocks(monkeypatch, fails)
        feats = np.random.default_rng(6).standard_normal((40 * 64 + 7, 8))
        with pytest.raises(BlockFailed) as raised:
            encode(init_model(8, 24, eta=0.1, seed=6), feats)
        assert raised.value.args == (first,)
        assert thread_starts
        assert threading.active_count() == before

    def test_failed_thread_start_joins_started_workers(self, monkeypatch):
        set_cpus(monkeypatch, 4)
        monkeypatch.setattr(codec, "ENCODE_ROWS", 64)
        before = threading.active_count()
        start = threading.Thread.start
        calls = []

        def second_start_fails(thread):
            calls.append(thread)
            if len(calls) == 2:
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", second_start_fails)
        feats = np.random.default_rng(7).standard_normal((40 * 64, 8))
        with pytest.raises(RuntimeError, match="can't start new thread"):
            encode(init_model(8, 24, eta=0.1, seed=7), feats)
        assert len(calls) == 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [0, 9], ids=["zero-rows", "one-block"])
    def test_fewer_than_two_blocks_start_no_thread(self, monkeypatch, thread_starts, n):
        set_cpus(monkeypatch, 4)
        model = init_model(5, 16, eta=0.1, seed=8)
        feats = np.random.default_rng(8).standard_normal((n, 5))
        codes = encode(model, feats)
        assert len(codes) == n and codes.words.shape == (n, 1)
        assert thread_starts == []

    @pytest.mark.parametrize("cpus", [4, 8])
    def test_buffers_bounded_whatever_the_cpu_count(self, monkeypatch, thread_starts,
                                                    cpus):
        # Blocks of 256 rows at r = 64 take 128 KiB of pre-activations each,
        # and a 256 KiB budget lets two threads run, however many CPUs:
        # two workers, and the calling thread only collects the results.
        monkeypatch.setattr(codec, "ENCODE_ROWS", 256)
        monkeypatch.setattr(codec, "ENCODE_BYTES", 2 * 256 * 64 * 8)
        set_cpus(monkeypatch, cpus)
        model = init_model(16, 64, eta=0.1, seed=5)
        feats = np.random.default_rng(5).standard_normal((40 * 256, 16))
        peak = traced_peak(lambda: encode(model, feats))
        assert len(thread_starts) == 2
        # The words, the labels, and at most the budget of pre-activations
        # plus their sign and packing temporaries.
        assert peak < 40 * 256 * (8 + 8) + 2 * codec.ENCODE_BYTES


def report_bytes(report: EvalReport) -> tuple:
    """Every field of a report, floats and the per-query array as bytes."""
    return tuple(np.asarray(value).tobytes() if value is not None else None
                 for value in vars(report).values())


class TestEvaluateAnyCpuCount:
    @pytest.mark.parametrize("k_map", [None, 12])
    @pytest.mark.parametrize("budget_rows", [None, 7])
    def test_reports_bit_equal_across_cpu_counts(self, monkeypatch, thread_starts,
                                                 k_map, budget_rows):
        rng = np.random.default_rng(21)
        n_q, n_db, r = 45, 400, 70
        database = make_set(clustered_bits(rng, n_db, r, pool=5), rng.integers(0, 3, n_db))
        queries = make_set(clustered_bits(rng, n_q, r, pool=5), rng.integers(0, 4, n_q))
        if budget_rows is not None:
            # 7 queries at a time, and 45 queries leave the last block of 3
            # ragged.
            monkeypatch.setattr(evaluation, "RANK_BLOCK_BYTES", budget_rows * 8 * n_db)
        reports = []
        for cpus in CPU_COUNTS:
            set_cpus(monkeypatch, cpus)
            reports.append(evaluate(queries, database, k_prec=10, k_map=k_map))
        assert reports[0].n_skipped > 0
        for report in reports[1:]:
            assert report_bytes(report) == report_bytes(reports[0])
        # With the BLAS on one thread, 2 and 4 CPUs would give encode a
        # pool; evaluate runs on the calling thread alone.
        assert thread_starts == []

    @pytest.mark.parametrize("cpus", [4, 8])
    def test_rankings_within_the_budget_whatever_the_cpu_count(self, monkeypatch,
                                                               cpus):
        # The same bound as the one-thread memory test: the distance buffer,
        # the XOR row and one query's ranking together stay within one budget.
        set_cpus(monkeypatch, cpus)
        rng = np.random.default_rng(23)
        n_db = 4000
        database = make_set(rng.integers(0, 2, (n_db, 64), dtype=np.uint8),
                            rng.integers(0, 5, n_db))
        queries = make_set(rng.integers(0, 2, (200, 64), dtype=np.uint8),
                           rng.integers(0, 5, 200))
        monkeypatch.setattr(evaluation, "RANK_BLOCK_BYTES", 16 * 8 * n_db)
        peak = traced_peak(lambda: evaluate(queries, database, k_prec=10))
        assert peak < evaluation.RANK_BLOCK_BYTES
