"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Criteria 5, 6 and 8 exercise the full MNIST protocol and need the four
IDX files on disk (see conftest.require_mnist); they skip with an
explicit message when the data is absent.  Every oracle used here is
restated locally, independent of the library code paths it checks.
"""

import json
import time
from functools import partial

import numpy as np
import pytest

import hcoh
from hcoh.checkpoint import save_checkpoint
from tests.conftest import (blob_dataset, dense_sgd_step, oracle_ap,
                            oracle_rank, require_mnist)


def _verdict(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# --- 1. Hadamard exactness ----------------------------------------------

def test_c1_hadamard_exactness():
    # H as training uses it: the identity reducer's target table.
    started = time.monotonic()
    for order in (2, 4, 8, 16, 32, 64, 128, 256):
        h = hcoh.LshReducer.create(order, order, seed=0).table.astype(np.int64)
        assert np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64)), order
    for order in (512, 1024):
        # Same exact check through float64: products are +-1 and every
        # partial sum is an integer of magnitude <= order << 2**53, so the
        # BLAS product is exact integer arithmetic, just faster.
        h = hcoh.LshReducer.create(order, order, seed=0).table.astype(np.float64)
        assert np.array_equal(h @ h.T, order * np.eye(order)), order
    elapsed = time.monotonic() - started
    _verdict("hadamard-exactness", elapsed < 1.0,
             f"orders 2..1024 orthogonal with zero error in {elapsed:.2f}s")


# --- 2. Gradient oracle ---------------------------------------------------

def _fd_loss(weights, bias, x, target):
    a = np.tanh(x @ weights + bias)
    return ((a - target) ** 2).sum()


def _fd_gradients(weights, bias, x, target, step=1e-6):
    grad_w = np.zeros_like(weights)
    for i in range(weights.shape[0]):
        for j in range(weights.shape[1]):
            hi, lo = weights.copy(), weights.copy()
            hi[i, j] += step
            lo[i, j] -= step
            grad_w[i, j] = (_fd_loss(hi, bias, x, target)
                            - _fd_loss(lo, bias, x, target)) / (2 * step)
    grad_b = np.zeros_like(bias)
    for j in range(bias.shape[0]):
        hi, lo = bias.copy(), bias.copy()
        hi[j] += step
        lo[j] -= step
        grad_b[j] = (_fd_loss(weights, hi, x, target)
                     - _fd_loss(weights, lo, x, target)) / (2 * step)
    return grad_w, grad_b


def _analytic_gradients(model, x, target, step):
    probe = model.copy()
    probe.eta = 1.0
    w0, b0 = probe.weights.copy(), probe.bias.copy()
    step(probe, x, target)
    return w0 - probe.weights, b0 - probe.bias


def test_c2_gradient_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    # The negative control: the sigmoid-style factor (1 - a) * a, which the
    # library does not offer, through the tests' dense reference step.
    sigmoid_step = partial(dense_sgd_step, gradient="sigmoid")
    exact_errors, sigmoid_errors = [], []
    for _ in range(100):
        d = int(rng.integers(1, 9))
        r = int(rng.integers(1, 9))
        model = hcoh.init_model(d, r, eta=0.1, seed=int(rng.integers(2**32)))
        x = rng.standard_normal((1, d))
        target = rng.choice([-1.0, 1.0], size=(1, r))
        fd_w, fd_b = _fd_gradients(model.weights, model.bias, x, target)
        scale = max(np.linalg.norm(fd_w) + np.linalg.norm(fd_b), 1e-12)
        for step, sink in ((hcoh.sgd_step, exact_errors),
                           (sigmoid_step, sigmoid_errors)):
            gw, gb = _analytic_gradients(model, x, target, step)
            sink.append((np.linalg.norm(gw - fd_w) + np.linalg.norm(gb - fd_b))
                        / scale)
    elapsed = time.monotonic() - started
    worst = max(exact_errors)
    sigmoid_fails = sum(1 for e in sigmoid_errors if e >= 1e-5)
    _verdict("gradient-oracle",
             worst < 1e-5 and sigmoid_fails == 100 and elapsed < 5.0,
             f"exact factor worst rel err {worst:.2e}; sigmoid-style factor "
             f"fails the same check on {sigmoid_fails}/100 instances; "
             f"{elapsed:.2f}s")


# --- 3. mAP oracle equivalence -------------------------------------------

def test_c3_map_matches_brute_force():
    started = time.monotonic()
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(50):
        n_db = int(rng.integers(20, 201))
        n_q = int(rng.integers(1, 11))
        r = int(rng.integers(3, 129))
        db_bits = rng.integers(0, 2, size=(n_db, r), dtype=np.uint8)
        q_bits = rng.integers(0, 2, size=(n_q, r), dtype=np.uint8)
        db_labels = rng.integers(0, 4, n_db)
        q_labels = rng.integers(0, 4, n_q)
        database = hcoh.BinaryCodeSet(hcoh.pack_bits(db_bits), db_labels, r)
        queries = hcoh.BinaryCodeSet(hcoh.pack_bits(q_bits), q_labels, r)
        k = int(rng.integers(1, n_db + 1))
        report = hcoh.evaluate(queries, database, k_prec=k)
        aps, precs = [], []
        fast_rankings = hcoh.rank(queries, database)
        for qi in range(n_q):
            ranking = oracle_rank(q_bits[qi], db_bits)
            assert list(fast_rankings[qi]) == ranking
            relevance = [db_labels[i] == q_labels[qi] for i in range(n_db)]
            if not any(relevance):
                continue
            aps.append(oracle_ap(ranking, relevance))
            precs.append(sum(relevance[i] for i in ranking[:k]) / k)
        assert abs(report.map - np.mean(aps)) < 1e-12
        assert abs(report.precision_at_k - np.mean(precs)) < 1e-12
        checked += 1
    elapsed = time.monotonic() - started
    _verdict("map-oracle-equivalence", checked == 50 and elapsed < 10.0,
             f"50 random code sets: identical rankings, metrics within "
             f"1e-12; {elapsed:.2f}s")


# --- 4. LSH collision property ---------------------------------------------

def test_c4_lsh_collision_property():
    # Rows 3 and 5 of T = sign(H P) are the targets of the orthogonal
    # Sylvester columns 3 and 5.
    started = time.monotonic()
    distances = np.empty(10_000)
    for seed in range(10_000):
        table = hcoh.LshReducer.create(256, 64, seed=seed).table
        distances[seed] = np.mean(table[3] != table[5])
    mean = float(distances.mean())
    identical_ok = True
    for s in range(0, 10_000, 100):
        codes = hcoh.lsh.targets([3, 8, 3], hcoh.HadamardCodebook.create(256, s),
                                 hcoh.LshReducer.create(256, 64, seed=s))
        identical_ok &= np.array_equal(codes[0], codes[2])
    elapsed = time.monotonic() - started
    _verdict("lsh-collision-property",
             0.49 <= mean <= 0.51 and identical_ok and elapsed < 30.0,
             f"mean normalized distance {mean:.4f} over 1e4 projections; "
             f"identical inputs collide exactly; {elapsed:.2f}s")


# --- 5, 6, 8. Full MNIST protocol -------------------------------------------

_MNIST = {}


def _mnist_dataset():
    directory = require_mnist()
    if "dataset" not in _MNIST:
        _MNIST["dataset"] = hcoh.load_mnist_dir(directory)
    return _MNIST["dataset"]


def _mnist_config(bits, **overrides):
    base = dict(bits=bits, eta=0.2, batch_size=1, seed=0, test_per_class=100,
                train_subset=20000, k_prec=500, max_labels=10)
    base.update(overrides)
    return hcoh.RunConfig(**base)


def _mnist_bench(bits):
    if bits not in _MNIST:
        _, aggregate = hcoh.run_repeats(_mnist_dataset(), _mnist_config(bits),
                                        repeats=3)
        _MNIST[bits] = aggregate
    return _MNIST[bits]


def test_c5_mnist_reproduction():
    dataset = _mnist_dataset()
    assert len(dataset) == 70000 and dataset.features.shape[1] == 784
    agg = _mnist_bench(32)
    ok = agg["map_mean"] >= 0.70 and agg["precision_mean"] >= 0.78
    _verdict("mnist-32bit-reproduction", ok,
             f"mAP {agg['map_mean']:.4f} (>= 0.70), "
             f"P@500 {agg['precision_mean']:.4f} (>= 0.78) over 3 repeats")


def test_c6_mnist_bit_length_trend():
    map32 = _mnist_bench(32)["map_mean"]
    map64 = _mnist_bench(64)["map_mean"]
    map128 = _mnist_bench(128)["map_mean"]
    ok = map64 >= map32 - 0.02 and map128 >= map64 - 0.02
    _verdict("mnist-bit-length-trend", ok,
             f"mAP 32/64/128 = {map32:.4f}/{map64:.4f}/{map128:.4f}")


def test_c8_mnist_determinism(tmp_path):
    dataset = _mnist_dataset()
    config = _mnist_config(32, milestones=tuple(range(2000, 20001, 2000)))

    def run(tag):
        result = hcoh.run_training(dataset, config)
        stream = "\n".join(json.dumps(rec, sort_keys=True)
                           for rec in result.records + [result.summary])
        path = tmp_path / f"{tag}.hcoh"
        save_checkpoint(path, result.model, result.book, result.reducer)
        return stream.encode(), path.read_bytes()

    stream_a, ckpt_a = run("a")
    stream_b, ckpt_b = run("b")
    _verdict("mnist-determinism",
             stream_a == stream_b and ckpt_a == ckpt_b,
             f"metric streams ({len(stream_a)} bytes) and checkpoints "
             f"({len(ckpt_a)} bytes) byte-identical across two runs")


# --- 7. Synthetic separability ----------------------------------------------

def test_c7_synthetic_separability():
    started = time.monotonic()
    dataset = blob_dataset(n_classes=4, dim=16, per_class=600, seed=11)
    config = hcoh.RunConfig(bits=16, eta=0.2, batch_size=1, seed=1,
                            test_per_class=100, train_subset=2000,
                            k_prec=500, max_labels=4)
    result = hcoh.run_training(dataset, config)
    elapsed = time.monotonic() - started
    final_map = result.summary["final_map"]
    _verdict("synthetic-separability",
             final_map >= 0.95 and elapsed < 10.0,
             f"4 blobs, 16 dims, 16-bit codes, 2K instances: "
             f"mAP {final_map:.4f}; {elapsed:.2f}s")
