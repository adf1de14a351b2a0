import threading
import tracemalloc

import numpy as np
import pytest

from hcoh import (BinaryCodeSet, DimensionError, UndefinedAPError,
                  average_precision, encode, evaluate, init_model, map_curve_auc,
                  pack_bits, precision_at_k, rank)
from hcoh import evaluation
from hcoh.fileio import UNKNOWN_LABEL
from tests.conftest import oracle_ap, oracle_rank


def oracle_scores(q_bits, q_labels, db_bits, db_labels, k_prec, k_map=None):
    """Per scored query: (AP, AP@k_map or None, P@k_prec), by the oracle."""
    scores = []
    for qi in range(len(q_bits)):
        relevance = [db_labels[i] == q_labels[qi] for i in range(len(db_bits))]
        if not any(relevance):
            continue
        ranking = oracle_rank(q_bits[qi], db_bits)
        scores.append((
            oracle_ap(ranking, relevance),
            None if k_map is None else oracle_ap(ranking, relevance, cutoff=k_map),
            sum(relevance[i] for i in ranking[:k_prec]) / k_prec))
    return scores


def make_set(bits, labels):
    bits = np.asarray(bits, dtype=np.uint8)
    return BinaryCodeSet(pack_bits(bits), np.asarray(labels), bits.shape[1])


def random_set(rng, n, r, n_classes=4):
    bits = rng.integers(0, 2, size=(n, r), dtype=np.uint8)
    return make_set(bits, rng.integers(0, n_classes, n)), bits


class TestRank:
    def test_exact_match_ranked_first(self):
        rng = np.random.default_rng(0)
        code_set, bits = random_set(rng, 30, 16)
        ranking = rank(code_set.take([13]), code_set)[0]
        assert np.array_equal(bits[ranking[0]], bits[13])

    def test_all_distinct_distances_sorted(self):
        bits = [[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1]]
        code_set = make_set(bits, [0, 0, 0, 0])
        ranking = rank(code_set.take([0]), code_set)[0]
        assert list(ranking) == [0, 1, 2, 3]

    def test_ties_broken_by_ascending_index(self):
        bits = [[0, 0, 1, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
        code_set = make_set(bits, [0, 0, 0, 0])
        ranking = rank(make_set([[0, 0, 0, 0]], [0]), code_set)[0]
        assert list(ranking) == [3, 1, 2, 0]

    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            code_set, bits = random_set(rng, 50, int(rng.integers(3, 80)))
            rankings = rank(code_set, code_set)
            assert rankings.shape == (50, 50)
            for qi in range(50):
                assert list(rankings[qi]) == oracle_rank(bits[qi], bits)


class TestAveragePrecision:
    def test_all_relevant_gives_one(self):
        assert average_precision(np.arange(6), np.ones(6, bool)) == 1.0

    def test_hand_worked_alternating_case(self):
        relevance = np.array([1, 0, 1, 0], dtype=bool)
        ap = average_precision(np.arange(4), relevance)
        assert ap == pytest.approx(5 / 6, abs=1e-15)
        assert ap == pytest.approx(oracle_ap([0, 1, 2, 3], relevance), abs=1e-15)

    @pytest.mark.parametrize("k,n", [(1, 5), (3, 5), (5, 5)])
    def test_single_relevant_at_rank_k(self, k, n):
        relevance = np.zeros(n, bool)
        ranking = np.arange(n)
        relevance[ranking[k - 1]] = True
        assert average_precision(ranking, relevance) == pytest.approx(1 / k)

    def test_no_relevant_without_cutoff_is_undefined(self):
        with pytest.raises(UndefinedAPError):
            average_precision(np.arange(4), np.zeros(4, bool))

    def test_no_relevant_with_cutoff_scores_zero(self):
        assert average_precision(np.arange(4), np.zeros(4, bool), cutoff=2) == 0.0

    @pytest.mark.parametrize("relevance, cutoff, error", [
        (np.ones(3, bool), None, DimensionError),
        (np.ones(4, bool), 0, ValueError),
    ], ids=["length-mismatch", "zero-cutoff"])
    def test_bad_arguments_rejected(self, relevance, cutoff, error):
        with pytest.raises(error):
            average_precision(np.arange(4), relevance, cutoff=cutoff)

    def test_cutoff_denominator_keeps_ap_at_most_one(self):
        # 3 relevant items, cutoff 2, both top slots relevant: AP@2 = 1.
        relevance = np.array([1, 1, 1, 0], dtype=bool)
        assert average_precision(np.arange(4), relevance, cutoff=2) == 1.0

    def test_matches_oracle_with_and_without_cutoff(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            ranking = rng.permutation(n)
            relevance = rng.random(n) < 0.4
            if not relevance.any():
                continue
            assert average_precision(ranking, relevance) == pytest.approx(
                oracle_ap(list(ranking), list(relevance)), abs=1e-12)
            k = int(rng.integers(1, n + 1))
            assert average_precision(ranking, relevance, cutoff=k) == pytest.approx(
                oracle_ap(list(ranking), list(relevance), cutoff=k), abs=1e-12)


class TestPrecisionAtK:
    def test_all_relevant_top_k(self):
        assert precision_at_k(np.arange(6), np.ones(6, bool), 4) == 1.0

    def test_none_relevant_top_k(self):
        relevance = np.array([0, 0, 0, 1], dtype=bool)
        assert precision_at_k(np.arange(4), relevance, 3) == 0.0

    def test_alternating_pattern(self):
        relevance = np.array([1, 0, 1, 0], dtype=bool)
        assert precision_at_k(np.arange(4), relevance, 4) == 0.5

    def test_k_beyond_database_rejected(self):
        with pytest.raises(ValueError):
            precision_at_k(np.arange(4), np.ones(4, bool), 5)


class TestEvaluate:
    def test_two_query_mean(self):
        # Both queries see relevant items at ranks 1 and 3 of their own
        # rankings, so each AP is (1 + 2/3)/2 = 5/6 and so is the mean.
        db_bits = [[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0]]
        database = make_set(db_bits, [0, 1, 0, 1])
        queries = make_set([[0, 0, 0, 0], [1, 1, 1, 1]], [0, 1])
        report = evaluate(queries, database, k_prec=4)
        np.testing.assert_allclose(report.per_query_ap, [5 / 6, 5 / 6],
                                   atol=1e-15)
        assert report.map == pytest.approx(np.mean(report.per_query_ap))
        assert report.n_skipped == 0

    def test_self_retrieval_beats_class_prior(self):
        rng = np.random.default_rng(3)
        code_set, _ = random_set(rng, 60, 32, n_classes=3)
        report = evaluate(code_set, code_set, k_prec=10)
        assert report.map > 1 / 3

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n_db = int(rng.integers(5, 60))
            n_q = int(rng.integers(1, 10))
            r = int(rng.integers(3, 40))
            db_bits = rng.integers(0, 2, size=(n_db, r), dtype=np.uint8)
            q_bits = rng.integers(0, 2, size=(n_q, r), dtype=np.uint8)
            db_labels = rng.integers(0, 3, n_db)
            q_labels = rng.integers(0, 3, n_q)
            database = make_set(db_bits, db_labels)
            queries = make_set(q_bits, q_labels)
            k = int(rng.integers(1, n_db + 1))
            report = evaluate(queries, database, k_prec=k)
            aps, precs = [], []
            for qi in range(n_q):
                ranking = oracle_rank(q_bits[qi], db_bits)
                relevance = [db_labels[i] == q_labels[qi] for i in range(n_db)]
                if not any(relevance):
                    continue
                aps.append(oracle_ap(ranking, relevance))
                precs.append(sum(relevance[i] for i in ranking[:k]) / k)
            assert report.map == pytest.approx(np.mean(aps), abs=1e-12)
            assert report.precision_at_k == pytest.approx(np.mean(precs), abs=1e-12)

    def test_queries_without_relevant_items_are_skipped_and_counted(self):
        database = make_set([[0, 0], [0, 1]], [0, 0])
        queries = make_set([[0, 0], [1, 1]], [0, 9])
        report = evaluate(queries, database, k_prec=2)
        assert report.n_skipped == 1
        assert report.map == pytest.approx(1.0)

    def test_no_query_with_relevant_items_is_undefined(self):
        database = make_set([[0, 0], [0, 1]], [0, 0])
        queries = make_set([[0, 0], [1, 1]], [7, 9])
        with pytest.raises(UndefinedAPError, match="no query"):
            evaluate(queries, database, k_prec=2)

    def test_unlabelled_queries_are_skipped_and_counted(self):
        # The unknown label -1 is no class: such a query is skipped, a
        # database code with it is relevant to no query, and the other
        # queries score as the oracle says.
        rng = np.random.default_rng(25)
        n_q, n_db, r = 40, 150, 24
        db_bits = clustered_bits(rng, n_db, r, pool=5)
        q_bits = clustered_bits(rng, n_q, r, pool=5)
        db_labels = rng.integers(-1, 3, n_db)
        q_labels = rng.integers(-1, 3, n_q)
        report = evaluate(make_set(q_bits, q_labels), make_set(db_bits, db_labels),
                          k_prec=10, k_map=12)
        known = q_labels != UNKNOWN_LABEL
        expected = oracle_scores(q_bits[known], q_labels[known], db_bits, db_labels,
                                 10, 12)
        assert report.n_skipped == n_q - len(expected) > 0
        np.testing.assert_allclose(report.per_query_ap, [e[0] for e in expected],
                                   rtol=0, atol=1e-12)
        assert report.map_at_k == pytest.approx(
            np.mean([e[1] for e in expected]), abs=1e-12)
        assert report.precision_at_k == pytest.approx(
            np.mean([e[2] for e in expected]), abs=1e-12)

    def test_codes_encoded_without_labels_are_undefined(self):
        # encode without labels gives every code the unknown label, which
        # does not make them one class.
        features = np.random.default_rng(26).standard_normal((60, 8))
        codes = encode(init_model(8, 16, eta=0.1, seed=26), features)
        assert (codes.labels == UNKNOWN_LABEL).all()
        with pytest.raises(UndefinedAPError, match="no query"):
            evaluate(codes.take(slice(0, 20)), codes, k_prec=10)

    def test_random_codes_score_near_class_prior(self):
        rng = np.random.default_rng(5)
        maps = []
        for seed in range(3):
            r2 = np.random.default_rng(seed)
            database, _ = random_set(r2, 1000, 32, n_classes=10)
            queries, _ = random_set(r2, 100, 32, n_classes=10)
            maps.append(evaluate(queries, database, k_prec=100).map)
        assert all(0.08 <= m <= 0.13 for m in maps)

    def test_non_positive_map_cutoff_rejected(self):
        code_set = make_set([[0, 1], [1, 1]], [0, 0])
        with pytest.raises(ValueError, match="k_map"):
            evaluate(code_set, code_set, k_prec=1, k_map=0)

    def test_length_mismatch_rejected(self):
        a = make_set([[0, 0]], [0])
        b = make_set([[0, 0, 0]], [0])
        with pytest.raises(DimensionError):
            evaluate(a, b, k_prec=1)

    @pytest.mark.parametrize("n_q, n_db", [(150, 69_850), (100, 20_000),
                                           (400, 20_000)])
    def test_peak_memory_within_one_block_budget(self, n_q, n_db):
        rng = np.random.default_rng(n_q)
        database, _ = random_set(rng, n_db, 32, n_classes=10)
        queries, _ = random_set(rng, n_q, 32, n_classes=10)
        tracemalloc.start()
        try:
            evaluate(queries, database, k_prec=100)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < evaluation.RANK_BLOCK_BYTES


def clustered_bits(rng, n, r, pool):
    """Rows drawn from a few prototype codes with rare bit flips: many ties."""
    prototypes = rng.integers(0, 2, size=(pool, r), dtype=np.uint8)
    flips = (rng.random((n, r)) < 0.02).astype(np.uint8)
    return prototypes[rng.integers(0, pool, n)] ^ flips


def evaluate_in_blocks(monkeypatch, queries, database, block, **kwargs):
    """``evaluate`` with its byte budget set to ``block`` queries at a time."""
    monkeypatch.setattr(evaluation, "RANK_BLOCK_BYTES", block * 8 * len(database))
    return evaluate(queries, database, **kwargs)


class TestRankingKernel:
    """Blocked radix ranking in ``evaluate`` against the brute-force oracle.

    The lengths straddle the one-word/two-word and the uint8/uint16
    distance-dtype boundaries.  Each case ranks 1 query at a time, 64
    (70 queries make two blocks, 150 make three, the last one ragged)
    and every query at a time, and the reports must be bit-identical.
    """

    CASES = ([(r, k_map, 70, 120) for k_map in (None, 9)
              for r in (1, 63, 64, 65, 255, 256, 300)]
             + [(300, 50, 150, 300)])

    @pytest.mark.parametrize("r, k_map, n_q, n_db", CASES,
                             ids=[f"{c[0]}-{c[1]}" for c in CASES])
    def test_matches_oracle(self, r, k_map, n_q, n_db, monkeypatch):
        rng = np.random.default_rng(r)
        db_bits = clustered_bits(rng, n_db, r, pool=6)
        q_bits = clustered_bits(rng, n_q, r, pool=6)
        db_labels = rng.integers(0, 3, n_db)
        q_labels = rng.integers(0, 4, n_q)  # label 3 has no relevant item
        database, queries = make_set(db_bits, db_labels), make_set(q_bits, q_labels)
        report, *others = [
            evaluate_in_blocks(monkeypatch, queries, database, block,
                               k_prec=15, k_map=k_map)
            for block in (1, 64, n_q)]
        for other in others:
            assert np.array_equal(other.per_query_ap, report.per_query_ap)
            assert (other.map, other.precision_at_k, other.map_at_k) == (
                report.map, report.precision_at_k, report.map_at_k)

        expected = oracle_scores(q_bits, q_labels, db_bits, db_labels, 15, k_map)
        assert report.n_skipped == n_q - len(expected)
        np.testing.assert_allclose(report.per_query_ap,
                                   [e[0] for e in expected], rtol=0, atol=1e-12)
        assert report.precision_at_k == pytest.approx(
            np.mean([e[2] for e in expected]), abs=1e-12)
        if k_map is None:
            assert report.map_at_k is None
        else:
            assert report.map_at_k == pytest.approx(
                np.mean([e[1] for e in expected]), abs=1e-12)
        # Bit-identical to the per-query reference functions.
        rankings = rank(queries, database)
        scored = [(rankings[qi], db_labels == q_labels[qi]) for qi in range(n_q)
                  if (db_labels == q_labels[qi]).any()]
        per_query = [average_precision(*query) for query in scored]
        assert np.array_equal(report.per_query_ap, per_query)
        assert report.precision_at_k == np.mean(
            [precision_at_k(*query, 15) for query in scored])
        if k_map is not None:
            assert report.map_at_k == np.mean(
                [average_precision(*query, cutoff=k_map) for query in scored])

    def test_all_tied_database_ranks_by_index(self):
        rng = np.random.default_rng(12)
        db_bits = np.tile(rng.integers(0, 2, size=(1, 40), dtype=np.uint8), (50, 1))
        db_labels = rng.integers(0, 2, 50)
        database = make_set(db_bits, db_labels)
        q_bits = rng.integers(0, 2, size=(3, 40), dtype=np.uint8)
        queries = make_set(q_bits, [0, 1, 1])
        assert list(rank(queries, database)[0]) == list(range(50))
        report = evaluate(queries, database, k_prec=10, k_map=20)
        by_index = list(range(50))
        for qi, label in enumerate([0, 1, 1]):
            relevance = list(db_labels == label)
            assert report.per_query_ap[qi] == pytest.approx(
                oracle_ap(by_index, relevance), abs=1e-12)
        expected_p = np.mean([np.mean(db_labels[:10] == label) for label in [0, 1, 1]])
        assert report.precision_at_k == pytest.approx(expected_p, abs=1e-12)


def evaluate_routed(monkeypatch, queries, database, ratio, **kwargs):
    """``evaluate`` with the small-class rule set to ``ratio``."""
    monkeypatch.setattr(evaluation, "SMALL_CLASS_RATIO", ratio)
    return evaluate(queries, database, **kwargs)


class TestCandidateRoute:
    """Sparse classes ranked by their candidates against the oracle.

    Each case draws 40-200 labels over 300-2,000 tie-heavy codes, where
    a class's codes share one of a few prototypes, so most classes take
    the candidate route and most candidate sets are a strict part of the
    database.  Label 0 holds an eighth of the database and so takes the
    whole-row route, which puts both routes in one block.  Every case
    also has unknown-label queries and database codes, query labels
    absent from the database, and a query whose class holds the code at
    distance r from it, the farthest any code can be.
    """

    CASES = [  # r, n_db, n_labels, k_prec, k_map
        (1, 300, 40, 15, None),
        (63, 2000, 200, 2000, 2100),
        (64, 600, 60, 7, 9),
        (65, 1000, 100, 1000, 3),
        (255, 500, 50, 25, 600),
        (256, 800, 150, 40, 40),
        (300, 1200, 120, 1200, None),
    ]

    @pytest.mark.parametrize("r, n_db, n_labels, k_prec, k_map", CASES,
                             ids=[f"{c[0]}-{c[1]}" for c in CASES])
    def test_matches_oracle_and_whole_row(self, r, n_db, n_labels, k_prec, k_map,
                                          monkeypatch):
        rng = np.random.default_rng(1000 + r)
        n_q = 30
        prototypes = rng.integers(0, 2, size=(8, r), dtype=np.uint8)
        db_labels = rng.integers(1, n_labels, n_db)
        db_labels[rng.permutation(n_db)[:n_db // 8]] = 0
        db_labels[rng.permutation(n_db)[:5]] = UNKNOWN_LABEL
        q_labels = db_labels[rng.integers(0, n_db, n_q)]
        q_labels[:3] = UNKNOWN_LABEL
        q_labels[3:5] = n_labels + np.arange(2)  # in no database code
        q_labels[5] = db_labels[db_labels > 0][0]
        db_bits = (prototypes[db_labels % 8]
                   ^ (rng.random((n_db, r)) < 0.05).astype(np.uint8))
        q_bits = (prototypes[q_labels % 8]
                  ^ (rng.random((n_q, r)) < 0.05).astype(np.uint8))
        # Query 5's class holds its complement, at distance r.
        far = int(np.flatnonzero(db_labels == q_labels[5])[0])
        db_bits[far] = 1 - q_bits[5]
        database, queries = make_set(db_bits, db_labels), make_set(q_bits, q_labels)

        sizes = np.array([np.count_nonzero(db_labels == label) for label in q_labels])
        small = (q_labels != UNKNOWN_LABEL) & (sizes > 0) & (
            sizes * evaluation.SMALL_CLASS_RATIO <= n_db)
        assert small.sum() > n_q // 2 and not small[q_labels == 0].any()
        distances = (q_bits[:, None, :] != db_bits[None]).sum(axis=2)
        candidates = [np.count_nonzero(distances[qi]
                                       <= distances[qi][db_labels == q_labels[qi]].max())
                      for qi in np.flatnonzero(small)]
        assert distances[5][far] == r and max(candidates) == n_db
        assert min(candidates) < n_db // 2

        report = evaluate(queries, database, k_prec=k_prec, k_map=k_map)
        known = q_labels != UNKNOWN_LABEL
        expected = oracle_scores(q_bits[known], q_labels[known], db_bits, db_labels,
                                 k_prec, k_map)
        assert report.n_skipped == n_q - len(expected) >= 5
        np.testing.assert_allclose(report.per_query_ap, [e[0] for e in expected],
                                   rtol=0, atol=1e-12)
        assert report.precision_at_k == pytest.approx(
            np.mean([e[2] for e in expected]), abs=1e-12)
        if k_map is not None:
            assert report.map_at_k == pytest.approx(
                np.mean([e[1] for e in expected]), abs=1e-12)

        # Every query on the whole row, and every query on its candidates,
        # in blocks of 7: the same bits.
        monkeypatch.setattr(evaluation, "RANK_BLOCK_BYTES", 7 * 8 * n_db)
        for ratio in (n_db + 1, 0):
            other = evaluate_routed(monkeypatch, queries, database, ratio,
                                    k_prec=k_prec, k_map=k_map)
            assert np.array_equal(other.per_query_ap, report.per_query_ap)
            assert (other.map, other.precision_at_k, other.map_at_k, other.n_skipped) == (
                report.map, report.precision_at_k, report.map_at_k, report.n_skipped)

    def test_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"evaluate started thread {thread.name}")

        rng = np.random.default_rng(29)
        labels = rng.integers(0, 100, 1000)
        codes = make_set(clustered_bits(rng, 1000, 64, pool=20), labels)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert evaluate(codes.take(slice(0, 50)), codes, k_prec=10).n_skipped == 0


class TestMapCurveAuc:
    def test_constant_curve(self):
        assert map_curve_auc([(0, 0.4), (10, 0.4), (20, 0.4)]) == pytest.approx(0.4)

    def test_triangle(self):
        assert map_curve_auc([(0, 0.0), (5000, 1.0)]) == pytest.approx(0.5)

    def test_linear_ramp_matches_closed_form(self):
        points = [(i, i / 4) for i in range(5)]
        assert map_curve_auc(points) == pytest.approx(0.5, abs=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            map_curve_auc([(0, 0.5)])

    def test_non_increasing_x_rejected(self):
        with pytest.raises(ValueError):
            map_curve_auc([(0, 0.1), (0, 0.2)])
