import math

import numpy as np
import pytest

from oracles import distance_sq, log_det, unit_metric, update_metric
from protoabs.clustering import (
    ClusterModel,
    PenaltyContext,
    _row_counts,
    _state_from_model,
    _token_counts,
    _update_weights,
)
from protoabs.constraints import ConstraintSet
from protoabs.errors import ArityMismatch, EmptyCluster
from protoabs.metric import DiagonalMetric, max_separated_pair
from protoabs.model import Message, build_corpus


def msg(*tokens):
    return Message(tuple(tokens))


def package_update(corpus, centroid):
    """The package's metric update for one cluster holding the whole corpus."""
    model = ClusterModel(
        k=1, centroids=(centroid,), metrics=(unit_metric(corpus.arity),),
        assignments=np.zeros(len(corpus), dtype=np.int64), objective=0.0,
    )
    ctx = PenaltyContext.build(corpus, model.assignments, model.metrics)
    state = _state_from_model(corpus, model, ConstraintSet(), ctx)
    counts = _row_counts(corpus, corpus.row_ids, state.assignments, 1)
    return _update_weights(state, _token_counts(corpus, counts))[0]


class TestDistance:
    def test_identity(self):
        m = DiagonalMetric(np.array([0.3, 7.0, 1.0]))
        a = msg("x", "y", "z")
        assert distance_sq(a, a, m) == 0.0

    def test_unit_weights_count_mismatches(self):
        m = unit_metric(3)
        assert distance_sq(msg("a", "b", "c"), msg("a", "X", "Y"), m) == 2.0

    def test_weighted_sum(self):
        m = DiagonalMetric(np.array([0.5, 2.0, 1.5]))
        # mismatches at positions 1 and 3
        assert distance_sq(msg("a", "b", "c"), msg("X", "b", "Y"), m) == pytest.approx(2.0)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            distance_sq(msg("a"), msg("a", "b"), unit_metric(2))

    def test_symmetry_and_monotonicity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            f = int(rng.integers(1, 6))
            a = msg(*("t%d" % rng.integers(3) for _ in range(f)))
            b = msg(*("t%d" % rng.integers(3) for _ in range(f)))
            w = rng.uniform(0.1, 2.0, size=f)
            m = DiagonalMetric(w)
            d = distance_sq(a, b, m)
            assert d == pytest.approx(distance_sq(b, a, m))
            # bumping any one weight never lowers the distance
            k = int(rng.integers(f))
            w2 = w.copy()
            w2[k] += 1.0
            assert distance_sq(a, b, DiagonalMetric(w2)) >= d


class TestLogDet:
    def test_unit(self):
        assert log_det(unit_metric(5)) == 0.0

    def test_e_weights(self):
        assert log_det(DiagonalMetric(np.full(3, math.e))) == pytest.approx(3.0)

    def test_cancellation(self):
        assert log_det(DiagonalMetric(np.array([2.0, 0.5]))) == pytest.approx(0.0)


class TestMaxSeparatedPair:
    def test_singleton(self):
        corpus = build_corpus([["a"], ["b"]], arity=1)
        pair = max_separated_pair([1], corpus, unit_metric(1))
        assert (pair.first, pair.second, pair.sq_distance) == (1, 1, 0.0)

    def test_three_points(self):
        corpus = build_corpus([["A"], ["A"], ["B"]], arity=1)
        pair = max_separated_pair([0, 1, 2], corpus, unit_metric(1))
        assert (pair.first, pair.second) == (0, 2)
        assert pair.sq_distance == 1.0

    def test_all_identical_tie_break(self):
        corpus = build_corpus([["A"], ["A"], ["A"]], arity=1)
        pair = max_separated_pair([0, 1, 2], corpus, unit_metric(1))
        assert (pair.first, pair.second, pair.sq_distance) == (0, 1, 0.0)

    def test_empty_domain(self):
        corpus = build_corpus([["a"]], arity=1)
        with pytest.raises(EmptyCluster):
            max_separated_pair([], corpus, unit_metric(1))

    def test_matches_naive_scan_and_is_deterministic(self):
        rng = np.random.default_rng(11)
        raw = [[("t%d" % rng.integers(3)) for _ in range(4)] for _ in range(20)]
        corpus = build_corpus(raw, arity=4)
        m = DiagonalMetric(rng.uniform(0.1, 2.0, size=4))
        pair = max_separated_pair(range(20), corpus, m)
        # independent O(n^2) scan over Message objects
        best = (-1.0, None)
        for i in range(20):
            for j in range(i + 1, 20):
                d = distance_sq(corpus.messages[i], corpus.messages[j], m)
                if d > best[0]:
                    best = (d, (i, j))
        assert (pair.first, pair.second) == best[1]
        assert pair.sq_distance == pytest.approx(best[0])
        again = max_separated_pair(range(20), corpus, m)
        assert again == pair


class TestUpdateMetric:
    def test_zero_dispersion_hits_upper_clamp(self):
        corpus = build_corpus([["a", "b"], ["a", "b"]], arity=2)
        m = update_metric(corpus, [0, 1], corpus.messages[0])
        assert np.allclose(m.weights, 1e6)
        assert np.array_equal(package_update(corpus, corpus.messages[0]), m.weights)

    def test_two_point_cluster_single_mismatch(self):
        corpus = build_corpus([["a", "b"], ["X", "b"]], arity=2)
        centroid = corpus.messages[0]
        m = update_metric(corpus, [0, 1], centroid)
        # field 0: dispersion 1 -> weight 2/1; field 1: zero dispersion -> clamp
        assert m.weights[0] == pytest.approx(2.0)
        assert m.weights[1] == pytest.approx(1e6)
        assert np.array_equal(package_update(corpus, centroid), m.weights)

    def test_violation_tally_added(self):
        corpus = build_corpus([["a", "b"], ["X", "b"]], arity=2)
        centroid = corpus.messages[0]
        # one violated must-link mismatching at field 0, w=2 -> tally (w/2)*1 = 1
        m = update_metric(corpus, [0, 1], centroid, violations=np.array([1.0, 0.0]))
        assert m.weights[0] == pytest.approx(2.0 / 2.0)

    def test_empty_cluster(self):
        corpus = build_corpus([["a"]], arity=1)
        with pytest.raises(EmptyCluster):
            update_metric(corpus, [], corpus.messages[0])

    def test_hand_computed_small_instances(self):
        # 3 points, centroid = first; per-field dispersion computed by hand
        corpus = build_corpus([["a", "b", "c"], ["a", "X", "c"], ["Y", "X", "c"]], arity=3)
        m = update_metric(corpus, [0, 1, 2], corpus.messages[0])
        assert m.weights[0] == pytest.approx(3.0 / 1.0)
        assert m.weights[1] == pytest.approx(3.0 / 2.0)
        assert m.weights[2] == pytest.approx(1e6)
        assert np.array_equal(package_update(corpus, corpus.messages[0]), m.weights)
