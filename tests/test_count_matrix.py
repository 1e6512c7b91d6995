"""Per-cluster statistics computed from the (distinct rows, K) count matrix
agree exactly with the per-member oracles on corpora with many duplicate
rows and tied counts: modes, seeds, the metric-update dispersion, the
empty-cluster repair pick and the max-separated-pair table, which sees one
member per distinct row of each cluster.  The metric update as a whole is
checked in test_array_core.py."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from protoabs.clustering import (
    PenaltyContext,
    _mode_rows,
    _State,
    _repair_empty_clusters,
    _row_counts,
    _seed_centroids,
    update_centroids,
)
from protoabs.constraints import ConstraintSet, LabeledSample, constraints_from_labels
from protoabs.errors import EmptyCluster
from protoabs.metric import DiagonalMetric, MaxPair
from protoabs.model import build_corpus

PROPERTY = settings(max_examples=200, deadline=None)


@st.composite
def corpora(draw):
    """A corpus of messages drawn from a pool of at most four distinct rows
    over two symbols listed out of lexicographic order, so rows repeat and
    per-field counts tie."""
    arity = draw(st.integers(1, 4))
    pool = draw(st.lists(
        st.lists(st.sampled_from(["b", "a"]), min_size=arity, max_size=arity),
        min_size=1, max_size=4,
    ))
    n = draw(st.integers(1, 24))
    raw = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))]
    return build_corpus(raw, arity=arity)


def cover(draw, n, k):
    """n cluster ids in [0, k) with every cluster non-empty (k <= n)."""
    ids = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    for h, i in enumerate(draw(st.permutations(range(n)))[:k]):
        ids[i] = h
    return np.array(ids, dtype=np.int64)


def label_constraints(draw, n):
    labeled = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    samples = [LabeledSample(i, draw(st.integers(0, 2))) for i in labeled]
    return constraints_from_labels(
        samples, w=draw(st.floats(0.0, 3.0)), w_bar=draw(st.floats(0.0, 3.0))
    )


@PROPERTY
@given(corpora(), st.data())
def test_modes_match_per_member_oracle(corpus, data):
    n = len(corpus)
    k = data.draw(st.integers(1, n))
    assignments = cover(data.draw, n, k)
    got = update_centroids(corpus, assignments, k)
    want = oracles.mode_rows(corpus, assignments, k)
    assert [c.fields for c in got] == [
        tuple(corpus.vocabulary[f][c] for f, c in enumerate(row)) for row in want
    ]


@PROPERTY
@given(corpora(), st.data())
def test_seeds_match_per_message_farthest_first(corpus, data):
    n = len(corpus)
    k = data.draw(st.integers(1, n))
    cs = label_constraints(data.draw, n)
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _seed_centroids(corpus, cs, k, rng_got)
    want = oracles.seed_centroids(corpus, cs, k, rng_want)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # the random first pick draws from the same stream
    assert rng_got.integers(2**62) == rng_want.integers(2**62)


@PROPERTY
@given(corpora(), st.data())
def test_dispersion_matches_per_member_oracle(corpus, data):
    n = len(corpus)
    k = data.draw(st.integers(1, n))
    assignments = np.array(data.draw(st.lists(
        st.integers(0, k - 1), min_size=n, max_size=n)), dtype=np.int64)
    cent = corpus.codes[np.array(data.draw(st.lists(
        st.integers(0, n - 1), min_size=k, max_size=k)))]
    state = _State(corpus, k, cent, np.ones((k, corpus.arity)), assignments, ConstraintSet(), None)
    got = state.dispersion(_row_counts(corpus, corpus.row_ids, assignments, k))
    want = oracles.dispersion(corpus, assignments, cent)
    assert np.array_equal(got, want)


def random_weights(draw, k, arity):
    weight = st.one_of(st.floats(0.05, 5.0), st.integers(1, 3).map(float))
    return np.array(draw(st.lists(
        st.lists(weight, min_size=arity, max_size=arity), min_size=k, max_size=k)))


@PROPERTY
@given(corpora(), st.data())
def test_repair_pick_matches_per_member_oracle(corpus, data):
    n = len(corpus)
    k = data.draw(st.integers(1, min(n + 2, 6)))
    # some clusters empty, some ids unused
    assignments = np.array(data.draw(st.lists(
        st.integers(0, k - 1), min_size=n, max_size=n)), dtype=np.int64)
    cent = corpus.codes[np.array(data.draw(st.lists(
        st.integers(0, n - 1), min_size=k, max_size=k)))]
    weights = random_weights(data.draw, k, corpus.arity)
    state = _State(corpus, k, cent.copy(), weights, assignments.copy(), ConstraintSet(), None)
    try:
        want = oracles.repair_empty_clusters(corpus, assignments, cent, weights)
    except EmptyCluster:
        with pytest.raises(EmptyCluster):
            _repair_empty_clusters(state)
        return
    _repair_empty_clusters(state)
    assert np.array_equal(state.assignments, want[0])
    # repair writes no centroid; a reseeded cluster holds its pick alone,
    # so its mode is the pick's row, the oracle's new centroid
    modes = _mode_rows(corpus, _row_counts(corpus, corpus.row_ids, state.assignments, k))
    reseeded = np.flatnonzero(np.bincount(assignments, minlength=k) == 0)
    assert np.array_equal(modes[reseeded], want[1][reseeded])


def assert_max_pairs_match_oracle(corpus, assignments, metrics):
    """The table's squared distances, and the fields on which each cluster's
    pair mismatches, equal those of the brute force over all members."""
    ctx = PenaltyContext.build(corpus, assignments, metrics)
    codes = corpus.codes
    want = []
    for h, m in enumerate(metrics):
        members = np.flatnonzero(assignments == h)
        want.append(oracles.max_separated_pair(members, corpus, m) if members.size
                    else MaxPair(-1, -1, 0.0))
    assert ctx.maxd2.tolist() == [p.sq_distance for p in want]
    for got, pair in zip(ctx.maxpairs, want):
        if pair.first < 0:
            assert got == pair
        else:
            assert np.array_equal(codes[got.first] != codes[got.second],
                                  codes[pair.first] != codes[pair.second])


@PROPERTY
@given(corpora(), st.data())
def test_max_pairs_match_the_oracle_over_all_members(corpus, data):
    """Positive weights, as in a run; clusters may be empty, hold one row,
    or share a row with another cluster."""
    n = len(corpus)
    k = data.draw(st.integers(1, 5))
    assignments = np.array(data.draw(st.lists(
        st.integers(0, k - 1), min_size=n, max_size=n)), dtype=np.int64)
    metrics = tuple(DiagonalMetric(w) for w in random_weights(data.draw, k, corpus.arity))
    assert_max_pairs_match_oracle(corpus, assignments, metrics)


def test_max_pairs_of_empty_single_row_and_split_row_clusters():
    """Cluster 0 is empty, cluster 1 holds one row three times, and row
    "a b" is split between clusters 2 and 3; cluster 2 holds row "a a" twice."""
    raw = [["b", "b"], ["a", "b"], ["b", "b"], ["a", "a"], ["b", "b"], ["a", "b"], ["b", "a"],
           ["a", "a"]]
    corpus = build_corpus(raw, arity=2)
    assignments = np.array([1, 2, 1, 2, 1, 3, 3, 2])
    assert_max_pairs_match_oracle(corpus, assignments, [DiagonalMetric(np.ones(2))] * 4)


@pytest.mark.parametrize("assignments", [[0, 3], [-1, 0], [256]])
def test_member_groups_reject_ids_outside_the_clusters(assignments):
    """A negative id would wrap in np.minimum.at rather than fail."""
    corpus = build_corpus([["a"]] * len(assignments), arity=1)
    with pytest.raises(ValueError):
        PenaltyContext.build(corpus, np.array(assignments), [DiagonalMetric(np.ones(1))] * 3)
