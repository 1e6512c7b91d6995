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
    _dispersion,
    _mode_rows,
    _State,
    _repair_empty_clusters,
    _row_counts,
    _seed_centroids,
    _token_counts,
)
from protoabs.constraints import LabeledSample, constraints_from_labels
from protoabs.errors import EmptyCluster
from protoabs.metric import DiagonalMetric
from protoabs.model import build_corpus

PROPERTY = settings(max_examples=200, deadline=None)


@st.composite
def corpora(draw):
    """A corpus of messages drawn from a pool of at most four distinct rows,
    each field over one symbol or over two listed out of lexicographic
    order, so rows repeat and per-field counts tie."""
    arity = draw(st.integers(1, 4))
    symbols = [draw(st.sampled_from([["b", "a"], ["c"]])) for _ in range(arity)]
    pool = draw(st.lists(
        st.tuples(*(st.sampled_from(s) for s in symbols)).map(list), min_size=1, max_size=4,
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


def modes(corpus, assignments, k):
    counts = _row_counts(corpus, corpus.row_ids, assignments, k)
    return _mode_rows(corpus, _token_counts(corpus, counts))


@PROPERTY
@given(corpora(), st.data())
def test_modes_match_per_member_oracle(corpus, data):
    """Rows fall into clusters as drawn or, split, every cluster also holds
    one more message of every distinct row, so all u x K cells are occupied."""
    n = len(corpus)
    k = data.draw(st.integers(1, n))
    assignments = cover(data.draw, n, k)
    if data.draw(st.booleans()):
        rows = corpus.rows
        raw = [rows[r] for r in corpus.row_ids.tolist()] + [row for _ in range(k) for row in rows]
        assignments = np.concatenate([assignments, np.repeat(np.arange(k), len(rows))])
        corpus = build_corpus(raw, arity=corpus.arity)
        counts = _row_counts(corpus, corpus.row_ids, assignments, k)
        assert np.count_nonzero(counts) == len(rows) * k
    got = modes(corpus, assignments, k)
    assert got.dtype == np.int32 and np.array_equal(got, oracles.mode_rows(corpus, assignments, k))


def test_modes_break_a_tie_for_the_smaller_token():
    """Cluster 0 holds "b" and "a" twice each at field 0, "b" first."""
    corpus = build_corpus([["b", "q"], ["a", "q"], ["b", "p"], ["a", "q"], ["c", "p"]], arity=2)
    got = modes(corpus, np.array([0, 0, 0, 0, 1]), 2)
    assert [corpus.decode(row) for row in got] == [("a", "q"), ("c", "p")]


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
    tokens = _token_counts(corpus, _row_counts(corpus, corpus.row_ids, assignments, k))
    sizes, got = _dispersion(corpus, tokens, cent)
    assert np.array_equal(sizes, np.bincount(assignments, minlength=k))
    assert np.array_equal(got, oracles.dispersion(corpus, assignments, cent))


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
    # labelled points are constrained, and a pick avoids them when it can
    labeled = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 1)),
                                 max_size=n, unique_by=lambda s: s[0]))
    cs = constraints_from_labels([LabeledSample(i, c) for i, c in labeled])
    state = _State(corpus, k, cent.copy(), weights, assignments.copy(), cs, None)
    try:
        want = oracles.repair_empty_clusters(corpus, assignments, cent, weights, cs.points)
    except EmptyCluster:
        with pytest.raises(EmptyCluster):
            _repair_empty_clusters(state)
        return
    _repair_empty_clusters(state)
    assert np.array_equal(state.assignments, want[0])
    # repair writes no centroid; a reseeded cluster holds its pick alone,
    # so its mode is the pick's row, the oracle's new centroid
    reseeded = np.flatnonzero(np.bincount(assignments, minlength=k) == 0)
    assert np.array_equal(modes(corpus, state.assignments, k)[reseeded], want[1][reseeded])


def assert_max_pairs_match_oracle(corpus, assignments, metrics):
    """The table's squared distances, and the fields on which each cluster's
    pair mismatches, equal those of the brute force over all members."""
    ctx = PenaltyContext.build(corpus, assignments, metrics)
    assert ctx.maxd2.tolist() == oracles.max_pair_distances(corpus, assignments, metrics)
    assert np.array_equal(ctx.far, oracles.max_pair_fields(corpus, assignments, metrics))


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
