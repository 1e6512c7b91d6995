"""Per-cluster statistics computed from the (distinct rows, K) count matrix
agree exactly with the per-member oracles on corpora with many duplicate
rows and tied counts: modes, seeds, the metric-update dispersion and the
empty-cluster repair pick.  The grouping of cluster members agrees with a
per-cluster scan.  The metric update as a whole is checked in
test_array_core.py."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from protoabs.clustering import (
    _State,
    _members_by_cluster,
    _repair_empty_clusters,
    _row_counts,
    _seed_centroids,
    update_centroids,
)
from protoabs.constraints import ConstraintSet, LabeledSample, constraints_from_labels
from protoabs.errors import EmptyCluster
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
    assert np.array_equal(state.cent, want[1])


# fewer examples: one grouping for 65 536 clusters takes about 30 ms
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 255, 256, 257, 65535, 65536, 65537]), st.data())
def test_member_groups_match_per_cluster_scan(k, data):
    """Ids narrowed to uint8, uint16 or uint32 on either side of each limit,
    most clusters empty; grouping the same ids for k + 1 clusters regroups."""
    ids = st.one_of(st.integers(0, k - 1), st.sampled_from([0, k // 2, k - 1]))
    assignments = np.array(data.draw(st.lists(ids, max_size=12)), dtype=np.int64)
    for kk in (k, k, k + 1):
        members = _members_by_cluster(assignments, kk)
        # every cluster's size, and the members of every non-empty one
        assert [m.size for m in members] == np.bincount(assignments, minlength=kk).tolist()
        for h in np.unique(assignments):
            assert np.array_equal(members[h], np.flatnonzero(assignments == h))


@pytest.mark.parametrize("assignments", [[0, 3], [-1, 0], [256]])
def test_member_groups_reject_ids_outside_the_clusters(assignments):
    with pytest.raises(ValueError):
        _members_by_cluster(np.array(assignments), 3)
