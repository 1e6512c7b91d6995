"""The distinct-row index of a corpus, and the max-separated-pair table built
on it, agree exactly with the per-message oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from protoabs.metric import DiagonalMetric, max_separated_pair
from protoabs.model import Corpus, Message

PROPERTY = settings(max_examples=300, deadline=None)

# few symbols per field, so messages repeat and distances tie
field_rows = st.integers(1, 5).flatmap(
    lambda arity: st.lists(
        st.tuples(*[st.sampled_from(["a", "b", "c"])] * arity), min_size=1, max_size=30
    )
)
weight = st.one_of(
    st.floats(0.0, 10.0),
    st.integers(0, 3).map(float),  # integer weights: many equal sums
    st.just(0.0),
)


def corpus_of(rows):
    return Corpus([Message(r, source_id="m%d" % i) for i, r in enumerate(rows)], len(rows[0]))


@PROPERTY
@given(field_rows)
def test_corpus_encoding_matches_per_message_oracle(rows):
    corpus = corpus_of(rows)
    vocabulary, codes, lex_rank = oracles.encode_messages(corpus.messages, corpus.arity)
    assert corpus.vocabulary == vocabulary
    assert corpus.codes.dtype == codes.dtype
    assert np.array_equal(corpus.codes, codes)
    assert len(corpus.lex_rank) == len(lex_rank)
    assert all(np.array_equal(a, b) for a, b in zip(corpus.lex_rank, lex_rank))
    assert np.array_equal(corpus.codes, corpus.unique_codes[corpus.row_ids])
    # one row id per distinct tuple, numbered in first-occurrence order
    _, first = np.unique(corpus.row_ids, return_index=True)
    assert np.array_equal(corpus.row_ids[np.sort(first)], np.arange(first.size))
    assert first.size == len(set(rows)) == len(np.unique(corpus.unique_codes, axis=0))


@PROPERTY
@given(field_rows, st.data())
def test_max_separated_pair_matches_brute_force(rows, data):
    corpus = corpus_of(rows)
    n = len(rows)
    members = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    weights = data.draw(st.lists(weight, min_size=corpus.arity, max_size=corpus.arity))
    m = DiagonalMetric(np.array(weights))
    assert max_separated_pair(members, corpus, m) == oracles.max_separated_pair(members, corpus, m)


@pytest.mark.parametrize("rows, members, weights", [
    ([("a", "b"), ("c", "d")], [1], [1.0, 1.0]),                       # singleton
    ([("a", "b")] * 4, [3, 1, 2], [1.0, 2.0]),                         # all identical
    ([("a", "b"), ("c", "b"), ("a", "b")], [0, 1, 2], [0.0, 1.0]),     # zero max, 2 rows
    ([("a", "b"), ("a", "b"), ("c", "d")], [2, 0, 1], [0.0, 0.0]),     # zero weights
    ([("a", "b"), ("c", "b"), ("a", "d"), ("c", "d")], [3, 2, 1, 0], [1.0, 1.0]),  # ties
])
def test_max_separated_pair_edge_cases(rows, members, weights):
    corpus = corpus_of(rows)
    m = DiagonalMetric(np.array(weights))
    assert max_separated_pair(members, corpus, m) == oracles.max_separated_pair(members, corpus, m)
