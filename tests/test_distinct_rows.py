"""A corpus is its distinct rows.  Whatever parts it is built from (duplicate
rows, unused rows, rows out of first-occurrence order), its distinct-row
index equals the per-message oracle; the original form of one corpus and
the file that `save_corpus` writes of it load to equal corpora; rule
labeling over rows equals the per-message pass; and the max-separated-pair
table built on the rows agrees exactly with the brute-force one."""

import os
import tempfile
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from protoabs import metric
from protoabs.corpus_tools import AbstractionRule, apply_rules, load_corpus, save_corpus
from protoabs.errors import UnmatchedMessage
from protoabs.metric import DiagonalMetric, max_separated_pair
from protoabs.model import ABSENT, Corpus, Message, build_corpus

PROPERTY = settings(max_examples=300, deadline=None)
FEWER_EXAMPLES = settings(max_examples=100, deadline=None)  # tier-1 time

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
    return build_corpus(rows, arity=len(rows[0]))


def messages_of(rows):
    return [Message(tuple(r), "m%d" % i) for i, r in enumerate(rows)]


def assert_equals_oracle(corpus, messages):
    want = oracles.per_message_corpus(messages, len(messages[0].fields))
    assert corpus.rows == want.rows
    assert corpus.vocabulary == want.vocabulary
    for name in ("unique_codes", "row_ids", "codes"):
        got, expected = getattr(corpus, name), getattr(want, name)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), name
    for name in ("unique_codes", "row_ids", "offsets"):
        assert not getattr(corpus, name).flags.writeable, name
    assert corpus.unique_codes.flags.c_contiguous
    # row by row, column offsets[f] + c of each code c names the row's token at f
    columns = [(f, tok) for f, vocab in enumerate(want.vocabulary) for tok in vocab]
    assert corpus.offsets.tolist() == np.cumsum([0] + [len(v) for v in want.vocabulary]).tolist()
    for row, codes in zip(corpus.rows, corpus.unique_codes.tolist()):
        assert [columns[corpus.offsets[f] + c] for f, c in enumerate(codes)] == list(enumerate(row))
    assert corpus.source_ids == want.source_ids
    assert corpus.messages == tuple(messages)


def non_canonical_corpus(data, messages):
    """A corpus of `messages` built from parts that list each distinct row
    one to three times, add unused rows and put them all in a drawn order;
    each message points at one copy of its row."""
    arity, n = len(messages[0].fields), len(messages)
    distinct = list(dict.fromkeys(m.fields for m in messages))
    times = data.draw(st.lists(st.integers(1, 3), min_size=len(distinct), max_size=len(distinct)))
    unused = data.draw(st.lists(st.tuples(*[st.sampled_from(["a", "d"])] * arity), max_size=3))
    rows = data.draw(st.permutations(
        [row for row, t in zip(distinct, times) for _ in range(t)] + unused
    ))
    copies = {row: [r for r, other in enumerate(rows) if other == row] for row in distinct}
    picks = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    row_ids = [copies[m.fields][p % len(copies[m.fields])] for m, p in zip(messages, picks)]
    return Corpus([list(row) for row in rows], row_ids, arity, [m.source_id for m in messages])


@PROPERTY
@given(field_rows, st.data())
def test_corpus_encoding_matches_per_message_oracle(rows, data):
    messages = messages_of(rows)
    corpus = non_canonical_corpus(data, messages)
    assert_equals_oracle(corpus, messages)
    built = build_corpus(rows, arity=len(rows[0]), source_ids=[m.source_id for m in messages])
    assert_equals_oracle(built, messages)
    vocabulary, codes = oracles.encode_messages(corpus.messages, corpus.arity)
    assert corpus.vocabulary == vocabulary
    assert corpus.codes.dtype == codes.dtype
    assert np.array_equal(corpus.codes, codes)
    assert np.array_equal(corpus.codes, corpus.unique_codes[corpus.row_ids])
    # one row id per distinct tuple, numbered in first-occurrence order
    _, first = np.unique(corpus.row_ids, return_index=True)
    assert np.array_equal(corpus.row_ids[np.sort(first)], np.arange(first.size))
    assert first.size == len(set(rows)) == len(np.unique(corpus.unique_codes, axis=0))


def original_form(messages):
    """The corpus file as written before format 2: one indented object per
    message."""
    return oracles.json_indented({
        "arity": len(messages[0].fields),
        "messages": [{"fields": list(m.fields), "source_id": m.source_id} for m in messages],
    }) + "\n"


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@FEWER_EXAMPLES
@given(field_rows, st.data())
def test_row_renumbering_matches_dict_oracle(rows, data):
    """Rows listed any number of times, some used by no message: the corpus
    keeps the used ones in the order the messages first use them."""
    row_ids = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=40))
    corpus = Corpus(rows, row_ids, len(rows[0]), ["m%d" % i for i in range(len(row_ids))])
    want_rows, want_ids = oracles.renumber_rows(rows, row_ids)
    assert corpus.rows == want_rows
    assert corpus.row_ids.dtype == want_ids.dtype and np.array_equal(corpus.row_ids, want_ids)


@pytest.mark.parametrize("n_rows", [256, 257, 65537])
def test_row_renumbering_across_key_widths(n_rows):
    """Row keys are sorted in the narrowest integer type that holds them:
    8 bits up to 256 rows, then 16 and 32."""
    rows = [("r%d" % r,) for r in range(n_rows)]
    row_ids = np.random.default_rng(n_rows).integers(0, n_rows, size=2 * n_rows)
    row_ids[-1] = n_rows - 1
    corpus = Corpus(rows, row_ids, 1, ["m%d" % i for i in range(row_ids.size)])
    want_rows, want_ids = oracles.renumber_rows(rows, row_ids)
    assert corpus.rows == want_rows
    assert corpus.row_ids.dtype == want_ids.dtype and np.array_equal(corpus.row_ids, want_ids)


@FEWER_EXAMPLES
@given(field_rows)
def test_original_and_format_2_files_load_equal(rows):
    messages = messages_of(rows)
    with tempfile.TemporaryDirectory() as root:
        original, compact, again = (os.path.join(root, name) for name in "abc")
        with open(original, "w", encoding="utf-8") as fh:
            fh.write(original_form(messages))
        loaded = load_corpus(original)
        assert_equals_oracle(loaded, messages)
        save_corpus(loaded, compact)
        assert_equals_oracle(load_corpus(compact), messages)
        save_corpus(load_corpus(compact), again)
        assert read(again) == read(compact)


# KEY=VALUE tokens for rules to test, listed out of lexicographic order
TOKENS = ["B=1", "A=2", "A=1", "B=", ABSENT]


@st.composite
def labeling_problems(draw):
    """Messages drawn from a pool of at most four distinct rows, and one to
    four rules with contiguous class ids whose terms test a key, a key with
    any value, or a token at a position."""
    arity = draw(st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*[st.sampled_from(TOKENS)] * arity), min_size=1, max_size=4))
    messages = messages_of(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30)))
    n = draw(st.integers(1, 4))
    j = draw(st.integers(1, n))
    term = st.one_of(
        st.tuples(st.sampled_from(["A", "B", "C"]), st.sampled_from(["1", "2", "", "*"])),
        st.tuples(st.integers(0, arity), st.sampled_from(TOKENS)),
    )
    rules = [
        AbstractionRule(i % j, draw(st.integers(0, 2)),
                        tuple(draw(st.lists(term, min_size=1, max_size=2))))
        for i in range(n)
    ]
    return messages, rules


@FEWER_EXAMPLES
@given(labeling_problems())
def test_apply_rules_over_rows_equals_the_per_message_pass(problem):
    messages, rules = problem
    corpus = Corpus([m.fields for m in messages], range(len(messages)),
                    len(messages[0].fields), [m.source_id for m in messages])
    try:
        want = oracles.apply_rules(corpus, rules)
    except UnmatchedMessage as e:
        with pytest.raises(UnmatchedMessage) as got:
            apply_rules(corpus, rules)
        assert str(got.value) == str(e)
    else:
        assert apply_rules(corpus, rules) == want


@PROPERTY
@given(field_rows, st.data())
def test_max_separated_pair_matches_brute_force(rows, data):
    """Blocks of one to three rows run the scan across blocks and its stop
    at the bound; weights of 0 and 1e6 make ties and dominant fields.  A
    block of r rows compares r x len(members) x F' entries, F' the number
    of fields on which the members differ."""
    corpus = corpus_of(rows)
    n = len(rows)
    members = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    weights = data.draw(st.lists(st.sampled_from([0.0, 1e6]) | weight,
                                 min_size=corpus.arity, max_size=corpus.arity))
    m = DiagonalMetric(np.array(weights))
    x = corpus.codes[members]
    varying = max(1, int((x != x[0]).any(axis=0).sum()))
    block = data.draw(st.integers(1, 3)) * len(members) * varying
    with patch.object(metric, "PAIR_BLOCK", block):
        got = max_separated_pair(members, corpus, m)
    assert got == oracles.max_separated_pair(members, corpus, m)


def test_max_separated_pair_scans_on_below_the_bound():
    """With one row per block (3 columns x 2 fields), row 0's best pair is
    at 1e6, just below the bound 1e6 + 1, so the scan goes on to the pair
    of rows 1 and 2."""
    corpus = corpus_of([("a", "a"), ("a", "b"), ("b", "a")])
    with patch.object(metric, "PAIR_BLOCK", 6):
        got = max_separated_pair([0, 1, 2], corpus, DiagonalMetric(np.array([1.0, 1e6])))
    assert got == metric.MaxPair(1, 2, 1e6 + 1)


@pytest.mark.parametrize("block", [None, 2 * 16], ids=["default", "one-row"])
def test_max_separated_pair_adds_the_fields_in_order(block):
    """Two rows that differ on 16 fields weighted 1.0 and then 2^-53 each:
    added in field order every small weight rounds away and the total is
    1.0, while numpy's pairwise sum along a fast axis gives
    1.0000000000000016."""
    corpus = corpus_of([("a",) * 16, ("b",) * 16])
    weights = [1.0] + [2.0**-53] * 15
    in_order = 0.0
    for w in weights:
        in_order += w
    m = DiagonalMetric(np.array(weights))
    with patch.object(metric, "PAIR_BLOCK", block or metric.PAIR_BLOCK):
        got = max_separated_pair([0, 1], corpus, m)
    assert in_order == 1.0 and np.add.reduce(m.weights) == 1.0000000000000016
    assert got.sq_distance == in_order
    assert got == oracles.max_separated_pair([0, 1], corpus, m)


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
