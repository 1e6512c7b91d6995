import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from protoabs.errors import EmptyCorpus
from protoabs.model import (
    ABSENT,
    Corpus,
    LabelVector,
    Message,
    build_corpus,
    json_indented,
    json_ints,
)


def test_padding_to_arity():
    corpus = build_corpus([["t1", "t2"]], arity=3)
    assert corpus.messages[0].fields == ("t1", "t2", ABSENT)


def test_truncation_keeps_first_32_tokens():
    tokens = ["f%d" % i for i in range(40)]
    corpus = build_corpus([tokens], arity=32)
    assert corpus.messages[0].fields == tuple(tokens[:32])


def test_identical_raw_messages_yield_equal_messages():
    corpus = build_corpus([["a", "b"], ["a", "b"]], arity=2)
    assert len(corpus) == 2
    assert corpus.messages[0].fields == corpus.messages[1].fields


def test_empty_input_rejected():
    with pytest.raises(EmptyCorpus):
        build_corpus([], arity=3)


def test_reserved_padding_token_rejected_in_input():
    with pytest.raises(ValueError):
        build_corpus([["a", ABSENT]], arity=3)


def test_message_equal_basic():
    a = Message(("x", "y", ABSENT), source_id="s1")
    b = Message(("x", "y", ABSENT), source_id="s2")
    c = Message(("x", "y", "z"))
    assert a.fields == b.fields  # source_id excluded
    assert a.fields != c.fields  # differs in the pad position


def test_build_corpus_deterministic():
    raw = [["a", "b"], ["c"], ["a", "d"]]
    c1 = build_corpus(raw, arity=3)
    c2 = build_corpus(raw, arity=3)
    assert c1.vocabulary == c2.vocabulary
    assert all(m1.fields == m2.fields for m1, m2 in zip(c1.messages, c2.messages))
    assert np.array_equal(c1.codes, c2.codes)


def test_vocabulary_covers_every_symbol():
    corpus = build_corpus([["a", "b"], ["c"]], arity=2)
    assert set(corpus.vocabulary[0]) == {"a", "c"}
    assert set(corpus.vocabulary[1]) == {"b", ABSENT}


def test_equality_iff_zero_mismatch_count():
    rng = np.random.default_rng(7)
    raw = [[("tok%d" % rng.integers(3)) for _ in range(4)] for _ in range(30)]
    corpus = build_corpus(raw, arity=4)
    for i in range(0, 30, 3):
        for j in range(0, 30, 3):
            a, b = corpus.messages[i], corpus.messages[j]
            mismatches = int((corpus.codes[i] != corpus.codes[j]).sum())
            assert (a.fields == b.fields) == (mismatches == 0)


def test_corpus_roundtrip():
    corpus = build_corpus([["a", "b"], ["c"]], arity=3)
    again = Corpus.from_dict(corpus.to_dict())
    assert again.arity == corpus.arity
    assert again.vocabulary == corpus.vocabulary
    assert [m.fields for m in again.messages] == [m.fields for m in corpus.messages]
    assert [m.source_id for m in again.messages] == [m.source_id for m in corpus.messages]


def test_label_vector_validation():
    with pytest.raises(ValueError):
        LabelVector(labels=(0, 5), n_classes=3)
    lv = LabelVector(labels=(0, 2, -1), n_classes=3)
    assert len(lv) == 3
    assert LabelVector.from_dict(lv.to_dict()) == lv


def test_label_vector_names_the_first_bad_label():
    with pytest.raises(ValueError, match=r"label 7 out of range 0\.\.2"):
        LabelVector(labels=(0, 7, -2, 7), n_classes=3)
    with pytest.raises(ValueError, match=r"label nan out of range"):
        LabelVector(labels=(1, float("nan")), n_classes=3)


def test_json_ints_names_the_first_non_integer():
    assert json_ints([0, -3, 2**70], "x") == [0, -3, 2**70]
    with pytest.raises(ValueError, match=r"^x: True is not an integer$"):
        json_ints([1, True, 1.5], "x")
    with pytest.raises(ValueError, match=r"^x: 1\.5 is not an integer$"):
        json_ints([1, 1.5, True], "x")


# strings with quotes, backslashes, control characters, non-ASCII and
# characters outside the BMP, which ASCII output escapes as surrogate pairs
json_text = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\n\t\x00\x7fé\u2028😀')), max_size=8
)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**70, 2**70), json_text,
    st.floats(), st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf"), 1e300]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(json_text, inner, max_size=6),
    ),
    max_leaves=25,
)


@settings(max_examples=100, deadline=None)
@given(json_values)
def test_json_indented_equals_the_stdlib(obj):
    assert json_indented(obj) == oracles.json_indented(obj)


def test_json_indented_rejects_non_json_values_and_non_str_keys():
    for bad in ({1: "int key"}, [np.int64(1)], {"a": [object()]}):
        with pytest.raises(TypeError):
            json_indented(bad)
