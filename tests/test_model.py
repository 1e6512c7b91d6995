import numpy as np
import pytest

from protoabs.errors import EmptyCorpus
from protoabs.model import ABSENT, Corpus, LabelVector, Message, build_corpus


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
