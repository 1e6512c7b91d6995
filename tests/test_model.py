import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from protoabs.corpus_tools import DecodedTrace, generate_synthetic, preprocess
from protoabs.errors import EmptyCorpus
from protoabs.model import (
    ABSENT,
    Corpus,
    LabelVector,
    Message,
    UNLABELED,
    build_corpus,
    json_indented,
    json_ints,
)
from protoabs.tls_default import default_synth_spec


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


def _synthetic():
    spec = default_synth_spec(n_messages=50000)
    corpus, labels = generate_synthetic(spec)
    names = [t.name for t in spec.class_templates]
    return corpus, ["synth:%s:%d" % (names[c], i) for i, c in enumerate(labels.labels)]


def _ingested():
    """Traces of 0 to 3 messages, 40 of their 60 messages sampled."""
    traces = [DecodedTrace(tuple((("K", ("t%d" % t,)), ("M", ("m%d" % m,)))
                                 for m in range(t % 4)))
              for t in range(40)]
    ids = ["trace%d:msg%d" % (t, m) for t, trace in enumerate(traces)
           for m in range(len(trace.messages))]
    order = np.random.default_rng(5).permutation(len(ids))[:40]
    return preprocess(traces, arity=3, sample_n=40, seed=5), [ids[i] for i in order]


def _built():
    raw = [["a", "b"], ["c"], ["a", "b"]] * 100
    return build_corpus(raw, arity=3), ["msg%d" % i for i in range(len(raw))]


@pytest.mark.parametrize("make", [_synthetic, _ingested, _built],
                         ids=["synthetic", "preprocess", "build_corpus"])
def test_ids_named_by_rule_read_as_the_strings(make):
    corpus, ids = make()
    want = Corpus(corpus.rows, corpus.row_ids, corpus.arity, ids)
    assert corpus.source_ids == want.source_ids == tuple(ids)
    for i in (0, 1, np.int64(len(ids) // 2), len(ids) - 1, -1):
        assert corpus.source_id(i) == want.source_id(i) == ids[i]
    assert corpus.messages == want.messages
    # one is saved with its rule, the other with the strings; both load back
    # as the same corpus
    loaded = [Corpus.from_dict(json.loads(json.dumps(c.to_dict()))) for c in (corpus, want)]
    for c in loaded:
        assert c.rows == corpus.rows and np.array_equal(c.row_ids, corpus.row_ids)
        assert c.source_ids == tuple(ids)


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


def test_label_vector_holds_a_read_only_int_array():
    lv = LabelVector(labels=[0, 2, -1], n_classes=3)
    assert lv.labels.dtype == np.int64 and not lv.labels.flags.writeable
    assert lv == LabelVector(labels=np.array([0, 2, -1], dtype=np.int8), n_classes=3)
    assert lv != LabelVector(labels=(0, 2, -1), n_classes=4)
    assert lv != LabelVector(labels=(0, 2, 2), n_classes=3)


def test_label_file_may_name_more_classes_than_labels():
    lv = LabelVector.from_dict({"n_classes": 2**40, "labels": [0, 1, -1]})
    assert lv.n_classes == 2**40 and lv.labels.tolist() == [0, 1, -1]
    assert LabelVector.from_dict(lv.to_dict()) == lv
    with pytest.raises(ValueError, match=r"^n_classes 9223372036854775808 does not fit int64$"):
        LabelVector.from_dict({"n_classes": 2**63, "labels": [0]})
    with pytest.raises(ValueError, match=r"^label 36893488147419103232 out of range 0\.\.2$"):
        LabelVector.from_dict({"n_classes": 3, "labels": [0, 2**65]})


# the largest stored value of a labels file (largest label plus one), and
# the width it is stored in: 0 when every message is unlabelled, and each
# width's last value and the next one's first
STORED_TOPS = {0: 1, 1: 1, 21: 1, 255: 1, 256: 2, 65535: 2, 65536: 4, 2**32 - 1: 4, 2**32: 8}


@st.composite
def label_vectors(draw):
    """Labels, some UNLABELED, whose stored maximum is one of STORED_TOPS,
    over up to three more classes than they use."""
    top = draw(st.sampled_from(sorted(STORED_TOPS)))
    values = draw(st.lists(st.integers(UNLABELED, top - 1), max_size=20))
    n_classes = draw(st.integers(max(top, 1), max(top, 1) + 3))
    return LabelVector(labels=values + [top - 1], n_classes=n_classes)


@settings(max_examples=200, deadline=None)
@given(label_vectors())
def test_labels_round_trip_through_both_formats(lv):
    """Format 2 stores each label plus one in the narrowest width; it and
    the format-1 rendering (`oracles.labels_format1`) load back equal."""
    d = lv.to_dict()
    assert d["format"] == 2
    assert d["labels"]["uint"] == STORED_TOPS[int(lv.labels.max()) + 1]
    for form in (d, oracles.labels_format1(lv)):
        back = LabelVector.from_dict(json.loads(json.dumps(form)))
        assert back == lv
        assert back.labels.dtype == np.int64 and not back.labels.flags.writeable


# ids, UNLABELED and negatives, ints beyond int64 either way, NaN and floats
LABEL_VALUES = st.one_of(
    st.integers(-3, 5),
    st.integers(2**63 - 2, 2**65) | st.integers(-2**65, -2**63 - 1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-2.0, 6.0),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(LABEL_VALUES, max_size=8), st.integers(-1, 4),
       st.sampled_from([tuple, list, np.array]))
def test_label_check_agrees_with_the_tuple_oracle(values, n_classes, form):
    """The array check accepts and rejects what the tuple-era check did,
    with its message; accepted labels are stored as int64, truncated as
    int() truncates a float."""
    labels = form(values)
    try:
        oracles.check_labels(labels, n_classes)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            LabelVector(labels=labels, n_classes=n_classes)
        assert str(got.value) == str(e)
        return
    lv = LabelVector(labels=labels, n_classes=n_classes)
    assert lv.labels.dtype == np.int64 and not lv.labels.flags.writeable
    assert lv.labels.tolist() == [int(v) for v in values]


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
