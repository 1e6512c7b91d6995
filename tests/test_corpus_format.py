"""corpus.json format 3: each per-message integer array is one base64
string of little-endian unsigned integers of the narrowest width that
holds its maximum, and a corpus named by an `IdRule` stores the rule.  A
corpus saved in format 3, by rule or by strings, loads back equal to
itself, and so does its format-2 rendering (`oracles.corpus_format2`)."""

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from protoabs.model import Corpus, IdRule, decode_uints, encode_uints
from test_count_matrix import corpora


@pytest.mark.parametrize("top,width", [
    (0, 1), (255, 1), (256, 2), (65535, 2), (65536, 4), (2**32 - 1, 4), (2**32, 8),
    (2**64 - 1, 8),
])
def test_integers_take_the_narrowest_width_that_holds_their_maximum(top, width):
    values = np.array([top // 2, top, 0], dtype=np.uint64)
    obj = encode_uints(values)
    assert obj["uint"] == width
    assert base64.b64decode(obj["base64"]) == values.astype("<u%d" % width).tobytes()
    back = decode_uints(json.loads(json.dumps(obj)), "values")
    assert back.tolist() == values.tolist()
    assert not back.flags.writeable


def test_an_empty_array_is_an_empty_payload():
    assert encode_uints(np.zeros(0, dtype=np.int64)) == {"uint": 1, "base64": ""}
    assert decode_uints({"uint": 8, "base64": ""}, "values").size == 0


@pytest.mark.parametrize("group,number,match", [
    ([0, 1], [0, 0], r"^source id group values must be >= 0 and < 1$"),
    ([-1], [0], r"^source id group values"),
    ([0], [-1], r"^source id number values"),
    ([0], [2**63], r"^source id number values must be >= 0 and < 9223372036854775808$"),
    ([0, 0], [0], r"^2 source id groups for 1 numbers$"),
])
def test_an_id_rule_names_only_what_it_can_store(group, number, match):
    with pytest.raises(ValueError, match=match):
        IdRule(["p"], group, number)


@st.composite
def named_corpora(draw):
    """A drawn corpus and an `IdRule` for its messages: one to three
    prefixes, and numbers up to 2^63 - 1, so that every width is met."""
    corpus = draw(corpora())
    n = len(corpus)
    prefixes = draw(st.lists(st.text(max_size=3), min_size=1, max_size=3))
    group = draw(st.lists(st.integers(0, len(prefixes) - 1), min_size=n, max_size=n))
    number = draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n))
    return corpus, IdRule(prefixes, group, number)


def through_json(d):
    return Corpus.from_dict(json.loads(json.dumps(d, sort_keys=True)))


@settings(max_examples=100, deadline=None)
@given(named_corpora())
def test_format_3_round_trips_by_rule_and_by_strings(case):
    drawn, rule = case
    for ids in (rule, list(rule)):
        corpus = Corpus(drawn.rows, drawn.row_ids, drawn.arity, ids)
        d = corpus.to_dict()
        assert d["format"] == 3
        assert isinstance(d["source_ids"], dict) == isinstance(ids, IdRule)
        for back in (through_json(d), through_json(oracles.corpus_format2(corpus))):
            assert back.arity == corpus.arity and back.rows == corpus.rows
            assert np.array_equal(back.row_ids, corpus.row_ids)
            assert back.source_ids == corpus.source_ids == tuple(rule)
