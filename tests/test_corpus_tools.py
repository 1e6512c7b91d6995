import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from protoabs.corpus_tools import (
    ClassTemplate,
    DecodedTrace,
    SynthSpec,
    apply_rules,
    flatten_message,
    generate_synthetic,
    load_corpus,
    load_labels,
    parse_rule_lines,
    parse_trace_lines,
    preprocess,
    save_corpus,
    save_labels,
    serialize_traces,
    write_atomic,
)
from protoabs.errors import (
    BadSpec,
    EmptyCorpus,
    ParseError,
    SampleTooLarge,
    UnmatchedMessage,
)
from protoabs.model import ABSENT, LabelVector, build_corpus
from protoabs.tls_default import default_rules, default_synth_spec

SAMPLE_TRACE = """\
# decoded handshake snippet
HANDSHAKE-IN CLIENTHELLO
VERSION TLS_1_2
RANDOM 6a8f0e
CIPHERSUITES TLS_RSA_WITH_AES_128_CBC_SHA256 TLS_RSA_WITH_AES_256_CBC_SHA

HANDSHAKE-OUT SERVERHELLO
VERSION TLS_1_2
SESSIONID 77aa

--
ALERT-IN CLOSENOTIFY
LEVEL WARNING
--
"""


class TestTraceParsing:
    def test_sample_trace(self):
        traces = parse_trace_lines(SAMPLE_TRACE.splitlines())
        assert len(traces) == 2
        first = traces[0].messages[0]
        assert first[0] == ("HANDSHAKE-IN", ("CLIENTHELLO",))
        assert first[3] == (
            "CIPHERSUITES",
            ("TLS_RSA_WITH_AES_128_CBC_SHA256", "TLS_RSA_WITH_AES_256_CBC_SHA"),
        )
        assert len(traces[0].messages) == 2

    def test_blank_line_separates_messages(self):
        traces = parse_trace_lines(["K1 a", "", "K2 b", "--"])
        assert len(traces[0].messages) == 2

    def test_key_without_value(self):
        traces = parse_trace_lines(["SERVERHELLODONE", "--"])
        rows = traces[0].messages[0]
        assert rows == (("SERVERHELLODONE", ()),)
        assert flatten_message(rows) == ["SERVERHELLODONE="]

    def test_malformed_key(self):
        with pytest.raises(ParseError) as err:
            parse_trace_lines(["BAD=KEY value"])
        assert "line 1" in str(err.value)

    def test_empty_file(self):
        with pytest.raises(EmptyCorpus):
            parse_trace_lines(["# nothing", ""])

    def test_roundtrip(self):
        traces = parse_trace_lines(SAMPLE_TRACE.splitlines())
        text = serialize_traces(traces)
        assert parse_trace_lines(text.splitlines()) == traces


KEYS = st.text("ABCZ019-_#", min_size=1, max_size=5).filter(
    lambda key: key[0] != "#" and key != "--")
VALUES = st.text("abz09=#-_.", min_size=1, max_size=4)
PADDING = st.text(" \t\r\x1c", max_size=2)
MESSAGES = st.lists(st.tuples(KEYS, st.lists(VALUES, max_size=3).map(tuple)),
                    min_size=1, max_size=4).map(tuple)
TRACES = st.lists(st.lists(MESSAGES, min_size=1, max_size=3).map(
    lambda messages: DecodedTrace(messages=tuple(messages))), min_size=1, max_size=3)


def noisy_lines(draw, text):
    """The lines of `text` with comment lines anywhere, extra blank lines
    after each message or trace end and whitespace around every line."""
    lines = []
    for line in text.splitlines():
        lines += draw(st.lists(st.sampled_from(["#", "# K v", "#--", " # x=y"]), max_size=1))
        lines.append(draw(PADDING) + line + draw(PADDING))
        if line in ("", "--"):
            lines += draw(st.lists(PADDING, max_size=2))
    return lines


@settings(max_examples=200, deadline=None)
@given(TRACES, st.data())
def test_serialized_traces_parse_back_through_comments_and_whitespace(traces, data):
    lines = noisy_lines(data.draw, serialize_traces(traces))
    assert parse_trace_lines(lines) == traces
    # a key holding '=' is reported at its line
    bad = data.draw(st.integers(0, len(lines)))
    lines.insert(bad, "K=%s v" % data.draw(VALUES))
    with pytest.raises(ParseError) as err:
        parse_trace_lines(lines)
    assert err.value.line_no == bad + 1


class TestPreprocess:
    def test_drop_keys_filtered(self):
        traces = parse_trace_lines(SAMPLE_TRACE.splitlines())
        corpus = preprocess(traces, arity=8)
        for m in corpus.messages:
            for tok in m.fields:
                assert not tok.startswith("RANDOM=")
                assert not tok.startswith("SESSIONID=")

    def test_multi_value_rows_expand_positionally(self):
        traces = parse_trace_lines(SAMPLE_TRACE.splitlines())
        corpus = preprocess(traces, arity=8, seed=0)
        ch = next(
            m for m in corpus.messages
            if m.fields[0] == "HANDSHAKE-IN=CLIENTHELLO"
        )
        assert "CIPHERSUITES=TLS_RSA_WITH_AES_128_CBC_SHA256" in ch.fields
        assert "CIPHERSUITES=TLS_RSA_WITH_AES_256_CBC_SHA" in ch.fields

    def test_truncation(self):
        traces = parse_trace_lines(
            ["HEAD x"] + ["K%d v" % i for i in range(50)] + ["--"]
        )
        corpus = preprocess(traces, arity=32)
        assert corpus.arity == 32
        assert ABSENT not in corpus.messages[0].fields

    def test_sample_all_is_permutation(self):
        traces = parse_trace_lines(SAMPLE_TRACE.splitlines())
        corpus = preprocess(traces, arity=8, sample_n=3, seed=9)
        assert len(corpus) == 3
        heads = sorted(m.fields[0] for m in corpus.messages)
        assert heads == [
            "ALERT-IN=CLOSENOTIFY",
            "HANDSHAKE-IN=CLIENTHELLO",
            "HANDSHAKE-OUT=SERVERHELLO",
        ]

    def test_sample_too_large(self):
        traces = parse_trace_lines(SAMPLE_TRACE.splitlines())
        with pytest.raises(SampleTooLarge):
            preprocess(traces, sample_n=10)


class TestRules:
    def test_rule_parsing_and_matching(self):
        rules = parse_rule_lines([
            "0 1 HANDSHAKE-IN=CLIENTHELLO",
            "1 1 LEVEL=*  # any alert with a level row",
            "2 1 @0=HANDSHAKE-OUT=SERVERHELLO",
        ])
        corpus = build_corpus(
            [
                ["HANDSHAKE-IN=CLIENTHELLO", "VERSION=TLS_1_2"],
                ["ALERT-IN=CLOSENOTIFY", "LEVEL=WARNING"],
                ["HANDSHAKE-OUT=SERVERHELLO"],
            ],
            arity=3,
        )
        labels = apply_rules(corpus, rules)
        assert labels.labels == (0, 1, 2)

    def test_higher_priority_wins(self):
        rules = parse_rule_lines([
            "0 5 VERSION=*",
            "1 9 VERSION=TLS_1_2",
        ])
        corpus = build_corpus([["X=1", "VERSION=TLS_1_2"]], arity=2)
        assert apply_rules(corpus, rules).labels == (1,)

    def test_catch_all_wildcard(self):
        rules = parse_rule_lines(["0 1 HEAD=SPECIFIC", "1 0 HEAD=*"])
        corpus = build_corpus([["HEAD=SPECIFIC"], ["HEAD=OTHER"]], arity=1)
        assert apply_rules(corpus, rules).labels == (0, 1)

    def test_unmatched_message(self):
        rules = parse_rule_lines(["0 1 HEAD=ONLY"])
        corpus = build_corpus([["HEAD=OTHER"]], arity=1)
        with pytest.raises(UnmatchedMessage):
            apply_rules(corpus, rules)

    @pytest.mark.parametrize("term", ["@-1=ABSENT", "@-32=HEAD=ONLY"])
    def test_negative_position_is_rejected(self, term):
        """A position below 0 would index fields from the end."""
        with pytest.raises(ParseError, match="line 2: position selector"):
            parse_rule_lines(["1 0 HEAD=*", "0 1 " + term])

    def test_table_one_style_message(self):
        corpus = build_corpus(
            [[
                "HANDSHAKE-IN=CLIENTHELLO",
                "VERSION=TLS_1_2",
                "CIPHERSUITES=TLS_RSA_WITH_AES_128_CBC_SHA256",
            ]],
            arity=4,
        )
        rules = parse_rule_lines(["0 1 HANDSHAKE-IN=CLIENTHELLO"])
        assert apply_rules(corpus, rules).labels == (0,)


class TestSynthetic:
    def test_noise_free_corpus_has_one_value_per_class(self):
        templates = (
            ClassTemplate("x", ("H=X", "A=1"), ()),
            ClassTemplate("y", ("H=Y", "A=1"), ()),
        )
        spec = SynthSpec(class_templates=templates, n_messages=4, noise_rate=0.0,
                         seed=0, arity=3)
        corpus, labels = generate_synthetic(spec)
        assert len({m.fields for m in corpus.messages}) == 2

    def test_default_spec_sizes(self):
        corpus, labels = generate_synthetic(default_synth_spec())
        assert len(corpus) == 5000
        assert labels.n_classes == 21
        assert len(set(labels.labels)) == 21

    def test_determinism(self):
        spec = default_synth_spec(n_messages=200, seed=7)
        c1, l1 = generate_synthetic(spec)
        c2, l2 = generate_synthetic(spec)
        assert l1 == l2
        assert [m.fields for m in c1.messages] == [m.fields for m in c2.messages]

    def test_indistinguishable_templates_rejected(self):
        templates = (
            ClassTemplate("x", ("H=X", "A=1"), ((1, ("A=2",)),)),
            ClassTemplate("y", ("H=X", "A=9"), ((1, ("A=3",)),)),
        )
        with pytest.raises(BadSpec):
            SynthSpec(class_templates=templates, n_messages=4, arity=2)

    def test_noise_free_nearest_template_recovers_labels(self):
        spec = default_synth_spec(n_messages=400, noise_rate=0.0, seed=3)
        corpus, labels = generate_synthetic(spec)
        padded = [
            tuple(t.tokens) + (ABSENT,) * (spec.arity - len(t.tokens))
            for t in spec.class_templates
        ]
        for i, m in enumerate(corpus.messages):
            dists = [
                sum(a != b for a, b in zip(m.fields, tmpl)) for tmpl in padded
            ]
            assert int(np.argmin(dists)) == labels.labels[i]

    def test_default_rules_total_and_match_ground_truth(self):
        corpus, labels = generate_synthetic(default_synth_spec(n_messages=600, seed=5))
        assert apply_rules(corpus, default_rules()) == labels

    @pytest.mark.parametrize("pos", [-2, 1.5, "1"])
    def test_noise_position_must_be_an_integer_at_least_0(self, pos):
        """A position of -2 on a 2-token template would rewrite the head."""
        with pytest.raises(BadSpec, match="integer >= 0"):
            ClassTemplate("a", ("H=a", "X=0"), ((pos, ("H=b",)),))

    def test_more_than_2_32_alternatives_rejected(self):
        with pytest.raises(BadSpec, match="more than 2\\^32"):
            ClassTemplate("a", ("H=a", "X=0"), ((1, LazyAlternatives(2**32 + 1)),))

    @pytest.mark.parametrize("field, value", [
        ("n_messages", 2.5), ("n_messages", True), ("seed", 1.5), ("seed", -1), ("seed", True),
        ("arity", 2.5), ("arity", 0), ("arity", False), ("tokens", ("H=X", ABSENT)),
    ])
    def test_bad_spec_field_rejected(self, field, value):
        """Each is one BadSpec line naming the field, raised with the spec,
        not a numpy or slicing error at generation or a misleading
        indistinguishable-templates error."""
        tokens = value if field == "tokens" else ("H=X",)
        fields = {"n_messages": 4, "arity": 1}
        if field != "tokens":
            fields[field] = value
        with pytest.raises(BadSpec, match=field) as info:
            SynthSpec(class_templates=(ClassTemplate("x", tokens), ClassTemplate("y", ("H=Y",))),
                      **fields)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("weights", [
        (1.0,), (1.0, 2.0, 3.0), 1.0, (1.0, -1.0), (1.0, float("nan")),
        (float("inf"), 1.0), (0.0, 0.0), (1e308, 1e308), ("a", 1.0),
    ], ids=["too-few", "too-many", "scalar", "negative", "nan", "inf", "all-zero",
            "sum-overflows", "not-a-number"])
    def test_bad_class_weights_rejected(self, weights):
        templates = (ClassTemplate("x", ("H=X",)), ClassTemplate("y", ("H=Y",)))
        with pytest.raises(BadSpec, match="class_weights"):
            SynthSpec(class_templates=templates, n_messages=4, arity=1,
                      class_weights=weights)


class LazyAlternatives:
    """n alternative values, each made when it is read."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, k):
        if not 0 <= k < self.n:
            raise IndexError(k)
        return "X=%d" % k


def synth_outcome(generate, spec):
    """The corpus and labels `generate` draws for `spec`, as dicts, or the
    type and text of the exception it raises."""
    try:
        corpus, labels = generate(spec)
    except Exception as e:
        return type(e), str(e)
    return corpus.to_dict(), labels.to_dict()


@st.composite
def synth_specs(draw):
    """Up to 4 classes of up to 6 tokens, up to 6 noise fields each (a
    position may repeat, a field may have one alternative, and an
    alternative may be the reserved ABSENT symbol), arity 1 to 8, and N
    large enough that the draws often cross the generator's word blocks."""
    j = draw(st.integers(1, 4))
    values = st.sampled_from(["V=%d" % v for v in range(7)] + [ABSENT])
    templates = []
    for c in range(j):
        length = draw(st.integers(1, 6))
        tokens = ("H=%d" % c,) + tuple("F%d=0" % p for p in range(1, length))
        noise = []
        if length > 1:
            noise = draw(st.lists(
                st.tuples(st.integers(1, length - 1),
                          st.lists(values, min_size=1, max_size=4).map(tuple)),
                max_size=6))
        templates.append(ClassTemplate("c%d" % c, tokens, tuple(noise)))
    weights = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, 3), min_size=j, max_size=j).filter(any).map(tuple)))
    return SynthSpec(
        class_templates=tuple(templates),
        n_messages=draw(st.one_of(st.integers(1, 50), st.integers(1000, 3000))),
        noise_rate=draw(st.floats(0.0, 0.999)),
        seed=draw(st.integers(0, 2**32 - 1)),
        arity=draw(st.integers(1, 8)),
        class_weights=weights,
    )


@settings(max_examples=100, deadline=None)
@given(synth_specs())
def test_generator_equals_scalar_draws(spec):
    assert synth_outcome(generate_synthetic, spec) == synth_outcome(oracles.generate_synthetic, spec)


@pytest.mark.parametrize("n", [2**31 + 1, 2**32], ids=["rejection", "full-range"])
def test_generator_equals_scalar_draws_for_huge_fields(n):
    """2^31 + 1 alternatives reject about half of the 32-bit draws; 2^32 use
    every draw whole."""
    templates = (ClassTemplate("a", ("H=a", "X=0"), ((1, LazyAlternatives(n)),)),
                 ClassTemplate("b", ("H=b", "X=0")))
    spec = SynthSpec(class_templates=templates, n_messages=2000, noise_rate=0.5,
                     seed=11, arity=2)
    assert synth_outcome(generate_synthetic, spec) == synth_outcome(oracles.generate_synthetic, spec)


def test_corpus_and_labels_file_roundtrip(tmp_path):
    corpus, labels = generate_synthetic(default_synth_spec(n_messages=50, seed=2))
    save_corpus(corpus, tmp_path / "c.json")
    save_labels(labels, tmp_path / "l.json")
    again = load_corpus(tmp_path / "c.json")
    assert [m.fields for m in again.messages] == [m.fields for m in corpus.messages]
    assert load_labels(tmp_path / "l.json") == labels


@pytest.mark.parametrize("write", [
    lambda path: write_atomic(path, "{}\n"),
    lambda path: save_corpus(build_corpus([["a"]], arity=1), path),
    lambda path: save_labels(LabelVector(labels=(0,), n_classes=1), path),
], ids=["write_atomic", "save_corpus", "save_labels"])
def test_failed_rename_leaves_no_file_behind(tmp_path, monkeypatch, write):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write(tmp_path / "out.json")
    assert list(tmp_path.iterdir()) == []
