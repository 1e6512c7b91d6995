"""Trace ingestion, preprocessing, rule-based reference labeling and the
synthetic TLS-like corpus generator.

Trace file format (UTF-8 text):
  KEY VALUE [VALUE ...]   one decoded field row; no '=' allowed in KEY
  (blank line)            end of message
  --                      end of trace
  # ...                   comment

Rows flatten to positional "KEY=VALUE" tokens, one token per value (a row
with no values yields the single token "KEY=").

Rule file format, one rule per line:
  class_id priority term [term ...]
where a term is KEY=VALUE, KEY=* (key present with any value) or
@pos=TOKEN (exact composite token at a position).  '#' starts a comment.
"""

import json
import os
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadSpec,
    DataError,
    EmptyCorpus,
    ParseError,
    SampleTooLarge,
    UnmatchedMessage,
)
from .model import ABSENT, Corpus, LabelVector, build_corpus, json_indented

DEFAULT_DROP_KEYS = frozenset({"RANDOM", "SESSIONID"})


@dataclass(frozen=True)
class DecodedTrace:
    messages: tuple  # each message: tuple of (key, values-tuple) rows


def parse_trace_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace_lines(fh)


def parse_trace_lines(lines):
    traces = []
    messages = []
    rows = []

    def end_message():
        nonlocal rows
        if rows:
            messages.append(tuple(rows))
            rows = []

    def end_trace():
        nonlocal messages
        end_message()
        if messages:
            traces.append(DecodedTrace(messages=tuple(messages)))
            messages = []

    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if stripped == "":
            end_message()
            continue
        if stripped == "--":
            end_trace()
            continue
        parts = stripped.split()
        key, values = parts[0], tuple(parts[1:])
        if "=" in key:
            raise ParseError("field key %r must not contain '='" % key, line_no)
        rows.append((key, values))
    end_trace()
    if not traces:
        raise EmptyCorpus("trace file contains no messages")
    return traces


def serialize_traces(traces):
    """Inverse of parse_trace_lines; parse(serialize(t)) == t."""
    out = []
    for trace in traces:
        for msg in trace.messages:
            for key, values in msg:
                out.append(" ".join((key,) + tuple(values)))
            out.append("")
        out.append("--")
    return "\n".join(out) + "\n"


def flatten_message(rows, drop_keys=DEFAULT_DROP_KEYS):
    """Rows -> positional KEY=VALUE tokens, dropping uninformative keys."""
    tokens = []
    for key, values in rows:
        if key in drop_keys:
            continue
        if not values:
            tokens.append("%s=" % key)
        else:
            tokens.extend("%s=%s" % (key, v) for v in values)
    return tokens


def preprocess(
    traces,
    arity=32,
    drop_keys=DEFAULT_DROP_KEYS,
    sample_n=None,
    seed=0,
):
    """Filter, flatten, truncate/pad and sample messages from decoded traces.

    Sampling is a seeded permutation followed by taking the first sample_n
    messages (without replacement); sample_n=None keeps everything, still
    permuted.
    """
    flat = []
    ids = []
    for t, trace in enumerate(traces):
        for m, rows in enumerate(trace.messages):
            flat.append(flatten_message(rows, drop_keys))
            ids.append("trace%d:msg%d" % (t, m))
    if sample_n is None:
        sample_n = len(flat)
    if sample_n > len(flat):
        raise SampleTooLarge(
            "requested %d messages but only %d available" % (sample_n, len(flat))
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(flat))[:sample_n]
    return build_corpus(
        [flat[i] for i in order], arity=arity, source_ids=[ids[i] for i in order]
    )


@dataclass(frozen=True)
class AbstractionRule:
    rule_id: int            # class id this rule assigns
    priority: int
    terms: tuple            # (selector, expected) pairs; selector int = position

    def matches(self, fields):
        for selector, expected in self.terms:
            if isinstance(selector, int):
                if selector >= len(fields) or fields[selector] != expected:
                    return False
            else:
                hits = [
                    tok for tok in fields
                    if tok.split("=", 1)[0] == selector and tok != ABSENT
                ]
                if expected == "*":
                    if not hits:
                        return False
                else:
                    if not any(tok.split("=", 1)[1] == expected for tok in hits if "=" in tok):
                        return False
        return True


def parse_rule_lines(lines):
    rules = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 3:
            raise ParseError("expected 'class_id priority term...', got %r" % line, line_no)
        try:
            class_id, priority = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("class_id and priority must be integers in %r" % line, line_no)
        terms = []
        for term in parts[2:]:
            if "=" not in term:
                raise ParseError("term %r is not selector=value" % term, line_no)
            sel, value = term.split("=", 1)
            if sel.startswith("@"):
                try:
                    terms.append((int(sel[1:]), value))
                except ValueError:
                    raise ParseError("bad position selector %r" % sel, line_no)
            else:
                terms.append((sel, value))
        rules.append(AbstractionRule(class_id, priority, tuple(terms)))
    if not rules:
        raise ParseError("rule file contains no rules")
    return rules


def load_rules(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rule_lines(fh)


def apply_rules(corpus, rules):
    """Label every message with its highest-priority matching rule.

    Ties go to the smallest class id.  Class ids must be contiguous from 0.
    """
    class_ids = sorted({r.rule_id for r in rules})
    j = len(class_ids)
    if class_ids != list(range(j)):
        raise ParseError("rule class ids must be contiguous from 0, got %r" % class_ids)
    ordered = sorted(rules, key=lambda r: (-r.priority, r.rule_id))
    row_labels = []
    for r, fields in enumerate(corpus.rows):
        label = next((rule.rule_id for rule in ordered if rule.matches(fields)), None)
        if label is None:
            i = int(np.argmax(corpus.row_ids == r))  # the row's first message
            raise UnmatchedMessage(
                "message %d (%s) matched no rule: %r"
                % (i, corpus.source_ids[i], [t for t in fields if t != ABSENT])
            )
        row_labels.append(label)
    return LabelVector(labels=tuple(np.array(row_labels)[corpus.row_ids].tolist()), n_classes=j)


@dataclass(frozen=True)
class ClassTemplate:
    name: str
    tokens: tuple                  # template tokens, position-aligned
    noise_fields: tuple = ()       # (position, alternative-values tuple) pairs

    def __post_init__(self):
        for pos, alts in self.noise_fields:
            if pos == 0:
                raise BadSpec("field 0 is the class discriminator and cannot be noisy")
            if pos >= len(self.tokens):
                raise BadSpec("noise position %d beyond template length" % pos)
            if not alts:
                raise BadSpec("noise field %d has no alternative values" % pos)


@dataclass(frozen=True)
class SynthSpec:
    class_templates: tuple
    n_messages: int = 5000
    noise_rate: float = 0.05
    seed: int = 0
    arity: int = 32
    class_weights: tuple = None  # None: uniform

    def __post_init__(self):
        if not (0 <= self.noise_rate < 1):
            raise BadSpec("noise_rate must be in [0, 1)")
        if self.n_messages < 1:
            raise BadSpec("n_messages must be >= 1")
        _check_distinguishable(self.class_templates, self.arity)


def _check_distinguishable(templates, arity):
    padded = []
    for t in templates:
        toks = list(t.tokens[:arity]) + [ABSENT] * (arity - len(t.tokens))
        noisy = {pos for pos, _ in t.noise_fields}
        padded.append((toks, noisy))
    for i in range(len(padded)):
        for k in range(i + 1, len(padded)):
            ta, na = padded[i]
            tb, nb = padded[k]
            if not any(
                ta[f] != tb[f] and f not in na and f not in nb for f in range(arity)
            ):
                raise BadSpec(
                    "templates %r and %r are indistinguishable outside noise fields"
                    % (templates[i].name, templates[k].name)
                )


def generate_synthetic(spec):
    """Draw a labeled corpus from the class templates.

    Each message copies its class template; every noise field is replaced
    by a random alternative value with probability noise_rate.  Labels are
    ground truth by construction.
    """
    rng = np.random.default_rng(spec.seed)
    j = len(spec.class_templates)
    if spec.class_weights is None:
        probs = np.full(j, 1.0 / j)
    else:
        probs = np.asarray(spec.class_weights, dtype=np.float64)
        probs = probs / probs.sum()
    classes = rng.choice(j, size=spec.n_messages, p=probs)
    raw = []
    ids = []
    for i, c in enumerate(classes):
        template = spec.class_templates[c]
        tokens = list(template.tokens)
        for pos, alts in template.noise_fields:
            if rng.random() < spec.noise_rate:
                tokens[pos] = alts[int(rng.integers(len(alts)))]
        raw.append(tokens)
        ids.append("synth:%s:%d" % (template.name, i))
    corpus = build_corpus(raw, arity=spec.arity, source_ids=ids)
    labels = LabelVector(labels=tuple(int(c) for c in classes), n_classes=j)
    return corpus, labels


def write_atomic(path, text):
    """Write via a temp file and rename so partial artifacts never appear.

    The temp file is removed when the write or the rename fails.
    """
    tmp = "%s.tmp.%d" % (path, os.getpid())
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_corpus(corpus, path):
    write_atomic(path, json.dumps(corpus.to_dict(), sort_keys=True) + "\n")


def read_json(path, build, what):
    """`build(obj)` of the JSON object in the file at `path`; malformed JSON,
    missing or ill-typed fields and data errors of `build` raise DataError
    naming `what` and `path` (a DataError keeps its class)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return build(json.load(fh))
        except DataError as e:
            raise type(e)("%s %s: %s" % (what, path, e)) from e
        except KeyError as e:
            raise DataError("%s %s: missing field %s" % (what, path, e)) from e
        except (ValueError, TypeError) as e:
            raise DataError("%s %s: %s" % (what, path, e)) from e


def load_corpus(path):
    return read_json(path, Corpus.from_dict, "corpus")


def save_labels(labels, path):
    write_atomic(path, json_indented(labels.to_dict()) + "\n")


def load_labels(path):
    return read_json(path, LabelVector.from_dict, "labels")
