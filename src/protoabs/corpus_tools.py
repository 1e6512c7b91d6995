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
import numbers
import os
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import (
    BadSpec,
    DataError,
    EmptyCorpus,
    ParseError,
    SampleTooLarge,
    UnmatchedMessage,
)
from .model import (
    ABSENT,
    DEFAULT_ARITY,
    Corpus,
    IdRule,
    LabelVector,
    build_corpus,
    json_indented,
    json_type,
    pad_rows,
)

DEFAULT_DROP_KEYS = frozenset({"RANDOM", "SESSIONID"})


@dataclass(frozen=True)
class DecodedTrace:
    messages: tuple  # each message: tuple of (key, values-tuple) rows


def parse_trace_file(path):
    return read_text(path, parse_trace_lines, "trace")


def parse_trace_lines(lines):
    traces, messages, rows = [], [], []
    # a closing "--" ends the last message and trace
    for line_no, line in enumerate(chain(lines, ["--"]), start=1):
        parts = line.split()
        if parts and parts[0].startswith("#"):
            continue
        if parts and parts != ["--"]:
            if "=" in parts[0]:
                raise ParseError("field key %r must not contain '='" % parts[0], line_no)
            rows.append((parts[0], tuple(parts[1:])))
            continue
        if rows:                        # a blank line or "--" ends a message
            messages.append(tuple(rows))
            rows = []
        if parts and messages:          # "--" ends a trace
            traces.append(DecodedTrace(messages=tuple(messages)))
            messages = []
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
    arity=DEFAULT_ARITY,
    drop_keys=DEFAULT_DROP_KEYS,
    sample_n=None,
    seed=0,
):
    """Filter, flatten, truncate/pad and sample messages from decoded traces.

    Sampling is a seeded permutation followed by taking the first sample_n
    messages (without replacement); sample_n=None keeps everything, still
    permuted.
    """
    flat = [flatten_message(rows, drop_keys) for trace in traces for rows in trace.messages]
    if sample_n is None:
        sample_n = len(flat)
    if sample_n > len(flat):
        raise SampleTooLarge(
            "requested %d messages but only %d available" % (sample_n, len(flat))
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(flat))[:sample_n]
    # message m of trace t is named "trace<t>:msg<m>"
    lengths = [len(trace.messages) for trace in traces]
    trace_of = np.repeat(np.arange(len(traces)), lengths)
    number = np.arange(len(flat)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    ids = IdRule(["trace%d:msg" % t for t in range(len(traces))], trace_of[order], number[order])
    return build_corpus([flat[i] for i in order], arity=arity, source_ids=ids)


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
                    pos = int(sel[1:])
                except ValueError:
                    raise ParseError("bad position selector %r" % sel, line_no)
                if pos < 0:
                    raise ParseError("position selector %r must be >= 0" % sel, line_no)
                terms.append((pos, value))
            else:
                terms.append((sel, value))
        rules.append(AbstractionRule(class_id, priority, tuple(terms)))
    if not rules:
        raise ParseError("rule file contains no rules")
    _rule_classes(rules)
    return rules


def _rule_classes(rules):
    """Number of classes the rules assign; their class ids must be
    contiguous from 0."""
    class_ids = sorted({r.rule_id for r in rules})
    if class_ids != list(range(len(class_ids))):
        raise ParseError("rule class ids must be contiguous from 0, got %r" % class_ids)
    return len(class_ids)


def load_rules(path):
    return read_text(path, parse_rule_lines, "rules")


def apply_rules(corpus, rules):
    """Label every message with its highest-priority matching rule.

    Ties go to the smallest class id.  Class ids must be contiguous from 0.
    """
    j = _rule_classes(rules)
    ordered = sorted(rules, key=lambda r: (-r.priority, r.rule_id))
    row_labels = []
    for r, fields in enumerate(corpus.rows):
        label = next((rule.rule_id for rule in ordered if rule.matches(fields)), None)
        if label is None:
            i = int(np.argmax(corpus.row_ids == r))  # the row's first message
            raise UnmatchedMessage(
                "message %d (%s) matched no rule: %r"
                % (i, corpus.source_id(i), [t for t in fields if t != ABSENT])
            )
        row_labels.append(label)
    return LabelVector(labels=np.array(row_labels)[corpus.row_ids], n_classes=j)


# numpy draws an integer below n from one 32-bit half of a PCG64 word when
# n <= 2^32 (the path `_replay_noise` replays) and from a 64-bit path above
MAX_ALTERNATIVES = 2**32


@dataclass(frozen=True)
class ClassTemplate:
    name: str
    tokens: tuple                  # template tokens, position-aligned
    noise_fields: tuple = ()       # (position, alternative-values tuple) pairs

    def __post_init__(self):
        if ABSENT in self.tokens:
            raise BadSpec("tokens of template %r use %r, which is reserved for padding"
                          % (self.name, ABSENT))
        for pos, alts in self.noise_fields:
            if not isinstance(pos, numbers.Integral) or pos < 0:
                raise BadSpec("noise position %r is not an integer >= 0" % (pos,))
            if pos == 0:
                raise BadSpec("field 0 is the class discriminator and cannot be noisy")
            if pos >= len(self.tokens):
                raise BadSpec("noise position %d beyond template length" % pos)
            if not alts:
                raise BadSpec("noise field %d has no alternative values" % pos)
            if len(alts) > MAX_ALTERNATIVES:
                raise BadSpec("noise field %d has more than 2^32 alternative values" % pos)


@dataclass(frozen=True)
class SynthSpec:
    class_templates: tuple
    n_messages: int = 5000
    noise_rate: float = 0.05
    seed: int = 0
    arity: int = DEFAULT_ARITY
    class_weights: tuple = None  # None: uniform

    def __post_init__(self):
        for name, least in (("n_messages", 1), ("seed", 0), ("arity", 1)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise BadSpec("%s must be an integer, got %r" % (name, value))
            if value < least:
                raise BadSpec("%s must be >= %d, got %r" % (name, least, value))
        if not (0 <= self.noise_rate < 1):
            raise BadSpec("noise_rate must be in [0, 1)")
        if self.class_weights is not None:
            _check_weights(self.class_weights, len(self.class_templates))
        _check_distinguishable(self.class_templates, self.arity)


def _check_weights(weights, j):
    try:
        w = np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError):
        raise BadSpec("class_weights must be numbers, got %r" % (weights,))
    if w.shape != (j,):
        raise BadSpec("class_weights needs one weight per template (%d), got %r"
                      % (j, weights))
    if not (np.isfinite(w).all() and (w >= 0).all()):
        raise BadSpec("class_weights must be finite and >= 0, got %r" % (weights,))
    with np.errstate(over="ignore"):
        total = w.sum()
    if not (np.isfinite(total) and total > 0):
        raise BadSpec("class_weights must have a finite positive sum, got %r" % (weights,))


def _check_distinguishable(templates, arity):
    rows = pad_rows([t.tokens for t in templates], arity)
    noisy = [{pos for pos, _ in t.noise_fields} for t in templates]
    for (a, ra, na), (b, rb, nb) in combinations(zip(templates, rows, noisy), 2):
        if not any(x != y and f not in na | nb for f, (x, y) in enumerate(zip(ra, rb))):
            raise BadSpec("templates %r and %r are indistinguishable outside noise fields"
                          % (a.name, b.name))


def generate_synthetic(spec):
    """Draw a labeled corpus from the class templates.

    Each message copies its class template; every noise field is replaced
    by a random alternative value with probability noise_rate.  Labels are
    ground truth by construction.

    The generator reads the same PCG64 words in the same order as one
    `rng.random()` per noise field of each message and one
    `rng.integers(len(alts))` per noisy field (`tests/oracles.py`), so a
    spec and seed always give the same corpus.
    """
    rng = np.random.default_rng(spec.seed)
    templates = spec.class_templates
    j = len(templates)
    if spec.class_weights is None:
        probs = np.full(j, 1.0 / j)
    else:
        probs = np.asarray(spec.class_weights, dtype=np.float64)
        probs = probs / probs.sum()
    drawn = rng.choice(j, size=spec.n_messages, p=probs)
    # row c is class c's template, which a noise-free message keeps; noisy
    # rows follow them, and `Corpus` drops the unused ones
    row_ids = drawn.copy()
    noisy = _replay_noise(rng, spec, drawn, row_ids, j)
    raw = [t.tokens for t in templates] + noisy
    # message i of class c is named "synth:<name of c>:<i>"
    ids = IdRule(["synth:%s:" % t.name for t in templates], drawn,
                 np.arange(spec.n_messages))
    corpus = Corpus(pad_rows(raw, spec.arity), row_ids, spec.arity, ids)
    return corpus, LabelVector(labels=drawn, n_classes=j)


NOISE_BLOCK = 4096  # PCG64 words read at a time


def _replay_noise(rng, spec, drawn, row_ids, first_row):
    """Replay the noise draws of `drawn`'s messages from raw PCG64 words.

    Draw d is the d-th `rng.random()`, one per noise field of each message
    in order, a hit when it falls below `noise_rate`.  A double is
    `(w >> 11) * 2**-53` of the next word w, so a block of words is tested
    at once; only hits are walked.  A hit at a field with n > 1
    alternatives then draws numpy's 32-bit Lemire integer below n: from
    the buffered upper half of the last word split, if one is held, else
    from the low half of the next word, whose upper half it buffers.  The
    noisy rows are returned in order of first use, and each noisy
    message's `row_ids` entry is set to `first_row` (the number of
    templates, J) plus its row's index.
    Nothing reads the generator afterwards, so the words a block draws
    past the last noise draw are harmless.
    """
    templates = spec.class_templates
    fields = [tuple((pos, alts, len(alts), (2**32 - len(alts)) % len(alts))
                    for pos, alts in t.noise_fields) for t in templates]
    per_class = np.array([len(f) for f in fields], dtype=np.int64)
    ends = np.cumsum(per_class[drawn])  # message i's draws end before ends[i]
    total = int(ends[-1])
    bitgen = rng.bit_generator
    state = bitgen.state
    upper = state["uinteger"] if state["has_uint32"] else None
    rows = {}
    message = -1  # the noisy message whose tokens are being built
    tokens = None
    d = 0  # index of the next draw
    while d < total:
        words = bitgen.random_raw(min(NOISE_BLOCK, total - d))
        size = words.size
        at = 0  # the next unread word of the block
        for h in np.flatnonzero((words >> 11) * 2.0**-53 < spec.noise_rate).tolist():
            if h < at:
                continue  # the word went to an alternative's draw
            d += h - at
            at = h + 1
            i = int(ends.searchsorted(d, "right"))
            c = int(drawn[i])
            pos, alts, n, threshold = fields[c][d - int(ends[i]) + len(fields[c])]
            d += 1
            k = 0
            if n > 1:
                while True:
                    if upper is None:
                        w = int(words[at]) if at < size else int(bitgen.random_raw())
                        at += 1
                        x, upper = w & 0xFFFFFFFF, w >> 32
                    else:
                        x, upper = upper, None
                    m = x * n
                    if m & 0xFFFFFFFF >= threshold:
                        break
                k = m >> 32
            if i != message:
                if tokens is not None:
                    row_ids[message] = rows.setdefault(tuple(tokens), first_row + len(rows))
                message, tokens = i, list(templates[c].tokens)
            tokens[pos] = alts[k]
        d += max(size - at, 0)
    if tokens is not None:
        row_ids[message] = rows.setdefault(tuple(tokens), first_row + len(rows))
    return list(rows)


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


def read_text(path, parse, what):
    """`parse(fh)` of the UTF-8 text file at `path`; bytes that are not
    UTF-8 and data errors of `parse` raise DataError naming `what` and
    `path` (a DataError keeps its class)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(fh)
        except DataError as e:
            raise type(e)("%s %s: %s" % (what, path, e)) from e
        except UnicodeDecodeError as e:
            raise DataError("%s %s: %s" % (what, path, e)) from e


def read_json(path, build, what):
    """`build(obj)` of the JSON object in the file at `path`; malformed or
    too deeply nested JSON, missing or ill-typed fields and data errors of
    `build` raise DataError naming `what` and `path`, as in read_text."""
    def parse(fh):
        try:
            obj = json.load(fh)
            if type(obj) is not dict:
                raise ValueError("the top level is %s, not an object" % json_type(obj))
            return build(obj)
        except KeyError as e:
            raise DataError("missing field %s" % e) from e
        except (ValueError, TypeError, OverflowError) as e:
            raise DataError(str(e)) from e
        except RecursionError as e:
            raise DataError("JSON nested too deeply: %s" % e) from e
    return read_text(path, parse, what)


def load_corpus(path):
    return read_json(path, Corpus.from_dict, "corpus")


def save_labels(labels, path):
    write_atomic(path, json_indented(labels.to_dict()) + "\n")


def load_labels(path):
    return read_json(path, LabelVector.from_dict, "labels")
