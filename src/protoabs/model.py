"""Categorical message model.

A message is a fixed-arity tuple of field tokens.  Tokens are plain strings
of the form "KEY=VALUE"; the reserved token ABSENT pads short messages on
the right so that every message in a corpus has the same arity and
positional Hamming comparison is well defined.
"""

import json
from dataclasses import dataclass
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ArityMismatch, EmptyCorpus

ABSENT = "ABSENT"

UNLABELED = -1

DEFAULT_ARITY = 32


def json_ints(values, what):
    """`values`, read from a JSON file, if each one is an integer: int() and
    numpy would truncate 1.5 and read true as 1."""
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValueError("%s: %r is not an integer" % (what, bad))
    return values


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def json_indented(obj):
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte, for JSON
    values whose dict keys are strings.

    The stdlib takes its pure-Python encoder whenever `indent` is set.  Here
    dicts and lists holding containers are walked in Python, and each list
    of scalars is one call of the C encoder whose item separator carries the
    newline and indent of its depth, so escapes, NaN, Infinity and float
    reprs are the stdlib's own.
    """
    out = []
    _write_indented(obj, 0, out)
    return "".join(out)


@cache
def _scalar_list_encoder(depth):
    """Encoder of a list of scalars whose items sit at `depth` + 1."""
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "), check_circular=False)


def _write_indented(obj, depth, out):
    inner = "\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth
    if isinstance(obj, dict) and obj:
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_indented(obj[key], depth + 1, out)
            sep = "," + inner
        out.append(close + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) <= _SCALAR_TYPES:
            out.append("[" + inner + _scalar_list_encoder(depth).encode(obj)[1:-1] + close + "]")
            return
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write_indented(value, depth + 1, out)
            sep = "," + inner
        out.append(close + "]")
    else:
        out.append(json.dumps(obj))     # a scalar or an empty container


@dataclass(frozen=True)
class Message:
    fields: tuple
    source_id: str = ""

    @property
    def arity(self):
        return len(self.fields)


class Corpus:
    """Immutable collection of equal-arity messages, stored as distinct rows.

    Message i is `rows[row_ids[i]]`, read from `source_ids[i]`.  The
    constructor merges duplicate rows, drops unused ones and numbers the
    rest in first-occurrence order.  Per-position vocabularies list symbols
    in first-occurrence order; `unique_codes` holds one code row per row and
    `codes` is `unique_codes[row_ids]`.  `lex_rank[f]` ranks position f's
    codes by their symbols and `lex_order[f]` lists the codes in that order.
    """

    def __init__(self, rows, row_ids, arity, source_ids):
        row_ids = np.asarray(row_ids)
        self.source_ids = tuple(source_ids)
        if row_ids.size == 0:
            raise EmptyCorpus("corpus must contain at least one message")
        if len(self.source_ids) != row_ids.size:
            raise ValueError("%d source_ids for %d row_ids" % (len(self.source_ids), row_ids.size))
        key_of = {}
        merged = [key_of.setdefault(tuple(row), len(key_of)) for row in rows]
        other = sorted({len(row) for row in key_of} - {arity})
        if other:
            raise ArityMismatch("rows of arity %s in a corpus of arity %d" % (other, arity))
        if row_ids.min() < 0 or row_ids.max() >= len(merged):
            raise ValueError("row_ids must lie in 0..%d" % (len(merged) - 1))
        message_keys = np.array(merged, dtype=np.int64)[row_ids]
        # rows in use, in the order of their first occurrence
        used, first = np.unique(message_keys, return_index=True)
        used = used[np.argsort(first)]
        number = np.empty(len(key_of), dtype=np.int64)
        number[used] = np.arange(used.size)
        self.row_ids = number[message_keys]
        keys = list(key_of)
        self.rows = tuple(keys[m] for m in used.tolist())
        self.arity = arity
        # a symbol first occurs in the first occurrence of some distinct row,
        # so scanning distinct rows gives the per-message first-occurrence order
        self.vocabulary = tuple(
            tuple(dict.fromkeys(row[f] for row in self.rows)) for f in range(arity)
        )
        self._index = [
            {tok: c for c, tok in enumerate(vocab)} for vocab in self.vocabulary
        ]
        self.unique_codes = np.array(
            [[self._index[f][tok] for f, tok in enumerate(row)] for row in self.rows],
            dtype=np.int32,
        )
        self.codes = self.unique_codes[self.row_ids]
        for a in (self.row_ids, self.unique_codes, self.codes):
            a.setflags(write=False)
        # lexicographic order and rank of the codes, per position (mode
        # tie-breaking)
        self.lex_order = tuple(
            np.array(sorted(range(len(vocab)), key=vocab.__getitem__), dtype=np.int64)
            for vocab in self.vocabulary
        )
        self.lex_rank = tuple(np.argsort(order) for order in self.lex_order)

    def __len__(self):
        return self.row_ids.size

    @cached_property
    def messages(self):
        """One Message per message, built on first use."""
        rows = self.rows
        return tuple(Message(rows[r], s) for r, s in zip(self.row_ids.tolist(), self.source_ids))

    def encode(self, message):
        """Code row for a message over this corpus' vocabulary.

        Raises KeyError if the message uses a symbol unknown at some
        position (centroids produced from corpus members never do).
        """
        if message.arity != self.arity:
            raise ArityMismatch("message arity %d != corpus arity %d" % (message.arity, self.arity))
        return np.array(
            [self._index[f][tok] for f, tok in enumerate(message.fields)],
            dtype=np.int32,
        )

    def to_dict(self):
        return {
            "format": 2,
            "arity": self.arity,
            "rows": [list(row) for row in self.rows],
            "row_ids": self.row_ids.tolist(),
            "source_ids": list(self.source_ids),
        }

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict; also reads the original form, a "messages"
        list of {"fields", "source_id"} objects."""
        (arity,) = json_ints([d["arity"]], "arity")
        if "format" not in d:
            msgs = d["messages"]
            return cls(
                [m["fields"] for m in msgs], range(len(msgs)), arity,
                [m.get("source_id", "") for m in msgs],
            )
        if type(d["format"]) is not int or d["format"] != 2:
            raise ValueError("unknown corpus format %r" % (d["format"],))
        return cls(d["rows"], json_ints(d["row_ids"], "row_ids"), arity, d["source_ids"])


@dataclass(frozen=True)
class LabelVector:
    labels: tuple
    n_classes: int

    def __post_init__(self):
        def bad(l):
            return l != UNLABELED and not (0 <= l < self.n_classes)

        # distinct values first; the labels are scanned only to name the first bad one
        if any(map(bad, set(self.labels))):
            l = next(filter(bad, self.labels))
            raise ValueError("label %r out of range 0..%d" % (l, self.n_classes - 1))

    def __len__(self):
        return len(self.labels)

    def to_dict(self):
        return {"n_classes": self.n_classes, "labels": list(self.labels)}

    @classmethod
    def from_dict(cls, d):
        (n_classes,) = json_ints([d["n_classes"]], "n_classes")
        return cls(labels=tuple(json_ints(d["labels"], "labels")), n_classes=n_classes)


def build_corpus(raw_messages, arity=DEFAULT_ARITY, source_ids=None):
    """Truncate each raw token list to `arity` and pad with ABSENT.

    `raw_messages` is a sequence of token lists; tokens must not use the
    reserved ABSENT symbol themselves.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    row_of = {}
    row_ids = [row_of.setdefault(tuple(tokens)[:arity], len(row_of)) for tokens in raw_messages]
    if not row_ids:
        raise EmptyCorpus("no raw messages given")
    if any(ABSENT in row for row in row_of):
        raise ValueError("the token %r is reserved for padding" % ABSENT)
    if source_ids is None:
        source_ids = ["msg%d" % i for i in range(len(row_ids))]
    rows = [row + (ABSENT,) * (arity - len(row)) for row in row_of]
    return Corpus(rows, row_ids, arity, source_ids)
