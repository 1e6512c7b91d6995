"""Categorical message model.

A message is a fixed-arity tuple of field tokens.  Tokens are plain strings
of the form "KEY=VALUE"; the reserved token ABSENT pads short messages on
the right so that every message in a corpus has the same arity and
positional Hamming comparison is well defined.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, EmptyCorpus

ABSENT = "ABSENT"

UNLABELED = -1

DEFAULT_ARITY = 32


@dataclass(frozen=True)
class Message:
    fields: tuple
    source_id: str = ""

    @property
    def arity(self):
        return len(self.fields)


class Corpus:
    """Immutable collection of equal-arity messages.

    Besides the message tuples a corpus carries per-position vocabularies
    (symbols in first-occurrence order) and integer codes for the numeric
    modules.  Messages with identical field tuples share one distinct row:
    `row_ids[i]` numbers message i's row in first-occurrence order,
    `unique_codes` holds one code row per distinct row, and `codes` is
    `unique_codes[row_ids]`.  `lex_rank[f]` ranks position f's codes by
    their symbols and `lex_order[f]` lists the codes in that order.
    """

    def __init__(self, messages, arity):
        if not messages:
            raise EmptyCorpus("corpus must contain at least one message")
        for m in messages:
            if m.arity != arity:
                raise ArityMismatch(
                    "message %r has arity %d, corpus arity is %d"
                    % (m.source_id, m.arity, arity)
                )
        self.messages = tuple(messages)
        self.arity = arity
        row_of = {}
        row_ids = np.fromiter(
            (row_of.setdefault(m.fields, len(row_of)) for m in self.messages),
            dtype=np.int64,
            count=len(self.messages),
        )
        rows = list(row_of)
        # a symbol first occurs in the first occurrence of some distinct row,
        # so scanning distinct rows gives the per-message first-occurrence order
        self.vocabulary = tuple(
            tuple(_first_occurrence(row[f] for row in rows)) for f in range(arity)
        )
        self._index = [
            {tok: c for c, tok in enumerate(vocab)} for vocab in self.vocabulary
        ]
        unique_codes = np.array(
            [[self._index[f][tok] for f, tok in enumerate(row)] for row in rows],
            dtype=np.int32,
        )
        codes = unique_codes[row_ids]
        for a in (row_ids, unique_codes, codes):
            a.setflags(write=False)
        self.row_ids = row_ids
        self.unique_codes = unique_codes
        self.codes = codes
        # lexicographic order and rank of the codes, per position (mode
        # tie-breaking)
        self.lex_order = tuple(
            np.array(sorted(range(len(vocab)), key=vocab.__getitem__), dtype=np.int64)
            for vocab in self.vocabulary
        )
        self.lex_rank = tuple(np.argsort(order) for order in self.lex_order)

    def __len__(self):
        return len(self.messages)

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
            "arity": self.arity,
            "messages": [
                {"fields": list(m.fields), "source_id": m.source_id}
                for m in self.messages
            ],
        }

    @classmethod
    def from_dict(cls, d):
        msgs = [
            Message(fields=tuple(row["fields"]), source_id=row.get("source_id", ""))
            for row in d["messages"]
        ]
        return cls(msgs, d["arity"])


def _first_occurrence(items):
    seen = set()
    out = []
    for x in items:
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out


@dataclass(frozen=True)
class LabelVector:
    labels: tuple
    n_classes: int

    def __post_init__(self):
        for l in self.labels:
            if l != UNLABELED and not (0 <= l < self.n_classes):
                raise ValueError("label %r out of range 0..%d" % (l, self.n_classes - 1))

    def __len__(self):
        return len(self.labels)

    def to_dict(self):
        return {"n_classes": self.n_classes, "labels": list(self.labels)}

    @classmethod
    def from_dict(cls, d):
        return cls(labels=tuple(int(x) for x in d["labels"]), n_classes=int(d["n_classes"]))


def build_corpus(raw_messages, arity=DEFAULT_ARITY, source_ids=None):
    """Truncate each raw token list to `arity` and pad with ABSENT.

    `raw_messages` is a sequence of token lists; tokens must not use the
    reserved ABSENT symbol themselves.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    raw_messages = list(raw_messages)
    if not raw_messages:
        raise EmptyCorpus("no raw messages given")
    msgs = []
    for i, tokens in enumerate(raw_messages):
        tokens = list(tokens)[:arity]
        if ABSENT in tokens:
            raise ValueError("the token %r is reserved for padding" % ABSENT)
        tokens += [ABSENT] * (arity - len(tokens))
        sid = source_ids[i] if source_ids is not None else "msg%d" % i
        msgs.append(Message(fields=tuple(tokens), source_id=sid))
    return Corpus(msgs, arity)
