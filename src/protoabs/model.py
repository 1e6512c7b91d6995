"""Categorical message model.

A message is a fixed-arity tuple of field tokens.  Tokens are plain strings
of the form "KEY=VALUE"; the reserved token ABSENT pads short messages on
the right so that every message in a corpus has the same arity and
positional Hamming comparison is well defined.
"""

import base64
import json
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ArityMismatch, EmptyCorpus

ABSENT = "ABSENT"

UNLABELED = -1

DEFAULT_ARITY = 32


def json_ints(values, what):
    """`values`, read from a JSON file, if each one is an integer: int() and
    numpy would truncate 1.5 and read true as 1."""
    return json_typed(values, {int}, what, "an integer")


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def json_type(value):
    """The JSON type of `value`, read from a JSON file, with its article."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def json_typed(values, kinds, what, name):
    """`values`, read from a JSON file, if it is a list and the type of each
    of its items is exactly one of the set `kinds`; one type pass, and a
    scan only to name the first bad one."""
    if type(values) is not list:
        raise ValueError("%s is %s, not a list" % (what, json_type(values)))
    if not set(map(type, values)) <= kinds:
        bad = next(v for v in values if type(v) not in kinds)
        raise ValueError("%s: %r is not %s" % (what, bad, name))
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


def encode_uints(values):
    """The non-negative integer array `values` as a JSON object: `uint`, the
    narrowest of 1, 2, 4 or 8 bytes that holds its maximum, and `base64`,
    its little-endian bytes of that width."""
    values = np.asarray(values)
    top = int(values.max()) if values.size else 0
    width = next(w for w in (1, 2, 4, 8) if top < 1 << 8 * w)
    data = values.astype("<u%d" % width).tobytes()
    return {"uint": width, "base64": base64.b64encode(data).decode("ascii")}


def decode_uints(obj, what):
    """Inverse of encode_uints: a read-only unsigned array over the decoded
    bytes, for `obj` read from a JSON file."""
    if type(obj) is not dict:
        raise ValueError("%s is %s, not an object" % (what, json_type(obj)))
    width, text = obj["uint"], obj["base64"]
    if type(width) is not int or width not in (1, 2, 4, 8):
        raise ValueError("%s: uint %r is not 1, 2, 4 or 8" % (what, width))
    if type(text) is not str:
        raise ValueError("%s: base64 is %s, not a string" % (what, json_type(text)))
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as e:     # binascii.Error, or a non-ASCII character
        raise ValueError("%s: bad base64: %s" % (what, e)) from e
    if len(data) % width:
        raise ValueError("%s: %d bytes is not a multiple of uint %d" % (what, len(data), width))
    return np.frombuffer(data, dtype="<u%d" % width)


class IdRule:
    """Message ids named by rule: id i is `prefixes[group[i]] + str(number[i])`.

    A producer that names its messages by rule keeps a few prefixes and two
    small integer arrays in place of one string per message.  Each group
    indexes `prefixes`, and each number lies in 0..2^63 - 1.
    """

    def __init__(self, prefixes, group, number):
        self.prefixes = tuple(prefixes)
        self.group = _compact(group, len(self.prefixes), "source id group")
        self.number = _compact(number, 1 << 63, "source id number")
        if self.group.size != self.number.size:
            raise ValueError("%d source id groups for %d numbers"
                             % (self.group.size, self.number.size))

    def __len__(self):
        return self.group.size

    def __getitem__(self, i):
        return self.prefixes[self.group[i]] + str(self.number[i])

    def __iter__(self):
        prefixes = self.prefixes
        return iter([prefixes[g] + str(n)
                     for g, n in zip(self.group.tolist(), self.number.tolist())])

    def to_dict(self):
        return {"prefixes": list(self.prefixes), "group": encode_uints(self.group),
                "number": encode_uints(self.number)}

    @classmethod
    def from_dict(cls, d):
        prefixes = json_typed(d["prefixes"], {str}, "source_ids prefixes", "a string")
        return cls(prefixes, decode_uints(d["group"], "source_ids group"),
                   decode_uints(d["number"], "source_ids number"))


def _compact(values, end, what):
    """`values`, each in 0..end - 1, as a read-only integer array of the
    smallest type that holds them."""
    a = np.asarray(values)
    if a.size:
        lo, hi = int(a.min()), int(a.max())     # exact, whatever the dtype
        if lo < 0 or hi >= end:     # checked before a cast could wrap
            raise ValueError("%s values must be >= 0 and < %d" % (what, end))
        a = a.astype(np.result_type(np.min_scalar_type(lo), np.min_scalar_type(hi)))
    else:
        a = a.astype(np.int64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Message:
    fields: tuple
    source_id: str = ""

    @property
    def arity(self):
        return len(self.fields)


class Corpus:
    """Immutable collection of equal-arity messages, stored as distinct rows.

    Message i is `rows[row_ids[i]]`, read from `source_id(i)`.  The
    constructor merges duplicate rows, drops unused ones and numbers the
    rest in first-occurrence order.  Per-position vocabularies list symbols
    in sorted order, so a smaller code is a smaller token; `unique_codes`
    holds one code row per row.  Every (field, token) pair has a column:
    token c of field f is column `offsets[f] + c` of the `offsets[-1]`
    columns.  Per message only `row_ids` and the source ids are stored:
    the ids as given, or the `IdRule` that names them.
    """

    def __init__(self, rows, row_ids, arity, source_ids):
        row_ids = np.asarray(row_ids)
        self._ids = source_ids if isinstance(source_ids, IdRule) else tuple(source_ids)
        if row_ids.size == 0:
            raise EmptyCorpus("corpus must contain at least one message")
        if len(self._ids) != row_ids.size:
            raise ValueError("%d source_ids for %d row_ids" % (len(self._ids), row_ids.size))
        key_of = {}
        merged = [key_of.setdefault(tuple(row), len(key_of)) for row in rows]
        other = sorted({len(row) for row in key_of} - {arity})
        if other:
            raise ArityMismatch("rows of arity %s in a corpus of arity %d" % (other, arity))
        if row_ids.min() < 0 or row_ids.max() >= len(merged):
            raise ValueError("row_ids must lie in 0..%d" % (len(merged) - 1))
        # the narrowest key type makes np.unique's stable sort a radix sort
        message_keys = np.array(merged, dtype=np.min_scalar_type(len(key_of) - 1))[row_ids]
        # rows in use, in the order of their first occurrence
        used, first = np.unique(message_keys, return_index=True)
        used = used[np.argsort(first)]
        number = np.empty(len(key_of), dtype=np.int64)
        number[used] = np.arange(used.size)
        self.row_ids = number[message_keys]
        keys = list(key_of)
        self.rows = tuple(keys[m] for m in used.tolist())
        self.arity = arity
        columns = list(zip(*self.rows))
        self.vocabulary = tuple(tuple(sorted(set(column))) for column in columns)
        self._index = [{tok: c for c, tok in enumerate(vocab)} for vocab in self.vocabulary]
        self.offsets = np.cumsum([0] + [len(vocab) for vocab in self.vocabulary])
        u = len(self.rows)
        codes = np.fromiter(chain.from_iterable(
            map(index.__getitem__, column) for index, column in zip(self._index, columns)
        ), dtype=np.int32, count=u * arity)
        self.unique_codes = codes.reshape(arity, u).T.copy()
        for a in (self.row_ids, self.offsets, self.unique_codes):
            a.setflags(write=False)

    def __len__(self):
        return self.row_ids.size

    @property
    def codes(self):
        """(N, F) read-only code matrix, `unique_codes[row_ids]`, built anew
        on each access; the package itself indexes `unique_codes`."""
        codes = self.unique_codes[self.row_ids]
        codes.setflags(write=False)
        return codes

    @property
    def source_ids(self):
        """Tuple of the N source ids; a corpus named by rule builds it anew
        on each access."""
        return tuple(self._ids)

    def source_id(self, i):
        """Source id of message i."""
        return self._ids[i]

    @cached_property
    def messages(self):
        """One Message per message, built on first use."""
        rows = self.rows
        return tuple(Message(rows[r], s) for r, s in zip(self.row_ids.tolist(), self._ids))

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

    def decode(self, code_row):
        """Token tuple of a code row over this corpus' vocabulary, the
        fields that `encode` maps to it."""
        return tuple(vocab[c] for vocab, c in zip(self.vocabulary, code_row.tolist()))

    def to_dict(self):
        ids = self._ids
        return {
            "format": 3,
            "arity": self.arity,
            "rows": [list(row) for row in self.rows],
            "row_ids": encode_uints(self.row_ids),
            "source_ids": ids.to_dict() if isinstance(ids, IdRule) else list(ids),
        }

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict; also reads format 2, whose `row_ids` is a list
        of integers and `source_ids` a list of strings, and the original
        form, a "messages" list of {"fields", "source_id"} objects.  Rows are
        lists of string tokens and the arity is at least 1."""
        (arity,) = json_ints([d["arity"]], "arity")
        if arity < 1:
            raise ValueError("arity must be >= 1, got %d" % arity)
        form = d.get("format")
        if "format" not in d:
            msgs = json_typed(d["messages"], {dict}, "messages", "an object")
            rows, row_ids = [m["fields"] for m in msgs], range(len(msgs))
            source_ids = [m.get("source_id", "") for m in msgs]
        elif type(form) is not int or form not in (2, 3):
            raise ValueError("unknown corpus format %r" % (form,))
        else:
            rows, source_ids = d["rows"], d["source_ids"]
            row_ids = (json_ints(d["row_ids"], "row_ids") if form == 2
                       else decode_uints(d["row_ids"], "row_ids"))
        json_typed(rows, {list}, "rows", "a list")
        json_typed(list(chain.from_iterable(rows)), {str}, "tokens", "a string")
        if form == 3 and type(source_ids) is dict:
            source_ids = IdRule.from_dict(source_ids)
        elif type(source_ids) is list:
            json_typed(source_ids, {str}, "source_ids", "a string")
        else:
            raise ValueError("source_ids is %s, not %s" % (
                json_type(source_ids), "a list or an object" if form == 3 else "a list"))
        return cls(rows, row_ids, arity, source_ids)


@dataclass(frozen=True, eq=False)
class LabelVector:
    labels: np.ndarray      # read-only int64: a class id, or UNLABELED, per message
    n_classes: int

    def __post_init__(self):
        if self.n_classes < 1:
            raise ValueError("n_classes must be >= 1, got %d" % self.n_classes)
        if self.n_classes > np.iinfo(np.int64).max:
            raise ValueError("n_classes %d does not fit int64" % self.n_classes)
        # NaN, floats and ints beyond int64 are compared as the values given
        labels = np.asarray(self.labels)
        labels = labels if labels.dtype.kind == "i" else np.asarray(self.labels, dtype=object)
        with np.errstate(invalid="ignore"):     # NaN compares False, quietly
            bad = (labels != UNLABELED) & ~((labels >= 0) & (labels < self.n_classes))
        if bad.any():
            raise ValueError("label %r out of range 0..%d"
                             % (self.labels[int(bad.argmax())], self.n_classes - 1))
        object.__setattr__(self, "labels", labels.astype(np.int64))
        self.labels.setflags(write=False)

    def __eq__(self, other):
        return (isinstance(other, LabelVector) and self.n_classes == other.n_classes
                and np.array_equal(self.labels, other.labels))

    def __len__(self):
        return self.labels.size

    def to_dict(self):
        """Format 2: each label plus one, so that UNLABELED is 0, as one
        unsigned integer array (`encode_uints`)."""
        return {"format": 2, "labels": encode_uints(self.labels + 1), "n_classes": self.n_classes}

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict; also reads format 1, which has no `format`
        key and lists the labels as JSON integers."""
        (n_classes,) = json_ints([d["n_classes"]], "n_classes")
        form = d.get("format")
        if "format" not in d:
            labels = json_ints(d["labels"], "labels")
            try:    # ints only, so one int64 pass; one beyond int64 is named by the check
                labels = np.fromiter(labels, np.int64, len(labels))
            except OverflowError:
                pass
        elif type(form) is not int or form != 2:
            raise ValueError("unknown labels format %r" % (form,))
        else:
            stored = decode_uints(d["labels"], "labels")
            top = int(stored.max()) if stored.size else 0
            if top > n_classes:     # checked unsigned, before the cast could wrap
                raise ValueError("labels: stored value %d is above n_classes %d"
                                 % (top, n_classes))
            labels = np.subtract(stored, 1, dtype=np.int64)
        return cls(labels=labels, n_classes=n_classes)


def pad_rows(raw_rows, arity):
    """Each raw token list truncated to `arity` and padded with ABSENT.

    Tokens must not use the reserved ABSENT symbol themselves.  Callers pass
    distinct rows, so each is checked and padded once.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    rows = [tuple(tokens)[:arity] for tokens in raw_rows]
    if any(ABSENT in row for row in rows):
        raise ValueError("the token %r is reserved for padding" % ABSENT)
    return [row + (ABSENT,) * (arity - len(row)) for row in rows]


def build_corpus(raw_messages, arity=DEFAULT_ARITY, source_ids=None):
    """Truncate each raw token list to `arity` and pad with ABSENT.

    `raw_messages` is a sequence of token lists; tokens must not use the
    reserved ABSENT symbol themselves.  `source_ids` is a sequence of
    strings or an `IdRule`; by default message i is named "msg<i>".
    """
    row_of = {}
    row_ids = [row_of.setdefault(tuple(tokens)[:arity], len(row_of)) for tokens in raw_messages]
    rows = pad_rows(row_of, arity)
    if not row_ids:
        raise EmptyCorpus("no raw messages given")
    if source_ids is None:
        source_ids = IdRule(("msg",), np.zeros(len(row_ids), dtype=np.uint8),
                            np.arange(len(row_ids)))
    return Corpus(rows, row_ids, arity, source_ids)
