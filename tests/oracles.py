"""Reference implementations that the tests compare the package against.

Each is the plain per-message version of a quantity the package computes
over distinct code rows; they are slow and kept only as oracles.
"""

import numpy as np

from protoabs.errors import EmptyCluster
from protoabs.metric import MaxPair


def encode_messages(messages, arity):
    """Per-message corpus encoding: (vocabulary, codes, lex_rank).

    Vocabularies list symbols in first-occurrence order over the messages;
    codes are filled by one dictionary lookup per message and field.
    """
    vocabulary = []
    for f in range(arity):
        seen = {}
        for m in messages:
            seen.setdefault(m.fields[f], None)
        vocabulary.append(tuple(seen))
    index = [{tok: c for c, tok in enumerate(vocab)} for vocab in vocabulary]
    codes = np.empty((len(messages), arity), dtype=np.int32)
    for i, m in enumerate(messages):
        for f, tok in enumerate(m.fields):
            codes[i, f] = index[f][tok]
    lex_rank = []
    for vocab in vocabulary:
        ranks = np.empty(len(vocab), dtype=np.int64)
        for rank, c in enumerate(sorted(range(len(vocab)), key=lambda c: vocab[c])):
            ranks[c] = rank
        lex_rank.append(ranks)
    return tuple(vocabulary), codes, tuple(lex_rank)


def max_separated_pair(indices, corpus, m):
    """Brute-force argmax of the weighted mismatch over all member pairs.

    Builds the full (m, m) table; among ties the smallest (first, second)
    pair wins, and a singleton domain yields (i, i, 0.0).
    """
    idx = np.asarray(sorted(indices), dtype=np.int64)
    if idx.size == 0:
        raise EmptyCluster("max_separated_pair needs at least one index")
    if idx.size == 1:
        i = int(idx[0])
        return MaxPair(i, i, 0.0)
    x = corpus.codes[idx]
    w = np.asarray(m.weights, dtype=np.float64)
    d = np.zeros((idx.size, idx.size))
    for f in range(x.shape[1]):
        d += w[f] * (x[:, None, f] != x[None, :, f])
    iu = np.triu_indices(idx.size, k=1)
    flat = d[iu]
    best = int(np.argmax(flat))
    i, j = int(iu[0][best]), int(iu[1][best])
    return MaxPair(int(idx[i]), int(idx[j]), float(flat[best]))
