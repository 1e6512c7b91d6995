"""Diagonal per-cluster metrics and the max-separated-pair table.

The squared distance between two messages is sum_f a_f * [x_f != y_f] where
a_f are non-negative per-position weights; `mismatch_costs`, its one
implementation, adds it in field order.  Metric updates floor weights at
EPS_WEIGHT so log(a_f) stays finite, cap them at 1/EPS_WEIGHT so that
zero-dispersion fields do not produce infinities, and floor the per-field
mismatch tally at EPS_DENOM.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCluster

EPS_WEIGHT = 1e-6
EPS_DENOM = 1e-9
# compared entries per mismatch_costs block: rows x columns x fields for the
# pair scan (2 MB of floats, or one row if it has more), fields x K x rows for
# the assignment costs; on the max-pair calls of the N=10k/20k/50k ClientHello
# runs it took 0.24/0.80/1.62 s, against up to 0.34/1.08/2.44 s at 2^16-2^20.
PAIR_BLOCK = 2**18


@dataclass(frozen=True)
class DiagonalMetric:
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if not (np.isfinite(w) & (w >= 0)).all():
            raise ValueError("metric weights must be finite and non-negative")

    @property
    def arity(self):
        return self.weights.shape[0]


@dataclass(frozen=True)
class MaxPair:
    first: int
    second: int
    sq_distance: float


def mismatch_costs(w, x, y):
    """Weighted mismatch: the sum over axis 0 of `w * (x != y)` for
    field-first operands that broadcast, adding the fields in field order.

    In field order a total has the bits of a loop over the fields, whatever
    the caller's blocks and the BLAS build, so a pair's distance has the
    same bits wherever it is computed; and, float addition being monotone,
    no total exceeds the in-order sum of its non-negative weights.  numpy
    adds axis 0 of the C-ordered product in order when it has more than one
    total, but sums a lone total pairwise: that one is accumulated.
    """
    terms = w * (x != y)
    if terms.size == len(terms) > 0:
        return np.add.accumulate(terms, axis=0)[-1]
    return np.add.reduce(terms, axis=0)


def max_separated_pair(indices, corpus, m):
    """Argmax of the squared distance under `m` over unordered index pairs.

    Time is quadratic in `len(indices)`, so callers pass one index per
    distinct row (members with identical code rows are interchangeable),
    as `PenaltyContext.build` does with each row's smallest member; rows
    are scanned in blocks of PAIR_BLOCK compared entries.  Among ties the
    smallest (first, second) pair wins; a singleton yields (i, i, 0.0).
    """
    idx = np.sort(np.asarray(indices, dtype=np.int64))
    if idx.size == 0:
        raise EmptyCluster("max_separated_pair needs at least one index")
    if idx.size == 1:
        return MaxPair(int(idx[0]), int(idx[0]), 0.0)
    x = corpus.unique_codes[corpus.row_ids[idx]]
    # a field on which all rows agree would add +0.0 to every total, and no
    # total exceeds the in-order sum of the other weights: a pair that
    # reaches it ends the scan (at once if 0).
    fields = np.flatnonzero((x != x[0]).any(axis=0))
    xt, w = x[:, fields].T.copy(), m.weights[fields]    # (F', n) in C order
    bound = mismatch_costs(w, 0, 1)     # a pair that differs on every field
    n = idx.size
    step = max(1, PAIR_BLOCK // max(1, n * fields.size))
    best, first, second = 0.0, 0, 1
    for a in range(0, n - 1, step):
        # rows a.. against the columns from a: entries on or below the
        # diagonal are 0 or repeat earlier ones, and only a greater value
        # replaces the best, so the first maximum in row-major order wins
        d = mismatch_costs(w[:, None, None], xt[:, a:a + step, None], xt[:, None, a:])
        i, j = divmod(int(np.argmax(d)), d.shape[1])
        if d[i, j] > best:
            best, first, second = float(d[i, j]), a + i, a + j
        if best >= bound:
            break
    return MaxPair(int(idx[first]), int(idx[second]), best)
