"""Diagonal per-cluster metrics and the max-separated-pair table.

The squared distance between two messages is sum_f a_f * [x_f != y_f]
where a_f are non-negative per-position weights.  Metric updates floor
weights at EPS_WEIGHT so log(a_f) stays finite, cap them at 1/EPS_WEIGHT
so that zero-dispersion fields do not produce infinities, and floor the
per-field mismatch tally at EPS_DENOM.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCluster

EPS_WEIGHT = 1e-6
EPS_DENOM = 1e-9
PAIR_BLOCK = 2**20      # float entries of the pair table scanned at a time


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


def max_separated_pair(indices, corpus, m):
    """Argmax of the squared distance under `m` over unordered index pairs.

    Time is quadratic in `len(indices)`, so callers pass one index per
    distinct row (members with identical code rows are interchangeable),
    as `PenaltyContext.build` does with each row's smallest member; rows
    are scanned in blocks of at most PAIR_BLOCK table entries.  Among ties
    the smallest (first, second) pair wins; a singleton yields (i, i, 0.0).
    """
    idx = np.sort(np.asarray(indices, dtype=np.int64))
    if idx.size == 0:
        raise EmptyCluster("max_separated_pair needs at least one index")
    if idx.size == 1:
        i = int(idx[0])
        return MaxPair(i, i, 0.0)
    x = corpus.unique_codes[corpus.row_ids[idx]]
    w = np.asarray(m.weights, dtype=np.float64)
    # pairwise weighted mismatch totals, accumulated per field in the same
    # order for every pair; a field on which all rows agree would add +0.0
    # to every total, so it is skipped.  Float addition is monotone, so no
    # total exceeds the in-order sum of the other weights: a pair that
    # reaches it ends the scan.  Every pair ties at 0 if the max is 0.
    fields = np.flatnonzero((x != x[0]).any(axis=0))
    bound = 0.0
    for weight in w[fields].tolist():
        bound += weight
    n = idx.size
    step = max(1, PAIR_BLOCK // n)
    best, first, second = 0.0, 0, 1
    for a in range(0, n - 1, step):
        # rows a.. against the columns from a: entries on or below the
        # diagonal are 0 or repeat earlier ones, and only a greater value
        # replaces the best, so the first maximum in row-major order wins
        d = np.zeros((min(step, n - a), n - a))
        for f in fields:
            d += w[f] * (x[a:a + step, None, f] != x[None, a:, f])
        i, j = divmod(int(np.argmax(d)), d.shape[1])
        if d[i, j] > best:
            best, first, second = float(d[i, j]), a + i, a + j
        if best >= bound:
            break
    return MaxPair(int(idx[first]), int(idx[second]), best)
