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

    Time and memory are quadratic in `len(indices)`, so callers pass one
    index per distinct row (members with identical code rows are
    interchangeable), as `PenaltyContext.build` does with each row's
    smallest member.  Deterministic: among ties the smallest (first,
    second) pair wins.  A singleton domain yields (i, i, 0.0).
    """
    idx = np.sort(np.asarray(indices, dtype=np.int64))
    if idx.size == 0:
        raise EmptyCluster("max_separated_pair needs at least one index")
    if idx.size == 1:
        i = int(idx[0])
        return MaxPair(i, i, 0.0)
    x = corpus.unique_codes[corpus.row_ids[idx]]
    w = np.asarray(m.weights, dtype=np.float64)
    # (n, n) pairwise weighted mismatch totals, accumulated per field in the
    # same order for every pair; a field on which all rows agree would add
    # +0.0 to every total, so it is skipped
    d = np.zeros((idx.size, idx.size))
    for f in np.flatnonzero((x != x[0]).any(axis=0)):
        d += w[f] * (x[:, None, f] != x[None, :, f])
    # d is symmetric with a zero diagonal, so its first maximum in row-major
    # order is the smallest (i, j) with i < j, and a pair of each row's
    # smallest index, as a smaller index of the same row would give an
    # earlier pair at the same distance; every pair ties at 0 if it is 0
    i, j = divmod(int(np.argmax(d)), idx.size)
    if d[i, j] == 0.0:
        return MaxPair(int(idx[0]), int(idx[1]), 0.0)
    return MaxPair(int(idx[i]), int(idx[j]), float(d[i, j]))
