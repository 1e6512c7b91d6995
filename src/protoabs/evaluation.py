"""Clustering quality against the reference abstraction: confusion matrix,
purity and adjusted Rand index."""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import NoLabels
from .model import UNLABELED, json_indented


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray  # (K, J) non-negative integers
    row_ids: tuple      # cluster ids
    col_ids: tuple      # class ids

    @property
    def n(self):
        return int(self.counts.sum())


def confusion(assignments, labels):
    """counts[k][c] = number of labeled points in cluster k with class
    col_ids[c], one column per class that some labeled point has, so that
    nothing is sized by `n_classes`; a negative cluster id raises ValueError."""
    assignments = np.asarray(assignments, dtype=np.int64)
    if assignments.shape[0] != len(labels):
        raise ValueError("assignments and labels have different lengths")
    keep = labels.labels != UNLABELED
    if not keep.any():
        raise NoLabels("every point is unlabeled")
    if assignments.min() < 0:
        raise ValueError("negative cluster id %d" % assignments.min())
    a = assignments[keep]
    classes, l = np.unique(labels.labels[keep], return_inverse=True)
    k, j = int(a.max()) + 1, classes.size
    counts = np.bincount(a * j + l, minlength=k * j).reshape(k, j)
    return ConfusionMatrix(counts=counts, row_ids=tuple(range(k)),
                           col_ids=tuple(classes.tolist()))


def purity(cm):
    """Fraction of points falling into their cluster's majority class."""
    n = cm.n
    if n < 1:
        raise NoLabels("empty confusion matrix")
    return float(cm.counts.max(axis=1).sum()) / n


def ari(assignments, labels):
    """Adjusted Rand index via the pair-counting contingency formula.

    Degenerate denominator (e.g. one cluster and one class): 1.0 when the
    partitions are identical, else 0.0.
    """
    return _ari(confusion(assignments, labels).counts)


def _ari(counts):
    """Adjusted Rand index of a (K, J) contingency table; see ari."""
    n = int(counts.sum())
    if n < 2:
        raise ValueError("ARI needs at least 2 labeled points")
    nij = _comb2(counts).sum()
    a = _comb2(counts.sum(axis=1)).sum()
    b = _comb2(counts.sum(axis=0)).sum()
    total = _comb2(np.array([n]))[0]
    expected = a * b / total
    max_index = (a + b) / 2.0
    if max_index == expected:
        return 1.0 if _identical_partitions(counts) else 0.0
    return float((nij - expected) / (max_index - expected))


def _comb2(x):
    x = np.asarray(x, dtype=np.float64)
    return x * (x - 1.0) / 2.0


def _identical_partitions(counts):
    nonzero_per_row = (counts > 0).sum(axis=1)
    nonzero_per_col = (counts > 0).sum(axis=0)
    rows_ok = np.all(nonzero_per_row[counts.sum(axis=1) > 0] == 1)
    cols_ok = np.all(nonzero_per_col[counts.sum(axis=0) > 0] == 1)
    return bool(rows_ok and cols_ok)


@dataclass(frozen=True)
class EvalReport:
    confusion: ConfusionMatrix
    purity: float
    ari: float
    n: int

    def to_dict(self):
        return {
            "n": self.n,
            "purity": self.purity,
            "ari": self.ari,
            "row_ids": list(self.confusion.row_ids),
            "col_ids": list(self.confusion.col_ids),
            "confusion": self.confusion.counts.tolist(),
        }

    def to_json(self):
        return json_indented(self.to_dict())

    def confusion_csv(self):
        """Confusion matrix grid: header row of class ids, one row per cluster."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["cluster"] + ["class_%d" % j for j in self.confusion.col_ids])
        for k, row in zip(self.confusion.row_ids, self.confusion.counts):
            writer.writerow([k] + [int(v) for v in row])
        return buf.getvalue()


def evaluate(assignments, labels):
    cm = confusion(assignments, labels)
    return EvalReport(confusion=cm, purity=purity(cm), ari=_ari(cm.counts), n=cm.n)
