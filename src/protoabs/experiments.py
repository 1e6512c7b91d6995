"""Experiment harness: seeded label draws, single clustering runs and the
K / labels-per-class sweeps, with deterministic CSV rows.

Wall-clock durations are reported on stdout only; CSV, JSON and SVG
artifacts must be byte-identical across reruns with the same seeds.
"""

import csv
import io
import time
from dataclasses import dataclass

import numpy as np

from .clustering import MpckConfig, run_kmeans, run_mpck
from .constraints import LabeledSample, constraints_from_labels
from .errors import InsufficientLabels
from .evaluation import evaluate


def draw_labeled_samples(labels, per_class, seed, mode="balanced"):
    """Seeded per-class draw of labeled examples from the reference labels.

    balanced: exactly per_class samples from every class.
    unbalanced: per-class counts drawn uniformly from 1..per_class, with at
    least one class kept at per_class.
    Either mode draws no samples when per_class is 0.
    """
    if mode not in ("balanced", "unbalanced"):
        raise ValueError("mode must be balanced or unbalanced")
    if per_class == 0:
        return []
    j = labels.n_classes
    # each class needs a member, so a draw over more classes than messages
    # fails before anything is sized by n_classes
    if j > len(labels):
        raise InsufficientLabels(
            "%d classes need a label each, but there are %d messages" % (j, len(labels)))
    # no class has more members than there are messages; checked before
    # unbalanced mode draws counts up to per_class, which int64 may not hold
    if per_class > len(labels):
        raise InsufficientLabels(
            "%d labels per class, but there are %d messages" % (per_class, len(labels)))
    rng = np.random.default_rng(seed)
    counts = np.full(j, per_class)
    if mode == "unbalanced":
        counts = rng.integers(1, per_class + 1, size=j)
        if counts.max() < per_class:
            counts[int(rng.integers(j))] = per_class
    # one stable sort groups every class's members, ascending; shifted
    # past UNLABELED (-1) and narrowed, the keys take a radix sort
    keys = (labels.labels + 1).astype(np.min_scalar_type(j))
    order = np.argsort(keys, kind="stable")
    ends = np.cumsum(np.bincount(keys, minlength=j + 1))
    samples = []
    for c in range(j):
        members = order[ends[c]:ends[c + 1]]
        if members.size < counts[c]:
            raise InsufficientLabels(
                "class %d has %d members, need %d labels" % (c, members.size, counts[c])
            )
        picks = rng.choice(members, size=counts[c], replace=False)
        samples.extend(LabeledSample(int(i), c) for i in sorted(picks))
    return samples


@dataclass
class ExperimentResult:
    algorithm: str
    k: int
    labels_per_class: int
    seed: int
    report: object          # EvalReport
    model: object           # ClusterModel
    n_must: int
    n_cannot: int
    duration: float


def run_experiment(
    corpus,
    labels,
    algorithm="mpck",
    k=None,
    labels_per_class=5,
    seed=0,
    w=1.0,
    w_bar=1.0,
    max_iterations=200,
    tol=1e-6,
    mode="balanced",
):
    if k is None:
        k = labels.n_classes
    config = MpckConfig(k=k, max_iterations=max_iterations, tol=tol, seed=seed)
    start = time.perf_counter()
    n_must = n_cannot = 0
    if algorithm == "kmeans":
        model = run_kmeans(corpus, config)
    elif algorithm == "mpck":
        samples = draw_labeled_samples(labels, labels_per_class, seed, mode=mode)
        cs = constraints_from_labels(samples, w=w, w_bar=w_bar)
        n_must, n_cannot = cs.pair_counts()
        model = run_mpck(corpus, cs, config)
    else:
        raise ValueError("unknown algorithm %r" % algorithm)
    duration = time.perf_counter() - start
    report = evaluate(model.assignments, labels)
    return ExperimentResult(
        algorithm=algorithm,
        k=k,
        labels_per_class=labels_per_class if algorithm == "mpck" else 0,
        seed=seed,
        report=report,
        model=model,
        n_must=n_must,
        n_cannot=n_cannot,
        duration=duration,
    )


def _sweep(corpus, labels, x_field, values, seeds, **kwargs):
    """One mpck run per (x, seed), x passed as `x_field`; returns (rows,
    per-x (mean purity, mean ARI))."""
    rows = [
        run_experiment(corpus, labels, algorithm="mpck", seed=seed, **{x_field: x}, **kwargs)
        for x in values
        for seed in seeds
    ]
    means = {}
    for x in values:
        sub = [r for r in rows if getattr(r, x_field) == x]
        means[x] = (
            float(np.mean([r.report.purity for r in sub])),
            float(np.mean([r.report.ari for r in sub])),
        )
    return rows, means


def sweep_k(corpus, labels, k_values, seeds, labels_per_class=1, **kwargs):
    """One run per (K, seed); returns (rows, per-K means, argmax-ARI K)."""
    rows, means = _sweep(
        corpus, labels, "k", k_values, seeds, labels_per_class=labels_per_class, **kwargs
    )
    best_k = max(k_values, key=lambda k: (means[k][1], -k))
    return rows, means, best_k


def sweep_labels(corpus, labels, counts, seeds, mode="balanced", k=None, **kwargs):
    """One run per (labels_per_class, seed) with K = J unless overridden."""
    return _sweep(corpus, labels, "labels_per_class", counts, seeds, mode=mode, k=k, **kwargs)


def sweep_csv(rows, means, x_field):
    """CSV with one row per run plus per-x mean rows; deterministic."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([x_field, "seed", "purity", "ari", "objective", "iterations"])
    for r in rows:
        x = getattr(r, x_field)
        writer.writerow(
            [x, r.seed, repr(r.report.purity), repr(r.report.ari),
             repr(r.model.objective), r.model.iterations]
        )
    for x in sorted(means):
        writer.writerow([x, "mean", repr(means[x][0]), repr(means[x][1]), "", ""])
    return buf.getvalue()
