"""Memory stays bounded by distinct rows, not by cluster size squared."""

import os
import subprocess
import sys

import numpy as np
import pytest

from protoabs import (
    ABSENT,
    DecodedTrace,
    build_corpus,
    default_synth_spec,
    generate_synthetic,
    preprocess,
)

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

# N=20k k-means with K=2: one cluster holds ~19k members, whose member-pair
# table alone would need ~2.9 GB.
KMEANS_BUDGET_MB = 256
KMEANS = """
import resource
from protoabs import MpckConfig, default_synth_spec, generate_synthetic, run_kmeans
corpus, _ = generate_synthetic(default_synth_spec(n_messages=20000))
run_kmeans(corpus, MpckConfig(k=2, seed=0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# N=50k mpck at 200 labels per class: 4 200 labelled messages, whose
# 8.4 million cannot-link pairs alone would need over 130 MB as int64 pairs.
DENSE_LABELS_BUDGET_MB = 150
DENSE_LABELS = """
import resource
from protoabs import MpckConfig, default_synth_spec, generate_synthetic, run_mpck
from protoabs.constraints import constraints_from_labels
from protoabs.experiments import draw_labeled_samples
corpus, labels = generate_synthetic(default_synth_spec(n_messages=50000))
cs = constraints_from_labels(draw_labeled_samples(labels, 200, seed=0))
run_mpck(corpus, cs, MpckConfig(k=21, seed=0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# N=200k synth, then one mpck run (5 labels per class) and one k-means run.
# Per message, memory holds the row ids and synth's naming rule (a class
# index and a number): one "synth:<class>:<i>" string per message would add
# 16 MB (the run peaked at 77 MB with them), an (N, F) int32 code matrix
# 25.6 MB, and one token list per message in synth about as much again.
LARGE_CORPUS_BUDGET_MB = 70
LARGE_CORPUS = """
import resource
from protoabs import MpckConfig, default_synth_spec, generate_synthetic, run_kmeans, run_mpck
from protoabs.constraints import constraints_from_labels
from protoabs.experiments import draw_labeled_samples
corpus, labels = generate_synthetic(default_synth_spec(n_messages=200000))
cfg = MpckConfig(k=21, seed=0)
run_mpck(corpus, constraints_from_labels(draw_labeled_samples(labels, 5, seed=0)), cfg)
run_kmeans(corpus, cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# N=20k k-means at K=21 on a corpus whose rows are almost all distinct, drawn
# over a shared vocabulary of 4 tokens per field, so the corpus stays small.
# One float64 copy of the (K, u, F) centroid mismatch would be 107 MB (the
# run peaked at 195 MB with it); the dispersion is cast in blocks of 8 MB.
DISTINCT_KMEANS_BUDGET_MB = 140
DISTINCT_KMEANS = """
import resource
import numpy as np
from protoabs import MpckConfig, build_corpus, run_kmeans
vocab = [["F%d=%d" % (f, v) for v in range(4)] for f in range(32)]
draws = np.random.default_rng(0).integers(0, 4, size=(20000, 32)).tolist()
corpus = build_corpus(([vocab[f][v] for f, v in enumerate(row)] for row in draws), arity=32)
del draws
run_kmeans(corpus, MpckConfig(k=21, seed=0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# N=10k mpck at K=8 and 1 label per class on the ClientHello spec at noise
# 0.5, whose 10k rows are all but one distinct: a full (u_h, u_h) pair table
# per cluster peaked at 180 MB; the scan holds one block of PAIR_BLOCK
# (row, column, varying field) float products, 2 MB.
DISTINCT_MPCK_BUDGET_MB = 120
DISTINCT_MPCK = """
import resource
from protoabs import MpckConfig, constraints_from_labels, draw_labeled_samples
from protoabs import generate_synthetic, run_mpck
from specs import clienthello_spec
corpus, labels = generate_synthetic(clienthello_spec(10000))
cs = constraints_from_labels(draw_labeled_samples(labels, 1, seed=0))
run_mpck(corpus, cs, MpckConfig(k=8, seed=0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# Linux carries a process's peak RSS across fork and exec, so the workload
# runs as the child of a small interpreter rather than of the test process.
LAUNCHER = (
    "import subprocess, sys; "
    "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)"
)


def peak_rss_mb(workload):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]))
    out = subprocess.run(
        [sys.executable, "-c", LAUNCHER, workload],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return int(out.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux


def test_kmeans_at_20k_stays_within_rss_budget():
    assert peak_rss_mb(KMEANS) < KMEANS_BUDGET_MB


def test_dense_labels_at_50k_stay_within_rss_budget():
    assert peak_rss_mb(DENSE_LABELS) < DENSE_LABELS_BUDGET_MB


def test_synth_to_learning_at_200k_stays_within_rss_budget():
    assert peak_rss_mb(LARGE_CORPUS) < LARGE_CORPUS_BUDGET_MB


def test_distinct_rows_kmeans_at_20k_stays_within_rss_budget():
    assert peak_rss_mb(DISTINCT_KMEANS) < DISTINCT_KMEANS_BUDGET_MB


def test_distinct_rows_mpck_at_10k_stays_within_rss_budget():
    assert peak_rss_mb(DISTINCT_MPCK) < DISTINCT_MPCK_BUDGET_MB


def test_corpus_holds_no_per_message_code_matrix():
    corpus, _ = generate_synthetic(default_synth_spec(n_messages=50000))
    n_by_f = len(corpus) * corpus.arity
    arrays = []
    for value in vars(corpus).values():
        arrays += [a for a in (value if isinstance(value, tuple) else (value,))
                   if isinstance(a, np.ndarray)]
    assert arrays and all(a.size < n_by_f for a in arrays)
    # the (N, F) matrix is built on access, and not kept
    assert corpus.codes.shape == (len(corpus), corpus.arity)
    assert "codes" not in vars(corpus)


def _strings_per_message(obj, n):
    """Attributes of `obj`, or of an object it holds, that are a tuple or
    list of n strings."""
    found = []
    for name, value in vars(obj).items():
        if isinstance(value, (tuple, list)):
            if len(value) == n and all(isinstance(v, str) for v in value):
                found.append(name)
        elif hasattr(value, "__dict__"):
            found += ["%s.%s" % (name, sub) for sub in _strings_per_message(value, n)]
    return found


def _ingested_corpus():
    """6 000 messages in 2 000 traces, 4 000 of them sampled."""
    corpus, _ = generate_synthetic(default_synth_spec(n_messages=6000, seed=1))
    messages = [tuple((t.split("=", 1)[0], (t.split("=", 1)[1],)) for t in m.fields if t != ABSENT)
                for m in corpus.messages]
    traces = [DecodedTrace(tuple(messages[i:i + 3])) for i in range(0, len(messages), 3)]
    return preprocess(traces, sample_n=4000, seed=2)


@pytest.mark.parametrize("make", [
    lambda: generate_synthetic(default_synth_spec(n_messages=50000))[0],
    _ingested_corpus,
    lambda: build_corpus([["A=%d" % (i % 7), "B=%d" % (i % 5)] for i in range(50000)], arity=4),
], ids=["synthetic", "preprocess", "build_corpus"])
def test_corpus_named_by_rule_holds_no_per_message_strings(make):
    corpus = make()
    assert _strings_per_message(corpus, len(corpus)) == []
    # the strings are built on access, and not kept
    assert len(corpus.source_ids) == len(corpus)
    assert _strings_per_message(corpus, len(corpus)) == []
