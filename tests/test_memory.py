"""Memory stays bounded by distinct rows, not by cluster size squared."""

import os
import subprocess
import sys

import numpy as np

from protoabs import default_synth_spec, generate_synthetic

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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
# Per-message memory is the row ids and the source ids: an (N, F) int32
# code matrix alone would be 25.6 MB, and one token list per message in
# synth about as much again (the run peaked at 120 MB while both were held).
LARGE_CORPUS_BUDGET_MB = 100
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

# Linux carries a process's peak RSS across fork and exec, so the workload
# runs as the child of a small interpreter rather than of the test process.
LAUNCHER = (
    "import subprocess, sys; "
    "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)"
)


def peak_rss_mb(workload):
    env = dict(os.environ, PYTHONPATH=SRC)
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
