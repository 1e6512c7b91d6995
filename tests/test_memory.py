"""Memory stays bounded by distinct rows, not by cluster size squared."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

BUDGET_MB = 256

# N=20k k-means with K=2: one cluster holds ~19k members, whose member-pair
# table alone would need ~2.9 GB.
WORKLOAD = """
import resource
from protoabs import MpckConfig, default_synth_spec, generate_synthetic, run_kmeans
corpus, _ = generate_synthetic(default_synth_spec(n_messages=20000))
run_kmeans(corpus, MpckConfig(k=2, seed=0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# Linux carries a process's peak RSS across fork and exec, so the workload
# runs as the child of a small interpreter rather than of the test process.
LAUNCHER = (
    "import subprocess, sys; "
    "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)"
)


def test_kmeans_at_20k_stays_within_rss_budget():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", LAUNCHER, WORKLOAD],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    peak_mb = int(out.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb < BUDGET_MB
