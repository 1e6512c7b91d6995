"""Peak RSS of mpck runs with dense labels, against a budget.

    PYTHONPATH=src:tests python tests/peak_rss_dense_labels.py

N=20k messages of the ClientHello spec at noise 0.5 and 200 labels per
class (labels seed 0): 1 600 labelled messages on as many distinct rows,
so 1 600 slots, whose (slots, slots, K) distances hold most of the run's
memory.  One run is at K=8 and one at K=6, where eight classes in six
clusters violate cannot-links, so the metric update tallies them.  While
the link state kept the (slots, slots, fields) float mismatch of the
slots' rows, they peaked at 705 MB and 1 157 MB; with the slots' codes
and `distances` built in blocks of rows, at 336 MB and 298 MB.
Each takes about 1-2 s on a 2-vCPU VM, too long for tier-1, so CI runs
them as a step of its own.  Each runs in a process of its own; prints
each peak and exits 1 if one is above BUDGET_MB.
"""

import sys

from test_memory import peak_rss_mb

BUDGET_MB = 400
WORKLOAD = """
import resource
from protoabs import MpckConfig, constraints_from_labels, draw_labeled_samples
from protoabs import generate_synthetic, run_mpck
from specs import clienthello_spec
corpus, labels = generate_synthetic(clienthello_spec(20000))
cs = constraints_from_labels(draw_labeled_samples(labels, 200, seed=0))
run_mpck(corpus, cs, MpckConfig(k=%d, seed=0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

if __name__ == "__main__":
    over = False
    for k in (8, 6):
        peak = peak_rss_mb(WORKLOAD % k)
        print("K=%d: peak RSS %.1f MB, budget %d MB" % (k, peak, BUDGET_MB))
        over |= peak > BUDGET_MB
    sys.exit(over)
