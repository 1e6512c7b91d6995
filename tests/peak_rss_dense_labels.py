"""Peak RSS of one mpck run with dense labels, against a budget.

    PYTHONPATH=src:tests python tests/peak_rss_dense_labels.py

N=20k messages of the ClientHello spec at noise 0.5, K=8 and 200 labels
per class (labels seed 0): 1 600 labelled messages on as many distinct
rows, so 1 600 slots, whose (slots, slots, fields) mismatch and (slots,
slots, K) distances hold most of the run's memory.  The run peaked at
705 MB and took 1.3-2.0 s on a 2-vCPU VM, too long for tier-1, so CI runs
it as a step of its own; the budget lies above the 759 MB it peaked at
while the link arrays were indexed by distinct row.  Prints the peak and
exits 1 above BUDGET_MB.
"""

import sys

from test_memory import peak_rss_mb

BUDGET_MB = 800
WORKLOAD = """
import resource
from protoabs import MpckConfig, constraints_from_labels, draw_labeled_samples
from protoabs import generate_synthetic, run_mpck
from specs import clienthello_spec
corpus, labels = generate_synthetic(clienthello_spec(20000))
cs = constraints_from_labels(draw_labeled_samples(labels, 200, seed=0))
run_mpck(corpus, cs, MpckConfig(k=8, seed=0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

if __name__ == "__main__":
    peak = peak_rss_mb(WORKLOAD)
    print("peak RSS %.1f MB, budget %d MB" % (peak, BUDGET_MB))
    sys.exit(peak > BUDGET_MB)
