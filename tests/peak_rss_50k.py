"""Peak RSS of one mpck run on a mostly-distinct corpus, against a budget.

    PYTHONPATH=src:tests python tests/peak_rss_50k.py

N=50k messages of the ClientHello spec at noise 0.5, whose rows are all
but one distinct, K=8 and 5 labels per class (labels seed 0).  The run
took about 103 MB and 3.5-4 s on a 2-vCPU VM, too long for tier-1, so CI
runs it as a step of its own.  Prints the peak and exits 1 above BUDGET_MB.
"""

import sys

from test_memory import peak_rss_mb

BUDGET_MB = 125
WORKLOAD = """
import resource
from protoabs import MpckConfig, constraints_from_labels, draw_labeled_samples
from protoabs import generate_synthetic, run_mpck
from specs import clienthello_spec
corpus, labels = generate_synthetic(clienthello_spec(50000))
cs = constraints_from_labels(draw_labeled_samples(labels, 5, seed=0))
run_mpck(corpus, cs, MpckConfig(k=8, seed=0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

if __name__ == "__main__":
    peak = peak_rss_mb(WORKLOAD)
    print("peak RSS %.1f MB, budget %d MB" % (peak, BUDGET_MB))
    sys.exit(peak > BUDGET_MB)
