"""Weakly supervised abstraction of protocol messages.

Learns a small abstract alphabet for decoded TLS-like messages by
metric-learning, pairwise-constrained k-means over positional categorical
features, and scores the result against a rule-based reference
abstraction with purity and the adjusted Rand index.
"""

from .clustering import (
    ClusterModel,
    MpckConfig,
    PenaltyContext,
    evaluate_objective,
    run_kmeans,
    run_mpck,
)
from .constraints import (
    ClosedConstraints,
    ConstraintSet,
    LabeledSample,
    close_constraints,
    constraints_from_labels,
    neighborhoods,
)
from .corpus_tools import (
    AbstractionRule,
    ClassTemplate,
    DecodedTrace,
    SynthSpec,
    apply_rules,
    flatten_message,
    generate_synthetic,
    load_corpus,
    load_labels,
    load_rules,
    parse_rule_lines,
    parse_trace_file,
    parse_trace_lines,
    preprocess,
    save_corpus,
    save_labels,
    serialize_traces,
)
from .evaluation import EvalReport, ari, confusion, evaluate, purity
from .experiments import (
    ExperimentResult,
    draw_labeled_samples,
    run_experiment,
    sweep_k,
    sweep_labels,
)
from .metric import DiagonalMetric, MaxPair, max_separated_pair
from .model import (
    ABSENT,
    UNLABELED,
    Corpus,
    LabelVector,
    Message,
    build_corpus,
)
from .tls_default import default_rules, default_synth_spec, default_templates

__version__ = "0.1.0"
