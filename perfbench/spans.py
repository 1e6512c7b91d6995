"""Spans around protoabs' layer boundaries, installed from outside the package.

Each span wraps a public function at the place where the caller looks it
up: `from`-imported names are patched in the importing module (for
example `protoabs.experiments.run_mpck`), and `max_separated_pair` is
patched on `protoabs.metric`, because `clustering` calls it as
`_metric.max_separated_pair`.  Spans nest: a span's self time is its
duration minus the time covered by the spans it caused, so no interval is
counted twice (`run_kmeans` -> `run_mpck`, `PenaltyContext.build` ->
`max_separated_pair`).  A name that no longer exists is reported as
absent instead of raising.
"""

import functools
import hashlib
import importlib
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """In-memory span statistics and counters for one benchmark process."""

    def __init__(self):
        self.active = False
        self.absent = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total_s, self_s
        self.counters = defaultdict(float)
        self.last_corpus = None
        self.assignment_digests = set()   # sha256 of each run's assignments
        self._stack = []        # one child-time accumulator per open span
        self._runs = []         # per open run_mpck: its constraints have no cannot-links
        self._undo = []

    def reset(self):
        self.stats.clear()
        self.counters.clear()

    def count(self, name, value):
        if name in MAX_COUNTERS:
            self.counters[name] = max(self.counters[name], value)
        else:
            self.counters[name] += value

    def wrap(self, span, fn, enter=None, leave=None):
        """`fn` timed as `span`; `enter(args, kwargs)` and
        `leave(args, kwargs, result)` run outside the timed interval."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if enter is not None:
                enter(args, kwargs)
            result = None
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                stat = tracer.stats[span]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if leave is not None:
                    leave(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every name in SPANS; record the ones that are missing."""
        for span, sites, hooks in SPANS:
            for module_name, attr in sites:
                try:
                    owner = importlib.import_module(module_name)
                    for part in attr.split(".")[:-1]:
                        owner = getattr(owner, part)
                    leaf = attr.split(".")[-1]
                    raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
                except (ImportError, AttributeError, KeyError):
                    self.absent.append("%s.%s" % (module_name, attr))
                    continue
                hook_fns = {k: functools.partial(v, self) for k, v in hooks.items()}
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(span, raw.__func__, **hook_fns))
                else:
                    patched = self.wrap(span, raw, **hook_fns)
                setattr(owner, leaf, patched)
                self._undo.append((owner, leaf, raw))

    def uninstall(self):
        while self._undo:
            owner, leaf, raw = self._undo.pop()
            setattr(owner, leaf, raw)
        self.active = False

    def self_seconds(self, *spans):
        return sum(self.stats[s][2] for s in spans if s in self.stats)

    def assignments_sha256(self):
        return hashlib.sha256(" ".join(sorted(self.assignment_digests)).encode()).hexdigest()


# --- hooks: counts taken at the span boundaries --------------------------

def _max_pair_enter(tracer, args, kwargs):
    m = len(_arg(args, kwargs, 0, "indices"))
    tracer.count("metric.pair_evals", m * (m - 1) // 2)
    tracer.count("metric.pair_table_mb", m * m * 8 / 2**20)


def _build_enter(tracer, args, kwargs):
    tracer.count("clustering.penalty_builds", 1)
    if tracer._runs and tracer._runs[-1]:
        tracer.count("clustering.penalty_builds_no_cannot", 1)


def _run_enter(tracer, args, kwargs):
    tracer._runs.append(not _arg(args, kwargs, 1, "constraints").cannot_links)


def _run_leave(tracer, args, kwargs, model):
    tracer._runs.pop()
    if model is not None:
        tracer.count("clustering.iterations", model.iterations)
        tracer.count("clustering.accounting_gap_max", model.accounting_gap)
        tracer.assignment_digests.add(
            hashlib.sha256(model.assignments.astype("int64").tobytes()).hexdigest())


def _closed_leave(tracer, args, kwargs, closed):
    if closed is not None:
        tracer.count("constraints.must_pairs", len(closed.must_links))
        tracer.count("constraints.cannot_pairs", len(closed.cannot_links))


def _corpus_leave(tracer, args, kwargs, result):
    tracer.last_corpus = args[0]


def _write_enter(tracer, args, kwargs):
    tracer.count("experiments.artifact_bytes", len(_arg(args, kwargs, 1, "text").encode("utf-8")))


# (span, [(module, attribute path)], hooks).  Every site of one span wraps
# the same function as looked up by a different caller.
SPANS = [
    ("metric.max_separated_pair",
     [("protoabs.metric", "max_separated_pair")],
     {"enter": _max_pair_enter}),
    ("clustering.PenaltyContext.build",
     [("protoabs.clustering", "PenaltyContext.build")],
     {"enter": _build_enter}),
    ("clustering.run_mpck",
     [("protoabs.clustering", "run_mpck"), ("protoabs.experiments", "run_mpck")],
     {"enter": _run_enter, "leave": _run_leave}),
    ("clustering.run_kmeans",
     [("protoabs.clustering", "run_kmeans"), ("protoabs.experiments", "run_kmeans")],
     {}),
    ("clustering.evaluate_objective",
     [("protoabs.clustering", "evaluate_objective")],
     {}),
    ("constraints.close_constraints",
     [("protoabs.clustering", "close_constraints")],
     {"leave": _closed_leave}),
    ("constraints.neighborhoods",
     [("protoabs.clustering", "neighborhoods")],
     {}),
    ("constraints.constraints_from_labels",
     [("protoabs.constraints", "constraints_from_labels"),
      ("protoabs.experiments", "constraints_from_labels")],
     {}),
    ("corpus_tools.generate_synthetic",
     [("protoabs.corpus_tools", "generate_synthetic"), ("protoabs.cli", "generate_synthetic")],
     {}),
    ("corpus_tools.save_corpus",
     [("protoabs.cli", "save_corpus")],
     {}),
    ("corpus_tools.load_corpus",
     [("protoabs.cli", "load_corpus")],
     {}),
    ("model.Corpus.__init__",
     [("protoabs.model", "Corpus.__init__")],
     {"leave": _corpus_leave}),
    ("experiments.draw_labeled_samples",
     [("protoabs.experiments", "draw_labeled_samples")],
     {}),
    ("experiments.write_atomic",
     [("protoabs.cli", "write_atomic")],
     {"enter": _write_enter}),
    ("evaluation.evaluate",
     [("protoabs.experiments", "evaluate"), ("protoabs.cli", "evaluate")],
     {}),
    ("plots.svg",
     [("protoabs.cli", "svg_heatmap"), ("protoabs.cli", "svg_lineplot")],
     {}),
    ("cli.main",
     [("protoabs.cli", "main")],
     {}),
]


def _distinct_rows(tracer):
    import numpy as np

    corpus = tracer.last_corpus
    return len(np.unique(corpus.codes, axis=0)) if corpus is not None else 0


# Per-layer metrics: (name, unit, combine, what it should move, value).
# `combine` says how the traced set-up and the per-pass learning figures
# add up: "sum" adds them, "max" keeps the larger.
LAYER_METRICS = [
    ("metric.max_separated_pair_s", "s", "sum",
     "learn_s on large_corpus, headline, k_sweep",
     lambda t: t.self_seconds("metric.max_separated_pair")),
    ("metric.pair_evals", "count", "sum",
     "learn_s on large_corpus, headline, k_sweep",
     lambda t: t.counters["metric.pair_evals"]),
    ("metric.pair_table_mb", "MB", "max",
     "peak_rss_mb on large_corpus",
     lambda t: t.counters["metric.pair_table_mb"]),
    ("clustering.penalty_builds", "count", "sum",
     "learn_s on the kmeans halves of large_corpus and headline",
     lambda t: t.counters["clustering.penalty_builds"]),
    ("clustering.penalty_builds_no_cannot", "count", "sum",
     "learn_s on the kmeans halves of large_corpus and headline",
     lambda t: t.counters["clustering.penalty_builds_no_cannot"]),
    ("clustering.self_s", "s", "sum",
     "learn_s on k_sweep",
     lambda t: t.self_seconds("clustering.run_mpck", "clustering.run_kmeans",
                              "clustering.PenaltyContext.build")),
    ("clustering.iterations", "count", "sum",
     "learn_s on k_sweep",
     lambda t: t.counters["clustering.iterations"]),
    ("clustering.evaluate_objective_s", "s", "sum",
     "learn_s on k_sweep",
     lambda t: t.self_seconds("clustering.evaluate_objective")),
    ("clustering.accounting_gap_max", "ratio", "max",
     "none: a correctness reading that must stay <= 1e-9",
     lambda t: t.counters["clustering.accounting_gap_max"]),
    ("constraints.close_constraints_s", "s", "sum",
     "learn_s on headline (dense label sets, where it dominates, are not a workload)",
     lambda t: t.self_seconds("constraints.close_constraints")),
    ("constraints.neighborhoods_s", "s", "sum",
     "learn_s on headline (dense label sets, where it dominates, are not a workload)",
     lambda t: t.self_seconds("constraints.neighborhoods")),
    ("constraints.constraints_from_labels_s", "s", "sum",
     "learn_s on headline (dense label sets, where it dominates, are not a workload)",
     lambda t: t.self_seconds("constraints.constraints_from_labels")),
    ("constraints.must_pairs", "count", "sum",
     "learn_s on headline (dense label sets, where it dominates, are not a workload)",
     lambda t: t.counters["constraints.must_pairs"]),
    ("constraints.cannot_pairs", "count", "sum",
     "learn_s on headline (dense label sets, where it dominates, are not a workload)",
     lambda t: t.counters["constraints.cannot_pairs"]),
    ("corpus_tools.generate_synthetic_s", "s", "sum",
     "setup_s on every workload",
     lambda t: t.self_seconds("corpus_tools.generate_synthetic")),
    ("corpus_tools.save_corpus_s", "s", "sum",
     "setup_s on headline and k_sweep",
     lambda t: t.self_seconds("corpus_tools.save_corpus")),
    ("corpus_tools.load_corpus_s", "s", "sum",
     "learn_s on headline and k_sweep",
     lambda t: t.self_seconds("corpus_tools.load_corpus")),
    ("model.corpus_init_s", "s", "sum",
     "setup_s on every workload; learn_s on headline",
     lambda t: t.self_seconds("model.Corpus.__init__")),
    ("model.distinct_rows", "count", "max",
     "none: the size of the input in distinct code rows",
     _distinct_rows),
    ("experiments.draw_labeled_samples_s", "s", "sum",
     "learn_s on headline and k_sweep; setup_s on the library workloads",
     lambda t: t.self_seconds("experiments.draw_labeled_samples")),
    ("experiments.write_atomic_s", "s", "sum",
     "learn_s on headline and k_sweep",
     lambda t: t.self_seconds("experiments.write_atomic")),
    ("experiments.artifact_bytes", "bytes", "sum",
     "learn_s on headline and k_sweep",
     lambda t: t.counters["experiments.artifact_bytes"]),
    ("evaluation.evaluate_s", "s", "sum",
     "learn_s on headline and k_sweep",
     lambda t: t.self_seconds("evaluation.evaluate")),
    ("plots.svg_s", "s", "sum",
     "learn_s on headline and k_sweep",
     lambda t: t.self_seconds("plots.svg")),
    ("cli.self_s", "s", "sum",
     "learn_s on headline and k_sweep",
     lambda t: t.self_seconds("cli.main")),
]


# Counters that keep the largest value seen instead of a total.
MAX_COUNTERS = {name for name, _, combine, _, _ in LAYER_METRICS if combine == "max"}

# Figures of a traced run that run.py computes itself.
RUN_METRICS = [("trace.overhead_ratio", "ratio"), ("trace.absent_sites", "count")]


def per_layer_units():
    return dict([(name, unit) for name, unit, _, _, _ in LAYER_METRICS] + RUN_METRICS)


def layer_values(tracer):
    return {name: float(value(tracer)) for name, _, _, _, value in LAYER_METRICS}


def combine(setup, learn, passes):
    """Per-layer figures of one traced set-up plus one learning pass."""
    kinds = {name: kind for name, _, kind, _, _ in LAYER_METRICS}
    return {
        name: max(setup[name], learn[name]) if kinds[name] == "max"
        else setup[name] + learn[name] / passes
        for name in setup
    }
