"""Command line experiment harness.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation.
"""

import argparse
import functools
import os
import sys

import numpy as np

from .clustering import ClusterModel
from .corpus_tools import (
    DEFAULT_DROP_KEYS,
    apply_rules,
    generate_synthetic,
    load_corpus,
    load_labels,
    load_rules,
    parse_trace_file,
    preprocess,
    read_json,
    save_corpus,
    save_labels,
    write_atomic,
)
from .errors import DataError, ProtoabsError, TooManyClusters, UnmatchedMessage
from .evaluation import evaluate
from .experiments import (
    run_experiment,
    sweep_csv,
    sweep_k,
    sweep_labels,
)
from .model import DEFAULT_ARITY, UNLABELED
from .plots import svg_heatmap, svg_lineplot
from .tls_default import default_rules, default_synth_spec


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("error: %s" % message, file=sys.stderr)
        raise SystemExit(1)


def _int_list(text):
    return [int(x) for x in text.split(",") if x != ""]


def _k_range(text):
    """A comma list, or lo..hi as a range; the bounds are checked before
    anything is built."""
    if ".." in text:
        lo, hi = (int(x) for x in text.split("..", 1))
        values, smallest = range(lo, hi + 1), lo
    else:
        values = _int_list(text)
        smallest = min(values, default=0)
    if not values or smallest < 1:
        raise argparse.ArgumentTypeError("need one or more K values >= 1, got %r" % text)
    return values


# argparse names a type in "invalid <name> value"
_int_list.__name__ = "integer list"
_k_range.__name__ = "K range"


def _bounded(convert, ok, rule):
    """argparse type: `convert(text)`, rejected unless `ok(value)`."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError("must be %s, got %r" % (rule, text))
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_positive_int = _bounded(int, lambda v: v >= 1, ">= 1")
_positive_float = _bounded(float, lambda v: v > 0, "> 0")
_penalty_weight = _bounded(float, lambda v: 0 <= v < float("inf"), "finite and >= 0")
_non_negative_int = _bounded(int, lambda v: v >= 0, ">= 0")
_rate = _bounded(float, lambda v: 0 <= v < 1, "in [0, 1)")
_count_list = _bounded(_int_list, lambda v: bool(v) and min(v) >= 0, "one or more counts >= 0")
_seed_list = _bounded(_int_list, lambda v: bool(v) and min(v) >= 0, "one or more seeds >= 0")


def _add_run_options(p):
    """The options of every command that clusters; see _run_options."""
    p.add_argument("--corpus", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--w", type=_penalty_weight, default=1.0)
    p.add_argument("--w-bar", type=_penalty_weight, default=1.0)
    p.add_argument("--max-iters", dest="max_iterations", metavar="MAX_ITERS",
                   type=_non_negative_int, default=200)
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    p.add_argument("--out-dir", required=True)


def _run_options(args):
    """The run options as keyword arguments of run_experiment and the sweeps."""
    return {name: getattr(args, name) for name in ("w", "w_bar", "max_iterations", "tol")}


@functools.cache
def build_parser():
    """The `protoabs` parser, built once per process; parsing leaves it
    unchanged."""
    parser = _Parser(prog="protoabs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic labeled corpus")
    p.set_defaults(run=cmd_synth)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n", type=_positive_int, default=5000)
    p.add_argument("--noise-rate", type=_rate, default=0.05)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--arity", type=_positive_int, default=DEFAULT_ARITY)

    p = sub.add_parser("ingest", help="parse a decoded trace file into a corpus")
    p.set_defaults(run=cmd_ingest)
    p.add_argument("trace_file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--arity", type=_positive_int, default=DEFAULT_ARITY)
    p.add_argument("--drop-keys", default=",".join(sorted(DEFAULT_DROP_KEYS)))
    p.add_argument("--sample-n", type=_positive_int, default=None)
    p.add_argument("--seed", type=_non_negative_int, default=0)

    p = sub.add_parser("label", help="apply abstraction rules to a corpus")
    p.set_defaults(run=cmd_label)
    p.add_argument("--corpus", required=True)
    p.add_argument("--rules", default=None, help="rule file (default: bundled TLS rules)")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("cluster", help="run one clustering experiment")
    p.set_defaults(run=cmd_cluster)
    _add_run_options(p)
    p.add_argument("--algorithm", choices=["kmeans", "mpck"], default="mpck")
    p.add_argument("--k", type=_positive_int, default=None)
    p.add_argument("--labels-per-class", type=_non_negative_int, default=5)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--mode", choices=["balanced", "unbalanced"], default="balanced")

    p = sub.add_parser("eval", help="evaluate a stored model against labels")
    p.set_defaults(run=cmd_eval)
    p.add_argument("--model", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("sweep-k", help="sweep the cluster count K")
    p.set_defaults(run=cmd_sweep_k)
    _add_run_options(p)
    p.add_argument("--k", type=_k_range, default="20..40",
                   help="range lo..hi or comma list")
    p.add_argument("--labels-per-class", type=_non_negative_int, default=1)
    p.add_argument("--seed", type=_seed_list, default="0", help="comma-separated seeds")

    p = sub.add_parser("sweep-labels", help="sweep labels per class")
    p.set_defaults(run=cmd_sweep_labels)
    _add_run_options(p)
    p.add_argument("--counts", type=_count_list, default="1,2,3,4,5")
    p.add_argument("--mode", choices=["balanced", "unbalanced"], default="balanced")
    p.add_argument("--k", type=_positive_int, default=None)
    p.add_argument("--seed", type=_seed_list, default="0", help="comma-separated seeds")

    return parser


def _summary(corpus, labels=None):
    line = "N=%d F=%d" % (len(corpus), corpus.arity)
    if labels is not None:
        hist = np.bincount(
            [l for l in labels.labels if l != UNLABELED], minlength=labels.n_classes
        )
        line += " J=%d class_histogram=%s" % (labels.n_classes, hist.tolist())
    return line


def _load_labeled_corpus(args, k_values=None):
    """The corpus and labels of a clustering command, checked against each
    other and against the K of its runs before any run: `k_values`, or
    else `--k` or the number of classes.  `k_values` may be a huge range,
    so the check stops at its first K above the corpus size."""
    corpus = load_corpus(args.corpus)
    labels = load_labels(args.labels)
    if len(labels) != len(corpus):
        raise DataError(
            "labels %s has %d entries but corpus %s has %d messages"
            % (args.labels, len(labels), args.corpus, len(corpus))
        )
    if k_values is None:
        k_values = [args.k or labels.n_classes]
    too_big = next((k for k in k_values if k > len(corpus)), None)
    if too_big is not None:
        raise TooManyClusters(
            "K=%d exceeds the %d messages of corpus %s" % (too_big, len(corpus), args.corpus)
        )
    return corpus, labels


def cmd_synth(args):
    spec = default_synth_spec(
        n_messages=args.n, noise_rate=args.noise_rate, seed=args.seed, arity=args.arity
    )
    corpus, labels = generate_synthetic(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    save_corpus(corpus, os.path.join(args.out_dir, "corpus.json"))
    save_labels(labels, os.path.join(args.out_dir, "labels.json"))
    print(_summary(corpus, labels))
    return 0


def cmd_ingest(args):
    traces = parse_trace_file(args.trace_file)
    drop = frozenset(k for k in args.drop_keys.split(",") if k)
    corpus = preprocess(
        traces, arity=args.arity, drop_keys=drop, sample_n=args.sample_n, seed=args.seed
    )
    os.makedirs(args.out_dir, exist_ok=True)
    save_corpus(corpus, os.path.join(args.out_dir, "corpus.json"))
    print(_summary(corpus))
    return 0


def cmd_label(args):
    corpus = load_corpus(args.corpus)
    if not args.rules:
        labels = apply_rules(corpus, default_rules())
    else:
        try:
            labels = apply_rules(corpus, load_rules(args.rules))
        except UnmatchedMessage as e:
            raise UnmatchedMessage("rules %s: %s" % (args.rules, e)) from e
    os.makedirs(args.out_dir, exist_ok=True)
    save_labels(labels, os.path.join(args.out_dir, "labels.json"))
    print(_summary(corpus, labels))
    return 0


def _write_report(out_dir, report):
    write_atomic(os.path.join(out_dir, "eval.json"), report.to_json() + "\n")
    write_atomic(os.path.join(out_dir, "confusion.csv"), report.confusion_csv())


def cmd_cluster(args):
    corpus, labels = _load_labeled_corpus(args)
    result = run_experiment(
        corpus,
        labels,
        algorithm=args.algorithm,
        k=args.k,
        labels_per_class=args.labels_per_class,
        seed=args.seed,
        mode=args.mode,
        **_run_options(args),
    )
    model, report = result.model, result.report
    os.makedirs(args.out_dir, exist_ok=True)
    write_atomic(
        os.path.join(args.out_dir, "model.json"), model.to_json() + "\n"
    )
    _write_report(args.out_dir, report)
    heatmap = svg_heatmap(
        report.confusion.counts,
        ["w%d" % k for k in report.confusion.row_ids],
        ["c%d" % j for j in report.confusion.col_ids],
        title="%s K=%d purity=%.4f ARI=%.4f"
        % (result.algorithm, result.k, report.purity, report.ari),
    )
    write_atomic(os.path.join(args.out_dir, "confusion.svg"), heatmap)
    print(
        "%s k=%d seed=%d purity=%.6f ari=%.6f objective=%.6f iters=%d "
        "converged_by=%s gap=%.3g must=%d cannot=%d duration=%.2fs"
        % (
            result.algorithm, result.k, result.seed, report.purity,
            report.ari, model.objective, model.iterations,
            model.converged_by, model.accounting_gap,
            result.n_must, result.n_cannot, result.duration,
        )
    )
    return 0


def cmd_eval(args):
    model = read_json(args.model, ClusterModel.from_dict, "model")
    labels = load_labels(args.labels)
    if len(model.assignments) != len(labels):
        raise DataError(
            "model %s assigns %d messages but labels %s has %d"
            % (args.model, len(model.assignments), args.labels, len(labels))
        )
    report = evaluate(model.assignments, labels)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_report(args.out_dir, report)
    print("purity=%.6f ari=%.6f n=%d" % (report.purity, report.ari, report.n))
    return 0


def _write_sweep(out_dir, name, x_field, x_values, rows, means, **plot):
    """<name>.csv with the runs and means, <name>.svg with the means."""
    os.makedirs(out_dir, exist_ok=True)
    write_atomic(os.path.join(out_dir, name + ".csv"), sweep_csv(rows, means, x_field))
    series = {
        "purity": [means[x][0] for x in x_values],
        "ari": [means[x][1] for x in x_values],
    }
    write_atomic(os.path.join(out_dir, name + ".svg"), svg_lineplot(x_values, series, **plot))


def cmd_sweep_k(args):
    corpus, labels = _load_labeled_corpus(args, args.k)
    k_values = list(args.k)
    rows, means, best_k = sweep_k(
        corpus, labels, k_values, args.seed,
        labels_per_class=args.labels_per_class, **_run_options(args),
    )
    _write_sweep(
        args.out_dir, "sweep_k", "k", k_values, rows, means,
        title="K sweep (labels/class=%d)" % args.labels_per_class, x_label="K",
    )
    print("best_k=%d ari=%.6f" % (best_k, means[best_k][1]))
    return 0


def cmd_sweep_labels(args):
    corpus, labels = _load_labeled_corpus(args)
    rows, means = sweep_labels(
        corpus, labels, args.counts, args.seed, mode=args.mode, k=args.k,
        **_run_options(args),
    )
    _write_sweep(
        args.out_dir, "sweep_labels", "labels_per_class", args.counts, rows, means,
        title="labels-per-class sweep (%s)" % args.mode, x_label="labels per class",
    )
    for c in args.counts:
        print("labels_per_class=%d mean_purity=%.6f mean_ari=%.6f"
              % (c, means[c][0], means[c][1]))
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 1
    try:
        return args.run(args)
    except (DataError, OSError) as e:
        print("data error: %s" % e, file=sys.stderr)
        return 2
    except ProtoabsError as e:
        print("internal error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
