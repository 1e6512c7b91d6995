"""The benchmark's workloads: inputs made from the workload seed (some are
pinned; the comments on WORKLOADS say which and why), the learning calls that `learn_s` times, and the checks on their outputs.

Each workload has `setup(seed, work_dir, ops)`, which returns the state the
learning calls need, `learn(state, ops)`, which runs every learning call or
command once (one pass), and `check(state, out, ops)`, which verifies the
pass's outputs and returns the figures the benchmark reports.

Functions are looked up on their protoabs module at call time, so the
spans of spans.py see the benchmark's own calls too.
"""

import contextlib
import csv
import functools
import hashlib
import importlib
import io
import json
import os
import shutil
import traceback
from typing import Callable, NamedTuple

import numpy as np

from protoabs import cli, clustering, constraints, corpus_tools, evaluation, experiments
from protoabs import tls_default

K = 21                      # classes of the bundled synthetic corpus
GAP_LIMIT = 1e-9            # accounting gap the clustering loop must stay within
K_SWEEP = (15, 18, 24, 28, 35)


class Ops:
    """Attempted and failed operations; a failure is an exception, a
    non-zero CLI exit, or a failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def call(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.failures.append(name)
            traceback.print_exc()
            return None

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


class GapRecorder:
    """Records the accounting gap of every `run_mpck` call, untraced runs
    included: `run_mpck` is wrapped where `clustering` (for `run_kmeans`)
    and `experiments` (for the CLI) look it up.  A missing name is skipped."""

    SITES = ("protoabs.clustering", "protoabs.experiments")

    def __init__(self):
        self.gaps = []
        self._undo = []

    def install(self):
        for module_name in self.SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, "run_mpck", None)
            if fn is None:
                continue

            def recorded(*args, _fn=fn, **kwargs):
                model = _fn(*args, **kwargs)
                self.gaps.append(model.accounting_gap)
                return model

            setattr(module, "run_mpck", functools.wraps(fn)(recorded))
            self._undo.append((module, fn))

    def uninstall(self):
        while self._undo:
            module, fn = self._undo.pop()
            module.run_mpck = fn

    def check(self, ops):
        """One check over the runs recorded since the last one."""
        ops.check("accounting gap within %g" % GAP_LIMIT,
                  bool(self.gaps) and max(self.gaps) <= GAP_LIMIT)
        self.gaps = []


def _cli(argv):
    """protoabs.cli.main in this process; its stdout is kept out of the
    benchmark's result."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError("protoabs %s exited with %r" % (" ".join(argv), code))
    return out.getvalue()


def _sha256_tree_removed(root):
    """Digest of every file under `root`, which is then removed so that the
    next pass writes into an empty directory outside its timed interval."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    shutil.rmtree(root, ignore_errors=True)
    return h.hexdigest()


def _sha256_assignments(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# --- CLI workloads: the corpus goes through JSON, as users run it ---------

def _synth_setup(corpus_seed, run_seed, work_dir, ops):
    """`synth` to JSON; `run_seed` seeds the CLI runs."""
    data = os.path.join(work_dir, "data")
    ops.call("synth", _cli, ["synth", "--out-dir", data, "--n", "5000",
                             "--seed", str(corpus_seed)])
    return {
        "corpus": os.path.join(data, "corpus.json"),
        "labels": os.path.join(data, "labels.json"),
        "out": os.path.join(work_dir, "out"),
        "seed": run_seed,
    }


def headline_learn(state, ops):
    out = state["out"]          # the CLI creates it; the check removes it
    for algorithm in ("mpck", "kmeans"):
        for i in range(5):
            seed = 5 * state["seed"] + i
            ops.call("cluster %s seed %d" % (algorithm, seed), _cli, [
                "cluster", "--corpus", state["corpus"], "--labels", state["labels"],
                "--algorithm", algorithm, "--labels-per-class", "5", "--seed", str(seed),
                "--out-dir", os.path.join(out, "%s_%d" % (algorithm, i)),
            ])
    ops.call("eval", _cli, [
        "eval", "--model", os.path.join(out, "mpck_0", "model.json"),
        "--labels", state["labels"], "--out-dir", os.path.join(out, "eval"),
    ])
    return out


def headline_check(state, out, ops):
    def report(run):
        return ops.call("read %s" % run, _read_json, os.path.join(out, run, "eval.json")) or {}

    mpck = [report("mpck_%d" % s) for s in range(5)]
    kmeans = [report("kmeans_%d" % s) for s in range(5)]
    stored = report("eval")
    mpck_ari = [r.get("ari", float("nan")) for r in mpck]
    mpck_purity = [r.get("purity", float("nan")) for r in mpck]
    kmeans_ari = [r.get("ari", float("nan")) for r in kmeans]
    exact = sum(1 for a, p in zip(mpck_ari, mpck_purity) if a == 1.0 and p == 1.0)
    ops.check("at least 4 of 5 mpck runs exact", exact >= 4)
    ops.check("kmeans ARI below mpck ARI", float(np.mean(kmeans_ari)) < float(np.mean(mpck_ari)))
    ops.check("eval reproduces cluster ARI", all(
        stored.get(key) == mpck[0].get(key) for key in ("ari", "purity")))
    runs = ["mpck_%d" % s for s in range(5)] + ["kmeans_%d" % s for s in range(5)]
    models = [ops.call("read model %s" % run, _read_json, os.path.join(out, run, "model.json"))
              or {} for run in runs]
    return {
        "ari": float(np.mean(mpck_ari)),
        "purity": float(np.mean(mpck_purity)),
        "assignments_sha256": _sha256_assignments(m.get("assignments", []) for m in models),
        "artifacts_sha256": _sha256_tree_removed(out),
    }


def k_sweep_learn(state, ops):
    out = state["out"]
    state["stdout"] = ops.call("sweep-k", _cli, [
        "sweep-k", "--corpus", state["corpus"], "--labels", state["labels"],
        "--k", ",".join(str(k) for k in K_SWEEP), "--labels-per-class", "1",
        "--seed", str(state["seed"]), "--out-dir", out,
    ]) or ""
    return out


def _sweep_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def k_sweep_check(state, out, ops):
    rows = ops.call("read sweep_k.csv", _sweep_rows, os.path.join(out, "sweep_k.csv")) or []
    runs = [r for r in rows if r["seed"] != "mean"]
    ari = {int(r["k"]): float(r["ari"]) for r in runs}
    purity = {int(r["k"]): float(r["purity"]) for r in runs}
    ops.check("one run per K", sorted(ari) == list(K_SWEEP) and len(runs) == len(K_SWEEP))
    ops.check("K below the class count loses ARI",
              bool(ari) and ari.get(min(K_SWEEP), 1.0)
              < min(ari.get(k, 0.0) for k in K_SWEEP if k > K))
    best = max(K_SWEEP, key=lambda k: (ari.get(k, -1.0), -k))
    ops.check("printed best K matches the CSV", ("best_k=%d " % best) in state.get("stdout", ""))
    svg = os.path.join(out, "sweep_k.svg")
    ops.check("sweep_k.svg written", os.path.isfile(svg) and os.path.getsize(svg) > 0)
    return {
        "ari": float(np.mean(list(ari.values()))) if ari else float("nan"),
        "purity": float(np.mean(list(purity.values()))) if purity else float("nan"),
        "assignments_sha256": None,     # sweep-k writes no assignments
        "artifacts_sha256": _sha256_tree_removed(out),
    }


# --- library workloads: one corpus in memory, the public functions -------

def _library_setup(n, labels_per_class, corpus_seed, draw_seed, run_seed, ops):
    """Corpus and label draw in memory; `run_seed` seeds the mpck run."""
    spec = tls_default.default_synth_spec(n_messages=n, seed=corpus_seed)
    corpus, labels = (ops.call("generate_synthetic", corpus_tools.generate_synthetic, spec)
                      or (None, None))
    samples = ops.call("draw_labeled_samples", experiments.draw_labeled_samples,
                       labels, labels_per_class, draw_seed)
    return {"corpus": corpus, "labels": labels, "samples": samples, "seed": run_seed}


def _mpck(state, ops):
    cs = ops.call("constraints_from_labels", constraints.constraints_from_labels, state["samples"])
    state["constraints"] = cs
    return ops.call("run_mpck", clustering.run_mpck, state["corpus"], cs,
                    clustering.MpckConfig(k=K, seed=state["seed"]))


def _library_result(state, models, ops):
    reports = [ops.call("evaluate", evaluation.evaluate, m.assignments, state["labels"])
               if m is not None else None for m in models]
    first = reports[0]
    return reports, {
        "ari": first.ari if first else float("nan"),
        "purity": first.purity if first else float("nan"),
        "assignments_sha256": _sha256_assignments(m.assignments for m in models if m is not None),
        "artifacts_sha256": hashlib.sha256(
            "".join(m.to_json() for m in models if m is not None).encode("utf-8")).hexdigest(),
    }


def large_corpus_learn(state, ops):
    mpck = _mpck(state, ops)
    kmeans = ops.call("run_kmeans", clustering.run_kmeans, state["corpus"],
                      clustering.MpckConfig(k=K, seed=0))
    return [mpck, kmeans]


def large_corpus_check(state, out, ops):
    reports, result = _library_result(state, out, ops)
    ops.check("kmeans ARI below mpck ARI",
              all(reports) and reports[1].ari < reports[0].ari)
    return result


class Workload(NamedTuple):
    name: str
    setup: Callable
    learn: Callable
    check: Callable
    spans: list             # spans a traced run must see fire


_CLUSTER_SPANS = [
    "clustering.run_mpck", "clustering.PenaltyContext.build", "metric.max_separated_pair",
    "clustering.evaluate_objective", "constraints.close_constraints",
    "constraints.neighborhoods", "constraints.constraints_from_labels",
    "experiments.draw_labeled_samples", "corpus_tools.generate_synthetic",
    "model.Corpus.__init__",
]
_CLI_SPANS = _CLUSTER_SPANS + [
    "cli.main", "corpus_tools.save_corpus", "corpus_tools.load_corpus",
    "experiments.write_atomic", "evaluation.evaluate", "plots.svg",
]

WORKLOADS = {w.name: w for w in [
    # The corpus is pinned to synth seed 0: k-means' merges depend on the
    # corpus, and on corpus seed 9 they raised the pass time by half and
    # peak memory by 80% (9.0 s and 134 MB against 5.9 s and 74 MB).  Workload seed s runs
    # seeds 5s..5s+4, so seed 0 runs seeds 0-4 as in the paper.
    Workload(
        "headline",
        lambda seed, work_dir, ops: _synth_setup(0, seed, work_dir, ops),
        headline_learn, headline_check,
        _CLI_SPANS + ["clustering.run_kmeans"],
    ),
    # The corpus is pinned to synth seed 0: on other corpora k-means merges
    # other near-twin classes and its cost moves 2x (10.8-24 s, 373-1177 MB
    # for corpus seeds 0-2), which would swamp any change under test.  The
    # k-means run is pinned to seed 0 too, since its first pick moves peak
    # memory by 7%.  The workload seed draws the labels and seeds mpck.
    Workload(
        "large_corpus",
        lambda seed, work_dir, ops: _library_setup(20000, 5, 0, seed, seed, ops),
        large_corpus_learn, large_corpus_check,
        _CLUSTER_SPANS + ["clustering.run_kmeans"],
    ),
    # Corpus and sweep are pinned to seed 0, so k_sweep's inputs do not
    # depend on the workload seed: the sweep seed decides the merges at
    # K < J and with them the largest max-pair table (peak memory moved from
    # 64 to 99 MB over sweep seeds 0-6), and the corpus seed moved peak
    # memory by 13% (65-74 MB over corpus seeds 0-9).
    Workload(
        "k_sweep",
        lambda seed, work_dir, ops: _synth_setup(0, 0, work_dir, ops),
        k_sweep_learn, k_sweep_check,
        _CLI_SPANS,
    ),
]}
