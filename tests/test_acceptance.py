"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools

import numpy as np
import pytest

import oracles
from oracles import f_cannot, unit_metric
from protoabs.clustering import (
    ClusterModel,
    MpckConfig,
    PenaltyContext,
    evaluate_objective,
    run_kmeans,
    run_mpck,
)
from protoabs.cli import main as cli_main
from protoabs.constraints import ConstraintSet, LabeledSample, constraints_from_labels
from protoabs.corpus_tools import generate_synthetic, load_corpus, save_corpus
from protoabs.evaluation import ari, confusion, purity
from protoabs.experiments import run_experiment, sweep_k, sweep_labels
from protoabs.model import LabelVector, build_corpus
from protoabs.tls_default import default_synth_spec

SEEDS = [0, 1, 2, 3, 4]


def report(num, ok, detail):
    print("ACCEPTANCE %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


@pytest.fixture(scope="module")
def default_corpus():
    return generate_synthetic(default_synth_spec())  # J=21, N=5000, noise 0.05


@pytest.fixture(scope="module")
def headline_runs(default_corpus):
    corpus, labels = default_corpus
    mpck = [
        run_experiment(corpus, labels, algorithm="mpck", k=21,
                       labels_per_class=5, seed=s)
        for s in SEEDS
    ]
    kmeans = [
        run_experiment(corpus, labels, algorithm="kmeans", k=21, seed=s)
        for s in SEEDS
    ]
    return mpck, kmeans


def test_criterion_1_perfect_abstraction(headline_runs):
    mpck, _ = headline_runs
    perfect = sum(
        1 for r in mpck if r.report.purity == 1.0 and r.report.ari == 1.0
    )
    slowest = max(r.duration for r in mpck)
    report(
        1,
        perfect >= 4 and slowest <= 300.0,
        "perfect runs %d/5, slowest %.1fs" % (perfect, slowest),
    )


def test_criterion_2_baseline_gap(headline_runs):
    mpck, kmeans = headline_runs
    mp = float(np.mean([r.report.purity for r in mpck]))
    ma = float(np.mean([r.report.ari for r in mpck]))
    kp = float(np.mean([r.report.purity for r in kmeans]))
    ka = float(np.mean([r.report.ari for r in kmeans]))
    report(
        2,
        kp < mp and ka < ma,
        "kmeans purity %.3f ari %.3f vs mpck %.3f / %.3f" % (kp, ka, mp, ma),
    )


def test_criterion_3_label_sweep(default_corpus):
    corpus, labels = default_corpus
    _, means = sweep_labels(corpus, labels, [1, 2, 3, 4, 5], seeds=SEEDS)
    aris = [means[c][1] for c in [1, 2, 3, 4, 5]]
    monotone = all(b >= a - 1e-12 for a, b in zip(aris, aris[1:]))
    report(
        3,
        monotone and aris[-1] == 1.0,
        "mean ARI by labels/class: %s" % ["%.4f" % a for a in aris],
    )


def test_criterion_4_k_sweep_shape(default_corpus):
    corpus, labels = default_corpus
    _, means, best_k = sweep_k(
        corpus, labels, list(range(20, 41)), seeds=SEEDS, labels_per_class=1
    )
    report(4, 21 <= best_k <= 23, "argmax-ARI K = %d" % best_k)


def _pair_count_ari(assignments, labels):
    """Independent oracle: classify every point pair directly."""
    a_arr = np.asarray(assignments)
    l_arr = np.asarray(labels)
    same_c = a_arr[:, None] == a_arr[None, :]
    same_l = l_arr[:, None] == l_arr[None, :]
    iu = np.triu_indices(len(a_arr), k=1)
    sc, sl = same_c[iu], same_l[iu]
    a = int(np.sum(sc & sl))
    b = int(np.sum(sc & ~sl))
    c = int(np.sum(~sc & sl))
    d = int(np.sum(~sc & ~sl))
    denom = (a + b) * (b + d) + (a + c) * (c + d)
    if denom == 0:
        return 1.0 if b == 0 and c == 0 else 0.0
    return 2.0 * (a * d - b * c) / denom


def test_criterion_5_evaluation_oracles():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 201))
        assignments = rng.integers(0, int(rng.integers(1, 8)), size=n)
        classes = rng.integers(0, int(rng.integers(1, 8)), size=n)
        lv = LabelVector(tuple(int(x) for x in classes), n_classes=int(classes.max()) + 1)
        worst = max(worst, abs(ari(assignments, lv) - _pair_count_ari(assignments, classes)))
    ok_ari = worst <= 1e-12
    ok_purity = True
    for _ in range(100):
        n = int(rng.integers(2, 40))
        assignments = rng.integers(0, 5, size=n)
        classes = rng.integers(0, 4, size=n)
        lv = LabelVector(tuple(int(x) for x in classes), n_classes=4)
        expected = sum(
            max((classes[assignments == k] == j).sum() for j in range(4))
            for k in set(assignments.tolist())
        ) / n
        ok_purity &= abs(purity(confusion(assignments, lv)) - expected) < 1e-12
    report(5, ok_ari and ok_purity, "max ARI deviation %.2e" % worst)


def _random_instance(rng, n=25, arity=4, n_labeled=8, n_classes=3, alphabet=3):
    raw = [["t%d" % rng.integers(alphabet) for _ in range(arity)] for _ in range(n)]
    corpus = build_corpus(raw, arity=arity)
    picks = rng.choice(n, size=n_labeled, replace=False)
    samples = [LabeledSample(int(i), int(rng.integers(n_classes))) for i in picks]
    return corpus, constraints_from_labels(samples)


def test_criterion_6_objective_invariants(headline_runs):
    mpck, kmeans = headline_runs
    worst_gap = max(r.model.accounting_gap for r in mpck + kmeans)

    rng = np.random.default_rng(99)
    monotone_ok = True
    for trial in range(50):
        corpus, cs = _random_instance(rng)
        cfg = MpckConfig(k=3, seed=trial, metric_update_enabled=False)
        model = run_mpck(corpus, cs, cfg)
        worst_gap = max(worst_gap, model.accounting_gap)
        hist = model.objective_history
        monotone_ok &= all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    # 1e5 random f_cannot probes over a random clustered corpus, the oracle
    # formula evaluated against the package's max-pair table
    corpus, _ = _random_instance(rng, n=120, arity=6)
    assignments = rng.integers(0, 4, size=120)
    metrics = tuple(unit_metric(6) for _ in range(4))
    ctx = PenaltyContext.build(corpus, assignments, metrics)
    probes = rng.integers(0, 120, size=(100_000, 2))
    clusters = rng.integers(0, 4, size=100_000)
    nonneg = all(
        f_cannot(corpus.messages[i], corpus.messages[j], metrics[h], ctx.maxd2[h]) >= 0.0
        for (i, j), h in zip(probes, clusters)
    )
    report(
        6,
        worst_gap <= 1e-9 and monotone_ok and nonneg,
        "max accounting gap %.2e, monotone=%s, f_cannot>=0=%s"
        % (worst_gap, monotone_ok, nonneg),
    )


def _planted_instance(rng, n=8, arity=3, flip=0.25):
    """Two noisy template classes; the regime neighborhood init is built for."""
    templates = [["a%d" % f for f in range(arity)], ["b%d" % f for f in range(arity)]]
    cls = rng.integers(0, 2, size=n)
    cls[0], cls[1] = 0, 1
    raw = []
    for c in cls:
        row = list(templates[c])
        for f in range(arity):
            if rng.random() < flip:
                row[f] = "n%d" % rng.integers(3)
        raw.append(row)
    corpus = build_corpus(raw, arity=arity)
    picks = rng.choice(n, size=4, replace=False)
    samples = [LabeledSample(int(i), int(cls[i])) for i in picks]
    return corpus, constraints_from_labels(samples)


def test_criterion_7_exhaustive_small_instances():
    rng = np.random.default_rng(7)
    local_optima = 0
    for trial in range(30):
        corpus, cs = _planted_instance(rng)
        cfg = MpckConfig(k=2, seed=trial, metric_update_enabled=False, tol=1e-12)
        model = run_mpck(corpus, cs, cfg)
        best = np.inf
        for bits in itertools.product([0, 1], repeat=8):
            assignments = np.array(bits, dtype=np.int64)
            if assignments.min() == assignments.max():
                continue  # both clusters must be non-empty
            candidate = ClusterModel(
                k=2,
                centroids=oracles.centroids(corpus, assignments, 2),
                metrics=tuple(unit_metric(3) for _ in range(2)),
                assignments=assignments,
                objective=0.0,
            )
            best = min(best, evaluate_objective(corpus, candidate, cs))
        if model.objective > best + 1e-9:
            local_optima += 1
    report(
        7,
        local_optima < 6,
        "local optima in %d/30 instances (< 20%% required)" % local_optima,
    )


def test_criterion_8_reduction():
    rng = np.random.default_rng(55)
    ok = True
    for trial in range(20):
        corpus, _ = _random_instance(rng, n=30, arity=4)
        cfg = MpckConfig(k=4, seed=trial, metric_update_enabled=False)
        mpck = run_mpck(corpus, ConstraintSet(), cfg)
        kmeans = run_kmeans(corpus, MpckConfig(k=4, seed=trial))
        ok &= bool(np.array_equal(mpck.assignments, kmeans.assignments))
    report(8, ok, "20/20 instances assignment-identical")


def test_criterion_9_determinism_and_roundtrip(tmp_path):
    data = tmp_path / "data"
    assert cli_main(["synth", "--out-dir", str(data), "--n", "400", "--seed", "3"]) == 0
    argv = [
        "cluster", "--corpus", str(data / "corpus.json"),
        "--labels", str(data / "labels.json"),
        "--algorithm", "mpck", "--k", "21", "--labels-per-class", "5", "--seed", "1",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(argv + ["--out-dir", str(out1)]) == 0
    assert cli_main(argv + ["--out-dir", str(out2)]) == 0
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ["model.json", "eval.json", "confusion.csv", "confusion.svg"]
    )

    corpus = load_corpus(data / "corpus.json")
    save_corpus(corpus, tmp_path / "again.json")
    roundtrip = (data / "corpus.json").read_bytes() == (tmp_path / "again.json").read_bytes()

    cs = constraints_from_labels([LabeledSample(i, i % 3) for i in range(6)])
    model = run_mpck(corpus, cs, MpckConfig(k=5, seed=2))
    model_roundtrip = ClusterModel.from_dict(model.to_dict()).to_dict() == model.to_dict()
    report(
        9,
        identical and roundtrip and model_roundtrip,
        "artifacts identical=%s corpus roundtrip=%s model roundtrip=%s"
        % (identical, roundtrip, model_roundtrip),
    )
