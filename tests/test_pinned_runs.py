"""Pinned results of small reference runs: any change to the numbers the
clustering loop produces shows up here.

N=2000 synthetic corpus (seed 0); mpck with 3 labels per class (draw seed 0,
w=1.5, w_bar=1.95) and k-means, both with run seed 0.  Assignments,
centroids and metric weights are pinned by the sha256 of their JSON form
(`ClusterModel.to_dict`), iterations exactly, the objective to 1e-12
relative.  The K=15 mpck digest was re-pinned when the violation tallies
of the metric update came to be summed over counts (two of its 480
weights moved by one ulp; assignments and centroids kept their bytes).
The K=15 mpck digest is the one that byte-checks the path of a moving
constrained point (`_State.move` and the array pass after a mover): 21 of
its 315 constrained visits move, while the K=21 and K=35 runs move none
of their 63 and 126 (counted by wrapping `_State.move`), so CI's reruns
of this file under other `PYTHONHASHSEED`s and `OPENBLAS_CORETYPE`s check
that path through it.  Of the N=5000 runs below only the pair-form one
moves any, 4 of its 168 visits.

On an N=5000 synthetic corpus (seed 0), mpck runs at K=21 with 1, 5, 20
and 50 labels per class (draw seed 0), and with a pair-form constraint set
whose closure adds pairs, pin the sha256 of `to_json()`, the bits of the
objective, of its history and of the accounting gap, how the run stopped
and its iterations; these values were computed before label constraints
were held as must-link components.  The 1, 5 and pair-form cases were
re-pinned when the objective came to be summed over the (distinct rows, K)
count matrix: objectives and histories moved by at most one ulp, the
1-label gap from 0 to 2**-31, and assignments, centroids, weights,
iterations and stops kept their bits.  The 1-label and pair-form gaps
were re-pinned (to 1.75 and 1.25 times 2**-39) when the gap came to
compare the exact sum of the points' cost deltas with the exact sum of
the objective terms' change, instead of a tracked total with a
recomputed one.  They run at the default PAIR_BLOCK and at 1, where the
link distances are built one row of slots per block.

An mpck run on a corpus whose rows are almost all distinct (the
ClientHello spec of `specs.py`, N=3000, noise 0.5, K=8, 1 label per class,
labels seed 0; its max-pair scans take up to 680 distinct rows, 375 on
average) pins the sha256 of `to_json()`, computed while the pair scan still
added one field at a time over (rows, columns) blocks.  It runs at the
default PAIR_BLOCK and at one small enough that each scan spans many
blocks.

A small CLI pipeline (synth, cluster, eval and both sweeps, then each run
option away from its default) pins the sha256 of every file it writes and
of its stdout without durations; the digests were computed before the
experiment commands shared one declaration of their options.  The four
sweep CSVs were re-pinned when the objective became a Python float: they
held `np.float64(...)` under numpy 2, and now hold the same plain repr
as under numpy 1.24.  When the objective came to be summed over the
count matrix, the two mpck model.json files (their objective line), the
four sweep CSVs (their objective column) and stdout (the accounting gap of
the `--tol 1e9` run) were re-pinned; every other file kept its bytes.
stdout was re-pinned again with the gap's new definition, above: the
`gap=` field of the two K=15 mpck runs fell from 2.91e-11 to 5.68e-13
and 2.49e-13, and every other byte held.  When the objective came to be
the exact sum (`math.fsum`) of its terms, rounded once instead of once
per addition, mpck/model.json and options/model.json (their objective
line), sweep-k/sweep_k.csv, sweep-labels/sweep_labels.csv and
sweep-labels-options/sweep_labels.csv (their objective column) were
re-pinned: each objective moved by one ulp, and every other byte, stdout
included, held.  The N=5000 runs' objectives kept their bits.
data/corpus.json was re-pinned when `corpus.json` became format 3 (row
ids and the source-id rule as base64 integer arrays); every other file,
and stdout, kept its bytes.  data/labels.json was re-pinned when
`labels.json` became format 2 (each label plus one as one base64 integer
array); every other file, and stdout, kept its bytes.

The N=5000 CLI pipeline (synth seed 0, then cluster and eval with their
defaults) pins the sha256 of labels.json, model.json and eval.json, the
indented JSON files; these digests were computed while they were still
written by the stdlib's `json.dumps(indent=2)`.  It pins corpus.json too,
in format 3, the form it took when that pin was added.  model.json was re-pinned
when the objective came to be summed over the count matrix (its objective
line moved by one ulp), and labels.json when it became format 2.

The synthetic generator is pinned away from its defaults too: N=3000
corpora at noise rates 0.4 and 0.9, with non-uniform class weights, and at
arity 4, below the ClientHello template's length, so that noise fields
truncated away still consume draws; and at its defaults too, at N=20k
(the benchmark's large corpus) and at N=120k with noise 0.5; and at N=3000
with 7 of the 21 classes weighted 0, so that templates no message draws
are left out of the corpus.  Each pins the sha256 of the corpus' format-2
dict (`oracles.corpus_format2`, every row id and source id written out)
and of the labels' format-1 dict (`oracles.labels_format1`, every label
written out); these digests were computed
while synth still made one scalar draw per noise field, except that of
the undrawn classes, computed while synth still numbered only the drawn
classes' template rows.
"""

import hashlib
import json
import math
import random
import re
from dataclasses import replace
from unittest.mock import patch

import pytest

import oracles
from specs import clienthello_spec
from protoabs import metric
from protoabs.cli import main
from protoabs.clustering import MpckConfig, _state_from_model, run_kmeans, run_mpck
from protoabs.constraints import ConstraintSet, constraints_from_labels
from protoabs.corpus_tools import generate_synthetic
from protoabs.experiments import draw_labeled_samples
from protoabs.tls_default import default_synth_spec

PINNED = {
    ("mpck", 15): ("e3133c9e8de3cb128da773b4c28e1a3f45638926b3113735d9ea78f5d8d8eb22", 5, -822178.1975795963),
    ("mpck", 21): ("6e00a7d6340f9de5914ff68468f755ab50dac77df756c13d7eeb7b208500bfd1", 1, -853567.150944076),
    ("mpck", 35): ("21e8361d6c14acd2021a64106759ab030349c377eae9ab12f3e4c40ea54402b3", 2, -855846.8449204897),
    ("kmeans", 15): ("b9c90eef3d21e5293d15a820b8a752dded0b90c541b31c1bd96ff7075e6397ea", 2, 1095.0),
    ("kmeans", 21): ("e04e12438129803591c57445317ab0623d5dcd5e6eabb2416203c873b01ad6ad", 2, 635.0),
    ("kmeans", 35): ("86545bc767cf3dacc24b8fb9ae10fb2193d6926224edb4368204f1c9a0c5f2ed", 2, 275.0),
}


@pytest.fixture(scope="module")
def inputs():
    corpus, labels = generate_synthetic(default_synth_spec(n_messages=2000, seed=0))
    cs = constraints_from_labels(draw_labeled_samples(labels, 3, seed=0), w=1.5, w_bar=1.95)
    return corpus, cs


@pytest.mark.parametrize("algorithm,k", sorted(PINNED), ids=["%s-K%d" % p for p in sorted(PINNED)])
def test_pinned_run(inputs, algorithm, k):
    corpus, cs = inputs
    cfg = MpckConfig(k=k, seed=0)
    model = run_mpck(corpus, cs, cfg) if algorithm == "mpck" else run_kmeans(corpus, cfg)
    d = model.to_dict()
    pinned = {key: d[key] for key in ("assignments", "centroids", "metric_weights")}
    digest = hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()
    want_digest, want_iterations, want_objective = PINNED[algorithm, k]
    assert digest == want_digest
    assert model.iterations == want_iterations
    assert model.objective == pytest.approx(want_objective, rel=1e-12, abs=0)


# key: labels per class, or "pairs"; value: (sha256 of to_json(), objective
# hex, objective_history hex, accounting_gap hex, converged_by, iterations)
PINNED_DENSE = {
    1: ("d72b3c7a06a2ce3fe0deb060049b166a7ec248c22b6e0f1977118de7dc124600",
        "-0x1.0455cf046ead8p+21", ("-0x1.0455cf046ead8p+21",), "0x1.c000000000000p-39",
        "fixpoint", 2),
    5: ("12a38d2cf5caf1bbb97eeadd42c1efc41f0ac29c04f967ff05e7159f2bfb13a0",
        "-0x1.0455cf046ead8p+21", (), "0x0.0p+0", "fixpoint", 1),
    20: ("9e1bd402aa43ebc11882befc6b8dae6433a7de3545acbbbad0c5f7f417964273",
         "-0x1.0455cf046ead8p+21", (), "0x0.0p+0", "fixpoint", 1),
    50: ("b6efe6fa745bd1cd265f075a1c2df422034fc583c7943f310d2c8686b7f1225f",
         "-0x1.0455cf046ead8p+21", (), "0x0.0p+0", "fixpoint", 1),
    "pairs": ("93fe84a3d0b60703a4214f726fddf5f3d36c437eeef698f12219cd247443a8b0",
              "-0x1.013d31e089581p+21", ("-0x1.013d31e089581p+21",), "0x1.4000000000000p-39",
              "fixpoint", 2),
}


@pytest.fixture(scope="module")
def corpus_5k():
    return generate_synthetic(default_synth_spec(n_messages=5000, seed=0))


def chained_pairs(labels):
    """Pair-form constraints whose closure adds pairs: a must-link chain
    through each class's 4 drawn samples, one must-link bridging the first
    two chains, and cannot-links from each class to the class two after it."""
    by_class = {}
    for s in draw_labeled_samples(labels, 4, seed=0):
        by_class.setdefault(s.class_id, []).append(s.index)
    chains = [by_class[c] for c in sorted(by_class)]
    must = [(a, b) for chain in chains for a, b in zip(chain, chain[1:])]
    must.append((chains[0][-1], chains[1][0]))
    cannot = [(c[0], d[-1]) for c, d in zip(chains, chains[2:])]
    return ConstraintSet(frozenset(must), frozenset(cannot), w=1.7, w_bar=0.6)


def dense_constraints(labels, case):
    return (chained_pairs(labels) if case == "pairs"
            else constraints_from_labels(draw_labeled_samples(labels, case, seed=0)))


@pytest.mark.parametrize("case,block", [
    pytest.param(case, block, id="%s%s" % (case, "-one-row-blocks" if block else ""))
    for block in (None, 1) for case in PINNED_DENSE])
def test_pinned_bits(corpus_5k, case, block):
    corpus, labels = corpus_5k
    cs = dense_constraints(labels, case)
    with patch.object(metric, "PAIR_BLOCK", block or metric.PAIR_BLOCK):
        model = run_mpck(corpus, cs, MpckConfig(k=21, seed=0))
    assert (
        hashlib.sha256(model.to_json().encode()).hexdigest(),
        model.objective.hex(),
        tuple(h.hex() for h in model.objective_history),
        model.accounting_gap.hex(),
        model.converged_by,
        model.iterations,
    ) == PINNED_DENSE[case]


PINNED_DISTINCT_ROWS = "25596c35a61a3c7ff0969b8edd3ea83bfaced6dfcbe0cfa47da6ce27b7a0fa02"


@pytest.mark.parametrize("block", [None, 2**14], ids=["default", "small-blocks"])
def test_pinned_distinct_rows_run(block):
    corpus, labels = generate_synthetic(clienthello_spec(3000))
    cs = constraints_from_labels(draw_labeled_samples(labels, 1, seed=0))
    with patch.object(metric, "PAIR_BLOCK", block or metric.PAIR_BLOCK):
        model = run_mpck(corpus, cs, MpckConfig(k=8, seed=0))
    assert hashlib.sha256(model.to_json().encode()).hexdigest() == PINNED_DISTINCT_ROWS


@pytest.mark.parametrize("k,case", [(21, 1), (21, "pairs"), (35, 1)], ids=str)
def test_objective_is_the_exact_sum_of_its_terms(corpus_5k, k, case):
    """The stored objective is `math.fsum` of the terms of the final state,
    and keeps its bits when they are summed reversed or shuffled; at K=35 a
    sum rounded term by term ends one ulp away."""
    corpus, labels = corpus_5k
    cs = dense_constraints(labels, case)
    model = run_mpck(corpus, cs, MpckConfig(k=k, seed=0))
    terms = _state_from_model(corpus, model, cs, None).objective()
    shuffled = random.Random(0).sample(terms, len(terms))
    for order in (terms, terms[::-1], shuffled):
        assert math.fsum(order).hex() == model.objective.hex()


PINNED_ARTIFACTS = {
    "data/corpus.json":
        "dd1aea261aa183daaae63be44aec02b430259f0e1a87bf4a60785e694d8d4391",
    "data/labels.json":
        "3570d4374be4569f8e9fa9e9ab98cbda9526bba1a877623901a80c251a67bde9",
    "eval/confusion.csv":
        "c57af4173ca66311c8388d0e9fb4c1d644ce29df395dc7c5dea1fef939dae829",
    "eval/eval.json":
        "3948a421d4d8ee2d37760a5fa572c342130aadbe865e8b621b487427165072d5",
    "kmeans/confusion.csv":
        "c57af4173ca66311c8388d0e9fb4c1d644ce29df395dc7c5dea1fef939dae829",
    "kmeans/confusion.svg":
        "8af5e848f490003c1a36ed5cb0b753dee14fe89e5d415bc62dae9f2aef7f4a86",
    "kmeans/eval.json":
        "3948a421d4d8ee2d37760a5fa572c342130aadbe865e8b621b487427165072d5",
    "kmeans/model.json":
        "a0785b2ca9a84a5f22ef4e67598b8670f0106f2b86c4aeade5273f9e82a9870c",
    "mpck/confusion.csv":
        "52fd30d86daa818994fd63912dffdac6bb64a898dd914091b40ba9e951eaa9ff",
    "mpck/confusion.svg":
        "21adc0fed99f20c3f075254b5c6cdf7fe2d16ef3c16af06f034a1f7d0ce78c4c",
    "mpck/eval.json":
        "49be75f367527b578174e8e8ee91b91155e3a4e2a7e185c6aa66d34984db2c12",
    "mpck/model.json":
        "ba3a700981f6265cce83ab302f2d9efc9376d1c71a3e227db39945ffce6cb34f",
    "options/confusion.csv":
        "5796bbe414526390fcac33294cfba343630696207f9a32b8b8bdcf0ab5aa2a14",
    "options/confusion.svg":
        "799b40b3302f4b98bf7f2ec29688a5887432e585f047166f0c159db4478804e4",
    "options/eval.json":
        "3754a0e988586fd8b0164e14249a565e94e371e515873bc8f2c4ba9168e883df",
    "options/model.json":
        "b12013283c6e1afceca02b1a3b457de10261d8a021eeb41d2a4ee600596d1230",
    "stdout":
        "f7b07940d5eb4d372b9a99caed26823adfe906a8d75557107517a4e4e35fb000",
    "sweep-k-options/sweep_k.csv":
        "790c814a209497d14f9ff6298d89fb0abdc8c27bad427852cd7090db1a7717b5",
    "sweep-k-options/sweep_k.svg":
        "361561d2bc38e45b25ca4c6989c0694ef844cc5f3ade6cc8b3136ef8b5d1f1fc",
    "sweep-k/sweep_k.csv":
        "34919daa013818073291c7d84827b765aa94fa67d90f0696b72af620deec2f8c",
    "sweep-k/sweep_k.svg":
        "4206074b546d15e42b0dc99f2d8bdd2bb5c1ca21e7ef388c69b166fad62c6aaf",
    "sweep-labels-options/sweep_labels.csv":
        "1885ff01aeaae9759990d3eb9b1f276ebbf5778a07b219b27762538943435231",
    "sweep-labels-options/sweep_labels.svg":
        "afbc64f4e3e7fecf451e1fb2d3b02ca12bed2465ecb20a1efd37efa3e577e039",
    "sweep-labels/sweep_labels.csv":
        "7a4d20e03839cb438abcd366253a04f9c1c34dc4d63312e8ea07ee1772e42b0c",
    "sweep-labels/sweep_labels.svg":
        "6623e6e354649bb3f44a3251aee2d79639733849042ffa8aea96d867992f1d58",
    "tol/confusion.csv":
        "e2526692e15e3a344ce90967fad415b4187709b9e49c7c218f9c5d518b1b1d01",
    "tol/confusion.svg":
        "384f341d474ea905fab4a2f029ebe282857df0e79d74a60ccebbaeeb49e8bc04",
    "tol/eval.json":
        "8293870eaa6932377a041863d7fa406a0a47693131c7b3d3fdd06f3bcbc2958b",
    "tol/model.json":
        "d636404a2cbeb9a173edea1fff7d2bb57bdf1f5db156bc310fae389bda5b5e03",
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_pinned_cli_artifacts(tmp_path, capsys):
    def out(name):
        return ["--out-dir", str(tmp_path / name)]

    labels = str(tmp_path / "data" / "labels.json")
    inputs = ["--corpus", str(tmp_path / "data" / "corpus.json"), "--labels", labels]
    for argv in [
        ["synth", "--n", "400"] + out("data"),
        ["cluster"] + inputs + out("mpck"),
        ["cluster", "--algorithm", "kmeans"] + inputs + out("kmeans"),
        ["eval", "--model", str(tmp_path / "kmeans" / "model.json"), "--labels", labels]
        + out("eval"),
        ["sweep-k", "--k", "20..22", "--seed", "0,1"] + inputs + out("sweep-k"),
        ["sweep-labels", "--counts", "1,2", "--mode", "unbalanced"] + inputs + out("sweep-labels"),
        # each run option away from its default, where it changes the result
        ["cluster", "--k", "15", "--labels-per-class", "1", "--tol", "1e9"] + inputs + out("tol"),
        ["cluster", "--k", "15", "--labels-per-class", "1", "--mode", "unbalanced", "--w", "0",
         "--w-bar", "1.95", "--max-iters", "2"] + inputs + out("options"),
        ["sweep-k", "--k", "15,30", "--labels-per-class", "2", "--w", "0", "--w-bar", "2",
         "--tol", "1e9"] + inputs + out("sweep-k-options"),
        ["sweep-labels", "--counts", "0,1", "--k", "15", "--seed", "0,2", "--w", "2",
         "--w-bar", "0.5", "--max-iters", "2"] + inputs + out("sweep-labels-options"),
    ]:
        assert main(argv) == 0, argv
    digests = {
        p.relative_to(tmp_path).as_posix(): _sha256(p.read_bytes())
        for p in sorted(tmp_path.rglob("*")) if p.is_file()
    }
    stdout = re.sub(r"duration=[0-9.]+s", "duration=", capsys.readouterr().out)
    digests["stdout"] = _sha256(stdout.encode())
    assert digests == PINNED_ARTIFACTS


PINNED_5K_JSON = {
    "data/corpus.json": "7f55a25b1374ce02fc7af8b23b1942eb8c633d8e901fe0c0fe0e491cd612a148",
    "data/labels.json": "1ba63fc9681a9b32b73125a11137f49db213b46b3703d0a4fc567073a8ebba7a",
    "run/model.json": "6f99faacd6e35f56d515a6ba4420e3cb304607d412e9ac00a695bc3bfdd04e11",
    "run/eval.json": "875c5752d72042c425d419dc4c85e6833a00b4043cc4cda38e888bc36b761603",
    "eval/eval.json": "875c5752d72042c425d419dc4c85e6833a00b4043cc4cda38e888bc36b761603",
}


def test_pinned_5k_json_artifacts(tmp_path):
    def out(name):
        return ["--out-dir", str(tmp_path / name)]

    labels = str(tmp_path / "data" / "labels.json")
    for argv in [
        ["synth", "--n", "5000", "--seed", "0"] + out("data"),
        ["cluster", "--corpus", str(tmp_path / "data" / "corpus.json"), "--labels", labels,
         "--seed", "0"] + out("run"),
        ["eval", "--model", str(tmp_path / "run" / "model.json"), "--labels", labels]
        + out("eval"),
    ]:
        assert main(argv) == 0, argv
    digests = {name: _sha256((tmp_path / name).read_bytes()) for name in PINNED_5K_JSON}
    assert digests == PINNED_5K_JSON


PINNED_SYNTH = {
    "noise-0.4": ("c9fe7234633bc5d50b599d7d88e4cc00093d2bd153bb3d5745efb287d268fdad",
                  "bcd68573f4a2fd4ed67a8f34bd2933654be86d33869969f3f8fd93f6a452d657"),
    "noise-0.9": ("8858201ae18f6eb368620f15129693e65dbad2894442498e4cf6da446c8fd752",
                  "68517981d1a4e2d0a256eb2c1fd12165103c043c76ab168e320b8d7c063f1840"),
    "weights": ("8efd529d46741996b3567dcbe82e2c49175bedecbe81ac77807150e9f880398c",
                "93c8076806d71bfba7d7747eb7db4aebb594025aa7dcb391104d67d70c933b07"),
    "arity-4": ("8be4f4890b4db6d6fa69a99477af2c6b0b8cdcb17d400aeeaca14e3804ecc778",
                "ba648f5359db146dd9be28d64a86e745874257f3b1ceb839bfefb100167f1d25"),
    "default-20k": ("bc6c40a2fe35658fbb0edf6f8a19169102057bdbbea5a7ad5a3aecea9e77561f",
                    "5fd782422aaaca7a0241f3d15d36d88a04a75cc07faad5985d1a1b4128175d30"),
    "noise-0.5-120k": ("e3b009ef1dfbbec98cdd87fa4b376347b83c0d1b37764ed80ab2617590a22f59",
                       "d1c1d7cd69fab82ba4925c4448b7ffcaac623278e8dd211e2f94545bd5175bb3"),
    "undrawn-classes": ("3ef1be4b02f3d57f22d6bc15015e793711e0207c1e0ba1600f7e19897d0a0447",
                        "02c8250f73236cb0382a3d281c326522ab8e7a466f1b8ff3c81256becbbdfd9b"),
}

SYNTH_SPECS = {
    "noise-0.4": default_synth_spec(n_messages=3000, noise_rate=0.4, seed=1),
    "noise-0.9": default_synth_spec(n_messages=3000, noise_rate=0.9, seed=2),
    "weights": replace(default_synth_spec(n_messages=3000, seed=3),
                       class_weights=tuple(range(1, 22))),
    "arity-4": default_synth_spec(n_messages=3000, noise_rate=0.5, seed=4, arity=4),
    "default-20k": default_synth_spec(n_messages=20000),
    "noise-0.5-120k": default_synth_spec(n_messages=120000, noise_rate=0.5),
    "undrawn-classes": replace(default_synth_spec(n_messages=3000, seed=5),
                               class_weights=tuple(c % 3 for c in range(21))),
}


def _json_sha256(obj):
    return _sha256(json.dumps(obj, sort_keys=True).encode())


@pytest.mark.parametrize("case", list(PINNED_SYNTH))
def test_pinned_synth(case):
    corpus, labels = generate_synthetic(SYNTH_SPECS[case])
    digests = (_json_sha256(oracles.corpus_format2(corpus)),
               _json_sha256(oracles.labels_format1(labels)))
    assert digests == PINNED_SYNTH[case]
