"""Pinned results of small reference runs: any change to the numbers the
clustering loop produces shows up here.

N=2000 synthetic corpus (seed 0); mpck with 3 labels per class (draw seed 0,
w=1.5, w_bar=1.95) and k-means, both with run seed 0.  Assignments,
centroids and metric weights are pinned by the sha256 of their JSON form
(`ClusterModel.to_dict`), iterations exactly, the objective to 1e-12
relative.

On an N=5000 synthetic corpus (seed 0), mpck runs at K=21 with 1, 5, 20
and 50 labels per class (draw seed 0), and with a pair-form constraint set
whose closure adds pairs, pin the sha256 of `to_json()`, the bits of the
objective, of its history and of the accounting gap, how the run stopped
and its iterations; these values were computed before label constraints
were held as must-link components.

A small CLI pipeline (synth, cluster, eval and both sweeps, then each run
option away from its default) pins the sha256 of every file it writes and
of its stdout without durations; the digests were computed before the
experiment commands shared one declaration of their options.

The N=5000 CLI pipeline (synth seed 0, then cluster and eval with their
defaults) pins the sha256 of labels.json, model.json and eval.json, the
indented JSON files; these digests were computed while they were still
written by the stdlib's `json.dumps(indent=2)`.
"""

import hashlib
import json
import re

import pytest

from protoabs.cli import main
from protoabs.clustering import MpckConfig, run_kmeans, run_mpck
from protoabs.constraints import ConstraintSet, constraints_from_labels
from protoabs.corpus_tools import generate_synthetic
from protoabs.experiments import draw_labeled_samples
from protoabs.tls_default import default_synth_spec

PINNED = {
    ("mpck", 15): ("20baaeffa63dd858cfdf4e7b8aa9a20c4b514c5542e3f125517b7110f91d6eba", 5, -822178.1975795963),
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
        "-0x1.0455cf046ead8p+21", ("-0x1.0455cf046ead8p+21",), "0x0.0p+0", "fixpoint", 2),
    5: ("6e1d7413cc6b518be71d0fe8d69825fdb89d837112708745a84f35e4cb49984b",
        "-0x1.0455cf046ead9p+21", (), "0x0.0p+0", "fixpoint", 1),
    20: ("9e1bd402aa43ebc11882befc6b8dae6433a7de3545acbbbad0c5f7f417964273",
         "-0x1.0455cf046ead8p+21", (), "0x0.0p+0", "fixpoint", 1),
    50: ("b6efe6fa745bd1cd265f075a1c2df422034fc583c7943f310d2c8686b7f1225f",
         "-0x1.0455cf046ead8p+21", (), "0x0.0p+0", "fixpoint", 1),
    "pairs": ("bcd268bbec458a523fc9f5508e192bf831434ff0883db4338905040431f52f5b",
              "-0x1.013d31e089580p+21", ("-0x1.013d31e089580p+21",), "0x0.0p+0", "fixpoint", 2),
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


@pytest.mark.parametrize("case", list(PINNED_DENSE), ids=str)
def test_pinned_bits(corpus_5k, case):
    corpus, labels = corpus_5k
    cs = (chained_pairs(labels) if case == "pairs"
          else constraints_from_labels(draw_labeled_samples(labels, case, seed=0)))
    model = run_mpck(corpus, cs, MpckConfig(k=21, seed=0))
    assert (
        hashlib.sha256(model.to_json().encode()).hexdigest(),
        model.objective.hex(),
        tuple(h.hex() for h in model.objective_history),
        model.accounting_gap.hex(),
        model.converged_by,
        model.iterations,
    ) == PINNED_DENSE[case]


PINNED_ARTIFACTS = {
    "data/corpus.json":
        "21f09eb7bcab70a482d9d0f4817bb78e5067c44cc7f7939cfcce8645ab7708b3",
    "data/labels.json":
        "528ebc0e08e98d4faa2775d661212bd517cde82e5ef80bfe0c35c33505c8a9a9",
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
        "15fe7bd0e4f70884cd869c1d428ad2f5f4f1c781bc842aacc0f111514e27c28b",
    "sweep-k-options/sweep_k.csv":
        "530da24e7030e76d7f0ae56eba3fcc2cb29f46cae11cec94236d8052dd48cb74",
    "sweep-k-options/sweep_k.svg":
        "361561d2bc38e45b25ca4c6989c0694ef844cc5f3ade6cc8b3136ef8b5d1f1fc",
    "sweep-k/sweep_k.csv":
        "acdb9df4b920784a7729a9d92e6965836bf70f911f8c31eb437731d7ebc7ded4",
    "sweep-k/sweep_k.svg":
        "4206074b546d15e42b0dc99f2d8bdd2bb5c1ca21e7ef388c69b166fad62c6aaf",
    "sweep-labels-options/sweep_labels.csv":
        "c8438885c8d73634261c2dd3a1ba52da9925ac7bfa596f7178a00c01443c5bca",
    "sweep-labels-options/sweep_labels.svg":
        "afbc64f4e3e7fecf451e1fb2d3b02ca12bed2465ecb20a1efd37efa3e577e039",
    "sweep-labels/sweep_labels.csv":
        "ed4b2e2be12e3f3c6163ba504753e6907c04ca6bf446e0c92c075429be729527",
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
    "data/labels.json": "272e8ed04108eb311e4e6ccc1465b56168454889049f95763a6702ec58c8661a",
    "run/model.json": "158acc8b871107aeb013e4da0c0d47c00dfcf701152d61d2d98c21ab8328bbdf",
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
