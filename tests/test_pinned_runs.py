"""Pinned results of small reference runs: any change to the numbers the
clustering loop produces shows up here.

N=2000 synthetic corpus (seed 0); mpck with 3 labels per class (draw seed 0,
w=1.5, w_bar=1.95) and k-means, both with run seed 0.  Assignments,
centroids and metric weights are pinned by the sha256 of their JSON form
(`ClusterModel.to_dict`), iterations exactly, the objective to 1e-12
relative.
"""

import hashlib
import json

import pytest

from protoabs.clustering import MpckConfig, run_kmeans, run_mpck
from protoabs.constraints import constraints_from_labels
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
