import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from protoabs.clustering import MpckConfig, run_mpck
from protoabs.constraints import (
    MAX_PENALTY_WEIGHT,
    ClosedConstraints,
    ConstraintSet,
    LabeledSample,
    close_constraints,
    constraints_from_labels,
    load_labeled_samples,
    neighborhoods,
)
from protoabs.corpus_tools import generate_synthetic
from protoabs.errors import ConflictingLabels, InconsistentConstraints, ParseError
from protoabs.experiments import draw_labeled_samples
from protoabs.tls_default import default_synth_spec

PROPERTY = settings(max_examples=300, deadline=None)


def labels_for(per_class, n_classes, start=0):
    samples = []
    idx = start
    for c in range(n_classes):
        for _ in range(per_class):
            samples.append(LabeledSample(idx, c))
            idx += 1
    return samples


def test_five_labels_per_class_pair_counts():
    cs = constraints_from_labels(labels_for(5, 21))
    assert len(cs.must_links) == 21 * 10          # 21 * C(5,2)
    assert len(cs.cannot_links) == 105 * 104 // 2 - 210


def test_one_label_per_class_no_must_links():
    cs = constraints_from_labels(labels_for(1, 21))
    assert len(cs.must_links) == 0
    assert len(cs.cannot_links) == 21 * 20 // 2


def test_two_same_class_labels():
    cs = constraints_from_labels([LabeledSample(3, 0), LabeledSample(7, 0)])
    assert cs.must_links == frozenset({(3, 7)})
    assert cs.cannot_links == frozenset()


def test_conflicting_labels_rejected():
    with pytest.raises(ConflictingLabels):
        constraints_from_labels([LabeledSample(1, 0), LabeledSample(1, 1)])


def test_every_labeled_pair_is_constrained():
    samples = labels_for(3, 4)
    cs = constraints_from_labels(samples)
    total = len(samples) * (len(samples) - 1) // 2
    assert len(cs.must_links) + len(cs.cannot_links) == total


def test_transitive_closure_adds_must_link():
    cs = ConstraintSet(frozenset({(0, 1), (1, 2)}), frozenset())
    closed = close_constraints(cs)
    assert (0, 2) in closed.must_links


def test_closure_propagates_cannot_links():
    cs = ConstraintSet(frozenset({(0, 1)}), frozenset({(1, 2)}))
    closed = close_constraints(cs)
    assert (0, 2) in closed.cannot_links


def test_contradictory_pair_rejected():
    with pytest.raises(InconsistentConstraints):
        ConstraintSet(frozenset({(0, 1)}), frozenset({(0, 1)}))
    # contradiction only revealed by closure
    cs = ConstraintSet(frozenset({(0, 1), (1, 2)}), frozenset({(0, 2)}))
    with pytest.raises(InconsistentConstraints):
        close_constraints(cs)


def test_closure_idempotent_on_label_constraints():
    cs = constraints_from_labels(labels_for(3, 3))
    closed = close_constraints(cs)
    assert closed.must_links == cs.must_links
    assert closed.cannot_links == cs.cannot_links


def test_neighborhood_components():
    cs = close_constraints(
        ConstraintSet(frozenset({(0, 1), (1, 2)}), frozenset({(2, 3)}))
    )
    hoods = neighborhoods(cs)
    assert hoods == [(0, 1, 2), (3,)]


def test_neighborhoods_of_a_pair_set_skip_a_point_linked_to_itself():
    # a point linked only to itself is in no pair of the closure
    cs = ConstraintSet(frozenset({(3, 3), (5, 6)}), frozenset({(0, 1)}))
    assert neighborhoods(cs) == neighborhoods(close_constraints(cs)) == [(5, 6), (0,), (1,)]


def test_neighborhoods_of_a_pair_set_that_closing_rejects_raise():
    with pytest.raises(InconsistentConstraints):
        neighborhoods(ConstraintSet(frozenset({(0, 1), (1, 2)}), frozenset({(0, 2)})))


def test_singleton_neighborhoods_without_must_links():
    cs = constraints_from_labels(labels_for(1, 5))
    hoods = neighborhoods(cs)
    assert len(hoods) == 5
    assert all(len(h) == 1 for h in hoods)


def test_21_classes_5_labels_neighborhoods():
    cs = close_constraints(constraints_from_labels(labels_for(5, 21)))
    hoods = neighborhoods(cs)
    assert len(hoods) == 21
    assert all(len(h) == 5 for h in hoods)
    # no cannot-link inside a neighborhood
    for h in hoods:
        for a, b in itertools.combinations(h, 2):
            assert (a, b) not in cs.cannot_links


def test_labeled_sample_file(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("# seed labels\n3 0\n9 1  # second class\n\n12 1\n")
    assert load_labeled_samples(path) == [
        LabeledSample(3, 0),
        LabeledSample(9, 1),
        LabeledSample(12, 1),
    ]
    bad = tmp_path / "bad.txt"
    bad.write_text("3 0 7\n")
    with pytest.raises(ParseError):
        load_labeled_samples(bad)


def assert_closed_like(got, want):
    """`got` (components) holds exactly the pairs of `want` (a pair set),
    with the same weights and neighborhoods."""
    assert isinstance(got, ClosedConstraints)
    assert got.must_links == want.must_links
    assert got.cannot_links == want.cannot_links
    assert got.pair_counts() == (len(want.must_links), len(want.cannot_links))
    assert (got.w, got.w_bar) == (want.w, want.w_bar)
    assert got.points.tolist() == sorted({p for pair in want.must_links | want.cannot_links
                                          for p in pair})
    assert neighborhoods(got) == oracles.neighborhoods(want)
    assert close_constraints(got) is got


point_pairs = st.frozensets(st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=14)


@PROPERTY
@given(point_pairs, point_pairs, st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_closure_matches_pair_set_oracle(must, cannot, w, w_bar):
    try:
        cs = ConstraintSet(must, cannot, w=w, w_bar=w_bar)
    except InconsistentConstraints:
        return
    try:
        want = oracles.close_constraints(cs)
    except InconsistentConstraints:
        with pytest.raises(InconsistentConstraints):
            close_constraints(cs)
        with pytest.raises(InconsistentConstraints):
            neighborhoods(cs)
        return
    # neighborhoods of the pair set are those of its closure
    assert neighborhoods(cs) == oracles.neighborhoods(want)
    assert_closed_like(close_constraints(cs), want)


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(-3, 60)), max_size=30),
       st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_label_constraints_match_pair_oracle(labeled, w, w_bar):
    samples = [LabeledSample(i, c) for i, c in dict(labeled).items()]
    assert_closed_like(
        constraints_from_labels(samples, w=w, w_bar=w_bar),
        oracles.label_constraints(samples, w=w, w_bar=w_bar),
    )


EMPTY = np.zeros(0, dtype=np.int64)
WEIGHTED = {
    "ConstraintSet": lambda **weights: ConstraintSet(**weights),
    "ClosedConstraints": lambda **weights: ClosedConstraints(
        EMPTY, EMPTY, EMPTY.reshape(0, 2), **weights),
    "constraints_from_labels": lambda **weights: constraints_from_labels(
        labels_for(2, 2), **weights),
}


@pytest.mark.parametrize("build", WEIGHTED.values(), ids=WEIGHTED.keys())
@pytest.mark.parametrize("name", ["w", "w_bar"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_penalty_weights_must_be_finite_and_non_negative(build, name, value):
    with pytest.raises(ValueError, match="penalty weight %s must be finite" % name):
        build(**{name: value})
    assert getattr(build(**{name: 0.0}), name) == 0.0


@pytest.mark.parametrize("build", WEIGHTED.values(), ids=WEIGHTED.keys())
@pytest.mark.parametrize("name", ["w", "w_bar"])
def test_penalty_weights_stop_at_the_ceiling(build, name):
    with pytest.raises(ValueError, match=r"penalty weight %s must be .* <= 1e\+100" % name):
        build(**{name: np.nextafter(MAX_PENALTY_WEIGHT, np.inf)})
    assert getattr(build(**{name: MAX_PENALTY_WEIGHT}), name) == MAX_PENALTY_WEIGHT


def test_a_run_at_the_weight_ceiling_stays_finite():
    """At w = w_bar = 1e308 this run ended in `-inf + inf in fsum`; a
    RuntimeWarning of an overflow on the way fails the suite."""
    corpus, labels = generate_synthetic(default_synth_spec(n_messages=200))
    cs = constraints_from_labels(draw_labeled_samples(labels, 5, seed=0),
                                 w=MAX_PENALTY_WEIGHT, w_bar=MAX_PENALTY_WEIGHT)
    model = run_mpck(corpus, cs, MpckConfig(k=10, seed=1))
    assert np.isfinite(model.objective) and np.isfinite(model.accounting_gap)
