"""The array core of MPCK-means agrees with the scalar per-message oracles:
the objective, the metric update and the per-point assignment, each over
the closure of the constraints, as `run_mpck` scores them; and its array
passes over the constrained visits agree with the per-point visit loop."""

import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from protoabs import clustering
from protoabs.clustering import (
    ClusterModel,
    MpckConfig,
    PenaltyContext,
    _row_counts,
    _state_from_model,
    _token_counts,
    _update_weights,
    evaluate_objective,
    run_mpck,
)
from protoabs.constraints import (
    ConstraintSet,
    LabeledSample,
    close_constraints,
    constraints_from_labels,
)
from protoabs.errors import EmptyCluster, InconsistentConstraints
from protoabs.metric import DiagonalMetric
from protoabs.model import build_corpus

PROPERTY = settings(max_examples=200, deadline=None)


def update_weights(state):
    """The metric update of `state`, from the token counts of its assignments."""
    counts = _row_counts(state.corpus, state.corpus.row_ids, state.assignments, state.k)
    return _update_weights(state, _token_counts(state.corpus, counts))


def _assignments(draw, n, k):
    """n cluster ids in [0, k) with every cluster non-empty."""
    ids = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    for h in range(k):
        ids[perm[h]] = h
    return np.array(ids, dtype=np.int64)


@st.composite
def instances(draw):
    """A small corpus, a model over it with random metrics, and constraints
    with random penalty weights: label-derived, or a pair set whose closure
    is consistent and may add pairs, link components only partly and hold
    points linked by cannot-links alone."""
    arity = draw(st.integers(1, 4))
    n = draw(st.integers(2, 14))
    # messages drawn from a pool of rows over few symbols, so rows repeat,
    # per-field counts tie and distances tie
    pool = draw(st.lists(
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=arity, max_size=arity),
        min_size=1, max_size=n,
    ))
    raw = [pool[i] for i in draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=n, max_size=n))]
    corpus = build_corpus(raw, arity=arity)
    k = draw(st.integers(1, min(3, n)))
    assignments = _assignments(draw, n, k)
    weights = st.floats(0.05, 5.0, allow_nan=False)
    metrics = tuple(
        DiagonalMetric(np.array(draw(st.lists(weights, min_size=arity, max_size=arity))))
        for _ in range(k)
    )
    model = ClusterModel(
        k=k, centroids=oracles.centroids(corpus, assignments, k), metrics=metrics,
        assignments=assignments, objective=0.0,
    )
    w = draw(st.floats(0.0, 3.0))
    w_bar = draw(st.floats(0.0, 3.0))
    if draw(st.booleans()):
        pairs = st.frozensets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                              .filter(lambda p: p[0] != p[1]).map(sorted).map(tuple), max_size=n)
        must = draw(pairs)
        cs = ConstraintSet(must, draw(pairs) - must, w=w, w_bar=w_bar)
        try:
            oracles.close_constraints(cs)
        except InconsistentConstraints:
            assume(False)
        return corpus, model, cs
    labeled = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    samples = [LabeledSample(i, draw(st.integers(0, 2))) for i in labeled]
    return corpus, model, constraints_from_labels(samples, w=w, w_bar=w_bar)


@PROPERTY
@given(instances())
def test_objective_matches_scalar_oracle(inst):
    corpus, model, cs = inst
    got = evaluate_objective(corpus, model, cs)
    want = oracles.objective(corpus, model, oracles.close_constraints(cs))
    assert type(got) is float
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@PROPERTY
@given(instances(), st.data())
def test_update_weights_matches_oracle_update_metric(inst, data):
    corpus, model, cs = inst
    # the max-pair table comes from earlier assignments, as in the EM loop,
    # and may hold empty clusters
    table_assign = np.array(data.draw(st.lists(
        st.integers(0, model.k - 1), min_size=len(corpus), max_size=len(corpus)
    )), dtype=np.int64)
    ctx = PenaltyContext.build(corpus, table_assign, model.metrics)
    got = update_weights(_state_from_model(corpus, model, cs, ctx))
    far = oracles.max_pair_fields(corpus, table_assign, model.metrics)
    assert_weights_match_oracle(corpus, model, cs, far, got)


def assert_weights_match_oracle(corpus, model, cs, far, got):
    """`got` equals the oracle's metric update within 1e-9 relative: the
    tallies are summed over counts, not pair by pair."""
    closed = oracles.close_constraints(cs)
    tallies = oracles.violation_tallies(corpus, model.assignments, closed, far)
    for h in range(model.k):
        members = np.flatnonzero(model.assignments == h)
        want = oracles.update_metric(corpus, members, model.centroids[h], violations=tallies[h])
        assert np.allclose(got[h], want.weights, rtol=1e-9, atol=0)


@PROPERTY
@given(instances())
def test_point_costs_argmin_matches_oracle_assign_point(inst):
    corpus, model, cs = inst
    ctx = PenaltyContext.build(corpus, model.assignments, model.metrics)
    state = _state_from_model(corpus, model, cs, ctx)
    max_sq = oracles.max_pair_distances(corpus, model.assignments, model.metrics)
    assert_point_costs_match_oracle(corpus, model, cs, state, max_sq)


def assert_point_costs_match_oracle(corpus, model, cs, state, max_sq):
    closed = oracles.close_constraints(cs)
    base = state.base_costs()
    all_costs = state.point_costs(np.arange(len(corpus)), base)
    free = np.setdiff1d(np.arange(len(corpus)), state.constrained)
    assert np.array_equal(all_costs[free], base[corpus.row_ids[free]])
    for i, costs in enumerate(all_costs):
        want = oracles.point_costs(i, corpus, model, closed, max_sq)
        assert np.allclose(costs, want, rtol=1e-9, atol=1e-9)
        got = int(np.argmin(costs))
        best = oracles.assign_point(i, corpus, model, closed, max_sq)
        # the two sum penalties in different orders, so clusters whose
        # costs tie exactly may differ in the last bit
        assert got == best or abs(want[got] - want[best]) <= 1e-9 * max(1.0, abs(want[best]))


def assert_tables_close(got, want):
    for g, w in zip(got, want):
        assert np.allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max(initial=1.0))


@PROPERTY
@given(instances(), st.data())
def test_moves_keep_the_tables_of_a_fresh_build(inst, data):
    """After moves through `_State.move`, which update the must and cannot
    tables cell by cell, the tables equal a fresh build, and the point
    costs, objective and metric update equal the oracles over the moved
    assignments; moves may empty clusters."""
    corpus, model, cs = inst
    n = len(corpus)
    ctx = PenaltyContext.build(corpus, model.assignments, model.metrics)
    state = _state_from_model(corpus, model, cs, ctx)
    state.tables = state.build_tables(state.cells())
    moves = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, model.k - 1)),
                               max_size=3 * n))
    for i, h in moves:
        state.move(i, h)
    assert_tables_close(state.tables, state.build_tables(state.cells()))

    moved = ClusterModel(k=model.k, centroids=model.centroids, metrics=model.metrics,
                         assignments=state.assignments.copy(), objective=0.0)
    assert_point_costs_match_oracle(corpus, moved, cs, state, ctx.maxd2)
    got = evaluate_objective(corpus, moved, cs)
    want = oracles.objective(corpus, moved, oracles.close_constraints(cs))
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    if np.bincount(moved.assignments, minlength=model.k).min() == 0:
        with pytest.raises(EmptyCluster):
            update_weights(state)
        return
    assert_weights_match_oracle(corpus, moved, cs, ctx.far, update_weights(state))


@PROPERTY
@given(instances(), st.booleans(), st.data())
def test_array_passes_match_the_per_point_visits(inst, every_visit_moves, data):
    """From one state, base costs and visit order, the array passes of
    `_assign_constrained` end where the per-point oracle does: the same
    assignments, the same delta bits and the same tables, which equal a
    fresh build.  They cost at most 3 rows per visit, also when every visit
    moves: zero penalty weights and each constrained point off its
    cheapest cluster.  The state's `slot_of` gives each message's slot."""
    corpus, model, cs = inst
    ctx = PenaltyContext.build(corpus, model.assignments, model.metrics)
    if every_visit_moves:
        assume(model.k > 1)
        cs = replace(cs, w=0.0, w_bar=0.0)
    states = [_state_from_model(corpus, replace(model, assignments=model.assignments.copy()),
                                cs, ctx) for _ in range(2)]
    # a message's slot is -1 if it is unconstrained, else the rank of its
    # (must-link component, distinct row) pair among the constrained
    # points' pairs, components in the order of their smallest members
    root, _ = oracles._components(cs)
    keys = sorted({(r, int(corpus.row_ids[p])) for p, r in root.items()})
    slots = np.full(len(corpus), -1)
    for p, r in root.items():
        slots[p] = keys.index((r, int(corpus.row_ids[p])))
    assert states[0].slot_of.dtype == np.int8       # fewer than 128 slots
    assert np.array_equal(states[0].slot_of, slots)
    base = states[0].base_costs()
    points = states[0].constrained
    if every_visit_moves:
        cheapest = base[corpus.row_ids[points]].argmin(axis=1)
        shift = np.array(data.draw(st.lists(st.integers(1, model.k - 1), min_size=points.size,
                                            max_size=points.size)), dtype=np.int64)
        for state in states:
            state.assignments[points] = (cheapest + shift) % model.k
    visit = np.array(data.draw(st.permutations(points.tolist())), dtype=np.int64)
    before = states[0].assignments.copy()
    rows = []

    def counted(points, base):
        rows.append(len(points))
        return clustering._State.point_costs(states[0], points, base)

    states[0].point_costs = counted
    got = clustering._assign_constrained(states[0], base, visit)
    want = oracles.assign_constrained(states[1], base, visit.tolist())
    assert [d.hex() for d in got] == [d.hex() for d in want]
    assert np.array_equal(states[0].assignments, states[1].assignments)
    assert sum(rows) <= 3 * visit.size
    if every_visit_moves:
        assert (states[0].assignments[visit] != before[visit]).all()
    if visit.size:
        for a, b in zip(states[0].tables, states[1].tables):
            assert np.array_equal(a, b)
        assert_tables_close(states[0].tables, states[0].build_tables(states[0].cells()))


@PROPERTY
@given(instances(), st.booleans(), st.integers(0, 3), st.data())
def test_a_run_stores_the_objective_of_a_fresh_table(inst, metric_updates, seed, data):
    """A run's stored objective is the one a table built for its final
    assignments and metrics gives, the exact sum of that state's terms in
    any order, the cost deltas of each assignment pass
    sum to the change of the recomputed objective's terms, and with frozen
    metrics, whose loop keeps one table,
    the objective never rises across an M-step whose reseeds all moved an
    unconstrained point.  A reseed moves a constrained point only when no
    unconstrained one can be spared, and that move may raise the
    objective."""
    corpus, model, cs = inst
    cfg = MpckConfig(k=model.k, seed=seed, metric_update_enabled=metric_updates)
    forced = []                         # one entry per M-step, the initial one first
    repair = clustering._repair_empty_clusters

    def recording_repair(state):
        before = state.assignments.copy()
        repair(state)
        moved = np.flatnonzero(before != state.assignments)
        forced.append(bool(np.isin(moved, state.constrained).any()))

    with patch.object(clustering, "_repair_empty_clusters", recording_repair):
        try:
            run = run_mpck(corpus, cs, cfg)
        except EmptyCluster:
            assume(False)
    terms = _state_from_model(corpus, run, cs, None).objective()
    for order in (terms, terms[::-1], data.draw(st.permutations(terms))):
        assert math.fsum(order).hex() == run.objective.hex()
    assert run.accounting_gap <= 1e-9
    if not metric_updates:
        history = run.objective_history
        assert len(forced) == 1 + len(history)
        steps = zip(history, history[1:], forced[2:])
        assert all(b <= a + 1e-9 for a, b, forced_reseed in steps if not forced_reseed)


@PROPERTY
@given(instances(), st.booleans(), st.integers(0, 3))
def test_a_run_on_a_pair_set_equals_the_run_on_its_closure(inst, metric_updates, seed):
    """`run_mpck` closes its input where it enters: a pair set and its
    closure give the same model, to the objective's bits, or the same
    error."""
    corpus, model, cs = inst
    cfg = MpckConfig(k=model.k, seed=seed, metric_update_enabled=metric_updates)

    def run(constraints):
        try:
            return run_mpck(corpus, constraints, cfg)
        except EmptyCluster as e:
            return str(e)

    pairs, closed = run(cs), run(close_constraints(cs))
    if isinstance(pairs, str):
        assert pairs == closed
        return
    assert pairs.to_json() == closed.to_json()
    assert pairs.objective.hex() == closed.objective.hex()
