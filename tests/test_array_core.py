"""The array core of MPCK-means agrees with the scalar per-message oracles:
the objective, the metric update and the per-point assignment, each over
the closure of the constraints, as `run_mpck` scores them."""

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
    _update_weights,
    evaluate_objective,
    run_mpck,
    update_centroids,
)
from protoabs.constraints import ConstraintSet, LabeledSample, constraints_from_labels
from protoabs.errors import EmptyCluster, InconsistentConstraints
from protoabs.metric import DiagonalMetric, MaxPair
from protoabs.model import build_corpus

PROPERTY = settings(max_examples=200, deadline=None)


def update_weights(state):
    """The metric update of `state`, from the count matrix of its assignments."""
    counts = _row_counts(state.corpus, state.corpus.row_ids, state.assignments, state.k)
    return _update_weights(state, counts)


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
        k=k, centroids=update_centroids(corpus, assignments, k), metrics=metrics,
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

    maxpairs = []
    for h, m in enumerate(model.metrics):
        members = np.flatnonzero(table_assign == h)
        maxpairs.append(
            oracles.max_separated_pair(members, corpus, m) if members.size
            else MaxPair(-1, -1, 0.0)
        )
    assert_weights_match_oracle(corpus, model, cs, maxpairs, got)


def assert_weights_match_oracle(corpus, model, cs, maxpairs, got):
    """`got` equals the oracle's metric update within 1e-9 relative: the
    tallies are summed over counts, not pair by pair."""
    closed = oracles.close_constraints(cs)
    tallies = oracles.violation_tallies(corpus, model.assignments, closed, maxpairs)
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
    for i in range(len(corpus)):
        costs = state.point_costs(i, base[corpus.row_ids[i]])
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
    assert_weights_match_oracle(corpus, moved, cs, ctx.maxpairs, update_weights(state))


@PROPERTY
@given(instances(), st.booleans(), st.integers(0, 3))
def test_a_run_stores_the_objective_of_a_fresh_table(inst, metric_updates, seed):
    """A run's stored objective is the one a table built for its final
    assignments and metrics gives, its tracked objective follows the
    recomputed one, and with frozen metrics, whose loop keeps one table,
    the objective never rises across an M-step that reseeds no empty
    cluster.  A reseed moves a point to a new centroid whatever it costs,
    so it may raise the objective."""
    corpus, model, cs = inst
    cfg = MpckConfig(k=model.k, seed=seed, metric_update_enabled=metric_updates)
    reseeded = []                       # one entry per M-step, the initial one first
    repair = clustering._repair_empty_clusters

    def recording_repair(state):
        before = state.assignments.copy()
        repair(state)
        reseeded.append(not np.array_equal(before, state.assignments))

    with patch.object(clustering, "_repair_empty_clusters", recording_repair):
        try:
            run = run_mpck(corpus, cs, cfg)
        except EmptyCluster:
            assume(False)
    assert evaluate_objective(corpus, run, cs).hex() == run.objective.hex()
    assert run.accounting_gap <= 1e-9
    if not metric_updates:
        history = run.objective_history
        assert len(reseeded) == 1 + len(history)
        steps = zip(history, history[1:], reseeded[2:])
        assert all(b <= a + 1e-9 for a, b, reseed in steps if not reseed)
