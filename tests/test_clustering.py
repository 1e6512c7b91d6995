import gc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from oracles import assign_point, distance_sq, f_cannot, f_must, unit_metric
from protoabs import clustering
from protoabs.clustering import (
    ClusterModel,
    MpckConfig,
    PenaltyContext,
    _mode_rows,
    _row_counts,
    _state_from_model,
    _token_counts,
    evaluate_objective,
    run_kmeans,
    run_mpck,
)
from protoabs.constraints import (
    ConstraintSet,
    LabeledSample,
    close_constraints,
    constraints_from_labels,
)
from protoabs.errors import DataError, EmptyCluster, TooManyClusters
from protoabs.evaluation import evaluate
from protoabs.experiments import draw_labeled_samples
from protoabs.metric import DiagonalMetric
from protoabs.model import Message, build_corpus
from protoabs.tls_default import default_synth_spec
from protoabs.corpus_tools import generate_synthetic


def msg(*tokens):
    return Message(tuple(tokens))


def random_corpus(rng, n, arity, alphabet=3):
    raw = [["t%d" % rng.integers(alphabet) for _ in range(arity)] for _ in range(n)]
    return build_corpus(raw, arity=arity)


def make_model(corpus, assignments, k, metrics=None):
    assignments = np.asarray(assignments, dtype=np.int64)
    centroids = oracles.centroids(corpus, assignments, k)
    if metrics is None:
        metrics = tuple(unit_metric(corpus.arity) for _ in range(k))
    return ClusterModel(
        k=k, centroids=centroids, metrics=metrics,
        assignments=assignments, objective=0.0,
    )


def assign_both(i, corpus, model, cs, ctx):
    """The package's choice for point i (argmin of its array costs), checked
    against the scalar oracle over the same max-pair table."""
    state = _state_from_model(corpus, model, cs, ctx)
    got = int(np.argmin(state.point_costs([i], state.base_costs())[0]))
    assert got == assign_point(i, corpus, model, cs, ctx.maxd2)
    return got


class TestPenalties:
    def test_f_must_zero_for_equal_points(self):
        m = unit_metric(2)
        assert f_must(msg("a", "b"), msg("a", "b"), m, m) == 0.0

    def test_f_must_averages_equal_metrics(self):
        m = unit_metric(3)
        a, b = msg("a", "b", "c"), msg("x", "y", "z")
        assert f_must(a, b, m, m) == pytest.approx(3.0)

    def test_f_must_averages_different_metrics(self):
        a, b = msg("a", "b"), msg("x", "y")
        mi = unit_metric(2)                       # d^2 = 2
        mj = DiagonalMetric(np.array([1.0, 3.0]))  # d^2 = 4
        assert f_must(a, b, mi, mj) == pytest.approx(3.0)

    def test_f_cannot_zero_for_max_pair(self):
        corpus = build_corpus([["a", "a"], ["b", "b"], ["a", "b"]], arity=2)
        metrics = (unit_metric(2),)
        ctx = PenaltyContext.build(corpus, [0, 0, 0], metrics)
        pair = oracles.max_separated_pair([0, 1, 2], corpus, metrics[0])
        i, j = pair.first, pair.second
        assert ctx.far[0].tolist() == (corpus.codes[i] != corpus.codes[j]).tolist()
        assert f_cannot(corpus.messages[i], corpus.messages[j], metrics[0], ctx.maxd2[0]) == 0.0

    def test_f_cannot_equal_points_get_full_gap(self):
        corpus = build_corpus(
            [["a"] * 5, ["b"] * 5, ["a"] * 5], arity=5
        )
        ctx = PenaltyContext.build(corpus, [0, 0, 0], (unit_metric(5),))
        assert ctx.far[0].all()
        assert ctx.maxd2[0] == 5.0
        assert f_cannot(corpus.messages[0], corpus.messages[2], unit_metric(5), ctx.maxd2[0]) == 5.0

    def test_f_cannot_matches_brute_force(self):
        rng = np.random.default_rng(2)
        corpus = random_corpus(rng, 3, 4)
        m = DiagonalMetric(rng.uniform(0.2, 2.0, size=4))
        ctx = PenaltyContext.build(corpus, [0, 0, 0], (m,))
        best = max(
            distance_sq(corpus.messages[i], corpus.messages[j], m)
            for i in range(3) for j in range(i + 1, 3)
        )
        for i in range(3):
            for j in range(i + 1, 3):
                got = f_cannot(corpus.messages[i], corpus.messages[j], m, ctx.maxd2[0])
                want = best - distance_sq(corpus.messages[i], corpus.messages[j], m)
                assert got == pytest.approx(max(0.0, want))
                assert got >= 0.0


class TestObjective:
    def test_identical_points_single_cluster(self):
        corpus = build_corpus([["a", "b"]] * 4, arity=2)
        model = make_model(corpus, [0, 0, 0, 0], k=1)
        assert evaluate_objective(corpus, model, ConstraintSet()) == 0.0

    def test_single_violated_must_link(self):
        corpus = build_corpus([["a"], ["a"], ["b"]], arity=1)
        model = make_model(corpus, [0, 0, 1], k=2)
        cs = ConstraintSet(frozenset({(0, 2)}), frozenset(), w=1.0)
        # dispersion 0, log-dets 0; only the violated must-link contributes
        want = f_must(corpus.messages[0], corpus.messages[2],
                      model.metrics[0], model.metrics[1])
        assert evaluate_objective(corpus, model, cs) == pytest.approx(want)

    def test_converged_model_beats_single_swaps(self):
        rng = np.random.default_rng(9)
        for trial in range(8):
            corpus = random_corpus(rng, 8, 3)
            samples = [LabeledSample(0, 0), LabeledSample(1, 0), LabeledSample(2, 1)]
            cs = constraints_from_labels(samples, w=1.5, w_bar=1.5)
            cfg = MpckConfig(k=2, seed=trial, tol=1e-12)
            model = run_mpck(corpus, cs, cfg)
            if model.converged_by != "fixpoint":
                continue
            ctx = PenaltyContext.build(corpus, model.assignments, model.metrics)
            base = evaluate_objective(corpus, model, cs, ctx=ctx)
            for i in range(8):
                for h in range(2):
                    if h == model.assignments[i]:
                        continue
                    swapped = ClusterModel(
                        k=2, centroids=model.centroids, metrics=model.metrics,
                        assignments=np.where(np.arange(8) == i, h, model.assignments),
                        objective=0.0,
                    )
                    assert base <= evaluate_objective(corpus, swapped, cs, ctx=ctx) + 1e-9


class TestAssignPoint:
    def test_tie_breaks_to_lower_cluster_id(self):
        corpus = build_corpus([["a"], ["a"], ["b"]], arity=1)
        model = make_model(corpus, [0, 1, 1], k=2)
        # identical centroids: point 2 is equidistant
        model = ClusterModel(
            k=2, centroids=(msg("a"), msg("a")), metrics=model.metrics,
            assignments=model.assignments, objective=0.0,
        )
        ctx = PenaltyContext.build(corpus, model.assignments, model.metrics)
        assert assign_both(2, corpus, model, ConstraintSet(), ctx) == 0

    def test_cannot_link_pushes_point_away(self):
        # cluster 0 holds a distant member, so the close cannot-link pair
        # (0, 1) sits well inside the cluster's max separation
        corpus = build_corpus([["a", "x"], ["a", "x"], ["b", "z"], ["a", "w"]], arity=2)
        model = make_model(corpus, [0, 0, 1, 0], k=2)
        cs = ConstraintSet(frozenset(), frozenset({(0, 1)}), w_bar=100.0)
        ctx = PenaltyContext.build(corpus, model.assignments, model.metrics)
        # point 1 sits on cluster 0's centroid but the cannot-link dominates
        assert assign_both(1, corpus, model, cs, ctx) == 1

    def test_reduces_to_nearest_centroid_without_constraints(self):
        rng = np.random.default_rng(4)
        corpus = random_corpus(rng, 12, 3)
        assignments = rng.integers(0, 3, size=12)
        model = make_model(corpus, assignments, k=3)
        ctx = PenaltyContext.build(corpus, model.assignments, model.metrics)
        for i in range(12):
            dists = [
                distance_sq(corpus.messages[i], model.centroids[h], model.metrics[h])
                for h in range(3)
            ]
            assert assign_both(i, corpus, model, ConstraintSet(), ctx) == int(np.argmin(dists))


def modes(corpus, assignments, k):
    """Each cluster's per-field mode tokens, from the token counts."""
    counts = _row_counts(corpus, corpus.row_ids, np.asarray(assignments), k)
    return [tuple(corpus.vocabulary[f][c] for f, c in enumerate(row))
            for row in _mode_rows(corpus, _token_counts(corpus, counts))]


class TestCentroids:
    def test_mode_with_lexicographic_tie(self):
        corpus = build_corpus([["A", "B"], ["A", "C"]], arity=2)
        assert modes(corpus, [0, 0], k=1) == [("A", "B")]

    def test_singleton_cluster(self):
        corpus = build_corpus([["A", "B"], ["C", "D"]], arity=2)
        assert modes(corpus, [0, 1], k=2)[1] == ("C", "D")

    def test_majority_wins(self):
        corpus = build_corpus([["A"], ["A"], ["B"]], arity=1)
        assert modes(corpus, [0, 0, 0], k=1) == [("A",)]

    def test_empty_cluster_rejected(self):
        corpus = build_corpus([["A"]], arity=1)
        with pytest.raises(EmptyCluster):
            modes(corpus, [0], k=2)


class TestRunMpck:
    def test_perfect_recovery_on_separable_corpus(self):
        corpus, labels = generate_synthetic(default_synth_spec(n_messages=500, seed=1))
        samples = draw_labeled_samples(labels, 5, seed=0)
        cs = constraints_from_labels(samples)
        model = run_mpck(corpus, cs, MpckConfig(k=21, seed=0))
        report = evaluate(model.assignments, labels)
        assert report.purity == 1.0
        assert report.ari == 1.0

    def test_too_many_clusters(self):
        corpus = build_corpus([["a"], ["b"]], arity=1)
        with pytest.raises(TooManyClusters):
            run_mpck(corpus, ConstraintSet(), MpckConfig(k=3))

    @pytest.mark.parametrize("point, cs", [
        (-1, constraints_from_labels([LabeledSample(-1, 0), LabeledSample(5, 1)])),
        (200, constraints_from_labels([LabeledSample(200, 0), LabeledSample(5, 1)])),
        (200, ConstraintSet(frozenset({(0, 200)}))),
    ], ids=["labels-minus-one", "labels-n", "pair-n"])
    def test_constraint_point_outside_the_corpus_is_one_data_error_line(self, point, cs):
        """A point below 0 would index from the end and one at N past it:
        both entry points reject either with the point and N named."""
        corpus, _ = generate_synthetic(default_synth_spec(n_messages=200, seed=0))
        cfg = MpckConfig(k=3, seed=0)
        model = run_kmeans(corpus, cfg)
        want = r"^constraint point %d outside corpus of size 200$" % point
        for run in (lambda: run_mpck(corpus, cs, cfg),
                    lambda: evaluate_objective(corpus, model, cs)):
            with pytest.raises(DataError, match=want):
                run()

    def test_determinism(self):
        rng = np.random.default_rng(8)
        corpus = random_corpus(rng, 40, 4)
        cs = constraints_from_labels(
            [LabeledSample(i, i % 3) for i in range(9)], w=2.0, w_bar=2.0
        )
        cfg = MpckConfig(k=3, seed=5)
        m1 = run_mpck(corpus, cs, cfg)
        m2 = run_mpck(corpus, cs, cfg)
        assert np.array_equal(m1.assignments, m2.assignments)
        assert m1.objective == m2.objective
        assert m1.objective_history == m2.objective_history
        assert all(a.fields == b.fields for a, b in zip(m1.centroids, m2.centroids))
        assert all(
            np.array_equal(a.weights, b.weights) for a, b in zip(m1.metrics, m2.metrics)
        )

    def test_stored_objective_matches_recomputation(self):
        rng = np.random.default_rng(12)
        corpus = random_corpus(rng, 30, 4)
        cs = constraints_from_labels([LabeledSample(i, i % 2) for i in range(6)])
        model = run_mpck(corpus, cs, MpckConfig(k=3, seed=1))
        assert model.objective == pytest.approx(
            evaluate_objective(corpus, model, cs), abs=1e-9
        )

    def test_monotone_objective_with_frozen_metrics(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            corpus = random_corpus(rng, 25, 4)
            cs = constraints_from_labels(
                [LabeledSample(int(i), int(i % 3)) for i in rng.choice(25, 8, replace=False)]
            )
            cfg = MpckConfig(k=3, seed=trial, metric_update_enabled=False)
            model = run_mpck(corpus, cs, cfg)
            hist = model.objective_history
            for a, b in zip(hist, hist[1:]):
                assert b <= a + 1e-9

    @pytest.mark.parametrize("b_at", [0, 2, 3])
    def test_reseeding_picks_a_free_point(self, b_at):
        """Nine one-field messages, one `b`, must-links {0, 2, 3}: with the
        metrics frozen, an emptied cluster is reseeded with an unconstrained
        point, so the run ends at J = 1.0, {0, 2, 3} together.  Reseeding
        with the farthest point whatever it is moved a must-linked one and
        ended at 4.0 or 3.0."""
        corpus = build_corpus([["b"] if i == b_at else ["a"] for i in range(9)], arity=1)
        cs = ConstraintSet(must_links=frozenset({(0, 2), (0, 3), (2, 3)}), w=2.0)
        model = run_mpck(corpus, cs, MpckConfig(k=3, seed=0, metric_update_enabled=False))
        assert model.objective == 1.0
        assert model.objective_history[-1] == 1.0
        a = model.assignments
        assert a[0] == a[2] == a[3]

    def test_accounting_gap_compares_deltas_at_large_objective(self):
        """At |J| of about 2^21 one ulp of J is 2^-31, so a tracked total and
        a recomputed one, summed in different orders, can differ by more
        than 1e-9 (1.4e-9 here); the exact sums of the points' cost deltas
        and of the terms' change do not."""
        corpus, labels = generate_synthetic(default_synth_spec(n_messages=5000, seed=0))
        cs = constraints_from_labels(draw_labeled_samples(labels, 5, seed=0))
        model = run_mpck(corpus, cs, MpckConfig(k=35, seed=0))
        assert len(model.objective_history) >= 1
        assert model.accounting_gap <= 1e-9

    def test_reduction_to_kmeans(self):
        rng = np.random.default_rng(33)
        corpus = random_corpus(rng, 30, 4)
        cfg = MpckConfig(k=4, seed=2, metric_update_enabled=False)
        mpck = run_mpck(corpus, ConstraintSet(), cfg)
        kmeans = run_kmeans(corpus, MpckConfig(k=4, seed=2))
        assert np.array_equal(mpck.assignments, kmeans.assignments)
        assert mpck.objective == kmeans.objective

    def test_model_roundtrip_exact(self):
        rng = np.random.default_rng(44)
        corpus = random_corpus(rng, 20, 3)
        cs = constraints_from_labels([LabeledSample(i, i % 2) for i in range(4)])
        model = run_mpck(corpus, cs, MpckConfig(k=2, seed=3))
        again = ClusterModel.from_dict(model.to_dict())
        assert again.to_dict() == model.to_dict()
        assert again.objective == model.objective
        assert np.array_equal(again.assignments, model.assignments)

    @pytest.mark.parametrize("algorithm", ["mpck", "kmeans"])
    def test_runs_expand_no_pairs(self, algorithm):
        """A run reads the constraint components, never their pairs, and its
        objective's bits equal those of a fresh pair-form set of the same
        constraints."""
        corpus = random_corpus(np.random.default_rng(0), 40, 4)
        cs = constraints_from_labels([LabeledSample(i, i % 3) for i in range(9)])
        cfg = MpckConfig(k=3, seed=0)
        model = run_mpck(corpus, cs, cfg) if algorithm == "mpck" else run_kmeans(corpus, cfg)
        assert not {"must_links", "cannot_links"} & set(vars(cs))
        assert model.iterations > 1
        fresh = ConstraintSet(cs.must_links, cs.cannot_links) if algorithm == "mpck" \
            else ConstraintSet()
        assert evaluate_objective(corpus, model, fresh).hex() == model.objective.hex()

    @pytest.mark.parametrize("algorithm, k", [("mpck", 21), ("kmeans", 21), ("mpck", 15)],
                             ids=["mpck", "kmeans", "mpck-K15"])
    def test_max_pairs_see_one_member_per_distinct_row(self, monkeypatch, algorithm, k):
        """Each max-pair table build passes `max_separated_pair`, for each
        non-empty cluster, the smallest member of each distinct row in it.
        A run with cannot-links builds one table, and the K DiagonalMetrics,
        per metric update, and one for the unit metric only when the initial
        assignment violates a cannot-link, since the first update reads the
        table for its cannot-link tally alone.  At K=15 the 21 labelled
        classes cannot all part, so the unit table is needed there."""
        corpus, labels = generate_synthetic(default_synth_spec(n_messages=5000, seed=0))
        cs = constraints_from_labels(draw_labeled_samples(labels, 1, seed=0))
        builds, updates, metrics = [], [], []   # builds: (assignments, indices passed)
        build, pair = PenaltyContext.build.__func__, clustering._metric.max_separated_pair
        update, metric = clustering._update_weights, clustering.DiagonalMetric

        def built(cls, corpus, assignments, metrics):
            builds.append((assignments.copy(), []))
            return build(cls, corpus, assignments, metrics)

        def paired(indices, *args):
            builds[-1][1].append(sorted(indices.tolist()))
            return pair(indices, *args)

        def updated(state, counts):
            updates.append(state.assignments.copy())
            return update(state, counts)

        monkeypatch.setattr(PenaltyContext, "build", classmethod(built))
        monkeypatch.setattr(clustering._metric, "max_separated_pair", paired)
        monkeypatch.setattr(clustering, "_update_weights", updated)
        monkeypatch.setattr(clustering, "DiagonalMetric",
                            lambda weights: metrics.append(1) or metric(weights))
        cfg = MpckConfig(k=k, seed=0)
        model = run_mpck(corpus, cs, cfg) if algorithm == "mpck" else run_kmeans(corpus, cfg)
        monkeypatch.undo()
        # k-means has no cannot-links and no metric update, so it builds none
        unit_table = bool(updates) and any(
            updates[0][a] == updates[0][b] for a, b in cs.cannot_links)
        assert unit_table == (k < 21)
        assert len(builds) == (len(updates) + unit_table if algorithm == "mpck" else 0)
        for assignments, calls in builds:
            want = []
            for h in range(cfg.k):
                members = np.flatnonzero(assignments == h)
                if members.size:
                    _, first = np.unique(corpus.row_ids[members], return_index=True)
                    want.append(sorted(members[first].tolist()))
            assert calls == want
        # the k-means model reports the unit metric
        assert len(metrics) == cfg.k * (len(updates) + (unit_table or algorithm == "kmeans"))
        assert model.converged_by == "fixpoint"

    @pytest.mark.parametrize("algorithm", ["mpck", "kmeans"])
    def test_loop_state_is_freed_before_the_final_objective(self, monkeypatch, algorithm):
        """The final objective builds a `_State` of its own, so the loop's
        must be gone by then rather than held alongside it."""
        corpus = random_corpus(np.random.default_rng(0), 40, 4)
        cs = constraints_from_labels([LabeledSample(i, i % 3) for i in range(9)])
        alive, evaluate = [], clustering.evaluate_objective

        def counted(*args, **kwargs):
            gc.collect()
            alive.append(sum(isinstance(o, clustering._State) for o in gc.get_objects()))
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(clustering, "evaluate_objective", counted)
        cfg = MpckConfig(k=3, seed=0)
        run_mpck(corpus, cs, cfg) if algorithm == "mpck" else run_kmeans(corpus, cfg)
        assert alive == [0]

    @pytest.mark.parametrize("case, max_iterations, iterations, builds", [
        ("synthetic", 0, 0, 1),         # no iteration ran
        ("synthetic", 200, 1, 1),       # fixpoint in the first iteration
        ("random", 200, 2, 2),          # assignments moved: final table rebuilt
    ])
    def test_frozen_metrics_rebuild_the_table_only_after_a_move(
        self, monkeypatch, case, max_iterations, iterations, builds
    ):
        if case == "synthetic":
            corpus, labels = generate_synthetic(default_synth_spec(n_messages=500, seed=1))
            cs, k = constraints_from_labels(draw_labeled_samples(labels, 5, seed=0)), 21
        else:
            corpus = random_corpus(np.random.default_rng(0), 40, 4)
            cs, k = constraints_from_labels([LabeledSample(i, i % 3) for i in range(9)]), 3
        calls = []
        build = PenaltyContext.build.__func__

        def counted(cls, *args):
            calls.append(args)
            return build(cls, *args)

        monkeypatch.setattr(PenaltyContext, "build", classmethod(counted))
        cfg = MpckConfig(k=k, seed=0, max_iterations=max_iterations,
                         metric_update_enabled=False)
        model = run_mpck(corpus, cs, cfg)
        monkeypatch.undo()
        assert model.iterations == iterations
        assert len(calls) == builds
        # the stored objective is the one a table built for the final
        # assignments gives
        rebuilt = evaluate_objective(corpus, model, close_constraints(cs))
        assert replace(model, objective=rebuilt).to_json() == model.to_json()

    @pytest.mark.parametrize("algorithm", ["mpck", "kmeans"])
    @pytest.mark.parametrize("max_iterations, tol, stop", [
        (200, 1e-6, "fixpoint"),
        (200, 1e9, "tolerance"),
        (1, 1e-6, "max_iterations"),
    ])
    def test_each_loop_state_is_scored_once(self, monkeypatch, algorithm, max_iterations,
                                            tol, stop):
        """The loop scores the initial state and, per iteration that moved a
        point, the assignment pass and the M-step; a fixpoint is not
        rescored.  The final objective scores the model once more."""
        corpus = random_corpus(np.random.default_rng(8), 40, 4)
        cs = constraints_from_labels([LabeledSample(i, i % 3) for i in range(9)])
        calls, objective = [], clustering._State.objective
        monkeypatch.setattr(clustering._State, "objective",
                            lambda state: calls.append(1) or objective(state))
        cfg = MpckConfig(k=3, seed=0, max_iterations=max_iterations, tol=tol)
        model = run_mpck(corpus, cs, cfg) if algorithm == "mpck" else run_kmeans(corpus, cfg)
        assert model.converged_by == stop
        assert len(calls) == 1 + 2 * len(model.objective_history) + 1


class TestRunKmeans:
    def test_k_equals_n(self):
        corpus = build_corpus([["a"], ["b"], ["c"], ["d"]], arity=1)
        model = run_kmeans(corpus, MpckConfig(k=4, seed=0))
        assert len(set(model.assignments.tolist())) == 4
        assert model.objective == 0.0

    def test_k_one_centroid_is_corpus_mode(self):
        corpus = build_corpus([["a", "x"], ["a", "y"], ["b", "x"]], arity=2)
        model = run_kmeans(corpus, MpckConfig(k=1, seed=0))
        assert model.centroids[0].fields == ("a", "x")

    def test_baseline_below_mpck_on_separable_corpus(self):
        corpus, labels = generate_synthetic(default_synth_spec(n_messages=500, seed=1))
        km = run_kmeans(corpus, MpckConfig(k=21, seed=0))
        km_report = evaluate(km.assignments, labels)
        assert km_report.purity < 1.0


@pytest.mark.parametrize("per_block", [1, 3, 7])
def test_dispersion_costs_in_blocks_equal_one_stacked_matmul(monkeypatch, per_block):
    rng = np.random.default_rng(0)
    corpus = random_corpus(rng, 400, 32)
    k = 7
    cent = corpus.unique_codes[:k]
    weights = rng.uniform(0.05, 5.0, size=(k, corpus.arity))
    state = clustering._State(corpus, k, cent, weights, np.zeros(len(corpus), dtype=np.int64),
                              close_constraints(ConstraintSet()), None)
    mismatch = corpus.unique_codes[None] != cent[:, None]     # (K, u, F)
    monkeypatch.setattr(clustering, "DISPERSION_BLOCK", per_block * corpus.unique_codes.size)
    want = np.matmul(mismatch, weights[:, :, None])[:, :, 0].T
    assert np.array_equal(state.dispersion_costs(), want)


@pytest.mark.parametrize("field, value", [
    ("k", 0), ("k", 2.5), ("k", True), ("k", "3"),
    ("max_iterations", -3), ("max_iterations", 1.0), ("max_iterations", False),
    ("seed", -1), ("seed", 0.5), ("seed", None),
    ("tol", 0.0), ("tol", -1e-6), ("tol", float("nan")),
])
def test_config_rejects_a_bad_field_by_name(field, value):
    with pytest.raises(ValueError, match="^%s must be " % field):
        MpckConfig(**{"k": 3, field: value})


def test_config_accepts_numpy_integers():
    cfg = MpckConfig(k=np.int64(3), max_iterations=np.int64(0), seed=np.int64(7))
    assert (cfg.k, cfg.max_iterations, cfg.seed) == (3, 0, 7)
