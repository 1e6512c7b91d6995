"""Metric-learning, pairwise-constrained k-means over categorical messages.

The objective minimized is, summed over points i assigned to cluster l_i
with centroid mu and diagonal metric A:

    sum_i [ d(x_i, mu_{l_i})^2_{A_{l_i}} - log det A_{l_i} ]
    + sum_{(i,j) in must}   w    * f_must(x_i, x_j)   * [l_i != l_j]
    + sum_{(i,j) in cannot} wbar * f_cannot(x_i, x_j) * [l_i == l_j]

where f_must is the mean of the pair's squared distances under the two
clusters' metrics and f_cannot = max(0, D_l - d(x_i, x_j)^2_{A_l}) is how
far the pair falls short of cluster l's maximally separated pair D_l.

Constrained points are visited greedily in a seeded random permutation;
unconstrained points interact with nothing and take a vectorized argmin of
costs computed once per distinct code row.  Centroids are per-field modes;
metrics are closed-form per-cluster weight updates.  The per-cluster
max-separated-pair table used by the cannot-link penalty (built over each
cluster's distinct rows) is refreshed whenever the metrics change, so with
metric updates disabled it stays fixed during the loop, which keeps the
objective non-increasing; the final objective uses a table rebuilt for the
final assignments.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from . import metric as _metric
from .constraints import ConstraintSet, close_constraints, neighborhoods
from .errors import EmptyCluster, TooManyClusters
from .metric import EPS_DENOM, EPS_WEIGHT, DiagonalMetric, MaxPair
from .model import Message


@dataclass(frozen=True)
class MpckConfig:
    k: int
    max_iterations: int = 200
    tol: float = 1e-6
    seed: int = 0
    metric_update_enabled: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


@dataclass
class ClusterModel:
    k: int
    centroids: tuple          # K Messages (per-field modes)
    metrics: tuple            # K DiagonalMetrics
    assignments: np.ndarray   # N cluster ids
    objective: float
    iterations: int = 0
    seed: int = 0
    objective_history: tuple = ()
    accounting_gap: float = 0.0
    converged_by: str = ""

    def to_dict(self):
        return {
            "k": self.k,
            "seed": self.seed,
            "iterations": self.iterations,
            "objective": self.objective,
            "assignments": [int(a) for a in self.assignments],
            "centroids": [list(c.fields) for c in self.centroids],
            "metric_weights": [m.weights.tolist() for m in self.metrics],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d):
        return cls(
            k=int(d["k"]),
            centroids=tuple(
                Message(fields=tuple(c), source_id="centroid:%d" % h)
                for h, c in enumerate(d["centroids"])
            ),
            metrics=tuple(DiagonalMetric(np.array(w)) for w in d["metric_weights"]),
            assignments=np.array(d["assignments"], dtype=np.int64),
            objective=float(d["objective"]),
            iterations=int(d["iterations"]),
            seed=int(d["seed"]),
        )


class PenaltyContext:
    """Per-cluster max-separated-pair table and its squared distances."""

    def __init__(self, maxpairs):
        self.maxpairs = tuple(maxpairs)
        self.maxd2 = np.array([p.sq_distance for p in self.maxpairs])

    @classmethod
    def build(cls, corpus, assignments, metrics):
        k = len(metrics)
        assignments = np.asarray(assignments)
        maxpairs = []
        for h in range(k):
            members = np.flatnonzero(assignments == h)
            if members.size == 0:
                maxpairs.append(MaxPair(-1, -1, 0.0))
            else:
                maxpairs.append(_metric.max_separated_pair(members, corpus, metrics[h]))
        return cls(maxpairs)


def update_centroids(corpus, assignments, k):
    """Per-field mode of each cluster's members; lexicographically smallest
    token wins ties."""
    cent_codes = _mode_rows(corpus, assignments, k)
    return tuple(_centroid_message(corpus, cent_codes[h], h) for h in range(k))


def _mode_rows(corpus, assignments, k):
    assignments = np.asarray(assignments)
    cent_codes = np.empty((k, corpus.arity), dtype=np.int32)
    for h in range(k):
        members = np.flatnonzero(assignments == h)
        if members.size == 0:
            raise EmptyCluster("cluster %d has no members" % h)
        cent_codes[h] = _mode_row(corpus, members)
    return cent_codes


def _mode_row(corpus, members):
    row = np.empty(corpus.arity, dtype=np.int32)
    for f in range(corpus.arity):
        cnt = np.bincount(corpus.codes[members, f], minlength=len(corpus.vocabulary[f]))
        cands = np.flatnonzero(cnt == cnt.max())
        row[f] = cands[np.argmin(corpus.lex_rank[f][cands])]
    return row


def _centroid_message(corpus, code_row, h):
    return Message(
        fields=tuple(corpus.vocabulary[f][code_row[f]] for f in range(corpus.arity)),
        source_id="centroid:%d" % h,
    )


class _State:
    """Array-level working state shared by the driver and the public ops."""

    def __init__(self, corpus, k, cent_codes, weights, assignments, constraints, ctx):
        self.corpus = corpus
        self.codes = corpus.codes
        self.k = k
        self.cent = cent_codes
        self.weights = weights                      # (K, F)
        self.logdets = np.log(weights).sum(axis=1)  # (K,)
        self.assignments = assignments
        self.w = constraints.w
        self.w_bar = constraints.w_bar
        self.ctx = ctx
        self.ml_adj = _adjacency(constraints.must_links)
        self.cl_adj = _adjacency(constraints.cannot_links)
        self.constrained = np.array(
            sorted(set(self.ml_adj) | set(self.cl_adj)), dtype=np.int64
        )
        self.must_pairs = np.array(sorted(constraints.must_links), dtype=np.int64).reshape(-1, 2)
        self.cannot_pairs = np.array(sorted(constraints.cannot_links), dtype=np.int64).reshape(-1, 2)

    def base_costs(self):
        """(N, K) dispersion-plus-logdet costs against current centroids,
        computed once per distinct code row."""
        rows = self.corpus.unique_codes
        b = np.empty((rows.shape[0], self.k))
        for h in range(self.k):
            mism = rows != self.cent[h][None, :]
            b[:, h] = mism @ self.weights[h] - self.logdets[h]
        return b[self.corpus.row_ids]

    def point_costs(self, i, base_row):
        """K-vector of assignment costs for point i, partners' assignments
        fixed; `base_row` is row i of base_costs()."""
        costs = base_row.copy()
        ml = self.ml_adj.get(i)
        if ml is not None:
            m = self.codes[ml] != self.codes[i][None, :]
            d = m @ self.weights.T                      # (P, K)
            lj = self.assignments[ml]
            dj = d[np.arange(ml.size), lj]
            pen = self.w * (0.5 * d + 0.5 * dj[:, None])
            pen[np.arange(ml.size), lj] = 0.0
            costs += pen.sum(axis=0)
        cl = self.cl_adj.get(i)
        if cl is not None:
            m = self.codes[cl] != self.codes[i][None, :]
            lj = self.assignments[cl]
            d_lj = np.einsum("pf,pf->p", m, self.weights[lj])
            vals = self.w_bar * np.maximum(0.0, self.ctx.maxd2[lj] - d_lj)
            np.add.at(costs, lj, vals)
        return costs

    def violated_must(self):
        """Violated must-links in sorted pair order: the two endpoints'
        clusters and their (P, F) field-mismatch rows."""
        ia, ib = self.must_pairs[:, 0], self.must_pairs[:, 1]
        la, lb = self.assignments[ia], self.assignments[ib]
        viol = la != lb
        return la[viol], lb[viol], self.codes[ia[viol]] != self.codes[ib[viol]]

    def violated_cannot(self):
        """Violated cannot-links in sorted pair order: their shared cluster
        and their (P, F) field-mismatch rows."""
        ia, ib = self.cannot_pairs[:, 0], self.cannot_pairs[:, 1]
        la = self.assignments[ia]
        viol = la == self.assignments[ib]
        return la[viol], self.codes[ia[viol]] != self.codes[ib[viol]]

    def objective(self):
        """Objective recomputed from scratch against the current max-pair table."""
        total = 0.0
        for h in range(self.k):
            members = np.flatnonzero(self.assignments == h)
            if members.size == 0:
                continue
            mism = self.codes[members] != self.cent[h][None, :]
            total += float((mism @ self.weights[h]).sum()) - members.size * self.logdets[h]
        la, lb, m = self.violated_must()
        if la.size:
            da = np.einsum("pf,pf->p", m, self.weights[la])
            db = np.einsum("pf,pf->p", m, self.weights[lb])
            total += float((self.w * 0.5 * (da + db)).sum())
        l, m = self.violated_cannot()
        if l.size:
            d = np.einsum("pf,pf->p", m, self.weights[l])
            total += float((self.w_bar * np.maximum(0.0, self.ctx.maxd2[l] - d)).sum())
        return total


def _adjacency(pairs):
    """Sorted partner indices of every point that appears in `pairs`."""
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return {p: np.array(sorted(q), dtype=np.int64) for p, q in adj.items()}


def _state_from_model(corpus, model, constraints, ctx):
    cent = np.stack([corpus.encode(c) for c in model.centroids])
    weights = np.stack([m.weights for m in model.metrics])
    assignments = np.asarray(model.assignments, dtype=np.int64)
    return _State(corpus, model.k, cent, weights, assignments, constraints, ctx)


def evaluate_objective(corpus, model, constraints, ctx=None):
    """Recompute the full objective from a model's stored state."""
    if ctx is None:
        ctx = PenaltyContext.build(corpus, model.assignments, model.metrics)
    return _state_from_model(corpus, model, constraints, ctx).objective()


def _seed_centroids(corpus, constraints, k, rng):
    """Initial centroid codes: modes of the largest constraint neighborhoods,
    then farthest-first under the unit Hamming metric."""
    hoods = neighborhoods(constraints) if not constraints.is_empty() else []
    cent = []
    for hood in hoods[:k]:
        cent.append(_mode_row(corpus, np.asarray(hood.member_indices)))
    n = len(corpus)
    if len(cent) < k:
        mindist = np.full(n, np.inf)
        for row in cent:
            mindist = np.minimum(mindist, (corpus.codes != row[None, :]).sum(axis=1))
        if not cent:
            first = int(rng.integers(n))
            cent.append(corpus.codes[first].copy())
            mindist = np.minimum(mindist, (corpus.codes != cent[-1][None, :]).sum(axis=1))
        while len(cent) < k:
            pick = int(np.argmax(mindist))
            cent.append(corpus.codes[pick].copy())
            mindist = np.minimum(mindist, (corpus.codes != cent[-1][None, :]).sum(axis=1))
    return np.stack(cent)


def _update_weights(state):
    """Closed-form metric update for every cluster, including violation tallies.

    a_f = n / max(EPS_DENOM, D_f), clamped to [EPS_WEIGHT, 1/EPS_WEIGHT],
    where D_f is the members' dispersion around the centroid plus the
    weighted must- and cannot-link violation tallies.
    """
    k, arity = state.k, state.codes.shape[1]
    tallies = np.zeros((k, arity))
    la, lb, mism = state.violated_must()
    # each pair adds to la, then lb, in pair order
    np.add.at(tallies, np.column_stack([la, lb]).ravel(),
              np.repeat(0.5 * state.w * mism, 2, axis=0))
    far = np.zeros((k, arity))
    for h, pair in enumerate(state.ctx.maxpairs):
        if pair.first >= 0:
            far[h] = state.codes[pair.first] != state.codes[pair.second]
    l, near = state.violated_cannot()
    cl_tallies = np.zeros((k, arity))
    np.add.at(cl_tallies, l, state.w_bar * (far[l] - near))
    tallies += np.maximum(0.0, cl_tallies)
    weights = np.empty_like(state.weights)
    for h in range(k):
        members = np.flatnonzero(state.assignments == h)
        if members.size == 0:
            raise EmptyCluster("cluster %d empty at metric update" % h)
        disp = (state.codes[members] != state.cent[h][None, :]).sum(axis=0)
        d = np.maximum(EPS_DENOM, disp + tallies[h])
        weights[h] = np.clip(members.size / d, EPS_WEIGHT, 1.0 / EPS_WEIGHT)
    return weights


def run_mpck(corpus, constraints, config):
    """EM loop: seeded init, greedy constrained assignment, mode centroids,
    per-cluster metric updates; converges on an assignment fixpoint,
    |dJ| < tol, or the iteration cap."""
    n = len(corpus)
    k = config.k
    if k > n:
        raise TooManyClusters("k=%d exceeds corpus size %d" % (k, n))
    constraints = close_constraints(constraints)
    rng = np.random.default_rng(config.seed)

    cent = _seed_centroids(corpus, constraints, k, rng)
    weights = np.ones((k, corpus.arity))
    assignments = np.full(n, -1, dtype=np.int64)
    state = _State(corpus, k, cent, weights, assignments, constraints, None)

    # initial pass: plain nearest-centroid under the seeded centroids
    base = state.base_costs()
    state.assignments[:] = np.argmin(base, axis=1)
    _repair_empty_clusters(state)
    state.cent = _mode_rows(corpus, state.assignments, k)
    if config.metric_update_enabled:
        _rebuild_penalties(state)
        state.weights = _update_weights(state)
        state.logdets = np.log(state.weights).sum(axis=1)
    _rebuild_penalties(state)

    # unconstrained points interact with nothing: a vectorized argmin is
    # order-equivalent to the sequential visit
    free = np.ones(n, dtype=bool)
    free[state.constrained] = False
    free_rows = np.flatnonzero(free)

    history = []
    max_gap = 0.0
    j_end = state.objective()
    prev_j_end = None
    converged_by = "max_iterations"
    iterations = 0
    for t in range(1, config.max_iterations + 1):
        iterations = t
        # nothing changes the state between the last objective and here
        tracked = j_end
        prev_assign = state.assignments.copy()
        perm = rng.permutation(n)

        base = state.base_costs()
        if free_rows.size:
            new = np.argmin(base[free_rows], axis=1)
            old = state.assignments[free_rows]
            tracked += float(base[free_rows, new].sum() - base[free_rows, old].sum())
            state.assignments[free_rows] = new
        for i in perm[~free[perm]].tolist():
            costs = state.point_costs(i, base[i])
            h = int(np.argmin(costs))
            tracked += float(costs[h] - costs[state.assignments[i]])
            state.assignments[i] = h

        recomputed = state.objective()
        max_gap = max(max_gap, abs(tracked - recomputed))

        if np.array_equal(prev_assign, state.assignments):
            converged_by = "fixpoint"
            break

        _repair_empty_clusters(state)
        state.cent = _mode_rows(corpus, state.assignments, k)
        if config.metric_update_enabled:
            state.weights = _update_weights(state)
            state.logdets = np.log(state.weights).sum(axis=1)
            _rebuild_penalties(state)

        j_end = state.objective()
        history.append(j_end)
        if prev_j_end is not None and abs(j_end - prev_j_end) < config.tol:
            converged_by = "tolerance"
            break
        prev_j_end = j_end

    centroids = tuple(
        _centroid_message(corpus, state.cent[h], h) for h in range(k)
    )
    metrics = _metrics_of(state)
    final_ctx = PenaltyContext.build(corpus, state.assignments, metrics)
    model = ClusterModel(
        k=k,
        centroids=centroids,
        metrics=metrics,
        assignments=state.assignments.copy(),
        objective=0.0,
        iterations=iterations,
        seed=config.seed,
        objective_history=tuple(history),
        accounting_gap=max_gap,
        converged_by=converged_by,
    )
    model.objective = evaluate_objective(corpus, model, constraints, ctx=final_ctx)
    return model


def run_kmeans(corpus, config):
    """Unsupervised baseline: same loop with no constraints and the unit
    metric frozen (log-det contribution is identically zero)."""
    cfg = replace(config, metric_update_enabled=False)
    return run_mpck(corpus, ConstraintSet(), cfg)


def _metrics_of(state):
    return tuple(DiagonalMetric(state.weights[h].copy()) for h in range(state.k))


def _rebuild_penalties(state):
    state.ctx = PenaltyContext.build(state.corpus, state.assignments, _metrics_of(state))


def _repair_empty_clusters(state):
    """Reseed each empty cluster with the point farthest from its own
    centroid, drawn from clusters that can spare a member."""
    sizes = np.bincount(state.assignments, minlength=state.k)
    for h in range(state.k):
        if sizes[h] > 0:
            continue
        disp = np.empty(len(state.corpus))
        for g in range(state.k):
            members = np.flatnonzero(state.assignments == g)
            if members.size == 0:
                continue
            mism = state.codes[members] != state.cent[g][None, :]
            disp[members] = mism @ state.weights[g]
        eligible = sizes[state.assignments] >= 2
        if not eligible.any():
            raise EmptyCluster("no cluster can spare a point for reseeding")
        disp[~eligible] = -np.inf
        pick = int(np.argmax(disp))
        sizes[state.assignments[pick]] -= 1
        state.assignments[pick] = h
        sizes[h] += 1
        state.cent[h] = state.codes[pick].copy()
