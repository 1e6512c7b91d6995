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
metrics are closed-form per-cluster weight updates.  Both come from one
(distinct rows, K) count matrix, and float sums over members gather
per-row costs into member order.  The per-cluster max-separated-pair table
read by the cannot-link penalty (built over each cluster's distinct rows)
is refreshed whenever the metrics change, so with metric updates disabled
it stays fixed during the loop, which keeps the objective non-increasing;
the final objective uses a table built for the final assignments.  Without
cannot-links no table is built.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import metric as _metric
from .constraints import ConstraintSet, close_constraints, neighborhoods
from .errors import EmptyCluster, TooManyClusters
from .metric import EPS_DENOM, EPS_WEIGHT, DiagonalMetric, MaxPair
from .model import Message, json_indented, json_ints


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
            "assignments": self.assignments.tolist(),
            "centroids": [list(c.fields) for c in self.centroids],
            "metric_weights": [m.weights.tolist() for m in self.metrics],
        }

    def to_json(self):
        return json_indented(self.to_dict())

    @classmethod
    def from_dict(cls, d):
        k, iterations, seed = json_ints([d["k"], d["iterations"], d["seed"]], "k, iterations, seed")
        return cls(
            k=k,
            centroids=tuple(
                Message(fields=tuple(c), source_id="centroid:%d" % h)
                for h, c in enumerate(d["centroids"])
            ),
            metrics=tuple(DiagonalMetric(np.array(w)) for w in d["metric_weights"]),
            assignments=np.array(json_ints(d["assignments"], "assignments"), dtype=np.int64),
            objective=float(d["objective"]),
            iterations=iterations,
            seed=seed,
        )


class PenaltyContext:
    """Per-cluster max-separated-pair table and its squared distances."""

    def __init__(self, maxpairs):
        self.maxpairs = tuple(maxpairs)
        self.maxd2 = np.array([p.sq_distance for p in self.maxpairs])

    @classmethod
    def build(cls, corpus, assignments, metrics):
        maxpairs = [
            _metric.max_separated_pair(members, corpus, m) if members.size
            else MaxPair(-1, -1, 0.0)
            for members, m in zip(_members_by_cluster(assignments, len(metrics)), metrics)
        ]
        return cls(maxpairs)


def _members_by_cluster(assignments, k):
    """Ascending member indices of each of the k clusters, from one stable
    sort of the assignments."""
    assignments = np.asarray(assignments, dtype=np.int64)
    order = np.argsort(assignments, kind="stable")
    ends = np.cumsum(np.bincount(assignments, minlength=k))
    return np.split(order, ends[:-1])


def _row_counts(corpus, row_ids, groups, g):
    """(u, g) matrix counting, per distinct row and group, the messages
    whose row ids and group ids are `row_ids` and `groups`."""
    u = corpus.unique_codes.shape[0]
    flat = row_ids * g + np.asarray(groups, dtype=np.int64)
    return np.bincount(flat, minlength=u * g).reshape(u, g)


def update_centroids(corpus, assignments, k):
    """Per-field mode of each cluster's members; lexicographically smallest
    token wins ties."""
    cent_codes = _centroid_codes(corpus, assignments, k)
    return tuple(_centroid_message(corpus, cent_codes[h], h) for h in range(k))


def _centroid_codes(corpus, assignments, k):
    return _mode_rows(corpus, _row_counts(corpus, corpus.row_ids, assignments, k))


def _mode_rows(corpus, counts):
    """(g, F) per-field modes of the g groups counted in the (u, g) count
    matrix; the lexicographically smallest token wins ties."""
    g = counts.shape[1]
    empty = np.flatnonzero(counts.sum(axis=0) == 0)
    if empty.size:
        raise EmptyCluster("cluster %d has no members" % empty[0])
    cent_codes = np.zeros((g, corpus.arity), dtype=np.int32)
    weights = counts.ravel()
    for f, order in enumerate(corpus.lex_order):
        if order.size == 1:
            continue                    # one symbol: the mode is code 0
        # token counts per group, tokens in lexicographic order, so the
        # first maximum is the smallest tied token
        ranks = corpus.lex_rank[f][corpus.unique_codes[:, f]]
        flat = (ranks[:, None] * g + np.arange(g)).ravel()
        tokens = np.bincount(flat, weights=weights, minlength=order.size * g)
        cent_codes[:, f] = order[tokens.reshape(order.size, g).argmax(axis=0)]
    return cent_codes


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
        self.ctx = ctx                              # None without cannot-links
        self.must_pairs, self.cannot_pairs = constraints.pairs()
        (self.ml_ptr, self.ml_nbr), (self.cl_ptr, self.cl_nbr) = constraints.partners(len(corpus))
        self.constrained = np.flatnonzero(
            (np.diff(self.ml_ptr) > 0) | (np.diff(self.cl_ptr) > 0)
        )

    def dispersion_costs(self):
        """(u, K) weighted mismatch of each distinct code row against each
        centroid."""
        rows = self.corpus.unique_codes
        d = np.empty((rows.shape[0], self.k))
        for h in range(self.k):
            d[:, h] = (rows != self.cent[h][None, :]) @ self.weights[h]
        return d

    def base_costs(self):
        """(u, K) dispersion-plus-logdet costs of each distinct code row;
        message i's costs are row `corpus.row_ids[i]`."""
        return self.dispersion_costs() - self.logdets

    def point_costs(self, i, base_row):
        """K-vector of assignment costs for point i, partners' assignments
        fixed; `base_row` is point i's row of base_costs()."""
        costs = base_row.copy()
        ml = self.ml_nbr[self.ml_ptr[i]:self.ml_ptr[i + 1]]
        if ml.size:
            m = self.codes[ml] != self.codes[i][None, :]
            d = m @ self.weights.T                      # (P, K)
            lj = self.assignments[ml]
            dj = d[np.arange(ml.size), lj]
            pen = self.w * (0.5 * d + 0.5 * dj[:, None])
            pen[np.arange(ml.size), lj] = 0.0
            costs += pen.sum(axis=0)
        cl = self.cl_nbr[self.cl_ptr[i]:self.cl_ptr[i + 1]]
        if cl.size:
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
        disp = self.dispersion_costs()
        for h, members in enumerate(_members_by_cluster(self.assignments, self.k)):
            if members.size == 0:
                continue
            # per-row costs gathered into member order keep the sum's order
            costs = disp[self.corpus.row_ids[members], h]
            total += float(costs.sum()) - members.size * self.logdets[h]
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


def _state_from_model(corpus, model, constraints, ctx):
    cent = np.stack([corpus.encode(c) for c in model.centroids])
    weights = np.stack([m.weights for m in model.metrics])
    assignments = np.asarray(model.assignments, dtype=np.int64)
    return _State(corpus, model.k, cent, weights, assignments, constraints, ctx)


def evaluate_objective(corpus, model, constraints, ctx=None):
    """Recompute the full objective from a model's stored state."""
    state = _state_from_model(corpus, model, constraints, ctx)
    if ctx is None and state.cannot_pairs.size:
        state.ctx = PenaltyContext.build(corpus, model.assignments, model.metrics)
    return state.objective()


def _seed_centroids(corpus, constraints, k, rng):
    """Initial centroid codes: modes of the largest constraint neighborhoods,
    then farthest-first under the unit Hamming metric, over distinct rows."""
    hoods = neighborhoods(constraints)[:k] if not constraints.is_empty() else []
    cent = []
    if hoods:
        members = np.concatenate([h.member_indices for h in hoods]).astype(np.int64)
        groups = np.repeat(np.arange(len(hoods)), [len(h) for h in hoods])
        counts = _row_counts(corpus, corpus.row_ids[members], groups, len(hoods))
        cent = list(_mode_rows(corpus, counts))
    rows = corpus.unique_codes
    if len(cent) < k:
        mindist = np.full(rows.shape[0], np.inf)
        for row in cent:
            mindist = np.minimum(mindist, (rows != row[None, :]).sum(axis=1))
        if not cent:
            first = int(rng.integers(len(corpus)))
            cent.append(corpus.codes[first].copy())
            mindist = np.minimum(mindist, (rows != cent[-1][None, :]).sum(axis=1))
        while len(cent) < k:
            # rows are numbered in first-occurrence order, so the first
            # farthest row holds the first farthest message
            pick = int(np.argmax(mindist))
            cent.append(rows[pick].copy())
            mindist = np.minimum(mindist, (rows != cent[-1][None, :]).sum(axis=1))
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
    l, near = state.violated_cannot()
    if l.size:
        far = np.zeros((k, arity))
        for h, pair in enumerate(state.ctx.maxpairs):
            if pair.first >= 0:
                far[h] = state.codes[pair.first] != state.codes[pair.second]
        cl_tallies = np.zeros((k, arity))
        np.add.at(cl_tallies, l, state.w_bar * (far[l] - near))
        tallies += np.maximum(0.0, cl_tallies)
    counts = _row_counts(state.corpus, state.corpus.row_ids, state.assignments, k)
    sizes = counts.sum(axis=0)
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise EmptyCluster("cluster %d empty at metric update" % empty[0])
    d = np.maximum(EPS_DENOM, _dispersion(state.corpus, counts, state.cent) + tallies)
    return np.clip(sizes[:, None] / d, EPS_WEIGHT, 1.0 / EPS_WEIGHT)


def _dispersion(corpus, counts, cent):
    """(K, F) number of members that mismatch their centroid at each field,
    from the (u, K) count matrix; integer sums, so exact."""
    rows = corpus.unique_codes
    return np.stack([counts[:, h] @ (rows != cent[h][None, :]) for h in range(len(cent))])


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
    row_ids = corpus.row_ids

    # initial pass: plain nearest-centroid under the seeded centroids
    state.assignments[:] = np.argmin(state.base_costs(), axis=1)[row_ids]
    _repair_empty_clusters(state)
    state.cent = _centroid_codes(corpus, state.assignments, k)
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
    free_row_ids = row_ids[free_rows]

    history = []
    max_gap = 0.0
    j_end = state.objective()
    prev_j_end = None
    converged_by = "max_iterations"
    iterations = 0
    moved = False
    for t in range(1, config.max_iterations + 1):
        iterations = t
        # nothing changes the state between the last objective and here
        tracked = j_end
        prev_assign = state.assignments.copy()
        perm = rng.permutation(n)

        base = state.base_costs()
        if free_rows.size:
            new = np.argmin(base, axis=1)[free_row_ids]
            old = state.assignments[free_rows]
            tracked += float(base[free_row_ids, new].sum() - base[free_row_ids, old].sum())
            state.assignments[free_rows] = new
        for i in perm[~free[perm]].tolist():
            costs = state.point_costs(i, base[row_ids[i]])
            h = int(np.argmin(costs))
            tracked += float(costs[h] - costs[state.assignments[i]])
            state.assignments[i] = h

        recomputed = state.objective()
        max_gap = max(max_gap, abs(tracked - recomputed))

        if np.array_equal(prev_assign, state.assignments):
            converged_by = "fixpoint"
            break
        moved = True

        _repair_empty_clusters(state)
        state.cent = _centroid_codes(corpus, state.assignments, k)
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

    if moved and not config.metric_update_enabled:
        # the loop's table belongs to the initial assignments; with metric
        # updates on it was built for the final assignments and metrics
        _rebuild_penalties(state)
    centroids = tuple(
        _centroid_message(corpus, state.cent[h], h) for h in range(k)
    )
    model = ClusterModel(
        k=k,
        centroids=centroids,
        metrics=_metrics_of(state),
        assignments=state.assignments.copy(),
        objective=0.0,
        iterations=iterations,
        seed=config.seed,
        objective_history=tuple(history),
        accounting_gap=max_gap,
        converged_by=converged_by,
    )
    model.objective = evaluate_objective(corpus, model, constraints, ctx=state.ctx)
    return model


def run_kmeans(corpus, config):
    """Unsupervised baseline: same loop with no constraints and the unit
    metric frozen (log-det contribution is identically zero)."""
    cfg = replace(config, metric_update_enabled=False)
    return run_mpck(corpus, ConstraintSet(), cfg)


def _metrics_of(state):
    return tuple(DiagonalMetric(state.weights[h].copy()) for h in range(state.k))


def _rebuild_penalties(state):
    """Max-pair table for the current assignments and metrics; only
    cannot-link terms read it, so without them none is built."""
    if state.cannot_pairs.size:
        state.ctx = PenaltyContext.build(state.corpus, state.assignments, _metrics_of(state))


def _repair_empty_clusters(state):
    """Reseed each empty cluster with the point farthest from its own
    centroid, drawn from clusters that can spare a member."""
    sizes = np.bincount(state.assignments, minlength=state.k)
    for h in range(state.k):
        if sizes[h] > 0:
            continue
        disp = state.dispersion_costs()[state.corpus.row_ids, state.assignments]
        eligible = sizes[state.assignments] >= 2
        if not eligible.any():
            raise EmptyCluster("no cluster can spare a point for reseeding")
        disp[~eligible] = -np.inf
        pick = int(np.argmax(disp))
        sizes[state.assignments[pick]] -= 1
        state.assignments[pick] = h
        sizes[h] += 1
        state.cent[h] = state.codes[pick].copy()
