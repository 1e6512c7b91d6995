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
costs computed once per distinct code row.  Constraints are never expanded
into pairs: penalties and violation tallies are summed over the counts of
constrained points per (component, distinct row) slot and cluster.
Each M-step counts members once, in one (distinct rows, K) matrix that
the centroids (per-field modes) and the metric update read; the costs
and the dispersion come from one mismatch of the distinct rows against
the centroids.  A pass that moves no point ends the loop unscored: its
state is the one last scored.  No step groups messages by cluster:
the objective sums each distinct row's cost times its count in each
cluster, so it can differ from a per-message sum in its last bits, and
the per-cluster max-separated-pair table is built over each cluster's
distinct rows.  That table, read by the cannot-link penalty alone, is
built on first read for the assignments and metrics of that moment and
dropped with the weights, so with metric updates disabled it stays fixed
through the loop, which keeps the objective non-increasing; if any point
moved, the final objective builds one for the final assignments.
"""

import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import metric as _metric
from .constraints import ConstraintSet, close_constraints, neighborhoods
from .errors import EmptyCluster, TooManyClusters
from .metric import EPS_DENOM, EPS_WEIGHT, DiagonalMetric, MaxPair
from .model import Message, json_indented, json_ints

DISPERSION_BLOCK = 2**20    # float entries cast at a time by _State.dispersion_costs


@dataclass(frozen=True)
class MpckConfig:
    k: int
    max_iterations: int = 200
    tol: float = 1e-6
    seed: int = 0
    metric_update_enabled: bool = True

    def __post_init__(self):
        for name, least in (("k", 1), ("max_iterations", 0), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError("%s must be an integer, got %r" % (name, value))
            if value < least:
                raise ValueError("%s must be >= %d, got %r" % (name, least, value))
        if not self.tol > 0:
            raise ValueError("tol must be > 0, got %r" % (self.tol,))


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
        assignments = json_ints(d["assignments"], "assignments")
        if any(not 0 <= a < k for a in assignments):
            raise ValueError("assignments must lie in [0, %d)" % k)
        if len(d["centroids"]) != k or len(d["metric_weights"]) != k:
            raise ValueError("k=%d needs k centroids and k metric_weights" % k)
        return cls(
            k=k,
            centroids=tuple(
                Message(fields=tuple(c), source_id="centroid:%d" % h)
                for h, c in enumerate(d["centroids"])
            ),
            metrics=tuple(DiagonalMetric(np.array(w)) for w in d["metric_weights"]),
            assignments=np.array(assignments, dtype=np.int64),
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
        """Each cluster's max pair over its distinct rows, each represented
        by its smallest member in the cluster."""
        k, n = len(metrics), len(corpus)
        assignments = np.asarray(assignments)
        if assignments.min() < 0 or assignments.max() >= k:
            raise ValueError("cluster ids must lie in [0, %d)" % k)
        first = np.full(corpus.unique_codes.shape[0] * k, n)
        np.minimum.at(first, corpus.row_ids * k + assignments, np.arange(n))
        maxpairs = []
        for reps, m in zip(first.reshape(-1, k).T, metrics):
            reps = reps[reps < n]
            maxpairs.append(_metric.max_separated_pair(reps, corpus, m) if reps.size
                            else MaxPair(-1, -1, 0.0))
        return cls(maxpairs)


def _row_counts(corpus, row_ids, groups, g):
    """(u, g) matrix counting, per distinct row and group, the messages
    whose row ids and group ids are `row_ids` and `groups`."""
    u = corpus.unique_codes.shape[0]
    flat = row_ids * g + np.asarray(groups, dtype=np.int64)
    return np.bincount(flat, minlength=u * g).reshape(u, g)


def update_centroids(corpus, assignments, k):
    """Per-field mode of each cluster's members; lexicographically smallest
    token wins ties."""
    cent_codes = _mode_rows(corpus, _row_counts(corpus, corpus.row_ids, assignments, k))
    return tuple(_centroid_message(corpus, cent_codes[h], h) for h in range(k))


def _mode_rows(corpus, counts):
    """(g, F) per-field modes of the g groups counted in the (u, g) count
    matrix; the lexicographically smallest token wins ties."""
    g = counts.shape[1]
    empty = np.flatnonzero(counts.sum(axis=0) == 0)
    if empty.size:
        raise EmptyCluster("cluster %d has no members" % empty[0])
    cent_codes = np.zeros((g, corpus.arity), dtype=np.int32)
    weights = counts.ravel()
    for f, vocab in enumerate(corpus.vocabulary):
        if len(vocab) == 1:
            continue                    # one symbol: the mode is code 0
        # token counts per group; codes follow token order, so the first
        # maximum is the smallest tied token
        flat = (corpus.unique_codes[:, f, None].astype(np.int64) * g + np.arange(g)).ravel()
        tokens = np.bincount(flat, weights=weights, minlength=len(vocab) * g)
        cent_codes[:, f] = tokens.reshape(len(vocab), g).argmax(axis=0)
    return cent_codes


def _centroid_message(corpus, code_row, h):
    return Message(
        fields=tuple(corpus.vocabulary[f][code_row[f]] for f in range(corpus.arity)),
        source_id="centroid:%d" % h,
    )


class _State:
    """Array-level working state shared by `run_mpck` and the public ops.

    Constraint terms come from [must, cannot] tables over slots, the
    (component, distinct row) pairs of the constrained points: entry [s, h]
    sums what the partners of a point of slot s add in cluster h.  Its
    partners' slots are those marked in row s of the (S, S) `linked[kind]`.

    The max-pair table `ctx` is built on first read, for the assignments
    and metrics of that moment, and dropped when the weights are set; moves
    keep it.  A table passed to the constructor is used as given.
    """

    def __init__(self, corpus, k, cent_codes, weights, assignments, constraints, ctx=None):
        constraints = close_constraints(constraints)
        self.corpus = corpus
        self.k = k
        self.cent = cent_codes                      # (K, F)
        self.weights = weights                      # (K, F)
        self.assignments = assignments
        self.scales = (0.5 * constraints.w, constraints.w_bar)   # of the two tables
        self._ctx = ctx
        self.constrained = constraints.points
        sizes = np.bincount(constraints.component)
        has_cannot = constraints.cannot_components.size > 0
        self.kinds = [kind for kind, on in enumerate(((sizes > 1).any(), has_cannot)) if on]
        u = corpus.unique_codes.shape[0]
        slots, point_slots = np.unique(constraints.component * u
                                       + corpus.row_ids[self.constrained], return_inverse=True)
        comp, rows = np.divmod(slots, u)
        rows, self.slot_rows = np.unique(rows, return_inverse=True)     # R distinct rows
        codes = corpus.unique_codes[rows]
        self.fields = np.flatnonzero((codes != codes[:1]).any(axis=0))  # where they differ
        v = codes[:, self.fields]
        self.mismatch = (v[:, None, :] != v[None, :, :]).astype(float)   # (R, R, V)
        self.point_cells = point_slots * k          # flat cell ids in cluster 0
        self.slot = dict(zip(self.constrained.tolist(), point_slots.tolist()))
        # [must, cannot]: same component, cannot-linked components
        cannot = np.zeros((sizes.size, sizes.size), dtype=bool)
        ca, cb = constraints.cannot_components.T
        cannot[ca, cb] = cannot[cb, ca] = True
        self.linked = [comp[:, None] == comp, cannot[comp[:, None], comp]]

    # Centroids and weights are replaced, never changed in place, so that
    # setting them drops what was derived from them.
    @property
    def cent(self):
        return self._cent

    @cent.setter
    def cent(self, cent_codes):
        self._cent = cent_codes
        # (K, u, F): where each distinct code row differs from each centroid
        self.cent_mismatch = self.corpus.unique_codes[None] != cent_codes[:, None]
        self._dispersion = None

    @property
    def weights(self):
        return self._weights

    @weights.setter
    def weights(self, weights):
        self._weights = weights
        self.logdets = np.log(weights).sum(axis=1)  # (K,)
        self._dispersion = None
        self._metrics = self._ctx = None
        self.distances = self.tables = None

    def metrics(self):
        """The K DiagonalMetrics of the current weights, built once per
        weight update."""
        if self._metrics is None:
            self._metrics = tuple(DiagonalMetric(w.copy()) for w in self.weights)
        return self._metrics

    @property
    def ctx(self):
        """The max-pair table, built on first read; only cannot-link terms
        read it, so without them none is built."""
        if self._ctx is None:
            self._ctx = PenaltyContext.build(self.corpus, self.assignments, self.metrics())
        return self._ctx

    def dispersion_costs(self):
        """(u, K) weighted mismatch of each distinct code row against each
        centroid, computed once per centroids and weights."""
        if self._dispersion is None:
            # one BLAS matrix-vector product per cluster (einsum sums in
            # another order), over whole clusters whose float copy of the
            # mismatch holds at most DISPERSION_BLOCK entries
            k, u, f = self.cent_mismatch.shape
            step = max(1, DISPERSION_BLOCK // (u * f))
            out = np.empty((k, u))
            for a in range(0, k, step):
                block = self.cent_mismatch[a:a + step].astype(float)
                out[a:a + step] = np.matmul(block, self.weights[a:a + step, :, None])[:, :, 0]
            self._dispersion = out.T
        return self._dispersion

    def dispersion(self, counts):
        """(K, F) members mismatching their centroid, exact, from (u, K) counts."""
        return np.einsum("uk,kuf->kf", counts, self.cent_mismatch)

    def base_costs(self):
        """(u, K) dispersion-plus-logdet costs of each distinct code row;
        message i's costs are row `corpus.row_ids[i]`."""
        return self.dispersion_costs() - self.logdets

    def cells(self):
        """Slot, cluster and number of constrained points of each occupied
        (slot, cluster) cell, in slot order, and the (slots, K) counts."""
        counts = np.bincount(self.point_cells + self.assignments[self.constrained],
                             minlength=self.slot_rows.size * self.k)
        ids = np.flatnonzero(counts)
        return (*np.divmod(ids, self.k), counts[ids], counts.reshape(-1, self.k))

    def pairs(self, s, kind):
        """(cell, target slot, its row, the cell's row) for each target of
        each cell in slot s, cell by cell, so that a table entry sums its
        terms in cell order; kind 0 is must, 1 cannot."""
        cell, t = np.nonzero(self.linked[kind][s])
        return cell, t, self.slot_rows[t], self.slot_rows[s[cell]]

    def partner_costs(self, kind, x, y, g):
        """Unweighted cost a partner of row y in cluster g adds to a point of
        row x: (n, K) for a must-link, d_h + d_g in each cluster h but g;
        (n,) for a cannot-link, in g alone, the shortfall D_g - d_g."""
        d = self.distances
        if kind:
            return np.maximum(0.0, self.ctx.maxd2[g] - d[x, y, g])
        costs = d[x, y] + d[x, y, g][..., None]
        costs[np.arange(costs.shape[0]), g] = 0.0
        return costs

    def build_tables(self, cells):
        """[must, cannot] tables of the `cells`, zero for a kind of link the
        constraints lack."""
        s, g, n, _ = cells
        k = self.k
        if self.distances is None:      # (R, R, K) weighted mismatch of the rows
            self.distances = np.tensordot(self.mismatch, self.weights[:, self.fields], (2, 1))
        tables = [np.zeros((self.slot_rows.size, k)) for _ in range(2)]
        for kind in self.kinds:
            cell, t, x, y = self.pairs(s, kind)
            costs = self.partner_costs(kind, x, y, g[cell])
            at = t * k + g[cell] if kind else (t * k)[:, None] + np.arange(k)
            costs *= n[cell] if kind else n[cell, None]
            tables[kind] = np.bincount(at.ravel(), costs.ravel(), tables[kind].size).reshape(-1, k)
        return tables

    def point_costs(self, i, base_row):
        """K-vector of assignment costs for point i, partners' assignments
        fixed; `base_row` is point i's row of base_costs()."""
        costs = base_row.copy()
        s = self.slot.get(i)
        if s is not None:
            if self.tables is None:
                self.tables = self.build_tables(self.cells())
            for kind in self.kinds:
                costs += self.scales[kind] * self.tables[kind][s]
        return costs

    def move(self, i, h):
        """Assign point i to cluster h; the tables follow by the costs its
        old and new cell add to their target slots."""
        old, self.assignments[i] = self.assignments[i], h
        s = self.slot.get(i)
        if s is None or self.tables is None or old == h:
            return
        y = self.slot_rows[s]
        for kind in self.kinds:
            t = np.flatnonzero(self.linked[kind][s])
            for g, sign in ((old, -1.0), (h, 1.0)):
                at = (t, g) if kind else t
                self.tables[kind][at] += sign * self.partner_costs(kind, self.slot_rows[t], y, g)

    def objective(self):
        """Objective recomputed in full against the current max-pair
        table; the must and cannot tables are rebuilt on the way."""
        counts = _row_counts(self.corpus, self.corpus.row_ids, self.assignments, self.k)
        # an empty cell adds nothing, even where its cost is infinite
        costs = np.multiply(counts, self.base_costs(), out=np.zeros(counts.shape), where=counts > 0)
        total = float(costs.sum())
        cells = s, g, n, _ = self.cells()
        self.tables = self.build_tables(cells)
        for kind in self.kinds:     # each violated pair is charged to both points
            total += 0.5 * self.scales[kind] * float(self.tables[kind][s, g] @ n)
        return float(total)


def _state_from_model(corpus, model, constraints, ctx):
    cent = np.stack([corpus.encode(c) for c in model.centroids])
    weights = np.stack([m.weights for m in model.metrics])
    assignments = np.asarray(model.assignments, dtype=np.int64)
    return _State(corpus, model.k, cent, weights, assignments, constraints, ctx)


def evaluate_objective(corpus, model, constraints, ctx=None):
    """Recompute the full objective from a model's stored state."""
    return _state_from_model(corpus, model, constraints, ctx).objective()


def _seed_centroids(corpus, constraints, k, rng):
    """Initial centroid codes: modes of the largest constraint neighborhoods,
    then farthest-first under the unit Hamming metric, over distinct rows."""
    hoods = neighborhoods(constraints)[:k] if not constraints.is_empty() else []
    if hoods:
        members = np.concatenate([h.member_indices for h in hoods]).astype(np.int64)
        groups = np.repeat(np.arange(len(hoods)), [len(h) for h in hoods])
        counts = _row_counts(corpus, corpus.row_ids[members], groups, len(hoods))
        cent = list(_mode_rows(corpus, counts))
    else:
        cent = [corpus.unique_codes[corpus.row_ids[int(rng.integers(len(corpus)))]].copy()]
    rows, mindist, seen = corpus.unique_codes, np.inf, 0
    while len(cent) < k:
        mindist = np.minimum(mindist, (rows != cent[seen]).sum(axis=1))
        seen += 1
        if seen == len(cent):
            # rows are numbered in first-occurrence order, so the first
            # farthest row holds the first farthest message
            cent.append(rows[int(np.argmax(mindist))].copy())
    return np.stack(cent)


def _update_weights(state, counts):
    """Closed-form metric update for every cluster, including violation
    tallies; `counts` is the (u, K) count matrix of the state's assignments.

    a_f = n / max(EPS_DENOM, D_f), clamped to [EPS_WEIGHT, 1/EPS_WEIGHT],
    where D_f is the members' dispersion around the centroid plus the
    weighted must- and cannot-link violation tallies.
    """
    k, corpus = state.k, state.corpus
    tallies = np.zeros((k, corpus.arity))
    s, g, n, slot_counts = state.cells()
    for kind in state.kinds:
        cell, t, x, y = state.pairs(s, kind)
        # a violated must-link has its partner outside the point's cluster,
        # a violated cannot-link inside it
        inside = slot_counts[t, g[cell]]
        partners = inside if kind else slot_counts[t].sum(axis=1) - inside
        nf = state.fields.size      # (K, V) mismatching fields of those pairs, by cluster
        by_cluster = np.bincount((g[cell, None] * nf + np.arange(nf)).ravel(), (
            (n[cell] * partners)[:, None] * state.mismatch[x, y]).ravel(), k * nf).reshape(k, nf)
        if kind == 0:
            # a violated must-link adds w/2 per mismatching field to both clusters
            tallies[:, state.fields] += state.scales[0] * by_cluster
            continue
        # a violated cannot-link in cluster h adds wbar * (far - near) to h,
        # counted here from both of its points
        ends = np.array([(p.first, p.second) for p in state.ctx.maxpairs]).reshape(-1, 2)
        far_rows = corpus.unique_codes[corpus.row_ids[ends]]       # (K, 2, F)
        far = (far_rows[:, 0] != far_rows[:, 1]) & (ends[:, :1] >= 0)
        cl_tallies = np.bincount(g[cell], n[cell] * partners, k)[:, None] * far
        cl_tallies[:, state.fields] -= by_cluster
        tallies += np.maximum(0.0, 0.5 * state.scales[1] * cl_tallies)
    sizes = counts.sum(axis=0)
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise EmptyCluster("cluster %d empty at metric update" % empty[0])
    d = np.maximum(EPS_DENOM, state.dispersion(counts) + tallies)
    return np.clip(sizes[:, None] / d, EPS_WEIGHT, 1.0 / EPS_WEIGHT)


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
    state = _State(corpus, k, cent, weights, assignments, constraints)
    row_ids = corpus.row_ids

    # initial pass: plain nearest-centroid under the seeded centroids
    state.assignments[:] = np.argmin(state.base_costs(), axis=1)[row_ids]
    _m_step(state, config.metric_update_enabled)

    # unconstrained points interact with nothing: a vectorized argmin is
    # order-equivalent to the sequential visit
    free = np.ones(n, dtype=bool)
    free[state.constrained] = False
    free_rows = np.flatnonzero(free)
    free_row_ids = row_ids[free_rows]

    history = []
    max_gap = 0.0
    j_end = state.objective()
    converged_by = "max_iterations"
    iterations = 0
    for t in range(1, config.max_iterations + 1):
        iterations = t
        # nothing changes the state between the last objective and here
        tracked = j_end
        prev_assign = state.assignments.copy()
        # constrained points in a seeded random order; nothing reads the
        # generator after seeding, so without them no order is drawn
        visit = []
        if state.constrained.size:
            perm = rng.permutation(n)
            visit = perm[~free[perm]].tolist()

        base = state.base_costs()
        if free_rows.size:
            new = np.argmin(base, axis=1)[free_row_ids]
            old = state.assignments[free_rows]
            tracked += float(base[free_row_ids, new].sum() - base[free_row_ids, old].sum())
            state.assignments[free_rows] = new
        for i in visit:
            costs = state.point_costs(i, base[row_ids[i]])
            h = int(np.argmin(costs))
            tracked += float(costs[h] - costs[state.assignments[i]])
            state.move(i, h)

        # a fixpoint's state is the one last scored, with a gap of 0
        if np.array_equal(prev_assign, state.assignments):
            converged_by = "fixpoint"
            break
        max_gap = max(max_gap, abs(tracked - state.objective()))

        _m_step(state, config.metric_update_enabled)
        j_end = state.objective()
        history.append(j_end)
        if len(history) > 1 and abs(j_end - history[-2]) < config.tol:
            converged_by = "tolerance"
            break

    model = ClusterModel(
        k=k,
        centroids=tuple(_centroid_message(corpus, c, h) for h, c in enumerate(state.cent)),
        metrics=state.metrics(),
        assignments=state.assignments.copy(),
        objective=0.0,
        iterations=iterations,
        seed=config.seed,
        objective_history=tuple(history),
        accounting_gap=max_gap,
        converged_by=converged_by,
    )
    # the final objective builds a state of its own: free the loop's first.
    # With frozen metrics the loop kept the initial assignments' table, so
    # after a move that state builds a new one.
    ctx = state._ctx if config.metric_update_enabled or not history else None
    del state
    model.objective = evaluate_objective(corpus, model, constraints, ctx=ctx)
    return model


def run_kmeans(corpus, config):
    """Unsupervised baseline: same loop with no constraints and the unit
    metric frozen (log-det contribution is identically zero)."""
    cfg = replace(config, metric_update_enabled=False)
    return run_mpck(corpus, ConstraintSet(), cfg)


def _m_step(state, metric_update_enabled):
    """Repair empty clusters, then update the centroids and, if enabled,
    the metrics, both from one (u, K) count matrix of the repaired
    assignments."""
    _repair_empty_clusters(state)
    counts = _row_counts(state.corpus, state.corpus.row_ids, state.assignments, state.k)
    state.cent = _mode_rows(state.corpus, counts)
    if metric_update_enabled:
        state.weights = _update_weights(state, counts)


def _repair_empty_clusters(state):
    """Reseed each empty cluster with the point farthest from its own
    centroid, drawn from clusters that can spare a member.  Only points
    move, as the M-step sets every centroid next; a pick, alone in its
    new cluster, is never drawn again, so the costs are taken once."""
    sizes = np.bincount(state.assignments, minlength=state.k)
    empty = np.flatnonzero(sizes == 0)
    if not empty.size:
        return
    disp = state.dispersion_costs()[state.corpus.row_ids, state.assignments]
    for h in empty:
        eligible = sizes[state.assignments] >= 2
        if not eligible.any():
            raise EmptyCluster("no cluster can spare a point for reseeding")
        pick = int(np.argmax(np.where(eligible, disp, -np.inf)))
        sizes[state.assignments[pick]] -= 1
        state.assignments[pick] = h
        sizes[h] += 1
