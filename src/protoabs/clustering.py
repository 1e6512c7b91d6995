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
costs computed once per distinct code row.  The must and cannot tables
that a visit reads change only when a point moves, so one array pass
costs every visit up to the next mover, which moves alone; the next pass
starts after it and covers at most twice the visits the last one used (the
first covers them all), so the rows costed stay within 3 x the visits
even if every visit moves.  Constraints are never expanded
into pairs: penalties and violation tallies are summed over the counts of
constrained points per (component, distinct row) slot and cluster.
A message's slot is one lookup in an N-entry array of the narrowest
signed integer type that holds the slot count, -1 for an unconstrained
message; the same array picks the messages that take the argmin.
Each M-step counts members once per (field, token) column and cluster;
the centroids (per-field modes) and the metric update's dispersion around
them both read that count.  The costs come from a mismatch of the distinct
rows against the centroids, cast a block of clusters at a time.  A pass
that moves no point ends the loop unscored: its state is the one last
scored.  No step groups messages by cluster:
the objective is the exact sum (`math.fsum`) of each distinct row's cost
times its count in each cluster and of the penalty cells, so its bits do
not depend on the order of those terms, and the per-cluster
max-separated-pair table is built over each cluster's distinct rows.
That table, read by the cannot-link terms alone, is built on first
read for the assignments and metrics of that moment and dropped with
the weights, so with metric updates disabled it stays fixed through the
loop, which keeps the objective non-increasing; if any point moved, the
final objective builds one for the final assignments.  The metric update
reads it only when some cannot-link is violated: without one its
cannot-link tally is 0.0 whatever the table holds.
"""

import math
import numbers
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from . import metric as _metric
from .constraints import close_constraints, constraints_from_labels, neighborhoods
from .errors import DataError, EmptyCluster, TooManyClusters
from .metric import EPS_DENOM, EPS_WEIGHT, DiagonalMetric
from .model import Message, json_indented, json_ints, json_typed

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
    accounting_gap: float = 0.0   # worst |fsum(cost deltas) - fsum(terms' change)| of a pass
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
        """Inverse of to_dict.  Centroid rows are lists of string tokens;
        metric weights and the objective are JSON numbers, not bools."""
        k, iterations, seed = json_ints([d["k"], d["iterations"], d["seed"]], "k, iterations, seed")
        assignments = np.asarray(json_ints(d["assignments"], "assignments"))
        if ((assignments < 0) | (assignments >= k)).any():
            raise ValueError("assignments must lie in [0, %d)" % k)
        centroids = json_typed(d["centroids"], {list}, "centroids", "a list")
        weights = json_typed(d["metric_weights"], {list}, "metric_weights", "a list")
        if len(centroids) != k or len(weights) != k:
            raise ValueError("k=%d needs k centroids and k metric_weights" % k)
        json_typed(list(chain.from_iterable(centroids)), {str}, "centroid tokens", "a string")
        json_typed(list(chain.from_iterable(weights)), {int, float}, "metric_weights", "a number")
        (objective,) = json_typed([d["objective"]], {int, float}, "objective", "a number")
        lengths = sorted({len(row) for row in centroids + weights})
        if len(lengths) > 1:
            raise ValueError("centroids and metric_weights rows have lengths %s, "
                             "need one arity" % lengths)
        return cls(
            k=k,
            centroids=tuple(
                Message(fields=tuple(c), source_id="centroid:%d" % h)
                for h, c in enumerate(centroids)
            ),
            metrics=tuple(DiagonalMetric(np.array(w)) for w in weights),
            assignments=assignments.astype(np.int64),
            objective=float(objective),
            iterations=iterations,
            seed=seed,
        )


@dataclass(frozen=True, eq=False)
class PenaltyContext:
    """Per-cluster max-separated-pair table: the pair's squared distance,
    read by the cannot-link penalty, and the fields on which its two rows
    differ, read by the metric update.  An empty or one-row cluster has
    0.0 and no field."""

    maxd2: np.ndarray   # (K,)
    far: np.ndarray     # (K, F) bool

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
        # an empty cluster keeps the ends (0, 0), which differ on no field
        maxd2, ends = np.zeros(k), np.zeros((k, 2), dtype=np.int64)
        for h, (reps, m) in enumerate(zip(first.reshape(-1, k).T, metrics)):
            reps = reps[reps < n]
            if reps.size:
                pair = _metric.max_separated_pair(reps, corpus, m)
                maxd2[h], ends[h] = pair.sq_distance, (pair.first, pair.second)
        rows = corpus.unique_codes[corpus.row_ids[ends]]    # (K, 2, F)
        return cls(maxd2, rows[:, 0] != rows[:, 1])


def _row_counts(corpus, row_ids, groups, g):
    """(u, g) matrix counting, per distinct row and group, the messages
    whose row ids and group ids are `row_ids` and `groups`."""
    u = corpus.unique_codes.shape[0]
    flat = row_ids * g + np.asarray(groups, dtype=np.int64)
    return np.bincount(flat, minlength=u * g).reshape(u, g)


def _token_counts(corpus, counts):
    """(V, g) members per (field, token) column and group, from the (u, g)
    count matrix of g groups; exact integers held as floats.  One bincount
    over the occupied (row, group) cells x F: its temporaries hold cells x F
    entries, cells <= min(u * g, N), the order of a (g, u, F) mismatch."""
    g = counts.shape[1]
    cells = np.flatnonzero(counts)
    rows, groups = np.divmod(cells, g)
    at = (corpus.unique_codes[rows] + corpus.offsets[:-1]) * g + groups[:, None]
    members = np.repeat(counts.ravel()[cells], corpus.arity)
    return np.bincount(at.ravel(), members, corpus.offsets[-1] * g).reshape(-1, g)


def _mode_rows(corpus, tokens):
    """(g, F) per-field modes of the g groups counted in the (V, g) token
    counts: the first maximum in each field's columns, so, as codes follow
    token order, the smallest tied token wins."""
    empty = np.flatnonzero(~tokens.any(axis=0))
    if empty.size:
        raise EmptyCluster("cluster %d has no members" % empty[0])
    starts = corpus.offsets[:-1]
    field = np.repeat(np.arange(corpus.arity), np.diff(corpus.offsets))
    code = np.arange(tokens.shape[0]) - starts[field]       # each column's code
    top = np.maximum.reduceat(tokens, starts)[field]
    # a column below its field's maximum takes a code past every field's
    top_codes = np.where(tokens == top, code[:, None], tokens.shape[0])
    return np.minimum.reduceat(top_codes, starts).T.astype(np.int32, order="C")


def _dispersion(corpus, tokens, cent):
    """(g,) sizes of the g groups counted in the (V, g) token counts, and
    (g, F) how many members of each differ from its row of `cent` at each
    field; both exact integers held as floats."""
    sizes = tokens[:corpus.offsets[1]].sum(axis=0)      # each member holds one token of field 0
    held = tokens[cent + corpus.offsets[:-1], np.arange(len(cent))[:, None]]
    return sizes, sizes[:, None] - held


class _State:
    """Array-level working state shared by `run_mpck` and the public ops,
    over a `ClosedConstraints` whose points must lie in the corpus.

    Constraint terms come from [must, cannot] tables over slots, the
    (component, distinct row) pairs of the constrained points: entry [s, h]
    sums what the partners of a point of slot s add in cluster h.  Its
    partners' slots are those marked in row s of the (S, S) `linked[kind]`.

    The max-pair table `ctx` is built on first read, for the assignments
    and metrics of that moment, and dropped when the weights are set; moves
    keep it.  A table passed to the constructor is used as given.
    """

    def __init__(self, corpus, k, cent_codes, weights, assignments, constraints, ctx=None):
        n, points = len(corpus), constraints.points
        outside = points[(points < 0) | (points >= n)]
        if outside.size:
            raise DataError("constraint point %d outside corpus of size %d" % (outside[0], n))
        self.corpus = corpus
        self.k = k
        self.cent = cent_codes                      # (K, F)
        self.weights = weights                      # (K, F)
        self.assignments = assignments
        self.scales = (0.5 * constraints.w, constraints.w_bar)   # of the two tables
        self._ctx = ctx
        self.constrained = points
        self.kinds = [kind for kind, pairs in enumerate(constraints.pair_counts()) if pairs]
        u = corpus.unique_codes.shape[0]
        slots, point_slots = np.unique(constraints.component * u
                                       + corpus.row_ids[self.constrained], return_inverse=True)
        comp, rows = np.divmod(slots, u)
        rows, self.slot_rows = np.unique(rows, return_inverse=True)     # R distinct rows
        codes = corpus.unique_codes[rows]
        self.fields = np.flatnonzero((codes != codes[:1]).any(axis=0))  # where they differ
        v = codes[:, self.fields]
        self.mismatch = (v[:, None, :] != v[None, :, :]).astype(float)   # (R, R, V)
        # each message's slot, -1 for an unconstrained one
        self.slot_of = np.full(len(corpus), -1, dtype=np.min_scalar_type(-max(slots.size, 1)))
        self.slot_of[self.constrained] = point_slots
        self.point_cells = point_slots * k          # flat cell ids in cluster 0
        # [must, cannot]: same component, cannot-linked components
        n_comp = constraints.component.max(initial=-1) + 1
        cannot = np.zeros((n_comp, n_comp), dtype=bool)
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
            # another order), over whole clusters whose float mismatch of
            # the distinct rows holds at most DISPERSION_BLOCK entries
            codes = self.corpus.unique_codes
            step = max(1, DISPERSION_BLOCK // codes.size)
            out = np.empty((self.k, codes.shape[0]))
            for a in range(0, self.k, step):
                block = (codes[None] != self.cent[a:a + step, None]).astype(float)
                out[a:a + step] = np.matmul(block, self.weights[a:a + step, :, None])[:, :, 0]
            self._dispersion = out.T
        return self._dispersion

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

    def point_costs(self, points, base):
        """(len(points), K) assignment costs of `points`, their partners'
        assignments fixed; `base` is base_costs(), and an unconstrained
        point's costs are its row of it."""
        costs = base[self.corpus.row_ids[points]]
        slots = self.slot_of[points]
        bound = slots >= 0
        if bound.any():
            if self.tables is None:
                self.tables = self.build_tables(self.cells())
            for kind in self.kinds:
                costs[bound] += self.scales[kind] * self.tables[kind][slots[bound]]
        return costs

    def move(self, i, h):
        """Assign point i to cluster h; the tables follow by the costs its
        old and new cell add to their target slots."""
        old, self.assignments[i] = self.assignments[i], h
        s = int(self.slot_of[i])
        if s < 0 or self.tables is None or old == h:
            return
        y = self.slot_rows[s]
        for kind in self.kinds:
            t = np.flatnonzero(self.linked[kind][s])
            for g, sign in ((old, -1.0), (h, 1.0)):
                at = (t, g) if kind else t
                self.tables[kind][at] += sign * self.partner_costs(kind, self.slot_rows[t], y, g)

    def objective(self):
        """The objective's terms, recomputed in full against the current
        max-pair table; the must and cannot tables are rebuilt on the way.
        They are the occupied (distinct row, cluster) cells' costs and each
        kind's penalty cells, as a list of floats; the objective is their
        exact sum, `math.fsum`, so its bits do not depend on their order."""
        counts = _row_counts(self.corpus, self.corpus.row_ids, self.assignments, self.k)
        # an empty cell adds nothing, even where its cost is infinite
        occupied = counts > 0
        terms = [counts[occupied] * self.base_costs()[occupied]]
        cells = s, g, n, _ = self.cells()
        self.tables = self.build_tables(cells)
        for kind in self.kinds:     # each violated pair is charged to both points
            terms.append(0.5 * self.scales[kind] * (self.tables[kind][s, g] * n))
        return np.concatenate(terms).tolist()


def _state_from_model(corpus, model, constraints, ctx):
    cent = np.stack([corpus.encode(c) for c in model.centroids])
    weights = np.stack([m.weights for m in model.metrics])
    assignments = np.asarray(model.assignments, dtype=np.int64)
    return _State(corpus, model.k, cent, weights, assignments, close_constraints(constraints), ctx)


def evaluate_objective(corpus, model, constraints, ctx=None):
    """Recompute the full objective from a model's stored state."""
    return math.fsum(_state_from_model(corpus, model, constraints, ctx).objective())


def _seed_centroids(corpus, constraints, k, rng):
    """Initial centroid codes: modes of the largest constraint neighborhoods,
    then farthest-first under the unit Hamming metric, over distinct rows."""
    hoods = neighborhoods(constraints)[:k]
    if hoods:
        members = np.concatenate(hoods).astype(np.int64)
        groups = np.repeat(np.arange(len(hoods)), [len(h) for h in hoods])
        counts = _row_counts(corpus, corpus.row_ids[members], groups, len(hoods))
        cent = list(_mode_rows(corpus, _token_counts(corpus, counts)))
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


def _update_weights(state, tokens):
    """Closed-form metric update for every cluster, including violation
    tallies; `tokens` are the (V, K) token counts of the state's assignments.

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
        if not partners.any():
            continue    # no link of this kind is violated: its tally is 0.0
        nf = state.fields.size      # (K, V) mismatching fields of those pairs, by cluster
        by_cluster = np.bincount((g[cell, None] * nf + np.arange(nf)).ravel(), (
            (n[cell] * partners)[:, None] * state.mismatch[x, y]).ravel(), k * nf).reshape(k, nf)
        if kind == 0:
            # a violated must-link adds w/2 per mismatching field to both clusters
            tallies[:, state.fields] += state.scales[0] * by_cluster
            continue
        # a violated cannot-link in cluster h adds wbar * (far - near) to h,
        # counted here from both of its points
        cl_tallies = np.bincount(g[cell], n[cell] * partners, k)[:, None] * state.ctx.far
        cl_tallies[:, state.fields] -= by_cluster
        tallies += np.maximum(0.0, 0.5 * state.scales[1] * cl_tallies)
    sizes, dispersion = _dispersion(corpus, tokens, state.cent)
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise EmptyCluster("cluster %d empty at metric update" % empty[0])
    d = np.maximum(EPS_DENOM, dispersion + tallies)
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

    # the state checks the constraint points before seeding reads them
    assignments = np.full(n, -1, dtype=np.int64)
    state = _State(corpus, k, None, np.ones((k, corpus.arity)), assignments, constraints)
    state.cent = _seed_centroids(corpus, constraints, k, rng)
    row_ids = corpus.row_ids

    # initial pass: plain nearest-centroid under the seeded centroids
    state.assignments[:] = np.argmin(state.base_costs(), axis=1)[row_ids]
    _m_step(state, config.metric_update_enabled)

    # unconstrained points interact with nothing: a vectorized argmin is
    # order-equivalent to the sequential visit
    free_rows = np.flatnonzero(state.slot_of < 0)
    free_row_ids = row_ids[free_rows]

    history = []
    max_gap = 0.0
    terms = state.objective()       # the terms that the first pass starts from
    converged_by = "max_iterations"
    iterations = 0
    for t in range(1, config.max_iterations + 1):
        iterations = t
        # nothing changes the state between the last objective and here
        old_terms = terms
        prev_assign = state.assignments.copy()
        # constrained points in a seeded random order; nothing reads the
        # generator after seeding, so without them no order is drawn
        visit = state.constrained
        if visit.size:
            perm = rng.permutation(n)
            visit = perm[state.slot_of[perm] >= 0]

        # each point's cost delta; a free point that stays adds 0
        base = state.base_costs()
        new = np.argmin(base, axis=1)[free_row_ids]
        old = state.assignments[free_rows]
        moved = new != old
        rows = free_row_ids[moved]
        deltas = (base[rows, new[moved]] - base[rows, old[moved]]).tolist()
        state.assignments[free_rows] = new
        deltas += _assign_constrained(state, base, visit)

        # a fixpoint's state is the one last scored, with a gap of 0
        if np.array_equal(prev_assign, state.assignments):
            converged_by = "fixpoint"
            break
        # the summed deltas against the change of the recomputed terms,
        # each sum exact, so that the gap does not grow with |J|
        terms = state.objective()
        change = terms + [-term for term in old_terms]
        max_gap = max(max_gap, abs(math.fsum(deltas) - math.fsum(change)))

        _m_step(state, config.metric_update_enabled)
        terms = state.objective()
        history.append(math.fsum(terms))
        if len(history) > 1 and abs(history[-1] - history[-2]) < config.tol:
            converged_by = "tolerance"
            break

    model = ClusterModel(
        k=k,
        centroids=tuple(Message(corpus.decode(c), "centroid:%d" % h)
                        for h, c in enumerate(state.cent)),
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
    metric frozen (log-det contribution is identically zero).  The empty
    constraint set is passed closed, so there is nothing to close."""
    cfg = replace(config, metric_update_enabled=False)
    return run_mpck(corpus, constraints_from_labels([]), cfg)


def _assign_constrained(state, base, visit):
    """Visit the constrained points `visit` in order, each moving to its
    cheapest cluster with its partners' assignments fixed; `base` is
    base_costs().  Returns each visit's cost delta.

    A pass costs its visits in one array, as the tables stay fixed until
    the first mover, which moves through `_State.move`; the next pass
    starts after it and covers at most twice the visits this one used.
    The first covers them all, so at most 3 x len(visit) rows are costed.
    """
    deltas = []
    start, size = 0, visit.size
    while start < visit.size:
        points = visit[start:start + size]
        costs = state.point_costs(points, base)
        best = costs.argmin(axis=1)
        old = state.assignments[points]
        movers = np.flatnonzero(best != old)
        used = int(movers[0]) + 1 if movers.size else points.size
        at = np.arange(used)
        deltas += (costs[at, best[:used]] - costs[at, old[:used]]).tolist()
        if movers.size:
            state.move(int(points[used - 1]), int(best[used - 1]))
        start += used
        size = 2 * used
    return deltas


def _m_step(state, metric_update_enabled):
    """Repair empty clusters, then update the centroids and, if enabled,
    the metrics, both from one token count of the repaired assignments:
    the modes and the dispersion around them."""
    _repair_empty_clusters(state)
    corpus = state.corpus
    tokens = _token_counts(corpus, _row_counts(corpus, corpus.row_ids, state.assignments, state.k))
    state.cent = _mode_rows(corpus, tokens)
    if metric_update_enabled:
        state.weights = _update_weights(state, tokens)


def _repair_empty_clusters(state):
    """Reseed each empty cluster with the point farthest from its own
    centroid, drawn from clusters that can spare a member, and from the
    unconstrained points among those when there are any: with frozen
    metrics such a move cannot raise the objective once the M-step has
    set the centroids, while moving a constrained point can.  Only points
    move, as the M-step sets every centroid next; a pick, alone in its
    new cluster, is never drawn again, so the costs are taken once."""
    sizes = np.bincount(state.assignments, minlength=state.k)
    empty = np.flatnonzero(sizes == 0)
    if not empty.size:
        return
    disp = state.dispersion_costs()[state.corpus.row_ids, state.assignments]
    free = state.slot_of < 0
    for h in empty:
        eligible = sizes[state.assignments] >= 2
        if not eligible.any():
            raise EmptyCluster("no cluster can spare a point for reseeding")
        if (eligible & free).any():
            eligible &= free
        pick = int(np.argmax(np.where(eligible, disp, -np.inf)))
        sizes[state.assignments[pick]] -= 1
        state.assignments[pick] = h
        sizes[h] += 1
