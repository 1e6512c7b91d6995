"""Reference implementations that the tests compare the package against.

Each is the plain per-message (or per-pair) version of a quantity the
package computes with arrays, over distinct code rows where it can; they
are slow and kept only as oracles.
"""

import json
from types import SimpleNamespace

import numpy as np

from protoabs.constraints import ConstraintSet
from protoabs.errors import (
    ArityMismatch,
    EmptyCluster,
    InconsistentConstraints,
    UnmatchedMessage,
)
from protoabs.metric import EPS_DENOM, EPS_WEIGHT, DiagonalMetric, MaxPair
from protoabs.model import ABSENT, UNLABELED, Corpus, IdRule, LabelVector, Message, pad_rows


def encode_messages(messages, arity):
    """Per-message corpus encoding: (vocabulary, codes).

    Vocabularies list the symbols met at each position over the messages,
    sorted; codes are filled by one dictionary lookup per message and field.
    """
    vocabulary = [tuple(sorted({m.fields[f] for m in messages})) for f in range(arity)]
    index = [{tok: c for c, tok in enumerate(vocab)} for vocab in vocabulary]
    codes = np.empty((len(messages), arity), dtype=np.int32)
    for i, m in enumerate(messages):
        for f, tok in enumerate(m.fields):
            codes[i, f] = index[f][tok]
    return tuple(vocabulary), codes


def per_message_corpus(messages, arity):
    """Per-message corpus construction: the parts a corpus of `messages`
    holds, as a namespace.

    Hashes every message's field tuple; rows are numbered in
    first-occurrence order over the messages, and vocabularies list
    symbols in sorted order.
    """
    row_of = {}
    row_ids = np.fromiter(
        (row_of.setdefault(m.fields, len(row_of)) for m in messages),
        dtype=np.int64, count=len(messages),
    )
    vocabulary, codes = encode_messages(messages, arity)
    first = [int(np.flatnonzero(row_ids == r)[0]) for r in range(len(row_of))]
    return SimpleNamespace(
        rows=tuple(row_of),
        row_ids=row_ids,
        vocabulary=vocabulary,
        unique_codes=codes[first],
        codes=codes,
        source_ids=tuple(m.source_id for m in messages),
    )


def renumber_rows(rows, row_ids):
    """Dict-based row renumbering: (rows, row_ids) with duplicate rows
    merged, unused rows dropped and the rest numbered in the order in which
    the messages first use them, one dictionary lookup per message."""
    key_of = {}
    merged = [key_of.setdefault(tuple(row), len(key_of)) for row in rows]
    number = {}
    new_ids = np.fromiter(
        (number.setdefault(merged[i], len(number)) for i in row_ids),
        dtype=np.int64, count=len(row_ids),
    )
    keys = list(key_of)
    return tuple(keys[m] for m in number), new_ids


def corpus_format2(corpus):
    """The format-2 dict of `corpus`, the form `Corpus.to_dict` wrote before
    format 3: row ids as a list of integers and every source id as a string."""
    return {
        "format": 2,
        "arity": corpus.arity,
        "rows": [list(row) for row in corpus.rows],
        "row_ids": corpus.row_ids.tolist(),
        "source_ids": list(corpus.source_ids),
    }


def labels_format1(labels):
    """The format-1 dict of the LabelVector `labels`, the form
    `LabelVector.to_dict` wrote before format 2: every label, UNLABELED
    included, as a JSON integer."""
    return {"n_classes": labels.n_classes, "labels": labels.labels.tolist()}


def json_indented(obj):
    """The stdlib's indented, key-sorted JSON."""
    return json.dumps(obj, indent=2, sort_keys=True)


def check_labels(labels, n_classes):
    """The range check of a label sequence as `LabelVector` made it while
    it held a tuple: each label is UNLABELED or in 0..n_classes-1, compared
    as the Python or numpy value it is; ValueError names the first bad one."""
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1, got %d" % n_classes)

    def bad(l):
        return l != UNLABELED and not (0 <= l < n_classes)

    # distinct values first; the labels are scanned only to name the first bad one
    if any(map(bad, set(labels))):
        l = next(filter(bad, labels))
        raise ValueError("label %r out of range 0..%d" % (l, n_classes - 1))


def apply_rules(corpus, rules):
    """Per-message rule labeling: each message gets its highest-priority
    matching rule (ties to the smallest class id); the first message that
    matches none raises UnmatchedMessage."""
    ordered = sorted(rules, key=lambda r: (-r.priority, r.rule_id))
    labels = []
    for i, msg in enumerate(corpus.messages):
        for rule in ordered:
            if rule.matches(msg.fields):
                labels.append(rule.rule_id)
                break
        else:
            raise UnmatchedMessage(
                "message %d (%s) matched no rule: %r"
                % (i, msg.source_id, [t for t in msg.fields if t != ABSENT])
            )
    return LabelVector(labels=tuple(labels), n_classes=len({r.rule_id for r in rules}))


def generate_synthetic(spec):
    """Scalar synthetic generator: one `rng.random()` per noise field of
    each message, and one `rng.integers(len(alts))` per noisy field."""
    rng = np.random.default_rng(spec.seed)
    j = len(spec.class_templates)
    if spec.class_weights is None:
        probs = np.full(j, 1.0 / j)
    else:
        probs = np.asarray(spec.class_weights, dtype=np.float64)
        probs = probs / probs.sum()
    drawn = rng.choice(j, size=spec.n_messages, p=probs)
    classes = drawn.tolist()
    # distinct rows: a class id keys its template's noise-free row, and only
    # a noisy message builds a token list, keyed by its tokens
    row_of = {}
    row_ids = []
    for c in classes:
        template = spec.class_templates[c]
        tokens = None
        for pos, alts in template.noise_fields:
            if rng.random() < spec.noise_rate:
                if tokens is None:
                    tokens = list(template.tokens)
                tokens[pos] = alts[int(rng.integers(len(alts)))]
        key = c if tokens is None else tuple(tokens)
        row_ids.append(row_of.setdefault(key, len(row_of)))
    raw = [spec.class_templates[key].tokens if type(key) is int else key for key in row_of]
    # message i of class c is named "synth:<name of c>:<i>"
    ids = IdRule(["synth:%s:" % t.name for t in spec.class_templates], drawn,
                 np.arange(spec.n_messages))
    corpus = Corpus(pad_rows(raw, spec.arity), row_ids, spec.arity, ids)
    labels = LabelVector(labels=tuple(classes), n_classes=j)
    return corpus, labels


def max_separated_pair(indices, corpus, m):
    """Brute-force argmax of the weighted mismatch over all member pairs.

    Builds the full (m, m) table; among ties the smallest (first, second)
    pair wins, and a singleton domain yields (i, i, 0.0).
    """
    idx = np.asarray(sorted(indices), dtype=np.int64)
    if idx.size == 0:
        raise EmptyCluster("max_separated_pair needs at least one index")
    if idx.size == 1:
        i = int(idx[0])
        return MaxPair(i, i, 0.0)
    x = corpus.codes[idx]
    w = np.asarray(m.weights, dtype=np.float64)
    d = np.zeros((idx.size, idx.size))
    for f in range(x.shape[1]):
        d += w[f] * (x[:, None, f] != x[None, :, f])
    iu = np.triu_indices(idx.size, k=1)
    flat = d[iu]
    best = int(np.argmax(flat))
    i, j = int(iu[0][best]), int(iu[1][best])
    return MaxPair(int(idx[i]), int(idx[j]), float(flat[best]))


def mismatch_costs(w, x, y):
    """Field-by-field weighted mismatch of field-first operands that
    broadcast: each total adds w[f] * [x[f] != y[f]] for f = 0, 1, ... in
    turn, one Python float at a time."""
    w, x, y = np.broadcast_arrays(w, x, y)
    out = np.empty(w.shape[1:])
    for at in np.ndindex(out.shape):
        total = 0.0
        for wf, xf, yf in zip(w[(slice(None),) + at].tolist(), x[(slice(None),) + at].tolist(),
                              y[(slice(None),) + at].tolist()):
            total += wf * (xf != yf)
        out[at] = total
    return out


def dispersion_costs(corpus, cent, weights):
    """(u, K) weighted mismatch of each distinct row against each of the K
    centroid code rows `cent` under the (K, F) `weights`, over every field."""
    return mismatch_costs(weights.T[:, None], corpus.unique_codes.T[:, :, None], cent.T[:, None])


def unit_metric(arity):
    return DiagonalMetric(np.ones(arity))


def distance_sq(a, b, m):
    """Weighted squared-Hamming distance between two messages."""
    if a.arity != b.arity or a.arity != m.arity:
        raise ArityMismatch(
            "arities differ: %d, %d, metric %d" % (a.arity, b.arity, m.arity)
        )
    mism = np.fromiter(
        (x != y for x, y in zip(a.fields, b.fields)), dtype=bool, count=a.arity
    )
    return float(m.weights[mism].sum())


def log_det(m):
    """Log-determinant of the diagonal metric: sum of log-weights."""
    if np.any(m.weights < EPS_WEIGHT):
        raise ValueError("weights below the floor %g have no finite log" % EPS_WEIGHT)
    return float(np.log(m.weights).sum())


def f_must(x_i, x_j, m_i, m_j):
    """Penalty for a violated must-link: mean of the squared distances
    under the two clusters' metrics."""
    return 0.5 * distance_sq(x_i, x_j, m_i) + 0.5 * distance_sq(x_i, x_j, m_j)


def f_cannot(x_i, x_j, m, max_sq):
    """Penalty for a violated cannot-link inside a cluster with metric `m`
    whose maximally separated pair lies `max_sq` apart: how far the pair
    falls short of it."""
    return max(0.0, max_sq - distance_sq(x_i, x_j, m))


def point_costs(i, corpus, model, constraints, max_sq):
    """Per-cluster cost of moving point i, everything else held fixed."""
    x = corpus.messages[i]
    costs = []
    for h in range(model.k):
        m = model.metrics[h]
        c = distance_sq(x, model.centroids[h], m) - log_det(m)
        for a, b in sorted(constraints.must_links):
            if i in (a, b):
                j = b if a == i else a
                lj = model.assignments[j]
                if lj != h:
                    c += constraints.w * f_must(x, corpus.messages[j], m, model.metrics[lj])
        for a, b in sorted(constraints.cannot_links):
            if i in (a, b):
                j = b if a == i else a
                if model.assignments[j] == h:
                    c += constraints.w_bar * f_cannot(x, corpus.messages[j], m, max_sq[h])
        costs.append(c)
    return costs


def assign_point(i, corpus, model, constraints, max_sq):
    """Cost-minimizing cluster for point i; ties break toward the smallest id."""
    return int(np.argmin(point_costs(i, corpus, model, constraints, max_sq)))


def assign_constrained(state, base, visit):
    """The per-point greedy visit of constrained points that
    `clustering._assign_constrained` does in array passes: each point in
    `visit` reads its costs from the base row and its slot's rows of the
    state's must and cannot tables, moves to the first cheapest cluster
    through `_State.move`, and adds its cost delta."""
    deltas = []
    for i in visit:
        costs = base[state.corpus.row_ids[i]].copy()
        if state.tables is None:
            state.tables = state.build_tables(state.cells())
        for kind in state.kinds:
            costs += state.scales[kind] * state.tables[kind][state.slot_of[i]]
        h = int(np.argmin(costs))
        deltas.append(costs[h] - costs[state.assignments[i]])
        state.move(i, h)
    return deltas


def max_pair_distances(corpus, assignments, metrics):
    """Per-cluster squared distance of the brute-force max-separated pair
    (0.0 for an empty cluster)."""
    out = []
    for h, m in enumerate(metrics):
        members = np.flatnonzero(np.asarray(assignments) == h)
        out.append(max_separated_pair(members, corpus, m).sq_distance if members.size else 0.0)
    return out


def max_pair_fields(corpus, assignments, metrics):
    """(K, F) fields on which the two messages of each cluster's brute-force
    max-separated pair differ (none for an empty cluster)."""
    far = np.zeros((len(metrics), corpus.arity), dtype=bool)
    for h, m in enumerate(metrics):
        members = np.flatnonzero(np.asarray(assignments) == h)
        if members.size:
            pair = max_separated_pair(members, corpus, m)
            far[h] = corpus.codes[pair.first] != corpus.codes[pair.second]
    return far


def objective(corpus, model, constraints):
    """The MPCK-means objective summed term by term over messages and pairs."""
    max_sq = max_pair_distances(corpus, model.assignments, model.metrics)
    total = 0.0
    for i, h in enumerate(model.assignments):
        m = model.metrics[h]
        total += distance_sq(corpus.messages[i], model.centroids[h], m) - log_det(m)
    for a, b in sorted(constraints.must_links):
        la, lb = model.assignments[a], model.assignments[b]
        if la != lb:
            total += constraints.w * f_must(
                corpus.messages[a], corpus.messages[b], model.metrics[la], model.metrics[lb]
            )
    for a, b in sorted(constraints.cannot_links):
        h = model.assignments[a]
        if h == model.assignments[b]:
            total += constraints.w_bar * f_cannot(
                corpus.messages[a], corpus.messages[b], model.metrics[h], max_sq[h]
            )
    return total


def violation_tallies(corpus, assignments, constraints, far):
    """(K, F) weighted violation tallies of the metric update, one pair at
    a time in sorted pair order.

    A violated must-link adds w/2 per mismatching field to both clusters;
    a violated cannot-link inside cluster h adds w_bar * (far - near), where
    far is row h of the (K, F) fields on which each cluster's max pair
    differs; each cluster's cannot-link sum is floored at 0 before it is
    added.
    """
    k, arity = len(far), corpus.arity
    codes = corpus.codes
    tallies = np.zeros((k, arity))
    cl_tallies = np.zeros((k, arity))
    for a, b in sorted(constraints.must_links):
        la, lb = assignments[a], assignments[b]
        if la != lb:
            mism = (codes[a] != codes[b]).astype(np.float64)
            tallies[la] += 0.5 * constraints.w * mism
            tallies[lb] += 0.5 * constraints.w * mism
    for a, b in sorted(constraints.cannot_links):
        la, lb = assignments[a], assignments[b]
        if la == lb:
            near = (codes[a] != codes[b]).astype(np.float64)
            cl_tallies[la] += constraints.w_bar * (far[la].astype(np.float64) - near)
    return tallies + np.maximum(0.0, cl_tallies)


def update_metric(
    corpus,
    member_indices,
    centroid,
    violations=None,
    eps_w=EPS_WEIGHT,
    eps_d=EPS_DENOM,
):
    """Closed-form diagonal weight update for one cluster.

    a_f = n / max(eps_d, D_f) where D_f is the per-field mismatch tally:
    the dispersion of members around the centroid plus the caller-supplied
    constraint-violation tallies (already weighted).
    Weights are clamped to [eps_w, 1/eps_w].
    """
    idx = np.asarray(sorted(member_indices), dtype=np.int64)
    if idx.size == 0:
        raise EmptyCluster("cannot update the metric of an empty cluster")
    cent = corpus.encode(centroid)
    disp = (corpus.codes[idx] != cent[None, :]).sum(axis=0).astype(np.float64)
    if violations is not None:
        disp = disp + np.asarray(violations, dtype=np.float64)
    weights = idx.size / np.maximum(eps_d, disp)
    weights = np.clip(weights, eps_w, 1.0 / eps_w)
    return DiagonalMetric(weights)


def mode_row(corpus, members):
    """Per-field mode of the members' codes, one bincount per field; the
    lexicographically smallest token wins ties."""
    row = np.empty(corpus.arity, dtype=np.int32)
    codes = corpus.codes[members]
    for f in range(corpus.arity):
        cnt = np.bincount(codes[:, f], minlength=len(corpus.vocabulary[f]))
        cands = np.flatnonzero(cnt == cnt.max())
        row[f] = min(cands, key=corpus.vocabulary[f].__getitem__)
    return row


def mode_rows(corpus, assignments, k):
    """(K, F) per-field modes of each cluster, scanning all messages once
    per cluster."""
    assignments = np.asarray(assignments)
    cent_codes = np.empty((k, corpus.arity), dtype=np.int32)
    for h in range(k):
        members = np.flatnonzero(assignments == h)
        if members.size == 0:
            raise EmptyCluster("cluster %d has no members" % h)
        cent_codes[h] = mode_row(corpus, members)
    return cent_codes


def centroids(corpus, assignments, k):
    """The K centroid messages of `mode_rows`."""
    return tuple(
        Message(tuple(corpus.vocabulary[f][c] for f, c in enumerate(row)), "centroid:%d" % h)
        for h, row in enumerate(mode_rows(corpus, assignments, k))
    )


def dispersion(corpus, assignments, cent):
    """(K, F) per-field mismatch counts of each cluster's members against
    its centroid row."""
    assignments, codes = np.asarray(assignments), corpus.codes
    return np.stack([
        (codes[assignments == h] != cent[h][None, :]).sum(axis=0)
        for h in range(len(cent))
    ])


def seed_centroids(corpus, constraints, k, rng):
    """Modes of the largest constraint neighborhoods, then farthest-first
    under the unit Hamming metric over every message; ties go to the
    smallest message index."""
    cent = []
    for hood in neighborhoods(constraints)[:k]:
        cent.append(mode_row(corpus, np.asarray(hood)))
    n, codes = len(corpus), corpus.codes
    if len(cent) < k:
        mindist = np.full(n, np.inf)
        for row in cent:
            mindist = np.minimum(mindist, (codes != row[None, :]).sum(axis=1))
        if not cent:
            first = int(rng.integers(n))
            cent.append(codes[first].copy())
            mindist = np.minimum(mindist, (codes != cent[-1][None, :]).sum(axis=1))
        while len(cent) < k:
            pick = int(np.argmax(mindist))
            cent.append(codes[pick].copy())
            mindist = np.minimum(mindist, (codes != cent[-1][None, :]).sum(axis=1))
    return np.stack(cent)


def repair_empty_clusters(corpus, assignments, cent, weights, constrained=()):
    """Reseed each empty cluster with the point farthest from its own
    centroid among clusters of two or more, and among the points not in
    `constrained` of those when there are any; one member scan per cluster.

    Returns new (assignments, cent) arrays.
    """
    assignments, cent = np.array(assignments), np.array(cent)
    k, codes = len(cent), corpus.codes
    sizes = np.bincount(assignments, minlength=k)
    for h in range(k):
        if sizes[h] > 0:
            continue
        disp = np.empty(len(corpus))
        for g in range(k):
            members = np.flatnonzero(assignments == g)
            if members.size == 0:
                continue
            mism = codes[members] != cent[g][None, :]
            disp[members] = mism @ weights[g]
        eligible = sizes[assignments] >= 2
        if not eligible.any():
            raise EmptyCluster("no cluster can spare a point for reseeding")
        free = eligible.copy()
        free[list(constrained)] = False
        if free.any():
            eligible = free
        disp[~eligible] = -np.inf
        pick = int(np.argmax(disp))
        sizes[assignments[pick]] -= 1
        assignments[pick] = h
        sizes[h] += 1
        cent[h] = codes[pick].copy()
    return assignments, cent


def _pair(a, b):
    return (a, b) if a < b else (b, a)


def label_constraints(samples, w=1.0, w_bar=1.0):
    """Pair-set constraints of labeled samples: every same-class pair of
    distinct indices a must-link, every cross-class pair a cannot-link."""
    by_index = {s.index: s.class_id for s in samples}
    items = sorted(by_index.items())
    must, cannot = set(), set()
    for i, (ia, ca) in enumerate(items):
        for ib, cb in items[i + 1:]:
            (must if ca == cb else cannot).add(_pair(ia, ib))
    return ConstraintSet(frozenset(must), frozenset(cannot), w=w, w_bar=w_bar)


def _components(cs):
    """Must-link components over the constrained points, from a
    dictionary union-find over the pairs.

    Returns ({point: root}, {root: members}); a component's root is its
    smallest member.
    """
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in cs.must_links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    points = {p for pair in cs.must_links | cs.cannot_links for p in pair}
    root = {p: find(p) for p in points}
    comp = {}
    for p, r in root.items():
        comp.setdefault(r, []).append(p)
    return root, comp


def close_constraints(cs):
    """Smallest superset of the pair set that is transitively closed and
    cannot-link consistent, as a pair set: all pairs of each must-link
    component, and comp(a) x comp(b) for each cannot-link (a, b)."""
    root, comp = _components(cs)
    must = set()
    for members in comp.values():
        members.sort()
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                must.add((a, b))
    comp_pairs = set()
    for a, b in cs.cannot_links:
        if root[a] == root[b]:
            raise InconsistentConstraints(
                "closure forces (%d, %d) into both constraint sets" % (a, b)
            )
        comp_pairs.add(_pair(root[a], root[b]))
    cannot = set()
    for ra, rb in comp_pairs:
        for x in comp[ra]:
            for y in comp[rb]:
                cannot.add(_pair(x, y))
    return ConstraintSet(frozenset(must), frozenset(cannot), w=cs.w, w_bar=cs.w_bar)


def neighborhoods(cs):
    """Member tuples of the must-link components, largest first, ties to
    the smallest member."""
    _, comp = _components(cs)
    hoods = [tuple(sorted(members)) for members in comp.values()]
    hoods.sort(key=lambda h: (-len(h), h[0]))
    return hoods
