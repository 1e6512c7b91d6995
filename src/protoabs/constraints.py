"""Must-link / cannot-link constraint sets derived from labeled samples.

A constraint set has two forms.  `ConstraintSet` holds arbitrary pairs.
`ClosedConstraints` is a transitively closed, consistent set held as its
must-link components: the constrained points, a component for each, and
the cannot-linked component pairs.  `constraints_from_labels` builds the
closed form directly and `close_constraints` turns a pair set into it.
Neighbourhoods and the clustering loop read the closure's components,
never its pairs; `must_links` and `cannot_links` expand them when asked.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConflictingLabels, InconsistentConstraints, ParseError


class LabeledSample(NamedTuple):
    index: int
    class_id: int


def _pair(a, b):
    return (a, b) if a < b else (b, a)


MAX_PENALTY_WEIGHT = 1e100


def _check_weights(constraints):
    """Both penalty weights of `constraints` must lie in [0, MAX_PENALTY_WEIGHT].

    Below the ceiling nothing overflows.  A metric weight lies in [1e-6,
    1e6], so a squared distance over F fields is at most 1e6 F and |log
    det| at most 14 F.  A row's cost term is at most N such costs, and a
    penalty cell at most N points times w times N partners' costs of 2e6 F
    each.  So every cost, term and delta, and every partial sum of their
    `math.fsum`, is at most 1e7 (w + 1) N^2 F; N and F index arrays, so
    N^2 F < 2^189 < 1e57, and all stay under 1e164 against the float
    maximum 1.8e308.
    """
    for name in ("w", "w_bar"):
        value = getattr(constraints, name)
        if not 0 <= value <= MAX_PENALTY_WEIGHT:
            raise ValueError("penalty weight %s must be finite, >= 0 and <= %g, got %r"
                             % (name, MAX_PENALTY_WEIGHT, value))


@dataclass(frozen=True)
class ConstraintSet:
    must_links: frozenset = frozenset()
    cannot_links: frozenset = frozenset()
    w: float = 1.0
    w_bar: float = 1.0

    def __post_init__(self):
        _check_weights(self)
        object.__setattr__(self, "must_links", frozenset(_pair(*p) for p in self.must_links))
        object.__setattr__(self, "cannot_links", frozenset(_pair(*p) for p in self.cannot_links))
        if self.must_links & self.cannot_links:
            raise InconsistentConstraints(
                "pairs required in both must-link and cannot-link: %r"
                % sorted(self.must_links & self.cannot_links)[:5]
            )


def _pair_array(pairs):
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


@dataclass(frozen=True, eq=False)
class ClosedConstraints:
    """A transitively closed, cannot-link consistent constraint set.

    `points` are the constrained points, ascending; `component[i]` is the
    must-link component of `points[i]`, components numbered in the order of
    their smallest members; `cannot_components` are the cannot-linked
    component pairs (a < b), ascending.  Every two points of a component
    are must-linked, and every point of a cannot-linked component is
    cannot-linked with every point of the other.  A set that breaks these
    invariants raises `InconsistentConstraints`, one line per broken rule.
    """

    points: np.ndarray
    component: np.ndarray
    cannot_components: np.ndarray
    w: float = 1.0
    w_bar: float = 1.0

    def __post_init__(self):
        _check_weights(self)
        for name, width, shape in (("points", (), "(n,)"), ("component", (), "(n,)"),
                                   ("cannot_components", (2,), "(n, 2)")):
            value = np.asarray(getattr(self, name))
            if value.size == 0:             # an empty list holds floats
                value = np.zeros((0, *width), dtype=np.int64)
            if value.dtype.kind not in "iu" or value.shape[1:] != width or value.ndim == 0:
                raise InconsistentConstraints("%s must be an integer array of shape %s, got %s %s"
                                              % (name, shape, value.dtype, value.shape))
            object.__setattr__(self, name, value.astype(np.int64, copy=False))
        _check_closed(self.points, self.component, self.cannot_components)

    def pair_counts(self):
        """(number of must-links, number of cannot-links)."""
        sizes = np.bincount(self.component)
        ca, cb = self.cannot_components.T
        return int((sizes * (sizes - 1) // 2).sum()), int((sizes[ca] * sizes[cb]).sum())

    @cached_property
    def must_links(self):
        """The must-link pairs, built on first use."""
        return frozenset((a, b) for m in _members(self.points, self.component)
                         for i, a in enumerate(m) for b in m[i + 1:])

    @cached_property
    def cannot_links(self):
        """The cannot-link pairs, built on first use."""
        m = _members(self.points, self.component)
        return frozenset(_pair(a, b) for ca, cb in self.cannot_components.tolist()
                         for a in m[ca] for b in m[cb])


def _check_closed(points, component, cannot):
    """The invariants of `ClosedConstraints` on its three arrays."""
    late = np.flatnonzero(np.diff(points) <= 0)
    if late.size:
        raise InconsistentConstraints("constraint points must be strictly ascending, got %d "
                                      "after %d" % (points[late[0] + 1], points[late[0]]))
    if component.size != points.size:
        raise InconsistentConstraints("need one component per constraint point, got %d for "
                                      "%d points" % (component.size, points.size))
    # numbered by smallest member: if the points before one use components
    # 0..m, its own lies in [0, m + 1]
    top = np.maximum.accumulate(component)
    allowed = np.append(0, top[:-1] + 1)[:top.size]
    wrong = np.flatnonzero((component < 0) | (component > allowed))
    if wrong.size:
        i = wrong[0]
        raise InconsistentConstraints("components must be numbered in the order of their "
                                      "smallest members: point %d has %d, outside [0, %d]"
                                      % (points[i], component[i], allowed[i]))
    n_comp = int(top.max(initial=-1)) + 1
    a, b = cannot.T
    bad = (a < 0) | (a >= b) | (b >= n_comp)
    bad[1:] |= a[1:] * n_comp + b[1:] <= a[:-1] * n_comp + b[:-1]
    if bad.any():
        raise InconsistentConstraints("cannot-linked components must be ascending pairs "
                                      "a < b in [0, %d), got (%d, %d)"
                                      % ((n_comp,) + tuple(cannot[np.argmax(bad)])))


def _members(points, component):
    """Each component's points, ascending, as lists."""
    members = points[np.argsort(component, kind="stable")].tolist()
    bounds = [0] + np.cumsum(np.bincount(component)).tolist()
    return [members[a:b] for a, b in zip(bounds, bounds[1:])]


def constraints_from_labels(samples, w=1.0, w_bar=1.0):
    """All same-class pairs become must-links, all cross-class pairs
    cannot-links: each class is one component, and every two classes are
    cannot-linked."""
    by_index = {}
    for s in samples:
        if s.index in by_index and by_index[s.index] != s.class_id:
            raise ConflictingLabels(
                "index %d labeled both %d and %d" % (s.index, by_index[s.index], s.class_id)
            )
        by_index[s.index] = s.class_id
    if len(by_index) == 1:
        by_index = {}                       # a lone labeled point is in no pair
    points = np.array(sorted(by_index), dtype=np.int64)
    classes = np.array([by_index[i] for i in points.tolist()], dtype=np.int64)
    _, first, inverse = np.unique(classes, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))    # classes in order of smallest member
    cannot = np.column_stack(np.triu_indices(first.size, 1))
    return ClosedConstraints(points, rank[inverse], cannot, w=w, w_bar=w_bar)


def _components(must, cannot):
    """Constrained points of the (P, 2) pair arrays, ascending, and their
    must-link components, numbered in the order of their smallest members.

    Array union-find: every round hooks the larger root of each must-link
    onto the smallest root it meets, then points every point at its root.
    """
    points = np.unique(np.concatenate([must.ravel(), cannot.ravel()]))
    a, b = np.searchsorted(points, must).T
    root = np.arange(points.size)
    while True:
        ra, rb = root[a], root[b]
        hook = ra != rb
        if not hook.any():
            break
        np.minimum.at(root, np.maximum(ra, rb)[hook], np.minimum(ra, rb)[hook])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    # a component's root is its smallest point
    return points, np.unique(root, return_inverse=True)[1]


def close_constraints(cs):
    """Smallest superset that is transitively closed and cannot-link
    consistent, as components; a closed set is returned unchanged."""
    if isinstance(cs, ClosedConstraints):
        return cs
    must, cannot = _pair_array(cs.must_links), _pair_array(cs.cannot_links)
    # a point linked only to itself is in no pair of the closure
    points, component = _components(must[must[:, 0] != must[:, 1]], cannot)
    linked = component[np.searchsorted(points, cannot)]
    clash = np.flatnonzero(linked[:, 0] == linked[:, 1])
    if clash.size:
        raise InconsistentConstraints(
            "closure forces (%d, %d) into both constraint sets" % tuple(cannot[clash[0]])
        )
    linked = np.unique(np.sort(linked, axis=1), axis=0)
    return ClosedConstraints(points, component, linked, w=cs.w, w_bar=cs.w_bar)


def neighborhoods(cs):
    """Member tuples of the must-link components of the closure of `cs`,
    a point in cannot-links alone as a singleton; a set that closing
    rejects raises `InconsistentConstraints`.

    Sorted by descending size, then by smallest member index.
    """
    closed = close_constraints(cs)
    members = _members(closed.points, closed.component)
    # components are numbered by smallest member, so a stable sort on size
    # breaks ties by smallest member
    order = np.argsort(-np.bincount(closed.component), kind="stable").tolist()
    return [tuple(members[c]) for c in order]


def load_labeled_samples(path):
    """Read `<message_index> <class_id>` lines; '#' starts a comment."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected '<index> <class_id>', got %r" % line, line_no)
            try:
                samples.append(LabeledSample(int(parts[0]), int(parts[1])))
            except ValueError:
                raise ParseError("non-integer field in %r" % line, line_no)
    return samples
