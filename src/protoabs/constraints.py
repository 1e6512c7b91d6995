"""Must-link / cannot-link constraint sets derived from labeled samples.

A constraint set has two forms.  `ConstraintSet` holds arbitrary pairs.
`ClosedConstraints` is a transitively closed, consistent set held as its
must-link components: the constrained points, a component for each, and
the cannot-linked component pairs.  `constraints_from_labels` builds the
closed form directly and `close_constraints` turns a pair set into it.
Both forms hand the clustering loop their pairs through `pairs()`.
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


@dataclass(frozen=True)
class ConstraintSet:
    must_links: frozenset = frozenset()
    cannot_links: frozenset = frozenset()
    w: float = 1.0
    w_bar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "must_links", frozenset(_pair(*p) for p in self.must_links))
        object.__setattr__(self, "cannot_links", frozenset(_pair(*p) for p in self.cannot_links))
        if self.must_links & self.cannot_links:
            raise InconsistentConstraints(
                "pairs required in both must-link and cannot-link: %r"
                % sorted(self.must_links & self.cannot_links)[:5]
            )

    def is_empty(self):
        return not self.must_links and not self.cannot_links

    def pairs(self):
        """(must, cannot) as lexicographically sorted (P, 2) int64 arrays."""
        return _pair_array(self.must_links), _pair_array(self.cannot_links)

    def partners(self, n):
        """(must, cannot) partner lists over n points; see _adjacency."""
        must, cannot = self.pairs()
        return _adjacency(must, n), _adjacency(cannot, n)


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
    cannot-linked with every point of the other.
    """

    points: np.ndarray
    component: np.ndarray
    cannot_components: np.ndarray
    w: float = 1.0
    w_bar: float = 1.0

    def is_empty(self):
        return self.points.size == 0

    def pair_counts(self):
        """(number of must-links, number of cannot-links)."""
        sizes = np.bincount(self.component)
        ca, cb = self.cannot_components.T
        return int((sizes * (sizes - 1) // 2).sum()), int((sizes[ca] * sizes[cb]).sum())

    def pairs(self):
        """(must, cannot) as lexicographically sorted (P, 2) int64 arrays,
        computed once."""
        return self._pairs

    def partners(self, n):
        """(must, cannot) partner lists over n points, computed once per n;
        see _adjacency."""
        if n not in self._partners:
            must, cannot = self.pairs()
            self._partners[n] = _adjacency(must, n), _adjacency(cannot, n)
        return self._partners[n]

    @cached_property
    def _partners(self):
        return {}

    @cached_property
    def _pairs(self):
        order = np.argsort(self.component, kind="stable")
        members = self.points[order]        # by component, ascending within
        sizes = np.bincount(self.component)
        starts = np.cumsum(sizes) - sizes
        # each member with the later members of its component
        later = np.repeat(starts + sizes, sizes) - np.arange(members.size) - 1
        first = np.repeat(np.arange(members.size), later)
        must = _sorted_pairs(members[first], members[first + 1 + _ragged_arange(later)])
        # one block of members(a) x members(b) per cannot-linked pair (a, b)
        ca, cb = self.cannot_components.T
        block = sizes[ca] * sizes[cb]
        local = _ragged_arange(block)
        width = np.repeat(sizes[cb], block)
        x = members[np.repeat(starts[ca], block) + local // width]
        y = members[np.repeat(starts[cb], block) + local % width]
        return must, _sorted_pairs(x, y)

    @cached_property
    def must_links(self):
        return frozenset(map(tuple, self.pairs()[0].tolist()))

    @cached_property
    def cannot_links(self):
        return frozenset(map(tuple, self.pairs()[1].tolist()))


def _adjacency(pairs, n):
    """Read-only partner lists of the (P, 2) `pairs` over n points: point
    i's partners, ascending, are nbr[ptr[i]:ptr[i + 1]]."""
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    nbr = np.concatenate([pairs[:, 1], pairs[:, 0]])
    nbr = np.sort(src * n + nbr) % n          # by (src, nbr), one sort
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=ptr[1:])
    for a in (ptr, nbr):
        a.setflags(write=False)
    return ptr, nbr


def _ragged_arange(counts):
    """arange(c) for each c in `counts`, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - counts, counts)


def _sorted_pairs(a, b):
    """Read-only (P, 2) array of the pairs (min, max) of `a` and `b`, in
    lexicographic order."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # one sort of lo * m + hi orders by (lo, hi), and is much faster than a lexsort
    m = int(hi.max()) + 1 if hi.size else 1
    lo, hi = np.divmod(np.sort(lo * m + hi), m)
    pairs = np.column_stack([lo, hi])
    pairs.setflags(write=False)
    return pairs


def constraints_from_labels(samples, w=1.0, w_bar=1.0):
    """All same-class pairs become must-links, all cross-class pairs
    cannot-links: each class is one component, and every two classes are
    cannot-linked."""
    if w < 0 or w_bar < 0:
        raise ValueError("penalty weights must be non-negative")
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
    must, cannot = cs.pairs()
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


@dataclass(frozen=True)
class Neighborhood:
    member_indices: tuple

    def __len__(self):
        return len(self.member_indices)


def neighborhoods(cs):
    """Must-link components over the constrained points: connected
    components of the must-link graph, plus singletons for points that only
    appear in cannot-links.

    Sorted by descending size, then by smallest member index.
    """
    if isinstance(cs, ClosedConstraints):
        points, component = cs.points, cs.component
    else:
        points, component = _components(*cs.pairs())
    members = points[np.argsort(component, kind="stable")].tolist()
    sizes = np.bincount(component)
    bounds = [0] + np.cumsum(sizes).tolist()
    # components are numbered by smallest member, so a stable sort on size
    # breaks ties by smallest member
    return [
        Neighborhood(tuple(members[bounds[c]:bounds[c + 1]]))
        for c in np.argsort(-sizes, kind="stable").tolist()
    ]


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
