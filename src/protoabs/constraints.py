"""Must-link / cannot-link constraint sets derived from labeled samples."""

from dataclasses import dataclass
from typing import NamedTuple

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

    @property
    def constrained_points(self):
        pts = set()
        for a, b in self.must_links:
            pts.add(a)
            pts.add(b)
        for a, b in self.cannot_links:
            pts.add(a)
            pts.add(b)
        return pts

    def is_empty(self):
        return not self.must_links and not self.cannot_links


def constraints_from_labels(samples, w=1.0, w_bar=1.0):
    """All same-class pairs become must-links, all cross-class pairs cannot-links."""
    if w < 0 or w_bar < 0:
        raise ValueError("penalty weights must be non-negative")
    by_index = {}
    for s in samples:
        if s.index in by_index and by_index[s.index] != s.class_id:
            raise ConflictingLabels(
                "index %d labeled both %d and %d" % (s.index, by_index[s.index], s.class_id)
            )
        by_index[s.index] = s.class_id
    items = sorted(by_index.items())
    must, cannot = set(), set()
    for i, (ia, ca) in enumerate(items):
        for ib, cb in items[i + 1:]:
            (must if ca == cb else cannot).add(_pair(ia, ib))
    return ConstraintSet(frozenset(must), frozenset(cannot), w=w, w_bar=w_bar)


def _components(cs):
    """Must-link components over the constrained points.

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
    root = {p: find(p) for p in cs.constrained_points}
    comp = {}
    for p, r in root.items():
        comp.setdefault(r, []).append(p)
    return root, comp


def close_constraints(cs):
    """Smallest superset that is transitively closed and cannot-link consistent."""
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
    # expand comp(a) x comp(b) once per component pair
    cannot = set()
    for ra, rb in comp_pairs:
        for x in comp[ra]:
            for y in comp[rb]:
                cannot.add(_pair(x, y))
    return ConstraintSet(frozenset(must), frozenset(cannot), w=cs.w, w_bar=cs.w_bar)


@dataclass(frozen=True)
class Neighborhood:
    member_indices: tuple

    def __len__(self):
        return len(self.member_indices)


def neighborhoods(cs):
    """Connected components of the must-link graph, plus singletons for
    points that only appear in cannot-links.

    Sorted by descending size, then by smallest member index.
    """
    _, comp = _components(cs)
    hoods = [Neighborhood(tuple(sorted(members))) for members in comp.values()]
    hoods.sort(key=lambda h: (-len(h), h.member_indices[0]))
    return hoods


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
