"""Point closure of a noetherian topology: the coarsest refinement in which
every single point is closed.

Closed sets of the refinement are exactly the sets C union F with C closed
in the input topology and F finite; each is kept in a canonical ClosedPair
form with F disjoint from C and C as large as the declared family allows.

Two kinds of carrier space are supported: explicit finite spaces, whose
closed parts are frozensets of points, and symbolic spaces describing an
infinite carrier through a finite named closed-set family with declared
tables plus finitely many named point handles. Both answer the same
closed-set questions (membership ``contains``, containment ``le``, meet
``glb``, join ``lub``, difference ``minus``, which is None when infinite,
``family``, ``show``, ``point_set``, which is None when the space does not
list its points, ``closure_pairs`` and ``validate``), and the pair
operations ask nothing else.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

__all__ = [
    "TopologyError",
    "FiniteSpace",
    "SymbolicSpace",
    "lattice_problems",
    "ClosedPair",
    "make_pair",
    "pair_point_set",
    "pair_contains_point",
    "pair_subset",
    "point_closure",
    "PointClosureFamily",
    "pc_intersect",
    "pc_union",
    "chain_stabilize",
    "weyl_model",
]

FINITE_POINT_CAP = 12


class TopologyError(ValueError):
    """Input family is not a topology's closed-set family, or the declared
    symbolic data cannot answer a required question."""


@dataclass(frozen=True)
class FiniteSpace:
    points: tuple
    closed: frozenset  # frozenset of frozensets

    @staticmethod
    def make(points, closed_sets) -> "FiniteSpace":
        pts = tuple(sorted(points))
        fam = frozenset(frozenset(s) for s in closed_sets)
        return _checked(FiniteSpace(pts, fam))

    def validate(self) -> list[str]:
        problems = []
        pts = frozenset(self.points)
        if frozenset() not in self.closed:
            problems.append("closed family misses the empty set")
        if pts not in self.closed:
            problems.append("closed family misses the whole space")
        if any(not s <= pts for s in self.closed):
            # Already rejected; bitmasks cannot name the unknown points.
            problems.append("closed set contains unknown points")
            return problems
        problems += lattice_problems(self._masks(), len(self.points), limit=5 - len(problems))
        return problems

    def _masks(self) -> set[int]:
        """Each closed set as a bitmask over the indices of self.points."""
        bit = {pt: 1 << k for k, pt in enumerate(self.points)}
        return {sum(bit[pt] for pt in s) for s in self.closed}

    # Closed parts are frozensets: the lattice questions are set operations.
    contains = staticmethod(operator.contains)
    le = staticmethod(operator.le)
    glb = staticmethod(operator.and_)
    lub = staticmethod(operator.or_)
    minus = staticmethod(operator.sub)

    def family(self) -> frozenset:
        return self.closed

    def show(self, c) -> str:
        return "{" + ",".join(map(str, sorted(c))) + "}"

    def point_set(self, c) -> frozenset:
        return c

    def closure_pairs(self) -> tuple:
        """Every subset is closed (a finite union of points with a closed
        set); the pairs are the canonical decomposition of each."""
        if len(self.points) > FINITE_POINT_CAP:
            raise TopologyError(f"finite point closure capped at {FINITE_POINT_CAP} points")
        pts = self.points
        n = len(pts)
        masks = self._masks()
        g, _ = _generators(masks, n)

        def as_set(mask: int) -> frozenset:
            return frozenset(pts[i] for i in range(n) if mask >> i & 1)

        pairs = []
        for s in range(1 << n):
            # The largest closed set inside s is the union of the g[i] inside s.
            cmax = 0
            for i in range(n):
                if s >> i & 1 and not g[i] & ~s:
                    cmax |= g[i]
            if cmax not in masks:
                raise TopologyError("closed family not stable under union")
            pairs.append(ClosedPair(self, as_set(cmax), as_set(s & ~cmax)))
        pairs.sort(key=lambda q: (len(q.c) + len(q.f), sorted(q.c | q.f)))
        return tuple(pairs)


def _generators(masks, n: int) -> tuple[list, list]:
    """Birkhoff's generators of a family of bitmask sets over n points:
    g[i] is the meet of the members containing i, m[i] the join of the
    members omitting i, and None where no member qualifies."""
    g = [None] * n
    m = [None] * n
    for x in masks:
        for i in range(n):
            if x >> i & 1:
                g[i] = x if g[i] is None else g[i] & x
            else:
                m[i] = x if m[i] is None else m[i] | x
    return g, m


def lattice_problems(masks, n: int, limit: int = 5) -> list[str]:
    """Up to `limit` reasons why a family of bitmask sets over n points is
    not stable under union and intersection; empty exactly when it is.

    The test is Birkhoff's, in O(|F| n) set operations rather than |F|^2:
    every g[i] and m[i] (see `_generators`) is a member, and so are x | g[i]
    and x & m[i] for every member x. That suffices because each member y is
    the union of g[i] over i in y and, unless y holds every point, the
    intersection of m[i] over i not in y, so x | y and x & y are reached one
    generator at a time.
    """
    union, meet = "closed family not stable under union", "closed family not stable under intersection"
    g, m = _generators(masks, n)
    problems = []
    for i in range(n):
        if g[i] is not None and g[i] not in masks:
            problems.append(meet)
        if m[i] is not None and m[i] not in masks:
            problems.append(union)
    for x in masks:
        if len(problems) >= limit:
            break
        for i in range(n):
            # x | g[i] = x when i is in x, and x & m[i] = x when it is not.
            if x >> i & 1:
                if m[i] is not None and x & m[i] not in masks:
                    problems.append(meet)
            elif g[i] is not None and x | g[i] not in masks:
                problems.append(union)
    return problems[:limit]


@dataclass(frozen=True)
class SymbolicSpace:
    """Finitely presented stand-in for an infinite carrier.

    The closed family is a finite list of names with declared subset
    relations, membership of the named point handles, differences (the
    named points when finite, None when infinite), and meet/join tables.
    The subset, membership and meet tables are total, and ``validate``
    reports every hole in them. Joins and differences may be partial; a
    missing entry surfaces as a TopologyError when an operation needs it.
    """

    names: tuple[str, ...]
    empty_name: str
    all_name: str
    points: tuple[str, ...]
    member: dict = field(repr=False)  # (point, name) -> bool
    subset: dict = field(repr=False)  # (a, b) -> bool: a subseteq b
    diff: dict = field(repr=False)    # (a, b) -> named points of a minus b, or None if infinite
    meet: dict = field(repr=False)    # (a, b) -> name
    join: dict = field(repr=False)    # (a, b) -> name (may be partial)

    def validate(self) -> list[str]:
        problems = []
        if self.empty_name not in self.names or self.all_name not in self.names:
            problems.append("family must contain the empty set and the whole space")
        for pt, a in itertools.product(self.points, self.names):
            if (pt, a) not in self.member:
                problems.append(f"missing membership for ({pt}, {a})")
        for a, b in itertools.product(self.names, repeat=2):
            if (a, b) not in self.subset:
                problems.append(f"missing subset for ({a}, {b})")
            if (a, b) not in self.meet:
                problems.append(f"missing meet for ({a}, {b})")
        for a in self.names:
            if not self.subset.get((self.empty_name, a), False):
                problems.append(f"empty set not declared a subset of {a}")
            if not self.subset.get((a, self.all_name), False):
                problems.append(f"{a} not declared a subset of the whole space")
        for a, b, c in itertools.product(self.names, repeat=3):
            if self.subset.get((a, b)) and self.subset.get((b, c)) and not self.subset.get((a, c)):
                problems.append(f"subset table not transitive at {a} <= {b} <= {c}")
        return problems

    def __hash__(self):
        return hash((self.names, self.points))

    def contains(self, c, pt) -> bool:
        return self.member[(pt, c)]

    def le(self, c1, c2) -> bool:
        return self.subset[(c1, c2)]

    def glb(self, c1, c2) -> str:
        return self.meet[(c1, c2)]

    def lub(self, c1, c2) -> str:
        out = self.join.get((c1, c2))
        if out is None:
            raise TopologyError(f"union of {c1} and {c2} is not in the declared closed family")
        return out

    def minus(self, c1, c2) -> frozenset | None:
        if (c1, c2) not in self.diff:
            raise TopologyError(f"difference {c1} minus {c2} is not declared")
        return self.diff[(c1, c2)]

    def family(self) -> tuple:
        return self.names

    show = staticmethod(str)

    def point_set(self, c) -> None:
        return None

    def closure_pairs(self) -> tuple:
        """The pairs over the declared family and the named handles."""
        if len(self.points) > FINITE_POINT_CAP:
            raise TopologyError(f"symbolic point closure capped at {FINITE_POINT_CAP} named points")
        seen = {}
        for c in self.names:
            for r in range(len(self.points) + 1):
                for combo in itertools.combinations(self.points, r):
                    pair = make_pair(self, c, combo)
                    seen.setdefault((pair.c, tuple(sorted(pair.f))), pair)
        return tuple(sorted(seen.values(), key=lambda q: (str(q.c), sorted(q.f))))


@dataclass(frozen=True)
class ClosedPair:
    """Canonical form C union F of a point-closure closed set: F is finite,
    disjoint from C, and C absorbs every family member inside the set."""

    space: object
    c: object
    f: frozenset

    def __repr__(self):
        return f"ClosedPair({self.space.show(self.c)} + {sorted(self.f)})"


def make_pair(space, c, f) -> ClosedPair:
    """Build the canonical pair denoting the set c union f. The closed part
    ends as the join of every family member inside c union f, so the pair
    does not depend on the order in which the family is scanned."""
    f = frozenset(pt for pt in f if not space.contains(c, pt))
    changed = True
    while changed:
        changed = False
        for d in space.family():
            if space.le(d, c):
                continue
            extra = space.minus(d, c)
            if extra is not None and extra <= f:
                c = space.lub(c, d)
                f = frozenset(pt for pt in f if not space.contains(c, pt))
                changed = True
    return ClosedPair(space, c, f)


def pair_point_set(pair: ClosedPair) -> frozenset:
    """Denoted set, available on finite spaces only."""
    pts = pair.space.point_set(pair.c)
    if pts is None:
        raise TopologyError("symbolic pairs do not enumerate their points")
    return pts | pair.f


def pair_contains_point(pair: ClosedPair, pt) -> bool:
    return pt in pair.f or pair.space.contains(pair.c, pt)


def pair_subset(p1: ClosedPair, p2: ClosedPair) -> bool:
    """Containment of denoted sets: is p1 inside p2?"""
    if p1.space is not p2.space:
        raise TopologyError("pairs over different spaces")
    space = p1.space
    if not all(pair_contains_point(p2, pt) for pt in p1.f):
        return False
    if space.le(p1.c, p2.c):
        return True
    extra = space.minus(p1.c, p2.c)
    # A finite remainder cannot absorb an infinite difference (None).
    return extra is not None and extra <= p2.f


@dataclass(frozen=True)
class PointClosureFamily:
    space: object
    pairs: tuple

    def point_sets(self) -> frozenset:
        return frozenset(pair_point_set(p) for p in self.pairs)


def point_closure(space) -> PointClosureFamily:
    """All closed sets of the point closure, in canonical pair form.

    On a finite space every subset is closed (any set is a finite union of
    points with a closed set); the value of the computation is the canonical
    decomposition of each. On a symbolic space the pairs range over the
    declared family and the named handles.
    """
    return PointClosureFamily(space, _checked(space).closure_pairs())


def _checked(space):
    """The space, once its ``validate`` finds nothing wrong with it."""
    problems = space.validate()
    if problems:
        raise TopologyError("; ".join(problems))
    return space


def _one_space(pairs, empty: str):
    """The space of a nonempty sequence of pairs over one space; `empty` is
    the error for an empty one."""
    if not pairs:
        raise TopologyError(empty)
    space = pairs[0].space
    if any(q.space is not space for q in pairs):
        raise TopologyError("pairs over different spaces")
    return space


def _point_sets(pairs) -> list | None:
    """The denoted sets, for the self-checks against set operations, or
    None when the space does not list its points."""
    sets = [q.space.point_set(q.c) for q in pairs]
    return None if None in sets else [s | q.f for s, q in zip(sets, pairs)]


def pc_intersect(pairs: list[ClosedPair]) -> ClosedPair:
    """Intersection of closed pairs, via the minimal meet of the closed
    parts plus the finite points common to every pair."""
    space = _one_space(pairs, "intersection of no pairs")
    fcand = frozenset().union(*(q.f for q in pairs))
    f = {pt for pt in fcand if all(pair_contains_point(q, pt) for q in pairs)}
    return _combine(pairs, space.glb, f, frozenset.intersection, "pair intersection disagrees with set intersection")


def pc_union(pairs: list[ClosedPair]) -> ClosedPair:
    """Finite union of closed pairs."""
    space = _one_space(pairs, "union of no pairs")
    f = frozenset().union(*(q.f for q in pairs))
    return _combine(pairs, space.lub, f, frozenset.union, "pair union disagrees with set union")


def _combine(pairs, op, f, set_op, mismatch: str) -> ClosedPair:
    """The canonical pair of op folded over the closed parts, plus f; on a
    space that lists its points, checked against set_op of the denoted
    sets."""
    out = make_pair(pairs[0].space, functools.reduce(op, (q.c for q in pairs)), f)
    sets = _point_sets(pairs)
    if sets is not None and pair_point_set(out) != set_op(*sets):
        raise AssertionError(mismatch)
    return out


def chain_stabilize(chain: list[ClosedPair]) -> int:
    """Least 1-based index m with X_i = X_m for all i >= m, for a weakly
    descending chain, computed through the normalization that replaces each
    closed part by the running meet and pushes displaced points into the
    finite parts."""
    space = _one_space(chain, "empty chain")
    for i in range(len(chain) - 1):
        if not pair_subset(chain[i + 1], chain[i]):
            raise TopologyError(f"chain is not descending at position {i + 1}")
    # Normalize: closed parts become running meets, displaced points move
    # into the finite parts. Denoted sets are unchanged because the chain
    # descends.
    c = chain[0].c
    f = frozenset(chain[0].f)
    norm = [ClosedPair(space, c, f)]
    for q in chain[1:]:
        moved = frozenset(pt for pt in f if space.contains(q.c, pt))
        c = space.glb(c, q.c)
        f = moved | q.f
        norm.append(ClosedPair(space, c, f))
    # Descending chain: X_i = X_m for all i >= m iff X_m equals the last
    # term, so the stable index is the first term equal to the tail value.
    last = norm[-1]
    m = len(chain)
    for i in range(len(chain) - 1, 0, -1):
        if pair_subset(norm[i - 1], last) and pair_subset(last, norm[i - 1]):
            m = i
        else:
            break
    sets = _point_sets(chain)
    if sets is not None:
        naive = len(chain)
        for i in range(len(chain) - 1, 0, -1):
            if sets[i - 1] == sets[i]:
                naive = i
            else:
                break
        if naive != m:
            raise AssertionError("normalized stabilization index disagrees with the naive scan")
    return m


def weyl_model(n_named_points: int = 3) -> SymbolicSpace:
    """Countably infinite symbolic space whose declared closed family is
    just the empty set and the whole space, with named point handles. More
    handles than ``point_closure`` accepts are refused before any is named."""
    if n_named_points > FINITE_POINT_CAP:
        raise TopologyError(f"symbolic point closure capped at {FINITE_POINT_CAP} named points")
    names = ("EMPTY", "ALL")
    pts = tuple(f"q{i}" for i in range(n_named_points))
    member = {}
    for q in pts:
        member[(q, "EMPTY")] = False
        member[(q, "ALL")] = True
    subset = {
        ("EMPTY", "EMPTY"): True,
        ("EMPTY", "ALL"): True,
        ("ALL", "EMPTY"): False,
        ("ALL", "ALL"): True,
    }
    diff = {
        ("EMPTY", "EMPTY"): frozenset(),
        ("EMPTY", "ALL"): frozenset(),
        ("ALL", "EMPTY"): None,  # the carrier is infinite
        ("ALL", "ALL"): frozenset(),
    }
    meet = {
        ("EMPTY", "EMPTY"): "EMPTY",
        ("EMPTY", "ALL"): "EMPTY",
        ("ALL", "EMPTY"): "EMPTY",
        ("ALL", "ALL"): "ALL",
    }
    join = {
        ("EMPTY", "EMPTY"): "EMPTY",
        ("EMPTY", "ALL"): "ALL",
        ("ALL", "EMPTY"): "ALL",
        ("ALL", "ALL"): "ALL",
    }
    return SymbolicSpace(names, "EMPTY", "ALL", pts, member, subset, diff, meet, join)
