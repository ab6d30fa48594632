"""Point closure of a noetherian topology: the coarsest refinement in which
every single point is closed.

Closed sets of the refinement are exactly the sets C union F with C closed
in the input topology and F finite; each is kept in a canonical ClosedPair
form with F disjoint from C and C as large as the declared family allows.

Two kinds of carrier space are supported: explicit finite spaces, and
symbolic spaces describing an infinite carrier through a finite named
closed-set family with declared subset/difference/membership data plus
finitely many named point handles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

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
    "brute_force_point_closure",
    "all_topologies",
    "random_topology",
    "weyl_model",
]

FINITE_POINT_CAP = 12
BRUTE_POINT_CAP = 6


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
        space = FiniteSpace(pts, fam)
        problems = space.validate()
        if problems:
            raise TopologyError("; ".join(problems))
        return space

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

    The closed family is a finite list of names with fully declared subset
    relations, finiteness flags for set differences (with the explicit named
    points when finite), membership of the named point handles, and
    meet/join tables. Joins may be partial; a missing join surfaces as a
    TopologyError when an operation needs it.
    """

    names: tuple[str, ...]
    empty_name: str
    all_name: str
    infinite: bool
    points: tuple[str, ...]
    member: dict = field(repr=False)       # (point, name) -> bool
    subset: dict = field(repr=False)       # (a, b) -> bool: a subseteq b
    diff_finite: dict = field(repr=False)  # (a, b) -> bool: a minus b finite?
    diff_points: dict = field(repr=False)  # (a, b) -> frozenset of named points
    meet: dict = field(repr=False)         # (a, b) -> name
    join: dict = field(repr=False)         # (a, b) -> name (may be partial)

    def validate(self) -> list[str]:
        problems = []
        if self.empty_name not in self.names or self.all_name not in self.names:
            problems.append("family must contain the empty set and the whole space")
        for a in self.names:
            if not self.subset.get((self.empty_name, a), False):
                problems.append(f"empty set not declared a subset of {a}")
            if not self.subset.get((a, self.all_name), False):
                problems.append(f"{a} not declared a subset of the whole space")
        for a, b, c in itertools.product(self.names, repeat=3):
            if self.subset.get((a, b)) and self.subset.get((b, c)) and not self.subset.get((a, c)):
                problems.append(f"subset table not transitive at {a} <= {b} <= {c}")
        for a, b in itertools.product(self.names, repeat=2):
            if (a, b) not in self.meet:
                problems.append(f"missing meet for ({a}, {b})")
        return problems

    def __hash__(self):
        return hash((self.names, self.points, self.infinite))


# --- uniform closed-set helpers (c is a frozenset on finite spaces, a name
# --- on symbolic spaces) ---------------------------------------------------


def _is_finite(space) -> bool:
    return isinstance(space, FiniteSpace)


def _c_empty(space):
    return frozenset() if _is_finite(space) else space.empty_name


def _c_subset(space, c1, c2) -> bool:
    if _is_finite(space):
        return c1 <= c2
    return space.subset[(c1, c2)]


def _c_meet(space, c1, c2):
    if _is_finite(space):
        return c1 & c2
    return space.meet[(c1, c2)]


def _c_join(space, c1, c2):
    if _is_finite(space):
        return c1 | c2
    out = space.join.get((c1, c2))
    if out is None:
        raise TopologyError(f"union of {c1} and {c2} is not in the declared closed family")
    return out


def _c_diff_finite(space, c1, c2) -> bool:
    if _is_finite(space):
        return True
    return space.diff_finite[(c1, c2)]


def _c_diff_points(space, c1, c2) -> frozenset:
    if _is_finite(space):
        return c1 - c2
    pts = space.diff_points.get((c1, c2))
    if pts is None:
        raise TopologyError(f"finite difference {c1} minus {c2} has no declared point list")
    return pts


def _pt_in_c(space, pt, c) -> bool:
    if _is_finite(space):
        return pt in c
    return space.member[(pt, c)]


def _family(space):
    return sorted(space.closed, key=lambda s: (len(s), sorted(s))) if _is_finite(space) else list(space.names)


@dataclass(frozen=True)
class ClosedPair:
    """Canonical form C union F of a point-closure closed set: F is finite,
    disjoint from C, and C absorbs every family member inside the set."""

    space: object
    c: object
    f: frozenset

    def __repr__(self):
        cpart = ("{" + ",".join(map(str, sorted(self.c))) + "}") if _is_finite(self.space) else str(self.c)
        return f"ClosedPair({cpart} + {sorted(self.f)})"


def make_pair(space, c, f) -> ClosedPair:
    """Build the canonical pair denoting the set c union f."""
    f = frozenset(f)
    f = frozenset(pt for pt in f if not _pt_in_c(space, pt, c))
    changed = True
    while changed:
        changed = False
        for d in _family(space):
            if _c_subset(space, d, c):
                continue
            if not _c_diff_finite(space, d, c):
                continue
            if _c_diff_points(space, d, c) <= f:
                c = _c_join(space, c, d)
                f = frozenset(pt for pt in f if not _pt_in_c(space, pt, c))
                changed = True
    return ClosedPair(space, c, f)


def pair_point_set(pair: ClosedPair) -> frozenset:
    """Denoted set, available on finite spaces only."""
    if not _is_finite(pair.space):
        raise TopologyError("symbolic pairs do not enumerate their points")
    return pair.c | pair.f


def pair_contains_point(pair: ClosedPair, pt) -> bool:
    return pt in pair.f or _pt_in_c(pair.space, pt, pair.c)


def pair_subset(p1: ClosedPair, p2: ClosedPair) -> bool:
    """Containment of denoted sets: is p1 inside p2?"""
    if p1.space is not p2.space:
        raise TopologyError("pairs over different spaces")
    space = p1.space
    if not all(pair_contains_point(p2, pt) for pt in p1.f):
        return False
    if _c_subset(space, p1.c, p2.c):
        return True
    if not _c_diff_finite(space, p1.c, p2.c):
        return False  # a finite remainder cannot absorb an infinite difference
    return _c_diff_points(space, p1.c, p2.c) <= p2.f


@dataclass(frozen=True)
class PointClosureFamily:
    space: object
    pairs: tuple
    named_fragment: bool  # symbolic spaces list pairs over named handles only

    def point_sets(self) -> frozenset:
        return frozenset(pair_point_set(p) for p in self.pairs)


def point_closure(space) -> PointClosureFamily:
    """All closed sets of the point closure, in canonical pair form.

    On a finite space every subset is closed (any set is a finite union of
    points with a closed set); the value of the computation is the canonical
    decomposition of each. On a symbolic space the pairs range over the
    declared family and the named handles.
    """
    if _is_finite(space):
        problems = space.validate()
        if problems:
            raise TopologyError("; ".join(problems))
        if len(space.points) > FINITE_POINT_CAP:
            raise TopologyError(f"finite point closure capped at {FINITE_POINT_CAP} points")
        pts = space.points
        n = len(pts)
        masks = space._masks()
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
            pairs.append(ClosedPair(space, as_set(cmax), as_set(s & ~cmax)))
        pairs.sort(key=lambda q: (len(q.c) + len(q.f), sorted(q.c | q.f)))
        return PointClosureFamily(space, tuple(pairs), False)
    if len(space.points) > FINITE_POINT_CAP:
        raise TopologyError(f"symbolic point closure capped at {FINITE_POINT_CAP} named points")
    problems = space.validate()
    if problems:
        raise TopologyError("; ".join(problems))
    seen = {}
    for c in space.names:
        for r in range(len(space.points) + 1):
            for combo in itertools.combinations(space.points, r):
                pair = make_pair(space, c, frozenset(combo))
                key = (pair.c, tuple(sorted(pair.f)))
                seen.setdefault(key, pair)
    pairs = sorted(seen.values(), key=lambda q: (str(q.c), sorted(q.f)))
    return PointClosureFamily(space, tuple(pairs), True)


def pc_intersect(pairs: list[ClosedPair]) -> ClosedPair:
    """Intersection of closed pairs, via the minimal meet of the closed
    parts plus the finite points common to every pair."""
    if not pairs:
        raise TopologyError("intersection of no pairs")
    space = pairs[0].space
    if any(q.space is not space for q in pairs):
        raise TopologyError("pairs over different spaces")
    c = pairs[0].c
    for q in pairs[1:]:
        c = _c_meet(space, c, q.c)  # iterating to the minimal finite meet
    fcand = set()
    for q in pairs:
        fcand |= q.f
    f = {pt for pt in fcand if all(pair_contains_point(q, pt) for q in pairs)}
    out = make_pair(space, c, f)
    if _is_finite(space):
        expect = frozenset(space.points)
        for q in pairs:
            expect = expect & pair_point_set(q)
        if pair_point_set(out) != expect:
            raise AssertionError("pair intersection disagrees with set intersection")
    return out


def pc_union(pairs: list[ClosedPair]) -> ClosedPair:
    """Finite union of closed pairs."""
    if not pairs:
        raise TopologyError("union of no pairs")
    space = pairs[0].space
    if any(q.space is not space for q in pairs):
        raise TopologyError("pairs over different spaces")
    c = pairs[0].c
    for q in pairs[1:]:
        c = _c_join(space, c, q.c)
    f = set()
    for q in pairs:
        f |= q.f
    out = make_pair(space, c, f)
    if _is_finite(space):
        expect = frozenset()
        for q in pairs:
            expect = expect | pair_point_set(q)
        if pair_point_set(out) != expect:
            raise AssertionError("pair union disagrees with set union")
    return out


def _pairs_equal(space, p1: ClosedPair, p2: ClosedPair) -> bool:
    return pair_subset(p1, p2) and pair_subset(p2, p1)


def chain_stabilize(chain: list[ClosedPair]) -> int:
    """Least 1-based index m with X_i = X_m for all i >= m, for a weakly
    descending chain, computed through the normalization that replaces each
    closed part by the running meet and pushes displaced points into the
    finite parts."""
    if not chain:
        raise TopologyError("empty chain")
    space = chain[0].space
    if any(q.space is not space for q in chain):
        raise TopologyError("pairs over different spaces")
    for i in range(len(chain) - 1):
        if not pair_subset(chain[i + 1], chain[i]):
            raise TopologyError(f"chain is not descending at position {i + 1}")
    # Normalize: closed parts become running meets, displaced points move
    # into the finite parts. Denoted sets are unchanged because the chain
    # descends.
    norm = []
    c = chain[0].c
    f = frozenset(chain[0].f)
    norm.append(ClosedPair(space, c, f))
    for q in chain[1:]:
        moved = frozenset(pt for pt in f if _pt_in_c(space, pt, q.c))
        c = _c_meet(space, c, q.c)
        f = moved | q.f
        norm.append(ClosedPair(space, c, f))
    # Descending chain: X_i = X_m for all i >= m iff X_m equals the last
    # term, so the stable index is the first term equal to the tail value.
    last = norm[-1]
    m = len(chain)
    for i in range(len(chain) - 1, 0, -1):
        if _pairs_equal(space, norm[i - 1], last):
            m = i
        else:
            break
    if _is_finite(space):
        sets = [pair_point_set(q) for q in chain]
        naive = len(chain)
        for i in range(len(chain) - 1, 0, -1):
            if sets[i - 1] == sets[i]:
                naive = i
            else:
                break
        if naive != m:
            raise AssertionError("normalized stabilization index disagrees with the naive scan")
    return m


def brute_force_point_closure(points, closed_family) -> frozenset:
    """Oracle: smallest family containing the input and all singletons,
    stable under union and intersection, by fixpoint iteration."""
    pts = frozenset(points)
    if len(pts) > BRUTE_POINT_CAP:
        raise TopologyError(f"brute-force point closure capped at {BRUTE_POINT_CAP} points")
    fam = {frozenset(s) for s in closed_family}
    fam.add(frozenset())
    fam.add(pts)
    for pt in pts:
        fam.add(frozenset([pt]))
    changed = True
    while changed:
        changed = False
        cur = list(fam)
        for x in cur:
            for y in cur:
                for z in (x | y, x & y):
                    if z not in fam:
                        fam.add(z)
                        changed = True
    return frozenset(fam)


def _downsets(n: int, rel: np.ndarray) -> frozenset:
    """Closed sets of the topology with specialization preorder rel (rel[i, j]
    true meaning i lies in the closure of j)."""
    fam = set()
    for mask in range(2**n):
        ok = True
        for j in range(n):
            if not mask >> j & 1:
                continue
            for i in range(n):
                if rel[i, j] and not mask >> i & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            fam.add(frozenset(i for i in range(n) if mask >> i & 1))
    return frozenset(fam)


def all_topologies(n: int):
    """Every topology on n labeled points (via its specialization preorder),
    as a closed-set family. Practical for n <= 4."""
    if n < 0 or n > 4:
        raise ValueError("exhaustive topology enumeration supported for n <= 4")
    if n == 0:
        yield frozenset([frozenset()])
        return
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(2 ** len(offdiag)):
        rel = np.eye(n, dtype=bool)
        for b, (i, j) in enumerate(offdiag):
            if mask >> b & 1:
                rel[i, j] = True
        trans = True
        for k in range(n):
            for i in range(n):
                if rel[i, k]:
                    for j in range(n):
                        if rel[k, j] and not rel[i, j]:
                            trans = False
                            break
                if not trans:
                    break
            if not trans:
                break
        if trans:
            yield _downsets(n, rel)


def random_topology(n: int, rng: np.random.Generator) -> frozenset:
    """Random topology on n points from a random preorder (reflexive
    transitive closure of a sparse random relation)."""
    rel = np.eye(n, dtype=bool)
    edges = rng.integers(0, n * n // 2 + 1)
    for _ in range(int(edges)):
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        rel[i, j] = True
    for k in range(n):
        for i in range(n):
            if rel[i, k]:
                rel[i] |= rel[k]
    for k in range(n):  # second pass guarantees closure
        for i in range(n):
            if rel[i, k]:
                rel[i] |= rel[k]
    return _downsets(n, rel)


def weyl_model(n_named_points: int = 3) -> SymbolicSpace:
    """Countably infinite symbolic space whose declared closed family is
    just the empty set and the whole space, with named point handles."""
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
    diff_finite = {
        ("EMPTY", "EMPTY"): True,
        ("EMPTY", "ALL"): True,
        ("ALL", "EMPTY"): False,
        ("ALL", "ALL"): True,
    }
    diff_points = {
        ("EMPTY", "EMPTY"): frozenset(),
        ("EMPTY", "ALL"): frozenset(),
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
    return SymbolicSpace(
        names, "EMPTY", "ALL", True, pts, member, subset, diff_finite, diff_points, meet, join
    )
