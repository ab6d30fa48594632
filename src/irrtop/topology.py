"""The space of isomorphism classes of simple modules of a
finite-dimensional algebra, its Zariski topology of annihilator vanishing
sets, and the refined closure operator driven by composition factors of
finite products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .algebra import Algebra, Ideal
from .linalg import Subspace
from .meataxe import composition_factors, group_factors, is_isomorphic_simple
from .modules import ModuleRep, annihilator, direct_sum, regular_module
from .pointclosure import lattice_problems

__all__ = [
    "IrrPoint",
    "IrrSpace",
    "ZClosed",
    "enumerate_irr",
    "vanishing_set",
    "semiprimitive_subspaces",
    "zariski_closed_family",
    "refined_closure",
    "FormReport",
    "verify_closed_form",
]

ZARISKI_POINT_CAP = 16
CLOSURE_POINT_CAP = 8


@dataclass(frozen=True)
class IrrPoint:
    id: int
    rep: ModuleRep
    ann: Ideal

    @property
    def dim(self) -> int:
        return self.rep.n


@dataclass(frozen=True)
class IrrSpace:
    algebra: Algebra
    points: tuple[IrrPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def all_ids(self) -> frozenset[int]:
        return frozenset(pt.id for pt in self.points)

    def ann_meet(self, ids) -> Subspace:
        """Intersection of the annihilators over a point set; the empty
        intersection is the whole algebra."""
        sub = Subspace.full(self.algebra.dim, self.algebra.p)
        for i in ids:
            sub = sub.intersect(self.points[i].ann.subspace)
        return sub

    @cached_property
    def _lattice(self) -> "_MeetLattice":
        """The Zariski lattice, built on first use and kept for the life of
        this space."""
        return _MeetLattice(self)

    def identify(self, simple: ModuleRep) -> int:
        """Point id of a certified-simple module, by isomorphism."""
        for pt in self.points:
            if pt.dim == simple.n and is_isomorphic_simple(pt.rep, simple) is not None:
                return pt.id
        raise ValueError("simple module matches no enumerated class")


def _mask(ids) -> int:
    """Point set as a bitmask: bit i stands for point i."""
    out = 0
    for i in ids:
        out |= 1 << i
    return out


def _ids(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


class _MeetLattice:
    """Every meet of point annihilators, memoized over point bitmasks.

    meets[S] is the intersection of ann(i) over the points i in S, with
    meets[0] the whole algebra; meets[S] = meets[S - {max S}] & ann(max S)
    costs one intersection per nonempty S. A point i lies in the closure of
    S exactly when meets[S] is inside ann(i), that is when meets[S | i] and
    meets[S] have equal dimension, so closures need no further linear
    algebra.
    """

    def __init__(self, space: IrrSpace):
        n = len(space)
        if n > ZARISKI_POINT_CAP:
            raise ValueError(f"semiprimitive lattice capped at {ZARISKI_POINT_CAP} points")
        self.n = n
        meets = [Subspace.full(space.algebra.dim, space.algebra.p)]
        for s in range(1, 1 << n):
            top = s.bit_length() - 1
            meets.append(meets[s ^ 1 << top].intersect(space.points[top].ann.subspace))
        self.meets = meets
        self.dims = [m.dim for m in meets]
        self.closed = [s for s in range(1 << n) if self.closure(s) == s]

    def closure(self, s: int) -> int:
        """Bitmask of the Zariski closure V(meets[s]) of the point set s."""
        dims, d = self.dims, self.dims[s]
        out = s
        for i in range(self.n):
            if dims[s | 1 << i] == d:
                out |= 1 << i
        return out


def enumerate_irr(a: Algebra, seed: int = 0) -> IrrSpace:
    """Isomorphism classes of simple modules: deduplicated composition
    factors of the regular module, ordered by dimension then first found."""
    factors = composition_factors(regular_module(a), seed)
    reps = [rep for rep, _ in group_factors(factors)]
    reps.sort(key=lambda f: f.n)  # stable: preserves first-found order per dim
    points = tuple(
        IrrPoint(i, rep.relabel(f"simple#{i}"), annihilator(a, rep))
        for i, rep in enumerate(reps)
    )
    return IrrSpace(a, points)


@dataclass(frozen=True)
class ZClosed:
    """A Zariski closed set in canonical form: its point set together with
    the recanonicalized defining ideal (the meet of the member
    annihilators)."""

    space: IrrSpace
    ideal_subspace: Subspace
    point_ids: frozenset[int]

    @property
    def ideal(self) -> Ideal:
        return Ideal(self.space.algebra, self.ideal_subspace, "two-sided")

    def __eq__(self, other) -> bool:
        return isinstance(other, ZClosed) and self.point_ids == other.point_ids and self.space is other.space

    def __hash__(self) -> int:
        return hash(self.point_ids)


def vanishing_set(space: IrrSpace, ideal: Ideal) -> ZClosed:
    """Points whose simple module is killed by the ideal."""
    ids = frozenset(
        pt.id for pt in space.points if pt.ann.subspace.contains_space(ideal.subspace)
    )
    return ZClosed(space, space.ann_meet(ids), ids)


def semiprimitive_subspaces(space: IrrSpace) -> dict[Subspace, frozenset[int]]:
    """All meets of point annihilators (including the empty meet, the whole
    algebra), each mapped to its vanishing point set."""
    lattice = space._lattice
    return {lattice.meets[s]: _ids(s) for s in lattice.closed}


def zariski_closed_family(space: IrrSpace) -> list[ZClosed]:
    """All Zariski closed sets, deduplicated; asserts the family is closed
    under union and intersection."""
    family = [ZClosed(space, sub, ids) for sub, ids in semiprimitive_subspaces(space).items()]
    family.sort(key=lambda z: (len(z.point_ids), sorted(z.point_ids)))
    if lattice_problems(frozenset(space._lattice.closed), len(space), limit=1):
        raise AssertionError("Zariski closed family is not a lattice of sets")
    return family


def refined_closure(space: IrrSpace, ids, seed: int = 0) -> frozenset[int]:
    """Least superset closed under taking classes of composition factors of
    the product of one representative per member class."""
    current = frozenset(int(i) for i in ids)
    if not current <= space.all_ids():
        raise ValueError("point selection outside the space")
    rng_seed = seed
    for _ in range(len(space) + 1):
        reps = [space.points[i].rep for i in sorted(current)]
        prod = direct_sum(space.algebra, reps)
        factors = composition_factors(prod, rng_seed)
        grown = current | {space.identify(f) for f in factors}
        if grown == current:
            return current
        current = grown
    raise AssertionError("refined closure failed to stabilize within the point count")


@dataclass(frozen=True)
class FormReport:
    """Decomposition of a refined-closed set as a vanishing set plus a
    finite remainder."""

    space: IrrSpace
    selection: frozenset[int]
    is_refined_closed: bool
    closure: frozenset[int]
    found: bool = False
    ideal_subspace: Subspace | None = None
    v_points: frozenset[int] = field(default_factory=frozenset)
    finite_part: frozenset[int] = field(default_factory=frozenset)
    ideal_semiprimitive: bool = False


def verify_closed_form(space: IrrSpace, ids, seed: int = 0) -> FormReport:
    """Check a point set is refined-closed and decompose it as
    vanishing-set-plus-finite-set, minimizing the finite part."""
    selection = frozenset(int(i) for i in ids)
    closure = refined_closure(space, selection, seed)
    if closure != selection:
        return FormReport(space, selection, False, closure)
    best: tuple | None = None
    for sub, vpts in semiprimitive_subspaces(space).items():
        if not vpts <= selection:
            continue
        f = selection - vpts
        key = (len(f), sorted(f), sorted(space.all_ids() - vpts))
        if best is None or key < best[0]:
            best = (key, sub, vpts, f)
    if best is None:
        return FormReport(space, selection, True, closure, found=False)
    _, sub, vpts, f = best
    # The meet over every point whose annihilator contains sub.
    lattice = space._lattice
    meet = lattice.meets[lattice.closure(_mask(vpts))]
    return FormReport(
        space,
        selection,
        True,
        closure,
        found=True,
        ideal_subspace=sub,
        v_points=vpts,
        finite_part=frozenset(f),
        ideal_semiprimitive=meet == sub,
    )
