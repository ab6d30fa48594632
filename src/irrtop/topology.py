"""The space of isomorphism classes of simple modules of a
finite-dimensional algebra, its Zariski topology of annihilator vanishing
sets, and the refined closure operator driven by composition factors of
finite products.

Theory decides the topologies: class annihilators are distinct maximal
ideals, so every point is Zariski-closed, and by Jordan-Hoelder a sum of
simples has only its summands as factors. All three topologies are discrete;
only ideals are computed (meets, vanishing sets, closed-form ideals).

A meet of annihilators is the annihilator of the sum of the class modules,
so it is computed as a kernel: of the stacked check matrices of the
annihilators (``ann_meet``), or of one check matrix restricted to a meet
already built (the lattice). Each meet is checked against the Chinese
remainder identity dim meet(S) = d - sum over i in S of codim ann(i).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .algebra import Algebra, Ideal
from .linalg import Subspace
from .meataxe import CRT_FAILURE, annihilator_meet, simple_classes
from .modules import ModuleRep, annihilator_subspace

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
    "closed_form",
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
        """Intersection of the annihilators over a point set, taken as a
        set: one kernel, checked against the Chinese remainder identity
        (``annihilator_meet``). The empty intersection is the whole
        algebra."""
        return annihilator_meet(self.algebra, [self.points[i].ann.subspace for i in sorted(set(ids))])

    @cached_property
    def _lattice(self) -> "_MeetLattice":
        """The Zariski lattice, built on first use and kept for the life of
        this space."""
        return _MeetLattice(self)

    def identify(self, simple: ModuleRep) -> int:
        """Point id of a certified-simple module, looked up by annihilator
        (the annihilator determines the class of a simple module)."""
        if simple.algebra is not self.algebra:
            raise ValueError("module lives over another algebra")
        key = annihilator_subspace(simple)
        for pt in self.points:
            if pt.dim == simple.n and pt.ann.subspace == key:
                return pt.id
        raise ValueError("simple module matches no enumerated class")


def _ids(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


class _MeetLattice:
    """Every meet of point annihilators, memoized over point bitmasks.

    meets[S] is the intersection of ann(i) over the points i in S, with
    meets[0] the whole algebra. meets[S] is meets[S - {max S}] cut by the
    check matrix of ann(max S) (``Subspace.meet_kernel``): one kernel of a
    codim x dim matrix per nonempty S, no re-elimination. Each step is
    checked to lower the dimension by the codimension of ann(max S), the
    row count of its check matrix (Chinese remainder). As every ann(i) is
    proper, meets[S] then lies in ann(i) only for i in S.
    """

    def __init__(self, space: IrrSpace):
        n = len(space)
        if n > ZARISKI_POINT_CAP:
            raise ValueError(f"semiprimitive lattice capped at {ZARISKI_POINT_CAP} points")
        d = space.algebra.dim
        checks = [pt.ann.subspace.check_matrix() for pt in space.points]
        meets = [Subspace.full(d, space.algebra.p)]
        for s in range(1, 1 << n):
            top = s.bit_length() - 1
            rest = meets[s ^ 1 << top]
            meet = rest.meet_kernel(checks[top])
            if meet.dim != rest.dim - len(checks[top]):
                raise AssertionError(CRT_FAILURE)
            meets.append(meet)
        self.meets = meets


def enumerate_irr(a: Algebra, seed: int = 0) -> IrrSpace:
    """Isomorphism classes of simple modules: deduplicated composition
    factors of the regular module, ordered by dimension then first found,
    each with its annihilator (``simple_classes``)."""
    classes = sorted(simple_classes(a, seed), key=lambda c: c[0].n)  # stable: first-found order per dim
    points = tuple(IrrPoint(i, rep.relabel(f"simple#{i}"), ann) for i, (rep, ann) in enumerate(classes))
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
    algebra), each mapped to its vanishing point set: one per point set, in
    ascending bitmask order."""
    return {meet: _ids(s) for s, meet in enumerate(space._lattice.meets)}


def zariski_closed_family(space: IrrSpace) -> list[ZClosed]:
    """All Zariski closed sets: the power set of the points, each with the
    meet of its annihilators."""
    family = [ZClosed(space, sub, ids) for sub, ids in semiprimitive_subspaces(space).items()]
    family.sort(key=lambda z: (len(z.point_ids), sorted(z.point_ids)))
    return family


def refined_closure(space: IrrSpace, ids, seed: int = 0) -> frozenset[int]:
    """Least superset closed under taking classes of composition factors of
    the product of one representative per member class. Those factors are
    the members themselves (Jordan-Hoelder), so this checks that the ids lie
    in the space and returns them; ``seed`` is unused."""
    current = frozenset(int(i) for i in ids)
    if not current <= space.all_ids():
        raise ValueError("point selection outside the space")
    return current


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


def closed_form(space: IrrSpace, selection: frozenset[int], meet: Subspace) -> FormReport:
    """Decomposition of a point set whose annihilator meet is ``meet``.
    Every point set is closed, so the selection is its own vanishing set,
    with the meet as ideal and no finite part. The meet's dimension is
    checked against the Chinese remainder identity."""
    d = space.algebra.dim
    if meet.dim != d - sum(d - space.points[i].ann.dim for i in selection):
        raise AssertionError(CRT_FAILURE)
    return FormReport(
        space,
        selection,
        True,
        selection,
        found=True,
        ideal_subspace=meet,
        v_points=selection,
        ideal_semiprimitive=True,
    )


def verify_closed_form(space: IrrSpace, ids, seed: int = 0) -> FormReport:
    """Check a point set is refined-closed and decompose it as
    vanishing-set-plus-finite-set, minimizing the finite part (see
    ``closed_form``); ``seed`` is unused."""
    selection = refined_closure(space, ids, seed)
    return closed_form(space, selection, space.ann_meet(selection))
