"""The space of isomorphism classes of simple modules of a
finite-dimensional algebra, its Zariski topology of annihilator vanishing
sets, and the refined closure operator driven by composition factors of
finite products.

The points come from the blocks of the semisimple quotient A/J
(``semisimple_classes``): one per primitive central idempotent, with its
dimension and its annihilator, and no module. They are ordered by dimension
and then by the annihilator's RREF basis, an order of the algebra alone. A
point's representative module is built only when a caller asks for it
(``IrrPoint.rep``), and is a function of the algebra too.

Theory decides the topologies: class annihilators are distinct maximal
ideals, so every point is Zariski-closed, and by Jordan-Hoelder a sum of
simples has only its summands as factors. All three topologies are discrete;
only ideals are computed (meets, vanishing sets, closed-form ideals).

A meet of annihilators is the annihilator of the sum of the class modules,
so a meet whose basis is printed is one kernel of the stacked check matrices
of the annihilators (``ann_meet``), checked against the Chinese remainder
identity dim meet(S) = d - sum over i in S of codim ann(i). The Zariski
family needs only the dimensions, which that identity gives; one checked
meet over all points certifies it for every point set.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .algebra import Algebra, Ideal
from .linalg import Subspace
from .meataxe import annihilator_meet, class_representative, semisimple_classes
from .modules import ModuleRep, annihilator_subspace

__all__ = [
    "IrrPoint",
    "IrrSpace",
    "ZClosed",
    "enumerate_irr",
    "vanishing_set",
    "zariski_closed_family",
    "refined_closure",
    "FormReport",
    "verify_closed_form",
]

ZARISKI_POINT_CAP = 16
CLOSURE_POINT_CAP = 8


@dataclass(frozen=True)
class IrrPoint:
    """One simple class: its dimension and annihilator. The representative
    module is built on first use (``class_representative``) and kept."""

    id: int
    dim: int
    ann: Ideal

    @functools.cached_property
    def rep(self) -> ModuleRep:
        return class_representative(self.ann, self.dim).relabel(f"simple#{self.id}")


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


def enumerate_irr(a: Algebra) -> IrrSpace:
    """Isomorphism classes of simple modules, from the blocks of A/J
    (``semisimple_classes``), ordered by dimension and then by the
    annihilator's RREF basis: an order of the algebra alone."""
    classes = sorted(semisimple_classes(a), key=lambda c: (c[0], c[1].subspace.basis.tolist()))
    return IrrSpace(a, tuple(IrrPoint(i, dim, ann) for i, (dim, ann) in enumerate(classes)))


@dataclass(frozen=True, eq=False)
class ZClosed:
    """A Zariski closed set in canonical form: its point set together with
    the recanonicalized defining ideal (the meet of the member
    annihilators)."""

    space: IrrSpace
    ideal_subspace: Subspace
    point_ids: frozenset[int]


def vanishing_set(space: IrrSpace, ideal: Ideal) -> ZClosed:
    """Points whose simple module is killed by the ideal."""
    ids = frozenset(
        pt.id for pt in space.points if pt.ann.subspace.contains_space(ideal.subspace)
    )
    return ZClosed(space, space.ann_meet(ids), ids)


def zariski_closed_family(space: IrrSpace) -> dict[frozenset[int], int]:
    """All Zariski closed sets, each mapped to the dimension of its ideal, in
    the order (size, sorted ids).

    Every point set S is closed, with ideal the meet of its annihilators, of
    dimension d - sum over i in S of codim ann(i) (Chinese remainder). One
    checked meet over all points certifies that for every S: the meet of U
    and V has codimension at most codim U + codim V, so each step of a chain
    from the empty set through S to all points lowers the dimension by at
    most codim ann(i), and the identity for all points makes every step
    tight. As each ann(i) is proper, a tight step lowers the dimension, so S
    is also the whole vanishing set of its meet."""
    n = len(space)
    if n > ZARISKI_POINT_CAP:
        raise ValueError(f"semiprimitive lattice capped at {ZARISKI_POINT_CAP} points")
    space.ann_meet(space.all_ids())
    d = space.algebra.dim
    codims = [d - pt.ann.dim for pt in space.points]
    return {
        frozenset(ids): d - sum(codims[i] for i in ids)
        for k in range(n + 1)
        for ids in itertools.combinations(range(n), k)
    }


def refined_closure(space: IrrSpace, ids) -> frozenset[int]:
    """Least superset closed under taking classes of composition factors of
    the product of one representative per member class. Those factors are
    the members themselves (Jordan-Hoelder), so this checks that the ids lie
    in the space and returns them."""
    current = frozenset(int(i) for i in ids)
    if not current <= space.all_ids():
        raise ValueError("point selection outside the space")
    return current


@dataclass(frozen=True)
class FormReport:
    """Decomposition of a point set as a vanishing set plus a finite
    remainder. Every point set is refined-closed and is its own vanishing
    set, so only the ideal varies: the finite part is always empty and the
    ideal is semiprimitive."""

    space: IrrSpace
    selection: frozenset[int]
    ideal_subspace: Subspace


def verify_closed_form(space: IrrSpace, ids) -> FormReport:
    """Check a point set lies in the space and decompose it as
    vanishing-set-plus-finite-set. Every point set is closed, so the
    selection is its own vanishing set, with the checked meet of its
    annihilators as ideal and no finite part."""
    selection = refined_closure(space, ids)
    return FormReport(space, selection, space.ann_meet(selection))
