"""The irreducible-class space: Zariski closed sets, the refined closure
operator, and the closed-form decomposition."""

import itertools

import pytest

from irrtop.algebra import Ideal
from irrtop.linalg import Subspace
from irrtop.oracles import is_semiprimitive
from irrtop.presets import (
    commutative_split,
    gallery,
    matrix_algebra,
    upper_triangular,
)
from irrtop.topology import (
    enumerate_irr,
    refined_closure,
    vanishing_set,
    verify_closed_form,
    zariski_closed_family,
)
from test_theory_oracles import closed_sets_oracle


def test_enumerate_field_one_point():
    sp = enumerate_irr(matrix_algebra(1, 5))
    assert len(sp.points) == 1 and sp.points[0].dim == 1


def test_enumerate_m2_one_point():
    sp = enumerate_irr(matrix_algebra(2, 2))
    assert len(sp.points) == 1 and sp.points[0].dim == 2
    assert sp.points[0].ann.is_zero


def test_enumerate_ut2_two_points():
    sp = enumerate_irr(upper_triangular(2, 2))
    assert [pt.dim for pt in sp.points] == [1, 1]
    assert sp.points[0].ann.subspace != sp.points[1].ann.subspace


def test_enumeration_is_a_function_of_the_algebra():
    # Two listings agree point for point, representatives included.
    for a in gallery():
        base, again = enumerate_irr(a), enumerate_irr(a)
        assert base.points == again.points, a.name
        for pt, twin in zip(base.points, again.points):
            assert (pt.rep.action == twin.rep.action).all(), (a.name, pt.id)


def test_vanishing_set_extremes():
    a = upper_triangular(2, 2)
    sp = enumerate_irr(a)
    zero = Ideal(a, Subspace.zero(3, 2), "two-sided")
    whole = Ideal(a, Subspace.full(3, 2), "two-sided")
    assert vanishing_set(sp, zero).point_ids == sp.all_ids()
    assert vanishing_set(sp, whole).point_ids == frozenset()


def test_vanishing_set_ut2_example():
    a = upper_triangular(2, 2)
    sp = enumerate_irr(a)
    i = Ideal(a, Subspace.from_rows([[0, 1, 0], [0, 0, 1]], 2), "two-sided")
    z = vanishing_set(sp, i)
    # Exactly the point annihilated by span{e12, e22}.
    assert len(z.point_ids) == 1
    (pid,) = z.point_ids
    assert sp.points[pid].ann.subspace == i.subspace


def test_zariski_family_one_point_space():
    sp = enumerate_irr(matrix_algebra(1, 2))
    fam = zariski_closed_family(sp)
    assert sorted(len(ids) for ids in fam) == [0, 1]


def test_zariski_family_ut2_discrete():
    sp = enumerate_irr(upper_triangular(2, 2))
    fam = zariski_closed_family(sp)
    assert set(fam) == {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    }


def test_zariski_family_simple_algebra_trivial():
    sp = enumerate_irr(matrix_algebra(2, 2))
    fam = zariski_closed_family(sp)
    assert fam == {frozenset(): 4, frozenset({0}): 0}


def test_vanishing_inclusion_reversing_and_strict():
    for a in gallery():
        sp = enumerate_irr(a)
        items = list(closed_sets_oracle(sp).items())
        for (s1, v1), (s2, v2) in itertools.product(items, repeat=2):
            if s2.contains_space(s1):
                assert v2 <= v1
                if s1 != s2:
                    assert v2 < v1, a.name  # strict on semiprimitive ideals


def test_refined_closure_extremes():
    sp = enumerate_irr(upper_triangular(2, 2))
    assert refined_closure(sp, frozenset()) == frozenset()
    assert refined_closure(sp, sp.all_ids()) == sp.all_ids()


def test_refined_closure_trivial_on_presets():
    for a in gallery():
        sp = enumerate_irr(a)
        n = len(sp.points)
        for mask in range(2**n):
            ids = frozenset(i for i in range(n) if mask >> i & 1)
            assert refined_closure(sp, ids) == ids, a.name


def test_refined_closure_is_closure_operator():
    for a in [upper_triangular(2, 2), commutative_split(3, 2)]:
        sp = enumerate_irr(a)
        n = len(sp.points)
        subsets = [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(2**n)]
        cl = {s: refined_closure(sp, s) for s in subsets}
        for s in subsets:
            assert s <= cl[s]
            assert cl[cl[s]] == cl[s]
            for t in subsets:
                if s <= t:
                    assert cl[s] <= cl[t]


def test_every_vanishing_set_is_refined_closed():
    for a in gallery():
        sp = enumerate_irr(a)
        for ids in zariski_closed_family(sp):
            assert refined_closure(sp, ids) == ids, a.name


def test_closed_form_whole_space():
    # Semiprimitive algebra: the canonical ideal for the full space is zero.
    sp = enumerate_irr(matrix_algebra(2, 2))
    rep = verify_closed_form(sp, sp.all_ids())
    assert rep.selection == sp.all_ids() and rep.ideal_subspace.dim == 0
    # Non-semiprimitive algebra: the canonical ideal is the radical.
    sp2 = enumerate_irr(upper_triangular(2, 2))
    rep2 = verify_closed_form(sp2, sp2.all_ids())
    assert rep2.selection == sp2.all_ids()
    assert rep2.ideal_subspace == Subspace.from_rows([[0, 1, 0]], 2)


def test_closed_form_empty_set():
    sp = enumerate_irr(upper_triangular(2, 2))
    rep = verify_closed_form(sp, frozenset())
    assert rep.selection == frozenset() and rep.ideal_subspace.is_full


def test_closed_form_every_subset_over_ut2():
    a = upper_triangular(2, 2)
    sp = enumerate_irr(a)
    for mask in range(4):
        ids = frozenset(i for i in range(2) if mask >> i & 1)
        rep = verify_closed_form(sp, ids)
        ideal = Ideal(a, rep.ideal_subspace, "two-sided")
        assert rep.selection == ids
        # The selection is the whole vanishing set of the ideal, so the
        # finite part is empty.
        assert vanishing_set(sp, ideal).point_ids == ids
        assert is_semiprimitive(a, ideal)


def test_closed_form_of_one_point_is_its_annihilator():
    sp = enumerate_irr(commutative_split(3, 2))
    rep = verify_closed_form(sp, {1})
    assert rep.selection == {1} and rep.ideal_subspace == sp.points[1].ann.subspace


def test_identify_rejects_unknown():
    a = upper_triangular(2, 2)
    sp = enumerate_irr(a)
    other = enumerate_irr(matrix_algebra(2, 2))
    with pytest.raises(ValueError):
        sp.identify(other.points[0].rep)


def test_memoized_lattice_matches_worklist_oracle():
    # The closed family, read from one checked meet, equals the lattice a
    # worklist rediscovers by intersecting meets with every annihilator.
    for a in gallery():
        sp = enumerate_irr(a)
        want = {ids: meet.dim for meet, ids in closed_sets_oracle(sp).items()}
        assert zariski_closed_family(sp) == want, a.name


def test_memoized_meets_satisfy_chinese_remainder():
    # Distinct simple annihilators are comaximal maximal ideals, so each
    # one a meet takes in lowers its dimension by its full codimension.
    for a in gallery():
        sp = enumerate_irr(a)
        family = zariski_closed_family(sp)
        d = a.dim
        for mask in range(2 ** len(sp)):
            ids = frozenset(i for i in range(len(sp)) if mask >> i & 1)
            meet = sp.ann_meet(ids)
            assert meet.dim == d - sum(d - sp.points[i].ann.dim for i in ids), a.name
            assert family[ids] == meet.dim, a.name
            assert all(sp.points[i].ann.subspace.contains_space(meet) for i in ids), a.name
