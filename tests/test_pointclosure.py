"""Point closure of noetherian topologies: canonical pairs, the pair
operations against set-theoretic oracles, chain stabilization, and the
symbolic trivial-family model."""

import dataclasses

import numpy as np
import pytest

from irrtop.pointclosure import (
    FINITE_POINT_CAP,
    FiniteSpace,
    TopologyError,
    chain_stabilize,
    lattice_problems,
    make_pair,
    pair_point_set,
    pair_subset,
    pc_intersect,
    pc_union,
    point_closure,
    weyl_model,
)
from irrtop.oracles import all_topologies, brute_force_point_closure, random_topology


def trivial_family(n):
    return frozenset([frozenset(), frozenset(range(n))])


def test_trivial_topology_five_points_gives_all_subsets():
    fin = FiniteSpace.make(range(5), trivial_family(5))
    fam = point_closure(fin)
    assert len(fam.pairs) == 32
    assert fam.point_sets() == frozenset(
        frozenset(i for i in range(5) if m >> i & 1) for m in range(32)
    )


def test_discrete_topology_already_contains_points():
    pts = range(3)
    discrete = frozenset(frozenset(s) for s in [
        (), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2),
    ])
    fin = FiniteSpace.make(pts, discrete)
    fam = point_closure(fin)
    assert fam.point_sets() == discrete
    # Canonical pairs absorb everything into the closed part.
    assert all(q.f == frozenset() for q in fam.pairs)


def test_non_topology_input_reported():
    with pytest.raises(TopologyError):
        FiniteSpace.make(range(2), [frozenset([0])])
    bad = FiniteSpace(tuple(range(3)), frozenset([frozenset(), frozenset([0]), frozenset([1]), frozenset(range(3))]))
    assert any("union" in msg for msg in bad.validate())
    with pytest.raises(TopologyError):
        point_closure(bad)


def test_make_pair_canonicalizes():
    fin = FiniteSpace.make(range(3), frozenset([frozenset(), frozenset([0, 1]), frozenset(range(3))]))
    pair = make_pair(fin, frozenset(), frozenset([0, 1, 2]))
    assert pair.c == frozenset(range(3)) and pair.f == frozenset()
    pair2 = make_pair(fin, frozenset([0, 1]), frozenset([0]))
    assert pair2.c == frozenset([0, 1]) and pair2.f == frozenset()


def test_pc_intersect_single_pair_identity():
    fin = FiniteSpace.make(range(3), trivial_family(3))
    q = make_pair(fin, frozenset(), frozenset([0, 1]))
    out = pc_intersect([q])
    assert pair_point_set(out) == frozenset([0, 1])


def test_pc_intersect_closed_with_finite():
    fam = frozenset([frozenset(), frozenset([0, 1]), frozenset([0, 1, 2])])
    fin = FiniteSpace.make(range(3), fam)
    p1 = make_pair(fin, frozenset([0, 1]), frozenset())
    p2 = make_pair(fin, frozenset(), frozenset([1, 2]))
    out = pc_intersect([p1, p2])
    assert out.c == frozenset() and out.f == frozenset([1])


def test_pc_union_extremes():
    fin = FiniteSpace.make(range(3), trivial_family(3))
    empty = make_pair(fin, frozenset(), frozenset())
    alls = make_pair(fin, frozenset(range(3)), frozenset())
    single = make_pair(fin, frozenset(), frozenset([1]))
    assert pair_point_set(pc_union([empty, alls])) == frozenset(range(3))
    out = pc_union([single, make_pair(fin, frozenset(), frozenset([2]))])
    assert out.c == frozenset() and out.f == frozenset([1, 2])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pair_ops_match_set_ops_random(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        fam = random_topology(n, rng)
        fin = FiniteSpace.make(range(n), fam)
        pairs = list(point_closure(fin).pairs)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            sel = [pairs[int(rng.integers(0, len(pairs)))] for _ in range(k)]
            inter = pc_intersect(sel)
            union = pc_union(sel)
            want_i = frozenset(range(n))
            want_u = frozenset()
            for q in sel:
                want_i &= pair_point_set(q)
                want_u |= pair_point_set(q)
            assert pair_point_set(inter) == want_i
            assert pair_point_set(union) == want_u


def test_point_closure_matches_oracle_exhaustively():
    for n in range(1, 5):
        for fam in all_topologies(n):
            fin = FiniteSpace.make(range(n), fam)
            assert point_closure(fin).point_sets() == brute_force_point_closure(range(n), fam)


def test_all_topologies_counts():
    assert sum(1 for _ in all_topologies(1)) == 1
    assert sum(1 for _ in all_topologies(2)) == 4
    assert sum(1 for _ in all_topologies(3)) == 29
    assert sum(1 for _ in all_topologies(4)) == 355


def test_brute_force_oracle_shapes():
    assert brute_force_point_closure(range(3), trivial_family(3)) == frozenset(
        frozenset(i for i in range(3) if m >> i & 1) for m in range(8)
    )
    discrete = frozenset(frozenset(i for i in range(3) if m >> i & 1) for m in range(8))
    assert brute_force_point_closure(range(3), discrete) == discrete


def test_chain_stabilize_constant():
    fin = FiniteSpace.make(range(3), trivial_family(3))
    q = make_pair(fin, frozenset(), frozenset([0]))
    assert chain_stabilize([q, q, q]) == 1


def test_chain_stabilize_strictly_descending_sizes():
    fin = FiniteSpace.make(range(4), trivial_family(4))
    x1 = make_pair(fin, frozenset(), frozenset([0, 1, 2]))
    x2 = make_pair(fin, frozenset(), frozenset([0, 1]))
    x3 = make_pair(fin, frozenset(), frozenset([0]))
    assert chain_stabilize([x1, x2, x3, x3, x3]) == 3


def test_chain_stabilize_rejects_non_descending():
    fin = FiniteSpace.make(range(3), trivial_family(3))
    small = make_pair(fin, frozenset(), frozenset([0]))
    big = make_pair(fin, frozenset(), frozenset([0, 1]))
    with pytest.raises(TopologyError):
        chain_stabilize([small, big])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_chain_stabilize_random_chains(n):
    # The naive-scan cross-check runs inside chain_stabilize on finite
    # spaces; this exercises it over random descending chains.
    rng = np.random.default_rng(100 + n)
    for _ in range(15):
        fam = random_topology(n, rng)
        fin = FiniteSpace.make(range(n), fam)
        pairs = list(point_closure(fin).pairs)
        cur = pairs[int(rng.integers(0, len(pairs)))]
        chain = [cur]
        for _ in range(5):
            nxt = pairs[int(rng.integers(0, len(pairs)))]
            cur = pc_intersect([cur, nxt])
            chain.append(cur)
        m = chain_stabilize(chain)
        assert 1 <= m <= len(chain)


def test_weyl_model_point_closure_structure():
    wm = weyl_model(3)
    fam = point_closure(wm)
    got = {(q.c, q.f) for q in fam.pairs}
    want = {("ALL", frozenset())}
    for mask in range(8):
        f = frozenset(f"q{i}" for i in range(3) if mask >> i & 1)
        want.add(("EMPTY", f))
    assert got == want


def test_weyl_pair_intersection_example():
    wm = weyl_model(3)
    alls = make_pair(wm, "ALL", frozenset())
    single = make_pair(wm, "EMPTY", frozenset(["q1"]))
    out = pc_intersect([alls, single])
    assert out.c == "EMPTY" and out.f == frozenset(["q1"])


def test_weyl_descending_chain_stabilizes():
    wm = weyl_model(4)
    chain = [
        make_pair(wm, "EMPTY", frozenset(["q0", "q1", "q2", "q3"])),
        make_pair(wm, "EMPTY", frozenset(["q0", "q1"])),
        make_pair(wm, "EMPTY", frozenset(["q0"])),
        make_pair(wm, "EMPTY", frozenset(["q0"])),
    ]
    assert chain_stabilize(chain) == 3


def test_weyl_subset_reasoning():
    wm = weyl_model(2)
    alls = make_pair(wm, "ALL", frozenset())
    fin = make_pair(wm, "EMPTY", frozenset(["q0"]))
    assert pair_subset(fin, alls)
    assert not pair_subset(alls, fin)  # infinite difference blocks absorption


def test_mixed_space_operations_rejected():
    wm = weyl_model(2)
    fin = FiniteSpace.make(range(2), trivial_family(2))
    p1 = make_pair(wm, "EMPTY", frozenset(["q0"]))
    p2 = make_pair(fin, frozenset(), frozenset([0]))
    with pytest.raises(TopologyError):
        pc_intersect([p1, p2])
    with pytest.raises(TopologyError):
        pc_union([p1, p2])


def _pairwise_problems(fam) -> list[str]:
    """Oracle: the lattice-of-sets check over every pair of members."""
    problems = []
    for x in fam:
        for y in fam:
            if x | y not in fam:
                problems.append("closed family not stable under union")
            if x & y not in fam:
                problems.append("closed family not stable under intersection")
    return problems


def _families_with_corruptions():
    """Every topology on up to 4 points, random ones on 5 to 7 points, and
    each of them with one member dropped."""
    fams = [(n, fam) for n in range(1, 5) for fam in all_topologies(n)]
    rng = np.random.default_rng(7)
    fams += [(n, random_topology(n, rng)) for n in (5, 6, 7) for _ in range(10)]
    for n, fam in list(fams):
        fams += [(n, fam - {member}) for member in fam]
    return fams


def test_birkhoff_check_matches_pairwise_oracle():
    rejected = 0
    for n, fam in _families_with_corruptions():
        want_ok = not _pairwise_problems(fam)
        masks = {sum(1 << i for i in s) for s in fam}
        assert (not lattice_problems(masks, n)) == want_ok, (n, sorted(map(sorted, fam)))
        space = FiniteSpace(tuple(range(n)), fam)
        ends_present = frozenset() in fam and frozenset(range(n)) in fam
        assert (not space.validate()) == (want_ok and ends_present)
        rejected += not want_ok
    assert rejected > 100  # the corruptions really exercise the reject side


def test_validate_reports_at_most_five_problems():
    # Every pair of distinct singletons lacks its union.
    fam = frozenset([frozenset(), frozenset(range(8))] + [frozenset([i]) for i in range(8)])
    problems = FiniteSpace(tuple(range(8)), fam).validate()
    assert len(problems) == 5
    assert set(problems) == {"closed family not stable under union"}


def test_canonical_closed_part_is_union_of_members_inside():
    rng = np.random.default_rng(11)
    fams = [(n, fam) for n in range(1, 5) for fam in all_topologies(n)]
    fams += [(n, random_topology(n, rng)) for n in (6, 8) for _ in range(10)]
    for n, fam in fams:
        for pair in point_closure(FiniteSpace.make(range(n), fam)).pairs:
            s = pair.c | pair.f
            want = frozenset().union(*(d for d in fam if d <= s))
            assert pair.c == want and not pair.c & pair.f


def test_make_pair_does_not_depend_on_the_family_order(monkeypatch):
    # The finite family is scanned in set order; sorted and reversed scans
    # give the same canonical pair for every set, on every small topology.
    for n in range(5):
        for fam in all_topologies(n):
            space = FiniteSpace(tuple(range(n)), fam)
            ordered = sorted(fam, key=lambda c: (len(c), sorted(c)))
            inputs = [(c, frozenset(i for i in range(n) if m >> i & 1)) for c in ordered for m in range(2**n)]
            want = [make_pair(space, c, f) for c, f in inputs]
            for order in (ordered, ordered[::-1]):
                monkeypatch.setattr(FiniteSpace, "family", lambda self, order=order: order)
                assert [make_pair(space, c, f) for c, f in inputs] == want, (n, order)
            monkeypatch.undo()


def symbolic_space(n: int):
    """weyl_model's space with n handles, built here past the model's cap."""
    wm = weyl_model(1)
    points = tuple(f"q{i}" for i in range(n))
    member = {(q, c): c == "ALL" for q in points for c in wm.names}
    return dataclasses.replace(wm, points=points, member=member)


def test_symbolic_point_closure_refuses_above_cap():
    with pytest.raises(TopologyError, match="capped"):
        weyl_model(FINITE_POINT_CAP + 1)
    with pytest.raises(TopologyError, match="capped"):
        point_closure(symbolic_space(FINITE_POINT_CAP + 1))
    assert len(point_closure(weyl_model(4)).pairs) == 17
    assert point_closure(symbolic_space(4)).pairs == point_closure(weyl_model(4)).pairs


def test_symbolic_validate_reports_missing_subset_and_membership_entries():
    # Both tables are total by the SymbolicSpace contract; a hole must be
    # refused at the boundary, not surface as a KeyError mid-closure.
    for table, key in (("subset", ("ALL", "EMPTY")), ("member", ("q0", "ALL"))):
        wm = weyl_model(2)
        del getattr(wm, table)[key]
        assert any(f"{key[0]}, {key[1]}" in msg for msg in wm.validate()), table
        with pytest.raises(TopologyError):
            point_closure(wm)


def test_pc_union_over_a_partial_join_table_is_refused():
    wm = weyl_model(2)
    del wm.join[("EMPTY", "ALL")]
    finite = make_pair(wm, "EMPTY", frozenset(["q0"]))
    alls = make_pair(wm, "ALL", frozenset())
    with pytest.raises(TopologyError, match="union of EMPTY and ALL is not in the declared closed family"):
        pc_union([finite, alls])


def test_symbolic_pairs_do_not_enumerate_their_points():
    with pytest.raises(TopologyError, match="symbolic pairs do not enumerate their points"):
        pair_point_set(make_pair(weyl_model(2), "EMPTY", frozenset(["q1"])))


def test_operations_on_no_pairs_are_refused():
    for op, msg in ((pc_intersect, "intersection of no pairs"), (pc_union, "union of no pairs"), (chain_stabilize, "empty chain")):
        with pytest.raises(TopologyError, match=msg):
            op([])


def test_closed_pair_repr_on_both_kinds_of_space():
    fin = FiniteSpace.make(range(3), frozenset([frozenset(), frozenset([0, 1]), frozenset(range(3))]))
    assert repr(make_pair(fin, frozenset([0, 1]), frozenset())) == "ClosedPair({0,1} + [])"
    assert repr(make_pair(fin, frozenset(), frozenset([2, 0]))) == "ClosedPair({} + [0, 2])"
    wm = weyl_model(3)
    assert repr(make_pair(wm, "EMPTY", frozenset(["q2", "q0"]))) == "ClosedPair(EMPTY + ['q0', 'q2'])"
    assert repr(make_pair(wm, "ALL", frozenset(["q1"]))) == "ClosedPair(ALL + [])"


def test_cap_messages():
    over = FINITE_POINT_CAP + 1
    with pytest.raises(TopologyError) as err:
        point_closure(FiniteSpace.make(range(over), trivial_family(over)))
    assert str(err.value) == "finite point closure capped at 12 points"
    for build in (lambda: point_closure(symbolic_space(over)), lambda: weyl_model(over)):
        with pytest.raises(TopologyError) as err:
            build()
        assert str(err.value) == "symbolic point closure capped at 12 named points"
