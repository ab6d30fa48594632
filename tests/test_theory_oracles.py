"""Simple classes keyed by annihilator, and the finite topologies decided by
theorem.

Over a finite-dimensional algebra ann(S) of a simple module is a maximal
two-sided ideal with a simple Artinian quotient, so two simples are
isomorphic exactly when their annihilators agree; every class is
Zariski-closed; and by Jordan-Hoelder a direct sum of simples has only its
summands as composition factors. The computations these facts made
redundant are kept here as oracles and must agree with the fast paths on
every gallery algebra: the pairwise-intertwiner grouping, the
composition-factor refined closure, the minimal-finite-part closed-form
search, the meet of every point set behind the Zariski family's
Chinese-remainder dimensions, the Birkhoff point closure and three-family
comparison behind the ``point-closure`` and ``compare`` listings, the
per-factor radical and the per-subfamily deletion fold."""

import itertools
import sys

import pytest

from irrtop import cli, embeddings, meataxe
from irrtop.algebra import Ideal
from irrtop.docs import Doc, parse_report
from irrtop.embeddings import ProductFamily, deletion_stability
from irrtop.linalg import Subspace
from irrtop.meataxe import composition_factors, group_factors, is_isomorphic_simple, jacobson_radical
from irrtop.modules import annihilator, direct_sum, regular_module
from irrtop.pointclosure import FiniteSpace, point_closure
from irrtop.presets import commutative_split, gallery, upper_triangular
from irrtop.topology import (
    IrrPoint,
    IrrSpace,
    enumerate_irr,
    refined_closure,
    verify_closed_form,
    zariski_closed_family,
)

from test_check_matrices import intersect_fold

SEEDS = range(3)


# --- oracles: the computations the theorems made redundant ----------------


def group_factors_oracle(factors):
    """Pairwise intertwiner test against every group found so far."""
    groups = []
    for f in factors:
        for i, (rep, cnt) in enumerate(groups):
            if is_isomorphic_simple(rep, f) is not None:
                groups[i] = (rep, cnt + 1)
                break
        else:
            groups.append((f, 1))
    return groups


def identify_oracle(space, simple):
    for pt in space.points:
        if pt.dim == simple.n and is_isomorphic_simple(pt.rep, simple) is not None:
            return pt.id
    raise ValueError("simple module matches no enumerated class")


def refined_closure_oracle(space, ids, seed):
    """Grow the set by the classes of the composition factors of the sum of
    its representatives until it stabilizes."""
    current = frozenset(ids)
    for _ in range(len(space) + 1):
        prod = direct_sum(space.algebra, [space.points[i].rep for i in sorted(current)])
        grown = current | {identify_oracle(space, f) for f in composition_factors(prod, seed)}
        if grown == current:
            return current
        current = grown
    raise AssertionError("refined closure failed to stabilize within the point count")


def closed_sets_oracle(space):
    """Every meet of point annihilators, found by intersecting each found
    meet with every annihilator, mapped to its vanishing point set."""
    found = {}
    work = [Subspace.full(space.algebra.dim, space.algebra.p)]
    while work:
        sub = work.pop()
        if sub in found:
            continue
        found[sub] = frozenset(pt.id for pt in space.points if pt.ann.subspace.contains_space(sub))
        work.extend(sub.intersect(pt.ann.subspace) for pt in space.points)
    return found


def verify_closed_form_oracle(space, ids, seed):
    """Search every vanishing set inside the selection for the smallest
    finite remainder: (refined closure, ideal, vanishing points, finite
    part, whether the ideal is semiprimitive), with None for the last four
    when the selection is not closed or no vanishing set fits inside it."""
    selection = frozenset(ids)
    closure = refined_closure_oracle(space, selection, seed)
    if closure != selection:
        return closure, None, None, None, None
    best = None
    for sub, vpts in closed_sets_oracle(space).items():
        if not vpts <= selection:
            continue
        f = selection - vpts
        key = (len(f), sorted(f), sorted(space.all_ids() - vpts))
        if best is None or key < best[0]:
            best = (key, sub, vpts, f)
    if best is None:
        return closure, None, None, None, None
    _, sub, vpts, f = best
    meet = space.ann_meet([pt.id for pt in space.points if pt.ann.subspace.contains_space(sub)])
    return closure, sub, vpts, frozenset(f), meet == sub


def _ids(ids):
    return " ".join(map(str, sorted(ids)))


def zariski_point_closure_oracle(space):
    """The point closure of the Zariski family as an explicit finite space,
    by Birkhoff's generators."""
    family = frozenset(zariski_closed_family(space))
    return point_closure(FiniteSpace(tuple(pt.id for pt in space.points), family))


def point_closure_report_oracle(space):
    """The ``point-closure`` report of an algebra from its finite space."""
    pairs = zariski_point_closure_oracle(space).pairs
    result = Doc().add("space", "finite").add("points", _ids(space.all_ids())).add("count", len(pairs))
    for pair in pairs:
        result.node("pair").add("closed_part", _ids(pair.c)).add("finite_part", _ids(pair.f))
    return result


def compare_report_oracle(space):
    """The ``compare`` report from the three families computed apart: the
    Zariski family, the point sets of the finite space's point closure, and
    the fixed points of the refined closure."""
    family = zariski_closed_family(space)
    zar = set(family)
    pc = zariski_point_closure_oracle(space).point_sets()
    refined = {ids for ids in _subsets(len(space)) if refined_closure(space, ids) == ids}
    discrete = len(zar) == len(pc) == len(refined) == 2 ** len(space)
    all_equal = zar == pc == refined
    result = Doc().add("zariski_count", len(zar)).add("point_closure_count", len(pc)).add("refined_count", len(refined))
    result.add("all_equal", str(all_equal).lower()).add("discrete", str(discrete).lower())
    if all_equal and discrete:
        result.add("summary", f"zariski = refined = point-closure = discrete ({len(zar)} closed sets)")
    elif all_equal:
        result.add("summary", f"zariski = refined = point-closure ({len(zar)} closed sets)")
    else:
        result.add("summary", "topologies differ")
    for ids in sorted(zar | pc | refined, key=lambda s: (len(s), sorted(s))):
        node = result.node("closed_set").add("points", _ids(ids))
        tags = [name for name, fam in (("zariski", zar), ("refined", refined), ("point-closure", pc)) if ids in fam]
        node.add("tags", " ".join(tags))
        if ids in family:
            node.add("ideal_dim", family[ids]).add("v_points", _ids(ids)).add("finite_part", "")
    return result


def jacobson_radical_oracle(a, seed):
    """One checked annihilator per composition factor."""
    sub = Subspace.full(a.dim, a.p)
    for f in composition_factors(regular_module(a), seed):
        sub = sub.intersect(annihilator(a, f).subspace)
    return sub


def deletion_stability_oracle(fam, target, t):
    """Fold the kept annihilators afresh for every subfamily."""
    a = fam.algebra
    anns = [annihilator(a, f).subspace for f in fam.factors]
    failures = []
    checked = 0
    idx = range(len(fam.factors))
    for k in range(t + 1):
        for deleted in itertools.combinations(idx, k):
            sub = Subspace.full(a.dim, a.p)
            for i in idx:
                if i not in deleted:
                    sub = sub.intersect(anns[i])
            checked += 1
            if sub != target.subspace:
                failures.append((deleted, sub.dim))
    return not failures, checked, tuple(failures)


def _subsets(n):
    return [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(2**n)]


# --- the fast paths against the oracles -------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_grouping_matches_pairwise_intertwiners(seed):
    for a in gallery():
        reg = regular_module(a)
        reps = [pt.rep for pt in enumerate_irr(a).points]
        for m in (reg, direct_sum(a, [reg] + reps + reps[::-1])):
            factors = composition_factors(m, seed)
            got, want = list(group_factors(factors).values()), group_factors_oracle(factors)
            assert [cnt for _, cnt in got] == [cnt for _, cnt in want], a.name
            assert all(r is w for (r, _), (w, _) in zip(got, want)), a.name


@pytest.mark.parametrize("seed", SEEDS)
def test_identify_matches_intertwiner_oracle(seed):
    for a in gallery():
        space = enumerate_irr(a)
        for f in composition_factors(regular_module(a), seed):
            assert space.identify(f) == identify_oracle(space, f), a.name


def test_identify_rejects_a_module_over_another_algebra():
    space = enumerate_irr(upper_triangular(2, 2))
    twin = enumerate_irr(upper_triangular(2, 2))
    with pytest.raises(ValueError, match="another algebra"):
        space.identify(twin.points[0].rep)


@pytest.mark.parametrize("seed", SEEDS)
def test_refined_closure_matches_composition_factor_oracle(seed):
    for a in gallery():
        space = enumerate_irr(a)
        for ids in _subsets(len(space)):
            assert refined_closure(space, ids) == refined_closure_oracle(space, ids, seed) == ids, a.name


def test_refined_closure_rejects_ids_outside_the_space():
    space = enumerate_irr(upper_triangular(2, 2))
    with pytest.raises(ValueError):
        refined_closure(space, {0, 2})
    with pytest.raises(ValueError):
        verify_closed_form(space, {5})


@pytest.mark.parametrize("seed", SEEDS)
def test_closed_form_matches_minimal_finite_part_search(seed):
    for a in gallery():
        space = enumerate_irr(a)
        for ids in _subsets(len(space)):
            got = verify_closed_form(space, ids)
            # The search confirms what verify-form prints as constants: the
            # selection is closed, its own vanishing set, with no finite
            # part and a semiprimitive ideal.
            want = (ids, got.ideal_subspace, ids, frozenset(), True)
            assert got.selection == ids
            assert verify_closed_form_oracle(space, ids, seed) == want, (a.name, sorted(ids))


def test_zariski_family_dimensions_match_every_meet():
    for a in gallery():
        space = enumerate_irr(a)
        family = zariski_closed_family(space)
        assert list(family) == sorted(_subsets(len(space)), key=lambda s: (len(s), sorted(s))), a.name
        anns = [pt.ann.subspace for pt in space.points]
        for ids, dim in family.items():
            assert dim == space.ann_meet(ids).dim == intersect_fold(a, [anns[i] for i in ids]).dim, (a.name, ids)
        assert {ids: meet.dim for meet, ids in closed_sets_oracle(space).items()} == family, a.name


@pytest.mark.parametrize("a", gallery() + [commutative_split(n, 2) for n in range(1, 13)], ids=lambda a: a.name)
def test_class_space_listings_match_the_finite_space_oracle(tmp_path, monkeypatch, a):
    # The listings print the Zariski family as the power set; the oracles
    # build the finite space and compare the three families it was taken for.
    monkeypatch.setattr(cli, "_algebra_from_text", lambda text: a)
    alg = tmp_path / "a.alg"
    alg.write_text("# read as `a` through the patched _algebra_from_text\n")
    space = enumerate_irr(a)
    for command, oracle in (("point-closure", point_closure_report_oracle), ("compare", compare_report_oracle)):
        code, out = cli.run([command, "--in", str(alg), "--format", "structured"])
        report, diags = parse_report(out)
        assert code == 0 and not diags, (a.name, command)
        assert report.get("result") == oracle(space), (a.name, command)


@pytest.mark.parametrize("seed", SEEDS)
def test_radical_matches_per_factor_intersection(seed):
    for a in gallery():
        assert jacobson_radical(a).subspace == jacobson_radical_oracle(a, seed), a.name


def _counting(monkeypatch, name):
    """Replace every irrtop binding of `name` by a counting wrapper."""
    calls = []
    for modname, mod in list(sys.modules.items()):
        if (modname == "irrtop" or modname.startswith("irrtop.")) and hasattr(mod, name):
            inner = getattr(mod, name)

            def counted(*args, _inner=inner, **kwargs):
                calls.append(name)
                return _inner(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
    return calls


def test_fast_paths_never_test_isomorphism_or_build_sums(monkeypatch):
    iso = _counting(monkeypatch, "is_isomorphic_simple")
    sums = _counting(monkeypatch, "direct_sum")
    for a in gallery():
        space = enumerate_irr(a)
        for pt in space.points:
            assert space.identify(pt.rep) == pt.id
        for ids in _subsets(len(space)):
            refined_closure(space, ids)
            verify_closed_form(space, ids)
    assert iso == [] and sums == []
    # The counters do see calls made through the package.
    meataxe.is_isomorphic_simple(space.points[0].rep, space.points[0].rep)
    assert iso == ["is_isomorphic_simple"]


def _fabricated_space():
    """simple#0 of upper_triangular(2, 2) beside its regular module, which
    is not simple: the two annihilators are not comaximal."""
    a = upper_triangular(2, 2)
    reg = regular_module(a)
    first = enumerate_irr(a).points[0]
    return IrrSpace(a, (first, IrrPoint(1, reg.n, annihilator(a, reg))))


def test_chinese_remainder_self_check_rejects_a_non_simple_point():
    with pytest.raises(AssertionError, match="Chinese remainder"):
        zariski_closed_family(_fabricated_space())
    with pytest.raises(AssertionError, match="Chinese remainder"):
        verify_closed_form(_fabricated_space(), {0, 1})
    # A set on which the identity holds still passes.
    assert verify_closed_form(_fabricated_space(), {1}).ideal_subspace.is_zero


def test_deletion_stability_matches_per_subfamily_fold():
    a = upper_triangular(2, 2)
    s1, s2 = (pt.rep for pt in enumerate_irr(a).points)
    reg = regular_module(a)
    families = [
        (s1, s2),
        (s1, s1, s2, reg),
        (reg,) * 5,
        (s1,) * 4 + (s2,) * 3,
        (s2, reg, s1, s2, s1),
    ]
    targets = [
        Ideal(a, Subspace.zero(a.dim, a.p), "two-sided"),
        jacobson_radical(a, 0),
        annihilator(a, s1),
    ]
    for factors in families:
        fam = ProductFamily(a, factors)
        for target, t in itertools.product(targets, range(min(3, len(factors)))):
            rep = deletion_stability(fam, target, t)
            assert (rep.ok, rep.checked, rep.failures) == deletion_stability_oracle(fam, target, t)


def test_deletion_stability_meets_each_distinct_kept_set_once(monkeypatch):
    """One kernel of stacked check matrices per distinct kept set, and no
    pairwise intersection."""
    a = upper_triangular(2, 2)
    reg = regular_module(a)
    calls = []
    meet_all = embeddings._meet_all

    def counted(subspaces, d, p):
        calls.append(len(subspaces))
        return meet_all(subspaces, d, p)

    def refused(self, other):
        raise AssertionError("Subspace.intersect called")

    monkeypatch.setattr(embeddings, "_meet_all", counted)
    monkeypatch.setattr(Subspace, "intersect", refused)
    rep = deletion_stability(ProductFamily(a, (reg,) * 17), Ideal(a, Subspace.zero(a.dim, a.p), "two-sided"), 2)
    assert rep.ok and rep.checked == 1 + 17 + 136
    assert calls == [1]
