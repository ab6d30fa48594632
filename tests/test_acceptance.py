"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is exact (no tolerances) and oracle- or property-based; each
criterion also enforces its wall-clock budget.

Run with: pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np

from irrtop.algebra import Ideal
from irrtop.cli import run
from irrtop.docs import parse_algebra, parse_family
from irrtop.embeddings import (
    ProductFamily,
    chain_product_embedding,
    find_embedding,
    staged_product_embedding,
    sufficiency_check,
)
from irrtop.linalg import Subspace
from irrtop.meataxe import composition_factors, jacobson_radical, split
from irrtop.modules import regular_module, spin, sub_quotient
from irrtop.oracles import (
    all_topologies,
    brute_force_point_closure,
    brute_force_split,
    chain_bound,
    is_isomorphic_simple,
    is_semiprimitive,
    longest_submodule_chain,
    random_topology,
)
from irrtop.pointclosure import (
    FiniteSpace,
    pair_point_set,
    pc_intersect,
    pc_union,
    point_closure,
    weyl_model,
)
from irrtop.presets import gallery, matrix_algebra, upper_triangular
from irrtop.topology import enumerate_irr, refined_closure, vanishing_set, verify_closed_form, zariski_closed_family


class Criterion:
    def __init__(self, num, desc, budget_s):
        self.num = num
        self.desc = desc
        self.budget = budget_s
        self.t0 = time.perf_counter()

    def finish(self, ok):
        elapsed = time.perf_counter() - self.t0
        in_budget = elapsed <= self.budget
        verdict = "PASS" if (ok and in_budget) else "FAIL"
        print(f"{verdict} criterion {self.num}: {self.desc} ({elapsed:.1f}s / {self.budget:.0f}s)")
        assert ok, f"criterion {self.num} failed"
        assert in_budget, f"criterion {self.num} exceeded its {self.budget}s budget ({elapsed:.1f}s)"


def _pair_ops_match(fin, pairs, rng, rounds=6):
    n = len(fin.points)
    for _ in range(rounds):
        k = int(rng.integers(1, 4))
        sel = [pairs[int(rng.integers(0, len(pairs)))] for _ in range(k)]
        want_i = frozenset(fin.points)
        want_u = frozenset()
        for q in sel:
            want_i &= pair_point_set(q)
            want_u |= pair_point_set(q)
        if pair_point_set(pc_intersect(sel)) != want_i:
            return False
        if pair_point_set(pc_union(sel)) != want_u:
            return False
    return True


def test_criterion_1_point_closure_oracle_equivalence():
    c = Criterion(1, "point closure equals brute-force oracle; pair ops equal set ops", 60)
    ok = True
    rng = np.random.default_rng(1)
    for n in range(1, 5):
        for fam in all_topologies(n):
            fin = FiniteSpace.make(range(n), fam)
            pc = point_closure(fin)
            ok &= pc.point_sets() == brute_force_point_closure(range(n), fam)
            ok &= _pair_ops_match(fin, list(pc.pairs), rng, rounds=2)
    for n in (5, 6):
        for _ in range(100):
            fam = random_topology(n, rng)
            fin = FiniteSpace.make(range(n), fam)
            pc = point_closure(fin)
            ok &= pc.point_sets() == brute_force_point_closure(range(n), fam)
            ok &= _pair_ops_match(fin, list(pc.pairs), rng)
    c.finish(ok)


def test_criterion_2_weyl_model_finite_complement():
    c = Criterion(2, "trivial-family symbolic space closes to the finite-complement topology", 1)
    wm = weyl_model(3)
    fam = point_closure(wm)
    got = {(q.c, q.f) for q in fam.pairs}
    want = {("ALL", frozenset())} | {
        ("EMPTY", frozenset(f"q{i}" for i in range(3) if mask >> i & 1)) for mask in range(8)
    }
    c.finish(got == want)


def test_criterion_3_refined_equals_zariski_on_presets():
    c = Criterion(3, "refined closure is trivial and all three topologies are discrete on presets", 120)
    ok = True
    for a in gallery():
        space = enumerate_irr(a)
        n = len(space.points)
        ok &= n <= 8
        subsets = [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(2**n)]
        for ids in subsets:
            ok &= refined_closure(space, ids) == ids
        zar = set(zariski_closed_family(space))
        ok &= zar == set(subsets)  # Zariski discrete
        fin = FiniteSpace.make(range(n), zar)
        ok &= point_closure(fin).point_sets() == frozenset(subsets)
    c.finish(ok)


def test_criterion_4_closed_form_decomposition():
    c = Criterion(4, "every refined-closed set decomposes as vanishing set plus finite set", 60)
    ok = True
    for a in gallery():
        space = enumerate_irr(a)
        n = len(space.points)
        for mask in range(2**n):
            ids = frozenset(i for i in range(n) if mask >> i & 1)
            rep = verify_closed_form(space, ids)
            ideal = Ideal(a, rep.ideal_subspace, "two-sided")
            # The selection is the whole vanishing set of its ideal: the
            # finite part is empty.
            ok &= rep.selection == ids and vanishing_set(space, ideal).point_ids == ids
            ok &= is_semiprimitive(a, ideal)
    c.finish(ok)


def _meataxe_corpus(cap):
    mods = []
    for a in gallery():
        reg = regular_module(a)
        if a.p**reg.n <= cap:
            mods.append(reg)
        for f in composition_factors(reg, 0):
            if a.p**f.n <= cap:
                mods.append(f)
        rad = jacobson_radical(a, 0)
        if not rad.is_zero:
            sub, quot = sub_quotient(reg, spin(reg, rad.subspace.basis))
            for m in (sub, quot):
                if m.n and a.p**m.n <= cap:
                    mods.append(m)
    return mods


def test_criterion_5_meataxe_against_brute_force():
    c = Criterion(5, "split matches brute force across seeds; factor multisets seed-independent", 120)
    ok = True
    corpus = _meataxe_corpus(512)
    for m in corpus:
        want = brute_force_split(m).irreducible
        for seed in range(5):
            ok &= split(m, seed).irreducible == want
    for m in corpus:
        base = composition_factors(m, 0)
        for seed in range(1, 5):
            other = composition_factors(m, seed)
            if sorted(f.n for f in base) != sorted(f.n for f in other):
                ok = False
                continue
            remaining = list(other)
            for f in base:
                for i, g in enumerate(remaining):
                    if f.n == g.n and is_isomorphic_simple(f, g) is not None:
                        remaining.pop(i)
                        break
                else:
                    ok = False
            ok &= not remaining
    c.finish(ok)


def test_criterion_6_staged_construction():
    c = Criterion(6, "staged construction succeeds where exhaustive search certifies a witness", 30)
    ok = True
    ut2 = upper_triangular(2, 2)
    sp = enumerate_irr(ut2)
    s1, s2 = sp.points[0].rep, sp.points[1].rep
    reg = regular_module(ut2)
    m2 = matrix_algebra(2, 2)
    sm = enumerate_irr(m2).points[0].rep
    regm = regular_module(m2)
    # Each stage must consume fresh factors, so every family carries at
    # least one factor per basis slab.
    cases = [
        (ProductFamily(ut2, (s1, reg, reg)), None),
        (ProductFamily(ut2, (s1, s2, reg, reg)), None),
        (ProductFamily(ut2, (reg, reg, reg)), None),
        (ProductFamily(m2, tuple([sm] * 6)), (0, 2, 1, 3)),
        (ProductFamily(m2, (sm, sm, regm, regm)), (0, 2, 1, 3)),
    ]
    for fam, order in cases:
        a = fam.algebra
        zero = Ideal(a, Subspace.zero(a.dim, a.p), "two-sided")
        certified = find_embedding(fam, zero, 0)
        ok &= fam.state_count() <= 4096 and certified.status == "found"
        witness, trace = staged_product_embedding(fam, basis_order=order, seed=0)
        ok &= trace.outcome == "witness" and witness is not None
        if witness is None:
            continue
        ok &= witness.valid and witness.ann.is_zero and witness.orbit_dim == a.dim
        for rec in trace.stages:
            dims = [rec.start_dim] + [p.blocked_dim_after for p in rec.picks]
            ok &= all(x > y for x, y in zip(dims, dims[1:])) and dims[-1] == 0
    c.finish(ok)


def test_criterion_7_chain_construction():
    c = Criterion(7, "guaranteed chain construction succeeds; faithless families stall as predicted", 30)
    ok = True
    for a in [upper_triangular(2, 2), matrix_algebra(2, 2), gallery()[7], gallery()[12]]:
        reg = regular_module(a)
        bound = chain_bound(reg, 0)
        fam = ProductFamily(a, tuple([reg] * bound))
        rep = sufficiency_check(a, fam)
        ok &= rep.guaranteed
        witness, trace = chain_product_embedding(fam, 0)
        ok &= trace.outcome == "witness" and witness is not None and witness.valid
        dims = [s.l_dim_after for s in trace.steps if s.accepted]
        ok &= all(x > y for x, y in zip(dims, dims[1:]))
    ut2 = upper_triangular(2, 2)
    s1 = enumerate_irr(ut2).points[0].rep
    witness, trace = chain_product_embedding(ProductFamily(ut2, (s1, s1, s1, s1)), 0)
    ok &= witness is None and trace.outcome == "failure"
    ok &= trace.final_l == Subspace.from_rows([[0, 1, 0], [0, 0, 1]], 2)
    c.finish(ok)


def test_criterion_8_descent_bound_oracle():
    c = Criterion(8, "descent bound (length + 2) matches the submodule-lattice oracle", 60)
    ok = True
    count = 0
    for m in _meataxe_corpus(256):
        ok &= chain_bound(m, 0) == longest_submodule_chain(m) + 1
        count += 1
    ok &= count >= 20
    c.finish(ok)


def test_criterion_9_determinism_and_parser_totality():
    c = Criterion(9, "selftest reruns byte-identically; 1000 mutated inputs never crash the parsers", 60)
    ok = True
    code1, out1 = run(["selftest", "--seed", "0", "--format", "structured"])
    code2, out2 = run(["selftest", "--seed", "0", "--format", "structured"])
    ok &= code1 == 0 and code2 == 0 and out1 == out2
    from test_cli import SAMPLES, FAMILY_TEXT, mutate

    rng = np.random.default_rng(9)
    bases = SAMPLES + [FAMILY_TEXT]
    for i in range(1000):
        text = mutate(bases[int(rng.integers(0, len(bases)))], rng)
        for parser in (parse_algebra, parse_family):
            try:
                doc, diags = parser(text)
            except Exception:
                ok = False
                break
            if doc is None:
                ok &= bool(diags) and all(d.line >= 1 and d.col >= 1 for d in diags)
    c.finish(ok)
