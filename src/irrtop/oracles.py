"""The brute-force and enumeration oracles, and the acceptance criteria.

No command answers with these. Each oracle is the exhaustive or MeatAxe
counterpart of a faster path. ``CRITERIA`` is the ordered registry of the
paper's claims, each checked against its oracle: ``selftest`` runs every
entry at its ``--seed``, and ``tests/test_acceptance.py`` runs each at seed 0
within its wall-clock budget. No production module imports this one: ``cli``
imports it only inside the ``selftest`` handler, so ``import irrtop.cli``
does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import Algebra, Ideal
from .embeddings import (
    ProductFamily,
    chain_product_embedding,
    find_embedding,
    staged_product_embedding,
    sufficiency_check,
)
from .linalg import Subspace, kernel, projective_vectors, rref
from .meataxe import (
    MeatAxeError,
    SplitResult,
    annihilator_meet,
    composition_factors,
    jacobson_radical,
    semisimple_classes,
    split,
)
from .modules import ModuleRep, annihilator, annihilator_subspace, check_module, regular_module, spin, sub_quotient
from .pointclosure import (
    FINITE_POINT_CAP,
    FiniteSpace,
    TopologyError,
    pair_point_set,
    pc_intersect,
    pc_union,
    point_closure,
    weyl_model,
)
from .presets import gallery, matrix_algebra, upper_triangular
from .topology import enumerate_irr, refined_closure, vanishing_set, verify_closed_form, zariski_closed_family

BRUTE_POINT_CAP = 6
BRUTE_CAP = 4096


# --- point closure -----------------------------------------------------------


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
    """Random topology on n points from a sparse random relation. Its
    downsets are those of its reflexive transitive closure, a preorder, so
    the closure is never formed."""
    rel = np.eye(n, dtype=bool)
    edges = rng.integers(0, n * n // 2 + 1)
    for _ in range(int(edges)):
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        rel[i, j] = True
    return _downsets(n, rel)


# --- modules and classes -----------------------------------------------------


def brute_force_split(m: ModuleRep) -> SplitResult:
    """Spin every scalar line of the module; exact but exponential."""
    p, n = m.p, m.n
    if n < 1:
        raise ValueError("cannot split the zero module")
    if p**n > BRUTE_CAP:
        raise MeatAxeError(f"brute-force split refused: {p}^{n} states exceed {BRUTE_CAP}")
    for v in projective_vectors(n, p):
        s = spin(m, [v])
        if s.dim < n:
            return SplitResult(False, s, "brute")
    return SplitResult(True, None, "brute")


def is_isomorphic_simple(m1: ModuleRep, m2: ModuleRep) -> np.ndarray | None:
    """Invertible intertwiner X with act1[i] @ X = X @ act2[i] for all i, or
    None. Meaningful only for simple inputs (any nonzero solution is then
    invertible)."""
    if m1.algebra is not m2.algebra:
        raise ValueError("isomorphism test requires modules over the same algebra")
    if m1.n != m2.n:
        return None
    n, p, d = m1.n, m1.p, m1.algebra.dim
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    blocks = [
        (np.kron(m1.action[i], eye) - np.kron(eye, m2.action[i].T)) % p
        for i in range(d)
    ]
    ker = kernel(np.vstack(blocks), p)
    for row in ker.basis:
        x = row.reshape(n, n)
        _, rank, _ = rref(x, p)
        if rank == n:
            return x
    return None


def group_factors(factors: list[ModuleRep]) -> dict[Subspace, tuple[ModuleRep, int]]:
    """Group a list of simple modules by isomorphism class: one dict pass
    keyed on the annihilator subspace, one ``annihilator_subspace`` kernel
    per module, mapping to the first-found representative and the count, in
    first-found order."""
    groups: dict[Subspace, tuple[ModuleRep, int]] = {}
    for f in factors:
        key = annihilator_subspace(f)
        rep, cnt = groups.get(key, (f, 0))
        groups[key] = (rep, cnt + 1)
    return groups


def simple_classes(a: Algebra, seed: int = 0) -> list[tuple[ModuleRep, Ideal]]:
    """One representative per simple class of the regular module, in
    first-found order, with its annihilator: the grouping kernel itself,
    self-checked once."""
    factors = composition_factors(regular_module(a), seed)
    return [(rep, annihilator(a, rep, key)) for key, (rep, _) in group_factors(factors).items()]


def is_semiprimitive(a: Algebra, ideal: Ideal) -> bool:
    """True iff the ideal is an intersection of simple-module annihilators:
    the meet of the class annihilators containing it; the empty meet is the
    whole algebra."""
    anns = [ann.subspace for _, ann in semisimple_classes(a)]
    return annihilator_meet(a, [s for s in anns if s.contains_space(ideal.subspace)]) == ideal.subspace


# --- descent bounds ----------------------------------------------------------


def chain_bound(m: ModuleRep, seed: int = 0) -> int:
    """Composition length plus two: one more than the number of terms in the
    longest strictly descending chain of submodules, for any module, from a
    seeded MeatAxe composition series. The regular module's length needs no
    series (``meataxe.regular_length``, from the Loewy layers), and a simple
    module's is 1; this is their test oracle."""
    return len(composition_factors(m, seed)) + 2


def submodule_lattice(m: ModuleRep, state_cap: int = 4096) -> list[Subspace]:
    """All submodules: cyclic spins of every scalar line, closed under
    sums."""
    p, n = m.p, m.n
    if p**n > state_cap:
        raise ValueError(f"submodule enumeration refused beyond {state_cap} states")
    found: dict = {}
    zero = Subspace.zero(n, p)
    found[zero.key()] = zero
    cyclics = []
    for v in projective_vectors(n, p):
        s = spin(m, [v])
        if s.key() not in found:
            found[s.key()] = s
            cyclics.append(s)
    work = list(found.values())
    while work:
        s = work.pop()
        for c in cyclics:
            u = s.add(c)
            if u.key() not in found:
                found[u.key()] = u
                work.append(u)
    return sorted(found.values(), key=lambda s: (s.dim, s.key()))


def longest_submodule_chain(m: ModuleRep) -> int:
    """Number of terms in the longest strictly descending submodule chain
    (oracle by exhaustive lattice enumeration)."""
    subs = submodule_lattice(m)
    best = [1] * len(subs)
    for i, s in enumerate(subs):
        for j in range(i):
            t = subs[j]
            if t.dim < s.dim and s.contains_space(t):
                best[i] = max(best[i], best[j] + 1)
    return max(best) if best else 1


# --- the acceptance criteria -------------------------------------------------


@dataclass(frozen=True)
class Criterion:
    """One claim of the paper checked against its oracle; ``check(seed)`` is
    the verdict, and ``budget_s`` bounds its wall-clock time at seed 0."""

    name: str
    desc: str
    budget_s: float
    check: Callable[[int], bool]


CRITERIA: list[Criterion] = []


def _criterion(name: str, desc: str, budget_s: float):
    """Register the decorated check as the next criterion."""

    def register(check: Callable[[int], bool]):
        CRITERIA.append(Criterion(name, desc, budget_s, check))
        return check

    return register


def selftest_checks(seed: int) -> list[tuple[str, bool]]:
    """Each criterion's name with its verdict at the seed, in order."""
    return [(c.name, bool(c.check(seed))) for c in CRITERIA]


def _subsets(n: int) -> list[frozenset]:
    return [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(2**n)]


def _closure_matches(n: int, fam: frozenset, rng: np.random.Generator, rounds: int) -> bool:
    """The point closure of the topology fam on n points equals the
    brute-force oracle, and on rounds random selections of one to three
    pairs, the pair meet and join denote the meet and join of their sets."""
    pc = point_closure(FiniteSpace(tuple(range(n)), fam))
    ok = pc.point_sets() == brute_force_point_closure(range(n), fam)
    pairs = list(pc.pairs)
    for _ in range(rounds):
        sel = [pairs[int(rng.integers(0, len(pairs)))] for _ in range(int(rng.integers(1, 4)))]
        sets = [pair_point_set(q) for q in sel]
        ok &= pair_point_set(pc_intersect(sel)) == frozenset(range(n)).intersection(*sets)
        ok &= pair_point_set(pc_union(sel)) == frozenset().union(*sets)
    return ok


@_criterion("point-closure-matches-oracle", "point closure equals brute-force oracle; pair ops equal set ops", 60)
def _point_closure_matches_oracle(seed: int) -> bool:
    rng = np.random.default_rng(seed)
    ok = True
    for n in range(1, 5):
        for fam in all_topologies(n):
            ok &= _closure_matches(n, fam, rng, rounds=2)
    for n in (5, 6):
        for _ in range(100):
            ok &= _closure_matches(n, random_topology(n, rng), rng, rounds=6)
    return ok


@_criterion(
    "weyl-model-finite-complement", "trivial-family symbolic space closes to the finite-complement topology", 1
)
def _weyl_model_finite_complement(seed: int) -> bool:
    # The seed picks the number of named points: 3 at seed 0, at most the cap.
    n = 3 + seed % (FINITE_POINT_CAP - 2)
    pairs = point_closure(weyl_model(n)).pairs
    want = {("ALL", frozenset())} | {("EMPTY", frozenset(f"q{i}" for i in ids)) for ids in _subsets(n)}
    return len(pairs) == len(want) and {(q.c, q.f) for q in pairs} == want


@_criterion(
    "refined-equals-zariski-on-presets",
    "refined closure is trivial and all three topologies are discrete on presets",
    120,
)
def _refined_equals_zariski_on_presets(seed: int) -> bool:
    ok = True
    for a in gallery():
        space = enumerate_irr(a)
        n = len(space.points)
        # The points are the simple classes that the MeatAxe finds at the seed.
        classes = sorted((rep.n, ann.subspace.key()) for rep, ann in simple_classes(a, seed))
        ok &= n <= 8 and classes == sorted((pt.dim, pt.ann.subspace.key()) for pt in space.points)
        subsets = _subsets(n)
        ok &= all(refined_closure(space, ids) == ids for ids in subsets)
        zar = frozenset(zariski_closed_family(space))
        ok &= zar == frozenset(subsets)  # Zariski discrete
        ok &= point_closure(FiniteSpace(tuple(range(n)), zar)).point_sets() == zar
    return ok


@_criterion("closed-form-decomposition", "every refined-closed set decomposes as vanishing set plus finite set", 60)
def _closed_form_decomposition(seed: int) -> bool:
    ok = True
    for a in gallery():
        space = enumerate_irr(a)
        anns = [ann.subspace for _, ann in simple_classes(a, seed)]
        for ids in _subsets(len(space.points)):
            rep = verify_closed_form(space, ids)
            ideal = rep.ideal_subspace
            # The selection is the whole vanishing set of its ideal, so the
            # finite part is empty; and the ideal is semiprimitive, the meet
            # of the MeatAxe class annihilators that contain it.
            ok &= rep.selection == ids and vanishing_set(space, Ideal(a, ideal, "two-sided")).point_ids == ids
            ok &= annihilator_meet(a, [s for s in anns if s.contains_space(ideal)]) == ideal
    return ok


def _meataxe_corpus(cap: int, seed: int) -> list[ModuleRep]:
    """Modules of the gallery with at most cap vectors: regular modules,
    their composition factors at the seed, and the radical's submodule and
    quotient."""
    mods = []
    for a in gallery():
        reg = regular_module(a)
        rad = jacobson_radical(a)
        parts = sub_quotient(reg, spin(reg, rad.subspace.basis)) if not rad.is_zero else ()
        for m in (reg, *composition_factors(reg, seed), *parts):
            if m.n and a.p**m.n <= cap:
                mods.append(m)
    return mods


def _same_factors(base: list[ModuleRep], other: list[ModuleRep]) -> bool:
    """The two lists of simple modules agree up to isomorphism, with
    multiplicity."""
    remaining = list(other)
    for f in base:
        match = next((i for i, g in enumerate(remaining) if is_isomorphic_simple(f, g) is not None), None)
        if match is None:
            return False
        remaining.pop(match)
    return not remaining


@_criterion(
    "meataxe-agrees-with-brute-force",
    "split matches brute force across seeds; factor multisets seed-independent; every module satisfies the axioms",
    120,
)
def _meataxe_agrees_with_brute_force(seed: int) -> bool:
    ok = True
    for m in _meataxe_corpus(512, seed):
        want = brute_force_split(m).irreducible
        ok &= all(split(m, s).irreducible == want for s in range(seed, seed + 5))
        # The factors at the other seeds are isomorphic to these, so they
        # satisfy the module axioms too.
        base = composition_factors(m, seed)
        ok &= not any(check_module(f) for f in (m, *base))
        ok &= all(_same_factors(base, composition_factors(m, s)) for s in range(seed + 1, seed + 5))
    return ok


@_criterion(
    "staged-construction-succeeds", "staged construction succeeds where exhaustive search certifies a witness", 30
)
def _staged_construction_succeeds(seed: int) -> bool:
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
        certified = find_embedding(fam, Ideal(a, Subspace.zero(a.dim, a.p), "two-sided"), seed)
        ok &= fam.state_count() <= 4096 and certified.status == "found"
        witness, trace = staged_product_embedding(fam, basis_order=order, seed=seed)
        ok &= trace.outcome == "witness" and witness is not None
        if witness is None:
            continue
        ok &= witness.valid and witness.ann.is_zero and witness.orbit_dim == a.dim
        for rec in trace.stages:
            dims = [rec.start_dim] + [p.blocked_dim_after for p in rec.picks]
            ok &= all(x > y for x, y in zip(dims, dims[1:])) and dims[-1] == 0
    return ok


@_criterion(
    "chain-construction-succeeds",
    "guaranteed chain construction succeeds; faithless families stall as predicted",
    30,
)
def _chain_construction_succeeds(seed: int) -> bool:
    ok = True
    for a in [upper_triangular(2, 2), matrix_algebra(2, 2), gallery()[7], gallery()[12]]:
        reg = regular_module(a)
        fam = ProductFamily(a, tuple([reg] * chain_bound(reg, seed)))
        ok &= sufficiency_check(a, fam).guaranteed
        witness, trace = chain_product_embedding(fam, seed)
        ok &= trace.outcome == "witness" and witness is not None and witness.valid
        dims = [s.l_dim_after for s in trace.steps if s.accepted]
        ok &= all(x > y for x, y in zip(dims, dims[1:]))
    ut2 = upper_triangular(2, 2)
    s1 = enumerate_irr(ut2).points[0].rep
    witness, trace = chain_product_embedding(ProductFamily(ut2, (s1, s1, s1, s1)), seed)
    ok &= witness is None and trace.outcome == "failure"
    return ok and trace.final_l == Subspace.from_rows([[0, 1, 0], [0, 0, 1]], 2)


@_criterion(
    "descent-bound-matches-lattice-oracle", "descent bound (length + 2) matches the submodule-lattice oracle", 60
)
def _descent_bound_matches_lattice_oracle(seed: int) -> bool:
    corpus = _meataxe_corpus(256, seed)
    return len(corpus) >= 20 and all(chain_bound(m, seed) == longest_submodule_chain(m) + 1 for m in corpus)
