"""The brute-force and enumeration oracles, and the checks of ``selftest``.

No command answers with these. Each is the exhaustive or MeatAxe
counterpart of a faster path; the tests compare the two, and ``selftest``
runs a bounded set of the comparisons. No production module
imports this one: ``cli`` imports it only inside the ``selftest`` handler, so
``import irrtop.cli`` does not load it.
"""

from __future__ import annotations

import numpy as np

from . import docs as docsmod
from .algebra import Algebra, Ideal, product_space, quotient_algebra, validate_algebra
from .embeddings import (
    ProductFamily,
    chain_product_embedding,
    deletion_stability,
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
    regular_length,
    semisimple_classes,
    split,
)
from .modules import ModuleRep, annihilator, annihilator_subspace, check_module, direct_sum, regular_module, spin, sub_quotient
from .pointclosure import FiniteSpace, TopologyError, chain_stabilize, pc_intersect, point_closure, weyl_model
from .presets import commutative_split, cyclic_group_table, gallery, group_algebra, matrix_algebra, upper_triangular
from .topology import enumerate_irr

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


# --- selftest ----------------------------------------------------------------


def selftest_checks(seed: int) -> list[tuple[str, bool]]:
    """The named checks of ``selftest`` in order, each with its verdict. The
    seed feeds the random inputs and every MeatAxe run."""
    rng = np.random.default_rng(seed)

    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool):
        checks.append((name, bool(ok)))

    # exact linear algebra laws on random small matrices
    ok_rref = ok_kernel = ok_dims = True
    for p in (2, 3, 5):
        for _ in range(20):
            m = rng.integers(0, p, size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
            r, rank, piv = rref(m, p)
            r2, rank2, _ = rref(r, p)
            ok_rref &= (r == r2).all() and rank == rank2
            ok_kernel &= kernel(m, p).dim + rank == m.shape[1]
            u = Subspace.from_rows(rng.integers(0, p, size=(2, 4)), p, ambient=4)
            v = Subspace.from_rows(rng.integers(0, p, size=(2, 4)), p, ambient=4)
            ok_dims &= u.dim + v.dim == u.add(v).dim + u.intersect(v).dim
    check("rref-idempotent", ok_rref)
    check("kernel-rank-dimension", ok_kernel)
    check("subspace-dimension-formula", ok_dims)

    small = [
        matrix_algebra(2, 2),
        upper_triangular(2, 2),
        commutative_split(3, 2),
        group_algebra(cyclic_group_table(4), 2, name="group_algebra(C4,2)"),
    ]
    check("presets-valid", all(not validate_algebra(a) for a in gallery()))
    broken = matrix_algebra(2, 2)
    lam = np.array(broken.mul)
    lam[0, 0, 1] = (lam[0, 0, 1] + 1) % broken.p
    corrupted = Algebra(broken.p, broken.dim, lam, broken.one, name="corrupted")
    check("validator-detects-corruption", bool(validate_algebra(corrupted)))

    ok_split = True
    ok_axioms = True
    for a in small:
        reg = regular_module(a)
        for s in (seed, seed + 1):
            factors = composition_factors(reg, s)
            ok_axioms &= all(not check_module(f) for f in factors)
            for f in factors:
                ok_split &= split(f, s).irreducible and brute_force_split(f).irreducible
        res = split(reg, seed)
        if res.submodule is not None:
            sub, quot = sub_quotient(reg, res.submodule)
            ok_axioms &= not check_module(sub) and not check_module(quot)
    check("meataxe-agrees-with-brute-force", ok_split)
    check("produced-modules-satisfy-axioms", ok_axioms)

    ok_rad = True
    for a in small:
        rad = jacobson_radical(a)
        power = rad.subspace
        steps = 0
        while power.dim and steps <= a.dim:
            power = product_space(a, power, rad.subspace)
            steps += 1
        ok_rad &= power.dim == 0
        if not rad.is_zero and not rad.is_whole:
            q, _ = quotient_algebra(a, rad)
            ok_rad &= jacobson_radical(q).is_zero
        # The classes come from A/J; the MeatAxe classes, whose meet is the
        # radical, cross-check both.
        blocks = sorted((dim, ann.subspace.key()) for dim, ann in semisimple_classes(a))
        ok_rad &= blocks == sorted((rep.n, ann.subspace.key()) for rep, ann in simple_classes(a, seed))
    check("radical-nilpotent-and-semiprimitive-quotient", ok_rad)

    ok_ann = True
    for a in small[:2]:
        space = enumerate_irr(a)
        mods = [pt.rep for pt in space.points] + [regular_module(a)]
        ds = direct_sum(a, mods)
        meet = Subspace.full(a.dim, a.p)
        for mm in mods:
            meet = meet.intersect(annihilator(a, mm).subspace)
        ok_ann &= annihilator(a, ds).subspace == meet
    check("annihilator-of-sum-is-meet", ok_ann)

    # Jordan-Hoelder, which refined_closure relies on: a sum of distinct
    # simples has exactly its summands as factors, each once.
    ok_fbn = True
    for a in small:
        space = enumerate_irr(a)
        n = len(space.points)
        for mask in range(2**n):
            ids = frozenset(i for i in range(n) if mask >> i & 1)
            prod = direct_sum(a, [space.points[i].rep for i in sorted(ids)])
            factors = composition_factors(prod, seed)
            hits = [pt.id for f in factors for pt in space.points if is_isomorphic_simple(pt.rep, f) is not None]
            ok_fbn &= sorted(hits) == sorted(ids)
    check("refined-closure-trivial-on-presets", ok_fbn)

    ok_pc = True
    count = 0
    for fam in all_topologies(3):
        fin = FiniteSpace(tuple(range(3)), fam)
        got = point_closure(fin).point_sets()
        want = brute_force_point_closure(range(3), fam)
        ok_pc &= got == want
        count += 1
    ok_pc &= count == 29
    for _ in range(25):
        fam = random_topology(4, rng)
        fin = FiniteSpace(tuple(range(4)), fam)
        ok_pc &= point_closure(fin).point_sets() == brute_force_point_closure(range(4), fam)
    check("point-closure-matches-oracle", ok_pc)

    ok_chain = True
    fam = random_topology(4, rng)
    fin = FiniteSpace(tuple(range(4)), fam)
    pairs = list(point_closure(fin).pairs)
    for _ in range(10):
        cur = pairs[int(rng.integers(0, len(pairs)))]
        chain = [cur]
        for _ in range(4):
            cur = pc_intersect([cur, pairs[int(rng.integers(0, len(pairs)))]])
            chain.append(cur)
        m_idx = chain_stabilize(chain)  # internally cross-checked vs naive scan
        ok_chain &= 1 <= m_idx <= len(chain)
    check("chain-stabilization-matches-naive-scan", ok_chain)

    wm = weyl_model(3)
    pcw = point_closure(wm)
    ok_weyl = len(pcw.pairs) == 9
    ok_weyl &= sum(1 for q in pcw.pairs if q.c == "ALL") == 1
    ok_weyl &= all(q.f == frozenset() for q in pcw.pairs if q.c == "ALL")
    check("weyl-model-finite-complement", ok_weyl)

    ut2 = upper_triangular(2, 2)
    sp2 = enumerate_irr(ut2)
    s1, s2 = sp2.points[0].rep, sp2.points[1].rep
    famly = ProductFamily(ut2, (s1, s2))
    rad2 = jacobson_radical(ut2)
    drep = deletion_stability(famly, rad2, 1)
    d0 = deletion_stability(famly, rad2, 0)
    check("deletion-stability-example", d0.ok and not drep.ok)

    reg = regular_module(ut2)
    fam3 = ProductFamily(ut2, (s1, s2, reg))
    found = find_embedding(fam3, Ideal(ut2, Subspace.zero(3, 2), "two-sided"), seed=seed)
    check("embedding-search-finds-witness", found.status == "found" and found.witness.valid)
    fam4 = ProductFamily(ut2, (s1, s2, reg, reg))
    w, trace = staged_product_embedding(fam4, seed=seed)
    check("staged-construction-succeeds", w is not None and w.valid)
    wc, ctrace = chain_product_embedding(ProductFamily(ut2, (reg, reg, reg, reg)), seed=seed)
    check("chain-construction-succeeds", wc is not None and wc.valid)
    wf, ftrace = chain_product_embedding(ProductFamily(ut2, (s1, s1, s1)), seed=seed)
    check("chain-construction-fails-without-faithful-factors", wf is None and ftrace.final_l_dim > 0)
    bound = chain_bound(reg, seed)
    guar_fam = ProductFamily(ut2, tuple([reg] * bound))
    suff = sufficiency_check(ut2, guar_fam)
    wg, _ = chain_product_embedding(guar_fam, seed=seed)
    check("sufficiency-guarantee-realized", suff.guaranteed and wg is not None and wg.valid)

    # The bound from the Loewy layers, the MeatAxe series and the lattice.
    ok_bound = True
    for a in (ut2, small[3]):
        reg = regular_module(a)
        want = longest_submodule_chain(reg) + 1
        ok_bound &= chain_bound(reg, seed) == want and regular_length(a) + 2 == want
    check("descent-bound-matches-lattice-oracle", ok_bound)

    sample = "preset: upper_triangular(2, 2)\n"
    adoc, diags = docsmod.parse_algebra(sample)
    ok_round = adoc is not None and not diags
    if ok_round:
        text2 = docsmod.serialize_algebra_doc(adoc)
        adoc2, diags2 = docsmod.parse_algebra(text2)
        ok_round = adoc2 == adoc and not diags2
    check("algebra-document-round-trip", ok_round)

    verdict1 = [split(regular_module(a), seed).irreducible for a in small]
    verdict2 = [split(regular_module(a), seed).irreducible for a in small]
    check("seeded-rerun-is-identical", verdict1 == verdict2)

    return checks
