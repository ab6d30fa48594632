"""Command-line entry points for the laboratory.

Every command prints one deterministic tree report (``--format structured``)
or a human rendering derived from it. Every answer about the class space is
a function of the input alone. ``--seed`` reaches only the commands that
draw: the sampled scans of ``embed`` (beyond 4096 product states), the
sampled candidate vectors of ``embed-staged`` and ``embed-chain`` (factors
with more than 256 vectors), and ``selftest``; every report also names it
in its header. Exit codes: 0 success, 1 domain error, 2 usage or parse error,
3 internal error (a failed self-check; a one-line message, no traceback).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time

import numpy as np

from . import docs as docsmod
from .algebra import Algebra, Ideal, ideal_generated, product_space, quotient_algebra, radical_powers, validate_algebra
from .docs import Doc, render_report
from .embeddings import (
    ProductFamily,
    chain_bound,
    chain_product_embedding,
    deletion_stability,
    find_embedding,
    longest_submodule_chain,
    staged_product_embedding,
    sufficiency_check,
)
from .linalg import Subspace
from .meataxe import (
    MeatAxeError,
    brute_force_split,
    composition_factors,
    is_isomorphic_simple,
    jacobson_radical,
    regular_length,
    semisimple_classes,
    simple_classes,
    split,
)
from .modules import annihilator, direct_sum, regular_module
from .pointclosure import (
    FiniteSpace,
    TopologyError,
    all_topologies,
    brute_force_point_closure,
    chain_stabilize,
    pc_intersect,
    point_closure,
    random_topology,
    weyl_model,
)
from .presets import gallery, upper_triangular
from .topology import (
    enumerate_irr,
    refined_closure,
    vanishing_set,
    verify_closed_form,
    zariski_closed_family,
)

class DomainError(Exception):
    pass


class UsageError(Exception):
    pass


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from e


def _checked(a: Algebra) -> Algebra:
    """a, once ``validate_algebra`` finds nothing wrong with it."""
    problems = validate_algebra(a)
    if problems:
        raise DomainError("invalid algebra: " + "; ".join(problems))
    return a


def _algebra_from_text(text: str) -> Algebra:
    adoc, diags = docsmod.parse_algebra(text)
    if adoc is None:
        raise UsageError("algebra parse failed: " + "; ".join(str(d) for d in diags))
    return _checked(docsmod.build_algebra(adoc))


def _load_algebra(path: str) -> Algebra:
    return _algebra_from_text(_read_input(path))


def _load_family(path: str) -> tuple[Algebra, ProductFamily]:
    import os

    text = _read_input(path)
    fdoc, diags = docsmod.parse_family(text)
    if fdoc is None:
        raise UsageError("family parse failed: " + "; ".join(str(d) for d in diags))
    base = os.path.dirname(path) if path != "-" else "."
    try:
        a = docsmod.load_family_algebra(fdoc, base)
    except OSError as e:
        raise UsageError(str(e)) from e
    _checked(a)
    return a, docsmod.resolve_factors(a, fdoc.factors)


def _decimal(tok: str, pattern: str) -> int | None:
    """The integer of the one group of pattern, when pattern matches all of
    tok, else None. The group is ASCII digits, optionally signed, so other
    Unicode digits and repeated signs are refused; so is a number longer
    than int() converts."""
    m = re.fullmatch(pattern, tok)
    try:
        return None if m is None else int(m[1])
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return None


def _parse_set(arg: str) -> list[int]:
    if not arg.strip():
        return []
    out = []
    for tok in arg.split(","):
        value = _decimal(tok.strip(), r"p?([0-9]+)")
        if value is None:
            raise UsageError(f"bad point id {tok.strip()!r} in --set")
        out.append(value)
    return out


def _parse_vectors(arg: str, a: Algebra) -> list[np.ndarray]:
    vecs = []
    for part in arg.split(";"):
        part = part.strip()
        if not part:
            continue
        vals = [_decimal(t, r"(-?[0-9]+)") for t in part.split()]
        if None in vals:
            raise UsageError(f"bad vector {part!r} in --ideal")
        v = np.array([x % a.p for x in vals], dtype=np.int64)
        if v.shape != (a.dim,):
            raise UsageError(f"vector {part!r} must have length {a.dim}")
        vecs.append(v)
    return vecs


def _vec_str(v) -> str:
    return " ".join(str(int(t)) for t in v)


def _basis_lines(node: Doc, key: str, sub: Subspace):
    for row in sub.basis:
        node.add(key, _vec_str(row))


# --- command handlers -------------------------------------------------------


def _cmd_validate(args) -> Doc:
    text = _read_input(args.infile)
    adoc, diags = docsmod.parse_algebra(text)
    result = Doc()
    if adoc is None:
        result.add("parsed", "false")
        for d in diags:
            result.add("diagnostic", str(d))
        return result
    a = docsmod.build_algebra(adoc)
    problems = validate_algebra(a)
    result.add("parsed", "true")
    result.add("algebra", a.name or "explicit")
    result.add("dim", a.dim)
    result.add("p", a.p)
    result.add("valid", "true" if not problems else "false")
    for msg in problems:
        result.add("violation", msg)
    return result


def _cmd_irr(args) -> Doc:
    a = _load_algebra(args.infile)
    space = enumerate_irr(a)
    result = Doc()
    result.add("algebra", a.name or "explicit")
    result.add("count", len(space.points))
    for pt in space.points:
        node = result.node("point")
        node.add("id", pt.id)
        node.add("dim", pt.dim)
        node.add("ann_dim", pt.ann.dim)
        _basis_lines(node, "ann_basis", pt.ann.subspace)
    return result


def _cmd_radical(args) -> Doc:
    a = _load_algebra(args.infile)
    rad = jacobson_radical(a)
    result = Doc()
    result.add("algebra", a.name or "explicit")
    result.add("radical_dim", rad.dim)
    _basis_lines(result, "radical_basis", rad.subspace)
    result.add("nilpotency_index", len(radical_powers(a, rad.subspace)) + 1)
    result.add("semisimple", "true" if rad.is_zero else "false")
    return result


def _cmd_vset(args) -> Doc:
    a = _load_algebra(args.infile)
    space = enumerate_irr(a)
    gens = _parse_vectors(args.ideal or "", a)
    ideal = ideal_generated(a, gens, "two-sided")
    z = vanishing_set(space, ideal)
    result = Doc()
    result.add("input_ideal_dim", ideal.dim)
    result.add("points", _id_list(z.point_ids))
    result.add("core_ideal_dim", z.ideal_subspace.dim)
    _basis_lines(result, "core_ideal_basis", z.ideal_subspace)
    return result


def _cmd_zlattice(args) -> Doc:
    a = _load_algebra(args.infile)
    space = enumerate_irr(a)
    family = zariski_closed_family(space)
    result = Doc()
    result.add("count", len(family))
    for ids, dim in family.items():
        node = result.node("closed_set")
        node.add("points", _id_list(ids))
        node.add("ideal_dim", dim)
    return result


def _cmd_refined_closure(args) -> Doc:
    a = _load_algebra(args.infile)
    space = enumerate_irr(a)
    ids = _parse_set(args.set or "")
    result = Doc()
    result.add("input", _id_list(set(ids)))
    result.add("closure", _id_list(refined_closure(space, ids)))
    result.add("closed", "true")  # every point set is refined-closed
    return result


def _weyl_points_from_report(doc: Doc) -> int | None:
    res = doc.get("result")
    if not isinstance(res, Doc):
        return None
    sym = res.get("symbolic_space")
    if not isinstance(sym, Doc):
        return None
    pts = sym.get("points")
    return len(str(pts).split()) if pts else 0


def _id_list(ids) -> str:
    return " ".join(map(str, sorted(ids)))


def _cmd_point_closure(args) -> Doc:
    text = _read_input(args.infile)
    result = Doc()
    if not text.lstrip().startswith(docsmod.FORMAT_HEADER):
        # Every point set of an algebra's class space is Zariski-closed, so
        # each is its own pair, with no finite part.
        space = enumerate_irr(_algebra_from_text(text))
        family = zariski_closed_family(space)
        result.add("space", "finite")
        result.add("points", _id_list(space.all_ids()))
        result.add("count", len(family))
        for ids in family:
            node = result.node("pair")
            node.add("closed_part", _id_list(ids))
            node.add("finite_part", "")
        return result
    rep, diags = docsmod.parse_report(text)
    if rep is None:
        raise UsageError("report parse failed: " + "; ".join(str(d) for d in diags))
    npts = _weyl_points_from_report(rep)
    if npts is None:
        raise UsageError("report does not describe a symbolic space")
    space = weyl_model(npts)
    result.add("space", "symbolic")
    result.add("named_points", " ".join(space.points))
    fam = point_closure(space)
    result.add("count", len(fam.pairs))
    for pair in fam.pairs:
        node = result.node("pair")
        node.add("closed_part", str(pair.c))
        node.add("finite_part", _id_list(pair.f))
    return result


def _cmd_compare(args) -> Doc:
    # Every point set is Zariski-closed, so all three topologies are the
    # power set: each set is its own vanishing set, refined-closed (see
    # refined_closure) and, with no finite part, point-closure-closed.
    family = zariski_closed_family(enumerate_irr(_load_algebra(args.infile)))
    count = len(family)
    result = Doc()
    result.add("zariski_count", count)
    result.add("point_closure_count", count)
    result.add("refined_count", count)
    result.add("all_equal", "true")
    result.add("discrete", "true")
    result.add("summary", f"zariski = refined = point-closure = discrete ({count} closed sets)")
    for ids, dim in family.items():
        node = result.node("closed_set")
        node.add("points", _id_list(ids))
        node.add("tags", "zariski refined point-closure")
        node.add("ideal_dim", dim)
        node.add("v_points", _id_list(ids))
        node.add("finite_part", "")
    return result


def _cmd_stability(args) -> Doc:
    a, fam = _load_family(args.infile)
    target = _family_target(a, args)
    rep = deletion_stability(fam, target, args.t)
    result = Doc()
    result.add("factors", len(fam.factors))
    result.add("deletion_budget", rep.t)
    result.add("note", "finite deletion analog of the cofinite requirement")
    result.add("target_dim", rep.target_dim)
    result.add("checked_subfamilies", rep.checked)
    result.add("stable", "true" if rep.ok else "false")
    for deleted, dim in rep.failures:
        node = result.node("failure")
        node.add("deleted", " ".join(str(i) for i in deleted))
        node.add("annihilator_dim", dim)
    return result


def _cmd_verify_form(args) -> Doc:
    a = _load_algebra(args.infile)
    space = enumerate_irr(a)
    rep = verify_closed_form(space, _parse_set(args.set or ""))
    # Every point set is refined-closed and its own vanishing set, whose
    # ideal is the meet of annihilators: semiprimitive, with no finite part.
    result = Doc()
    result.add("selection", _id_list(rep.selection))
    result.add("refined_closed", "true")
    result.add("found", "true")
    result.add("ideal_dim", rep.ideal_subspace.dim)
    _basis_lines(result, "ideal_basis", rep.ideal_subspace)
    result.add("v_points", _id_list(rep.selection))
    result.add("finite_part", "")
    result.add("ideal_semiprimitive", "true")
    return result


def _witness_node(result: Doc, witness) -> None:
    node = result.node("witness")
    for i, comp in enumerate(witness.components):
        node.add("component", f"{i}: {_vec_str(comp)}" if len(comp) else f"{i}:")
    node.add("ann_dim", witness.ann.dim)
    node.add("orbit_dim", witness.orbit_dim)
    node.add("valid", "true" if witness.valid else "false")


def _family_target(a: Algebra, args) -> Ideal:
    gens = _parse_vectors(args.ideal or "", a)
    return ideal_generated(a, gens, "two-sided")


def _cmd_embed(args) -> Doc:
    a, fam = _load_family(args.infile)
    target = _family_target(a, args)
    outcome = find_embedding(fam, target, seed=args.seed, budget=args.budget)
    result = Doc()
    result.add("factors", len(fam.factors))
    result.add("target_dim", target.dim)
    result.add("status", outcome.status)
    result.add("tried", outcome.tried)
    if outcome.reason:
        result.add("reason", outcome.reason)
    if outcome.witness is not None:
        _witness_node(result, outcome.witness)
    return result


def _cmd_embed_staged(args) -> Doc:
    a, fam = _load_family(args.infile)
    target = _family_target(a, args)
    witness, trace = staged_product_embedding(fam, target, basis_order=args.order, seed=args.seed)
    result = Doc()
    result.add("outcome", trace.outcome)
    for rec in trace.stages:
        node = result.node("stage")
        node.add("index", rec.stage)
        node.add("start_dim", rec.start_dim)
        for pick in rec.picks:
            pn = node.node("pick")
            pn.add("factor", pick.factor)
            pn.add("vector", _vec_str(pick.vector))
            pn.add("blocked_dim", pick.blocked_dim_after)
        if rec.stalled:
            node.add("blocking_vector", _vec_str(rec.blocking_vector))
    if witness is not None:
        _witness_node(result, witness)
    return result


def _cmd_embed_chain(args) -> Doc:
    a, fam = _load_family(args.infile)
    witness, trace = chain_product_embedding(fam, seed=args.seed)
    result = Doc()
    result.add("outcome", trace.outcome)
    for step in trace.steps:
        node = result.node("step")
        node.add("factor", step.factor)
        node.add("accepted", "true" if step.accepted else "false")
        node.add("driver", _vec_str(step.driver))
        if step.accepted:
            node.add("vector", _vec_str(step.vector))
        node.add("l_dim", step.l_dim_after)
    result.add("final_l_dim", trace.final_l_dim)
    if trace.final_l is not None and trace.final_l_dim:
        _basis_lines(result, "final_l_basis", trace.final_l)
    if witness is not None:
        _witness_node(result, witness)
    return result


def _cmd_chain_bound(args) -> Doc:
    a = _load_algebra(args.infile)
    which = args.module
    if which == "regular":
        dim, length = a.dim, regular_length(a)  # from the Loewy layers
    else:  # a simple module: length 1, and no representative is built
        space = enumerate_irr(a)
        k = int(which[len("simple#"):])
        if k >= len(space.points):
            raise DomainError(f"simple#{k} out of range")
        dim, length = space.points[k].dim, 1
    result = Doc()
    result.add("module", which)
    result.add("module_dim", dim)
    result.add("length", length)
    result.add("bound", length + 2)
    return result


def _cmd_sufficiency(args) -> Doc:
    a, fam = _load_family(args.infile)
    rep = sufficiency_check(a, fam)
    result = Doc()
    result.add("factors", len(fam.factors))
    result.add("faithful_count", rep.faithful_count)
    result.add("bound", rep.bound)
    result.add("guaranteed", "true" if rep.guaranteed else "false")
    result.add("algebra_simple", "true" if rep.algebra_simple else "false")
    if rep.note:
        result.add("note", rep.note)
    return result


def _cmd_weyl_model(args) -> Doc:
    space = weyl_model(args.points)
    result = Doc()
    node = result.node("symbolic_space")
    node.add("kind", "trivial-zariski")
    node.add("infinite", "true")
    node.add("closed_family", " ".join(space.names))
    node.add("points", " ".join(space.points))
    return result


# --- selftest ----------------------------------------------------------------


def _selftest_checks(seed: int):
    rng = np.random.default_rng(seed)
    from .linalg import kernel, rref
    from .modules import check_module, sub_quotient
    from .presets import commutative_split, group_algebra, cyclic_group_table, matrix_algebra

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


def _cmd_selftest(args) -> Doc:
    checks = _selftest_checks(args.seed)
    result = Doc()
    for name, ok in checks:
        node = result.node("check")
        node.add("name", name)
        node.add("ok", "true" if ok else "false")
    passed = sum(1 for _, ok in checks if ok)
    result.add("passed", passed)
    result.add("failed", len(checks) - passed)
    return result


# --- dispatch ----------------------------------------------------------------


def _wrap(command: str, args, result: Doc) -> Doc:
    top = Doc()
    top.add("command", command)
    top.add("seed", args.seed)
    top.items.append(("result", result))
    return top


def _human(command: str, args, result: Doc, elapsed_ms: float) -> str:
    lines = [f"irrtop {command} (seed {args.seed})", "-" * 40]
    lines.extend(result.lines())
    lines.append(f"time_ms: {elapsed_ms:.1f}")
    return "\n".join(lines) + "\n"


HANDLERS = {
    "validate": _cmd_validate,
    "irr": _cmd_irr,
    "radical": _cmd_radical,
    "vset": _cmd_vset,
    "zlattice": _cmd_zlattice,
    "refined-closure": _cmd_refined_closure,
    "point-closure": _cmd_point_closure,
    "compare": _cmd_compare,
    "verify-form": _cmd_verify_form,
    "embed": _cmd_embed,
    "embed-staged": _cmd_embed_staged,
    "embed-chain": _cmd_embed_chain,
    "stability": _cmd_stability,
    "chain-bound": _cmd_chain_bound,
    "sufficiency": _cmd_sufficiency,
    "weyl-model": _cmd_weyl_model,
    "selftest": _cmd_selftest,
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _count(text: str) -> int:
    """A non-negative integer."""
    value = _decimal(text.strip(), r"([0-9]+)")
    if value is None:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _index_list(text: str) -> tuple[int, ...] | None:
    """Comma-separated non-negative integers; blank means none given."""
    if not text.strip():
        return None
    vals = tuple(_decimal(t.strip(), r"([0-9]+)") for t in text.split(","))
    if None in vals:
        raise argparse.ArgumentTypeError(f"expected comma-separated non-negative integers, got {text!r}")
    return vals


def _module_name(text: str) -> str:
    """'regular' (also when blank) or 'simple#k' with k a non-negative
    integer, written without leading zeros."""
    if text in ("", "regular"):
        return "regular"
    k = _decimal(text, r"simple#([0-9]+)")
    if k is None:
        raise argparse.ArgumentTypeError(f"expected 'regular' or 'simple#k', got {text!r}")
    return f"simple#{k}"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later ``run``."""
    ap = _Parser(prog="irrtop", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        sp = sub.add_parser(name)
        sp.add_argument("--seed", type=_count, default=0)
        sp.add_argument("--in", dest="infile", default="-")
        sp.add_argument("--set", default="")
        sp.add_argument("--ideal", default="")
        sp.add_argument("--t", type=_count, default=0)
        sp.add_argument("--budget", type=_count, default=5000)
        sp.add_argument("--out", default="")
        sp.add_argument("--format", dest="fmt", choices=("human", "structured"), default="human")
        if name == "weyl-model":
            sp.add_argument("--points", type=_count, default=3)
        if name == "embed-staged":
            sp.add_argument("--order", type=_index_list, default=None)
        if name == "chain-bound":
            sp.add_argument("--module", type=_module_name, default="regular")
    return ap


def run(argv: list[str]) -> tuple[int, str]:
    """Dispatch a command line; returns (exit_code, output_text). Partial
    results are never emitted."""
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except UsageError as e:
        return 2, f"error: {e}\n"
    except SystemExit as e:  # --help has printed its text
        return int(e.code or 0), ""
    handler = HANDLERS[args.command]
    t0 = time.perf_counter()
    try:
        result = handler(args)
    except (UsageError, docsmod.ParseFailure) as e:
        return 2, f"error: {e}\n"
    except (DomainError, TopologyError, MeatAxeError, ValueError) as e:
        return 1, f"error: {e}\n"
    except AssertionError as e:
        return 3, "internal error: " + (" ".join(str(e).split()) or "self-check failed") + "\n"
    elapsed = (time.perf_counter() - t0) * 1000.0
    if args.fmt == "structured":
        text = render_report(_wrap(args.command, args, result))
    else:
        text = _human(args.command, args, result, elapsed)
    code = 0
    if args.command == "selftest" and result.get("failed") not in (None, 0, "0"):
        code = 1
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            return 1, f"error: cannot write {args.out}: {e.strerror or e}\n"
        return code, ""
    return code, text


def main() -> None:
    code, text = run(sys.argv[1:])
    stream = sys.stdout if code == 0 else sys.stderr
    stream.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
