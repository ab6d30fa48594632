"""Embedding constructions: element annihilators, deletion stability,
witness search against the per-candidate scan it replaced, the staged and
chain constructions with their traces, and the descent bound against the
lattice oracle."""

import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrtop import embeddings, meataxe, modules
from irrtop.algebra import Algebra, Ideal
from irrtop.cli import run
from irrtop.docs import FactorSpec, resolve_factors
from irrtop.embeddings import (
    EXHAUSTIVE_CAP,
    EmbeddingWitness,
    ProductFamily,
    ann_of_vector,
    chain_product_embedding,
    deletion_stability,
    find_embedding,
    staged_product_embedding,
    sufficiency_check,
)
from irrtop.linalg import Subspace, all_vectors
from irrtop.meataxe import composition_factors, jacobson_radical
from irrtop.modules import annihilator, direct_sum, regular_module, spin, zero_module
from irrtop.oracles import chain_bound, group_factors, longest_submodule_chain, submodule_lattice
from irrtop.presets import commutative_split, gallery, matrix_algebra, truncated_polynomial, upper_triangular
from irrtop.topology import enumerate_irr


def ut2_setup():
    a = upper_triangular(2, 2)
    sp = enumerate_irr(a)
    s1 = sp.points[0].rep  # annihilated by span{e12, e22}
    s2 = sp.points[1].rep
    return a, s1, s2, regular_module(a)


def zero_ideal(a):
    return Ideal(a, Subspace.zero(a.dim, a.p), "two-sided")


def test_ann_of_zero_vector_is_whole():
    a, s1, s2, reg = ut2_setup()
    fam = ProductFamily(a, (s1, reg))
    ann = ann_of_vector(fam, [np.zeros(1, dtype=np.int64), np.zeros(3, dtype=np.int64)])
    assert ann.is_whole and ann.sided == "left"


def test_ann_of_identity_in_regular_is_zero():
    a, s1, s2, reg = ut2_setup()
    fam = ProductFamily(a, (reg,))
    assert ann_of_vector(fam, [a.one]).is_zero


def test_ann_of_s1_vector_matches_module_annihilator():
    a, s1, s2, reg = ut2_setup()
    fam = ProductFamily(a, (s1,))
    ann = ann_of_vector(fam, [np.array([1])])
    assert ann.subspace == Subspace.from_rows([[0, 1, 0], [0, 0, 1]], 2)


def test_deletion_stability_t0_checks_full_product():
    a, s1, s2, reg = ut2_setup()
    fam = ProductFamily(a, (s1, s2))
    rad = jacobson_radical(a, 0)
    rep = deletion_stability(fam, rad, 0)
    assert rep.ok and rep.checked == 1


def test_deletion_stability_of_no_factors_reads_any_budget_at_once():
    """An empty family is its only subfamily, whatever the budget."""
    a = upper_triangular(2, 2)
    rep = deletion_stability(ProductFamily(a, ()), Ideal(a, Subspace.full(3, 2), "two-sided"), 10**9)
    assert rep.ok and rep.checked == 1 and rep.t == 10**9


def test_deletion_stability_faithful_copies():
    a, s1, s2, reg = ut2_setup()
    fam = ProductFamily(a, (reg, reg, reg, reg))
    rep = deletion_stability(fam, zero_ideal(a), 3)
    assert rep.ok


def test_deletion_stability_ut2_counterexample():
    a, s1, s2, reg = ut2_setup()
    fam = ProductFamily(a, (s1, s2))
    rad = jacobson_radical(a, 0)
    rep = deletion_stability(fam, rad, 1)
    assert not rep.ok
    assert len(rep.failures) == 2  # deleting either single factor fails


def test_find_embedding_regular_identity():
    a, s1, s2, reg = ut2_setup()
    out = find_embedding(ProductFamily(a, (reg,)), zero_ideal(a), 0)
    assert out.status == "found" and out.witness.valid
    assert out.witness.orbit_dim == 3


def test_find_embedding_none_exists_for_single_simple():
    a, s1, s2, reg = ut2_setup()
    out = find_embedding(ProductFamily(a, (s1,)), zero_ideal(a), 0)
    assert out.status == "none"


def test_find_embedding_mixed_family():
    a, s1, s2, reg = ut2_setup()
    out = find_embedding(ProductFamily(a, (s1, s2, reg)), zero_ideal(a), 0)
    assert out.status == "found" and out.witness.valid


def test_find_embedding_target_must_annihilate():
    a, s1, s2, reg = ut2_setup()
    rad = jacobson_radical(a, 0)
    with pytest.raises(ValueError):
        find_embedding(ProductFamily(a, (reg,)), rad, 0)


def test_find_embedding_radical_target():
    a, s1, s2, reg = ut2_setup()
    fam = ProductFamily(a, (s1, s2))
    rad = jacobson_radical(a, 0)
    out = find_embedding(fam, rad, 0)
    assert out.status == "found"
    w = out.witness
    assert w.ann.subspace == rad.subspace
    assert w.orbit_dim == a.dim - rad.dim


def test_staged_field_single_stage():
    lam = np.ones((1, 1, 1), dtype=np.int64)
    a = Algebra(2, 1, lam, np.array([1]), name="field")
    m = regular_module(a)
    w, trace = staged_product_embedding(ProductFamily(a, (m,)), seed=0)
    assert trace.outcome == "witness" and w.valid
    assert len(trace.stages) == 1


def test_staged_ut2_success_and_trace_descent():
    a, s1, s2, reg = ut2_setup()
    fam = ProductFamily(a, (s1, s2, reg, reg))
    w, trace = staged_product_embedding(fam, seed=0)
    assert trace.outcome == "witness"
    assert w.valid and w.ann.is_zero and w.orbit_dim == 3
    for rec in trace.stages:
        dims = [rec.start_dim] + [p.blocked_dim_after for p in rec.picks]
        assert all(x > y for x, y in zip(dims, dims[1:]))
        assert dims[-1] == 0


def test_staged_stall_on_radical_blind_family():
    a, s1, s2, reg = ut2_setup()
    w, trace = staged_product_embedding(ProductFamily(a, (s1, s1, s1)), seed=0)
    assert w is None and trace.outcome == "stall"
    blocking = np.array(trace.stages[-1].blocking_vector)
    # The blocking element lies in the annihilator of every factor.
    assert Subspace.from_rows([[0, 1, 0], [0, 0, 1]], 2).contains(blocking)


def test_staged_agrees_with_search_when_it_succeeds():
    a, s1, s2, reg = ut2_setup()
    for factors in [(reg,), (s1, reg, reg), (s1, s2, reg, reg)]:
        fam = ProductFamily(a, factors)
        w, trace = staged_product_embedding(fam, seed=0)
        if trace.outcome == "witness":
            assert find_embedding(fam, zero_ideal(a), 0).status == "found"


def test_staged_nonzero_target_passes_to_quotient():
    a, s1, s2, reg = ut2_setup()
    rad = jacobson_radical(a, 0)
    # Each stage consumes fresh factors, so both classes appear twice.
    fam = ProductFamily(a, (s1, s2, s1, s2))
    w, trace = staged_product_embedding(fam, rad, seed=0)
    assert trace.outcome == "witness"
    assert w.valid and w.ann.subspace == rad.subspace
    assert w.orbit_dim == a.dim - rad.dim


def test_staged_rejects_non_killed_factor():
    a, s1, s2, reg = ut2_setup()
    rad = jacobson_radical(a, 0)
    with pytest.raises(ValueError):
        staged_product_embedding(ProductFamily(a, (reg,)), rad, seed=0)


def test_staged_respects_basis_order():
    a = matrix_algebra(2, 2)
    s = enumerate_irr(a).points[0].rep
    fam = ProductFamily(a, tuple([s] * 6))
    w, trace = staged_product_embedding(fam, basis_order=(0, 2, 1, 3), seed=0)
    assert trace.outcome == "witness" and w.valid and w.orbit_dim == 4


def test_chain_regular_copies_succeed_within_dimension():
    for a in [upper_triangular(2, 2), matrix_algebra(2, 2), truncated_polynomial(3, 2)]:
        reg = regular_module(a)
        fam = ProductFamily(a, tuple([reg] * (a.dim + 1)))
        w, trace = chain_product_embedding(fam, 0)
        assert trace.outcome == "witness" and w.valid
        accepted = [s for s in trace.steps if s.accepted]
        assert len(accepted) <= a.dim
        dims = [s.l_dim_after for s in accepted]
        assert all(x > y for x, y in zip(dims, dims[1:]))


def test_chain_single_faithful_factor():
    a, s1, s2, reg = ut2_setup()
    w, trace = chain_product_embedding(ProductFamily(a, (reg,)), 0)
    assert trace.outcome == "witness" and w.ann.is_zero


def test_chain_fails_without_faithful_supply():
    a, s1, s2, reg = ut2_setup()
    w, trace = chain_product_embedding(ProductFamily(a, (s1, s1, s1)), 0)
    assert w is None and trace.outcome == "failure"
    # The running ideal can never drop below the factor annihilator.
    assert trace.final_l == Subspace.from_rows([[0, 1, 0], [0, 0, 1]], 2)
    skipped = [s for s in trace.steps if not s.accepted]
    assert skipped, "non-contributing factors are recorded"


def test_chain_bound_zero_module():
    a = upper_triangular(2, 2)
    assert chain_bound(zero_module(a), 0) == 2


def test_chain_bound_simple_module():
    a, s1, s2, reg = ut2_setup()
    assert chain_bound(s1, 0) == 3


def test_chain_bound_ut2_regular():
    a, s1, s2, reg = ut2_setup()
    assert chain_bound(reg, 0) == 5


def test_chain_bound_matches_lattice_oracle():
    for a in gallery():
        reg = regular_module(a)
        if a.p**reg.n > 256:
            continue
        assert chain_bound(reg, 0) == longest_submodule_chain(reg) + 1, a.name


def test_submodule_lattice_of_chain_algebra():
    a = truncated_polynomial(3, 2)
    subs = submodule_lattice(regular_module(a))
    assert sorted(s.dim for s in subs) == [0, 1, 2, 3]  # uniserial


def test_sufficiency_guarantee_realized():
    for a in [upper_triangular(2, 2), matrix_algebra(2, 2), truncated_polynomial(3, 2)]:
        reg = regular_module(a)
        bound = chain_bound(reg, 0)
        fam = ProductFamily(a, tuple([reg] * bound))
        rep = sufficiency_check(a, fam)
        assert rep.guaranteed
        w, trace = chain_product_embedding(fam, 0)
        assert trace.outcome == "witness" and w.valid


def test_sufficiency_empty_family():
    a = upper_triangular(2, 2)
    fam = ProductFamily(a, ())
    rep = sufficiency_check(a, fam)
    assert not rep.guaranteed
    w, trace = chain_product_embedding(fam, 0)
    assert w is None and trace.outcome == "failure"


def test_sufficiency_simple_algebra_note():
    a = matrix_algebra(2, 2)
    s = enumerate_irr(a).points[0].rep
    rep = sufficiency_check(a, ProductFamily(a, (s, s)))
    assert rep.algebra_simple and "faithful" in rep.note
    assert rep.faithful_count == 2


def test_witness_invariants_everywhere():
    a, s1, s2, reg = ut2_setup()
    cases = [
        find_embedding(ProductFamily(a, (reg,)), zero_ideal(a), 0).witness,
        staged_product_embedding(ProductFamily(a, (s1, s2, reg, reg)), seed=0)[0],
        chain_product_embedding(ProductFamily(a, (reg, reg, reg, reg)), 0)[0],
    ]
    for w in cases:
        assert w is not None and w.valid
        assert w.ann.subspace == w.target.subspace
        assert w.orbit_dim == a.dim - w.target.dim


# --- witness search against the per-candidate scan ---------------------------


def spin_witness(fam, components, target):
    """The witness with its orbit dimension from a spin of x in the direct
    sum of all factors: the oracle for the rank-nullity dimension."""
    p = fam.algebra.p
    comps = tuple(np.array(v, dtype=np.int64).reshape(-1) % p for v in components)
    big = direct_sum(fam.algebra, list(fam.factors))
    x = np.concatenate(comps) if comps else np.zeros(0, dtype=np.int64)
    orbit = spin(big, [x]) if big.n else Subspace.zero(0, p)
    return EmbeddingWitness(fam, comps, ann_of_vector(fam, comps), target, orbit.dim)


def search_oracle(fam, target, seed=0, budget=5000):
    """The scan find_embedding replaced: every candidate builds the direct
    sum and spins, exhaustive up to the cap and sampled above it. Returns
    (status, witness, tried)."""
    a = fam.algebra
    if fam.state_count() <= EXHAUSTIVE_CAP:
        tried = 0
        for comps in itertools.product(*[list(all_vectors(f.n, a.p)) for f in fam.factors]):
            tried += 1
            w = spin_witness(fam, comps, target)
            if w.valid:
                return "found", w, tried
        return "none", None, tried
    rng = np.random.default_rng(seed)
    for tried in range(1, budget + 1):
        w = spin_witness(fam, [rng.integers(0, a.p, size=f.n) for f in fam.factors], target)
        if w.valid:
            return "found", w, tried
    return "unknown", None, budget


def product_annihilator(fam):
    meet = Subspace.full(fam.algebra.dim, fam.algebra.p)
    for f in fam.factors:
        meet = meet.intersect(annihilator(fam.algebra, f).subspace)
    return meet


def assert_search_matches_oracle(fam, target, seed=0, budget=5000):
    got = find_embedding(fam, target, seed, budget)
    status, w, tried = search_oracle(fam, target, seed, budget)
    if product_annihilator(fam) != target.subspace:
        # Theory decides: ann(x) contains ann(product) for every x.
        assert (got.status, got.witness, got.tried) == ("none", None, 0)
        assert got.reason == "ann(product) strictly contains the target"
        assert w is None and status in ("none", "unknown")
        return got
    assert (got.status, got.tried, got.reason) == (status, tried, "")
    if w is None:
        assert got.witness is None
    else:
        assert [c.tolist() for c in got.witness.components] == [c.tolist() for c in w.components]
        assert got.witness.valid and got.witness.orbit_dim == w.orbit_dim
    return got


def ut2_families(setup, max_factors=4):
    a, s1, s2, reg = setup
    pool = {"simple#0": s1, "simple#1": s2, "regular": reg}
    for k in range(max_factors + 1):
        for names in itertools.product(sorted(pool), repeat=k):
            yield names, ProductFamily(a, tuple(pool[n] for n in names))


def test_search_matches_the_per_candidate_scan_over_ut2():
    setup = ut2_setup()
    a = setup[0]
    rad = jacobson_radical(a, 0)
    statuses = set()
    for names, fam in ut2_families(setup):
        assert_search_matches_oracle(fam, zero_ideal(a))
        if "regular" not in names:  # the radical annihilates the product
            statuses.add(assert_search_matches_oracle(fam, rad).status)
    assert statuses == {"found", "none"}


def test_search_matches_the_per_candidate_scan_over_m2():
    a = matrix_algebra(2, 2)
    s = enumerate_irr(a).points[0].rep
    reg = regular_module(a)
    for factors in [(s,), (s, s), (s, s, s), (reg,), (s, reg)]:
        assert_search_matches_oracle(ProductFamily(a, factors), zero_ideal(a))


def test_sampled_search_matches_the_per_candidate_scan():
    a, s1, s2, reg = ut2_setup()
    fam = ProductFamily(a, (s1, reg, reg, reg, reg))
    assert fam.state_count() > EXHAUSTIVE_CAP
    for seed in range(3):
        assert assert_search_matches_oracle(fam, zero_ideal(a), seed).status == "found"
    # Theory answers a sampled family whose scan could never succeed.
    blind = ProductFamily(a, tuple([s1, s2] * 7))
    assert blind.state_count() > EXHAUSTIVE_CAP
    assert_search_matches_oracle(blind, zero_ideal(a), 0, budget=40)
    # M2 over GF(67) on one copy of its natural module: ann(product) = 0, yet
    # every orbit has dimension at most 2, so the budget runs out.
    m2 = matrix_algebra(2, 67)
    nat = ProductFamily(m2, (enumerate_irr(m2).points[0].rep,))
    assert nat.state_count() > EXHAUSTIVE_CAP
    assert assert_search_matches_oracle(nat, zero_ideal(m2), 0, budget=40).status == "unknown"


# Entries per rank chunk: the module's own, the exhaustive scan's default
# first chunk as the cap, one candidate per chunk, and a cap of five
# candidates on the sampled family below (15 rows, dimension 6).
CHUNK_ENTRIES = [embeddings.RANK_CHUNK_ENTRIES, embeddings.RANK_CHUNK_ENTRIES // 16, 1, 5 * 15 * 6]


@pytest.mark.parametrize("entries", CHUNK_ENTRIES)
def test_search_matches_the_per_candidate_scan_across_chunk_boundaries(monkeypatch, entries):
    monkeypatch.setattr(embeddings, "RANK_CHUNK_ENTRIES", entries)
    # Exhaustive, 512 states: the witness is candidate 325, long after the
    # first chunk, and the zero_module factor contributes no rows.
    a = upper_triangular(3, 2)
    simples = [pt.rep for pt in enumerate_irr(a).points]
    fam = ProductFamily(a, (regular_module(a), zero_module(a)) + tuple(simples))
    assert fam.state_count() <= EXHAUSTIVE_CAP
    assert assert_search_matches_oracle(fam, zero_ideal(a)).tried == 325
    # Sampled, 32768 states: seed 3 finds the witness at candidate 17, seed 1
    # at candidate 7. A budget of exactly that many puts the witness last in
    # a partial chunk; one less ends the scan just before it.
    fam = ProductFamily(a, (zero_module(a),) + tuple(simples) * 3 + (regular_module(a),))
    assert fam.state_count() > EXHAUSTIVE_CAP
    # Seed 0 finds it at candidate 1, so a budget of 0 draws nothing.
    for seed, tried in [(3, 17), (1, 7), (0, 1)]:
        assert assert_search_matches_oracle(fam, zero_ideal(a), seed).tried == tried
        assert assert_search_matches_oracle(fam, zero_ideal(a), seed, budget=tried).status == "found"
        assert assert_search_matches_oracle(fam, zero_ideal(a), seed, budget=tried - 1).status == "unknown"
    # Exhaustive, 256 states: the eight 1-dimensional simples of
    # commutative_split(8, 2) need every component nonzero, so the witness is
    # the last state, the last candidate of a partial chunk at the default.
    c8 = commutative_split(8, 2)
    fam = ProductFamily(c8, tuple(pt.rep for pt in enumerate_irr(c8).points))
    assert assert_search_matches_oracle(fam, zero_ideal(c8)).tried == fam.state_count() == 256
    # The empty family and families of zero modules: one candidate, passing.
    # Candidate 1 of an exhaustive scan is the zero element, so these are the
    # only exhaustive scans that end there.
    whole = Ideal(a, Subspace.full(a.dim, a.p), "two-sided")
    for factors in [(), (zero_module(a),), (zero_module(a), zero_module(a))]:
        assert assert_search_matches_oracle(ProductFamily(a, factors), whole).tried == 1


def test_a_witness_in_the_first_chunk_costs_one_rank_test(monkeypatch):
    """The first exhaustive chunk holds about RANK_CHUNK_ENTRIES // 16
    entries, and the witness's annihilator comes from its own images: one
    ``ranks`` call, and no ``ann_of_vector``."""
    calls = []
    ranks = embeddings.ranks
    monkeypatch.setattr(embeddings, "ranks", lambda stack, p: calls.append(len(stack)) or ranks(stack, p))
    monkeypatch.setattr(embeddings, "ann_of_vector", lambda *args: calls.append("ann_of_vector"))
    a, s1, s2, reg = ut2_setup()
    for factors in [(s1, s2, reg), (reg,) * 3, (s1, reg, reg)]:
        fam = ProductFamily(a, factors)
        calls.clear()
        got = find_embedding(fam, zero_ideal(a), 0)
        first = embeddings.RANK_CHUNK_ENTRIES // 16 // (fam.total_dim * a.dim)
        assert got.status == "found" and 1 < got.tried <= first
        assert calls == [min(first, fam.state_count())]


def test_equal_factors_share_one_checked_annihilator(monkeypatch):
    """A family built in code computes its annihilators once, on first use,
    one (with its ideal self-check) per distinct action: 17 copies of one
    module cost one annihilator across the search, the stability check and
    the sufficiency check; the sufficiency check reads 'simple' off the
    blocks of A/J, with no annihilator of its own."""
    calls = []

    def counted(a, m):
        calls.append(m.n)
        return annihilator(a, m)

    monkeypatch.setattr(embeddings, "annihilator", counted)
    a, s1, s2, reg = ut2_setup()
    copies = ProductFamily(a, (reg,) * 17)
    mixed = ProductFamily(a, (s1, reg, s1, s2, reg, s2))
    for fam in (copies, mixed):
        distinct = len({f.action.tobytes() for f in fam.factors})
        calls.clear()
        find_embedding(fam, zero_ideal(a), 0)
        deletion_stability(fam, zero_ideal(a), 1)
        sufficiency_check(a, fam)
        assert len(calls) == distinct, calls
    # Known annihilators are taken as given; the others are computed.
    known = ProductFamily(a, (s1, reg, s2), (None, Subspace.zero(a.dim, a.p), None))
    calls.clear()
    assert known.annihilators == tuple(annihilator(a, f).subspace for f in known.factors)
    assert calls == [1, 1]
    with pytest.raises(ValueError, match="one known annihilator"):
        ProductFamily(a, (s1, reg), (None,))


# --- annihilators by construction --------------------------------------------

GALLERY = gallery()


@st.composite
def resolved_families(draw):
    """A gallery algebra and up to four factor specs of every kind: regular,
    simple#k, a quotient of the regular module by random generators, and
    explicit factors copied entry by entry from a regular, simple or
    quotient module; specs may repeat."""
    a = draw(st.sampled_from(GALLERY))
    points = enumerate_irr(a).points
    sources = [regular_module(a)] + [pt.rep for pt in points]

    def quotient():
        gens = draw(st.lists(st.lists(st.integers(0, a.p - 1), min_size=a.dim, max_size=a.dim), min_size=1, max_size=2))
        return FactorSpec("quotient", gens=tuple(map(tuple, gens)))

    specs = []
    for kind in draw(st.lists(st.sampled_from(["regular", "simple", "quotient", "explicit", "repeat"]), max_size=4)):
        if kind == "repeat" and specs:
            specs.append(draw(st.sampled_from(specs)))
        elif kind == "simple":
            specs.append(FactorSpec("simple", index=draw(st.integers(0, len(points) - 1))))
        elif kind == "quotient":
            specs.append(quotient())
        elif kind == "explicit":
            m = draw(st.sampled_from(sources))
            if draw(st.booleans()):
                m = resolve_factors(a, [quotient()]).factors[0]
            entries = tuple((int(i), int(r), int(c), int(m.action[i, r, c])) for i, r, c in np.argwhere(m.action))
            specs.append(FactorSpec("explicit", n=m.n, entries=entries))
        else:
            specs.append(FactorSpec("regular"))
    return a, specs


def outcome_key(outcome):
    comps = None if outcome.witness is None else [c.tolist() for c in outcome.witness.components]
    return outcome.status, outcome.tried, outcome.reason, comps


@settings(max_examples=60, deadline=None)
@given(resolved_families(), st.integers(0, 3))
def test_carried_annihilators_match_the_computed_ones(drawn, seed):
    """The annihilators a resolved family carries are those ``annihilator``
    computes, and the search, the stability check and the sufficiency check
    answer as on the same factors with every annihilator computed."""
    a, specs = drawn
    fam = resolve_factors(a, specs)
    plain = ProductFamily(a, fam.factors)
    assert fam.annihilators == tuple(annihilator(a, f).subspace for f in fam.factors)
    assert plain.annihilators == fam.annihilators
    prod = product_annihilator(plain)
    for target in (zero_ideal(a), Ideal(a, prod, "two-sided")):
        assert outcome_key(find_embedding(fam, target, seed, budget=20)) == outcome_key(
            find_embedding(plain, target, seed, budget=20)
        )
        for t in range(min(2, len(specs))):
            assert deletion_stability(fam, target, t) == deletion_stability(plain, target, t)
    assert sufficiency_check(a, fam) == sufficiency_check(a, plain)


@pytest.mark.parametrize("command", [["embed"], ["stability", "--t", "1"], ["sufficiency"]], ids=lambda c: c[0])
def test_regular_and_simple_factors_take_no_annihilator(tmp_path, monkeypatch, command):
    """Construction certifies the annihilators of regular and simple#k
    factors, so these commands compute none; a quotient factor costs one."""
    calls = []
    for name, mod in list(sys.modules.items()):
        if name.startswith("irrtop") and hasattr(mod, "annihilator"):
            inner = mod.annihilator
            monkeypatch.setattr(mod, "annihilator", lambda *args, inner=inner: calls.append(1) or inner(*args))
    fam = tmp_path / "f.fam"
    argv = command + ["--in", str(fam), "--format", "structured"]
    head = "algebra: preset upper_triangular(2, 2)\n"
    fam.write_text(head + "factor: simple#1\nfactor: regular\nfactor: simple#0\nfactor: regular\n")
    code, out = run(argv)
    assert code == 0 and not calls, out
    fam.write_text(head + "factor: regular\nfactor: quotient 0 1 0\nfactor: quotient 0 1 0\n")
    code, out = run(argv)
    assert code == 0 and len(calls) == 1, out


def test_equal_specs_resolve_to_one_module():
    a = upper_triangular(2, 2)
    specs = [FactorSpec("regular"), FactorSpec("simple", index=1)] * 3 + [FactorSpec("quotient", gens=((0, 1, 0),))] * 2
    fam = resolve_factors(a, specs)
    assert len({id(f) for f in fam.factors}) == 3
    assert fam.known_annihilators[0].is_zero and fam.known_annihilators[-1] is None


def test_constructions_never_spin_or_build_sums(monkeypatch):
    """Witness orbit dimensions come from rank-nullity: no construction
    spins a vector or builds the direct sum of its factors."""

    def refuse(name):
        def wrapper(*args, **kwargs):
            raise AssertionError(f"{name} called")

        return wrapper

    setup = ut2_setup()
    a, s1, s2, reg = setup
    rad = jacobson_radical(a, 0)
    assert not hasattr(embeddings, "direct_sum") and not hasattr(embeddings, "spin")
    monkeypatch.setattr(modules, "direct_sum", refuse("direct_sum"))
    monkeypatch.setattr(modules, "spin_matrices", refuse("spin_matrices"))
    monkeypatch.setattr(modules, "spin", refuse("spin"))
    found = set()
    for _, fam in ut2_families(setup, 3):
        found.add(find_embedding(fam, zero_ideal(a), 0).status)
        found.add(chain_product_embedding(fam, 0)[1].outcome)
        found.add(staged_product_embedding(fam, seed=0)[1].outcome)
    assert found == {"found", "none", "witness", "failure", "stall"}
    # A nonzero target passes to the quotient algebra first.
    assert staged_product_embedding(ProductFamily(a, (s1, s2, s1, s2)), rad, seed=0)[0].valid


def test_witness_orbit_dimension_matches_the_spin_oracle():
    """Rank-nullity and the spin in the direct sum agree on the witnesses of
    the three constructions."""
    a, s1, s2, reg = ut2_setup()
    fam = ProductFamily(a, (s1, s2, reg, reg))
    witnesses = [
        find_embedding(fam, zero_ideal(a), 0).witness,
        staged_product_embedding(fam, seed=0)[0],
        chain_product_embedding(fam, 0)[0],
    ]
    for w in witnesses:
        want = spin_witness(w.family, w.components, w.target)
        assert (w.orbit_dim, w.ann, w.valid) == (want.orbit_dim, want.ann, want.valid)


def test_orbit_dimension_is_codimension_of_the_annihilator():
    """A.x is isomorphic to A/ann(x), so the spin of x in the direct sum has
    dimension d - dim ann(x)."""
    for a in gallery():
        rng = np.random.default_rng(a.dim * a.p)
        fam = ProductFamily(a, (regular_module(a),) + tuple(pt.rep for pt in enumerate_irr(a).points))
        big = direct_sum(a, list(fam.factors))
        for _ in range(6):
            comps = [rng.integers(0, a.p, size=f.n) * int(rng.integers(0, 2)) for f in fam.factors]
            x = np.concatenate(comps)
            assert spin(big, [x]).dim == a.dim - ann_of_vector(fam, comps).dim, a.name


def test_sufficiency_check_matches_three_separate_splits(monkeypatch):
    """With no split at all, the sufficiency check gives what chain_bound,
    jacobson_radical and group_factors compute from three MeatAxe series:
    the bound, and 'simple' as a zero radical with one simple class."""
    calls = []

    def counted(m, seed=0):
        calls.append(m.n)
        return composition_factors(m, seed)

    for a in gallery():
        reg = regular_module(a)
        want_simple = jacobson_radical(a, 0).is_zero and len(group_factors(composition_factors(reg, 0))) == 1
        want_bound = chain_bound(reg, 0)
        assert not hasattr(embeddings, "composition_factors")
        with monkeypatch.context() as mp:
            mp.setattr(meataxe, "composition_factors", counted)
            calls.clear()
            rep = sufficiency_check(a, ProductFamily(a, (reg,)))
        assert calls == [], a.name
        assert (rep.bound, rep.algebra_simple) == (want_bound, want_simple), a.name
