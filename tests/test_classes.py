"""The simple classes from the blocks of A/J.

``enumerate_irr`` takes its classes from the primitive central idempotents
of the semisimple quotient (``semisimple_classes``) and builds a
representative only when one is asked for. The MeatAxe classes (the
regular module's composition factors grouped by annihilator,
``simple_classes``) are the oracle: the same (dimension, annihilator) pairs
on the gallery shapes at p in {2, 3, 5, 53, 1009}, on classes whose
endomorphism field is larger than GF(p), on products with several matrix
blocks, and on presets in a random dense basis and their quotients."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrtop import meataxe
from irrtop.algebra import ideal_generated, quotient_algebra
from irrtop.cli import run
from irrtop.meataxe import composition_factors, semisimple_classes
from irrtop.modules import annihilator_subspace, check_module, regular_module, sub_quotient
from irrtop.oracles import simple_classes
from irrtop.topology import enumerate_irr
from test_check_matrices import _preset
from test_radical import shapes_at
from test_validation import rebase


def pairs(classes):
    return sorted((dim, ann.subspace.key()) for dim, ann in classes)


def oracle_pairs(a, seed=0):
    return sorted((rep.n, ann.subspace.key()) for rep, ann in simple_classes(a, seed))


@pytest.mark.parametrize("p", [2, 3, 5, 53, 1009])
def test_classes_match_the_meataxe_on_the_gallery(p):
    for a in shapes_at(p):
        assert pairs(semisimple_classes(a)) == oracle_pairs(a), a.name


LARGE_FIELDS_AND_BLOCKS = [
    "group_algebra(C21, 2)",  # blocks GF(2), GF(4), GF(8), GF(8), GF(64)
    "group_algebra(C7, 2)",  # blocks GF(2), GF(8), GF(8)
    "group_algebra(C5, 3)",  # blocks GF(3), GF(81)
    "group_algebra(C8, 3)",  # blocks GF(3), GF(3), GF(9), GF(9), GF(9)
    "group_algebra(S3, 5)",
    "product(matrix_algebra(3, 2), matrix_algebra(2, 2), matrix_algebra(2, 2), upper_triangular(2, 2))",
    "product(matrix_algebra(2, 3), matrix_algebra(3, 3), group_algebra(C4, 3))",
    "product(matrix_algebra(2, 2), upper_triangular(4, 2), group_algebra(S3, 2))",
    "product(group_algebra(C7, 2), matrix_algebra(2, 2), commutative_split(2, 2))",
]


@pytest.mark.parametrize("expr", LARGE_FIELDS_AND_BLOCKS)
def test_classes_match_the_meataxe_on_larger_fields_and_several_blocks(expr):
    a = _preset(expr)
    got = pairs(semisimple_classes(a))
    for seed in (0, 1):
        assert got == oracle_pairs(a, seed), expr


@st.composite
def rebased_presets(draw):
    """A small preset in a random dense basis, or its quotient by a random
    proper ideal, with the seed of its basis."""
    shape = draw(st.sampled_from([
        "group_algebra(C3, {p})",
        "product(matrix_algebra(2, {p}), upper_triangular(2, {p}))",
        "group_algebra(S3, {p})",
        "upper_triangular(3, {p})",
        "commutative_split(3, {p})",
    ]))
    p = draw(st.sampled_from([2, 3, 5]))
    seed = draw(st.integers(0, 2**16))
    gens = draw(st.lists(st.lists(st.integers(0, 4), min_size=12, max_size=12), max_size=2))
    a = rebase(_preset(shape.format(p=p)), seed)
    ideal = ideal_generated(a, [np.array(g[: a.dim]) % p for g in gens], "two-sided")
    if 0 < ideal.dim < a.dim:
        a, _ = quotient_algebra(a, ideal)
    return a, seed


@settings(max_examples=40, deadline=None)
@given(rebased_presets())
def test_classes_match_the_meataxe_on_random_algebras(drawn):
    a, seed = drawn
    assert pairs(semisimple_classes(a)) == oracle_pairs(a, seed)


@settings(max_examples=40, deadline=None)
@given(rebased_presets())
def test_the_class_annihilators_meet_in_the_radical(drawn):
    """The meet that ``semisimple_blocks`` no longer forms: the idempotent
    checks imply that the class annihilators meet in J, with the Chinese
    remainder identity, which ``annihilator_meet`` checks."""
    a, _ = drawn
    blocks = meataxe.semisimple_blocks(a)
    assert meataxe.annihilator_meet(a, [ann.subspace for _, ann in blocks.classes]) == blocks.radical.subspace


def test_the_class_listing_forms_no_meet(monkeypatch):
    calls = []
    monkeypatch.setattr(meataxe, "annihilator_meet", lambda *args: calls.append(args))
    for expr in LARGE_FIELDS_AND_BLOCKS:
        assert meataxe.semisimple_blocks(_preset(expr)).classes
    assert not calls


REPRESENTED = [
    "upper_triangular(3, 2)",
    "group_algebra(C21, 2)",
    "group_algebra(S3, 5)",
    "product(matrix_algebra(3, 2), matrix_algebra(2, 2), upper_triangular(2, 2))",
    "product(matrix_algebra(2, 3), group_algebra(C4, 3))",
]


@pytest.mark.parametrize("expr", REPRESENTED)
def test_each_representative_has_its_class_dimension_and_annihilator(expr):
    a = _preset(expr)
    for pt in enumerate_irr(a).points:
        rep = pt.rep
        assert rep is pt.rep  # built once
        assert rep.n == pt.dim and rep.label == f"simple#{pt.id}"
        assert annihilator_subspace(rep) == pt.ann.subspace, (expr, pt.id)
        assert not check_module(rep)
        assert all(meataxe.split(rep, seed).irreducible for seed in (0, 3))


def test_no_representative_is_built_for_the_class_listing(monkeypatch):
    calls = []
    monkeypatch.setattr(meataxe, "class_representative", lambda *args: calls.append(args))
    monkeypatch.setattr(meataxe, "composition_factors", lambda *args: calls.append(args))
    space = enumerate_irr(_preset("product(matrix_algebra(3, 2), upper_triangular(2, 2))"))
    assert [pt.dim for pt in space.points] == [1, 1, 3] and not calls


def test_classes_are_in_canonical_order():
    """By dimension, then by the annihilator's RREF basis."""
    for expr in LARGE_FIELDS_AND_BLOCKS:
        space = enumerate_irr(_preset(expr))
        keys = [(pt.dim, pt.ann.subspace.basis.tolist()) for pt in space.points]
        assert keys == sorted(keys), expr
    # On commutative_split the class i is the coordinate i.
    space = enumerate_irr(_preset("commutative_split(5, 2)"))
    assert [sorted(set(range(5)) - set(pt.ann.subspace.pivots)) for pt in space.points] == [[i] for i in range(5)]


@pytest.mark.parametrize("expr", ["group_algebra(C21, 2)", "product(matrix_algebra(2, 2), upper_triangular(2, 2))"])
def test_irr_output_is_the_same_at_every_seed(tmp_path, expr):
    alg = tmp_path / "a.alg"
    alg.write_text(f"preset: {expr}\n")
    outs = set()
    for seed in range(10):
        code, out = run(["irr", "--in", str(alg), "--seed", str(seed), "--format", "structured"])
        assert code == 0 and f"\nseed: {seed}\n" in out
        outs.add(out.replace(f"\nseed: {seed}\n", "\n"))  # the header echoes the seed
    assert len(outs) == 1


# --- the idempotent self-check ----------------------------------------------


def _patched_idempotents(monkeypatch, change, miscount=0):
    real = meataxe._primitive_idempotents

    def fake(lam, centre, one, p):
        idem, count = real(lam, centre, one, p)
        return change(idem, p), count + miscount

    monkeypatch.setattr(meataxe, "_primitive_idempotents", fake)


E11 = np.eye(5, dtype=np.int64)[0]
BAD_IDEMPOTENTS = {
    # e11 and 1 - e11 of M_2 x GF(2): orthogonal idempotents that sum to 1,
    # as many as the classes, but not central.
    "off-centre": (
        "product(matrix_algebra(2, 2), commutative_split(1, 2))",
        lambda idem, p: np.vstack([E11, (idem.sum(axis=0) - E11) % p]),
    ),
    "not-idempotent": ("commutative_split(3, 3)", lambda idem, p: np.vstack([2 * idem[:1] % p, idem[1:]])),
    "drops-a-class": ("commutative_split(3, 2)", lambda idem, p: idem[1:]),
    "merges-two-classes": ("commutative_split(3, 2)", lambda idem, p: np.vstack([(idem[0] + idem[1]) % p, idem[2:]])),
    # Each of the next two fails one check only: the sum, then orthogonality.
    "a-zero-idempotent": ("commutative_split(3, 2)", lambda idem, p: np.vstack([0 * idem[:1], idem[1:]])),
    "not-orthogonal": ("commutative_split(3, 2)", lambda idem, p: np.array([[1, 1, 0], [0, 1, 1], [0, 1, 0]])),
}


@pytest.mark.parametrize("case", sorted(BAD_IDEMPOTENTS))
def test_a_bad_idempotent_breaks_the_self_check(tmp_path, monkeypatch, case):
    expr, change = BAD_IDEMPOTENTS[case]
    a = _preset(expr)
    _patched_idempotents(monkeypatch, change)
    with pytest.raises(AssertionError, match="idempotents"):
        semisimple_classes(a)
    alg = tmp_path / "a.alg"
    alg.write_text(f"preset: {expr}\n")
    code, out = run(["irr", "--in", str(alg), "--format", "structured"])
    assert code == 3 and out == f"internal error: {meataxe.IDEMPOTENT_FAILURE}\n"


def test_a_block_that_is_no_matrix_algebra_breaks_the_dimension_check(monkeypatch):
    """GF(2) x M_2(GF(2)) as one block, with the class count lowered to
    match: dim e Q = 5 is not n^2 times dim e Z = 2."""
    a = _preset("product(commutative_split(1, 2), matrix_algebra(2, 2))")
    _patched_idempotents(monkeypatch, lambda idem, p: idem.sum(axis=0, keepdims=True) % p, miscount=-1)
    with pytest.raises(AssertionError, match="not n\\^2 times its centre's 2"):
        semisimple_classes(a)


def test_the_off_centre_idempotents_pass_every_other_check():
    """In the off-centre case above only centrality fails: e11 of the M_2
    block is idempotent, orthogonal to 1 - e11, and does not commute with
    e12."""
    a = _preset("product(matrix_algebra(2, 2), commutative_split(1, 2))")
    e11, e12 = E11, np.eye(5, dtype=np.int64)[1]
    rest = (a.one - e11) % 2
    assert (a.multiply(e11, e11) == e11).all() and (a.multiply(rest, rest) == rest).all()
    assert not a.multiply(e11, rest).any() and not a.multiply(rest, e11).any()
    assert (a.multiply(e11, e12) != a.multiply(e12, e11)).any()


def test_a_matrix_block_representative_is_the_first_composition_factor():
    a = _preset("product(matrix_algebra(3, 2), upper_triangular(2, 2))")
    (pt,) = [pt for pt in enumerate_irr(a).points if pt.dim == 3]
    _, quot = sub_quotient(regular_module(a), pt.ann.subspace)
    assert quot.n == 9
    # The fixed stream 0, whatever --seed a command was given.
    assert (pt.rep.action == composition_factors(quot, 0)[0].action).all()


NO_DRAWS = {
    2: "product(matrix_algebra(2, 2), upper_triangular(2, 2), group_algebra(C3, 2))",
    # At odd p the class listing finds the roots of minimal polynomials.
    3: "product(matrix_algebra(2, 3), upper_triangular(2, 3), group_algebra(C4, 3))",
    1009: "product(matrix_algebra(2, 1009), upper_triangular(2, 1009), group_algebra(S3, 1009))",
}


@pytest.mark.parametrize("p", sorted(NO_DRAWS))
def test_class_only_commands_load_no_random_generator(tmp_path, p):
    """Nothing in the class listing, the radical or the chain bound is
    random (the roots of minimal polynomials at odd p are found without
    draws), and the staged and chain constructions over small factors (a
    family at p = 2) draw nothing: a fresh process that runs them never
    imports numpy.random."""
    alg = tmp_path / "a.alg"
    alg.write_text(f"preset: {NO_DRAWS[p]}\n")
    fam = tmp_path / "f.fam"
    fam.write_text("algebra: preset upper_triangular(2, 2)\nfactor: regular\nfactor: simple#0\nfactor: simple#1\n")
    commands = [
        [kind, "--in", str(alg)] for kind in ("irr", "zlattice", "radical", "chain-bound")
    ] + [
        ["chain-bound", "--in", str(alg), "--module", "simple#3"],
        ["embed-staged", "--in", str(fam)],
        ["embed-chain", "--in", str(fam)],
    ]
    script = (
        "import sys\nfrom irrtop.cli import run\n"
        f"for argv in {commands!r}:\n"
        "    assert run(argv)[0] == 0, argv\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    src = str(Path(meataxe.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
