"""The regular module's composition length from its Loewy layers.

``regular_length`` reads the length off the layers J^k / J^(k+1) and the
block idempotents of A/J; ``chain-bound`` and ``sufficiency`` take their
bound from it. The MeatAxe length (the number of composition factors of the
regular module, ``chain_bound``) is the oracle: on the gallery shapes at
p in {2, 3, 5, 53, 1009}, on group algebras with long Loewy series or
larger fields, on products with several blocks, and on presets in a random
dense basis and their quotients. On the tiny algebras the longest chain of
the submodule lattice is a second oracle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from irrtop import embeddings, meataxe
from irrtop.algebra import Algebra
from irrtop.cli import run
from irrtop.embeddings import ProductFamily, sufficiency_check
from irrtop.meataxe import composition_factors, regular_length
from irrtop.modules import regular_module
from irrtop.oracles import chain_bound, longest_submodule_chain
from irrtop.topology import enumerate_irr
from test_check_matrices import _preset
from test_classes import rebased_presets
from test_radical import shapes_at


def meataxe_length(a, seed=0):
    return len(composition_factors(regular_module(a), seed))


@pytest.mark.parametrize("p", [2, 3, 5, 53, 1009])
def test_length_matches_the_meataxe_on_the_gallery(p):
    for a in shapes_at(p):
        assert regular_length(a) == meataxe_length(a), a.name


GROUP_ALGEBRAS_AND_PRODUCTS = [
    "group_algebra(C21, 2)",  # five blocks, fields up to GF(64)
    "group_algebra(C9, 3)",  # local, Loewy length 9
    "group_algebra(C8, 3)",  # blocks GF(3), GF(3), GF(9), GF(9), GF(9)
    "group_algebra(S3, 2)",
    "group_algebra(S3, 3)",
    "group_algebra(S3, 5)",
    "product(matrix_algebra(3, 2), matrix_algebra(2, 2), matrix_algebra(2, 2), upper_triangular(2, 2))",
    "product(matrix_algebra(2, 3), matrix_algebra(3, 3), group_algebra(C4, 3))",
    "product(matrix_algebra(2, 2), upper_triangular(4, 2), group_algebra(S3, 2))",
    "product(group_algebra(C9, 3), upper_triangular(3, 3), matrix_algebra(2, 3))",
    "product(truncated_polynomial(5, 5), group_algebra(C5, 5), commutative_split(2, 5))",
]


@pytest.mark.parametrize("expr", GROUP_ALGEBRAS_AND_PRODUCTS)
def test_length_matches_the_meataxe_on_group_algebras_and_products(expr):
    a = _preset(expr)
    got = regular_length(a)
    for seed in (0, 1):
        assert got == meataxe_length(a, seed), expr


@settings(max_examples=40, deadline=None)
@given(rebased_presets())
def test_length_matches_the_meataxe_on_random_algebras(drawn):
    a, seed = drawn
    assert regular_length(a) == meataxe_length(a, seed)


def one_sided(p, column):
    """The matrices [[M_2, c], [0, x]] of M_3(GF(p)), c a column (or, with
    column false, [[M_2, 0], [r, x]], r a row): J = <c> (or <r>) joins the
    simple of dimension 2 to the one of dimension 1 from one side only. As a
    left module J is one copy of the 2-dimensional simple (or two of the
    other), so the left and the right layer parts give different lengths."""
    corner = [(0, 2), (1, 2)] if column else [(2, 0), (2, 1)]
    cells = [(i, j) for i in range(2) for j in range(2)] + [(2, 2)] + corner
    d = len(cells)
    lam = np.zeros((d, d, d), dtype=np.int64)
    for x, (i, j) in enumerate(cells):
        for y, (k, l) in enumerate(cells):
            if j == k:
                lam[x, y, cells.index((i, l))] = 1
    one = [1 if i == j else 0 for i, j in cells]
    return Algebra(p, d, lam, one, name=f"one_sided({p}, {column})")


def test_length_matches_the_meataxe_on_one_sided_radicals():
    for p in (2, 3):
        for column, length in ((True, 4), (False, 5)):
            a = one_sided(p, column)
            assert regular_length(a) == meataxe_length(a) == length, a.name


def test_length_matches_the_longest_submodule_chain_on_tiny_algebras():
    tiny = [a for p in (2, 3) for a in shapes_at(p) if p**a.dim <= 4096] + [one_sided(2, True), one_sided(2, False)]
    assert len(tiny) >= 14
    for a in tiny:
        assert regular_length(a) + 2 == longest_submodule_chain(regular_module(a)) + 1, a.name


def test_length_builds_no_module_and_splits_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a module was built or split")

    for name in ("composition_factors", "regular_module", "sub_quotient", "class_representative"):
        monkeypatch.setattr(meataxe, name, refuse)
    a = _preset("product(group_algebra(C9, 3), upper_triangular(3, 3), matrix_algebra(2, 3))")
    assert regular_length(a) == 9 + 6 + 2


def test_sufficiency_reads_the_bound_and_simplicity_off_the_blocks():
    for expr, bound, simple in [
        ("matrix_algebra(3, 2)", 5, True),
        ("upper_triangular(3, 2)", 8, False),
        ("commutative_split(2, 3)", 4, False),  # semisimple, two classes
        ("truncated_polynomial(4, 5)", 6, False),  # one class, J != 0
    ]:
        a = _preset(expr)
        rep = sufficiency_check(a, ProductFamily(a, (regular_module(a),)))
        assert (rep.bound, rep.algebra_simple) == (bound, simple), expr
        assert rep.bound == chain_bound(regular_module(a), 0), expr


# The algebras of the structure benchmark: chain-bound gives the MeatAxe
# answer on both module kinds, with the same bytes at every seed.
STRUCTURE = [
    "upper_triangular(7, 2)",
    "matrix_algebra(6, 2)",
    "group_algebra(C21, 2)",
    "product(matrix_algebra(3, 2), upper_triangular(4, 2), group_algebra(S3, 2))",
    "upper_triangular(4, 2)",
    "matrix_algebra(4, 2)",
    "truncated_polynomial(8, 3)",
    "product(matrix_algebra(2, 3), upper_triangular(3, 3))",
    "matrix_algebra(2, 2)",
    "matrix_algebra(2, 3)",
    "upper_triangular(2, 2)",
    "upper_triangular(3, 2)",
    "upper_triangular(2, 3)",
    "truncated_polynomial(3, 2)",
    "truncated_polynomial(2, 5)",
    "commutative_split(3, 2)",
    "group_algebra(C4, 2)",
    "group_algebra(C3, 2)",
    "group_algebra(S3, 3)",
    "product(matrix_algebra(2, 2), upper_triangular(2, 2))",
]


def _chain_bound_report(module, dim, bound):
    return f"result:\n  module: {module}\n  module_dim: {dim}\n  length: {bound - 2}\n  bound: {bound}\n"


@pytest.mark.parametrize("expr", STRUCTURE)
def test_chain_bound_gives_the_meataxe_bound_at_every_seed(tmp_path, expr):
    a = _preset(expr)
    alg = tmp_path / "a.alg"
    alg.write_text(f"preset: {expr}\n")
    reg = regular_module(a)
    points = enumerate_irr(a).points
    for seed in range(10):
        want = {"regular": (a.dim, chain_bound(reg, seed))}
        for pt in points:
            want[f"simple#{pt.id}"] = (pt.rep.n, chain_bound(pt.rep, seed))
        for module, (dim, bound) in want.items():
            code, out = run(["chain-bound", "--in", str(alg), "--seed", str(seed), "--module", module, "--format", "structured"])
            assert code == 0 and out.endswith(_chain_bound_report(module, dim, bound)), (expr, seed, module)


# --- the layer self-checks ----------------------------------------------------


def _drop_last(blocks, p):
    return dataclasses.replace(blocks, classes=blocks.classes[:-1], lifts=blocks.lifts[:-1])


def _wrong_dim(blocks, p):
    (dim, ann), *rest = blocks.classes
    return dataclasses.replace(blocks, classes=((dim + 1, ann), *rest))


def _overlap(blocks, p):
    lifts = blocks.lifts.copy()
    lifts[0] = (lifts[0] + lifts[1]) % p
    return dataclasses.replace(blocks, lifts=lifts)


BAD_BLOCKS = {
    # A class of dimension 1 read as 2: its part of A/J is 1.
    "wrong-class-dim": ("upper_triangular(3, 2)", _wrong_dim, meataxe.PART_FAILURE),
    # The parts of A/J miss the dropped block.
    "dropped-idempotent": ("product(upper_triangular(2, 3), matrix_algebra(2, 3))", _drop_last, meataxe.FILL_FAILURE),
    # e_0 + e_1 for e_0: the parts of A/J overlap and sum past it.
    "overlapping-parts": ("commutative_split(3, 5)", _overlap, meataxe.FILL_FAILURE),
}


@pytest.mark.parametrize("case", sorted(BAD_BLOCKS))
def test_bad_blocks_break_the_layer_checks(tmp_path, monkeypatch, case):
    expr, change, message = BAD_BLOCKS[case]
    a = _preset(expr)
    real = meataxe.semisimple_blocks
    for module in (meataxe, embeddings):
        monkeypatch.setattr(module, "semisimple_blocks", lambda a: change(real(a), a.p))
    with pytest.raises(AssertionError, match=message):
        regular_length(a)
    with pytest.raises(AssertionError, match=message):
        sufficiency_check(a, ProductFamily(a, ()))
    alg = tmp_path / "a.alg"
    alg.write_text(f"preset: {expr}\n")
    code, out = run(["chain-bound", "--in", str(alg), "--format", "structured"])
    assert code == 3 and out == f"internal error: {message}\n"


def test_each_layer_is_one_ranks_call_over_its_parts(monkeypatch):
    """upper_triangular(2, 2): A/J is GF(2) x GF(2), one part each, and the
    layer J = <e12> lies in one class's part alone."""
    seen = []
    real = meataxe.ranks

    def counted(stack, p):
        seen.append(real(stack, p))
        return seen[-1]

    monkeypatch.setattr(meataxe, "ranks", counted)
    assert regular_length(_preset("upper_triangular(2, 2)")) == 3
    assert [parts.tolist() for parts in seen] in ([[1, 1], [1, 0]], [[1, 1], [0, 1]])
