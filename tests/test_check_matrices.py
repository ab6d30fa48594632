"""Annihilators as check matrices.

Every meet of class annihilators is a kernel: ``ann_meet`` takes one kernel
of the stacked check matrices. The Zassenhaus ``Subspace.intersect`` fold it
replaced is the oracle here, on every gallery algebra and on the gallery
shapes rebuilt at p in {2, 3, 5} and at the largest accepted prime, over
every subset of the classes. The annihilator self-check is ``is_ideal``,
which contracts the check matrix with the structure constants when the
ideal is the larger side; the element loop is its oracle. The embeddings
folds (the product annihilator and the deletion meets) are kernels of
stacked check matrices too, over factors that need not be simple."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrtop import cli, embeddings, meataxe, modules
from irrtop.algebra import Ideal, ideal_generated, is_ideal
from irrtop.cli import run
from irrtop.docs import build_preset, parse_preset_expr
from irrtop.linalg import PRIME_BOUND, Subspace, is_prime, kernel, rref
from irrtop.meataxe import composition_factors, jacobson_radical
from irrtop.modules import annihilates_as_ideal, annihilator_subspace, regular_module, spin, sub_quotient, zero_module
from irrtop.oracles import group_factors
from irrtop.presets import gallery
from irrtop.topology import IrrPoint, IrrSpace, enumerate_irr, vanishing_set
from test_elimination import is_ideal_oracle

LARGEST_PRIME = max(q for q in range(PRIME_BOUND - 64, PRIME_BOUND) if is_prime(q))
SHAPES = (
    "matrix_algebra(1, {p})",
    "matrix_algebra(2, {p})",
    "upper_triangular(2, {p})",
    "upper_triangular(3, {p})",
    "truncated_polynomial(2, {p})",
    "truncated_polynomial(3, {p})",
    "commutative_split(3, {p})",
    "group_algebra(C2, {p})",
    "group_algebra(C3, {p})",
    "group_algebra(C4, {p})",
    "group_algebra(S3, {p})",
    "product(matrix_algebra(2, {p}), upper_triangular(2, {p}))",
)


def _preset(expr: str):
    ast, err = parse_preset_expr(expr)
    assert err is None, expr
    return build_preset(ast)


def algebras():
    """The gallery, then its shapes at each prime the input boundary
    accepts them at."""
    out = [pytest.param(a, id=a.name.replace(" ", "")) for a in gallery()]
    for p in (2, 3, 5, LARGEST_PRIME):
        for shape in SHAPES:
            expr = shape.format(p=p)
            try:
                out.append(pytest.param(_preset(expr), id=expr.replace(" ", "")))
            except ValueError:  # d**2 * (p - 1)**3 reaches 2**63
                pass
    return out


def intersect_fold(a, subspaces) -> Subspace:
    """The replaced meet: one Zassenhaus intersection per annihilator."""
    meet = Subspace.full(a.dim, a.p)
    for s in subspaces:
        meet = meet.intersect(s)
    return meet


def assert_rref(s: Subspace):
    """The stored basis is the unique read-only RREF of its span."""
    r, rank, pivots = rref(s.basis, s.p) if s.dim else (s.basis, 0, [])
    assert rank == s.dim and tuple(pivots) == s.pivots
    assert r.tolist() == s.basis.tolist()
    assert s.basis.dtype == np.int64 and not s.basis.flags.writeable


@pytest.mark.parametrize("a", algebras())
def test_kernel_meets_match_the_intersect_fold(a):
    space = enumerate_irr(a)
    n = len(space)
    assert n <= 5
    anns = [pt.ann.subspace for pt in space.points]
    for mask in range(2**n):
        ids = [i for i in range(n) if mask >> i & 1]
        want = intersect_fold(a, [anns[i] for i in ids])
        for got in (space.ann_meet(ids), space.ann_meet(ids[::-1] * 2)):
            assert got == want, (a.name, ids)
            assert_rref(got)
    rad = jacobson_radical(a, 0).subspace
    assert rad == intersect_fold(a, anns)
    assert_rref(rad)


@pytest.mark.parametrize("a", [pytest.param(a, id=a.name.replace(" ", "")) for a in gallery()])
def test_embedding_folds_match_the_intersect_fold(a):
    """Annihilators of regular, simple, sub- and quotient modules: every
    kernel fold over a subfamily, repeats and the empty family included."""
    rng = np.random.default_rng(a.dim * a.p)
    reg = regular_module(a)
    factors = [reg, zero_module(a)] + [pt.rep for pt in enumerate_irr(a).points]
    for _ in range(2):
        factors.extend(sub_quotient(reg, spin(reg, [rng.integers(0, a.p, size=a.dim)])))
    anns = [annihilator_subspace(f) for f in factors]
    for _ in range(40):
        kept = [anns[i] for i in rng.integers(0, len(anns), size=int(rng.integers(0, 5)))]
        got = embeddings._meet_all(kept, a.dim, a.p)
        assert got == intersect_fold(a, kept), a.name
        assert_rref(got)


def test_meet_kernel_and_check_matrix_on_random_subspaces():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5, LARGEST_PRIME):
        for _ in range(40):
            n = int(rng.integers(1, 8))
            u = Subspace.from_rows(rng.integers(0, p, size=(int(rng.integers(0, n + 1)), n)), p, ambient=n)
            v = Subspace.from_rows(rng.integers(0, p, size=(int(rng.integers(0, n + 1)), n)), p, ambient=n)
            c = v.check_matrix()
            assert c.shape == (n - v.dim, n) and kernel(c, p) == v
            got = kernel(np.vstack([u.check_matrix(), c]), p)
            assert got == u.intersect(v)
            assert_rref(got)


# --- the self-check ----------------------------------------------------------

SMALL = [
    _preset(e)
    for e in (
        "upper_triangular(2, 2)",
        "upper_triangular(3, 2)",
        "matrix_algebra(2, 3)",
        "truncated_polynomial(3, 2)",
        "group_algebra(S3, 3)",
        "product(matrix_algebra(2, 2), upper_triangular(2, 2))",
    )
]
SIMPLES = [[pt.rep for pt in enumerate_irr(a).points] for a in SMALL]


@settings(max_examples=200)
@given(
    st.integers(0, len(SMALL) - 1),
    st.sampled_from(["rows", "left", "two-sided"]),
    st.lists(st.lists(st.integers(0, 2**20), min_size=12, max_size=12), max_size=4),
    st.integers(-1, 3),
)
def test_annihilator_self_check_matches_is_ideal(which, kind, rows, module):
    a = SMALL[which]
    vecs = [np.array(r[: a.dim]) % a.p for r in rows]
    if kind == "rows":
        sub = Subspace.from_rows(vecs, a.p, ambient=a.dim)
    else:
        sub = ideal_generated(a, vecs, kind).subspace
    # module -1 is the zero module, whose check matrix has no rows: there
    # the self-check is the closure test alone.
    m = zero_module(a) if module < 0 else SIMPLES[which][module % len(SIMPLES[which])]
    want = annihilator_subspace(m).contains_space(sub) and is_ideal_oracle(a, sub, "two-sided")
    assert annihilates_as_ideal(m, sub) == want
    for sided in ("left", "two-sided"):
        assert is_ideal(a, sub, sided) == is_ideal_oracle(a, sub, sided)


def test_class_annihilators_need_no_module_and_no_ideal_check(monkeypatch):
    """The classes come from A/J: no module is built, so no module kernel
    and no ``annihilates_as_ideal`` runs, and the class annihilators are
    ideals because their idempotents are checked to be central; the one
    ``is_ideal`` check is the radical's."""
    for a in SMALL:
        classes = len(group_factors(composition_factors(regular_module(a), 0)))
        kernels, checks, ideals = [], [], []
        monkeypatch.setattr(modules, "kernel", lambda m, p, k=kernel: kernels.append(1) or k(m, p))
        check = annihilates_as_ideal
        monkeypatch.setattr(modules, "annihilates_as_ideal", lambda m, s, c=check: checks.append(1) or c(m, s))
        monkeypatch.setattr(meataxe, "is_ideal", lambda a, s, sided, i=is_ideal: ideals.append(1) or i(a, s, sided))
        assert len(enumerate_irr(a)) == classes
        assert (len(kernels), len(checks), len(ideals)) == (0, 0, 1), a.name
        # The radical is the trace chain: no class, so no class annihilator.
        checks.clear()
        jacobson_radical(a, 0)
        assert not checks, a.name
        monkeypatch.undo()


# --- the Chinese remainder self-check ---------------------------------------


def _duplicated_space(a):
    """The first class twice: two points with one annihilator."""
    first = enumerate_irr(a).points[0]
    return IrrSpace(a, (first, IrrPoint(1, first.dim, first.ann)))


def test_a_duplicated_point_breaks_the_chinese_remainder_identity():
    a = SMALL[0]
    space = _duplicated_space(a)
    assert space.ann_meet([0, 0]) == space.points[0].ann.subspace
    with pytest.raises(AssertionError, match="Chinese remainder"):
        space.ann_meet([0, 1])
    with pytest.raises(AssertionError, match="Chinese remainder"):
        vanishing_set(space, Ideal(a, Subspace.zero(a.dim, a.p), "two-sided"))


@pytest.mark.parametrize("argv", [["vset"], ["zlattice"], ["point-closure"], ["compare"], ["verify-form", "--set", "0,1"]])
def test_cli_exits_3_on_a_duplicated_point(tmp_path, monkeypatch, argv):
    monkeypatch.setattr(cli, "enumerate_irr", lambda a: _duplicated_space(a))
    alg = tmp_path / "ut2.alg"
    alg.write_text("preset: upper_triangular(2, 2)\n")
    code, out = run(argv + ["--in", str(alg), "--format", "structured"])
    assert code == 3
    assert out == f"internal error: {meataxe.CRT_FAILURE}\n"


def _radical_with_chain(tmp_path, monkeypatch, chain):
    monkeypatch.setattr(meataxe, "_trace_chain", chain)
    alg = tmp_path / "ut2.alg"
    alg.write_text("preset: upper_triangular(2, 2)\n")
    return run(["radical", "--in", str(alg), "--format", "structured"])


def test_cli_radical_exits_3_on_a_non_nilpotent_radical(tmp_path, monkeypatch):
    # The whole algebra is a two-sided ideal, and J^2 = J.
    code, out = _radical_with_chain(tmp_path, monkeypatch, lambda a: Subspace.full(a.dim, a.p))
    assert (code, out) == (3, "internal error: the radical is not nilpotent: J^2 has dimension 3, J^1 3\n")


def test_cli_radical_exits_3_on_a_radical_that_is_not_an_ideal(tmp_path, monkeypatch):
    # span{e11} of upper_triangular(2, 2) is not a two-sided ideal: e11 e12 = e12.
    code, out = _radical_with_chain(tmp_path, monkeypatch, lambda a: Subspace.from_rows([[1, 0, 0]], a.p))
    assert (code, out) == (3, "internal error: the trace chain's radical is not a two-sided ideal\n")
