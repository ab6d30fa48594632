"""The associativity check over nonzero structure constants against the
dense einsum it replaced: the full report, message for message, on the
gallery, on random dense algebras, on rebased presets whose constants are
dense, on corruptions, and with the chunk size forced small. The
generating-set certificate against the listing it skips, and which
algebras take it. Also the time and memory bounds at d = 64 and at the
cap, and the dimension cap at every input boundary."""

import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irrtop import algebra
from irrtop.algebra import ALGEBRA_DIM_CAP, Algebra, product_algebra, validate_algebra
from irrtop.cli import run
from irrtop.docs import parse_algebra, parse_family
from irrtop.linalg import PRIME_BOUND, is_prime, rref
from irrtop.presets import (
    commutative_split,
    cyclic_group_table,
    gallery,
    group_algebra,
    matrix_algebra,
    preset,
    truncated_polynomial,
    upper_triangular,
)

LARGEST_PRIME = max(q for q in range(PRIME_BOUND - 64, PRIME_BOUND) if is_prime(q))


# --- oracle: the dense d**4 einsum the check replaced ----------------------


def validate_oracle(a: Algebra) -> list[str]:
    report: list[str] = []
    d, p, lam = a.dim, a.p, a.mul
    if d == 0:
        report.append("zero-dimensional algebra has no identity element")
        return report
    left = np.einsum("ijm,mkl->ijkl", lam, lam) % p
    right = np.einsum("jkm,iml->ijkl", lam, lam) % p
    bad = np.argwhere(left != right)
    for i, j, k, _l in bad[:64]:
        report.append(f"associativity fails at ({a.basis_name(i)}*{a.basis_name(j)})*{a.basis_name(k)}")
    if len(bad) > 64:
        report.append(f"... and {len(bad) - 64} more associativity violations")
    eye = np.eye(d, dtype=np.int64)
    if (a.left_mult_matrix(a.one) != eye).any():
        report.append("identity element fails to act as identity on the left")
    if (a.right_mult_matrix(a.one) != eye).any():
        report.append("identity element fails to act as identity on the right")
    return report


# --- cases ------------------------------------------------------------------


def rebase(a: Algebra, seed: int) -> Algebra:
    """The same algebra in the basis c_i = sum_s g[i, s] b_s of a random
    invertible g: its structure constants are dense."""
    rng = np.random.default_rng(seed)
    d, p = a.dim, a.p
    while True:
        g = rng.integers(0, p, size=(d, d))
        if rref(g, p)[1] == d:
            break
    inv = rref(np.hstack([g, np.eye(d, dtype=np.int64)]), p)[0][:, d:]
    lam = np.einsum("is,jt,stu,uk->ijk", g, g, a.mul, inv, optimize=True) % p
    return Algebra(p, d, lam, (a.one @ inv) % p, name=f"{a.name} rebased")


def corrupt(a: Algebra, seed: int) -> Algebra:
    """One structure constant changed."""
    rng = np.random.default_rng(seed)
    lam = np.array(a.mul)
    i, j, k = rng.integers(0, a.dim, size=3)
    lam[i, j, k] = (lam[i, j, k] + int(rng.integers(1, a.p))) % a.p
    return Algebra(a.p, a.dim, lam, a.one, name=f"{a.name} corrupted", basis_names=a.basis_names)


def random_algebra(rng, d: int, p: int) -> Algebra:
    low = p - 5 if p > 5 else 0
    lam = rng.integers(low, p, size=(d, d, d)) * (rng.random((d, d, d)) < rng.random())
    return Algebra(p, d, lam, rng.integers(0, p, size=d), name=f"random({d},{p})")


def random_algebras():
    rng = np.random.default_rng(7)
    cases = [random_algebra(rng, int(rng.integers(1, 8)), p) for p in (2, 3, 5) for _ in range(8)]
    # d**2 * (p - 1)**3 < 2**63 leaves d <= 2 at the largest prime.
    cases += [random_algebra(rng, d, LARGEST_PRIME) for d in (1, 2, 2, 2)]
    return cases


DENSE = [rebase(matrix_algebra(4, 3), 1), rebase(matrix_algebra(5, 2), 2)]
CASES = (
    gallery()
    + [corrupt(a, s) for s, a in enumerate(gallery())]
    + random_algebras()
    + DENSE
    + [corrupt(a, 9) for a in DENSE]
    + [Algebra(3, 3, np.zeros((3, 3, 3), dtype=np.int64), np.zeros(3, dtype=np.int64), name="zero")]
)


@pytest.fixture(params=[None, 1, 500], ids=["default-chunk", "one-i-per-chunk", "chunk-500"])
def chunk(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(algebra, "VALIDATE_CHUNK", request.param)
    return request.param


@pytest.mark.parametrize("a", CASES, ids=lambda a: a.name)
def test_validate_matches_the_dense_einsum(a, chunk):
    assert validate_algebra(a) == validate_oracle(a)


def test_the_cases_reach_both_verdicts_and_the_overflow_line():
    reports = [validate_oracle(a) for a in CASES]
    assert any(not r for r in reports)
    assert any(any(m.startswith("... and ") for m in r) for r in reports)
    assert validate_oracle(DENSE[0]) == validate_oracle(DENSE[1]) == []


def test_many_violations_are_counted_past_the_first_64(chunk):
    lam = np.array(matrix_algebra(3, 2).mul)
    lam[0, 0] = 1  # e11 * e11 = sum of every basis element
    a = Algebra(2, 9, lam, matrix_algebra(3, 2).one, basis_names=matrix_algebra(3, 2).basis_names)
    report = validate_algebra(a)
    assert report == validate_oracle(a)
    assert len(report) > 65 and report[64].startswith("... and ") and report[64].endswith(" more associativity violations")


def test_validate_at_d64_stays_small():
    a = matrix_algebra(8, 2)
    tracemalloc.start()
    try:
        assert validate_algebra(a) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize(
    "build",
    [lambda: truncated_polynomial(ALGEBRA_DIM_CAP, 2), lambda: group_algebra(cyclic_group_table(143), 2)],
    ids=["truncated_polynomial(144,2)", "group_algebra(C143,2)"],
)
def test_validate_at_the_cap_is_certified_within_one_second_and_100_mb(build):
    """One generator certifies these dense commutative presets, so the d**5
    listing never runs. The interpreter and numpy hold about 30 MB, so a
    traced peak below 64 MiB, the constants included, keeps the whole
    process under 100 MB."""
    tracemalloc.start()
    try:
        a = build()
        tracemalloc.reset_peak()
        with mock.patch.object(algebra, "_associativity_violations", side_effect=AssertionError("listing entered")):
            start = time.perf_counter()
            assert validate_algebra(a) == []
            elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 64 * 2**20


@pytest.mark.parametrize(
    "build",
    [lambda: upper_triangular(16, 2), lambda: matrix_algebra(12, 2)],
    ids=["upper_triangular(16,2)", "matrix_algebra(12,2)"],
)
def test_sparse_standard_bases_at_the_cap_form_no_certificate_product(build):
    """Their listing costs less than the generators they would need."""
    a = build()
    with mock.patch.object(algebra, "_generator_associates", side_effect=AssertionError("certificate product formed")):
        assert validate_algebra(a) == []


def test_building_an_algebra_at_the_cap_holds_one_copy_of_the_constants():
    tracemalloc.start()
    try:
        a = truncated_polynomial(ALGEBRA_DIM_CAP, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * a.mul.nbytes


def test_constants_in_range_are_kept_and_others_are_reduced_into_a_copy():
    m2 = matrix_algebra(2, 3)
    lam = np.array(m2.mul)
    kept = Algebra(3, 4, lam, m2.one)
    assert np.shares_memory(kept.mul, lam) and not kept.mul.flags.writeable and lam.flags.writeable
    shifted = lam - 3
    reduced = Algebra(3, 4, shifted, m2.one)
    assert not np.shares_memory(reduced.mul, shifted) and np.array_equal(reduced.mul, lam)
    assert np.array_equal(shifted, lam - 3)


# --- the certificate against the listing -------------------------------------


def listing_report(a: Algebra) -> list[str]:
    """The report with the certificate switched off: the listing alone."""
    with mock.patch.object(algebra, "_certified", return_value=False):
        return validate_algebra(a)


GALLERY = gallery()
REBASED = [rebase(a, 20 + s) for s, a in enumerate(GALLERY)] + [
    rebase(group_algebra(cyclic_group_table(6), 5, name="group_algebra(C6,5)"), 40),
    rebase(upper_triangular(3, 3), 41),
    rebase(truncated_polynomial(5, 3), 42),
]


@st.composite
def altered(draw):
    """A gallery or rebased preset: as it is, with one structure constant
    changed, or with one identity coordinate changed."""
    a = draw(st.sampled_from(GALLERY + REBASED))
    how = draw(st.sampled_from(["as is", "constant", "identity"]))
    lam, one = np.array(a.mul), np.array(a.one)
    if how == "constant":
        at = tuple(draw(st.integers(0, a.dim - 1)) for _ in range(3))
        lam[at] = (lam[at] + draw(st.integers(1, a.p - 1))) % a.p
    elif how == "identity":
        at = draw(st.integers(0, a.dim - 1))
        one[at] = (one[at] + draw(st.integers(1, a.p - 1))) % a.p
    return Algebra(a.p, a.dim, lam, one, name=f"{a.name} {how}", basis_names=a.basis_names)


@settings(max_examples=300)
@given(altered(), st.sampled_from([algebra.VALIDATE_CHUNK, 1, 40]))
def test_the_certificate_and_the_listing_give_the_same_report(a, chunk):
    with mock.patch.object(algebra, "VALIDATE_CHUNK", chunk):
        assert validate_algebra(a) == listing_report(a) == validate_oracle(a)


@settings(max_examples=200)
@given(altered(), st.sampled_from([algebra.VALIDATE_CHUNK, 1, 40]))
def test_the_generator_test_matches_the_dense_associator(a, chunk):
    lam, p = a.mul, a.p
    associator = (np.einsum("ijm,mkl->ijkl", lam, lam) - np.einsum("jkm,iml->ijkl", lam, lam)) % p
    with mock.patch.object(algebra, "VALIDATE_CHUNK", chunk):
        assert [algebra._generator_associates(a, i) for i in range(a.dim)] == [not x.any() for x in associator]


def listing_cost(a: Algebra) -> int:
    rows, cols1, cols2 = algebra._support(a.mul)
    return len(rows) * a.dim * (len(cols1) + len(cols2))


@settings(max_examples=100)
@given(altered(), st.sampled_from([1, 40]))
def test_the_certificate_never_costs_the_listing(a, chunk):
    """No generator is tested once its 2 d**4 products would pass the
    listing's cost, nor any when the two that a non-commutative algebra
    needs would, so an algebra pays at most about twice what it did."""
    generator = mock.patch.object(algebra, "_generator_associates", wraps=algebra._generator_associates)
    with generator as tested, mock.patch.object(algebra, "VALIDATE_CHUNK", chunk):
        validate_algebra(a)
    least = 1 if np.array_equal(a.mul, a.mul.transpose(1, 0, 2)) else 2
    assert not tested.called or max(tested.call_count, least) * 2 * a.dim**4 < listing_cost(a)


def test_a_failed_identity_sends_the_algebra_to_the_listing():
    """In k[x]/(x^8) with e_0 x changed to x + x^7, x still lies in S and
    spins e_0 to the whole algebra, but e_0 is no longer a left identity
    and not in S: (e_0 e_0) x != e_0 (e_0 x). Without a two-sided identity
    the certificate would be fooled, so it is not tried, even with chunks
    of one entry, where the listing's cost alone would try it."""
    a = truncated_polynomial(8, 2)
    lam = np.array(a.mul)
    lam[0, 1, 7] ^= 1
    b = Algebra(2, 8, lam, a.one, basis_names=a.basis_names)
    assert algebra._certified(b, listing_cost(b))
    with mock.patch.object(algebra, "VALIDATE_CHUNK", 1):
        report = validate_algebra(b)
    assert report == validate_oracle(b)
    assert report[0] == "associativity fails at (1*1)*x" and report[-1].endswith("on the left")


@pytest.mark.parametrize("a", GALLERY + REBASED, ids=lambda a: a.name)
def test_a_listing_of_one_chunk_forms_no_certificate_product(a):
    with mock.patch.object(algebra, "_generator_associates", side_effect=AssertionError("certificate product formed")):
        assert validate_algebra(a) == []


@pytest.mark.parametrize("a", [a for a in REBASED if a.dim > 4] + GALLERY[-4:-1], ids=lambda a: a.name)
def test_the_certificate_decides_dense_and_group_algebras(a):
    """With chunks of one entry every listing takes several. At d <= 4 a
    dense listing costs at most the two generators a non-commutative
    algebra needs; above that, these need at most three."""
    listing = mock.patch.object(algebra, "_associativity_violations", side_effect=AssertionError("listing entered"))
    with listing, mock.patch.object(algebra, "VALIDATE_CHUNK", 1):
        assert validate_algebra(a) == []


# C5 x C5 over GF(2): the first generator is g1 of the first block, whose
# products meet no constant b_j b_k = ... b_l with j, k, l in the second.
TWO_BLOCKS = product_algebra([group_algebra(cyclic_group_table(5), 2)] * 2)


@settings(max_examples=60)
@given(st.sampled_from([(j, k, l) for j in range(6, 10) for k in range(6, 10) for l in range(5, 10)]))
def test_a_corruption_the_first_generator_misses_falls_back_to_the_listing(at):
    lam = np.array(TWO_BLOCKS.mul)
    lam[at] ^= 1
    a = Algebra(2, 10, lam, TWO_BLOCKS.one, basis_names=TWO_BLOCKS.basis_names)
    expected = validate_oracle(a)
    assume(expected)
    generator = mock.patch.object(algebra, "_generator_associates", wraps=algebra._generator_associates)
    listing = mock.patch.object(algebra, "_associativity_violations", wraps=algebra._associativity_violations)
    with generator as tested, listing as listed, mock.patch.object(algebra, "VALIDATE_CHUNK", 1):
        assert validate_algebra(a) == expected
    first = tested.call_args_list[0].args[1]
    assert first < 5 and algebra._generator_associates(a, first)
    listed.assert_called_once()


# --- the dimension cap -------------------------------------------------------


@pytest.mark.parametrize(
    "build, dim",
    [
        (lambda: matrix_algebra(13, 2), 169),
        (lambda: upper_triangular(17, 2), 153),
        (lambda: truncated_polynomial(ALGEBRA_DIM_CAP + 1, 2), ALGEBRA_DIM_CAP + 1),
        (lambda: commutative_split(ALGEBRA_DIM_CAP + 1, 2), ALGEBRA_DIM_CAP + 1),
        (lambda: group_algebra(cyclic_group_table(ALGEBRA_DIM_CAP + 1), 2), ALGEBRA_DIM_CAP + 1),
        (lambda: preset("group_algebra", (f"C{10**9}", 2)), 10**9),
        (lambda: product_algebra([matrix_algebra(10, 2), matrix_algebra(7, 2)]), 149),
    ],
)
def test_presets_refuse_dimensions_above_the_cap(build, dim):
    with pytest.raises(ValueError, match=f"algebra dimension {dim} exceeds the cap {ALGEBRA_DIM_CAP}"):
        build()


def test_the_cap_admits_the_largest_presets():
    assert matrix_algebra(12, 2).dim == ALGEBRA_DIM_CAP and upper_triangular(16, 2).dim <= ALGEBRA_DIM_CAP


@pytest.mark.parametrize(
    "dim, message",
    [
        (ALGEBRA_DIM_CAP + 1, f"algebra dimension {ALGEBRA_DIM_CAP + 1} exceeds the cap {ALGEBRA_DIM_CAP}"),
        (0, "dim expects one positive integer"),
    ],
)
def test_a_refused_dim_line_is_one_positioned_diagnostic(dim, message):
    doc, diags = parse_algebra(f"p: 2\ndim: {dim}\none: 1\n")
    assert doc is None
    assert [(d.line, d.col, d.message) for d in diags] == [(2, 6, message)]


@pytest.mark.parametrize("gap", ["", " ", "   ", "\t"])
def test_diagnostics_point_at_the_first_character_of_the_value(gap):
    """With or without blanks after the colon; a preset-expression error is
    offset from the first character of the expression."""
    diags = parse_algebra(f"p: 2\ndim:{gap}200\none: 1\n")[1]
    assert [(d.line, d.col) for d in diags] == [(2, 5 + len(gap))]
    # The offending ',' is character 18 of the expression, and 20 below.
    diags = parse_algebra(f"preset:{gap}matrix_algebra(2,, 2)\n")[1]
    assert (diags[0].line, diags[0].col) == (1, 8 + len(gap) + 17)
    diags = parse_family(f"algebra:{gap}preset  upper_triangular(2,, 2)\nfactor: regular\n")[1]
    assert (diags[0].line, diags[0].col) == (1, 9 + len(gap) + len("preset  ") + 19)
    diags = parse_family(f"algebra: preset upper_triangular(2, 2)\nfactor:{gap}explicit 100000000\n")[1]
    assert (diags[0].line, diags[0].col) == (2, 8 + len(gap))


def test_the_dim_line_admits_the_cap():
    doc, diags = parse_algebra(f"p: 2\ndim: {ALGEBRA_DIM_CAP}\none: 1\n")
    assert not any("cap" in d.message for d in diags)


@pytest.mark.parametrize(
    "text, code, message",
    [
        ("preset: matrix_algebra(60, 2)\n", 1, "error: algebra dimension 3600 exceeds the cap 144\n"),
        # Each part fits, their sum does not.
        ("preset: product(matrix_algebra(10, 2), matrix_algebra(7, 2))\n", 1, "error: algebra dimension 149 exceeds the cap 144\n"),
        ("p: 2\ndim: 200\none: 1\n", 2, "error: algebra parse failed: 2:6: algebra dimension 200 exceeds the cap 144\n"),
    ],
)
def test_cli_refuses_dimensions_above_the_cap(tmp_path, text, code, message):
    path = tmp_path / "big.alg"
    path.write_text(text)
    got = run(["irr", "--in", str(path), "--format", "structured"])
    assert got[:2] == (code, message)
