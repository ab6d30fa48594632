"""The associativity check over nonzero structure constants against the
dense einsum it replaced: the full report, message for message, on the
gallery, on random dense algebras, on rebased presets whose constants are
dense, on corruptions, and with the chunk size forced small. Also the memory
bound at d = 64 and the dimension cap at every input boundary."""

import tracemalloc

import numpy as np
import pytest

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
