"""Exact linear algebra over GF(p): frozen examples plus brute-force
row-space and kernel oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrtop import linalg
from irrtop.linalg import (
    PRIME_BOUND,
    Subspace,
    all_vectors,
    is_prime,
    kernel,
    projective_vectors,
    ranks,
    rref,
    solve,
    validate_prime,
)


def row_space_vectors(m, p):
    """Oracle: every vector in the row space, by enumerating coefficient
    tuples."""
    m = np.asarray(m, dtype=np.int64)
    out = set()
    for c in all_vectors(m.shape[0], p):
        out.add(tuple(int(t) for t in (c @ m) % p))
    return out


def test_rref_identity_fixed():
    eye = np.eye(3, dtype=np.int64)
    r, rank, piv = rref(eye, 2)
    assert (r == eye).all() and rank == 3 and piv == [0, 1, 2]


def test_rref_zero_matrix():
    z = np.zeros((2, 4), dtype=np.int64)
    r, rank, piv = rref(z, 5)
    assert (r == z).all() and rank == 0 and piv == []


def test_rref_duplicate_rows_gf2():
    m = np.array([[1, 1], [1, 1]], dtype=np.int64)
    r, rank, _ = rref(m, 2)
    # Oracle: the row space contains exactly the 2 vectors {00, 11}.
    assert row_space_vectors(m, 2) == {(0, 0), (1, 1)}
    assert rank == 1
    assert (r[0] == np.array([1, 1])).all()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_preserves_row_space(p):
    rng = np.random.default_rng(p)
    for _ in range(25):
        m = rng.integers(0, p, size=(int(rng.integers(1, 4)), int(rng.integers(1, 4))))
        r, rank, _ = rref(m, p)
        assert row_space_vectors(m, p) == row_space_vectors(r, p)
        r2, rank2, _ = rref(r, p)
        assert (r2 == r).all() and rank2 == rank


def test_kernel_identity_is_zero():
    assert kernel(np.eye(4, dtype=np.int64), 3).dim == 0


def test_kernel_zero_map_is_full():
    k = kernel(np.zeros((2, 2), dtype=np.int64), 3)
    assert k.dim == 2 and k.is_full


def test_kernel_example_gf2():
    m = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int64)
    k = kernel(m, 2)
    # Oracle: check all 8 vectors directly.
    members = {tuple(v) for v in all_vectors(3, 2) if not ((m @ v) % 2).any()}
    assert members == {(0, 0, 0), (1, 1, 0)}
    assert k.dim == 1 and k.contains([1, 1, 0])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_kernel_rank_dimension(p):
    rng = np.random.default_rng(p + 10)
    for _ in range(30):
        m = rng.integers(0, p, size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
        _, rank, _ = rref(m, p)
        assert kernel(m, p).dim + rank == m.shape[1]
        for row in kernel(m, p).basis:
            assert not ((m @ row) % p).any()


def test_solve_identity():
    b = np.array([1, 4, 2], dtype=np.int64)
    x = solve(np.eye(3, dtype=np.int64), b, 5)
    assert (x == b).all()


def test_solve_inconsistent():
    assert solve(np.zeros((2, 2), dtype=np.int64), [1, 0], 3) is None


def test_solve_random_gf5_verified_by_substitution():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.integers(0, 5, size=(4, 4))
        b = rng.integers(0, 5, size=4)
        x = solve(a, b, 5)
        if x is None:
            # Confirm by scanning the column space.
            cols = row_space_vectors(a.T, 5)
            assert tuple(int(t) for t in b % 5) not in cols
        else:
            assert ((a @ x) % 5 == b % 5).all()


def test_subspace_idempotent_ops():
    u = Subspace.from_rows([[1, 1, 0], [0, 1, 1]], 2)
    assert u.intersect(u) == u
    assert u.add(u) == u


def test_complementary_coordinate_subspaces():
    u = Subspace.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]], 2)
    v = Subspace.from_rows([[0, 0, 1, 0], [0, 0, 0, 1]], 2)
    assert u.intersect(v).is_zero
    assert u.add(v).is_full


@pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_dimension_formula(p, n):
    rng = np.random.default_rng(n * p)
    for _ in range(25):
        u = Subspace.from_rows(rng.integers(0, p, size=(int(rng.integers(0, n + 1)), n)), p, ambient=n)
        v = Subspace.from_rows(rng.integers(0, p, size=(int(rng.integers(0, n + 1)), n)), p, ambient=n)
        assert u.dim + v.dim == u.add(v).dim + u.intersect(v).dim
        # Membership oracle over the full (small) ambient space.
        for w in all_vectors(n, p):
            both = u.contains(w) and v.contains(w)
            assert both == u.intersect(v).contains(w)


def test_contains_and_coords():
    u = Subspace.from_rows([[1, 0, 2], [0, 1, 1]], 3)
    w = (np.array([2, 1]) @ u.basis) % 3
    assert u.contains(w)
    assert (u.coords(w) == np.array([2, 1])).all()
    assert not u.contains([0, 0, 1])
    assert u.coords([0, 0, 1]) is None


def test_projective_vectors_cover_lines():
    vs = list(projective_vectors(3, 3))
    assert len(vs) == (3**3 - 1) // 2
    seen = set()
    for v in vs:
        line = frozenset(tuple((c * v) % 3) for c in range(1, 3))
        assert line not in seen
        seen.add(line)


LARGEST_PRIME = max(q for q in range(PRIME_BOUND - 64, PRIME_BOUND) if is_prime(q))


def python_rref(rows, p):
    """Oracle: reduced row echelon form in Python integers."""
    r = [[int(v) % p for v in row] for row in rows]
    pr = 0
    for c in range(len(r[0]) if r else 0):
        k = next((i for i in range(pr, len(r)) if r[i][c]), None)
        if k is None:
            continue
        r[pr], r[k] = r[k], r[pr]
        inv = pow(r[pr][c], p - 2, p)
        r[pr] = [v * inv % p for v in r[pr]]
        for i in range(len(r)):
            if i != pr and r[i][c]:
                f = r[i][c]
                r[i] = [(a - f * b) % p for a, b in zip(r[i], r[pr])]
        pr += 1
    return r, pr


def test_primes_at_or_above_the_bound_are_refused():
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        validate_prime(4294967311)
    assert validate_prime(LARGEST_PRIME) == LARGEST_PRIME


def test_largest_accepted_prime_matches_python_integers():
    p = LARGEST_PRIME
    rng = np.random.default_rng(5)
    for shape in [(2, 2), (4, 6), (6, 4), (8, 8)]:
        m = rng.integers(p - 5, p, size=shape)
        r, rank, _ = rref(m, p)
        want, want_rank = python_rref(m.tolist(), p)
        assert rank == want_rank and r.tolist() == want
        x = rng.integers(p - 5, p, size=(shape[1], 64))
        want_prod = [[sum(int(a) * int(b) for a, b in zip(row, col)) % p for col in x.T] for row in m]
        assert ((m @ x) % p).tolist() == want_prod
    assert python_rref([[p - 1, p - 2], [p - 3, p - 5]], p) == ([[1, 0], [0, 1]], 2)
    assert rref(np.array([[p - 1, p - 2], [p - 3, p - 5]]), p)[0].tolist() == [[1, 0], [0, 1]]


# --- stacked ranks against rref --------------------------------------------


def low_rank_stack(rng, p, count, m, n):
    """A stack of m-by-n products of random m-by-k and k-by-n factors, so
    ranks below min(m, n) are common."""
    k = int(rng.integers(0, min(m, n) + 1))
    return (rng.integers(0, p, size=(count, m, k)) @ rng.integers(0, p, size=(count, k, n))) % p


@pytest.mark.parametrize("p", [2, 3, 5, LARGEST_PRIME])
def test_ranks_match_rref(p):
    rng = np.random.default_rng(p % 1000)
    # Empty stack, no rows, no columns, tall, wide and square.
    shapes = [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (5, 7, 2), (5, 2, 7), (6, 5, 5), (4, 1, 6), (4, 6, 1)]
    for count, m, n in shapes:
        for stack in [rng.integers(0, p, size=(count, m, n)), low_rank_stack(rng, p, count, m, n)]:
            got = ranks(stack, p)
            assert got.shape == (count,)
            assert got.tolist() == [rref(mat, p)[1] for mat in stack]
    deficient = np.array([[[1, 2, 3], [2, 4, 6], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]])
    assert ranks(deficient, p).tolist() == [rref(mat, p)[1] for mat in deficient]


def test_ranks_reduce_entries_and_refuse_other_shapes():
    # Entries are taken mod p: mod 2 these are the zero matrix and [[1, 1], [1, 1]].
    assert ranks(np.array([[[2, 4], [4, 2]], [[3, 1], [1, 3]]]), 2).tolist() == [0, 1]
    assert ranks(np.array([[[-1, 0], [0, -1]]]), 3).tolist() == [2]
    with pytest.raises(ValueError):
        ranks(np.eye(3, dtype=np.int64), 3)


@st.composite
def matrix_and_prime(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, LARGEST_PRIME]))
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=m * n, max_size=m * n))
    return np.array(entries, dtype=np.int64).reshape(m, n), p


@given(matrix_and_prime())
def test_rank_is_transpose_invariant_and_complements_the_kernel(mp):
    m, p = mp
    rank = int(ranks(m[None], p)[0])
    assert rank == int(ranks(m.T[None], p)[0])
    assert rank + kernel(m, p).dim == m.shape[1]


# --- rref: the list path and the column sweep -------------------------------


@pytest.fixture(params=["lists", "sweep"])
def rref_path(request, monkeypatch):
    """Every matrix through one of rref's two paths."""
    monkeypatch.setattr(linalg, "SMALL_RREF", 10**9 if request.param == "lists" else 0)
    return request.param


@pytest.mark.parametrize("p", [2, 3, 5, LARGEST_PRIME])
def test_both_rref_paths_match_python_integers(rref_path, p):
    rng = np.random.default_rng(p)
    low = p - 5 if p > 5 else 0
    for rows, cols, rank in [(0, 3, 0), (3, 0, 0), (1, 1, 1), (5, 8, 3), (8, 5, 5), (12, 12, 7), (300, 20, 9), (40, 60, 40)]:
        m = rng.integers(low, p, size=(rows, rank)) @ rng.integers(low, p, size=(rank, cols)) % p
        # Zero rows and repeated rows, as in a stack of products.
        m = np.vstack([m, np.zeros((rows // 2, cols), dtype=np.int64), m[: rows // 3]])
        r, got_rank, pivots = rref(m, p)
        want, want_rank = python_rref(m.tolist(), p)
        assert r.dtype == np.int64 and r.shape == m.shape
        assert (r.tolist(), got_rank) == (want, want_rank) and got_rank == len(pivots)
        assert [next(c for c, v in enumerate(row) if v) for row in want[:want_rank]] == pivots


@given(matrix_and_prime())
def test_the_rref_paths_agree(mp):
    m, p = mp
    want = python_rref(m.tolist(), p)
    for small in (0, 10**9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "SMALL_RREF", small)
            r, rank, _ = rref(m, p)
        assert (r.tolist(), rank) == want


@st.composite
def kernel_inputs(draw):
    """A matrix of random rank with repeated and zero rows, at p in
    {2, 3, 1009}, whose kernel basis has fewer or more than SMALL_RREF
    cells."""
    p = draw(st.sampled_from([2, 3, 1009]))
    rows, cols = draw(st.integers(0, 70)), draw(st.integers(1, 60))
    rank = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.integers(0, p, size=(rows, rank)) @ rng.integers(0, p, size=(rank, cols)) % p
    return np.vstack([m, np.zeros((rows // 3, cols), dtype=np.int64), m[: rows // 4]]), p


@settings(max_examples=150, deadline=None)
@given(kernel_inputs())
def test_the_kernel_paths_agree(mp):
    """kernel's list path (a basis below SMALL_RREF cells) and its numpy
    path give the same RREF basis, a basis of the null space."""
    m, p = mp
    got = []
    for small in (10**9, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "SMALL_RREF", small)
            got.append(kernel(m, p))
    lists, sweep = got
    assert lists == sweep and lists.pivots == sweep.pivots
    assert lists.basis.dtype == np.int64 and lists.basis.shape == (lists.dim, m.shape[1])
    assert not (m @ lists.basis.T % p).any()
    assert lists.dim + rref(m, p)[1] == m.shape[1]
    assert kernel(m, p) == lists
