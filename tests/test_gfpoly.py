"""Polynomials over GF(p): the characteristic polynomial against three
oracles, factorization against trial division, and the arithmetic against
naive loops on Python lists (coefficients lowest degree first)."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from irrtop.gfpoly import (
    SMALL_MATRIX,
    Modulus,
    charpoly,
    distinct_degree_factorization,
    distinct_roots,
    equal_degree_split,
    factor,
    is_irreducible,
    monic,
    poly_divmod,
    poly_eval_matrix,
    poly_gcd,
    squarefree_factorization,
    trim,
)
from irrtop.linalg import PRIME_BOUND, is_prime

LARGEST_PRIME = max(q for q in range(PRIME_BOUND - 64, PRIME_BOUND) if is_prime(q))
TINY_PRIMES = (2, 3, 5, 7)


# --- oracles ------------------------------------------------------------------


def strip(a):
    a = [int(x) for x in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def mul_oracle(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return strip(out)


def divmod_oracle(f, g, p):
    """Long division, one leading term at a time."""
    r, g = strip(f), strip(g)
    q = [0] * max(len(r) - len(g) + 1, 0)
    inv = pow(g[-1], p - 2, p)
    while len(r) >= len(g):
        c, shift = r[-1] * inv % p, len(r) - len(g)
        q[shift] = c
        r = strip([(x - c * (g[i - shift] if 0 <= i - shift < len(g) else 0)) % p for i, x in enumerate(r)])
    return strip(q), r


def monic_oracle(f, p):
    f = strip(f)
    inv = pow(f[-1], p - 2, p)
    return [x * inv % p for x in f]


def gcd_oracle(f, g, p):
    f, g = strip(f), strip(g)
    while g:
        f, g = g, divmod_oracle(f, g, p)[1]
    return monic_oracle(f, p) if f else []


def monic_polys(deg, p):
    for low in itertools.product(range(p), repeat=deg):
        yield list(low) + [1]


def trial_division(f, p, max_deg=3):
    """Divide out every monic polynomial of degree 1..max_deg in turn.
    Reducible divisors never divide once their smaller factors are gone, so
    what is divided out is the irreducible factors of degree <= max_deg."""
    rest = monic_oracle(f, p)
    found = []
    for d in range(1, max_deg + 1):
        for g in monic_polys(d, p):
            k = 0
            while len(rest) > d:
                q, r = divmod_oracle(rest, g, p)
                if r:
                    break
                rest, k = q, k + 1
            if k:
                found.append((g, k))
    return found, rest


def det_oracle(a, p):
    """Determinant by elimination with Python integers."""
    m = [[int(x) % p for x in row] for row in a]
    n, det = len(m), 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return det % p


def interpolate_oracle(xs, ys, p):
    """Coefficients of the polynomial through the points (Lagrange)."""
    out = [0] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis, denom = [1], 1
        for j, xj in enumerate(xs):
            if j != i:
                basis = mul_oracle(basis, [(-xj) % p, 1], p) or [0]
                denom = denom * (xi - xj) % p
        c = yi * pow(denom, p - 2, p) % p
        for k, b in enumerate(basis):
            out[k] = (out[k] + c * b) % p
    return out


def matrix_poly_oracle(f, a, p):
    n = len(a)
    out = np.zeros((n, n), dtype=object)
    power = np.eye(n, dtype=object)
    a = np.array(a, dtype=object)
    for c in f:
        out = (out + c * power) % p
        power = (power @ a) % p
    return out


# --- the characteristic polynomial ----------------------------------------------


def sample_matrices(rng, n, p):
    yield rng.integers(0, p, size=(n, n))
    yield np.zeros((n, n), dtype=np.int64)
    yield np.eye(n, dtype=np.int64) * int(rng.integers(0, p))
    yield np.triu(rng.integers(0, p, size=(n, n)), 1)  # nilpotent
    low_rank = rng.integers(0, p, size=(n, 1)) @ rng.integers(0, p, size=(1, n))
    yield low_rank % p
    perm = np.eye(n, dtype=np.int64)[rng.permutation(n)]
    yield perm  # zero pivots below the diagonal force row swaps


# Sizes on both sides of SMALL_MATRIX, where charpoly leaves Python lists for numpy.
SIZES = tuple(range(1, 9)) + (SMALL_MATRIX, SMALL_MATRIX + 1, SMALL_MATRIX + 4)


@pytest.mark.parametrize("p", TINY_PRIMES + (101, LARGEST_PRIME))
def test_charpoly_satisfies_cayley_hamilton_trace_and_determinant(p):
    rng = np.random.default_rng(p % 1000)
    for n in SIZES:
        for a in sample_matrices(rng, n, p):
            c = charpoly(a, p)
            assert c.dtype == np.int64 and len(c) == n + 1 and c[-1] == 1
            assert not matrix_poly_oracle(c.tolist(), a.tolist(), p).any()
            assert c[n - 1] == -int(np.trace(a)) % p
            assert c[0] == (-1) ** n * det_oracle(a, p) % p


@pytest.mark.parametrize("p", (19, 101, LARGEST_PRIME))
def test_charpoly_matches_the_interpolated_determinant(p):
    # p > n, so det(xI - a) at x = 0..n fixes the degree-n polynomial.
    rng = np.random.default_rng(p % 997)
    for n in SIZES:
        for a in sample_matrices(rng, n, p):
            xs = list(range(n + 1))
            ys = [det_oracle((x * np.eye(n, dtype=np.int64) - a) % p, p) for x in xs]
            assert charpoly(a, p).tolist() == interpolate_oracle(xs, ys, p)


def test_poly_eval_matrix_matches_the_power_sum():
    rng = np.random.default_rng(5)
    for p in (2, 7, LARGEST_PRIME):
        for n in (1, 3, 6):
            a = rng.integers(0, p, size=(n, n))
            f = rng.integers(0, p, size=5)
            assert poly_eval_matrix(f, a, p).tolist() == matrix_poly_oracle(f.tolist(), a.tolist(), p).tolist()


# --- factorization against trial division ----------------------------------------


def factorization_cases(p, rng):
    """Every monic polynomial up to 256 of a degree, then random ones up to
    degree 7, where trial division to degree 3 is a full factorization."""
    for deg in range(1, 8):
        if p**deg <= 256:
            yield from monic_polys(deg, p)
        else:
            for _ in range(25):
                yield rng.integers(0, p, size=deg).tolist() + [1]


@pytest.mark.parametrize("p", TINY_PRIMES)
def test_factor_and_irreducibility_match_trial_division(p):
    rng = np.random.default_rng(40 + p)
    for f in factorization_cases(p, rng):
        found, rest = trial_division(f, p)
        want = sorted(found + ([(rest, 1)] if len(rest) > 1 else []), key=lambda gk: (len(gk[0]), gk[0][::-1]))
        got = factor(np.array(f, dtype=np.int64), p, rng)
        assert [(g.tolist(), k) for g, k in got] == want, f
        assert is_irreducible(np.array(f, dtype=np.int64), p) == (len(want) == 1 and want[0][1] == 1), f


def test_equal_degree_split_by_trace_and_by_norm():
    rng = np.random.default_rng(9)
    for p in (2, 3, 5):
        for d in (1, 2, 3):
            irreducibles = [g for g in monic_polys(d, p) if is_irreducible(np.array(g), p)][:4]
            prod = [1]
            for g in irreducibles:
                prod = mul_oracle(prod, g, p)
            got = equal_degree_split(np.array(prod, dtype=np.int64), d, p, rng)
            assert sorted(g.tolist() for g in got) == sorted(irreducibles)


def test_irreducibility_at_the_largest_prime():
    p = LARGEST_PRIME
    nonresidue = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)
    assert is_irreducible(np.array([-nonresidue % p, 0, 1]), p)
    assert not is_irreducible(np.array([-4 % p, 0, 1]), p)  # (t - 2)(t + 2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = np.append(rng.integers(0, p, size=4), 1)
        got = factor(f, p, rng)
        prod = [1]
        for g, k in got:
            assert is_irreducible(g, p)
            for _ in range(k):
                prod = mul_oracle(prod, g.tolist(), p)
        assert prod == f.tolist()


# --- properties ------------------------------------------------------------------

PRIMES = st.sampled_from(TINY_PRIMES + (101, 1009, LARGEST_PRIME))


@st.composite
def poly_and_prime(draw, max_deg=10, monic_only=False):
    p = draw(PRIMES)
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=max_deg + 1))
    if monic_only or not any(coeffs):
        coeffs = coeffs + [1]
    return np.array(coeffs, dtype=np.int64), p


@given(poly_and_prime(), st.integers(0, 2**32 - 1))
def test_factors_with_multiplicities_multiply_back(fp, seed):
    f, p = fp
    got = factor(f, p, np.random.default_rng(seed))
    prod = [1]
    for g, k in got:
        assert g[-1] == 1 and len(g) > 1
        for _ in range(k):
            prod = mul_oracle(prod, g.tolist(), p)
    assert prod == monic(f, p).tolist()
    assert len({tuple(g.tolist()) for g, _ in got}) == len(got)
    assert got == sorted(got, key=lambda gk: (len(gk[0]), gk[0][::-1].tolist()))


@given(poly_and_prime(monic_only=True))
def test_squarefree_and_distinct_degree_parts(fp):
    f, p = fp
    parts = squarefree_factorization(f, p)
    prod = [1]
    for g, k in parts:
        assert len(gcd_oracle(g.tolist(), strip((g[1:] * np.arange(1, len(g))) % p), p)) == 1
        for _ in range(k):
            prod = mul_oracle(prod, g.tolist(), p)
        for h, d in distinct_degree_factorization(g, p):
            assert all(len(q) - 1 == d for q, _ in factor(h, p, np.random.default_rng(0)))
    assert prod == monic_oracle(f.tolist(), p)


@given(poly_and_prime(), poly_and_prime())
def test_gcd_and_divmod_match_the_naive_loops(fp, gp):
    (f, p), (g, _) = fp, gp
    g = g % p
    assert poly_gcd(f, g, p).tolist() == gcd_oracle(f.tolist(), g.tolist(), p)
    if trim(g).size:
        q, r = poly_divmod(f, g, p)
        assert (q.tolist(), r.tolist()) == divmod_oracle(f.tolist(), g.tolist(), p)


@given(poly_and_prime(max_deg=8, monic_only=True), st.lists(st.integers(0, 10**6), max_size=8), st.integers(0, 40))
def test_powmod_matches_repeated_products_and_frobenius_linearity(fp, hs, e):
    f, p = fp
    if len(trim(f)) < 2:
        return
    ring = Modulus(f, p)
    h = ring.lift(np.array(hs or [0], dtype=np.int64) % p)
    naive = [1]
    for _ in range(e):
        naive = divmod_oracle(mul_oracle(naive, h.tolist(), p), f.tolist(), p)[1]
    assert trim(ring.pow(h, e)).tolist() == divmod_oracle(naive, f.tolist(), p)[1]
    # The p-th power is GF(p)-linear: h**p = sum h_i (t**p)**i.
    tp = ring.pow(ring.lift(np.array([0, 1])), p)
    want, ti = ring.lift(np.array([0])), ring.lift(np.array([1]))
    for c in h:
        want = (want + int(c) * ti) % p
        ti = ring.mul(ti, tp)
    assert ring.pow(h, p).tolist() == want.tolist()


@st.composite
def split_or_not(draw):
    """A product of linear factors, times a random polynomial half the
    time: squarefree split, with repeated roots, or with factors of higher
    degree."""
    p = draw(st.sampled_from([2, 3, 5, 7, 53, 1009, LARGEST_PRIME]))
    roots = draw(st.lists(st.integers(0, p - 1), max_size=7))
    f = [draw(st.integers(1, p - 1))]
    for r in roots:
        f = mul_oracle(f, [-r % p, 1], p)
    if draw(st.booleans()):
        f = mul_oracle(f, draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4)) + [1], p)
    return np.array(f, dtype=np.int64), p


@given(split_or_not())
def test_distinct_roots_are_the_linear_factors_in_their_order(fp):
    """The roots of a polynomial with distinct roots in GF(p), found without
    draws, are those of ``factor``'s linear factors, in the same order; any
    other polynomial gives None."""
    f, p = fp
    fac = factor(f, p, np.random.default_rng(0))
    roots = [int(-g[0]) % p for g, k in fac if len(g) == 2 and k == 1]
    splits = len(roots) == len(trim(f)) - 1
    assert distinct_roots(f, p) == (roots if splits else None)


def test_distinct_roots_of_every_split_polynomial_at_small_primes():
    for p in (3, 5, 7):
        for k in range(1, p + 1):
            for roots in itertools.combinations(range(p), k):
                f = [1]
                for r in roots:
                    f = mul_oracle(f, [-r % p, 1], p)
                assert distinct_roots(np.array(f), p) == sorted(roots, key=lambda r: -r % p)
    assert distinct_roots(np.array([1, 0, 1]), 3) is None  # t^2 + 1 is irreducible at 3
    assert distinct_roots(np.array([5]), 7) == [] and distinct_roots(np.array([0]), 7) is None
