"""Polynomials over GF(p): characteristic polynomials, gcd, powers modulo a
polynomial, the Ben-Or irreducibility test, factorization, and the roots of a
polynomial that splits into distinct linear factors (found without draws).

A polynomial is a 1-d int64 array of coefficients in [0, p), lowest degree
first, with no trailing zero; the zero polynomial is the empty array. Every
product of two coefficients stays below 2**40 (p < 2**20), and every sum in a
convolution or a matrix product has fewer than 2**23 terms, so int64 is exact.

Arithmetic modulo a fixed monic f of degree n goes through a ``Modulus``:
t**(n+j) mod f is precomputed for j < n - 1, so a product modulo f is one
convolution and one matrix-vector product, and a power takes O(log e)
products.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "charpoly",
    "trim",
    "monic",
    "poly_divmod",
    "poly_gcd",
    "poly_eval_matrix",
    "Modulus",
    "is_irreducible",
    "squarefree_factorization",
    "distinct_degree_factorization",
    "equal_degree_split",
    "factor",
    "distinct_roots",
]

_T = np.array([0, 1], dtype=np.int64)
_ONE = np.array([1], dtype=np.int64)


def trim(f) -> np.ndarray:
    """Drop trailing zero coefficients."""
    f = np.asarray(f, dtype=np.int64)
    nz = np.flatnonzero(f)
    return f[: nz[-1] + 1] if nz.size else f[:0]


def monic(f: np.ndarray, p: int) -> np.ndarray:
    f = trim(f)
    if not f.size:
        return f
    return (f * pow(int(f[-1]), p - 2, p)) % p


def _strip(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _divmod(a: list, b: list, p: int) -> list:
    """Reduce the coefficient list a modulo the trimmed nonzero b in place;
    returns the quotient. Python lists: at the degrees seen here, each step
    is a few scalar operations, cheaper than a numpy call."""
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - db, 0)
    while len(a) > db:
        c = a[-1] * inv % p
        if c:
            off = len(a) - 1 - db
            q[off] = c
            for j in range(db):
                a[off + j] = (a[off + j] - c * b[j]) % p
        a.pop()
    _strip(a)
    return _strip(q)


def poly_divmod(f: np.ndarray, g: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of f by a nonzero g."""
    b = trim(g).tolist()
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = trim(f).tolist()
    q = _divmod(a, b, p)
    return np.array(q, dtype=np.int64), np.array(a, dtype=np.int64)


def poly_gcd(f: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """Monic greatest common divisor (zero only when both are zero)."""
    a, b = trim(f).tolist(), trim(g).tolist()
    while b:
        _divmod(a, b, p)
        a, b = b, a
    return monic(np.array(a, dtype=np.int64), p)


def poly_eval_matrix(f: np.ndarray, a: np.ndarray, p: int) -> np.ndarray:
    """f(a) for a square matrix a, by Horner's rule."""
    n = a.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    diag = np.arange(n)
    for c in trim(f)[::-1]:
        out = (out @ a) % p
        out[diag, diag] = (out[diag, diag] + c) % p
    return out


SMALL_MATRIX = 12  # up to this size Python scalars beat numpy's per-call cost


def charpoly(a: np.ndarray, p: int) -> np.ndarray:
    """Characteristic polynomial det(tI - a) over GF(p), monic of degree n.

    Similarity transforms bring a to upper Hessenberg form H, one column at a
    time. Then P_0 = 1 and, with s_m = H[m, m-1],
    P_k = t P_(k-1) - sum_(i<=k) H[i-1, k-1] s_i ... s_(k-1) P_(i-1).
    Matrices up to SMALL_MATRIX rows take the same steps on Python lists.
    """
    h = np.array(a, dtype=np.int64) % p
    n = h.shape[0]
    if n <= SMALL_MATRIX:
        return np.array(_charpoly_lists(h.tolist(), p), dtype=np.int64)
    for j in range(n - 2):
        k = j + 1 + int(h[j + 1 :, j].argmax())  # any nonzero entry will do as pivot
        if not h[k, j]:
            continue
        if k != j + 1:
            h[[j + 1, k]] = h[[k, j + 1]]
            h[:, [j + 1, k]] = h[:, [k, j + 1]]
        u = (h[j + 2 :, j] * pow(int(h[j + 1, j]), p - 2, p)) % p
        # Row i -= u_i * row j+1, then column j+1 += sum_i u_i * column i.
        h[j + 2 :] -= np.outer(u, h[j + 1])
        h[j + 2 :] %= p
        h[:, j + 1] += h[:, j + 2 :] @ u
        h[:, j + 1] %= p
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)  # row k holds P_k
    polys[0, 0] = 1
    prods = np.ones(n, dtype=np.int64)  # prods[i - 1] = s_i ... s_(k-1), the last one empty
    for k in range(1, n + 1):
        if k > 1:
            prods[: k - 1] = (prods[: k - 1] * h[k - 1, k - 2]) % p
        coef = (h[:k, k - 1] * prods[:k]) % p
        polys[k, 1:] = polys[k - 1, :-1]
        polys[k] = (polys[k] - coef @ polys[:k]) % p
    return polys[n]


def _charpoly_lists(h: list, p: int) -> list:
    """charpoly's steps on a list of rows, modified in place."""
    n = len(h)
    for j in range(n - 2):
        k = next((i for i in range(j + 1, n) if h[i][j]), None)
        if k is None:
            continue
        if k != j + 1:
            h[j + 1], h[k] = h[k], h[j + 1]
            for row in h:
                row[j + 1], row[k] = row[k], row[j + 1]
        inv, top = pow(h[j + 1][j], p - 2, p), h[j + 1]
        for i in range(j + 2, n):
            u = h[i][j] * inv % p
            if u:
                h[i] = [(x - u * y) % p for x, y in zip(h[i], top)]
                for row in h:
                    row[j + 1] = (row[j + 1] + u * row[i]) % p
    polys = [[1]]  # polys[k] is P_k, of length k + 1
    for k in range(1, n + 1):
        row, prod = [0] + polys[k - 1], 1
        for i in range(k, 0, -1):
            c = h[i - 1][k - 1] * prod % p
            if c:
                for e, x in enumerate(polys[i - 1]):
                    row[e] = (row[e] - c * x) % p
            if i > 1:
                prod = prod * h[i - 1][i - 2] % p
        polys.append(row)
    return polys[n]


class Modulus:
    """Arithmetic in GF(p)[t]/(f) for a monic f of degree n >= 1; elements
    are coefficient vectors of length n."""

    def __init__(self, f: np.ndarray, p: int):
        f = trim(f)
        if len(f) < 2 or f[-1] != 1:
            raise ValueError("modulus must be monic of positive degree")
        self.f, self.p, self.n = f, p, len(f) - 1
        n = self.n
        # Row j is t**(n + j) mod f; multiplying by t shifts and folds back t**n.
        self._fold = np.zeros((max(n - 1, 0), n), dtype=np.int64)
        cur = (-f[:n]) % p
        for j in range(n - 1):
            self._fold[j] = cur
            cur = (np.concatenate(([0], cur[:-1])) - cur[-1] * f[:n]) % p

    def lift(self, g) -> np.ndarray:
        """Residue of any polynomial."""
        g = trim(g)
        n = self.n
        if len(g) >= 2 * n:
            g = poly_divmod(g, self.f, self.p)[1]
        if len(g) <= n:
            return np.concatenate((g, np.zeros(n - len(g), dtype=np.int64)))
        return (g[:n] + g[n:] @ self._fold[: len(g) - n]) % self.p

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two residues."""
        c = np.convolve(a, b) % self.p
        return (c[: self.n] + c[self.n :] @ self._fold) % self.p

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        result = self.lift(_ONE)
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result


def _derivative(f: np.ndarray, p: int) -> np.ndarray:
    return trim((f[1:] * np.arange(1, len(f))) % p)


def _minus_t(h: np.ndarray, p: int) -> np.ndarray:
    """h - t for a residue h (length at least 2)."""
    g = h.copy()
    g[1] = (g[1] - 1) % p
    return g


def is_irreducible(f: np.ndarray, p: int) -> bool:
    """Ben-Or: f of degree n is irreducible iff it has no factor of degree
    i <= n/2, i.e. gcd(f, t**(p**i) - t) = 1 for every such i. A repeated
    factor g**2 is caught too: gcd(g**2, t**(p**k) - t) = g for k = deg g."""
    f = monic(f, p)
    n = len(f) - 1
    if n < 1:
        return False
    ring = Modulus(f, p)
    h = ring.lift(_T)
    for _ in range(n // 2):
        h = ring.pow(h, p)
        if len(poly_gcd(f, _minus_t(h, p), p)) > 1:
            return False
    return True


def _pth_root(f: np.ndarray, p: int) -> np.ndarray:
    """g with g**p = f, for f with f' = 0: over GF(p), g(t**p) = g(t)**p."""
    return f[::p].copy()


def squarefree_factorization(f: np.ndarray, p: int) -> list[tuple[np.ndarray, int]]:
    """Pairwise coprime squarefree monic (g, k) with prod g**k = monic f."""
    f = monic(f, p)
    out: list[tuple[np.ndarray, int]] = []
    if len(f) < 2:
        return out
    c = poly_gcd(f, _derivative(f, p), p)
    w = poly_divmod(f, c, p)[0]
    i = 1
    while len(w) > 1:
        y = poly_gcd(w, c, p)
        fac = poly_divmod(w, y, p)[0]
        if len(fac) > 1:
            out.append((fac, i))
        w, c, i = y, poly_divmod(c, y, p)[0], i + 1
    if len(c) > 1:
        out.extend((g, k * p) for g, k in squarefree_factorization(_pth_root(c, p), p))
    return out


def distinct_degree_factorization(f: np.ndarray, p: int) -> list[tuple[np.ndarray, int]]:
    """For squarefree monic f: (g_d, d) where g_d is the product of the
    irreducible factors of f of degree d, for each d that occurs."""
    f = monic(f, p)
    out: list[tuple[np.ndarray, int]] = []
    if len(f) < 2:
        return out
    ring = Modulus(f, p)
    h = ring.lift(_T)  # t**(p**d) mod the original f
    rest, d = f, 0
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = ring.pow(h, p)
        g = poly_gcd(rest, _minus_t(h, p), p)
        if len(g) > 1:
            out.append((g, d))
            rest = poly_divmod(rest, g, p)[0]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def equal_degree_split(f: np.ndarray, d: int, p: int, rng: np.random.Generator) -> list[np.ndarray]:
    """The irreducible factors of a squarefree monic f whose irreducible
    factors all have degree d. For a random h, each factor's field sees
    h**((p**d - 1) / 2) = N(h)**((p - 1) / 2) as 0 or +-1 at odd p, with N
    the norm h h**p ... h**(p**(d-1)); at p = 2 it sees the trace
    h + h**2 + ... + h**(2**(d-1)) as 0 or 1. Either way a gcd with f cuts
    the factors by a coin flip each."""
    f = monic(f, p)
    n = len(f) - 1
    if n == d:
        return [f]
    ring = Modulus(f, p)
    while True:
        h = rng.integers(0, p, size=n)
        acc, w = h.copy(), h
        for _ in range(d - 1):
            w = ring.pow(w, p)
            acc = (acc + w) % p if p == 2 else ring.mul(acc, w)
        if p != 2:
            acc = ring.pow(acc, (p - 1) // 2)
            acc[0] = (acc[0] - 1) % p
        g = poly_gcd(f, acc, p)
        if 1 < len(g) < len(f):
            rest = poly_divmod(f, g, p)[0]
            return equal_degree_split(g, d, p, rng) + equal_degree_split(rest, d, p, rng)


def factor(f: np.ndarray, p: int, rng: np.random.Generator) -> list[tuple[np.ndarray, int]]:
    """Monic irreducible factors of f with their multiplicities, ordered by
    degree and then by coefficients from the top; the order does not depend
    on rng, which only drives the equal-degree splits."""
    out = []
    for g, k in squarefree_factorization(f, p):
        for gd, d in distinct_degree_factorization(g, p):
            out.extend((q, k) for q in equal_degree_split(gd, d, p, rng))
    return sorted(out, key=lambda qk: (len(qk[0]), qk[0][::-1].tolist()))


def distinct_roots(f: np.ndarray, p: int) -> list[int] | None:
    """The roots of f in GF(p) when f splits into distinct linear factors,
    else None; in the order of ``factor``'s linear factors t - r, ascending
    in -r mod p. Nothing is drawn. f splits so iff it divides t**p - t. At
    odd p the roots are parted by g = gcd(f, (t + a)**((p - 1) / 2) - 1) for
    a = 0, 1, ...: g holds the roots r with r + a a nonzero square. Two roots
    r != s fall apart at some a, as the quadratic character chi has
    sum over a of chi((r + a)(s + a)) = -1."""
    f = monic(f, p)
    n = len(f) - 1
    if n < 1:
        return None if n < 0 else []
    if n == 1:
        return [int(-f[0]) % p]
    ring = Modulus(f, p)
    if _minus_t(ring.pow(ring.lift(_T), p), p).any():
        return None
    if p == 2:
        return [0, 1]  # t**2 - t itself

    def parts(g: np.ndarray) -> list[int]:
        if len(g) == 2:
            return [int(-g[0]) % p]
        ring = Modulus(g, p)
        for a in range(p):
            w = ring.pow(ring.lift(np.array([a, 1])), (p - 1) // 2)
            w[0] = (w[0] - 1) % p
            h = poly_gcd(g, w, p)
            if 1 < len(h) < len(g):
                return parts(h) + parts(poly_divmod(g, h, p)[0])
        raise AssertionError("a polynomial with distinct roots in GF(p) did not split")

    return sorted(parts(f), key=lambda r: -r % p)
