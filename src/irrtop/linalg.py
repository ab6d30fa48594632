"""Exact dense linear algebra over prime fields GF(p).

Matrices are plain numpy int64 arrays with entries reduced into [0, p).
Subspaces are kept in reduced row echelon form, which doubles as the
equality normal form: two subspaces are equal iff their RREF bases are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PRIME_BOUND",
    "is_prime",
    "validate_prime",
    "as_matrix",
    "as_vector",
    "rref",
    "ranks",
    "kernel",
    "solve",
    "all_vectors",
    "projective_vectors",
    "Subspace",
]


# Moduli must lie below this bound. Entries lie in [0, p), so an rref update
# or a product of two entries stays below (p - 1)**2 < 2**40, and a matrix
# product with inner dimension below 2**23 stays below 2**63 in int64.
PRIME_BOUND = 2**20


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def validate_prime(p: int) -> int:
    if not isinstance(p, (int, np.integer)):
        raise ValueError(f"modulus must be a prime integer, got {p!r}")
    if p >= PRIME_BOUND:
        raise ValueError(f"modulus {p} is not below the int64-safe bound {PRIME_BOUND}")
    if not is_prime(int(p)):
        raise ValueError(f"modulus must be a prime integer, got {p!r}")
    return int(p)


def as_matrix(rows, p: int, cols: int | None = None) -> np.ndarray:
    """Coerce to a 2-d int64 array reduced mod p; `cols` fixes the width of
    an empty matrix."""
    m = np.array(rows, dtype=np.int64)
    if m.ndim == 1:
        m = m.reshape(1, -1) if m.size else m.reshape(0, cols or 0)
    if m.size == 0:
        m = m.reshape(m.shape[0], cols if cols is not None else m.shape[-1] if m.ndim == 2 else 0)
    return m % p


def as_vector(v, p: int) -> np.ndarray:
    a = np.array(v, dtype=np.int64).reshape(-1)
    return a % p


SMALL_RREF = 2048  # below this many cells Python scalars beat numpy's per-call cost


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form of m over GF(p).

    Returns (r, rank, pivot_columns); r has the same shape as m and is the
    unique RREF of its row space padded with zero rows.

    One sweep per column c: the first row at or below the next pivot row
    with a nonzero entry in c is the pivot, and one outer-product update
    clears c in every other row that has it. The pivot row is zero left of
    c (earlier pivot columns are cleared, earlier free columns are zero
    below the pivot rows), so only columns from c on are updated. Matrices
    below SMALL_RREF cells take the same steps on Python lists.
    """
    r = np.array(m, dtype=np.int64)
    r %= p
    if r.ndim != 2:
        raise ValueError("rref expects a 2-d matrix")
    if r.size < SMALL_RREF:
        rows = r.tolist()
        pivots = _rref_lists(rows, p)
        return np.array(rows, dtype=np.int64).reshape(r.shape), len(pivots), pivots
    nrows, ncols = r.shape
    pivots: list[int] = []
    pr = 0
    for c in range(ncols):
        if pr == nrows:
            break
        found = np.flatnonzero(r[pr:, c])
        if not found.size:
            continue
        k = pr + int(found[0])
        if k != pr:
            r[[pr, k]] = r[[k, pr]]
        row = r[pr, c:] * pow(int(r[pr, c]), p - 2, p) % p
        # The update takes the pivot row to zero too; it is written after.
        rows = np.flatnonzero(r[:, c])
        block = r[rows, c:]
        block -= block[:, :1] * row
        block %= p
        r[rows, c:] = block
        r[pr, c:] = row
        pivots.append(c)
        pr += 1
    return r, pr, pivots


def _rref_lists(r: list[list[int]], p: int) -> list[int]:
    """``rref`` of a matrix as a list of rows, in place; returns the pivot
    columns."""
    pivots: list[int] = []
    for c in range(len(r[0]) if r else 0):
        pr = len(pivots)
        if pr == len(r):
            break
        for k in range(pr, len(r)):
            if r[k][c]:
                break
        else:
            continue
        r[pr], r[k] = r[k], r[pr]
        inv = pow(r[pr][c], p - 2, p)
        row = r[pr] = [x * inv % p for x in r[pr]]
        for i, other in enumerate(r):
            f = other[c]
            if f and i != pr:
                r[i] = [(x - f * y) % p for x, y in zip(other, row)]
        pivots.append(c)
    return pivots


def ranks(stack: np.ndarray, p: int) -> np.ndarray:
    """Rank over GF(p) of each matrix in an (N, m, n) stack.

    All matrices are eliminated together, one column at a time, over the
    shorter side (rank(M) = rank(M^T)). In each matrix the first row q that
    is nonzero in column c, with entry v there, is the pivot, and every row
    r becomes v*r - r[c]*q. That clears column c, q included, and the rows
    left span a space one dimension smaller, so each pivot counts one.
    Columns before c are already zero, so only those after it are updated.
    Products stay below p**2 < 2**40."""
    r = np.array(stack, dtype=np.int64) % p
    if r.ndim != 3:
        raise ValueError("ranks expects an (N, m, n) stack of matrices")
    if r.shape[1] < r.shape[2]:
        r = np.ascontiguousarray(r.transpose(0, 2, 1))
    rank = np.zeros(r.shape[0], dtype=np.int64)
    every = np.arange(r.shape[0])
    for c in range(r.shape[2]):
        col = r[:, :, c]
        nonzero = col != 0
        found = nonzero.any(axis=1)
        if not found.any():
            continue
        q = r[every, nonzero.argmax(axis=1), c:]
        # A matrix with nothing in the column keeps its rows: v = 1, r[c] = 0.
        v = np.where(found, q[:, 0], 1)
        r[:, :, c + 1 :] = (v[:, None, None] * r[:, :, c + 1 :] - col[:, :, None] * q[:, None, 1:]) % p
        rank += found
    return rank


def kernel(m: np.ndarray, p: int) -> "Subspace":
    """Right null space {x : m @ x = 0 mod p} as a Subspace of GF(p)^cols."""
    m = np.asarray(m, dtype=np.int64)
    nrows, ncols = m.shape
    if ncols == 0:
        return Subspace.zero(0, p)
    if nrows == 0:
        return Subspace.full(ncols, p)
    # Eliminate with the columns reversed. There the basis vector of a free
    # column f is 1 at f, -r[i, f] at the pivot columns left of f and 0
    # elsewhere, so in the original order its other entries lie right of its
    # 1: the vectors, taken in reverse, are already the kernel's RREF.
    r, rank, pivots = rref(m[:, ::-1], p)
    pset = set(pivots)
    free = [c for c in range(ncols) if c not in pset]
    if len(free) * ncols < SMALL_RREF:
        # A basis below SMALL_RREF cells is built on Python lists, as rref
        # works on small matrices, with one array conversion.
        r, rows = r[:rank].tolist(), []
        for f in reversed(free):
            v = [0] * ncols
            v[f] = 1
            for row, c in zip(r, pivots):
                v[c] = -row[f] % p
            rows.append(v[::-1])
        basis = np.array(rows, dtype=np.int64).reshape(len(free), ncols)
        return Subspace(p, ncols, basis, tuple(ncols - 1 - f for f in reversed(free)))
    rows = np.zeros((len(free), ncols), dtype=np.int64)
    rows[np.arange(len(free)), free] = 1
    rows[:, pivots] = (-r[:rank, free]).T % p
    return Subspace(p, ncols, rows[::-1, ::-1].copy(), tuple(ncols - 1 - f for f in reversed(free)))


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution x of a @ x = b mod p, or None when inconsistent."""
    a = np.asarray(a, dtype=np.int64) % p
    b = as_vector(b, p)
    nrows, ncols = a.shape
    if b.shape[0] != nrows:
        raise ValueError("dimension mismatch in solve")
    aug = np.hstack([a, b.reshape(-1, 1)])
    r, rank, pivots = rref(aug, p)
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = r[i, ncols]
    return x


def all_vectors(n: int, p: int):
    """All p**n vectors of GF(p)^n in little-endian counting order."""
    v = np.zeros(n, dtype=np.int64)
    yield v.copy()
    total = p**n
    for _ in range(total - 1):
        i = 0
        while True:
            v[i] += 1
            if v[i] < p:
                break
            v[i] = 0
            i += 1
        yield v.copy()


def projective_vectors(n: int, p: int):
    """One representative per scalar line of GF(p)^n: first nonzero coord 1."""
    for lead in range(n):
        head = np.zeros(lead + 1, dtype=np.int64)
        head[lead] = 1
        for tail in all_vectors(n - lead - 1, p):
            v = np.concatenate([head, tail])
            yield v


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(p)^ambient, stored as an RREF basis (rows)."""

    p: int
    ambient: int
    basis: np.ndarray = field(repr=False)
    pivots: tuple[int, ...] = ()

    def __post_init__(self):
        self.basis.setflags(write=False)

    @staticmethod
    def from_rows(rows, p: int, ambient: int | None = None) -> "Subspace":
        m = as_matrix(rows, p, cols=ambient)
        if ambient is None:
            ambient = m.shape[1]
        if m.shape[1] != ambient:
            raise ValueError("row width does not match ambient dimension")
        r, rank, pivots = rref(m, p)
        return Subspace(p, ambient, r[:rank].copy(), tuple(pivots))

    @staticmethod
    def zero(ambient: int, p: int) -> "Subspace":
        return Subspace(p, ambient, np.zeros((0, ambient), dtype=np.int64), ())

    @staticmethod
    def full(ambient: int, p: int) -> "Subspace":
        return Subspace(p, ambient, np.eye(ambient, dtype=np.int64), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient

    def key(self) -> tuple:
        return (self.p, self.ambient, self.basis.tobytes())

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def reduce(self, v) -> np.ndarray:
        """Residual of v, a vector or a stack of rows, against the RREF
        basis; a row's residual is zero iff the row is in the subspace.

        The basis is the identity on the pivot columns, so the coefficients
        of the eliminating combination are v's own pivot entries."""
        r = np.array(v, dtype=np.int64) % self.p
        if r.ndim == 0 or r.shape[-1] != self.ambient:
            raise ValueError("vector does not match ambient dimension")
        if not self.dim:
            return r
        return (r - r[..., list(self.pivots)] @ self.basis) % self.p

    def contains(self, v) -> bool:
        return not self.reduce(v).any()

    def contains_space(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient or other.p != self.p:
            raise ValueError("subspace containment requires equal ambient space")
        return not self.reduce(other.basis).any()

    def coords(self, v) -> np.ndarray | None:
        """Coefficients of v in the RREF basis, or None if v is outside."""
        if not self.contains(v):
            return None
        return as_vector(v, self.p)[list(self.pivots)] if self.dim else np.zeros(0, dtype=np.int64)

    def add(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient or other.p != self.p:
            raise ValueError("subspace sum requires equal ambient space")
        stacked = np.vstack([self.basis, other.basis])
        return Subspace.from_rows(stacked, self.p, ambient=self.ambient)

    def intersect(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient or other.p != self.p:
            raise ValueError("subspace intersection requires equal ambient space")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient, self.p)
        # Zassenhaus: in the RREF of [[U, U], [V, 0]] the rows whose left
        # half is zero carry an RREF basis of U & V in their right half.
        n = self.ambient
        top = np.hstack([self.basis, self.basis])
        bottom = np.hstack([other.basis, np.zeros_like(other.basis)])
        r, rank, pivots = rref(np.vstack([top, bottom]), self.p)
        keep = [i for i in range(rank) if pivots[i] >= n]
        return Subspace(self.p, n, r[keep, n:], tuple(pivots[i] - n for i in keep))

    def check_matrix(self) -> np.ndarray:
        """A (ambient - dim) x ambient matrix whose kernel is exactly this
        subspace. The row of a free column f is 1 at f and minus the basis
        entries of column f at the pivot columns, so it vanishes on every
        basis row; the rows are independent, being unit vectors on the free
        columns."""
        free = list(self.complement_columns())
        rows = np.zeros((len(free), self.ambient), dtype=np.int64)
        rows[np.arange(len(free)), free] = 1
        rows[:, list(self.pivots)] = (-self.basis[:, free]).T % self.p
        return rows

    def complement_columns(self) -> tuple[int, ...]:
        """Coordinates not used as pivots; unit vectors there span a
        complement."""
        pset = set(self.pivots)
        return tuple(c for c in range(self.ambient) if c not in pset)

    def vectors(self):
        """All p**dim member vectors (desk-scale enumeration)."""
        for c in all_vectors(self.dim, self.p):
            yield (c @ self.basis) % self.p if self.dim else np.zeros(self.ambient, dtype=np.int64)
