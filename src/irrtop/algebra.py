"""Finite-dimensional associative algebras over GF(p) via structure constants.

An algebra of dimension d is the data mul[i, j, k] with
b_i * b_j = sum_k mul[i, j, k] * b_k, together with the coordinates of the
identity element. Ideals are coordinate subspaces closed under the
appropriate multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import Subspace, as_vector, validate_prime

__all__ = [
    "ALGEBRA_DIM_CAP",
    "check_dim",
    "Algebra",
    "Ideal",
    "validate_algebra",
    "is_ideal",
    "product_space",
    "radical_powers",
    "ideal_generated",
    "quotient_algebra",
    "product_algebra",
]

# Largest algebra dimension accepted from input: the structure constants are
# a dense (d, d, d) int64 tensor, 23 MB at the cap, which admits
# matrix_algebra(12, p) and upper_triangular(16, p).
ALGEBRA_DIM_CAP = 144
# Product entries per chunk of the associativity check.
VALIDATE_CHUNK = 1 << 18


def check_dim(d: int) -> int:
    """The dimension d if it is within ALGEBRA_DIM_CAP; call before
    allocating the structure constants."""
    if d > ALGEBRA_DIM_CAP:
        raise ValueError(f"algebra dimension {d} exceeds the cap {ALGEBRA_DIM_CAP}")
    return d


@dataclass(frozen=True)
class Algebra:
    p: int
    dim: int
    mul: np.ndarray = field(repr=False)  # (d, d, d) structure constants
    one: np.ndarray = field(repr=False)  # (d,) identity coordinates
    name: str = ""
    basis_names: tuple[str, ...] | None = None

    def __post_init__(self):
        p, d = validate_prime(self.p), int(self.dim)
        # `multiply` sums dim**2 triple products of entries below p in int64.
        if d * d * (p - 1) ** 3 >= 2**63:
            raise ValueError(f"modulus {p} too large for dimension {d}: needs dim**2 * (p - 1)**3 < 2**63")
        mul = np.asarray(self.mul, dtype=np.int64) % self.p
        one = as_vector(self.one, self.p)
        if mul.shape != (d, d, d):
            raise ValueError(f"structure constants must have shape ({d},{d},{d})")
        if one.shape != (d,):
            raise ValueError("identity coordinates must have length dim")
        mul.setflags(write=False)
        one.setflags(write=False)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "one", one)

    def multiply(self, x, y) -> np.ndarray:
        x = as_vector(x, self.p)
        y = as_vector(y, self.p)
        return np.einsum("i,j,ijk->k", x, y, self.mul) % self.p

    def left_mult_matrix(self, x) -> np.ndarray:
        """Matrix of y -> x*y on coordinate columns."""
        x = as_vector(x, self.p)
        return np.einsum("i,ijk->kj", x, self.mul) % self.p

    def right_mult_matrix(self, x) -> np.ndarray:
        """Matrix of y -> y*x on coordinate columns."""
        x = as_vector(x, self.p)
        return np.einsum("i,jik->kj", x, self.mul) % self.p

    def basis_vector(self, i: int) -> np.ndarray:
        e = np.zeros(self.dim, dtype=np.int64)
        e[i] = 1
        return e

    def basis_name(self, i: int) -> str:
        if self.basis_names and i < len(self.basis_names):
            return self.basis_names[i]
        return f"b{i}"


def validate_algebra(a: Algebra) -> list[str]:
    """Every violated associativity/identity constraint; empty iff valid.

    Associativity violations are reported in (i, j, k, l) order, the first
    64 by name and the rest as a count."""
    report: list[str] = []
    d = a.dim
    if d == 0:
        report.append("zero-dimensional algebra has no identity element")
        return report
    count, first = _associativity_violations(a.mul, a.p)
    for i, j, k in first:
        report.append(
            f"associativity fails at ({a.basis_name(i)}*{a.basis_name(j)})*{a.basis_name(k)}"
        )
    if count > 64:
        report.append(f"... and {count - 64} more associativity violations")
    lm = a.left_mult_matrix(a.one)
    rm = a.right_mult_matrix(a.one)
    eye = np.eye(d, dtype=np.int64)
    if (lm != eye).any():
        report.append("identity element fails to act as identity on the left")
    if (rm != eye).any():
        report.append("identity element fails to act as identity on the right")
    return report


def _associativity_violations(lam: np.ndarray, p: int) -> tuple[int, list[tuple[int, int, int]]]:
    """Count of keys (i, j, k, l) where (b_i b_j) b_k and b_i (b_j b_k)
    differ in coordinate l, and the (i, j, k) of the first 64 in key order.

    Only nonzero structure constants take part. With L[(i, j), m] =
    lam[i, j, m] on its nonzero rows, the left side is L @ lam[m, (k, l)] and
    the right side L @ lam[i, m, l] read as [(j, k), (i, l)], each on its
    nonzero columns: nonzero rows x d x nonzero columns multiply-adds. The
    products run in float64, which is exact: every sum is below
    d * (p - 1)**2, which the Algebra bound d**2 * (p - 1)**3 < 2**63 and
    p < 2**20 keep below 2**42. The sides are merged on key * p + value,
    below d**4 * p (under 2**49 at ALGEBRA_DIM_CAP).

    A chunk takes the keys with i in [i0, i1) and j in [j0, j1): on the left
    the rows (i, j), on the right the rows (j, k) and columns (i, l). Chunks
    hold whole i's when every i fits in VALIDATE_CHUNK product entries, else
    ranges of j within one i, so beside the O(d**3) gathered operands at
    most VALIDATE_CHUNK entries (or those of a single j, below 2 * d**2) are
    alive.
    """
    d = lam.shape[0]
    d2, d3 = d * d, d * d * d
    rows = np.flatnonzero(lam.any(axis=2))  # (i, j): b_i b_j != 0
    cols1 = np.flatnonzero(lam.any(axis=0))  # (k, l): l-coordinate of some b_m b_k
    cols2 = np.flatnonzero(lam.any(axis=1))  # (i, l): l-coordinate of some b_i b_m
    col_i, col_l = np.divmod(cols2, d)
    pairs = lam.reshape(d2, d)[rows].astype(np.float64)
    left_cols = lam.reshape(d, d2)[:, cols1].astype(np.float64)
    right_cols = lam[col_i, :, col_l].T.astype(np.float64)
    right_col_keys = col_i * d3 + col_l
    # Per chunk, the slices of rows on the left, of rows on the right and of
    # cols2. Product entries: one i gives its rows (i, .) times cols1 on the
    # left and all rows times its columns (i, .) on the right; one (i, j)
    # gives at most cols1 on the left and the rows (j, .) times the columns
    # (i, .) on the right. An input that fits one chunk, as every small
    # algebra does, skips the planning and its fixed numpy cost.
    if len(rows) * (len(cols1) + len(cols2)) <= VALIDATE_CHUNK:
        bounds = [(0, len(rows), 0, len(rows), 0, len(cols2))]
    else:
        row_count = np.bincount(rows // d, minlength=d)
        col_count = np.bincount(col_i, minlength=d)
        whole = VALIDATE_CHUNK // int((row_count * len(cols1) + len(rows) * col_count).max())
        if whole:
            chunks = [(i, min(i + whole, d), 0, d) for i in range(0, d, whole)]
        else:
            part = max(1, VALIDATE_CHUNK // (len(cols1) + int(row_count.max() * col_count.max())))
            chunks = [(i, i + 1, j, min(j + part, d)) for i in range(d) for j in range(0, d, part)]
        i0, i1, j0, j1 = np.array(chunks).T
        bounds = zip(
            *np.searchsorted(rows, [i0 * d + j0, (i1 - 1) * d + j1, j0 * d, j1 * d]),
            *np.searchsorted(cols2, [i0 * d, i1 * d]),
        )
    count, first = 0, []
    for r0, r1, s0, s1, c0, c1 in bounds:
        left = _encoded(pairs[r0:r1] @ left_cols, rows[r0:r1] * d2, cols1, p)
        right = np.sort(_encoded(pairs[s0:s1] @ right_cols[:, c0:c1], rows[s0:s1] * d, right_col_keys[c0:c1], p))
        if np.array_equal(left, right):
            continue
        bad = np.unique(np.setxor1d(left, right, assume_unique=True) // p)
        count += len(bad)
        first.extend((int(key // d3), int(key // d2 % d), int(key // d % d)) for key in bad[: 64 - len(first)])
    return count, first


def _encoded(block: np.ndarray, row_keys: np.ndarray, col_keys: np.ndarray, p: int) -> np.ndarray:
    """key * p + value for the nonzero entries, mod p, of an exact float64
    product block, in row-major order; entry (r, c) has key
    row_keys[r] + col_keys[c]."""
    values = block.astype(np.int64)
    values %= p
    return ((row_keys[:, None] + col_keys) * p + values)[values != 0]


@dataclass(frozen=True)
class Ideal:
    algebra: Algebra
    subspace: Subspace
    sided: str = "two-sided"  # 'left' | 'two-sided'

    def __post_init__(self):
        if self.sided not in ("left", "two-sided"):
            raise ValueError("sided must be 'left' or 'two-sided'")
        if self.subspace.ambient != self.algebra.dim:
            raise ValueError("ideal subspace must live in the algebra's coordinate space")

    @property
    def dim(self) -> int:
        return self.subspace.dim

    @property
    def is_zero(self) -> bool:
        return self.subspace.is_zero

    @property
    def is_whole(self) -> bool:
        return self.subspace.is_full

    def contains(self, v) -> bool:
        return self.subspace.contains(v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ideal)
            and self.subspace == other.subspace
            and self.algebra is other.algebra
        )

    def __hash__(self) -> int:
        return hash(self.subspace.key())


def is_ideal(a: Algebra, s: Subspace, sided: str = "two-sided") -> bool:
    """Whether s is closed under multiplication by basis elements on the
    left (and on the right when two-sided).

    The structure constants are met by whichever of the basis rows of s and
    its check matrix C (kernel exactly s, codim s rows) is smaller. When
    dim s < codim s, the products e_j x and x e_j for the basis rows x, a
    (d, dim s, d) tensor each, are reduced against s. Otherwise
    T[j, l, c] = sum_t mul[j, l, t] C[c, t] is C applied to e_j e_l, of size
    d x d x codim, and closure is C(e_j x) = sum_l T[j, l, :] x[l] = 0 on
    the left and C(x e_l) = sum_j x[j] T[j, l, :] = 0 on the right, at
    codim * d^2 * (d + 2 dim s) multiply-adds. These products run in
    float64, exact as each sum of d products stays below d * p^2 < 2^48."""
    d, p = a.dim, a.p
    if not 0 < s.dim < d:
        return True
    if s.dim < d - s.dim:
        if s.reduce(np.einsum("ijk,tj->itk", a.mul, s.basis) % p).any():
            return False
        return sided != "two-sided" or not s.reduce(np.einsum("tj,jik->itk", s.basis, a.mul) % p).any()
    c = s.check_matrix().astype(np.float64)
    t = ((a.mul.reshape(d * d, d).astype(np.float64) @ c.T) % p).reshape(d, d, len(c))
    x = s.basis.astype(np.float64)
    if ((x @ t) % p).any():  # (d, dim, codim): C(e_j x)
        return False
    return sided != "two-sided" or not ((x @ t.reshape(d, d * len(c))) % p).any()  # C(x e_l)


def product_space(a: Algebra, u: Subspace, v: Subspace) -> Subspace:
    """Span of every product x*y with x in u and y in v, then one
    elimination. Two float64 products, each reduced mod p: the smaller of U
    and V contracted with lam first, as a (dim, d * d) matrix, then the
    other side with that. Each sum has d terms below (p - 1)**2, and the
    Algebra bound d**2 * (p - 1)**3 < 2**63 with p < 2**20 keeps
    d * (p - 1)**2 below 2**42, so both are exact."""
    d, p = a.dim, a.p
    # The float64 copy of lam is freed before the second product.
    if u.dim <= v.dim:
        ul = (u.basis.astype(np.float64) @ a.mul.reshape(d, d * d).astype(np.float64)) % p  # [r, (s, k)]: (u_r b_s)_k
        rows = (v.basis.astype(np.float64) @ ul.reshape(u.dim, d, d)) % p
    else:
        vl = np.matmul(v.basis.astype(np.float64), a.mul.astype(np.float64)) % p  # [s, r, k]: (b_s v_r)_k
        rows = (u.basis.astype(np.float64) @ vl.reshape(d, v.dim * d)) % p
    return Subspace.from_rows(rows.astype(np.int64).reshape(-1, d), p, ambient=d)


def radical_powers(a: Algebra, rad: Subspace) -> list[Subspace]:
    """The nonzero powers J, J^2, ..., J^(m-1) of a nilpotent ideal J, so m
    is its nilpotency index.

    With W the span of the basis rows of J that complement J^2 in J,
    J^(k+1) = J^k W for every k as soon as J W = J^2: then
    J^(k+1) = J^(k-1) J^2 = J^(k-1) J W = J^k W. That identity is checked
    (it holds for every nilpotent J, by Nakayama, since J = W + J^2), so each
    step multiplies by dim W elements only; a power that does not shrink
    means J is not nilpotent and raises AssertionError."""
    if not rad.dim:
        return []
    powers, nxt, w = [rad], product_space(a, rad, rad), None
    while nxt.dim:
        if nxt.dim >= powers[-1].dim:
            raise AssertionError(
                f"the radical is not nilpotent: J^{len(powers) + 1} has dimension {nxt.dim}, "
                f"J^{len(powers)} {powers[-1].dim}"
            )
        if w is None:
            # J^2 in the coordinates of J's RREF basis (its entries at J's
            # pivots); the basis rows of J at the free coordinates span W.
            coords = Subspace.from_rows(nxt.basis[:, list(rad.pivots)], a.p, ambient=rad.dim)
            rows = list(coords.complement_columns())
            w = Subspace(a.p, a.dim, rad.basis[rows], tuple(rad.pivots[i] for i in rows))
            if product_space(a, rad, w) != nxt:
                raise AssertionError("the radical is not nilpotent: J W is not J^2")
        powers.append(nxt)
        nxt = product_space(a, nxt, w)
    return powers


def ideal_generated(a: Algebra, gens, sided: str = "two-sided") -> Ideal:
    """Least subspace containing gens closed under the required
    multiplications (spin-up to fixpoint)."""
    from .modules import spin_matrices  # modules imports this module

    mats = [np.transpose(a.mul, (0, 2, 1))]  # left multiplication by b_i
    if sided == "two-sided":
        mats.append(np.transpose(a.mul, (1, 2, 0)))  # right multiplication by b_i
    return Ideal(a, spin_matrices(np.concatenate(mats), gens, a.p, a.dim), sided)


def quotient_algebra(a: Algebra, ideal: Ideal) -> tuple[Algebra, np.ndarray]:
    """Quotient by a proper two-sided ideal.

    Returns (quotient, projection) where projection is the (d_q, d) matrix of
    the canonical algebra map; its kernel is exactly the ideal. The quotient
    basis is the image of the unit vectors at the ideal's non-pivot
    coordinates.
    """
    if ideal.sided != "two-sided":
        raise ValueError("can only quotient by a two-sided ideal")
    if ideal.is_whole:
        raise ValueError("quotient by the whole algebra is not represented")
    if not is_ideal(a, ideal.subspace, "two-sided"):
        raise ValueError("subspace is not a two-sided ideal")
    comp = list(ideal.subspace.complement_columns())
    dq = len(comp)
    proj = ideal.subspace.reduce(np.eye(a.dim, dtype=np.int64))[:, comp].T
    # b_s * b_t for complement basis elements is the structure-constant row.
    lam = ideal.subspace.reduce(a.mul[np.ix_(comp, comp)])[:, :, comp]
    names = tuple(a.basis_name(c) + "~" for c in comp)
    one_q = (proj @ a.one) % a.p
    quot = Algebra(a.p, dq, lam, one_q, name=f"{a.name}/I" if a.name else "quotient", basis_names=names)
    return quot, proj


def product_algebra(parts: list[Algebra], name: str = "") -> Algebra:
    """Direct product with block-diagonal structure constants."""
    if not parts:
        raise ValueError("product of an empty list of algebras is not represented")
    p = parts[0].p
    if any(q.p != p for q in parts):
        raise ValueError("product factors must share the prime field")
    d = check_dim(sum(q.dim for q in parts))
    lam = np.zeros((d, d, d), dtype=np.int64)
    one = np.zeros(d, dtype=np.int64)
    names = []
    off = 0
    for idx, q in enumerate(parts):
        s = slice(off, off + q.dim)
        lam[s, s, s] = q.mul
        one[s] = q.one
        names.extend(f"{q.basis_name(i)}@{idx}" for i in range(q.dim))
        off += q.dim
    return Algebra(p, d, lam, one, name=name or " x ".join(q.name or "?" for q in parts), basis_names=tuple(names))
