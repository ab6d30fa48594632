"""Randomized irreducibility testing and composition factors for matrix
modules over GF(p), the radical, the simple classes and the composition
length of the regular module.

The radical (``jacobson_radical``) needs no MeatAxe and no seed: it is the
end of the p-power trace chain of Ronyai and of Cohen, Ivanyos and Wales, a
kernel of the trace form and then at most floor(log_p d) kernels of p-power
trace functions, computed on integer lifts modulo p^(i+1).

The simple classes need no MeatAxe either (``semisimple_classes``): each is a
block of the semisimple quotient A/J, cut out by a primitive central
idempotent e, and its annihilator is one kernel, {x : e x in J}. No module is
built; ``class_representative`` builds one on demand, as the quotient A/ann
when the block is a field and otherwise as its first composition factor.
``semisimple_blocks`` returns the radical, the classes and the block
idempotents lifted to A as one record.

The regular module's composition length needs no MeatAxe (``regular_length``):
it is the sum over the Loewy layers J^k / J^(k+1) and the classes i of
dim(e_i layer) / dim S_i, each layer being a module over A/J. The seeded
series of any module (``oracles.chain_bound``) is its test oracle.

Simples are grouped by annihilator: ann(S) is a maximal ideal and A/ann(S)
has one simple module, so simples are isomorphic iff their annihilators agree.
The regular module's composition factors, so grouped, are the test oracle of
the classes (``oracles.simple_classes``). Meets of class annihilators are one
kernel of the stacked check matrices (``annihilator_meet``), checked against
the Chinese remainder identity.

``split`` samples up to RETRY_BUDGET random elements theta of the acting
algebra's image and stops at the first certificate:

* Singular theta with a small kernel (``SplitResult.method`` ``meataxe``,
  ``meataxe-kernel``, ``meataxe-dual``). If every vector in ker(theta)
  generates the whole module, then the image of theta contains every
  maximal submodule (theta is onto each of them), so any nonzero functional
  vanishing on theta's image generates a proper dual submodule whenever a
  proper submodule exists at all. Hence one spin of a transposed-kernel
  vector under the transposed action settles irreducibility.
* Nonsingular theta (``charpoly``). Every submodule is theta-invariant, and
  an invariant subspace of dimension k contributes a factor of degree k to
  the characteristic polynomial chi_theta. So if chi_theta is irreducible of
  degree n = dim M, the module is irreducible; nothing is spun.

If no sample gives a certificate (at a large prime a random element is
singular with probability about 1/p; on a module whose endomorphism field is
larger than GF(p) every nonzero element may be invertible), the Holt-Rees
test decides (Holt & Rees 1994; Ivanyos & Lux 2000 for repeated factors),
drawing from a spawned generator so the caller's stream is not disturbed:

* Holt-Rees (``holt-rees``, ``holt-rees-dual``). Let g be an irreducible
  factor of chi_theta and N = ker g(theta). If dim N = deg g, then N is one
  line over the field GF(p)[t]/(g), and the module is irreducible iff the
  spin of one nonzero v in N is the whole module and the dual spin of one
  nonzero w in ker g(theta)^T is the whole dual. For a proper submodule U,
  either U meets N, so U contains N and v; or g(theta) is injective on U,
  so g divides the characteristic polynomial on M/U, and U-perp, a proper
  dual submodule, contains the line ker g(theta)^T and w.

Failures of any spin hand back an explicit proper submodule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, Ideal, is_ideal, radical_powers
from .gfpoly import charpoly, distinct_roots, factor, is_irreducible, poly_eval_matrix
from .linalg import Subspace, kernel, projective_vectors, ranks, rref, solve
from .modules import ModuleRep, regular_module, spin, spin_matrices, sub_quotient

__all__ = [
    "MeatAxeError",
    "SplitResult",
    "split",
    "composition_factors",
    "annihilator_meet",
    "CRT_FAILURE",
    "jacobson_radical",
    "IDEMPOTENT_FAILURE",
    "SemisimpleBlocks",
    "semisimple_blocks",
    "semisimple_classes",
    "PART_FAILURE",
    "FILL_FAILURE",
    "regular_length",
    "class_representative",
]

RETRY_BUDGET = 64  # sampled elements looking for a certificate
HOLT_REES_BUDGET = 64  # elements the Holt-Rees test may draw after that
KERNEL_LINE_CAP = 512
TRACE_CHUNK = 1 << 20  # matrix entries per stack of the radical chain's powers
CRT_FAILURE = "annihilator meet breaks the Chinese remainder identity: classes are not distinct simples"


class MeatAxeError(RuntimeError):
    """Raised when no certificate could be produced within the budgets."""


@dataclass(frozen=True)
class SplitResult:
    irreducible: bool
    submodule: Subspace | None
    method: str
    tries: int = 0

    def __post_init__(self):
        if self.irreducible == (self.submodule is not None):
            raise ValueError("split result must carry a submodule iff reducible")


def _line_count(k: int, p: int) -> int:
    return (p**k - 1) // (p - 1)


def _random_theta(m: ModuleRep, rng: np.random.Generator) -> np.ndarray:
    """Uniform combination of the action matrices plus up to 3 degree-2 words.

    Each combination is one float64 product with the action read as a
    (d, n^2) matrix (``ModuleRep.flat_action``), with the draws of
    ``ModuleRep.act`` in the same order. Its sums of d terms below
    (p - 1)^2, and those of the n-term products x @ y, are exact, as the
    Algebra bound keeps d (p - 1)^2 below 2^42."""
    p, d, n = m.p, m.algebra.dim, m.n

    def draw() -> np.ndarray:
        return _mod(rng.integers(0, p, size=d) @ m.flat_action, p).reshape(n, n)

    theta = draw()
    for _ in range(int(rng.integers(0, 4))):
        x = draw()
        theta = _mod(theta + x @ draw(), p)
    return theta.astype(np.int64)


def _perp(s: Subspace) -> Subspace:
    if s.dim == 0:
        return Subspace.full(s.ambient, s.p)
    return kernel(s.basis, s.p)


def split(m: ModuleRep, seed: int = 0) -> SplitResult:
    """Certify irreducibility or return a proper nonzero submodule.

    Deterministic for a fixed seed. Samples up to RETRY_BUDGET elements for
    a certificate (a singular element with a small kernel, or an irreducible
    characteristic polynomial), then decides by the Holt-Rees test; raises
    MeatAxeError only if that too stays inconclusive for HOLT_REES_BUDGET
    elements.
    """
    rng = np.random.default_rng(seed)
    return _split(m, rng)


def _split(m: ModuleRep, rng: np.random.Generator) -> SplitResult:
    p, n = m.p, m.n
    if n < 1:
        raise ValueError("cannot split the zero module")
    if n == 1:
        return SplitResult(True, None, "dim1")
    for attempt in range(1, RETRY_BUDGET + 1):
        theta = _random_theta(m, rng)
        if not theta.any():
            continue
        ker = kernel(theta, p)
        if ker.dim == 0:
            if is_irreducible(charpoly(theta, p), p):
                return SplitResult(True, None, "charpoly", attempt)
            continue
        if _line_count(ker.dim, p) > KERNEL_LINE_CAP:
            continue
        for c in projective_vectors(ker.dim, p):
            v = (c @ ker.basis) % p
            s = spin(m, [v])
            if s.dim < n:
                return SplitResult(False, s, "meataxe-kernel", attempt)
        w = kernel(theta.T % p, p).basis[0]
        dual = spin_matrices(_dual_action(m), [w], p, n)
        if dual.dim < n:
            return SplitResult(False, _perp(dual), "meataxe-dual", attempt)
        return SplitResult(True, None, "meataxe", attempt)
    return _holt_rees(m, rng.spawn(1)[0])


def _dual_action(m: ModuleRep) -> np.ndarray:
    return np.transpose(m.action, (0, 2, 1))


def _random_member(s: Subspace, rng: np.random.Generator) -> np.ndarray:
    """A uniform nonzero vector of a nonzero subspace."""
    while True:
        v = (rng.integers(0, s.p, size=s.dim) @ s.basis) % s.p
        if v.any():
            return v


def _holt_rees(m: ModuleRep, rng: np.random.Generator) -> SplitResult:
    """The Holt-Rees test on irreducible factors g of chi_theta, with
    N = ker g(theta). A factor of multiplicity one has dim N = deg g, so the
    first such factor settles the module. Without one, the factors are tried
    in order of degree, and a spin of v in N that stays proper is still a
    submodule: on a sum of copies of one simple S, a factor g of degree
    dim End(S) with a one-line kernel on S puts every vector of N in a
    proper submodule (Ivanyos & Lux)."""
    p, n = m.p, m.n
    for attempt in range(RETRY_BUDGET + 1, RETRY_BUDGET + HOLT_REES_BUDGET + 1):
        theta = _random_theta(m, rng)
        factors = factor(charpoly(theta, p), p, rng)
        simple = [g for g, k in factors if k == 1]
        for g in simple[:1] or [g for g, _ in factors]:
            gt = poly_eval_matrix(g, theta, p)
            null = kernel(gt, p)
            s = spin(m, [_random_member(null, rng)])
            if s.dim < n:
                return SplitResult(False, s, "holt-rees", attempt)
            if null.dim == len(g) - 1:
                w = _random_member(kernel(gt.T, p), rng)
                dual = spin_matrices(_dual_action(m), [w], p, n)
                if dual.dim < n:
                    return SplitResult(False, _perp(dual), "holt-rees-dual", attempt)
                return SplitResult(True, None, "holt-rees", attempt)
    raise MeatAxeError(
        f"no certificate in {RETRY_BUDGET} sampled elements and the Holt-Rees test "
        f"stayed inconclusive for {HOLT_REES_BUDGET} more"
    )


def composition_factors(m: ModuleRep, seed: int = 0) -> list[ModuleRep]:
    """Simple factors of any composition series, with multiplicity.

    The factor multiset is unique up to isomorphism and order
    (Jordan-Hoelder); the returned order follows the recursive splitting.
    """
    rng = np.random.default_rng(seed)
    out: list[ModuleRep] = []
    stack = [m]
    while stack:
        cur = stack.pop()
        if cur.n == 0:
            continue
        res = _split(cur, rng)
        if res.irreducible:
            out.append(cur)
            continue
        sub, quot = sub_quotient(cur, res.submodule)
        stack.append(quot)
        stack.append(sub)
    total = sum(f.n for f in out)
    if total != m.n:
        raise AssertionError("composition factor dimensions do not sum to the module dimension")
    return out


def annihilator_meet(a: Algebra, anns: list[Subspace]) -> Subspace:
    """Meet of the annihilators of distinct simple classes, the annihilator
    of the sum of their modules: one kernel of the stacked check matrices.
    Distinct maximal ideals are comaximal, so by the Chinese remainder
    theorem the meet has dimension d - sum of the codimensions; that is
    checked. The empty meet is the whole algebra."""
    if not anns:
        return Subspace.full(a.dim, a.p)
    meet = kernel(np.vstack([s.check_matrix() for s in anns]), a.p)
    if meet.dim != a.dim - sum(a.dim - s.dim for s in anns):
        raise AssertionError(CRT_FAILURE)
    return meet


def jacobson_radical(a: Algebra, seed: int = 0) -> Ideal:
    """The Jacobson radical J by the p-power trace chain (Ronyai 1990;
    Cohen, Ivanyos & Wales 1997). It is deterministic: ``seed`` is unused,
    and kept for callers that pass it.

    With l = floor(log_p d), I_(-1) = A and, for i = 0 ... l,
    I_i = {x in I_(i-1) : g_i(x e_j) = 0 for every basis element e_j},
    where g_i(x) = (Tr(L^(p^i)) mod p^(i+1)) / p^i for the [0, p) lift L of
    the left multiplication by x. Then I_l = J. J is checked to be a
    two-sided ideal; the ``radical`` command checks that it is nilpotent."""
    rad = _trace_chain(a)
    if not is_ideal(a, rad, "two-sided"):
        raise AssertionError("the trace chain's radical is not a two-sided ideal")
    return Ideal(a, rad, "two-sided")


def _trace_chain(a: Algebra) -> Subspace:
    """I_l of ``jacobson_radical``. g_0 is the trace, so I_0 is the left
    kernel of the trace form T[j, k] = Tr(L_(e_j e_k)). For i >= 1, g_i is
    linear on I_(i-1) and each c e_j lies there, with its coordinates in the
    RREF basis c_m at the pivot columns; so g_i is evaluated on the c_m
    alone and I_i is one kernel in those coordinates. Every float64 product
    is exact: from level 1 on p <= d, entries stay below
    q = p^(i+1) <= p * d <= 144^2, and every sum (at most d^2 products, in
    the trace of a product) stays below 144^6 < 2^44, inside the 2^53 of
    exact float64 integers; at level 0, for any p, the sums stay below
    d * p^2 < 2^48."""
    d, p = a.dim, a.p
    lam = a.mul.astype(np.float64)
    tau = _mod(np.einsum("tss->t", lam), p)  # Tr(L_(e_t))
    level = kernel(_mod(lam @ tau, p).T, p)
    step = max(1, TRACE_CHUNK // max(1, d * d))
    i = 1
    while p**i <= d and level.dim:
        c = level.basis.astype(np.float64)
        # c_m lam, read as (d, d), is the transposed left multiplication by
        # c_m; the stacks of powers hold at most TRACE_CHUNK entries.
        traces = np.concatenate([
            _power_traces(_mod(chunk @ lam.reshape(d, d * d), p).reshape(-1, d, d), p, i)
            for chunk in np.split(c, range(step, len(c), step))
        ])
        if (traces % p**i).any():
            raise AssertionError(f"a trace on level {i - 1} of the radical chain is not divisible by {p}^{i}")
        g = np.zeros(d)  # g_i(y) = y . g for y in I_(i-1)
        g[list(level.pivots)] = traces // p**i
        coords = kernel(_mod(c @ _mod(lam @ g, p), p).T, p)  # [m, j]: g_i(c_m e_j)
        pivots = tuple(level.pivots[m] for m in coords.pivots)
        level = Subspace(p, d, coords.basis @ level.basis % p, pivots)
        i += 1
    return level


def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q for a float64 array of integers in [0, 2^52): where x is not
    a multiple of q, x / q rounds to a float below the next integer, so the
    floor is exact. This is several times faster than np.remainder."""
    t = np.floor(x / q)
    t *= q
    return np.subtract(x, t, out=t)


def _power_traces(mats: np.ndarray, p: int, i: int) -> np.ndarray:
    """Tr(M^(p^i)) mod p^(i+1) for each M of an (m, n, n) stack with entries
    in [0, p), i >= 1: i p-th powers by square and multiply, the last one
    only as a trace, Tr(Y^p) = sum(Y^(p-1) * Y^T)."""
    q = p ** (i + 1)

    def power(y, e):
        out = None
        while True:
            if e & 1:
                out = y if out is None else _mod(out @ y, q)
            e >>= 1
            if not e:
                return out
            y = _mod(y @ y, q)

    for _ in range(i - 1):
        mats = power(mats, p)
    return _mod(np.einsum("mab,mba->m", power(mats, p - 1), mats), q).astype(np.int64)


IDEMPOTENT_FAILURE = "the block idempotents of A/J are not a complete set of primitive central idempotents"
PART_FAILURE = "a block's part of a Loewy layer is not a multiple of its class dimension"
FILL_FAILURE = "the block parts of a Loewy layer do not fill it"


@dataclass(frozen=True)
class SemisimpleBlocks:
    """The blocks of A/J as ``semisimple_blocks`` certifies them: the
    radical J; one (dimension, annihilator) pair per simple class, in the
    order the idempotents are found; and those primitive central idempotents
    of A/J lifted to A, one row per class, with their coordinates at J's
    complement columns and zeros at its pivots."""

    radical: Ideal
    classes: tuple[tuple[int, Ideal], ...]
    lifts: np.ndarray = field(repr=False)


def semisimple_classes(a: Algebra) -> list[tuple[int, Ideal]]:
    """The dimension and the annihilator of each simple class's module, in
    the order the idempotents are found (``semisimple_blocks``)."""
    return list(semisimple_blocks(a).classes)


def semisimple_blocks(a: Algebra) -> SemisimpleBlocks:
    """The simple classes as the blocks of Q = A/J, J the radical, with the
    radical and the lifted block idempotents. No module is built, and the
    result does not depend on any seed (Eberly & Giesbrecht 2000, with the
    idempotents split off the Frobenius-fixed part of the centre).

    Q is a product of blocks M_n(GF(p^e)), one per class. Its centre Z is
    one kernel of commutators (``_centre``), and the part of Z fixed by
    z -> z^p is B0 = GF(p)^k, one coordinate per block, so the class count k
    is dim B0; its primitive idempotents e_1 ... e_k are those of Z
    (``_primitive_idempotents``). Checked: each e_i is central and
    idempotent, e_i e_j = 0 for i != j, they sum to 1, and there are k
    (``IDEMPOTENT_FAILURE``). A block has dim e_i Z = e and dim e_i Q = n^2 e,
    n an integer (checked), so its simple module has dimension n e, and its
    annihilator {x : e_i x in J} is one kernel of codimension n^2 e. It is a
    two-sided ideal with no further check: {y in Q : e_i y = 0} is one when
    e_i is central (e_i (c y) = c e_i y and e_i (y c) = (e_i y) c), and
    A -> Q is an algebra map as J is an ideal.

    The annihilators meet in J, with the Chinese remainder identity, by the
    checks above alone, so that meet is not formed: as the e_i sum to 1,
    x bar = sum e_i x bar, so the meet of the kernels of x -> e_i x bar is
    the kernel of x -> x bar, which is J; and as the e_i are orthogonal
    central idempotents summing to 1, Q is the direct sum of the e_i Q, the
    images of those maps, so the codimensions sum to dim Q = d - dim J. The
    test suite checks the meet with ``annihilator_meet``."""
    rad = jacobson_radical(a)
    d, p = a.dim, a.p
    comp = list(rad.subspace.complement_columns())
    q = len(comp)
    proj = rad.subspace.reduce(np.eye(d, dtype=np.int64))[:, comp].T  # (q, d): A -> Q
    qmul = rad.subspace.reduce(a.mul[np.ix_(comp, comp)])[:, :, comp]
    lam = qmul.astype(np.float64)
    one = (proj @ a.one) % p
    centre = _centre(qmul, p)
    idem, count = _primitive_idempotents(lam, centre, one, p)
    e = idem.astype(np.float64)
    k = len(e)
    left = _mod(e @ lam.reshape(q, q * q), p).reshape(k, q, q)  # [i, j]: e_i b_j
    right = _mod(e @ lam.transpose(1, 0, 2).reshape(q, q * q), p).reshape(k, q, q)  # [i, j]: b_j e_i
    products = _mod(np.matmul(e, left), p)  # [i, l]: e_i e_l
    want = np.zeros_like(products)
    want[np.arange(k), np.arange(k)] = e
    if k != count or (left != right).any() or (products != want).any() or ((idem.sum(axis=0) - one) % p).any():
        raise AssertionError(IDEMPOTENT_FAILURE)
    # e_i times the centre's basis spans e_i Z.
    centre_parts = _mod(np.matmul(centre.basis.astype(np.float64), left), p).astype(np.int64)
    out = []
    for i in range(k):
        rows = _mod(left[i].T @ proj, p)  # x -> e_i proj(x), on A's coordinates
        ann = kernel(rows[rows.any(axis=1)].astype(np.int64), p)
        part = centre_parts[i]
        codim, f = d - ann.dim, rref(part[part.any(axis=1)], p)[1]
        n = int(round((codim // f) ** 0.5))
        if n < 1 or n * n * f != codim:
            raise AssertionError(f"a block of A/J has dimension {codim}, not n^2 times its centre's {f}")
        out.append((n * f, Ideal(a, ann, "two-sided")))
    # The unit vectors at the complement columns map to Q's basis.
    lifts = np.zeros((k, d), dtype=np.int64)
    lifts[:, comp] = idem
    lifts.setflags(write=False)
    return SemisimpleBlocks(rad, tuple(out), lifts)


def regular_length(a: Algebra, blocks: SemisimpleBlocks | None = None) -> int:
    """The composition length of the regular module, read off the Loewy
    layers J^k / J^(k+1), k = 0 ... m - 1 (J^0 = A, J^m = 0, J^k from
    ``radical_powers``). J kills every layer, so each is a module over
    A/J: the direct sum of its parts eps_i layer over the block idempotents
    eps_i, the part of class i being dim(eps_i layer) / dim S_i copies of
    S_i. Length adds along the series (Auslander, Reiten & Smalo 1995, I.3),
    so it is the sum of those quotients. No module is built and nothing is
    drawn; ``blocks`` defaults to ``semisimple_blocks(a)``.

    Any preimage of eps_i acts on a layer as eps_i does, so the lifts serve:
    their left multiplications are one float64 product. The RREF rows of
    J^k whose pivots are not pivots of J^(k+1) span a complement of
    J^(k+1) in J^k (the pivots of a subspace are among those of any space
    that holds it), and a residual modulo J^(k+1) of a member of J^k is
    fixed by its entries at those rows' pivots. So each layer is one stacked
    reduction modulo J^(k+1) of the images of those rows, read at their
    pivots, and one ``ranks`` call for every part. Checked: each part is a
    multiple of its class dimension (``PART_FAILURE``), and the parts of a
    layer fill it (``FILL_FAILURE``)."""
    if blocks is None:
        blocks = semisimple_blocks(a)
    d, p = a.dim, a.p
    k = len(blocks.classes)
    dims = np.array([dim for dim, _ in blocks.classes], dtype=np.int64)
    # [i, j]: eps_i b_j; each sum has d terms below (p - 1)^2, exact.
    left = _mod(blocks.lifts.astype(np.float64) @ a.mul.reshape(d, d * d).astype(np.float64), p).reshape(k, d, d)
    series = [Subspace.full(d, p), *radical_powers(a, blocks.radical.subspace), Subspace.zero(d, p)]
    length = 0
    for upper, lower in zip(series, series[1:]):
        below = set(lower.pivots)
        rows = [m for m, c in enumerate(upper.pivots) if c not in below]
        cols = [upper.pivots[m] for m in rows]
        images = _mod(upper.basis[rows].astype(np.float64) @ left, p).astype(np.int64)  # [i, m]: eps_i r_m
        parts = ranks(lower.reduce(images)[:, :, cols], p)
        if (parts % dims).any():
            raise AssertionError(PART_FAILURE)
        if parts.sum() != len(rows):
            raise AssertionError(FILL_FAILURE)
        length += int((parts // dims).sum())
    return length


def _centre(qmul: np.ndarray, p: int) -> Subspace:
    """The centre of the algebra with structure constants qmul: z is central
    iff z b_j - b_j z = 0 for every basis element b_j, one kernel."""
    q = len(qmul)
    comm = ((qmul - qmul.transpose(1, 0, 2)) % p).reshape(q, q * q).T  # [(j, k), i]: (b_i b_j - b_j b_i)_k
    return kernel(comm[comm.any(axis=1)], p)


def _primitive_idempotents(lam: np.ndarray, centre: Subspace, one: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """The primitive idempotents of the centre Z of a semisimple algebra
    with float64 structure constants lam, as rows in its coordinates, and
    k = dim B0, B0 = {z in Z : z^p = z}.

    Z is a product of fields, so z -> z^p is linear on Z and fixes one copy
    of GF(p) in each: B0 = GF(p)^k holds the primitive idempotents. They are
    refined from {1} along a basis of B0: a basis element b cuts an
    idempotent f into the idempotents of the level sets of b f on f's
    blocks. At p = 2 every element of B0 is idempotent, so the cut is
    {b f, f - b f}; at odd p the levels are the roots of the minimal
    polynomial of b f in f Z, which splits into distinct linear factors
    (``gfpoly.distinct_roots``, which draws nothing), and the cut at a root
    r is the Lagrange polynomial of r evaluated at b f. The refinement stops
    at k idempotents. Products in Z go through its structure constants
    zmul, in its coordinates (the entries at the centre's pivots); all
    float64 sums have at most d terms below (p - 1)^2, so they are exact."""
    q, z = len(lam), centre.dim
    basis = centre.basis.astype(np.float64)
    pivots = list(centre.pivots)
    zmul = _mod(np.matmul(basis, _mod(basis @ lam.reshape(q, q * q), p).reshape(z, q, q)), p)[:, :, pivots]
    flat = zmul.reshape(z, z * z)

    def times(x: np.ndarray) -> np.ndarray:  # multiplication by x on Z, on coordinate rows
        return _mod(x @ flat, p).reshape(z, z)

    def products(x: np.ndarray, y: np.ndarray) -> np.ndarray:  # row m: x_m y_m
        return _mod(np.einsum("ma,mab->mb", x, _mod(y @ flat, p).reshape(len(y), z, z)), p)

    # z_m^p for every basis element z_m (the unit rows) by square and multiply.
    frob, y, e = None, np.eye(z), p
    while True:
        if e & 1:
            frob = y if frob is None else products(frob, y)
        e >>= 1
        if not e:
            break
        y = products(y, y)
    fixed = kernel((frob.astype(np.int64) - np.eye(z, dtype=np.int64)).T % p, p)
    count = fixed.dim
    idem = one[pivots].astype(np.float64)[None, :]
    for b in fixed.basis.astype(np.float64):
        if len(idem) == count:
            break
        cuts = _mod(idem @ times(b), p)  # row i: b f_i
        if p == 2:
            parts = np.vstack([cuts, _mod(idem - cuts + p, p)])
        else:
            # b f = c f, with c read at f's first nonzero entry, leaves f whole.
            rows, lead = np.arange(len(idem)), (idem != 0).argmax(axis=1)
            c = cuts[rows, lead] * np.array([pow(int(x), p - 2, p) for x in idem[rows, lead]]) % p
            whole = ~_mod(cuts - c[:, None] * idem + p * p, p).any(axis=1)
            parts = np.vstack([
                f[None, :] if keep else _level_idempotents(f, times(g), p)
                for f, g, keep in zip(idem, cuts, whole)
            ])
        idem = parts[parts.any(axis=1)]
    return _mod(idem @ basis, p).astype(np.int64), count


def _level_idempotents(f: np.ndarray, step: np.ndarray, p: int) -> np.ndarray:
    """The idempotents of the level sets of g on the blocks of an idempotent
    f, for g in f B0 given by its multiplication matrix step: with
    g^0 = f, the powers of g up to the first that depends on the ones before
    give the minimal polynomial, which must have distinct roots in GF(p),
    and the idempotent of the level r is the Lagrange polynomial of r
    evaluated at g."""
    powers = [f]
    while True:
        nxt = _mod(powers[-1] @ step, p)
        sol = solve(np.array(powers).T.astype(np.int64), nxt.astype(np.int64), p)
        if sol is not None:
            break
        powers.append(nxt)
    roots = distinct_roots(np.append((-sol) % p, 1), p)
    if roots is None:
        raise AssertionError(IDEMPOTENT_FAILURE)
    out = []
    for r in roots:
        lagrange = np.ones(1, dtype=np.int64)
        for s in roots:
            if s != r:
                inv = pow(r - s, p - 2, p)
                lagrange = np.convolve(lagrange, [-s * inv % p, inv]) % p
        out.append(_mod(lagrange.astype(np.float64) @ np.array(powers), p))
    return np.array(out)


def class_representative(ann: Ideal, dim: int) -> ModuleRep:
    """A simple module of dimension dim with annihilator ann, a maximal
    ideal of the algebra: A/ann is a block M_n(GF(p^e)), which is simple as
    a module when n = 1 and otherwise the sum of n copies of the simple
    module. So the representative is A/ann itself when its dimension is dim,
    and otherwise the first composition factor of A/ann under the fixed
    stream 0, so that it is a function of the algebra alone."""
    _, quot = sub_quotient(regular_module(ann.algebra), ann.subspace)
    rep = quot if quot.n == dim else composition_factors(quot, 0)[0]
    if rep.n != dim:
        raise AssertionError(f"a class of dimension {dim} got a representative of dimension {rep.n}")
    return rep
