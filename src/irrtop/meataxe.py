"""Randomized irreducibility testing and composition factors for matrix
modules over GF(p), plus the Schur-lemma isomorphism test and the radical.

Simples are grouped by annihilator: ann(S) is a maximal ideal and A/ann(S)
has one simple module, so simples are isomorphic iff their annihilators agree.
The grouping kernel of each class is its annihilator, self-checked once
(``simple_classes``). Meets of class annihilators are one kernel of the
stacked check matrices (``annihilator_meet``), checked against the Chinese
remainder identity.

The radical (``jacobson_radical``) needs no MeatAxe and no seed: it is the
end of the p-power trace chain of Ronyai and of Cohen, Ivanyos and Wales, a
kernel of the trace form and then at most floor(log_p d) kernels of p-power
trace functions, computed on integer lifts modulo p^(i+1).

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

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, Ideal, is_ideal
from .gfpoly import charpoly, factor, is_irreducible, poly_eval_matrix
from .linalg import Subspace, kernel, projective_vectors, rref
from .modules import ModuleRep, annihilator, annihilator_subspace, regular_module, spin, spin_matrices, sub_quotient

__all__ = [
    "MeatAxeError",
    "SplitResult",
    "split",
    "brute_force_split",
    "composition_factors",
    "is_isomorphic_simple",
    "group_factors",
    "simple_classes",
    "annihilator_meet",
    "CRT_FAILURE",
    "jacobson_radical",
    "is_semiprimitive",
]

RETRY_BUDGET = 64  # sampled elements looking for a certificate
HOLT_REES_BUDGET = 64  # elements the Holt-Rees test may draw after that
BRUTE_CAP = 4096
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
    """Uniform combination of the action matrices plus up to 3 degree-2 words."""
    p, d = m.p, m.algebra.dim
    theta = m.act(rng.integers(0, p, size=d))
    for _ in range(int(rng.integers(0, 4))):
        x = m.act(rng.integers(0, p, size=d))
        y = m.act(rng.integers(0, p, size=d))
        theta = (theta + x @ y) % p
    return theta


def _perp(s: Subspace) -> Subspace:
    if s.dim == 0:
        return Subspace.full(s.ambient, s.p)
    return kernel(s.basis, s.p)


def brute_force_split(m: ModuleRep) -> SplitResult:
    """Spin every scalar line of the module; exact but exponential."""
    p, n = m.p, m.n
    if n < 1:
        raise ValueError("cannot split the zero module")
    if p**n > BRUTE_CAP:
        raise MeatAxeError(f"brute-force split refused: {p}^{n} states exceed {BRUTE_CAP}")
    for v in projective_vectors(n, p):
        s = spin(m, [v])
        if s.dim < n:
            return SplitResult(False, s, "brute")
    return SplitResult(True, None, "brute")


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


def is_isomorphic_simple(m1: ModuleRep, m2: ModuleRep) -> np.ndarray | None:
    """Invertible intertwiner X with act1[i] @ X = X @ act2[i] for all i, or
    None. Meaningful only for simple inputs (any nonzero solution is then
    invertible)."""
    if m1.algebra is not m2.algebra:
        raise ValueError("isomorphism test requires modules over the same algebra")
    if m1.n != m2.n:
        return None
    n, p, d = m1.n, m1.p, m1.algebra.dim
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    blocks = [
        (np.kron(m1.action[i], eye) - np.kron(eye, m2.action[i].T)) % p
        for i in range(d)
    ]
    ker = kernel(np.vstack(blocks), p)
    for row in ker.basis:
        x = row.reshape(n, n)
        _, rank, _ = rref(x, p)
        if rank == n:
            return x
    return None


def group_factors(factors: list[ModuleRep]) -> dict[Subspace, tuple[ModuleRep, int]]:
    """Group a list of simple modules by isomorphism class: one dict pass
    keyed on the annihilator subspace, one ``annihilator_subspace`` kernel
    per module, mapping to the first-found representative and the count, in
    first-found order."""
    groups: dict[Subspace, tuple[ModuleRep, int]] = {}
    for f in factors:
        key = annihilator_subspace(f)
        rep, cnt = groups.get(key, (f, 0))
        groups[key] = (rep, cnt + 1)
    return groups


def simple_classes(a: Algebra, seed: int = 0) -> list[tuple[ModuleRep, Ideal]]:
    """One representative per simple class of the regular module, in
    first-found order, with its annihilator: the grouping kernel itself,
    self-checked once."""
    factors = composition_factors(regular_module(a), seed)
    return [(rep, annihilator(a, rep, key)) for key, (rep, _) in group_factors(factors).items()]


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
    Cohen, Ivanyos & Wales 1997). It is deterministic: ``seed`` is unused.

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
    the trace of a product) stays below 144^6 < 2^43; at level 0, for any p,
    the sums stay below d * p^2 < 2^48."""
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


def is_semiprimitive(a: Algebra, ideal: Ideal, seed: int = 0) -> bool:
    """True iff the ideal is an intersection of simple-module annihilators:
    the meet of the class annihilators containing it; the empty meet is the
    whole algebra."""
    anns = [ann.subspace for _, ann in simple_classes(a, seed)]
    return annihilator_meet(a, [s for s in anns if s.contains_space(ideal.subspace)]) == ideal.subspace
