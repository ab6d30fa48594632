"""One elimination kernel: every residual is one product against an RREF
basis. The per-vector loops it replaced are kept here as oracles and must
agree with the stacked versions on seeded random inputs at small primes,
on every gallery algebra and at the largest accepted prime. The two
best-vector loops of the staged and chain constructions are kept the same
way for their shared replacement."""

import numpy as np
import pytest

from irrtop.algebra import Algebra, Ideal, ideal_generated, is_ideal, product_space, quotient_algebra
from irrtop.embeddings import CANDIDATE_CAP, ProductFamily, _best_vector, _candidate_vectors, ann_of_vector
from irrtop import modules
from irrtop.linalg import PRIME_BOUND, Subspace, as_vector, is_prime, kernel, rref
from irrtop.meataxe import jacobson_radical
from irrtop.modules import annihilator, regular_module, spin, spin_matrices, sub_quotient, vector_annihilator
from irrtop.presets import commutative_split, gallery, matrix_algebra, truncated_polynomial, upper_triangular
from irrtop.topology import enumerate_irr

LARGEST_PRIME = max(q for q in range(PRIME_BOUND - 64, PRIME_BOUND) if is_prime(q))
SMALL_PRIMES = (2, 3, 5)


# --- oracles: the per-vector code the stacked products replaced -----------


def reduce_oracle(s: Subspace, v) -> np.ndarray:
    """Eliminate one pivot at a time."""
    r = as_vector(v, s.p)
    for i, c in enumerate(s.pivots):
        if r[c]:
            r = (r - r[c] * s.basis[i]) % s.p
    return r


def intersect_oracle(u: Subspace, v: Subspace) -> Subspace:
    """Pairs (a, b) with a @ U = b @ V give the common vectors a @ U."""
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(u.ambient, u.p)
    ker = kernel(np.hstack([u.basis.T, (-v.basis.T) % u.p]), u.p)
    rows = (ker.basis[:, : u.dim] @ u.basis) % u.p
    return Subspace.from_rows(rows, u.p, ambient=u.ambient)


def kernel_oracle(m: np.ndarray, p: int) -> Subspace:
    """One basis vector per free column, one pivot entry at a time."""
    r, rank, pivots = rref(m, p)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    rows = np.zeros((len(free), m.shape[1]), dtype=np.int64)
    for t, f in enumerate(free):
        rows[t, f] = 1
        for i, c in enumerate(pivots):
            rows[t, c] = (-r[i, f]) % p
    return Subspace.from_rows(rows, p, ambient=m.shape[1])


def is_ideal_oracle(a: Algebra, s: Subspace, sided: str) -> bool:
    """One product and one membership test per basis element and row."""
    for row in s.basis:
        for i in range(a.dim):
            e = a.basis_vector(i)
            if not s.contains(a.multiply(e, row)):
                return False
            if sided == "two-sided" and not s.contains(a.multiply(row, e)):
                return False
    return True


def ideal_generated_oracle(a: Algebra, gens, sided: str) -> Subspace:
    """Worklist spin-up that re-echelons the whole basis per new vector."""
    sub = Subspace.zero(a.dim, a.p)
    work = [as_vector(g, a.p) for g in gens]
    while work:
        r = reduce_oracle(sub, work.pop())
        if not r.any():
            continue
        sub = sub.add(Subspace.from_rows(r, a.p, ambient=a.dim))
        for i in range(a.dim):
            e = a.basis_vector(i)
            work.append(a.multiply(e, r))
            if sided == "two-sided":
                work.append(a.multiply(r, e))
    return sub


def spin_oracle(mats, vecs, p: int, ambient: int) -> Subspace:
    """Residuals against a dict of partially reduced rows."""
    rows: dict[int, np.ndarray] = {}
    work = [as_vector(v, p) for v in vecs]
    while work:
        r = work.pop() % p
        for c in sorted(rows):
            if r[c]:
                r = (r - r[c] * rows[c]) % p
        if not r.any():
            continue
        c = int(np.nonzero(r)[0][0])
        rows[c] = (r * pow(int(r[c]), p - 2, p)) % p
        for mat in mats:
            work.append((mat @ rows[c]) % p)
    if not rows:
        return Subspace.zero(ambient, p)
    return Subspace.from_rows(np.vstack([rows[c] for c in sorted(rows)]), p, ambient=ambient)


def ann_of_vector_oracle(fam: ProductFamily, components) -> Subspace:
    """Meet of the per-factor element annihilators."""
    a = fam.algebra
    sub = Subspace.full(a.dim, a.p)
    for f, v in zip(fam.factors, components):
        sub = sub.intersect(vector_annihilator(f, v))
    return sub


def sub_quotient_oracle(m, s: Subspace):
    """Action matrices column by column."""
    d, p = m.algebra.dim, m.p
    comp = s.complement_columns()
    sub_act = np.zeros((d, s.dim, s.dim), dtype=np.int64)
    quot_act = np.zeros((d, len(comp), len(comp)), dtype=np.int64)
    for i in range(d):
        for j in range(s.dim):
            sub_act[i][:, j] = ((m.action[i] @ s.basis[j]) % p)[list(s.pivots)]
        for u, c in enumerate(comp):
            quot_act[i][:, u] = reduce_oracle(s, m.action[i][:, c])[list(comp)]
    return sub_act, quot_act


def quotient_oracle(a: Algebra, ideal: Ideal):
    """Projection and structure constants one basis product at a time."""
    comp = ideal.subspace.complement_columns()
    proj = np.zeros((len(comp), a.dim), dtype=np.int64)
    for j in range(a.dim):
        proj[:, j] = reduce_oracle(ideal.subspace, a.basis_vector(j))[list(comp)]
    lam = np.zeros((len(comp),) * 3, dtype=np.int64)
    for s, cs in enumerate(comp):
        for t, ct in enumerate(comp):
            prod = a.multiply(a.basis_vector(cs), a.basis_vector(ct))
            lam[s, t] = reduce_oracle(ideal.subspace, prod)[list(comp)]
    return proj, lam


def product_space_oracle(a: Algebra, u: Subspace, v: Subspace) -> Subspace:
    """One product per pair of basis rows."""
    rows = [a.multiply(x, y) for x in u.basis for y in v.basis]
    return Subspace.from_rows(
        np.array(rows, dtype=np.int64) if rows else np.zeros((0, a.dim), dtype=np.int64), a.p, ambient=a.dim
    )


def product_space_einsum_oracle(a: Algebra, u: Subspace, v: Subspace) -> Subspace:
    """The replaced int64 einsum over the basis pairs."""
    rows = np.einsum("ri,sj,ijk->rsk", u.basis, v.basis, a.mul) % a.p
    return Subspace.from_rows(rows.reshape(-1, a.dim), a.p, ambient=a.dim)


# --- helpers ----------------------------------------------------------------


def assert_rref(s: Subspace):
    """The stored basis is the unique RREF of its span, read-only."""
    r, rank, pivots = rref(s.basis, s.p) if s.dim else (s.basis, 0, [])
    assert rank == s.dim
    assert tuple(pivots) == s.pivots
    assert r.tolist() == s.basis.tolist()
    assert s.basis.dtype == np.int64 and not s.basis.flags.writeable


def random_subspace(rng, n: int, p: int, rows: int, high: bool = False) -> Subspace:
    low = p - 5 if high else 0
    return Subspace.from_rows(rng.integers(low, p, size=(rows, n)), p, ambient=n)


def random_pair(rng, n: int, p: int, high: bool = False):
    """Two subspaces that share a random part, so meets are not all zero."""
    low = p - 5 if high else 0
    shared = rng.integers(low, p, size=(int(rng.integers(0, n + 1)), n))
    u = np.vstack([shared, rng.integers(low, p, size=(int(rng.integers(0, n)), n))])
    v = np.vstack([rng.integers(low, p, size=(int(rng.integers(0, n)), n)), shared])
    return Subspace.from_rows(u, p, ambient=n), Subspace.from_rows(v, p, ambient=n)


def large_prime_algebras():
    """Presets small enough for the largest accepted prime: d**2 * (p - 1)**3
    < 2**63 leaves d <= 2."""
    p = LARGEST_PRIME
    return [matrix_algebra(1, p), truncated_polynomial(2, p), commutative_split(2, p)]


ALGEBRAS = gallery() + large_prime_algebras()
ALGEBRA_IDS = [a.name for a in gallery()] + ["M1/big", "T2/big", "C2/big"]


def small_modules(a: Algebra):
    """One simple module per class, split off by the meataxe at every prime."""
    return [pt.rep for pt in enumerate_irr(a).points]


# --- linalg ----------------------------------------------------------------


@pytest.mark.parametrize("p", SMALL_PRIMES + (LARGEST_PRIME,))
def test_reduce_matches_the_pivot_loop(p):
    rng = np.random.default_rng(p)
    high = p == LARGEST_PRIME
    for _ in range(40):
        n = int(rng.integers(1, 8))
        s = random_subspace(rng, n, p, int(rng.integers(0, n + 1)), high)
        assert_rref(s)
        vs = rng.integers(0, p, size=(5, n))
        stacked = s.reduce(vs)
        assert stacked.shape == vs.shape
        for v, res in zip(vs, stacked):
            want = reduce_oracle(s, v)
            assert s.reduce(v).tolist() == want.tolist() == res.tolist()
        assert s.reduce(vs.reshape(5, 1, n)).tolist() == stacked.reshape(5, 1, n).tolist()
        assert not s.reduce(s.basis).any()


@pytest.mark.parametrize("p", SMALL_PRIMES + (LARGEST_PRIME,))
def test_intersect_matches_the_kernel_construction(p):
    rng = np.random.default_rng(100 + p)
    high = p == LARGEST_PRIME
    for _ in range(40):
        n = int(rng.integers(1, 8))
        u, v = random_pair(rng, n, p, high)
        got = u.intersect(v)
        assert_rref(got)
        assert got == intersect_oracle(u, v) == v.intersect(u)
        assert u.contains_space(got) and v.contains_space(got)
        assert got.dim + u.add(v).dim == u.dim + v.dim


def test_contains_space_requires_the_same_prime():
    with pytest.raises(ValueError, match="equal ambient space"):
        Subspace.full(3, 3).contains_space(Subspace.zero(3, 2))
    with pytest.raises(ValueError, match="equal ambient space"):
        Subspace.full(3, 3).contains_space(Subspace.zero(2, 3))


@pytest.mark.parametrize("p", SMALL_PRIMES + (LARGEST_PRIME,))
def test_kernel_matches_the_free_column_loop(p):
    rng = np.random.default_rng(200 + p)
    for _ in range(40):
        nrows, ncols, rank = (int(x) for x in rng.integers(1, 8, size=3))
        m = rng.integers(0, p, size=(nrows, rank)) @ rng.integers(0, p, size=(rank, ncols)) % p
        got = kernel(m, p)
        assert_rref(got)
        assert got == kernel_oracle(m, p)
        assert got.dim == ncols - rref(m, p)[1] and not (m @ got.basis.T % p).any()


@pytest.mark.parametrize("p", SMALL_PRIMES + (LARGEST_PRIME,))
def test_spin_matches_the_residual_dict(p):
    rng = np.random.default_rng(200 + p)
    high = p == LARGEST_PRIME
    low = p - 5 if high else 0
    for _ in range(30):
        n = int(rng.integers(1, 7))
        mats = rng.integers(low, p, size=(int(rng.integers(0, 3)), n, n))
        # A nilpotent matrix keeps some spins proper.
        mats = np.concatenate([mats, np.triu(rng.integers(0, p, size=(1, n, n)), 1)])
        vecs = rng.integers(low, p, size=(int(rng.integers(0, 3)), n))
        got = spin_matrices(mats, list(vecs), p, n)
        assert_rref(got)
        assert got == spin_oracle(list(mats), list(vecs), p, n)


# --- algebra and modules -----------------------------------------------------


def candidate_subspaces(a: Algebra, rng):
    """Ideals, one-sided ideals and random subspaces of a."""
    out = [Subspace.zero(a.dim, a.p), Subspace.full(a.dim, a.p)]
    if a.p in SMALL_PRIMES:
        out.append(jacobson_radical(a, 0).subspace)
    for sided in ("left", "two-sided"):
        gens = rng.integers(0, a.p, size=(1, a.dim))
        out.append(ideal_generated(a, gens, sided).subspace)
    for k in range(1, a.dim):
        out.append(random_subspace(rng, a.dim, a.p, k))
    out.extend(Subspace.from_rows(np.eye(a.dim, dtype=np.int64)[i], a.p) for i in range(a.dim))
    return out


@pytest.mark.parametrize("a", ALGEBRAS, ids=ALGEBRA_IDS)
def test_is_ideal_matches_the_element_loop(a):
    rng = np.random.default_rng(a.dim)
    for s in candidate_subspaces(a, rng):
        for sided in ("left", "two-sided"):
            assert is_ideal(a, s, sided) == is_ideal_oracle(a, s, sided)


@pytest.mark.parametrize("a", ALGEBRAS, ids=ALGEBRA_IDS)
def test_ideal_generated_matches_the_worklist(a):
    rng = np.random.default_rng(300 + a.dim)
    for _ in range(4):
        gens = rng.integers(0, a.p, size=(int(rng.integers(0, 3)), a.dim))
        for sided in ("left", "two-sided"):
            got = ideal_generated(a, gens, sided)
            assert_rref(got.subspace)
            assert got.subspace == ideal_generated_oracle(a, gens, sided)
            assert got.sided == sided and is_ideal(a, got.subspace, sided)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_ideals_match_oracles_on_random_algebras(p):
    # Presets at each small prime, with random subspaces and generators.
    rng = np.random.default_rng(400 + p)
    for a in (upper_triangular(3, p), commutative_split(3, p), matrix_algebra(2, p), truncated_polynomial(3, p)):
        for s in candidate_subspaces(a, rng):
            for sided in ("left", "two-sided"):
                assert is_ideal(a, s, sided) == is_ideal_oracle(a, s, sided)
        gens = rng.integers(0, p, size=(2, a.dim))
        for sided in ("left", "two-sided"):
            assert ideal_generated(a, gens, sided).subspace == ideal_generated_oracle(a, gens, sided)


@pytest.mark.parametrize("a", ALGEBRAS, ids=ALGEBRA_IDS)
def test_product_space_matches_the_pairwise_loop(a):
    rng = np.random.default_rng(400 + a.dim)
    subs = candidate_subspaces(a, rng)
    if a.p == LARGEST_PRIME:
        subs += [random_subspace(rng, a.dim, a.p, k, high=True) for k in range(1, a.dim + 1)]
    for u in subs:
        for v in subs:
            got = product_space(a, u, v)
            assert_rref(got)
            assert got == product_space_oracle(a, u, v) == product_space_einsum_oracle(a, u, v)


@pytest.mark.parametrize("a", ALGEBRAS, ids=ALGEBRA_IDS)
def test_quotients_and_sub_quotients_match_the_column_loops(a):
    rng = np.random.default_rng(500 + a.dim)
    reg = regular_module(a)
    for s in candidate_subspaces(a, rng):
        if is_ideal(a, s, "two-sided") and not s.is_full:
            quot, proj = quotient_algebra(a, Ideal(a, s, "two-sided"))
            want_proj, want_lam = quotient_oracle(a, Ideal(a, s, "two-sided"))
            assert proj.tolist() == want_proj.tolist()
            assert quot.mul.tolist() == want_lam.tolist()
        if is_ideal(a, s, "left"):
            sub, quo = sub_quotient(reg, s)
            want_sub, want_quo = sub_quotient_oracle(reg, s)
            assert sub.action.tolist() == want_sub.tolist()
            assert quo.action.tolist() == want_quo.tolist()


@pytest.mark.parametrize("a", ALGEBRAS, ids=ALGEBRA_IDS)
def test_annihilators_are_ideals_in_rref(a):
    for m in small_modules(a):
        ann = annihilator(a, m)
        assert_rref(ann.subspace)
        assert is_ideal_oracle(a, ann.subspace, "two-sided")


def test_annihilator_raises_on_a_one_sided_kernel(monkeypatch):
    # span{e11} in UT2 is a left ideal but not a two-sided one.
    a = upper_triangular(2, 2)
    e11 = Subspace.from_rows([[1, 0, 0]], 2, ambient=3)
    assert is_ideal(a, e11, "left") and not is_ideal(a, e11, "two-sided")
    monkeypatch.setattr(modules, "kernel", lambda m, p: e11)
    with pytest.raises(AssertionError, match="two-sided closure"):
        annihilator(a, regular_module(a))


# --- embeddings ---------------------------------------------------------------


def families(a: Algebra):
    points = small_modules(a)
    reg = regular_module(a)
    yield ProductFamily(a, tuple(points))
    yield ProductFamily(a, (reg,) + tuple(points))
    yield ProductFamily(a, (points[0], reg, points[-1], modules.zero_module(a)))


@pytest.mark.parametrize("a", ALGEBRAS, ids=ALGEBRA_IDS)
def test_ann_of_vector_matches_the_per_factor_meet(a):
    rng = np.random.default_rng(600 + a.dim)
    for fam in families(a):
        for _ in range(6):
            comps = [rng.integers(0, a.p, size=f.n) for f in fam.factors]
            if rng.integers(0, 3) == 0 and comps:
                comps[0] = np.zeros_like(comps[0])
            got = ann_of_vector(fam, comps)
            assert_rref(got.subspace)
            assert got.sided == "left"
            assert got.subspace == ann_of_vector_oracle(fam, comps)
            # orbit dim = d - dim ann(x), since A.x is isomorphic to A/ann(x).
            big = modules.direct_sum(a, list(fam.factors))
            x = np.concatenate(comps)
            assert spin(big, [x]).dim == a.dim - got.dim


def test_ann_of_vector_of_the_empty_family_is_whole():
    a = upper_triangular(2, 3)
    assert ann_of_vector(ProductFamily(a, ()), []).is_whole


def staged_search_oracle(f, mat, accum: Subspace, slab: Subspace, rng):
    """The staged loop: measure inside the slab, recompute the meet on a win."""
    best = None
    for y in _candidate_vectors(f.n, f.p, rng):
        if not ((mat @ y) % f.p).any():
            continue
        cand = accum.intersect(vector_annihilator(f, y)).intersect(slab)
        if best is None or cand.dim < best[0]:
            best = (cand.dim, y, accum.intersect(vector_annihilator(f, y)))
        if cand.dim == 0:
            break
    return best


def chain_search_oracle(f, mat, kill: Subspace, rng):
    """The chain loop: measure the meet itself."""
    best = None
    for y in _candidate_vectors(f.n, f.p, rng):
        if not ((mat @ y) % f.p).any():
            continue
        cand = kill.intersect(vector_annihilator(f, y))
        if best is None or cand.dim < best[0]:
            best = (cand.dim, np.array(y, dtype=np.int64), cand)
        if cand.dim == 0:
            break
    return best


@pytest.mark.parametrize(
    "a",
    # Regular modules above 256 states take the sampled candidate path.
    [upper_triangular(2, 3), matrix_algebra(3, 2), upper_triangular(4, 2), truncated_polynomial(4, 5)],
    ids=["UT2/3", "M3/2", "UT4/2", "T4/5"],
)
def test_best_vector_search_matches_the_staged_and_chain_loops(a):
    rng = np.random.default_rng(700 + a.dim)
    # Small modules make ties (equal dimensions before the early stop) common.
    for f in [regular_module(a)] + small_modules(a):
        for trial in range(6):
            gens = rng.integers(0, a.p, size=(int(rng.integers(0, 2)), a.dim))
            running = ideal_generated(a, gens, "left").subspace if trial else Subspace.full(a.dim, a.p)
            if running.is_zero or not f.act(running.basis[0]).any():
                continue
            mat = f.act(running.basis[0])
            slab = Subspace.from_rows(np.eye(a.dim, dtype=np.int64)[: int(rng.integers(1, a.dim + 1))], a.p)
            seed = int(rng.integers(0, 1000))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            measured, y, meet = _best_vector(f, mat, running, got_rng, slab)
            want_dim, want_y, want_meet = staged_search_oracle(f, mat, running, slab, want_rng)
            assert (measured.dim, y.tolist(), meet) == (want_dim, want_y.tolist(), want_meet)
            assert measured == meet.intersect(slab)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            measured, y, meet = _best_vector(f, mat, running, got_rng)
            want_dim, want_y, want_meet = chain_search_oracle(f, mat, running, want_rng)
            assert (measured.dim, y.tolist(), meet) == (want_dim, want_y.tolist(), want_meet)
            assert measured is meet
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class RecordingRng:
    """A generator that keeps every vector _candidate_vectors draws from it."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), []

    def integers(self, *args, **kwargs):
        self.draws.append(self.rng.integers(*args, **kwargs))
        return self.draws[-1]


# (seed, candidates pulled up to the early stop, zero draws skipped) on the
# regular module of M3 over GF(2) with the whole algebra running. Chunks pull
# 1, 2, 4, 8, 16, 32 candidates, so 15 is the last slot of the fourth chunk
# and 16 and 32 are first slots.
CHUNK_EDGE_SEEDS = [(23, 15, 0), (81, 16, 0), (597, 32, 0), (801, 15, 1), (1702, 16, 1)]


@pytest.mark.parametrize("seed, pulled, zeros", CHUNK_EDGE_SEEDS)
def test_best_vector_stops_at_chunk_edges_as_the_loops_do(seed, pulled, zeros):
    a = matrix_algebra(3, 2)
    f = regular_module(a)
    assert f.p**f.n > CANDIDATE_CAP  # the sampled path, which draws
    running = Subspace.full(a.dim, a.p)
    mat = f.act(running.basis[0])
    for slab in (None, Subspace.from_rows(np.eye(a.dim, dtype=np.int64)[:4], a.p)):
        want_rng = RecordingRng(seed)
        if slab is None:
            want_dim, want_y, want_meet = chain_search_oracle(f, mat, running, want_rng)
        else:
            want_dim, want_y, want_meet = staged_search_oracle(f, mat, running, slab, want_rng)
        got_rng = np.random.default_rng(seed)
        measured, y, meet = _best_vector(f, mat, running, got_rng, slab)
        assert (measured.dim, y.tolist(), meet) == (want_dim, want_y.tolist(), want_meet)
        assert got_rng.bit_generator.state == want_rng.rng.bit_generator.state
        if slab is None:
            # The stop ends the scan: the unit vectors, then the nonzero draws.
            assert want_dim == 0
            assert f.n + sum(v.any() for v in want_rng.draws) == pulled
            assert sum(not v.any() for v in want_rng.draws) == zeros


def test_best_vector_on_an_empty_measured_meet_stops_at_the_first_moved_candidate():
    """running & slab = 0: every moved candidate measures 0, so the first
    one wins and nothing is drawn."""
    a = matrix_algebra(3, 2)
    f = regular_module(a)
    eye = np.eye(a.dim, dtype=np.int64)
    running = Subspace.from_rows(eye[-1:], a.p)
    slab = Subspace.from_rows(eye[:1], a.p)
    mat = f.act(running.basis[0])
    got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
    before = got_rng.bit_generator.state
    measured, y, meet = _best_vector(f, mat, running, got_rng, slab)
    want_dim, want_y, want_meet = staged_search_oracle(f, mat, running, slab, want_rng)
    assert (measured.dim, y.tolist(), meet) == (0, want_y.tolist(), want_meet)
    first_moved = next(v for v in _candidate_vectors(f.n, f.p, None) if ((mat @ v) % f.p).any())
    assert y.tolist() == first_moved.tolist()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state == before
