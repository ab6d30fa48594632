"""Irreducibility testing against brute force, composition factors,
isomorphism testing, and the radical."""

import numpy as np
import pytest

from irrtop import meataxe, oracles
from irrtop.algebra import Algebra, Ideal, quotient_algebra, validate_algebra
from irrtop.linalg import Subspace, kernel, projective_vectors, rref
from irrtop.meataxe import (
    HOLT_REES_BUDGET,
    KERNEL_LINE_CAP,
    RETRY_BUDGET,
    MeatAxeError,
    SplitResult,
    composition_factors,
    jacobson_radical,
    split,
)
from irrtop.modules import (
    ModuleRep,
    annihilator,
    check_module,
    direct_sum,
    regular_module,
    spin,
    spin_matrices,
    sub_quotient,
)
from irrtop.oracles import brute_force_split, group_factors, is_isomorphic_simple, is_semiprimitive
from irrtop.presets import (
    commutative_split,
    cyclic_group_table,
    gallery,
    group_algebra,
    matrix_algebra,
    product_algebra,
    symmetric3_table,
    truncated_polynomial,
    upper_triangular,
)


def small_corpus(cap=512):
    """Preset-derived modules with at most cap states: regular modules,
    their composition factors, and radical subquotients."""
    mods = []
    for a in gallery():
        reg = regular_module(a)
        if a.p**reg.n <= cap:
            mods.append(reg)
        for f in composition_factors(reg, 0):
            if a.p**f.n <= cap:
                mods.append(f)
        rad = jacobson_radical(a, 0)
        if not rad.is_zero:
            sub, quot = sub_quotient(reg, spin(reg, rad.subspace.basis))
            for m in (sub, quot):
                if m.n and a.p**m.n <= cap:
                    mods.append(m)
    return mods


def brute_series(m, depth=0):
    """Oracle composition factors: peel off a minimal cyclic submodule."""
    if m.n == 0:
        return []
    best = None
    for v in projective_vectors(m.n, m.p):
        s = spin(m, [v])
        if best is None or s.dim < best.dim:
            best = s
        if best.dim == 1:
            break
    if best.dim == m.n:
        return [m]
    sub, quot = sub_quotient(m, best)
    return brute_series(sub) + brute_series(quot)


def iso_multiset_equal(fs, gs):
    if sorted(f.n for f in fs) != sorted(g.n for g in gs):
        return False
    remaining = list(gs)
    for f in fs:
        for i, g in enumerate(remaining):
            if f.n == g.n and is_isomorphic_simple(f, g) is not None:
                remaining.pop(i)
                break
        else:
            return False
    return True


def test_split_dim1_irreducible():
    a = upper_triangular(2, 2)
    m = ModuleRep(a, 1, np.array([[[1]], [[0]], [[0]]], dtype=np.int64))
    assert split(m, 0).irreducible


def test_split_finds_submodule_of_m2_regular():
    a = matrix_algebra(2, 2)
    res = split(regular_module(a), 0)
    assert not res.irreducible
    assert 0 < res.submodule.dim < 4
    # Witness is genuinely invariant.
    for i in range(4):
        for row in res.submodule.basis:
            assert res.submodule.contains((regular_module(a).action[i] @ row) % 2)


@pytest.mark.parametrize("seed", range(3))
def test_split_agrees_with_brute_force(seed):
    for m in small_corpus(256):
        assert split(m, seed).irreducible == brute_force_split(m).irreducible, m.label


def test_composition_factors_of_simple_is_itself():
    a = matrix_algebra(2, 2)
    s = composition_factors(regular_module(a), 0)[0]
    again = composition_factors(s, 1)
    assert len(again) == 1 and again[0].n == s.n


def test_m2_regular_factors_two_isomorphic_simples():
    a = matrix_algebra(2, 2)
    fs = composition_factors(regular_module(a), 0)
    assert [f.n for f in fs] == [2, 2]
    assert is_isomorphic_simple(fs[0], fs[1]) is not None
    assert iso_multiset_equal(fs, brute_series(regular_module(a)))


def test_ut2_regular_factors_resolved_by_oracle():
    a = upper_triangular(2, 2)
    fs = composition_factors(regular_module(a), 0)
    assert sorted(f.n for f in fs) == [1, 1, 1]
    oracle = brute_series(regular_module(a))
    assert iso_multiset_equal(fs, oracle)
    groups = group_factors(fs).values()
    counts = {}
    for rep, cnt in groups:
        key = annihilator(a, rep).subspace.key()
        counts[key] = cnt
    s1_ann = Subspace.from_rows([[0, 1, 0], [0, 0, 1]], 2).key()
    s2_ann = Subspace.from_rows([[1, 0, 0], [0, 1, 0]], 2).key()
    assert counts == {s1_ann: 2, s2_ann: 1}


@pytest.mark.parametrize("seed", range(3))
def test_factor_multiset_matches_oracle_everywhere(seed):
    for m in small_corpus(256):
        assert iso_multiset_equal(composition_factors(m, seed), brute_series(m)), m.label


def test_factor_dimensions_sum():
    for m in small_corpus(512):
        assert sum(f.n for f in composition_factors(m, 0)) == m.n


def mat_inverse(x, p):
    n = x.shape[0]
    aug = np.hstack([x, np.eye(n, dtype=np.int64)])
    r, rank, _ = rref(aug, p)
    if rank < n or (r[:, :n] != np.eye(n, dtype=np.int64)).any():
        return None
    return r[:, n:]


def test_iso_self_identity():
    a = matrix_algebra(2, 2)
    s = composition_factors(regular_module(a), 0)[0]
    x = is_isomorphic_simple(s, s)
    assert x is not None
    for i in range(a.dim):
        assert ((s.action[i] @ x) % 2 == (x @ s.action[i]) % 2).all()


def test_iso_distinguishes_ut2_simples():
    a = upper_triangular(2, 2)
    fs = list(group_factors(composition_factors(regular_module(a), 0)).values())
    assert len(fs) == 2
    assert is_isomorphic_simple(fs[0][0], fs[1][0]) is None


def test_iso_finds_conjugates():
    rng = np.random.default_rng(11)
    a = matrix_algebra(2, 3)
    s = composition_factors(regular_module(a), 0)[0]
    for _ in range(5):
        while True:
            g = rng.integers(0, 3, size=(s.n, s.n))
            ginv = mat_inverse(g, 3)
            if ginv is not None:
                break
        conj = ModuleRep(a, s.n, np.stack([(ginv @ s.action[i] @ g) % 3 for i in range(a.dim)]))
        assert check_module(conj) == []
        x = is_isomorphic_simple(s, conj)
        assert x is not None
        for i in range(a.dim):
            assert ((s.action[i] @ x) % 3 == (x @ conj.action[i]) % 3).all()


def test_extension_field_endomorphisms_handled():
    # F2[C3] = F2 x F4: the 2-dim simple has a quadratic endomorphism field;
    # the sampler finds no singular element there, but every element outside
    # F2 has an irreducible quadratic characteristic polynomial, which certifies.
    a = group_algebra(cyclic_group_table(3), 2)
    fs = composition_factors(regular_module(a), 0)
    assert sorted(f.n for f in fs) == [1, 2]
    two = [f for f in fs if f.n == 2][0]
    assert split(two, 0).irreducible


def test_radical_m2_zero():
    assert jacobson_radical(matrix_algebra(2, 2), 0).is_zero


def test_radical_ut2_span_e12():
    rad = jacobson_radical(upper_triangular(2, 2), 0)
    assert rad.subspace == Subspace.from_rows([[0, 1, 0]], 2)


def test_radical_of_product_is_product_of_radicals():
    m2 = matrix_algebra(2, 2)
    ut = upper_triangular(2, 2)
    prod = product_algebra([m2, ut])
    rad = jacobson_radical(prod, 0)
    want = np.zeros(7, dtype=np.int64)
    want[4 + 1] = 1  # e12 inside the upper triangular block
    assert rad.subspace == Subspace.from_rows([want], 2)


def test_radical_nilpotent_and_quotient_semiprimitive():
    for a in gallery():
        rad = jacobson_radical(a, 0)
        power = rad.subspace
        steps = 0
        while power.dim and steps <= a.dim:
            rows = [a.multiply(x, y) for x in power.basis for y in rad.subspace.basis]
            power = Subspace.from_rows(
                np.array(rows, dtype=np.int64) if rows else np.zeros((0, a.dim), dtype=np.int64),
                a.p,
                ambient=a.dim,
            )
            steps += 1
        assert power.dim == 0, a.name
        assert is_semiprimitive(a, rad), a.name
        if not rad.is_zero:
            q, _ = quotient_algebra(a, rad)
            assert jacobson_radical(q, 0).is_zero, a.name


def test_semiprimitive_rejects_radical_piece():
    a = truncated_polynomial(3, 2)
    rad = jacobson_radical(a, 0)
    assert rad.dim == 2
    smaller = Ideal(a, Subspace.from_rows([[0, 0, 1]], 2), "two-sided")
    assert not is_semiprimitive(a, smaller)


def test_split_deterministic_under_seed():
    a = group_algebra(cyclic_group_table(4), 2)
    reg = regular_module(a)
    r1 = split(reg, 5)
    r2 = split(reg, 5)
    assert r1.irreducible == r2.irreducible
    if r1.submodule is not None:
        assert r1.submodule == r2.submodule


# --- the characteristic-polynomial certificate and the Holt-Rees test --------


def sampling_split_oracle(m, rng):
    """The split before characteristic polynomials: sample singular elements
    only, and scan every line by brute force when the samples run out."""
    p, n = m.p, m.n
    if n == 1:
        return SplitResult(True, None, "dim1")
    for attempt in range(1, RETRY_BUDGET + 1):
        theta = meataxe._random_theta(m, rng)
        if not theta.any():
            continue
        ker = kernel(theta, p)
        if ker.dim == 0 or meataxe._line_count(ker.dim, p) > KERNEL_LINE_CAP:
            continue
        for c in projective_vectors(ker.dim, p):
            s = spin(m, [(c @ ker.basis) % p])
            if s.dim < n:
                return SplitResult(False, s, "meataxe-kernel", attempt)
        w = kernel(theta.T % p, p).basis[0]
        dual = spin_matrices([m.action[i].T % p for i in range(m.algebra.dim)], [w], p, n)
        if dual.dim < n:
            return SplitResult(False, meataxe._perp(dual), "meataxe-dual", attempt)
        return SplitResult(True, None, "meataxe", attempt)
    return oracles.brute_force_split(m)


def series_splits(m, seed):
    """Every module the oracle's composition series splits, with the
    generator state before the split and the oracle's result."""
    rng = np.random.default_rng(seed)
    out, stack = [], [m]
    while stack:
        cur = stack.pop()
        if cur.n == 0:
            continue
        state = rng.bit_generator.state
        res = sampling_split_oracle(cur, rng)
        out.append((cur, state, res, rng.bit_generator.state))
        if not res.irreducible:
            sub, quot = sub_quotient(cur, res.submodule)
            stack += [quot, sub]
    return out


def generator_at(state):
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


def is_proper_submodule(m, s):
    if not 0 < s.dim < m.n:
        return False
    return all(s.contains((m.action[i] @ row) % m.p) for i in range(m.algebra.dim) for row in s.basis)


@pytest.mark.parametrize("seed", range(3))
def test_split_matches_the_sampling_oracle_on_reducible_modules(seed):
    reducible = irreducible = 0
    for a in gallery():
        for cur, before, want, after in series_splits(regular_module(a), seed):
            rng = generator_at(before)
            got = meataxe._split(cur, rng)
            if want.irreducible:
                irreducible += 1
                assert got.irreducible, (a.name, cur.n)
                continue
            reducible += 1
            assert (got.irreducible, got.submodule, got.method, got.tries) == (
                False,
                want.submodule,
                want.method,
                want.tries,
            ), (a.name, cur.n)
            assert rng.bit_generator.state == after
    assert reducible > 20 and irreducible > 20


def test_composition_factors_never_scan_by_brute_force(monkeypatch):
    calls = []
    brute = oracles.brute_force_split
    monkeypatch.setattr(oracles, "brute_force_split", lambda m: calls.append(m.n) or brute(m))
    fields = [
        group_algebra(cyclic_group_table(3), 2),
        group_algebra(cyclic_group_table(7), 2),
        group_algebra(cyclic_group_table(21), 2),
    ]
    for a in gallery() + fields:
        for seed in range(3):
            fs = composition_factors(regular_module(a), seed)
            assert sum(f.n for f in fs) == a.dim
    assert calls == []
    # The counter sees the scans the sampling oracle made on the same input.
    series_splits(regular_module(fields[0]), 0)
    assert calls


def test_field_type_simples_are_certified_by_the_characteristic_polynomial():
    a = group_algebra(cyclic_group_table(21), 2)
    fs = composition_factors(regular_module(a), 7)
    assert sorted(f.n for f in fs) == [1, 2, 3, 3, 6, 6]
    for f in fs:
        if f.n > 1:
            for seed in range(5):
                res = split(f, seed)
                assert res.irreducible and res.method == "charpoly" and res.tries <= RETRY_BUDGET


def holt_rees_corpus():
    """Modules where sampling alone fails or is slow: large primes, field-type
    simples, and sums of copies of one simple."""
    c3 = group_algebra(cyclic_group_table(3), 2)
    c7 = group_algebra(cyclic_group_table(7), 2)
    m2 = matrix_algebra(2, 1009)
    out = small_corpus(256)
    for a in (c3, c7, m2, upper_triangular(3, 1009), truncated_polynomial(2, 1048573)):
        reg = regular_module(a)
        out.append(reg)
        for f in composition_factors(reg, 0):
            out.append(f)
            out.append(direct_sum(a, [f, f]))
    # The cyclic modules A e_i include uniserial ones: when the chosen factor
    # belongs to the top, N misses the socle and only the dual spin splits.
    for a in (upper_triangular(2, 2), upper_triangular(3, 1009)):
        reg = regular_module(a)
        out.extend(sub_quotient(reg, spin(reg, [a.basis_vector(i)]))[0] for i in range(a.dim))
    return out


def test_holt_rees_decides_against_brute_force():
    methods = set()
    for i, m in enumerate(holt_rees_corpus()):
        res = meataxe._holt_rees(m, np.random.default_rng(i))
        methods.add(res.method)
        assert RETRY_BUDGET < res.tries <= RETRY_BUDGET + HOLT_REES_BUDGET
        if res.irreducible:
            assert res.method == "holt-rees"
        else:
            assert res.method in ("holt-rees", "holt-rees-dual") and is_proper_submodule(m, res.submodule)
        if m.p**m.n <= 4096:
            assert res.irreducible == brute_force_split(m).irreducible, m.label
        elif m.n > 1:
            # A sum of copies, or a regular module of a non-simple algebra.
            assert not res.irreducible or len(composition_factors(m, 0)) == 1
    assert methods == {"holt-rees", "holt-rees-dual"}


def test_holt_rees_splits_sums_of_a_field_type_simple():
    # F8 + F8 over F2[C7]: every element acts as one scalar of F8 on both
    # copies, so no factor of its characteristic polynomial has multiplicity
    # one and no sample is singular but zero. S is one line over End(S) = F8,
    # so any vector of N spins to a copy of S.
    a = group_algebra(cyclic_group_table(7), 2)
    for f in composition_factors(regular_module(a), 0):
        if f.n == 3:
            twice = direct_sum(a, [f, f])
            for seed in range(5):
                res = meataxe._holt_rees(twice, np.random.default_rng(seed))
                assert not res.irreducible and res.submodule.dim == 3 and is_proper_submodule(twice, res.submodule)


def test_split_falls_back_to_holt_rees_after_the_sampling_budget(monkeypatch):
    monkeypatch.setattr(meataxe, "RETRY_BUDGET", 0)
    for m in small_corpus(64):
        res = split(m, 0)
        assert res.method in ("dim1", "holt-rees", "holt-rees-dual")
        assert res.irreducible == brute_force_split(m).irreducible


def test_holt_rees_fallback_leaves_the_shared_stream_alone(monkeypatch):
    # The fallback draws from a spawned generator, not from the shared one.
    a = group_algebra(cyclic_group_table(3), 2)
    m = regular_module(a)
    monkeypatch.setattr(meataxe, "RETRY_BUDGET", 0)
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    meataxe._split(m, rng)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_split_raises_when_the_holt_rees_test_stays_inconclusive(monkeypatch):
    # With theta = 1 on a simple module, N = ker(theta - 1) is the whole
    # module: every spin generates and dim N > deg g, so nothing is decided.
    a = matrix_algebra(2, 3)
    m = composition_factors(regular_module(a), 0)[0]
    monkeypatch.setattr(meataxe, "_random_theta", lambda m, rng: np.eye(m.n, dtype=np.int64))
    with pytest.raises(MeatAxeError, match="Holt-Rees"):
        split(m, 0)


@pytest.mark.parametrize(
    "a, dims",
    [
        (commutative_split(2, 1048573), [1, 1]),
        (truncated_polynomial(2, 1048573), [1, 1]),
        (matrix_algebra(3, 101), [3, 3, 3]),
    ],
    ids=["CS2/big", "T2/big", "M3/101"],
)
def test_composition_factors_at_large_primes(a, dims):
    for seed in range(3):
        assert sorted(f.n for f in composition_factors(regular_module(a), seed)) == dims


def matrices_over_quadratic_field(p):
    """M_2(GF(p^2)) as a GF(p)-algebra of dimension 8: its simple module is
    GF(p^2)^2, of dimension 4 over GF(p) with endomorphism field GF(p^2)."""
    m2 = matrix_algebra(2, p)
    if p == 2:
        c0, c1 = 1, 1  # w^2 = w + 1
    else:
        c0, c1 = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1), 0  # w^2 = r
    field = np.zeros((2, 2, 2), dtype=np.int64)
    field[0, 0, 0] = field[0, 1, 1] = field[1, 0, 1] = 1
    field[1, 1] = [c0, c1]
    lam = np.einsum("ijk,abc->iajbkc", m2.mul, field).reshape(8, 8, 8)
    return Algebra(p, 8, lam, np.kron(m2.one, [1, 0]), name=f"M2(GF({p}^2))")


@pytest.mark.parametrize("p", [2, 1009])
def test_holt_rees_splits_two_copies_of_a_simple_with_a_quadratic_field(p):
    a = matrices_over_quadratic_field(p)
    assert validate_algebra(a) == []
    reg = regular_module(a)
    simple = composition_factors(reg, 0)[0]
    assert simple.n == 4 and [f.n for f in composition_factors(reg, 1)] == [4, 4]
    for seed in range(6):
        res = meataxe._holt_rees(reg, np.random.default_rng(seed))
        assert not res.irreducible and res.submodule.dim == 4 and is_proper_submodule(reg, res.submodule)
        assert meataxe._holt_rees(simple, np.random.default_rng(seed)).irreducible


def random_theta_oracle(m, rng):
    """The draw by ``ModuleRep.act``, the int64 einsum."""
    p, d = m.p, m.algebra.dim
    theta = m.act(rng.integers(0, p, size=d))
    for _ in range(int(rng.integers(0, 4))):
        x = m.act(rng.integers(0, p, size=d))
        y = m.act(rng.integers(0, p, size=d))
        theta = (theta + x @ y) % p
    return theta


@pytest.mark.parametrize(
    "a",
    [
        matrix_algebra(3, 2),
        group_algebra(symmetric3_table(), 5),
        upper_triangular(3, 1009),
        truncated_polynomial(2, 1048573),
    ],
    ids=lambda a: a.name,
)
def test_random_theta_by_one_product_matches_the_einsum(a):
    reg = regular_module(a)
    for m in [reg] + composition_factors(reg, 0):
        rng, twin = np.random.default_rng(a.dim), np.random.default_rng(a.dim)
        for _ in range(20):
            got, want = meataxe._random_theta(m, rng), random_theta_oracle(m, twin)
            assert got.dtype == np.int64 and (got == want).all()
        assert rng.integers(0, 2**62) == twin.integers(0, 2**62)  # the same draws
