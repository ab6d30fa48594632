"""Structure-constant algebras, ideals, quotients, and module plumbing."""

import numpy as np
import pytest

from irrtop.algebra import Algebra, Ideal, ideal_generated, is_ideal, product_algebra, quotient_algebra, validate_algebra
from irrtop.linalg import PRIME_BOUND, Subspace, all_vectors, is_prime
from irrtop import modules
from irrtop.modules import (
    ModuleRep,
    annihilator,
    check_module,
    direct_sum,
    regular_module,
    spin,
    sub_quotient,
    vector_annihilator,
    zero_module,
)
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
from irrtop.topology import enumerate_irr


def field_algebra(p):
    return Algebra(p, 1, np.ones((1, 1, 1), dtype=np.int64), np.array([1]), name="field")


def ut2():
    return upper_triangular(2, 2)


# UT2 basis order is (e11, e12, e22).
E11, E12, E22 = [np.eye(3, dtype=np.int64)[i] for i in range(3)]


def test_field_algebra_valid():
    assert validate_algebra(field_algebra(2)) == []


def test_broken_identity_reported():
    a = Algebra(2, 1, np.ones((1, 1, 1), dtype=np.int64), np.array([0]))
    report = validate_algebra(a)
    assert any("identity" in msg for msg in report)


def test_broken_associativity_reported():
    lam = np.array(matrix_algebra(2, 2).mul)
    lam[0, 0, 1] = 1
    a = Algebra(2, 4, lam, matrix_algebra(2, 2).one)
    assert any("associativity" in msg for msg in validate_algebra(a))


def test_m2_structure_constants_brute_force():
    a = matrix_algebra(2, 2)
    assert validate_algebra(a) == []
    # Oracle: check every associativity instance with explicit loops.
    d = a.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = a.multiply(a.multiply(a.basis_vector(i), a.basis_vector(j)), a.basis_vector(k))
                rhs = a.multiply(a.basis_vector(i), a.multiply(a.basis_vector(j), a.basis_vector(k)))
                assert (lhs == rhs).all()


def test_gallery_presets_all_valid():
    for a in gallery():
        assert validate_algebra(a) == [], a.name


def test_preset_dispatch():
    assert preset("matrix_algebra", (1, 3)).dim == 1
    assert preset("upper_triangular", (2, 2)).dim == 3
    assert preset("group_algebra", ("C2", 2)).dim == 2
    with pytest.raises(ValueError):
        preset("mystery", ())


def test_regular_module_field():
    reg = regular_module(field_algebra(3))
    assert reg.n == 1 and (reg.action[0] == np.array([[1]])).all()


def test_regular_module_m2_matches_matrix_units():
    a = matrix_algebra(2, 2)
    reg = regular_module(a)
    # Oracle: multiply matrix units symbolically as 2x2 matrices.
    units = {}
    for r in range(2):
        for c in range(2):
            u = np.zeros((2, 2), dtype=np.int64)
            u[r, c] = 1
            units[r * 2 + c] = u
    for i in range(4):
        for j in range(4):
            prod = (units[i] @ units[j]) % 2
            coords = prod.reshape(-1)
            assert (reg.action[i][:, j] == coords).all()


def test_identity_acts_as_identity_everywhere():
    for a in gallery():
        reg = regular_module(a)
        assert (reg.act(a.one) == np.eye(a.dim, dtype=np.int64)).all()
        assert check_module(reg) == []


def check_module_oracle(m):
    """The module axioms as two dense (d, d, n, n) tensors: every product
    action[i] @ action[j] against sum_t mul[i, j, t] action[t]."""
    a, p = m.algebra, m.p
    if m.n == 0:
        return []
    lhs = np.einsum("ikl,jlm->ijkm", m.action, m.action) % p
    rhs = np.einsum("ijt,tkm->ijkm", a.mul, m.action) % p
    bad = np.argwhere((lhs != rhs).any(axis=(2, 3)))
    report = [f"action of {a.basis_name(i)}*{a.basis_name(j)} is not the composite action" for i, j in bad[:32]]
    if len(bad) > 32:
        report.append(f"... and {len(bad) - 32} more action violations")
    if (m.act(a.one) != np.eye(m.n, dtype=np.int64)).any():
        report.append("identity element does not act as the identity matrix")
    return report


def check_module_per_element_oracle(m):
    """The int64 check it replaced, one basis element i at a time:
    action[i] @ action[j] against sum_t mul[i, j, t] action[t]."""
    a, p, d = m.algebra, m.p, m.algebra.dim
    if m.n == 0:
        return []
    flat = m.action.reshape(d, m.n * m.n)
    bad = []
    for i in range(d):
        lhs = np.matmul(m.action[i], m.action) % p
        rhs = (a.mul[i] @ flat % p).reshape(lhs.shape)
        bad.extend((i, j) for j in np.flatnonzero((lhs != rhs).any(axis=(1, 2))))
    report = [f"action of {a.basis_name(i)}*{a.basis_name(j)} is not the composite action" for i, j in bad[:32]]
    if len(bad) > 32:
        report.append(f"... and {len(bad) - 32} more action violations")
    if (m.act(a.one) != np.eye(m.n, dtype=np.int64)).any():
        report.append("identity element does not act as the identity matrix")
    return report


def test_check_module_matches_the_dense_oracle():
    rng = np.random.default_rng(11)
    seen_bad = seen_many = 0
    for a in gallery() + [matrix_algebra(3, 2), group_algebra(cyclic_group_table(6), 3)]:
        mods = [regular_module(a), zero_module(a)] + [pt.rep for pt in enumerate_irr(a).points]
        for m in list(mods):
            if m.n == 0:
                continue
            for _ in range(3):
                act = m.action.copy()
                i, r, c = (int(rng.integers(0, k)) for k in act.shape)
                act[i, r, c] = (act[i, r, c] + int(rng.integers(1, a.p))) % a.p
                mods.append(ModuleRep(a, m.n, act))
            mods.append(ModuleRep(a, m.n, 2 * m.action))
        for m in mods:
            got = check_module(m)
            assert got == check_module_oracle(m) == check_module_per_element_oracle(m), a.name
            seen_bad += bool(got)
            seen_many += any(line.startswith("...") for line in got)
    assert seen_bad and seen_many


@pytest.mark.parametrize("entries", [modules.CHECK_CHUNK_ENTRIES, 1, 40])
def test_check_module_blocks_match_the_per_element_oracle(monkeypatch, entries):
    """One basis element per block, a few per block, and all at once; at
    p = 2 and at the largest accepted prime, where each product entry is
    near 2**40."""
    monkeypatch.setattr(modules, "CHECK_CHUNK_ENTRIES", entries)
    big = max(q for q in range(PRIME_BOUND - 64, PRIME_BOUND) if is_prime(q))
    rng = np.random.default_rng(12)
    for a in [matrix_algebra(3, 2), upper_triangular(3, 2), truncated_polynomial(2, big), commutative_split(2, big)]:
        reg = regular_module(a)
        mods = [reg]
        for _ in range(4):
            act = reg.action.copy()
            act[tuple(int(rng.integers(0, k)) for k in act.shape)] += int(rng.integers(1, a.p))
            mods.append(ModuleRep(a, a.dim, act))
        for m in mods:
            assert check_module(m) == check_module_per_element_oracle(m), a.name
        assert check_module(reg) == [] and all(check_module(m) for m in mods[1:])


def test_ideal_generated_by_one_is_whole():
    a = ut2()
    assert ideal_generated(a, [a.one]).is_whole


def test_ideal_generated_empty_is_zero():
    assert ideal_generated(ut2(), []).is_zero


def test_ut2_ideal_of_e12_is_its_span():
    a = ut2()
    ideal = ideal_generated(a, [E12])
    assert ideal.dim == 1 and ideal.contains(E12)
    # Oracle: brute-force closure over every product with every element.
    for x in all_vectors(3, 2):
        for row in ideal.subspace.basis:
            assert ideal.contains(a.multiply(x, row))
            assert ideal.contains(a.multiply(row, x))


def test_quotient_by_zero_ideal_is_copy():
    a = ut2()
    q, proj = quotient_algebra(a, Ideal(a, Subspace.zero(3, 2), "two-sided"))
    assert q.dim == 3 and (q.mul == a.mul).all()
    assert (proj == np.eye(3, dtype=np.int64)).all()


def test_ut2_quotient_by_radical_is_split_product():
    a = ut2()
    ideal = ideal_generated(a, [E12])
    q, proj = quotient_algebra(a, ideal)
    want = commutative_split(2, 2)
    assert q.dim == 2 and (q.mul == want.mul).all() and (q.one == want.one).all()
    # The projection is an algebra map with kernel exactly the ideal.
    from irrtop.linalg import kernel

    assert kernel(proj, 2) == ideal.subspace
    for x in all_vectors(3, 2):
        for y in all_vectors(3, 2):
            lhs = (proj @ a.multiply(x, y)) % 2
            rhs = q.multiply((proj @ x) % 2, (proj @ y) % 2)
            assert (lhs == rhs).all()


def all_subspaces(n, p):
    from irrtop.linalg import projective_vectors

    vecs = list(projective_vectors(n, p))
    seen = {Subspace.zero(n, p)}
    frontier = [Subspace.zero(n, p)]
    while frontier:
        s = frontier.pop()
        for v in vecs:
            if not s.contains(v):
                t = s.add(Subspace.from_rows(np.array([v]), p, ambient=n))
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
    return seen


def test_m2_is_simple_brute_force():
    a = matrix_algebra(2, 2)
    ideals = [s for s in all_subspaces(4, 2) if is_ideal(a, s, "two-sided")]
    dims = sorted(s.dim for s in ideals)
    assert dims == [0, 4]
    with pytest.raises(ValueError):
        quotient_algebra(a, Ideal(a, Subspace.full(4, 2), "two-sided"))


def test_annihilator_of_regular_is_zero():
    for a in gallery()[:8]:
        assert annihilator(a, regular_module(a)).is_zero


def test_annihilator_of_zero_module_is_whole():
    a = ut2()
    assert annihilator(a, zero_module(a)).is_whole


def test_ut2_simple_annihilators():
    a = ut2()
    # One-dimensional modules a -> a_11 and a -> a_22.
    s1 = ModuleRep(a, 1, np.array([[[1]], [[0]], [[0]]], dtype=np.int64))
    s2 = ModuleRep(a, 1, np.array([[[0]], [[0]], [[1]]], dtype=np.int64))
    assert check_module(s1) == [] and check_module(s2) == []
    ann1 = annihilator(a, s1).subspace
    assert ann1 == Subspace.from_rows([E12, E22], 2)
    ann2 = annihilator(a, s2).subspace
    assert ann2 == Subspace.from_rows([E11, E12], 2)


def test_spin_examples():
    a = ut2()
    reg = regular_module(a)
    assert spin(reg, []).is_zero
    # Brute-force closure oracle for a couple of cyclic submodules.
    for start, want_dim in [(E11, 1), (E22, 2), (a.one, 3)]:
        s = spin(reg, [start])
        members = {tuple(int(t) for t in a.multiply(x, start)) for x in all_vectors(3, 2)}
        span = {tuple(v) for v in s.vectors()}
        assert span == members
        assert s.dim == want_dim


def test_spin_in_simple_module_is_full():
    a = matrix_algebra(2, 3)
    s = ModuleRep(a, 2, np.array([a.basis_vector(i).reshape(1, -1).reshape(2, 2) for i in range(4)]) * 0)
    # Build the defining 2-dim column module directly: action of e_rc moves
    # e_c to e_r.
    act = np.zeros((4, 2, 2), dtype=np.int64)
    for r in range(2):
        for c in range(2):
            act[r * 2 + c, r, c] = 1
    s = ModuleRep(a, 2, act)
    assert check_module(s) == []
    for v in [[1, 0], [0, 1], [1, 2]]:
        assert spin(s, [v]).is_full


def test_sub_quotient_trivial_cases():
    a = ut2()
    reg = regular_module(a)
    sub, quot = sub_quotient(reg, Subspace.zero(3, 2))
    assert sub.n == 0 and quot.n == 3
    sub, quot = sub_quotient(reg, Subspace.full(3, 2))
    assert sub.n == 3 and quot.n == 0


def test_sub_quotient_radical_of_ut2():
    a = ut2()
    reg = regular_module(a)
    rad = Subspace.from_rows([E12], 2)
    sub, quot = sub_quotient(reg, rad)
    assert sub.n == 1 and quot.n == 2
    assert check_module(sub) == [] and check_module(quot) == []


def test_sub_quotient_rejects_non_submodule():
    a = ut2()
    reg = regular_module(a)
    # A.e22 = span{e12, e22}, so span{e22} alone is not stable.
    with pytest.raises(ValueError):
        sub_quotient(reg, Subspace.from_rows([E22], 2))


def test_direct_sum_empty_is_zero_module():
    a = ut2()
    z = direct_sum(a, [])
    assert z.n == 0
    assert annihilator(a, z).is_whole


def test_direct_sum_singleton():
    a = ut2()
    reg = regular_module(a)
    d = direct_sum(a, [reg])
    assert d.n == reg.n and (d.action == reg.action).all()


def test_annihilator_of_sum_is_meet():
    rng = np.random.default_rng(3)
    for a in [ut2(), matrix_algebra(2, 2), truncated_polynomial(3, 2)]:
        reg = regular_module(a)
        rad_vecs = []
        mods = [reg]
        res = sub_quotient(reg, spin(reg, [reg.algebra.basis_vector(int(rng.integers(0, a.dim)))]))
        mods.extend([res[0], res[1]])
        mods = [m for m in mods if m.n]
        ds = direct_sum(a, mods)
        meet = Subspace.full(a.dim, a.p)
        for m in mods:
            meet = meet.intersect(annihilator(a, m).subspace)
        assert annihilator(a, ds).subspace == meet


def test_vector_annihilator_matches_module_annihilator_for_spanning_vector():
    a = ut2()
    reg = regular_module(a)
    assert vector_annihilator(reg, a.one).is_zero


def test_group_algebra_c2_radical_span():
    a = group_algebra(cyclic_group_table(2), 2)
    from irrtop.meataxe import jacobson_radical

    rad = jacobson_radical(a, 0)
    assert rad.dim == 1
    assert rad.subspace.contains([1, 1])  # 1 + g


def test_product_algebra_shapes():
    a = product_algebra([matrix_algebra(2, 2), upper_triangular(2, 2)])
    assert a.dim == 7
    assert validate_algebra(a) == []


def test_algebra_refuses_primes_that_overflow_the_product():
    p = max(q for q in range(PRIME_BOUND - 64, PRIME_BOUND) if is_prime(q))
    with pytest.raises(ValueError, match="2\\*\\*63"):
        Algebra(p, 3, np.zeros((3, 3, 3), dtype=np.int64), [1, 0, 0])
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        commutative_split(2, 4294967311)


def test_multiply_at_the_largest_accepted_prime_matches_python_integers():
    # dim 2 accepts every prime below the bound: 4 * (p - 1)**3 < 2**63.
    p = max(q for q in range(PRIME_BOUND - 64, PRIME_BOUND) if is_prime(q))
    rng = np.random.default_rng(3)
    mul = rng.integers(p - 3, p, size=(2, 2, 2))
    a = Algebra(p, 2, mul, [1, 0])
    for _ in range(10):
        x, y = rng.integers(p - 3, p, size=2), rng.integers(p - 3, p, size=2)
        want = [
            sum(int(x[i]) * int(y[j]) * int(mul[i, j, k]) for i in range(2) for j in range(2)) % p
            for k in range(2)
        ]
        assert a.multiply(x, y).tolist() == want
