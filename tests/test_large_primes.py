"""The gallery presets rebuilt at large primes, through the command line:
`irr`, `radical` and `chain-bound` exit 0 at seeds 0-9 wherever the input
boundary accepts the algebra, and their answers agree with theory. Every
prime here exceeds 3, so the group algebras are semisimple."""

import re

import pytest

from irrtop.cli import run
from irrtop.linalg import PRIME_BOUND, is_prime

LARGEST_PRIME = max(q for q in range(PRIME_BOUND - 64, PRIME_BOUND) if is_prime(q))
PRIMES = (53, 101, 1009, LARGEST_PRIME)
SEEDS = range(10)


def cyclic_classes(n, p):
    """GF(p)[C_n] for p not dividing n: one field per cyclotomic coset of p
    modulo n, of degree the coset size."""
    seen, sizes = set(), []
    for r in range(n):
        if r not in seen:
            orbit, x = {r}, r * p % n
            while x not in orbit:
                orbit.add(x)
                x = x * p % n
            seen |= orbit
            sizes.append(len(orbit))
    return [(s, s) for s in sizes]


# name -> (dimension, classes as (dim S, dim End S), radical dimension,
# composition length of the regular module), each a function of p.
THEORY = {
    "matrix_algebra(1, {p})": lambda p: (1, [(1, 1)], 0, 1),
    "matrix_algebra(2, {p})": lambda p: (4, [(2, 1)], 0, 2),
    "upper_triangular(2, {p})": lambda p: (3, [(1, 1)] * 2, 1, 3),
    "upper_triangular(3, {p})": lambda p: (6, [(1, 1)] * 3, 3, 6),
    "truncated_polynomial(2, {p})": lambda p: (2, [(1, 1)], 1, 2),
    "truncated_polynomial(3, {p})": lambda p: (3, [(1, 1)], 2, 3),
    "commutative_split(3, {p})": lambda p: (3, [(1, 1)] * 3, 0, 3),
    "group_algebra(C2, {p})": lambda p: (2, cyclic_classes(2, p), 0, len(cyclic_classes(2, p))),
    "group_algebra(C3, {p})": lambda p: (3, cyclic_classes(3, p), 0, len(cyclic_classes(3, p))),
    "group_algebra(C4, {p})": lambda p: (4, cyclic_classes(4, p), 0, len(cyclic_classes(4, p))),
    "group_algebra(S3, {p})": lambda p: (6, [(1, 1), (1, 1), (2, 1)], 0, 4),
    "product(matrix_algebra(2, {p}), upper_triangular(2, {p}))": lambda p: (7, [(2, 1), (1, 1), (1, 1)], 1, 5),
}


def accepted(d, p):
    return d * d * (p - 1) ** 3 < 2**63


def cases():
    for p in PRIMES:
        for expr, theory in THEORY.items():
            yield pytest.param(expr.format(p=p), p, theory(p), id=expr.format(p=p).replace(" ", ""))


def field(out, name):
    return [int(v) for v in re.findall(rf"^\s*{name}: (\d+)$", out, re.M)]


@pytest.mark.parametrize("expr, p, theory", list(cases()))
def test_gallery_preset_at_a_large_prime(tmp_path, expr, p, theory):
    d, classes, radical_dim, length = theory
    alg = tmp_path / "a.alg"
    alg.write_text(f"preset: {expr}\n")
    if not accepted(d, p):
        code, out = run(["irr", "--in", str(alg)])
        assert code == 1 and out.startswith(f"error: modulus {p} too large for dimension")
        return
    want_pairs = sorted((s, d - s * s // e) for s, e in classes)
    for seed in SEEDS:
        common = ["--in", str(alg), "--seed", str(seed), "--format", "structured"]
        code, out = run(["irr"] + common)
        assert code == 0, out
        assert field(out, "count") == [len(classes)]
        assert sorted(zip(field(out, "dim"), field(out, "ann_dim"))) == want_pairs
        code, out = run(["radical"] + common)
        assert code == 0, out
        assert field(out, "radical_dim") == [radical_dim]
        code, out = run(["chain-bound"] + common)
        assert code == 0, out
        assert (field(out, "module_dim"), field(out, "length"), field(out, "bound")) == ([d], [length], [length + 2])


@pytest.mark.parametrize(
    "expr, count, radical_dim",
    [
        (f"commutative_split(2, {LARGEST_PRIME})", 2, 0),
        (f"truncated_polynomial(2, {LARGEST_PRIME})", 1, 1),
        ("matrix_algebra(3, 101)", 1, 0),
    ],
)
def test_irr_and_radical_where_sampling_alone_failed(tmp_path, expr, count, radical_dim):
    # Each of these exited 1 with "no singular algebra element with a small
    # kernel found in 64 tries" before the Holt-Rees test.
    alg = tmp_path / "a.alg"
    alg.write_text(f"preset: {expr}\n")
    code, out = run(["irr", "--in", str(alg), "--format", "structured"])
    assert code == 0 and field(out, "count") == [count]
    code, out = run(["radical", "--in", str(alg), "--format", "structured"])
    assert code == 0 and field(out, "radical_dim") == [radical_dim]
