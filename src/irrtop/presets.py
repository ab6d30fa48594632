"""Preset algebra gallery: matrix algebras, upper triangular algebras,
truncated polynomial rings, group algebras, split commutative products, and
direct products of presets."""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, check_dim, product_algebra
from .linalg import validate_prime

__all__ = [
    "preset",
    "PresetArgumentError",
    "matrix_algebra",
    "upper_triangular",
    "truncated_polynomial",
    "commutative_split",
    "group_algebra",
    "cyclic_group_table",
    "symmetric3_table",
    "PRESET_NAMES",
    "gallery",
]

PRESET_NAMES = (
    "matrix_algebra",
    "upper_triangular",
    "truncated_polynomial",
    "commutative_split",
    "group_algebra",
    "product",
)


def matrix_algebra(n: int, p: int) -> Algebra:
    """Full n-by-n matrix algebra; basis e_rc in row-major order."""
    validate_prime(p)
    if n < 1:
        raise ValueError("matrix algebra needs n >= 1")
    d = check_dim(n * n)
    idx = {(r, c): r * n + c for r in range(n) for c in range(n)}
    lam = np.zeros((d, d, d), dtype=np.int64)
    for (r, c), i in idx.items():
        for (s, t), j in idx.items():
            if c == s:
                lam[i, j, idx[(r, t)]] = 1
    one = np.zeros(d, dtype=np.int64)
    for r in range(n):
        one[idx[(r, r)]] = 1
    names = tuple(f"e{r + 1}{c + 1}" for r in range(n) for c in range(n))
    return Algebra(p, d, lam, one, name=f"matrix_algebra({n},{p})", basis_names=names)


def upper_triangular(n: int, p: int) -> Algebra:
    """Upper triangular n-by-n matrices; basis e_rc for r <= c."""
    validate_prime(p)
    if n < 1:
        raise ValueError("upper triangular algebra needs n >= 1")
    check_dim(n * (n + 1) // 2)
    pairs = [(r, c) for r in range(n) for c in range(r, n)]
    idx = {rc: i for i, rc in enumerate(pairs)}
    d = len(pairs)
    lam = np.zeros((d, d, d), dtype=np.int64)
    for (r, c), i in idx.items():
        for (s, t), j in idx.items():
            if c == s:
                lam[i, j, idx[(r, t)]] = 1
    one = np.zeros(d, dtype=np.int64)
    for r in range(n):
        one[idx[(r, r)]] = 1
    names = tuple(f"e{r + 1}{c + 1}" for r, c in pairs)
    return Algebra(p, d, lam, one, name=f"upper_triangular({n},{p})", basis_names=names)


def truncated_polynomial(m: int, p: int) -> Algebra:
    """k[x]/(x^m); basis 1, x, ..., x^(m-1)."""
    validate_prime(p)
    if m < 1:
        raise ValueError("truncated polynomial algebra needs m >= 1")
    check_dim(m)
    lam = np.zeros((m, m, m), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            if i + j < m:
                lam[i, j, i + j] = 1
    one = np.zeros(m, dtype=np.int64)
    one[0] = 1
    names = ("1",) + tuple(f"x^{k}" if k > 1 else "x" for k in range(1, m))
    return Algebra(p, m, lam, one, name=f"truncated_polynomial({m},{p})", basis_names=names)


def commutative_split(k: int, p: int) -> Algebra:
    """F_p x ... x F_p with k factors (componentwise multiplication)."""
    validate_prime(p)
    if k < 1:
        raise ValueError("split commutative algebra needs k >= 1")
    check_dim(k)
    lam = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        lam[i, i, i] = 1
    one = np.ones(k, dtype=np.int64)
    names = tuple(f"u{i}" for i in range(k))
    return Algebra(p, k, lam, one, name=f"commutative_split({k},{p})", basis_names=names)


def cyclic_group_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric3_table() -> list[list[int]]:
    """Multiplication table of the symmetric group on 3 letters."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {q: i for i, q in enumerate(perms)}
    table = []
    for g in perms:
        row = []
        for h in perms:
            comp = tuple(g[h[i]] for i in range(3))
            row.append(index[comp])
        table.append(row)
    return table


def group_algebra(table: list[list[int]], p: int, name: str = "") -> Algebra:
    """Group algebra from a multiplication table table[i][j] = index of g_i g_j."""
    validate_prime(p)
    n = check_dim(len(table))
    if any(len(row) != n for row in table):
        raise ValueError("group table must be square")
    lam = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            k = table[i][j]
            if not 0 <= k < n:
                raise ValueError("group table entry out of range")
            lam[i, j, k] = 1
    identity = None
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            identity = e
            break
    if identity is None:
        raise ValueError("group table has no identity element")
    one = np.zeros(n, dtype=np.int64)
    one[identity] = 1
    names = tuple(f"g{i}" for i in range(n))
    return Algebra(p, n, lam, one, name=name or f"group_algebra(?,{p})", basis_names=names)


def _named_group_table(gname: str) -> list[list[int]]:
    g = gname.strip()
    if g.upper().startswith("C") and g[1:].isdigit():
        n = int(g[1:])
        if n < 1:
            raise ValueError(f"bad cyclic group order in {gname!r}")
        return cyclic_group_table(check_dim(n))
    if g.upper() == "S3":
        return symmetric3_table()
    raise ValueError(f"unknown group name {gname!r} (expected Cn or S3)")


class PresetArgumentError(ValueError):
    """A preset called with the wrong number or kinds of arguments."""


def _group_algebra_preset(gname: str, p: int) -> Algebra:
    return group_algebra(_named_group_table(gname), p, name=f"group_algebra({gname},{p})")


# Each preset's argument kinds (an integer, a group name) and constructor;
# ``product`` takes one or more algebras, so its kinds are None.
_PRESETS = {
    "matrix_algebra": ((int, int), matrix_algebra),
    "upper_triangular": ((int, int), upper_triangular),
    "truncated_polynomial": ((int, int), truncated_polynomial),
    "commutative_split": ((int, int), commutative_split),
    "group_algebra": ((str, int), _group_algebra_preset),
    "product": (None, lambda *parts: product_algebra(list(parts))),
}
_KIND_NAMES = {int: "integer", str: "name", Algebra: "algebra"}


def _kind(value) -> type | None:
    return next((k for k in (int, str, Algebra) if isinstance(value, k)), None)


def preset(name: str, params: tuple) -> Algebra:
    """Named preset constructor. Raises PresetArgumentError when the
    arguments do not match the preset's kinds (``_PRESETS``) and ValueError
    on unknown names or refused values."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    kinds, build = _PRESETS[name]
    got = tuple(_kind(q) for q in params)
    if got != (kinds or (Algebra,) * max(1, len(params))):
        expected = ", ".join(_KIND_NAMES[k] for k in kinds) if kinds else "one or more algebra"
        given = ", ".join(_KIND_NAMES.get(k, "other") for k in got)
        raise PresetArgumentError(f"{name} expects ({expected}) arguments, got ({given})")
    return build(*params)


def gallery() -> list[Algebra]:
    """The standard test corpus of preset algebras."""
    return [
        matrix_algebra(1, 2),
        matrix_algebra(1, 5),
        matrix_algebra(2, 2),
        matrix_algebra(2, 3),
        upper_triangular(2, 2),
        upper_triangular(2, 3),
        upper_triangular(3, 2),
        truncated_polynomial(3, 2),
        truncated_polynomial(2, 5),
        commutative_split(3, 2),
        group_algebra(cyclic_group_table(2), 2, name="group_algebra(C2,2)"),
        group_algebra(cyclic_group_table(3), 2, name="group_algebra(C3,2)"),
        group_algebra(cyclic_group_table(4), 2, name="group_algebra(C4,2)"),
        group_algebra(symmetric3_table(), 3, name="group_algebra(S3,3)"),
        product_algebra([matrix_algebra(2, 2), upper_triangular(2, 2)], name="M2xUT2"),
    ]
