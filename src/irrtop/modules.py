"""Left modules over a structure-constant algebra, given as one action
matrix per algebra basis element (acting on coordinate columns)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, Ideal, is_ideal
from .linalg import Subspace, as_vector, kernel

__all__ = [
    "ModuleRep",
    "check_module",
    "regular_module",
    "zero_module",
    "annihilator",
    "annihilator_subspace",
    "vector_annihilator",
    "spin",
    "spin_matrices",
    "sub_quotient",
    "direct_sum",
]


@dataclass(frozen=True)
class ModuleRep:
    algebra: Algebra
    n: int
    action: np.ndarray = field(repr=False)  # (d, n, n)
    label: str = ""

    def __post_init__(self):
        act = np.asarray(self.action, dtype=np.int64) % self.algebra.p
        if act.shape != (self.algebra.dim, self.n, self.n):
            raise ValueError("action must be one n-by-n matrix per algebra basis element")
        act.setflags(write=False)
        object.__setattr__(self, "action", act)

    @property
    def p(self) -> int:
        return self.algebra.p

    def act(self, x) -> np.ndarray:
        """Matrix of the algebra element with coordinates x."""
        x = as_vector(x, self.p)
        return np.einsum("i,ikl->kl", x, self.action) % self.p

    def apply(self, x, v) -> np.ndarray:
        return (self.act(x) @ as_vector(v, self.p)) % self.p

    def relabel(self, label: str) -> "ModuleRep":
        return ModuleRep(self.algebra, self.n, self.action, label)


def check_module(m: ModuleRep) -> list[str]:
    """Module-axiom report: action respects the structure constants and the
    identity acts as the identity matrix. Empty iff valid."""
    a, p = m.algebra, m.p
    report: list[str] = []
    if m.n == 0:
        return report
    lhs = np.einsum("ikl,jlm->ijkm", m.action, m.action) % p
    rhs = np.einsum("ijt,tkm->ijkm", a.mul, m.action) % p
    bad = np.argwhere((lhs != rhs).any(axis=(2, 3)))
    for i, j in bad[:32]:
        report.append(f"action of {a.basis_name(i)}*{a.basis_name(j)} is not the composite action")
    if len(bad) > 32:
        report.append(f"... and {len(bad) - 32} more action violations")
    if (m.act(a.one) != np.eye(m.n, dtype=np.int64)).any():
        report.append("identity element does not act as the identity matrix")
    return report


def regular_module(a: Algebra) -> ModuleRep:
    """The algebra acting on itself by left multiplication."""
    action = np.transpose(a.mul, (0, 2, 1))
    return ModuleRep(a, a.dim, action, label="regular")


def zero_module(a: Algebra) -> ModuleRep:
    return ModuleRep(a, 0, np.zeros((a.dim, 0, 0), dtype=np.int64), label="zero")


def annihilator_subspace(m: ModuleRep) -> Subspace:
    """Algebra elements acting as zero on m, in RREF: the kernel of the
    stacked action. Unchecked; ``annihilator`` adds the ideal self-check."""
    return kernel(m.action.reshape(m.algebra.dim, m.n * m.n).T, m.p)


def annihilator(a: Algebra, m: ModuleRep) -> Ideal:
    """Two-sided ideal of algebra elements acting as zero on m."""
    sub = annihilator_subspace(m)
    # Annihilators of modules are two-sided; check closure as a self-check.
    if not is_ideal(a, sub, "two-sided"):
        raise AssertionError("module annihilator failed two-sided closure")
    return Ideal(a, sub, "two-sided")


def vector_annihilator(m: ModuleRep, v) -> Subspace:
    """Left-ideal subspace {a : a.v = 0} for a single module vector."""
    v = as_vector(v, m.p)
    if m.n == 0:
        return Subspace.full(m.algebra.dim, m.p)
    cols = (m.action @ v) % m.p  # (d, n): row i is action[i] @ v
    return kernel(cols.T, m.p)


def spin_matrices(mats, vecs, p: int, ambient: int) -> Subspace:
    """Least subspace containing vecs stable under the given matrices."""
    mats = np.asarray(mats, dtype=np.int64).reshape(len(mats), ambient, ambient)
    rows = np.zeros((ambient, ambient), dtype=np.int64)  # reduced rows in the order found
    pivots: list[int] = []
    work = [as_vector(v, p) for v in vecs]
    while work:
        v = work.pop()
        k = len(pivots)
        r = (v - v[pivots] @ rows[:k]) % p
        if not r.any():
            continue
        c = int(r.nonzero()[0][0])
        r = (r * pow(int(r[c]), p - 2, p)) % p
        # Clear column c from the earlier rows, so pivot columns stay unit columns.
        rows[:k] = (rows[:k] - np.outer(rows[:k, c], r)) % p
        rows[k] = r
        pivots.append(c)
        # Queue only the images that the rows found so far do not span.
        images = (mats @ r) % p
        images = (images - images[:, pivots] @ rows[: k + 1]) % p
        work.extend(images[images.any(axis=1)])
    order = np.argsort(pivots)  # sorting the reduced rows by pivot gives the RREF
    return Subspace(p, ambient, rows[order], tuple(pivots[i] for i in order))


def spin(m: ModuleRep, vecs) -> Subspace:
    """Submodule generated by the given vectors."""
    return spin_matrices(m.action, vecs, m.p, m.n)


def _images(m: ModuleRep, rows: np.ndarray) -> np.ndarray:
    """(d, k, n) stack: entry [i, j] is action[i] applied to rows[j]."""
    return (rows @ np.transpose(m.action, (0, 2, 1))) % m.p


def is_submodule(m: ModuleRep, s: Subspace) -> bool:
    return not s.reduce(_images(m, s.basis)).any()


def sub_quotient(m: ModuleRep, s: Subspace) -> tuple[ModuleRep, ModuleRep]:
    """Restricted action on the submodule s and induced action on m/s."""
    if s.ambient != m.n:
        raise ValueError("submodule must live in the module's coordinate space")
    if not is_submodule(m, s):
        raise ValueError("subspace is not stable under the action")
    piv, comp = list(s.pivots), list(s.complement_columns())
    # Coordinates of the images of the basis rows, as columns.
    sub_act = np.transpose(_images(m, s.basis)[:, :, piv], (0, 2, 1))
    # Images of the complement's unit vectors (action columns), reduced modulo s.
    images = np.transpose(m.action[:, :, comp], (0, 2, 1))
    quot_act = np.transpose(s.reduce(images)[:, :, comp], (0, 2, 1))
    sub = ModuleRep(m.algebra, len(piv), sub_act, label=f"{m.label}|sub" if m.label else "sub")
    quot = ModuleRep(m.algebra, len(comp), quot_act, label=f"{m.label}|quot" if m.label else "quot")
    return sub, quot


def direct_sum(a: Algebra, ms: list[ModuleRep]) -> ModuleRep:
    """Block-diagonal sum; the empty sum is the zero module."""
    if any(mm.algebra is not a for mm in ms):
        raise ValueError("direct sum requires modules over the given algebra")
    total = sum(mm.n for mm in ms)
    action = np.zeros((a.dim, total, total), dtype=np.int64)
    off = 0
    for mm in ms:
        action[:, off : off + mm.n, off : off + mm.n] = mm.action
        off += mm.n
    return ModuleRep(a, total, action, label="(+)".join(mm.label or "?" for mm in ms))
