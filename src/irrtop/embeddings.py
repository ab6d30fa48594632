"""Constructive embeddings of an algebra (or a quotient) into finite
products of modules, with full traces.

Two constructions are implemented. The staged construction clears an
expanding filtration of the algebra: at stage n it assembles, from fresh
factors, an element whose annihilator meets the span of the first n basis
vectors trivially; the last stage therefore certifies a zero annihilator.
The chain construction walks the factors once, intersecting element
annihilators along a strictly descending chain of left ideals until it
reaches zero. Both return a verified witness or an explicit obstruction.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, Ideal, quotient_algebra
from .linalg import Subspace, all_vectors, as_vector, kernel, ranks
from .meataxe import regular_length, semisimple_blocks
from .modules import ModuleRep, annihilator

__all__ = [
    "ProductFamily",
    "EmbeddingWitness",
    "ann_of_vector",
    "DeletionReport",
    "deletion_stability",
    "SearchOutcome",
    "find_embedding",
    "StagePick",
    "StageRecord",
    "StagedTrace",
    "staged_product_embedding",
    "ChainStep",
    "ChainTrace",
    "chain_product_embedding",
    "SufficiencyReport",
    "sufficiency_check",
]

EXHAUSTIVE_CAP = 4096
CANDIDATE_CAP = 256
SAMPLE_BUDGET = 64
# Most entries one rank test stacks at once: (candidate, row, column) in the
# witness scan, (candidate, basis element, coordinate) of the images b_i.y in
# the best-vector search.
RANK_CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ProductFamily:
    """An ordered finite family of modules over one algebra. Factors may
    repeat and need not be simple.

    ``known_annihilators`` holds, one entry per factor, the annihilator of
    each factor that its construction certifies (``docs.resolve_factors``)
    and None for the others; it may be left empty. The rest are computed on
    first use of ``annihilators``."""

    algebra: Algebra
    factors: tuple[ModuleRep, ...]
    known_annihilators: tuple[Subspace | None, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        if any(f.algebra is not self.algebra for f in self.factors):
            raise ValueError("all factors must live over the family's algebra")
        if self.known_annihilators and len(self.known_annihilators) != len(self.factors):
            raise ValueError("one known annihilator (or None) per factor required")

    def __len__(self) -> int:
        return len(self.factors)

    @property
    def total_dim(self) -> int:
        return sum(f.n for f in self.factors)

    def state_count(self) -> int:
        return self.algebra.p ** self.total_dim

    @functools.cached_property
    def annihilators(self) -> tuple[Subspace, ...]:
        """The annihilator of each factor: the known ones as given, the
        others with the ideal self-check (``annihilator``), once per
        distinct action."""
        by_action: dict[bytes, Subspace] = {}
        out = []
        for f, known in itertools.zip_longest(self.factors, self.known_annihilators):
            if known is None:
                key = f.action.tobytes()
                if key not in by_action:
                    by_action[key] = annihilator(self.algebra, f).subspace
                known = by_action[key]
            out.append(known)
        return tuple(out)

    def components(self, coords: np.ndarray) -> tuple[np.ndarray, ...]:
        """Elements of the product, given by their concatenated coordinates
        along the last axis, split there into one component per factor."""
        ends = np.cumsum([0] + [f.n for f in self.factors])
        return tuple(coords[..., i:j] for i, j in zip(ends, ends[1:]))


def _images(fam: ProductFamily, coords: np.ndarray) -> np.ndarray:
    """Images of elements of the product under the algebra basis, as a
    (count, total_dim, d) stack: column i of matrix k holds b_i applied to
    element k, factor by factor. coords holds the elements' concatenated
    coordinates, one row each."""
    a = fam.algebra
    parts = [np.einsum("irl,kl->kri", f.action, c) for f, c in zip(fam.factors, fam.components(coords))]
    if not parts:
        return np.zeros((len(coords), 0, a.dim), dtype=np.int64)
    return np.concatenate(parts, axis=1) % a.p


def ann_of_vector(fam: ProductFamily, components) -> Ideal:
    """Left annihilator of an element of the product, one component vector
    per factor: the kernel of the stacked images of the element under the
    algebra basis."""
    if len(components) != len(fam.factors):
        raise ValueError("one component per factor required")
    a = fam.algebra
    comps = [as_vector(v, a.p) for v in components]
    if any(len(c) != f.n for c, f in zip(comps, fam.factors)):
        raise ValueError("each component must have its factor's dimension")
    row = np.concatenate([np.zeros(0, dtype=np.int64), *comps])
    return Ideal(a, kernel(_images(fam, row[None])[0], a.p), "left")


def _meet_all(subspaces, d: int, p: int) -> Subspace:
    """Meet of subspaces of GF(p)^d, in RREF: one kernel of their stacked
    check matrices. The empty meet is the whole space; a meet with a zero
    subspace, such as the annihilator of a faithful factor, is zero without
    an elimination."""
    if any(s.is_zero for s in subspaces):
        return Subspace.zero(d, p)
    checks = [s.check_matrix() for s in subspaces]
    return kernel(np.vstack([np.zeros((0, d), dtype=np.int64)] + checks), p)


@dataclass(frozen=True)
class EmbeddingWitness:
    """Element x of the product with ann(x) equal to the target ideal; the
    cyclic module it generates is then a copy of the quotient by the
    target."""

    family: ProductFamily
    components: tuple
    ann: Ideal
    target: Ideal
    orbit_dim: int

    @property
    def valid(self) -> bool:
        return (
            self.ann.subspace == self.target.subspace
            and self.orbit_dim == self.family.algebra.dim - self.target.dim
        )


def _witness(fam: ProductFamily, components, target: Ideal, images: np.ndarray | None = None) -> EmbeddingWitness:
    """The witness of an element x of the product, with its orbit dimension
    from rank-nullity: every factor is unital (regular, simple and quotient
    factors by construction, explicit ones by ``check_module`` at load), so
    A.x is the span of the images b_i.x, the image of a -> a.x, whose
    kernel is ann(x). ``images`` is x's (total_dim, d) image matrix when
    the caller has it already."""
    a = fam.algebra
    comps = tuple(as_vector(v, a.p) for v in components)
    ann = ann_of_vector(fam, comps) if images is None else Ideal(a, kernel(images, a.p), "left")
    return EmbeddingWitness(fam, comps, ann, target, a.dim - ann.dim)


@dataclass(frozen=True)
class DeletionReport:
    """Annihilator stability of the product under deleting up to t factors.

    At finite index sets the literal cofinality requirement of the infinite
    theory is vacuous; the deletion budget t is this laboratory's finite
    stand-in and is labeled as such in reports.
    """

    ok: bool
    t: int
    target_dim: int
    checked: int
    failures: tuple  # (deleted index tuple, annihilator dim)


def deletion_stability(fam: ProductFamily, target: Ideal, t: int) -> DeletionReport:
    n = len(fam.factors)
    if 0 < n <= t:
        raise ValueError("deletion budget must be smaller than the factor count")
    depth = min(t, n)  # an empty family admits any budget and has nothing to delete
    if sum(math.comb(n, k) for k in range(depth + 1)) > EXHAUSTIVE_CAP:
        raise ValueError(f"deletion check capped at {EXHAUSTIVE_CAP} subfamilies")
    a = fam.algebra
    anns = fam.annihilators
    meets: dict[frozenset[Subspace], Subspace] = {}  # keyed on the distinct kept annihilators
    failures = []
    checked = 0
    idx = range(n)
    for k in range(depth + 1):
        for deleted in itertools.combinations(idx, k):
            kept = frozenset(anns[i] for i in idx if i not in deleted)
            sub = meets.get(kept)
            if sub is None:
                sub = meets[kept] = _meet_all(kept, a.dim, a.p)
            checked += 1
            if sub != target.subspace:
                failures.append((deleted, sub.dim))
    return DeletionReport(not failures, t, target.dim, checked, tuple(failures))


@dataclass(frozen=True)
class SearchOutcome:
    """'found' carries a witness; 'none' asserts nonexistence, either by
    theory (with the reason) or by an exhaustive scan; 'unknown' reports an
    exhausted sampling budget."""

    status: str
    witness: EmbeddingWitness | None
    tried: int
    reason: str = ""


def find_embedding(
    fam: ProductFamily, target: Ideal, seed: int = 0, budget: int = 5000
) -> SearchOutcome:
    """Search for an element of the product whose annihilator is exactly the
    target ideal.

    Every element x has ann(x) containing ann(product), so a target other
    than ann(product) is answered 'none' without a scan. Otherwise the
    candidates are every element when the product has at most 4096 of them,
    else `budget` seeded random draws; a candidate passes when ann(x) equals
    the target. Since A.x is isomorphic to A/ann(x), its orbit then has the
    right dimension d - dim ann(x).

    Once the scan starts the target is ann(product), which every ann(x)
    contains, so ann(x) equals it exactly when the images of x under the
    algebra basis have rank d - dim target. Candidates are ranked in chunks,
    in scan order, each chunk twice the one before up to RANK_CHUNK_ENTRIES
    stacked entries. An exhaustive scan decodes a chunk's state indices to
    coordinates in one step and starts at about RANK_CHUNK_ENTRIES // 16
    entries, so a witness in that first chunk costs one rank test. A sampled
    scan starts at one candidate, since every candidate costs its draws: it
    draws at most about twice the candidates it needs."""
    a = fam.algebra
    prod_ann = _meet_all(dict.fromkeys(fam.annihilators), a.dim, a.p)
    if not prod_ann.contains_space(target.subspace):
        raise ValueError("target ideal must annihilate the whole product")
    if prod_ann != target.subspace:
        return SearchOutcome("none", None, 0, "ann(product) strictly contains the target")
    exhaustive = fam.state_count() <= EXHAUSTIVE_CAP
    entries = max(1, fam.total_dim * a.dim)  # per candidate
    largest = max(1, RANK_CHUNK_ENTRIES // entries)
    if exhaustive:
        # itertools.product order over the factors, the first varying
        # slowest, and all_vectors order in each, the first coordinate
        # varying fastest: coordinate c of a factor that r coordinates
        # follow is the base-p digit of place p^(r + c) of the state index.
        place, rest = [], fam.total_dim
        for f in fam.factors:
            rest -= f.n
            place += [a.p ** (rest + c) for c in range(f.n)]
        place = np.array(place, dtype=np.int64)
        total, size = fam.state_count(), max(1, RANK_CHUNK_ENTRIES // 16 // entries)
    else:
        rng = np.random.default_rng(seed)
        total, size = budget, 1
    want = a.dim - target.dim
    start = 0
    while start < total:
        count = min(size, total - start)
        if exhaustive:
            coords = np.arange(start, start + count)[:, None] // place % a.p
        else:
            coords = np.array([
                np.concatenate([rng.integers(0, a.p, size=f.n) for f in fam.factors]) for _ in range(count)
            ])
        images = _images(fam, coords)
        hits = np.flatnonzero(ranks(images, a.p) == want)
        if hits.size:
            k = int(hits[0])
            w = _witness(fam, fam.components(coords[k]), target, images[k])
            if not w.valid:
                raise AssertionError("search witness has the rank of the target but another annihilator")
            return SearchOutcome("found", w, start + k + 1)
        start, size = start + count, min(2 * size, largest)
    return SearchOutcome("none" if exhaustive else "unknown", None, start)


@dataclass(frozen=True)
class StagePick:
    factor: int
    vector: tuple
    blocked_dim_after: int


@dataclass(frozen=True)
class StageRecord:
    stage: int
    start_dim: int
    picks: tuple[StagePick, ...]
    stalled: bool = False
    blocking_vector: tuple = ()


@dataclass(frozen=True)
class StagedTrace:
    stages: tuple[StageRecord, ...]
    outcome: str  # 'witness' | 'stall'
    note: str = ""


class _SeededDraws:
    """``np.random.default_rng(seed)``, made at its first use: scans over
    small factors draw nothing, and loading numpy.random costs a fresh
    process about 6 MB."""

    def __init__(self, seed: int):
        self._seed, self._rng = seed, None

    def __getattr__(self, name):
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
        return getattr(self._rng, name)


def _candidate_vectors(n: int, p: int, rng: np.random.Generator):
    if n == 0:
        return
    if p**n <= CANDIDATE_CAP:
        first = True
        for v in all_vectors(n, p):
            if first:
                first = False
                continue
            yield v
        return
    for c in range(n):
        e = np.zeros(n, dtype=np.int64)
        e[c] = 1
        yield e
    for _ in range(SAMPLE_BUDGET):
        v = rng.integers(0, p, size=n)
        if v.any():
            yield v


def _meet_matrices(f: ModuleRep, s: Subspace, ys: np.ndarray) -> np.ndarray:
    """Matrix k of the stack is the meet matrix of candidate ys[k]: row j is
    s's basis vector w_j acting on y. For a basis W of s,
    s & ann(y) = {cW : c.(W.Y) = 0}, row i of Y being b_i.y."""
    images = np.moveaxis((f.action @ ys.T) % f.p, 2, 0)  # (k, d, n): b_i.y_k
    return (s.basis @ images) % f.p


def _meet(f: ModuleRep, s: Subspace, y) -> Subspace:
    """s & ann(y), from the kernel of the meet matrix."""
    coeffs = kernel(_meet_matrices(f, s, y.reshape(1, -1))[0].T, f.p)
    return Subspace.from_rows((coeffs.basis @ s.basis) % f.p, f.p, ambient=s.ambient)


def _best_vector(f: ModuleRep, mat: np.ndarray, running: Subspace, rng, slab: Subspace | None = None):
    """Among the candidate vectors y of f moved by mat, the first that
    minimizes dim(running & ann(y)), measured inside slab when given; the
    scan stops early at dimension 0. Returns (measured, y, running & ann(y)),
    or None when mat moves no candidate.

    With W = running & slab (or running), the measured dimension is
    dim W - rank(W.Y). Candidates are pulled in chunks of 1, 2, 4, ... (up
    to RANK_CHUNK_ENTRIES entries of the stacked images b_i.y), and each
    chunk is scored by one ``ranks`` call; only the winner's meets are
    built. When the candidates are sampled, the generator state is saved
    after every pulled candidate, and an early stop restores the state after
    the stopping one, so the draws are those of a scan that pulls one
    candidate at a time."""
    w = running if slab is None else _meet_all((running, slab), running.ambient, running.p)
    largest = max(1, RANK_CHUNK_ENTRIES // max(1, f.algebra.dim * f.n))
    cands = _candidate_vectors(f.n, f.p, rng)
    sampled = f.p**f.n > CANDIDATE_CAP
    best, size, stop = None, 1, False
    while not stop:
        ys, states = [], []
        for y in itertools.islice(cands, size):
            ys.append(y)
            states.append(rng.bit_generator.state if sampled else None)
        if not ys:
            break
        ys = np.array(ys, dtype=np.int64)
        moved = np.flatnonzero(((ys @ mat.T) % f.p).any(axis=1))
        dims = w.dim - ranks(_meet_matrices(f, w, ys[moved]), f.p)
        for k, dim in zip(moved, dims):
            if best is None or dim < best[0]:
                best = (int(dim), ys[k])
            if dim == 0:
                if sampled:
                    rng.bit_generator.state = states[k]
                stop = True
                break
        size = min(2 * size, largest)
    if best is None:
        return None
    y = best[1]
    meet = _meet(f, running, y)
    return (meet if slab is None else _meet(f, w, y)), y, meet


def staged_product_embedding(
    fam: ProductFamily,
    target: Ideal | None = None,
    basis_order: tuple[int, ...] | None = None,
    seed: int = 0,
) -> tuple[EmbeddingWitness | None, StagedTrace]:
    """Stage-by-stage construction of a product element with the target
    annihilator.

    A nonzero target first passes to the quotient algebra, over which the
    goal becomes a zero annihilator. Stage n works inside the span of the
    first n basis vectors (in the requested order): it repeatedly takes the
    first reduced basis vector v of the current blocked subspace, scans the
    unused factors in order for one on which v acts nontrivially, and picks
    a vector there that shrinks the blocked subspace the most. A stage with
    a blocking v that no unused factor can see stalls the construction;
    the trace records it.
    """
    a = fam.algebra
    rng = _SeededDraws(seed)
    if target is None:
        target = Ideal(a, Subspace.zero(a.dim, a.p), "two-sided")
    if target.is_zero:
        work_alg = a
        work_factors = list(fam.factors)
    else:
        qa, proj = quotient_algebra(a, target)
        comp = target.subspace.complement_columns()
        work_factors = []
        for f in fam.factors:
            for row in target.subspace.basis:
                if f.act(row).any():
                    raise ValueError("target ideal does not annihilate every factor")
            qact = np.stack([f.act(a.basis_vector(c)) for c in comp]) if f.n else np.zeros((qa.dim, 0, 0), dtype=np.int64)
            work_factors.append(ModuleRep(qa, f.n, qact, label=f.label))
        work_alg = qa
    d = work_alg.dim
    order = tuple(basis_order) if basis_order is not None else tuple(range(d))
    if sorted(order) != list(range(d)):
        raise ValueError("basis order must be a permutation of the working basis indices")
    used = [False] * len(work_factors)
    chosen: dict[int, np.ndarray] = {}
    records: list[StageRecord] = []
    eye = np.eye(d, dtype=np.int64)
    for stage in range(1, d + 1):
        slab = Subspace.from_rows(eye[list(order[:stage])], work_alg.p, ambient=d)
        accum = Subspace.full(d, work_alg.p)
        blocked = slab
        picks: list[StagePick] = []
        while blocked.dim > 0:
            v = blocked.basis[0]
            pick = None
            for idx, f in enumerate(work_factors):
                if used[idx] or f.n == 0:
                    continue
                mat = f.act(v)
                if not mat.any():
                    continue
                best = _best_vector(f, mat, accum, rng, slab)
                if best is not None:
                    pick = (idx, best)
                    break
            if pick is None:
                records.append(
                    StageRecord(stage, slab.dim, tuple(picks), stalled=True, blocking_vector=tuple(int(t) for t in v))
                )
                trace = StagedTrace(tuple(records), "stall", note=f"stage {stage} blocked")
                return None, trace
            idx, (new_blocked, y, accum) = pick
            if new_blocked.dim >= blocked.dim:
                raise AssertionError("stage made no progress on the blocked subspace")
            used[idx] = True
            chosen[idx] = y
            blocked = new_blocked
            picks.append(StagePick(idx, tuple(int(t) for t in y), blocked.dim))
        records.append(StageRecord(stage, slab.dim, tuple(picks)))
    comps = [
        chosen.get(i, np.zeros(f.n, dtype=np.int64)) for i, f in enumerate(fam.factors)
    ]
    witness = _witness(fam, comps, target)
    if not witness.valid:
        raise AssertionError("staged construction produced an invalid witness")
    return witness, StagedTrace(tuple(records), "witness")


@dataclass(frozen=True)
class ChainStep:
    factor: int
    accepted: bool
    driver: tuple  # the nonzero left-ideal element steering the step
    vector: tuple = ()
    l_dim_after: int = 0


@dataclass(frozen=True)
class ChainTrace:
    steps: tuple[ChainStep, ...]
    outcome: str  # 'witness' | 'failure'
    final_l_dim: int
    final_l: Subspace | None = None


def chain_product_embedding(fam: ProductFamily, seed: int = 0) -> tuple[EmbeddingWitness | None, ChainTrace]:
    """Walk the factors once, shrinking the running left ideal of common
    annihilators until it hits zero.

    At each factor, take the first reduced basis vector r of the running
    intersection; if the factor sees r (r acts nonzero on it), pick a vector
    there moved by r whose annihilator shrinks the running ideal the most.
    Factors blind to r are skipped and recorded. Success means the running
    ideal reached zero, so the accumulated components have zero annihilator.
    """
    a = fam.algebra
    rng = _SeededDraws(seed)
    kill = Subspace.full(a.dim, a.p)
    steps: list[ChainStep] = []
    comps = [np.zeros(f.n, dtype=np.int64) for f in fam.factors]
    for idx, f in enumerate(fam.factors):
        if kill.dim == 0:
            break
        r = kill.basis[0]
        mat = f.act(r) if f.n else np.zeros((0, 0), dtype=np.int64)
        if not mat.any():
            steps.append(ChainStep(idx, False, tuple(int(t) for t in r), l_dim_after=kill.dim))
            continue
        new_kill, y, _ = _best_vector(f, mat, kill, rng)
        if new_kill.dim >= kill.dim:
            raise AssertionError("accepted chain step failed to shrink the running ideal")
        comps[idx] = y
        kill = new_kill
        steps.append(ChainStep(idx, True, tuple(int(t) for t in r), tuple(int(t) for t in y), kill.dim))
    if kill.dim == 0:
        target = Ideal(a, Subspace.zero(a.dim, a.p), "two-sided")
        witness = _witness(fam, comps, target)
        if not witness.valid:
            raise AssertionError("chain construction produced an invalid witness")
        return witness, ChainTrace(tuple(steps), "witness", 0, kill)
    return None, ChainTrace(tuple(steps), "failure", kill.dim, kill)


@dataclass(frozen=True)
class SufficiencyReport:
    faithful_count: int
    bound: int
    guaranteed: bool
    algebra_simple: bool
    note: str


def sufficiency_check(a: Algebra, fam: ProductFamily) -> SufficiencyReport:
    """Compare the number of faithful factors against the descent bound of
    the regular module; at or above the bound the chain construction cannot
    run out of useful factors.

    No module is split: the bound is the regular module's length from its
    Loewy layers plus two, and the algebra is simple iff its radical is zero
    and A/J has one block, both read off the same blocks of A/J
    (``semisimple_blocks``)."""
    faithful = sum(1 for s in fam.annihilators if s.is_zero)
    blocks = semisimple_blocks(a)
    bound = regular_length(a, blocks) + 2
    simple = blocks.radical.is_zero and len(blocks.classes) == 1
    note = ""
    if simple:
        note = "simple algebra: every nonzero module is faithful"
    return SufficiencyReport(faithful, bound, faithful >= bound, simple, note)
