"""Seeded sessions of irrtop commands, one per workload.

A session is the list of commands one researcher would type in a row. The
workload seed picks point selections, ideal generators, factor orders, the
command order and each command's ``--seed``; the number of commands of each
kind and the size of every input are fixed, so sessions cost about the same
at every seed.

Each command carries the facts theory predicts for its output (``facts``);
``checks.py`` compares the program's output against those facts only, never
against a stored output of the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb

# --- what theory says about each preset --------------------------------------


@dataclass(frozen=True)
class PresetFacts:
    """Invariants of a preset algebra that follow from its definition.

    ``classes`` holds one (dim S, dim End S) pair per simple class; the
    annihilator of S then has dimension dim A - (dim S)^2 / dim End S.
    ``length`` is the composition length of the regular module.
    """

    expr: str
    p: int
    dim: int
    classes: tuple[tuple[int, int], ...]
    radical_dim: int
    nilpotency: int
    length: int

    @property
    def class_dims(self) -> list[int]:
        return sorted(d for d, _ in self.classes)

    @property
    def ann_dims(self) -> list[tuple[int, int]]:
        return sorted((d, self.dim - d * d // e) for d, e in self.classes)


def matrix_algebra(n: int, p: int) -> PresetFacts:
    return PresetFacts(f"matrix_algebra({n}, {p})", p, n * n, ((n, 1),), 0, 1, n)


def upper_triangular(n: int, p: int) -> PresetFacts:
    return PresetFacts(
        f"upper_triangular({n}, {p})", p, n * (n + 1) // 2, ((1, 1),) * n, n * (n - 1) // 2, n, n * (n + 1) // 2
    )


def truncated_polynomial(m: int, p: int) -> PresetFacts:
    return PresetFacts(f"truncated_polynomial({m}, {p})", p, m, ((1, 1),), m - 1, m, m)


def commutative_split(k: int, p: int) -> PresetFacts:
    return PresetFacts(f"commutative_split({k}, {p})", p, k, ((1, 1),) * k, 0, 1, k)


def cyclic_group_algebra(n: int, p: int) -> PresetFacts:
    """GF(p)[C_n] = GF(p)[x]/(x^m - 1)^(p^a) with n = p^a m and p not dividing
    m. The simple classes are the irreducible factors of x^m - 1, one per
    cyclotomic coset of p modulo m, each a field of degree the coset size."""
    q, m = 1, n
    while m % p == 0:
        q, m = q * p, m // p
    seen: set[int] = set()
    sizes = []
    for r in range(m):
        if r in seen:
            continue
        orbit = {r}
        x = r * p % m
        while x not in orbit:
            orbit.add(x)
            x = x * p % m
        seen |= orbit
        sizes.append(len(orbit))
    classes = tuple((s, s) for s in sizes)
    return PresetFacts(f"group_algebra(C{n}, {p})", p, n, classes, n - m, q, q * len(classes))


def s3_group_algebra(p: int) -> PresetFacts:
    """GF(p)[S3]: at p = 2 the blocks are GF(2)[C2] and M_2(GF(2)); at p = 3
    the two linear characters remain and the projectives are uniserial of
    length 3; for p > 3 it is semisimple, GF(p) x GF(p) x M_2(GF(p))."""
    if p == 2:
        return PresetFacts("group_algebra(S3, 2)", 2, 6, ((1, 1), (2, 1)), 1, 2, 4)
    if p == 3:
        return PresetFacts("group_algebra(S3, 3)", 3, 6, ((1, 1), (1, 1)), 4, 3, 6)
    return PresetFacts(f"group_algebra(S3, {p})", p, 6, ((1, 1), (1, 1), (2, 1)), 0, 1, 4)


def product(parts: list[PresetFacts]) -> PresetFacts:
    return PresetFacts(
        "product(" + ", ".join(q.expr for q in parts) + ")",
        parts[0].p,
        sum(q.dim for q in parts),
        tuple(c for q in parts for c in q.classes),
        sum(q.radical_dim for q in parts),
        max(q.nilpotency for q in parts),
        sum(q.length for q in parts),
    )


# --- sessions ----------------------------------------------------------------

RERUNS = 5  # commands per session re-run later in the same pass


@dataclass
class Command:
    """One command line. ``check`` names the checker in ``checks.py``;
    ``rerun_of`` is the index of an earlier command whose output this one
    must reproduce byte for byte."""

    argv: list[str]
    check: str
    facts: dict = field(default_factory=dict)
    rerun_of: int | None = None


@dataclass
class Session:
    files: dict[str, str]  # input file name -> contents
    commands: list[Command]


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 10**6))


def _subset(rng: random.Random, n: int, k: int) -> list[int]:
    return sorted(rng.sample(range(n), k))


def _finish(rng: random.Random, files, commands, rerun_pool) -> Session:
    """Shuffle the command order and append re-runs of a seeded subset; each
    re-run follows its original."""
    rng.shuffle(commands)
    pool = [i for i, c in enumerate(commands) if rerun_pool(c)]
    for i in sorted(rng.sample(pool, RERUNS)):
        orig = commands[i]
        commands.append(Command(list(orig.argv), orig.check, orig.facts, rerun_of=i))
    return Session(files, commands)


def _probe_commands(rng: random.Random, files: dict[str, str], want: set[str]) -> list[Command]:
    """A few millisecond commands that touch the layers a workload otherwise
    leaves idle, so every layer's self time is a measurement on every
    workload."""
    out = []
    if "pointclosure" in want:
        files["probe.alg"] = "preset: upper_triangular(2, 2)\n"
        out.append(Command(["point-closure", "--in", "probe.alg", "--seed", _seed(rng)], "point_closure", {"n": 2}))
    if "embeddings" in want:
        files["probe.fam"] = _family(["regular"] * 3)
        fam_facts = {"d": 3, "factors": 3}
        out.append(Command(["embed-staged", "--in", "probe.fam", "--seed", _seed(rng)], "embed_staged", fam_facts))
        out.append(Command(["embed-chain", "--in", "probe.fam", "--seed", _seed(rng)], "embed_chain", fam_facts))
    return out


def topology_session(seed: int) -> Session:
    """Class-space questions on a 9-class discrete space and a 5-class
    product. Latency bands: vset and irr (40-80 ms) hold the median;
    refined-closure (80-170 ms) holds the 90th percentile; verify-form (about
    1 s, it rebuilds the lattice), zlattice, point-closure and compare (2-4 s)
    lie above it."""
    rng = random.Random(seed)
    cs9 = commutative_split(9, 2)
    parts = [matrix_algebra(2, 2), matrix_algebra(3, 2), upper_triangular(2, 2), matrix_algebra(1, 2)]
    rng.shuffle(parts)
    prod5 = product(parts)
    files = {"cs9.alg": f"preset: {cs9.expr}\n", "prod5.alg": f"preset: {prod5.expr}\n"}
    cs9_seeds = [_seed(rng) for _ in range(8)]
    commands: list[Command] = []
    for s in cs9_seeds:
        commands.append(Command(["irr", "--in", "cs9.alg", "--seed", s], "irr", {"preset": cs9}))
    for _ in range(2):
        commands.append(Command(["irr", "--in", "prod5.alg", "--seed", _seed(rng)], "irr", {"preset": prod5}))
    for n_gens, width in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3), (3, 2)] * 10:
        supports = [_subset(rng, 9, width) for _ in range(n_gens)]
        gens = [[1 if i in sup else 0 for i in range(9)] for sup in supports]
        ideal = " ; ".join(" ".join(map(str, g)) for g in gens)
        support = sorted({i for g in gens for i, v in enumerate(g) if v})
        commands.append(
            Command(
                ["vset", "--in", "cs9.alg", "--ideal", ideal, "--seed", rng.choice(cs9_seeds)],
                "vset_split",
                {"n": 9, "support": support},
            )
        )
    for size in [1, 2, 3] * 18:
        sel = _subset(rng, 5, size)
        commands.append(
            Command(
                ["refined-closure", "--in", "prod5.alg", "--set", ",".join(map(str, sel)), "--seed", _seed(rng)],
                "refined_closure",
                {"selection": sel},
            )
        )
    for size in [2, 3, 4, 5, 6]:
        sel = _subset(rng, 9, size)
        commands.append(
            Command(
                ["verify-form", "--in", "cs9.alg", "--set", ",".join(map(str, sel)), "--seed", rng.choice(cs9_seeds)],
                "verify_form_split",
                {"n": 9, "selection": sel},
            )
        )
    commands.append(Command(["zlattice", "--in", "cs9.alg", "--seed", rng.choice(cs9_seeds)], "zlattice", {"n": 9}))
    commands.append(Command(["point-closure", "--in", "cs9.alg", "--seed", _seed(rng)], "point_closure", {"n": 9}))
    commands.append(Command(["compare", "--in", "prod5.alg", "--seed", _seed(rng)], "compare", {"n": 5}))
    commands += _probe_commands(rng, files, {"embeddings"})
    return _finish(rng, files, commands, lambda c: c.check == "vset_split")


def structure_session(seed: int) -> Session:
    """irr, radical, chain-bound and validate on four algebras of dimension
    21-36, the same questions on gallery-sized algebras, and irr/radical on
    mid-sized ones. Latency bands: gallery commands (5-35 ms) hold the
    median; the mid-sized band (15-80 ms) holds the 90th percentile; the
    large algebras (0.1-3 s) lie above it."""
    rng = random.Random(seed)
    big = [
        upper_triangular(7, 2),
        matrix_algebra(6, 2),
        cyclic_group_algebra(21, 2),
        product([matrix_algebra(3, 2), upper_triangular(4, 2), s3_group_algebra(2)]),
    ]
    mid = [
        upper_triangular(4, 2),
        matrix_algebra(4, 2),
        truncated_polynomial(8, 3),
        product([matrix_algebra(2, 3), upper_triangular(3, 3)]),
    ]
    small = [
        matrix_algebra(2, 2),
        matrix_algebra(2, 3),
        upper_triangular(2, 2),
        upper_triangular(3, 2),
        upper_triangular(2, 3),
        truncated_polynomial(3, 2),
        truncated_polynomial(2, 5),
        commutative_split(3, 2),
        cyclic_group_algebra(4, 2),
        cyclic_group_algebra(3, 2),
        s3_group_algebra(3),
        product([matrix_algebra(2, 2), upper_triangular(2, 2)]),
    ]
    files: dict[str, str] = {}
    names: dict[str, PresetFacts] = {}
    for tier, algebras in (("big", big), ("mid", mid), ("small", small)):
        for i, facts in enumerate(algebras):
            files[f"{tier}{i}.alg"] = f"preset: {facts.expr}\n"
            names[f"{tier}{i}.alg"] = facts
    commands: list[Command] = []

    def add(name: str, kind: str, simple: bool = False) -> None:
        facts = names[name]
        argv = [kind, "--in", name, "--seed", _seed(rng)]
        if simple:
            k = rng.randrange(len(facts.classes))
            argv += ["--module", f"simple#{k}"]
            commands.append(Command(argv, "chain_bound", {"preset": facts, "simple": k}))
        else:
            commands.append(Command(argv, kind.replace("-", "_"), {"preset": facts}))

    for i in range(len(big)):
        for kind in ("irr", "radical", "chain-bound", "validate"):
            add(f"big{i}.alg", kind)
    for i in range(len(mid)):
        for kind in ("irr", "radical") * 4:
            add(f"mid{i}.alg", kind)
    for _ in range(10):
        for kind, simple in (("irr", False), ("radical", False), ("chain-bound", False), ("chain-bound", True), ("validate", False)):
            for i in rng.sample(range(len(small)), 3):
                add(f"small{i}.alg", kind, simple)
    commands += _probe_commands(rng, files, {"pointclosure", "embeddings"})
    return _finish(rng, files, commands, lambda c: c.argv[2].startswith("small"))


def _family(factors: list[str], algebra: str = "upper_triangular(2, 2)") -> str:
    return f"algebra: preset {algebra}\n" + "".join(f"factor: {f}\n" for f in factors)


def embed_session(seed: int) -> Session:
    """Product-embedding searches: two exhaustive scans that must end
    'none' (one a theory shortcut can answer, one it cannot), a sampled
    scan, the staged and chain constructions at the chain bound, a
    deletion-stability check and many small seeded families."""
    rng = random.Random(seed)
    files: dict[str, str] = {}
    commands: list[Command] = []

    def simples(k: int) -> list[str]:
        return [f"simple#{rng.randrange(2)}" for _ in range(k)]

    # (a) 1024 states; the target 0 is not ann(product) = rad, so 'none'.
    pairs = [f for _ in range(5) for f in rng.sample(["simple#0", "simple#1"], 2)]
    files["a.fam"] = _family(pairs)
    commands.append(Command(["embed", "--in", "a.fam", "--seed", _seed(rng)], "embed", {"status": ("none",), "d": 3}))
    # (b) 729 states; target 0 = ann(product), but orbits have dim <= 6 < 9.
    files["b.fam"] = _family(["simple#0", "simple#0"], "matrix_algebra(3, 3)")
    commands.append(Command(["embed", "--in", "b.fam", "--seed", _seed(rng)], "embed", {"status": ("none",), "d": 9}))
    # (c) 8192 states, above the exhaustive cap: a sampled scan that can never succeed.
    files["c.fam"] = _family(simples(13))
    commands.append(
        Command(
            ["embed", "--in", "c.fam", "--budget", "200", "--seed", _seed(rng)],
            "embed",
            {"status": ("none", "unknown"), "budget": 200, "d": 3},
        )
    )
    # (d) 17 regular copies of upper_triangular(5, 2): its chain bound 15 + 2.
    files["d.fam"] = _family(["regular"] * 17, "upper_triangular(5, 2)")
    d_facts = {"d": 15, "factors": 17}
    commands.append(Command(["embed-staged", "--in", "d.fam", "--seed", _seed(rng)], "embed_staged", d_facts))
    commands.append(Command(["embed-chain", "--in", "d.fam", "--seed", _seed(rng)], "embed_chain", d_facts))
    commands.append(
        Command(["sufficiency", "--in", "d.fam", "--seed", _seed(rng)], "sufficiency", {"factors": 17, "bound": 17})
    )
    # (e) deletion stability of the same family up to 2 deletions.
    commands.append(
        Command(
            ["stability", "--in", "d.fam", "--t", "2", "--seed", _seed(rng)],
            "stability",
            {"checked": sum(comb(17, k) for k in range(3)), "stable": True},
        )
    )
    # (f) small families over upper_triangular(2, 2). Over this algebra a
    # product of simple modules is killed by the radical, so a witness for
    # target 0 exists iff some factor is the regular module. A scan that
    # finds one costs about 5 * 2^k + 1 candidates, k being the dimension
    # after the last regular factor; one that finds none costs 2^total.
    shapes = [("none", 1)] * 14 + [("none", 2)] * 14 + [("found", 0)] * 14 + [("none", 3)] * 12
    shapes += [("found", 1)] * 14 + [("none", 4)] * 10 + [("found", 2)] * 12 + [("found", 3)] * 10
    for i, (kind, k) in enumerate(shapes):
        if kind == "none":
            factors = simples(k)
        else:
            factors = rng.sample(["regular"] + simples(2), 3)[: rng.randint(0, 2)] + ["regular"] + simples(k)
        name = f"f{i}.fam"
        files[name] = _family(factors)
        status = ("found",) if "regular" in factors else ("none",)
        commands.append(Command(["embed", "--in", name, "--seed", _seed(rng)], "embed", {"status": status, "d": 3}))
    commands += _probe_commands(rng, files, {"pointclosure"})
    return _finish(rng, files, commands, lambda c: c.argv[2].startswith("f"))


SESSIONS = {"topology": topology_session, "structure": structure_session, "embed": embed_session}
