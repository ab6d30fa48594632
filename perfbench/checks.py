"""Correctness checks for irrtop/1 reports, derived from theory.

Every checker takes the parsed report of one command, the facts its session
attached to it, and a context of labels learned from other checked reports
of the same session. It returns the list of problems it found; an empty list
means the output is correct. Checkers accept every correct answer, so a
later version that answers sooner (or by another route) still passes.

The report parser here is independent of ``irrtop.docs`` on purpose: the
benchmark must not trust the code it measures to read its own output.
"""

from __future__ import annotations


class Node:
    """One level of an irrtop/1 tree: ordered (key, value-or-Node) items."""

    def __init__(self):
        self.items: list[tuple[str, object]] = []

    def get(self, key: str, default=None):
        for k, v in self.items:
            if k == key:
                return v
        return default

    def all(self, key: str) -> list:
        return [v for k, v in self.items if k == key]


def parse(text: str) -> Node:
    """Parse an irrtop/1 report; raises ValueError on malformed text."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "irrtop/1":
        raise ValueError("missing irrtop/1 header")
    root = Node()
    stack: list[tuple[int, Node]] = [(-1, root)]
    body = lines[1:]
    for pos, raw in enumerate(body):
        indent = len(raw) - len(raw.lstrip(" "))
        if indent % 2 or ":" not in raw:
            raise ValueError(f"malformed line {raw!r}")
        level = indent // 2
        while stack[-1][0] >= level:
            stack.pop()
        parent = stack[-1][1]
        key, _, rest = raw.strip().partition(":")
        rest = rest.strip()
        nxt = body[pos + 1] if pos + 1 < len(body) else ""
        if not rest and (len(nxt) - len(nxt.lstrip(" "))) // 2 > level:
            child = Node()
            parent.items.append((key, child))
            stack.append((level, child))
        else:
            parent.items.append((key, rest))
    return root


def ints(value) -> list[int]:
    return [int(t) for t in str(value or "").split()]


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# What a malformed or truncated report raises inside a checker.
UNREADABLE = (ValueError, TypeError, AttributeError, IndexError)


def _result(doc: Node) -> Node:
    res = doc.get("result")
    if not isinstance(res, Node):
        raise ValueError("report has no result node")
    return res


# --- algebra structure ------------------------------------------------------


def check_irr(res: Node, facts, ctx) -> list[str]:
    pre = facts["preset"]
    problems: list[str] = []
    points = res.all("point")
    _expect(problems, "count", int(res.get("count")), len(pre.classes))
    _expect(problems, "class dims", sorted(int(pt.get("dim")) for pt in points), pre.class_dims)
    pairs = sorted((int(pt.get("dim")), int(pt.get("ann_dim"))) for pt in points)
    _expect(problems, "(dim, ann_dim) pairs", pairs, pre.ann_dims)
    dims = [int(pt.get("dim")) for pt in points]
    _expect(problems, "classes ordered by dimension", dims, sorted(dims))
    if pre.expr.startswith("commutative_split"):
        # ann of the class on coordinate j is spanned by the other unit vectors.
        coords = {}
        for pt in points:
            rows = [ints(r) for r in pt.all("ann_basis")]
            missing = set(range(pre.dim)) - {r.index(1) for r in rows if sum(r) == 1}
            if len(rows) != pre.dim - 1 or any(sum(r) != 1 for r in rows) or len(missing) != 1:
                problems.append(f"class {pt.get('id')}: annihilator is not a coordinate hyperplane")
                continue
            coords[int(pt.get("id"))] = missing.pop()
        if sorted(coords.values()) != list(range(pre.dim)):
            problems.append("classes do not biject onto coordinates")
        elif not problems:
            ctx["coords"] = coords
    return problems


def check_radical(res: Node, facts, ctx) -> list[str]:
    pre = facts["preset"]
    problems: list[str] = []
    _expect(problems, "radical_dim", int(res.get("radical_dim")), pre.radical_dim)
    _expect(problems, "radical basis rows", len(res.all("radical_basis")), pre.radical_dim)
    _expect(problems, "nilpotency_index", int(res.get("nilpotency_index")), pre.nilpotency)
    _expect(problems, "semisimple", res.get("semisimple"), "true" if pre.radical_dim == 0 else "false")
    return problems


def check_chain_bound(res: Node, facts, ctx) -> list[str]:
    pre = facts["preset"]
    problems: list[str] = []
    k = facts.get("simple")
    dim, length = (pre.dim, pre.length) if k is None else (pre.class_dims[k], 1)
    _expect(problems, "module_dim", int(res.get("module_dim")), dim)
    _expect(problems, "length", int(res.get("length")), length)
    _expect(problems, "bound", int(res.get("bound")), length + 2)
    return problems


def check_validate(res: Node, facts, ctx) -> list[str]:
    pre = facts["preset"]
    problems: list[str] = []
    _expect(problems, "parsed", res.get("parsed"), "true")
    _expect(problems, "valid", res.get("valid"), "true")
    _expect(problems, "dim", int(res.get("dim")), pre.dim)
    _expect(problems, "p", int(res.get("p")), pre.p)
    return problems


# --- topology ----------------------------------------------------------------
# The Zariski topology of a finite-dimensional algebra is discrete, so on n
# classes every one of the 2^n subsets is closed in all three topologies.


def _distinct_subsets(sets: list[frozenset], n: int) -> bool:
    return len(set(sets)) == len(sets) and all(s <= set(range(n)) for s in sets)


def check_zlattice(res: Node, facts, ctx) -> list[str]:
    n = facts["n"]
    problems: list[str] = []
    nodes = res.all("closed_set")
    _expect(problems, "count", int(res.get("count")), 2**n)
    _expect(problems, "closed_set nodes", len(nodes), 2**n)
    if not _distinct_subsets([frozenset(ints(z.get("points"))) for z in nodes], n):
        problems.append("closed sets are not distinct subsets of the points")
    if any(int(z.get("ideal_dim")) != n - len(ints(z.get("points"))) for z in nodes):
        problems.append("a closed set's ideal does not have dimension n - |points|")
    return problems


def check_point_closure(res: Node, facts, ctx) -> list[str]:
    n = facts["n"]
    problems: list[str] = []
    pairs = res.all("pair")
    _expect(problems, "space", res.get("space"), "finite")
    _expect(problems, "count", int(res.get("count")), 2**n)
    _expect(problems, "pair nodes", len(pairs), 2**n)
    sets = [frozenset(ints(p.get("closed_part"))) | frozenset(ints(p.get("finite_part"))) for p in pairs]
    if not _distinct_subsets(sets, n):
        problems.append("pairs do not describe distinct subsets of the points")
    return problems


def check_compare(res: Node, facts, ctx) -> list[str]:
    n = facts["n"]
    problems: list[str] = []
    for key in ("zariski_count", "point_closure_count", "refined_count"):
        _expect(problems, key, int(res.get(key)), 2**n)
    _expect(problems, "all_equal", res.get("all_equal"), "true")
    _expect(problems, "discrete", res.get("discrete"), "true")
    _expect(problems, "closed_set nodes", len(res.all("closed_set")), 2**n)
    return problems


def check_refined_closure(res: Node, facts, ctx) -> list[str]:
    problems: list[str] = []
    sel = facts["selection"]
    _expect(problems, "input", ints(res.get("input")), sel)
    _expect(problems, "closure", ints(res.get("closure")), sel)
    _expect(problems, "closed", res.get("closed"), "true")
    return problems


def check_vset_split(res: Node, facts, ctx) -> list[str]:
    """On commutative_split(n, p) the ideal generated by vectors is spanned by
    the unit vectors of their joint support; it kills exactly the classes
    whose coordinate lies outside that support."""
    n, support = facts["n"], facts["support"]
    problems: list[str] = []
    _expect(problems, "input_ideal_dim", int(res.get("input_ideal_dim")), len(support))
    _expect(problems, "core_ideal_dim", int(res.get("core_ideal_dim")), len(support))
    units = [[1 if i == j else 0 for i in range(n)] for j in support]
    _expect(problems, "core_ideal_basis", [ints(r) for r in res.all("core_ideal_basis")], units)
    points = ints(res.get("points"))
    coords = ctx.get("coords")
    if coords is None:
        _expect(problems, "number of points", len(points), n - len(support))
    else:
        want = sorted(i for i, c in coords.items() if c not in support)
        _expect(problems, "points", points, want)
    return problems


def check_verify_form_split(res: Node, facts, ctx) -> list[str]:
    """Every subset is refined-closed; the decomposition must split the
    selection into a vanishing set and a finite part, and the ideal must be
    the meet of the vanishing set's annihilators."""
    n, sel = facts["n"], facts["selection"]
    problems: list[str] = []
    _expect(problems, "selection", ints(res.get("selection")), sel)
    _expect(problems, "refined_closed", res.get("refined_closed"), "true")
    _expect(problems, "found", res.get("found"), "true")
    v, f = set(ints(res.get("v_points"))), set(ints(res.get("finite_part")))
    if v & f or v | f != set(sel):
        problems.append(f"v_points {sorted(v)} and finite_part {sorted(f)} do not partition {sel}")
    _expect(problems, "ideal_dim", int(res.get("ideal_dim") or -1), n - len(v))
    coords = ctx.get("coords")
    if coords is not None and not problems:
        keep = sorted(set(range(n)) - {coords[i] for i in v})
        units = [[1 if i == j else 0 for i in range(n)] for j in keep]
        _expect(problems, "ideal_basis", [ints(r) for r in res.all("ideal_basis")], units)
    return problems


# --- embeddings --------------------------------------------------------------


def _check_witness(res: Node, d: int, target_dim: int, problems: list[str]) -> None:
    w = res.get("witness")
    if not isinstance(w, Node):
        problems.append("missing witness")
        return
    _expect(problems, "witness valid", w.get("valid"), "true")
    _expect(problems, "witness ann_dim", int(w.get("ann_dim")), target_dim)
    _expect(problems, "witness orbit_dim", int(w.get("orbit_dim")), d - target_dim)


def check_embed(res: Node, facts, ctx) -> list[str]:
    """Every embed command of the sessions targets the zero ideal."""
    problems: list[str] = []
    _expect(problems, "target_dim", int(res.get("target_dim")), 0)
    status = res.get("status")
    if status not in facts["status"]:
        problems.append(f"status: got {status!r}, expected one of {facts['status']}")
    if "budget" in facts and int(res.get("tried")) > facts["budget"]:
        problems.append("tried more candidates than the budget")
    if status == "found":
        _check_witness(res, facts["d"], 0, problems)
    elif res.get("witness") is not None:
        problems.append(f"status {status!r} carries a witness")
    return problems


def check_embed_staged(res: Node, facts, ctx) -> list[str]:
    """Each stage starts afresh and needs at least one fresh factor, so the
    construction may run out of factors; with faithful factors a stage can
    stall only once every factor is used. A witness must be valid."""
    problems: list[str] = []
    outcome = res.get("outcome")
    if outcome == "witness":
        _check_witness(res, facts["d"], 0, problems)
    elif outcome == "stall":
        picks = sum(len(stage.all("pick")) for stage in res.all("stage"))
        _expect(problems, "picks before a stall", picks, facts["factors"])
    else:
        problems.append(f"outcome: got {outcome!r}, expected 'witness' or 'stall'")
    return problems


def check_embed_chain(res: Node, facts, ctx) -> list[str]:
    problems: list[str] = []
    _expect(problems, "outcome", res.get("outcome"), "witness")
    _expect(problems, "final_l_dim", int(res.get("final_l_dim")), 0)
    _check_witness(res, facts["d"], 0, problems)
    return problems


def check_sufficiency(res: Node, facts, ctx) -> list[str]:
    problems: list[str] = []
    _expect(problems, "factors", int(res.get("factors")), facts["factors"])
    _expect(problems, "faithful_count", int(res.get("faithful_count")), facts["factors"])
    _expect(problems, "bound", int(res.get("bound")), facts["bound"])
    _expect(problems, "guaranteed", res.get("guaranteed"), "true" if facts["factors"] >= facts["bound"] else "false")
    _expect(problems, "algebra_simple", res.get("algebra_simple"), "false")
    return problems


def check_stability(res: Node, facts, ctx) -> list[str]:
    problems: list[str] = []
    _expect(problems, "checked_subfamilies", int(res.get("checked_subfamilies")), facts["checked"])
    _expect(problems, "stable", res.get("stable"), "true" if facts["stable"] else "false")
    return problems


CHECKERS = {
    "irr": check_irr,
    "radical": check_radical,
    "chain_bound": check_chain_bound,
    "validate": check_validate,
    "zlattice": check_zlattice,
    "point_closure": check_point_closure,
    "compare": check_compare,
    "refined_closure": check_refined_closure,
    "vset_split": check_vset_split,
    "verify_form_split": check_verify_form_split,
    "embed": check_embed,
    "embed_staged": check_embed_staged,
    "embed_chain": check_embed_chain,
    "sufficiency": check_sufficiency,
    "stability": check_stability,
}


def check_command(cmd, code: int, out: str, ctx: dict) -> list[str]:
    """Problems with one command's exit code and output; [] when correct."""
    if code != 0:
        return [f"exit code {code}: {out.strip()[:200]}"]
    try:
        doc = parse(out)
        problems: list[str] = []
        _expect(problems, "command", doc.get("command"), cmd.argv[0])
        return problems + CHECKERS[cmd.check](_result(doc), cmd.facts, ctx)
    except UNREADABLE as e:
        return [f"unreadable report: {e}"]


def label_contexts(commands, outputs) -> dict:
    """Per (input file, --seed) context: the class-to-coordinate labels
    learned from checked irr reports on split commutative algebras."""
    contexts: dict = {}
    for cmd, (code, out) in zip(commands, outputs):
        if cmd.check == "irr" and code == 0 and cmd.facts["preset"].expr.startswith("commutative_split"):
            ctx: dict = {}
            try:
                if not check_irr(_result(parse(out)), cmd.facts, ctx):
                    contexts[_ctx_key(cmd)] = ctx
            except UNREADABLE:
                pass
    return contexts


def _ctx_key(cmd) -> tuple:
    """(input file, --seed) of a command; the CLI's default seed is 0."""
    opts = dict(zip(cmd.argv[1::2], cmd.argv[2::2]))
    return (opts.get("--in"), opts.get("--seed", "0"))


def check_session(commands, outputs) -> list[list[str]]:
    """Problems per command of one pass: theory checks plus byte-identity of
    every re-run with its original."""
    contexts = label_contexts(commands, outputs)
    result = []
    for cmd, (code, out) in zip(commands, outputs):
        problems = check_command(cmd, code, out, contexts.get(_ctx_key(cmd), {}))
        if cmd.rerun_of is not None and out != outputs[cmd.rerun_of][1]:
            problems.append(f"re-run of command {cmd.rerun_of} gave different output")
        result.append(problems)
    return result
