"""Command-line entry points for the laboratory.

Every command prints one deterministic tree report (``--format structured``)
or a human rendering derived from it. Every answer about the class space is
a function of the input alone. ``--seed`` reaches only the commands that
draw: the sampled scans of ``embed`` (beyond 4096 product states), the
sampled candidate vectors of ``embed-staged`` and ``embed-chain`` (factors
with more than 256 vectors), and ``selftest``; every report also names it
in its header. Exit codes: 0 success, 1 domain error, 2 usage or parse error,
3 internal error (a failed self-check; a one-line message, no traceback).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time

import numpy as np

from . import docs as docsmod
from .algebra import Algebra, Ideal, ideal_generated, radical_powers, validate_algebra
from .docs import Doc, render_report
from .embeddings import (
    ProductFamily,
    chain_product_embedding,
    deletion_stability,
    find_embedding,
    staged_product_embedding,
    sufficiency_check,
)
from .linalg import Subspace
from .meataxe import MeatAxeError, jacobson_radical, regular_length
from .pointclosure import TopologyError, point_closure, weyl_model
from .topology import (
    enumerate_irr,
    refined_closure,
    vanishing_set,
    verify_closed_form,
    zariski_closed_family,
)


class DomainError(Exception):
    pass


class UsageError(Exception):
    pass


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from e


def _checked(a: Algebra) -> Algebra:
    """a, once ``validate_algebra`` finds nothing wrong with it."""
    problems = validate_algebra(a)
    if problems:
        raise DomainError("invalid algebra: " + "; ".join(problems))
    return a


def _algebra_from_text(text: str) -> Algebra:
    adoc, diags = docsmod.parse_algebra(text)
    if adoc is None:
        raise UsageError("algebra parse failed: " + "; ".join(str(d) for d in diags))
    return _checked(docsmod.build_algebra(adoc))


def _load_algebra(path: str) -> Algebra:
    return _algebra_from_text(_read_input(path))


def _load_family(path: str) -> tuple[Algebra, ProductFamily]:
    import os

    text = _read_input(path)
    fdoc, diags = docsmod.parse_family(text)
    if fdoc is None:
        raise UsageError("family parse failed: " + "; ".join(str(d) for d in diags))
    base = os.path.dirname(path) if path != "-" else "."
    try:
        a = docsmod.load_family_algebra(fdoc, base)
    except OSError as e:
        raise UsageError(str(e)) from e
    _checked(a)
    return a, docsmod.resolve_factors(a, fdoc.factors)


def _decimal(tok: str, pattern: str) -> int | None:
    """The integer of the one group of pattern, when pattern matches all of
    tok, else None. The group is ASCII digits, optionally signed, so other
    Unicode digits and repeated signs are refused; so is a number longer
    than int() converts."""
    m = re.fullmatch(pattern, tok)
    try:
        return None if m is None else int(m[1])
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return None


def _parse_set(arg: str) -> list[int]:
    if not arg.strip():
        return []
    out = []
    for tok in arg.split(","):
        value = _decimal(tok.strip(), r"p?([0-9]+)")
        if value is None:
            raise UsageError(f"bad point id {tok.strip()!r} in --set")
        out.append(value)
    return out


def _parse_vectors(arg: str, a: Algebra) -> list[np.ndarray]:
    vecs = []
    for part in arg.split(";"):
        part = part.strip()
        if not part:
            continue
        vals = [_decimal(t, r"(-?[0-9]+)") for t in part.split()]
        if None in vals:
            raise UsageError(f"bad vector {part!r} in --ideal")
        v = np.array([x % a.p for x in vals], dtype=np.int64)
        if v.shape != (a.dim,):
            raise UsageError(f"vector {part!r} must have length {a.dim}")
        vecs.append(v)
    return vecs


def _vec_str(v) -> str:
    return " ".join(str(int(t)) for t in v)


def _basis_lines(node: Doc, key: str, sub: Subspace):
    for row in sub.basis:
        node.add(key, _vec_str(row))


# --- command handlers -------------------------------------------------------


def _cmd_validate(args) -> Doc:
    text = _read_input(args.infile)
    adoc, diags = docsmod.parse_algebra(text)
    result = Doc()
    if adoc is None:
        result.add("parsed", "false")
        for d in diags:
            result.add("diagnostic", str(d))
        return result
    a = docsmod.build_algebra(adoc)
    problems = validate_algebra(a)
    result.add("parsed", "true")
    result.add("algebra", a.name or "explicit")
    result.add("dim", a.dim)
    result.add("p", a.p)
    result.add("valid", "true" if not problems else "false")
    for msg in problems:
        result.add("violation", msg)
    return result


def _cmd_irr(args) -> Doc:
    a = _load_algebra(args.infile)
    space = enumerate_irr(a)
    result = Doc()
    result.add("algebra", a.name or "explicit")
    result.add("count", len(space.points))
    for pt in space.points:
        node = result.node("point")
        node.add("id", pt.id)
        node.add("dim", pt.dim)
        node.add("ann_dim", pt.ann.dim)
        _basis_lines(node, "ann_basis", pt.ann.subspace)
    return result


def _cmd_radical(args) -> Doc:
    a = _load_algebra(args.infile)
    rad = jacobson_radical(a)
    result = Doc()
    result.add("algebra", a.name or "explicit")
    result.add("radical_dim", rad.dim)
    _basis_lines(result, "radical_basis", rad.subspace)
    result.add("nilpotency_index", len(radical_powers(a, rad.subspace)) + 1)
    result.add("semisimple", "true" if rad.is_zero else "false")
    return result


def _cmd_vset(args) -> Doc:
    a = _load_algebra(args.infile)
    space = enumerate_irr(a)
    gens = _parse_vectors(args.ideal or "", a)
    ideal = ideal_generated(a, gens, "two-sided")
    z = vanishing_set(space, ideal)
    result = Doc()
    result.add("input_ideal_dim", ideal.dim)
    result.add("points", _id_list(z.point_ids))
    result.add("core_ideal_dim", z.ideal_subspace.dim)
    _basis_lines(result, "core_ideal_basis", z.ideal_subspace)
    return result


def _cmd_zlattice(args) -> Doc:
    a = _load_algebra(args.infile)
    space = enumerate_irr(a)
    family = zariski_closed_family(space)
    result = Doc()
    result.add("count", len(family))
    for ids, dim in family.items():
        node = result.node("closed_set")
        node.add("points", _id_list(ids))
        node.add("ideal_dim", dim)
    return result


def _cmd_refined_closure(args) -> Doc:
    a = _load_algebra(args.infile)
    space = enumerate_irr(a)
    ids = _parse_set(args.set or "")
    result = Doc()
    result.add("input", _id_list(set(ids)))
    result.add("closure", _id_list(refined_closure(space, ids)))
    result.add("closed", "true")  # every point set is refined-closed
    return result


def _symbolic_space_node(space) -> Doc:
    """The ``symbolic_space`` node that ``weyl-model`` prints for the space."""
    node = Doc()
    node.add("kind", "trivial-zariski")
    node.add("infinite", "true")
    node.add("closed_family", " ".join(space.names))
    node.add("points", " ".join(space.points))
    return node


def _id_list(ids) -> str:
    return " ".join(map(str, sorted(ids)))


def _cmd_point_closure(args) -> Doc:
    text = _read_input(args.infile)
    result = Doc()
    if not text.lstrip().startswith(docsmod.FORMAT_HEADER):
        # Every point set of an algebra's class space is Zariski-closed, so
        # each is its own pair, with no finite part.
        space = enumerate_irr(_algebra_from_text(text))
        family = zariski_closed_family(space)
        result.add("space", "finite")
        result.add("points", _id_list(space.all_ids()))
        result.add("count", len(family))
        for ids in family:
            node = result.node("pair")
            node.add("closed_part", _id_list(ids))
            node.add("finite_part", "")
        return result
    rep, diags = docsmod.parse_report(text)
    if rep is None:
        raise UsageError("report parse failed: " + "; ".join(str(d) for d in diags))
    # The report is read only as the weyl-model report that it equals; the
    # cap on named points is checked first.
    res = rep.get("result")
    sym = res.get("symbolic_space") if isinstance(res, Doc) else None
    points = sym.get("points") if isinstance(sym, Doc) else None
    space = weyl_model(len(points.split())) if isinstance(points, str) else None
    if space is None or sym != _symbolic_space_node(space):
        raise UsageError("report does not describe a symbolic space")
    result.add("space", "symbolic")
    result.add("named_points", " ".join(space.points))
    fam = point_closure(space)
    result.add("count", len(fam.pairs))
    for pair in fam.pairs:
        node = result.node("pair")
        node.add("closed_part", str(pair.c))
        node.add("finite_part", _id_list(pair.f))
    return result


def _cmd_compare(args) -> Doc:
    # Every point set is Zariski-closed, so all three topologies are the
    # power set: each set is its own vanishing set, refined-closed (see
    # refined_closure) and, with no finite part, point-closure-closed.
    family = zariski_closed_family(enumerate_irr(_load_algebra(args.infile)))
    count = len(family)
    result = Doc()
    result.add("zariski_count", count)
    result.add("point_closure_count", count)
    result.add("refined_count", count)
    result.add("all_equal", "true")
    result.add("discrete", "true")
    result.add("summary", f"zariski = refined = point-closure = discrete ({count} closed sets)")
    for ids, dim in family.items():
        node = result.node("closed_set")
        node.add("points", _id_list(ids))
        node.add("tags", "zariski refined point-closure")
        node.add("ideal_dim", dim)
        node.add("v_points", _id_list(ids))
        node.add("finite_part", "")
    return result


def _cmd_stability(args) -> Doc:
    a, fam = _load_family(args.infile)
    target = _family_target(a, args)
    rep = deletion_stability(fam, target, args.t)
    result = Doc()
    result.add("factors", len(fam.factors))
    result.add("deletion_budget", rep.t)
    result.add("note", "finite deletion analog of the cofinite requirement")
    result.add("target_dim", rep.target_dim)
    result.add("checked_subfamilies", rep.checked)
    result.add("stable", "true" if rep.ok else "false")
    for deleted, dim in rep.failures:
        node = result.node("failure")
        node.add("deleted", " ".join(str(i) for i in deleted))
        node.add("annihilator_dim", dim)
    return result


def _cmd_verify_form(args) -> Doc:
    a = _load_algebra(args.infile)
    space = enumerate_irr(a)
    rep = verify_closed_form(space, _parse_set(args.set or ""))
    # Every point set is refined-closed and its own vanishing set, whose
    # ideal is the meet of annihilators: semiprimitive, with no finite part.
    result = Doc()
    result.add("selection", _id_list(rep.selection))
    result.add("refined_closed", "true")
    result.add("found", "true")
    result.add("ideal_dim", rep.ideal_subspace.dim)
    _basis_lines(result, "ideal_basis", rep.ideal_subspace)
    result.add("v_points", _id_list(rep.selection))
    result.add("finite_part", "")
    result.add("ideal_semiprimitive", "true")
    return result


def _witness_node(result: Doc, witness) -> None:
    node = result.node("witness")
    for i, comp in enumerate(witness.components):
        node.add("component", f"{i}: {_vec_str(comp)}" if len(comp) else f"{i}:")
    node.add("ann_dim", witness.ann.dim)
    node.add("orbit_dim", witness.orbit_dim)
    node.add("valid", "true" if witness.valid else "false")


def _family_target(a: Algebra, args) -> Ideal:
    gens = _parse_vectors(args.ideal or "", a)
    return ideal_generated(a, gens, "two-sided")


def _cmd_embed(args) -> Doc:
    a, fam = _load_family(args.infile)
    target = _family_target(a, args)
    outcome = find_embedding(fam, target, seed=args.seed, budget=args.budget)
    result = Doc()
    result.add("factors", len(fam.factors))
    result.add("target_dim", target.dim)
    result.add("status", outcome.status)
    result.add("tried", outcome.tried)
    if outcome.reason:
        result.add("reason", outcome.reason)
    if outcome.witness is not None:
        _witness_node(result, outcome.witness)
    return result


def _cmd_embed_staged(args) -> Doc:
    a, fam = _load_family(args.infile)
    target = _family_target(a, args)
    witness, trace = staged_product_embedding(fam, target, basis_order=args.order, seed=args.seed)
    result = Doc()
    result.add("outcome", trace.outcome)
    for rec in trace.stages:
        node = result.node("stage")
        node.add("index", rec.stage)
        node.add("start_dim", rec.start_dim)
        for pick in rec.picks:
            pn = node.node("pick")
            pn.add("factor", pick.factor)
            pn.add("vector", _vec_str(pick.vector))
            pn.add("blocked_dim", pick.blocked_dim_after)
        if rec.stalled:
            node.add("blocking_vector", _vec_str(rec.blocking_vector))
    if witness is not None:
        _witness_node(result, witness)
    return result


def _cmd_embed_chain(args) -> Doc:
    a, fam = _load_family(args.infile)
    witness, trace = chain_product_embedding(fam, seed=args.seed)
    result = Doc()
    result.add("outcome", trace.outcome)
    for step in trace.steps:
        node = result.node("step")
        node.add("factor", step.factor)
        node.add("accepted", "true" if step.accepted else "false")
        node.add("driver", _vec_str(step.driver))
        if step.accepted:
            node.add("vector", _vec_str(step.vector))
        node.add("l_dim", step.l_dim_after)
    result.add("final_l_dim", trace.final_l_dim)
    if trace.final_l is not None and trace.final_l_dim:
        _basis_lines(result, "final_l_basis", trace.final_l)
    if witness is not None:
        _witness_node(result, witness)
    return result


def _cmd_chain_bound(args) -> Doc:
    a = _load_algebra(args.infile)
    which = args.module
    if which == "regular":
        dim, length = a.dim, regular_length(a)  # from the Loewy layers
    else:  # a simple module: length 1, and no representative is built
        space = enumerate_irr(a)
        k = int(which[len("simple#"):])
        if k >= len(space.points):
            raise DomainError(f"simple#{k} out of range")
        dim, length = space.points[k].dim, 1
    result = Doc()
    result.add("module", which)
    result.add("module_dim", dim)
    result.add("length", length)
    result.add("bound", length + 2)
    return result


def _cmd_sufficiency(args) -> Doc:
    a, fam = _load_family(args.infile)
    rep = sufficiency_check(a, fam)
    result = Doc()
    result.add("factors", len(fam.factors))
    result.add("faithful_count", rep.faithful_count)
    result.add("bound", rep.bound)
    result.add("guaranteed", "true" if rep.guaranteed else "false")
    result.add("algebra_simple", "true" if rep.algebra_simple else "false")
    if rep.note:
        result.add("note", rep.note)
    return result


def _cmd_weyl_model(args) -> Doc:
    result = Doc()
    result.items.append(("symbolic_space", _symbolic_space_node(weyl_model(args.points))))
    return result


def _cmd_selftest(args) -> Doc:
    # The one production import of the oracles: no other command loads them.
    from .oracles import selftest_checks

    checks = selftest_checks(args.seed)
    result = Doc()
    for name, ok in checks:
        node = result.node("check")
        node.add("name", name)
        node.add("ok", "true" if ok else "false")
    passed = sum(1 for _, ok in checks if ok)
    result.add("passed", passed)
    result.add("failed", len(checks) - passed)
    return result


# --- dispatch ----------------------------------------------------------------


def _wrap(command: str, args, result: Doc) -> Doc:
    top = Doc()
    top.add("command", command)
    top.add("seed", args.seed)
    top.items.append(("result", result))
    return top


def _human(command: str, args, result: Doc, elapsed_ms: float) -> str:
    lines = [f"irrtop {command} (seed {args.seed})", "-" * 40]
    lines.extend(result.lines())
    lines.append(f"time_ms: {elapsed_ms:.1f}")
    return "\n".join(lines) + "\n"


HANDLERS = {
    "validate": _cmd_validate,
    "irr": _cmd_irr,
    "radical": _cmd_radical,
    "vset": _cmd_vset,
    "zlattice": _cmd_zlattice,
    "refined-closure": _cmd_refined_closure,
    "point-closure": _cmd_point_closure,
    "compare": _cmd_compare,
    "verify-form": _cmd_verify_form,
    "embed": _cmd_embed,
    "embed-staged": _cmd_embed_staged,
    "embed-chain": _cmd_embed_chain,
    "stability": _cmd_stability,
    "chain-bound": _cmd_chain_bound,
    "sufficiency": _cmd_sufficiency,
    "weyl-model": _cmd_weyl_model,
    "selftest": _cmd_selftest,
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _count(text: str) -> int:
    """A non-negative integer."""
    value = _decimal(text.strip(), r"([0-9]+)")
    if value is None:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _index_list(text: str) -> tuple[int, ...] | None:
    """Comma-separated non-negative integers; blank means none given."""
    if not text.strip():
        return None
    vals = tuple(_decimal(t.strip(), r"([0-9]+)") for t in text.split(","))
    if None in vals:
        raise argparse.ArgumentTypeError(f"expected comma-separated non-negative integers, got {text!r}")
    return vals


def _module_name(text: str) -> str:
    """'regular' (also when blank) or 'simple#k' with k a non-negative
    integer, written without leading zeros."""
    if text in ("", "regular"):
        return "regular"
    k = _decimal(text, r"simple#([0-9]+)")
    if k is None:
        raise argparse.ArgumentTypeError(f"expected 'regular' or 'simple#k', got {text!r}")
    return f"simple#{k}"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later ``run``."""
    ap = _Parser(prog="irrtop", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    # Each option beyond --seed, --out and --format, with the commands that
    # read it; any other command refuses it as a usage error.
    reads_input = [name for name in HANDLERS if name not in ("weyl-model", "selftest")]
    options = [
        ("--in", dict(dest="infile", default="-"), reads_input),
        ("--set", dict(default=""), ["refined-closure", "verify-form"]),
        ("--ideal", dict(default=""), ["vset", "embed", "embed-staged", "stability"]),
        ("--t", dict(type=_count, default=0), ["stability"]),
        ("--budget", dict(type=_count, default=5000), ["embed"]),
        ("--points", dict(type=_count, default=3), ["weyl-model"]),
        ("--order", dict(type=_index_list, default=None), ["embed-staged"]),
        ("--module", dict(type=_module_name, default="regular"), ["chain-bound"]),
    ]
    for name in HANDLERS:
        sp = sub.add_parser(name)
        sp.add_argument("--seed", type=_count, default=0)
        for option, spec, readers in options:
            if name in readers:
                sp.add_argument(option, **spec)
        sp.add_argument("--out", default="")
        sp.add_argument("--format", dest="fmt", choices=("human", "structured"), default="human")
    return ap


def run(argv: list[str]) -> tuple[int, str]:
    """Dispatch a command line; returns (exit_code, output_text). Partial
    results are never emitted."""
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except UsageError as e:
        return 2, f"error: {e}\n"
    except SystemExit as e:  # --help has printed its text
        return int(e.code or 0), ""
    handler = HANDLERS[args.command]
    t0 = time.perf_counter()
    try:
        result = handler(args)
    except (UsageError, docsmod.ParseFailure) as e:
        return 2, f"error: {e}\n"
    except (DomainError, TopologyError, MeatAxeError, ValueError) as e:
        return 1, f"error: {e}\n"
    except AssertionError as e:
        return 3, "internal error: " + (" ".join(str(e).split()) or "self-check failed") + "\n"
    elapsed = (time.perf_counter() - t0) * 1000.0
    if args.fmt == "structured":
        text = render_report(_wrap(args.command, args, result))
    else:
        text = _human(args.command, args, result, elapsed)
    code = 0
    if args.command == "selftest" and result.get("failed") not in (None, 0, "0"):
        code = 1
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            return 1, f"error: cannot write {args.out}: {e.strerror or e}\n"
        return code, ""
    return code, text


def main() -> None:
    code, text = run(sys.argv[1:])
    stream = sys.stdout if code == 0 else sys.stderr
    stream.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
