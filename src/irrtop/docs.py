"""Declarative input documents (algebras, families) and the canonical tree
report format, version header ``irrtop/1``.

Parsers are total: malformed input yields positioned diagnostics, never an
exception. Reports serialize deterministically so identical runs are
byte-identical and can be re-ingested.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .algebra import ALGEBRA_DIM_CAP, Algebra, check_dim
from .embeddings import ProductFamily
from .linalg import PRIME_BOUND, Subspace, is_prime
from .modules import ModuleRep, check_module, regular_module, spin, sub_quotient
from .presets import PresetArgumentError, preset

__all__ = [
    "Diagnostic",
    "Doc",
    "render_report",
    "parse_report",
    "AlgebraDoc",
    "FamilyDoc",
    "FactorSpec",
    "parse_algebra",
    "serialize_algebra_doc",
    "parse_family",
    "build_algebra",
    "resolve_factors",
    "parse_preset_expr",
    "build_preset",
    "ParseFailure",
]

FORMAT_HEADER = "irrtop/1"


@dataclass(frozen=True)
class Diagnostic:
    line: int  # 1-based
    col: int   # 1-based
    message: str

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


class Doc:
    """Ordered tree of (key, value-or-subtree) pairs."""

    def __init__(self):
        self.items: list[tuple[str, object]] = []

    def add(self, key: str, value) -> "Doc":
        self.items.append((str(key), str(value)))
        return self

    def node(self, key: str) -> "Doc":
        child = Doc()
        self.items.append((str(key), child))
        return child

    def get(self, key: str):
        for k, v in self.items:
            if k == key:
                return v
        return None

    def lines(self, indent: int = 0) -> list[str]:
        out = []
        pad = "  " * indent
        for k, v in self.items:
            if isinstance(v, Doc):
                out.append(f"{pad}{k}:")
                out.extend(v.lines(indent + 1))
            elif v == "":
                out.append(f"{pad}{k}:")
            else:
                out.append(f"{pad}{k}: {v}")
        return out

    def dumps(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def __eq__(self, other):
        return isinstance(other, Doc) and self.items == other.items


def render_report(doc: Doc) -> str:
    return FORMAT_HEADER + "\n" + doc.dumps()


def parse_report(text: str) -> tuple[Doc | None, list[Diagnostic]]:
    """The tree of a report, whose header is its first nonblank line;
    diagnostics carry the line numbers of the whole text."""
    lines = text.splitlines()
    head = next((i for i, raw in enumerate(lines) if raw.strip()), 0)
    if head == len(lines) or lines[head].strip() != FORMAT_HEADER:
        return None, [Diagnostic(head + 1, 1, f"missing {FORMAT_HEADER} header")]
    body_lines = [(ln, raw) for ln, raw in enumerate(lines[head + 1 :], start=head + 2) if raw.strip()]
    root = Doc()
    stack: list[tuple[int, Doc]] = [(-1, root)]
    diags: list[Diagnostic] = []
    for pos, (ln, raw) in enumerate(body_lines):
        indent = len(raw) - len(raw.lstrip(" "))
        if indent % 2:
            diags.append(Diagnostic(ln, indent, "odd indentation"))
            continue
        level = indent // 2
        while stack and stack[-1][0] >= level:
            stack.pop()
        if not stack:
            diags.append(Diagnostic(ln, 1, "indentation underflow"))
            return None, diags
        parent = stack[-1][1]
        body = raw.strip()
        if ":" not in body:
            diags.append(Diagnostic(ln, indent + 1, "expected 'key:' or 'key: value'"))
            continue
        key, _, rest = body.partition(":")
        rest = rest.strip()
        if rest:
            parent.add(key.strip(), rest)
            continue
        # Bare 'key:' opens a subtree iff the next line is more indented;
        # otherwise it is an empty-valued leaf.
        next_deeper = False
        if pos + 1 < len(body_lines):
            nraw = body_lines[pos + 1][1]
            next_deeper = (len(nraw) - len(nraw.lstrip(" "))) // 2 > level
        if next_deeper:
            child = parent.node(key.strip())
            stack.append((level, child))
        else:
            parent.add(key.strip(), "")
    return root, diags


# --- preset expressions ----------------------------------------------------


def _tokenize(s: str):
    toks = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "(),":
            toks.append((ch, i))
            i += 1
            continue
        j = i
        while j < len(s) and (s[j].isalnum() or s[j] in "_-#"):
            j += 1
        if j == i:
            toks.append(("?", i))
            i += 1
        else:
            toks.append((s[i:j], i))
            i = j
    return toks


# Deepest nesting of preset calls a preset expression may have. The parser
# recurses once per level, so the cap keeps it far from the interpreter's
# recursion limit.
PRESET_NESTING_CAP = 32


def parse_preset_expr(s: str):
    """Parse ``name(arg, ...)`` with integer, identifier, or nested preset
    arguments. Returns (ast, error) where error is (col, message) or None.
    AST nodes: int | str | ('call', name, [args])."""
    toks = _tokenize(s)
    pos = 0

    def atom(depth=0):
        nonlocal pos
        if pos >= len(toks):
            return None, (len(s), "unexpected end of preset expression")
        tok, col = toks[pos]
        if tok in "(),?":
            return None, (col + 1, f"unexpected {tok!r} in preset expression")
        pos += 1
        if pos < len(toks) and toks[pos][0] == "(":
            if depth == PRESET_NESTING_CAP:
                return None, (col + 1, f"preset calls nested deeper than {PRESET_NESTING_CAP}")
            pos += 1
            args = []
            if pos < len(toks) and toks[pos][0] == ")":
                pos += 1
                return ("call", tok, args), None
            while True:
                node, err = atom(depth + 1)
                if err:
                    return None, err
                args.append(node)
                if pos >= len(toks):
                    return None, (len(s), "unterminated preset argument list")
                t, c = toks[pos]
                if t == ",":
                    pos += 1
                    continue
                if t == ")":
                    pos += 1
                    return ("call", tok, args), None
                return None, (c + 1, "expected ',' or ')'")
        if tok.lstrip("-").isdigit():
            value = _int(tok)
            if value is None:
                return None, (col + 1, "malformed integer in preset expression")
            return value, None
        return tok, None

    node, err = atom()
    if err:
        return None, err
    if pos != len(toks):
        return None, (toks[pos][1] + 1, "trailing tokens after preset expression")
    return node, None


def build_preset(ast) -> Algebra:
    """Evaluate a preset AST to an algebra. Raises ParseFailure when the
    expression is not a call or a preset gets the wrong number or kinds of
    arguments, and ValueError when an algebra is refused."""
    if not (isinstance(ast, tuple) and ast[0] == "call"):
        raise ParseFailure("preset must be a call like upper_triangular(2, 2)")
    _, name, args = ast
    vals = []
    for arg in args:
        if isinstance(arg, tuple) and arg[0] == "call":
            vals.append(build_preset(arg))
        else:
            vals.append(arg)
    try:
        return preset(name, tuple(vals))
    except PresetArgumentError as e:
        raise ParseFailure(str(e)) from e


# --- algebra documents -----------------------------------------------------


@dataclass
class AlgebraDoc:
    p: int | None = None
    dim: int | None = None
    one: tuple = ()
    triples: tuple = ()  # sorted (i, j, k, v)
    basis: tuple = ()
    name: str = ""
    preset_text: str = ""

    def normalized(self) -> tuple:
        return (self.p, self.dim, self.one, tuple(sorted(self.triples)), self.basis, self.preset_text)

    def __eq__(self, other):
        return isinstance(other, AlgebraDoc) and self.normalized() == other.normalized()


def _value_col(line: str, start: int) -> int:
    """1-based column of the first non-blank character of line at or after
    the 0-based index start; one past the end when there is none."""
    tail = line[start:]
    return start + len(tail) - len(tail.lstrip()) + 1


def _strip_comment(raw: str) -> str:
    """Drop a trailing comment: '#' at line start or preceded by blank."""
    if raw.startswith("#"):
        return ""
    for i in range(1, len(raw)):
        if raw[i] == "#" and raw[i - 1] in " \t":
            return raw[:i]
    return raw


def _int(token: str) -> int | None:
    """The value of an optionally signed ASCII decimal integer, else None.
    Other Unicode digits, repeated signs and numbers longer than int()
    converts are refused here, so no parser raises on them."""
    if re.fullmatch(r"-?[0-9]+", token) is None:
        return None
    try:
        return int(token)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return None


def _ints(text: str):
    out = []
    for t in text.split():
        value = _int(t)
        if value is None:
            return None
        out.append(value)
    return out


def parse_algebra(text: str) -> tuple[AlgebraDoc | None, list[Diagnostic]]:
    doc = AlgebraDoc()
    diags: list[Diagnostic] = []
    seen_explicit = False
    dim_refused = False  # a dim line was given but refused
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        if not line.strip():
            continue
        if ":" not in line:
            diags.append(Diagnostic(ln, 1, "expected 'key: value'"))
            continue
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        rest = rest.strip()
        col = _value_col(line, line.index(":") + 1)
        if key == "preset":
            if doc.preset_text:
                diags.append(Diagnostic(ln, col, "duplicate preset line"))
                continue
            ast, err = parse_preset_expr(rest)
            if err:
                diags.append(Diagnostic(ln, col + err[0] - 1, err[1]))
                continue
            doc.preset_text = rest
        elif key == "p":
            vals = _ints(rest)
            if not vals or len(vals) != 1:
                diags.append(Diagnostic(ln, col, "p expects one integer"))
                continue
            if vals[0] >= PRIME_BOUND:
                diags.append(Diagnostic(ln, col, f"modulus {vals[0]} is not below the int64-safe bound {PRIME_BOUND}"))
                continue
            if not is_prime(vals[0]):
                diags.append(Diagnostic(ln, col, f"modulus {vals[0]} is not prime"))
                continue
            doc.p = vals[0]
            seen_explicit = True
        elif key == "dim":
            vals = _ints(rest)
            try:
                if not vals or len(vals) != 1 or vals[0] < 1:
                    raise ValueError("dim expects one positive integer")
                doc.dim = check_dim(vals[0])
            except ValueError as exc:
                diags.append(Diagnostic(ln, col, str(exc)))
                dim_refused = True
                continue
            seen_explicit = True
        elif key == "one":
            vals = _ints(rest)
            if vals is None:
                diags.append(Diagnostic(ln, col, "one expects integer coordinates"))
                continue
            doc.one = tuple(vals)
            seen_explicit = True
        elif key == "mul":
            vals = _ints(rest)
            if vals is None or len(vals) != 4:
                diags.append(Diagnostic(ln, col, "mul expects 'i j k value'"))
                continue
            doc.triples = doc.triples + (tuple(vals),)
            seen_explicit = True
        elif key == "basis":
            doc.basis = tuple(rest.split())
        elif key == "name":
            doc.name = rest
        else:
            diags.append(Diagnostic(ln, 1, f"unknown key {key!r}"))
    if doc.preset_text and seen_explicit:
        diags.append(Diagnostic(1, 1, "preset and explicit structure data are mutually exclusive"))
        return None, diags
    if not doc.preset_text:
        if doc.p is None:
            diags.append(Diagnostic(1, 1, "missing field: p"))
        if doc.dim is None and not dim_refused:
            diags.append(Diagnostic(1, 1, "missing field: dim"))
        if not doc.one:
            diags.append(Diagnostic(1, 1, "missing field: one (identity coordinates)"))
    if doc.p is not None and doc.dim is not None:
        d, p = doc.dim, doc.p
        if doc.one and len(doc.one) != d:
            diags.append(Diagnostic(1, 1, f"identity coordinates must have length {d}"))
        for i, j, k, v in doc.triples:
            if not (0 <= i < d and 0 <= j < d and 0 <= k < d):
                diags.append(Diagnostic(1, 1, f"mul indices ({i},{j},{k}) out of range"))
            if not 0 <= v < p:
                diags.append(Diagnostic(1, 1, f"mul value {v} outside [0,{p})"))
        if doc.basis and len(doc.basis) != d:
            diags.append(Diagnostic(1, 1, f"basis names must have length {d}"))
    if diags:
        return None, diags
    return doc, []


def serialize_algebra_doc(doc: AlgebraDoc) -> str:
    lines = []
    if doc.name:
        lines.append(f"name: {doc.name}")
    if doc.preset_text:
        lines.append(f"preset: {doc.preset_text}")
    else:
        lines.append(f"p: {doc.p}")
        lines.append(f"dim: {doc.dim}")
        if doc.basis:
            lines.append("basis: " + " ".join(doc.basis))
        lines.append("one: " + " ".join(str(c) for c in doc.one))
        for i, j, k, v in sorted(doc.triples):
            lines.append(f"mul: {i} {j} {k} {v}")
    return "\n".join(lines) + "\n"


def build_algebra(doc: AlgebraDoc) -> Algebra:
    if doc.preset_text:
        ast, err = parse_preset_expr(doc.preset_text)
        if err:
            raise ValueError(f"bad preset: {err[1]}")
        alg = build_preset(ast)
        if doc.name:
            alg = Algebra(alg.p, alg.dim, alg.mul, alg.one, name=doc.name, basis_names=alg.basis_names)
        return alg
    d = doc.dim
    lam = np.zeros((d, d, d), dtype=np.int64)
    for i, j, k, v in doc.triples:
        lam[i, j, k] = v
    return Algebra(
        doc.p,
        d,
        lam,
        np.array(doc.one, dtype=np.int64),
        name=doc.name or "explicit",
        basis_names=doc.basis or None,
    )


# --- family documents ------------------------------------------------------


@dataclass(frozen=True)
class FactorSpec:
    kind: str  # 'regular' | 'simple' | 'quotient' | 'explicit'
    index: int = 0                      # simple#k
    gens: tuple = ()                    # quotient generators (coordinate tuples)
    n: int = 0                          # explicit dimension
    entries: tuple = ()                 # explicit sparse (i, r, c, v)
    label: str = ""

    def with_label(self, label: str) -> "FactorSpec":
        return FactorSpec(self.kind, self.index, self.gens, self.n, self.entries, label)


@dataclass
class FamilyDoc:
    algebra_kind: str = ""  # 'preset' | 'file'
    algebra_text: str = ""
    factors: tuple[FactorSpec, ...] = ()


def parse_family(text: str) -> tuple[FamilyDoc | None, list[Diagnostic]]:
    doc = FamilyDoc()
    diags: list[Diagnostic] = []
    factors: list[FactorSpec] = []
    open_explicit = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        if not line.strip():
            continue
        if ":" not in line:
            diags.append(Diagnostic(ln, 1, "expected 'key: value'"))
            continue
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        rest = rest.strip()
        col = _value_col(line, line.index(":") + 1)
        if key == "algebra":
            if doc.algebra_kind:
                diags.append(Diagnostic(ln, col, "duplicate algebra line"))
                continue
            mode, _, arg = rest.partition(" ")
            arg = arg.strip()
            if mode == "preset" and arg:
                ast, err = parse_preset_expr(arg)
                if err:
                    arg_col = _value_col(line, col - 1 + len(mode))
                    diags.append(Diagnostic(ln, arg_col + err[0] - 1, err[1]))
                    continue
                doc.algebra_kind, doc.algebra_text = "preset", arg
            elif mode == "file" and arg:
                doc.algebra_kind, doc.algebra_text = "file", arg
            else:
                diags.append(Diagnostic(ln, col, "algebra expects 'preset <expr>' or 'file <path>'"))
        elif key == "factor":
            open_explicit = False
            head, _, tail = rest.partition(" ")
            tail = tail.strip()
            if head == "regular" and not tail:
                factors.append(FactorSpec("regular"))
            elif head.startswith("simple#"):
                num = head[len("simple#"):]
                index = _int(num) if num.isdigit() else None
                if index is None or tail:
                    diags.append(Diagnostic(ln, col, "simple factor expects 'simple#<k>'"))
                    continue
                factors.append(FactorSpec("simple", index=index))
            elif head == "quotient":
                gens = []
                ok = True
                for part in tail.split(";"):
                    vals = _ints(part)
                    if vals is None or not vals:
                        ok = False
                        break
                    gens.append(tuple(vals))
                if not ok or not gens:
                    diags.append(Diagnostic(ln, col, "quotient expects generator vectors 'c0 c1 ... ; ...'"))
                    continue
                factors.append(FactorSpec("quotient", gens=tuple(gens)))
            elif head == "explicit":
                vals = _ints(tail)
                if vals is None or len(vals) != 1 or vals[0] < 0:
                    diags.append(Diagnostic(ln, col, "explicit factor expects a dimension"))
                    continue
                if vals[0] > ALGEBRA_DIM_CAP:
                    diags.append(Diagnostic(ln, col, f"explicit factor dimension {vals[0]} exceeds the cap {ALGEBRA_DIM_CAP}"))
                    continue
                factors.append(FactorSpec("explicit", n=vals[0]))
                open_explicit = True
            else:
                diags.append(Diagnostic(ln, col, f"unknown factor form {head!r}"))
        elif key == "act":
            if not open_explicit:
                diags.append(Diagnostic(ln, 1, "act line outside an explicit factor"))
                continue
            vals = _ints(rest)
            if vals is None or len(vals) != 4:
                diags.append(Diagnostic(ln, col, "act expects 'i row col value'"))
                continue
            spec = factors[-1]
            factors[-1] = FactorSpec(
                spec.kind, spec.index, spec.gens, spec.n, spec.entries + (tuple(vals),), spec.label
            )
        elif key == "label":
            if not factors:
                diags.append(Diagnostic(ln, 1, "label line before any factor"))
                continue
            factors[-1] = factors[-1].with_label(rest)
        else:
            diags.append(Diagnostic(ln, 1, f"unknown key {key!r}"))
    if not doc.algebra_kind:
        diags.append(Diagnostic(1, 1, "missing algebra line"))
    if not factors:
        diags.append(Diagnostic(1, 1, "family declares no factors"))
    if diags:
        return None, diags
    doc.factors = tuple(factors)
    return doc, []


class ParseFailure(ValueError):
    """An algebra file, a family's algebra line or a preset expression that
    does not parse, or whose preset arguments have the wrong kinds."""


def load_family_algebra(doc: FamilyDoc, base_dir: str) -> Algebra:
    """The algebra a family names. Raises ParseFailure for text that does
    not parse, OSError for an unreadable file, and ValueError when the
    algebra is refused (an unknown preset, a bound on dimension or modulus)."""
    if doc.algebra_kind == "preset":
        ast, err = parse_preset_expr(doc.algebra_text)
        if err:
            raise ParseFailure(f"bad preset: {err[1]}")
        return build_preset(ast)
    path = doc.algebra_text
    if not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    adoc, diags = parse_algebra(text)
    if adoc is None:
        raise ParseFailure(f"algebra file {path}: " + "; ".join(str(d) for d in diags))
    return build_algebra(adoc)


def resolve_factors(a: Algebra, specs) -> ProductFamily:
    """The family of factor specs over an algebra; simple#k follows the
    enumeration order of the irreducible-class listing. An explicit factor
    must satisfy the module axioms (``check_module``). Equal specs resolve
    to one module object.

    Construction certifies two kinds of annihilator, which the family
    carries: the regular module's is zero, as 1 acts as the identity, and
    simple#k's is its class annihilator (``semisimple_blocks``). The family
    computes those of quotient and explicit factors, with the ideal
    self-check, once each and only when asked."""
    from .topology import enumerate_irr

    built: dict[FactorSpec, tuple[ModuleRep, Subspace | None]] = {}
    space = None
    for k, spec in enumerate(specs):
        if spec in built:
            continue
        ann = None
        if spec.kind == "regular":
            m, ann = regular_module(a), Subspace.zero(a.dim, a.p)
        elif spec.kind == "simple":
            if space is None:
                space = enumerate_irr(a)
            if spec.index >= len(space.points):
                raise ValueError(f"simple#{spec.index} out of range: only {len(space.points)} classes")
            pt = space.points[spec.index]
            m, ann = pt.rep, pt.ann.subspace
        elif spec.kind == "quotient":
            reg = regular_module(a)
            gens = [np.array(g, dtype=np.int64) for g in spec.gens]
            if any(g.shape != (a.dim,) for g in gens):
                raise ValueError("quotient generators must have length dim")
            sub = spin(reg, gens)
            _, quot = sub_quotient(reg, sub)
            m = quot
        elif spec.kind == "explicit":
            act = np.zeros((a.dim, spec.n, spec.n), dtype=np.int64)
            for i, r, c, v in spec.entries:
                if not (0 <= i < a.dim and 0 <= r < spec.n and 0 <= c < spec.n):
                    raise ValueError(f"act entry ({i},{r},{c}) out of range")
                act[i, r, c] = v
            m = ModuleRep(a, spec.n, act)
            problems = check_module(m)
            if problems:
                raise ValueError(f"factor {k} (explicit {spec.n}) is not a module: " + "; ".join(problems))
        else:
            raise ValueError(f"unknown factor kind {spec.kind!r}")
        if spec.label:
            m = m.relabel(spec.label)
        built[spec] = (m, ann)
    factors = [built[spec] for spec in specs]
    return ProductFamily(a, tuple(m for m, _ in factors), tuple(ann for _, ann in factors))
