"""Document parsing (totality, diagnostics, round trips) and the command
line surface (dispatch, determinism, exit codes)."""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irrtop import cli, oracles
from irrtop.cli import run
from irrtop.docs import (
    build_algebra,
    parse_algebra,
    parse_family,
    parse_preset_expr,
    parse_report,
    render_report,
    serialize_algebra_doc,
)
from irrtop.linalg import Subspace

UT2_PRESET = "preset: upper_triangular(2, 2)\n"

UT2_EXPLICIT = """\
# upper triangular 2x2 over GF(2), explicit structure constants
name: ut2-explicit
p: 2
dim: 3
basis: e11 e12 e22
one: 1 0 1
mul: 0 0 0 1
mul: 0 1 1 1
mul: 1 2 1 1
mul: 2 2 2 1
"""

FAMILY_TEXT = """\
algebra: preset upper_triangular(2, 2)
factor: simple#0
factor: simple#1
factor: regular
label: copy-of-regular
factor: regular
"""

SAMPLES = [
    UT2_PRESET,
    UT2_EXPLICIT,
    "preset: matrix_algebra(2, 2)\n",
    "preset: matrix_algebra(2, 3)\n",
    "preset: truncated_polynomial(3, 2)\n",
    "preset: commutative_split(3, 2)\n",
    "preset: group_algebra(C2, 2)\n",
    "preset: group_algebra(C3, 2)\n",
    "preset: group_algebra(S3, 3)\n",
    "preset: product(matrix_algebra(2, 2), upper_triangular(2, 2))\n",
    "p: 2\ndim: 1\none: 1\nmul: 0 0 0 1\n",
    "p: 3\ndim: 1\none: 1\nmul: 0 0 0 1\n",
    "p: 5\ndim: 2\none: 1 0\nmul: 0 0 0 1\nmul: 0 1 1 1\nmul: 1 0 1 1\n",
    "name: trivial\np: 2\ndim: 1\none: 1\nmul: 0 0 0 1\n",
    "preset: upper_triangular(3, 2)\n",
    "preset: upper_triangular(2, 3)\n",
    "preset: truncated_polynomial(2, 5)\n",
    "preset: group_algebra(C4, 2)\n",
    "preset: matrix_algebra(1, 7)\n",
    "basis: a\np: 2\ndim: 1\none: 1\nmul: 0 0 0 1\n",
]


def test_parse_preset_declaration():
    doc, diags = parse_algebra(UT2_PRESET)
    assert doc is not None and not diags
    a = build_algebra(doc)
    assert a.dim == 3 and a.p == 2


def test_parse_explicit_matches_preset():
    doc, diags = parse_algebra(UT2_EXPLICIT)
    assert doc is not None, diags
    a = build_algebra(doc)
    from irrtop.presets import upper_triangular

    assert (a.mul == upper_triangular(2, 2).mul).all()
    assert (a.one == upper_triangular(2, 2).one).all()


def test_missing_identity_diagnostic_names_field():
    doc, diags = parse_algebra("p: 2\ndim: 1\nmul: 0 0 0 1\n")
    assert doc is None
    assert any("one" in d.message for d in diags)


def test_diagnostics_carry_positions():
    doc, diags = parse_algebra("p: 2\nwhat even is this\n")
    assert doc is None
    assert all(d.line >= 1 and d.col >= 1 for d in diags)
    assert any(d.line == 2 for d in diags)


def test_preset_and_explicit_are_exclusive():
    doc, diags = parse_algebra("preset: matrix_algebra(2, 2)\np: 2\n")
    assert doc is None
    assert any("exclusive" in d.message for d in diags)


def test_modulus_above_the_int64_bound_rejected():
    doc, diags = parse_algebra("p: 4294967311\ndim: 1\none: 1\nmul: 0 0 0 1\n")
    assert doc is None
    assert any("1048576" in d.message and d.line == 1 for d in diags)


def test_nonprime_modulus_rejected():
    doc, diags = parse_algebra("p: 6\ndim: 1\none: 1\n")
    assert doc is None
    assert any("prime" in d.message for d in diags)


@pytest.mark.parametrize("text", SAMPLES)
def test_round_trip_samples(text):
    doc, diags = parse_algebra(text)
    assert doc is not None, diags
    text2 = serialize_algebra_doc(doc)
    doc2, diags2 = parse_algebra(text2)
    assert doc2 is not None and not diags2
    assert doc2 == doc


def test_preset_expression_errors_are_positioned():
    ast, err = parse_preset_expr("upper_triangular(2,")
    assert ast is None and err is not None
    ast, err = parse_preset_expr("matrix_algebra(2, 2) extra")
    assert ast is None and err is not None


def test_parse_family():
    doc, diags = parse_family(FAMILY_TEXT)
    assert doc is not None, diags
    assert [f.kind for f in doc.factors] == ["simple", "simple", "regular", "regular"]
    assert doc.factors[2].label == "copy-of-regular"


def test_parse_family_explicit_and_quotient():
    text = (
        "algebra: preset upper_triangular(2, 2)\n"
        "factor: explicit 1\n"
        "act: 0 0 0 1\n"
        "factor: quotient 0 1 0\n"
    )
    doc, diags = parse_family(text)
    assert doc is not None, diags
    from irrtop.docs import load_family_algebra, resolve_factors

    a = load_family_algebra(doc, ".")
    mods = resolve_factors(a, doc.factors).factors
    assert mods[0].n == 1
    assert mods[1].n == 2  # regular / span{e12}


# Family document lines: a key, then words valid and not (preset calls,
# repeated signs, Unicode digits '\u00b2' and '\u0663', separators, random
# text), separated by blanks.
FAMILY_KEYS = ["algebra: preset ", "algebra: preset u(", "algebra: file ", "factor: ", "factor: explicit ", "factor: simple#", "act: ", "label: ", ""]
FAMILY_WORDS = [
    "regular", "quotient", "upper_triangular(2, 2)", "u(", ")", ",", ";", "#", "-", "--1", "0", "7",
    ":", "\u00b2", "1\u0663", "x",
]
family_lines = st.tuples(
    st.sampled_from(FAMILY_KEYS),
    st.lists(st.one_of(st.sampled_from(FAMILY_WORDS), st.text(max_size=3)), max_size=5).map(" ".join),
).map("".join)


@settings(max_examples=300)
@given(st.lists(family_lines, max_size=6).map("\n".join))
@example("algebra: preset upper_triangular(2, 2)\nfactor: explicit --1\n")
@example("algebra: preset upper_triangular(2, 2)\nfactor: simple#\u00b2\n")
@example("algebra: preset upper_triangular(--2, 2)\nfactor: regular\n")
@example("algebra: preset upper_triangular(2\u00b2, 2)\nfactor: regular\n")
@example("algebra: preset upper_triangular(" + "9" * 5000 + ", 2)\nfactor: regular\n")
@example("algebra: preset upper_triangular(2, 2)\nfactor: explicit 1\nact: 0 0 0 " + "9" * 5000 + "\n")
@example("algebra: preset " + "product(" * 3000 + "\nfactor: regular\n")
def test_parse_family_is_total(text):
    """A document or positioned diagnostics, never an exception."""
    doc, diags = parse_family(text)
    if doc is not None:
        assert diags == [] and doc.algebra_kind in ("preset", "file") and doc.factors
        return
    assert diags
    for d in diags:
        assert 1 <= d.line <= max(1, len(text.splitlines())) and d.col >= 1, d


# Algebra document lines: a key, then words valid and not, as for families.
ALGEBRA_KEYS = ["preset: ", "preset: u(", "p: ", "dim: ", "one: ", "mul: ", "basis: ", "name: ", "Preset:", "# ", ""]
ALGEBRA_WORDS = [
    "upper_triangular(2, 2)", "product(", "matrix_algebra(matrix_algebra(2, 2), 2)", "u(", ")", ",", ":", "#",
    "-", "--1", "0", "1", "2", "3", "1048573", "9" * 5000, "\u00b2", "1\u0663", "x",
]
algebra_lines = st.tuples(
    st.sampled_from(ALGEBRA_KEYS),
    st.lists(st.one_of(st.sampled_from(ALGEBRA_WORDS), st.text(max_size=3)), max_size=5).map(" ".join),
).map("".join)


@settings(max_examples=300)
@given(st.lists(algebra_lines, max_size=6).map("\n".join))
@example("p: 2\ndim: 1\none: 1\nmul: 0 0 0 1\n")
@example("preset: " + "product(" * 3000 + "\n")
@example("p: 2\ndim: " + "9" * 5000 + "\none: 1\n")
@example("p: 2\ndim: 1\none: \u0663\nmul: 0 0 0 --1\n")
@example("preset:\n")
def test_parse_algebra_is_total(text):
    """A document or positioned diagnostics, never an exception."""
    doc, diags = parse_algebra(text)
    if doc is not None:
        assert diags == []
        return
    assert diags
    for d in diags:
        assert 1 <= d.line <= max(1, len(text.splitlines())) and d.col >= 1, d


# Report lines: indentation, a key, a separator and a value.
report_lines = st.tuples(
    st.sampled_from(["", " ", "  ", "   ", "    ", "\t"]),
    st.sampled_from(["command", "result", "point", "id", "", ":", "x y"]) | st.text(max_size=4),
    st.sampled_from([":", ": ", "", " :", "::"]),
    st.sampled_from(["", "irr", "0 1", "irrtop/1"]) | st.text(max_size=4),
).map("".join)


@settings(max_examples=300)
@given(st.sampled_from(["irrtop/1\n", " irrtop/1 \n", "", "irrtop/2\n", "\n \nirrtop/1\n"]), st.lists(report_lines, max_size=8).map("\n".join))
@example("irrtop/1\n", "   a: 1")
@example("irrtop/1\n", "a:\n    b: 1\n c: 2")
@example("irrtop/1\n", "\x85a: 1\u2028  b:")
def test_parse_report_is_total(header, body):
    """A tree or positioned diagnostics, never an exception."""
    text = header + body
    doc, diags = parse_report(text)
    assert doc is not None or diags
    for d in diags:
        assert 1 <= d.line <= max(1, len(text.splitlines())) and d.col >= 1, d


def test_parse_report_skips_leading_blank_lines_and_keeps_line_numbers():
    doc, diags = parse_report("\n  \nirrtop/1\ncommand: irr\n   bad: 1\n")
    assert doc is not None and doc.get("command") == "irr"
    assert [(d.line, d.col, d.message) for d in diags] == [(5, 3, "odd indentation")]
    assert [(d.line, d.message) for d in parse_report("\n\nirrtop/2\n")[1]] == [(3, "missing irrtop/1 header")]
    assert [(d.line, d.message) for d in parse_report("\n \n")[1]] == [(1, "missing irrtop/1 header")]


def test_family_diagnostics():
    doc, diags = parse_family("factor: regular\n")
    assert doc is None
    assert any("algebra" in d.message for d in diags)
    doc, diags = parse_family("algebra: preset upper_triangular(2, 2)\nact: 0 0 0 1\n")
    assert doc is None
    assert any("explicit" in d.message or "factor" in d.message for d in diags)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_validate_and_irr(tmp_path):
    alg = _write(tmp_path, "ut2.alg", UT2_PRESET)
    code, out = run(["validate", "--in", alg, "--format", "structured"])
    assert code == 0 and "valid: true" in out
    code, out = run(["irr", "--in", alg, "--format", "structured"])
    assert code == 0 and "count: 2" in out


def test_cli_validate_reports_violations(tmp_path):
    bad = _write(
        tmp_path,
        "bad.alg",
        "p: 2\ndim: 1\none: 0\nmul: 0 0 0 1\n",
    )
    code, out = run(["validate", "--in", bad, "--format", "structured"])
    assert code == 0
    assert "valid: false" in out and "identity" in out


def test_cli_radical_and_compare(tmp_path):
    alg = _write(tmp_path, "ut2.alg", UT2_PRESET)
    code, out = run(["radical", "--in", alg, "--format", "structured"])
    assert code == 0 and "radical_dim: 1" in out
    code, out = run(["compare", "--in", alg, "--format", "structured"])
    assert code == 0
    assert "summary: zariski = refined = point-closure = discrete (4 closed sets)" in out


@pytest.mark.parametrize("command", ["compare", "zlattice"])
@pytest.mark.parametrize("n", [3, 5])
def test_cli_zariski_family_takes_one_meet(tmp_path, monkeypatch, command, n):
    # The family's dimensions come from the Chinese remainder identity: one
    # checked meet over all points, and no Zassenhaus intersection anywhere.
    # The class listing forms no meet: its checks on the block idempotents
    # imply that the class annihilators meet in the radical.
    calls = []
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("irrtop") and hasattr(mod, "annihilator_meet"):
            inner = mod.annihilator_meet
            monkeypatch.setattr(mod, "annihilator_meet", lambda *a, inner=inner: calls.append("meet") or inner(*a))
    intersect = Subspace.intersect
    monkeypatch.setattr(Subspace, "intersect", lambda u, v: calls.append("intersect") or intersect(u, v))
    alg = _write(tmp_path, "cs.alg", f"preset: commutative_split({n}, 2)\n")
    code, out = run([command, "--in", alg, "--format", "structured"])
    assert code == 0 and out.count("ideal_dim: ") == 2**n
    assert calls == ["meet"]


@pytest.mark.parametrize("command", ["zlattice", "point-closure", "compare"])
def test_cli_class_space_listings_refuse_more_than_16_points(tmp_path, command):
    alg = _write(tmp_path, "cs17.alg", "preset: commutative_split(17, 2)\n")
    assert run([command, "--in", alg, "--format", "structured"])[:2] == (
        1,
        "error: semiprimitive lattice capped at 16 points\n",
    )


# Not a module: the identity e11 + e22 acts as [[0, 1], [0, 1]].
NON_MODULE_FAMILY = """\
algebra: preset upper_triangular(2, 2)
factor: explicit 2
act: 0 0 1 1
act: 2 1 1 1
"""


@pytest.mark.parametrize("command", ["embed", "stability", "embed-chain", "embed-staged", "sufficiency"])
def test_cli_refuses_an_explicit_factor_that_is_not_a_module(tmp_path, command):
    fam = _write(tmp_path, "bad.fam", NON_MODULE_FAMILY)
    code, out = run([command, "--in", fam, "--format", "structured"])[:2]
    assert code == 1 and out.count("\n") == 1
    assert out.startswith("error: factor 0 (explicit 2) is not a module: ")
    assert "identity element does not act as the identity matrix" in out


def test_an_explicit_factor_above_the_cap_is_one_positioned_diagnostic(tmp_path):
    text = "algebra: preset upper_triangular(2, 2)\nfactor: regular\nfactor: explicit 100000000\n"
    doc, diags = parse_family(text)
    assert doc is None
    assert [(d.line, d.col, d.message) for d in diags] == [(3, 9, "explicit factor dimension 100000000 exceeds the cap 144")]
    assert run(["embed", "--in", _write(tmp_path, "huge.fam", text), "--format", "structured"])[:2] == (
        2,
        "error: family parse failed: 3:9: explicit factor dimension 100000000 exceeds the cap 144\n",
    )
    doc, diags = parse_family(text.replace("100000000", "144") + "act: 0 0 0 1\n")
    assert doc is not None and doc.factors[1].n == 144


def test_cli_vset_and_zlattice(tmp_path):
    alg = _write(tmp_path, "ut2.alg", UT2_PRESET)
    code, out = run(["vset", "--in", alg, "--ideal", "0 1 0 ; 0 0 1", "--format", "structured"])
    assert code == 0 and "points: 0" in out
    code, out = run(["zlattice", "--in", alg, "--format", "structured"])
    assert code == 0 and "count: 4" in out


@pytest.mark.parametrize("command", ["refined-closure", "verify-form"])
def test_cli_refuses_a_point_id_out_of_range(tmp_path, command):
    alg = _write(tmp_path, "ut2.alg", UT2_PRESET)
    assert run([command, "--in", alg, "--set", "0,2", "--format", "structured"]) == (1, "error: point id out of range\n")


def test_cli_refined_closure_and_verify_form(tmp_path):
    alg = _write(tmp_path, "ut2.alg", UT2_PRESET)
    code, out = run(["refined-closure", "--in", alg, "--set", "0", "--format", "structured"])
    assert code == 0 and "closed: true" in out
    code, out = run(["verify-form", "--in", alg, "--set", "p0,p1", "--format", "structured"])
    assert code == 0 and "refined_closed: true" in out and "found: true" in out


def test_cli_point_closure_concrete(tmp_path):
    alg = _write(tmp_path, "ut2.alg", UT2_PRESET)
    code, out = run(["point-closure", "--in", alg, "--format", "structured"])
    assert code == 0 and "count: 4" in out


def test_cli_builds_no_finite_space_for_an_algebra(tmp_path, monkeypatch):
    from irrtop.pointclosure import FiniteSpace

    def refuse(space):
        raise AssertionError("a finite space was built")

    monkeypatch.setattr(FiniteSpace, "validate", refuse)
    monkeypatch.setattr(FiniteSpace, "closure_pairs", refuse)
    alg = _write(tmp_path, "cs3.alg", "preset: commutative_split(3, 2)\n")
    for command in ("point-closure", "compare"):
        code, out = run([command, "--in", alg, "--format", "structured"])
        assert code == 0 and out.count("finite_part:") == 8, command


@pytest.mark.parametrize("points", [0, 3, 12])  # 12 is the cap
def test_cli_weyl_pipe(tmp_path, points):
    code, wm = run(["weyl-model", "--points", str(points), "--format", "structured"])
    assert code == 0
    rep = _write(tmp_path, "wm.txt", wm)
    code, out = run(["point-closure", "--in", rep, "--format", "structured"])
    assert code == 0 and f"count: {2**points + 1}" in out
    assert out.count("closed_part: EMPTY") == 2**points
    assert out.count("closed_part: ALL") == 1


def test_cli_point_closure_reads_a_report_after_blank_lines(tmp_path):
    code, wm = run(["weyl-model", "--points", "3", "--format", "structured"])
    want = run(["point-closure", "--in", _write(tmp_path, "wm.txt", wm), "--format", "structured"])
    got = run(["point-closure", "--in", _write(tmp_path, "wm-blank.txt", "\n" + wm), "--format", "structured"])
    assert code == 0 and want[0] == 0 and got == want


def test_cli_embedding_commands(tmp_path):
    fam = _write(tmp_path, "fam.fam", FAMILY_TEXT)
    code, out = run(["embed", "--in", fam, "--format", "structured"])
    assert code == 0 and "status: found" in out
    code, out = run(["embed-staged", "--in", fam, "--format", "structured"])
    assert code == 0 and "outcome: witness" in out and "valid: true" in out
    code, out = run(["embed-chain", "--in", fam, "--format", "structured"])
    assert code == 0 and "outcome: witness" in out
    code, out = run(["sufficiency", "--in", fam, "--format", "structured"])
    assert code == 0 and "bound: 5" in out
    assert "reason:" not in run(["embed", "--in", fam, "--format", "structured"])[1]


def test_cli_embed_states_why_theory_rules_out_a_witness(tmp_path):
    fam = _write(tmp_path, "simples.fam", "algebra: preset upper_triangular(2, 2)\nfactor: simple#0\nfactor: simple#1\n")
    code, out = run(["embed", "--in", fam, "--format", "structured"])
    assert code == 0
    assert "status: none\n  tried: 0\n  reason: ann(product) strictly contains the target\n" in out
    # The radical is ann(product) here, so it is searched for and found.
    code, out = run(["embed", "--in", fam, "--ideal", "0 1 0", "--format", "structured"])
    assert code == 0 and "status: found" in out and "reason:" not in out


def test_cli_stability(tmp_path):
    fam = _write(
        tmp_path,
        "pair.fam",
        "algebra: preset upper_triangular(2, 2)\nfactor: simple#0\nfactor: simple#1\n",
    )
    code, out = run(["stability", "--in", fam, "--ideal", "0 1 0", "--t", "0", "--format", "structured"])
    assert code == 0 and "stable: true" in out
    code, out = run(["stability", "--in", fam, "--ideal", "0 1 0", "--t", "1", "--format", "structured"])
    assert code == 0 and "stable: false" in out
    assert out.count("failure:") == 2


def test_cli_stability_refuses_more_than_4096_subfamilies(tmp_path):
    """40 factors with t = 3 would check 10,701 subfamilies; with t = 20,
    about 6.2e11. Both are refused before any meet."""
    fam = _write(tmp_path, "forty.fam", "algebra: preset commutative_split(2, 2)\n" + "factor: regular\n" * 40)
    for t in ("3", "20"):
        got = run(["stability", "--in", fam, "--t", t, "--format", "structured"])
        assert got == (1, "error: deletion check capped at 4096 subfamilies\n")


def test_cli_chain_bound(tmp_path):
    alg = _write(tmp_path, "ut2.alg", UT2_PRESET)
    code, out = run(["chain-bound", "--in", alg, "--format", "structured"])
    assert code == 0 and "length: 3\n  bound: 5\n" in out
    code, out = run(["chain-bound", "--in", alg, "--module", "simple#0", "--format", "structured"])
    assert code == 0 and "bound: 3" in out
    # The module is named in canonical form.
    assert run(["chain-bound", "--in", alg, "--module", "simple#01", "--format", "structured"]) == run(
        ["chain-bound", "--in", alg, "--module", "simple#1", "--format", "structured"]
    )
    code, out = run(["chain-bound", "--in", alg, "--module", "simple#00", "--format", "structured"])
    assert code == 0 and "  module: simple#0\n" in out


FAMILY_DOMAIN_ERRORS = [
    ("embed", "factor: simple#5\n", [], "simple#5 out of range: only 2 classes"),
    ("embed", "factor: quotient 1 0\n", [], "quotient generators must have length dim"),
    ("embed", "factor: simple#0\n", ["--ideal", "1 0 1"], "target ideal must annihilate the whole product"),
    ("embed-staged", "factor: simple#0\nfactor: simple#1\n", ["--ideal", "1 0 0"], "target ideal does not annihilate every factor"),
    ("embed-staged", "factor: regular\n", ["--order", "0,0,1"], "basis order must be a permutation of the working basis indices"),
    ("stability", "factor: regular\n", ["--t", "1"], "deletion budget must be smaller than the factor count"),
]


@pytest.mark.parametrize("command, factor, extra, message", FAMILY_DOMAIN_ERRORS)
def test_cli_family_domain_errors_exit_1(tmp_path, command, factor, extra, message):
    fam = _write(tmp_path, "f.fam", "algebra: preset upper_triangular(2, 2)\n" + factor)
    assert run([command, "--in", fam, "--format", "structured"] + extra) == (1, f"error: {message}\n")


def test_cli_exit_codes(tmp_path):
    code, out = run(["irr", "--in", str(tmp_path / "missing.alg")])
    assert code == 2
    garbled = _write(tmp_path, "garbled.alg", "p: 2\n???\n")
    code, out = run(["irr", "--in", garbled])
    assert code == 2
    broken = _write(tmp_path, "broken.alg", "p: 2\ndim: 1\none: 0\nmul: 0 0 0 1\n")
    code, out = run(["irr", "--in", broken])
    assert code == 1


@pytest.mark.parametrize(
    "preset, message",
    [
        ("matrix_algebra(13, 2)", "algebra dimension 169 exceeds the cap 144"),
        ("matrix_algebra(2, 1048573)", "modulus 1048573 too large for dimension 4"),
    ],
)
def test_cli_refused_presets_exit_1_from_algebra_and_family_files(tmp_path, preset, message):
    alg = _write(tmp_path, "big.alg", f"preset: {preset}\n")
    fam = _write(tmp_path, "big.fam", f"algebra: preset {preset}\nfactor: regular\n")
    via_file = _write(tmp_path, "via.fam", "algebra: file big.alg\nfactor: regular\n")
    for argv in (["irr", "--in", alg], ["embed", "--in", fam], ["embed", "--in", via_file]):
        code, out = run(argv + ["--format", "structured"])
        assert code == 1 and out.startswith(f"error: {message}") and out.count("\n") == 1, argv


def test_cli_family_parse_failures_and_unreadable_files_exit_2(tmp_path):
    _write(tmp_path, "garbled.alg", "p: 2\n???\n")
    families = [
        "algebra: preset matrix_algebra(2, 2\nfactor: regular\n",
        "algebra: file garbled.alg\nfactor: regular\n",
        "algebra: file missing.alg\nfactor: regular\n",
    ]
    for i, text in enumerate(families):
        code, out = run(["embed", "--in", _write(tmp_path, f"f{i}.fam", text), "--format", "structured"])
        assert code == 2 and out.startswith("error: ") and out.count("\n") == 1, text


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["embed", "--in", "{fam}", "--budget", "-5"], "--budget"),
        (["stability", "--in", "{fam}", "--t", "-1"], "--t"),
        (["weyl-model", "--points", "-2"], "--points"),
        (["embed-staged", "--in", "{fam}", "--order", "0,x"], "--order"),
        (["chain-bound", "--in", "{alg}", "--module", "simple#x"], "--module"),
        (["chain-bound", "--in", "{alg}", "--module", "simple#-1"], "--module"),
        (["irr", "--in", "{alg}", "--seed", "-1"], "--seed"),
    ],
)
def test_cli_rejects_bad_integers_as_usage_errors(tmp_path, argv, flag):
    paths = {"fam": _write(tmp_path, "fam.fam", FAMILY_TEXT), "alg": _write(tmp_path, "ut2.alg", UT2_PRESET)}
    code, out = run([t.format(**paths) for t in argv] + ["--format", "structured"])
    assert code == 2 and out.startswith(f"error: argument {flag}:") and out.count("\n") == 1


def test_cli_non_ascii_digits_are_usage_errors(tmp_path):
    alg = _write(tmp_path, "ut2.alg", UT2_PRESET)
    code, out = run(["refined-closure", "--in", alg, "--set", "\u00b2"])
    assert code == 2 and out.startswith("error: bad point id")
    code, out = run(["vset", "--in", alg, "--ideal", "0 \u00b2 0"])
    assert code == 2 and out.startswith("error: bad vector")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["vset", "--ideal", "--1 0 0"], "error: bad vector '--1 0 0' in --ideal"),
        (["vset", "--ideal", "\u0663 0 0"], "error: bad vector '\u0663 0 0' in --ideal"),
        (["vset", "--ideal", "+1 0 0"], "error: bad vector '+1 0 0' in --ideal"),
        (["vset", "--ideal", "9" * 5000 + " 0 0"], "error: bad vector"),
        (["refined-closure", "--set", "\u0663"], "error: bad point id '\u0663' in --set"),
        (["refined-closure", "--set", "p-1"], "error: bad point id 'p-1' in --set"),
        (["verify-form", "--set", "0,pp1"], "error: bad point id 'pp1' in --set"),
        (["irr", "--seed", "\u0663"], "error: argument --seed:"),
        (["chain-bound", "--module", "simple#\u0663"], "error: argument --module:"),
        (["embed-staged", "--order", "0,\u0663"], "error: argument --order:"),
    ],
)
def test_cli_integers_are_ascii_decimals(tmp_path, argv, message):
    alg = _write(tmp_path, "ut2.alg", UT2_PRESET)
    code, out = run(argv + ["--in", alg, "--format", "structured"])
    assert code == 2 and out.startswith(message) and out.count("\n") == 1


def test_cli_ideal_entries_are_reduced_mod_p(tmp_path):
    # Entries past int64 used to end in an OverflowError traceback.
    alg = _write(tmp_path, "ut2.alg", UT2_PRESET)
    big = run(["vset", "--in", alg, "--ideal", f"{2**70 + 1} 0 -{2**64}", "--format", "structured"])
    small = run(["vset", "--in", alg, "--ideal", "1 0 0", "--format", "structured"])
    assert big == small and big[0] == 0


@pytest.mark.parametrize(
    "preset, message",
    [
        ("matrix_algebra(matrix_algebra(2, 2), 2)", "matrix_algebra expects (integer, integer) arguments, got (algebra, integer)"),
        ("upper_triangular(2)", "upper_triangular expects (integer, integer) arguments, got (integer)"),
        ("commutative_split(x, 2)", "commutative_split expects (integer, integer) arguments, got (name, integer)"),
        ("group_algebra(upper_triangular(2, 2), 2)", "group_algebra expects (name, integer) arguments, got (algebra, integer)"),
        ("group_algebra(3, 2)", "group_algebra expects (name, integer) arguments, got (integer, integer)"),
        ("product(2, upper_triangular(2, 2))", "product expects (one or more algebra) arguments, got (integer, algebra)"),
        ("product()", "product expects (one or more algebra) arguments, got ()"),
        ("product(matrix_algebra(2, 2), truncated_polynomial(2, x))", "truncated_polynomial expects (integer, integer)"),
        ("upper_triangular", "preset must be a call like upper_triangular(2, 2)"),
    ],
)
def test_cli_preset_argument_kinds_exit_2(tmp_path, preset, message):
    alg = _write(tmp_path, "bad.alg", f"preset: {preset}\n")
    fam = _write(tmp_path, "bad.fam", f"algebra: preset {preset}\nfactor: regular\n")
    via_file = _write(tmp_path, "via.fam", "algebra: file bad.alg\nfactor: regular\n")
    for argv in (["irr", "--in", alg], ["validate", "--in", alg], ["point-closure", "--in", alg], ["embed", "--in", fam], ["embed", "--in", via_file]):
        code, out = run(argv + ["--format", "structured"])
        assert code == 2 and out.startswith(f"error: {message}") and out.count("\n") == 1, argv


def test_cli_help_exits_0(capsys):
    assert run(["irr", "--help"]) == (0, "")
    assert "--seed" in capsys.readouterr().out


def test_cli_parser_is_built_once_per_process(tmp_path, capsys):
    alg = _write(tmp_path, "ut2.alg", UT2_PRESET)
    cli._build_parser.cache_clear()
    fresh = run(["irr", "--in", alg, "--bogus"])
    assert fresh[0] == 2 and fresh[1].startswith("error: ") and "--bogus" in fresh[1]
    parser = cli._build_parser()
    assert run(["irr", "--in", alg, "--format", "structured"])[0] == 0
    assert run(["radical", "--in", alg, "--format", "structured"])[0] == 0
    assert run(["irr", "--in", alg, "--bogus"]) == fresh
    assert run(["irr", "--help"]) == (0, "")
    assert "--seed" in capsys.readouterr().out
    assert cli._build_parser() is parser
    assert cli._build_parser.cache_info().misses == 1


def test_cli_internal_error_exits_3_without_traceback(tmp_path, monkeypatch):
    def broken(args):
        raise AssertionError("composition factor dimensions do not sum\nto the module dimension")

    monkeypatch.setitem(cli.HANDLERS, "irr", broken)
    alg = _write(tmp_path, "ut2.alg", UT2_PRESET)
    code, out = run(["irr", "--in", alg, "--format", "structured"])
    assert code == 3
    assert out == "internal error: composition factor dimensions do not sum to the module dimension\n"


def test_cli_point_closure_accepts_13_classes(tmp_path):
    alg = _write(tmp_path, "cs13.alg", "preset: commutative_split(13, 2)\n")
    code, out = run(["point-closure", "--in", alg, "--format", "structured"])
    assert code == 0 and "count: 8192" in out and out.count("\n  pair:") == 8192


def test_cli_symbolic_point_closure_refuses_above_cap(tmp_path):
    # weyl-model refuses 13 points itself, so the report is written out.
    names = " ".join(f"q{i}" for i in range(13))
    wm = (
        "irrtop/1\ncommand: weyl-model\nseed: 0\nresult:\n  symbolic_space:\n    kind: trivial-zariski\n"
        f"    infinite: true\n    closed_family: EMPTY ALL\n    points: {names}\n"
    )
    rep = _write(tmp_path, "wm13.txt", wm)
    code, out = run(["point-closure", "--in", rep, "--format", "structured"])
    assert (code, out) == (1, "error: symbolic point closure capped at 12 named points\n")


@pytest.mark.parametrize(
    "body",
    [
        # a points line that opens a subtree
        "  symbolic_space:\n    kind: trivial-zariski\n    infinite: true\n    closed_family: EMPTY ALL\n"
        "    points:\n      q0: q1\n",
        # another family over three points
        "  symbolic_space:\n    kind: trivial-zariski\n    infinite: true\n    closed_family: A B C\n    points: a a a\n",
    ],
    ids=["points-subtree", "other-family"],
)
def test_cli_point_closure_refuses_a_report_that_is_no_weyl_model(tmp_path, body):
    rep = _write(tmp_path, "sym.txt", "irrtop/1\ncommand: weyl-model\nseed: 0\nresult:\n" + body)
    code, out = run(["point-closure", "--in", rep, "--format", "structured"])
    assert (code, out) == (2, "error: report does not describe a symbolic space\n")


@pytest.mark.parametrize("points", ["13", "100000000"])
def test_cli_weyl_model_refuses_more_points_than_point_closure_takes(points):
    """The cap is checked before any name is built, so 10^8 points cost
    nothing."""
    assert run(["weyl-model", "--points", points]) == (1, "error: symbolic point closure capped at 12 named points\n")


@pytest.mark.parametrize(
    "command, option",
    [
        ("irr", "--budget"),
        ("irr", "--t"),
        ("irr", "--set"),
        ("validate", "--ideal"),
        ("vset", "--set"),
        ("refined-closure", "--ideal"),
        ("embed", "--t"),
        ("embed-staged", "--budget"),
        ("stability", "--budget"),
        ("chain-bound", "--points"),
        ("weyl-model", "--in"),
        ("selftest", "--in"),
        ("selftest", "--order"),
    ],
)
def test_cli_refuses_an_option_its_command_does_not_read(tmp_path, command, option):
    code, out = run([command, option, "1"])
    assert code == 2 and out.startswith("error: unrecognized arguments:") and option in out and out.count("\n") == 1


def test_cli_unwritable_output_file(tmp_path):
    alg = _write(tmp_path, "ut2.alg", UT2_PRESET)
    target = str(tmp_path / "missing" / "dir" / "report.txt")
    code, out = run(["irr", "--in", alg, "--out", target, "--format", "structured"])
    assert code == 1 and out.startswith("error: cannot write") and out.count("\n") == 1


def test_cli_selftest_deterministic():
    code1, out1 = run(["selftest", "--seed", "0", "--format", "structured"])
    code2, out2 = run(["selftest", "--seed", "0", "--format", "structured"])
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert "failed: 0" in out1


def test_cli_selftest_reports_a_failed_criterion(monkeypatch):
    criteria = list(oracles.CRITERIA)
    entry = criteria[1]
    criteria[1] = dataclasses.replace(entry, check=lambda seed: False)
    monkeypatch.setattr(oracles, "CRITERIA", criteria)
    code, out = run(["selftest", "--format", "structured"])
    assert code == 1
    assert f"    name: {entry.name}\n    ok: false\n" in out and out.count("ok: false") == 1
    assert out.endswith(f"  passed: {len(oracles.CRITERIA) - 1}\n  failed: 1\n")


def test_selftest_validates_each_finite_space_once(monkeypatch):
    from irrtop.pointclosure import FiniteSpace

    calls = []
    validate = FiniteSpace.validate
    monkeypatch.setattr(FiniteSpace, "validate", lambda space: calls.append(space) or validate(space))
    assert all(ok for _, ok in oracles.selftest_checks(0))
    # Criterion 1: the 1 + 4 + 29 + 355 topologies on 1 to 4 points and 100
    # random ones on each of 5 and 6; criterion 3: one per gallery algebra.
    assert len(calls) == 389 + 200 + 15


def test_cli_output_file(tmp_path):
    alg = _write(tmp_path, "ut2.alg", UT2_PRESET)
    target = str(tmp_path / "report.txt")
    code, out = run(["irr", "--in", alg, "--out", target, "--format", "structured"])
    assert code == 0 and out == ""
    text = open(target).read()
    assert text.startswith("irrtop/1")


def test_report_round_trip(tmp_path):
    alg = _write(tmp_path, "ut2.alg", UT2_PRESET)
    _, out = run(["irr", "--in", alg, "--format", "structured"])
    doc, diags = parse_report(out)
    assert doc is not None and not diags
    assert render_report(doc) == out


def mutate(text: str, rng) -> str:
    ops = rng.integers(1, 4)
    s = text
    for _ in range(ops):
        kind = rng.integers(0, 6)
        if not s:
            break
        pos = int(rng.integers(0, len(s)))
        if kind == 0:
            s = s[:pos] + chr(int(rng.integers(32, 127))) + s[pos:]
        elif kind == 1:
            s = s[:pos] + s[pos + 1 :]
        elif kind == 2:
            lines = s.splitlines(keepends=True)
            if lines:
                i = int(rng.integers(0, len(lines)))
                j = int(rng.integers(0, len(lines)))
                lines[i], lines[j] = lines[j], lines[i]
                s = "".join(lines)
        elif kind == 3:
            s = s[:pos]
        elif kind == 4:
            s = s[:pos] + "\x00\xff☃" + s[pos:]
        else:
            lines = s.splitlines(keepends=True)
            if lines:
                i = int(rng.integers(0, len(lines)))
                s = "".join(lines) + lines[i]
    return s


def test_fuzz_parsers_never_crash():
    rng = np.random.default_rng(0)
    bases = SAMPLES + [FAMILY_TEXT]
    for i in range(300):
        base = bases[int(rng.integers(0, len(bases)))]
        text = mutate(base, rng)
        for parser in (parse_algebra, parse_family):
            doc, diags = parser(text)
            if doc is None:
                assert diags
                assert all(d.line >= 1 and d.col >= 1 for d in diags)
