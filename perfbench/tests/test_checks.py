"""Each correctness check accepts the program's real output and rejects a
deliberately corrupted copy of it.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402
import workloads as w  # noqa: E402
from irrtop.cli import run  # noqa: E402
from workloads import Command  # noqa: E402

FILES = {
    "ut2.alg": "preset: upper_triangular(2, 2)\n",
    "cs3.alg": "preset: commutative_split(3, 2)\n",
    "c21.alg": "preset: group_algebra(C21, 2)\n",
    "s3.alg": "preset: group_algebra(S3, 3)\n",
    "none.fam": w._family(["simple#0", "simple#1", "simple#0"]),
    "found.fam": w._family(["simple#1", "regular", "simple#0"]),
    "reg.fam": w._family(["regular"] * 5),
}


def _sub(old: str, new: str):
    def corrupt(text: str) -> str:
        assert old in text, f"{old!r} not in output"
        return text.replace(old, new, 1)

    return corrupt


def _drop_line(prefix: str):
    def corrupt(text: str) -> str:
        lines = text.splitlines(keepends=True)
        i = next(i for i, ln in enumerate(lines) if ln.strip().startswith(prefix))
        return "".join(lines[:i] + lines[i + 1:])

    return corrupt


CS3 = w.commutative_split(3, 2)
CASES = [
    (Command(["irr", "--in", "c21.alg"], "irr", {"preset": w.cyclic_group_algebra(21, 2)}), _sub("count: 6", "count: 5")),
    (Command(["irr", "--in", "s3.alg"], "irr", {"preset": w.s3_group_algebra(3)}), _sub("dim: 1", "dim: 2")),
    (Command(["irr", "--in", "cs3.alg"], "irr", {"preset": CS3}), _sub("ann_dim: 2", "ann_dim: 1")),
    (Command(["radical", "--in", "s3.alg"], "radical", {"preset": w.s3_group_algebra(3)}), _sub("radical_dim: 4", "radical_dim: 3")),
    (Command(["radical", "--in", "ut2.alg"], "radical", {"preset": w.upper_triangular(2, 2)}), _sub("nilpotency_index: 2", "nilpotency_index: 3")),
    (Command(["chain-bound", "--in", "c21.alg"], "chain_bound", {"preset": w.cyclic_group_algebra(21, 2)}), _sub("bound: 8", "bound: 9")),
    (
        Command(["chain-bound", "--in", "c21.alg", "--module", "simple#5"], "chain_bound", {"preset": w.cyclic_group_algebra(21, 2), "simple": 5}),
        _sub("module_dim: 6", "module_dim: 3"),
    ),
    (Command(["validate", "--in", "ut2.alg"], "validate", {"preset": w.upper_triangular(2, 2)}), _sub("valid: true", "valid: false")),
    (Command(["zlattice", "--in", "cs3.alg"], "zlattice", {"n": 3}), _sub("count: 8", "count: 7")),
    (Command(["zlattice", "--in", "cs3.alg"], "zlattice", {"n": 3}), _drop_line("closed_set")),
    (Command(["point-closure", "--in", "cs3.alg"], "point_closure", {"n": 3}), _sub("space: finite", "space: symbolic")),
    (Command(["compare", "--in", "cs3.alg"], "compare", {"n": 3}), _sub("discrete: true", "discrete: false")),
    (Command(["refined-closure", "--in", "cs3.alg", "--set", "0,2"], "refined_closure", {"selection": [0, 2]}), _sub("closure: 0 2", "closure: 0 1 2")),
    (Command(["vset", "--in", "cs3.alg", "--ideal", "1 0 0"], "vset_split", {"n": 3, "support": [0]}), _sub("core_ideal_dim: 1", "core_ideal_dim: 2")),
    (Command(["verify-form", "--in", "cs3.alg", "--set", "0,1"], "verify_form_split", {"n": 3, "selection": [0, 1]}), _sub("finite_part:", "finite_part: 0")),
    (Command(["embed", "--in", "none.fam"], "embed", {"status": ("none",), "d": 3}), _sub("status: none", "status: found")),
    (Command(["embed", "--in", "found.fam"], "embed", {"status": ("found",), "d": 3}), _sub("valid: true", "valid: false")),
    (Command(["embed", "--in", "found.fam"], "embed", {"status": ("found",), "d": 3}), _sub("orbit_dim: 3", "orbit_dim: 2")),
    (Command(["embed-staged", "--in", "reg.fam"], "embed_staged", {"d": 3, "factors": 5}), _sub("outcome: witness", "outcome: stall")),
    (Command(["embed-staged", "--in", "reg.fam"], "embed_staged", {"d": 3, "factors": 5}), _sub("valid: true", "valid: false")),
    (Command(["embed-chain", "--in", "reg.fam"], "embed_chain", {"d": 3}), _sub("final_l_dim: 0", "final_l_dim: 1")),
    (Command(["sufficiency", "--in", "reg.fam"], "sufficiency", {"factors": 5, "bound": 5}), _sub("guaranteed: true", "guaranteed: false")),
    (Command(["stability", "--in", "reg.fam", "--t", "2"], "stability", {"checked": 16, "stable": True}), _sub("checked_subfamilies: 16", "checked_subfamilies: 15")),
]


@pytest.fixture(scope="module", autouse=True)
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    for name, text in FILES.items():
        (d / name).write_text(text)
    old = os.getcwd()
    os.chdir(d)
    yield d
    os.chdir(old)


def _output(cmd: Command) -> tuple[int, str]:
    return run(cmd.argv + ["--format", "structured"])


@pytest.mark.parametrize("cmd,corrupt", CASES, ids=[f"{c.check}-{i}" for i, (c, _) in enumerate(CASES)])
def test_check_accepts_real_output_and_rejects_corruption(cmd, corrupt):
    code, out = _output(cmd)
    assert checks.check_command(cmd, code, out, {}) == []
    assert checks.check_command(cmd, code, corrupt(out), {})


def test_labels_from_irr_pin_vset_and_verify_form_exactly():
    irr = Command(["irr", "--in", "cs3.alg", "--seed", "4"], "irr", {"preset": CS3})
    vset = Command(["vset", "--in", "cs3.alg", "--ideal", "0 1 0", "--seed", "4"], "vset_split", {"n": 3, "support": [1]})
    outputs = [_output(irr), _output(vset)]
    assert checks.check_session([irr, vset], outputs) == [[], []]
    coords = checks.label_contexts([irr], outputs[:1])[("cs3.alg", "4")]["coords"]
    killed = sorted(i for i, c in coords.items() if c != 1)
    wrong = [i for i in range(3) if i not in killed][:1] + killed[1:]
    bad = outputs[1][1].replace(f"points: {' '.join(map(str, killed))}", f"points: {' '.join(map(str, sorted(wrong)))}")
    assert checks.check_session([irr, vset], [outputs[0], (0, bad)])[1]


def test_sampled_scan_may_end_none_or_unknown_but_never_found():
    cmd = Command(["embed", "--in", "none.fam"], "embed", {"status": ("none", "unknown"), "d": 3})
    code, out = _output(cmd)
    assert checks.check_command(cmd, code, out, {}) == []
    assert checks.check_command(cmd, code, out.replace("status: none", "status: unknown"), {}) == []
    assert checks.check_command(cmd, code, out.replace("status: none", "status: found"), {})


def test_wrong_exit_code_and_rerun_mismatch_fail():
    cmd = Command(["radical", "--in", "ut2.alg"], "radical", {"preset": w.upper_triangular(2, 2)})
    code, out = _output(cmd)
    assert checks.check_command(cmd, 1, out, {})
    rerun = Command(cmd.argv, cmd.check, cmd.facts, rerun_of=0)
    assert checks.check_session([cmd, rerun], [(code, out), (code, out)]) == [[], []]
    assert checks.check_session([cmd, rerun], [(code, out), (code, out + "\n")])[1]


def test_unreadable_report_fails():
    cmd = Command(["validate", "--in", "ut2.alg"], "validate", {"preset": w.upper_triangular(2, 2)})
    assert checks.check_command(cmd, 0, "not a report", {})


def test_preset_theory():
    assert w.cyclic_group_algebra(21, 2).class_dims == [1, 2, 3, 3, 6, 6]
    c4 = w.cyclic_group_algebra(4, 2)
    assert (c4.class_dims, c4.radical_dim, c4.nilpotency, c4.length) == ([1], 3, 4, 4)
    prod = w.product([w.matrix_algebra(3, 2), w.upper_triangular(4, 2), w.s3_group_algebra(2)])
    assert (prod.dim, prod.class_dims, prod.radical_dim, prod.length) == (25, [1, 1, 1, 1, 1, 2, 3], 7, 17)


@pytest.mark.parametrize("workload", sorted(w.SESSIONS))
def test_sessions_are_seeded_and_sized(workload):
    a, b, c = (w.SESSIONS[workload](s) for s in (1, 1, 2))
    assert [x.argv for x in a.commands] == [x.argv for x in b.commands]
    assert [x.argv for x in a.commands] != [x.argv for x in c.commands]
    assert len(a.commands) == len(c.commands) >= 100
    kinds = [sorted(x.argv[0] for x in s.commands if x.rerun_of is None) for s in (a, c)]
    assert kinds[0] == kinds[1]
    assert all(x.rerun_of < i for i, x in enumerate(a.commands) if x.rerun_of is not None)
